"""Coincidence and single count rates behind polarizers.

The signal arm always carries a polarizer in the H/V basis; the idler
polarizer is set either parallel (HH), crossed (HV), or to the diagonal
+45 degree basis (HPLUS).  Rates are pair-number series

    R = sum_x P(x) * K(x)

where P(x) is the source pmf and K(x) the per-x coincidence kernel for
the chosen setting, truncated under a certified tail bound.  K(x)
depends on the detectors and the setting but not on mu, so
:func:`coincidence_rate` keeps K(0..x_max) and the click tables behind
it in a small LRU of tables, one per kind, setting, detector pair and
H+ model, and a mu sweep computes each K(x) once.

The coherent H+ kernel of indistinguishable pairs costs O(x^2) per x.
Its table grows only in whole blocks of 16 pair numbers, the last one
cut at x = 200: the rows y <= x/2 of :func:`plus_port_distribution` for
a block are one cached numpy array, independent of mu and the
detectors, multiplied by the idler clicks as floats (the same IEEE
products ``w[y][p] * qi[p]`` that CPython forms for a float times an
int or Fraction) a bounded chunk of rows at a time, so no temporary
outgrows about 96 KB, and each row of n products t is summed by
error-free extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31,
189 (2008)).  Then K(x) of every x in the block comes from one more
certified array pass, over the products of the signal clicks and those
row sums, divided by x + 1.
With sigma = 2^k >= (n+2) max(t), high = (sigma + t) - sigma and
low = t - high are exact, tau = sum(high) is exact in any order, and
rho = fl(sum(low)) lies within E = n^2 2^-52 ulp(sigma)/2 of the exact
sum(low).  s = fl(tau + rho) is kept only where the exact residual
tau + rho - s (TwoSum), widened by E, stays inside half the gaps to the
doubles next to s, which proves s is the correctly rounded sum that
``math.fsum`` returns; the rare other rows, near ties, are summed by
``math.fsum``.  So the tables equal
:func:`per_x_coincidence`, the reference, bit for bit.

For distinguishable pairs the x-pair state is an incoherent mixture of
the 2^x ways of assigning HH/VV to the pairs; for indistinguishable
pairs it is a coherent superposition whose collapsed pattern index k
(the number of V-polarized pairs) is uniform on 0..x.

The HPLUS kernel on indistinguishable pairs requires re-expressing the
idler H/V Fock state in the +/- basis.  Two variants are provided:

* ``COHERENT`` (default): amplitudes for a fixed total number of
  +-photons are summed before squaring, so multi-photon interference
  (e.g. bunching of an H,V photon pair into ++ / --) is kept.
* ``INDEPENDENT``: each photon is routed to + or - independently with
  probability 1/2, discarding that interference.

Both variants have the same first moment of the +-photon number and
therefore agree to first order in the detector efficiency.

Time-bin pairs are this model seen through half-efficiency detectors:
a photon in one of the two slots of an unbalanced interferometer
reaches an analyzer output only through the matching arm, with
amplitude 1/2, so alpha -> alpha/2 and dark counts are untouched.
"""

from __future__ import annotations

import math
import operator
import threading
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .detection import DetectorModel, click_prob
from .distributions import (CapExceeded, PairSource, SourceKind, TruncationPolicy,
                            _check_count, pmf_values, truncation_index)

__all__ = [
    "Setting",
    "HplusModel",
    "RateMethod",
    "RateEntry",
    "RateReport",
    "UnsupportedSetting",
    "plus_port_distribution",
    "per_x_coincidence",
    "coincidence_rate",
    "single_rate",
    "closed_form_rates",
    "TimebinPort",
    "timebin_rate",
]


class UnsupportedSetting(ValueError):
    """The requested polarizer setting is not defined for this source kind."""


class Setting(Enum):
    """A measurement: a polarizer pair, one arm alone, a CAR coincidence,
    or a time-bin analyzer port pair.  Only HH, HV and HPLUS have a per-x
    coincidence kernel.  A port pair is its polarization twin seen through
    half-efficiency detectors (see :meth:`resolve`): HH for same-slot (aa),
    HV for opposite-slot (ab), HPLUS for slot-vs-superposition (a+).
    ``mu`` counts the pairs over both slots."""

    HH = "hh"
    HV = "hv"
    HPLUS = "hplus"
    SINGLE_S = "single-s"
    SINGLE_I = "single-i"
    CAR_MATCHED = "car-matched"
    CAR_UNMATCHED = "car-unmatched"
    TIMEBIN_AA = "timebin-aa"
    TIMEBIN_AB = "timebin-ab"
    TIMEBIN_APLUS = "timebin-aplus"

    def resolve(
        self, kind: SourceKind, det_s: DetectorModel, det_i: DetectorModel
    ) -> tuple[Setting, DetectorModel, DetectorModel]:
        """Reject a setting the kind does not define; map a time-bin setting
        onto its polarization twin seen through DetectorModel(alpha/2, dark)."""
        if self is Setting.HPLUS or self in _TIMEBIN_TWIN:
            _require_entangled(kind, self.value)
        if kind.entangled and self in (Setting.CAR_MATCHED, Setting.CAR_UNMATCHED):
            raise UnsupportedSetting(f"{self.value} requires a correlated kind")
        if self not in _TIMEBIN_TWIN:
            return self, det_s, det_i
        # the matching interferometer arm passes a slot with amplitude 1/2
        return (_TIMEBIN_TWIN[self], DetectorModel(det_s.alpha / 2, det_s.dark),
                DetectorModel(det_i.alpha / 2, det_i.dark))


def _require_entangled(kind: SourceKind, what: str) -> None:
    """The one kind rule: the diagonal basis, the time-bin ports, the
    visibility and the tomography exist only for entangled pairs."""
    if not kind.entangled:
        raise UnsupportedSetting(f"{what} is undefined for correlated kind {kind.value}")


# the closed forms are quadratic in mu: finite up to about 7e153 at unit efficiency
_CLOSED_FORM_MU_MAX = 1e150


def _closed_form_mu(kind: SourceKind, mu) -> float:
    """mu as :class:`PairSource` checks and stores it, within the closed forms' domain."""
    mu = PairSource(kind, mu).mu
    if mu > _CLOSED_FORM_MU_MAX:
        raise CapExceeded(f"the closed forms hold for mu <= {_CLOSED_FORM_MU_MAX:g}, got mu={mu!r}")
    return mu


class HplusModel(Enum):
    COHERENT = "coherent"
    INDEPENDENT = "independent"


class RateMethod(Enum):
    EXACT_SERIES = "exact-series"
    CLOSED_FORM = "closed-form"


@dataclass(frozen=True)
class RateEntry:
    """One computed rate with its provenance."""

    value: float
    setting: Setting
    method: RateMethod
    truncation_used: int
    hplus_model: HplusModel | None = None


@dataclass(frozen=True)
class RateReport:
    """The full set of polarization rates for one configuration."""

    r_hh: float
    r_hv: float
    r_hplus: float
    single_s: float
    single_i: float


_TIMEBIN_TWIN = {
    Setting.TIMEBIN_AA: Setting.HH,
    Setting.TIMEBIN_AB: Setting.HV,
    Setting.TIMEBIN_APLUS: Setting.HPLUS,
}


class TimebinPort(Enum):
    AA = "aa"
    AB = "ab"
    APLUS = "aplus"


def timebin_rate(
    kind: SourceKind,
    port: TimebinPort,
    mu: float,
    alpha_s: float,
    alpha_i: float,
    dark_s: float = 0.0,
    dark_i: float = 0.0,
    method: RateMethod = RateMethod.EXACT_SERIES,
    policy: TruncationPolicy = TruncationPolicy(),
    hplus_model: HplusModel = HplusModel.COHERENT,
) -> RateEntry:
    """Coincidence rate of a time-bin analyzer port pair.

    The efficiencies are those of the detectors themselves and must lie
    in [0, 1]; the returned entry's ``setting`` is the polarization
    twin the rate was computed for, at alpha/2.
    """
    setting, det_s, det_i = Setting(f"timebin-{port.value}").resolve(
        kind, DetectorModel(alpha_s, dark_s), DetectorModel(alpha_i, dark_i)
    )
    if method is RateMethod.EXACT_SERIES:
        return coincidence_rate(PairSource(kind, mu), setting, det_s, det_i, policy, hplus_model)
    if method is not RateMethod.CLOSED_FORM:
        raise ValueError(f"unsupported time-bin method {method}")
    rep = closed_form_rates(kind, mu, det_s.alpha, det_i.alpha, det_s.dark, det_i.dark)
    value = getattr(rep, f"r_{setting.value}")  # r_hh, r_hv or r_hplus
    model = hplus_model if setting is Setting.HPLUS else None
    return RateEntry(value, setting, RateMethod.CLOSED_FORM, 0, model)


# largest x that plus_port_distribution tabulates: TruncationPolicy's
# default hard_cap, equal to the oracle's HPLUS_X_CAP.  Its cache grows
# like x^3 and holds about 28 MB for x = 0..200; the block arrays that
# _plus_port_block caches for the tables hold about 12 MB more for
# blocks 0-12 (tracemalloc).
_PLUS_PORT_X_CAP = TruncationPolicy().hard_cap


def _check_plus_port_x(x: int) -> None:
    if x > _PLUS_PORT_X_CAP:
        raise CapExceeded(
            f"the coherent H+ kernel is tabulated up to x={_PLUS_PORT_X_CAP} pairs, "
            f"got x={x}; lower hard_cap or mu, or use HplusModel.INDEPENDENT"
        )


def _plus_port_rows(x: int) -> Iterator[list[float]]:
    """Rows k = 0..x//2 of :func:`plus_port_distribution`, as lists."""
    fact = [math.factorial(n) for n in range(x + 1)]
    half = x // 2 + 1  # p = 0..x//2; the rest mirror them
    perms = [fact[p] * fact[x - p] for p in range(half)]
    for k in range(half):
        coeff = [(-1) ** k]
        prev = 0
        for p in range(half - 1):
            c = coeff[p]
            coeff.append(((x - 2 * k) * c + (p - 1 - x) * prev) // (p + 1))
            prev = c
        den = (1 << x) * fact[x - k] * fact[k]
        row = [c * c * f / den for c, f in zip(coeff, perms)]
        yield row + row[: (x + 1) // 2][::-1]


@lru_cache(maxsize=None)
def plus_port_distribution(x: int) -> tuple[tuple[float, ...], ...]:
    """Photon-number distribution behind a +45 polarizer, per pattern index.

    ``W[k][p]`` is the probability that an idler Fock state with x-k
    H photons and k V photons contains exactly p photons in the + mode.
    The amplitude of the p-photon component is the coefficient c_p of
    t^p in f(t) = (1+t)^(x-k) (t-1)^k, carrying the relative minus sign
    of the V mode in the +/- decomposition; components with equal p are
    summed before squaring, so W[k][p] = c_p^2 p! (x-p)! / (2^x (x-k)! k!).

    From (t^2 - 1) f' = (x t - (x - 2k)) f the c_p obey the three-term
    Krawtchouk recurrence

        (p+1) c_{p+1} = (x-2k) c_p + (p-1-x) c_{p-1},   c_0 = (-1)^k,

    so a row takes O(x) exact integer steps.  t^x f(1/t) = (-1)^k f(t)
    makes each row symmetric in p, and f(-t) swaps k with x-k up to a
    sign, so rows k and x-k are one tuple.  All combinatorics are exact
    integers, so each probability is correct to one rounding.  Above
    x = 200 it raises :class:`CapExceeded`, which bounds the cache.
    """
    _check_count("x", x)
    _check_plus_port_x(x)
    rows = [tuple(row) for row in _plus_port_rows(x)]
    return tuple(rows + rows[: (x + 1) // 2][::-1])


# x values per block of plus_port_distribution rows in a float array
_BLOCK = 16


@lru_cache(maxsize=None)
def _plus_port_block(b: int) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Rows y <= x/2 of plus_port_distribution(x) for the x of block b,
    stacked in one read-only array padded with zeros; its largest entry;
    and two index arrays, one row per x of the block and one column per
    k, that gather the terms of K(x): ``signal`` holds x-k, an index into
    the signal clicks, and ``row`` the index of row min(k, x-k) of x in
    the block, or one past the last row where k > x.
    Built from the rows themselves, not through the tuple cache."""
    xs = range(b * _BLOCK, min((b + 1) * _BLOCK, _PLUS_PORT_X_CAP + 1))
    starts = list(accumulate((x // 2 + 1 for x in xs), initial=0))
    block = np.zeros((starts[-1], xs[-1] + 1))
    i = 0
    for x in xs:
        for row in _plus_port_rows(x):
            block[i, : x + 1] = row
            i += 1
    block.flags.writeable = False
    x = np.array(xs)[:, None]
    k = np.arange(xs[-1] + 1)
    inside = k <= x
    signal = np.where(inside, x - k, 0)
    row = np.where(inside, np.array(starts[:-1])[:, None] + np.minimum(k, x - k), starts[-1])
    return block, float(block.max()), signal, row


# terms that _row_sums forms and splits at once: about 12k floats, so each
# of its temporaries (96 KB) stays below glibc's 128 KB mmap threshold and
# is reused, not returned to the OS and faulted back in by the next call
_CHUNK = 12 * 1024


def _row_sums(terms: np.ndarray, top: float, factors=1.0) -> list[float]:
    """``math.fsum`` of each row of ``terms * factors``, a nonnegative
    float array, bit for bit, given ``top`` >= every entry.  ``factors``
    multiplies each row elementwise, and the products are formed and
    split a chunk of rows at a time.

    Error-free extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31,
    189 (2008)), for a row of n terms:

    * sigma = 2^k >= (n+2) top.  Then high = (sigma + t) - sigma and
      low = t - high are exact, high is a multiple of u = ulp(sigma) =
      2^(k-52) and |low| <= u/2.
    * tau = sum(high) is exact in any order: a multiple of u no larger
      than 2 sigma = 2^53 u.
    * rho = fl(sum(low)) is off by at most (n-1) 2^-53 / (1 - (n-1) 2^-53)
      * n u/2, in any order; E = n^2 2^-52 u/2 bounds that with a factor
      two to spare for the rounding of E itself.  (Where E underflows,
      the bound is below 2^-1075 and the error, a multiple of 2^-1074,
      is 0.)
    * s = fl(tau + rho), and delta = tau + rho - s exactly (TwoSum).

    The exact row sum lies in [s + delta - E, s + delta + E].  Where
    delta + E is below half the gap from s to the next double up, and
    E - delta below half the gap to the next one down, the correctly
    rounded sum, which ``math.fsum`` returns, is s; every other row, a
    near tie, is summed by ``math.fsum``.
    """
    n = terms.shape[1]
    # frexp's exponent e gives top < 2^e, and 2^bit_length(n+1) >= n+2
    sigma = math.ldexp(1.0, math.frexp(top)[1] + (n + 1).bit_length())
    tau = np.empty(len(terms))
    rho = np.empty(len(terms))
    step = max(1, _CHUNK // n)
    for i in range(0, len(terms), step):
        chunk = terms[i: i + step] * factors
        high = chunk + sigma
        high -= sigma
        chunk -= high
        tau[i: i + step] = high.sum(axis=1)
        rho[i: i + step] = chunk.sum(axis=1)
    bound = sigma * (n * n * 2.0**-105)
    s = tau + rho
    t = s - tau
    delta = (tau - (s - t)) + (rho - t)
    certified = ((delta + bound < np.spacing(s) / 2)
                 & (bound - delta < (s - np.nextafter(s, 0.0)) / 2))
    sums = s.tolist()
    for i in np.flatnonzero(~certified):
        sums[i] = math.fsum((terms[i] * factors).tolist())
    return sums


@lru_cache(maxsize=256)
def _float_binomials(x: int) -> tuple[float, ...]:
    """C(x, y) as floats for y = 0..x.  A float times an int is, in
    CPython, the float times float(int), so these products are bit for
    bit those of the ints."""
    return tuple(float(math.comb(x, y)) for y in range(x + 1))


def _exact(det: DetectorModel) -> bool:
    """True when :func:`click_prob` of this detector returns exact numbers
    (int or Fraction), False when it returns floats, as it does for every
    photon number once alpha or dark is a float."""
    return float not in (type(det.alpha), type(det.dark))


def _pattern_sum(kind: SourceKind, x: int, terms, exact: bool, factor=1):
    """``factor`` times the mean of ``terms[y]`` over the pattern of x pairs.

    y counts the V-polarized pairs: Binomial(x, 1/2) for distinguishable
    pairs, the uniform collapsed index on 0..x for indistinguishable
    pairs, and always 0 for correlated kinds, whose pairs are all H.
    ``exact`` terms (int or Fraction) are summed exactly, floats by
    ``math.fsum``, which would silently coerce exact types to float.
    ``factor`` multiplies the weighted sum before the normalisation, so
    a factorized kernel rounds as one product and one division.
    """
    total = sum if exact else math.fsum
    if kind is SourceKind.DIS_ENTANGLED:
        if exact:
            terms = [math.comb(x, y) * t for y, t in enumerate(terms)]
        else:
            terms = map(operator.mul, _float_binomials(x), terms)
        return total(terms) * factor / (1 << x)
    if kind is SourceKind.INDIS_ENTANGLED:
        return total(terms) * factor / (x + 1)
    return next(iter(terms)) * factor


def _check_kernel(kind: SourceKind, setting: Setting) -> None:
    if setting not in (Setting.HH, Setting.HV, Setting.HPLUS):
        raise UnsupportedSetting(f"{setting.value} has no per-x kernel; use series_rate")
    if setting is Setting.HPLUS:
        _require_entangled(kind, setting.value)


def _kernel(kind: SourceKind, setting: Setting, x: int, qs: list, qi: list, hplus_model,
            exact_s: bool, exact_i: bool):
    """K(x) from the click tables ``qs`` and ``qi``, each at least x+1 long,
    whose values are exact or floats as ``exact_s`` and ``exact_i`` say."""
    # with y V-polarized pairs the signal H/V polarizer passes x-y photons;
    # grouping the two click factors first keeps the term multiset, and
    # with it the exactly rounded sum, invariant under a detector swap
    if setting is Setting.HH:
        terms = map(operator.mul, qs[x::-1], qi[x::-1])
    elif setting is Setting.HV:
        terms = map(operator.mul, qs[x::-1], qi)
    elif kind is SourceKind.DIS_ENTANGLED or hplus_model is HplusModel.INDEPENDENT:
        # the idler + count is Binomial(x, 1/2) whatever the pattern, so
        # the kernel factorizes into the two marginal click probabilities
        idler = _pattern_sum(SourceKind.DIS_ENTANGLED, x, qi[: x + 1], exact_i)
        return _pattern_sum(kind, x, qs[x::-1], exact_s, idler)
    else:
        # sums[y], the idler click probability of pattern y; rows y and x-y
        # of w are one tuple, and so are their sums
        w = plus_port_distribution(x)
        sums = [math.fsum(map(operator.mul, w[y], qi)) for y in range(x // 2 + 1)]
        terms = map(operator.mul, qs[x::-1], sums + sums[: (x + 1) // 2][::-1])
        # the sums are floats, and so are their products
        return _pattern_sum(kind, x, terms, False)
    # a product is exact only when both of its factors are
    return _pattern_sum(kind, x, terms, exact_s and exact_i)


def per_x_coincidence(
    kind: SourceKind,
    setting: Setting,
    x: int,
    det_s: DetectorModel,
    det_i: DetectorModel,
    hplus_model: HplusModel = HplusModel.COHERENT,
):
    """Coincidence probability given that exactly ``x`` pairs were generated.

    Dark counts enter through the per-arm click model, so the x=0 term
    contributes the accidental floor d_s*d_i.  For correlated
    (non-entangled) kinds every pair is taken to be H-polarized: HH
    passes all photons, HV blocks the idler photons entirely, and HPLUS
    is rejected because no diagonal-basis structure is modelled.  Every
    other setting raises :class:`UnsupportedSetting`.
    """
    _check_count("x", x)
    _check_kernel(kind, setting)
    qs = [click_prob(det_s, n) for n in range(x + 1)]
    qi = [click_prob(det_i, n) for n in range(x + 1)]
    return _kernel(kind, setting, x, qs, qi, hplus_model, _exact(det_s), _exact(det_i))


@lru_cache(maxsize=64)
def _kernel_table(kind, setting, det_s, det_i, hplus_model, value_types) -> tuple:
    """The click tables of both arms and K(0..) for one configuration,
    empty until :func:`_kernels` grows them.  ``value_types`` is part of
    the key because equal detectors of different number types (0.5 and
    Fraction(1, 2)) compare and hash equal but do not compute alike."""
    return [], [], []


# growing a table is check-then-act on lists shared by every thread
_TABLE_LOCK = threading.Lock()


def _grow_coherent(qs: list, qi: list, ks: list, x_max: int) -> None:
    """Append the coherent-H+ K(x) of indistinguishable pairs to ``ks``
    in whole blocks of _BLOCK pair numbers, through the block of x_max;
    ``qs`` and ``qi`` must reach the end of that block.

    Each block of plus_port rows is multiplied by the idler clicks as
    floats, the same IEEE products ``w[y][p] * qi[p]`` as for float, int
    or Fraction clicks, and summed by :func:`_row_sums`, a chunk of rows
    at a time.  Then K(x) of every x in the block comes from one array
    pass: the products ``qs[x-k] * S[min(k, x-k)]`` of the signal clicks
    and the row sums S of x, summed by :func:`_row_sums` again and divided
    by x+1, as :func:`per_x_coincidence` forms them."""
    while len(ks) <= x_max:
        block, top, signal, row = _plus_port_block(len(ks) // _BLOCK)
        q = np.array(qi[: block.shape[1]], dtype=float)
        # products with clicks q <= max(q) are at most top * max(q); the
        # K(x) terms of k > x read the trailing 0
        s = np.array(_row_sums(block, top * q.max(), q) + [0.0])
        p = np.array(qs[: block.shape[1]], dtype=float)
        kernels = _row_sums(p[signal] * s[row], p.max() * s.max())
        ks += [k / (x + 1) for x, k in enumerate(kernels, len(ks))]


def _kernels(kind, setting, det_s, det_i, hplus_model, x_max: int) -> list:
    """K(0..x_max) or more, from the shared table of this configuration."""
    _check_kernel(kind, setting)
    coherent = (setting is Setting.HPLUS and kind is SourceKind.INDIS_ENTANGLED
                and hplus_model is HplusModel.COHERENT)
    if coherent:
        _check_plus_port_x(x_max)
    value_types = (type(det_s.alpha), type(det_s.dark), type(det_i.alpha), type(det_i.dark))
    exact_s, exact_i = _exact(det_s), _exact(det_i)
    # a coherent table grows in whole blocks, and its click lists with it
    n_max = min((x_max // _BLOCK + 1) * _BLOCK - 1, _PLUS_PORT_X_CAP) if coherent else x_max
    with _TABLE_LOCK:
        qs, qi, ks = _kernel_table(kind, setting, det_s, det_i, hplus_model, value_types)
        for n in range(len(qs), n_max + 1):
            qs.append(click_prob(det_s, n))
            qi.append(click_prob(det_i, n))
        if coherent:
            _grow_coherent(qs, qi, ks, x_max)
        else:
            for x in range(len(ks), x_max + 1):
                ks.append(_kernel(kind, setting, x, qs, qi, hplus_model, exact_s, exact_i))
    # later growth only appends, so entries 0..x_max stay as they are
    return ks


def coincidence_rate(
    source: PairSource,
    setting: Setting,
    det_s: DetectorModel,
    det_i: DetectorModel,
    policy: TruncationPolicy = TruncationPolicy(),
    hplus_model: HplusModel = HplusModel.COHERENT,
) -> RateEntry:
    """Pair-number series of the per-x kernel under certified truncation.

    K(x) does not depend on mu, so it is read from a table shared by
    every call with the same kind, setting, detector pair and H+ model,
    and grown when a larger x_max needs more terms.  Tables of the
    coherent H+ kernel on indistinguishable pairs sum their rows by
    certified vectorized extraction with a ``math.fsum`` fallback (see
    the module docstring and ``_row_sums``), bit-identical to
    :func:`per_x_coincidence`.  That kernel is tabulated up to x = 200;
    a larger x_max raises :class:`CapExceeded` before any table grows.
    """
    x_max = truncation_index(source, policy)
    weights = pmf_values(source, x_max)
    model = hplus_model if setting is Setting.HPLUS else None
    kernels = _kernels(source.kind, setting, det_s, det_i, model, x_max)
    # map stops at the x_max+1 weights when the table is longer
    value = math.fsum(map(operator.mul, weights, kernels))
    return RateEntry(value, setting, RateMethod.EXACT_SERIES, x_max, model)


def single_rate(
    source: PairSource,
    det: DetectorModel,
    policy: TruncationPolicy = TruncationPolicy(),
) -> float:
    """Count rate of one arm alone.

    Entangled kinds keep their H-basis polarizer (half the photons reach
    the detector on average); correlated kinds are detected without a
    polarizer, as in the coincidence-to-accidental setup.
    """
    x_max = truncation_index(source, policy)
    weights = pmf_values(source, x_max)
    q = [click_prob(det, n) for n in range(x_max + 1)]
    exact = _exact(det)
    return math.fsum(weights[x] * _pattern_sum(source.kind, x, q[x::-1], exact)
                     for x in range(x_max + 1))


def closed_form_rates(
    kind: SourceKind,
    mu: float,
    alpha_s: float,
    alpha_i: float,
    dark_s: float = 0.0,
    dark_i: float = 0.0,
) -> RateReport:
    """Leading-order closed forms of the polarization rates.

    Valid for small efficiency-times-pair-number products; multi-pair
    contributions enter through the mu^2 terms and accidentals through
    the products of the two arms' single rates.  ``mu`` is checked by
    :class:`PairSource`, each arm's efficiency and dark probability by
    :class:`DetectorModel`; mu above the closed forms' finite domain
    raises :class:`CapExceeded`.
    """
    # the rules of PairSource and DetectorModel; the inputs are used as given
    mu = _closed_form_mu(kind, mu)
    DetectorModel(alpha_s, dark_s)
    DetectorModel(alpha_i, dark_i)
    _require_entangled(kind, "closed-form polarization rates")
    acc = (mu * alpha_s / 2 + dark_s) * (mu * alpha_i / 2 + dark_i)
    if kind is SourceKind.DIS_ENTANGLED:
        r_hh = mu * alpha_s * alpha_i / 2 + acc
        r_hv = acc
        r_hplus = mu * alpha_s * alpha_i / 4 + acc
    else:
        dark = mu * alpha_s * dark_i / 2 + mu * alpha_i * dark_s / 2 + dark_s * dark_i
        r_hh = alpha_s * alpha_i * (mu * mu / 2 + mu / 2) + dark
        r_hv = mu * mu * alpha_s * alpha_i / 4 + dark
        r_hplus = alpha_s * alpha_i * (3 * mu * mu / 8 + mu / 4) + dark
    return RateReport(
        r_hh=r_hh,
        r_hv=r_hv,
        r_hplus=r_hplus,
        single_s=mu * alpha_s / 2 + dark_s,
        single_i=mu * alpha_i / 2 + dark_i,
    )
