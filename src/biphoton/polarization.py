"""Coincidence and single count rates behind polarizers.

The signal arm always carries a polarizer in the H/V basis; the idler
polarizer is set either parallel (HH), crossed (HV), or to the diagonal
+45 degree basis (HPLUS).  Rates are pair-number series

    R = sum_x P(x) * K(x)

where P(x) is the source pmf and K(x) the per-x coincidence kernel for
the chosen setting, truncated under a certified tail bound.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .detection import DetectorModel, click_prob
from .distributions import PairSource, SourceKind, TruncationPolicy, pmf_values, truncation_index

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
]


class UnsupportedSetting(ValueError):
    """The requested polarizer setting is not defined for this source kind."""


class Setting(Enum):
    """A measurement: a polarizer pair, one arm alone, a CAR coincidence,
    or a time-bin analyzer port pair.  Only HH, HV and HPLUS have a per-x
    coincidence kernel; a time-bin setting is one of them seen through
    half-efficiency detectors (see :meth:`resolve`)."""

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
        setting = self
        if self in _TIMEBIN_TWIN:
            if not kind.entangled:
                raise UnsupportedSetting(
                    f"{self.value} requires an entangled kind, got {kind.value}"
                )
            # the matching interferometer arm passes a slot with amplitude 1/2
            det_s = DetectorModel(det_s.alpha / 2, det_s.dark)
            det_i = DetectorModel(det_i.alpha / 2, det_i.dark)
            setting = _TIMEBIN_TWIN[self]
        if kind.entangled and setting in (Setting.CAR_MATCHED, Setting.CAR_UNMATCHED):
            raise UnsupportedSetting(f"{setting.value} requires a correlated kind")
        if kind.correlated and setting is Setting.HPLUS:
            raise UnsupportedSetting(
                f"{setting.value} is undefined for correlated kind {kind.value}"
            )
        return setting, det_s, det_i


_TIMEBIN_TWIN = {
    Setting.TIMEBIN_AA: Setting.HH,
    Setting.TIMEBIN_AB: Setting.HV,
    Setting.TIMEBIN_APLUS: Setting.HPLUS,
}


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
    method: RateMethod


def _sum(terms: list) -> float:
    # math.fsum would silently coerce exact types (Fraction) to float,
    # so route anything non-float through exact summation instead
    if any(not isinstance(t, float) for t in terms):
        return sum(terms)
    return math.fsum(terms)


@lru_cache(maxsize=None)
def plus_port_distribution(x: int) -> tuple[tuple[float, ...], ...]:
    """Photon-number distribution behind a +45 polarizer, per pattern index.

    ``W[k][p]`` is the probability that an idler Fock state with x-k
    H photons and k V photons contains exactly p photons in the + mode.
    The amplitude of the p-photon component is the coefficient of t^p in
    (1+t)^(x-k) (t-1)^k, carrying the relative minus sign of the V mode
    in the +/- decomposition; components with equal p are summed before
    squaring.  All combinatorics are exact integers, so each probability
    is correct to one rounding.
    """
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    fact = [math.factorial(n) for n in range(x + 1)]
    two_x = 1 << x
    rows = []
    for k in range(x + 1):
        # integer convolution of the binomial rows of (1+t)^(x-k) and (t-1)^k
        a = [math.comb(x - k, m) for m in range(x - k + 1)]
        b = [math.comb(k, n) * (-1) ** (k - n) for n in range(k + 1)]
        coeff = [0] * (x + 1)
        for m, am in enumerate(a):
            for n, bn in enumerate(b):
                coeff[m + n] += am * bn
        den = two_x * fact[x - k] * fact[k]
        rows.append(
            tuple(coeff[p] * coeff[p] * fact[p] * fact[x - p] / den for p in range(x + 1))
        )
    return tuple(rows)


def _binomial_click_sum(det: DetectorModel, x: int):
    """sum_j C(x,j) 2^-x q(j): click probability on a Binomial(x, 1/2) count."""
    terms = [math.comb(x, j) * click_prob(det, j) for j in range(x + 1)]
    return _sum(terms) / (1 << x)


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
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if setting not in (Setting.HH, Setting.HV, Setting.HPLUS):
        raise UnsupportedSetting(f"{setting.value} has no per-x kernel; use series_rate")
    qs = lambda n: click_prob(det_s, n)
    qi = lambda n: click_prob(det_i, n)

    if kind.correlated:
        if setting is Setting.HH:
            return qs(x) * qi(x)
        if setting is Setting.HV:
            return qs(x) * qi(0)
        raise UnsupportedSetting(
            f"{setting.value} is undefined for correlated kind {kind.value}"
        )

    # grouping the two click factors first keeps the term multiset, and
    # with it the exactly rounded sum, invariant under a detector swap
    if kind is SourceKind.DIS_ENTANGLED:
        two_x = 1 << x
        if setting is Setting.HH:
            terms = [math.comb(x, y) * (qs(x - y) * qi(x - y)) for y in range(x + 1)]
            return _sum(terms) / two_x
        if setting is Setting.HV:
            terms = [math.comb(x, y) * (qs(x - y) * qi(y)) for y in range(x + 1)]
            return _sum(terms) / two_x
        # Signal H/V and idler +/- outcomes are uncorrelated per pair, so
        # the kernel factorizes into the two marginal click probabilities.
        return _binomial_click_sum(det_s, x) * _binomial_click_sum(det_i, x)

    # indistinguishable entangled
    if setting is Setting.HH:
        terms = [qs(x - k) * qi(x - k) for k in range(x + 1)]
        return _sum(terms) / (x + 1)
    if setting is Setting.HV:
        terms = [qs(x - k) * qi(k) for k in range(x + 1)]
        return _sum(terms) / (x + 1)
    if hplus_model is HplusModel.INDEPENDENT:
        idler = _binomial_click_sum(det_i, x)
        return _sum([qs(x - k) for k in range(x + 1)]) * idler / (x + 1)
    w = plus_port_distribution(x)
    qi_vals = [qi(p) for p in range(x + 1)]
    terms = [
        qs(x - k) * math.fsum(w[k][p] * qi_vals[p] for p in range(x + 1))
        for k in range(x + 1)
    ]
    return math.fsum(terms) / (x + 1)


def coincidence_rate(
    source: PairSource,
    setting: Setting,
    det_s: DetectorModel,
    det_i: DetectorModel,
    policy: TruncationPolicy = TruncationPolicy(),
    hplus_model: HplusModel = HplusModel.COHERENT,
) -> RateEntry:
    """Pair-number series of the per-x kernel under certified truncation."""
    x_max = truncation_index(source, policy)
    weights = pmf_values(source, x_max)
    terms = [
        weights[x] * per_x_coincidence(source.kind, setting, x, det_s, det_i, hplus_model)
        for x in range(x_max + 1)
    ]
    model = hplus_model if setting is Setting.HPLUS else None
    return RateEntry(math.fsum(terms), setting, RateMethod.EXACT_SERIES, x_max, model)


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
    kind = source.kind
    terms = []
    for x in range(x_max + 1):
        if kind.correlated:
            s = click_prob(det, x)
        elif kind is SourceKind.DIS_ENTANGLED:
            s = _binomial_click_sum(det, x)
        else:
            s = _sum([click_prob(det, k) for k in range(x + 1)]) / (x + 1)
        terms.append(weights[x] * s)
    return math.fsum(terms)


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
    the products of the two arms' single rates.  Efficiencies and dark
    probabilities are range-checked as :class:`DetectorModel` does.
    """
    if not kind.entangled:
        raise UnsupportedSetting(
            f"closed-form polarization rates require an entangled kind, got {kind.value}"
        )
    # plain comparisons rather than DetectorModel objects: optimize_mu
    # calls this in its inner loop
    for alpha, dark in ((alpha_s, dark_s), (alpha_i, dark_i)):
        if not (0 <= alpha <= 1):
            raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
        if not (0 <= dark < 1):
            raise ValueError(f"dark must lie in [0, 1), got {dark}")
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
        method=RateMethod.CLOSED_FORM,
    )
