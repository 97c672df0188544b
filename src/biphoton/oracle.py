"""Independent validation oracles for the rate series.

Two cross-checks that avoid the analytic machinery of the rate modules,
with one exception: :func:`enumerate_rate` weights its per-x tables by
``distributions.pmf_values``, the pmf recurrence that the series sums,
while :func:`mc_rate` states its pair law apart (``_pair_law``).  Stating
each law once is an open item of ROADMAP.md ("The oracles' two inputs"):

* :func:`enumerate_rate` sums the exact detection probability over the
  law of the generation pattern that :func:`sample_patterns` draws
  from: the number of VV pairs among distinguishable pairs, the x+1
  collapsed pattern indices of indistinguishable pairs, and the all-H
  pattern of correlated pairs; for the diagonal-basis setting it reads
  the idler's +/- law from the creation-operator ladder that
  :func:`mc_rate` samples from.  Binomial laws, of the VV count and of
  photon splittings, are built by repeated convolution of a fair coin
  rather than from binomial coefficients.  The per-x probabilities do
  not depend on mu, so each configuration's are kept in one table to
  ``X_MAX_LIMIT`` that every depth reads a prefix of (see
  :func:`enumerate_rate`), built from these laws and no series code.

* :func:`mc_rate` samples the same generative chain (pair number,
  pattern, per-arm clicks) with a seeded PCG64 generator and reports a
  mean with its standard error, reproducible bit for bit by the draw
  order that it states.  It goes by photon-number class: one
  multinomial over each kind's pair-number law on 0..top (top = 14, or
  200 for coherent H+) gives the pulse count of each pair number, one
  per pair number splits those pulses over the pattern (and, for H+,
  the + count) with the oracle's coin law and ladder, and one
  binomial decides the clicks of all pulses with the same photon
  numbers, by the click law of :mod:`.detection`.  Only pulses beyond
  top get their own draws; Poissonian kinds with mu > 1 draw one
  Poisson per pulse.  The law is stated here in closed form, apart from
  the series' recurrence: Poisson in log space, geometric, and NB(2)
  (x+1) q^x (1-q)^2.  Multinomial splitting, binomial thinning and
  three tail identities for x > top make this exact in distribution
  (Devroye, *Non-Uniform Random Variate Generation*, 1986):

  - geometric: top plus a geometric on {1, 2, ...} (memorylessness);
  - NB(2): R = x - top - 1 has weight (top + 2 + R) q^R, one geometric
    with probability (top + 1)(1 - q)/((top + 1)(1 - q) + 1), else the
    sum of two;
  - Poisson: top + 1 + Poisson(mu (1 - s)), where s is the (top+1)-th
    arrival of a rate-mu process on [0, 1], drawn as U^(1/(top+1)) and
    accepted with probability e^(-mu s) >= 1/e for mu <= 1.

Each law is held once: the coin rows of x = 0..14, the coherent ladder's
squared rows of x = 0..``HPLUS_X_CAP`` in one list filled in increasing
x (about 22 MB when full; only the walk's head amplitudes are kept), one
click list per detector (and per top, for the Monte-Carlo), one
enumeration table per configuration and one binned pair law per kind, mu
and top.

Both oracles take a :class:`Setting` and let :meth:`Setting.resolve`
turn a time-bin setting into its polarization twin at half efficiency,
so neither knows about time bins.  Neither calls the series: the harness
of `biphoton validate`, ``_validate``, compares it with both and closes
this module, beside the grid, policy, tolerance and z rule it applies.
"""

from __future__ import annotations

import itertools
import math
import threading
from functools import lru_cache

import numpy as np

from .detection import DetectorModel, _click, click_prob
from .distributions import (PairSource, SourceKind, TruncationPolicy, _check_count, _check_member,
                            _record, pmf_values)
from .polarization import HplusModel, Setting, coincidence_rate

__all__ = [
    "XMaxTooLarge",
    "EnumeratedRate",
    "McEstimate",
    "enumerate_rate",
    "mc_rate",
]

# two meanings: the deepest pair number the enumeration takes (its tables
# hold x = 0..X_MAX_LIMIT; `biphoton validate` and the benchmark enumerate
# to it), and the Monte-Carlo's top outside coherent H+, the last pair
# number it bins (moving it moves every stream); tests pin both
X_MAX_LIMIT = 14
# largest pair number the coherent H+ Monte-Carlo splits with the
# operator ladder; equals TruncationPolicy's default hard_cap
HPLUS_X_CAP = 200
# Monte-Carlo trials per seeded block; part of the determinism contract
_BLOCK = 1_000_000
# largest mean pair number the Monte-Carlo draws: int64 pair counts end
# at 2^63 - 1, and numpy's Poisson sampler at about 9.2e18
MU_MAX = 2.0**62
_INT64_MAX = np.iinfo(np.int64).max


class XMaxTooLarge(ValueError):
    """A pair number exceeds what an oracle handles: the enumeration depth
    budget, the coherent H+ ladder cap of the Monte-Carlo, or the int64
    pair counts of the Monte-Carlo sampler."""


class EnumeratedRate(_record("value tail_bound")):
    """Exhaustively enumerated rate plus the pmf mass beyond x_max."""

    __slots__ = ()


class McEstimate(_record("mean std_error trials seed")):
    """Monte-Carlo estimate of a click or coincidence probability."""

    __slots__ = ()


@lru_cache(maxsize=X_MAX_LIMIT + 1)
def _coin_weights(x: int) -> tuple[float, ...]:
    """Binomial(x, 1/2) pmf by convolving x fair coins."""
    w = [1.0]
    for _ in range(x):
        w = [0.5 * a + 0.5 * b for a, b in zip([0.0, *w], [*w, 0.0])]
    return tuple(w)


def _ladder_step(rows: np.ndarray) -> np.ndarray:
    """Ladder amplitudes at t photons from those at t - 1.

    Row k holds the amplitudes, over the + count p = 0..t, of the Fock
    state with t-k H and k V photons written in the +/- basis.  Each row
    is built from both of its predecessors,

        |t-k, k> = (sqrt(t-k) aH+ |t-k-1, k> + sqrt(k) aV+ |t-k, k-1>) / t,

    with aH+ = (a++ + a-+)/sqrt(2) and aV+ = (a++ - a-+)/sqrt(2) acting
    through the usual sqrt(n+1) ladder factors.  Every row stays
    normalised, so nothing overflows, and averaging the two routes keeps
    rounding errors from growing; a single chain of creation operators
    followed by 1/sqrt((t-k)! k!) loses digits from t ~ 40 on.
    """
    t = rows.shape[0]
    root = np.sqrt(np.arange(t + 1.0))
    plus = np.zeros((t, t + 1))
    plus[:, 1:] = rows * root[1:]  # a + photon joins the p there are
    minus = np.zeros((t, t + 1))
    minus[:, :-1] = rows * root[:0:-1]  # a - photon joins the t-1-p there are
    out = np.zeros((t + 1, t + 1))
    out[:t] += root[:0:-1, None] * (plus + minus)
    out[1:] += root[1:, None] * (plus - minus)
    return out / (t * math.sqrt(2.0))


def _ladder_walk():
    """Squared ladder rows at x = 0, 1, ... (read-only), from the head's amplitudes alone."""
    amps = np.ones((1, 1))
    while True:
        law = amps**2
        law.flags.writeable = False
        yield law
        amps = _ladder_step(amps)


# the coherent + law: ladder rows of x = 0..HPLUS_X_CAP, appended in increasing
# x under the lock and read without it; all 201 hold about 22 MB (tracemalloc)
_LADDER: list[np.ndarray] = []
_LADDER_WALK = _ladder_walk()
_LADDER_LOCK = threading.Lock()


def _plus_law(x: int, coherent: bool) -> np.ndarray | tuple:
    """The idler's + count law at x pairs, rows nothing may write: ladder
    row y of the collapsed state if ``coherent``, else one row of x fair coins."""
    if not coherent:
        return (_coin_weights(x),)
    if x >= len(_LADDER):
        with _LADDER_LOCK:
            while len(_LADDER) <= x:
                _LADDER.append(next(_LADDER_WALK))
    return _LADDER[x]


# the one arm rule of both oracles: the arms that must click under each setting,
# signal first, as (detector, photons): detector 0 signal, 1 idler; photons 0 the
# x - y H photons of pattern y (its y pairs are V-polarized), 1 its y V photons,
# and None the + photons of the H+ idler (see `_plus_law`)
_ARMS = {Setting.HH: ((0, 0), (1, 0)), Setting.CAR_MATCHED: ((0, 0), (1, 0)),
         Setting.HV: ((0, 0), (1, 1)), Setting.HPLUS: ((0, 0), (1, None)),
         Setting.SINGLE_S: ((0, 0),), Setting.SINGLE_I: ((1, 0),)}
# CAR_UNMATCHED multiplies SINGLE_S and SINGLE_I, read on separate pulses
_DRAWS = {Setting.CAR_UNMATCHED: (Setting.SINGLE_S, Setting.SINGLE_I)}


def _pattern_law(kind: SourceKind, x: int) -> tuple[float, ...]:
    """Law of the pattern variable y at x pairs, as :func:`sample_patterns`
    draws it; correlated pairs are all H."""
    if kind is SourceKind.DIS_ENTANGLED:
        return _coin_weights(x)
    if kind is SourceKind.INDIS_ENTANGLED:
        return (1.0 / (x + 1),) * (x + 1)
    return (1.0,)


def _per_x_probability(
    kind: SourceKind,
    setting: Setting,
    x: int,
    qs: list[float],
    qi: list[float],
    hplus_model: HplusModel,
) -> float:
    """Detection probability at x pairs, given each arm's click
    probabilities ``qs``/``qi`` at 0, 1, ... photons."""
    law = _pattern_law(kind, x)
    ys = range(len(law))
    if setting is Setting.HPLUS:
        coherent = kind is SourceKind.INDIS_ENTANGLED and hplus_model is HplusModel.COHERENT
        w = _plus_law(x, coherent) * np.asarray(qi[: x + 1])
        plus = [math.fsum(row) for row in w.tolist()]
        terms = [qs[x - y] * plus[y if coherent else 0] for y in ys]
    else:  # the product of each arm's clicks at the H or V photons it reads, signal first
        q, photons = (qs, qi), (range(x, x - len(law), -1), ys)
        (d, p), *more = _ARMS[setting]
        terms = [q[d][n] for n in photons[p]]
        for d, p in more:
            terms = [t * q[d][n] for t, n in zip(terms, photons[p])]
    return math.fsum(p * t for p, t in zip(law, terms))


@lru_cache(maxsize=256)
def _clicks(det: DetectorModel) -> tuple[float, ...]:
    """One arm's click probabilities at 0..X_MAX_LIMIT photons."""
    return tuple(click_prob(det, n) for n in range(X_MAX_LIMIT + 1))


# the 72 tables of `biphoton validate` or an oracle-grid pass and their 8
# click lists hold 69 KB (tracemalloc, caches and coin rows included)
@lru_cache(maxsize=256)
def _per_x_table(kind, setting, det_s, det_i, hplus_model) -> tuple:
    """Detection probabilities at x = 0..X_MAX_LIMIT."""
    qs, qi = _clicks(det_s), _clicks(det_i)
    return tuple(_per_x_probability(kind, setting, x, qs, qi, hplus_model)
                 for x in range(X_MAX_LIMIT + 1))


def enumerate_rate(
    source: PairSource,
    setting: Setting,
    det_s: DetectorModel,
    det_i: DetectorModel,
    x_max: int,
    hplus_model: HplusModel = HplusModel.COHERENT,
) -> EnumeratedRate:
    """Exhaustive-enumeration rate up to ``x_max`` generated pairs.

    Every x_max reads a prefix of one immutable table of x = 0..14 per
    resolved setting and detector pair (a time-bin setting shares its
    twin's at alpha/2), kind and H+ model (H+ only), in an ``lru_cache``
    of 256, built from no series code; CAR_UNMATCHED is the product of
    the SINGLE_S and SINGLE_I rates.  A call then costs the pmf, one
    ``math.fsum`` per table and the tail.

    The neglected contribution is at most the pmf mass beyond x_max
    (every per-x probability is <= 1); that mass is reported as
    ``tail_bound`` so callers can fold it into comparisons.
    """
    _check_member("setting", setting, Setting)
    _check_member("hplus_model", hplus_model, HplusModel)
    _check_count("x_max", x_max)
    if x_max > X_MAX_LIMIT:
        raise XMaxTooLarge(f"x_max={x_max} exceeds the enumeration budget of {X_MAX_LIMIT}")
    _check_member("source", source, PairSource)
    setting, det_s, det_i = setting.resolve(source.kind, det_s, det_i)
    model = hplus_model if setting is Setting.HPLUS else None
    draws = _DRAWS.get(setting, (setting,))
    tables = [_per_x_table(source.kind, arm, det_s, det_i, model) for arm in draws]
    weights = pmf_values(source, x_max)
    tail = max(0.0, 1.0 - math.fsum(weights))
    rates = [math.fsum(w * p for w, p in zip(weights, table)) for table in tables]
    if setting is Setting.CAR_UNMATCHED:
        a, b = rates
        # |A'B' - AB| <= tail*(A + B + tail) when each factor gains <= tail
        return EnumeratedRate(a * b, tail * (a + b + tail))
    return EnumeratedRate(rates[0], tail)


# 32 laws of at most 202 bins hold about 64 KB (tracemalloc, cache included)
@lru_cache(maxsize=32)
def _pair_law(kind: SourceKind, mu: float, top: int) -> np.ndarray:
    """The pair-number multinomial's bins (read-only): the law on 0..top in
    closed form, stated apart from the series' recurrence (Poisson in log
    space, geometric, and NB(2) (x+1) q^x / (1+h)^2 with h = mu/2 and q =
    h/(1+h)), then a bin beyond top, to which numpy gives the remaining mass."""
    x = np.arange(top + 1.0)
    if kind.poissonian:
        log_fact = np.array([math.lgamma(v + 1.0) for v in x])
        law = np.exp(x * math.log(mu) - mu - log_fact) if mu else (x == 0) * 1.0
    elif kind is SourceKind.THERMAL_CORRELATED:
        law = (mu / (1.0 + mu)) ** x / (1.0 + mu)
    else:
        h = mu / 2.0
        law = (x + 1.0) * (h / (1.0 + h)) ** x / (1.0 + h) ** 2
    law = np.append(law, 0.0)
    law.flags.writeable = False
    return law


def _tail_pairs(rng: np.random.Generator, source: PairSource, top: int, t: int) -> np.ndarray:
    """``t`` pair numbers from the law conditioned on x > top (not for
    Poisson with mu > 1): one geometric each (thermal); a binomial count
    of single geometrics, then the geometrics (NB(2)); rounds of proposal
    and acceptance uniforms, then one Poisson each (Poisson)."""
    kind, mu = source.kind, source.mu
    if kind is SourceKind.THERMAL_CORRELATED:
        return top + rng.geometric(1.0 / (1.0 + mu), t)
    if kind is SourceKind.INDIS_ENTANGLED:
        h = mu / 2.0
        one = rng.binomial(t, (top + 1) / (top + 2 + h))  # (top+1)(1-q)/((top+1)(1-q)+1)
        g = rng.geometric(1.0 / (1.0 + h), 2 * t - one)
        x = top + g[:t]
        x[one:] += g[t:] - 1
        return x
    s = np.empty(0)  # the (top+1)-th arrivals
    while s.size < t:
        u = rng.random(t - s.size) ** (1.0 / (top + 1))
        s = np.concatenate((s, u[rng.random(u.size) < np.exp(-mu * u)]))
    return top + 1 + rng.poisson(mu * (1.0 - s))


def _draw_pairs(
    rng: np.random.Generator, source: PairSource, n: int, top: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pair numbers of ``n`` independent pulses: the pulse count of each
    of 0..top pairs, and the pair numbers beyond.  Exact in
    distribution, and O(n) in memory for any mu up to ``MU_MAX``."""
    kind, mu = source.kind, source.mu
    if kind.poissonian and mu > 1.0:
        x = np.sort(rng.poisson(mu, n))
        edges = np.searchsorted(x, np.arange(top + 2))  # one run per pair number
        counts, tail = np.diff(edges), x[edges[-1] :]
    else:
        # numpy gives the last bin, the pulses beyond top, the remaining mass
        counts = rng.multinomial(n, _pair_law(kind, mu, top))
        counts, beyond = counts[:-1], int(counts[-1])
        tail = _tail_pairs(rng, source, top, beyond) if beyond else np.empty(0, np.int64)
    # numpy's geometric saturates at the int64 maximum, and a sum beyond
    # it wraps to a negative count
    if tail.size and (tail.min() <= top or tail.max() == _INT64_MAX):
        raise XMaxTooLarge(f"a pulse drew more pairs than int64 holds at mu={mu:g}; lower mu")
    return counts, tail


def sample_patterns(kind: SourceKind, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw one pattern variable per pulse: the VV count for
    distinguishable pairs (Binomial(x, 1/2)), the collapsed index k for
    indistinguishable pairs (uniform on 0..x), zero for correlated kinds."""
    x = np.asarray(x)
    if kind is SourceKind.DIS_ENTANGLED:
        return rng.binomial(x, 0.5)
    if kind is SourceKind.INDIS_ENTANGLED:
        return rng.integers(0, x + 1)
    return np.zeros_like(x)


def _classes(*photons: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Occupied photon-number classes of the pulses that carry pairs.

    ``photons`` holds one array per detector arm, aligned over those
    pulses.  Returns the photon numbers of each occupied class, per arm,
    and its pulse count, in increasing (signal, idler) order.  Classes
    are found by sorting keys taken relative to each arm's minimum, so
    memory stays O(pulses) for any mu.
    """
    if not photons[0].size:
        return photons, photons[0]
    lo = [int(p.min()) for p in photons]
    shape = tuple(int(p.max()) - m + 1 for p, m in zip(photons, lo))
    if math.prod(shape) > np.iinfo(np.intp).max:  # photon spreads beyond ~3e9, mu ~ 1e16
        keys, counts = np.unique(np.stack(photons), axis=1, return_counts=True)
        return tuple(keys), counts
    flat = np.ravel_multi_index(tuple(p - m for p, m in zip(photons, lo)), shape)
    keys, counts = np.unique(flat, return_counts=True)
    return tuple(v + m for v, m in zip(np.unravel_index(keys, shape), lo)), counts


@lru_cache(maxsize=64)
def _click_list(det: DetectorModel, top: int) -> tuple[float, ...]:
    """One arm's click law at 0..top photons, as numpy computes it on an array, like the
    tail classes' law: its pow and Python's differ in the last bit on about 2% of entries."""
    return tuple(_click(det.alpha, det.dark, np.arange(top + 1)).tolist())


def _hits(
    rng: np.random.Generator, dets: list[DetectorModel], top: int, bins: tuple,
    tail: tuple, none: int,
) -> int:
    """Pulses on which every arm clicks: one binomial call, one draw per
    class, in the order of :func:`_photon_classes`; the ``none`` pulses
    without pairs click on dark counts alone."""
    (photons, counts), (tail_photons, tail_counts) = bins, tail
    p, p_none = [1.0] * len(counts), 1.0
    for det, ns in zip(dets, photons):
        q = _click_list(det, top)
        p, p_none = [a * q[k] for a, k in zip(p, ns)], p_none * q[0]
    if not tail_counts.size:
        return sum(rng.binomial([*counts, none], [*p, p_none]).tolist())
    p_tail = np.ones(tail_counts.shape)
    for det, ns in zip(dets, tail_photons):
        p_tail *= _click(det.alpha, det.dark, ns)
    counts = np.concatenate((np.asarray(counts, np.int64), tail_counts, [none]))
    return int(rng.binomial(counts, np.concatenate((p, p_tail, [p_none]))).sum())


def _photon_classes(
    rng: np.random.Generator, kind: SourceKind, setting: Setting, counts: np.ndarray,
    tail: np.ndarray, coherent: bool,
) -> tuple[tuple, tuple, int]:
    """(photons per arm, pulse count) classes of every pulse, given the
    pulse counts ``counts`` of x = 0..top pairs and the pair numbers
    ``tail`` beyond: in lists, the (x, pattern) bins of x >= 1 in
    increasing order (for H+, their (signal H, idler +) classes merged
    across x); in arrays, the classes of ``tail`` by `_classes`; then the
    number of pulses without pairs."""
    counts = counts.tolist()
    occupied = [x for x in range(1, len(counts)) if counts[x]]
    rows = []  # per occupied x, the pulse counts of patterns y = 0, 1, ...
    for x in occupied:
        law = _pattern_law(kind, x)
        rows.append(rng.multinomial(counts[x], law).tolist() if len(law) > 1 else [counts[x]])
    v = sample_patterns(kind, tail, rng) if tail.size else tail
    h = tail - v if tail.size else tail
    if setting is Setting.HPLUS:
        plus = np.zeros((occupied[-1] + 1 if occupied else 0,) * 2, np.int64)
        for x, row in zip(occupied, rows):  # the pulses of pattern y hold x - y H photons
            law = _plus_law(x, coherent)
            for y, n in enumerate(row):
                if n:  # one 1-D draw per pattern: the stream of one 2-D draw, with less overhead
                    plus[x - y, : x + 1] += rng.multinomial(n, law[y if coherent else 0])
        hs, ps = np.nonzero(plus)
        small = (hs.tolist(), ps.tolist()), plus[hs, ps].tolist()
        return small, _classes(h, rng.binomial(tail, 0.5) if tail.size else tail), counts[0]
    arms = [p for _, p in _ARMS[setting]]  # the photons each arm reads: 0 H, 1 V
    bins = [(x - y, y, c) for x, row in zip(occupied, rows) for y, c in enumerate(row) if c]
    small = tuple([b[p] for b in bins] for p in arms), [b[2] for b in bins]
    return small, _classes(*((h, v)[p] for p in arms)), counts[0]


def _mc_block(
    rng: np.random.Generator,
    source: PairSource,
    setting: Setting,
    det_s: DetectorModel,
    det_i: DetectorModel,
    n: int,
    hplus_model: HplusModel,
) -> int:
    coherent = setting is Setting.HPLUS and hplus_model is HplusModel.COHERENT and (
        source.kind is SourceKind.INDIS_ENTANGLED)
    top = HPLUS_X_CAP if coherent else X_MAX_LIMIT
    # CAR_UNMATCHED draws the idler from other pulses, only as many as
    # there were signal clicks
    for arm in _DRAWS.get(setting, (setting,)):
        dets = [(det_s, det_i)[d] for d, _ in _ARMS[arm]]
        counts, tail = _draw_pairs(rng, source, n, top)
        if coherent and tail.size:
            raise XMaxTooLarge(
                f"coherent H+ Monte-Carlo drew a pulse with {tail.max()} pairs at "
                f"mu={source.mu:g}, above its ladder cap of {HPLUS_X_CAP}; use a "
                f"smaller mu or HplusModel.INDEPENDENT"
            )
        n = _hits(rng, dets, top, *_photon_classes(rng, source.kind, arm, counts, tail, coherent))
    return n


def mc_rate(
    source: PairSource,
    setting: Setting,
    det_s: DetectorModel,
    det_i: DetectorModel,
    trials: int,
    seed: int,
    hplus_model: HplusModel = HplusModel.COHERENT,
) -> McEstimate:
    """Monte-Carlo estimate of a rate by simulating the generative chain.

    Trials run in blocks of ``_BLOCK`` = 1,000,000 (the last block
    takes the remainder), block b seeded by the b-th child of
    SeedSequence(seed), built directly as SeedSequence(seed,
    spawn_key=(b,)).  Within a block the draw order is fixed:

    1. pair numbers: one multinomial of the n pulses over the law on
       0..top and a bin beyond, top = 14 (``HPLUS_X_CAP`` for coherent
       H+), then the pulses beyond top as :func:`_tail_pairs` draws
       them; for Poissonian kinds with mu > 1, one Poisson per pulse;
    2. the pattern variable: one multinomial per occupied pair number
       1..top, in increasing x, then one draw per pulse beyond top, in
       the order of step 1;
    3. for H+, the + count: one multinomial per occupied x over its
       (x, pattern) bins, in increasing x, with the ladder law (coherent
       indistinguishable pairs) or x fair coins, then Binomial(x, 1/2)
       per pulse beyond top;
    4. one binomial call, one draw per class of :func:`_photon_classes`,
       with the click law of :mod:`.detection` in floats: each occupied
       bin of steps 2-3, then each (signal photons, idler photons) class
       of the other pulses, each in increasing order, then the pulses
       without pairs.  Each arm reads its law for the bins and the
       pulses without pairs from one list per detector and top, which
       numpy computes on 0..top photons, and computes it on the other
       pulses' photon arrays, so every class gets the float of numpy's
       array law.

    CAR_UNMATCHED runs steps 1, 2 and 4 for the signal arm over the n
    pulses, then again for the idler arm over as many fresh pulses as
    there were signal clicks.

    So for a fixed seed, trial count and configuration the result is
    reproducible bit for bit; the per-block success counts are
    integers, so their sum is exact in any order.  A block costs its
    draws: the bins' classes are kept in Python lists, the binned law of
    step 1 is cached per kind, mu and top (32 laws), the click lists of
    step 4 per detector and top (64), the + count reads the coin rows or
    the coherent ladder rows, each filled once (all 201 ladder rows hold
    about 22 MB), and a call with nothing to draw (an empty tail, a
    one-bin pattern law) is skipped.  numpy advances no state for such a
    call and draws an array binomial element by element, nothing for n =
    0 or p = 0, so neither the skipped calls nor the pulses without pairs
    change the stream.

    ``trials`` and ``seed`` must be ints, not bools: at least 1 and 0.

    Coherent H+ on the indistinguishable kind raises
    :class:`XMaxTooLarge` if any pulse falls beyond ``HPLUS_X_CAP`` =
    200 pairs; ``HplusModel.INDEPENDENT`` has no such cap.  Every kind
    raises it for mu above ``MU_MAX`` = 2^62, and when a drawn pair
    number does not fit in int64 (thermal and indistinguishable kinds
    from mu ~ 1e18).
    """
    _check_member("setting", setting, Setting)
    _check_member("hplus_model", hplus_model, HplusModel)
    _check_count("trials", trials, 1)
    _check_count("seed", seed)
    _check_member("source", source, PairSource)
    if source.mu > MU_MAX:
        raise XMaxTooLarge(
            f"mu={source.mu:g} is above the Monte-Carlo's MU_MAX = 2^62, where int64 "
            f"pair counts run out; use a smaller mu"
        )
    setting, det_s, det_i = setting.resolve(source.kind, det_s, det_i)

    n_blocks = (trials + _BLOCK - 1) // _BLOCK
    successes = 0
    for b in range(n_blocks):
        # the b-th child of SeedSequence(seed), built without its siblings
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(b,))))
        n = min(_BLOCK, trials - b * _BLOCK)
        successes += _mc_block(rng, source, setting, det_s, det_i, n, hplus_model)
    p = successes / trials
    se = math.sqrt(p * (1.0 - p) / (trials - 1)) if trials > 1 else 0.0
    return McEstimate(p, se, trials, seed)


# the cross-check grid of `biphoton validate`: kind -> the settings it
# checks, in output order, each at every mu, alpha and dark below
_ENTANGLED_CHECKS = (Setting.HH, Setting.HV, Setting.HPLUS, Setting.SINGLE_S,
                     Setting.TIMEBIN_AA, Setting.TIMEBIN_AB)
_CAR_CHECKS = (Setting.CAR_MATCHED, Setting.CAR_UNMATCHED)
_VALIDATE_SETTINGS: dict[SourceKind, tuple[Setting, ...]] = {
    SourceKind.DIS_ENTANGLED: _ENTANGLED_CHECKS,
    SourceKind.INDIS_ENTANGLED: _ENTANGLED_CHECKS,
    SourceKind.DIS_CORRELATED: _CAR_CHECKS,
    SourceKind.THERMAL_CORRELATED: _CAR_CHECKS,
}
_VALIDATE_MUS = (0.05, 0.2)
_VALIDATE_ALPHAS = (0.05, 0.5)
_VALIDATE_DARKS = (0.0, 1e-3)
# the series policy of every cell's rate
_VALIDATE_POLICY = TruncationPolicy(tail_epsilon=1e-13)
# a series rate passes when it is within this of the enumeration plus its tail bound
_VALIDATE_TOL = 1e-9
# and a Monte-Carlo estimate when it is within this many standard errors of the series
_MC_Z_LIMIT = 4.0


def _mc_z(est: McEstimate, rate: float) -> float:
    """|mean - rate| in standard errors: the larger of the estimate's and
    the binomial one at ``rate``, so that a run with no successes still
    counts against a nonzero rate."""
    se0 = math.sqrt(max(rate * (1.0 - rate), 0.0) / est.trials)
    se = max(est.std_error, se0)
    return abs(est.mean - rate) / se if se > 0 else 0.0


def _validate(hplus_model: HplusModel, trials: int, seed: int) -> tuple[list, list, dict]:
    """The columns, rows and summary of `biphoton validate`: per grid cell, in output order,
    the series rate under ``_VALIDATE_POLICY`` against the enumeration to ``X_MAX_LIMIT`` and,
    for ``trials`` > 0, against a Monte-Carlo estimate of that many trials from ``seed``."""
    columns = ["kind", "setting", "mu", "alpha", "dark", "series", "oracle", "abs_err", "tol",
               "status", *(["mc_mean", "mc_z", "mc_status"] if trials > 0 else [])]
    rows, errs, zs = [], [], []
    for kind, settings in _VALIDATE_SETTINGS.items():
        for setting, mu, alpha, dark in itertools.product(
                settings, _VALIDATE_MUS, _VALIDATE_ALPHAS, _VALIDATE_DARKS):
            source, det = PairSource(kind, mu), DetectorModel(alpha, dark)
            series = coincidence_rate(source, setting, det, det, _VALIDATE_POLICY,
                                      hplus_model).value
            ora = enumerate_rate(source, setting, det, det, X_MAX_LIMIT, hplus_model)
            tol, err = _VALIDATE_TOL + ora.tail_bound, abs(series - ora.value)
            errs.append(err)
            row = [kind.value, setting.value, mu, alpha, dark, series, ora.value, err, tol,
                   "pass" if err <= tol else "FAIL"]
            if trials > 0:
                est = mc_rate(source, setting, det, det, trials, seed, hplus_model)
                zs.append(_mc_z(est, series))
                row += [est.mean, zs[-1], "pass" if zs[-1] <= _MC_Z_LIMIT else "FAIL"]
            rows.append(row)
    failed = any("FAIL" in row for row in rows)
    summary = {"cells": len(rows), "max_abs_err": max(errs), "status": "FAIL" if failed else "pass"}
    if zs:
        summary["max_mc_z"] = max(zs)
    return columns, rows, summary
