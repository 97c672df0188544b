"""Independent validation oracles for the rate series.

Two cross-checks that deliberately avoid the analytic machinery of the
rate modules:

* :func:`enumerate_rate` sums the exact detection probability over the
  law of the generation pattern that :func:`sample_patterns` draws
  from: the number of VV pairs among distinguishable pairs, the x+1
  collapsed pattern indices of indistinguishable pairs, and the all-H
  pattern of correlated pairs; for the diagonal-basis setting it adds a
  +/- photon-number distribution built by applying creation operators
  step by step.  Binomial laws, of the VV count and of photon
  splittings, are built by repeated convolution of a fair coin rather
  than from binomial coefficients.

* :func:`mc_rate` samples the same generative chain (pair number,
  pattern, per-arm clicks) with a seeded PCG64 generator and reports a
  mean with its standard error.  It never touches the pair-number pmf:
  pair numbers come from numpy's own Poisson, binomial, geometric and
  hypergeometric samplers.  Only the trials that carry a pair are drawn
  one by one; the clicks of all trials with the same photon numbers are
  decided together by one binomial draw.  Three sampling identities
  make this exact in distribution (Devroye, *Non-Uniform Random Variate
  Generation*, 1986, ch. X):

  - Poisson splitting: N ~ Poisson(n mu) pairs thrown uniformly into n
    trials leave independent Poisson(mu) counts in the trials;
  - geometric memorylessness: a geometric count conditioned on being
    positive is one plus the same geometric count, so the positive
    counts are numpy's ``geometric`` draws on {1, 2, ...};
  - binomial thinning: c trials that each succeed with probability q
    succeed Binomial(c, q) times in total.

  For a fixed seed, trial count and configuration the result is
  reproducible bit for bit: trials are consumed in blocks of
  ``_BLOCK`` = 1,000,000 (the last block takes the remainder), block b
  uses the b-th child of numpy's SeedSequence(seed), draws happen in a
  fixed order within a block (see :func:`mc_rate`), and the per-block
  success counts are integers, so the final reduction is exact in any
  order.

Both oracles take a :class:`Setting` and let :meth:`Setting.resolve`
turn a time-bin setting into its polarization twin at half efficiency,
so neither knows about time bins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .detection import DetectorModel, click_prob
from .distributions import PairSource, SourceKind, pmf_values
from .polarization import HplusModel, Setting

__all__ = [
    "XMaxTooLarge",
    "EnumeratedRate",
    "McEstimate",
    "ladder_plus_distribution",
    "enumerate_rate",
    "mc_rate",
    "sample_patterns",
]

# deepest pair number the enumeration takes: `biphoton validate` and the
# benchmark enumerate to it, and tests pin it
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


@dataclass(frozen=True)
class EnumeratedRate:
    """Exhaustively enumerated rate plus the pmf mass beyond x_max."""

    value: float
    tail_bound: float
    x_max: int


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo estimate of a click or coincidence probability."""

    mean: float
    std_error: float
    trials: int
    seed: int


@lru_cache(maxsize=X_MAX_LIMIT + 1)
def _coin_weights(x: int) -> tuple[float, ...]:
    """Binomial(x, 1/2) pmf by convolving x fair coins."""
    w = [1.0]
    for _ in range(x):
        nxt = [0.0] * (len(w) + 1)
        for j, v in enumerate(w):
            nxt[j] += 0.5 * v
            nxt[j + 1] += 0.5 * v
        w = nxt
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


@lru_cache(maxsize=HPLUS_X_CAP + 1)
def _ladder_table(x: int) -> np.ndarray:
    """Ladder amplitude rows k = 0..x at x photons (read-only)."""
    table = _ladder_step(_ladder_table(x - 1)) if x else np.ones((1, 1))
    table.flags.writeable = False
    return table


@lru_cache(maxsize=1024)
def ladder_plus_distribution(x: int, k: int) -> tuple[float, ...]:
    """+/- basis photon-number law of the x-k H, k V idler Fock state.

    Built operationally from vacuum by creation operators (see
    :func:`_ladder_step`); finite for any x, in O(x^3) time and O(x^2)
    memory.  Tables up to x = ``HPLUS_X_CAP`` are kept, and the 1024
    most recent (x, k) results.
    """
    if not (0 <= k <= x):
        raise ValueError(f"need 0 <= k <= x, got k={k}, x={x}")
    rows = _ladder_table(min(x, HPLUS_X_CAP))
    while rows.shape[0] <= x:
        rows = _ladder_step(rows)
    return tuple((rows[k] * rows[k]).tolist())


def _per_x_probability(
    kind: SourceKind,
    setting: Setting,
    x: int,
    det_s: DetectorModel,
    det_i: DetectorModel,
    hplus_model: HplusModel,
) -> float:
    qs = [click_prob(det_s, n) for n in range(x + 1)]
    qi = [click_prob(det_i, n) for n in range(x + 1)]
    coin = _coin_weights(x)
    # the law of the pattern variable y that sample_patterns draws from
    if kind is SourceKind.DIS_ENTANGLED:
        law = coin
    elif kind is SourceKind.INDIS_ENTANGLED:
        law = [1.0 / (x + 1)] * (x + 1)
    else:
        law = [1.0]  # correlated pairs are all H
    coherent = kind is SourceKind.INDIS_ENTANGLED and hplus_model is HplusModel.COHERENT

    def plus_click(y: int) -> float:
        # the idler's + count: the ladder law of the collapsed coherent
        # state, otherwise x photons routed by fair coins
        w = ladder_plus_distribution(x, y) if coherent else coin
        return math.fsum(w[p] * qi[p] for p in range(x + 1))

    # y pairs are V-polarized, so x - y photons pass each H polarizer
    term = {
        Setting.HH: lambda y: qs[x - y] * qi[x - y],
        Setting.CAR_MATCHED: lambda y: qs[x - y] * qi[x - y],
        Setting.HV: lambda y: qs[x - y] * qi[y],
        Setting.HPLUS: lambda y: qs[x - y] * plus_click(y),
        Setting.SINGLE_S: lambda y: qs[x - y],
        Setting.SINGLE_I: lambda y: qi[x - y],
    }[setting]
    return math.fsum(p * term(y) for y, p in enumerate(law))


def enumerate_rate(
    source: PairSource,
    setting: Setting,
    det_s: DetectorModel,
    det_i: DetectorModel,
    x_max: int,
    hplus_model: HplusModel = HplusModel.COHERENT,
) -> EnumeratedRate:
    """Exhaustive-enumeration rate up to ``x_max`` generated pairs.

    The neglected contribution is at most the pmf mass beyond x_max
    (every per-x probability is <= 1); that mass is reported as
    ``tail_bound`` so callers can fold it into comparisons.
    """
    if x_max < 0:
        raise ValueError(f"x_max must be >= 0, got {x_max}")
    if x_max > X_MAX_LIMIT:
        raise XMaxTooLarge(f"x_max={x_max} exceeds the enumeration budget of {X_MAX_LIMIT}")
    setting, det_s, det_i = setting.resolve(source.kind, det_s, det_i)

    weights = pmf_values(source, x_max)
    tail = max(0.0, 1.0 - math.fsum(weights))

    if setting is Setting.CAR_UNMATCHED:
        a = math.fsum(weights[x] * click_prob(det_s, x) for x in range(x_max + 1))
        b = math.fsum(weights[x] * click_prob(det_i, x) for x in range(x_max + 1))
        # |A'B' - AB| <= tail*(A + B + tail) when each factor gains <= tail
        return EnumeratedRate(a * b, tail * (a + b + tail), x_max)

    value = math.fsum(
        weights[x]
        * _per_x_probability(source.kind, setting, x, det_s, det_i, hplus_model)
        for x in range(x_max + 1)
    )
    return EnumeratedRate(value, tail, x_max)


def _draw_pairs(rng: np.random.Generator, source: PairSource, n: int) -> np.ndarray:
    """Pair numbers of those of ``n`` independent pulses that carry any.

    Returns one positive count per such pulse, in no particular order;
    the other pulses carry none.  Exact in distribution for every kind,
    and O(n) in memory for any mu up to ``MU_MAX``.
    """
    mu = source.mu
    if source.kind.poissonian:
        if mu > 1.0:
            x = rng.poisson(mu, n)
            return x[x > 0]
        # Poisson splitting: run lengths of the sorted slots that were hit
        slots = np.sort(rng.integers(0, n, rng.poisson(n * mu)))
        starts = np.flatnonzero(np.diff(slots, prepend=-1))
        return np.diff(starts, append=slots.size)
    if source.kind is SourceKind.THERMAL_CORRELATED:
        # geometric on {0, 1, ...}: positive with probability mu/(1+mu)
        x = rng.geometric(1.0 / (1.0 + mu), rng.binomial(n, mu / (1.0 + mu)))
    else:
        # NB(2): the sum of two such geometrics, each with mean mu/2; a
        # pulses have the first positive, b the second, and `both` of them both
        half = mu / 2.0
        a = rng.binomial(n, half / (1.0 + half))
        b = rng.binomial(n, half / (1.0 + half))
        both = rng.hypergeometric(a, n - a, b)
        g = rng.geometric(1.0 / (1.0 + half), a + b)
        g[:both] += g[a : a + both]
        x = np.concatenate((g[:a], g[a + both :]))
    # numpy's geometric saturates at the int64 maximum, and a sum of two
    # geometrics beyond it wraps to a negative count
    if x.size and (x.min() < 1 or x.max() == _INT64_MAX):
        raise XMaxTooLarge(f"a pulse drew more pairs than int64 holds at mu={mu:g}; lower mu")
    return x


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


def _ladder_classes(
    rng: np.random.Generator, x: np.ndarray, k: np.ndarray
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """(signal H photons, idler + photons) classes for coherent H+.

    Pulses are binned by (x, k); each bin is split over the + count by
    one multinomial draw with the ladder law, in increasing x.
    """
    top = int(x.max()) if x.size else 0
    xk = np.bincount(x * (top + 1) + k, minlength=(top + 1) ** 2).reshape(top + 1, top + 1)
    counts = np.zeros((top + 1, top + 1), dtype=np.int64)
    for xv in np.flatnonzero(xk.any(axis=1)).tolist():
        split = rng.multinomial(xk[xv, : xv + 1], _ladder_table(xv) ** 2)
        counts[xv - np.arange(xv + 1), : xv + 1] += split
    occupied = np.nonzero(counts)
    return occupied, counts[occupied]


def _hits(
    rng: np.random.Generator,
    empty: int,
    dets: tuple[DetectorModel, ...],
    photons: tuple[np.ndarray, ...],
    counts: np.ndarray,
) -> int:
    """Pulses on which every arm clicks: one binomial draw per occupied
    class, in the order given, then one for the ``empty`` pulses, which
    carry no photons and click on dark counts alone."""
    p = np.ones(counts.shape)
    dark = 1.0
    for det, n in zip(dets, photons):
        # arranged as in click_prob
        p *= det.dark + (1.0 - det.dark) * (1.0 - (1.0 - det.alpha) ** n)
        dark *= det.dark
    return int(rng.binomial(counts, p).sum()) + int(rng.binomial(empty, dark))


def _mc_block(
    rng: np.random.Generator,
    source: PairSource,
    setting: Setting,
    det_s: DetectorModel,
    det_i: DetectorModel,
    n: int,
    hplus_model: HplusModel,
) -> int:
    kind = source.kind
    x = _draw_pairs(rng, source, n)
    empty = n - x.size

    if setting is Setting.CAR_UNMATCHED:
        # the idler comes from another pulse: draw it only where the signal clicked
        signal = _hits(rng, empty, (det_s,), *_classes(x))
        x = _draw_pairs(rng, source, signal)
        return _hits(rng, signal - x.size, (det_i,), *_classes(x))

    v = sample_patterns(kind, x, rng)
    h = x - v
    if setting is Setting.SINGLE_S:
        return _hits(rng, empty, (det_s,), *_classes(h))
    if setting is Setting.SINGLE_I:
        return _hits(rng, empty, (det_i,), *_classes(h))
    if setting in (Setting.HH, Setting.CAR_MATCHED):
        classes = _classes(h, h)
    elif setting is Setting.HV:
        classes = _classes(h, v)
    elif kind is SourceKind.INDIS_ENTANGLED and hplus_model is HplusModel.COHERENT:
        if x.size and x.max() > HPLUS_X_CAP:
            raise XMaxTooLarge(
                f"coherent H+ Monte-Carlo drew a pulse with {x.max()} pairs at "
                f"mu={source.mu:g}, above its ladder cap of {HPLUS_X_CAP}; use a "
                f"smaller mu or HplusModel.INDEPENDENT"
            )
        classes = _ladder_classes(rng, x, v)
    else:  # HPLUS with independent +/- splitting
        classes = _classes(h, rng.binomial(x, 0.5))
    return _hits(rng, empty, (det_s, det_i), *classes)


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

    Trials run in blocks of ``_BLOCK`` = 1,000,000, block b seeded by
    the b-th child of SeedSequence(seed).  Within a block the draw
    order is fixed:

    1. pair numbers of the pulses that carry any: for Poissonian kinds
       with mu <= 1, N ~ Poisson(n mu) and N slot indices; with mu > 1,
       one Poisson per pulse; for the thermal kind, a Binomial count of
       positive pulses and one geometric each; for the indistinguishable
       kind, two such Binomial counts, their hypergeometric overlap and
       one geometric per positive factor;
    2. the pattern variable of each of those pulses (entangled kinds);
    3. for H+, the + port: Binomial(x, 1/2) per pulse, or for coherent
       indistinguishable pairs one multinomial per pair number x over
       its (x, k) bins, in increasing x;
    4. one binomial per occupied (signal photons, idler photons) class,
       in increasing order, then one for the pulses without pairs.

    For CAR_UNMATCHED, step 4 draws the signal clicks only; then the
    idler's pair numbers are drawn (as in step 1) for the S pulses whose
    signal clicked, followed by the idler's step 4.

    Coherent H+ on the indistinguishable kind raises
    :class:`XMaxTooLarge` if a pulse draws more than ``HPLUS_X_CAP`` =
    200 pairs; ``HplusModel.INDEPENDENT`` has no such cap.  Every kind
    raises it for mu above ``MU_MAX`` = 2^62, and when a drawn pair
    number does not fit in int64 (thermal and indistinguishable kinds
    from mu ~ 1e18).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if source.mu > MU_MAX:
        raise XMaxTooLarge(
            f"mu={source.mu:g} is above the Monte-Carlo's MU_MAX = 2^62, where int64 "
            f"pair counts run out; use a smaller mu"
        )
    setting, det_s, det_i = setting.resolve(source.kind, det_s, det_i)

    n_blocks = (trials + _BLOCK - 1) // _BLOCK
    successes = 0
    for b, child in enumerate(np.random.SeedSequence(seed).spawn(n_blocks)):
        rng = np.random.Generator(np.random.PCG64(child))
        n = min(_BLOCK, trials - b * _BLOCK)
        successes += _mc_block(rng, source, setting, det_s, det_i, n, hplus_model)
    p = successes / trials
    se = math.sqrt(p * (1.0 - p) / (trials - 1)) if trials > 1 else 0.0
    return McEstimate(p, se, trials, seed)
