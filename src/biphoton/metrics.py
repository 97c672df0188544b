"""Quality metrics derived from the rates: visibility, contrast, CAR and
optimization of the mean pair number on the closed-form rates.  Every
exact rate here is read from the series in ``polarization``."""

from __future__ import annotations

import math
from enum import Enum

from .detection import DetectorModel
from .distributions import (PairSource, SourceKind, TruncationPolicy, _check_count, _check_member,
                            _check_real, _record)
from .polarization import (
    RateMethod,
    Setting,
    _DEFAULT_POLICY,
    _closed_form_defaults,
    _closed_form_mu,
    _closed_forms,
    _exact_sweep,
    _require_entangled,
)

__all__ = [
    "VisibilityResult",
    "CarResult",
    "Objective",
    "MuOptimum",
    "visibility_exact",
    "visibility_approx",
    "car",
    "optimize_mu",
]


class VisibilityResult(_record("visibility contrast")):
    """Two-photon interference visibility and HH/HV contrast."""

    __slots__ = ()


class CarResult(_record("matched_rate unmatched_rate car")):
    """Coincidence-to-accidental ratio with its two ingredient rates."""

    __slots__ = ()


class Objective(Enum):
    MAX_VISIBILITY = "max-visibility"
    MAX_CONCURRENCE = "max-concurrence"
    MAX_COINCIDENCE_TIMES_VISIBILITY = "max-coincidence-times-visibility"
    __hash__ = object.__hash__


class MuOptimum(_record("mu value unimodal")):
    """Result of a mean-pair-number optimization.

    ``unimodal`` is False when the coarse scan saw more than one local
    maximum, or was flat to rounding; the returned point is then the best
    sample, not a certified optimum.  When True, ``mu`` is the closed
    forms' optimum, clamped to the bracket.  With r = sqrt(d_s d_i) and
    A = a_s a_i - (a_s d_i + a_i d_s):

    - ``MAX_VISIBILITY``: dV/dmu has the sign of 4 d_s d_i - a_s a_i mu^2
      for distinguishable pairs, so mu* = 2 r / sqrt(a_s a_i), and of
      4 d_s d_i (mu + 1) - A mu^2 for indistinguishable pairs, so
      mu* = 2 r (r + sqrt(r^2 + A)) / A if A > 0 and the bracket's top if not.
    - ``MAX_CONCURRENCE``: the same mu.  Each closed-form state has
      R_H+ = (R_HH + R_HV) / 2, so its concurrence is max(0, (3V - 1) / 2),
      which rises with V (Wootters, PRL 80, 2245, 1998).
    - ``MAX_COINCIDENCE_TIMES_VISIBILITY``: the bracket's top; the
      numerator of d(R_HH V)/dmu has no negative coefficient.
    """

    __slots__ = ()


def _visibility(r_hh: float, r_hv: float) -> float:
    total = r_hh + r_hv
    return (r_hh - r_hv) / total if total > 0 else 1.0


def visibility_exact(
    source: PairSource,
    alpha_s: float,
    alpha_i: float,
    dark_s: float = 0.0,
    dark_i: float = 0.0,
    policy: TruncationPolicy = _DEFAULT_POLICY,
) -> VisibilityResult:
    """Visibility from the exact-series HH and HV rates."""
    _check_member("source", source, PairSource)
    _require_entangled(source.kind, "visibility")
    det_s, det_i = DetectorModel(alpha_s, dark_s), DetectorModel(alpha_i, dark_i)
    _, [(_, (hh, hv))] = _exact_sweep(source.kind, (Setting.HH, Setting.HV), (source.mu,), det_s,
                                      det_i, policy)
    contrast = hh / hv if hv > 0 else math.inf
    return VisibilityResult(_visibility(hh, hv), contrast)


def visibility_approx(kind: SourceKind, mu: float) -> VisibilityResult:
    """Efficiency-independent leading-order visibility and contrast.

    Distinguishable pairs: v = 1/(1+mu), contrast 1 + 2/mu.
    Indistinguishable pairs: v = (mu+2)/(3*mu+2), contrast 2 + 2/mu.
    """
    mu = _closed_form_mu(kind, mu)
    _require_entangled(kind, "visibility")
    if kind is SourceKind.DIS_ENTANGLED:
        v = 1.0 / (1.0 + mu)
        contrast = 1.0 + 2.0 / mu if mu > 0 else math.inf
    else:
        v = (mu + 2.0) / (3.0 * mu + 2.0)
        contrast = 2.0 + 2.0 / mu if mu > 0 else math.inf
    return VisibilityResult(v, contrast)


def car(
    source: PairSource,
    alpha_s: float,
    alpha_i: float,
    dark_s: float = 0.0,
    dark_i: float = 0.0,
    policy: TruncationPolicy = _DEFAULT_POLICY,
    method: RateMethod = RateMethod.EXACT_SERIES,
) -> CarResult:
    """Coincidence-to-accidental ratio of a correlated pair source.

    The matched rate pairs clicks produced by the same pulse; the
    unmatched (accidental) rate pairs clicks of two independent pulses,
    so it is the product of the two arms' single-count rates.  The
    closed form refuses a non-default ``policy``, and raises
    :class:`CapExceeded` above mu = 1e150.
    """
    _check_member("method", method, RateMethod)
    _check_member("source", source, PairSource)
    det_s, det_i = DetectorModel(alpha_s, dark_s), DetectorModel(alpha_i, dark_i)
    if method is RateMethod.EXACT_SERIES:
        _, [(_, rates)] = _exact_sweep(source.kind, (Setting.CAR_MATCHED, Setting.CAR_UNMATCHED),
                                       (source.mu,), det_s, det_i, policy)
        return _car_result(*rates)
    Setting.CAR_MATCHED.resolve(source.kind, det_s, det_i)
    _closed_form_defaults(policy)
    mu = _closed_form_mu(source.kind, source.mu)
    unmatched = (mu * det_s.alpha + det_s.dark) * (mu * det_i.alpha + det_i.dark)
    matched = mu * det_s.alpha * det_i.alpha + unmatched
    if source.kind is SourceKind.THERMAL_CORRELATED:
        matched += mu * mu * det_s.alpha * det_i.alpha
    return _car_result(matched, unmatched)


def _car_result(matched: float, unmatched: float) -> CarResult:
    return CarResult(matched, unmatched, matched / unmatched if unmatched > 0 else math.inf)


def _objective_fn(kind: SourceKind, det_s: DetectorModel, det_i: DetectorModel,
                  objective: Objective):
    """The objective as a function of a list of mu: one value per mu.  The kind
    is checked before any mu: once, here, for the visibility objectives, and for
    ``MAX_CONCURRENCE`` by each list's sweep; every mu of a list is checked
    before any value."""
    if objective is Objective.MAX_CONCURRENCE:
        # late import keeps the module dependency one-way
        from .tomography import _closed_form_concurrences
        return lambda mus: _closed_form_concurrences(
            (kind,), mus, det_s.alpha, det_i.alpha, det_s.dark, det_i.dark).tolist()

    _check_member("kind", kind, SourceKind)
    _require_entangled(kind, "closed-form polarization rates")

    def f(mu: float) -> float:
        r_hh, r_hv = _closed_forms(kind, mu, det_s, det_i)[:2]
        v = _visibility(r_hh, r_hv)
        return v if objective is Objective.MAX_VISIBILITY else r_hh * v

    return lambda mus: [f(mu) for mu in [_closed_form_mu(kind, m) for m in mus]]


_SWEEP_MAX = 100_000  # the most points a mu grid takes: its values are held in memory


def _mu_grid(lo: float, hi: float, n: int, log: bool) -> list[float]:
    """n >= 2 points from lo to hi, evenly spaced in mu or in log(mu), with
    both ends exact: every ``--mu-range`` sweep and the scan of :func:`optimize_mu`."""
    if log:
        step = (math.log(hi) - math.log(lo)) / (n - 1)
        vals = [math.exp(math.log(lo) + j * step) for j in range(n)]
    else:
        step = (hi - lo) / (n - 1)
        vals = [lo + j * step for j in range(n)]
    vals[0], vals[-1] = lo, hi
    return vals


def _peak_mu(kind: SourceKind, det_s: DetectorModel, det_i: DetectorModel,
             objective: Objective, lo: float, hi: float) -> float:
    """The mu of [lo, hi] where the objective of a unimodal profile peaks, from
    the closed forms (see :class:`MuOptimum`); r = sqrt(d_s d_i) takes no
    product of two darks, which could underflow."""
    if objective is Objective.MAX_COINCIDENCE_TIMES_VISIBILITY:
        return hi
    r = math.sqrt(det_s.dark) * math.sqrt(det_i.dark)
    if kind is SourceKind.DIS_ENTANGLED:
        mu = 2 * r / (math.sqrt(det_s.alpha) * math.sqrt(det_i.alpha))
    else:
        a = det_s.alpha * det_i.alpha - (det_s.alpha * det_i.dark + det_i.alpha * det_s.dark)
        mu = 2 * r * (r + math.sqrt(r * r + a)) / a if a > 0 else hi
    return min(max(mu, lo), hi)


def optimize_mu(
    kind: SourceKind,
    alpha_s: float,
    alpha_i: float,
    dark_s: float,
    dark_i: float,
    objective: Objective,
    mu_range: tuple[float, float],
    samples: int = 65,
) -> MuOptimum:
    """Maximize an objective over the mean pair number.

    Every input is checked before anything is computed: the objective,
    ``mu_range`` and ``samples`` (3 to 100,000), then
    both arms, then the kind; the mus of the scan before any of their values.
    Every objective reads the closed-form rates:
    ``MAX_VISIBILITY`` and ``MAX_COINCIDENCE_TIMES_VISIBILITY`` directly,
    ``MAX_CONCURRENCE`` through the states reconstructed from them.
    The bracket is sampled on a log grid to test unimodality; for
    ``MAX_CONCURRENCE`` the samples' rates are formed in one array pass
    and their states reconstructed and graded in one stacked pass, equal
    bit for bit to one state at a time.  A unimodal profile returns the
    explicit optimum of :class:`MuOptimum`, clamped to ``mu_range``: an
    endpoint with its scan value, an inner mu with one value more.  A
    non-unimodal profile sets the warning flag and returns the best
    sample as-is; so does a scan flat to within the scan's noise
    allowance (1e-12 relative, plus 1e-14 absolute for C and V).
    """
    _check_member("objective", objective, Objective)
    try:
        lo, hi = mu_range
    except (TypeError, ValueError):
        raise ValueError(f"mu_range must be a pair (lo, hi), got {mu_range!r}") from None
    lo, hi = _check_real("mu_range", lo), _check_real("mu_range", hi)
    if not (0 < lo < hi) or not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"mu_range must satisfy 0 < lo < hi, got {mu_range}")
    _check_count("samples", samples, 3)
    if samples > _SWEEP_MAX:
        raise ValueError(f"samples must be <= {_SWEEP_MAX}, got {samples}")
    grid = _mu_grid(lo, hi, samples, True)
    det_s, det_i = DetectorModel(alpha_s, dark_s), DetectorModel(alpha_i, dark_i)
    scan = _objective_fn(kind, det_s, det_i, objective)
    ys = scan(grid)

    peak = max(range(samples), key=lambda j: ys[j])
    # C and V lie in [0, 1], so their noise has an absolute floor too: the
    # accuracy C is computed to (concurrence: 3.7e-15 at worst)
    floor = 1e-300 if objective is Objective.MAX_COINCIDENCE_TIMES_VISIBILITY else 1e-14
    tol = lambda v: 1e-12 * abs(v) + floor
    flat = all(ys[peak] - y <= tol(ys[peak]) for y in ys)  # flat to rounding: no optimum
    rising = all(ys[j + 1] >= ys[j] - tol(ys[j]) for j in range(peak))
    falling = all(ys[j + 1] <= ys[j] + tol(ys[j]) for j in range(peak, samples - 1))
    if flat or not (rising and falling):
        return MuOptimum(grid[peak], ys[peak], False)
    mu = _peak_mu(kind, det_s, det_i, objective, lo, hi)
    return MuOptimum(mu, ys[0] if mu == lo else ys[-1] if mu == hi else scan([mu])[0], True)
