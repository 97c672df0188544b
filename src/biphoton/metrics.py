"""Quality metrics derived from the rates: visibility, contrast, CAR and
optimization of the mean pair number on the closed-form rates.  Every
exact rate here is read from the series in ``polarization``."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .detection import DetectorModel
from .distributions import (PairSource, SourceKind, TruncationPolicy, _check_count, _check_member,
                            _check_real)
from .polarization import (
    RateMethod,
    Setting,
    _DEFAULT_POLICY,
    _closed_form_defaults,
    _closed_form_mu,
    _closed_forms,
    _exact_rates,
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


@dataclass(frozen=True)
class VisibilityResult:
    """Two-photon interference visibility and HH/HV contrast."""

    visibility: float
    contrast: float


@dataclass(frozen=True)
class CarResult:
    """Coincidence-to-accidental ratio with its two ingredient rates."""

    matched_rate: float
    unmatched_rate: float
    car: float


class Objective(Enum):
    MAX_VISIBILITY = "max-visibility"
    MAX_CONCURRENCE = "max-concurrence"
    MAX_COINCIDENCE_TIMES_VISIBILITY = "max-coincidence-times-visibility"


@dataclass(frozen=True)
class MuOptimum:
    """Result of a mean-pair-number optimization.

    ``unimodal`` is False when the coarse scan saw more than one local
    maximum, or was flat to rounding; the returned point is then the best
    sample, not a certified optimum.  When True, ``mu`` is within 1e-6
    relative of the optimum: a golden-section point, or an endpoint that
    one probe confirmed.
    """

    mu: float
    value: float
    unimodal: bool


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
    _, (hh, hv) = _exact_rates(source, (Setting.HH, Setting.HV), DetectorModel(alpha_s, dark_s),
                               DetectorModel(alpha_i, dark_i), policy, None)
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
    _, det_s, det_i = Setting.CAR_MATCHED.resolve(
        source.kind, DetectorModel(alpha_s, dark_s), DetectorModel(alpha_i, dark_i)
    )
    if method is RateMethod.CLOSED_FORM:
        _closed_form_defaults(policy)
        mu = _closed_form_mu(source.kind, source.mu)
        unmatched = (mu * det_s.alpha + det_s.dark) * (mu * det_i.alpha + det_i.dark)
        matched = mu * det_s.alpha * det_i.alpha + unmatched
        if source.kind is SourceKind.THERMAL_CORRELATED:
            matched += mu * mu * det_s.alpha * det_i.alpha
    else:
        _, (matched, unmatched) = _exact_rates(
            source, (Setting.CAR_MATCHED, Setting.CAR_UNMATCHED), det_s, det_i, policy, None)
    ratio = matched / unmatched if unmatched > 0 else math.inf
    return CarResult(matched, unmatched, ratio)


def _objective_fn(
    kind: SourceKind,
    alpha_s: float,
    alpha_i: float,
    dark_s: float,
    dark_i: float,
    objective: Objective,
):
    """The objective as a function of a list of mu: one value per mu.  The arms,
    then the kind, are checked before any mu: once, here, for the visibility
    objectives, and for ``MAX_CONCURRENCE`` by each list's sweep; every mu of a
    list is checked before any value."""
    if objective is Objective.MAX_CONCURRENCE:
        # late import keeps the module dependency one-way
        from .tomography import _closed_form_concurrences
        return lambda mus: _closed_form_concurrences(
            (kind,), mus, alpha_s, alpha_i, dark_s, dark_i).tolist()

    det_s, det_i = DetectorModel(alpha_s, dark_s), DetectorModel(alpha_i, dark_i)
    _check_member("kind", kind, SourceKind)
    _require_entangled(kind, "closed-form polarization rates")

    def f(mu: float) -> float:
        r_hh, r_hv = _closed_forms(kind, mu, det_s, det_i)[:2]
        v = _visibility(r_hh, r_hv)
        return v if objective is Objective.MAX_VISIBILITY else r_hh * v

    return lambda mus: [f(mu) for mu in [_closed_form_mu(kind, m) for m in mus]]


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


_LOG_MU_TOL = 1e-6  # golden-section stop: a width in log(mu), so relative in mu


def _golden_max(f, log_lo: float, log_hi: float):
    """Golden-section maximization of f(exp(t)) on [log_lo, log_hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = log_lo, log_hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = f(math.exp(c))
    fd = f(math.exp(d))
    while (b - a) > _LOG_MU_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(math.exp(d))
    return (c, fc) if fc >= fd else (d, fd)


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
    ``mu_range`` and ``samples``, then both arms, then the kind; the mus
    of the scan, and each later point, before any of their values.
    Every objective reads the closed-form rates:
    ``MAX_VISIBILITY`` and ``MAX_COINCIDENCE_TIMES_VISIBILITY`` directly,
    ``MAX_CONCURRENCE`` through the states reconstructed from them.
    The bracket is first sampled on a log grid to test unimodality; for
    ``MAX_CONCURRENCE`` the samples' rates are formed in one array pass
    and their states reconstructed and graded in one stacked pass, equal
    bit for bit to one state at a time.  A
    unimodal profile is refined by golden-section search on log(mu) to
    ``_LOG_MU_TOL`` = 1e-6 relative accuracy; endpoints are returned
    exactly when they win (monotone objectives).  A scan that peaks at an
    endpoint costs one probe more, ``_LOG_MU_TOL`` inside it and clamped
    to the next sample, so no objective is read outside ``mu_range``; if
    the probe falls by more than the scan's noise allowance, the endpoint
    is returned, as the search would return it.  A non-unimodal profile
    sets the warning flag and returns the best sample as-is; so does a
    scan flat to within that allowance (1e-12 relative, plus 1e-14
    absolute for C and V), which evaluates nothing more.
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
    log_lo, log_hi = math.log(lo), math.log(hi)
    grid = _mu_grid(lo, hi, samples, True)
    scan = _objective_fn(kind, alpha_s, alpha_i, dark_s, dark_i, objective)
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

    a = log_lo if peak == 0 else math.log(grid[peak - 1])
    b = log_hi if peak == samples - 1 else math.log(grid[peak + 1])
    f = lambda mu: scan([mu])[0]
    # an endpoint peak that falls at one probe inside [a, b] is the optimum
    probe = min(max(log_lo + _LOG_MU_TOL if peak == 0 else log_hi - _LOG_MU_TOL, a), b)
    if peak in (0, samples - 1) and f(math.exp(probe)) < ys[peak] - tol(ys[peak]):
        best_mu, best_val = grid[peak], ys[peak]
    else:
        t, best_val = _golden_max(f, a, b)
        best_mu = math.exp(t)
    # prefer an exact endpoint when it is at least as good (monotone case)
    for m, y in ((lo, ys[0]), (hi, ys[-1])):
        if y >= best_val:
            best_mu, best_val = m, y
    return MuOptimum(best_mu, best_val, True)
