"""Quality metrics derived from the rates: visibility, contrast, CAR,
optimization of the mean pair number on the closed-form rates, and the
exact-series rate of any :class:`Setting`."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .detection import DetectorModel, click_prob
from .distributions import (PairSource, SourceKind, TruncationPolicy, _check_count, pmf_values,
                            truncation_index)
from .polarization import (
    HplusModel,
    RateMethod,
    Setting,
    _closed_form_mu,
    _require_entangled,
    closed_form_rates,
    coincidence_rate,
    single_rate,
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
    "series_rate",
]


@dataclass(frozen=True)
class VisibilityResult:
    """Two-photon interference visibility and HH/HV contrast."""

    visibility: float
    contrast: float
    method: RateMethod


@dataclass(frozen=True)
class CarResult:
    """Coincidence-to-accidental ratio with its two ingredient rates."""

    matched_rate: float
    unmatched_rate: float
    car: float
    method: RateMethod


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
    objective: Objective


def _ratio_metrics(r_hh: float, r_hv: float, method: RateMethod) -> VisibilityResult:
    total = r_hh + r_hv
    visibility = (r_hh - r_hv) / total if total > 0 else 1.0
    contrast = r_hh / r_hv if r_hv > 0 else math.inf
    return VisibilityResult(visibility, contrast, method)


def visibility_exact(
    source: PairSource,
    alpha_s: float,
    alpha_i: float,
    dark_s: float = 0.0,
    dark_i: float = 0.0,
    policy: TruncationPolicy = TruncationPolicy(),
) -> VisibilityResult:
    """Visibility from the exact-series HH and HV rates."""
    _require_entangled(source.kind, "visibility")
    det_s = DetectorModel(alpha_s, dark_s)
    det_i = DetectorModel(alpha_i, dark_i)
    hh = coincidence_rate(source, Setting.HH, det_s, det_i, policy).value
    hv = coincidence_rate(source, Setting.HV, det_s, det_i, policy).value
    return _ratio_metrics(hh, hv, RateMethod.EXACT_SERIES)


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
    return VisibilityResult(v, contrast, RateMethod.CLOSED_FORM)


def car(
    source: PairSource,
    alpha_s: float,
    alpha_i: float,
    dark_s: float = 0.0,
    dark_i: float = 0.0,
    policy: TruncationPolicy = TruncationPolicy(),
    method: RateMethod = RateMethod.EXACT_SERIES,
) -> CarResult:
    """Coincidence-to-accidental ratio of a correlated pair source.

    The matched rate pairs clicks produced by the same pulse; the
    unmatched (accidental) rate pairs clicks of two independent pulses,
    so it is the product of the two arms' single-count rates.  The
    closed form raises :class:`CapExceeded` above mu = 1e150.
    """
    mu = source.mu
    _, det_s, det_i = Setting.CAR_MATCHED.resolve(
        source.kind, DetectorModel(alpha_s, dark_s), DetectorModel(alpha_i, dark_i)
    )
    if method is RateMethod.CLOSED_FORM:
        _closed_form_mu(source.kind, mu)
        unmatched = (mu * alpha_s + dark_s) * (mu * alpha_i + dark_i)
        matched = mu * alpha_s * alpha_i + unmatched
        if source.kind is SourceKind.THERMAL_CORRELATED:
            matched += mu * mu * alpha_s * alpha_i
    elif method is RateMethod.EXACT_SERIES:
        x_max = truncation_index(source, policy)
        weights = pmf_values(source, x_max)
        qs = [click_prob(det_s, x) for x in range(x_max + 1)]
        qi = [click_prob(det_i, x) for x in range(x_max + 1)]
        matched = math.fsum(w * a * b for w, a, b in zip(weights, qs, qi))
        unmatched = math.fsum(w * a for w, a in zip(weights, qs)) * math.fsum(
            w * b for w, b in zip(weights, qi)
        )
    else:
        raise ValueError(f"unsupported CAR method {method}")
    ratio = matched / unmatched if unmatched > 0 else math.inf
    return CarResult(matched, unmatched, ratio, method)


def series_rate(
    source: PairSource,
    setting: Setting,
    det_s: DetectorModel,
    det_i: DetectorModel,
    policy: TruncationPolicy = TruncationPolicy(),
    hplus_model: HplusModel = HplusModel.COHERENT,
) -> float:
    """The exact-series rate of any setting; the reference the oracles check.

    A time-bin setting is its polarization twin through half-efficiency
    detectors (see :meth:`Setting.resolve`), so its value equals that of
    ``timebin_rate`` bit for bit.
    """
    setting, det_s, det_i = setting.resolve(source.kind, det_s, det_i)
    if setting is Setting.SINGLE_S:
        return single_rate(source, det_s, policy)
    if setting is Setting.SINGLE_I:
        return single_rate(source, det_i, policy)
    if setting in (Setting.CAR_MATCHED, Setting.CAR_UNMATCHED):
        res = car(source, det_s.alpha, det_i.alpha, det_s.dark, det_i.dark, policy)
        return res.matched_rate if setting is Setting.CAR_MATCHED else res.unmatched_rate
    return coincidence_rate(source, setting, det_s, det_i, policy, hplus_model).value


def _objective_fn(
    kind: SourceKind,
    alpha_s: float,
    alpha_i: float,
    dark_s: float,
    dark_i: float,
    objective: Objective,
):
    """The objective as a function of a list of mu: one value per mu."""
    if objective is Objective.MAX_CONCURRENCE:
        # late import keeps the module dependency one-way
        from .tomography import _concurrences, assemble_r

        def scan(mus: list[float]) -> list[float]:
            # every state reconstructed and graded in one stacked pass
            states = (assemble_r(kind, mu, alpha_s, alpha_i, dark_s, dark_i) for mu in mus)
            return _concurrences(states).tolist()

        return scan

    def f(mu: float) -> float:
        rep = closed_form_rates(kind, mu, alpha_s, alpha_i, dark_s, dark_i)
        v = _ratio_metrics(rep.r_hh, rep.r_hv, RateMethod.CLOSED_FORM).visibility
        if objective is Objective.MAX_VISIBILITY:
            return v
        return rep.r_hh * v

    return lambda mus: [f(mu) for mu in mus]


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

    Every objective reads the closed-form rates: ``MAX_VISIBILITY`` and
    ``MAX_COINCIDENCE_TIMES_VISIBILITY`` directly, ``MAX_CONCURRENCE``
    through the states reconstructed from the rate vectors that
    :func:`assemble_r` fills with them.
    The bracket is first sampled on a log grid to test unimodality; for
    ``MAX_CONCURRENCE`` the samples are reconstructed and graded in one
    stacked pass, equal bit for bit to one state at a time.  A
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
    lo, hi = mu_range
    if not (0 < lo < hi) or not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"mu_range must satisfy 0 < lo < hi, got {mu_range}")
    _check_count("samples", samples, 3)
    scan = _objective_fn(kind, alpha_s, alpha_i, dark_s, dark_i, objective)
    log_lo, log_hi = math.log(lo), math.log(hi)
    grid = [math.exp(log_lo + (log_hi - log_lo) * j / (samples - 1)) for j in range(samples)]
    grid[0], grid[-1] = lo, hi
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
        return MuOptimum(grid[peak], ys[peak], False, objective)

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
    return MuOptimum(best_mu, best_val, True, objective)
