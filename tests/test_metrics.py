"""Visibility, contrast, CAR, and mean-pair-number optimization."""

import math
import re
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biphoton import (
    CapExceeded,
    CarResult,
    DetectorModel,
    HplusModel,
    MuOptimum,
    Objective,
    PairSource,
    RateMethod,
    Setting,
    SourceKind,
    TimebinPort,
    TruncationPolicy,
    UnsupportedSetting,
    assemble_r,
    car,
    closed_form_concurrence,
    closed_form_rates,
    closed_form_rho,
    coincidence_rate,
    optimize_mu,
    single_rate,
    timebin_rate,
    visibility_approx,
    visibility_exact,
)
from biphoton import cli, metrics, polarization
from biphoton.metrics import _SWEEP_MAX, _mu_grid

ENTANGLED = (SourceKind.DIS_ENTANGLED, SourceKind.INDIS_ENTANGLED)
CORRELATED = (SourceKind.DIS_CORRELATED, SourceKind.THERMAL_CORRELATED)


def test_approx_formulas_machine_exact():
    for mu in (0.01, 0.1, 1.0, 10.0):
        res = visibility_approx(SourceKind.DIS_ENTANGLED, mu)
        assert res.visibility == 1.0 / (1.0 + mu)
        assert res.contrast == 1.0 + 2.0 / mu
        res = visibility_approx(SourceKind.INDIS_ENTANGLED, mu)
        assert res.visibility == (mu + 2.0) / (3.0 * mu + 2.0)
        assert res.contrast == 2.0 + 2.0 / mu


def test_approx_spot_values_and_limits():
    assert visibility_approx(SourceKind.DIS_ENTANGLED, 1.0).visibility == 0.5
    res = visibility_approx(SourceKind.INDIS_ENTANGLED, 0.1)
    assert res.visibility == pytest.approx(2.1 / 2.3, rel=1e-14)
    assert res.contrast == pytest.approx(22.0, rel=1e-14)
    assert visibility_approx(SourceKind.INDIS_ENTANGLED, 1e12).visibility == pytest.approx(
        1 / 3, rel=1e-11
    )
    assert visibility_approx(SourceKind.DIS_ENTANGLED, 0.0).contrast == math.inf
    with pytest.raises(ValueError):
        visibility_approx(SourceKind.DIS_CORRELATED, 0.1)
    with pytest.raises(ValueError):
        visibility_approx(SourceKind.DIS_ENTANGLED, -0.1)


def test_exact_visibility_anchor_points():
    res = visibility_exact(PairSource(SourceKind.INDIS_ENTANGLED, 0.1), 0.1, 0.1)
    assert res.visibility == pytest.approx(0.912, abs=0.002)
    assert res.visibility == pytest.approx(0.9122898477171321, rel=1e-12)
    res = visibility_exact(PairSource(SourceKind.DIS_ENTANGLED, 0.1), 0.1, 0.1)
    assert res.visibility == pytest.approx(0.908, abs=0.002)
    assert res.visibility == pytest.approx(0.9086974116395042, rel=1e-12)


def test_exact_visibility_limits_and_validation():
    res = visibility_exact(PairSource(SourceKind.DIS_ENTANGLED, 1e-9), 0.1, 0.1)
    assert res.visibility >= 1.0 - 1e-8
    # no pairs and no darks: zero over zero resolves to the pure-state value
    res = visibility_exact(PairSource(SourceKind.INDIS_ENTANGLED, 0.0), 0.1, 0.1)
    assert res.visibility == 1.0
    assert res.contrast == math.inf
    with pytest.raises(ValueError):
        visibility_exact(PairSource(SourceKind.THERMAL_CORRELATED, 0.1), 0.1, 0.1)


def test_exact_approx_gap_vanishes_with_collection():
    # the leading finite-efficiency correction is linear in alpha
    for kind in ENTANGLED:
        for mu in (0.01, 0.1, 0.5):
            va = visibility_approx(kind, mu).visibility

            def gap(a):
                return abs(visibility_exact(PairSource(kind, mu), a, a).visibility - va)

            assert gap(1e-3) <= 0.15e-3, (kind, mu)
            assert gap(1e-3) <= 0.15 * gap(1e-2), (kind, mu)


def test_single_mode_source_wins_visibility():
    for mu in (0.01, 0.1, 0.5, 1.0, 3.0):
        assert (
            visibility_approx(SourceKind.INDIS_ENTANGLED, mu).visibility
            > visibility_approx(SourceKind.DIS_ENTANGLED, mu).visibility
        )
    for mu in (0.05, 0.2, 1.0):
        vi = visibility_exact(PairSource(SourceKind.INDIS_ENTANGLED, mu), 0.1, 0.1)
        vp = visibility_exact(PairSource(SourceKind.DIS_ENTANGLED, mu), 0.1, 0.1)
        assert vi.visibility > vp.visibility


def test_contrast_gap_approaches_one():
    a = 1e-4
    for mu in (0.05, 0.2, 1.0):
        tp = visibility_exact(PairSource(SourceKind.DIS_ENTANGLED, mu), a, a).contrast
        ti = visibility_exact(PairSource(SourceKind.INDIS_ENTANGLED, mu), a, a).contrast
        assert ti - tp == pytest.approx(1.0, abs=1e-3)


def test_car_closed_form_values():
    policy = TruncationPolicy()
    res = car(
        PairSource(SourceKind.DIS_CORRELATED, 0.1), 1e-6, 1e-6, 0, 0, policy,
        RateMethod.CLOSED_FORM,
    )
    assert res.car == pytest.approx(11.0, rel=1e-12)
    res = car(
        PairSource(SourceKind.THERMAL_CORRELATED, 0.1), 1e-6, 1e-6, 0, 0, policy,
        RateMethod.CLOSED_FORM,
    )
    assert res.car == pytest.approx(12.0, rel=1e-12)
    # frozen spot value: 1 + mu alpha^2 / (mu alpha + d)^2
    res = car(
        PairSource(SourceKind.DIS_CORRELATED, 0.1), 0.05, 0.05, 1e-4, 1e-4, policy,
        RateMethod.CLOSED_FORM,
    )
    assert res.car == pytest.approx(10.611687812379852, rel=1e-13)
    assert res.car == pytest.approx(1 + 2.5e-4 / 5.1e-3**2, rel=1e-12)


def test_car_series_converges_to_closed_form():
    policy = TruncationPolicy()
    for kind in CORRELATED:
        for mu in (0.05, 0.2):
            for a in (1e-3, 1e-4):
                src = PairSource(kind, mu)
                exact = car(src, a, a, 0, 0, policy, RateMethod.EXACT_SERIES)
                closed = car(src, a, a, 0, 0, policy, RateMethod.CLOSED_FORM)
                assert abs(exact.car - closed.car) / closed.car <= 10 * a
                assert exact.car == exact.matched_rate / exact.unmatched_rate
                assert isinstance(exact, CarResult)


def test_car_floor_and_validation():
    policy = TruncationPolicy()
    for kind in CORRELATED:
        for mu in (0.01, 0.3, 1.0):
            for a in (0.05, 0.5):
                res = car(PairSource(kind, mu), a, a, 0, 0, policy)
                assert res.car >= 1.0
    with pytest.raises(ValueError):
        car(PairSource(SourceKind.DIS_ENTANGLED, 0.1), 0.1, 0.1)
    with pytest.raises(TypeError, match="^method must be a RateMethod, got 'oracle'$"):
        car(PairSource(SourceKind.DIS_CORRELATED, 0.1), 0.1, 0.1, 0, 0,
            policy, "oracle")


# every closed-form entry point as f(kind, mu, alpha_s); those without
# detectors take no alpha
_CLOSED_FORMS = {
    "closed_form_rates": lambda kind, mu, a=0.1: closed_form_rates(kind, mu, a, 0.1),
    "visibility_approx": visibility_approx,
    "closed_form_rho": closed_form_rho,
    "closed_form_concurrence": closed_form_concurrence,
    "timebin_rate": lambda kind, mu, a=0.1: timebin_rate(
        kind, TimebinPort.APLUS, mu, a, 0.1, method=RateMethod.CLOSED_FORM),
    "assemble_r": lambda kind, mu, a=0.1: assemble_r(
        kind, mu, a, 0.1, method=RateMethod.CLOSED_FORM),
}
_WITH_DETECTORS = ("closed_form_rates", "timebin_rate", "assemble_r")


@pytest.mark.parametrize("mu", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", list(_CLOSED_FORMS))
def test_closed_forms_check_mu_as_pair_source_does(name, mu):
    for kind in ENTANGLED:
        _CLOSED_FORMS[name](kind, 0.1)
        with pytest.raises(ValueError, match=r"mu must be finite and >= 0"):
            _CLOSED_FORMS[name](kind, mu)


@pytest.mark.parametrize("alpha, error, message", [
    (1.5, ValueError, r"alpha must lie in \[0, 1\]"),
    (math.nan, ValueError, r"alpha must lie in \[0, 1\]"),
    (True, TypeError, "alpha must be a real number"),
])
@pytest.mark.parametrize("name", _WITH_DETECTORS)
def test_closed_forms_check_detectors_as_detector_model_does(name, alpha, error, message):
    for kind in ENTANGLED:
        with pytest.raises(error, match=message):
            _CLOSED_FORMS[name](kind, 0.1, alpha)


_DARK = math.nextafter(1.0, 0.0)


def _closed_values(name: str, kind: SourceKind, mu: float) -> list:
    """What a closed entry point returns at unit efficiency and dark near
    1, where its terms are largest, as a list of numbers."""
    if name == "closed_form_rates":
        rep = closed_form_rates(kind, mu, 1.0, 1.0, _DARK, _DARK)
        return [rep.r_hh, rep.r_hv, rep.r_hplus, rep.single_s, rep.single_i]
    if name == "visibility_approx":
        res = visibility_approx(kind, mu)
        return [res.visibility, res.contrast]
    if name == "closed_form_rho":
        return [abs(v) for v in closed_form_rho(kind, mu).matrix.ravel()]
    if name == "closed_form_concurrence":
        return [closed_form_concurrence(kind, mu)]
    if name == "car":
        res = car(PairSource(kind, mu), 1.0, 1.0, _DARK, _DARK, method=RateMethod.CLOSED_FORM)
        return [res.matched_rate, res.unmatched_rate, res.car]
    if name == "timebin_rate":
        return [timebin_rate(kind, port, mu, 1.0, 1.0, _DARK, _DARK,
                             method=RateMethod.CLOSED_FORM).value for port in TimebinPort]
    return list(assemble_r(kind, mu, 1.0, 1.0, _DARK, _DARK, method=RateMethod.CLOSED_FORM).r)


@pytest.mark.parametrize("name", [*_CLOSED_FORMS, "car"])
def test_closed_forms_are_finite_up_to_their_bound(name):
    bound = polarization._CLOSED_FORM_MU_MAX
    for kind in CORRELATED if name == "car" else ENTANGLED:
        assert all(math.isfinite(v) for v in _closed_values(name, kind, bound)), kind
        for mu in (math.nextafter(bound, math.inf), 1e200, 1e308):
            with pytest.raises(CapExceeded) as exc:
                _closed_values(name, kind, mu)
            assert repr(mu) in str(exc.value) and f"{bound:g}" in str(exc.value)


def test_a_kind_without_the_measurement_is_an_unsupported_setting():
    for kind in CORRELATED:
        with pytest.raises(UnsupportedSetting):
            visibility_exact(PairSource(kind, 0.1), 0.1, 0.1)
        with pytest.raises(UnsupportedSetting):
            visibility_approx(kind, 0.1)
    for kind in ENTANGLED:
        for method in RateMethod:
            with pytest.raises(UnsupportedSetting):
                car(PairSource(kind, 0.1), 0.1, 0.1, method=method)


def test_series_rate_dispatches_each_setting():
    # unequal arms, so a swapped detector shows; time-bin is in test_timebin
    policy = TruncationPolicy()
    det_s, det_i = DetectorModel(0.3, 1e-3), DetectorModel(0.6, 2e-3)
    for kind in SourceKind:
        src = PairSource(kind, 0.2)
        assert coincidence_rate(src, Setting.SINGLE_S, det_s, det_i, policy).value == single_rate(
            src, det_s, policy
        )
        assert coincidence_rate(src, Setting.SINGLE_I, det_s, det_i, policy).value == single_rate(
            src, det_i, policy
        )
        for setting in (Setting.HH, Setting.HV, Setting.HPLUS):
            if kind.correlated and setting is Setting.HPLUS:
                with pytest.raises(UnsupportedSetting):
                    coincidence_rate(src, setting, det_s, det_i, policy).value
                continue
            for model in HplusModel:
                want = coincidence_rate(src, setting, det_s, det_i, policy, model).value
                assert coincidence_rate(src, setting, det_s, det_i, policy, model).value == want
        cars = (Setting.CAR_MATCHED, Setting.CAR_UNMATCHED)
        if kind.entangled:
            for setting in cars:
                with pytest.raises(UnsupportedSetting):
                    coincidence_rate(src, setting, det_s, det_i, policy).value
            continue
        res = car(src, 0.3, 0.6, 1e-3, 2e-3, policy)
        assert coincidence_rate(src, cars[0], det_s, det_i, policy).value == res.matched_rate
        assert coincidence_rate(src, cars[1], det_s, det_i, policy).value == res.unmatched_rate


def test_optimize_returns_lower_endpoint_without_darks():
    for kind in ENTANGLED:
        res = optimize_mu(kind, 0.01, 0.01, 0.0, 0.0, Objective.MAX_VISIBILITY, (1e-3, 1.0))
        assert res.mu == 1e-3
        assert res.unimodal


def _grid_scan_mu(kind, a, d, lo, hi, n=4001):
    best_mu, best_v = lo, -1.0
    for j in range(n):
        mu = math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * j / (n - 1))
        rep = closed_form_rates(kind, mu, a, a, d, d)
        v = (rep.r_hh - rep.r_hv) / (rep.r_hh + rep.r_hv)
        if v > best_v:
            best_mu, best_v = mu, v
    return best_mu


def test_optimize_finds_interior_dark_limited_optimum():
    a, d = 0.01, 1e-5
    for kind in ENTANGLED:
        res = optimize_mu(kind, a, a, d, d, Objective.MAX_VISIBILITY, (1e-5, 1.0))
        ref = _grid_scan_mu(kind, a, d, 1e-5, 1.0)
        assert res.unimodal
        assert 1e-5 < res.mu < 1.0
        assert res.mu == pytest.approx(ref, rel=2e-3)
    # the two-mode accidental balance admits a closed solution mu = 2 d / a
    res = optimize_mu(SourceKind.DIS_ENTANGLED, a, a, d, d, Objective.MAX_VISIBILITY, (1e-5, 1.0))
    assert res.mu == pytest.approx(2 * d / a, rel=1e-4)


def test_a_float32_efficiency_optimizes_as_its_float_twin():
    # the closed forms read DetectorModel's floats: a float32 efficiency no
    # longer puts the objective into single precision, and a float32
    # bracket end comes back as a float
    twin = float(np.float32(0.1))
    for objective in Objective:
        got = optimize_mu(SourceKind.DIS_ENTANGLED, np.float32(0.1), 0.1, 1e-5, 1e-5, objective,
                          (1e-4, 1.0))
        want = optimize_mu(SourceKind.DIS_ENTANGLED, twin, 0.1, 1e-5, 1e-5, objective, (1e-4, 1.0))
        assert type(got.mu) is float and type(got.value) is float
        assert (got.mu.hex(), got.value.hex()) == (want.mu.hex(), want.value.hex()), objective
    got = optimize_mu(SourceKind.DIS_ENTANGLED, np.float32(0.1), 0.1, 1e-5, 1e-5,
                      Objective.MAX_VISIBILITY, (1e-4, 1.0))
    # the dark-limited optimum 2 d / sqrt(alpha_s alpha_i)
    assert got.unimodal and got.mu == pytest.approx(2e-4, rel=1e-6)
    for ends in ((np.float32(1e-3), 1.0), (1e-5, np.float32(1e-4))):
        got = optimize_mu(SourceKind.DIS_ENTANGLED, 0.1, 0.1, 1e-5, 1e-5,
                          Objective.MAX_VISIBILITY, ends)
        assert type(got.mu) is float and got.mu in (float(ends[0]), float(ends[1])), ends


def test_optimize_other_objectives():
    a, d = 0.01, 1e-5
    res = optimize_mu(
        SourceKind.DIS_ENTANGLED, a, a, d, d,
        Objective.MAX_COINCIDENCE_TIMES_VISIBILITY, (1e-4, 10.0),
    )
    # rate keeps growing faster than visibility decays for this product
    assert res.mu == 10.0
    res = optimize_mu(
        SourceKind.INDIS_ENTANGLED, a, a, d, d, Objective.MAX_CONCURRENCE,
        (1e-4, 1.0), samples=17,
    )
    assert isinstance(res, MuOptimum)
    assert 1e-4 < res.mu < 1.0
    assert 0.0 < res.value <= 1.0


def test_optimize_validation():
    with pytest.raises(ValueError):
        optimize_mu(SourceKind.DIS_ENTANGLED, 0.1, 0.1, 0, 0,
                    Objective.MAX_VISIBILITY, (1.0, 0.1))
    with pytest.raises(ValueError):
        optimize_mu(SourceKind.DIS_ENTANGLED, 0.1, 0.1, 0, 0,
                    Objective.MAX_VISIBILITY, (0.0, 1.0))
    with pytest.raises(ValueError):
        optimize_mu(SourceKind.DIS_ENTANGLED, 0.1, 0.1, 0, 0,
                    Objective.MAX_VISIBILITY, (0.1, 1.0), samples=2)
    # the bracket is a pair before its ends are read as reals
    for bracket in ((1e-3, 1.0, 2.0), 5, ("a",)):
        message = re.escape(f"mu_range must be a pair (lo, hi), got {bracket!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            optimize_mu(SourceKind.DIS_ENTANGLED, 0.1, 0.1, 0, 0,
                        Objective.MAX_VISIBILITY, bracket)
    # every objective checks the arms before the kind, and both before any mu
    for objective in Objective:
        with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\], got 1.5$"):
            optimize_mu(SourceKind.DIS_CORRELATED, 1.5, 0.1, 0, 0, objective, (1e200, 1e201))
        with pytest.raises(UnsupportedSetting, match=" is undefined for correlated kind "):
            optimize_mu(SourceKind.DIS_CORRELATED, 0.1, 0.1, 0, 0, objective, (1e200, 1e201))


def _objective_at(kind, dets, objective):
    """The objective at one mu from the public closed-form rates: V, C as
    max(0, (3 V - 1) / 2) and R_HH V."""
    def f(mu):
        rep = closed_form_rates(kind, mu, *dets)
        total = rep.r_hh + rep.r_hv
        v = (rep.r_hh - rep.r_hv) / total if total > 0 else 1.0
        if objective is Objective.MAX_CONCURRENCE:
            return max(0.0, (3 * v - 1) / 2)
        return v if objective is Objective.MAX_VISIBILITY else rep.r_hh * v

    return f


def _scan(kind, dets, objective, mu_range, samples):
    """optimize_mu's scan one mu at a time: the grid, its values, the peak
    sample, and whether the profile is unimodal: not flat to rounding,
    rising to the peak and falling after it."""
    f = _objective_at(kind, dets, objective)
    grid = _mu_grid(*mu_range, samples, True)
    ys = [f(mu) for mu in grid]
    peak = max(range(samples), key=lambda j: ys[j])
    floor = 1e-300 if objective is Objective.MAX_COINCIDENCE_TIMES_VISIBILITY else 1e-14
    tol = lambda v: 1e-12 * abs(v) + floor
    unimodal = (not all(ys[peak] - y <= tol(ys[peak]) for y in ys)
                and all(ys[j + 1] >= ys[j] - tol(ys[j]) for j in range(peak))
                and all(ys[j + 1] <= ys[j] + tol(ys[j]) for j in range(peak, samples - 1)))
    return grid, ys, peak, unimodal


def _mp_optimum(kind, dets, objective, mu_range) -> float:
    """The objective's maximum over the bracket in 50-digit mpmath: an end
    where the derivative points out of the bracket, else its root.  The rates
    are the closed forms' own, and C is (R_HH - 2 R_HV) / (R_HH + R_HV), which
    tests/test_concurrence_form.py proves for every closed-form state."""
    with mp.workdps(50):
        a_s, a_i, d_s, d_i = (mp.mpf(x) for x in dets)
        arms = SimpleNamespace(alpha=a_s, dark=d_s), SimpleNamespace(alpha=a_i, dark=d_i)

        def f(mu):
            r_hh, r_hv = polarization._closed_forms(kind, mu, *arms)[:2]
            if objective is Objective.MAX_CONCURRENCE:
                return (r_hh - 2 * r_hv) / (r_hh + r_hv)
            v = (r_hh - r_hv) / (r_hh + r_hv)
            return v if objective is Objective.MAX_VISIBILITY else r_hh * v

        slope = lambda mu: mp.diff(f, mu)
        lo, hi = (mp.mpf(m) for m in mu_range)
        if slope(lo) <= 0:
            return mu_range[0]
        if slope(hi) >= 0:
            return mu_range[1]
        for _ in range(60):  # bisection in log(mu), to 1e-17 relative or less
            mid = mp.sqrt(lo * hi)
            lo, hi = (mid, hi) if slope(mid) > 0 else (lo, mid)
        return float(lo)


def _check_search(kind, dets, objective, mu_range, samples) -> MuOptimum:
    """optimize_mu against its scan one state at a time: the verdict, and an
    uncertified profile's peak sample, bit for bit.  A certified optimum is
    within 1e-12 relative of the 50-digit one, its value is the objective
    there graded alone, and no sample of the scan or of a dense scan beats it
    by more than rounding."""
    res = optimize_mu(kind, *dets, objective, mu_range, samples)
    grid, ys, peak, unimodal = _scan(kind, dets, objective, mu_range, samples)
    assert res.unimodal == unimodal
    if not unimodal:
        assert res == MuOptimum(grid[peak], ys[peak], False)
        return res
    f = _objective_at(kind, dets, objective)
    ref = _mp_optimum(kind, dets, objective, mu_range)
    assert mu_range[0] <= res.mu <= mu_range[1]
    assert abs(res.mu - ref) <= 1e-12 * ref, (res.mu, ref)
    assert res.value == f(res.mu)
    best = max(ys + [f(mu) for mu in _mu_grid(*mu_range, 129, True)])
    # C = (3 V - 1) / 2 turns V's relative rounding into an absolute one
    floor = 4e-15 if objective is Objective.MAX_CONCURRENCE else 0.0
    assert res.value >= best - 1e-14 * abs(best) - floor, (res.value, best)
    return res


@pytest.mark.parametrize(("kind", "dets", "mu_range", "samples", "where"), [
    (SourceKind.INDIS_ENTANGLED, (0.1, 0.1, 1e-5, 1e-5), (1e-4, 1.0), 65, "interior"),
    (SourceKind.DIS_ENTANGLED, (0.3, 0.2, 1e-4, 2e-4), (1e-3, 1.0), 9, "interior"),
    (SourceKind.DIS_ENTANGLED, (0.1, 0.2, 0.0, 0.0), (1e-3, 1.0), 40, "endpoint"),
    (SourceKind.INDIS_ENTANGLED, (0.1, 0.1, 1e-5, 1e-5), (1e-6, 1e-4), 5, "endpoint"),
])
def test_max_concurrence_search_equals_one_state_at_a_time(kind, dets, mu_range, samples, where):
    # the scan's verdict is the per-point scan's, and the optimum's value is
    # its state graded alone
    res = _check_search(kind, dets, Objective.MAX_CONCURRENCE, mu_range, samples)
    assert res.unimodal
    assert (res.mu in mu_range) == (where == "endpoint")


def test_max_concurrence_search_of_a_bracket_that_is_not_unimodal(monkeypatch):
    # mu is folded back and forth onto [1e-3, 1e-1], where C falls with
    # mu, so the profile peaks at each return to 1e-3
    real = polarization._closed_forms
    fold = lambda mu: 10.0 ** (-3.0 + 2.0 * abs(math.sin(math.log(mu))))

    def folded(kind, mu, *arms):
        return real(kind, fold(mu), *arms)

    # the search's rates and the reference's public closed-form rates
    for module in (metrics, polarization):
        monkeypatch.setattr(module, "_closed_forms", folded)
    dets = (0.1, 0.1, 1e-5, 1e-5)
    res = optimize_mu(SourceKind.INDIS_ENTANGLED, *dets, Objective.MAX_CONCURRENCE,
                      (1e-4, 1e4), 65)
    grid, ys, peak, unimodal = _scan(
        SourceKind.INDIS_ENTANGLED, dets, Objective.MAX_CONCURRENCE, (1e-4, 1e4), 65)
    assert not res.unimodal and not unimodal
    assert res == MuOptimum(grid[peak], ys[peak], False)


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


_DARKS = st.one_of(st.just(0.0), _log_uniform(-7.0, -1.0))


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(ENTANGLED),
    objective=st.sampled_from(Objective),
    dets=st.tuples(_log_uniform(-3.0, 0.0), _log_uniform(-3.0, 0.0), _DARKS, _DARKS),
    lo=_log_uniform(-6.0, 4.0),
    decades=st.floats(1e-3, 4.0),
    samples=st.integers(3, 65),
)
# an upper endpoint wins: the rate grows faster than the visibility decays
@example(kind=SourceKind.DIS_ENTANGLED, objective=Objective.MAX_COINCIDENCE_TIMES_VISIBILITY,
         dets=(0.01, 0.01, 1e-5, 1e-5), lo=1e-4, decades=5.0, samples=65)
def test_optimize_mu_equals_the_full_search_bit_for_bit(kind, objective, dets, lo, decades,
                                                        samples):
    # the scan's verdict is the per-point scan's; a profile flat to rounding
    # (C of a separable state, V at alpha 1) returns its peak sample, and a
    # unimodal one the closed forms' optimum
    _check_search(kind, dets, objective, (lo, lo * 10.0 ** decades), samples)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(ENTANGLED),
    mu=_log_uniform(-12.0, 3.0),
    alphas=st.tuples(*[st.one_of(_log_uniform(-9.0, 0.0), _log_uniform(-300.0, -9.0))] * 2),
    darks=st.tuples(*[st.one_of(st.just(0.0), _log_uniform(-300.0, -1e-3))] * 2),
)
def test_the_concurrence_objective_is_within_1e_15_of_50_digits(kind, mu, alphas, darks):
    # C = max(0, (R_HH - 2 R_HV) / (R_HH + R_HV)) of the closed-form state
    # (tests/test_concurrence_form.py), from the same float inputs in 50 digits;
    # alphas below 1e-9 reach past the box of mu 1e-12 to 1e3 and alpha 1e-9
    # to 1, to where only the arm scaling keeps the rates normal
    arms = [DetectorModel(a, d) for a, d in zip(alphas, darks)]
    got = metrics._objective_fn(kind, *arms, Objective.MAX_CONCURRENCE)([mu])[0]
    with mp.workdps(50):
        exact = [SimpleNamespace(alpha=mp.mpf(a), dark=mp.mpf(d)) for a, d in zip(alphas, darks)]
        r_hh, r_hv = polarization._closed_forms(kind, mp.mpf(mu), *exact)[:2]
        want = max(0, (r_hh - 2 * r_hv) / (r_hh + r_hv))
        assert abs(got - want) <= 1e-15, (got, want)


def test_the_concurrence_objective_grades_tiny_arms_as_their_normal_twins():
    # every rate has degree one in each arm, so C scales each arm's (alpha,
    # dark) by the power of two that brings it into [0.5, 1]: no bit of a
    # normal row moves, and arms whose rates would underflow grade as well
    def scan(kind, *arms):
        dets = [DetectorModel(*(math.ldexp(x, shift) for x in arm)) for arm, shift in arms]
        return metrics._objective_fn(kind, *dets, Objective.MAX_CONCURRENCE)([1e-3, 0.3, 1.0])

    for kind in ENTANGLED:
        normal = scan(kind, ((0.3, 1e-4), 0), ((0.2, 0.0), 0))
        assert 0 < min(normal) and max(normal) < 1
        assert scan(kind, ((0.3, 1e-4), -1000), ((0.2, 0.0), -60)) == normal


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(ENTANGLED),
    dets=st.tuples(_log_uniform(-3.0, 0.0), _log_uniform(-3.0, 0.0), _log_uniform(-7.0, -1.0),
                   _log_uniform(-7.0, -1.0)),
    below=st.floats(0.0, 2.0),
    above=st.floats(1e-3, 2.0),
    samples=st.integers(3, 65),
)
def test_visibility_and_concurrence_peak_at_one_mu(kind, dets, below, above, samples):
    # brackets about the dark-limited scale 2 sqrt(d_s d_i / (a_s a_i)), which
    # hold most optima inside.  C = max(0, (3 V - 1) / 2) rises with V: where
    # both profiles are certified, both optima are the one mu
    scale = 2 * math.sqrt(dets[2] * dets[3] / (dets[0] * dets[1]))
    mu_range = (scale * 10.0 ** -below, scale * 10.0 ** above)
    v, c = (_check_search(kind, dets, objective, mu_range, samples)
            for objective in (Objective.MAX_VISIBILITY, Objective.MAX_CONCURRENCE))
    if v.unimodal and c.unimodal:
        assert v.mu == c.mu


def test_the_indistinguishable_optimum_of_equal_arms():
    # 2 d / (alpha - 2 d) for both objectives, which a search to a tolerance
    # put 1e-7 apart
    a, d = 0.1, 1e-5
    for objective in (Objective.MAX_VISIBILITY, Objective.MAX_CONCURRENCE):
        res = optimize_mu(SourceKind.INDIS_ENTANGLED, a, a, d, d, objective, (1e-5, 1.0))
        assert res.unimodal
        assert res.mu == pytest.approx(2 * d / (a - 2 * d), rel=1e-14)


def test_samples_above_the_sweep_bound_are_refused_before_any_grid(monkeypatch):
    class Built(Exception):
        pass

    def refuse(*args):
        raise Built

    monkeypatch.setattr(metrics, "_mu_grid", refuse)
    assert cli._SWEEP_MAX is _SWEEP_MAX == 100_000
    with pytest.raises(ValueError, match=r"^samples must be <= 100000, got 100001$"):
        optimize_mu(SourceKind.DIS_ENTANGLED, 0.1, 0.1, 0.0, 0.0, Objective.MAX_CONCURRENCE,
                    (1e-3, 1.0), _SWEEP_MAX + 1)
    # the bound itself is taken: the grid is the next step
    with pytest.raises(Built):
        optimize_mu(SourceKind.DIS_ENTANGLED, 0.1, 0.1, 0.0, 0.0, Objective.MAX_CONCURRENCE,
                    (1e-3, 1.0), _SWEEP_MAX)


def _record_mus(monkeypatch) -> list:
    """Every mu at which optimize_mu evaluates the objective, in order."""
    mus = []
    real = polarization._closed_forms

    def recorded(kind, mu, *arms):
        mus.append(mu)
        return real(kind, mu, *arms)

    # every objective reads the closed forms through metrics
    monkeypatch.setattr(metrics, "_closed_forms", recorded)
    return mus


@pytest.mark.parametrize(("kind", "dets", "objective", "mu_range", "samples", "extra"), [
    (SourceKind.DIS_ENTANGLED, (0.1, 0.2, 0.0, 0.0), Objective.MAX_CONCURRENCE, (1e-3, 1.0), 40,
     0),
    (SourceKind.INDIS_ENTANGLED, (0.01, 0.01, 0.0, 0.0), Objective.MAX_VISIBILITY, (1e-3, 1.0), 9,
     0),
    (SourceKind.DIS_ENTANGLED, (0.01, 0.01, 1e-5, 1e-5),
     Objective.MAX_COINCIDENCE_TIMES_VISIBILITY, (1e-4, 10.0), 65, 0),
    (SourceKind.INDIS_ENTANGLED, (0.1, 0.1, 1e-5, 1e-5), Objective.MAX_CONCURRENCE, (1e-4, 1.0),
     65, 1),
    (SourceKind.DIS_ENTANGLED, (0.01, 0.01, 1e-5, 1e-5), Objective.MAX_VISIBILITY, (1e-5, 1.0), 9,
     1),
])
def test_an_end_optimum_costs_the_scan_and_an_inner_one_one_value_more(
        monkeypatch, kind, dets, objective, mu_range, samples, extra):
    mus = _record_mus(monkeypatch)
    res = optimize_mu(kind, *dets, objective, mu_range, samples)
    assert res.unimodal and (res.mu in mu_range) == (extra == 0)
    assert len(mus) == samples + extra
    assert mus[samples:] == [res.mu] * extra


def test_an_endpoint_peak_with_the_optimum_just_inside_returns_that_optimum():
    # the 3-sample scan peaks at lo, but V peaks at 2 d / alpha = 2e-3 just
    # above it
    a, d, lo = 0.01, 1e-5, 1.9e-3
    res = optimize_mu(SourceKind.DIS_ENTANGLED, a, a, d, d, Objective.MAX_VISIBILITY,
                      (lo, 1.0), 3)
    assert res.unimodal
    assert res.mu > lo
    assert res.mu == pytest.approx(2 * d / a, rel=1e-14)


@pytest.mark.parametrize("objective", list(Objective))
@pytest.mark.parametrize(("kind", "mu_range"), [
    # at the closed forms' bound, past which an objective raises CapExceeded
    (SourceKind.INDIS_ENTANGLED, (1e150 * (1 - 1e-9), 1e150)),
    (SourceKind.DIS_ENTANGLED, (1.0, 1.0 + 1e-9)),
])
def test_no_objective_is_read_outside_a_narrow_bracket(monkeypatch, objective, kind, mu_range):
    # each bracket is 1e-9 wide in log(mu): the optimum is clamped to it, so
    # neither it nor a sample reads the objective outside
    mus = _record_mus(monkeypatch)
    res = optimize_mu(kind, 0.3, 0.2, 1e-3, 1e-2, objective, mu_range, 5)
    assert mu_range[0] <= res.mu <= mu_range[1]
    assert all(mu_range[0] <= mu <= mu_range[1] for mu in mus)


@pytest.mark.parametrize(("dets", "objective", "mu_range"), [
    # V does not depend on mu at alpha_i = 1 and dark_i = 0; the last sample
    # is the peak by one rounding
    ((1e-3, 1.0, 1e-3, 0.0), Objective.MAX_VISIBILITY, (1.0, 52.60644696797855)),
    # the state is separable: V is 1/3 to rounding, so C is exactly 0 and
    # the first sample is the peak
    ((0.01, 1.0, 0.01, 0.0), Objective.MAX_CONCURRENCE, (1.0, 10.0)),
])
def test_a_profile_flat_to_rounding_returns_its_peak_sample_unconfirmed(monkeypatch, dets,
                                                                        objective, mu_range):
    # a flat scan has no optimum to find: the peak sample comes back with
    # unimodal False, and nothing more is evaluated
    kind, samples = SourceKind.INDIS_ENTANGLED, 3
    grid, ys, peak, _ = _scan(kind, dets, objective, mu_range, samples)
    mus = _record_mus(monkeypatch)
    res = optimize_mu(kind, *dets, objective, mu_range, samples)
    assert res == MuOptimum(grid[peak], ys[peak], False)
    assert not res.unimodal
    assert res.mu == (mu_range[1] if objective is Objective.MAX_VISIBILITY else mu_range[0])
    assert len(mus) == samples
