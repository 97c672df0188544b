"""Visibility, contrast, CAR, and mean-pair-number optimization."""

import math

import pytest

from biphoton import (
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
    series_rate,
    single_rate,
    timebin_rate,
    visibility_approx,
    visibility_exact,
)

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
        assert res.method is RateMethod.CLOSED_FORM


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
    assert res.method is RateMethod.EXACT_SERIES
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
    with pytest.raises(ValueError):
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
        assert series_rate(src, Setting.SINGLE_S, det_s, det_i, policy) == single_rate(
            src, det_s, policy
        )
        assert series_rate(src, Setting.SINGLE_I, det_s, det_i, policy) == single_rate(
            src, det_i, policy
        )
        for setting in (Setting.HH, Setting.HV, Setting.HPLUS):
            if kind.correlated and setting is Setting.HPLUS:
                with pytest.raises(UnsupportedSetting):
                    series_rate(src, setting, det_s, det_i, policy)
                continue
            for model in HplusModel:
                want = coincidence_rate(src, setting, det_s, det_i, policy, model).value
                assert series_rate(src, setting, det_s, det_i, policy, model) == want
        cars = (Setting.CAR_MATCHED, Setting.CAR_UNMATCHED)
        if kind.entangled:
            for setting in cars:
                with pytest.raises(UnsupportedSetting):
                    series_rate(src, setting, det_s, det_i, policy)
            continue
        res = car(src, 0.3, 0.6, 1e-3, 2e-3, policy)
        assert series_rate(src, cars[0], det_s, det_i, policy) == res.matched_rate
        assert series_rate(src, cars[1], det_s, det_i, policy) == res.unmatched_rate


def test_optimize_returns_lower_endpoint_without_darks():
    for kind in ENTANGLED:
        res = optimize_mu(kind, 0.01, 0.01, 0.0, 0.0, Objective.MAX_VISIBILITY, (1e-3, 1.0))
        assert res.mu == 1e-3
        assert res.unimodal
        assert res.objective is Objective.MAX_VISIBILITY


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
        (1e-4, 1.0), samples=17, rel_tol=1e-4,
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
