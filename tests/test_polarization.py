"""Polarization rates: per-pair-number kernels, series, closed forms."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton import (
    DetectorModel,
    HplusModel,
    PairSource,
    RateMethod,
    Setting,
    SourceKind,
    TruncationPolicy,
    UnsupportedSetting,
    closed_form_rates,
    coincidence_rate,
    per_x_coincidence,
    plus_port_distribution,
    single_rate,
    truncation_index,
)
from biphoton.detection import click_prob

ENTANGLED = (SourceKind.DIS_ENTANGLED, SourceKind.INDIS_ENTANGLED)
CORRELATED = (SourceKind.DIS_CORRELATED, SourceKind.THERMAL_CORRELATED)


def _brute_force_per_x(kind, setting, x, det_s, det_i):
    """Reference kernel by explicit sum over generation patterns.

    Distinguishable pairs: walk all 2^x polarization assignments one by
    one.  Indistinguishable pairs: the collapsed pattern index is
    uniform.  Exact when fed Fraction-valued detectors.
    """
    qs = lambda n: click_prob(det_s, n)
    qi = lambda n: click_prob(det_i, n)
    if kind is SourceKind.DIS_ENTANGLED:
        total = 0
        for pattern in range(2**x):
            v = bin(pattern).count("1")
            h = x - v
            total += qs(h) * (qi(h) if setting is Setting.HH else qi(v))
        return total / Fraction(2**x)
    total = 0
    for k in range(x + 1):
        h = x - k
        total += qs(h) * (qi(h) if setting is Setting.HH else qi(k))
    return total / Fraction(x + 1)


def test_per_x_single_pair_values():
    a = 0.37
    det = DetectorModel(a)
    for kind in ENTANGLED:
        assert per_x_coincidence(kind, Setting.HH, 1, det, det) == pytest.approx(
            a * a / 2, rel=1e-14
        )
        assert per_x_coincidence(kind, Setting.HV, 1, det, det) == 0.0


def test_per_x_two_pair_values():
    a = 0.37
    det = DetectorModel(a)
    q2 = 1 - (1 - a) ** 2
    got = per_x_coincidence(SourceKind.DIS_ENTANGLED, Setting.HH, 2, det, det)
    assert got == pytest.approx(q2 * q2 / 4 + a * a / 2, rel=1e-14)
    got = per_x_coincidence(SourceKind.INDIS_ENTANGLED, Setting.HH, 2, det, det)
    assert got == pytest.approx(q2 * q2 / 3 + a * a / 3, rel=1e-14)


def test_per_x_matches_pattern_enumeration_exactly():
    # rational detectors make both sides exact, so equality is bitwise
    det_s = DetectorModel(Fraction(2, 7), Fraction(1, 50))
    det_i = DetectorModel(Fraction(3, 5), Fraction(1, 200))
    for kind in ENTANGLED:
        for setting in (Setting.HH, Setting.HV):
            for x in range(13):
                got = per_x_coincidence(kind, setting, x, det_s, det_i)
                want = _brute_force_per_x(kind, setting, x, det_s, det_i)
                assert got == want, (kind, setting, x)


def test_plus_port_distribution_small_cases():
    assert plus_port_distribution(0) == ((1.0,),)
    assert plus_port_distribution(1) == ((0.5, 0.5), (0.5, 0.5))
    w = plus_port_distribution(2)
    assert w[0] == pytest.approx((0.25, 0.5, 0.25), abs=1e-15)
    # one H and one V photon bunch behind the diagonal splitter: both
    # exit the same port, the 1-1 split is forbidden
    assert w[1] == pytest.approx((0.5, 0.0, 0.5), abs=1e-15)
    assert w[2] == pytest.approx((0.25, 0.5, 0.25), abs=1e-15)


def test_plus_port_distribution_normalized_with_half_mean():
    for x in range(15):
        w = plus_port_distribution(x)
        for k in range(x + 1):
            assert math.fsum(w[k]) == pytest.approx(1.0, abs=1e-12)
            mean_p = math.fsum(p * w[k][p] for p in range(x + 1))
            assert mean_p == pytest.approx(x / 2, abs=1e-12)


def test_hplus_models_agree_at_first_order_only():
    det = DetectorModel(1e-4)
    for x in (2, 3, 5):
        coh = per_x_coincidence(
            SourceKind.INDIS_ENTANGLED, Setting.HPLUS, x, det, det, HplusModel.COHERENT
        )
        ind = per_x_coincidence(
            SourceKind.INDIS_ENTANGLED, Setting.HPLUS, x, det, det, HplusModel.INDEPENDENT
        )
        assert coh == pytest.approx(ind, rel=1e-3)
    det = DetectorModel(1.0)
    coh = per_x_coincidence(
        SourceKind.INDIS_ENTANGLED, Setting.HPLUS, 2, det, det, HplusModel.COHERENT
    )
    ind = per_x_coincidence(
        SourceKind.INDIS_ENTANGLED, Setting.HPLUS, 2, det, det, HplusModel.INDEPENDENT
    )
    # at unit efficiency the models differ: an H,V photon pair bunches
    # into ++ or --, doubling the no-click branch the independent
    # splitter would only hit a quarter of the time
    assert coh == pytest.approx(5 / 12, rel=1e-14)
    assert ind == pytest.approx(1 / 2, rel=1e-14)


def test_correlated_kind_kernels():
    det_s = DetectorModel(0.2, 1e-3)
    det_i = DetectorModel(0.4, 2e-3)
    for kind in CORRELATED:
        for x in range(6):
            hh = per_x_coincidence(kind, Setting.HH, x, det_s, det_i)
            hv = per_x_coincidence(kind, Setting.HV, x, det_s, det_i)
            assert hh == pytest.approx(
                click_prob(det_s, x) * click_prob(det_i, x), rel=1e-14
            )
            assert hv == pytest.approx(
                click_prob(det_s, x) * click_prob(det_i, 0), rel=1e-14
            )
        with pytest.raises(UnsupportedSetting, match="undefined for correlated kind"):
            per_x_coincidence(kind, Setting.HPLUS, 2, det_s, det_i)


@pytest.mark.parametrize("kind", list(SourceKind))
@pytest.mark.parametrize(
    "setting", [s for s in Setting if s not in (Setting.HH, Setting.HV, Setting.HPLUS)]
)
def test_kernels_reject_settings_without_one(kind, setting):
    det = DetectorModel(0.3, 1e-3)
    message = rf"^{setting.value} has no per-x kernel; use series_rate$"
    for x in (0, 1, 3):
        with pytest.raises(UnsupportedSetting, match=message):
            per_x_coincidence(kind, setting, x, det, det)
    with pytest.raises(UnsupportedSetting, match=message):
        coincidence_rate(PairSource(kind, 0.2), setting, det, det)


def test_closed_forms_without_darks():
    mu, a = 0.1, 0.01
    rep = closed_form_rates(SourceKind.DIS_ENTANGLED, mu, a, a)
    assert rep.r_hh == pytest.approx(a * a * (mu / 2 + mu * mu / 4), rel=1e-14)
    assert rep.r_hv == pytest.approx(a * a * mu * mu / 4, rel=1e-14)
    assert rep.r_hplus == pytest.approx(a * a * (mu / 4 + mu * mu / 4), rel=1e-14)
    rep = closed_form_rates(SourceKind.INDIS_ENTANGLED, mu, a, a)
    assert rep.r_hh == pytest.approx(a * a * (mu / 2 + mu * mu / 2), rel=1e-14)
    assert rep.r_hv == pytest.approx(a * a * mu * mu / 4, rel=1e-14)
    assert rep.r_hplus == pytest.approx(a * a * (3 * mu * mu / 8 + mu / 4), rel=1e-14)
    assert rep.single_s == pytest.approx(mu * a / 2, rel=1e-14)
    assert rep.method is RateMethod.CLOSED_FORM


def test_closed_form_with_darks_spot_value():
    # 1e-4 * 0.055 + 2 * (0.1 * 0.01 * 1e-5 / 2) + 1e-10
    rep = closed_form_rates(SourceKind.INDIS_ENTANGLED, 0.1, 0.01, 0.01, 1e-5, 1e-5)
    assert rep.r_hh == pytest.approx(5.5101e-06, rel=1e-12)
    rep = closed_form_rates(SourceKind.DIS_ENTANGLED, 0.1, 0.01, 0.01, 1e-5, 1e-5)
    acc = (0.1 * 0.01 / 2 + 1e-5) ** 2
    assert rep.r_hv == pytest.approx(acc, rel=1e-14)
    assert rep.r_hh == pytest.approx(0.1 * 1e-4 / 2 + acc, rel=1e-14)


def test_closed_form_rejects_correlated_kinds():
    for kind in CORRELATED:
        with pytest.raises(UnsupportedSetting):
            closed_form_rates(kind, 0.1, 0.1, 0.1)


def test_closed_form_rejects_unphysical_detectors():
    # the checks and messages of DetectorModel
    for kind in ENTANGLED:
        for alphas in ((-3, 0.2), (0.2, 1.5), (math.nan, 0.2)):
            with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\]"):
                closed_form_rates(kind, 0.1, *alphas)
        for darks in ((-1e-3, 0.0), (0.0, 1.0)):
            with pytest.raises(ValueError, match=r"dark must lie in \[0, 1\)"):
                closed_form_rates(kind, 0.1, 0.1, 0.1, *darks)
        assert closed_form_rates(kind, 0.1, 0.0, 1.0, 0.0, 0.5).r_hv >= 0.0


def test_series_limits():
    det = DetectorModel(0.1)
    rate = coincidence_rate(
        PairSource(SourceKind.DIS_ENTANGLED, 1e-8), Setting.HV, det, det
    )
    assert rate.value <= 1e-18
    # individual rates pick up percent-level loss corrections at this
    # efficiency, but the corrections cancel in the HH/HV ratio: the
    # single-mode visibility stays within 0.4 percent of its
    # loss-independent form even at unit efficiency
    src = PairSource(SourceKind.INDIS_ENTANGLED, 0.1)
    full = DetectorModel(1.0)
    hh = coincidence_rate(src, Setting.HH, full, full).value
    hv = coincidence_rate(src, Setting.HV, full, full).value
    v = (hh - hv) / (hh + hv)
    assert abs(v - 2.1 / 2.3) <= 0.004


def test_small_alpha_series_converges_to_closed_forms():
    a, policy = 1e-3, TruncationPolicy()
    for kind in ENTANGLED:
        for mu in (0.01, 0.1, 0.5):
            src = PairSource(kind, mu)
            det = DetectorModel(a)
            rep = closed_form_rates(kind, mu, a, a)
            closed = {
                Setting.HH: rep.r_hh,
                Setting.HV: rep.r_hv,
                Setting.HPLUS: rep.r_hplus,
            }
            for setting, want in closed.items():
                for model in HplusModel:
                    got = coincidence_rate(src, setting, det, det, policy, model).value
                    assert abs(got - want) / want <= 10 * a, (kind, setting, mu, model)
            assert abs(single_rate(src, det, policy) - rep.single_s) <= 10 * a * rep.single_s


def test_sum_identities_in_integer_arithmetic():
    # the four factorial/binomial identities behind the closed forms,
    # checked with exact rationals (reciprocal factorial of a negative
    # integer reads as zero)
    f = math.factorial
    for x in range(2, 31):
        lhs = sum(
            Fraction(x - y, f(y) * f(x - y - 1)) for y in range(x)
        )
        rhs = Fraction(2 ** (x - 1) * x, f(x - 1)) - Fraction(2 ** (x - 2), f(x - 2))
        assert lhs == rhs
        lhs = sum(
            Fraction(1, f(y - 1) * f(x - y - 1)) for y in range(1, x)
        )
        assert lhs == Fraction(2 ** (x - 2), f(x - 2))
        lhs = sum(Fraction((x - y) ** 2, x + 1) for y in range(x + 1))
        assert lhs == Fraction(x * (1 + 2 * x), 6)
        lhs = sum(Fraction((x - y) * y, x + 1) for y in range(x + 1))
        assert lhs == Fraction(x * (x - 1), 6)


def test_linearized_parallel_moment_sum():
    # sum_x sum_y 2^-x C(x,y) (x-y)^2 Poisson(mu, x) = mu/2 + mu^2/4
    for mu in (0.1, 0.5, 1.0):
        total = math.fsum(
            math.exp(-mu)
            * mu**x
            / math.factorial(x)
            * math.comb(x, y)
            * 2.0**-x
            * (x - y) ** 2
            for x in range(80)
            for y in range(x + 1)
        )
        assert total == pytest.approx(mu / 2 + mu * mu / 4, abs=1e-10)


def test_detector_swap_leaves_hh_and_hv_invariant():
    det_a = DetectorModel(0.13, 1e-4)
    det_b = DetectorModel(0.71, 2e-3)
    for kind in ENTANGLED:
        src = PairSource(kind, 0.4)
        for setting in (Setting.HH, Setting.HV):
            ab = coincidence_rate(src, setting, det_a, det_b).value
            ba = coincidence_rate(src, setting, det_b, det_a).value
            assert ab == ba, (kind, setting)


def test_single_rates():
    policy = TruncationPolicy()
    for kind in ENTANGLED:
        got = single_rate(PairSource(kind, 0.1), DetectorModel(0.01), policy)
        assert got == pytest.approx(5e-4, rel=0.01)
        assert single_rate(PairSource(kind, 0.0), DetectorModel(0.3), policy) == 0.0
    # correlated arms are detected without a polarizer
    got = single_rate(PairSource(SourceKind.DIS_CORRELATED, 0.1), DetectorModel(0.01), policy)
    assert got == pytest.approx(1e-3, rel=0.01)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(ENTANGLED),
    mu=st.floats(min_value=0.0, max_value=2.0),
    alpha_s=st.floats(min_value=0.0, max_value=1.0),
    alpha_i=st.floats(min_value=0.0, max_value=1.0),
    dark=st.floats(min_value=0.0, max_value=0.01),
)
def test_rates_are_probabilities_with_parallel_dominance(kind, mu, alpha_s, alpha_i, dark):
    src = PairSource(kind, mu)
    det_s = DetectorModel(alpha_s, dark)
    det_i = DetectorModel(alpha_i, dark)
    entry = coincidence_rate(src, Setting.HH, det_s, det_i)
    assert entry.truncation_used == truncation_index(src, TruncationPolicy())
    assert entry.hplus_model is None
    hh = entry.value
    hv = coincidence_rate(src, Setting.HV, det_s, det_i).value
    assert 0.0 <= hv <= 1.0 and 0.0 <= hh <= 1.0
    assert hh >= hv - 1e-15 * hh
