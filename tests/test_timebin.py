"""Time-bin rates: correspondence with the polarization model under
halved efficiency, closed forms, and the single-pair fringe."""

import math

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
    TimebinPort,
    TruncationPolicy,
    UnsupportedSetting,
    closed_form_rates,
    coincidence_rate,
    fringe_per_pair,
    series_rate,
    timebin_rate,
)

ENTANGLED = (SourceKind.DIS_ENTANGLED, SourceKind.INDIS_ENTANGLED)
PORT_TO_SETTING = {
    TimebinPort.AA: Setting.HH,
    TimebinPort.AB: Setting.HV,
    TimebinPort.APLUS: Setting.HPLUS,
}
PORT_TO_TIMEBIN = {
    TimebinPort.AA: Setting.TIMEBIN_AA,
    TimebinPort.AB: Setting.TIMEBIN_AB,
    TimebinPort.APLUS: Setting.TIMEBIN_APLUS,
}
unit = st.floats(0.0, 1.0)
darks = st.tuples(st.floats(0.0, 1e-2), st.floats(0.0, 1e-2))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(ENTANGLED),
    port=st.sampled_from(TimebinPort),
    mu=st.floats(0.0, 1e3),
    alphas=st.tuples(unit, unit),
    darks=darks,
)
def test_closed_forms_equal_half_efficiency_polarization(kind, port, mu, alphas, darks):
    # bit-for-bit: halving the efficiencies only rescales by powers of two
    rep = closed_form_rates(kind, mu, alphas[0] / 2, alphas[1] / 2, *darks)
    want = {
        TimebinPort.AA: rep.r_hh,
        TimebinPort.AB: rep.r_hv,
        TimebinPort.APLUS: rep.r_hplus,
    }[port]
    got = timebin_rate(kind, port, mu, *alphas, *darks, RateMethod.CLOSED_FORM)
    assert got.value == want
    assert got.setting is PORT_TO_SETTING[port]
    assert got.method is RateMethod.CLOSED_FORM


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(ENTANGLED),
    port=st.sampled_from(TimebinPort),
    mu=st.floats(0.0, 2.0),
    alphas=st.tuples(unit, unit),
    darks=darks,
    model=st.sampled_from(HplusModel),
)
def test_series_rate_of_a_timebin_setting_is_its_half_efficiency_twin(
    kind, port, mu, alphas, darks, model
):
    src = PairSource(kind, mu)
    policy = TruncationPolicy()
    det_s, det_i = DetectorModel(alphas[0], darks[0]), DetectorModel(alphas[1], darks[1])
    got = series_rate(src, PORT_TO_TIMEBIN[port], det_s, det_i, policy, model)
    entry = timebin_rate(kind, port, mu, *alphas, *darks, policy=policy, hplus_model=model)
    twin = coincidence_rate(
        src, PORT_TO_SETTING[port], DetectorModel(alphas[0] / 2, darks[0]),
        DetectorModel(alphas[1] / 2, darks[1]), policy, model,
    )
    assert got == entry.value == twin.value
    assert entry.setting is PORT_TO_SETTING[port]


def test_closed_form_spot_formulas():
    mu, a_s, a_i = 0.4, 0.2, 0.3
    got = timebin_rate(
        SourceKind.INDIS_ENTANGLED, TimebinPort.AA, mu, a_s, a_i,
        method=RateMethod.CLOSED_FORM,
    )
    assert got.value == pytest.approx(a_s * a_i * (mu * mu / 8 + mu / 8), rel=1e-15)
    got = timebin_rate(
        SourceKind.DIS_ENTANGLED, TimebinPort.AB, mu, a_s, a_i,
        method=RateMethod.CLOSED_FORM,
    )
    assert got.value == pytest.approx((mu * a_s / 4) * (mu * a_i / 4), rel=1e-15)
    got = timebin_rate(
        SourceKind.DIS_ENTANGLED, TimebinPort.APLUS, mu, a_s, a_i,
        method=RateMethod.CLOSED_FORM,
    )
    assert got.value == pytest.approx(
        mu * a_s * a_i / 16 + (mu * a_s / 4) * (mu * a_i / 4), rel=1e-15
    )


def test_series_equals_half_efficiency_polarization_series():
    policy = TruncationPolicy()
    for kind in ENTANGLED:
        src = PairSource(kind, 0.3)
        for port, setting in PORT_TO_SETTING.items():
            got = timebin_rate(kind, port, 0.3, 0.4, 0.25, 1e-4, 2e-4, policy=policy)
            want = coincidence_rate(
                src, setting, DetectorModel(0.2, 1e-4), DetectorModel(0.125, 2e-4), policy
            )
            assert got.value == want.value
            assert got.method is RateMethod.EXACT_SERIES
    got = timebin_rate(
        SourceKind.INDIS_ENTANGLED, TimebinPort.APLUS, 0.3, 0.4, 0.4,
        hplus_model=HplusModel.INDEPENDENT,
    )
    want = coincidence_rate(
        PairSource(SourceKind.INDIS_ENTANGLED, 0.3), Setting.HPLUS,
        DetectorModel(0.2), DetectorModel(0.2), TruncationPolicy(),
        HplusModel.INDEPENDENT,
    )
    assert got.value == want.value
    assert got.hplus_model is HplusModel.INDEPENDENT


def test_series_converges_to_closed_forms():
    a = 1e-3
    for kind in ENTANGLED:
        for port in TimebinPort:
            for mu in (0.05, 0.3):
                exact = timebin_rate(kind, port, mu, a, a).value
                closed = timebin_rate(
                    kind, port, mu, a, a, method=RateMethod.CLOSED_FORM
                ).value
                assert abs(exact - closed) / closed <= 10 * a, (kind, port, mu)


def test_same_slot_rate_is_quarter_of_polarization():
    # alpha -> alpha/2 on both arms costs a factor 4 on the pair term
    for kind in ENTANGLED:
        aa = timebin_rate(kind, TimebinPort.AA, 0.1, 0.01, 0.01).value
        hh = coincidence_rate(
            PairSource(kind, 0.1), Setting.HH,
            DetectorModel(0.01), DetectorModel(0.01), TruncationPolicy(),
        ).value
        assert aa == pytest.approx(hh / 4, rel=0.05)


def test_timebin_setting_wrapper_and_validation():
    with pytest.raises(UnsupportedSetting):
        timebin_rate(SourceKind.THERMAL_CORRELATED, TimebinPort.AA, 0.2, 0.1, 0.1)
    with pytest.raises(ValueError):
        timebin_rate(
            SourceKind.DIS_ENTANGLED, TimebinPort.AA, 0.2, 0.1, 0.1,
            method="oracle",
        )
    # efficiencies are checked before they are halved, in both methods
    for method in RateMethod:
        for alphas in ((1.5, 0.1), (0.1, 1.5), (-0.1, 0.1), (0.1, math.nan)):
            with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\]"):
                timebin_rate(SourceKind.DIS_ENTANGLED, TimebinPort.AA, 0.1, *alphas,
                             method=method)
        with pytest.raises(ValueError, match=r"dark must lie in \[0, 1\)"):
            timebin_rate(SourceKind.INDIS_ENTANGLED, TimebinPort.AB, 0.1, 0.1, 0.1,
                         dark_i=1.0, method=method)


def test_fringe_shape():
    assert fringe_per_pair(0.0) == 0.125
    assert fringe_per_pair(math.pi) == 0.0
    assert fringe_per_pair(math.pi / 2) == pytest.approx(1 / 16, abs=1e-16)
    for phase in (0.0, 0.4, 1.3, 2.9):
        assert fringe_per_pair(phase + 2 * math.pi) == pytest.approx(
            fringe_per_pair(phase), abs=1e-12
        )
        assert fringe_per_pair(-phase) == fringe_per_pair(phase)
        assert fringe_per_pair(0.0) >= fringe_per_pair(phase)
