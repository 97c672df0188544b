"""Enumeration and Monte-Carlo oracles versus the analytic series."""

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

import biphoton
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
    XMaxTooLarge,
    car,
    coincidence_rate,
    enumerate_rate,
    ladder_plus_distribution,
    mc_rate,
    plus_port_distribution,
    pmf_values,
    sample_patterns,
    single_rate,
    timebin_rate,
)
from biphoton.detection import click_prob
from biphoton.oracle import _draw_pairs

ENTANGLED = (SourceKind.DIS_ENTANGLED, SourceKind.INDIS_ENTANGLED)
CORRELATED = (SourceKind.DIS_CORRELATED, SourceKind.THERMAL_CORRELATED)

COINCIDENCE = (Setting.HH, Setting.HV, Setting.HPLUS)
TIMEBIN = {
    Setting.TIMEBIN_AA: TimebinPort.AA,
    Setting.TIMEBIN_AB: TimebinPort.AB,
    Setting.TIMEBIN_APLUS: TimebinPort.APLUS,
}


def test_ladder_distribution_properties():
    for x in range(9):
        for k in range(x + 1):
            w = ladder_plus_distribution(x, k)
            assert len(w) == x + 1
            assert all(v >= 0.0 for v in w)
            assert math.fsum(w) == pytest.approx(1.0, abs=1e-12)
    # one H and one V photon bunch: never exactly one photon in the + port
    assert ladder_plus_distribution(2, 1) == pytest.approx((0.5, 0.0, 0.5), abs=1e-12)
    # two same-mode photons split like independent coins
    assert ladder_plus_distribution(2, 0) == pytest.approx((0.25, 0.5, 0.25), abs=1e-12)
    with pytest.raises(ValueError):
        ladder_plus_distribution(2, 3)


def test_ladder_matches_generating_function_table():
    # operator ladder vs polynomial coefficients: independent derivations
    for x in range(11):
        table = plus_port_distribution(x)
        for k in range(x + 1):
            got = ladder_plus_distribution(x, k)
            assert got == pytest.approx(table[k], abs=1e-12), (x, k)


def _single_chain_ladder(x, k):
    """The +/- law as first written: one chain of creation operators,
    normalised by (x-k)! k! at the end; accurate to ~1e-13 up to x = 30."""
    amps = [1.0]
    total = 0
    for sign, count in ((1.0, x - k), (-1.0, k)):
        for _ in range(count):
            nxt = [0.0] * (total + 2)
            for p, a in enumerate(amps):
                nxt[p + 1] += a * math.sqrt(p + 1) / math.sqrt(2.0)
                nxt[p] += sign * a * math.sqrt(total + 1 - p) / math.sqrt(2.0)
            amps = nxt
            total += 1
    norm = math.factorial(x - k) * math.factorial(k)
    return [a * a / norm for a in amps]


def _exact_ladder(x, k):
    """|<p+, (x-p)- | (x-k)H, kV>|^2 from the Krawtchouk sum, in rationals."""
    out = []
    for p in range(x + 1):
        s = sum((-1) ** j * math.comb(k, j) * math.comb(x - k, p - j)
                for j in range(max(0, p - x + k), min(k, p) + 1))
        out.append(float(Fraction(s * s * math.factorial(p) * math.factorial(x - p),
                                  math.factorial(x - k) * math.factorial(k) << x)))
    return out


def test_ladder_matches_single_chain_and_exact_laws():
    for x in range(31):
        for k in range(x + 1):
            got = ladder_plus_distribution(x, k)
            assert got == pytest.approx(_single_chain_ladder(x, k), abs=1e-12), (x, k)
    for x in range(31, 41):
        for k in range(x + 1):
            assert ladder_plus_distribution(x, k) == pytest.approx(
                _exact_ladder(x, k), abs=1e-12), (x, k)


def test_ladder_is_finite_and_exact_at_large_x():
    # the single chain overflows a float from x = 171 on
    for x, k in ((171, 85), (300, 150), (300, 7)):
        w = ladder_plus_distribution(x, k)
        assert all(math.isfinite(v) and v >= 0.0 for v in w)
        assert abs(math.fsum(w) - 1.0) <= 1e-12
        assert w == pytest.approx(_exact_ladder(x, k), abs=1e-12), (x, k)
    assert ladder_plus_distribution.cache_info().maxsize is not None


def test_enumeration_matches_series_hard_corner():
    # large efficiency and dark rate, moderate mu: every correction active
    mu, alpha, dark = 0.2, 0.5, 1e-3
    det_s = DetectorModel(alpha, dark)
    det_i = DetectorModel(alpha, dark)
    policy = TruncationPolicy()
    for kind in ENTANGLED:
        src = PairSource(kind, mu)
        for setting in COINCIDENCE:
            for model in HplusModel:
                got = enumerate_rate(src, setting, det_s, det_i, 14, model)
                want = coincidence_rate(src, setting, det_s, det_i, policy, model).value
                assert abs(got.value - want) <= 1e-9 + got.tail_bound, (kind, setting)
        for setting, det in (
            (Setting.SINGLE_S, det_s),
            (Setting.SINGLE_I, det_i),
        ):
            got = enumerate_rate(src, setting, det_s, det_i, 14)
            assert abs(got.value - single_rate(src, det, policy)) <= 1e-9 + got.tail_bound
        for setting, port in TIMEBIN.items():
            got = enumerate_rate(src, setting, det_s, det_i, 14)
            want = timebin_rate(kind, port, mu, alpha, alpha, dark, dark, policy=policy)
            assert abs(got.value - want.value) <= 1e-9 + got.tail_bound, (kind, setting)
    for kind in CORRELATED:
        src = PairSource(kind, mu)
        res = car(src, alpha, alpha, dark, dark, policy)
        got = enumerate_rate(src, Setting.CAR_MATCHED, det_s, det_i, 14)
        assert abs(got.value - res.matched_rate) <= 1e-9 + got.tail_bound
        got = enumerate_rate(src, Setting.CAR_UNMATCHED, det_s, det_i, 14)
        assert abs(got.value - res.unmatched_rate) <= 1e-9 + got.tail_bound
        got = enumerate_rate(src, Setting.SINGLE_S, det_s, det_i, 14)
        assert abs(got.value - single_rate(src, det_s, policy)) <= 1e-9 + got.tail_bound


def _bitmask_per_x(kind, setting, x, det_s, det_i, model):
    """Reference click probability of x pairs, one generation pattern at a time.

    Distinguishable pairs walk all 2^x bitmasks of VV pairs, each with
    weight 2^-x; indistinguishable pairs take the x+1 collapsed indices,
    each with weight 1/(x+1); correlated pairs have the all-H mask.  The
    idler's fair-coin +/- routing is walked over bitmasks too; coherent
    indistinguishable pairs take the exact integer law of
    plus_port_distribution instead.
    """
    qs = lambda n: click_prob(det_s, n)
    qi = lambda n: click_prob(det_i, n)
    if kind is SourceKind.DIS_ENTANGLED:
        patterns = [(mask.bit_count(), 2.0**-x) for mask in range(1 << x)]
    elif kind is SourceKind.INDIS_ENTANGLED:
        patterns = [(k, 1.0 / (x + 1)) for k in range(x + 1)]
    else:
        patterns = [(0, 1.0)]
    coin_plus = math.fsum(qi(mask.bit_count()) for mask in range(1 << x)) / 2**x
    terms = []
    for v, weight in patterns:
        h = x - v
        if setting in (Setting.HH, Setting.CAR_MATCHED):
            t = qs(h) * qi(h)
        elif setting is Setting.HV:
            t = qs(h) * qi(v)
        elif setting is Setting.SINGLE_S:
            t = qs(h)
        elif setting is Setting.SINGLE_I:
            t = qi(h)
        elif kind is SourceKind.INDIS_ENTANGLED and model is HplusModel.COHERENT:
            w = plus_port_distribution(x)[v]
            t = qs(h) * math.fsum(w[p] * qi(p) for p in range(x + 1))
        else:
            t = qs(h) * coin_plus
        terms.append(weight * t)
    return math.fsum(terms)


def _supported_settings():
    det = DetectorModel(0.5)
    for kind in SourceKind:
        for setting in Setting:
            try:
                setting.resolve(kind, det, det)
            except UnsupportedSetting:
                continue
            yield kind, setting


@pytest.mark.parametrize(("kind", "setting"), list(_supported_settings()))
def test_enumeration_matches_a_bitmask_pattern_walk(kind, setting):
    det_s = DetectorModel(0.6, 1e-3)
    det_i = DetectorModel(0.3)
    s, ds, di = setting.resolve(kind, det_s, det_i)
    for mu in (0.2, 1.5):
        source = PairSource(kind, mu)
        for x_max in (0, 1, 4, 10):
            weights = pmf_values(source, x_max)
            for model in HplusModel:
                if s is Setting.CAR_UNMATCHED:
                    a = math.fsum(w * _bitmask_per_x(kind, Setting.SINGLE_S, x, ds, di, model)
                                  for x, w in enumerate(weights))
                    b = math.fsum(w * _bitmask_per_x(kind, Setting.SINGLE_I, x, ds, di, model)
                                  for x, w in enumerate(weights))
                    want = a * b
                else:
                    want = math.fsum(w * _bitmask_per_x(kind, s, x, ds, di, model)
                                     for x, w in enumerate(weights))
                got = enumerate_rate(source, setting, det_s, det_i, x_max, model).value
                assert abs(got - want) <= 1e-15, (mu, x_max, model, got - want)


def test_enumeration_small_cutoffs():
    det = DetectorModel(0.3)
    # a crossed-basis coincidence needs at least two pairs
    got = enumerate_rate(PairSource(SourceKind.DIS_ENTANGLED, 0.1),
                         Setting.HV, det, det, 1)
    assert got.value == 0.0
    assert got.tail_bound > 0.0
    assert got.x_max == 1
    got = enumerate_rate(PairSource(SourceKind.DIS_ENTANGLED, 0.0),
                         Setting.HH, det, det, 0)
    assert got.value == 0.0
    assert got.tail_bound == 0.0


def test_enumeration_indis_tight_match():
    src = PairSource(SourceKind.INDIS_ENTANGLED, 0.1)
    det = DetectorModel(0.1)
    got = enumerate_rate(src, Setting.HH, det, det, 12)
    want = coincidence_rate(src, Setting.HH, det, det, TruncationPolicy()).value
    assert abs(got.value - want) <= 1e-10 + got.tail_bound


def test_enumeration_tail_bound_is_honest():
    tight = TruncationPolicy(tail_epsilon=1e-14)
    src = PairSource(SourceKind.THERMAL_CORRELATED, 0.5)
    det = DetectorModel(0.3)
    res = car(src, 0.3, 0.3, 0, 0, tight)
    for x_max in (2, 4, 6):
        got = enumerate_rate(src, Setting.CAR_MATCHED, det, det, x_max)
        assert abs(got.value - res.matched_rate) <= got.tail_bound
        got = enumerate_rate(src, Setting.CAR_UNMATCHED, det, det, x_max)
        assert abs(got.value - res.unmatched_rate) <= got.tail_bound
    src = PairSource(SourceKind.DIS_ENTANGLED, 0.5)
    det = DetectorModel(0.5)
    want = coincidence_rate(src, Setting.HH, det, det, tight).value
    got = enumerate_rate(src, Setting.HH, det, det, 3)
    assert abs(got.value - want) <= got.tail_bound


def test_oracle_setting_is_the_one_setting_enum():
    assert biphoton.OracleSetting is biphoton.Setting
    assert "OracleSetting" not in biphoton.__all__


def test_enumeration_validation():
    det = DetectorModel(0.1)
    src = PairSource(SourceKind.DIS_ENTANGLED, 0.1)
    with pytest.raises(XMaxTooLarge):
        enumerate_rate(src, Setting.HH, det, det, 15)
    with pytest.raises(ValueError):
        enumerate_rate(src, Setting.HH, det, det, -1)
    with pytest.raises(UnsupportedSetting):
        enumerate_rate(src, Setting.CAR_MATCHED, det, det, 5)
    thermal = PairSource(SourceKind.THERMAL_CORRELATED, 0.1)
    with pytest.raises(UnsupportedSetting):
        enumerate_rate(thermal, Setting.HPLUS, det, det, 5)
    with pytest.raises(UnsupportedSetting):
        enumerate_rate(thermal, Setting.TIMEBIN_AA, det, det, 5)


def test_timebin_enumeration_is_half_efficiency_remap():
    src = PairSource(SourceKind.INDIS_ENTANGLED, 0.3)
    got = enumerate_rate(
        src, Setting.TIMEBIN_APLUS, DetectorModel(0.3, 1e-4), DetectorModel(0.5), 10
    )
    want = enumerate_rate(
        src, Setting.HPLUS, DetectorModel(0.15, 1e-4), DetectorModel(0.25), 10
    )
    assert got.value == want.value
    assert got.tail_bound == want.tail_bound


def test_mc_is_reproducible_bit_for_bit():
    src = PairSource(SourceKind.DIS_ENTANGLED, 0.1)
    det = DetectorModel(0.1, 1e-4)
    # 1.5e6 trials exercises the two-block path
    a = mc_rate(src, Setting.HH, det, det, 1_500_000, seed=42)
    b = mc_rate(src, Setting.HH, det, det, 1_500_000, seed=42)
    assert a.mean == b.mean
    assert a.std_error == b.std_error
    assert a.trials == 1_500_000
    assert a.seed == 42
    c = mc_rate(src, Setting.HH, det, det, 1_500_000, seed=43)
    assert c.mean != a.mean


def test_mc_agrees_with_series():
    src = PairSource(SourceKind.DIS_ENTANGLED, 0.1)
    det = DetectorModel(0.1)
    est = mc_rate(src, Setting.HH, det, det, 200_000, seed=7)
    want = coincidence_rate(src, Setting.HH, det, det, TruncationPolicy()).value
    se = max(est.std_error, math.sqrt(want * (1.0 - want) / est.trials))
    assert abs(est.mean - want) / se <= 4.0


def test_mc_zero_pairs_click_nothing():
    src = PairSource(SourceKind.INDIS_ENTANGLED, 0.0)
    det = DetectorModel(0.5)
    est = mc_rate(src, Setting.HH, det, det, 1000, seed=1)
    assert est.mean == 0.0
    assert est.std_error == 0.0


def test_mc_reproduces_thermal_car():
    src = PairSource(SourceKind.THERMAL_CORRELATED, 0.1)
    det = DetectorModel(0.1)
    trials = 4_000_000
    m = mc_rate(src, Setting.CAR_MATCHED, det, det, trials, seed=1)
    u = mc_rate(src, Setting.CAR_UNMATCHED, det, det, trials, seed=2)
    ratio = m.mean / u.mean
    sigma = ratio * math.hypot(m.std_error / m.mean, u.std_error / u.mean)
    want = car(src, 0.1, 0.1).car
    assert want == pytest.approx(11.794896956661667, rel=1e-12)
    assert abs(ratio - want) <= 4.0 * sigma


def test_mc_validation():
    det = DetectorModel(0.1)
    src = PairSource(SourceKind.DIS_ENTANGLED, 0.1)
    with pytest.raises(ValueError):
        mc_rate(src, Setting.HH, det, det, 0, seed=1)
    with pytest.raises(UnsupportedSetting):
        mc_rate(src, Setting.CAR_MATCHED, det, det, 100, seed=1)
    with pytest.raises(UnsupportedSetting):
        mc_rate(src, Setting.CAR_UNMATCHED, det, det, 100, seed=1)
    thermal = PairSource(SourceKind.THERMAL_CORRELATED, 0.1)
    with pytest.raises(UnsupportedSetting):
        mc_rate(thermal, Setting.HPLUS, det, det, 100, seed=1)
    with pytest.raises(UnsupportedSetting):
        mc_rate(thermal, Setting.TIMEBIN_AA, det, det, 100, seed=1)


def test_mc_coherent_hplus_caps_the_pair_number():
    det = DetectorModel(0.1)
    src = PairSource(SourceKind.INDIS_ENTANGLED, 200.0)
    with pytest.raises(XMaxTooLarge, match=r"mu=200\b.*HplusModel\.INDEPENDENT"):
        mc_rate(src, Setting.HPLUS, det, det, 1000, seed=1)
    est = mc_rate(src, Setting.HPLUS, det, det, 1000, seed=1, hplus_model=HplusModel.INDEPENDENT)
    assert 0.0 < est.mean < 1.0


@pytest.mark.parametrize("kind", list(SourceKind))
@pytest.mark.parametrize("mu", [0.05, 0.7, 3.0])
def test_pair_sampler_matches_pmf(kind, mu):
    n = 200_000
    src = PairSource(kind, mu)
    x = _draw_pairs(np.random.Generator(np.random.PCG64(2024)), src, n)
    assert x.size == 0 or x.min() >= 1
    observed = np.bincount(x, minlength=2)
    observed[0] = n - x.size
    expected = n * np.array(pmf_values(src, observed.size + 60))
    top = int(np.flatnonzero(expected >= 5.0).max())  # pool the sparse tail
    obs = np.append(observed[: top + 1], observed[top + 1 :].sum())
    exp = np.append(expected[: top + 1], n - expected[: top + 1].sum())
    assert stats.chisquare(obs, exp).pvalue > 1e-3


CAR = (Setting.CAR_MATCHED, Setting.CAR_UNMATCHED)
SUPPORTED = [(kind, s) for kind in ENTANGLED for s in Setting if s not in CAR] + [
    (kind, s)
    for kind in CORRELATED
    for s in (Setting.HH, Setting.HV, Setting.SINGLE_S,
              Setting.SINGLE_I, *CAR)
]


# test ids keep the settings' earlier class name, OracleSetting (now an
# alias of Setting), so each case keeps its id across the merge
@pytest.mark.parametrize(
    "kind, setting", SUPPORTED, ids=[f"{k}-OracleSetting.{s.name}" for k, s in SUPPORTED]
)
@settings(max_examples=5, deadline=None, derandomize=True)
@given(
    mu=st.floats(0.01, 0.3),
    alphas=st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 1.0)),
    darks=st.tuples(st.floats(0.0, 1e-2), st.floats(0.0, 1e-2)),
    model=st.sampled_from(HplusModel),
    seed=st.integers(0, 2**32 - 1),
)
def test_mc_agrees_with_enumeration(kind, setting, mu, alphas, darks, model, seed):
    src = PairSource(kind, mu)
    det_s = DetectorModel(alphas[0], darks[0])
    det_i = DetectorModel(alphas[1], darks[1])
    ref = enumerate_rate(src, setting, det_s, det_i, 14, model)
    assume(ref.tail_bound <= 1e-9)
    est = mc_rate(src, setting, det_s, det_i, 300_000, seed, model)
    se = max(est.std_error, math.sqrt(ref.value * (1.0 - ref.value) / est.trials))
    assert abs(est.mean - ref.value) <= 4.0 * se + ref.tail_bound


@pytest.mark.parametrize(
    "setting, mu",
    [pytest.param(Setting.HH, 50.0, id="OracleSetting.HH-50.0"),
     pytest.param(Setting.HV, 1e6, id="OracleSetting.HV-1000000.0")],
)
def test_mc_memory_is_bounded_by_the_block(setting, mu):
    # 1e6 trials: at mu = 50 they carry 5e7 pairs, 400 MB at 8 bytes a
    # pair; at mu = 1e6 a dense grid of (H, V) photon classes would take
    # about 400 MB.  The block's own arrays take 50-80 bytes per trial.
    src = PairSource(SourceKind.DIS_ENTANGLED, mu)
    det = DetectorModel(0.001)
    tracemalloc.start()
    try:
        est = mc_rate(src, setting, det, det, 1_000_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < est.mean <= 1.0
    assert peak < 128 * 1_000_000


@pytest.mark.parametrize("kind", ENTANGLED)
def test_mc_handles_astronomical_mu(kind):
    # (H, V) photon spreads of more than 3e9 each: too many classes for
    # one flat index; every pulse clicks in both arms
    det = DetectorModel(0.1)
    est = mc_rate(PairSource(kind, 1e18), Setting.HV, det, det, 1000, seed=4)
    assert est.mean == 1.0


@pytest.mark.parametrize("kind", list(SourceKind))
@pytest.mark.parametrize("mu", [1e19, 4e18, 1e300])
def test_mc_rejects_pair_numbers_beyond_int64(kind, mu):
    # above 2^62 for every kind (numpy's Poisson stops at ~9.2e18); at
    # 4e18 the thermal and NB(2) geometrics saturate or their sums wrap
    src, det = PairSource(kind, mu), DetectorModel(0.1)
    if mu < 2.0**62 and kind.poissonian:
        assert mc_rate(src, Setting.HH, det, det, 1000, seed=4).mean == 1.0
        return
    with pytest.raises(XMaxTooLarge, match=re.escape(f"mu={mu:g}")):
        mc_rate(src, Setting.HH, det, det, 1000, seed=4)


def test_sample_patterns_match_their_laws():
    x, n = 6, 200_000
    rng = np.random.Generator(np.random.PCG64(12345))
    xs = np.full(n, x)
    pat = sample_patterns(SourceKind.DIS_ENTANGLED, xs, rng)
    assert pat.min() >= 0 and pat.max() <= x
    counts = np.bincount(pat, minlength=x + 1)
    expected = n * np.array([math.comb(x, j) for j in range(x + 1)]) / 2.0**x
    assert stats.chisquare(counts, expected).pvalue > 1e-3
    pat = sample_patterns(SourceKind.INDIS_ENTANGLED, xs, rng)
    counts = np.bincount(pat, minlength=x + 1)
    assert stats.chisquare(counts, np.full(x + 1, n / (x + 1))).pvalue > 1e-3
    pat = sample_patterns(SourceKind.THERMAL_CORRELATED, xs, rng)
    assert np.all(pat == 0)
