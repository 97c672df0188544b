"""Enumeration and Monte-Carlo oracles versus the analytic series."""

import math
import random
import re
import sys
import threading
import tracemalloc
from fractions import Fraction

import mpmath as mp
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
    mc_rate,
    plus_port_distribution,
    pmf_values,
    single_rate,
    timebin_rate,
    truncation_index,
)
from biphoton.detection import _click, click_prob
from biphoton.oracle import (
    HPLUS_X_CAP,
    X_MAX_LIMIT,
    _ARMS,
    _BLOCK,
    _DRAWS,
    _classes,
    _click_list,
    _coin_weights,
    _draw_pairs,
    _mc_block,
    _pair_law,
    _pattern_law,
    _per_x_probability,
    _per_x_table,
    _photon_classes,
    _tail_pairs,
    sample_patterns,
)

ENTANGLED = (SourceKind.DIS_ENTANGLED, SourceKind.INDIS_ENTANGLED)
CORRELATED = (SourceKind.DIS_CORRELATED, SourceKind.THERMAL_CORRELATED)

COINCIDENCE = (Setting.HH, Setting.HV, Setting.HPLUS)
TIMEBIN = {
    Setting.TIMEBIN_AA: TimebinPort.AA,
    Setting.TIMEBIN_AB: TimebinPort.AB,
    Setting.TIMEBIN_APLUS: TimebinPort.APLUS,
}


def _plus_law(x, k):
    """+/- basis photon-number law of the x-k H, k V idler Fock state: the
    squared ladder row k of the coherent + law, as both oracles read it."""
    return biphoton.oracle._plus_law(x, True)[k].tolist()


def test_ladder_distribution_properties():
    for x in range(9):
        assert biphoton.oracle._plus_law(x, True).shape == (x + 1, x + 1)
        for k in range(x + 1):
            w = _plus_law(x, k)
            assert all(v >= 0.0 for v in w)
            assert math.fsum(w) == pytest.approx(1.0, abs=1e-12)
    # one H and one V photon bunch: never exactly one photon in the + port
    assert _plus_law(2, 1) == pytest.approx((0.5, 0.0, 0.5), abs=1e-12)
    # two same-mode photons split like independent coins
    assert _plus_law(2, 0) == pytest.approx((0.25, 0.5, 0.25), abs=1e-12)
    # the held laws are shared, so nothing may write to them; the
    # independent law is the coin law's own immutable row
    with pytest.raises(ValueError):
        biphoton.oracle._plus_law(2, True)[0, 0] = 0.0
    (coins,) = biphoton.oracle._plus_law(2, False)
    assert coins is _coin_weights(2) and isinstance(coins, tuple)


def test_ladder_matches_generating_function_table():
    # operator ladder vs polynomial coefficients: independent derivations
    for x in range(11):
        table = plus_port_distribution(x)
        for k in range(x + 1):
            got = _plus_law(x, k)
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
            got = _plus_law(x, k)
            assert got == pytest.approx(_single_chain_ladder(x, k), abs=1e-12), (x, k)
    for x in range(31, 41):
        for k in range(x + 1):
            assert _plus_law(x, k) == pytest.approx(
                _exact_ladder(x, k), abs=1e-12), (x, k)


def test_ladder_is_finite_and_exact_at_large_x():
    # the single chain overflows a float from x = 171 on; the coherent H+
    # Monte-Carlo reads the table up to HPLUS_X_CAP = 200
    for x, k in ((171, 85), (200, 100), (200, 7)):
        w = _plus_law(x, k)
        assert all(math.isfinite(v) and v >= 0.0 for v in w)
        assert abs(math.fsum(w) - 1.0) <= 1e-12
        assert w == pytest.approx(_exact_ladder(x, k), abs=1e-12), (x, k)
    # the store is bounded: it holds x = 0..HPLUS_X_CAP, and the
    # Monte-Carlo refuses a pulse beyond the cap before it reads the law
    det = DetectorModel(0.1)
    with pytest.raises(XMaxTooLarge):
        mc_rate(PairSource(SourceKind.INDIS_ENTANGLED, 200.0), Setting.HPLUS, det, det, 1000, 1)
    assert len(biphoton.oracle._LADDER) == HPLUS_X_CAP + 1


@pytest.fixture
def fresh_ladder(monkeypatch):
    """The oracle module with an empty coherent + law, as in a new process."""
    oracle = biphoton.oracle
    monkeypatch.setattr(oracle, "_LADDER", [])
    monkeypatch.setattr(oracle, "_LADDER_WALK", oracle._ladder_walk())
    return oracle


def test_a_full_coherent_plus_law_holds_at_most_23_mb(fresh_ladder):
    # one store of squared rows and the head's amplitudes; the amplitudes
    # of every x kept beside their squares held 43.7 MB
    tracemalloc.start()
    try:
        for x in range(HPLUS_X_CAP + 1):
            fresh_ladder._plus_law(x, True)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 23e6


def test_a_falling_fill_walks_the_ladder_once(fresh_ladder, monkeypatch):
    # a store that dropped amplitudes it needs again would rebuild the
    # chain from x = 0 for each smaller x
    step, calls = fresh_ladder._ladder_step, []
    monkeypatch.setattr(fresh_ladder, "_ladder_step", lambda rows: calls.append(1) or step(rows))
    for x in range(HPLUS_X_CAP, -1, -1):
        fresh_ladder._plus_law(x, True)
    assert len(calls) == HPLUS_X_CAP


def test_the_coherent_plus_law_is_safe_to_share_between_threads(fresh_ladder):
    # eight threads fill the store at once, each in its own x order; a
    # lost or doubled append would shift every later row
    walk = fresh_ladder._ladder_walk()
    want = [next(walk) for _ in range(HPLUS_X_CAP + 1)]
    errors = []

    def worker(seed):
        order = list(range(HPLUS_X_CAP + 1))
        random.Random(seed).shuffle(order)
        for x in order:
            got = fresh_ladder._plus_law(x, True)
            if got.shape != want[x].shape or not np.array_equal(got, want[x]):
                errors.append(x)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(fresh_ladder._LADDER) == HPLUS_X_CAP + 1


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


@pytest.mark.parametrize("kind", list(SourceKind))
def test_enumeration_builds_its_click_lists_once(kind):
    # enumerate_rate builds each arm's click list once per call and hands
    # it to every x; the same sum with the lists rebuilt for each x gives
    # the same value bit for bit
    src = PairSource(kind, 0.2)
    det_s, det_i = DetectorModel(0.05, 1e-3), DetectorModel(0.5)
    weights = pmf_values(src, X_MAX_LIMIT)
    extra = Setting.HPLUS if kind.entangled else Setting.CAR_MATCHED
    for setting in (Setting.HH, Setting.HV, Setting.SINGLE_S, Setting.SINGLE_I, extra):
        for model in HplusModel:
            want = math.fsum(
                weights[x] * _per_x_probability(
                    kind, setting, x, [click_prob(det_s, n) for n in range(x + 1)],
                    [click_prob(det_i, n) for n in range(x + 1)], model)
                for x in range(X_MAX_LIMIT + 1)
            )
            got = enumerate_rate(src, setting, det_s, det_i, X_MAX_LIMIT, model).value
            assert got == want, (setting, model)
    if kind.correlated:
        a, b = (math.fsum(w * click_prob(det, x) for x, w in enumerate(weights))
                for det in (det_s, det_i))
        got = enumerate_rate(src, Setting.CAR_UNMATCHED, det_s, det_i, X_MAX_LIMIT).value
        assert got == a * b


# enumerate_rate(...).value.hex() of the H+ cells of `biphoton validate`
# (x_max = X_MAX_LIMIT, equal arms): a change in how the enumeration sums
# its terms shows here bit for bit, where tolerance checks pass it
_FROZEN_HPLUS_HEX = {
    (SourceKind.DIS_ENTANGLED, HplusModel.COHERENT, 0.05, 0.05, 0.0): "0x1.1295996bdadabp-15",
    (SourceKind.DIS_ENTANGLED, HplusModel.COHERENT, 0.05, 0.05, 0.001): "0x1.2f5c8e4692e3dp-15",
    (SourceKind.DIS_ENTANGLED, HplusModel.COHERENT, 0.05, 0.5, 0.0): "0x1.a4566ff36d53bp-9",
    (SourceKind.DIS_ENTANGLED, HplusModel.COHERENT, 0.05, 0.5, 0.001): "0x1.a6e1b1499d393p-9",
    (SourceKind.DIS_ENTANGLED, HplusModel.COHERENT, 0.2, 0.05, 0.0): "0x1.37b821b335ce2p-13",
    (SourceKind.DIS_ENTANGLED, HplusModel.COHERENT, 0.2, 0.05, 0.001): "0x1.4e176fbc6bd11p-13",
    (SourceKind.DIS_ENTANGLED, HplusModel.COHERENT, 0.2, 0.5, 0.0): "0x1.c2e36fa2c3f69p-7",
    (SourceKind.DIS_ENTANGLED, HplusModel.COHERENT, 0.2, 0.5, 0.001): "0x1.c53680615ec70p-7",
    (SourceKind.DIS_ENTANGLED, HplusModel.INDEPENDENT, 0.05, 0.05, 0.0): "0x1.1295996bdadabp-15",
    (SourceKind.DIS_ENTANGLED, HplusModel.INDEPENDENT, 0.05, 0.05, 0.001): "0x1.2f5c8e4692e3dp-15",
    (SourceKind.DIS_ENTANGLED, HplusModel.INDEPENDENT, 0.05, 0.5, 0.0): "0x1.a4566ff36d53bp-9",
    (SourceKind.DIS_ENTANGLED, HplusModel.INDEPENDENT, 0.05, 0.5, 0.001): "0x1.a6e1b1499d393p-9",
    (SourceKind.DIS_ENTANGLED, HplusModel.INDEPENDENT, 0.2, 0.05, 0.0): "0x1.37b821b335ce2p-13",
    (SourceKind.DIS_ENTANGLED, HplusModel.INDEPENDENT, 0.2, 0.05, 0.001): "0x1.4e176fbc6bd11p-13",
    (SourceKind.DIS_ENTANGLED, HplusModel.INDEPENDENT, 0.2, 0.5, 0.0): "0x1.c2e36fa2c3f69p-7",
    (SourceKind.DIS_ENTANGLED, HplusModel.INDEPENDENT, 0.2, 0.5, 0.001): "0x1.c53680615ec70p-7",
    (SourceKind.INDIS_ENTANGLED, HplusModel.COHERENT, 0.05, 0.05, 0.0): "0x1.1870fb6535fe3p-15",
    (SourceKind.INDIS_ENTANGLED, HplusModel.COHERENT, 0.05, 0.05, 0.001): "0x1.35319899b1ae4p-15",
    (SourceKind.INDIS_ENTANGLED, HplusModel.COHERENT, 0.05, 0.5, 0.0): "0x1.a4b7af2162089p-9",
    (SourceKind.INDIS_ENTANGLED, HplusModel.COHERENT, 0.05, 0.5, 0.001): "0x1.a73d9d677618ep-9",
    (SourceKind.INDIS_ENTANGLED, HplusModel.COHERENT, 0.2, 0.05, 0.0): "0x1.4e9c08e3dc16ep-13",
    (SourceKind.INDIS_ENTANGLED, HplusModel.COHERENT, 0.2, 0.05, 0.001): "0x1.64e2540f0dad6p-13",
    (SourceKind.INDIS_ENTANGLED, HplusModel.COHERENT, 0.2, 0.5, 0.0): "0x1.c1a97a1d5caf7p-7",
    (SourceKind.INDIS_ENTANGLED, HplusModel.COHERENT, 0.2, 0.5, 0.001): "0x1.c3e9deb2754f5p-7",
    (SourceKind.INDIS_ENTANGLED, HplusModel.INDEPENDENT, 0.05, 0.05, 0.0): "0x1.189cc0d77d0b3p-15",
    (SourceKind.INDIS_ENTANGLED, HplusModel.INDEPENDENT, 0.05, 0.05, 0.001): "0x1.355e1da5310b4p-15",
    (SourceKind.INDIS_ENTANGLED, HplusModel.INDEPENDENT, 0.05, 0.5, 0.0): "0x1.a742b26b4a980p-9",
    (SourceKind.INDIS_ENTANGLED, HplusModel.INDEPENDENT, 0.05, 0.5, 0.001): "0x1.a9c89a82ecbc2p-9",
    (SourceKind.INDIS_ENTANGLED, HplusModel.INDEPENDENT, 0.2, 0.05, 0.0): "0x1.4f609d1696c6ep-13",
    (SourceKind.INDIS_ENTANGLED, HplusModel.INDEPENDENT, 0.2, 0.05, 0.001): "0x1.65a9d5454a241p-13",
    (SourceKind.INDIS_ENTANGLED, HplusModel.INDEPENDENT, 0.2, 0.5, 0.0): "0x1.cb973f1794fe1p-7",
    (SourceKind.INDIS_ENTANGLED, HplusModel.INDEPENDENT, 0.2, 0.5, 0.001): "0x1.cdd74e648abdcp-7",
}


def test_enumeration_hplus_values_are_frozen_bit_for_bit():
    for (kind, model, mu, alpha, dark), want in _FROZEN_HPLUS_HEX.items():
        det = DetectorModel(alpha, dark)
        got = enumerate_rate(PairSource(kind, mu), Setting.HPLUS, det, det, X_MAX_LIMIT, model)
        assert got.value.hex() == want, (kind, model, mu, alpha, dark)
    # an exact detector computes as its float twin
    exact, twin = DetectorModel(Fraction(1, 3), Fraction(1, 1000)), DetectorModel(1 / 3, 1e-3)
    src = PairSource(SourceKind.INDIS_ENTANGLED, 0.2)
    for model in HplusModel:
        got = enumerate_rate(src, Setting.HPLUS, exact, exact, X_MAX_LIMIT, model)
        want = enumerate_rate(src, Setting.HPLUS, twin, twin, X_MAX_LIMIT, model)
        assert got.value.hex() == want.value.hex(), model


def test_enumeration_small_cutoffs():
    det = DetectorModel(0.3)
    # a crossed-basis coincidence needs at least two pairs
    got = enumerate_rate(PairSource(SourceKind.DIS_ENTANGLED, 0.1),
                         Setting.HV, det, det, 1)
    assert got.value == 0.0
    assert got.tail_bound > 0.0
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


@pytest.mark.parametrize("x_max", [14.0, True, -0.0])
def test_enumeration_refuses_an_x_max_that_is_not_an_int(x_max):
    # 14.0 == 14 and True == 1 hash alike, so a check made behind a cache
    # would pass on a warm table: the refusal must not depend on it
    det = DetectorModel(0.1)
    src = PairSource(SourceKind.DIS_ENTANGLED, 0.1)

    def refusal():
        with pytest.raises(TypeError) as exc:
            enumerate_rate(src, Setting.HH, det, det, x_max)
        return str(exc.value)

    _per_x_table.cache_clear()
    cold = refusal()
    for n in (0, 1, X_MAX_LIMIT):
        enumerate_rate(src, Setting.HH, det, det, n)
    assert refusal() == cold == f"x_max must be an int, got {x_max!r}"


def _fresh_enumeration(source, setting, det_s, det_i, x_max, model):
    """The enumeration composed afresh, as in
    test_enumeration_builds_its_click_lists_once."""
    s, ds, di = setting.resolve(source.kind, det_s, det_i)
    weights = pmf_values(source, x_max)
    if s is Setting.CAR_UNMATCHED:
        a, b = (math.fsum(w * click_prob(det, x) for x, w in enumerate(weights))
                for det in (ds, di))
        return a * b
    return math.fsum(
        weights[x] * _per_x_probability(
            source.kind, s, x, [click_prob(ds, n) for n in range(x + 1)],
            [click_prob(di, n) for n in range(x + 1)], model)
        for x in range(x_max + 1)
    )


# arm values in pairs that compare and hash equal but may differ in type
_ALPHA_TWINS = [(0.5, Fraction(1, 2)), (1, 1.0), (0, 0.0), (0.3, Fraction(0.3)),
                (Fraction(1, 3), Fraction(1, 3))]
_DARK_TWINS = [(0, 0.0), (1e-3, Fraction(1e-3)), (2.0**-10, Fraction(1, 1024))]
_ARM = [st.tuples(st.sampled_from(twins), st.integers(0, 1))
        for twins in (_ALPHA_TWINS, _DARK_TWINS, _ALPHA_TWINS, _DARK_TWINS)]
_CONFIG = {
    "setting": st.sampled_from(list(_supported_settings())),
    "model": st.sampled_from(HplusModel),
    "x_max": st.integers(0, X_MAX_LIMIT),
    "mu": st.sampled_from([0.05, 0.2, 1, 1.0, Fraction(1, 2)]),
    "arms": st.tuples(*_ARM),
}
# a step changes one field of the last call's configuration, or swaps one
# arm value (alpha_s, dark_s, alpha_i, dark_i) for its twin of the other type
_STEP = st.one_of(*(st.tuples(st.just(k), v) for k, v in _CONFIG.items()),
                  st.tuples(st.just("swap"), st.integers(0, 3)))


@settings(max_examples=100, deadline=None)
@given(start=st.fixed_dictionaries(_CONFIG), steps=st.lists(_STEP, max_size=12))
def test_enumeration_tables_answer_every_call_as_a_fresh_sum(start, steps):
    # neighbouring calls differ in one field, so a table that answered a
    # call with a different model, x_max or number type shows here
    maxsize = _per_x_table.cache_info().maxsize
    assert maxsize is not None
    config = dict(start)
    for field, value in [(None, None), *steps]:
        if field == "swap":
            arms = list(config["arms"])
            twins, side = arms[value]
            arms[value] = twins, 1 - side
            config["arms"] = tuple(arms)
        elif field:
            config[field] = value
        (kind, setting), model, x_max = config["setting"], config["model"], config["x_max"]
        source = PairSource(kind, config["mu"])
        a_s, d_s, a_i, d_i = (twins[side] for twins, side in config["arms"])
        det_s, det_i = DetectorModel(a_s, d_s), DetectorModel(a_i, d_i)
        got = enumerate_rate(source, setting, det_s, det_i, x_max, model).value
        want = _fresh_enumeration(source, setting, det_s, det_i, x_max, model)
        assert got.hex() == want.hex(), config
        assert _per_x_table.cache_info().currsize <= maxsize


def test_one_enumeration_table_serves_every_depth():
    # entry x does not depend on x_max, so each depth reads a prefix of
    # the one table of its configuration
    det_s, det_i = DetectorModel(0.23, 2.3e-4), DetectorModel(Fraction(1, 3))
    src = PairSource(SourceKind.INDIS_ENTANGLED, 0.3)
    _per_x_table.cache_clear()
    for x_max in [*range(X_MAX_LIMIT + 1), *range(X_MAX_LIMIT, -1, -1)]:
        got = enumerate_rate(src, Setting.HPLUS, det_s, det_i, x_max).value
        want = _fresh_enumeration(src, Setting.HPLUS, det_s, det_i, x_max, HplusModel.COHERENT)
        assert got.hex() == want.hex(), x_max
    info = _per_x_table.cache_info()
    assert info.currsize == info.misses == 1


def test_enumeration_tables_are_bounded():
    maxsize = _per_x_table.cache_info().maxsize
    assert maxsize is not None
    src = PairSource(SourceKind.DIS_ENTANGLED, 0.1)
    for n in range(maxsize + 10):
        det = DetectorModel(Fraction(n, 2 * maxsize))
        enumerate_rate(src, Setting.HH, det, det, 2)
        assert _per_x_table.cache_info().currsize <= maxsize
    assert _per_x_table.cache_info().currsize == maxsize


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
    counts, tail = _draw_pairs(np.random.Generator(np.random.PCG64(2024)), src, n, X_MAX_LIMIT)
    assert counts.size == X_MAX_LIMIT + 1 and counts.sum() + tail.size == n
    assert tail.size == 0 or tail.min() > X_MAX_LIMIT
    observed = np.bincount(tail, minlength=X_MAX_LIMIT + 1)
    observed[: X_MAX_LIMIT + 1] += counts
    expected = n * np.array(pmf_values(src, observed.size + 60))
    top = int(np.flatnonzero(expected >= 5.0).max())  # pool the sparse tail
    obs = np.append(observed[: top + 1], observed[top + 1 :].sum())
    exp = np.append(expected[: top + 1], n - expected[: top + 1].sum())
    assert stats.chisquare(obs, exp).pvalue > 1e-3


def _pair_law_mp(kind, mu, x):
    """The pair-number law at x in 50-digit mpmath."""
    with mp.workdps(50):
        mu = mp.mpf(mu)
        if kind is SourceKind.INDIS_ENTANGLED:
            value = (x + 1) * (mu / 2) ** x / (1 + mu / 2) ** (x + 2)
        elif kind is SourceKind.THERMAL_CORRELATED:
            value = mu**x / (1 + mu) ** (x + 1)
        else:
            value = mp.exp(-mu) * mu**x / mp.factorial(x)
        return float(value)


@pytest.mark.parametrize("kind", list(SourceKind))
def test_pair_law_matches_the_series_pmf_and_mpmath(kind):
    # the Monte-Carlo's closed-form law against the series' recurrence and
    # 50-digit mpmath.  The Poisson form is evaluated in log space, so its
    # relative error is the rounding of its exponent's terms: up to
    # 4 eps (1 + x |ln mu| + mu + ln x!), which exceeds 1e-13 only at
    # large x or mu.  Values below the normal range are compared absolutely.
    eps, tiny = sys.float_info.epsilon, sys.float_info.min
    for mu in np.logspace(-7, 3, 21).tolist():
        got = _pair_law(kind, mu, 200)
        assert got.shape == (202,) and got[-1] == 0.0  # the bin beyond top
        # pmf_values: exp(-mu) underflows beyond mu = 708 for Poisson kinds
        series = pmf_values(PairSource(kind, mu), 200) if mu < 700 or not kind.poissonian else None
        for x in range(201):
            tol = 1e-13
            if kind.poissonian:
                tol = max(tol, 4 * eps * (1 + x * abs(math.log(mu)) + mu + math.lgamma(x + 1)))
            for want in [_pair_law_mp(kind, mu, x)] + ([series[x]] if series else []):
                assert abs(got[x] - want) <= tol * want + tiny, (mu, x, got[x], want)
    assert _pair_law(kind, 0.0, 5).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("top", [0, 2, X_MAX_LIMIT])
@pytest.mark.parametrize(
    "kind, mu",
    [(SourceKind.DIS_ENTANGLED, 0.05), (SourceKind.DIS_CORRELATED, 1.0)]
    + [(kind, mu) for kind in (SourceKind.THERMAL_CORRELATED, SourceKind.INDIS_ENTANGLED)
       for mu in (0.05, 3.0, 50.0)],
)
def test_tail_samplers_match_the_conditioned_law(kind, mu, top):
    # the pulses beyond the multinomial's last bin draw their pair numbers
    # from the law conditioned on x > top; a small top fills that tail
    n = 100_000
    rng = np.random.Generator(np.random.PCG64(6060 + top))
    x = _tail_pairs(rng, PairSource(kind, mu), top, n)
    assert x.size == n and x.min() > top
    law = np.array(pmf_values(PairSource(kind, mu), top + 4000)[top + 1 :])
    law /= law.sum()  # the mass beyond top + 4000 is below 1e-30
    observed = np.bincount(np.minimum(x - top - 1, law.size), minlength=law.size + 1)
    assert _pooled_chisquare(observed, n * np.append(law, 0.0)) > 1e-3


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


@pytest.mark.parametrize(
    "kind, setting",
    [(SourceKind.DIS_ENTANGLED, Setting.HH), (SourceKind.INDIS_ENTANGLED, Setting.HPLUS),
     (SourceKind.THERMAL_CORRELATED, Setting.CAR_UNMATCHED)],
)
def test_mc_memory_does_not_grow_with_the_pairs_at_small_mu(kind, setting):
    # at mu = 0.5 a block draws its pair numbers as one histogram: the
    # working memory is O(classes), not O(pairs) (1e6 trials carry 5e5
    # pairs).  The first run fills the ladder and coin caches; the second
    # is measured.
    src, det = PairSource(kind, 0.5), DetectorModel(0.1, 1e-5)
    mc_rate(src, setting, det, det, 1_000_000, seed=9)
    tracemalloc.start()
    try:
        est = mc_rate(src, setting, det, det, 1_000_000, seed=9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < est.mean < 1.0
    assert peak < 64 * 1024, peak


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


def test_coin_weights_are_exact_binomial_laws():
    # the class-wise Monte-Carlo draws its VV counts and fair-coin +
    # splits from these tables: each entry is comb(x, j) / 2^x exactly
    for x in range(X_MAX_LIMIT + 1):
        got = [Fraction(w) for w in _coin_weights(x)]
        assert got == [Fraction(math.comb(x, j), 2**x) for j in range(x + 1)], x


def _pooled_chisquare(observed, expected):
    """Chi-square p-value with the cells expected below 5 pooled into one;
    a cell of probability 0 (the ladder has some) must stay empty."""
    observed, expected = np.ravel(observed), np.ravel(expected)
    assert not observed[expected == 0.0].any()
    sparse = expected < 5.0
    obs, exp = observed[~sparse], expected[~sparse]
    if expected[sparse].sum() > 0.0:
        obs = np.append(obs, observed[sparse].sum())
        exp = np.append(exp, expected[sparse].sum())
    return stats.chisquare(obs, exp * (obs.sum() / exp.sum())).pvalue


@pytest.mark.parametrize("x", [6, X_MAX_LIMIT])
@pytest.mark.parametrize(
    "kind, coherent",
    [(SourceKind.DIS_ENTANGLED, False), (SourceKind.INDIS_ENTANGLED, False),
     (SourceKind.INDIS_ENTANGLED, True)],
)
def test_class_wise_draws_match_their_laws(x, kind, coherent):
    # n pulses of x pairs each, split by class: the pattern counts (HV
    # classes are (x - y, y)) and the joint (x - y, + count) of H+
    n = 200_000
    rng = np.random.Generator(np.random.PCG64(8080 + x))
    pulses = np.zeros(x + 1, dtype=np.int64)  # pulse counts of 0..x pairs
    pulses[x] = n
    none = np.zeros(0, dtype=np.int64)  # no pulse beyond
    if kind is SourceKind.DIS_ENTANGLED:
        pattern = np.array([math.comb(x, y) for y in range(x + 1)]) / 2.0**x
    else:
        pattern = np.full(x + 1, 1.0 / (x + 1))

    def classes(setting, coherent):
        # every pulse falls in a bin: no tail class and no pulse without pairs
        (photons, counts), (_, tail_counts), empty = _photon_classes(
            rng, kind, setting, pulses, none, coherent)
        assert tail_counts.size == 0 and empty == 0
        return tuple(np.array(p) for p in photons), np.array(counts)

    if not coherent:
        (h, v), counts = classes(Setting.HV, False)
        assert np.all(h + v == x)
        assert counts.sum() == n
        observed = np.bincount(v, weights=counts, minlength=x + 1)
        assert _pooled_chisquare(observed, n * pattern) > 1e-3
    if kind is SourceKind.INDIS_ENTANGLED and coherent:
        plus = np.array(plus_port_distribution(x))  # row y: the ladder law
    else:
        plus = np.tile([math.comb(x, p) / 2.0**x for p in range(x + 1)], (x + 1, 1))
    (h, p), counts = classes(Setting.HPLUS, coherent)
    assert counts.sum() == n
    observed = np.zeros((x + 1, x + 1))
    np.add.at(observed, (x - h, p), counts)
    assert _pooled_chisquare(observed, n * pattern[:, None] * plus) > 1e-3


# The Monte-Carlo's class bookkeeping done in numpy arrays, a test-only
# reference that `_mc_block` must match draw for draw: the same Generator
# calls in the same order, and each class's click law computed on arrays
# of photon numbers.
def _reference_photon_classes(rng, kind, setting, counts, tail, coherent):
    occupied = (np.flatnonzero(counts[1:]) + 1).tolist()  # pair numbers
    xy = np.zeros((max(occupied, default=0) + 1,) * 2, dtype=np.int64)
    for xv in occupied:
        law = _pattern_law(kind, xv)
        xy[xv, : len(law)] = rng.multinomial(counts[xv], law) if len(law) > 1 else counts[xv]
    v = sample_patterns(kind, tail, rng) if tail.size else tail
    if setting is Setting.HPLUS:
        plus = np.zeros_like(xy)
        for xv in np.flatnonzero(xy.any(axis=1)).tolist():
            law = biphoton.oracle._plus_law(xv, coherent)
            plus[xv - np.arange(xv + 1), : xv + 1] += rng.multinomial(xy[xv, : xv + 1], law)
        occupied = np.nonzero(plus)
        small = occupied, plus[occupied]
        big = _classes(tail - v, rng.binomial(tail, 0.5) if tail.size else tail)
    else:
        def arms(h, v):  # the photons that each arm of `_ARMS` reads
            return tuple((h, v)[p] for _, p in _ARMS[setting])

        xs, ys = np.nonzero(xy)
        small = arms(xs - ys, ys), xy[xs, ys]
        big = _classes(*arms(tail - v, v))
    photons = tuple(np.concatenate((*p, [0])) for p in zip(small[0], big[0]))
    return photons, np.concatenate((small[1], big[1], counts[:1]))


def _reference_block(rng, source, setting, det_s, det_i, n, hplus_model):
    coherent = setting is Setting.HPLUS and hplus_model is HplusModel.COHERENT and (
        source.kind is SourceKind.INDIS_ENTANGLED)
    top = HPLUS_X_CAP if coherent else X_MAX_LIMIT
    for arm in _DRAWS.get(setting, (setting,)):
        dets = tuple((det_s, det_i)[d] for d, _ in _ARMS[arm])
        counts, tail = _draw_pairs(rng, source, n, top)
        if coherent and tail.size:
            raise XMaxTooLarge("above the ladder cap")
        photons, counts = _reference_photon_classes(rng, source.kind, arm, counts, tail, coherent)
        p = np.ones(counts.shape)
        for det, ns in zip(dets, photons):
            p *= _click(det.alpha, det.dark, ns)
        n = int(rng.binomial(counts, p).sum())
    return n


def _block_outcome(block, seed, source, setting, det_s, det_i, n, model):
    """A block's successes (or the error it raised) and its generator's final state."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(0,))))
    try:
        hits = block(rng, source, setting, det_s, det_i, n, model)
    except XMaxTooLarge:
        hits = XMaxTooLarge
    return hits, rng.bit_generator.state


# every kind and setting (time-bin and CAR_UNMATCHED included), both H+
# models; mu 0 (no pairs), the binned range, pulses beyond top (mu 2-4) and
# the per-pulse Poisson (mu > 1 on Poisson kinds, 12 with a wide tail); a
# few pulses, the oracle grid's block of 500,000 and a full block
@settings(max_examples=300, deadline=None)
@given(
    case=st.sampled_from(SUPPORTED),
    model=st.sampled_from(HplusModel),
    mu=st.sampled_from([0.0, 2.0, 3.0, 4.0, 12.0]) | st.floats(0.05, 0.9),
    arms=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 0.05),
                   st.floats(0.0, 1.0), st.floats(0.0, 0.05)),
    n=st.integers(0, 2000) | st.sampled_from([500_000, _BLOCK]),
    seed=st.integers(0, 2**64 - 1),
)
def test_mc_blocks_match_their_array_reference_draw_for_draw(case, model, mu, arms, n, seed):
    (kind, setting), source = case, PairSource(case[0], mu)
    setting, det_s, det_i = setting.resolve(
        kind, DetectorModel(*arms[:2]), DetectorModel(*arms[2:]))
    want = _block_outcome(_reference_block, seed, source, setting, det_s, det_i, n, model)
    got = _block_outcome(_mc_block, seed, source, setting, det_s, det_i, n, model)
    assert got[0] == want[0]
    assert got[1] == want[1]


@pytest.mark.parametrize("top", [X_MAX_LIMIT, HPLUS_X_CAP])
def test_each_click_list_entry_is_the_law_numpy_computes_on_an_array(top):
    # numpy's pow and Python's can differ in the last bit, so the list is
    # numpy's; here each entry equals the law on arrays of 1-64 photon
    # numbers, in any position, as the tail classes compute it
    rng = random.Random(top)
    for length in range(1, 65):
        for _ in range(8):
            det = DetectorModel(rng.random(), rng.choice([0.0, rng.random() * 0.1]))
            photons = [rng.randrange(top + 1) for _ in range(length)]
            q = _click_list(det, top)
            assert _click(det.alpha, det.dark, np.array(photons)).tolist() == [q[k] for k in photons]
    assert _click_list.cache_info().maxsize == 64  # bounded: user detectors cannot grow it


@pytest.mark.parametrize(
    "kind, mu", [(SourceKind.DIS_ENTANGLED, 12.0), (SourceKind.INDIS_ENTANGLED, 6.0)]
)
@pytest.mark.parametrize(
    "setting, model",
    [(Setting.HH, HplusModel.COHERENT), (Setting.HV, HplusModel.COHERENT),
     (Setting.HPLUS, HplusModel.COHERENT), (Setting.HPLUS, HplusModel.INDEPENDENT),
     (Setting.SINGLE_S, HplusModel.COHERENT)],
)
def test_mc_agrees_with_series_on_both_sides_of_the_class_limit(kind, mu, setting, model):
    # at these mu a good share of the pulses carry more than X_MAX_LIMIT
    # pairs (23% at Poisson mu 12, 6% at NB(2) mu 6), so the class-wise
    # and the per-pulse draws both feed the estimate
    src = PairSource(kind, mu)
    det_s, det_i = DetectorModel(0.03, 1e-3), DetectorModel(0.05, 1e-4)
    policy = TruncationPolicy()
    assert truncation_index(src, policy) < policy.hard_cap
    counts, tail = _draw_pairs(np.random.Generator(np.random.PCG64(5)), src, 100_000, X_MAX_LIMIT)
    assert counts[1:].any() and tail.size
    if setting is Setting.SINGLE_S:
        want = single_rate(src, det_s, policy)
    else:
        want = coincidence_rate(src, setting, det_s, det_i, policy, model).value
    est = mc_rate(src, setting, det_s, det_i, 400_000, seed=31, hplus_model=model)
    se = max(est.std_error, math.sqrt(want * (1.0 - want) / est.trials))
    assert abs(est.mean - want) / se <= 4.0, (est.mean, want)


@pytest.mark.parametrize(
    "kind, setting",
    [(SourceKind.DIS_CORRELATED, Setting.CAR_UNMATCHED),
     (SourceKind.INDIS_ENTANGLED, Setting.HPLUS)],
)
def test_mc_class_wise_draws_rerun_bit_for_bit(kind, setting):
    src = PairSource(kind, 0.3)
    det = DetectorModel(0.4, 1e-4)
    # 1.5e6 trials: two blocks, the second with a different size
    a = mc_rate(src, setting, det, det, 1_500_000, seed=77)
    b = mc_rate(src, setting, det, det, 1_500_000, seed=77)
    assert (a.mean, a.std_error) == (b.mean, b.std_error)
    assert mc_rate(src, setting, det, det, 1_500_000, seed=78).mean != a.mean


# numpy does not promise stable Generator streams across versions, so the
# frozen Monte-Carlo outputs below hold for the numpy they were recorded with
_MC_FROZEN_NUMPY = "2.4.6"
_CO, _IN = HplusModel.COHERENT, HplusModel.INDEPENDENT
# (kind, setting, mu, (alpha_s, dark_s), (alpha_i, dark_i), trials, seed,
#  H+ model) -> (mean.hex(), std_error.hex()).  Between them the cells reach
# every kind; HH, HV, H+ under both models, a single and CAR_UNMATCHED; the
# one-bin pattern law of correlated pairs; pulses beyond top (indis mu 3
# and 4, thermal mu 2); the per-pulse Poisson of mu > 1 (dis mu 3 and 12);
# mu 0; two blocks (1,000,001 and 1,200,000 trials); darks of 0 on one arm,
# on both, and above 0 on both.
_MC_FROZEN = [
    ((SourceKind.DIS_ENTANGLED, Setting.HH, 0.1, (0.1, 1e-4), (0.1, 1e-4), 200_000, 1, _CO),
     ("0x1.00e6afcce1c58p-11", "0x1.9f1d3cda0f7f6p-15")),
    ((SourceKind.DIS_ENTANGLED, Setting.HV, 3.0, (0.3, 0.0), (0.2, 1e-3), 100_000, 2, _CO),
     ("0x1.7a1a0cf1800a8p-4", "0x1.dfea7fc27cffdp-11")),
    ((SourceKind.DIS_ENTANGLED, Setting.HPLUS, 0.5, (0.2, 1e-5), (0.3, 1e-5), 100_000, 3, _IN),
     ("0x1.4ee392e1ef73cp-7", "0x1.4d8033e807648p-12")),
    ((SourceKind.DIS_ENTANGLED, Setting.HPLUS, 12.0, (0.05, 1e-3), (0.04, 0.0), 50_000, 4, _IN),
     ("0x1.ee78183f91e64p-5", "0x1.17331205190bbp-10")),
    ((SourceKind.INDIS_ENTANGLED, Setting.HPLUS, 0.8, (0.1, 1e-5), (0.1, 1e-5), 100_000, 5, _CO),
     ("0x1.ff2e48e8a71dep-9", "0x1.9d59175caca84p-13")),
    ((SourceKind.INDIS_ENTANGLED, Setting.HPLUS, 4.0, (0.1, 0.0), (0.2, 0.0), 100_000, 6, _IN),
     ("0x1.36b8f9b13165dp-4", "0x1.b6fb916064670p-11")),
    ((SourceKind.INDIS_ENTANGLED, Setting.HH, 3.0, (0.1, 1e-4), (0.1, 1e-4), 1_000_001, 7, _CO),
     ("0x1.40bb9ced54cacp-5", "0x1.96c18c883371cp-13")),
    ((SourceKind.INDIS_ENTANGLED, Setting.SINGLE_S, 0.3, (0.5, 1e-3), (0.5, 1e-3), 100_000, 8, _CO),
     ("0x1.238da3c21187ep-4", "0x1.aa4d2f0fc163ap-11")),
    ((SourceKind.INDIS_ENTANGLED, Setting.HH, 0.0, (0.5, 0.05), (0.5, 0.05), 100_000, 9, _CO),
     ("0x1.3fd0d0678c005p-9", "0x1.472ff64c7a410p-13")),
    ((SourceKind.INDIS_ENTANGLED, Setting.TIMEBIN_APLUS, 0.5, (0.3, 1e-4), (0.3, 1e-4), 100_000,
      10, _CO),
     ("0x1.1b1d92b7fe08bp-8", "0x1.b2f1cae5d2b12p-13")),
    ((SourceKind.DIS_CORRELATED, Setting.CAR_UNMATCHED, 0.3, (0.4, 1e-4), (0.4, 1e-4), 200_000,
      11, _CO),
     ("0x1.b2031ceaf251cp-7", "0x1.0c0ceeba7c7ebp-12")),
    ((SourceKind.DIS_CORRELATED, Setting.SINGLE_I, 12.0, (0.1, 1e-3), (0.02, 1e-3), 50_000, 12,
      _CO),
     ("0x1.b7414a4d2b2c0p-3", "0x1.e134cec97a841p-10")),
    ((SourceKind.THERMAL_CORRELATED, Setting.CAR_UNMATCHED, 2.0, (0.1, 1e-4), (0.1, 1e-4),
      200_000, 13, _CO),
     ("0x1.cb3e5753a3ec0p-6", "0x1.8302f8188814fp-12")),
    ((SourceKind.THERMAL_CORRELATED, Setting.CAR_MATCHED, 0.1, (0.1, 0.0), (0.1, 0.0), 1_200_000,
      14, _CO),
     ("0x1.2c5f92c5f92c6p-10", "0x1.031104f1146eep-15")),
]


@pytest.mark.skipif(np.__version__ != _MC_FROZEN_NUMPY,
                    reason=f"frozen with numpy {_MC_FROZEN_NUMPY}")
@pytest.mark.parametrize("cell, want", _MC_FROZEN)
def test_mc_outputs_are_frozen_bit_for_bit(cell, want):
    kind, setting, mu, det_s, det_i, trials, seed, model = cell
    est = mc_rate(PairSource(kind, mu), setting, DetectorModel(*det_s), DetectorModel(*det_i),
                  trials, seed, model)
    assert (est.mean.hex(), est.std_error.hex()) == want


def _moves(call) -> bool:
    """Whether ``call(rng)`` advances the generator's state."""
    rng = np.random.Generator(np.random.PCG64(11))
    before = rng.bit_generator.state
    call(rng)
    return rng.bit_generator.state != before


def test_the_draws_mc_rate_skips_advance_no_state():
    # mc_rate leaves out these calls when they have nothing to draw; its
    # stream is unchanged by that only because numpy draws nothing for them
    empty = np.empty(0, dtype=np.int64)
    skipped = {
        "binomial(0, p)": lambda rng: rng.binomial(0, 1e-6),
        "binomial(n, 0.0)": lambda rng: rng.binomial(1000, 0.0),
        "binomial(empty, p)": lambda rng: rng.binomial(empty, 0.5),
        "integers(0, empty + 1)": lambda rng: rng.integers(0, empty + 1),
        "poisson(empty)": lambda rng: rng.poisson(np.empty(0)),
        "geometric(p, 0)": lambda rng: rng.geometric(0.3, 0),
        "one-bin multinomial": lambda rng: rng.multinomial(1000, (1.0,)),
    }
    assert [name for name, call in skipped.items() if _moves(call)] == []
    # the state check itself sees a draw
    assert _moves(lambda rng: rng.binomial(1000, 0.5))


def _twins():
    return (np.random.Generator(np.random.PCG64(11)) for _ in range(2))


@pytest.mark.parametrize("n, p", [(0, 0.2), (40, 0.0), (0, 0.0), (40, 0.2), (5000, 0.4)])
def test_a_trailing_binomial_element_draws_as_a_separate_call(n, p):
    # mc_rate's click binomial takes the pulses without pairs as its last
    # element: the same draws and final state as drawing them after it
    counts, probs = np.array([5, 0, 1000, 7]), np.array([0.3, 0.5, 0.6, 0.9])
    one, two = _twins()
    joint = one.binomial(np.append(counts, n), np.append(probs, p))
    split = np.append(two.binomial(counts, probs), two.binomial(n, p))
    assert joint.tolist() == split.tolist()
    assert one.bit_generator.state == two.bit_generator.state


@pytest.mark.parametrize("x", [1, 5, X_MAX_LIMIT])
def test_a_one_row_multinomial_law_draws_as_the_1d_law(x):
    # the fair-coin + law is one row of a 2-D law, as the ladder law is
    # a row per pattern; per pattern, zeros included, the draws are the same
    n = np.arange(x + 1) * 37 % 11
    one, two = _twins()
    flat = one.multinomial(n, _coin_weights(x))
    rows = two.multinomial(n, np.array([_coin_weights(x)]))
    assert flat.tolist() == rows.tolist()
    assert one.bit_generator.state == two.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5])
def test_block_b_seeds_from_the_bth_child_of_the_seed_sequence(seed):
    children = np.random.SeedSequence(seed).spawn(4)
    for b, child in enumerate(children):
        direct = np.random.SeedSequence(seed, spawn_key=(b,))
        assert (np.random.PCG64(direct).state == np.random.PCG64(child).state)
