"""Pair-number statistics: pmf values, moments, certified truncation."""

import math
import re
import sys
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton import (
    CapExceeded,
    DetectorModel,
    Objective,
    PairSource,
    Setting,
    SourceKind,
    TruncationPolicy,
    click_prob,
    coincidence_rate,
    enumerate_rate,
    mc_rate,
    optimize_mu,
    per_x_coincidence,
    plus_port_distribution,
    pmf,
    pmf_values,
    truncation_index,
)

ALL_KINDS = list(SourceKind)

# smallest x_max with exact tail < 1e-12 at mu=0.1, from 60-digit partial
# sums (see _exact_min_index); the certified bound must land on the same
# indexes here because it is tight for these parameters
MIN_INDEX_MU01 = {
    SourceKind.DIS_ENTANGLED: 7,
    SourceKind.DIS_CORRELATED: 7,
    SourceKind.INDIS_ENTANGLED: 9,
    SourceKind.THERMAL_CORRELATED: 11,
}


def _pmf_mp(kind: SourceKind, mu, x: int):
    mu = mp.mpf(mu)
    if kind is SourceKind.INDIS_ENTANGLED:
        return (1 + x) * (mu / 2) ** x / (1 + mu / 2) ** (x + 2)
    if kind is SourceKind.THERMAL_CORRELATED:
        return mu**x / (1 + mu) ** (x + 1)
    return mp.e ** (-mu) * mu**x / mp.factorial(x)


def _exact_min_index(kind: SourceKind, mu, eps) -> int:
    """Reference: first x_max whose exact tail mass is below eps."""
    with mp.workdps(60):
        acc = mp.mpf(0)
        for x in range(500):
            acc += _pmf_mp(kind, mu, x)
            if 1 - acc < mp.mpf(eps):
                return x
    raise AssertionError("tail never certified")


def test_zero_mu_is_point_mass():
    for kind in ALL_KINDS:
        src = PairSource(kind, 0.0)
        assert pmf(src, 0) == 1.0
        assert pmf(src, 3) == 0.0
        assert truncation_index(src, TruncationPolicy()) == 0


def test_poisson_pmf_at_zero():
    assert pmf(PairSource(SourceKind.DIS_ENTANGLED, 0.1), 0) == math.exp(-0.1)


def test_single_mode_entangled_pmf_matches_rational_form():
    # (1+x) (mu/2)^x / (1+mu/2)^(x+2) evaluated in exact rational arithmetic
    for mu in (Fraction(1, 10), Fraction(1, 2), Fraction(2)):
        src = PairSource(SourceKind.INDIS_ENTANGLED, float(mu))
        for x in range(12):
            want = (1 + x) * (mu / 2) ** x / (1 + mu / 2) ** (x + 2)
            assert pmf(src, x) == pytest.approx(float(want), rel=1e-13)
    # frozen spot value: 3 (1/20)^2 / (21/20)^4 = 400/64827
    got = pmf(PairSource(SourceKind.INDIS_ENTANGLED, 0.1), 2)
    assert got == pytest.approx(400 / 64827, rel=1e-13)
    assert got == pytest.approx(0.006170268560939115, rel=1e-13)


def test_thermal_pmf_matches_rational_form():
    for mu in (Fraction(1, 10), Fraction(3, 2)):
        src = PairSource(SourceKind.THERMAL_CORRELATED, float(mu))
        for x in range(12):
            want = mu**x / (1 + mu) ** (x + 1)
            assert pmf(src, x) == pytest.approx(float(want), rel=1e-13)


def test_poisson_pmf_matches_direct_form():
    for kind in (SourceKind.DIS_ENTANGLED, SourceKind.DIS_CORRELATED):
        src = PairSource(kind, 0.4)
        for x in range(15):
            want = math.exp(-0.4) * 0.4**x / math.factorial(x)
            assert pmf(src, x) == pytest.approx(want, rel=1e-13)


def test_pmf_values_matches_pointwise_pmf():
    for kind in ALL_KINDS:
        for mu in (0.0, 1e-3, 0.7, 5.0, 1e3):
            src = PairSource(kind, mu)
            if kind.poissonian and mu == 1e3:
                # exp(-1e3) underflows: refused rather than all zeros
                with pytest.raises(CapExceeded):
                    pmf_values(src, 400)
                with pytest.raises(CapExceeded):
                    pmf(src, 400)
                continue
            values = [v.hex() for v in pmf_values(src, 400)]
            assert values == [pmf(src, x).hex() for x in range(401)], (kind, mu)


def test_poissonian_pmf_refuses_underflowing_p0():
    # exp(-708) is the last P(0) above the smallest normal float
    policy = TruncationPolicy(hard_cap=5000)
    det = DetectorModel(0.3, 1e-4)
    for kind in (SourceKind.DIS_ENTANGLED, SourceKind.DIS_CORRELATED):
        src = PairSource(kind, 708.0)
        values = pmf_values(src, 1000)
        assert values[0] == math.exp(-708.0)
        assert [pmf(src, x) for x in (0, 708, 1000)] == [values[0], values[708], values[1000]]
        assert math.fsum(values) == pytest.approx(1.0, rel=1e-12)
        assert truncation_index(src, policy) < 1000
        for mu in (709.0, 1000.0):
            src = PairSource(kind, mu)
            for call in (lambda: pmf(src, 0), lambda: pmf_values(src, 10),
                         lambda: truncation_index(src, policy),
                         lambda: coincidence_rate(src, Setting.HH, det, det, policy)):
                with pytest.raises(CapExceeded, match=f"mu={mu:g}.*use mu <= 708"):
                    call()


@pytest.mark.parametrize(
    "kind, last, top",
    [(SourceKind.DIS_ENTANGLED, 708.3964185322641, "708"),
     (SourceKind.DIS_CORRELATED, 708.3964185322641, "708"),
     (SourceKind.INDIS_ENTANGLED, 2.0**512, "1.34e154"),
     (SourceKind.THERMAL_CORRELATED, 2.0**1022, "4.49e307")],
)
def test_every_kind_refuses_a_p0_below_the_smallest_normal_float(kind, last, top):
    # the last mu whose P(0) is a normal float, then the next float up,
    # and for NB(2) mu where (1 + mu/2)^2 overflows, through the pmf, the
    # rates and the enumeration
    assert sys.float_info.min <= pmf(PairSource(kind, last), 0) < 2.0 * sys.float_info.min
    det = DetectorModel(0.3, 1e-4)
    for mu in (math.nextafter(last, math.inf), 1e160, sys.float_info.max):
        if mu < last:
            continue
        src = PairSource(kind, mu)
        for call in (lambda: pmf(src, 0), lambda: pmf_values(src, 10),
                     lambda: coincidence_rate(src, Setting.HH, det, det),
                     lambda: enumerate_rate(src, Setting.HH, det, det, 5)):
            with pytest.raises(CapExceeded, match=f"underflows.*mu={re.escape(f'{mu:g}')}; "
                                                  f"use mu <= {top}$"):
                call()


def test_pmf_keeps_only_the_running_value():
    src = PairSource(SourceKind.THERMAL_CORRELATED, 1e6)
    tracemalloc.start()
    try:
        value = pmf(src, 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # (mu/(1+mu))^x / (1+mu) with x = mu: about e^-1 / (1+mu)
    assert value == pytest.approx(math.exp(-1) / (1 + 1e6), rel=1e-5)


def _second_moment(src):
    """E[x^2]: mu + mu^2 (Poisson), mu + 1.5 mu^2 (NB(2) of mean mu) and
    mu + 2 mu^2 (geometric)."""
    factor = {SourceKind.INDIS_ENTANGLED: 1.5, SourceKind.THERMAL_CORRELATED: 2.0}
    return src.mu + factor.get(src.kind, 1.0) * src.mu * src.mu


def test_truncated_sums_reproduce_moments():
    policy = TruncationPolicy(tail_epsilon=1e-12, hard_cap=200)
    for kind in ALL_KINDS:
        for mu in (0.01, 0.1, 0.5, 1.0, 2.0):
            src = PairSource(kind, mu)
            x_max = truncation_index(src, policy)
            w = pmf_values(src, x_max)
            tol = policy.tail_epsilon * x_max * x_max * 10
            assert 1 - policy.tail_epsilon <= math.fsum(w) <= 1 + 1e-15
            assert math.fsum(x * w[x] for x in range(x_max + 1)) == pytest.approx(
                src.mu, abs=tol, rel=1e-12
            )
            assert math.fsum(x * x * w[x] for x in range(x_max + 1)) == pytest.approx(
                _second_moment(src), abs=tol, rel=1e-12
            )


def test_truncation_index_certified_and_tight():
    for kind, want in MIN_INDEX_MU01.items():
        src = PairSource(kind, 0.1)
        got = truncation_index(src, TruncationPolicy(tail_epsilon=1e-12))
        assert got == want
    # across a parameter grid the bound may overshoot the exact minimal
    # index slightly but must never certify a tail that is not there
    for kind in ALL_KINDS:
        for mu in (0.05, 0.5, 1.0, 3.0):
            for eps in (1e-9, 1e-12):
                src = PairSource(kind, mu)
                got = truncation_index(src, TruncationPolicy(tail_epsilon=eps))
                exact = _exact_min_index(kind, mu, eps)
                assert exact <= got <= exact + 2
                with mp.workdps(60):
                    tail = 1 - sum(_pmf_mp(kind, mu, x) for x in range(got + 1))
                assert tail < mp.mpf(eps)


def test_truncation_cap_exceeded():
    src = PairSource(SourceKind.INDIS_ENTANGLED, 10.0)
    with pytest.raises(CapExceeded):
        truncation_index(src, TruncationPolicy(tail_epsilon=1e-15, hard_cap=40))


def test_input_validation():
    with pytest.raises(ValueError):
        PairSource(SourceKind.DIS_ENTANGLED, -0.1)
    with pytest.raises(ValueError):
        PairSource(SourceKind.DIS_ENTANGLED, math.inf)
    with pytest.raises(TypeError):
        PairSource("poisson", 0.1)
    for mu in (True, "0.1", None):
        with pytest.raises(TypeError, match="mu"):
            PairSource(SourceKind.DIS_ENTANGLED, mu)
    for mu in (math.nan, 10**400, Fraction(10**400)):
        with pytest.raises(ValueError, match="finite"):
            PairSource(SourceKind.DIS_ENTANGLED, mu)
    for mu, want in ((np.float32(0.1), 0.10000000149011612), (np.int64(1), 1.0), (Fraction(1, 4), 0.25)):
        got = PairSource(SourceKind.DIS_ENTANGLED, mu).mu
        assert type(got) is float and got == want
    with pytest.raises(ValueError):
        TruncationPolicy(tail_epsilon=0.0)
    with pytest.raises(ValueError):
        TruncationPolicy(tail_epsilon=1.5)
    with pytest.raises(ValueError):
        TruncationPolicy(hard_cap=-1)
    with pytest.raises(ValueError):
        pmf(PairSource(SourceKind.DIS_ENTANGLED, 0.1), -1)
    with pytest.raises(ValueError, match="x_max must be >= 0, got -1"):
        pmf_values(PairSource(SourceKind.DIS_ENTANGLED, 0.1), -1)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(ALL_KINDS),
    mu=st.floats(min_value=1e-4, max_value=3.0, allow_nan=False),
)
def test_normalization_under_certified_truncation(kind, mu):
    src = PairSource(kind, mu)
    policy = TruncationPolicy(tail_epsilon=1e-10, hard_cap=400)
    x_max = truncation_index(src, policy)
    total = math.fsum(pmf_values(src, x_max))
    assert 1 - policy.tail_epsilon <= total <= 1 + 1e-14


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(ALL_KINDS),
    mu=st.floats(min_value=1e-4, max_value=5.0, allow_nan=False),
)
def test_pmf_ratios_non_increasing(kind, mu):
    # the truncation certificate relies on this monotonicity
    src = PairSource(kind, mu)
    vals = pmf_values(src, 25)
    ratios = [vals[x + 1] / vals[x] for x in range(25) if vals[x] > 0]
    for a, b in zip(ratios, ratios[1:]):
        assert b <= a * (1 + 1e-12)


_SRC = PairSource(SourceKind.DIS_ENTANGLED, 0.1)
_DET = DetectorModel(0.1)


def _mc(trials, seed):
    return mc_rate(_SRC, Setting.HH, _DET, _DET, trials, seed)


@pytest.mark.parametrize("call, error, message", [
    (lambda: click_prob(_DET, 2.5), TypeError, "x must be an int, got 2.5"),
    (lambda: click_prob(_DET, True), TypeError, "x must be an int, got True"),
    (lambda: _mc(True, 1), TypeError, "trials must be an int, got True"),
    (lambda: _mc(2.5, 1), TypeError, "trials must be an int, got 2.5"),
    (lambda: _mc(0, 1), ValueError, "trials must be >= 1, got 0"),
    (lambda: _mc(10, -1), ValueError, "seed must be >= 0, got -1"),
    (lambda: _mc(10, 1.0), TypeError, "seed must be an int, got 1.0"),
    (lambda: optimize_mu(SourceKind.INDIS_ENTANGLED, 0.1, 0.1, 0.0, 0.0,
                         Objective.MAX_CONCURRENCE, (0.01, 1.0), samples=3.5),
     TypeError, "samples must be an int, got 3.5"),
    (lambda: TruncationPolicy(hard_cap=True), TypeError, "hard_cap must be an int, got True"),
    (lambda: TruncationPolicy(hard_cap=2.5), TypeError, "hard_cap must be an int, got 2.5"),
    (lambda: pmf_values(_SRC, 2.0), TypeError, "x_max must be an int, got 2.0"),
    (lambda: pmf(_SRC, 2.0), TypeError, "x must be an int, got 2.0"),
    (lambda: per_x_coincidence(SourceKind.DIS_ENTANGLED, Setting.HH, 1.0, _DET, _DET),
     TypeError, "x must be an int, got 1.0"),
    (lambda: plus_port_distribution(2.0), TypeError, "x must be an int, got 2.0"),
    (lambda: plus_port_distribution(True), TypeError, "x must be an int, got True"),
    (lambda: enumerate_rate(_SRC, Setting.HH, _DET, _DET, np.int64(3)),
     TypeError, f"x_max must be an int, got {np.int64(3)!r}"),
], ids=["click-fraction", "click-bool", "trials-bool", "trials-float", "trials-zero",
        "seed-negative", "seed-float", "samples-float", "hard-cap-bool", "hard-cap-float",
        "pmf-values-float", "pmf-float", "per-x-float", "plus-port-float", "plus-port-bool",
        "x-max-numpy"])
def test_every_count_follows_one_int_rule(call, error, message):
    # a count is an int and not a bool, refused by name before any work
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
