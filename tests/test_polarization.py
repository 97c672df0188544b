"""Polarization rates: per-pair-number kernels, series, closed forms."""

import inspect
import math
import random
import sys
import threading
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton import (
    CapExceeded,
    DetectorModel,
    HplusModel,
    PairSource,
    RateMethod,
    Setting,
    SourceKind,
    TimebinPort,
    TruncationPolicy,
    UnsupportedSetting,
    assemble_r,
    car,
    closed_form_rates,
    coincidence_rate,
    per_x_coincidence,
    plus_port_distribution,
    pmf_values,
    single_rate,
    timebin_rate,
    truncation_index,
    visibility_exact,
)
from biphoton import distributions, polarization
from biphoton.cli import main
from biphoton.detection import click_prob
from biphoton.oracle import HPLUS_X_CAP
from biphoton.polarization import _BLOCK, _row_sums
from biphoton.tomography import CROSSED_INDICES, PARALLEL_INDICES

ENTANGLED = (SourceKind.DIS_ENTANGLED, SourceKind.INDIS_ENTANGLED)
CORRELATED = (SourceKind.DIS_CORRELATED, SourceKind.THERMAL_CORRELATED)


def _exact_click(det, n):
    """The click law 1 - (1-d)(1-alpha)^n of the detector's float values,
    in exact rational arithmetic."""
    alpha, dark = Fraction(det.alpha), Fraction(det.dark)
    return 1 - (1 - dark) * (1 - alpha) ** n


def _brute_force_per_x(kind, setting, x, det_s, det_i):
    """Reference kernel by explicit sum over generation patterns, exact.

    Distinguishable pairs: walk all 2^x polarization assignments one by
    one.  Indistinguishable pairs: the collapsed pattern index is
    uniform.  Correlated pairs: the one all-H pattern.
    """
    qs = lambda n: _exact_click(det_s, n)
    qi = lambda n: _exact_click(det_i, n)
    if kind.correlated:
        return qs(x) * (qi(x) if setting is Setting.HH else qi(0))
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


def _click_error(det, x):
    """A bound, in units u = 2^-53, on the relative error of a float click
    d + (1-d)(1 - (1-a)^n) for n <= x, to first order: u each for 1-a,
    1-d, the product and the sum, 2u for pow, and the (n+1)u (1-a)^n
    error of (1-a)^n carried through 1 - (1-a)^n, at most (n+1)(1-a)/a u
    relative to it (n = 0 gives the dark count exactly)."""
    return 6 + (x + 1) * (1 - det.alpha) / det.alpha


def test_per_x_matches_pattern_enumeration_exactly():
    # the brute force is exact; a kernel multiplies two clicks (u), sums
    # the products correctly rounded (u), weights them by binomials (u),
    # sums again (u) and divides (u), all of positive terms
    det_s = DetectorModel(2 / 7, 1 / 50)
    det_i = DetectorModel(3 / 5, 1 / 200)
    for kind in SourceKind:
        for setting in (Setting.HH, Setting.HV):
            for x in range(13):
                got = per_x_coincidence(kind, setting, x, det_s, det_i)
                want = _brute_force_per_x(kind, setting, x, det_s, det_i)
                units = _click_error(det_s, x) + _click_error(det_i, x) + 5
                bound = Fraction(units * 1.001) * Fraction(2) ** -53 * want
                assert abs(Fraction(got) - want) <= bound, (kind, setting, x)


def test_plus_port_distribution_small_cases():
    assert plus_port_distribution(0) == ((1.0,),)
    assert plus_port_distribution(1) == ((0.5, 0.5), (0.5, 0.5))
    w = plus_port_distribution(2)
    assert w[0] == pytest.approx((0.25, 0.5, 0.25), abs=1e-15)
    # one H and one V photon bunch behind the diagonal splitter: both
    # exit the same port, the 1-1 split is forbidden
    assert w[1] == pytest.approx((0.5, 0.0, 0.5), abs=1e-15)
    assert w[2] == pytest.approx((0.25, 0.5, 0.25), abs=1e-15)


def _convolution_plus_port_distribution(x):
    """Reference table: the coefficients of (1+t)^(x-k) (t-1)^k by an
    explicit O(x^2) integer convolution per row, every row built."""
    fact = [math.factorial(n) for n in range(x + 1)]
    rows = []
    for k in range(x + 1):
        a = [math.comb(x - k, m) for m in range(x - k + 1)]
        b = [math.comb(k, n) * (-1) ** (k - n) for n in range(k + 1)]
        coeff = [0] * (x + 1)
        for m, am in enumerate(a):
            for n, bn in enumerate(b):
                coeff[m + n] += am * bn
        den = (1 << x) * fact[x - k] * fact[k]
        rows.append(
            tuple(coeff[p] * coeff[p] * fact[p] * fact[x - p] / den for p in range(x + 1))
        )
    return tuple(rows)


@pytest.mark.parametrize("x", [*range(61), 91, 150, 200])
def test_plus_port_recurrence_equals_the_convolution(x):
    # the same integers and the same int / int division: equal tuples
    assert plus_port_distribution(x) == _convolution_plus_port_distribution(x)


def test_plus_port_distribution_stops_at_the_hard_cap():
    # its cache grows like x^3, so x is bounded by the default hard_cap,
    # which is also the Monte-Carlo ladder's cap: about 28 MB in all
    cap = TruncationPolicy().hard_cap
    assert cap == HPLUS_X_CAP
    assert len(plus_port_distribution(cap)) == cap + 1
    # a detector pair no other test uses, so its table starts empty
    det = DetectorModel(0.3, 1.0003e-4)
    src = PairSource(SourceKind.INDIS_ENTANGLED, 20.0)
    advice = "lower hard_cap or mu, or use HplusModel.INDEPENDENT"
    with pytest.raises(CapExceeded, match=advice):
        plus_port_distribution(cap + 1)
    with pytest.raises(CapExceeded, match=advice):
        per_x_coincidence(src.kind, Setting.HPLUS, cap + 1, det, det)
    qs, qi, tables = polarization._store(det, det)

    def state():
        return (len(qs), len(qi), {key: len(ks) for key, ks in tables.items()},
                plus_port_distribution.cache_info().currsize,
                polarization._plus_port_block.cache_info().currsize)

    before = state()
    # x_max is checked against the cap before anything is tabulated
    with pytest.raises(CapExceeded, match=advice):
        coincidence_rate(src, Setting.HPLUS, det, det, TruncationPolicy(hard_cap=1000))
    assert state() == before
    assert plus_port_distribution.cache_info().currsize <= cap + 1
    # and below 0
    with pytest.raises(ValueError, match="x must be >= 0, got -1"):
        plus_port_distribution(-1)
    with pytest.raises(ValueError, match="x must be >= 0, got -1"):
        per_x_coincidence(src.kind, Setting.HPLUS, -1, det, det)
    # the independent model needs no table
    entry = coincidence_rate(src, Setting.HPLUS, det, det, TruncationPolicy(hard_cap=1000),
                             HplusModel.INDEPENDENT)
    assert entry.truncation_used > cap
    assert 0.0 < entry.value < 1.0


def _generator_coherent_kernel(x, det_s, det_i):
    """The coherent-H+ kernel of indistinguishable pairs as a generator
    sum over every row of the reference table."""
    qs = [click_prob(det_s, n) for n in range(x + 1)]
    qi = [click_prob(det_i, n) for n in range(x + 1)]
    w = _convolution_plus_port_distribution(x)
    terms = [qs[x - y] * math.fsum(w[y][p] * qi[p] for p in range(x + 1)) for y in range(x + 1)]
    return math.fsum(terms) / (x + 1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    x=st.integers(min_value=0, max_value=40),
    alpha_s=st.floats(min_value=0.0, max_value=1.0),
    alpha_i=st.floats(min_value=0.0, max_value=1.0),
    dark_s=st.floats(min_value=0.0, max_value=0.1),
    dark_i=st.floats(min_value=0.0, max_value=0.1),
)
def test_coherent_kernel_equals_the_generator_form(x, alpha_s, alpha_i, dark_s, dark_i):
    det_s, det_i = DetectorModel(alpha_s, dark_s), DetectorModel(alpha_i, dark_i)
    want = _generator_coherent_kernel(x, det_s, det_i)
    got = per_x_coincidence(SourceKind.INDIS_ENTANGLED, Setting.HPLUS, x, det_s, det_i)
    assert got.hex() == want.hex()
    # the shared kernel table of coincidence_rate holds the same value
    src = PairSource(SourceKind.INDIS_ENTANGLED, 0.5)
    weights = pmf_values(src, truncation_index(src, TruncationPolicy()))
    ref = math.fsum(
        w * _generator_coherent_kernel(n, det_s, det_i) for n, w in enumerate(weights)
    )
    assert coincidence_rate(src, Setting.HPLUS, det_s, det_i).value.hex() == ref.hex()


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
    message = rf"^{setting.value} has no per-x kernel; use coincidence_rate$"
    for x in (0, 1, 3):
        with pytest.raises(UnsupportedSetting, match=message):
            per_x_coincidence(kind, setting, x, det, det)


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


def _pair_source_mu(kind, mu):
    """What _closed_form_mu returns or raises, from PairSource alone."""
    try:
        held = PairSource(kind, mu).mu
        if held > polarization._CLOSED_FORM_MU_MAX:
            return CapExceeded, f"the closed forms hold for mu <= 1e+150, got mu={held!r}"
        return held.hex()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("kind", [*ENTANGLED, SourceKind.THERMAL_CORRELATED, "dis-entangled"])
@pytest.mark.parametrize("mu", [0.0, -0.0, 5e-324, 0.3, 1e150, math.nextafter(1e150, math.inf),
                                math.inf, math.nan, -1e-300, np.float64(0.3), np.float32(0.3), 2,
                                Fraction(1, 3), True, "0.3"])
def test_the_closed_forms_mu_is_what_pair_source_holds(kind, mu):
    # the float shortcut returns what the PairSource path returns, -0.0 too
    try:
        got = polarization._closed_form_mu(kind, mu).hex()
    except Exception as exc:
        got = type(exc), str(exc)
    assert got == _pair_source_mu(kind, mu)


_CLOSED_DARK = st.one_of(st.just(0.0), st.floats(1e-9, 0.5))


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(ENTANGLED),
    mus=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e150),
                           st.floats(-9.0, 2.0).map(lambda e: 10.0**e)), min_size=1, max_size=20),
    alphas=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    darks=st.tuples(_CLOSED_DARK, _CLOSED_DARK),
)
def test_the_array_closed_forms_equal_closed_form_rates_bit_for_bit(kind, mus, alphas, darks):
    # one float64 array pass gives each element the float that the scalar
    # forms give, in every field, signed zeros included
    det_s, det_i = DetectorModel(alphas[0], darks[0]), DetectorModel(alphas[1], darks[1])
    columns = polarization._closed_forms(kind, np.array(mus), det_s, det_i)
    fields = ("r_hh", "r_hv", "r_hplus", "single_s", "single_i")
    for k, mu in enumerate(mus):
        rep = closed_form_rates(kind, mu, alphas[0], alphas[1], *darks)
        for field, column in zip(fields, columns):
            assert column[k].item().hex() == getattr(rep, field).hex(), (field, mu)


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
    hh = entry.value
    hv = coincidence_rate(src, Setting.HV, det_s, det_i).value
    assert 0.0 <= hv <= 1.0 and 0.0 <= hh <= 1.0
    assert hh >= hv - 1e-15 * hh


def _series_reference(source, setting, det_s, det_i, policy, model):
    """coincidence_rate's value recomposed from per_x_coincidence."""
    weights = pmf_values(source, truncation_index(source, policy))
    return math.fsum(
        w * per_x_coincidence(source.kind, setting, x, det_s, det_i, model)
        for x, w in enumerate(weights)
    )


_CONFIGS = [(kind, setting, model)
            for kind in SourceKind
            for setting in (Setting.HH, Setting.HV, Setting.HPLUS)
            if not (kind.correlated and setting is Setting.HPLUS)
            for model in (HplusModel if setting is Setting.HPLUS else (HplusModel.COHERENT,))]


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_kernel_tables_match_the_per_x_series_in_any_mu_order(order):
    # the tables grow, are reused and are evicted in whatever order the
    # mu values come; every value must still be the per-x series
    rng = random.Random(f"kernel-tables:{order}")
    mus = sorted(math.exp(rng.uniform(math.log(1e-3), math.log(1.5))) for _ in range(5))
    if order == "descending":
        mus.reverse()
    policy = TruncationPolicy()
    pairs = [(DetectorModel(rng.uniform(0, 1), rng.choice((0.0, rng.uniform(0, 1e-2)))),
              DetectorModel(rng.uniform(0, 1), rng.choice((0.0, rng.uniform(0, 1e-2)))))
             for _ in range(3)]
    cases = [(kind, setting, model, pair, mu)
             for kind, setting, model in _CONFIGS for pair in pairs for mu in mus]
    if order == "shuffled":
        rng.shuffle(cases)
    for kind, setting, model, (det_s, det_i), mu in cases:
        src = PairSource(kind, mu)
        got = coincidence_rate(src, setting, det_s, det_i, policy, model).value
        want = _series_reference(src, setting, det_s, det_i, policy, model)
        assert got.hex() == want.hex(), (kind, setting, model, det_s, det_i, mu)
    # the coherent H+ table of float detectors grows in blocks of _BLOCK
    # pair numbers, through block edges in any order, up to the cap
    x_maxes = [0, 1, 5, _BLOCK - 1, _BLOCK, 40, 91, 120, 199, 200]
    if order == "descending":
        x_maxes.reverse()
    elif order == "shuffled":
        rng.shuffle(x_maxes)
    det_s, det_i = pairs[0]
    for x_max in x_maxes:
        ks = polarization._kernels(SourceKind.INDIS_ENTANGLED, Setting.HPLUS, det_s, det_i,
                                   HplusModel.COHERENT, x_max)[2]
    for x in (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 91, 199, 200):
        want = per_x_coincidence(SourceKind.INDIS_ENTANGLED, Setting.HPLUS, x, det_s, det_i)
        assert ks[x].hex() == want.hex(), x


def test_coherent_tables_equal_the_per_x_kernel_for_every_arm():
    # one growth path for every pair of arms, blind ones and perfect ones
    # included, across block edges
    dets = (DetectorModel(0.37, 2e-3), DetectorModel(1 / 3, 1e-3), DetectorModel(1.0, 0.0),
            DetectorModel(0.0, 0.0), DetectorModel(0.75))
    x_max = 2 * _BLOCK + 3
    for det_s in dets:
        for det_i in dets:
            ks = polarization._kernels(SourceKind.INDIS_ENTANGLED, Setting.HPLUS, det_s, det_i,
                                       HplusModel.COHERENT, x_max)[2]
            for x in range(x_max + 1):
                want = per_x_coincidence(SourceKind.INDIS_ENTANGLED, Setting.HPLUS, x,
                                         det_s, det_i)
                assert type(ks[x]) is float and ks[x].hex() == want.hex(), (det_s, det_i, x)


# three arms, one of them at unit efficiency, for the growth sequences below
_GROWTH_ARMS = (DetectorModel(0.37, 2e-3), DetectorModel(1.0, 0.0), DetectorModel(1 / 3, 1e-3))


@lru_cache(maxsize=None)
def _coherent_reference(s, i, x):
    """per_x_coincidence of coherent H+ for the arms s and i, kept across examples."""
    return per_x_coincidence(SourceKind.INDIS_ENTANGLED, Setting.HPLUS, x,
                             _GROWTH_ARMS[s], _GROWTH_ARMS[i])


_GROWTH_X_MAX = st.one_of(
    st.integers(min_value=0, max_value=HPLUS_X_CAP),
    st.sampled_from([_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK - 1, 3 * _BLOCK,
                     HPLUS_X_CAP - 1, HPLUS_X_CAP]),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(arms=st.tuples(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2)),
       x_maxes=st.lists(_GROWTH_X_MAX, min_size=1, max_size=6))
def test_coherent_tables_grow_in_whole_blocks_along_any_x_max_sequence(arms, x_maxes):
    # sequences stop mid-block, cross block edges, reach the cap, repeat
    # and descend; the table and its click lists end at a block's end or
    # at the cap, and every entry is the per-x kernel bit for bit
    polarization._store.cache_clear()
    det_s, det_i = (_GROWTH_ARMS[a] for a in arms)
    reached = -1
    for x_max in x_maxes:
        qs, qi, ks = polarization._kernels(SourceKind.INDIS_ENTANGLED, Setting.HPLUS, det_s,
                                           det_i, HplusModel.COHERENT, x_max)
        reached = max(reached, x_max)
        store_qs, store_qi, tables = polarization._store(det_s, det_i)
        assert store_qs is qs and store_qi is qi
        assert tables[SourceKind.INDIS_ENTANGLED, Setting.HPLUS, HplusModel.COHERENT] is ks
        assert reached < len(ks) <= min(_BLOCK * math.ceil((reached + 1) / _BLOCK),
                                        HPLUS_X_CAP + 1)
        assert len(qs) == len(qi) == len(ks)
    # the per-x kernels of nine arm pairs up to x = 200 cost seconds, so
    # past three blocks only the last x of each block is checked; a row
    # lost or shifted in a block would move it
    for x, k in enumerate(ks):
        if x < 3 * _BLOCK or x % _BLOCK == _BLOCK - 1 or x == len(ks) - 1:
            assert type(k) is float and k.hex() == _coherent_reference(*arms, x).hex(), (arms, x)


def test_growing_a_coherent_table_to_the_cap_stays_below_1_mb():
    # the block arrays are cached once; what a growth allocates itself is
    # formed a bounded chunk of block rows at a time
    for b in range(HPLUS_X_CAP // _BLOCK + 1):
        polarization._plus_port_block(b)
    # a detector pair no other test uses, so its table starts empty
    det_s, det_i = DetectorModel(0.41, 1.0007e-4), DetectorModel(0.29, 3.0007e-4)
    tracemalloc.start()
    try:
        ks = polarization._kernels(SourceKind.INDIS_ENTANGLED, Setting.HPLUS, det_s, det_i,
                                   HplusModel.COHERENT, HPLUS_X_CAP)[2]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ks) == HPLUS_X_CAP + 1
    assert peak < 1_000_000


def test_kernel_tables_survive_more_pairs_than_they_hold():
    # 100 detector pairs over two configurations overflow the table cache;
    # the first pairs come back after eviction, at a larger mu
    rng = random.Random("kernel-tables:eviction")
    pairs = [(DetectorModel(rng.uniform(0, 1), rng.uniform(0, 1e-3)),
              DetectorModel(rng.uniform(0, 1), rng.uniform(0, 1e-3))) for _ in range(100)]
    for mu in (0.3, 0.05, 1.2):
        for kind, setting in ((SourceKind.INDIS_ENTANGLED, Setting.HH),
                              (SourceKind.DIS_ENTANGLED, Setting.HV)):
            src = PairSource(kind, mu)
            for det_s, det_i in pairs:
                got = coincidence_rate(src, setting, det_s, det_i).value
                want = _series_reference(src, setting, det_s, det_i, TruncationPolicy(),
                                         HplusModel.COHERENT)
                assert got.hex() == want.hex(), (kind, setting, mu, det_s, det_i)


def test_kernel_tables_are_safe_to_share_between_threads():
    # eight threads grow the same tables at once, at every mu order; a
    # lost or doubled append would shift every later kernel
    # a detector pair no other test uses, so its tables start empty
    det_s, det_i = DetectorModel(0.37, 1.0001e-4), DetectorModel(0.61, 3.0001e-4)
    policy = TruncationPolicy()
    mus = [0.05 * 1.3**j for j in range(12)]
    want = {(kind, mu): _series_reference(PairSource(kind, mu), Setting.HH, det_s, det_i,
                                          policy, HplusModel.COHERENT)
            for kind in (SourceKind.DIS_ENTANGLED, SourceKind.INDIS_ENTANGLED) for mu in mus}
    errors = []

    def worker(seed):
        order = list(want)
        random.Random(seed).shuffle(order)
        for kind, mu in order:
            got = coincidence_rate(PairSource(kind, mu), Setting.HH, det_s, det_i, policy).value
            if got != want[kind, mu]:
                errors.append((kind, mu, got, want[kind, mu]))

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


def _count_clicks(monkeypatch) -> list:
    """Every click_prob call the series makes from now on, one entry each."""
    calls = []

    def counted(det, n):
        calls.append(n)
        return click_prob(det, n)

    monkeypatch.setattr(polarization, "click_prob", counted)
    return calls


_SWEEP_DETECTORS = ["--alpha-s", "0.31", "--alpha-i", "0.22", "--dark-s", "1e-4",
                    "--dark-i", "2e-4"]


def test_a_car_sweep_computes_each_click_once(monkeypatch, capsys):
    # the matched and the two single series of all 12 points read one
    # store: each arm's clicks up to the x_max of the largest mu, once
    polarization._store.cache_clear()
    calls = _count_clicks(monkeypatch)
    assert main(["car", "--source", "thermal-correlated", "--mu-range", "0.01:3:12:log",
                 *_SWEEP_DETECTORS]) == 0
    x_max = truncation_index(PairSource(SourceKind.THERMAL_CORRELATED, 3.0), TruncationPolicy())
    assert len(capsys.readouterr().out.splitlines()) > 12
    assert len(calls) <= 2 * (x_max + 1)


def test_a_visibility_sweep_shares_one_pair_of_click_lists(monkeypatch, capsys):
    # HH and HV of both kinds: four K lists beside one pair of click lists
    polarization._store.cache_clear()
    calls = _count_clicks(monkeypatch)
    assert main(["visibility-curve", "--mu-range", "0.01:5:12:log", *_SWEEP_DETECTORS]) == 0
    policy = TruncationPolicy()
    x_max = max(truncation_index(PairSource(kind, 5.0), policy) for kind in ENTANGLED)
    assert len(calls) == 2 * (x_max + 1)
    assert polarization._store.cache_info().currsize == 1
    det_s, det_i = DetectorModel(0.31, 1e-4), DetectorModel(0.22, 2e-4)
    qs, qi, tables = polarization._store(det_s, det_i)
    assert len(qs) == len(qi) == x_max + 1
    assert set(tables) == {(kind, setting, None) for kind in ENTANGLED
                           for setting in (Setting.HH, Setting.HV)}


def _fresh_single(source, det, policy):
    """single_rate as a fresh click list summed per x, the store's reference."""
    x_max = truncation_index(source, policy)
    weights = pmf_values(source, x_max)
    q = [click_prob(det, n) for n in range(x_max + 1)]

    def mean(x):
        terms = q[x::-1]
        if source.kind is SourceKind.DIS_ENTANGLED:
            return math.fsum(math.comb(x, y) * t for y, t in enumerate(terms)) / (1 << x)
        if source.kind is SourceKind.INDIS_ENTANGLED:
            return math.fsum(terms) / (x + 1)
        return terms[0]

    return math.fsum(weights[x] * mean(x) for x in range(x_max + 1))


def _fresh_car(source, det_s, det_i, policy):
    """CAR's matched and unmatched rates and their ratio from fresh click lists."""
    x_max = truncation_index(source, policy)
    weights = pmf_values(source, x_max)
    qs = [click_prob(det_s, x) for x in range(x_max + 1)]
    qi = [click_prob(det_i, x) for x in range(x_max + 1)]
    matched = math.fsum(w * a * b for w, a, b in zip(weights, qs, qi))
    unmatched = math.fsum(w * a for w, a in zip(weights, qs)) * math.fsum(
        w * b for w, b in zip(weights, qi)
    )
    return matched, unmatched, matched / unmatched if unmatched > 0 else math.inf


_ARMS = st.one_of(
    st.builds(DetectorModel, st.floats(min_value=0.0, max_value=1.0),
              st.floats(min_value=0.0, max_value=0.01)),
    st.builds(DetectorModel, st.integers(min_value=0, max_value=1), st.just(0)),
    st.builds(DetectorModel, st.fractions(min_value=0, max_value=1, max_denominator=16),
              st.fractions(min_value=0, max_value=Fraction(1, 100), max_denominator=1000)),
    st.builds(DetectorModel, st.sampled_from([0, 1, Fraction(1, 3)]),
              st.floats(min_value=0.0, max_value=0.01)),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(list(SourceKind)), mu=st.floats(min_value=0.0, max_value=1.0),
       det_s=_ARMS, det_i=_ARMS, model=st.sampled_from(list(HplusModel)))
def test_stored_series_equal_fresh_click_lists(kind, mu, det_s, det_i, model):
    # single_rate, car and coincidence_rate read the stores; each equals its
    # fresh-list formula bit for bit, whatever number types the arms hold
    src, policy = PairSource(kind, mu), TruncationPolicy()
    for det in (det_s, det_i):
        assert single_rate(src, det, policy).hex() == _fresh_single(src, det, policy).hex()
    for setting in Setting:
        try:
            twin, res_s, res_i = setting.resolve(kind, det_s, det_i)
        except UnsupportedSetting:
            continue
        got = coincidence_rate(src, setting, det_s, det_i, policy, model).value
        if twin is Setting.SINGLE_S or twin is Setting.SINGLE_I:
            want = _fresh_single(src, res_s if twin is Setting.SINGLE_S else res_i, policy)
        elif twin is Setting.CAR_MATCHED or twin is Setting.CAR_UNMATCHED:
            want = _fresh_car(src, res_s, res_i, policy)[twin is Setting.CAR_UNMATCHED]
        else:
            want = _series_reference(src, twin, res_s, res_i, policy, model)
        assert type(got) is float and got.hex() == want.hex(), (setting, got, want)
    if kind.correlated:
        res = car(src, det_s.alpha, det_i.alpha, det_s.dark, det_i.dark, policy)
        want = _fresh_car(src, det_s, det_i, policy)
        assert [v.hex() for v in (res.matched_rate, res.unmatched_rate, res.car)] == [
            v.hex() for v in want]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kind=st.sampled_from(list(SourceKind)), mu=st.floats(min_value=0.0, max_value=5.0),
       det_s=_ARMS, det_i=_ARMS, model=st.sampled_from(list(HplusModel)))
def test_coincidence_rate_is_the_one_exact_rate_of_every_setting(kind, mu, det_s, det_i, model):
    # every setting resolves inside coincidence_rate, and its value is the
    # bench replay's recomposition bit for bit: the pmf times the per-x
    # kernel (time-bin twins at alpha/2), the click lists for singles, and
    # CAR's (P q_s) q_i or its product of single sums
    src, policy = PairSource(kind, mu), TruncationPolicy()
    x_max = truncation_index(src, policy)
    values = {}
    for setting in Setting:
        try:
            twin, res_s, res_i = setting.resolve(kind, det_s, det_i)
        except UnsupportedSetting as refused:
            with pytest.raises(UnsupportedSetting) as got:
                coincidence_rate(src, setting, det_s, det_i, policy, model)
            assert str(got.value) == str(refused)
            continue
        entry = coincidence_rate(src, setting, det_s, det_i, policy, model)
        if twin is Setting.SINGLE_S or twin is Setting.SINGLE_I:
            want = _fresh_single(src, res_s if twin is Setting.SINGLE_S else res_i, policy)
        elif twin is Setting.CAR_MATCHED or twin is Setting.CAR_UNMATCHED:
            want = _fresh_car(src, res_s, res_i, policy)[twin is Setting.CAR_UNMATCHED]
        else:
            want = _series_reference(src, twin, res_s, res_i, policy, model)
        assert type(entry.value) is float and entry.value.hex() == want.hex(), setting
        assert entry.setting is twin
        assert entry.truncation_used == x_max
        values[setting] = entry.value
    # each multi-rate result holds its settings' entries, bit for bit
    a_s, a_i, d_s, d_i = det_s.alpha, det_i.alpha, det_s.dark, det_i.dark
    if kind.correlated:
        res = car(src, a_s, a_i, d_s, d_i, policy, RateMethod.EXACT_SERIES)
        assert [res.matched_rate.hex(), res.unmatched_rate.hex()] == [
            values[Setting.CAR_MATCHED].hex(), values[Setting.CAR_UNMATCHED].hex()]
        return
    hh, hv, hp = values[Setting.HH], values[Setting.HV], values[Setting.HPLUS]
    total = hh + hv
    want = (hh - hv) / total if total > 0 else 1.0
    assert visibility_exact(src, a_s, a_i, d_s, d_i, policy).visibility.hex() == want.hex()
    vec = assemble_r(kind, mu, a_s, a_i, d_s, d_i, policy, RateMethod.EXACT_SERIES, model)
    want = [hh if j in PARALLEL_INDICES else hv if j in CROSSED_INDICES else hp
            for j in range(16)]
    assert [v.hex() for v in vec.r] == [v.hex() for v in want]


def _count_walks(monkeypatch) -> list:
    """Record each start of a pmf walk: every walk begins at P(0)."""
    calls = []
    pmf0 = distributions._pmf0

    def counted(source):
        calls.append(source)
        return pmf0(source)

    monkeypatch.setattr(distributions, "_pmf0", counted)
    return calls


_ONE_WALK = {
    "coincidence_rate": lambda kind, det: coincidence_rate(
        PairSource(kind, 0.7), Setting.HH, det, det),
    "single_rate": lambda kind, det: single_rate(PairSource(kind, 0.7), det),
    "timebin_rate": lambda kind, det: timebin_rate(
        kind, TimebinPort.APLUS, 0.7, det.alpha, det.alpha, det.dark, det.dark),
    "visibility_exact": lambda kind, det: visibility_exact(
        PairSource(kind, 0.7), det.alpha, det.alpha, det.dark, det.dark),
    "car": lambda kind, det: car(PairSource(kind, 0.7), det.alpha, det.alpha, det.dark,
                                 det.dark, method=RateMethod.EXACT_SERIES),
    "assemble_r": lambda kind, det: assemble_r(kind, 0.7, det.alpha, det.alpha, det.dark,
                                               det.dark, method=RateMethod.EXACT_SERIES),
}


@pytest.mark.parametrize("name", list(_ONE_WALK))
def test_each_exact_call_walks_the_pmf_once(monkeypatch, name):
    # one walk certifies x_max and yields the weights; the multi-rate
    # results sum all their settings over it
    kind = SourceKind.DIS_CORRELATED if name == "car" else SourceKind.INDIS_ENTANGLED
    calls = _count_walks(monkeypatch)
    for det in (DetectorModel(0.3, 1e-4), DetectorModel(0.3, 1e-4), DetectorModel(0.41)):
        calls.clear()
        _ONE_WALK[name](kind, det)
        assert len(calls) == 1, (name, det)


_CLOSED = {
    "timebin_rate": lambda **kw: timebin_rate(
        SourceKind.INDIS_ENTANGLED, TimebinPort.APLUS, 0.3, 0.2, 0.1,
        method=RateMethod.CLOSED_FORM, **kw),
    "assemble_r": lambda **kw: assemble_r(SourceKind.INDIS_ENTANGLED, 0.3, 0.2, 0.1, **kw),
    "car": lambda **kw: car(PairSource(SourceKind.THERMAL_CORRELATED, 0.3), 0.2, 0.1,
                            method=RateMethod.CLOSED_FORM, **kw),
}


@pytest.mark.parametrize("name, parameter, value", [
    ("timebin_rate", "policy", TruncationPolicy(tail_epsilon=1e-15)),
    ("timebin_rate", "policy", TruncationPolicy(hard_cap=3)),
    ("timebin_rate", "hplus_model", HplusModel.INDEPENDENT),
    ("assemble_r", "policy", TruncationPolicy(tail_epsilon=1e-15)),
    ("assemble_r", "policy", TruncationPolicy(hard_cap=3)),
    ("assemble_r", "hplus_model", HplusModel.INDEPENDENT),
    ("car", "policy", TruncationPolicy(tail_epsilon=1e-15)),
    ("car", "policy", TruncationPolicy(hard_cap=3)),
])
def test_the_closed_forms_refuse_the_series_parameters(name, parameter, value):
    # the closed forms read neither parameter: a value other than the
    # default is refused by name, where it used to be silently ignored
    with pytest.raises(ValueError) as exc:
        _CLOSED[name](**{parameter: value})
    assert str(exc.value) == f"the closed forms read no {parameter}, got {parameter}={value!r}"
    # the default, and an equal policy built apart (as the CLI builds one),
    # are accepted; a string model is refused by the enum rule, as before
    default = {"policy": polarization._DEFAULT_POLICY, "hplus_model": HplusModel.COHERENT}
    assert _CLOSED[name](**{parameter: default[parameter]}) == _CLOSED[name]()
    if parameter == "policy":
        assert _CLOSED[name](policy=TruncationPolicy()) == _CLOSED[name]()
    else:
        with pytest.raises(TypeError, match="^hplus_model must be a HplusModel, got 'x'$"):
            _CLOSED[name](hplus_model="x")


@pytest.mark.parametrize("function", [coincidence_rate, single_rate, timebin_rate,
                                      visibility_exact, car, assemble_r])
def test_every_rate_defaults_to_the_one_policy_instance(function):
    # the closed path compares against the default without building one
    default = inspect.signature(function).parameters["policy"].default
    assert default is polarization._DEFAULT_POLICY == TruncationPolicy()


_TERMS = st.one_of(
    st.just(0.0),
    st.floats(min_value=2.0**-1074, max_value=1.0),
    st.sampled_from([2.0**-1074, 2.0**-1022, 2.0**-53, 0.5, 1.0]),
)


@st.composite
def _half_ulp_tie(draw):
    """An exact tie, a plus half the gap above it or a power of two p
    less half the (halved) gap below it, maybe nudged off the tie."""
    if draw(st.booleans()):
        a = draw(st.floats(min_value=2.0**-1000, max_value=0.5))
        half = math.ulp(a) / 2
        row = [a, draw(st.sampled_from([half, half * (1 - 2.0**-53)]))]
    else:
        p = 2.0 ** draw(st.integers(min_value=-900, max_value=0))
        half = p * 2.0**-54
        row = [p / 2, p / 2 - 2 * half, draw(st.sampled_from([half, half * (1 - 2.0**-53)]))]
    return row + draw(st.lists(st.sampled_from([0.0, half * 2.0**-60]), max_size=2))


@st.composite
def _kernel_row(draw):
    """w[y][p] * qi[p] of a coherent H+ row, at extreme detectors too,
    maybe scaled down until the products are subnormal."""
    x = draw(st.integers(min_value=0, max_value=60))
    det = draw(st.sampled_from([DetectorModel(1.0, 0.0), DetectorModel(0.3, 0.0),
                                DetectorModel(1e-9, 0.0), DetectorModel(0.2, 1 - 2.0**-40),
                                DetectorModel(1.0, 1 - 2.0**-52)]))
    scale = draw(st.sampled_from([1.0, 2.0**-1000, 2.0**-1040]))
    w = plus_port_distribution(x)[draw(st.integers(min_value=0, max_value=x))]
    return [p * click_prob(det, n) * scale for n, p in enumerate(w)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    rows=st.lists(
        st.one_of(
            st.lists(_TERMS, min_size=1, max_size=40),
            st.tuples(_TERMS, st.integers(min_value=1, max_value=70)).map(lambda t: [t[0]] * t[1]),
            _half_ulp_tie(),
            _kernel_row(),
        ),
        min_size=1, max_size=6,
    ),
    slack=st.sampled_from([1.0, 2.0, 1e6]),
)
def test_certified_row_sums_equal_fsum(rows, slack):
    # each row alone, and all rows zero-padded in one array as the kernel
    # blocks are; any bound at or above the largest term is allowed
    want = [math.fsum(row).hex() for row in rows]
    alone = [_row_sums(np.array([row]), max(row) * slack)[0] for row in rows]
    assert [v.hex() for v in alone] == want
    width = max(map(len, rows))
    terms = np.array([row + [0.0] * (width - len(row)) for row in rows])
    together = _row_sums(terms, float(terms.max()) * slack)
    assert [v.hex() for v in together] == want


def test_certified_row_sums_fall_back_on_near_ties():
    # 1 + 2^-53 is a tie that rounds to 1.0, and 2^-113 tips the exact sum
    # over it, to 1 + 2^-52; the low parts sum to 2^-53, so the uncertified
    # tau + rho is 1.0, and only the math.fsum fallback gets it right
    above = [1.0, 2.0**-53, 2.0**-113]
    # the same just below the power of two, where the gap is halved: the
    # exact sum 1 - 2^-54 - 2^-107 rounds down, its tau + rho rounds to 1.0
    below = [0.5, 0.5 - 2.0**-53, 2.0**-54 - 2.0**-107]
    want = [1.0 + 2.0**-52, 1.0 - 2.0**-53]
    assert [math.fsum(above), math.fsum(below)] == want
    assert _row_sums(np.array([above, below]), 1.0) == want
