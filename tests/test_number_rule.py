"""The number rule: every real input is held as a float, so an int, a
Fraction or a numpy real computes as its float twin on every path."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from biphoton import (
    DensityMatrix,
    DetectorModel,
    HplusModel,
    Objective,
    PairSource,
    RateMethod,
    Setting,
    SourceKind,
    TimebinPort,
    TomographyVector,
    TruncationPolicy,
    UnsupportedSetting,
    assemble_r,
    car,
    click_prob,
    closed_form_concurrence,
    closed_form_rates,
    closed_form_rho,
    coincidence_rate,
    concurrence,
    enumerate_rate,
    mc_rate,
    optimize_mu,
    per_x_coincidence,
    pmf,
    pmf_values,
    reconstruct,
    single_rate,
    timebin_rate,
    truncation_index,
    visibility_approx,
    visibility_exact,
)
from biphoton.tomography import CROSSED_INDICES, PARALLEL_INDICES

ENTANGLED = (SourceKind.DIS_ENTANGLED, SourceKind.INDIS_ENTANGLED)
CORRELATED = (SourceKind.DIS_CORRELATED, SourceKind.THERMAL_CORRELATED)

# each set holds mu, the two arms' (alpha, dark), a mu bracket and the
# three rates (HH, HV, H+) of a tomography vector, in other number types
# than float
_INPUTS = {
    "int": dict(mu=1, arms=((1, 0), (1, 0)), bracket=(1, 3), rates=(5, 1, 3)),
    "fraction": dict(mu=Fraction(3, 10), arms=((Fraction(1, 3), Fraction(1, 1000)),
                                               (Fraction(3, 4), Fraction(1, 7))),
                     bracket=(Fraction(1, 10000), Fraction(1)),
                     rates=(Fraction(5, 3), Fraction(1, 3), Fraction(1))),
    "float32": dict(mu=np.float32(0.3), arms=((np.float32(0.1), np.float32(1e-5)),
                                              (np.float32(0.7), np.float32(2e-4))),
                    bracket=(np.float32(1e-4), np.float32(1)),
                    rates=(np.float32(0.5), np.float32(0.1), np.float32(0.3))),
    "int64": dict(mu=np.int64(2), arms=((np.int64(1), np.int64(0)), (np.int64(1), np.int64(0))),
                  bracket=(np.int64(1), np.int64(4)),
                  rates=(np.int64(5), np.int64(1), np.int64(3))),
    "mixed": dict(mu=Fraction(1, 5), arms=((Fraction(1, 3), np.float32(1e-4)),
                                           (np.int64(1), np.float64(3e-4))),
                  bracket=(np.float64(1e-3), 2), rates=(Fraction(5, 7), np.float32(0.1), np.float32(0.4))),
}


def _twin(inputs: dict) -> SimpleNamespace:
    """The inputs as they are, and as Python floats."""
    return (SimpleNamespace(**inputs),
            SimpleNamespace(mu=float(inputs["mu"]),
                            arms=tuple((float(a), float(d)) for a, d in inputs["arms"]),
                            bracket=tuple(float(v) for v in inputs["bracket"]),
                            rates=tuple(float(v) for v in inputs["rates"])))


def _settings(kind):
    for setting in Setting:
        try:
            setting.resolve(kind, DetectorModel(0.5), DetectorModel(0.5))
        except UnsupportedSetting:
            continue
        yield setting


def _rates(rate):
    """``rate(source, setting, det_s, det_i, model)`` for every kind, setting
    and H+ model."""
    def call(v):
        det_s, det_i = (DetectorModel(*arm) for arm in v.arms)
        return [rate(PairSource(kind, v.mu), setting, det_s, det_i, model)
                for kind in SourceKind for setting in _settings(kind) for model in HplusModel]
    return call


def _kinds(fn, kinds=ENTANGLED):
    """``fn(kind, mu, alpha_s, alpha_i, dark_s, dark_i, bracket)`` for each kind."""
    def call(v):
        (alpha_s, dark_s), (alpha_i, dark_i) = v.arms
        return [fn(kind, v.mu, alpha_s, alpha_i, dark_s, dark_i, v.bracket) for kind in kinds]
    return call


def _optimize(objective):
    return _kinds(lambda kind, mu, *reals: optimize_mu(kind, *reals[:4], objective, reals[4]))


def _car(method):
    return _kinds(lambda kind, mu, *reals: car(PairSource(kind, mu), *reals[:4], method=method),
                  CORRELATED)


def _tomography(v):
    hh, hv, hp = v.rates
    r = [hp] * 16
    for j in PARALLEL_INDICES:
        r[j] = hh
    for j in CROSSED_INDICES:
        r[j] = hv
    rho = reconstruct(r)
    return [TomographyVector(tuple(r), RateMethod.CLOSED_FORM), rho, concurrence(rho),
            reconstruct(np.array(r))]


_ENTRY_POINTS = {
    "PairSource": lambda v: [PairSource(kind, v.mu) for kind in SourceKind],
    "DetectorModel": lambda v: [DetectorModel(*arm) for arm in v.arms],
    "click_prob": lambda v: [click_prob(DetectorModel(*arm), n) for arm in v.arms
                             for n in range(6)],
    "pmf": lambda v: [pmf(PairSource(kind, v.mu), 3) for kind in SourceKind],
    "pmf_values": lambda v: [pmf_values(PairSource(kind, v.mu), 8) for kind in SourceKind],
    "truncation_index": lambda v: [truncation_index(PairSource(kind, v.mu), TruncationPolicy())
                                   for kind in SourceKind],
    "per_x_coincidence": lambda v: [
        per_x_coincidence(kind, setting, x, *(DetectorModel(*arm) for arm in v.arms), model)
        for kind in ENTANGLED for setting in (Setting.HH, Setting.HV, Setting.HPLUS)
        for model in HplusModel for x in range(8)],
    "coincidence_rate": _rates(lambda src, setting, det_s, det_i, model: coincidence_rate(
        src, setting, det_s, det_i, hplus_model=model)),
    "single_rate": lambda v: [single_rate(PairSource(kind, v.mu), DetectorModel(*arm))
                              for kind in SourceKind for arm in v.arms],
    "enumerate_rate": _rates(lambda src, setting, det_s, det_i, model: enumerate_rate(
        src, setting, det_s, det_i, 14, model)),
    "mc_rate": _rates(lambda src, setting, det_s, det_i, model: mc_rate(
        src, setting, det_s, det_i, 20_000, seed=5, hplus_model=model)),
    "closed_form_rates": _kinds(lambda kind, *reals: closed_form_rates(kind, *reals[:5])),
    "timebin_rate-exact": _kinds(lambda kind, *reals: [
        timebin_rate(kind, port, *reals[:5], hplus_model=model)
        for port in TimebinPort for model in HplusModel]),
    "timebin_rate-closed": _kinds(lambda kind, *reals: [
        timebin_rate(kind, port, *reals[:5], method=RateMethod.CLOSED_FORM)
        for port in TimebinPort]),
    "assemble_r-exact": _kinds(lambda kind, *reals: [
        assemble_r(kind, *reals[:5], method=RateMethod.EXACT_SERIES, hplus_model=model)
        for model in HplusModel]),
    "assemble_r-closed": _kinds(lambda kind, *reals: assemble_r(kind, *reals[:5])),
    "visibility_exact": _kinds(lambda kind, mu, *reals: visibility_exact(
        PairSource(kind, mu), *reals[:4])),
    "visibility_approx": _kinds(lambda kind, mu, *reals: visibility_approx(kind, mu)),
    "closed_form_rho": _kinds(lambda kind, mu, *reals: closed_form_rho(kind, mu)),
    "closed_form_concurrence": _kinds(lambda kind, mu, *reals: closed_form_concurrence(kind, mu)),
    "car-exact": _car(RateMethod.EXACT_SERIES),
    "car-closed": _car(RateMethod.CLOSED_FORM),
    "optimize_mu-visibility": _optimize(Objective.MAX_VISIBILITY),
    "optimize_mu-coincidence-times-visibility": _optimize(
        Objective.MAX_COINCIDENCE_TIMES_VISIBILITY),
    "optimize_mu-concurrence": _optimize(Objective.MAX_CONCURRENCE),
    "tomography": _tomography,
}


def _leaves(value) -> list:
    """A result as a flat list of (type, value) leaves, each float by its bits;
    a value type (a named tuple) leads its fields with its type and field names."""
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        fields = [_leaves(getattr(value, name)) for name in value._fields]
        return [(type(value), value._fields), *(leaf for leaves in fields for leaf in leaves)]
    if isinstance(value, (tuple, list)):
        return [leaf for v in value for leaf in _leaves(v)]
    if isinstance(value, DensityMatrix):
        return [(np.ndarray, value.matrix.dtype, value.matrix.tobytes()), *_leaves(value.psd_clip)]
    if isinstance(value, float):
        return [(type(value), value.hex())]
    return [(type(value), value)]


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_every_real_input_computes_as_its_float_twin(entry):
    # bit for bit, as Python floats: no path keeps an int or a Fraction
    # exact, or runs a numpy float32 in single precision
    call = _ENTRY_POINTS[entry]
    for name, inputs in _INPUTS.items():
        given, twin = _twin(inputs)
        got, want = _leaves(call(given)), _leaves(call(twin))
        assert got == want, (entry, name)
        assert all(leaf[0] is float for leaf in want if issubclass(leaf[0], np.floating)), name


@pytest.mark.parametrize("make", [
    lambda: DetectorModel(10**400),
    lambda: DetectorModel(0.5, Fraction(10**400)),
    lambda: DetectorModel(-(10**400)),
    lambda: PairSource(SourceKind.DIS_ENTANGLED, Fraction(10**400)),
    lambda: optimize_mu(SourceKind.DIS_ENTANGLED, 0.1, 0.1, 0.0, 0.0, Objective.MAX_VISIBILITY,
                        (1e-3, 10**400)),
    lambda: TruncationPolicy(Fraction(10**400)),
    lambda: reconstruct([10**400] + [1] * 15),
], ids=["alpha", "dark", "negative-alpha", "mu", "bracket", "tail_epsilon", "rates"])
def test_reals_beyond_the_float_range_are_refused_by_range(make):
    # float() of such a value overflows; the rule holds it as an infinity,
    # which the range check refuses by name
    with pytest.raises(ValueError, match="must lie in|must be finite|must satisfy"):
        make()


@pytest.mark.parametrize("eps", [Fraction(1, 10**12), np.float64(1e-12), np.float32(1e-6),
                                 Fraction(1, 3)])
def test_a_tail_epsilon_is_held_as_its_float(eps):
    policy = TruncationPolicy(eps)
    assert type(policy.tail_epsilon) is float
    assert policy == TruncationPolicy(float(eps))
    for kind in SourceKind:
        src = PairSource(kind, 2.5)
        assert truncation_index(src, policy) == truncation_index(src, TruncationPolicy(float(eps)))


def test_the_default_tail_epsilon_as_a_fraction_is_the_default_policy():
    # so the closed forms, which refuse any other policy, take it
    policy = TruncationPolicy(Fraction(1, 10**12))
    assert policy == TruncationPolicy()
    got = assemble_r(SourceKind.INDIS_ENTANGLED, 0.3, 0.2, 0.1, policy=policy)
    assert got == assemble_r(SourceKind.INDIS_ENTANGLED, 0.3, 0.2, 0.1)


@pytest.mark.parametrize("eps", ["a", None, True, 1e-12j])
def test_a_tail_epsilon_that_is_not_real_is_refused_by_name(eps):
    with pytest.raises(TypeError, match=f"tail_epsilon must be a real number, got {eps!r}"):
        TruncationPolicy(eps)


@pytest.mark.parametrize("make, entry", [
    (lambda: reconstruct(["1"] * 16), "1"),
    (lambda: reconstruct([True] * 16), True),
    (lambda: reconstruct(np.array([True] * 16)), np.True_),
    (lambda: reconstruct([0.5] * 15 + [True]), True),
    (lambda: reconstruct([None] * 16), None),
    (lambda: reconstruct(np.full(16, 0.5 + 0j)), np.complex128(0.5 + 0j)),
    (lambda: TomographyVector(("1",) * 16, RateMethod.CLOSED_FORM), "1"),
    (lambda: TomographyVector((0.5,) * 15 + (False,), RateMethod.CLOSED_FORM), False),
], ids=["str", "bool", "bool-array", "bool-among-floats", "none", "complex-array",
        "vector-str", "vector-bool"])
def test_a_rate_that_is_not_real_is_refused_by_name(make, entry):
    # numpy would take each of these as a float, a bool among floats included
    with pytest.raises(TypeError) as exc:
        make()
    assert str(exc.value) == f"r must be a real number, got {entry!r}"
