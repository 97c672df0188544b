"""Tomography: projector table, linear inversion, closed-form states,
and concurrence."""

import math

import numpy as np
import pytest

from biphoton import (
    DensityMatrix,
    HplusModel,
    NotPhysical,
    RateMethod,
    SourceKind,
    TomographyVector,
    UnsupportedSetting,
    assemble_r,
    closed_form_concurrence,
    closed_form_rates,
    closed_form_rho,
    concurrence,
    projectors,
    reconstruct,
)
from biphoton.tomography import (
    BASIS_LABELS,
    CROSSED_INDICES,
    DESIGN_MATRIX,
    PARALLEL_INDICES,
    PROJECTION_STATES,
)

ENTANGLED = (SourceKind.DIS_ENTANGLED, SourceKind.INDIS_ENTANGLED)

BELL = np.zeros((4, 4), dtype=complex)
BELL[0, 0] = BELL[0, 3] = BELL[3, 0] = BELL[3, 3] = 0.5


def test_projector_table_properties():
    pis = projectors()
    assert len(pis) == len(PROJECTION_STATES) == 16
    for pi in pis:
        assert pi.shape == (4, 4)
        assert np.allclose(pi, pi.conj().T, atol=1e-15)
        assert np.allclose(pi @ pi, pi, atol=1e-15)
        assert pi.trace().real == pytest.approx(1.0, abs=1e-15)
    # the index sets match the Bell-state overlaps of the table entries
    for j, pi in enumerate(pis):
        overlap = np.trace(pi @ BELL).real
        if j in PARALLEL_INDICES:
            want = 0.5
        elif j in CROSSED_INDICES:
            want = 0.0
        else:
            want = 0.25
        assert overlap == pytest.approx(want, abs=1e-15), j
    # the table is tomographically complete, so reconstruct can solve
    assert np.linalg.matrix_rank(DESIGN_MATRIX, tol=1e-10) == 16


def test_assemble_r_places_the_three_rates():
    rep = closed_form_rates(SourceKind.DIS_ENTANGLED, 0.2, 0.3, 0.4, 1e-4, 2e-4)
    vec = assemble_r(SourceKind.DIS_ENTANGLED, 0.2, 0.3, 0.4, 1e-4, 2e-4)
    assert vec.method is RateMethod.CLOSED_FORM
    assert vec.hplus_model is None
    for j, v in enumerate(vec.r):
        if j in PARALLEL_INDICES:
            assert v == rep.r_hh
        elif j in CROSSED_INDICES:
            assert v == rep.r_hv
        else:
            assert v == rep.r_hplus


def test_assemble_r_single_pair_limit():
    vec = assemble_r(SourceKind.INDIS_ENTANGLED, 1e-8, 0.2, 0.2)
    assert vec.r[1] / vec.r[0] <= 1e-8
    assert vec.r[4] / vec.r[0] == pytest.approx(0.5, abs=1e-7)


def test_exact_series_vector_is_labeled():
    vec = assemble_r(
        SourceKind.DIS_ENTANGLED, 0.1, 0.1, 0.1,
        method=RateMethod.EXACT_SERIES, hplus_model=HplusModel.INDEPENDENT,
    )
    assert vec.method is RateMethod.EXACT_SERIES
    assert vec.hplus_model is HplusModel.INDEPENDENT
    with pytest.raises(ValueError):
        assemble_r(SourceKind.DIS_ENTANGLED, 0.1, 0.1, 0.1, method="oracle")
    with pytest.raises(UnsupportedSetting):
        assemble_r(SourceKind.DIS_CORRELATED, 0.1, 0.1, 0.1)


def test_reconstruction_closes_on_closed_form_state():
    # unequal efficiencies scale all 16 rates together, so they drop out
    for kind in ENTANGLED:
        for mu in (0.01, 0.1, 0.3, 1.0):
            vec = assemble_r(kind, mu, 0.13, 0.27)
            rho = reconstruct(vec)
            want = closed_form_rho(kind, mu)
            assert np.max(np.abs(rho.matrix - want.matrix)) <= 1e-10, (kind, mu)
            assert rho.psd_clip == 0.0


def test_reconstruction_frozen_populations():
    rho = reconstruct(assemble_r(SourceKind.DIS_ENTANGLED, 0.3, 0.1, 0.1))
    diag = np.real(np.diag(rho.matrix))
    assert diag[0] == pytest.approx(0.44231, abs=1e-5)
    assert diag[1] == pytest.approx(0.05769, abs=1e-5)
    assert diag[2] == pytest.approx(0.05769, abs=1e-5)
    assert diag[3] == pytest.approx(0.44231, abs=1e-5)
    assert rho.matrix[0, 3].real == pytest.approx(0.38462, abs=1e-5)
    assert rho.matrix[0, 3].imag == pytest.approx(0.0, abs=1e-12)


def test_reconstruct_pure_bell_vector():
    r = [0.25] * 16
    for j in PARALLEL_INDICES:
        r[j] = 0.5
    for j in CROSSED_INDICES:
        r[j] = 0.0
    rho = reconstruct(r)
    assert np.max(np.abs(rho.matrix - BELL)) <= 1e-12
    # overall scale is irrelevant after trace normalization
    rho2 = reconstruct([3.7 * v for v in r])
    assert np.max(np.abs(rho2.matrix - rho.matrix)) <= 1e-12


def test_reconstruct_rejects_a_wrong_number_of_rates():
    with pytest.raises(ValueError):
        reconstruct((0.1,) * 15)
    with pytest.raises(ValueError):
        reconstruct((0.1,) * 17)
    for bad_value in (math.nan, math.inf, -0.1):
        with pytest.raises(ValueError, match="rates must be finite and >= 0"):
            reconstruct((bad_value,) + (0.1,) * 15)
    with pytest.raises(ValueError, match="rates must be finite and >= 0"):
        reconstruct([math.nan] * 16)


def test_exact_series_reconstructions_stay_physical():
    for kind in ENTANGLED:
        for alpha in (0.1, 0.5):
            for model in HplusModel:
                vec = assemble_r(
                    kind, 0.3, alpha, alpha,
                    method=RateMethod.EXACT_SERIES, hplus_model=model,
                )
                rho = reconstruct(vec)
                assert rho.psd_clip == 0.0
                eig = np.linalg.eigvalsh(rho.matrix)
                assert eig.min() >= 0.04, (kind, alpha, model)


def test_tomography_vector_validation():
    with pytest.raises(ValueError):
        TomographyVector((0.1,) * 15, RateMethod.CLOSED_FORM)
    with pytest.raises(ValueError):
        TomographyVector((0.1,) * 15 + (-1e-3,), RateMethod.CLOSED_FORM)
    with pytest.raises(ValueError):
        TomographyVector((0.1,) * 15 + (math.nan,), RateMethod.CLOSED_FORM)


def test_closed_form_rho_limits():
    for kind in ENTANGLED:
        rho = closed_form_rho(kind, 0.0)
        assert np.max(np.abs(rho.matrix - BELL)) <= 1e-15
        for mu in np.linspace(0.0, 2.0, 21):
            m = closed_form_rho(kind, float(mu))
            assert np.linalg.eigvalsh(m.matrix).min() >= -1e-12
            assert m.matrix.trace().real == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(UnsupportedSetting):
        closed_form_rho(SourceKind.THERMAL_CORRELATED, 0.1)
    with pytest.raises(ValueError):
        closed_form_rho(SourceKind.DIS_ENTANGLED, -0.5)


def test_concurrence_reference_states():
    assert concurrence(BELL) == pytest.approx(1.0, abs=1e-12)
    assert concurrence(np.eye(4) / 4.0) == pytest.approx(0.0, abs=1e-12)
    # product state |HH><HH| is separable
    prod = np.zeros((4, 4), dtype=complex)
    prod[0, 0] = 1.0
    assert concurrence(prod) == pytest.approx(0.0, abs=1e-12)


def test_concurrence_validates_a_raw_array():
    # a raw array goes through DensityMatrix, the one validator
    with pytest.raises(NotPhysical, match="non-finite"):
        concurrence(np.full((4, 4), np.nan))
    with pytest.raises(ValueError, match=r"4x4 matrix, got shape \(3, 3\)"):
        concurrence(np.eye(3) / 3.0)
    with pytest.raises(NotPhysical, match="trace"):
        concurrence(np.eye(4))
    assert concurrence(BELL) == concurrence(DensityMatrix(BELL))


def test_concurrence_closed_form_anchors():
    c = concurrence(closed_form_rho(SourceKind.DIS_ENTANGLED, 0.3))
    assert c == pytest.approx((2 - 0.3) / (2 * 1.3), abs=1e-12)
    assert c == pytest.approx(0.6538461538461531, rel=1e-13)
    c = concurrence(closed_form_rho(SourceKind.INDIS_ENTANGLED, 0.3))
    assert c == pytest.approx(2 / (2 + 3 * 0.3), abs=1e-12)
    assert c == pytest.approx(0.6896551724137928, rel=1e-13)
    for mu in (0.05, 0.2, 0.5, 1.0, 1.9):
        ci = concurrence(closed_form_rho(SourceKind.INDIS_ENTANGLED, mu))
        cd = concurrence(closed_form_rho(SourceKind.DIS_ENTANGLED, mu))
        assert ci > cd
        assert ci == pytest.approx(2.0 / (2.0 + 3.0 * mu), abs=1e-12)
        assert cd == pytest.approx((2.0 - mu) / (2.0 + 2.0 * mu), abs=1e-12)
    # both states hit zero concurrence at mu = 2
    assert concurrence(closed_form_rho(SourceKind.DIS_ENTANGLED, 2.0)) <= 1e-12


def test_closed_form_concurrence_is_that_of_the_closed_form_state():
    mus = [0.0, 1e-9, 1e-6, 1e-3, *np.linspace(0.0, 50.0, 1001)[1:]]
    for kind in ENTANGLED:
        for mu in mus:
            want = concurrence(closed_form_rho(kind, float(mu)))
            assert abs(closed_form_concurrence(kind, float(mu)) - want) <= 1e-9, (kind, mu)
    with pytest.raises(UnsupportedSetting):
        closed_form_concurrence(SourceKind.DIS_CORRELATED, 0.1)
    with pytest.raises(ValueError):
        closed_form_concurrence(SourceKind.INDIS_ENTANGLED, -0.5)


def test_concurrence_matches_x_state_shortcut():
    # only the outer corners and the diagonal are populated, so the
    # general spin-flip spectrum collapses to 2 (|corner| - sqrt(p1 p2))
    for kind in ENTANGLED:
        for mu in (0.05, 0.3, 1.0, 3.0):
            m = closed_form_rho(kind, mu).matrix
            short = 2.0 * max(
                0.0, abs(m[0, 3]) - math.sqrt((m[1, 1] * m[2, 2]).real)
            )
            assert concurrence(m) == pytest.approx(short, abs=1e-10)


def test_reconstruct_is_bit_identical_under_power_of_two_scaling():
    # the rates are rescaled by an exact power of two before the solve, so
    # every exactly representable 2**k r gives the same state, bit for bit,
    # with no overflow or underflow warning out to rates of 1e308 and 5e-324
    bases = [np.array(assemble_r(kind, 0.3, 0.1, 0.1, 1e-5, 1e-5).r) for kind in ENTANGLED]
    bases += [np.ones(16), np.full(16, 1e308)]
    for r in bases:
        want = reconstruct(r).matrix
        checked = 0
        top = int(np.frexp(r.max())[1])  # r.max() < 2**top, so k <= 1024 - top is finite
        for k in range(-1100 - top, 1025 - top):
            scaled = np.ldexp(r, k)
            with np.errstate(over="ignore"):  # a rounded-up underflow scales back past 2**1024
                exact = np.array_equal(np.ldexp(scaled, -k), r)
            if exact:
                assert np.array_equal(reconstruct(scaled).matrix, want), k
                checked += 1
        assert checked > 1000
    assert np.array_equal(reconstruct([5e-324] * 16).matrix, reconstruct(np.ones(16)).matrix)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(3) / 3.0)
    bad = np.eye(4, dtype=complex) / 4.0
    bad[0, 1] = 1e-6
    with pytest.raises(NotPhysical):
        DensityMatrix(bad)
    with pytest.raises(NotPhysical):
        DensityMatrix(np.eye(4, dtype=complex) * 0.3)
    with pytest.raises(NotPhysical):
        DensityMatrix(np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex))
    for bad_value in (math.nan, math.inf, complex(0.0, math.nan)):
        bad = np.eye(4, dtype=complex) / 4.0
        bad[1, 2] = bad_value
        with pytest.raises(NotPhysical, match="non-finite"):
            DensityMatrix(bad)


def test_density_matrix_clips_eigenvalue_noise():
    rho = DensityMatrix(np.diag([0.6, 0.4 + 1e-11, -1e-11, 0.0]).astype(complex))
    assert rho.psd_clip == pytest.approx(1e-11, rel=1e-3)
    assert np.linalg.eigvalsh(rho.matrix).min() >= 0.0
    assert rho.matrix.trace().real == pytest.approx(1.0, abs=1e-15)
    clean = DensityMatrix(BELL)
    assert clean.psd_clip == 0.0


def test_density_matrix_is_write_protected():
    rho = closed_form_rho(SourceKind.DIS_ENTANGLED, 0.1)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 5.0
    arr = np.asarray(rho)
    arr[0, 0] = 5.0
    assert rho.matrix[0, 0] != 5.0


def test_density_matrix_json_round_trip():
    rho = closed_form_rho(SourceKind.INDIS_ENTANGLED, 0.4)
    d = rho.to_json_dict()
    assert d["basis"] == list(BASIS_LABELS) == ["HH", "HV", "VH", "VV"]
    back = np.array(d["re"]) + 1j * np.array(d["im"])
    assert np.max(np.abs(back - rho.matrix)) == 0.0
