"""Tomography: projector table, linear inversion, closed-form states,
and concurrence."""

import math
import re
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from biphoton import (
    DensityMatrix,
    HplusModel,
    NotPhysical,
    RateMethod,
    SourceKind,
    TomographyVector,
    TruncationPolicy,
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
    PARALLEL_INDICES,
    PROJECTION_STATES,
    _COLUMN,
    _DUAL,
    _closed_form_concurrences,
    _reconstructed,
    _wootters,
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
    assert np.linalg.matrix_rank(np.array([pi.ravel() for pi in pis]), tol=1e-10) == 16


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
    with pytest.raises(TypeError, match="^method must be a RateMethod, got 'oracle'$"):
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


def test_raw_rates_keep_their_messages_with_one_value_check():
    # the shape is checked before the kernel, which checks the values alone
    with pytest.raises(ValueError, match=r"expected 16 rates, got shape \(32,\)"):
        reconstruct(np.full(32, 0.1))
    with pytest.raises(ValueError, match=r"expected 16 rates, got shape \(2, 16\)"):
        reconstruct(np.full((2, 16), 0.1))
    for bad_value in (math.nan, math.inf, -math.inf, -0.1):
        rates = np.full(16, 0.1)
        rates[7] = bad_value
        with pytest.raises(ValueError, match="rates must be finite and >= 0"):
            reconstruct(rates)
        with pytest.raises(ValueError, match="rates must be finite and >= 0"):
            TomographyVector(tuple(rates), RateMethod.CLOSED_FORM)


def test_a_ragged_rate_list_meets_the_library_rules():
    # numpy finds no shape for a list with a nested entry; 16 entries meet
    # the number rule, any other count the shape rule
    with pytest.raises(TypeError, match=re.escape("r must be a real number, got [0.1]")):
        reconstruct([0.1] * 15 + [[0.1]])
    with pytest.raises(TypeError, match=re.escape("r must be a real number, got [0.1, 0.2]")):
        TomographyVector([0.1] * 15 + [[0.1, 0.2]], RateMethod.CLOSED_FORM)
    with pytest.raises(ValueError, match=re.escape("expected 16 rates, got shape (2,)")):
        reconstruct([0.1, [0.1]])


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


def test_tomography_vector_provenance_takes_enum_members_only():
    # the enum rule: a value string is refused, not stored; no H+ model is None
    rates = (0.1,) * 16
    with pytest.raises(TypeError, match="method must be a RateMethod"):
        TomographyVector(rates, "exact")
    with pytest.raises(TypeError, match="hplus_model must be a HplusModel"):
        TomographyVector(rates, RateMethod.EXACT_SERIES, "coherent")
    assert TomographyVector(rates, RateMethod.CLOSED_FORM).hplus_model is None
    vec = TomographyVector(rates, RateMethod.EXACT_SERIES, HplusModel.INDEPENDENT)
    assert vec.method is RateMethod.EXACT_SERIES and vec.hplus_model is HplusModel.INDEPENDENT


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


def test_density_matrix_leaves_the_callers_array_writable():
    # a complex input used to be frozen in place, not copied
    m = np.eye(4, dtype=complex) / 4
    before = m.copy()
    dm = DensityMatrix(m)
    assert concurrence(m) == 0.0
    assert m.flags.writeable
    np.testing.assert_array_equal(m, before)
    m[0, 0] = 1.0
    assert dm.matrix[0, 0] == 0.25
    with pytest.raises(ValueError):
        dm.matrix[0, 0] = 1.0


def test_density_matrix_json_round_trip():
    rho = closed_form_rho(SourceKind.INDIS_ENTANGLED, 0.4)
    d = rho.to_json_dict()
    assert d["basis"] == list(BASIS_LABELS) == ["HH", "HV", "VH", "VV"]
    back = np.array(d["re"]) + 1j * np.array(d["im"])
    assert np.max(np.abs(back - rho.matrix)) == 0.0



def test_density_matrix_json_parts_are_its_entries_with_the_sign_of_zero():
    # the parts come from the arrays' tolist(): plain floats equal to each
    # entry's real and imaginary part, a negative zero kept negative
    states = [closed_form_rho(kind, mu) for kind in ENTANGLED for mu in (0.0, 0.4, 3.0)]
    states += [reconstruct(assemble_r(kind, mu, 0.3, 0.1, 1e-5, 2e-4))
               for kind in ENTANGLED for mu in (1e-6, 0.7)]
    states.append(DensityMatrix(BELL.conj()))  # every imaginary part -0.0
    signs = set()
    for rho in states:
        d = rho.to_json_dict()
        for part, key in (("real", "re"), ("imag", "im")):
            want = [[float(getattr(v, part)) for v in row] for row in rho.matrix]
            assert all(type(v) is float for row in d[key] for v in row)
            assert [[v.hex() for v in row] for row in d[key]] == [[v.hex() for v in row]
                                                                 for row in want]
            signs |= {math.copysign(1.0, v) for row in want for v in row if v == 0.0}
    assert signs == {-1.0, 1.0}


# ---------------------------------------------------- exact references

def _fractions(z: complex) -> tuple[Fraction, Fraction]:
    return Fraction(z.real), Fraction(z.imag)


def _exact_inverse(a: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gauss-Jordan inverse of a matrix of exact rationals."""
    n = len(a)
    rows = [[*row, *(Fraction(int(i == j)) for j in range(n))] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def _kron(a: list, b: list) -> list[tuple[Fraction, Fraction]]:
    """a (x) b of two row-major 2x2 matrices of exact (re, im) pairs, row-major."""
    out = []
    for row in range(4):
        for col in range(4):
            (ar, ai), (br, bi) = a[2 * (row // 2) + col // 2], b[2 * (row % 2) + col % 2]
            out.append((ar * br - ai * bi, ar * bi + ai * br))
    return out


def _trace_product(a: list, b: list) -> tuple[Fraction, Fraction]:
    """tr(A B) of two row-major 4x4 matrices of exact (re, im) pairs."""
    re = im = Fraction(0)
    for row in range(4):
        for k in range(4):
            (ar, ai), (br, bi) = a[4 * row + k], b[4 * k + row]
            re += ar * br - ai * bi
            im += ar * bi + ai * br
    return re, im


_H2 = Fraction(1, 2)
# |k><k| of the table's single-photon states, exactly: L = (H + iV)/sqrt(2),
# R = (H - iV)/sqrt(2); each two-photon entry is 0, +-1/4, +-i/4, +-1/2, +-i/2 or 1
_QUBIT = {
    "H": [(1, 0), (0, 0), (0, 0), (0, 0)],
    "V": [(0, 0), (0, 0), (0, 0), (1, 0)],
    "+": [(_H2, 0), (_H2, 0), (_H2, 0), (_H2, 0)],
    "L": [(_H2, 0), (0, -_H2), (0, _H2), (_H2, 0)],
    "R": [(_H2, 0), (0, _H2), (0, -_H2), (_H2, 0)],
}
_EXACT_PROJECTORS = [_kron(_QUBIT[s], _QUBIT[i]) for s, i in PROJECTION_STATES]
# a Pauli-basis reference of the tests' own, B_j = s_a (x) s_b, with the
# table's design matrix A[nu, j] = tr(Pi_nu B_j), whose entries are 0 or +-1
_PAULI = {
    "1": [(1, 0), (0, 0), (0, 0), (1, 0)],
    "x": [(0, 0), (1, 0), (1, 0), (0, 0)],
    "y": [(0, 0), (0, -1), (0, 1), (0, 0)],
    "z": [(1, 0), (0, 0), (0, 0), (-1, 0)],
}
_EXACT_BASIS = [_kron(_PAULI[a], _PAULI[b]) for a in "1xyz" for b in "1xyz"]
_DESIGN = [[_trace_product(pi, b) for b in _EXACT_BASIS] for pi in _EXACT_PROJECTORS]
_EXACT_INVERSE = _exact_inverse([[re for re, _ in row] for row in _DESIGN])


def test_exact_references_are_the_table():
    # the exact projectors are the float table's to its 1/sqrt(2) rounding
    for pi, exact in zip(projectors(), _EXACT_PROJECTORS):
        assert max(abs(z - complex(re, im)) for z, (re, im) in zip(pi.ravel(), exact)) <= 1e-15
    assert all(im == 0 and re in (-1, 0, 1) for row in _DESIGN for re, im in row)


def test_dual_frame_is_the_inverse_of_the_table_in_fractions():
    # the defining identity tr(Pi_mu M_nu) = [mu = nu], exactly; 16 such M_nu
    # exist only if the table has rank 16, so it is complete
    duals = [[_fractions(z) for z in _DUAL[nu]] for nu in range(16)]
    for mu, pi in enumerate(_EXACT_PROJECTORS):
        for nu, m in enumerate(duals):
            assert _trace_product(pi, m) == (int(mu == nu), 0), (mu, nu)
    # and each M_nu is Hermitian
    for m in duals:
        assert all(m[4 * j + i] == (m[4 * i + j][0], -m[4 * i + j][1])
                   for i in range(4) for j in range(4))


def test_dual_frame_from_the_real_block_inverse_is_the_complex_inverse_bit_for_bit():
    # _DUAL inverts the real block form of the table; snapped to halves it
    # holds the bits of the complex inverse snapped the same way, zero signs
    # included
    table = np.array([p.ravel() for p in projectors()])
    complex_inverse = np.linalg.inv(table).reshape(4, 4, 16).transpose(2, 1, 0).reshape(16, 16)
    want = np.round(2.0 * complex_inverse) / 2.0
    assert _DUAL.dtype == want.dtype
    assert np.array_equal(_DUAL.view(np.uint64), want.view(np.uint64))
    assert not np.signbit(_DUAL.view(float)[_DUAL.view(float) == 0.0]).any()


def test_dual_frame_is_exact_in_fractions():
    # the entries of M_nu are halves, so every product with a rate is exact
    assert all((2 * q).denominator == 1 for z in _DUAL.ravel() for q in _fractions(z))
    # coefficients of M_nu over the Pauli basis: c[j][nu] = tr(B_j M_nu) / 4
    coeff = [[Fraction(0)] * 16 for _ in range(16)]
    for nu in range(16):
        m = [_fractions(z) for z in _DUAL[nu]]
        for j, b in enumerate(_EXACT_BASIS):
            re, im = _trace_product(b, m)
            assert im == 0, (nu, j)
            coeff[j][nu] = re / 4
    # the design matrix applied to those coefficients is the identity: the
    # 16 rates of M_nu are the unit vector e_nu, exactly
    for row in range(16):
        for nu in range(16):
            got = sum(_DESIGN[row][j][0] * coeff[j][nu] for j in range(16))
            assert got == (row == nu), (row, nu)


# per entry, |rho - rho_exact| <= K_RECON u sum(r) / tr: each entry of the
# unnormalized state is a sum of 16 exact products of size <= r_nu
# (error <= 15 u sum r), the trace adds 4 such sums, and the division
# rounds once; sum(r) >= tr because HH + HV + VH + VV is the identity
K_RECON = 80


def _exact_reconstruction(r) -> tuple[list[tuple[Fraction, Fraction]], Fraction]:
    """Solve A c = r and sum c_j B_j, all in Fractions: the 16
    entries of the unnormalized state and its trace."""
    rq = [Fraction(v) for v in r]
    c = [sum(a * v for a, v in zip(row, rq)) for row in _EXACT_INVERSE]
    rho = [(sum(cj * b[k][0] for cj, b in zip(c, _EXACT_BASIS)),
            sum(cj * b[k][1] for cj, b in zip(c, _EXACT_BASIS))) for k in range(16)]
    return rho, sum(rho[5 * i][0] for i in range(4))


def _check_against_exact(r) -> None:
    got = reconstruct(r).matrix
    assert np.array_equal(got, got.conj().T)  # exactly Hermitian
    rho, tr = _exact_reconstruction(r)
    bound = K_RECON * 2.0**-53 * float(sum(Fraction(v) for v in r) / tr)
    for k, (re, im) in enumerate(rho):
        z = got.flat[k]
        assert abs(float(re / tr - Fraction(z.real))) <= bound, (k, z, bound)
        assert abs(float(im / tr - Fraction(z.imag))) <= bound, (k, z, bound)


@settings(max_examples=40, deadline=None)
@given(
    g=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=32, max_size=32),
    exponent=st.floats(min_value=-300.0, max_value=300.0),
)
def test_reconstruct_matches_exact_rational_inversion_on_random_states(g, exponent):
    gm = np.array(g[:16]).reshape(4, 4) + 1j * np.array(g[16:]).reshape(4, 4)
    # a full-rank state at a random rate scale
    rho = gm @ gm.conj().T + 1e-3 * np.eye(4)
    rho /= rho.trace().real
    r = [10.0**exponent * float(np.trace(rho @ pi).real) for pi in projectors()]
    _check_against_exact(r)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(ENTANGLED),
    log_mu=st.floats(min_value=-6.0, max_value=math.log10(5.0)),
    alphas=st.tuples(st.floats(min_value=1e-3, max_value=1.0),
                     st.floats(min_value=1e-3, max_value=1.0)),
    darks=st.tuples(st.sampled_from((0.0, 1e-6, 1e-3)), st.sampled_from((0.0, 1e-6, 1e-3))),
)
def test_reconstruct_matches_exact_rational_inversion_on_model_vectors(kind, log_mu, alphas, darks):
    _check_against_exact(assemble_r(kind, 10.0**log_mu, *alphas, *darks).r)


# ------------------------------------------- one eigendecomposition per state

def _concurrence_from_a_fresh_eigh(m: np.ndarray) -> float:
    """The concurrence formula with its own eigh of (m + m^+) / 2: lam are
    the singular values of sqrt(rho) (sy x sy) sqrt(rho)* (sy x sy)."""
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    sqrt_rho = (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T
    signs = np.array([-1.0, 1.0, 1.0, -1.0])
    sqrt_flipped = np.outer(signs, signs) * sqrt_rho[::-1, ::-1].conj()
    lam = np.linalg.svd(sqrt_rho @ sqrt_flipped, compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def test_concurrence_reuses_the_validation_eigendecomposition_bit_for_bit():
    rng = np.random.default_rng(7)
    states = [BELL, np.eye(4) / 4.0]
    states += [closed_form_rho(kind, mu).matrix for kind in ENTANGLED for mu in (1e-6, 0.3, 3.0)]
    states += [reconstruct(assemble_r(kind, mu, 0.13, 0.27, 1e-4, 2e-4)).matrix
               for kind in ENTANGLED for mu in (1e-4, 0.3, 2.0)]
    for _ in range(20):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        states.append(g @ g.conj().T / np.trace(g @ g.conj().T).real)
    for m in states:
        rho = DensityMatrix(m)
        assert rho.psd_clip == 0.0
        assert concurrence(rho) == _concurrence_from_a_fresh_eigh(rho.matrix)


def test_a_clipped_state_recomputes_its_eigendecomposition():
    # the existing clip case keeps its values, and a clipped state with
    # coherences decomposes the clipped matrix, not the one it was given
    rho = DensityMatrix(np.diag([0.6, 0.4 + 1e-11, -1e-11, 0.0]).astype(complex))
    assert rho.psd_clip == 1e-11
    assert concurrence(rho) == 0.0
    near_bell = np.array(BELL)
    near_bell[0, 3] = near_bell[3, 0] = 0.5 + 1e-11
    rho = DensityMatrix(near_bell)
    assert rho.psd_clip == pytest.approx(1e-11, rel=1e-6)
    assert concurrence(rho) == _concurrence_from_a_fresh_eigh(rho.matrix)


@pytest.mark.parametrize(("eig", "clip"), [(-2e-10, None), (-1e-11, 1e-11), (0.0, 0.0)])
def test_positivity_decisions_at_the_tolerance(eig, clip):
    m = np.diag([0.6, 0.4 - eig, eig, 0.0]).astype(complex)
    if clip is None:
        with pytest.raises(NotPhysical, match="below positivity tolerance"):
            DensityMatrix(m)
    else:
        assert DensityMatrix(m).psd_clip == clip


# ------------------------------------------------------ concurrence accuracy

_SYSY_EXACT = mp.matrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])


def _concurrence_mp(m: np.ndarray, dps: int = 50) -> float:
    """Wootters concurrence of the given float matrix in ``dps``-digit
    mpmath: sqrt of the eigenvalues of rho (sy x sy) rho* (sy x sy)."""
    with mp.workdps(dps):
        rho = mp.matrix([[mp.mpc(complex(z)) for z in row] for row in m])
        flipped = _SYSY_EXACT * rho.apply(mp.conj) * _SYSY_EXACT
        ev = mp.eig(rho * flipped, left=False, right=False)
        lam = sorted((mp.sqrt(max(mp.re(e), 0)) for e in ev), reverse=True)
        return float(max(0, lam[0] - lam[1] - lam[2] - lam[3]))


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(ENTANGLED),
    mu=st.floats(min_value=1e-6, max_value=2e-6),
    alphas=st.tuples(st.floats(min_value=0.05, max_value=1.0),
                     st.floats(min_value=0.05, max_value=1.0)),
)
def test_concurrence_of_near_pure_model_states_against_mpmath(kind, mu, alphas):
    # C near 1 - 2e-6: the tiny crossed eigenvalues carry the rounding
    rho = reconstruct(assemble_r(kind, mu, *alphas))
    assert abs(concurrence(rho) - _concurrence_mp(rho.matrix)) <= 1e-14


@settings(max_examples=30, deadline=None)
@given(g=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=32, max_size=32))
def test_concurrence_of_random_states_against_mpmath(g):
    gm = np.array(g[:16]).reshape(4, 4) + 1j * np.array(g[16:]).reshape(4, 4)
    m = gm @ gm.conj().T + 1e-3 * np.eye(4)
    rho = DensityMatrix(m / m.trace().real)
    assert abs(concurrence(rho) - _concurrence_mp(rho.matrix)) <= 1e-14


@pytest.mark.parametrize("kind", ENTANGLED)
def test_concurrence_of_a_near_pure_exact_state_to_the_last_bits(kind):
    # 1 - C is 1.5e-8 here; lam from the eigenvalues of sqrt(rho) rho~
    # sqrt(rho) were off by up to 5e-9, singular values are off by 4e-16
    vec = assemble_r(kind, 1e-8, 0.2, 0.3, policy=TruncationPolicy(1e-40),
                     method=RateMethod.EXACT_SERIES)
    rho = reconstruct(vec)
    want = _concurrence_mp(rho.matrix, dps=60)
    assert 1.4e-8 < 1.0 - want < 1.5e-8
    assert abs(concurrence(rho) - want) <= 1e-14


# --------------------------------------------------- stacked reconstruction

_PROJECTORS = np.array(projectors())


def _random_rates(rank: int, seed: int, log_scale: float) -> list[float]:
    """The 16 rates of a random state of the given rank, times 10**log_scale;
    states of rank 1 to 3 take the positivity clip about half the time."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = g @ g.conj().T
    rates = np.einsum("ab,nba->n", rho / rho.trace().real, _PROJECTORS).real
    return [10.0**log_scale * max(0.0, float(v)) for v in rates]


_ALPHA = st.floats(min_value=1e-3, max_value=1.0)
_DARK = st.sampled_from((0.0, 1e-6, 1e-3))
_ROWS = st.one_of(
    st.builds(_random_rates, st.integers(1, 4), st.integers(0, 2**32 - 1),
              st.floats(min_value=-300.0, max_value=300.0)),
    st.builds(lambda kind, log_mu, a_s, a_i, d_s, d_i:
              assemble_r(kind, 10.0**log_mu, a_s, a_i, d_s, d_i).r,
              st.sampled_from(ENTANGLED), st.floats(min_value=-9.0, max_value=math.log10(5.0)),
              _ALPHA, _ALPHA, _DARK, _DARK),
    st.builds(lambda kind, log_mu, a_s, a_i, d_s, d_i:
              assemble_r(kind, 10.0**log_mu, a_s, a_i, d_s, d_i,
                         method=RateMethod.EXACT_SERIES).r,
              st.sampled_from(ENTANGLED), st.floats(min_value=-9.0, max_value=0.0),
              _ALPHA, _ALPHA, _DARK, _DARK),
)


def _assert_rows_equal_one_at_a_time(rows) -> np.ndarray:
    """Check a stack against each row alone, bit for bit; its clipped magnitudes."""
    m, clip, w, v = _reconstructed(np.array(rows, dtype=float))
    c = _wootters(w, v)
    for k, r in enumerate(rows):
        rho = reconstruct(r)
        assert np.array_equal(rho.matrix, m[k]), k
        assert rho.psd_clip == clip[k], k
        assert concurrence(rho) == c[k], k
    return clip


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 64).flatmap(lambda n: st.lists(_ROWS, min_size=n, max_size=n)))
def test_a_stack_equals_its_rows_one_at_a_time_bit_for_bit(rows):
    _assert_rows_equal_one_at_a_time(rows)


def test_a_stack_with_clipped_rows_equals_its_rows_bit_for_bit():
    rng = np.random.default_rng(11)
    rows = [_random_rates(int(rng.integers(1, 5)), int(rng.integers(2**32)), rng.uniform(-300, 300))
            for _ in range(64)]
    rows += [assemble_r(kind, mu, 0.2, 0.3).r for kind in ENTANGLED for mu in (1e-8, 0.3, 4.0)]
    clip = _assert_rows_equal_one_at_a_time(rows)
    assert 0 < np.count_nonzero(clip) < len(rows)


def test_an_empty_stack_grades_nothing():
    assert _wootters(*_reconstructed(np.empty((0, 16)))[2:]).shape == (0,)
    # an empty sweep grades no state, but still checks its arms and kinds
    for kinds, mus in ((ENTANGLED, []), ((), [0.1])):
        assert _closed_form_concurrences(kinds, mus, 0.2, 0.1).shape == (0,)
        with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\], got 1.5$"):
            _closed_form_concurrences(kinds, mus, 1.5, 0.1)
    with pytest.raises(UnsupportedSetting, match="^tomography is undefined"):
        _closed_form_concurrences((SourceKind.THERMAL_CORRELATED,), [], 0.2, 0.1)


_NOT_PSD = [1.0] + [0.0] * 15  # the first dual-frame element alone
_ZERO = [0.0] * 16
_NO_TRACE = (NotPhysical, "reconstructed trace 0.000e+00 is not positive: the trace is the sum of "
             "the HH, HV, VV and VH rates, so one must be above 0; at mu = 0 give each arm a "
             "dark count, and give no arm alpha = dark = 0")
_LESS_PSD = [(1.0, 0.0, 0.4)[c] for c in _COLUMN]  # R_HH = 1, R_HV = 0, R_H+ = 0.4


def test_a_stack_with_an_unphysical_row_is_refused_whole():
    with pytest.raises(NotPhysical, match="^eigenvalue -5.000e-01 below positivity tolerance$"):
        reconstruct(_NOT_PSD)
    with pytest.raises(NotPhysical, match="^eigenvalue -2.000e-01 below positivity tolerance$"):
        reconstruct(_LESS_PSD)
    with pytest.raises(NotPhysical, match=f"^{re.escape(_NO_TRACE[1])}$"):
        reconstruct(_ZERO)
    good = [assemble_r(kind, mu, 0.1, 0.2, 1e-5, 0.0).r for kind in ENTANGLED for mu in (0.01, 1.0)]
    # a stack raises the first check that any of its rows fails, with the
    # stack's worst value, wherever its rows stand
    for bad, message in (((_LESS_PSD, _NOT_PSD), "eigenvalue -5.000e-01"),
                         ((_NOT_PSD, _ZERO), "reconstructed trace 0.000e[+]00"),
                         ((_ZERO, _NOT_PSD), "reconstructed trace 0.000e[+]00")):
        for k in range(len(good) + 1):
            rows = good[:k] + [bad[0]] + good[k:] + [bad[1]]
            with pytest.raises(NotPhysical, match=f"^{message}"):
                _reconstructed(np.array(rows))
    # a row that is not finite and >= 0 is refused before any stack holds it
    for refuse in (reconstruct, lambda r: TomographyVector(r, RateMethod.CLOSED_FORM)):
        with pytest.raises(ValueError, match="^rates must be finite and >= 0$"):
            refuse([math.nan] * 16)


# ------------------------------------------------------ closed-form sweeps

def _one_state(kind, mu, *arms) -> float:
    """C of one state from assemble_r alone; at mu = 0 without darks, where every
    rate is 0, that of the mu -> 0 limit, the Bell state, if both arms can click."""
    r = assemble_r(kind, mu, *arms)
    if mu == 0 and not any(arms[2:]) and all(arms[:2]):
        return concurrence(closed_form_rho(kind, 0.0))
    return concurrence(reconstruct(r))


def _one_state_at_a_time(kinds, mus, *arms) -> list[float]:
    """C of each state of a sweep, mu outermost, one state at a time."""
    return [_one_state(kind, mu, *arms) for mu in mus for kind in kinds]


def _outcome(f):
    """The floats f returns, as hex strings, or the type and message it raises."""
    try:
        return [v.hex() for v in f()]
    except Exception as exc:
        return type(exc), str(exc)


def _assert_sweep_is_one_state_at_a_time(kinds, mus, *arms):
    want = _outcome(lambda: _one_state_at_a_time(kinds, mus, *arms))
    assert _outcome(lambda: _closed_form_concurrences(kinds, mus, *arms).tolist()) == want
    return want


_SWEEP_KINDS = st.sampled_from([ENTANGLED, ENTANGLED[::-1], ENTANGLED[:1], ENTANGLED[1:]])
_SWEEP_MU = st.one_of(st.floats(-9.0, math.log10(5.0)).map(lambda e: 10.0**e),
                      st.sampled_from((0.0, 2.0, 1e150)))


@settings(max_examples=60, deadline=None)
@given(kinds=_SWEEP_KINDS, mus=st.lists(_SWEEP_MU, max_size=12),
       alphas=st.tuples(_ALPHA, _ALPHA), darks=st.tuples(_DARK, _DARK))
def test_a_closed_form_sweep_equals_its_states_one_at_a_time(kinds, mus, alphas, darks):
    # each C of the one array pass is that of its state alone, bit for bit;
    # a mu of 0 without darks is the Bell limit in both
    _assert_sweep_is_one_state_at_a_time(kinds, mus, *alphas, *darks)


def _zero_or_log_uniform(zero_or_one, lo_exp, hi_exp):
    return st.one_of(st.sampled_from(zero_or_one), st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e))


def _scaled(alpha, dark):
    """An arm's (alpha, dark) times the power of two that brings their maximum into [0.5, 1]."""
    k = 0
    while 0 < math.ldexp(max(alpha, dark), k) < 0.5:
        k += 1
    return math.ldexp(alpha, k), math.ldexp(dark, k)


def _normal_or_zero(kind, mu, *arms) -> bool:
    rep = closed_form_rates(kind, mu, *arms)
    return all(r == 0.0 or r >= sys.float_info.min for r in (rep.r_hh, rep.r_hv, rep.r_hplus))


_WIDE_MU = _zero_or_log_uniform((0.0,), -300.0, 149.0)
_WIDE_ALPHA = _zero_or_log_uniform((0.0, 1.0), -300.0, 0.0)
_WIDE_DARK = _zero_or_log_uniform((0.0,), -300.0, math.log10(0.5))


@settings(max_examples=200, deadline=None)
@given(kinds=_SWEEP_KINDS, mus=st.lists(_WIDE_MU, min_size=1, max_size=8),
       alphas=st.tuples(_WIDE_ALPHA, _WIDE_ALPHA), darks=st.tuples(_WIDE_DARK, _WIDE_DARK))
@example(kinds=ENTANGLED[1:], mus=[0.5, 1.6242279698862045e30],
         alphas=(1.533180398779191e-196, 1.270267476307782e-156), darks=(3.8302665756678806e-257, 0.0))
def test_a_sweep_of_normal_rates_fails_as_its_states_fail_alone(kinds, mus, alphas, darks):
    # the premise of checking a sweep's inputs first and grading its states
    # in one stack: the sweep scales each arm by a power of two, and when
    # every scaled rate is 0 or a normal float, a state grades or has no
    # trace, so the stack raises what its first failing state raises alone
    (alpha_s, dark_s), (alpha_i, dark_i) = map(_scaled, alphas, darks)
    scaled = alpha_s, alpha_i, dark_s, dark_i
    assume(all(_normal_or_zero(kind, mu, *scaled) for mu in mus for kind in kinds))
    alone = [_outcome(lambda: [_one_state(kind, mu, *scaled)]) for mu in mus for kind in kinds]
    failed = [o for o in alone if isinstance(o, tuple)]
    got = _outcome(lambda: _closed_form_concurrences(kinds, mus, *alphas, *darks).tolist())
    if not failed:
        assert got == [c for o in alone for c in o]
    else:
        assert set(failed) == {_NO_TRACE}, failed
        assert got == _NO_TRACE


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(ENTANGLED), mu=_WIDE_MU,
       alphas=st.tuples(_WIDE_ALPHA, _WIDE_ALPHA), darks=st.tuples(_WIDE_DARK, _WIDE_DARK))
def test_the_sweep_scaling_changes_no_bit_of_a_state_with_normal_rates(kind, mu, alphas, darks):
    # every rate has degree one in each arm: where the unscaled rates are 0
    # or normal and their state grades alone, the sweep grades it bit for bit
    arms = (*alphas, *darks)
    assume(_normal_or_zero(kind, mu, *arms))
    alone = _outcome(lambda: [_one_state(kind, mu, *arms)])
    assume(not isinstance(alone, tuple))
    assert _outcome(lambda: _closed_form_concurrences((kind,), [mu], *arms).tolist()) == alone


def test_a_sweep_grades_a_state_whose_unscaled_rates_are_subnormal():
    # its rates are 2.5e-315 and 5.0e-315 unscaled, and the reconstruction
    # of those refuses the state; scaled, they are normal, and their ratio
    # (1, 0, 1/2) is the Bell state's, graded to concurrence's accuracy
    args = 4.1117398881572345e-297, 1.3326553478461716e-06, 1.8393591323287817e-12, 0.0, 5e-324
    kind = SourceKind.INDIS_ENTANGLED
    with pytest.raises(NotPhysical, match="^eigenvalue -9.804e-10 below positivity tolerance$"):
        reconstruct(assemble_r(kind, *args))
    assert _closed_form_concurrences((kind,), [args[0]], *args[1:]).tolist() == [
        pytest.approx(1.0, abs=1e-14)]


@pytest.mark.parametrize("arms", [(0.0, 0.1), (0.2, 0.0), (0.0, 0.0), (0.0, 0.1, 0.0, 1e-3)])
def test_the_mu_zero_limit_needs_both_arms_to_click(arms):
    # an arm with alpha = dark = 0 never clicks: every rate of every state
    # is 0, the mu = 0 row's included, and the sweep refuses its first state
    for mus in ([0.0], [0.5], [0.0, 0.5], [0.5, 0.0]):
        assert _outcome(lambda: _closed_form_concurrences(ENTANGLED, mus, *arms).tolist()) == _NO_TRACE
    # both arms clicking, the limit is the Bell state's C
    bell = [concurrence(closed_form_rho(kind, 0.0)) for kind in ENTANGLED]
    assert _closed_form_concurrences(ENTANGLED, [0.0], 0.2, 0.1).tolist() == bell


def test_closed_forms_multiply_the_largest_factor_first():
    # alpha_s * alpha_i underflows to 0 here, but the terms do not: each
    # partial product of (mu^2/2 + mu/2) alpha_s alpha_i is at least the term
    mu, alpha_s, alpha_i = 1.6242279698862045e30, 1.533180398779191e-196, 1.270267476307782e-156
    assert alpha_s * alpha_i == 0.0
    args = SourceKind.INDIS_ENTANGLED, mu, alpha_s, alpha_i, 3.8302665756678806e-257, 0.0
    rep = closed_form_rates(*args)
    assert rep.r_hv >= sys.float_info.min
    assert rep.r_hh == 2 * rep.r_hv
    assert rep.r_hplus >= rep.r_hv
    rho = reconstruct(assemble_r(*args))
    want = closed_form_rho(SourceKind.INDIS_ENTANGLED, mu)
    assert np.max(np.abs(rho.matrix - want.matrix)) <= 1e-10
    assert rho.psd_clip == 0.0


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, math.nextafter(1e150, math.inf), 1e200,
                                 True, "0.5"])
@pytest.mark.parametrize("k", range(4))
def test_a_sweep_whose_kth_mu_fails_raises_its_error_first(bad, k):
    mus = [0.01, 0.3, 1.0, 4.0]
    mus[k] = bad
    outcome = _assert_sweep_is_one_state_at_a_time(ENTANGLED, mus, 0.2, 0.1, 1e-5, 2e-4)
    assert isinstance(outcome, tuple), outcome
    # every mu is checked before any state is graded: a state at mu = 0
    # without darks has no trace, but the bad mu after it raises first
    assert _outcome(lambda: _closed_form_concurrences(ENTANGLED, [0.0] + mus, 0.2, 0.1)) == outcome


def test_a_sweep_of_other_real_types_equals_the_loop():
    # an int, a Fraction or a numpy float is checked state by state and
    # held as its float
    mus = [1, Fraction(1, 3), np.float64(0.7), np.float32(0.25), 0.5]
    outcome = _assert_sweep_is_one_state_at_a_time(ENTANGLED, mus, 0.2, 0.1, 1e-5, 2e-4)
    assert len(outcome) == 10


@pytest.mark.parametrize(("arms", "message"), [
    ((1.5, 0.1, 0.0, 0.0), r"alpha must lie in \[0, 1\]"),
    ((0.2, math.nan, 0.0, 0.0), r"alpha must lie in \[0, 1\]"),
    ((0.2, 0.1, 1.0, 0.0), r"dark must lie in \[0, 1\)"),
    ((0.2, True, 0.0, 0.0), "alpha must be a real number"),
])
def test_a_sweep_checks_its_arms_first(arms, message):
    # alone, a bad arm raises as the loop does
    outcome = _assert_sweep_is_one_state_at_a_time(ENTANGLED, [0.01, 0.3], *arms)
    assert isinstance(outcome, tuple), outcome
    # and before a bad kind, a bad mu or a state without a trace
    for kinds in (ENTANGLED, (SourceKind.THERMAL_CORRELATED,), ("dis-entangled",)):
        for mus in ([-1.0, 0.3], [0.3, math.nan], [0.0], []):
            with pytest.raises((ValueError, TypeError), match=message):
                _closed_form_concurrences(kinds, mus, *arms)


@pytest.mark.parametrize("kinds", [
    (SourceKind.DIS_ENTANGLED, SourceKind.DIS_CORRELATED),
    (SourceKind.THERMAL_CORRELATED,),
    (SourceKind.INDIS_ENTANGLED, "dis-entangled"),
])
def test_a_sweep_checks_its_kinds_after_its_arms(kinds):
    # alone, a kind without a state raises as the loop does
    outcome = _assert_sweep_is_one_state_at_a_time(kinds, [0.3, 1.0], 0.2, 0.1, 1e-5, 0.0)
    assert isinstance(outcome, tuple), outcome
    # and before a bad mu or a state without a trace
    for mus in ([-1.0], [0.0, 0.3], [0.3, 1e200], []):
        assert _outcome(lambda: _closed_form_concurrences(kinds, mus, 0.2, 0.1)) == outcome
    with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\]"):
        _closed_form_concurrences(kinds, [0.3], 1.5, 0.1)
