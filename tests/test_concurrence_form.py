"""The concurrence of the model's states in closed form, as a test-side reference.

``assemble_r`` fills the 16 rates from three: a = R_HH, b = R_HV and
c = R_H+.  Their linear inversion by the dual frame is an unnormalized
state of trace 2(a + b) whose eigenvalues are 2c - a, 4c - 2a - b and
the two roots of x^2 - (5a + 3b - 6c) x + Q, Q = 2a^2 + 5ab - 4ac - 2bc.
The characteristic polynomial of rho rho~ factors as
(x - (a - 2c)^2) (x - (2a + b - 4c)^2) (x^2 - S x + Q^2), with
S = 13a^2 + 4ab - 20ac + b^2 + 4c^2, so Wootters' four values (PRL 80,
2245, 1998) are |2c - a|, |4c - 2a - b| and (sqrt(S + 2|Q|) +-
sqrt(S - 2|Q|)) / 2, and C = max(0, 2 max - sum) / (2 (a + b)) needs no
eigensolver.  The factorizations are checked in exact rational
arithmetic on the dual frame itself, and the form against the
reconstruction's concurrence in floats.

Every closed-form state has c = (a + b) / 2, so its values are b, b, b
and 2a - b and its concurrence is max(0, (a - 2b) / (a + b)) =
max(0, (3V - 1) / 2): C rises with the visibility V.  That fact, and the
signs of dV/dmu and d(R_HH V)/dmu that ``optimize_mu``'s explicit optima
rest on, are checked here on the closed forms themselves, in exact
arithmetic and symbolically.
"""

import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import sympy as sp

from biphoton import RateMethod, SourceKind, assemble_r, concurrence, reconstruct
from biphoton.polarization import _closed_forms
from biphoton.tomography import _COLUMN, _DUAL

ENTANGLED = (SourceKind.DIS_ENTANGLED, SourceKind.INDIS_ENTANGLED)

# complex rationals as (re, im) pairs of Fractions
_ZERO = (Fraction(0), Fraction(0))


def _add(x, y):
    return x[0] + y[0], x[1] + y[1]


def _mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


# the dual frame's entries are exact halves: M_nu[i][j] as complex rationals
_FRAME = [[[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in m]
          for m in _DUAL.reshape(16, 4, 4).tolist()]


def _state(a, b, c):
    """sum_nu r_nu M_nu of the 16 rates that a, b and c fill, exactly."""
    rates = [(a, b, c)[k] for k in _COLUMN]
    rho = [[_ZERO] * 4 for _ in range(4)]
    for r, m in zip(rates, _FRAME):
        for i, j in itertools.product(range(4), repeat=2):
            rho[i][j] = _add(rho[i][j], _mul((r, Fraction(0)), m[i][j]))
    return rho


def _flipped(rho):
    """(sy x sy) rho* (sy x sy): entry (i, j) is s_i s_j conj(rho[3-i][3-j]), s = (-1, 1, 1, -1)."""
    s = (-1, 1, 1, -1)
    return [[(s[i] * s[j] * rho[3 - i][3 - j][0], -s[i] * s[j] * rho[3 - i][3 - j][1])
             for j in range(4)] for i in range(4)]


def _matmul(x, y):
    out = [[_ZERO] * 4 for _ in range(4)]
    for i, j, k in itertools.product(range(4), repeat=3):
        out[i][j] = _add(out[i][j], _mul(x[i][k], y[k][j]))
    return out


def _char(m, x):
    """det(x I - m), by the permutation expansion."""
    total = _ZERO
    for perm in itertools.permutations(range(4)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(4), 2))
        term = (Fraction((-1) ** inversions), Fraction(0))
        for i, j in enumerate(perm):
            term = _mul(term, _add((x if i == j else 0, 0), (-m[i][j][0], -m[i][j][1])))
        total = _add(total, term)
    return total


def _q(a, b, c):
    return 2 * a * a + 5 * a * b - 4 * a * c - 2 * b * c


def _s(a, b, c):
    return 13 * a * a + 4 * a * b - 20 * a * c + b * b + 4 * c * c


def _root_form(a, b, c) -> float:
    """C of the state of rates (a, b, c) from Wootters' four values in closed form."""
    q, s = abs(_q(a, b, c)), _s(a, b, c)
    plus, minus = math.sqrt(s + 2 * q), math.sqrt(max(s - 2 * q, 0))
    values = (abs(2 * c - a), abs(4 * c - 2 * a - b), (plus + minus) / 2, (plus - minus) / 2)
    return max(0.0, 2 * max(values) - sum(values)) / (2 * (a + b))


def _triples(n, seed):
    rng = random.Random(seed)
    return [tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(3))
            for _ in range(n)]


@pytest.mark.parametrize(("a", "b", "c"), [
    (Fraction(1), Fraction(0), Fraction(1, 2)), *_triples(12, 5),
])
def test_the_state_of_three_rates_has_the_closed_form_spectrum(a, b, c):
    rho = _state(a, b, c)
    assert all(rho[i][j] == (rho[j][i][0], -rho[j][i][1])
               for i, j in itertools.product(range(4), repeat=2))
    assert sum(rho[i][i][0] for i in range(4)) == 2 * (a + b)
    # both sides are monic quartics in x: agreeing at five points, they are equal
    for x in range(-2, 3):
        want = (x - (2 * c - a)) * (x - (4 * c - 2 * a - b)) * (x * x - (5 * a + 3 * b - 6 * c) * x
                                                               + _q(a, b, c))
        assert _char(rho, x) == (want, 0)


@pytest.mark.parametrize(("a", "b", "c"), [
    (Fraction(1), Fraction(0), Fraction(1, 2)), *_triples(12, 7),
])
def test_rho_times_its_flip_has_the_closed_form_characteristic_polynomial(a, b, c):
    rho = _state(a, b, c)
    product = _matmul(rho, _flipped(rho))
    q, s = _q(a, b, c), _s(a, b, c)
    for x in range(-2, 3):
        want = (x - (a - 2 * c) ** 2) * (x - (2 * a + b - 4 * c) ** 2) * (x * x - s * x + q * q)
        assert _char(product, x) == (want, 0)


def test_the_root_form_is_exactly_one_at_the_bell_triple():
    assert _root_form(1.0, 0.0, 0.5) == 1.0
    assert _root_form(Fraction(1), Fraction(0), Fraction(1, 2)) == 1.0


@pytest.mark.parametrize(("method", "n"), [(RateMethod.CLOSED_FORM, 1000),
                                           (RateMethod.EXACT_SERIES, 200)])
def test_the_root_form_matches_the_reconstruction_of_model_states(method, n):
    rng = np.random.default_rng(17)
    a_at, b_at, c_at = (_COLUMN.index(k) for k in range(3))
    for _ in range(n):
        kind = ENTANGLED[int(rng.integers(2))]
        mu = 10.0 ** rng.uniform(-4, math.log10(8.0))
        alphas = 10.0 ** rng.uniform(-2, 0, 2)
        darks = [0.0 if rng.random() < 0.3 else 10.0 ** rng.uniform(-6, -1) for _ in range(2)]
        vec = assemble_r(kind, mu, *alphas.tolist(), *darks, method=method)
        r = vec.r
        got = _root_form(r[a_at], r[b_at], r[c_at])
        assert abs(got - concurrence(reconstruct(vec))) <= 1e-14, (kind, mu, alphas, darks)


def _closed_rates(kind, mu, alpha_s, alpha_i, dark_s, dark_i):
    """R_HH, R_HV and R_H+ of the closed forms, in the arithmetic of the inputs."""
    arms = SimpleNamespace(alpha=alpha_s, dark=dark_s), SimpleNamespace(alpha=alpha_i, dark=dark_i)
    return _closed_forms(kind, mu, *arms)[:3]


def _model_inputs(n, seed):
    rng = random.Random(seed)
    return [(ENTANGLED[j % 2], Fraction(rng.randint(1, 400), rng.randint(1, 100)),
             *(Fraction(rng.randint(1, 100), 100) for _ in range(2)),
             *(Fraction(rng.randint(0, 9), 10 ** rng.randint(1, 6)) for _ in range(2)))
            for j in range(n)]


@pytest.mark.parametrize(("kind", "mu", "alpha_s", "alpha_i", "dark_s", "dark_i"),
                         _model_inputs(12, 11))
def test_every_closed_form_state_has_the_concurrence_of_its_visibility(kind, mu, alpha_s, alpha_i,
                                                                       dark_s, dark_i):
    a, b, c = _closed_rates(kind, mu, alpha_s, alpha_i, dark_s, dark_i)
    assert c == (a + b) / 2
    assert a >= b >= 0
    # rho rho~ has the eigenvalue b^2 three times and (2a - b)^2 once: Wootters'
    # values are b, b, b and 2a - b >= b, and the trace is 2 (a + b)
    product = _matmul(_state(a, b, c), _flipped(_state(a, b, c)))
    for x in range(-2, 3):
        assert _char(product, x) == ((x - b * b) ** 3 * (x - (2 * a - b) ** 2), 0)
    values = (b, b, b, 2 * a - b)
    want = max(0, 2 * max(values) - sum(values)) / (2 * (a + b))
    assert want == max(0, (a - 2 * b) / (a + b)) == max(0, (3 * (a - b) / (a + b) - 1) / 2)
    assert abs(_root_form(float(a), float(b), float(c)) - float(want)) <= 1e-15


_MU, _A_S, _A_I, _D_S, _D_I = _SYMBOLS = sp.symbols("mu alpha_s alpha_i d_s d_i", positive=True)
_A = _A_S * _A_I - (_A_S * _D_I + _A_I * _D_S)
# dV/dmu has the sign of these: optimize_mu's optima are their roots (MuOptimum)
_SLOPE_SIGN = {
    SourceKind.DIS_ENTANGLED: 4 * _D_S * _D_I - _A_S * _A_I * _MU**2,
    SourceKind.INDIS_ENTANGLED: 4 * _D_S * _D_I * (_MU + 1) - _A * _MU**2,
}


def _has_sign_of(expr, sign) -> bool:
    """Whether expr / sign reduces to polynomials whose every coefficient is
    positive, so that expr has the sign of ``sign`` at every positive input."""
    ratio = sp.fraction(sp.cancel(sp.together(expr / sign)))
    return all(coeff > 0 for part in ratio for coeff in sp.Poly(part, *_SYMBOLS).coeffs())


def _visibility_and_rate(kind):
    r_hh, r_hv, r_hplus = _closed_rates(kind, _MU, _A_S, _A_I, _D_S, _D_I)
    assert sp.expand(2 * r_hplus - r_hh - r_hv) == 0  # c = (a + b) / 2 symbolically too
    return (r_hh - r_hv) / (r_hh + r_hv), r_hh


@pytest.mark.parametrize("kind", ENTANGLED)
def test_the_visibility_slope_and_the_rate_times_visibility_slope_have_their_signs(kind):
    v, r_hh = _visibility_and_rate(kind)
    assert _has_sign_of(sp.diff(v, _MU), _SLOPE_SIGN[kind])
    # d(R_HH V)/dmu: a numerator and a denominator with no negative coefficient
    assert _has_sign_of(sp.diff(r_hh * v, _MU), 1)


@pytest.mark.parametrize(("kind", "sign"), [
    (SourceKind.DIS_ENTANGLED, 3 * _D_S * _D_I - _A_S * _A_I * _MU**2),
    (SourceKind.DIS_ENTANGLED, 4 * _D_S * _D_I - 2 * _A_S * _A_I * _MU**2),
    (SourceKind.INDIS_ENTANGLED, 4 * _D_S * _D_I * (_MU + 2) - _A * _MU**2),
    (SourceKind.INDIS_ENTANGLED, 4 * _D_S * _D_I * (2 * _MU + 1) - _A * _MU**2),
    (SourceKind.INDIS_ENTANGLED, 4 * _D_S * _D_I * (_MU + 1) - (_A + _A_S * _D_I) * _MU**2),
    # V peaks inside: it has no one sign
    (SourceKind.DIS_ENTANGLED, 1),
    (SourceKind.INDIS_ENTANGLED, 1),
])
def test_a_sign_with_one_coefficient_changed_is_refused(kind, sign):
    v, _ = _visibility_and_rate(kind)
    assert not _has_sign_of(sp.diff(v, _MU), sign)
