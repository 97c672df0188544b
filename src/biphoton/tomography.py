"""Two-qubit polarization-state tomography from the model rates.

A fixed table of 16 polarizer settings (the standard over-complete
H/V/diagonal/circular set) maps onto the three distinct rates the model
produces: settings whose single-pair projection overlaps the Bell state
with probability 1/2 take the parallel rate, settings orthogonal to it
take the crossed rate, and every mixed-basis setting takes the diagonal
rate.  Linear inversion over a Hermitian operator basis then recovers
the effective density matrix, which is trace-normalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detection import DetectorModel
from .distributions import PairSource, SourceKind, TruncationPolicy
from .polarization import (
    HplusModel,
    RateMethod,
    Setting,
    _closed_form_mu,
    _require_entangled,
    closed_form_rates,
    coincidence_rate,
)

__all__ = [
    "NotPhysical",
    "TomographyVector",
    "DensityMatrix",
    "projectors",
    "assemble_r",
    "reconstruct",
    "closed_form_rho",
    "closed_form_concurrence",
    "concurrence",
]


class NotPhysical(ValueError):
    """A density matrix violates hermiticity, trace, or positivity bounds."""


_H = np.array([1.0, 0.0], dtype=complex)
_V = np.array([0.0, 1.0], dtype=complex)
_PLUS = (_H + _V) / math.sqrt(2.0)
_L = (_H + 1j * _V) / math.sqrt(2.0)
_R = (_H - 1j * _V) / math.sqrt(2.0)

_KETS = {"H": _H, "V": _V, "+": _PLUS, "L": _L, "R": _R}

# (signal, idler) polarizer settings in fixed table order
PROJECTION_STATES: tuple[tuple[str, str], ...] = (
    ("H", "H"), ("H", "V"), ("V", "V"), ("V", "H"),
    ("R", "H"), ("R", "V"), ("+", "V"), ("+", "H"),
    ("+", "R"), ("+", "+"), ("R", "+"), ("H", "+"),
    ("V", "+"), ("V", "L"), ("H", "L"), ("R", "L"),
)

# 0-based positions taking the parallel (HH) and crossed (HV) rates;
# every remaining position takes the mixed-basis rate.
PARALLEL_INDICES: tuple[int, ...] = (0, 2, 9, 15)
CROSSED_INDICES: tuple[int, ...] = (1, 3)

BASIS_LABELS: tuple[str, ...] = ("HH", "HV", "VH", "VV")


def projectors() -> list[np.ndarray]:
    """Rank-1 projectors of the 16 table settings, signal (x) idler order."""
    out = []
    for s, i in PROJECTION_STATES:
        ket = np.kron(_KETS[s], _KETS[i])
        out.append(np.outer(ket, ket.conj()))
    return out


@dataclass(frozen=True)
class TomographyVector:
    """The 16 projection rates in table order, stored as floats, with provenance."""

    r: tuple[float, ...]
    method: RateMethod
    hplus_model: HplusModel | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", tuple(_checked_rates(self.r).tolist()))


def _checked_rates(r) -> np.ndarray:
    """The 16 projection rates as a float array, each finite and >= 0."""
    rv = np.asarray(r, dtype=float)
    if rv.shape != (16,):
        raise ValueError(f"expected 16 rates, got shape {rv.shape}")
    if not 0 <= rv.min() <= rv.max() < math.inf:  # False for NaN too
        raise ValueError("rates must be finite and >= 0")
    return rv


class DensityMatrix:
    """A validated 4x4 two-qubit density matrix.

    Construction enforces hermiticity and unit trace to 1e-12 and
    positivity up to -1e-10 of eigenvalue noise.  Any negative noise
    eigenvalues are clipped to zero and the matrix renormalized; the
    total clipped magnitude is recorded in ``psd_clip``.
    """

    HERM_TOL = 1e-12
    TRACE_TOL = 1e-12
    PSD_TOL = 1e-10

    def __init__(self, matrix: np.ndarray) -> None:
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise NotPhysical("matrix has non-finite entries")
        herm = np.max(np.abs(m - m.conj().T))
        if herm > self.HERM_TOL:
            raise NotPhysical(f"matrix is not Hermitian: max asymmetry {herm:.3e}")
        tr = m.trace()
        if abs(tr - 1.0) > self.TRACE_TOL:
            raise NotPhysical(f"trace must be 1, got {tr}")
        eigvals = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
        if eigvals.min() < -self.PSD_TOL:
            raise NotPhysical(f"eigenvalue {eigvals.min():.3e} below positivity tolerance")
        clip = float(-eigvals[eigvals < 0].sum()) if (eigvals < 0).any() else 0.0
        if clip > 0.0:
            w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
            w = np.clip(w, 0.0, None)
            m = (v * w) @ v.conj().T
            m /= m.trace().real
        m.setflags(write=False)
        self.matrix = m
        self.psd_clip = clip

    def __array__(self, dtype=None, copy=None):
        return np.array(self.matrix, dtype=dtype)

    def to_json_dict(self) -> dict:
        """Serializable form: basis labels plus real/imaginary parts, row-major."""
        return {
            "basis": list(BASIS_LABELS),
            "re": [[float(v.real) for v in row] for row in self.matrix],
            "im": [[float(v.imag) for v in row] for row in self.matrix],
        }


def assemble_r(
    kind: SourceKind,
    mu: float,
    alpha_s: float,
    alpha_i: float,
    dark_s: float = 0.0,
    dark_i: float = 0.0,
    policy: TruncationPolicy = TruncationPolicy(),
    method: RateMethod = RateMethod.CLOSED_FORM,
    hplus_model: HplusModel = HplusModel.COHERENT,
) -> TomographyVector:
    """Fill the 16-entry rate vector from the model's three distinct rates."""
    _require_entangled(kind, "tomography")
    if method is RateMethod.CLOSED_FORM:
        rep = closed_form_rates(kind, mu, alpha_s, alpha_i, dark_s, dark_i)
        hh, hv, hp = rep.r_hh, rep.r_hv, rep.r_hplus
        model = None
    elif method is RateMethod.EXACT_SERIES:
        source = PairSource(kind, mu)
        det_s = DetectorModel(alpha_s, dark_s)
        det_i = DetectorModel(alpha_i, dark_i)
        hh = coincidence_rate(source, Setting.HH, det_s, det_i, policy).value
        hv = coincidence_rate(source, Setting.HV, det_s, det_i, policy).value
        hp = coincidence_rate(source, Setting.HPLUS, det_s, det_i, policy, hplus_model).value
        model = hplus_model
    else:
        raise ValueError(f"unsupported tomography method {method}")
    r = [hp] * 16
    for j in PARALLEL_INDICES:
        r[j] = hh
    for j in CROSSED_INDICES:
        r[j] = hv
    return TomographyVector(tuple(r), method, model)


def _pauli_basis() -> list[np.ndarray]:
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    one = np.eye(2, dtype=complex)
    return [np.kron(a, b) for a in (one, sx, sy, sz) for b in (one, sx, sy, sz)]


def _design_matrix(basis: list[np.ndarray]) -> np.ndarray:
    """A[nu, j] = tr(Pi_nu B_j): the table's rates as a map from basis coefficients."""
    a = np.empty((16, 16))
    for row, pi in enumerate(projectors()):
        for col, b in enumerate(basis):
            a[row, col] = np.trace(pi @ b).real
    return a


# the table is fixed, so the basis and the design matrix are built once;
# the table is complete (rank 16), which a test checks
PAULI_BASIS: tuple[np.ndarray, ...] = tuple(_pauli_basis())
DESIGN_MATRIX: np.ndarray = _design_matrix(list(PAULI_BASIS))
for _m in (*PAULI_BASIS, DESIGN_MATRIX):
    _m.setflags(write=False)


def reconstruct(r) -> DensityMatrix:
    """Linear-inversion tomography of the 16 projection rates.

    The state is expanded over the Hermitian Pauli product basis, which
    turns r_nu = tr(rho Pi_nu) into a real 16x16 system; hermiticity of
    the result is then automatic.  The overall scale of ``r`` is
    irrelevant because the result is trace-normalized.
    """
    # a TomographyVector checked its rates when it was built
    rv = np.asarray(r.r, dtype=float) if isinstance(r, TomographyVector) else _checked_rates(r)
    top = rv.max()
    if top > 0:
        # exact power-of-two rescale: no rate scale overflows or underflows
        rv = np.ldexp(rv, -np.frexp(top)[1])
    coeff = np.linalg.solve(DESIGN_MATRIX, rv)
    rho = sum(c * b for c, b in zip(coeff, PAULI_BASIS))
    tr = rho.trace().real
    if tr <= 0:
        raise NotPhysical(f"reconstructed trace {tr:.3e} is not positive")
    return DensityMatrix(rho / tr)


def closed_form_rho(kind: SourceKind, mu: float) -> DensityMatrix:
    """Leading-order effective density matrix of an entangled source.

    Multi-pair emission mixes the ideal Bell state with crossed-basis
    accidentals, raising the HV/VH populations and (for distinguishable
    pairs) damping the coherences.
    """
    mu = _closed_form_mu(kind, mu)
    _require_entangled(kind, "tomography")
    if kind is SourceKind.DIS_ENTANGLED:
        outer = (2.0 + mu) / (4.0 + 4.0 * mu)
        inner = mu / (4.0 + 4.0 * mu)
        corner = 1.0 / (2.0 + 2.0 * mu)
    else:
        outer = (1.0 + mu) / (2.0 + 3.0 * mu)
        inner = mu / (4.0 + 6.0 * mu)
        corner = (2.0 + mu) / (4.0 + 6.0 * mu)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = outer
    m[1, 1] = m[2, 2] = inner
    m[0, 3] = m[3, 0] = corner
    return DensityMatrix(m)


def closed_form_concurrence(kind: SourceKind, mu: float) -> float:
    """Concurrence of :func:`closed_form_rho`, in closed form.

    max(0, (2 - mu) / (2 (1 + mu))) for distinguishable pairs, which
    reaches zero at mu = 2, and 2 / (2 + 3 mu) for indistinguishable
    pairs, which stays positive.
    """
    mu = _closed_form_mu(kind, mu)
    _require_entangled(kind, "tomography")
    if kind is SourceKind.DIS_ENTANGLED:
        return max(0.0, (2.0 - mu) / (2.0 * (1.0 + mu)))
    return 2.0 / (2.0 + 3.0 * mu)


_SYSY = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ],
    dtype=complex,
)


def concurrence(rho: DensityMatrix | np.ndarray) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    Computed through the Hermitian form sqrt(rho) rho~ sqrt(rho) with
    rho~ = (sy x sy) rho* (sy x sy), whose eigenvalues are real and
    nonnegative up to rounding; tiny negative noise is clipped.  A raw
    array is validated as a :class:`DensityMatrix` first.
    """
    m = (rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho)).matrix
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    spin_flipped = _SYSY @ m.conj() @ _SYSY
    lam2 = np.linalg.eigvalsh(sqrt_rho @ spin_flipped @ sqrt_rho)
    lam = np.sqrt(np.clip(lam2, 0.0, None))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))
