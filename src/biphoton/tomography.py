"""Two-qubit polarization-state tomography from the model rates.

A fixed table of 16 polarizer settings (the standard over-complete
H/V/diagonal/circular set) maps onto the three distinct rates the model
produces: settings whose single-pair projection overlaps the Bell state
with probability 1/2 take the parallel rate, settings orthogonal to it
take the crossed rate, and every mixed-basis setting takes the diagonal
rate.  Linear inversion by the table's dual frame then recovers the
effective density matrix, which is trace-normalized.
"""

from __future__ import annotations

import math

import numpy as np

from .detection import DetectorModel
from .distributions import SourceKind, TruncationPolicy, _check_member, _check_real, _record
from .polarization import (
    HplusModel,
    RateMethod,
    Setting,
    _DEFAULT_POLICY,
    _closed_form_mu,
    _closed_forms,
    _rate_sweep,
    _require_entangled,
    _scaled_arms,
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

BASIS_LABELS: tuple[str, ...] = ("HH", "HV", "VH", "VV")


def projectors() -> list[np.ndarray]:
    """Rank-1 projectors of the 16 table settings, signal (x) idler order."""
    out = []
    for s, i in PROJECTION_STATES:
        ket = np.kron(_KETS[s], _KETS[i])
        out.append(np.outer(ket, ket.conj()))
    return out


# F = 2 <Phi+|Pi_j|Phi+>, the sum of the HH and VV corners of Pi_j, is 1, 0 or 1/2 to
# rounding: the Bell overlap that names the column of (R_HH, R_HV, R_H+) setting j takes
_COLUMN = tuple((1.0, 0.0, 0.5).index(round(2 * pi[::3, ::3].sum().real) / 2)
                for pi in projectors())
PARALLEL_INDICES: tuple[int, ...] = tuple(j for j, c in enumerate(_COLUMN) if c == 0)
CROSSED_INDICES: tuple[int, ...] = tuple(j for j, c in enumerate(_COLUMN) if c == 1)


class TomographyVector(_record("r method hplus_model")):
    """The 16 projection rates in table order, as floats, tagged with a method and an H+ model."""

    __slots__ = ()

    def __new__(cls, r: tuple[float, ...], method: RateMethod,
                hplus_model: HplusModel | None = None):
        _check_member("method", method, RateMethod)
        if hplus_model is not None:
            _check_member("hplus_model", hplus_model, HplusModel)
        return tuple.__new__(cls, (tuple(_checked_rates(r).tolist()), method, hplus_model))


def _checked_rates(r) -> np.ndarray:
    """The 16 projection rates, each any real but a bool, as floats, each finite and >= 0."""
    try:
        shape = np.shape(r)
    except ValueError:  # ragged: an entry is a sequence, which the number rule refuses
        shape = (len(r),)
    if shape != (16,):
        raise ValueError(f"expected 16 rates, got shape {shape}")
    rv = np.array([_check_real("r", v) for v in r])  # numpy would take True or "1" as 1.0
    if not 0 <= rv.min(initial=0.0) <= rv.max(initial=0.0) < math.inf:  # False for NaN too
        raise ValueError("rates must be finite and >= 0")
    return rv


class DensityMatrix:
    """A validated 4x4 two-qubit density matrix.

    Construction copies the input, so ``matrix`` is read-only and the
    caller's array is not, and enforces hermiticity and unit trace to
    1e-12 and positivity up to -1e-10 of eigenvalue noise.  Negative
    noise eigenvalues are clipped to zero and the matrix renormalized;
    the total clipped magnitude is recorded in ``psd_clip``.  The
    positivity check and the clip share one Hermitian eigendecomposition,
    which :func:`concurrence` reuses; a clipped matrix is decomposed
    afresh.
    """

    HERM_TOL = 1e-12
    TRACE_TOL = 1e-12
    PSD_TOL = 1e-10

    def __init__(self, matrix: np.ndarray) -> None:
        m = np.array(matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        self._keep(*_validated(m[None]))

    def _keep(self, m: np.ndarray, clip: np.ndarray, w: np.ndarray, v: np.ndarray) -> None:
        """Hold row 0 of a validated stack: matrix, clip and the spectrum of ``matrix``."""
        m.setflags(write=False)
        self.matrix = m[0]
        self.psd_clip = float(clip[0])
        self._eigh = (w, v)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.matrix, dtype=dtype)

    def to_json_dict(self) -> dict:
        """Serializable form: basis labels plus real/imaginary parts, row-major."""
        return {
            "basis": list(BASIS_LABELS),
            "re": self.matrix.real.tolist(),
            "im": self.matrix.imag.tolist(),
        }


def assemble_r(
    kind: SourceKind,
    mu: float,
    alpha_s: float,
    alpha_i: float,
    dark_s: float = 0.0,
    dark_i: float = 0.0,
    policy: TruncationPolicy = _DEFAULT_POLICY,
    method: RateMethod = RateMethod.CLOSED_FORM,
    hplus_model: HplusModel = HplusModel.COHERENT,
) -> TomographyVector:
    """Fill the 16-entry rate vector from the model's three distinct rates;
    the closed forms refuse a non-default ``policy`` or ``hplus_model``."""
    _check_member("kind", kind, SourceKind)
    _check_member("hplus_model", hplus_model, HplusModel)
    _check_member("method", method, RateMethod)
    _require_entangled(kind, "tomography")
    _, [(_, rates)] = _rate_sweep(kind, (Setting.HH, Setting.HV, Setting.HPLUS), (mu,),
                                  DetectorModel(alpha_s, dark_s), DetectorModel(alpha_i, dark_i),
                                  policy, hplus_model, method)
    model = None if method is RateMethod.CLOSED_FORM else hplus_model  # the closed forms read none
    return TomographyVector(tuple(rates[c] for c in _COLUMN), method, model)


# the dual frame: row nu is M_nu of rho = sum_nu r_nu M_nu, flattened, with
# tr(Pi_mu M_nu) = [mu = nu] (James, Kwiat, Munro & White, PRA 64, 052312,
# 2001).  With P[mu] the flattened Pi_mu, tr(Pi_mu M) = P[mu] . vec(M^T), so
# vec(M_nu^T) is column nu of P^-1; the table is complete (rank 16), which a
# test checks.  P^-1 is read off the inverse of the real block form
# [[Re P, -Im P], [Im P, Re P]], so the import calls no complex LAPACK.  The
# exact entries are halves, so snapping to them removes the rounding of the
# inverse, and + 0.0 turns the zeros the snap leaves at -0.0 into 0.0.
def _dual_frame() -> np.ndarray:
    p = np.array([pi.ravel() for pi in projectors()])
    b = np.linalg.inv(np.block([[p.real, -p.imag], [p.imag, p.real]]))
    inverse = b[:16, :16] + 1j * b[16:, :16]
    return np.round(2.0 * inverse.reshape(4, 4, 16).transpose(2, 1, 0).reshape(16, 16)) / 2.0 + 0.0


_DUAL: np.ndarray = _dual_frame()
_DUAL.setflags(write=False)
# rv @ _DUAL.view(float) holds Re and Im of each entry of rho, row-major;
# entry (j, i) is read from (i, j), conjugated, so rho is exactly Hermitian
_I, _J, _PART = np.indices((4, 4, 2)).reshape(3, -1)
_GATHER = 2 * (4 * np.minimum(_I, _J) + np.maximum(_I, _J)) + _PART
_SIGN = np.where((_PART == 1) & (_I > _J), -1.0, 1.0)


def _validated(m: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every check of :class:`DensityMatrix` on an (N, 4, 4) stack it owns.

    Returns the stack, with clipped rows replaced, the clipped magnitude
    per row and the eigendecomposition of each returned row: one stacked
    ``eigh`` for all, a fresh one for clipped rows only.  Each check
    reduces the whole stack once, so one row costs about what one 4x4
    check costs, and reports the stack's worst value, which for one row
    is that row's.  A stack's inputs are all checked before it is formed,
    so a failing check refuses the whole stack and grades no row.
    """
    if not np.isfinite(m).all():
        raise NotPhysical("matrix has non-finite entries")
    mh = m.conj().swapaxes(1, 2)
    herm = np.abs(m - mh).max(initial=0.0)
    if herm > DensityMatrix.HERM_TOL:
        raise NotPhysical(f"matrix is not Hermitian: max asymmetry {herm:.3e}")
    tr = m.trace(axis1=1, axis2=2)
    off = np.abs(tr - 1.0)
    if off.max(initial=0.0) > DensityMatrix.TRACE_TOL:
        raise NotPhysical(f"trace must be 1, got {tr[off.argmax()]}")
    w, v = np.linalg.eigh((m + mh) / 2.0)
    low = w[:, 0]
    lowest = low.min(initial=0.0)
    if lowest < -DensityMatrix.PSD_TOL:
        raise NotPhysical(f"eigenvalue {lowest:.3e} below positivity tolerance")
    clip = np.zeros(len(m))
    if lowest < 0:
        # few rows clip, so each is rebuilt and decomposed on its own
        for k in [k for k, x in enumerate(low.tolist()) if x < 0]:
            wk, vk = w[k], v[k]
            clip[k] = -wk[wk < 0].sum()
            mk = (vk * np.maximum(wk, 0.0)) @ vk.conj().T
            mk /= mk.trace().real
            m[k] = mk
            w[k], v[k] = np.linalg.eigh((mk + mk.conj().T) / 2.0)
    return m, clip, w, v


def _reconstructed(rv: np.ndarray) -> tuple[np.ndarray, ...]:
    """Linear inversion of an (N, 16) stack of checked rates, then :func:`_validated`."""
    # exact power-of-two rescale of each row: no rate scale overflows or
    # underflows (an all-zero row keeps exponent 0)
    rv = np.ldexp(rv, -np.frexp(rv.max(axis=1))[1][:, None])
    # a stack of vector-matrix products: a plain (N, 16) @ (16, 32) would
    # go to a matrix-matrix kernel, whose sums round differently
    flat = np.matmul(rv[:, None, :], _DUAL.view(float))[:, 0].take(_GATHER, axis=1) * _SIGN
    rho = flat.view(complex).reshape(-1, 4, 4)
    tr = rho.trace(axis1=1, axis2=2).real
    if not tr.min(initial=1.0) > 0:
        raise NotPhysical(f"reconstructed trace {tr.min():.3e} is not positive: the trace is the "
                          "sum of the HH, HV, VV and VH rates, so one must be above 0; at mu = 0 "
                          "give each arm a dark count, and give no arm alpha = dark = 0")
    return _validated(rho / tr[:, None, None])


def reconstruct(r) -> DensityMatrix:
    """Linear-inversion tomography of the 16 projection rates.

    The table is complete, so the inversion is the fixed dual frame
    rho = sum_nu r_nu M_nu of James et al. (PRA 64, 052312, 2001).  Its
    entries are exact halves, so each product is exact and only the sum
    of 16 terms rounds; the result is exactly Hermitian.  The overall
    scale of ``r`` is irrelevant because the result is trace-normalized.
    One state is the one-row case of the stacked reconstruction that
    ``concurrence-curve`` runs, bit for bit.
    """
    rv = np.array(r.r) if isinstance(r, TomographyVector) else _checked_rates(r)
    dm = DensityMatrix.__new__(DensityMatrix)
    dm._keep(*_reconstructed(rv[None]))
    return dm


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


# (sy x sy) X (sy x sy) has entry (i, j) = s_i s_j X[3-i, 3-j], s = (-1, 1, 1, -1)
_FLIP = np.outer([-1.0, 1.0, 1.0, -1.0], [-1.0, 1.0, 1.0, -1.0])
_FLIP.setflags(write=False)


def _wootters(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Concurrence of each state of a stack, from its eigendecomposition w, v.

    lam are the singular values of sqrt(rho) sqrt(rho~), the square roots
    of the eigenvalues of sqrt(rho) rho~ sqrt(rho), with sqrt(rho~) =
    (sy x sy) sqrt(rho)* (sy x sy) formed exactly.
    """
    sqrt_rho = (v * np.sqrt(np.maximum(w, 0.0))[:, None, :]) @ v.conj().swapaxes(1, 2)
    sqrt_flipped = sqrt_rho[:, ::-1, ::-1].conj() * _FLIP
    lam = np.linalg.svd(sqrt_rho @ sqrt_flipped, compute_uv=False)
    return np.maximum(lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3], 0.0)


def _closed_form_concurrences(kinds: tuple, mus: list, alpha_s, alpha_i, dark_s=0.0, dark_i=0.0):
    """The ``conc_*`` columns of ``concurrence-curve``: C of the closed-form state of each
    of ``kinds`` at each mu, kinds innermost, each ``concurrence(reconstruct(assemble_r(
    kind, mu, alpha_s, ...)))`` bit for bit where those rates are 0 or normal.  Every
    input is checked, with ``assemble_r``'s messages, before anything is computed: both
    arms, then each kind, then each state's mu.  The arms are then scaled by
    :func:`_scaled_arms`, whose power of two the reconstruction's row rescale takes back,
    so tiny arms leave no rate subnormal, which ``reconstruct(assemble_r(...))`` can refuse.
    The rates are formed in one array pass and the states graded in one more; at mu = 0
    without darks, where every rate is 0, the state is the mu -> 0 limit, of rate ratio
    (1, 0, 1/2), the Bell state's, if both arms can click.
    """
    arms = _scaled_arms(DetectorModel(alpha_s, dark_s), DetectorModel(alpha_i, dark_i))
    for kind in kinds:
        _check_member("kind", kind, SourceKind)
        _require_entangled(kind, "tomography")
    mu, step = np.array([_closed_form_mu(kind, m) for m in mus for kind in kinds]), len(kinds)
    rates = np.empty((3, len(mu)))
    for j, kind in enumerate(kinds):
        rates[:, j::step] = _closed_forms(kind, mu[j::step], *arms)[:3]
    if not any(d.dark for d in arms) and all(d.alpha for d in arms):
        rates[:, mu == 0.0] = [[1.0], [0.0], [0.5]]
    # rates of checked inputs are finite and >= 0: no state needs _checked_rates
    _, _, w, v = _reconstructed(rates.T.take(_COLUMN, axis=1))
    return _wootters(w, v)


def concurrence(rho: DensityMatrix | np.ndarray) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    C = max(0, lam_1 - lam_2 - lam_3 - lam_4) with lam the singular
    values of sqrt(rho) sqrt(rho~), rho~ = (sy x sy) rho* (sy x sy)
    (Wootters, PRL 80, 2245, 1998): the square roots of the eigenvalues
    of sqrt(rho) rho~ sqrt(rho), without forming that product.  A raw
    array is validated as a :class:`DensityMatrix` first, and sqrt(rho)
    comes from the eigendecomposition that validation made.

    Accuracy: an SVD gets each lam to a few roundings of the largest,
    which is at most 1, so C is good to about 1e-15 absolute, near-pure
    states included.  Against 60-digit references of the same matrices,
    3,100 random, rank-deficient and model states (mu 1e-9 to 5) were
    within 3.7e-15; tests hold model states at mu 1e-8 and 1e-6, and
    random states, to 1e-14.
    """
    dm = rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho)
    return float(_wootters(*dm._eigh)[0])
