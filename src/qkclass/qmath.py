"""Dense complex linear algebra for small multi-register quantum systems.

All functions operate on plain numpy arrays or on the thin immutable
wrappers :class:`QState` and :class:`DensityMatrix`. One convention holds
package-wide: register order is big-endian, i.e. the first tensor factor
owns the most significant index bits of the composite space.

Everything here is a pure function on immutable values and is safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .constants import ATOL_DERIVED, ATOL_STRUCT, check_dense_budget
from .errors import DataError, DimensionError, NumericError

PSD_FLOOR = -1e-10
# Eigenvalues of at most this size are dropped from an eigen-factor
# (round-off of a rank-deficient state).
EIGEN_CUT = 1e-14

SIGMA_I = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_I, SIGMA_X, SIGMA_Y, SIGMA_Z)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

for _m in (*PAULIS, HADAMARD):
    _m.setflags(write=False)


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


def check_hermitian(mat: np.ndarray, what: str):
    """Raise NumericError unless max |M - M^H| <= 1e-12; a NaN entry fails."""
    if not mat.size:
        raise DimensionError(f"{what} must not be empty, got shape {mat.shape}")
    if not np.abs(mat - mat.conj().T).max() <= ATOL_STRUCT:
        raise NumericError(f"{what} is not Hermitian within 1e-12")


def as_cvec(x) -> np.ndarray:
    """Coerce ``x`` to an immutable 1-D complex vector of dimension >= 1."""
    vec = np.asarray(x, dtype=complex)
    if vec.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {vec.shape}")
    if vec.size < 1:
        raise DimensionError("vector must have dimension >= 1")
    if not np.all(np.isfinite(vec.view(float))):
        raise DataError("vector contains non-finite entries")
    return _frozen(vec)


class QState:
    """Normalized pure state on a power-of-two dimensional register."""

    __slots__ = ("vec",)

    def __init__(self, vec):
        vec = as_cvec(vec)
        norm = np.linalg.norm(vec)
        if abs(norm - 1.0) > ATOL_STRUCT:
            raise NumericError(f"state vector norm {norm!r} is not 1 within {ATOL_STRUCT}")
        if vec.size & (vec.size - 1):
            raise DimensionError(f"state dimension {vec.size} is not a power of 2")
        object.__setattr__(self, "vec", vec)

    def __setattr__(self, name, value):
        raise AttributeError("QState is immutable")

    @property
    def dim(self) -> int:
        return self.vec.size

    def overlap(self, other: "QState") -> complex:
        if self.dim != other.dim:
            raise DimensionError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return complex(np.vdot(self.vec, other.vec))

    def projector(self) -> np.ndarray:
        return np.outer(self.vec, self.vec.conj())

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(self.projector(), check_psd=False)

    def __repr__(self):
        return f"QState(dim={self.dim})"


class DensityMatrix:
    """Hermitian, unit-trace, positive semi-definite matrix.

    Hermiticity and trace are always verified (both cheap). The eigenvalue
    floor check costs a full eigendecomposition, so internal constructors
    that produce PSD matrices by construction pass ``check_psd=False``;
    ``validate_psd`` re-runs it on demand.
    """

    __slots__ = ("entries",)

    def __init__(self, entries, *, check_psd: bool = True):
        mat = np.asarray(entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {mat.shape}")
        check_hermitian(mat, "density matrix")
        tr = np.trace(mat)
        if not abs(tr - 1.0) <= ATOL_STRUCT:
            raise NumericError(f"trace {tr!r} is not 1 within {ATOL_STRUCT}")
        object.__setattr__(self, "entries", _frozen(mat))
        if check_psd:
            self.validate_psd()

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries)[0])

    def validate_psd(self):
        lo = self.min_eigenvalue()
        if not lo >= PSD_FLOOR:
            raise NumericError(f"minimum eigenvalue {lo} is below {PSD_FLOOR}")

    def validate(self):
        """Re-run every invariant, including the eigenvalue floor."""
        DensityMatrix(self.entries, check_psd=True)

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


def _as_array(x, matrix: bool = False) -> np.ndarray:
    """The entries of a state; a QState as its projector when ``matrix``."""
    if isinstance(x, DensityMatrix):
        return x.entries
    if isinstance(x, QState):
        return x.projector() if matrix else x.vec
    return np.asarray(x, dtype=complex)



def tensor(*operands) -> np.ndarray:
    """Kronecker product of vectors or matrices, left operand most significant.

    The output shape is checked against the size limits before anything is
    allocated. Each operand is then given its own interleaved axes and the
    operands are multiplied by broadcasting into the output's layout, which
    gives the same entries as a chain of numpy Kronecker products (each is
    the same left-to-right product) with less per-call overhead.
    """
    if not operands:
        raise DimensionError("tensor() needs at least one operand")
    arrays = [_as_array(op) for op in operands]
    ndim = max(a.ndim for a in arrays)
    n = len(arrays)
    arrays = [a.reshape((1,) * (ndim - a.ndim) + a.shape) for a in arrays]
    shape = [math.prod(a.shape[axis] for a in arrays) for axis in range(ndim)]
    check_dense_budget(shape, "tensor product")
    expanded = []
    for i, a in enumerate(arrays):
        axes = [1] * (ndim * n)
        axes[i::n] = a.shape
        expanded.append(a.reshape(axes))
    return reduce(np.multiply, expanded).reshape(shape)


def tensor_power(op, k: int) -> np.ndarray:
    if k < 1:
        raise DimensionError("tensor power requires k >= 1")
    return tensor(*([op] * k))


def partial_trace(rho, dims: Sequence[int], keep: Sequence[int]):
    """Reduced state on the ``keep`` subsystems (register order preserved).

    ``dims`` lists every subsystem dimension; their product must equal the
    matrix dimension. Returns a DensityMatrix when given one, else an array.
    """
    mat = _as_array(rho, True)
    dims = tuple(int(d) for d in dims)
    keep = sorted(set(int(i) for i in keep))
    n = len(dims)
    if int(np.prod(dims)) != mat.shape[0]:
        raise DimensionError(f"subsystem dims {dims} do not multiply to {mat.shape[0]}")
    if not keep or any(i < 0 or i >= n for i in keep):
        raise DimensionError(f"keep={keep} is not a nonempty subset of 0..{n - 1}")
    reshaped = mat.reshape(dims + dims)
    row = list(range(n))
    col = [i if i not in keep else n + i for i in range(n)]
    out_axes = keep + [n + i for i in keep]
    reduced = np.einsum(reshaped, row + col, out_axes)
    d_keep = int(np.prod([dims[i] for i in keep]))
    reduced = reduced.reshape(d_keep, d_keep)
    if isinstance(rho, (DensityMatrix, QState)):
        return DensityMatrix(reduced, check_psd=False)
    return reduced


def hs_inner(a, b) -> float:
    """Trace inner product Tr(a b) of two equal-dimension density matrices."""
    ma, mb = _as_array(a, True), _as_array(b, True)
    if ma.shape != mb.shape:
        raise DimensionError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    val = complex(np.einsum("ij,ji->", ma, mb))
    if abs(val.imag) > ATOL_STRUCT:
        raise NumericError(f"trace inner product has imaginary residual {val.imag}")
    return float(val.real)


def eigen_factor(state, what: str = "matrix") -> tuple[np.ndarray, np.ndarray | None]:
    """Rows F and signs s with rho = F^T diag(s) conj(F) = sum_i s_i |f_i><f_i|,
    the one form in which a state is measured.

    A QState or 1-D vector is its own single row, with ``signs`` None. A
    DensityMatrix or square array gives f_i = sqrt(|lambda_i|) times
    eigenvector i and s_i the sign of lambda_i, for each eigenvalue with
    |lambda_i| above ``EIGEN_CUT`` (a dropped one moves no entry by more
    than its size). A round-off negative eigenvalue is kept with sign -1,
    so the rows rebuild the matrix itself; ``signs`` is None when every sign
    is +1. An eigenvalue below ``PSD_FLOOR`` (the floor DensityMatrix
    accepts) or a rebuild off by more than 1e-12 in any entry (a
    non-Hermitian matrix) raises NumericError; any other shape DimensionError.
    """
    m = _as_array(state)
    if m.ndim == 1:
        return m[None], None
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"{what} must be a vector or a square matrix, got shape {m.shape}")
    vals, vecs = np.linalg.eigh(m)
    if vals.size and vals[0] < PSD_FLOOR:
        raise NumericError(f"{what} has eigenvalue {vals[0]} below {PSD_FLOOR}")
    keep = np.abs(vals) > EIGEN_CUT
    rows = (vecs[:, keep] * np.sqrt(np.abs(vals[keep]))).T
    signs = np.sign(vals[keep])
    err = float(np.abs((rows.T * signs) @ rows.conj() - m).max())
    if not err <= ATOL_STRUCT:  # a NaN entry fails
        raise NumericError(f"eigen-factor of the {what} rebuilds it only to {err}")
    return rows, (None if np.all(signs > 0) else signs)


def projectors(vecs: np.ndarray) -> np.ndarray:
    """|v><v| for each row v of a stack of vectors, shape (M, d, d)."""
    return vecs[:, :, None] * vecs[:, None, :].conj()


def power_mixture(mats: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    """sum_m weights[m] mats[m]^(x)k over a stack of square matrices, by one
    einsum with no per-entry tensor power."""
    d = mats.shape[1]
    check_dense_budget((d ** k, d ** k), "tensor-power mixture")
    operands = [weights, [0]]
    for i in range(k):
        operands += [mats, [0, 1 + i, 1 + k + i]]
    return np.einsum(*operands, list(range(1, 2 * k + 1))).reshape(d ** k, d ** k)


def hermitian_sqrt(mat: np.ndarray) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix.

    Eigenvalues in [-1e-10, 0) are round-off and clamp to 0; anything lower
    is an invariant violation. Eigenvalues below 1e-13 of the largest one
    (or of 1) are zeroed too: the square root amplifies kernel dust of
    size eps to sqrt(eps), so rank-deficient inputs need it.
    """
    vals, vecs = np.linalg.eigh(mat)
    if vals[0] < PSD_FLOOR:
        raise NumericError(f"matrix is not PSD: min eigenvalue {vals[0]}")
    vals = np.clip(vals, 0.0, None)
    vals[vals < 1e-13 * max(1.0, float(vals[-1]))] = 0.0
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(a, b) -> float:
    """Uhlmann fidelity Tr(sqrt(sqrt(a) b sqrt(a)))**2, in [0, 1]."""
    ma, mb = _as_array(a, True), _as_array(b, True)
    if ma.shape != mb.shape:
        raise DimensionError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    root = hermitian_sqrt(ma)
    inner = hermitian_sqrt(root @ mb @ root)
    val = float(np.trace(inner).real) ** 2
    if val > 1.0 + ATOL_DERIVED:
        raise NumericError(f"fidelity {val} exceeds 1 beyond tolerance")
    return val


@dataclass(frozen=True)
class HermitianSpectrum:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column i pairs with eigenvalues[i]

    @classmethod
    def of(cls, mat) -> "HermitianSpectrum":
        m = _as_array(mat, True)
        check_hermitian(m, "spectral decomposition input")
        vals, vecs = np.linalg.eigh(m)
        order = np.argsort(vals)[::-1]
        vals, vecs = vals[order], vecs[:, order]
        recon = (vecs * vals) @ vecs.conj().T
        err = np.linalg.norm(recon - m)
        if err > ATOL_DERIVED:
            raise NumericError(f"spectral reconstruction error {err} above 1e-10")
        return cls(_frozen(vals.astype(float)), _frozen(vecs))


def register_permutation_matrix(dims: Sequence[int], order: Sequence[int]) -> np.ndarray:
    """Unitary that reorders tensor factors: ``order[p]`` names the source
    register that lands at position ``p``, and column j is the permuted
    basis vector e_j. A vector v permutes as P v, a matrix M as P M P^T."""
    dims = tuple(int(d) for d in dims)
    order = tuple(int(i) for i in order)
    if sorted(order) != list(range(len(dims))):
        raise DimensionError(f"register order {order} is not a permutation of range({len(dims)})")
    total = math.prod(dims)
    check_dense_budget((total, total), "dense permutation matrix")
    columns = np.eye(total, dtype=complex).reshape(dims + (total,))
    return columns.transpose(order + (len(dims),)).reshape(total, total)


def random_state_vector(dim: int, rng: np.random.Generator) -> QState:
    """Haar-like random pure state from a complex Gaussian draw."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return QState(v / np.linalg.norm(v))
