"""Kernel functions, Gram matrices with PSD certification, and a dual SVM
trainer whose multipliers and bias feed the quantum classifiers.

Both kernels offered for training are positive semi-definite: the squared
overlap of pure states and the trace inner product of density matrices.
:func:`kernel_matrix` is the one kernel path: it evaluates a kernel over
stacked inputs as one matrix product, and the single value, the Gram
matrix, the regression and every classifier's kernel sum are read from it.
A :class:`GramMatrix` computes its spectrum on first read, so training,
which needs only a PSD verdict, need not pay for one. There are two
certificates: :func:`psd_certify`'s eigenvalue rule, and one Cholesky
factor of ``G + sI`` that :func:`svm_train` tries first when the spectrum
is not known. The factor proves the eigenvalue rule by Higham's backward
error bound for Cholesky and costs ~3 n**2 transient floats; whenever it
proves nothing, the eigenvalue rule decides.
The trainer is a self-contained SMO solver (maximal-violating-pair
working-set selection, two-variable analytic updates) adequate up to a few
thousand points. Its loop updates the selection vector -l * grad in place
from two Gram rows per step and keeps its per-index scalars as Python
floats; its iterates are those of the plain gradient update, bit for bit
(see :func:`svm_train`). :func:`encode_rows` amplitude-encodes feature
rows into the unit vectors the kernels, the training set and the
classifiers read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .constants import (ATOL_STRUCT, DEFAULT_C, HS_TRACE, KERNEL_KINDS, REAL_OVERLAP,
                        SQUARED_OVERLAP)
from .errors import DataError, DimensionError, NumericError

SUPPORT_EPS = 1e-8
KKT_TOL = 1e-6
MAX_SMO_ITER = 100_000


def encode_rows(rows) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude-encode each row of a 2-D array: the unit vectors, zero-padded
    to the next power-of-two dimension, and the raw row norms.

    The added amplitudes are exactly 0 and never contribute to an overlap.
    """
    rows = np.asarray(rows, dtype=complex)
    if rows.ndim != 2 or rows.shape[1] == 0:
        raise DataError(f"cannot amplitude-encode rows of shape {rows.shape}")
    if not np.all(np.isfinite(rows)):
        raise DataError("cannot amplitude-encode non-finite features")
    # Each norm as np.linalg.norm of the row alone, so a row encodes to the
    # same bits in a batch as on its own.
    norms = np.array([np.linalg.norm(row) for row in rows])
    if np.any(norms == 0.0):
        raise DataError("cannot amplitude-encode the zero vector")
    out = np.zeros((rows.shape[0], 1 << max(0, math.ceil(math.log2(rows.shape[1])))),
                   dtype=complex)
    out[:, :rows.shape[1]] = rows / norms[:, None]
    return out, norms


@dataclass(frozen=True)
class KernelSpec:
    kind: str
    k: int = 1

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise DataError(f"unknown kernel kind {self.kind!r}")
        if self.k < 1:
            raise DataError(f"kernel copy exponent must be >= 1, got {self.k}")


def _stack(kind: str, states: Sequence) -> np.ndarray:
    """The inputs as one array (vectors, or density matrices for hs-trace):
    a stack as it is given, state objects after checking their type and that
    they share one dimension."""
    if isinstance(states, np.ndarray) and states.ndim != (3 if kind == HS_TRACE else 2):
        raise DimensionError(f"{kind} kernel cannot take a stack of shape {states.shape}")
    if len(states) == 0:
        raise DataError(f"{kind} kernel needs at least one state")
    if isinstance(states, np.ndarray):
        return states
    from .qmath import DensityMatrix, QState
    want = DensityMatrix if kind == HS_TRACE else QState
    if not all(isinstance(s, want) for s in states):
        raise DataError(f"{kind} kernel requires homogeneous {want.__name__} inputs")
    dims = {s.dim for s in states}
    if len(dims) > 1:
        raise DimensionError(f"dimension mismatch: {sorted(dims)}")
    return np.stack([s.entries if kind == HS_TRACE else s.vec for s in states])


def kernel_matrix(spec: KernelSpec, rows: Sequence, cols: Sequence) -> np.ndarray:
    """K[i, j] = kernel(rows[i], cols[j]) ** spec.k over the stacked inputs.

    Squared overlap |A^H B|**2 and real overlap Re(A^H B) take QStates or
    an (n, d) stack of unit vectors; hs-trace takes DensityMatrices or an
    (n, d, d) stack of them, Tr(rows[i] cols[j]) by one matrix product of
    the flattened stacks with an imaginary residual of at most 1e-12.
    Squared-overlap and hs-trace values must lie in [0, 1] (to -1e-12 /
    +1e-10) and are clamped there.
    """
    a = _stack(spec.kind, rows)
    b = a if cols is rows else _stack(spec.kind, cols)
    if a.shape[1:] != b.shape[1:]:
        raise DimensionError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    if spec.kind == HS_TRACE:
        # Tr(A B) = vec(A) . vec(B^T): one product of the flattened stacks.
        prod = a.reshape(len(a), -1) @ b.transpose(0, 2, 1).reshape(len(b), -1).T
        residual = max(prod.imag.max(), -prod.imag.min())
        if residual > ATOL_STRUCT:
            raise NumericError(f"trace inner product has imaginary residual {residual}")
        values = prod.real.copy()
    else:
        prod = a.conj() @ b.T
        values = prod.real.copy() if spec.kind == REAL_OVERLAP else np.abs(prod)
    if spec.kind == SQUARED_OVERLAP:
        np.square(values, out=values)
    if spec.kind != REAL_OVERLAP:
        lo, hi = values.min(), values.max()
        if not (lo >= -1e-12 and hi <= 1.0 + 1e-10):
            raise NumericError(f"{spec.kind} kernel values [{lo}, {hi}] outside [0, 1]")
        np.clip(values, 0.0, 1.0, out=values)
    if spec.k > 1:
        np.power(values, spec.k, out=values)
    return values


def kernel_eval(spec: KernelSpec, a, b) -> float:
    """Kernel value, raised to the copy exponent ``spec.k``."""
    return float(kernel_matrix(spec, [a], [b])[0, 0])


class GramMatrix:
    """Pairwise kernel values over a data set, and their ascending spectrum.

    The spectrum is computed (``np.linalg.eigvalsh``) on the first read of
    :attr:`eigenvalues` and kept, read-only; a spectrum that is already
    known may be passed to the constructor and is then used as given. The
    matrix is taken as ``np.asarray`` gives it (an array is not copied) and
    must be square.
    """

    __slots__ = ("matrix", "kernel", "_eigenvalues")

    def __init__(self, matrix: np.ndarray, kernel: KernelSpec,
                 eigenvalues: np.ndarray | None = None):
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DimensionError(f"Gram matrix must be square, got shape {matrix.shape}")
        self.matrix, self.kernel, self._eigenvalues = matrix, kernel, eigenvalues

    @property
    def eigenvalues(self) -> np.ndarray:
        if self._eigenvalues is None:
            eigs = np.linalg.eigvalsh(self.matrix)
            eigs.setflags(write=False)
            self._eigenvalues = eigs
        return self._eigenvalues

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])


def gram(spec: KernelSpec, states: Sequence) -> GramMatrix:
    """Symmetric Gram matrix G[n, m] = kernel(states[n], states[m]), over
    the inputs :func:`kernel_matrix` takes. The matrix is read-only and
    exactly symmetric; its spectrum is left to the first read."""
    g = kernel_matrix(spec, states, states)
    # The product's two triangles can differ in the last bit; their mean is
    # exactly symmetric.
    g += g.T
    g *= 0.5
    g.setflags(write=False)
    return GramMatrix(g, spec)


def vector_gram(spec: KernelSpec, vecs: np.ndarray) -> GramMatrix:
    """Gram matrix of a stack of unit vectors. hs-trace takes them as their
    projectors, whose trace inner product Tr(|a><a| |b><b|) = |<a|b>|**2 is
    the squared overlap of the vectors: that Gram is computed, and no
    projector is built, under the hs-trace spec.

    Its spectrum is computed at once: every caller writes it out, so
    :func:`svm_train` then certifies from it rather than factoring too.
    """
    g = gram(KernelSpec(SQUARED_OVERLAP, spec.k) if spec.kind == HS_TRACE else spec, vecs)
    return GramMatrix(g.matrix, spec, g.eigenvalues)  # the spectrum, computed here once


@dataclass(frozen=True)
class PsdCertificate:
    certified: bool
    min_eigenvalue: float
    threshold: float


def psd_certify(g) -> PsdCertificate:
    """Numerical PSD check: min eigenvalue >= -1e-8 * max(1, spectral norm).

    This is the exact certificate: it reads a :class:`GramMatrix`'s
    spectrum (computing it on first read) or runs ``eigvalsh`` on a bare
    matrix, after refusing a matrix whose asymmetry exceeds 1e-12. The
    Cholesky certificate of :func:`svm_train` accepts a subset of what this
    accepts, and defers to it on everything else.
    """
    if isinstance(g, GramMatrix):
        mat = g.matrix
    else:
        mat = np.asarray(g, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {mat.shape}")
    # An exactly symmetric matrix (every gram()) skips the difference.
    if not np.array_equal(mat, mat.T) and np.abs(mat - mat.T).max() > 1e-12:
        raise NumericError("PSD certification requires a symmetric matrix")
    eigs = g.eigenvalues if isinstance(g, GramMatrix) else np.linalg.eigvalsh(mat)
    lo = float(eigs[0])
    threshold = -1e-8 * max(1.0, float(np.abs(eigs).max()))
    return PsdCertificate(lo >= threshold, lo, threshold)


def _cholesky_certifies(matrix: np.ndarray) -> bool:
    """True when one Cholesky factor of G + sI, s = 0.5e-8 * max(1, max G_ii),
    proves lambda_min(G) >= -2s, which :func:`psd_certify` accepts: every
    |G_ii| is at most ||G||_2, so 2s is at most the size of its threshold.

    A factor R computed for the n x n matrix A = G + sI satisfies
    R^T R = A + dA with |dA| <= gamma_{n+1} |R^T| |R| (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Thm 10.5), so
    ||dA||_2 <= ||R||_F**2 gamma_{n+1} <= trace(A) gamma_{n+1} / (1 - gamma_{n+1}).
    The guard 4 gamma_{n+1} trace(A) <= s keeps that below s/2, so
    lambda_min(G) >= -3s/2. A matrix of another dtype or not exactly
    symmetric, a failed guard or factorisation, or a factor that is not
    finite returns False. Costs ~3 n**2 transient floats: the shifted copy,
    LAPACK's working copy and the factor.
    """
    n = matrix.shape[0]
    if matrix.dtype != np.float64 or not np.array_equal(matrix, matrix.T):
        return False
    shift = 0.5e-8 * max(1.0, float(matrix.diagonal().max()))
    trace = float(np.trace(matrix)) + n * shift
    u = np.finfo(float).eps / 2
    gamma = (n + 1) * u / (1 - (n + 1) * u)
    if not (math.isfinite(trace) and 4.0 * gamma * trace <= shift):
        return False
    shifted = matrix.copy()
    shifted.flat[::n + 1] += shift
    try:
        factor = np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(factor).all())


@dataclass(frozen=True)
class SvmModel:
    """Dual solution: nonnegative multipliers, bias, and the support set."""

    multipliers: np.ndarray
    bias: float
    support_indices: tuple[int, ...]
    kernel: KernelSpec
    labels: np.ndarray
    objective_history: tuple[float, ...] = field(default=(), repr=False)

    @property
    def signed_multipliers(self) -> np.ndarray:
        """Multipliers folded with the label signs: alpha_m = a_m * (-1)**y_m."""
        return self.multipliers * (1 - 2 * self.labels)


def _dual_objective(alpha: np.ndarray, q: np.ndarray) -> float:
    return float(alpha.sum() - 0.5 * alpha @ q @ alpha)


def svm_train(g: GramMatrix, labels: Sequence[int], C: float = DEFAULT_C,
              record_objective: bool = False) -> SvmModel:
    """Maximize the dual sum(a) - 1/2 sum a_i a_j l_i l_j G_ij subject to
    0 <= a <= C and sum(a_i l_i) = 0, by SMO over maximal violating pairs,
    to a KKT gap below ``KKT_TOL`` in at most ``MAX_SMO_ITER`` iterations.

    Checks, in this order: the labels (two classes of 0/1), the box
    constraint C (finite and positive), then that G is PSD (the dual could
    be unbounded otherwise). A Gram whose spectrum is already known is
    judged by :func:`psd_certify`. One whose spectrum is not is first
    factored: a Cholesky factor of G + sI, s = 0.5e-8 * max(1, max G_ii),
    with 4 gamma_{n+1} trace(G + sI) <= s proves lambda_min(G) >= -2s by
    Higham's bound (Thm 10.5; see :func:`_cholesky_certifies`), which
    :func:`psd_certify` accepts. It computes no spectrum and holds ~3 n**2
    transient floats. Whenever the factor certifies nothing,
    :func:`psd_certify` decides, so the verdict and the refusal are the
    same for every input.

    The loop keeps the selection vector -l * grad itself, updated in place:
    a step of size t on the pair (i, j) moves alpha_i by l_i t and alpha_j
    by -l_j t, so -l * grad moves by G[j] t - G[i] t. Negation is exact and
    rounding to nearest is sign-symmetric, so each entry is the one the
    gradient form gives, bit for bit, and neither l l^T * G nor any other
    n x n array is built (Q is built only to record the objective).
    """
    labels = np.asarray(labels, dtype=int)
    if labels.shape != (g.size,):
        raise DataError(f"{labels.size} labels for a {g.size}-point Gram matrix")
    ones = labels == 1
    if not (ones | (labels == 0)).all():
        raise DataError("labels must be 0 or 1")
    if ones.all() or not ones.any():
        raise DataError("SVM training requires both classes")
    if not 0 < C < np.inf:
        raise DataError(f"box constraint C must be finite and positive, got {C}")
    if g._eigenvalues is not None or not _cholesky_certifies(g.matrix):
        cert = psd_certify(g)
        if not cert.certified:
            raise NumericError(
                f"Gram matrix is not PSD (min eigenvalue {cert.min_eigenvalue}); refusing")

    matrix, m = g.matrix, g.size
    l = (1 - 2 * labels).astype(float)
    q = np.outer(l, l) * matrix if record_objective else None
    # Per-index scalars as Python floats and bools: no numpy scalar in the loop.
    positive, diag = (l > 0).tolist(), matrix.diagonal().tolist()
    alpha = [0.0] * m
    minus_lg = l.copy()  # -l * grad, grad of 1/2 aQa - sum(a) starting at -1
    # Selection penalties, added to -l * grad: 0 where an index may enter
    # the pair as i (``up``) or as j (``low``), -inf / +inf where it may
    # not. A step moves only alpha[i] and alpha[j], so only their entries
    # change. An empty set selects -inf or +inf, so its gap is -inf.
    up_pen = np.where(l > 0, 0.0, -np.inf)
    low_pen = np.where(l > 0, np.inf, 0.0)
    buf, move = np.empty(m), np.empty(m)
    history = []
    converged = False
    for _ in range(MAX_SMO_ITER):
        if record_objective:
            history.append(_dual_objective(np.array(alpha), q))
        i = int(np.add(minus_lg, up_pen, out=buf).argmax())
        top = buf.item(i)
        j = int(np.add(minus_lg, low_pen, out=buf).argmin())
        gap = top - buf.item(j)
        if gap < KKT_TOL:
            converged = True
            break
        quad = max(diag[i] + diag[j] - 2.0 * matrix.item(i, j), 1e-12)
        step = gap / quad
        step = min(step, (C - alpha[i]) if positive[i] else alpha[i])
        step = min(step, alpha[j] if positive[j] else (C - alpha[j]))
        alpha[i] += step if positive[i] else -step
        alpha[j] += -step if positive[j] else step
        # G is symmetric (exactly so from gram()): rows stand in for columns.
        np.multiply(matrix[i], step, out=move)
        np.multiply(matrix[j], step, out=buf)
        np.subtract(buf, move, out=move)
        minus_lg += move
        for k in (i, j):
            a = alpha[k]
            up_pen[k] = 0.0 if (a < C if positive[k] else a > 0) else -np.inf
            low_pen[k] = 0.0 if (a > 0 if positive[k] else a < C) else np.inf
    if not converged:
        gap = np.add(minus_lg, up_pen, out=buf).max() - np.add(minus_lg, low_pen, out=buf).min()
        raise NumericError(
            f"SMO did not reach tolerance {KKT_TOL} in {MAX_SMO_ITER} iterations "
            f"(final KKT gap {gap:.3g} at C={C:g}); data that are not separable "
            f"need a smaller box constraint C (--box-c)")
    alpha = np.array(alpha)
    if record_objective:
        history.append(_dual_objective(alpha, q))

    alpha = np.clip(alpha, 0.0, C)
    support = tuple(int(i) for i in np.flatnonzero(alpha > SUPPORT_EPS))
    # -l * grad itself, with grad rebuilt from minus_lg: the two differ only
    # in the sign of a zero, and the gradient reaches zero only as +0.
    b_candidates = -l * (-l * minus_lg + 0.0)
    free = (alpha > SUPPORT_EPS) & (alpha < C - SUPPORT_EPS)
    if free.any():
        bias = float(b_candidates[free].mean())
    else:
        # The clip moves no index across the set boundaries of the penalties.
        up, low = up_pen == 0.0, low_pen == 0.0
        hi = b_candidates[up].max() if up.any() else 0.0
        lo = b_candidates[low].min() if low.any() else 0.0
        bias = float((hi + lo) / 2.0)
    alpha.setflags(write=False)
    return SvmModel(alpha, bias, support, g.kernel, labels,
                    tuple(history) if record_objective else ())


def regression(model: SvmModel, train_states: Sequence, test) -> float:
    """Decision value f(test) = sum_j (-1)**y_j a_j kernel(x_j, test) + bias,
    with the kernel the model was trained with."""
    if len(train_states) != model.multipliers.size:
        raise DataError(f"{len(train_states)} states for {model.multipliers.size} multipliers")
    kernels = kernel_matrix(model.kernel, train_states, [test])[:, 0]
    return float(model.bias + model.signed_multipliers @ kernels)
