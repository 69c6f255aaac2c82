"""Kernel functions, Gram matrices with PSD certification, and a dual SVM
trainer whose multipliers and bias feed the quantum classifiers.

:func:`kernel_matrix` is the one kernel path: it evaluates a kernel over
stacked inputs as one matrix product, and the single value, the Gram
matrix, the regression and every classifier's kernel sum are read from it.
Every kernel is PSD in exact arithmetic, as the Hilbert-Schmidt inner
product is, so :func:`gram` attaches a bound on how far rounding and the
clamp moved the smallest eigenvalue below 0, and :func:`svm_train`
certifies from it alone. Every other matrix goes to :func:`psd_certify`'s
eigenvalue rule; a :class:`GramMatrix` computes its spectrum on first read.
The trainer is a self-contained SMO solver (maximal-violating-pair
working-set selection, two-variable analytic updates; see :func:`svm_train`)
adequate up to a few thousand points.
:func:`encode_rows` amplitude-encodes feature rows into the unit vectors
the kernels, the training set and the classifiers read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .constants import (DEFAULT_C, HS_TRACE, KERNEL_KINDS, REAL_OVERLAP, SQUARED_OVERLAP,
                        check_count, check_dense_budget)
from .errors import DataError, DimensionError, NumericError

SUPPORT_EPS = 1e-8
PSD_RTOL = 1e-8
_U = np.finfo(float).eps / 2  # unit roundoff
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
        check_count(self.k, "kernel copy exponent")


def _stack(kind: str, states: Sequence) -> np.ndarray:
    """The inputs as one float64 or complex128 array in C order: a stack as
    it is given (one of that type and order is not copied), state objects
    after checking their type and that they share one dimension. A pure
    state is a vector under every kind; hs-trace also takes density
    matrices, and a raw (n, d, d) stack must be Hermitian to 1e-12."""
    if isinstance(states, np.ndarray) and not 2 <= states.ndim <= (3 if kind == HS_TRACE else 2):
        raise DimensionError(f"{kind} kernel cannot take a stack of shape {states.shape}")
    if len(states) == 0:
        raise DataError(f"{kind} kernel needs at least one state")
    if isinstance(states, np.ndarray):
        out = np.asarray(states, complex if np.iscomplexobj(states) else float, order="C")
        if out.ndim == 3:
            from .qmath import check_hermitian
            check_hermitian(out, f"{kind} kernel input")
        return out
    from .qmath import DensityMatrix, QState
    want = DensityMatrix if kind == HS_TRACE and isinstance(states[0], DensityMatrix) else QState
    if not all(isinstance(s, want) for s in states):
        raise DataError(f"{kind} kernel requires homogeneous inputs: all QState"
                        + (", or all DensityMatrix" if kind == HS_TRACE else ""))
    dims = {s.dim for s in states}
    if len(dims) > 1:
        raise DimensionError(f"dimension mismatch: {sorted(dims)}")
    return np.stack([s.entries if want is DensityMatrix else s.vec for s in states])


def kernel_matrix(spec: KernelSpec, rows: Sequence, cols: Sequence) -> np.ndarray:
    """K[i, j] = kernel(rows[i], cols[j]) ** spec.k over the stacked inputs.

    Every kind takes pure states (QStates or an (n, d) stack of unit
    vectors); hs-trace also takes Hermitian matrices (DensityMatrices or an
    (n, d, d) stack), but not mixed with vectors. Squared overlap and
    hs-trace of vectors, Tr(|a><a| |b><b|) = |<a|b>|**2, square the modulus
    of one complex product A^H B; real overlap Re(A^H B) and hs-trace of
    matrices, Tr(A B) = Re vec(A) . vec(conj B), are one real product of
    the flattened float views. Squared-overlap and hs-trace values must lie
    in [0, 1] (to -1e-12 / +1e-10) and are clamped there. The (rows, cols)
    product is checked against the size budget before it is formed.
    """
    return _kernel_values(spec, rows, cols)[0]


def _kernel_values(spec: KernelSpec, rows: Sequence, cols: Sequence) -> tuple:
    """:func:`kernel_matrix`'s values, the stack of ``rows``, and the largest
    amount by which the clamp to [0, 1] moved a value (0 for real overlap)."""
    a = _stack(spec.kind, rows)
    b = a if cols is rows else _stack(spec.kind, cols)
    if a.ndim != b.ndim:
        raise DataError(f"{spec.kind} kernel cannot pair pure-state vectors with density matrices")
    if a.shape[1:] != b.shape[1:]:
        raise DimensionError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    if a.dtype != b.dtype:  # a float and a complex stack: one float view per row
        a, b = (x.astype(complex, copy=False) for x in (a, b))
    check_dense_budget((len(a), len(b)), "kernel matrix")
    if spec.kind == REAL_OVERLAP or a.ndim == 3:
        values = a.reshape(len(a), -1).view(float) @ b.reshape(len(b), -1).view(float).T
    else:
        values = np.abs(a.conj() @ b.T)
        np.square(values, out=values)
    clamp = 0.0
    if spec.kind != REAL_OVERLAP:
        lo, hi = values.min(), values.max()
        if not (lo >= -1e-12 and hi <= 1.0 + 1e-10):
            raise NumericError(f"{spec.kind} kernel values [{lo}, {hi}] outside [0, 1]")
        clamp = max(0.0, -float(lo), float(hi) - 1.0)
        np.clip(values, 0.0, 1.0, out=values)
    if spec.k > 1:
        np.power(values, spec.k, out=values)
    return values, a, clamp


def kernel_eval(spec: KernelSpec, a, b) -> float:
    """Kernel value, raised to the copy exponent ``spec.k``."""
    return float(kernel_matrix(spec, [a], [b])[0, 0])


class GramMatrix:
    """Pairwise kernel values over a data set, and their ascending spectrum.

    The spectrum is computed (``np.linalg.eigvalsh``) on the first read of
    :attr:`eigenvalues` and kept, read-only; a spectrum that is already
    known may be passed to the constructor and is then used as given. The
    matrix is taken as ``np.asarray`` gives it (an array is not copied) and
    must be square. One built by hand has no PSD bound (see :func:`gram`).
    """

    __slots__ = ("matrix", "kernel", "_eigenvalues", "_psd_bound")

    def __init__(self, matrix: np.ndarray, kernel: KernelSpec,
                 eigenvalues: np.ndarray | None = None):
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DimensionError(f"Gram matrix must be square, got shape {matrix.shape}")
        self.matrix, self.kernel, self._eigenvalues = matrix, kernel, eigenvalues
        self._psd_bound = (None, math.inf)  # (the matrix it bounds, S): none

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
    exactly symmetric; its spectrum is left to the first read.

    It carries S >= -lambda_min(G) for :func:`svm_train`. Exactly, G is
    PSD: a real Gram of the float views (real overlap, and hs-trace of
    Hermitian matrices), P o conj(P) for the Gram P of pure states (squared
    overlap and hs-trace), and their Schur powers (copies). With u = 2**-53,
    m the row length of the float view (real products per entry), R the
    largest ||x_i||**2 or ||A_i||_F**2 (inputs need not be unit), B = R**2
    (squared modulus) or R, c the largest clamp applied and
    M = (1 + (3m + 6)u) B + c, each entry is within
    e = k M**(k-1) ((3m + 6)u B + c) + 4u M**k of the exact one: gamma_m R
    per part of a product in any summation order, 2u for |.| and u for the
    square, c, the power's Lipschitz factor k M**(k-1) and 2u, and u for
    the mean. By ||E||_2 <= n max |E_ij|, S = n e. Terms of order u**2 and
    u c are left to the factor 2 in svm_train's test.
    """
    g, stack, clamp = _kernel_values(spec, states, states)
    # The product's two triangles can differ in the last bit; their mean is
    # exactly symmetric.
    g += g.T
    g *= 0.5
    g.setflags(write=False)
    out = GramMatrix(g, spec)
    flat = stack.reshape(len(stack), -1).view(float)
    m = flat.shape[1]
    with np.errstate(all="ignore"):  # a bound that is not finite certifies nothing
        big = np.einsum("ij,ij->i", flat, flat).max()
        base = big * big if spec.kind != REAL_OVERLAP and stack.ndim == 2 else big
        top = (1 + (3 * m + 6) * _U) * base + clamp
        slack = len(stack) * (spec.k * top ** (spec.k - 1) * ((3 * m + 6) * _U * base + clamp)
                              + 4 * _U * top ** spec.k)
    out._psd_bound = (g, float(slack))
    return out


@dataclass(frozen=True)
class PsdCertificate:
    certified: bool
    min_eigenvalue: float
    threshold: float


def psd_certify(g) -> PsdCertificate:
    """Numerical PSD check: min eigenvalue >= -1e-8 * max(1, spectral norm).

    This is the exact certificate: it reads a :class:`GramMatrix`'s
    spectrum (computing it on first read) or runs ``eigvalsh`` on a bare
    matrix, after refusing a matrix whose asymmetry exceeds 1e-12.
    :func:`svm_train` skips it only for a Gram whose bound proves that it
    would accept.
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
    threshold = -PSD_RTOL * max(1.0, float(np.abs(eigs).max()))
    return PsdCertificate(lo >= threshold, lo, threshold)


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
    be unbounded otherwise). :func:`gram`'s bound S certifies G, with no
    factor and no spectrum, when S <= (0.5e-8 - n**2 u) D, D = max(1,
    max_i G_ii) finite: eigvalsh returns the eigenvalues of G + F,
    ||F||_2 <= p(n) u ||G||_2 (LAPACK Users' Guide, sec. 4.7; p(n) = n**2
    here), the least at least -S - n**2 u ||G||_2 and (Weyl) the largest
    in modulus at least (1 - n**2 u) ||G||_2, so psd_certify's threshold
    is at most -1e-8 (1 - n**2 u) max(1, ||G||_2); and as ||G||_2 >=
    max_i G_ii, S + n**2 u ||G||_2 <= 0.5e-8 max(1, ||G||_2), which is
    within it when n**2 u <= 1/2, as a positive factor implies. Every other
    Gram (built by hand, given another matrix, or a bound too large or NaN)
    goes to :func:`psd_certify`, whose verdict and refusal hold on every input.

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
    bounded, slack = g._psd_bound
    if not (bounded is g.matrix and slack <= (0.5 * PSD_RTOL - g.size ** 2 * _U)
            * max(1.0, g.matrix.diagonal().max()) < math.inf):
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
