"""Classical data -> quantum registers: amplitude encoding and the assembly
of the joint states the classifiers measure.

Register order conventions (big-endian, first factor most significant):

* block layout   [ancilla | test x k | train x k | label | index]
* pair layout    [ancilla | (test, train) x k | label]

Assemblies of pure data use the block layout; assemblies of density-matrix
data use the pair layout. The two are related by the fixed permutation
returned by :func:`block_to_pair_order`.

Every assembled state is a stack of component vectors v_i with row signs
s_i, rho = sum_i s_i |v_i><v_i|: one row for a pure superposition, a
purification for a mixture. A sign is -1 only for the round-off negative
eigen-part that a validated density matrix may carry, so the stack
reproduces the given state exactly. The circuit is linear, so it acts row
by row with the statistics of rho, and the dense rho is built only when
read. The mixed input sum_y rho_t^(x)k (x) sigma_y (x) |y><y|, with
sigma_y = sum_{m: y_m = y} w_m rho_m^(x)k, has as rows the products of the
eigen-factor rows of rho_t^(x)k and of sigma_y, in pair order: at most
2 rank(rho_t^(x)k) rank(sigma_y) rows, whatever the number of entries. The
index-free pure input has one row per entry; :func:`pure_stc_parts` yields
it in parts of bounded size, so that measuring it needs memory independent
of the number of entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from . import qmath
from .errors import DataError, DimensionError, NumericError
from .qmath import DensityMatrix, QState, tensor_power
from .registers import (ANCILLA, RegisterLayout, block_layout,
                        index_register_dim, pair_layout)

UNIT_VECTORS = "unit-vectors"
KEEP_NORMS = "keep-norms"


def amplitude_encode(x) -> QState:
    """Encode a raw complex vector in the amplitudes of a normalized state.

    The vector is zero-padded to the next power-of-two dimension; the added
    amplitudes are exactly 0 and never contribute to an overlap.
    """
    vec = qmath.as_cvec(x)
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        raise DataError("cannot amplitude-encode the zero vector")
    dim = 1 << max(0, math.ceil(math.log2(vec.size)))
    padded = np.zeros(dim, dtype=complex)
    padded[: vec.size] = vec / norm
    return QState(padded)


@dataclass(frozen=True)
class RawDatum:
    """One labelled training point in raw feature form."""

    features: np.ndarray
    label: int
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "features", qmath.as_cvec(self.features))
        if self.label not in (0, 1):
            raise DataError(f"label must be 0 or 1, got {self.label!r}")
        if not (self.weight >= 0.0):
            raise DataError(f"weight must be nonnegative, got {self.weight!r}")


@dataclass(frozen=True)
class TrainingEntry:
    state: QState | DensityMatrix
    label: int
    weight: float  # canonical: entry weights sum to 1 over the set
    norm: float = 1.0


class TrainingSet:
    """Labelled, weighted collection of encoded data plus the copy count ``k``.

    Weights are renormalized to sum to 1 at construction; when a bias is
    present it is rescaled by the same factor, which keeps the sign of any
    downstream regression value unchanged. In keep-norms mode the raw vector
    norms are retained per entry and folded into the effective weights as
    ``weight * norm**(2k)``.
    """

    __slots__ = ("entries", "k", "bias", "mode")

    def __init__(self, entries: Sequence[TrainingEntry], *, k: int = 1,
                 bias: float | None = None, mode: str = UNIT_VECTORS):
        entries = tuple(entries)
        if k < 1:
            raise DataError(f"copies k must be >= 1, got {k}")
        if mode not in (UNIT_VECTORS, KEEP_NORMS):
            raise DataError(f"unknown normalization mode {mode!r}")
        if bias is not None and bias == 0.0:
            raise DataError("bias 0 is not encodable; omit the bias instead")
        if not entries and bias is None:
            raise DataError("training set is empty and has no bias")
        dims = {e.state.dim for e in entries}
        if len(dims) > 1:
            raise DimensionError(f"mixed data dimensions in training set: {sorted(dims)}")
        if entries:
            total = sum(e.weight for e in entries)
            if total <= 0.0:
                raise DataError("training weights must have a positive sum")
            scale = 1.0 / total
            entries = tuple(
                TrainingEntry(e.state, e.label, e.weight * scale, e.norm) for e in entries
            )
            if bias is not None:
                bias = bias * scale
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "k", int(k))
        object.__setattr__(self, "bias", bias)
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):
        raise AttributeError("TrainingSet is immutable")

    @classmethod
    def from_raw(cls, data: Sequence[RawDatum], *, k: int = 1,
                 bias: float | None = None, mode: str = UNIT_VECTORS) -> "TrainingSet":
        entries = []
        for d in data:
            norm = float(np.linalg.norm(d.features)) if mode == KEEP_NORMS else 1.0
            entries.append(TrainingEntry(amplitude_encode(d.features), d.label, d.weight, norm))
        return cls(entries, k=k, bias=bias, mode=mode)

    @classmethod
    def from_states(cls, states: Sequence[tuple[QState | DensityMatrix, int, float]],
                    *, k: int = 1, bias: float | None = None) -> "TrainingSet":
        entries = [TrainingEntry(s, int(y), float(w)) for s, y, w in states]
        for e in entries:
            if e.label not in (0, 1):
                raise DataError(f"label must be 0 or 1, got {e.label!r}")
            if not (e.weight >= 0.0):
                raise DataError(f"weight must be nonnegative, got {e.weight!r}")
        return cls(entries, k=k, bias=bias)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def data_dim(self) -> int:
        if not self.entries:
            raise DataError("bias-only training set carries no data register")
        return self.entries[0].state.dim

    @property
    def is_mixed(self) -> bool:
        return any(isinstance(e.state, DensityMatrix) for e in self.entries)

    @property
    def labels(self) -> np.ndarray:
        return np.array([e.label for e in self.entries], dtype=int)

    @property
    def weights(self) -> np.ndarray:
        return np.array([e.weight for e in self.entries], dtype=float)

    @property
    def norms(self) -> np.ndarray:
        return np.array([e.norm for e in self.entries], dtype=float)

    def effective_weights(self) -> np.ndarray:
        """Probability weights of the assembled state: weight * norm**(2k), normalized."""
        if not self.entries:
            return np.zeros(0)
        w = self.weights * self.norms ** (2 * self.k)
        total = w.sum()
        if total <= 0.0:
            raise DataError("effective training weights are all zero")
        return w / total

    def effective_bias_and_weights(self) -> tuple[float, np.ndarray]:
        """Bias term and per-entry weights of the bias-extended state.

        Both are scaled by N = |bias| + sum(weight * norm**(2k)) so that the
        bias probability plus the entry probabilities is exactly 1.
        """
        if self.bias is None:
            raise DataError("training set has no bias")
        w = self.weights * self.norms ** (2 * self.k) if self.entries else np.zeros(0)
        n = abs(self.bias) + w.sum()
        return self.bias / n, w / n

    def pure_states(self) -> list[QState]:
        out = []
        for e in self.entries:
            if not isinstance(e.state, QState):
                raise DataError("operation requires pure-state training data")
            out.append(e.state)
        return out

    def density_states(self) -> list[DensityMatrix]:
        return [e.state.to_density() if isinstance(e.state, QState) else e.state
                for e in self.entries]


class ClassifierState:
    """An assembled joint state, its register layout, and optional extras.

    The state is a stack of component vectors V, shape (r, layout.dim), with
    row signs s: rho = V^T diag(s) conj(V) = sum_i s_i |v_i><v_i|. Every
    sign is +1 (``signs`` is None) unless the state carries the round-off
    negative eigen-part that a validated density matrix may have (see
    :func:`qkclass.qmath.eigen_factor`). ``vector`` gives the stack, or one
    1-D vector as a stack of one; the signed squared norms must sum to 1
    within 1e-12. A state given by its density matrix alone is
    eigen-factored into a stack. The stack is held as a read-only view, not
    a copy; ``rho`` is built from it, after the size check and with the
    usual :class:`DensityMatrix` checks, only when first asked for.
    ``members`` carries the (probability, member state) decomposition of an
    ensemble whose members use different copy counts and therefore
    different layouts; such a state may be given ``build`` instead of a
    stack, a function returning (stack, signs) that runs on the first read.
    """

    __slots__ = ("layout", "members", "_stack", "_signs", "_build", "_rho")

    def __init__(self, rho: DensityMatrix | None, layout: RegisterLayout,
                 vector: np.ndarray | None = None,
                 members: tuple[tuple[float, "ClassifierState"], ...] | None = None,
                 signs: np.ndarray | None = None, build=None):
        if rho is None and vector is None and build is None:
            raise DataError("a classifier state needs a density matrix or a vector")
        if rho is not None and layout.dim != rho.dim:
            raise DimensionError(
                f"layout dim {layout.dim} does not match state dim {rho.dim}")
        for name, value in (("layout", layout), ("members", members), ("_rho", rho),
                            ("_build", build), ("_stack", None), ("_signs", None)):
            object.__setattr__(self, name, value)
        if build is None and vector is None:
            vector, signs = qmath.eigen_factor(rho, "density matrix")
        if build is None:
            self._set_stack(vector, signs)

    def _set_stack(self, vector, signs):
        stack = np.asarray(vector, dtype=complex)
        dim = self.layout.dim
        if stack.ndim not in (1, 2) or stack.size == 0 or stack.shape[-1] != dim:
            raise DimensionError(f"layout dim {dim} does not match vector shape {stack.shape}")
        stack = stack.reshape(-1, dim)
        stack.setflags(write=False)
        if signs is None:
            norm_sq = float(np.vdot(stack, stack).real)
        else:
            signs = np.array(signs, dtype=float)
            if signs.shape != stack.shape[:1] or not np.all(np.abs(signs) == 1.0):
                raise DataError("row signs must be one +1 or -1 per stack row")
            signs.setflags(write=False)
            norm_sq = float(signs @ np.linalg.norm(stack, axis=1) ** 2)
        if not abs(norm_sq - 1.0) <= qmath.ATOL_STRUCT:
            raise NumericError(
                f"state squared norm {norm_sq!r} is not 1 within {qmath.ATOL_STRUCT}")
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "_signs", signs)

    def __setattr__(self, name, value):
        raise AttributeError("ClassifierState is immutable")

    @property
    def stack(self) -> np.ndarray:
        if self._stack is None:
            self._set_stack(*self._build())
        return self._stack

    @property
    def signs(self) -> np.ndarray | None:
        """Row signs, or None when every row counts +1."""
        if self._stack is None:
            self._set_stack(*self._build())
        return self._signs

    @property
    def vector(self) -> np.ndarray | None:
        """The state vector when the stack is one row (a pure state), else None."""
        return self.stack[0] if self.stack.shape[0] == 1 else None

    @property
    def rho(self) -> DensityMatrix:
        if self._rho is None:
            qmath.check_dense_budget((self.layout.dim, self.layout.dim), "density matrix")
            v, s = self.stack, self.signs
            rho = (v.T if s is None else v.T * s) @ v.conj()
            object.__setattr__(self, "_rho", DensityMatrix(rho, check_psd=False))
        return self._rho

    def __repr__(self):
        rows = "deferred" if self._stack is None else self._stack.shape[0]
        return f"ClassifierState(dim={self.layout.dim}, rows={rows})"


def _product_signs(factors) -> np.ndarray | None:
    """Signs of the row products of eigen-factors (rows, signs), first
    factor's row index most significant; None when every sign is +1."""
    if all(s is None for _, s in factors):
        return None
    out = np.ones(1)
    for rows, s in factors:
        out = np.multiply.outer(out, np.ones(rows.shape[0]) if s is None else s).ravel()
    return out


def _stack_state(layout: RegisterLayout, count: int, blocks) -> ClassifierState:
    """State of ``count`` rows, filled from blocks (label, rows over the data
    registers, row signs) with the ancilla, if any, in |0> and the label
    qubit in |label>. The budget check runs before the stack or any block
    exists."""
    qmath.check_dense_budget((count, layout.dim), "assembled state stack")
    anc = 2 if layout.has(ANCILLA) else 1
    out = np.zeros((count, anc, layout.dim // (2 * anc), 2), dtype=complex)
    signs = np.ones(count)
    start = 0
    for label, rows, row_signs in blocks:
        stop = start + rows.shape[0]
        out[start:stop, 0, :, label] = rows
        if row_signs is not None:
            signs[start:stop] = row_signs
        start = stop
    return ClassifierState(None, layout, vector=out.reshape(count, layout.dim),
                           signs=None if np.all(signs > 0) else signs)


def _row_power(rows: np.ndarray, k: int) -> np.ndarray:
    """Row i of the result is rows[i] tensored with itself k times."""
    out = rows
    for _ in range(k - 1):
        out = (out[:, :, None] * rows[:, None, :]).reshape(rows.shape[0], -1)
    return out


def _mixed_factors(test: DensityMatrix, train, k: int, layout: RegisterLayout):
    """Eigen-factors (rows, signs) of rho_t^(x)k and of each label's sigma_y:
    the test factor and one (label, factor) pair per label present.

    Before anything of size d**k x d**k is built, the stack they span on
    ``layout`` is planned against the size budget, with rank(sigma_y) <= d**k.
    """
    test_factor = qmath.eigen_factor(test, "test state")
    mats = np.stack([rho.entries for rho, _, _ in train])
    labels = np.array([label for _, label, _ in train])
    weights = np.array([w for _, _, w in train], dtype=float)
    groups = [(y, (labels == y) & (weights > 0.0)) for y in (0, 1)
              if np.any((labels == y) & (weights > 0.0))]
    bound = (test_factor[0].shape[0] * test.dim) ** k * len(groups)
    qmath.check_dense_budget((bound, layout.dim), "assembled state stack")
    factors = [(y, qmath.eigen_factor(qmath.power_mixture(mats[mask], weights[mask], k),
                                      f"label-{y} training mixture"))
               for y, mask in groups]
    power = (tensor_power(test_factor[0], k), _product_signs([test_factor] * k))
    return power, factors


def _pair_rows(dim: int, k: int, test_rows: np.ndarray, train_rows: np.ndarray) -> np.ndarray:
    """Products a (x) b in pair register order, for a in test_rows (k test
    copies) and b in train_rows (k train copies), by one einsum."""
    out = np.einsum(test_rows.reshape((-1,) + (dim,) * k), [0] + [2 + 2 * i for i in range(k)],
                    train_rows.reshape((-1,) + (dim,) * k), [1] + [3 + 2 * i for i in range(k)],
                    list(range(2 + 2 * k)))
    return out.reshape(-1, dim ** (2 * k))


def _branches(test: QState, vecs: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    """sqrt(w_m) |test>^k (x) |x_m>^k for each row x_m of ``vecs``, shaped
    (entries, d**k, d**k)."""
    test_block = tensor_power(test.vec, k)
    train = np.sqrt(weights)[:, None] * _row_power(vecs, k)
    return test_block[None, :, None] * train[:, None, :]


def _pure_state_vector(ts: TrainingSet, test: QState, weights: np.ndarray,
                       with_ancilla: bool, index_slots: int,
                       bias_prob: float = 0.0) -> np.ndarray:
    """Superposition over index slots in the block layout.

    Slot 0 carries the bias branch (test data on the train register, label
    y_b) when bias_prob > 0; training entries then occupy slots 1..M. Each
    branch is written into its (label, slot) block of one zero vector, so
    assembly holds a single state-sized array.
    """
    k = ts.k
    offset = 1 if bias_prob > 0.0 else 0
    block = test.dim ** k
    shape = (2 if with_ancilla else 1, block, block, 2, index_register_dim(index_slots))
    qmath.check_dense_budget((math.prod(shape),), "assembled state vector")
    vec = np.zeros(shape, dtype=complex)
    if bias_prob > 0.0:
        y_b = 0 if ts.bias > 0 else 1
        vec[0, :, :, y_b, 0] = _branches(test, test.vec[None], np.array([bias_prob]), k)[0]
    if ts.entries:
        vecs = np.stack([s.vec for s in ts.pure_states()])
        slots = offset + np.arange(len(ts))
        vec[0, :, :, ts.labels, slots] = _branches(test, vecs, weights, k)
    return vec.reshape(-1)


def _check_pure_input(ts: TrainingSet, test: QState):
    ts.pure_states()
    if not ts.entries:
        raise DataError("cannot assemble a classifier state from an empty training set")
    if ts.bias is not None:
        raise DataError("training set carries a bias; use assemble_bias_extended")
    if test.dim != ts.data_dim:
        raise DimensionError(f"test dim {test.dim} != training dim {ts.data_dim}")


# Largest stack of rows, in bytes, that pure_stc_parts puts in one part.
PART_BYTES = 2**21


def assemble_pure_stc_input(ts: TrainingSet, test: QState, *,
                            with_index: bool = False,
                            with_ancilla: bool = True) -> ClassifierState:
    """Joint input state of the swap-test classifier for pure training data.

    With an index register the state is the pure superposition over training
    slots, one row. Without one it is the equivalent mixture over training
    entries, which yields the same measurement statistics: one row
    sqrt(w_m) |test>^k |x_m>^k |y_m> per entry of nonzero weight.
    """
    if not with_index:
        [(_, state)] = pure_stc_parts(ts, test, with_ancilla=with_ancilla, part_bytes=None)
        return state
    _check_pure_input(ts, test)
    layout = block_layout(test.dim, ts.k, ancilla=with_ancilla, index_slots=len(ts))
    return ClassifierState(None, layout, vector=_pure_state_vector(
        ts, test, ts.effective_weights(), with_ancilla, len(ts)))


def pure_stc_parts(ts: TrainingSet, test: QState, *, with_ancilla: bool = True,
                   part_bytes: int | None = PART_BYTES):
    """The index-free pure input of :func:`assemble_pure_stc_input` as a
    convex mixture of parts, built one at a time.

    Yields (p, state) for runs of consecutive entries of nonzero weight:
    ``state`` holds their rows with the weights renormalized to the run, and
    p is the run's total weight, so sum p * value(state) is the value of the
    whole input. A part holds at most ``part_bytes`` of rows (at least one
    row; all rows in one part when None), so memory need not grow with the
    number of entries.
    """
    _check_pure_input(ts, test)
    weights = ts.effective_weights()
    layout = block_layout(test.dim, ts.k, ancilla=with_ancilla)
    entries = np.flatnonzero(weights > 0.0)
    size = entries.size if part_bytes is None else max(1, part_bytes // (16 * layout.dim))
    block = test.dim ** ts.k
    for start in range(0, entries.size, size):
        part = entries[start:start + size]
        qmath.check_dense_budget((part.size, layout.dim), "assembled state stack")
        p = float(weights[part].sum())
        vecs = np.stack([ts.entries[m].state.vec for m in part])
        out = np.zeros((part.size, 2 if with_ancilla else 1, block, block, 2), dtype=complex)
        out[np.arange(part.size), 0, :, :, ts.labels[part]] = _branches(
            test, vecs, weights[part] / p, ts.k)
        yield p, ClassifierState(None, layout, vector=out.reshape(part.size, layout.dim))


def assemble_mixed_stc_input(test: DensityMatrix,
                             train: Sequence[tuple[DensityMatrix, int, float]],
                             k: int, *, with_ancilla: bool = True) -> ClassifierState:
    """Joint input state for density-matrix data, pair register order.

    The state is sum_y rho_t^(x)k (x) sigma_y (x) |y><y|, held as the
    products of the eigen-factor rows of rho_t^(x)k and of each sigma_y.
    """
    if not train:
        raise DataError("empty training data")
    if k < 1:
        raise DataError(f"copies k must be >= 1, got {k}")
    weights = np.array([w for _, _, w in train], dtype=float)
    if np.any(weights < 0) or weights.sum() <= 0:
        raise DataError("training weights must be nonnegative with a positive sum")
    if abs(weights.sum() - 1.0) > 1e-9:
        raise DataError("training weights must form a distribution")
    dim = test.dim
    for rho_m, label, _ in train:
        if label not in (0, 1):
            raise DataError(f"label must be 0 or 1, got {label!r}")
        if rho_m.dim != dim:
            raise DimensionError(f"training dim {rho_m.dim} != test dim {dim}")
    layout = pair_layout(dim, k, ancilla=with_ancilla)
    test_factor, factors = _mixed_factors(test, train, k, layout)
    count = test_factor[0].shape[0] * sum(f[0].shape[0] for _, f in factors)
    return _stack_state(layout, count, (
        (y, _pair_rows(dim, k, test_factor[0], f[0]), _product_signs([test_factor, f]))
        for y, f in factors))


def assemble_bias_extended(ts: TrainingSet, test: QState) -> ClassifierState:
    """Bias-extended swap-test input state.

    The bias occupies index slot 0 with the test data standing in on the
    train registers (its swap-test kernel is exactly 1), label
    y_b = (1 - sgn(bias)) / 2, and amplitude sqrt(|bias| / N). The state is
    pure, a stack of one row; its density matrix is built only when ``rho``
    is read.
    """
    if ts.bias is None:
        raise DataError("training set has no bias; use assemble_pure_stc_input")
    if ts.entries and ts.is_mixed:
        raise DataError("bias-extended assembly requires pure training data")
    if ts.entries and test.dim != ts.data_dim:
        raise DimensionError(f"test dim {test.dim} != training dim {ts.data_dim}")
    bias_term, weights = ts.effective_bias_and_weights()
    slots = len(ts) + 1
    layout = block_layout(test.dim, ts.k, ancilla=True, index_slots=slots)
    vec = _pure_state_vector(ts, test, weights, True, slots, bias_prob=abs(bias_term))
    return ClassifierState(None, layout, vector=vec)


def _check_model_distribution(qs: np.ndarray, name: str):
    if np.any(qs < 0) or abs(qs.sum() - 1.0) > 1e-9:
        raise DataError(f"{name} must be a probability distribution")


def _model_weights(models, train) -> list[np.ndarray]:
    """Each model's weight vector, after checking that the model
    probabilities and every weight vector over ``train`` are distributions."""
    if not models:
        raise DataError("ensemble needs at least one model")
    _check_model_distribution(np.array([m[0] for m in models], dtype=float),
                              "model probabilities")
    out = []
    for model in models:
        a_s = np.array(model[1], dtype=float)
        if a_s.size != len(train):
            raise DataError("model weight vector length does not match training data")
        _check_model_distribution(a_s, "model weights")
        out.append(a_s)
    return out


def assemble_ensemble_weights(test: DensityMatrix,
                              models: Sequence[tuple[float, Sequence[float]]],
                              train: Sequence[tuple[DensityMatrix, int]],
                              k: int, *, with_ancilla: bool = True) -> ClassifierState:
    """Mixture over weight-vector models; equals a single mixed assembly with
    the convex-combined weights."""
    eff = sum(q * a_s for (q, _), a_s in zip(models, _model_weights(models, train)))
    data = [(rho, label, w) for (rho, label), w in zip(train, eff)]
    return assemble_mixed_stc_input(test, data, k, with_ancilla=with_ancilla)


def _pad_pair_state(data_dim: int, kind: str) -> np.ndarray:
    """Constant state occupying one unused (test, train) pair slot."""
    d2 = data_dim * data_dim
    if kind == "maximally-mixed":
        return np.eye(d2, dtype=complex) / d2
    if kind == "symmetric":
        # Uniform state on the symmetric subspace: swap-invariant, so a swap
        # test on a padded slot contributes a factor of exactly 1.
        swap = np.eye(d2).reshape(data_dim, data_dim, d2).transpose(1, 0, 2).reshape(d2, d2)
        proj = (np.eye(d2) + swap) / 2.0
        return proj / np.trace(proj).real
    raise DataError(f"unknown padding kind {kind!r}")


def _padded_joint(layout: RegisterLayout, members, pad, max_copies: int):
    """Stack and signs of sum_s q_s member_s with the padding rows on each
    member's unused pair slots, between its pairs and its label: row
    (i, j) of a member's block is sqrt(q_s) member row i with pad-product
    row j inserted. The budget check runs before any block exists."""
    members = [(q, m, max_copies - len(m.layout.pair_indices())) for q, m in members if q]
    count = sum(m.stack.shape[0] * pad[0].shape[0] ** n for _, m, n in members)
    qmath.check_dense_budget((count, layout.dim), "assembled state stack")
    blocks, signs = [], []
    for q, member, n in members:
        pads = reduce(np.kron, [pad[0]] * n, np.full((1, 1), math.sqrt(q)))
        rows = member.stack.reshape(member.stack.shape[0], -1, 2)  # ancilla+pairs, label
        blocks.append(np.einsum("iay,jp->ijapy", rows, pads).reshape(-1, layout.dim))
        signs.append(_product_signs([(member.stack, member.signs)] + [pad] * n))
    if all(s is None for s in signs):
        return np.concatenate(blocks), None
    return np.concatenate(blocks), np.concatenate(
        [np.ones(b.shape[0]) if s is None else s for b, s in zip(blocks, signs)])


def assemble_ensemble_exponents(test: DensityMatrix,
                                models: Sequence[tuple[float, Sequence[float], int]],
                                train: Sequence[tuple[DensityMatrix, int]],
                                max_copies: int, *,
                                padding: str = "maximally-mixed") -> ClassifierState:
    """Mixture over models with different copy counts k_s <= max_copies.

    Each member state occupies its k_s (test, train) pair slots; the unused
    slots are filled with a constant pair state so every member lives on the
    same registers. The default maximally mixed padding is not swap
    invariant, so ensemble expectation values are evaluated member by
    member (the ``members`` field); ``padding="symmetric"`` additionally
    makes the full swap-test circuit over all slots reproduce the same
    value. The joint state is deferred: its stack, the member rows times
    the eigen-factor rows of the padding, is built only when read.
    """
    weights = _model_weights(models, train)
    dim = test.dim
    pad = qmath.eigen_factor(_pad_pair_state(dim, padding), f"{padding} padding state")
    members = []
    for (q, _, k_s), a_s in zip(models, weights):
        k_s = int(k_s)
        if not 1 <= k_s <= max_copies:
            raise DataError(f"model copy count {k_s} outside 1..{max_copies}")
        data = [(rho, label, w) for (rho, label), w in zip(train, a_s)]
        members.append((float(q), assemble_mixed_stc_input(test, data, k_s)))
    layout = pair_layout(dim, max_copies, ancilla=True)
    return ClassifierState(None, layout, members=tuple(members),
                           build=lambda: _padded_joint(layout, members, pad, max_copies))


def block_to_pair_order(k: int, *, ancilla: bool = True) -> tuple[int, ...]:
    """Permutation taking block-layout registers to pair-layout order.

    Entry p names the block-layout register landing at pair position p; use
    with :func:`qkclass.qmath.permute_registers`.
    """
    order = []
    shift = 1 if ancilla else 0
    if ancilla:
        order.append(0)
    for i in range(k):
        order.append(shift + i)          # test copy i+1
        order.append(shift + k + i)      # train copy i+1
    order.append(shift + 2 * k)          # label
    return tuple(order)
