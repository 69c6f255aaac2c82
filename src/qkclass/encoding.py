"""Classical data -> quantum registers: amplitude encoding, the training
set, and the assembly of the joint states the classifiers measure.

A :class:`TrainingSet` holds its entries as stacked, read-only arrays
(states, labels, weights, norms), checked once at construction; every
assembly below reads those arrays and builds no per-entry state object.

Every assembly uses one register order, the block layout (big-endian,
first factor most significant):

    [ancilla | test x k | train x k | label | index]

Every assembled state is a stack of component vectors v_i with row signs
s_i, rho = sum_i s_i |v_i><v_i| (an exponent ensemble: one per member): one
row for a pure superposition, a purification for a mixture. A sign is -1
only for the round-off negative eigen-part that a validated density matrix
may carry, so the stack reproduces the given state exactly. The circuit is
linear, so it acts row by row with the statistics of rho, and the dense rho
is built only when read. Pure data is the rank-1 case of density-matrix
data, and one builder, :func:`mixed_stc_state`, writes the index-free input
of both: the products of the rows of test^(x)k (t^(x)k for a unit vector,
the eigen-factor row products of a density matrix) with the training rows
(sqrt(w_m) x_m^(x)k on label y_m per pure entry; the eigen-factor rows of
each label's sigma_y = sum_{m: y_m = y} w_m rho_m^(x)k for density
matrices). The batched classifiers build the same rows for many test states
in parts of at most ``PART_BYTES``. One writer, :func:`_slot_rows`, fills
the index slots and label blocks of every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import qmath
from .constants import check_count
from .errors import DataError, DimensionError, NumericError
from .kernelsvm import encode_rows
from .qmath import DensityMatrix, QState, tensor_power
from .registers import RegisterLayout, block_layout

UNIT_VECTORS = "unit-vectors"
KEEP_NORMS = "keep-norms"


def amplitude_encode(x) -> QState:
    """Encode a raw complex vector in the amplitudes of a normalized state
    (one row of :func:`encode_rows`)."""
    return QState(encode_rows(qmath.as_cvec(x)[None])[0][0])


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


class TrainingSet:
    """Labelled, weighted training data plus the copy count ``k``, held as
    read-only stacked arrays that are checked once, at construction:

    * ``states``: (M, d) unit vectors, or (M, d, d) density matrices when
      any entry is mixed, checked as :class:`DensityMatrix` checks one;
    * ``labels``: (M,) labels 0 or 1;
    * ``weights``: (M,) nonnegative weights, renormalized to sum to 1;
    * ``norms``: (M,) raw vector norms, finite and positive, in keep-norms
      mode, else all 1.

    When a bias is present it is rescaled by the weights' normalization
    factor, which keeps the sign of any downstream regression value
    unchanged. In keep-norms mode the norms are folded into the effective
    weights as ``weight * norm**(2k)``. The constructor takes the arrays
    (``norms`` is read in keep-norms mode only); :meth:`from_raw` and
    :meth:`from_states` build them from raw features or state objects.
    """

    __slots__ = ("states", "labels", "weights", "norms", "k", "bias", "mode")

    def __init__(self, states, labels, weights, *, norms=None, k: int = 1,
                 bias: float | None = None, mode: str = UNIT_VECTORS):
        states = np.array(states, dtype=complex)
        labels, weights = np.asarray(labels), np.array(weights, dtype=float)
        norms = (np.ones(weights.shape) if norms is None or mode == UNIT_VECTORS
                 else np.array(norms, dtype=float))
        k = check_count(k, "copies k")
        if mode not in (UNIT_VECTORS, KEEP_NORMS):
            raise DataError(f"unknown normalization mode {mode!r}")
        if bias is not None and not math.isfinite(bias):
            raise DataError(f"bias must be finite, got {bias!r}")
        if bias == 0.0:
            raise DataError("bias 0 is not encodable; omit the bias instead")
        if not labels.size and bias is None:
            raise DataError("training set is empty and has no bias")
        if not (states.ndim in (2, 3) and len(states) == labels.size == weights.size == norms.size):
            raise DimensionError(f"need a label, weight and norm per state, got {states.shape}")
        if not np.all(np.isin(labels, (0, 1))):
            raise DataError(f"labels must be 0 or 1, got {sorted(set(labels.tolist()))}")
        bad = ~((weights >= 0.0) & (weights < math.inf))
        if np.any(bad):
            raise DataError(f"weights must be finite and nonnegative, got {weights[bad][0]}")
        bad = ~((norms > 0.0) & (norms < math.inf))
        if np.any(bad):
            raise DataError(f"norms must be finite and positive, got {norms[bad][0]}")
        size = (np.linalg.norm(states, axis=1) if states.ndim == 2
                else np.trace(states, axis1=1, axis2=2))
        if not np.all(np.abs(size - 1.0) <= qmath.ATOL_STRUCT):
            raise NumericError("training states must be unit vectors or unit-trace matrices")
        if states.ndim == 3 and len(states):
            qmath.check_hermitian(states, "density matrix")
            qmath.check_psd_floor(float(np.linalg.eigvalsh(states).min()))
        with np.errstate(over="ignore"):
            total = weights.sum()
        if not math.isfinite(total):
            # Finite weights whose sum overflows: rescale by the largest first.
            top = weights.max()
            weights, bias = weights / top, None if bias is None else bias / top
            total = weights.sum()
        if labels.size and not total > 0.0:
            raise DataError("training weights must have a positive sum")
        scale = 1.0 / total if labels.size else 1.0
        weights, bias = weights * scale, None if bias is None else bias * scale
        for name, value in (("states", states), ("labels", labels.astype(int)),
                            ("weights", weights), ("norms", norms), ("k", k),
                            ("bias", bias), ("mode", mode)):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("TrainingSet is immutable")

    @classmethod
    def _of(cls, items, **kwargs) -> "TrainingSet":
        """From (QState or DensityMatrix, label, weight) triples, stacked
        once: vectors, or density matrices for all entries when any is mixed."""
        dims = {s.dim for s, _, _ in items}
        if len(dims) > 1:
            raise DimensionError(f"mixed data dimensions in training set: {sorted(dims)}")
        mixed = any(isinstance(s, DensityMatrix) for s, _, _ in items)
        rows = [s.entries if isinstance(s, DensityMatrix) else s.projector() if mixed
                else s.vec for s, _, _ in items]
        return cls(np.stack(rows) if rows else np.zeros((0, 1)), [int(y) for _, y, _ in items],
                   [float(w) for _, _, w in items], **kwargs)

    @classmethod
    def from_raw(cls, data: Sequence[RawDatum], *, k: int = 1,
                 bias: float | None = None, mode: str = UNIT_VECTORS) -> "TrainingSet":
        norms = [np.linalg.norm(d.features) for d in data]
        return cls._of([(amplitude_encode(d.features), d.label, d.weight) for d in data],
                       norms=norms, k=k, bias=bias, mode=mode)

    @classmethod
    def from_states(cls, states: Sequence[tuple[QState | DensityMatrix, int, float]],
                    *, k: int = 1, bias: float | None = None) -> "TrainingSet":
        return cls._of(list(states), k=k, bias=bias)

    def __len__(self) -> int:
        return self.labels.size

    @property
    def data_dim(self) -> int:
        if not len(self):
            raise DataError("bias-only training set carries no data register")
        return self.states.shape[1]

    @property
    def is_mixed(self) -> bool:
        return self.states.ndim == 3

    def density_matrices(self) -> np.ndarray:
        """(M, d, d) density matrices: ``states`` for mixed data, else the
        projectors of the vectors."""
        return self.states if self.is_mixed else qmath.projectors(self.states)

    def effective_weights(self) -> np.ndarray:
        """Probability weights of the assembled state: weight * norm**(2k), normalized."""
        w = self.weights * self.norms ** (2 * self.k)
        if len(self) and w.sum() <= 0.0:
            raise DataError("effective training weights are all zero")
        return w / w.sum() if len(self) else w

    def effective_bias_and_weights(self) -> tuple[float, np.ndarray]:
        """Bias term and per-entry weights of the bias-extended state; without
        a bias, (0.0, :meth:`effective_weights`).

        Both are scaled by N = |bias| + sum(weight * norm**(2k)) so that the
        bias probability plus the entry probabilities is exactly 1.
        """
        if self.bias is None:
            return 0.0, self.effective_weights()
        w = self.weights * self.norms ** (2 * self.k)
        n = abs(self.bias) + w.sum()
        return self.bias / n, w / n


class ClassifierState:
    """An assembled state on its register layout: a signed stack of rows, or
    the (probability, member state) pairs of an ensemble, never both.

    Every assembly in this module uses the block layout
    (:func:`qkclass.registers.block_layout`); a state built directly may
    use any layout. A stack V, shape (r, layout.dim), with row signs s is
    rho = V^T diag(s) conj(V) = sum_i s_i |v_i><v_i|. Every sign is +1
    (``signs`` is None) unless the state carries the round-off negative
    eigen-part of a validated density matrix, which is given as its
    :func:`qkclass.qmath.eigen_factor` rows and signs. One 1-D vector is a
    stack of one; the signed squared norms must sum to 1 within 1e-12. The
    stack is held as a read-only view; ``rho`` is built from it only when
    first asked for. An ensemble whose members use different copy counts
    is its ``members`` alone, measured member by member: reading its
    ``stack``, ``signs``, ``vector`` or ``rho`` raises DataError.
    """

    __slots__ = ("layout", "members", "_stack", "_signs", "_rho")

    def __init__(self, layout: RegisterLayout, stack: np.ndarray | None = None,
                 signs: np.ndarray | None = None,
                 members: tuple[tuple[float, "ClassifierState"], ...] | None = None):
        if (stack is None) == (members is None) or (stack is None and signs is not None):
            raise DataError("a classifier state takes a stack and its signs, or members alone")
        for name, value in (("layout", layout), ("members", members), ("_rho", None),
                            ("_stack", None), ("_signs", None)):
            object.__setattr__(self, name, value)
        if members is not None:
            return
        stack = np.asarray(stack, dtype=complex)
        dim = layout.dim
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
            raise DataError("an ensemble of members has no joint stack; measure its members")
        return self._stack

    @property
    def signs(self) -> np.ndarray | None:
        """Row signs, or None when every row counts +1."""
        self.stack  # refuses an ensemble of members
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
        size = (f"members={len(self.members)}" if self._stack is None
                else f"rows={self._stack.shape[0]}")
        return f"ClassifierState(dim={self.layout.dim}, {size})"


def _product_signs(factors) -> np.ndarray:
    """Signs of the row products of eigen-factors (rows, signs), first
    factor's row index most significant; signs None count +1."""
    out = np.ones(1)
    for rows, s in factors:
        out = np.multiply.outer(out, np.ones(rows.shape[0]) if s is None else s).ravel()
    return out


def _row_power(rows: np.ndarray, k: int) -> np.ndarray:
    """Row i of the result is rows[i] tensored with itself k times; the
    (rows, d**k) result is checked against the size budget first."""
    qmath.check_dense_budget((rows.shape[0], rows.shape[1] ** k), "k-fold row power")
    out = rows
    for _ in range(k - 1):
        out = (out[:, :, None] * rows[:, None, :]).reshape(rows.shape[0], -1)
    return out


def _slot_rows(left: np.ndarray, right: np.ndarray, labels, *, ancilla: bool = False,
               slots: int = 1) -> np.ndarray:
    """Stack of rows over [ancilla | left | right | label | index] holding
    left[r] (x) right[r, s] at ancilla |0>, label labels[r, s] and index
    slot s of row r, and 0 elsewhere. ``left`` is (rows, dl), ``right``
    (rows, n, dr), either with one row to share; ``labels`` broadcasts to
    (rows, n); ``slots`` >= n. The budget check runs before the stack exists.
    """
    count, n = max(len(left), len(right)), right.shape[1]
    shape = (count, 2 if ancilla else 1, left.shape[1], right.shape[2], 2, slots)
    qmath.check_dense_budget((count, math.prod(shape[1:])), "assembled state stack")
    out = np.zeros(shape, dtype=complex)
    out[np.arange(count)[:, None], 0, :, :, labels, np.arange(n)] = (
        left[:, None, :, None] * right[:, :, None, :])
    return out.reshape(count, -1)


# Largest stack of circuit rows, in bytes, that a batched classifier builds.
PART_BYTES = 2**21


def _test_rows(tests, k: int):
    """(rows, signs, starts) of test^(x)k for each test: one row t^(x)k per
    unit vector of an (N, d) stack, the eigen-factor row products of each
    DensityMatrix; ``starts`` holds each test's first row."""
    if isinstance(tests, np.ndarray):
        return _row_power(tests, k), np.ones(len(tests)), np.arange(len(tests))
    factors = [qmath.eigen_factor(test, "test state") for test in tests]
    sizes = [len(rows) ** k for rows, _ in factors]
    return (np.concatenate([tensor_power(rows, k) for rows, _ in factors]),
            np.concatenate([_product_signs([f] * k) for f in factors]),
            np.cumsum([0] + sizes[:-1]))


def _train_rows(ts: TrainingSet):
    """(rows, labels, signs) of the training side of the index-free input:
    sqrt(w_m) x_m^(x)k on label y_m per pure entry of nonzero weight; for
    density-matrix data the eigen-factor rows of each label's sigma_y."""
    weights, k = ts.effective_weights(), ts.k
    if not ts.is_mixed:
        entries = np.flatnonzero(weights > 0.0)
        return (np.sqrt(weights[entries])[:, None] * _row_power(ts.states[entries], k),
                ts.labels[entries], np.ones(entries.size))
    factors = [(y, qmath.eigen_factor(qmath.power_mixture(ts.states[mask], weights[mask], k),
                                      f"label-{y} training mixture"))
               for y in (0, 1) for mask in [(ts.labels == y) & (weights > 0.0)] if mask.any()]
    return (np.concatenate([f[0] for _, f in factors]),
            np.concatenate([np.full(len(f[0]), y) for y, f in factors]),
            np.concatenate([_product_signs([f]) for _, f in factors]))


def _product_rows(tests: np.ndarray, train, pairs: np.ndarray, *, ancilla: bool) -> np.ndarray:
    """Rows tests[i] (x) train row j on its label over the block layout, one
    for each pair index i * (train rows) + j in ``pairs``."""
    i, j = np.divmod(pairs, len(train[0]))
    return _slot_rows(tests[i], train[0][j][:, None], train[1][j][:, None], ancilla=ancilla)


def _indexed_rows(ts: TrainingSet, vecs: np.ndarray, *, with_ancilla: bool = True):
    """Rows and layout of the indexed pure input sum_m sqrt(w_m) |t>^k |x_m>^k
    |y_m> |m>, one row per test vector t; with a bias, slot 0 holds
    sqrt(|b| / N) |t>^k |t>^k |y_b> (:func:`assemble_bias_extended`)."""
    dim = vecs.shape[1]
    if ts.is_mixed:
        raise DataError("indexed assembly requires pure-state training data")
    if len(ts) and dim != ts.data_dim:
        raise DimensionError(f"test dim {dim} != training dim {ts.data_dim}")
    bias, weights = ts.effective_bias_and_weights()
    labels = ts.labels if ts.bias is None else np.append(int(bias < 0), ts.labels)
    layout = block_layout(dim, ts.k, ancilla=with_ancilla, index_slots=labels.size)
    qmath.check_dense_budget((len(vecs), layout.dim), "assembled state stack")
    tests = _row_power(vecs, ts.k)
    train = np.sqrt(weights)[:, None] * _row_power(ts.states.reshape(-1, dim), ts.k)
    right = np.broadcast_to(train, (len(tests),) + train.shape)
    if ts.bias is not None:
        right = np.concatenate([math.sqrt(abs(bias)) * tests[:, None], right], axis=1)
    return _slot_rows(tests, right, labels, ancilla=with_ancilla, slots=layout.dims[-1]), layout


def assemble_pure_stc_input(ts: TrainingSet, test: QState, *,
                            with_index: bool = False,
                            with_ancilla: bool = True) -> ClassifierState:
    """Joint input state of the swap-test classifier for pure training data.

    With an index register the state is the pure superposition over training
    slots, one row. Without one it is the equivalent mixture over training
    entries, which yields the same measurement statistics: one row
    sqrt(w_m) |test>^k |x_m>^k |y_m> per entry of nonzero weight.
    """
    if ts.is_mixed or not len(ts):
        raise DataError("assembly needs a nonempty set of pure-state training data")
    if ts.bias is not None:
        raise DataError("training set carries a bias; use assemble_bias_extended")
    if with_index:
        rows, layout = _indexed_rows(ts, test.vec[None], with_ancilla=with_ancilla)
        return ClassifierState(layout, rows[0])
    return mixed_stc_state(ts, test, with_ancilla=with_ancilla)


def mixed_stc_state(ts: TrainingSet, test: QState | DensityMatrix, *,
                    with_ancilla: bool = True) -> ClassifierState:
    """Index-free joint input state, block layout, of the entries of ``ts``
    with their effective weights and k copies, pure or density-matrix data.

    The state is the mixture rho_t^(x)k (x) sum_y sigma_y (x) |y><y|, held
    as the products of the rows of test^(x)k and of the training side (see
    the module docstring). Before the test power or the training side is
    built, the stack is planned against the size budget, with
    rank(sigma_y) <= d**k.
    """
    if test.dim != ts.data_dim:
        raise DimensionError(f"test dim {test.dim} != training dim {ts.data_dim}")
    layout = block_layout(test.dim, ts.k, ancilla=with_ancilla)
    factor = qmath.eigen_factor(test, "test state")
    live = ts.effective_weights() > 0.0
    bound = (len(set(ts.labels[live].tolist())) * test.dim ** ts.k if ts.is_mixed
             else np.count_nonzero(live))
    qmath.check_dense_budget((len(factor[0]) ** ts.k * bound, layout.dim), "assembled state stack")
    train = _train_rows(ts)
    signs = np.multiply.outer(_product_signs([factor] * ts.k), train[2]).ravel()
    rows = _product_rows(tensor_power(factor[0], ts.k), train, np.arange(signs.size),
                         ancilla=with_ancilla)
    return ClassifierState(layout, rows, None if np.all(signs > 0) else signs)


def _check_distribution(qs: np.ndarray, message: str) -> None:
    """Raise DataError(message) unless ``qs`` is nonnegative and sums to 1
    within 1e-9; a NaN fails."""
    if np.any(qs < 0) or not abs(qs.sum() - 1.0) <= 1e-9:
        raise DataError(message)


def assemble_mixed_stc_input(test: DensityMatrix,
                             train: Sequence[tuple[DensityMatrix, int, float]],
                             k: int, *, with_ancilla: bool = True) -> ClassifierState:
    """:func:`mixed_stc_state` of (density matrix, label, weight) tuples
    whose weights form a distribution."""
    _check_distribution(np.array([w for _, _, w in train], dtype=float),
                        "training weights must form a distribution")
    return mixed_stc_state(TrainingSet.from_states(train, k=k), test, with_ancilla=with_ancilla)


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
    rows, layout = _indexed_rows(ts, test.vec[None])
    return ClassifierState(layout, rows[0])


def _weighted_set(train, weights, k: int) -> TrainingSet:
    """(density matrix, label, ...) tuples and their renormalized weights."""
    return TrainingSet.from_states([(t[0], t[1], w) for t, w in zip(train, weights)], k=k)


def _model_weights(models, train) -> tuple[np.ndarray, list[np.ndarray]]:
    """The model probabilities, renormalized, and each model's weight
    vector, after checking that the probabilities and every weight vector
    over ``train`` are distributions."""
    if not models:
        raise DataError("ensemble needs at least one model")
    probs = np.array([model[0] for model in models], dtype=float)
    out = [np.array(model[1], dtype=float) for model in models]
    if any(a_s.size != len(train) for a_s in out):
        raise DataError("model weight vector length does not match training data")
    for name, qs in zip(["model probabilities"] + ["model weights"] * len(out), [probs] + out):
        _check_distribution(qs, f"{name} must be a probability distribution")
    return probs / probs.sum(), out


def assemble_ensemble_weights(test: DensityMatrix,
                              models: Sequence[tuple[float, Sequence[float]]],
                              train: Sequence[tuple[DensityMatrix, int]],
                              k: int, *, with_ancilla: bool = True) -> ClassifierState:
    """Mixture over weight-vector models; equals a single mixed assembly with
    the convex-combined weights."""
    probs, weights = _model_weights(models, train)
    eff = sum(q * a_s for q, a_s in zip(probs, weights))
    return mixed_stc_state(_weighted_set(train, eff, k), test, with_ancilla=with_ancilla)


def assemble_ensemble_exponents(test: DensityMatrix,
                                models: Sequence[tuple[float, Sequence[float], int]],
                                train: Sequence[tuple[DensityMatrix, int]],
                                max_copies: int) -> ClassifierState:
    """Mixture over models with different copy counts k_s <= max_copies, on
    the ``block_layout(test.dim, max_copies)`` layout.

    The state is its (probability, member) pairs, member s the index-free
    input of model s with its k_s copies: the ensemble's expectation value
    is the probability-weighted sum of its members' values, so no joint
    state over max_copies copy pairs is built.
    """
    max_copies = check_count(max_copies, "max_copies")
    probs, weights = _model_weights(models, train)
    members = []
    for (_, _, k_s), q, a_s in zip(models, probs, weights):
        k_s = check_count(k_s, "model copy count")
        if k_s > max_copies:
            raise DataError(f"model copy count {k_s} outside 1..{max_copies}")
        members.append((float(q), mixed_stc_state(_weighted_set(train, a_s, k_s), test)))
    return ClassifierState(block_layout(test.dim, max_copies), members=tuple(members))
