"""Classical data -> quantum registers: amplitude encoding and the assembly
of the joint states the classifiers measure.

Register order conventions (big-endian, first factor most significant):

* block layout   [ancilla | test x k | train x k | label | index]
* pair layout    [ancilla | (test, train) x k | label]

Pure-state assemblies use the block layout; density-matrix assemblies use
the pair layout. The two are related by the fixed permutation returned by
:func:`block_to_pair_order`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import qmath
from .errors import DataError, DimensionError, NumericError
from .qmath import DensityMatrix, QState, basis_state, tensor, tensor_power
from .registers import (RegisterLayout, block_layout, index_register_dim,
                        pair_layout)

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

    ``vector`` is set when the state is pure (rank one). A pure state may be
    built from its vector alone (``rho=None``): the vector must match the
    layout dimension and have unit norm, and ``rho`` is then built from it,
    after the size check and with the usual :class:`DensityMatrix` checks,
    only when first asked for.
    ``members`` carries the (probability, member state) decomposition of an
    ensemble whose members use different copy counts and therefore different
    layouts.
    """

    __slots__ = ("layout", "vector", "members", "_rho")

    def __init__(self, rho: DensityMatrix | None, layout: RegisterLayout,
                 vector: np.ndarray | None = None,
                 members: tuple[tuple[float, "ClassifierState"], ...] | None = None):
        if rho is None and vector is None:
            raise DataError("a classifier state needs a density matrix or a vector")
        if rho is not None and layout.dim != rho.dim:
            raise DimensionError(
                f"layout dim {layout.dim} does not match state dim {rho.dim}")
        if vector is not None:
            vector = qmath.as_cvec(vector)
            if vector.size != layout.dim:
                raise DimensionError(
                    f"layout dim {layout.dim} does not match vector size {vector.size}")
            norm_sq = float(np.vdot(vector, vector).real)
            if abs(norm_sq - 1.0) > qmath.ATOL_STRUCT:
                raise NumericError(
                    f"state vector squared norm {norm_sq!r} is not 1 within "
                    f"{qmath.ATOL_STRUCT}")
        object.__setattr__(self, "_rho", rho)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "members", members)

    def __setattr__(self, name, value):
        raise AttributeError("ClassifierState is immutable")

    @property
    def rho(self) -> DensityMatrix:
        if self._rho is None:
            qmath.check_dense_budget((self.layout.dim, self.layout.dim), "density matrix")
            rho = DensityMatrix(np.outer(self.vector, self.vector.conj()), check_psd=False)
            object.__setattr__(self, "_rho", rho)
        return self._rho

    def __repr__(self):
        kind = "pure" if self.vector is not None else "mixed"
        return f"ClassifierState(dim={self.layout.dim}, {kind})"


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
    test_block = tensor_power(test.vec, k)
    block = test_block.size
    shape = (2 if with_ancilla else 1, block, block, 2, index_register_dim(index_slots))
    qmath.check_dense_budget((math.prod(shape),), "assembled state vector")
    vec = np.zeros(shape, dtype=complex)
    if bias_prob > 0.0:
        y_b = 0 if ts.bias > 0 else 1
        vec[0, :, :, y_b, 0] = math.sqrt(bias_prob) * np.outer(test_block, test_block)
    for m, (entry, w) in enumerate(zip(ts.entries, weights)):
        if w == 0.0:
            continue
        train_block = tensor_power(entry.state.vec, k)
        vec[0, :, :, entry.label, m + offset] = math.sqrt(w) * np.outer(test_block, train_block)
    return vec.reshape(-1)


def assemble_pure_stc_input(ts: TrainingSet, test: QState, *,
                            with_index: bool = False,
                            with_ancilla: bool = True) -> ClassifierState:
    """Joint input state of the swap-test classifier for pure training data.

    With an index register the state is the pure superposition over training
    slots, stored with its vector only (its density matrix is built on first
    access to ``rho``); without one it is the equivalent mixture over
    training entries, which yields the same measurement statistics.
    """
    if not ts.entries:
        raise DataError("cannot assemble a classifier state from an empty training set")
    if ts.bias is not None:
        raise DataError("training set carries a bias; use assemble_bias_extended")
    if test.dim != ts.data_dim:
        raise DimensionError(f"test dim {test.dim} != training dim {ts.data_dim}")
    states = ts.pure_states()
    weights = ts.effective_weights()
    k = ts.k
    if with_index:
        layout = block_layout(test.dim, k, ancilla=with_ancilla, index_slots=len(ts))
        vec = _pure_state_vector(ts, test, weights, with_ancilla, len(ts))
        return ClassifierState(None, layout, vector=vec)
    layout = block_layout(test.dim, k, ancilla=with_ancilla)
    test_block = tensor_power(test.projector(), k)
    mix = np.zeros((ts.data_dim ** k * 2,) * 2, dtype=complex)
    for state, entry, w in zip(states, ts.entries, weights):
        if w == 0.0:
            continue
        mix += w * tensor(tensor_power(state.projector(), k),
                          np.outer(basis_state(2, entry.label), basis_state(2, entry.label)))
    rho = tensor(test_block, mix)
    if with_ancilla:
        rho = tensor(np.outer(basis_state(2, 0), basis_state(2, 0)), rho)
    return ClassifierState(DensityMatrix(rho, check_psd=False), layout)


def assemble_mixed_stc_input(test: DensityMatrix,
                             train: Sequence[tuple[DensityMatrix, int, float]],
                             k: int, *, with_ancilla: bool = True) -> ClassifierState:
    """Joint input state for density-matrix data, pair register order."""
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
    layout = pair_layout(dim, k, ancilla=with_ancilla)
    total = np.zeros((layout.dim if not with_ancilla else layout.dim // 2,) * 2,
                     dtype=complex)
    for rho_m, label, w in train:
        if label not in (0, 1):
            raise DataError(f"label must be 0 or 1, got {label!r}")
        if rho_m.dim != dim:
            raise DimensionError(f"training dim {rho_m.dim} != test dim {dim}")
        if w == 0.0:
            continue
        pair = tensor(test.entries, rho_m.entries)
        block = tensor_power(pair, k)
        lbl = np.outer(basis_state(2, label), basis_state(2, label))
        total += w * tensor(block, lbl)
    if with_ancilla:
        total = tensor(np.outer(basis_state(2, 0), basis_state(2, 0)), total)
    return ClassifierState(DensityMatrix(total, check_psd=False), layout)


def assemble_bias_extended(ts: TrainingSet, test: QState) -> ClassifierState:
    """Bias-extended swap-test input state.

    The bias occupies index slot 0 with the test data standing in on the
    train registers (its swap-test kernel is exactly 1), label
    y_b = (1 - sgn(bias)) / 2, and amplitude sqrt(|bias| / N). The state is
    pure and is stored with its vector only; its density matrix is built on
    first access to ``rho``.
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


def assemble_ensemble_weights(test: DensityMatrix,
                              models: Sequence[tuple[float, Sequence[float]]],
                              train: Sequence[tuple[DensityMatrix, int]],
                              k: int, *, with_ancilla: bool = True) -> ClassifierState:
    """Mixture over weight-vector models; equals a single mixed assembly with
    the convex-combined weights."""
    if not models:
        raise DataError("ensemble needs at least one model")
    qs = np.array([q for q, _ in models], dtype=float)
    _check_model_distribution(qs, "model probabilities")
    eff = np.zeros(len(train))
    for q, a_s in models:
        a_s = np.array(a_s, dtype=float)
        if a_s.size != len(train):
            raise DataError("model weight vector length does not match training data")
        _check_model_distribution(a_s, "model weights")
        eff += q * a_s
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
        swap = np.zeros((d2, d2), dtype=complex)
        for a in range(data_dim):
            for b in range(data_dim):
                swap[b * data_dim + a, a * data_dim + b] = 1.0
        proj = (np.eye(d2) + swap) / 2.0
        return proj / np.trace(proj).real
    raise DataError(f"unknown padding kind {kind!r}")


def assemble_ensemble_exponents(test: DensityMatrix,
                                models: Sequence[tuple[float, Sequence[float], int]],
                                train: Sequence[tuple[DensityMatrix, int]],
                                max_copies: int, *,
                                padding: str = "maximally-mixed") -> ClassifierState:
    """Mixture over models with different copy counts k_s <= max_copies.

    Each member state occupies its k_s (test, train) pair slots; the unused
    slots are filled with a constant pair state so every member lives on the
    same registers. The default maximally mixed padding is not swap
    invariant, so ensemble expectation values are evaluated member by member
    (the ``members`` field); ``padding="symmetric"`` additionally makes the
    full swap-test circuit over all slots reproduce the same value.
    """
    if not models:
        raise DataError("ensemble needs at least one model")
    qs = np.array([q for q, _, _ in models], dtype=float)
    _check_model_distribution(qs, "model probabilities")
    dim = test.dim
    pad = _pad_pair_state(dim, padding)
    layout = pair_layout(dim, max_copies, ancilla=True)
    joint = np.zeros((layout.dim, layout.dim), dtype=complex)
    members = []
    for q, a_s, k_s in models:
        k_s = int(k_s)
        if not 1 <= k_s <= max_copies:
            raise DataError(f"model copy count {k_s} outside 1..{max_copies}")
        a_s = np.array(a_s, dtype=float)
        if a_s.size != len(train):
            raise DataError("model weight vector length does not match training data")
        _check_model_distribution(a_s, "model weights")
        data = [(rho, label, w) for (rho, label), w in zip(train, a_s)]
        member = assemble_mixed_stc_input(test, data, k_s)
        members.append((float(q), member))
        if q == 0.0:
            continue
        body = np.zeros((layout.dim // 2, layout.dim // 2), dtype=complex)
        for (rho_m, label), w in zip(train, a_s):
            if w == 0.0:
                continue
            block = tensor_power(tensor(test.entries, rho_m.entries), k_s)
            for _ in range(max_copies - k_s):
                block = tensor(block, pad)
            lbl = np.outer(basis_state(2, label), basis_state(2, label))
            body += w * tensor(block, lbl)
        joint += q * tensor(np.outer(basis_state(2, 0), basis_state(2, 0)), body)
    return ClassifierState(DensityMatrix(joint, check_psd=False), layout,
                           members=tuple(members))


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
