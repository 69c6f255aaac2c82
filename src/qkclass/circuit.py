"""Swap-test circuit operators, expectation values, and shot sampling.

The swap-test unitary is Hadamard on the ancilla, a controlled swap of every
(test, train) copy pair, and a second Hadamard. ``apply_swap_test_unitary``
applies it through axis manipulation, which is what the classifiers use;
``build_swap_test_unitary`` returns it as an explicit (cached,
unitarity-checked) matrix for the reference checks.

The measured observables (the ancilla-label parity, the ancilla-free
swap-label observable and the register swap) are Pauli Z factors on named
registers times a register permutation. They are stored in that form and
applied to the reshaped state tensor, so measuring costs about the state,
not its square; their dense matrices are built only when ``.matrix`` is
read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .encoding import ClassifierState
from .errors import DataError, DimensionError, NumericError
from .qmath import (ATOL_DERIVED, ATOL_STRUCT, HADAMARD, SIGMA_Z,
                    DensityMatrix, HermitianSpectrum, QState,
                    check_dense_budget, register_permutation_matrix)
from .registers import (ANCILLA, LABEL, Register, RegisterLayout, TEST, TRAIN,
                        block_layout)

_Z_DIAGONAL = np.array([1.0, -1.0])
_Z_DIAGONAL.setflags(write=False)


def _check_hermitian(mat: np.ndarray):
    if np.abs(mat - mat.conj().T).max() > ATOL_STRUCT:
        raise NumericError("observable is not Hermitian within 1e-12")


class Observable:
    """Hermitian operator tied to a register layout, with a lazy spectrum.

    An observable is either a dense matrix, as given to the constructor, or
    structured (:meth:`z_permutation`): Pauli Z on some qubit registers,
    then a register permutation. A structured observable is applied to the
    reshaped state tensor by :func:`expectation`; its ``matrix`` is the
    dense reference, built from the same description on first access.
    """

    __slots__ = ("layout", "z_registers", "order", "_matrix", "_spectrum",
                 "_involutory")

    def __init__(self, matrix, layout: RegisterLayout | None = None, *,
                 involutory: bool | None = None):
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionError(f"observable must be square, got shape {mat.shape}")
        _check_hermitian(mat)
        if layout is not None and layout.dim != mat.shape[0]:
            raise DimensionError("observable dimension does not match its layout")
        mat = mat.copy()
        mat.setflags(write=False)
        self._init(layout, None, None, mat, involutory)

    def _init(self, layout, z_registers, order, matrix, involutory):
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "z_registers", z_registers)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_matrix", matrix)
        object.__setattr__(self, "_spectrum", None)
        object.__setattr__(self, "_involutory", involutory)

    @classmethod
    def z_permutation(cls, layout: RegisterLayout, z_registers=(),
                      order=None) -> "Observable":
        """Pauli Z on each register in ``z_registers``, then the register
        permutation ``order`` (``order[p]`` names the register that lands at
        position ``p``, as in :func:`qkclass.qmath.permute_registers`).

        ``order`` must be an involution between registers of equal dimension
        that leaves the Z registers in place, so the two factors commute and
        the product is Hermitian with eigenvalues +-1.
        """
        dims = layout.dims
        n = len(dims)
        z_registers = tuple(sorted(set(int(i) for i in z_registers)))
        order = tuple(range(n)) if order is None else tuple(int(i) for i in order)
        if sorted(order) != list(range(n)):
            raise DimensionError(f"order {order} is not a permutation of 0..{n - 1}")
        for p, src in enumerate(order):
            if order[src] != p or dims[src] != dims[p]:
                raise DimensionError(
                    f"order {order} is not an involution between equal registers")
        for i in z_registers:
            if not 0 <= i < n or dims[i] != 2:
                raise DimensionError(f"Pauli Z needs a qubit register, got register {i}")
            if order[i] != i:
                raise DimensionError(f"order {order} moves the Z register {i}")
        obs = object.__new__(cls)
        obs._init(layout, z_registers, order, None, True)
        return obs

    def __setattr__(self, name, value):
        raise AttributeError("Observable is immutable")

    @property
    def structured(self) -> bool:
        return self.z_registers is not None

    @property
    def dim(self) -> int:
        return self.layout.dim if self.structured else self._matrix.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """Dense matrix; built from the structured form on first access."""
        if self._matrix is None:
            dim = self.layout.dim
            check_dense_budget((dim, dim), "dense observable")
            mat = embed_operators(self.layout, {i: SIGMA_Z for i in self.z_registers})
            if self.order != tuple(range(len(self.order))):
                mat = register_permutation_matrix(self.layout.dims, self.order) @ mat
            _check_hermitian(mat)
            mat.setflags(write=False)
            object.__setattr__(self, "_matrix", mat)
        return self._matrix

    @property
    def spectrum(self) -> HermitianSpectrum:
        if self._spectrum is None:
            object.__setattr__(self, "_spectrum", HermitianSpectrum.of(self.matrix))
        return self._spectrum

    def has_pm_one_spectrum(self) -> bool:
        """True when the observable squares to the identity (eigenvalues +-1)."""
        if self._involutory is None:
            sq = self.matrix @ self.matrix
            ok = np.abs(sq - np.eye(self.dim)).max() <= ATOL_DERIVED
            object.__setattr__(self, "_involutory", bool(ok))
        return self._involutory

    def _vector_value(self, vec: np.ndarray) -> complex:
        """<psi|O|psi> as vdot(psi, (signs * psi).transpose(order))."""
        t = vec.reshape(self.layout.dims)
        acted = t
        for i in self.z_registers:
            shape = [1] * t.ndim
            shape[i] = 2
            acted = acted * _Z_DIAGONAL.reshape(shape)
        return complex(np.vdot(t, acted.transpose(self.order)))

    def _matrix_value(self, rho: np.ndarray) -> complex:
        """Tr(O rho) = sum_a s(a) rho[a, order(a)], one einsum over the
        reshaped rho with no operator matrix."""
        n = len(self.order)
        t = rho.reshape(self.layout.dims * 2)
        operands = [t, list(range(n)) + list(self.order)]
        for i in self.z_registers:
            operands += [_Z_DIAGONAL, [i]]
        return complex(np.einsum(*operands, []))


@dataclass(frozen=True)
class ShotRecord:
    """Aggregated count of one measurement outcome from a seeded run."""

    outcome: int
    count: int
    seed: int

    def __post_init__(self):
        if self.outcome not in (1, -1):
            raise DataError(f"outcome must be +1 or -1, got {self.outcome}")
        if self.count < 0:
            raise DataError("count must be nonnegative")


def embed_operators(layout: RegisterLayout, ops: dict[int, np.ndarray]) -> np.ndarray:
    """Tensor the given per-register operators with identities elsewhere."""
    check_dense_budget((layout.dim, layout.dim), "dense operator")
    factors = []
    for i, reg in enumerate(layout.registers):
        if i in ops:
            op = np.asarray(ops[i], dtype=complex)
            if op.shape != (reg.dim, reg.dim):
                raise DimensionError(
                    f"operator for register {i} has shape {op.shape}, register dim {reg.dim}")
            factors.append(op)
        else:
            factors.append(np.eye(reg.dim, dtype=complex))
    return reduce(np.kron, factors)


def _pair_swap_order(layout: RegisterLayout) -> tuple[int, ...]:
    order = list(range(len(layout.registers)))
    for t, d in layout.pair_indices():
        order[t], order[d] = order[d], order[t]
    return tuple(order)


@lru_cache(maxsize=64)
def ancilla_label_parity(layout: RegisterLayout) -> Observable:
    """Product of Pauli Z on the ancilla and on the label qubit."""
    return Observable.z_permutation(
        layout, (layout.index_of(ANCILLA), layout.index_of(LABEL)))


@lru_cache(maxsize=64)
def swap_operator(dim: int) -> Observable:
    """Exchange of two registers of equal dimension ``dim``."""
    if dim < 1:
        raise DimensionError("swap operator needs dimension >= 1")
    layout = RegisterLayout((Register(TEST, dim, 1), Register(TRAIN, dim, 1)))
    return Observable.z_permutation(layout, order=(1, 0))


@lru_cache(maxsize=64)
def swap_label_observable(layout: RegisterLayout) -> Observable:
    """Simultaneous swap of every (test, train) pair times Z on the label.

    This is the ancilla-free observable whose expectation reproduces the
    swap-test statistics; factors on any other register are identities.
    """
    if not layout.pair_indices():
        raise DimensionError("layout has no (test, train) pairs to swap")
    return Observable.z_permutation(
        layout, (layout.index_of(LABEL),), _pair_swap_order(layout))


def build_effective_observable(n: int, k: int) -> Observable:
    """Ancilla-free classifier observable for ``k`` copies of ``n``-qubit data,
    block register order [test x k | train x k | label]."""
    if n < 1 or k < 1:
        raise DimensionError("n and k must be positive")
    return swap_label_observable(block_layout(2 ** n, k, ancilla=False))


@lru_cache(maxsize=32)
def build_swap_test_unitary(layout: RegisterLayout) -> np.ndarray:
    """Dense swap-test unitary for the given layout, verified unitary.

    Only intended for explicit-matrix checks at small dimensions; the
    classifiers apply the same map with :func:`apply_swap_test_unitary`.
    """
    check_dense_budget((layout.dim, layout.dim), "dense swap-test unitary")
    a = layout.index_of(ANCILLA)
    if not layout.pair_indices():
        raise DimensionError("layout has no (test, train) pairs to swap")
    h = embed_operators(layout, {a: HADAMARD})
    swap = register_permutation_matrix(layout.dims, _pair_swap_order(layout))
    p0 = embed_operators(layout, {a: np.diag([1.0, 0.0]).astype(complex)})
    p1 = embed_operators(layout, {a: np.diag([0.0, 1.0]).astype(complex)})
    cswap = p0 + p1 @ swap
    v = h @ cswap @ h
    err = np.abs(v @ v.conj().T - np.eye(layout.dim)).max()
    if err > ATOL_STRUCT:
        raise NumericError(f"swap-test unitary failed the unitarity check: {err}")
    v.setflags(write=False)
    return v


def _apply_left(tensor_arr: np.ndarray, op: np.ndarray, axis: int) -> np.ndarray:
    return np.moveaxis(np.tensordot(op, tensor_arr, axes=([1], [axis])), 0, axis)


def _apply_right_dagger(tensor_arr: np.ndarray, op: np.ndarray, axis: int) -> np.ndarray:
    return np.moveaxis(np.tensordot(tensor_arr, op.conj().T, axes=([axis], [0])), -1, axis)


def _controlled_select(plain: np.ndarray, swapped: np.ndarray, axis: int) -> np.ndarray:
    return np.stack(
        [np.take(plain, 0, axis=axis), np.take(swapped, 1, axis=axis)], axis=axis)


def apply_swap_test_unitary(x: np.ndarray, layout: RegisterLayout) -> np.ndarray:
    """Apply the swap-test unitary to a state vector, or conjugate a density
    matrix by it, without materializing the dense operator."""
    dims = layout.dims
    r = len(dims)
    a = layout.index_of(ANCILLA)
    order = _pair_swap_order(layout)
    if order == tuple(range(r)):
        raise DimensionError("layout has no (test, train) pairs to swap")
    arr = np.asarray(x, dtype=complex)
    if arr.ndim == 1:
        if arr.size != layout.dim:
            raise DimensionError(f"vector size {arr.size} != layout dim {layout.dim}")
        t = arr.reshape(dims)
        t = _apply_left(t, HADAMARD, a)
        t = _controlled_select(t, t.transpose(order), a)
        t = _apply_left(t, HADAMARD, a)
        return t.reshape(-1)
    if arr.shape != (layout.dim, layout.dim):
        raise DimensionError(f"matrix shape {arr.shape} != layout dim {layout.dim}")
    row_order = list(order) + list(range(r, 2 * r))
    col_order = list(range(r)) + [r + i for i in order]
    t = arr.reshape(dims + dims)
    t = _apply_left(t, HADAMARD, a)
    t = _apply_right_dagger(t, HADAMARD, r + a)
    t = _controlled_select(t, t.transpose(row_order), a)
    t = _controlled_select(t, t.transpose(col_order), r + a)
    t = _apply_left(t, HADAMARD, a)
    t = _apply_right_dagger(t, HADAMARD, r + a)
    return t.reshape(layout.dim, layout.dim)


def run_swap_test(state: ClassifierState) -> ClassifierState:
    """Swap-test circuit applied to an assembled state (vector kept if pure).

    A pure state is evolved as a vector and returned as one, without its
    density matrix; a mixed state's density matrix is conjugated.
    """
    if state.vector is not None:
        vec = apply_swap_test_unitary(state.vector, state.layout)
        return ClassifierState(None, state.layout, vector=vec)
    rho = apply_swap_test_unitary(state.rho.entries, state.layout)
    return ClassifierState(DensityMatrix(rho, check_psd=False), state.layout)


def _state_array(state) -> np.ndarray:
    """State vector when the state is pure and held as one, else its matrix."""
    if isinstance(state, ClassifierState):
        return state.vector if state.vector is not None else state.rho.entries
    if isinstance(state, DensityMatrix):
        return state.entries
    if isinstance(state, QState):
        return state.vec
    return np.asarray(state, dtype=complex)


def expectation(obs, state) -> float:
    """Tr(obs rho), or <psi|obs|psi> for a state vector; checked real to 1e-10.

    Accepts an Observable or a bare matrix, and a ClassifierState,
    DensityMatrix, QState, matrix, or state vector. A pure ClassifierState
    is evaluated in the vector form, so its density matrix is never built. A
    structured Observable acts on the reshaped state tensor: a sign mask and
    a transpose for a vector, one einsum for a density matrix; no operator
    matrix is formed. A bare matrix or a matrix-built Observable is applied
    densely.
    """
    arr = _state_array(state)
    if arr.ndim not in (1, 2) or (arr.ndim == 2 and arr.shape[0] != arr.shape[1]):
        raise DimensionError(f"expected a state vector or square matrix, got {arr.shape}")
    structured = isinstance(obs, Observable) and obs.structured
    mat = None if structured else (
        obs.matrix if isinstance(obs, Observable) else np.asarray(obs, dtype=complex))
    dim = obs.dim if structured else mat.shape[0]
    if arr.shape[0] != dim:
        raise DimensionError(f"dimension mismatch: observable {dim} vs state {arr.shape}")
    if structured:
        val = obs._vector_value(arr) if arr.ndim == 1 else obs._matrix_value(arr)
    elif arr.ndim == 1:
        val = complex(np.vdot(arr, mat @ arr))
    else:
        val = complex(np.einsum("ij,ji->", mat, arr))
    if abs(val.imag) > ATOL_DERIVED:
        raise NumericError(f"expectation has imaginary residual {val.imag}")
    return float(val.real)


def outcome_probabilities(obs: Observable, state) -> dict[int, float]:
    """Probabilities of the +1 / -1 outcomes of an involutory observable.

    The spectral projectors are (identity +- obs) / 2, so the probabilities
    are (Tr rho +- <obs>) / 2, with <obs> from :func:`expectation`; no
    projector or identity matrix is built, and a pure ClassifierState stays
    a vector. The state's trace (squared norm for a vector) must be 1 to
    1e-10, which is the check that the two probabilities sum to 1.
    """
    if not isinstance(obs, Observable) or not obs.has_pm_one_spectrum():
        raise NumericError("outcome probabilities require a +-1 spectrum observable")
    value = expectation(obs, state)
    arr = _state_array(state)
    total = complex(np.vdot(arr, arr) if arr.ndim == 1 else np.trace(arr))
    if abs(total.imag) > ATOL_DERIVED:
        raise NumericError(f"state trace has imaginary residual {total.imag}")
    if abs(total.real - 1.0) > ATOL_DERIVED:
        raise NumericError(f"outcome probabilities sum to {total.real}")
    return {lam: min(max((total.real + lam * value) / 2.0, 0.0), 1.0) for lam in (1, -1)}


def draw_shots(value: float, shots: int, seed: int) -> list[ShotRecord]:
    """``shots`` seeded measurements of a +-1 observable with expectation
    ``value``: the +1 count is one binomial draw with p(+1) = (1 + value)/2."""
    if shots < 1:
        raise DataError(f"shots must be >= 1, got {shots}")
    p_plus = min(max((1.0 + value) / 2.0, 0.0), 1.0)
    n_plus = int(np.random.default_rng(seed).binomial(shots, p_plus))
    return [ShotRecord(1, n_plus, seed), ShotRecord(-1, shots - n_plus, seed)]


def sample_shots(obs: Observable, state, shots: int, seed: int) -> list[ShotRecord]:
    """Independent draws from the outcome distribution, reproducible by seed."""
    probs = outcome_probabilities(obs, state)
    return draw_shots(probs[1] - probs[-1], shots, seed)


def empirical_expectation(records: list[ShotRecord]) -> float:
    total = sum(r.count for r in records)
    if total == 0:
        raise DataError("no shots recorded")
    return sum(r.outcome * r.count for r in records) / total
