"""Swap-test circuit operators, expectation values, and shot sampling.

The swap-test unitary is Hadamard on the ancilla, a controlled swap of every
(test, train) copy pair, and a second Hadamard. Assembled states are stacks
of component vectors with row signs, rho = sum_i s_i |v_i><v_i|, so a
measured value is a signed sum over the rows. There is one kind of
:class:`Observable`: Pauli Z factors on named registers times a register
permutation. The ancilla-label parity, the ancilla-free swap-label
observable and the register swap are all of that kind; each is stored in
that form, and its dense matrix is built only when ``.matrix`` is read,
from :func:`qkclass.qmath.tensor` and
:func:`qkclass.qmath.register_permutation_matrix`.

One blocked kernel, ``_stack_value``, runs the circuit and measures. One
cached plan per layout and observable gives it the Z signs, the register
permutation (the pair swap of the circuit, or the observable's order) and
the trailing registers that permutation leaves in place; one loop walks the
stack in blocks of rows whose buffers stay small (``BLOCK_BYTES``), runs
the circuit on each block when asked, and returns each row's measured
value, so neither the post-circuit stack nor any other stack-sized
temporary is formed.
``swap_test_expectation`` (circuit, then the ancilla-label parity) and
``expectation`` (an observable, no circuit) sum the signed row values; the
batched classifiers read them per row. A state that is not a
ClassifierState is measured as its :func:`qkclass.qmath.eigen_factor` rows.
The dense references are ``build_swap_test_unitary``, the swap-test unitary
as an explicit (cached, unitarity-checked) matrix, and
``Observable.matrix``: a post-circuit vector is
``build_swap_test_unitary(layout) @ v``, and a dense operator M is measured
as np.trace(M @ rho).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import check_count, check_seed
from .encoding import ClassifierState
from .errors import DataError, DimensionError, NumericError
from .qmath import (ATOL_DERIVED, ATOL_STRUCT, HADAMARD, SIGMA_Z,
                    HermitianSpectrum, _as_array, check_dense_budget, check_hermitian,
                    eigen_factor, register_permutation_matrix, tensor)
from .registers import ANCILLA, LABEL, Register, RegisterLayout, TEST, TRAIN


class Observable:
    """Pauli Z on some qubit registers of a layout, then a register
    permutation: a Hermitian involution with a lazy spectrum.

    :func:`expectation` applies it to the reshaped state rows (a sign mask
    and a transpose); ``matrix`` is the dense reference, built from the same
    description on first access.

    ``order[p]`` names the register that lands at position ``p``, as in
    :func:`qkclass.qmath.register_permutation_matrix`. It must be an
    involution between registers of equal dimension that leaves the Z
    registers in place, so the two factors commute and the product is
    Hermitian with eigenvalues +-1.
    """

    __slots__ = ("layout", "z_registers", "order", "_matrix", "_spectrum")

    def __init__(self, layout: RegisterLayout, z_registers=(), order=None):
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
        for name, value in zip(self.__slots__, (layout, z_registers, order, None, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Observable is immutable")

    @property
    def dim(self) -> int:
        return self.layout.dim

    @property
    def matrix(self) -> np.ndarray:
        """Dense reference matrix, built on first access."""
        if self._matrix is None:
            dims = self.layout.dims
            check_dense_budget((self.dim, self.dim), "dense observable")
            mat = tensor(*(SIGMA_Z if i in self.z_registers else np.eye(d)
                           for i, d in enumerate(dims)))
            if self.order != tuple(range(len(dims))):
                mat = register_permutation_matrix(dims, self.order) @ mat
            check_hermitian(mat, "observable")
            mat.setflags(write=False)
            object.__setattr__(self, "_matrix", mat)
        return self._matrix

    @property
    def spectrum(self) -> HermitianSpectrum:
        if self._spectrum is None:
            object.__setattr__(self, "_spectrum", HermitianSpectrum.of(self.matrix))
        return self._spectrum


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


def _pair_swap_order(layout: RegisterLayout) -> tuple[int, ...]:
    order = list(range(len(layout.registers)))
    for t, d in layout.pair_indices():
        order[t], order[d] = order[d], order[t]
    return tuple(order)


@lru_cache(maxsize=64)
def ancilla_label_parity(layout: RegisterLayout) -> Observable:
    """Product of Pauli Z on the ancilla and on the label qubit."""
    return Observable(layout, (layout.index_of(ANCILLA), layout.index_of(LABEL)))


@lru_cache(maxsize=64)
def swap_operator(dim: int) -> Observable:
    """Exchange of two registers of equal dimension ``dim``."""
    if dim < 1:
        raise DimensionError("swap operator needs dimension >= 1")
    layout = RegisterLayout((Register(TEST, dim, 1), Register(TRAIN, dim, 1)))
    return Observable(layout, order=(1, 0))


@lru_cache(maxsize=64)
def swap_label_observable(layout: RegisterLayout) -> Observable:
    """Simultaneous swap of every (test, train) pair times Z on the label.

    This is the ancilla-free observable whose expectation reproduces the
    swap-test statistics; factors on any other register are identities.
    """
    if not layout.pair_indices():
        raise DimensionError("layout has no (test, train) pairs to swap")
    return Observable(layout, (layout.index_of(LABEL),), _pair_swap_order(layout))


@lru_cache(maxsize=32)
def build_swap_test_unitary(layout: RegisterLayout) -> np.ndarray:
    """Dense swap-test unitary for the given layout, verified unitary.

    Only intended for explicit-matrix checks at small dimensions; the
    classifiers run the same map block by block in the measuring kernel.
    """
    check_dense_budget((layout.dim, layout.dim), "dense swap-test unitary")
    a = layout.index_of(ANCILLA)
    if not layout.pair_indices():
        raise DimensionError("layout has no (test, train) pairs to swap")
    eye = [np.eye(d) for d in layout.dims]
    h, p0, p1 = (tensor(*eye[:a], op, *eye[a + 1:])
                 for op in (HADAMARD, np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    swap = register_permutation_matrix(layout.dims, _pair_swap_order(layout))
    cswap = p0 + p1 @ swap
    v = h @ cswap @ h
    err = np.abs(v @ v.conj().T - np.eye(layout.dim)).max()
    if err > ATOL_STRUCT:
        raise NumericError(f"swap-test unitary failed the unitarity check: {err}")
    v.setflags(write=False)
    return v


# Bytes of rows in one block of the swap-test kernel. Each of its buffers
# stays under glibc's default 128 KiB mmap threshold, so it is served from
# the heap and reused from call to call, instead of being mapped (and
# page-faulted in) afresh for every call.
BLOCK_BYTES = 120 * 1024


# A plan holds 16 bytes of signs per amplitude, as much as one row, so
# only a few plans are kept.
@lru_cache(maxsize=16)
def _plan(layout: RegisterLayout, z_registers: tuple[int, ...] | None = None,
          order: tuple[int, ...] | None = None):
    """(ancilla, z, head, perm, item): how :func:`_stack_value` walks the
    rows of ``layout``.

    With no observable given (``z_registers`` None), the swap-test circuit
    runs and the ancilla-label parity is measured: ``ancilla`` is the axis
    of the ancilla register in a row shaped ``layout.dims``, and the
    permutation is the swap of every (test, train) pair on one ancilla half.
    Otherwise ``ancilla`` is None, and Pauli Z on ``z_registers`` after the
    register permutation ``order`` is measured with no circuit. ``z`` holds
    each amplitude's Pauli Z sign twice, for the (real, imaginary) float
    view of a row. ``perm`` is the permutation as axes of (rows,) + ``head``;
    the registers after ``head`` are left in place by it and move as one raw
    item of ``item`` bytes, so a permuted copy runs over items, not over
    single amplitudes. An observable with an empty ``head`` is diagonal.
    """
    dims, ancilla = layout.dims, None
    if z_registers is None:
        ancilla, order = layout.index_of(ANCILLA), _pair_swap_order(layout)
        if order == tuple(range(len(dims))):
            raise DimensionError("layout has no (test, train) pairs to swap")
        z_registers = ancilla_label_parity(layout).z_registers
    z = np.ones(dims + (2,))
    for i in z_registers:
        z[(slice(None),) * i + (1,)] *= -1.0
    z = z.ravel()
    z.setflags(write=False)
    # The permutation on the registers of one ancilla half, of which only
    # those after the ancilla are contiguous; without a circuit, on all.
    rest = [i for i in range(len(dims)) if i != ancilla]
    moved = [rest.index(order[i]) for i in rest]
    cut = len(rest)
    while cut > (ancilla or 0) and moved[cut - 1] == cut - 1:
        cut -= 1
    perm = (0,) + tuple(1 + i for i in moved[:cut])
    head = tuple(dims[i] for i in rest[:cut])
    return ancilla, z, head, perm, 16 * math.prod(dims[i] for i in rest[cut:])


def _permute(src: np.ndarray, perm: tuple[int, ...], out: np.ndarray) -> None:
    """out = src with its axes permuted by ``perm``: the swap step of the
    circuit, and the permutation of a measured observable."""
    np.copyto(out, src.transpose(perm))


def _stack_value(stack: np.ndarray, layout: RegisterLayout,
                 obs: Observable | None = None) -> np.ndarray:
    """<v_i|O|v_i> of each row v_i of a 2-D stack on ``layout``: after the
    swap-test circuit with O the ancilla-label parity when ``obs`` is None,
    else with O the observable ``obs`` and no circuit.

    The rows are measured in consecutive blocks of as many rows as fit in
    ``BLOCK_BYTES`` (at least one), and every block reuses the same few
    buffers; neither the post-circuit stack nor any other stack-sized array
    is formed. A post-circuit block is twice the block after the swap-test
    unitary (the two Hadamards without their 1/sqrt(2) factors): with t0,
    t1 the ancilla-0 and ancilla-1 halves and S the swap of every (test,
    train) pair, 2 out0 = t0 + t1 + S(t0 - t1) and 2 out1 = t0 + t1 -
    S(t0 - t1). A diagonal O gives sum_x z(x) |v(x)|^2 per row, a square and
    one matrix-vector product on the float view, real by construction; a
    permuting O gives the complex vdot(v, z (v with its registers permuted)).
    """
    ancilla, z, head, perm, item = (_plan(layout) if obs is None
                                    else _plan(layout, obs.z_registers, obs.order))
    stack = np.ascontiguousarray(stack)
    count, dim = stack.shape
    size = max(1, min(count, BLOCK_BYTES // (16 * dim)))
    circuit = ancilla is not None
    diagonal = circuit or not head
    values = np.empty(count, dtype=float if diagonal else complex)
    # The post-circuit block, or the squared or permuted rows of a block.
    block = np.empty((size, dim), dtype=complex)

    def items(arr):
        # (rows,) + head raw items; the reshape only merges the trailing
        # registers, contiguous in every array here, so writes reach arr.
        flat = arr.reshape(arr.shape[:1] + head + (-1,))
        return flat.view(np.dtype((np.void, item)))[..., 0]

    if circuit:
        h0, h1 = ((slice(None),) * (1 + ancilla) + (h,) for h in (0, 1))
        t_all, o_all = (x.reshape((-1,) + layout.dims) for x in (stack, block))
        o1_items = items(o_all[h1])
        plus_all, diff_all = np.empty((2, size) + o_all[h0].shape[1:], dtype=complex)
        diff_items = items(diff_all)
    elif not diagonal:
        stack_items, block_items = items(stack), items(block)
    for start in range(0, count, size):
        rows = slice(start, min(start + size, count))
        n = rows.stop - start
        part = block[:n]
        if circuit:
            t, o, plus = t_all[rows], o_all[:n], plus_all[:n]
            t0, t1, o0, o1 = t[h0], t[h1], o[h0], o[h1]
            np.add(t0, t1, out=plus)
            np.subtract(t0, t1, out=diff_all[:n])
            _permute(diff_items[:n], perm, o1_items[:n])
            np.add(plus, o1, out=o0)
            np.subtract(plus, o1, out=o1)
        measured = part if circuit else stack[rows]
        if diagonal:
            values[rows] = np.square(measured.view(float), out=part.view(float)) @ z
            continue
        _permute(stack_items[rows], perm, block_items[:n])
        np.multiply(part.view(float), z, out=part.view(float))
        values[rows] = np.einsum("ij,ij->i", measured.conj(), part)
    # A post-circuit block holds twice the state.
    return values / 4.0 if circuit else values


def _signed_sum(values: np.ndarray, signs: np.ndarray | None):
    """sum_i s_i values_i, with every s_i = +1 when ``signs`` is None."""
    return values.sum() if signs is None else signs @ values


def swap_test_expectation(state: ClassifierState) -> float:
    """Ancilla-label parity <Z_a Z_l> after the swap-test circuit, summed over
    the signed rows of an assembled state with an ancilla.

    The circuit runs and the parity is measured block by block, in buffers
    of at most ``BLOCK_BYTES`` each; the post-circuit stack is never built.
    The value, a signed sum of squared magnitudes, is real by construction.
    """
    return float(_signed_sum(_stack_value(state.stack, state.layout), state.signs))


def expectation(obs: Observable, state) -> float:
    """Tr(obs rho) as sum_i s_i <v_i|obs|v_i> over the signed rows of the
    state; checked real to 1e-10.

    ``obs`` must be an :class:`Observable`; it acts on the reshaped rows (a
    sign mask and a transpose), and no operator matrix is formed. For the
    value of a dense matrix M, take np.trace(M @ rho). The state is a
    ClassifierState (its stack; the density matrix is never built), QState
    or state vector (one row), or DensityMatrix or square matrix. A density
    matrix is measured through its eigen-factor rows, so it pays one
    ``eigh`` (3.4 ms at dim 128, 0.1 s at dim 512 on a 2-core Xeon) and must
    be Hermitian and PSD to the floor, else NumericError; measure a large
    state as a ClassifierState.
    """
    if not isinstance(obs, Observable):
        raise DataError(f"expectation needs an Observable, got {type(obs).__name__}")
    rows, signs = ((state.stack, state.signs) if isinstance(state, ClassifierState)
                   else eigen_factor(state, "state"))
    if rows.shape[-1] != obs.dim:
        raise DimensionError(f"dimension mismatch: observable {obs.dim} vs state {rows.shape}")
    val = complex(_signed_sum(_stack_value(rows, obs.layout, obs), signs))
    if not abs(val.imag) <= ATOL_DERIVED:
        raise NumericError(f"expectation has imaginary residual {val.imag}")
    return float(val.real)


def outcome_probabilities(obs: Observable, state) -> dict[int, float]:
    """Probabilities of the +1 / -1 outcomes of an observable, which is an
    involution by construction.

    The spectral projectors are (identity +- obs) / 2, so the probabilities
    are (Tr rho +- <obs>) / 2, with <obs> from :func:`expectation`; no
    projector is built and a matrix is eigen-factored once. Tr rho must be
    1 to 1e-10, which is the check that the two probabilities sum to 1.
    """
    value = expectation(obs, state)  # checks the observable and the state
    if isinstance(state, ClassifierState):  # the signed sum of squared row norms
        flat = np.ascontiguousarray(state.stack).view(float)
        total = float(_signed_sum(np.einsum("ij,ij->i", flat, flat), state.signs))
    else:  # the trace of the matrix, or the squared norm of the vector
        entries = _as_array(state)
        total = float((np.vdot(entries, entries) if entries.ndim == 1 else np.trace(entries)).real)
    if not abs(total - 1.0) <= ATOL_DERIVED:
        raise NumericError(f"outcome probabilities sum to {total}")
    return {lam: min(max((total + lam * value) / 2.0, 0.0), 1.0) for lam in (1, -1)}


def draw_shots(value: float, shots: int, seed: int) -> list[ShotRecord]:
    """``shots`` seeded measurements of a +-1 observable with expectation
    ``value``: the +1 count is one binomial draw with p(+1) = (1 + value)/2."""
    check_count(shots, "shots")
    if math.isnan(value):
        raise DataError("cannot draw shots for an expectation value of NaN")
    p_plus = min(max((1.0 + value) / 2.0, 0.0), 1.0)
    n_plus = int(np.random.default_rng(check_seed(seed)).binomial(shots, p_plus))
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
