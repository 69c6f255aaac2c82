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

One blocked kernel runs the circuit and measures: it walks a stack in
blocks of rows whose buffers stay small (``BLOCK_BYTES``), runs the circuit
on each block when asked, and returns each row's measured value, so neither
the post-circuit stack nor any other stack-sized temporary is formed.
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
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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


@dataclass(frozen=True)
class _StackPlan:
    """How :func:`_stack_value` walks the rows of one layout.

    ``ancilla`` is the axis of the ancilla register in a row shaped
    ``dims`` when the swap-test circuit runs, None when it does not. ``perm``
    is the register permutation of the plan, an axis permutation of
    (rows,) + ``head``: with a circuit, the swap of every (test, train) pair
    on one ancilla half; without one, the measured observable's order (None
    for the identity). The registers after ``head`` are left in place by it
    and move as one raw item of ``item`` bytes, so a permuted copy runs over
    items, not over single amplitudes. The measured observable multiplies
    each amplitude by its Pauli Z sign; ``z`` holds each sign twice, for
    the (real, imaginary) float view of a row.
    """

    dims: tuple[int, ...]
    ancilla: int | None
    head: tuple[int, ...]
    perm: tuple[int, ...] | None
    item: int
    z: np.ndarray


def _split_tail(dims: tuple[int, ...], order: tuple[int, ...], floor: int = 0):
    """(head, perm, item) of a register permutation ``order`` of ``dims``:
    the registers before its trailing run of fixed ones (none of them
    before position ``floor``), the permutation as axes of (rows,) + head,
    and the bytes of the run."""
    cut = len(dims)
    while cut > floor and order[cut - 1] == cut - 1:
        cut -= 1
    perm = (0,) + tuple(1 + i for i in order[:cut])
    return dims[:cut], perm, 16 * math.prod(dims[cut:])


# A plan holds 16 bytes of signs per amplitude, as much as one row, so
# only a few plans are kept.
@lru_cache(maxsize=16)
def _observable_plan(layout: RegisterLayout, z_registers: tuple[int, ...],
                     order: tuple[int, ...]) -> _StackPlan:
    """Plan that measures an observable, with no circuit."""
    z = np.ones(layout.dims + (2,))
    for i in z_registers:
        z[(slice(None),) * i + (1,)] *= -1.0
    z = z.ravel()
    z.setflags(write=False)
    head, perm, item = _split_tail(layout.dims, order)
    return _StackPlan(layout.dims, None, head, None if not head else perm, item, z)


@lru_cache(maxsize=16)
def _swap_test_plan(layout: RegisterLayout) -> _StackPlan:
    """Plan that runs the swap-test circuit, then measures the ancilla-label
    parity."""
    dims = layout.dims
    a = layout.index_of(ANCILLA)
    order = _pair_swap_order(layout)
    if order == tuple(range(len(dims))):
        raise DimensionError("layout has no (test, train) pairs to swap")
    rest = [i for i in range(len(dims)) if i != a]
    # Only registers after the ancilla are contiguous within a half.
    head, perm, item = _split_tail(tuple(dims[i] for i in rest),
                                   tuple(rest.index(order[i]) for i in rest), a)
    parity = ancilla_label_parity(layout)
    return _StackPlan(dims, a, head, perm, item,
                      _observable_plan(layout, parity.z_registers, parity.order).z)


def _items(arr: np.ndarray, plan: _StackPlan) -> np.ndarray:
    """View of a (rows, ...) array as (rows,) + plan.head raw items. The
    reshape only merges the trailing registers, which are contiguous in
    every array passed here, so it is a view and writes reach ``arr``."""
    flat = arr.reshape(arr.shape[:1] + plan.head + (-1,))
    return flat.view(np.dtype((np.void, plan.item)))[..., 0]


def _permute(src: np.ndarray, plan: _StackPlan, out: np.ndarray) -> None:
    """out = the plan's register permutation of src, both as :func:`_items`
    views. It is the swap step of the circuit, and the permutation of a
    measured observable."""
    np.copyto(out, src.transpose(plan.perm))


def _block_rows(stack: np.ndarray) -> int:
    """Rows per block: as many as fit in ``BLOCK_BYTES``, at least one."""
    return max(1, min(stack.shape[0], BLOCK_BYTES // (16 * stack.shape[1])))


def _blocks(stack: np.ndarray, plan: _StackPlan):
    """Yield (rows, block) over consecutive row blocks of a C-contiguous
    2-D stack, ``rows`` the block's slice of the stack.

    Without a circuit a block is a view of the stack. With one it is twice
    the block after the swap-test unitary (the two Hadamards without their
    1/sqrt(2) factors): with t0, t1 the ancilla-0 and ancilla-1 halves and
    S the swap of every (test, train) pair, 2 out0 = t0 + t1 + S(t0 - t1)
    and 2 out1 = t0 + t1 - S(t0 - t1). It is written into one block buffer
    that every block reuses.
    """
    count, dim = stack.shape
    size = _block_rows(stack)
    if plan.ancilla is None:
        for start in range(0, count, size):
            rows = slice(start, start + size)
            yield rows, stack[rows]
        return
    h0, h1 = ((slice(None),) * (1 + plan.ancilla) + (h,) for h in (0, 1))
    target = np.empty((size, dim), dtype=complex)
    t_all, o_all = (x.reshape((-1,) + plan.dims) for x in (stack, target))
    o1_items = _items(o_all[h1], plan)
    plus_all, diff_all = np.empty((2, size) + o_all[h0].shape[1:], dtype=complex)
    diff_items = _items(diff_all, plan)
    for start in range(0, count, size):
        rows = slice(start, min(start + size, count))
        n = rows.stop - start
        t, o, plus = t_all[rows], o_all[:n], plus_all[:n]
        t0, t1, o0, o1 = t[h0], t[h1], o[h0], o[h1]
        np.add(t0, t1, out=plus)
        np.subtract(t0, t1, out=diff_all[:n])
        _permute(diff_items[:n], plan, o1_items[:n])
        np.add(plus, o1, out=o0)
        np.subtract(plus, o1, out=o1)
        yield rows, target[:n]


def _stack_value(stack: np.ndarray, layout: RegisterLayout,
                 obs: Observable | None = None) -> np.ndarray:
    """<v_i|O|v_i> of each row v_i of a 2-D stack on ``layout``: after the
    swap-test circuit with O the ancilla-label parity when ``obs`` is None,
    else with O the observable ``obs`` and no circuit. The rows
    are measured block by block, in buffers of at most ``BLOCK_BYTES``;
    neither the post-circuit stack nor any other stack-sized array is formed.

    A diagonal O gives sum_x z(x) |v(x)|^2 per row, a square and one
    matrix-vector product on the float view, real by construction; a
    permuting O gives the complex vdot(v, z (v with its registers permuted)).
    """
    plan = (_swap_test_plan(layout) if obs is None
            else _observable_plan(layout, obs.z_registers, obs.order))
    stack = np.ascontiguousarray(stack)
    circuit = plan.ancilla is not None
    diagonal = circuit or plan.perm is None
    if not circuit:
        scratch = np.empty((_block_rows(stack), stack.shape[1]), dtype=complex)
    if not diagonal:
        stack_items, scratch_items = _items(stack, plan), _items(scratch, plan)
    values = np.empty(stack.shape[0], dtype=float if diagonal else complex)
    for rows, block in _blocks(stack, plan):
        n = block.shape[0]
        # A post-circuit block is the kernel's own buffer, free to overwrite.
        part = block if circuit else scratch[:n]
        if diagonal:
            values[rows] = np.square(block.view(float), out=part.view(float)) @ plan.z
            continue
        _permute(stack_items[rows], plan, scratch_items[:n])
        np.multiply(part.view(float), plan.z, out=part.view(float))
        values[rows] = np.einsum("ij,ij->i", block.conj(), part)
    # A post-circuit block holds twice the state (see _blocks).
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
        rows = state.stack
        total = complex(_signed_sum(np.einsum("ij,ij->i", rows.conj(), rows), state.signs)).real
    else:  # the trace of the matrix, or the squared norm of the vector
        entries = _as_array(state)
        total = float((np.vdot(entries, entries) if entries.ndim == 1 else np.trace(entries)).real)
    if not abs(total - 1.0) <= ATOL_DERIVED:
        raise NumericError(f"outcome probabilities sum to {total}")
    return {lam: min(max((total + lam * value) / 2.0, 0.0), 1.0) for lam in (1, -1)}


def draw_shots(value: float, shots: int, seed: int) -> list[ShotRecord]:
    """``shots`` seeded measurements of a +-1 observable with expectation
    ``value``: the +1 count is one binomial draw with p(+1) = (1 + value)/2."""
    if isinstance(shots, bool) or not isinstance(shots, numbers.Integral) or shots < 1:
        raise DataError(f"shots must be an integer >= 1, got {shots!r}")
    if math.isnan(value):
        raise DataError("cannot draw shots for an expectation value of NaN")
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
