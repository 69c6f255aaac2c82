"""Dense reference builders for the assembled classifier input states.

Each builder writes its state term by term as a density matrix, as a tensor
sum of projectors. The library holds the same states as stacks of component
vectors; the tests compare the density matrix rebuilt from a stack with
these.
"""

import numpy as np

from qkclass.circuit import swap_operator
from helpers import basis_state
from qkclass.qmath import tensor, tensor_power


def block_to_pair(k: int, ancilla: bool = True) -> tuple[int, ...]:
    """Register order taking the block layout [ancilla | test x k | train x k
    | label] to the pair order [ancilla | (test, train) x k | label] of the
    dense references, for :func:`qkclass.qmath.register_permutation_matrix`."""
    shift = int(ancilla)
    pairs = [shift + c for i in range(k) for c in (i, k + i)]
    return tuple(range(shift)) + tuple(pairs) + (shift + 2 * k,)


def label_projector(label: int) -> np.ndarray:
    return np.outer(basis_state(2, label), basis_state(2, label))


def _with_ancilla(rho: np.ndarray, with_ancilla: bool) -> np.ndarray:
    return tensor(label_projector(0), rho) if with_ancilla else rho


def dense_pure_mixture(ts, test, *, with_ancilla=True) -> np.ndarray:
    """Index-free pure-data input, block order:
    |test><test|^k (x) sum_m w_m |x_m><x_m|^k (x) |y_m><y_m|."""
    k = ts.k
    mix = np.zeros((ts.data_dim ** k * 2,) * 2, dtype=complex)
    for vec, label, w in zip(ts.states, ts.labels, ts.effective_weights()):
        mix += w * tensor(tensor_power(np.outer(vec, vec.conj()), k), label_projector(label))
    return _with_ancilla(tensor(tensor_power(test.projector(), k), mix), with_ancilla)


def dense_mixed_input(test, train, k, *, with_ancilla=True) -> np.ndarray:
    """Density-matrix input, pair order:
    sum_m w_m (rho_t (x) rho_m)^(x)k (x) |y_m><y_m|."""
    d2 = test.dim ** 2
    total = np.zeros((d2 ** k * 2,) * 2, dtype=complex)
    for rho_m, label, w in train:
        block = tensor_power(tensor(test.entries, rho_m.entries), k)
        total += w * tensor(block, label_projector(label))
    return _with_ancilla(total, with_ancilla)


def pad_pair_state(data_dim: int, padding: str) -> np.ndarray:
    """Padding of one unused (test, train) pair slot."""
    d2 = data_dim * data_dim
    if padding == "maximally-mixed":
        return np.eye(d2, dtype=complex) / d2
    sym = (np.eye(d2) + swap_operator(data_dim).matrix) / 2.0
    return sym / np.trace(sym).real


def dense_ensemble_exponents(test, models, train, max_copies, padding) -> np.ndarray:
    """Joint state of an exponent ensemble, pair order with an ancilla:
    sum_s q_s sum_m a_sm (rho_t (x) rho_m)^(x)k_s (x) pad^(x)(K - k_s)
    (x) |y_m><y_m|."""
    pad = pad_pair_state(test.dim, padding)
    dim = 4 * (test.dim ** 2) ** max_copies
    joint = np.zeros((dim, dim), dtype=complex)
    for q, a_s, k_s in models:
        body = np.zeros((dim // 2, dim // 2), dtype=complex)
        for (rho_m, label), w in zip(train, a_s):
            block = tensor_power(tensor(test.entries, rho_m.entries), k_s)
            for _ in range(max_copies - k_s):
                block = tensor(block, pad)
            body += w * tensor(block, label_projector(label))
        joint += q * tensor(label_projector(0), body)
    return joint
