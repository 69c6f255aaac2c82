import tracemalloc

import numpy as np
import pytest
from helpers import basis_state, projector_onto, random_density_matrix

from qkclass import circuit as circuit_module
from qkclass import qmath
from qkclass.circuit import (Observable, ancilla_label_parity,
                             build_swap_test_unitary, draw_shots,
                             empirical_expectation, expectation,
                             outcome_probabilities, sample_shots,
                             swap_label_observable, swap_operator,
                             swap_test_expectation)
from qkclass.classifier import classify_assembled
from qkclass.encoding import (ClassifierState, TrainingSet, assemble_mixed_stc_input,
                              assemble_pure_stc_input, mixed_stc_state)
from qkclass.errors import DataError, DimensionError, NumericError
from qkclass.qmath import (PAULIS, SIGMA_Z, QState, random_state_vector, tensor,
                           tensor_power)
from qkclass.registers import (ANCILLA, LABEL, TEST, TRAIN, Register, RegisterLayout,
                               block_layout)


def pair_layout(data_dim, k, *, ancilla=True):
    """Interleaved [ancilla |] (test, train) x k | label layout. Every
    assembly uses the block layout; the circuit reads the (test, train)
    pairs by copy number, so it must run on this order too."""
    anc = [Register(ANCILLA, 2)] if ancilla else []
    pairs = [Register(role, data_dim, copy=i) for i in range(1, k + 1) for role in (TEST, TRAIN)]
    return RegisterLayout(tuple(anc + pairs + [Register(LABEL, 2)]))


def effective_observable(n, k):
    """Ancilla-free classifier observable for k copies of n-qubit data,
    block order [test x k | train x k | label]."""
    return swap_label_observable(block_layout(2 ** n, k, ancilla=False))


def one_qubit_z() -> Observable:
    """Pauli Z on a single qubit."""
    return Observable(RegisterLayout((Register(LABEL, 2),)), (0,))


def pauli_sum_swap():
    """Two-qubit swap written as half the sum of matched Pauli pairs."""
    return sum(tensor(s, s) for s in PAULIS) / 2.0


class TestSwapOperator:
    def test_definition_on_basis(self):
        s = swap_operator(2).matrix
        ket01 = tensor(basis_state(2, 0), basis_state(2, 1))
        ket10 = tensor(basis_state(2, 1), basis_state(2, 0))
        assert np.allclose(s @ ket01, ket10)

    def test_eigenvalues_one_qubit_pair(self):
        vals = np.sort(np.linalg.eigvalsh(swap_operator(2).matrix))
        assert np.allclose(vals, [-1, 1, 1, 1], atol=1e-12)

    def test_equals_pauli_sum_one_qubit(self):
        assert np.abs(swap_operator(2).matrix - pauli_sum_swap()).max() < 1e-14

    def test_equals_pauli_sum_two_qubits(self):
        # The Pauli-pair form acts on interleaved qubits (t1 d1 t2 d2);
        # permuting to block order (t1 t2 d1 d2) must give the register swap.
        interleaved = tensor(pauli_sum_swap(), pauli_sum_swap())
        p = qmath.register_permutation_matrix((2, 2, 2, 2), (0, 2, 1, 3))
        block = p @ interleaved @ p.conj().T
        assert np.abs(swap_operator(4).matrix - block).max() < 1e-14


class TestSwapTestUnitary:
    @pytest.mark.parametrize("layout", [
        block_layout(2, 1), block_layout(2, 2), block_layout(4, 1),
        block_layout(2, 1, index_slots=3), pair_layout(2, 2), pair_layout(4, 1),
    ])
    def test_unitarity_and_structural_agreement(self, layout):
        rng = np.random.default_rng(layout.dim)
        v = build_swap_test_unitary(layout)
        assert np.abs(v @ v.conj().T - np.eye(layout.dim)).max() < 1e-12
        # The blocked circuit measures what the dense unitary and parity give,
        # on a vector and on a mixed state's eigen-factor rows.
        parity = ancilla_label_parity(layout).matrix
        vec = random_state_vector(layout.dim, rng).vec
        state = ClassifierState(None, layout, vector=vec)
        after = v @ vec
        assert abs(swap_test_expectation(state) - np.vdot(after, parity @ after).real) < 1e-12
        rho = random_density_matrix(layout.dim, rng, rank=3)
        after = v @ rho.entries @ v.conj().T
        assert abs(swap_test_expectation(ClassifierState(rho, layout))
                   - np.trace(parity @ after).real) < 1e-12

    def test_swap_invariant_input_unchanged(self):
        rng = np.random.default_rng(1)
        psi = random_state_vector(2, rng)
        layout = block_layout(2, 1)
        vec = tensor(basis_state(2, 0), psi.vec, psi.vec, basis_state(2, 0))
        out = build_swap_test_unitary(layout) @ vec
        assert np.allclose(out, vec, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2])
    def test_output_structure_on_indexed_input(self, k):
        # Oracle: construct the post-circuit state explicitly as
        # sum_m sqrt(a_m)/2 (|0>|psi_k+> + |1>|psi_k->)|y_m>|m> with
        # |psi_k+-> = |t>|d_m> +- |d_m>|t>.
        rng = np.random.default_rng(40 + k)
        xs = [random_state_vector(2, rng) for _ in range(2)]
        ys = [0, 1]
        ws = [0.25, 0.75]
        test = random_state_vector(2, rng)
        ts = TrainingSet.from_states(list(zip(xs, ys, ws)), k=k)
        state = assemble_pure_stc_input(ts, test, with_index=True)
        got = build_swap_test_unitary(state.layout) @ state.vector
        t_block = tensor_power(test.vec, k)
        expect = np.zeros_like(got)
        for m, (x, y, w) in enumerate(zip(xs, ys, ws)):
            d_block = tensor_power(x.vec, k)
            plus = tensor(t_block, d_block) + tensor(d_block, t_block)
            minus = tensor(t_block, d_block) - tensor(d_block, t_block)
            branch = (tensor(basis_state(2, 0), plus)
                      + tensor(basis_state(2, 1), minus)) / 2.0
            expect += np.sqrt(w) * tensor(branch, basis_state(2, y), basis_state(2, m))
        assert np.allclose(got, expect, atol=1e-12)

    def test_layout_without_ancilla_rejected(self):
        with pytest.raises(DimensionError):
            build_swap_test_unitary(block_layout(2, 1, ancilla=False))

    @pytest.mark.parametrize("seed", range(6))
    def test_index_register_is_optional(self, seed):
        # The indexed superposition and the index-free mixture produce the
        # same measured parity for identical data, weights, and copies.
        rng = np.random.default_rng(700 + seed)
        n = int(rng.integers(1, 3))
        k = int(rng.integers(1, 3))
        m = int(rng.integers(1, 4))
        states = [random_state_vector(2 ** n, rng) for _ in range(m)]
        labels = [int(rng.integers(0, 2)) for _ in range(m)]
        weights = rng.random(m) + 0.1
        test = random_state_vector(2 ** n, rng)
        ts = TrainingSet.from_states(list(zip(states, labels, weights)), k=k)
        with_index = swap_test_expectation(assemble_pure_stc_input(ts, test, with_index=True))
        without_index = swap_test_expectation(assemble_pure_stc_input(ts, test))
        assert abs(with_index - without_index) < 1e-10


class TestEffectiveObservable:
    def test_expected_eigenvector_table(self):
        obs = effective_observable(1, 1)
        spec = obs.spectrum
        assert np.allclose(sorted(spec.eigenvalues), [-1] * 4 + [1] * 4, atol=1e-10)
        s2 = 1 / np.sqrt(2)
        plus_pairs = [
            np.kron([1, 0, 0, 0], [1, 0]),            # |000>
            np.kron([0, 0, 0, 1], [1, 0]),            # |110>
            np.kron([0, s2, s2, 0], [1, 0]),          # sym x |0>
            np.kron([0, s2, -s2, 0], [0, 1]),         # antisym x |1>
        ]
        minus_pairs = [
            np.kron([1, 0, 0, 0], [0, 1]),            # |001>
            np.kron([0, 0, 0, 1], [0, 1]),            # |111>
            np.kron([0, s2, s2, 0], [0, 1]),          # sym x |1>
            np.kron([0, s2, -s2, 0], [1, 0]),         # antisym x |0>
        ]
        for lam, vecs in ((1.0, plus_pairs), (-1.0, minus_pairs)):
            proj = projector_onto(spec, lam)
            for v in vecs:
                assert np.linalg.norm(proj @ v - v) < 1e-10

    def test_identical_states_label_zero_gives_plus_one(self):
        rng = np.random.default_rng(2)
        x = random_state_vector(2, rng)
        state = tensor(x.vec, x.vec, basis_state(2, 0))
        obs = effective_observable(1, 1)
        rho = np.outer(state, state.conj())
        assert abs(np.trace(obs.matrix @ rho).real - 1.0) < 1e-12
        assert abs(expectation(obs, rho) - 1.0) < 1e-12

    @pytest.mark.parametrize("n,k", [(1, 1), (1, 2), (2, 1)])
    def test_conjugated_parity_equals_effective_observable_block(self, n, k):
        layout = block_layout(2 ** n, k)
        v = build_swap_test_unitary(layout)
        zal = ancilla_label_parity(layout).matrix
        conjugated = v.conj().T @ zal @ v
        effective = tensor(SIGMA_Z, effective_observable(n, k).matrix)
        assert np.linalg.norm(conjugated - effective) < 1e-12

    @pytest.mark.parametrize("n,k", [(1, 1), (1, 2)])
    def test_conjugated_parity_equals_swap_label_pair_order(self, n, k):
        layout = pair_layout(2 ** n, k)
        v = build_swap_test_unitary(layout)
        zal = ancilla_label_parity(layout).matrix
        conjugated = v.conj().T @ zal @ v
        bare = pair_layout(2 ** n, k, ancilla=False)
        effective = tensor(SIGMA_Z, swap_label_observable(bare).matrix)
        assert np.linalg.norm(conjugated - effective) < 1e-12

    def test_observables_square_to_identity(self):
        for obs in (effective_observable(1, 2), swap_operator(4),
                    ancilla_label_parity(block_layout(2, 1))):
            sq = obs.matrix @ obs.matrix
            assert np.abs(sq - np.eye(obs.dim)).max() < 1e-10


class TestExpectation:
    def test_sigma_z_on_ground_state(self):
        ground = np.diag([1.0, 0.0]).astype(complex)
        assert expectation(one_qubit_z(), ground) == pytest.approx(1.0)

    def test_identity_gives_trace(self):
        rho = random_density_matrix(4, np.random.default_rng(3))
        identity = Observable(RegisterLayout((Register(TEST, 4, 1),)))
        assert expectation(identity, rho) == pytest.approx(1.0)

    def test_only_an_observable_is_measured(self):
        # A dense operator M is measured as np.trace(M @ rho), not here.
        ground = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(DataError, match="Observable"):
            expectation(SIGMA_Z, ground)
        with pytest.raises(DataError, match="Observable"):
            sample_shots(SIGMA_Z, ground, 10, seed=1)

    def test_single_datum_kernel_value(self):
        rng = np.random.default_rng(4)
        x = random_state_vector(2, rng)
        test = random_state_vector(2, rng)
        ts = TrainingSet.from_states([(x, 0, 1.0)])
        value = swap_test_expectation(assemble_pure_stc_input(ts, test))
        assert abs(value - abs(test.overlap(x)) ** 2) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            expectation(one_qubit_z(), np.eye(4) / 4)


class TestOutcomeProbabilities:
    def test_identical_pure_states_certain(self):
        rng = np.random.default_rng(5)
        x = random_state_vector(2, rng)
        ts = [(x.to_density(), 0, 1.0)]
        state = assemble_mixed_stc_input(x.to_density(), ts, 1, with_ancilla=False)
        probs = outcome_probabilities(swap_label_observable(state.layout), state)
        assert probs[1] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states_even_odds(self):
        state = assemble_mixed_stc_input(
            QState(basis_state(2, 0)).to_density(),
            [(QState(basis_state(2, 1)).to_density(), 0, 1.0)], 1, with_ancilla=False)
        probs = outcome_probabilities(swap_label_observable(state.layout), state)
        assert probs[1] == pytest.approx(0.5, abs=1e-12)
        assert probs[-1] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_projectors_match_kernel_closed_form(self, seed):
        rng = np.random.default_rng(100 + seed)
        test = random_density_matrix(2, rng)
        train = [(random_density_matrix(2, rng), int(rng.integers(0, 2)), w)
                 for w in (0.2, 0.5, 0.3)]
        state = assemble_mixed_stc_input(test, train, 1, with_ancilla=False)
        probs = outcome_probabilities(swap_label_observable(state.layout), state)
        signed = sum((1 - 2 * y) * w * qmath.hs_inner(test, rho)
                     for rho, y, w in train)
        for lam in (1, -1):
            assert abs(probs[lam] - 0.5 * (1 + lam * signed)) < 1e-10
        value = expectation(swap_label_observable(state.layout), state)
        assert abs(value - (probs[1] - probs[-1])) < 1e-10

    def test_requires_pm_one_spectrum(self):
        # Every Observable has it by construction; a matrix is refused.
        with pytest.raises(DataError, match="Observable"):
            outcome_probabilities(np.diag([2.0, 0.5]).astype(complex), np.eye(2) / 2)

    def test_a_density_matrix_is_eigen_factored_once(self, monkeypatch):
        rng = np.random.default_rng(290)
        obs = swap_operator(4)
        rho = random_density_matrix(16, rng, rank=4)
        vec = random_state_vector(16, rng)
        calls = []
        eigh = np.linalg.eigh

        def spy(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        for state, dense, factors in ((rho, rho.entries, 1), (vec, vec.projector(), 0)):
            for measure in (expectation, outcome_probabilities):
                calls.clear()
                got = measure(obs, state)
                assert len(calls) == factors
            for lam in (1, -1):
                want = np.trace((np.eye(16) + lam * obs.matrix) / 2 @ dense).real
                assert abs(got[lam] - want) < 1e-12

    def test_involutory_matrix_observable_accepted(self):
        probs = outcome_probabilities(one_qubit_z(), np.diag([0.25, 0.75]))
        assert probs[1] == pytest.approx(0.25) and probs[-1] == pytest.approx(0.75)


def test_nan_matrix_fails_every_hermitian_check():
    # A NaN entry makes each residual NaN, which must fail its check.
    bad = np.diag([np.nan, 1.0])
    with pytest.raises(NumericError, match="Hermitian"):
        qmath.HermitianSpectrum.of(bad)
    with pytest.raises(NumericError, match="rebuilds"):
        expectation(one_qubit_z(), bad)
    with pytest.raises(NumericError, match="sum to nan"):
        outcome_probabilities(one_qubit_z(), np.array([np.nan, 0.0]))


class TestSampling:
    def _even_odds_state(self):
        return assemble_mixed_stc_input(
            QState(basis_state(2, 0)).to_density(),
            [(QState(basis_state(2, 1)).to_density(), 0, 1.0)], 1, with_ancilla=False)

    def test_certain_outcome(self):
        rng = np.random.default_rng(6)
        x = random_state_vector(2, rng)
        state = assemble_mixed_stc_input(x.to_density(), [(x.to_density(), 0, 1.0)],
                                         1, with_ancilla=False)
        records = sample_shots(swap_label_observable(state.layout), state, 1000, seed=7)
        assert dict((r.outcome, r.count) for r in records)[1] == 1000

    def test_balanced_outcome_within_binomial_bounds(self):
        state = self._even_odds_state()
        records = sample_shots(swap_label_observable(state.layout), state, 10**5, seed=8)
        mean = empirical_expectation(records)
        # 3 sigma of a +-1 coin over 1e5 draws
        assert abs(mean) < 3.0 / np.sqrt(10**5)

    def test_empirical_mean_converges_at_binomial_rate(self):
        # variance of a +-1 outcome is 1 - <Z>**2
        rng = np.random.default_rng(55)
        x, test = random_state_vector(2, rng), random_state_vector(2, rng)
        state = assemble_mixed_stc_input(test.to_density(), [(x.to_density(), 0, 1.0)],
                                         1, with_ancilla=False)
        obs = swap_label_observable(state.layout)
        value = expectation(obs, state)
        shots = 10**5
        records = sample_shots(obs, state, shots, seed=56)
        sigma = np.sqrt(max(1.0 - value**2, 1e-12) / shots)
        assert abs(empirical_expectation(records) - value) < 3 * sigma

    def test_seed_determinism(self):
        state = self._even_odds_state()
        obs = swap_label_observable(state.layout)
        assert sample_shots(obs, state, 500, seed=9) == sample_shots(obs, state, 500, seed=9)

    def test_counts_sum_to_shots(self):
        state = self._even_odds_state()
        records = sample_shots(swap_label_observable(state.layout), state, 123, seed=10)
        assert sum(r.count for r in records) == 123
        assert all(r.seed == 10 for r in records)

    def test_shots_must_be_positive(self):
        state = self._even_odds_state()
        with pytest.raises(DataError):
            sample_shots(swap_label_observable(state.layout), state, 0, seed=1)

    @pytest.mark.parametrize("shots", [2.5, True, 10.0, np.nan])
    def test_shots_must_be_an_integer(self, shots):
        state = self._even_odds_state()
        with pytest.raises(DataError, match="integer"):
            sample_shots(swap_label_observable(state.layout), state, shots, seed=1)
        with pytest.raises(DataError, match="integer"):
            draw_shots(0.0, shots, seed=1)
        records = draw_shots(0.0, np.int64(10), seed=1)
        assert sum(r.count for r in records) == 10

    def test_nan_expectation_is_refused(self):
        with pytest.raises(DataError, match="NaN"):
            draw_shots(np.nan, 10, 1)


STRUCTURED_LAYOUTS = [
    block_layout(2, 1), block_layout(2, 2), block_layout(4, 1),
    block_layout(2, 1, index_slots=3), block_layout(2, 2, index_slots=2),
    block_layout(2, 1, ancilla=False), block_layout(2, 2, ancilla=False),
    block_layout(2, 2, ancilla=False, index_slots=3),
    pair_layout(2, 1), pair_layout(2, 2), pair_layout(4, 1),
    pair_layout(2, 2, ancilla=False),
]


def structured_observables():
    for layout in STRUCTURED_LAYOUTS:
        if layout.has(ANCILLA):
            yield pytest.param(ancilla_label_parity(layout), id=f"parity-{layout.dims}")
        yield pytest.param(swap_label_observable(layout), id=f"swap-label-{layout.dims}")
    for dim in (2, 4, 8):
        yield pytest.param(swap_operator(dim), id=f"swap-{dim}")


class TestStructuredObservables:
    """The matrix-free action against the dense ``.matrix`` reference."""

    @pytest.mark.parametrize("obs", structured_observables())
    def test_expectation_and_probabilities_match_dense(self, obs):
        rng = np.random.default_rng(obs.dim)
        mat = obs.matrix
        eye = np.eye(obs.dim)
        vec = random_state_vector(obs.dim, rng).vec
        rho = random_density_matrix(obs.dim, rng, rank=3)
        # round-off negative eigen-part, measured as a row of sign -1
        signed = np.diag([0.5 + 5e-11, 0.5, -5e-11] + [0.0] * (obs.dim - 3))
        for state, dense in ((vec, lambda op: np.vdot(vec, op @ vec)),
                             (rho, lambda op: np.einsum("ij,ji->", op, rho.entries)),
                             (signed, lambda op: np.einsum("ij,ji->", op, signed))):
            assert abs(expectation(obs, state) - dense(mat).real) < 1e-12
            probs = outcome_probabilities(obs, state)
            for lam in (1, -1):
                # probabilities are clamped to [0, 1]; the signed state's
                # can be 1e-10 outside
                expect = min(max(dense((eye + lam * mat) / 2.0).real, 0.0), 1.0)
                assert abs(probs[lam] - expect) < 1e-12

    def test_applied_where_the_dense_matrix_is_refused(self):
        layout = block_layout(8, 2, index_slots=2)
        obs = ancilla_label_parity(layout)
        with pytest.raises(DimensionError):
            obs.matrix
        with pytest.raises(DimensionError):
            build_swap_test_unitary(layout)
        vec = np.zeros(layout.dim, dtype=complex)
        vec[layout.dim // 2 + 1] = 1.0       # ancilla |1>, label |0>
        assert expectation(obs, vec) == pytest.approx(-1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            expectation(swap_operator(2), np.ones(8) / np.sqrt(8))
        with pytest.raises(DimensionError):
            expectation(swap_operator(2), np.eye(8) / 8)

    def test_unnormalized_state_rejected_by_probabilities(self):
        with pytest.raises(NumericError):
            outcome_probabilities(swap_operator(2), 2.0 * np.eye(4) / 4)

    def test_matrix_below_the_psd_floor_is_not_a_state(self):
        not_a_state = np.diag([1.5, -0.5])
        with pytest.raises(NumericError):
            expectation(one_qubit_z(), not_a_state)
        with pytest.raises(NumericError):
            outcome_probabilities(one_qubit_z(), not_a_state)
        with pytest.raises(NumericError):
            sample_shots(one_qubit_z(), not_a_state, 10, seed=1)

    @pytest.mark.parametrize("z,order", [
        ((), (1, 2, 0)),          # a 3-cycle is not an involution
        ((), (1, 0, 2)),          # swaps registers of different dimension
        ((1,), None),             # Pauli Z on a 4-dimensional register
        ((0,), (2, 1, 0)),        # the permutation moves the Z register
    ])
    def test_invalid_structure_rejected(self, z, order):
        layout = RegisterLayout((Register(ANCILLA, 2), Register(TEST, 4, 1),
                                 Register(LABEL, 2)))
        with pytest.raises(DimensionError):
            Observable(layout, z, order)


def signed_stack(rng, rows: int, dim: int, negative: int = 0):
    """Random stack of ``rows`` rows whose last ``negative`` rows carry sign
    -1 (small, as round-off eigen-parts are), scaled to trace 1."""
    stack = rng.normal(size=(rows, dim)) + 1j * rng.normal(size=(rows, dim))
    stack[rows - negative:] *= 1e-3
    signs = np.where(np.arange(rows) < rows - negative, 1.0, -1.0)
    stack /= np.sqrt(signs @ np.linalg.norm(stack, axis=1) ** 2)
    return stack, (signs if negative else None)


def dense_value(op: np.ndarray, stack: np.ndarray, signs) -> float:
    """sum_i s_i <v_i|op|v_i> with the dense matrix ``op``."""
    values = np.einsum("ij,ij->i", stack.conj(), stack @ op.T)
    return float((values if signs is None else signs * values).sum().real)


KERNEL_LAYOUTS = [
    pytest.param(block_layout(2, 1), id="block-k1"),
    pytest.param(block_layout(2, 2), id="block-k2"),
    pytest.param(block_layout(2, 1, index_slots=3), id="indexed"),
    pytest.param(pair_layout(2, 2), id="pair-k2"),
    pytest.param(RegisterLayout((Register(TEST, 2, 1), Register(ANCILLA, 2),
                                 Register(TRAIN, 2, 1), Register(LABEL, 2))),
                 id="ancilla-in-the-middle"),
    pytest.param(RegisterLayout((Register(TEST, 2, 1), Register(TRAIN, 2, 1),
                                 Register(LABEL, 2), Register(ANCILLA, 2))),
                 id="ancilla-last"),
]


class TestBlockedKernel:
    """The blocked swap-test kernel against the dense unitary and the dense
    observable matrices, with blocks small enough that every stack spans
    several of them and ends in a partial one."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(circuit_module, "BLOCK_BYTES", 3 * 16 * 32)

    @pytest.mark.parametrize("layout", KERNEL_LAYOUTS)
    @pytest.mark.parametrize("rows,negative", [(1, 0), (7, 0), (7, 2), (9, 3)])
    def test_circuit_and_parity_match_dense(self, layout, rows, negative):
        rng = np.random.default_rng(rows * 10 + negative + layout.dim)
        stack, signs = signed_stack(rng, rows, layout.dim, negative)
        after = stack @ build_swap_test_unitary(layout).T
        state = ClassifierState(None, layout, vector=stack, signs=signs)
        expect = dense_value(ancilla_label_parity(layout).matrix, after, signs)
        assert abs(swap_test_expectation(state) - expect) < 1e-12
        assert abs(classify_assembled(state).expectation - expect) < 1e-12

    @pytest.mark.parametrize("layout", KERNEL_LAYOUTS[:4] + [
        pytest.param(pair_layout(2, 2, ancilla=False), id="pair-k2-bare"),
        pytest.param(block_layout(2, 2, ancilla=False), id="block-k2-bare")])
    @pytest.mark.parametrize("rows,negative", [(1, 0), (7, 0), (9, 3)])
    def test_measured_observables_match_dense(self, layout, rows, negative):
        rng = np.random.default_rng(rows * 10 + negative + layout.dim + 1)
        stack, signs = signed_stack(rng, rows, layout.dim, negative)
        state = ClassifierState(None, layout, vector=stack, signs=signs)
        observables = [swap_label_observable(layout)]
        if layout.has(ANCILLA):
            observables.append(ancilla_label_parity(layout))
        for obs in observables:
            expect = dense_value(obs.matrix, stack, signs)
            assert abs(expectation(obs, state) - expect) < 1e-12
            probs = outcome_probabilities(obs, state)
            assert abs(probs[1] - probs[-1] - expect) < 1e-12

    def test_classify_assembled_allocates_under_a_quarter_of_the_stack(self, monkeypatch):
        # m=32, dim=4, k=2, rank-2 data: a stack of 128 rows of 1024
        # amplitudes (2 MiB), measured through the circuit at the default
        # block size.
        monkeypatch.undo()
        rng = np.random.default_rng(1200)
        states = [random_density_matrix(4, rng, rank=2) for _ in range(32)]
        ts = TrainingSet.from_states([(s, i % 2, 1.0) for i, s in enumerate(states)], k=2)
        state = mixed_stc_state(ts, random_density_matrix(4, rng, rank=2))
        assert state.stack.nbytes == 2 * 2**20
        tracemalloc.start()
        try:
            value = classify_assembled(state).expectation
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < state.stack.nbytes / 4
        u = build_swap_test_unitary(state.layout)
        parity = ancilla_label_parity(state.layout).matrix
        assert abs(value - dense_value(parity, state.stack @ u.T, state.signs)) < 1e-12


class TestEmbedding:
    def test_parity_needs_ancilla(self):
        with pytest.raises(DimensionError):
            ancilla_label_parity(block_layout(2, 1, ancilla=False))
