import math
import tracemalloc

import numpy as np
import pytest
from dense_reference import block_to_pair, dense_mixed_input, dense_pure_mixture
from helpers import basis_state, random_density_matrix

from qkclass import constants, encoding, qmath
from qkclass.circuit import (ancilla_label_parity, build_swap_test_unitary, expectation,
                             outcome_probabilities, swap_label_observable,
                             swap_test_expectation)
from qkclass.encoding import (ClassifierState, RawDatum, TrainingSet,
                              amplitude_encode, assemble_bias_extended,
                              assemble_ensemble_exponents,
                              assemble_ensemble_weights,
                              assemble_mixed_stc_input,
                              assemble_pure_stc_input)
from qkclass.errors import DataError, DimensionError, NumericError
from qkclass.qmath import (DensityMatrix, QState, partial_trace, random_state_vector,
                           register_permutation_matrix, tensor)
from qkclass.registers import block_layout


def ket(*amps):
    v = np.asarray(amps, dtype=complex)
    return QState(v / np.linalg.norm(v))


class TestAmplitudeEncode:
    def test_normalization(self):
        state = amplitude_encode([3.0, 4.0])
        assert np.allclose(state.vec, [0.6, 0.8])

    def test_basis_state(self):
        state = amplitude_encode([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(state.vec, basis_state(4, 0))

    def test_padding(self):
        state = amplitude_encode([1.0, 1.0, 1.0])
        assert state.dim == 4
        assert np.allclose(state.vec, np.array([1, 1, 1, 0]) / math.sqrt(3))

    def test_zero_vector_rejected(self):
        with pytest.raises(DataError):
            amplitude_encode([0.0, 0.0])

    def test_rows_without_features_rejected(self):
        with pytest.raises(DataError):
            encoding.encode_rows(np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_features_rejected(self, bad):
        with pytest.raises(DataError, match="non-finite"):
            encoding.encode_rows(np.array([[1.0, 0.0, 0.0], [bad, 1.0, 0.0]]))

    def test_no_rows_give_an_empty_stack(self):
        vecs, norms = encoding.encode_rows(np.zeros((0, 3)))
        assert vecs.shape == (0, 4) and norms.shape == (0,)

    def test_padding_never_reaches_kernel_values(self):
        a = amplitude_encode([1.0, 1.0, 1.0])
        b = amplitude_encode([1.0, 0.0, 2.0])
        raw = np.vdot(np.array([1, 1, 1]) / math.sqrt(3),
                      np.array([1, 0, 2]) / math.sqrt(5))
        assert abs(a.overlap(b) - raw) < 1e-12


class TestTrainingSet:
    def test_weight_renormalization(self):
        ts = TrainingSet.from_raw([
            RawDatum([1.0, 0.0], 0, weight=2.0),
            RawDatum([0.0, 1.0], 1, weight=6.0),
        ])
        assert np.allclose(ts.weights, [0.25, 0.75])

    def test_bias_rescaled_with_weights(self):
        ts = TrainingSet.from_raw(
            [RawDatum([1.0, 0.0], 0, weight=2.0), RawDatum([0.0, 1.0], 1, weight=2.0)],
            bias=1.0)
        assert ts.bias == pytest.approx(0.25)

    def test_weight_sum_overflow_rescaled_by_largest_weight(self):
        ts = TrainingSet.from_raw(
            [RawDatum([1.0, 0.0], 0, weight=1e308), RawDatum([0.0, 1.0], 1, weight=1e308)],
            bias=1e308)
        assert ts.weights.tolist() == [0.5, 0.5]
        assert ts.bias == 0.5

    def test_finite_weight_sum_divides_once(self):
        weights = np.random.default_rng(5).random(7) * 1e300
        ts = TrainingSet(np.eye(8)[:7], [0, 1] * 3 + [0], weights, bias=0.3)
        assert ts.weights.tolist() == (weights * (1.0 / weights.sum())).tolist()
        assert ts.bias == 0.3 * (1.0 / weights.sum())

    def test_zero_bias_rejected(self):
        with pytest.raises(DataError):
            TrainingSet.from_raw([RawDatum([1.0, 0.0], 0)], bias=0.0)

    def test_empty_without_bias_rejected(self):
        with pytest.raises(DataError):
            TrainingSet.from_raw([])

    def test_bias_only_set_allowed(self):
        ts = TrainingSet.from_raw([], bias=-0.3)
        assert len(ts) == 0 and ts.bias == -0.3

    def test_label_validation(self):
        with pytest.raises(DataError):
            RawDatum([1.0, 0.0], 2)

    def test_negative_weight_rejected(self):
        with pytest.raises(DataError):
            RawDatum([1.0, 0.0], 0, weight=-0.1)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            TrainingSet.from_raw([RawDatum([1.0, 0.0], 0), RawDatum([1, 0, 0, 0], 1)])

    @pytest.mark.parametrize("k", [1.5, True, 0, "2"])
    def test_copy_count_must_be_a_positive_integer(self, k):
        with pytest.raises(DataError, match="copies k"):
            TrainingSet.from_raw([RawDatum([1.0, 0.0], 0)], k=k)

    def test_numpy_integer_copy_count_accepted(self):
        ts = TrainingSet.from_raw([RawDatum([1.0, 0.0], 0)], k=np.int64(2))
        assert ts.k == 2 and type(ts.k) is int

    @pytest.mark.parametrize("bias", [np.nan, np.inf, -np.inf])
    def test_non_finite_bias_rejected(self, bias):
        with pytest.raises(DataError, match="bias must be finite"):
            TrainingSet.from_raw([RawDatum([1.0, 0.0], 0)], bias=bias)

    def test_infinite_weight_rejected(self):
        with pytest.raises(DataError, match="finite and nonnegative"):
            TrainingSet.from_raw([RawDatum([1.0, 0.0], 0, weight=np.inf),
                                  RawDatum([0.0, 1.0], 1)])

    @pytest.mark.parametrize("states", [np.array([[np.nan, 0.0]]), np.full((1, 2, 2), np.nan)])
    def test_nan_states_rejected(self, states):
        with pytest.raises(NumericError, match="unit vectors or unit-trace"):
            TrainingSet(states, [0], [1.0])

    @pytest.mark.parametrize("bad, message", [
        (np.diag([1.5, -0.5]), r"minimum eigenvalue -0\.5\d* is below -1e-10"),
        (np.array([[0.5, 0.3], [-0.3, 0.5]]), "density matrix is not Hermitian within 1e-12")])
    def test_density_stack_checked_as_density_matrix_checks_one(self, bad, message):
        # A unit-trace stack that is not Hermitian or not PSD is refused with
        # DensityMatrix's own message, so no classifier mode ever scores it.
        with pytest.raises(NumericError, match=message):
            DensityMatrix(bad)
        with pytest.raises(NumericError, match=message):
            TrainingSet(np.stack([np.eye(2) / 2, bad]), [0, 1], [1.0, 1.0])

    def test_keep_norms_effective_weights(self):
        ts = TrainingSet.from_raw(
            [RawDatum([2.0, 0.0], 0), RawDatum([0.0, 1.0], 1)],
            k=2, mode=encoding.KEEP_NORMS)
        # raw norms 2 and 1, weights 1/2 each: effective ~ (2^4, 1) normalized
        assert np.allclose(ts.effective_weights(), [16 / 17, 1 / 17])

    @pytest.mark.parametrize("norm", [-1.0, np.nan, 0.0])
    def test_keep_norms_rejects_bad_norms(self, norm):
        with pytest.raises(DataError, match="norms must be finite and positive"):
            TrainingSet(np.eye(2), [0, 1], [1.0, 1.0], norms=[1.0, norm],
                        mode=encoding.KEEP_NORMS)

    def test_unit_mode_ignores_norms(self):
        ts = TrainingSet.from_raw(
            [RawDatum([2.0, 0.0], 0), RawDatum([0.0, 1.0], 1)], k=2)
        assert np.allclose(ts.effective_weights(), [0.5, 0.5])


class TestPureAssembly:
    def test_single_datum_product_state(self):
        x1 = ket(1, 0)
        test = ket(1, 1)
        ts = TrainingSet.from_states([(x1, 1, 1.0)])
        state = assemble_pure_stc_input(ts, test)
        anc = np.outer(basis_state(2, 0), basis_state(2, 0))
        lbl = np.outer(basis_state(2, 1), basis_state(2, 1))
        expect = tensor(anc, test.projector(), x1.projector(), lbl)
        assert np.allclose(state.rho.entries, expect, atol=1e-12)
        state.rho.validate()

    def test_equal_data_opposite_labels_gives_mixed_label(self):
        x = ket(1, 0)
        ts = TrainingSet.from_states([(x, 0, 0.5), (x, 1, 0.5)])
        state = assemble_pure_stc_input(ts, ket(0, 1))
        label_pos = state.layout.index_of("label")
        reduced = partial_trace(state.rho, state.layout.dims, [label_pos])
        assert np.allclose(reduced.entries, np.eye(2) / 2, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_partial_trace_recovers_training_mixture(self, seed):
        rng = np.random.default_rng(seed)
        xs = [random_state_vector(2, rng) for _ in range(2)]
        ts = TrainingSet.from_states([(xs[0], 0, 0.3), (xs[1], 1, 0.7)], k=2)
        test = random_state_vector(2, rng)
        state = assemble_pure_stc_input(ts, test)
        layout = state.layout
        keep = [layout.index_of("train", 2), layout.index_of("label")]
        reduced = partial_trace(state.rho, layout.dims, keep)
        expect = sum(w * tensor(x.projector(),
                                np.outer(basis_state(2, y), basis_state(2, y)))
                     for x, y, w in [(xs[0], 0, 0.3), (xs[1], 1, 0.7)])
        assert np.allclose(reduced.entries, expect, atol=1e-12)

    def test_indexed_assembly_keeps_vector_and_is_pure(self):
        rng = np.random.default_rng(2)
        xs = [random_state_vector(2, rng) for _ in range(3)]
        ts = TrainingSet.from_states([(x, i % 2, 1.0) for i, x in enumerate(xs)])
        state = assemble_pure_stc_input(ts, random_state_vector(2, rng), with_index=True)
        assert state.vector is not None
        assert state.layout.dims[-1] == 4  # 3 slots padded to 4
        assert abs(np.vdot(state.vector, state.vector) - 1.0) < 1e-12
        state.rho.validate()

    def test_mixed_data_rejected(self):
        rho = random_density_matrix(2, np.random.default_rng(0))
        ts = TrainingSet.from_states([(rho, 0, 1.0), (ket(0, 1), 1, 1.0)])
        with pytest.raises(DataError):
            assemble_pure_stc_input(ts, ket(1, 0))


class TestMixedAssembly:
    def test_pure_inputs_reduce_to_pure_assembly(self):
        # Pure data is the rank-1 case of density-matrix data: both give the
        # same state on the same layout.
        rng = np.random.default_rng(3)
        xs = [random_state_vector(2, rng) for _ in range(2)]
        test = random_state_vector(2, rng)
        k = 2
        ts = TrainingSet.from_states([(xs[0], 0, 0.4), (xs[1], 1, 0.6)], k=k)
        pure = assemble_pure_stc_input(ts, test)
        mixed = assemble_mixed_stc_input(
            test.to_density(),
            [(x.to_density(), y, w) for x, y, w in [(xs[0], 0, 0.4), (xs[1], 1, 0.6)]],
            k)
        assert mixed.layout == pure.layout == block_layout(2, k)
        assert max_gap(mixed, pure.rho.entries) < 1e-12

    def test_rank_two_test_state_has_unit_trace(self):
        rng = np.random.default_rng(4)
        test = random_density_matrix(2, rng, rank=2)
        train = [(random_density_matrix(2, rng), 0, 0.5),
                 (random_density_matrix(2, rng), 1, 0.5)]
        state = assemble_mixed_stc_input(test, train, 2)
        assert abs(np.trace(state.rho.entries) - 1.0) < 1e-12
        state.rho.validate()

    @pytest.mark.parametrize("weights", [[0.5], [math.nan, 1.0]])
    def test_weights_must_be_distribution(self, weights):
        rng = np.random.default_rng(5)
        train = [(random_density_matrix(2, rng), i % 2, w) for i, w in enumerate(weights)]
        with pytest.raises(DataError):
            assemble_mixed_stc_input(random_density_matrix(2, rng), train, 1)


class TestBiasAssembly:
    @pytest.mark.parametrize("bias,expected_slot_label", [(0.5, 0), (-0.5, 1)])
    def test_bias_label_routing(self, bias, expected_slot_label):
        x = ket(1, 0)
        ts = TrainingSet.from_states([(x, 0, 1.0)], bias=bias)
        state = assemble_bias_extended(ts, ket(0, 1))
        layout = state.layout
        keep = [layout.index_of("label"), layout.index_of("index")]
        reduced = partial_trace(state.rho, layout.dims, keep)
        # index slot 0 carries the bias branch with label y_b and
        # probability |bias| / (|bias| + 1) = 1/3
        slot0 = reduced.entries.reshape(2, 2, 2, 2)[expected_slot_label, 0,
                                                    expected_slot_label, 0]
        assert abs(slot0 - abs(bias) / (abs(bias) + 1.0)) < 1e-12

    def test_bias_probability_share(self):
        x = ket(1, 0)
        ts = TrainingSet.from_states([(x, 0, 1.0)], bias=1.0)
        bias_term, weights = ts.effective_bias_and_weights()
        assert bias_term == pytest.approx(0.5)
        assert np.allclose(weights, [0.5])

    def test_requires_bias(self):
        ts = TrainingSet.from_states([(ket(1, 0), 0, 1.0)])
        with pytest.raises(DataError):
            assemble_bias_extended(ts, ket(1, 0))

    def test_density_matrix_data_refused(self):
        ts = TrainingSet.from_states([(ket(1, 0).to_density(), 0, 1.0),
                                      (ket(0, 1).to_density(), 1, 1.0)], bias=0.5)
        with pytest.raises(DataError, match="pure-state"):
            assemble_bias_extended(ts, ket(1, 0))

    def test_test_dimension_must_match_the_training_data(self):
        data = [(ket(1, 0), 0, 1.0), (ket(0, 1), 1, 1.0)]
        test = ket(1, 0, 0, 0)
        with pytest.raises(DimensionError):
            assemble_bias_extended(TrainingSet.from_states(data, bias=0.5), test)
        for with_index in (False, True):
            with pytest.raises(DimensionError):
                assemble_pure_stc_input(TrainingSet.from_states(data), test,
                                        with_index=with_index)

    def test_no_bias_gives_zero_and_effective_weights(self):
        ts = TrainingSet.from_states([(ket(1, 0), 0, 1.0), (ket(0, 1), 1, 3.0)], k=2)
        bias_term, weights = ts.effective_bias_and_weights()
        assert bias_term == 0.0
        assert np.array_equal(weights, ts.effective_weights())


class TestVectorState:
    def test_vector_size_must_match_layout(self):
        layout = block_layout(2, 1, ancilla=True)
        vec = np.zeros(layout.dim // 2, dtype=complex)
        vec[0] = 1.0
        with pytest.raises(DimensionError):
            ClassifierState(layout, vec)
        with pytest.raises(DimensionError, match="layout dim"):
            half = layout.dim // 2
            ClassifierState(layout, *qmath.eigen_factor(np.eye(half) / half))

    def test_vector_must_have_unit_norm(self):
        layout = block_layout(2, 1, ancilla=True)
        vec = np.zeros(layout.dim, dtype=complex)
        vec[0] = 1.0 + 1e-9
        with pytest.raises(NumericError):
            ClassifierState(layout, vec)

    def test_indexed_rho_is_outer_product(self):
        rng = np.random.default_rng(11)
        xs = [random_state_vector(2, rng) for _ in range(3)]
        ts = TrainingSet.from_states([(x, i % 2, 1.0) for i, x in enumerate(xs)], k=2)
        state = assemble_pure_stc_input(ts, random_state_vector(2, rng), with_index=True)
        vec = state.vector
        assert np.allclose(state.rho.entries, np.outer(vec, vec.conj()), rtol=0, atol=1e-12)
        state.rho.validate()

    def test_bias_extended_rho_is_outer_product(self):
        rng = np.random.default_rng(12)
        xs = [random_state_vector(2, rng) for _ in range(3)]
        ts = TrainingSet.from_states([(x, i % 2, 0.5 + i) for i, x in enumerate(xs)],
                                     bias=-0.4)
        state = assemble_bias_extended(ts, random_state_vector(2, rng))
        vec = state.vector
        assert vec is not None
        assert np.allclose(state.rho.entries, np.outer(vec, vec.conj()), rtol=0, atol=1e-12)
        state.rho.validate()


class TestEnsembles:
    def test_singleton_matches_mixed_assembly(self):
        rng = np.random.default_rng(6)
        test = random_density_matrix(2, rng)
        train = [(random_density_matrix(2, rng), 0), (random_density_matrix(2, rng), 1)]
        a = np.array([0.3, 0.7])
        ens = assemble_ensemble_weights(test, [(1.0, a)], train, k=1)
        direct = assemble_mixed_stc_input(test, [(r, y, w) for (r, y), w in zip(train, a)], 1)
        assert np.allclose(ens.rho.entries, direct.rho.entries, atol=1e-12)

    def test_two_models_average_weights(self):
        rng = np.random.default_rng(7)
        test = random_density_matrix(2, rng)
        train = [(random_density_matrix(2, rng), 0), (random_density_matrix(2, rng), 1)]
        a1, a2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        ens = assemble_ensemble_weights(test, [(0.5, a1), (0.5, a2)], train, k=1)
        mean = assemble_mixed_stc_input(
            test, [(r, y, w) for (r, y), w in zip(train, (a1 + a2) / 2)], 1)
        assert np.allclose(ens.rho.entries, mean.rho.entries, atol=1e-12)

    def test_exponent_ensemble_layout_and_members(self):
        rng = np.random.default_rng(8)
        test = random_density_matrix(2, rng)
        train = [(random_density_matrix(2, rng), 0)]
        ens = assemble_ensemble_exponents(
            test, [(0.5, [1.0], 1), (0.5, [1.0], 2)], train, max_copies=2)
        assert ens.layout == block_layout(2, 2)
        assert [(q, m.layout) for q, m in ens.members] == [(0.5, block_layout(2, 1)),
                                                          (0.5, block_layout(2, 2))]
        for _, member in ens.members:
            assert abs(np.trace(member.rho.entries) - 1.0) < 1e-12
            member.rho.validate()

    def test_exponent_bounds_checked(self):
        rng = np.random.default_rng(9)
        test = random_density_matrix(2, rng)
        train = [(random_density_matrix(2, rng), 0)]
        with pytest.raises(DataError):
            assemble_ensemble_exponents(test, [(1.0, [1.0], 3)], train, max_copies=2)

    @pytest.mark.parametrize("max_copies,k_s", [(2, 1.7), (2, True), (2.0, 1), (True, 1),
                                                 (0, 1), (2, 0), (2, np.float64(2.0))])
    def test_copy_counts_must_be_integers(self, max_copies, k_s):
        # A fractional copy count is refused, not truncated; a bool is no count.
        rng = np.random.default_rng(9)
        test = random_density_matrix(2, rng)
        train = [(random_density_matrix(2, rng), 0)]
        with pytest.raises(DataError, match="must be an integer >= 1"):
            assemble_ensemble_exponents(test, [(1.0, [1.0], k_s)], train, max_copies)

    def test_numpy_integer_copy_counts_accepted(self):
        rng = np.random.default_rng(9)
        test = random_density_matrix(2, rng)
        train = [(random_density_matrix(2, rng), 0)]
        ens = assemble_ensemble_exponents(test, [(1.0, [1.0], np.int64(2))], train,
                                          np.int32(2))
        assert ens.layout == ens.members[0][1].layout == block_layout(2, 2)

    @pytest.mark.parametrize("probs", [[0.7], [math.nan, 1.0]])
    @pytest.mark.parametrize("exponents", [False, True])
    def test_model_probabilities_checked(self, probs, exponents):
        rng = np.random.default_rng(10)
        test = random_density_matrix(2, rng)
        train = [(random_density_matrix(2, rng), 0)]
        with pytest.raises(DataError, match="model probabilities"):
            if exponents:
                assemble_ensemble_exponents(test, [(q, [1.0], 1) for q in probs], train, 1)
            else:
                assemble_ensemble_weights(test, [(q, [1.0]) for q in probs], train, k=1)


def max_gap(state, reference, k=None, ancilla=True) -> float:
    """Largest entry gap between the state's rho and a reference; with ``k``
    the rho is first taken to the pair order of the dense references."""
    rho = state.rho.entries
    if k is not None:
        p = register_permutation_matrix(state.layout.dims, block_to_pair(k, ancilla))
        rho = p @ rho @ p.T
    return float(np.abs(rho - reference).max())


def random_train(rng, m, dim, rank=None):
    states = [random_density_matrix(dim, rng, rank=rank) for _ in range(m)]
    labels = [i % 2 for i in range(m)]
    weights = rng.random(m) + 0.1
    return [(s, y, w) for s, y, w in zip(states, labels, weights / weights.sum())]


class TestStacks:
    """Every assembled state is a stack whose rho matches the dense
    tensor-sum reference to 1e-12."""

    @pytest.mark.parametrize("with_ancilla", [True, False])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("dim,rank", [(2, 1), (2, 2), (4, 2), (4, 4)])
    def test_mixed_input_matches_dense_reference(self, with_ancilla, k, dim, rank):
        rng = np.random.default_rng(100 * dim + 10 * rank + k)
        test = random_density_matrix(dim, rng, rank=rank)
        train = random_train(rng, 5, dim, rank=rank)
        state = assemble_mixed_stc_input(test, train, k, with_ancilla=with_ancilla)
        assert max_gap(state, dense_mixed_input(test, train, k, with_ancilla=with_ancilla),
                       k, with_ancilla) < 1e-12
        # At most 2 rank(rho_t)**k d**k rows: never more entries than the
        # dense rho, and at most half of them with the ancilla.
        rows = state.stack.shape[0]
        assert rows <= 2 * rank ** k * dim ** k
        assert rows <= state.layout.dim // (2 if with_ancilla else 1)

    @pytest.mark.parametrize("with_ancilla", [True, False])
    @pytest.mark.parametrize("k", [1, 2])
    def test_index_free_pure_mixture_has_one_row_per_entry(self, with_ancilla, k):
        rng = np.random.default_rng(20 + k)
        xs = [random_state_vector(4, rng) for _ in range(5)]
        weights = [0.3, 0.0, 0.2, 0.4, 0.1]
        ts = TrainingSet.from_states([(x, i % 2, w) for i, (x, w) in enumerate(zip(xs, weights))],
                                     k=k)
        test = random_state_vector(4, rng)
        state = assemble_pure_stc_input(ts, test, with_ancilla=with_ancilla)
        assert state.stack.shape == (4, state.layout.dim)  # the zero-weight entry is dropped
        assert max_gap(state, dense_pure_mixture(ts, test, with_ancilla=with_ancilla)) < 1e-12

    def test_weight_ensemble_matches_dense_reference(self):
        rng = np.random.default_rng(30)
        test = random_density_matrix(2, rng)
        train = [(s, y) for s, y, _ in random_train(rng, 3, 2)]
        models = [(0.25, [0.2, 0.3, 0.5]), (0.75, [0.6, 0.1, 0.3])]
        for k in (1, 2):
            ens = assemble_ensemble_weights(test, models, train, k=k)
            mean = [(s, y, 0.25 * a + 0.75 * b)
                    for (s, y), a, b in zip(train, models[0][1], models[1][1])]
            assert max_gap(ens, dense_mixed_input(test, mean, k), k) < 1e-12

    @pytest.mark.parametrize("max_copies", [2, 3])
    def test_exponent_ensemble_matches_dense_reference(self, max_copies):
        # Each member is the mixed input of its own model and copy count.
        rng = np.random.default_rng(31)
        test = random_density_matrix(2, rng, rank=1)
        train = [(s, y) for s, y, _ in random_train(rng, 3, 2)]
        models = [(0.4, [0.2, 0.3, 0.5], 1), (0.6, [0.6, 0.1, 0.3], max_copies)]
        ens = assemble_ensemble_exponents(test, models, train, max_copies)
        assert ens.layout == block_layout(2, max_copies)
        for (q, a, k), (p, member) in zip(models, ens.members):
            data = [(s, y, w) for (s, y), w in zip(train, a)]
            assert p == q
            assert max_gap(member, dense_mixed_input(test, data, k), k) < 1e-12

    @pytest.mark.parametrize("case", ["mixed", "weights", "exponents", "weights-probabilities",
                                      "exponents-probabilities"])
    def test_off_by_1e_10_distributions_are_renormalized(self, case):
        # Weights (or model probabilities) summing to 1 + 1e-10 pass the 1e-9
        # distribution check; the state is that of the renormalized ones.
        rng = np.random.default_rng(34)
        test = random_density_matrix(2, rng, rank=2)
        train = [(s, y) for s, y, _ in random_train(rng, 3, 2)]
        off = (1.0 + 1e-10, 1.0) if case.endswith("probabilities") else (1.0, 1.0 + 1e-10)
        q = off[0] * np.array([0.25, 0.75])
        a, b = off[1] * np.array([0.2, 0.3, 0.5]), off[1] * np.array([0.6, 0.1, 0.3])

        def assemble(q, a, b):
            if case == "mixed":
                data = [(s, y, w) for (s, y), w in zip(train, a)]
                return assemble_mixed_stc_input(test, data, 2)
            if case.startswith("weights"):
                return assemble_ensemble_weights(test, [(q[0], a), (q[1], b)], train, k=2)
            return assemble_ensemble_exponents(test, [(q[0], a, 1), (q[1], b, 2)], train, 2)

        state = assemble(q, a, b)
        reference = assemble(q / q.sum(), a / a.sum(), b / b.sum())
        pairs = (zip(state.members, reference.members) if case.startswith("exponents")
                 else [((1.0, state), (1.0, reference))])
        for (p, state), (p_ref, reference) in pairs:
            assert abs(p - p_ref) < 1e-12
            signs = np.ones(len(state.stack)) if state.signs is None else state.signs
            assert abs(signs @ np.linalg.norm(state.stack, axis=1) ** 2 - 1.0) < 1e-12
            # The eigen-factor rows may differ by a phase; their rho may not.
            assert np.abs(state.rho.entries - reference.rho.entries).max() < 1e-12

    def test_over_budget_stack_raises_before_allocating(self):
        # d=16, k=2, full rank: 131072 rows of 131072 amplitudes (256 GiB),
        # and the dense rho would be as large.
        rng = np.random.default_rng(32)
        test = random_density_matrix(16, rng)
        train = random_train(rng, 2, 16)
        tracemalloc.start()
        try:
            with pytest.raises(DimensionError, match="assembled state stack"):
                assemble_mixed_stc_input(test, train, 2, with_ancilla=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_k_fold_powers_checked_before_building(self, monkeypatch):
        # dim 8, k=6: the indexed layout is over the 2**20 dimension cap, and
        # the k-fold training rows alone would be 10 x 8**6 amplitudes (42 MB).
        rng = np.random.default_rng(33)
        ts = TrainingSet.from_states([(random_state_vector(8, rng), i % 2, 1.0)
                                      for i in range(10)], k=6, bias=0.3)
        tracemalloc.start()
        try:
            with pytest.raises(DimensionError, match="assembled state stack"):
                assemble_bias_extended(ts, random_state_vector(8, rng))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # A (rows, d**k) power over the byte budget is refused before it is formed.
        monkeypatch.setattr(constants, "DENSE_BYTES_BUDGET", 16 * 10 * 8**3 - 1)
        assert encoding._row_power(np.ones((10, 8)), 2).shape == (10, 64)
        with pytest.raises(DimensionError, match="k-fold row power"):
            encoding._row_power(np.ones((10, 8)), 3)


class TestSignedStacks:
    """A validated density matrix may have eigenvalues down to -1e-10; the
    round-off negative part is kept as rows of sign -1, so every stack
    still rebuilds its dense reference to 1e-12."""

    NEGATIVE = np.diag([0.5 + 5e-11, 0.5, -5e-11, 0.0]).astype(complex)

    def test_eigen_factor_keeps_the_negative_part(self):
        rows, signs = qmath.eigen_factor(self.NEGATIVE)
        assert rows.shape == (3, 4)
        assert sorted(signs.tolist()) == [-1.0, 1.0, 1.0]
        assert np.abs((rows.T * signs) @ rows.conj() - self.NEGATIVE).max() < 1e-12

    @pytest.mark.parametrize("with_ancilla", [True, False])
    @pytest.mark.parametrize("k", [1, 2])
    def test_mixed_input_matches_dense_reference(self, with_ancilla, k):
        rng = np.random.default_rng(60 + k)
        test = DensityMatrix(self.NEGATIVE)
        train = [(random_density_matrix(4, rng, rank=2), 0, 0.5),
                 (random_density_matrix(4, rng, rank=2), 1, 0.3), (test, 1, 0.2)]
        state = assemble_mixed_stc_input(test, train, k, with_ancilla=with_ancilla)
        assert state.signs is not None and np.any(state.signs < 0)
        assert max_gap(state, dense_mixed_input(test, train, k, with_ancilla=with_ancilla),
                       k, with_ancilla) < 1e-12

    def test_exponent_ensemble_matches_dense_reference(self):
        rng = np.random.default_rng(62)
        test = DensityMatrix(self.NEGATIVE)
        train = [(s, y) for s, y, _ in random_train(rng, 3, 4, rank=2)]
        models = [(0.4, [0.2, 0.3, 0.5], 1), (0.6, [0.6, 0.1, 0.3], 2)]
        ens = assemble_ensemble_exponents(test, models, train, max_copies=2)
        for (_, a, k), (_, member) in zip(models, ens.members):
            data = [(s, y, w) for (s, y), w in zip(train, a)]
            assert member.signs is not None and np.any(member.signs < 0)
            assert max_gap(member, dense_mixed_input(test, data, k), k) < 1e-12

    @pytest.mark.parametrize("with_ancilla", [True, False])
    def test_measurements_count_the_signs(self, with_ancilla):
        # The observables, the swap-test circuit and the outcome
        # probabilities of a signed stack equal their dense values on the
        # rebuilt rho.
        rng = np.random.default_rng(63)
        test = DensityMatrix(self.NEGATIVE)
        train = [(random_density_matrix(4, rng), 0, 0.6), (test, 1, 0.4)]
        state = assemble_mixed_stc_input(test, train, 2, with_ancilla=with_ancilla)
        if with_ancilla:
            obs = ancilla_label_parity(state.layout)
            u = build_swap_test_unitary(state.layout)
            after = u @ state.rho.entries @ u.conj().T
            assert abs(swap_test_expectation(state)
                       - float(np.trace(obs.matrix @ after).real)) < 1e-12
        else:
            obs = swap_label_observable(state.layout)
        assert np.any(state.signs < 0)
        dense = float(np.trace(obs.matrix @ state.rho.entries).real)
        assert abs(expectation(obs, state) - dense) < 1e-12
        probs = outcome_probabilities(obs, state)
        assert abs(probs[1] - (1 + dense) / 2) < 1e-12

    def test_signs_are_checked(self):
        layout = block_layout(2, 1, ancilla=False)
        stack = np.zeros((3, layout.dim), dtype=complex)
        stack[0, 0], stack[1, 5], stack[2, 6] = 1.0, 0.5, 0.5
        state = ClassifierState(layout, stack, [1.0, 1.0, -1.0])
        assert np.allclose(np.diag(state.rho.entries)[[0, 5, 6]], [1.0, 0.25, -0.25])
        with pytest.raises(NumericError):
            ClassifierState(layout, stack)
        with pytest.raises(DataError):
            ClassifierState(layout, stack, [1.0, 1.0, -0.5])
        with pytest.raises(DataError):
            ClassifierState(layout, stack, [1.0, -1.0])


class TestClassifierStateStack:
    def test_vector_is_a_stack_of_one(self):
        layout = block_layout(2, 1, ancilla=True)
        vec = np.zeros(layout.dim, dtype=complex)
        vec[3] = 1.0
        state = ClassifierState(layout, vec)
        assert state.stack.shape == (1, layout.dim)
        assert np.array_equal(state.vector, vec)
        assert not state.stack.flags.writeable

    def test_stack_norms_must_sum_to_one(self):
        layout = block_layout(2, 1, ancilla=False)
        stack = np.zeros((2, layout.dim), dtype=complex)
        stack[0, 0] = stack[1, 5] = math.sqrt(0.5)
        state = ClassifierState(layout, stack)
        assert state.vector is None
        assert np.allclose(np.diag(state.rho.entries)[[0, 5]], [0.5, 0.5], atol=1e-15)
        with pytest.raises(NumericError):
            ClassifierState(layout, stack * (1.0 + 1e-9))
        with pytest.raises(NumericError):
            ClassifierState(layout, np.full((2, layout.dim), np.nan))
        with pytest.raises(DimensionError):
            ClassifierState(layout, np.zeros((0, layout.dim)))

    def test_density_matrix_state_is_its_eigen_factor(self):
        rng = np.random.default_rng(33)
        layout = block_layout(2, 1, ancilla=False)
        rho = random_density_matrix(layout.dim, rng, rank=3)
        state = ClassifierState(layout, *qmath.eigen_factor(rho))
        assert state.vector is None
        v = state.stack
        assert v.shape == (3, layout.dim)
        assert np.abs(v.T @ v.conj() - rho.entries).max() < 1e-12
        # measured on the rows, it is Tr(O rho)
        obs = swap_label_observable(layout)
        expect = float(np.trace(obs.matrix @ rho.entries).real)
        assert abs(expectation(obs, state) - expect) < 1e-12

    def test_a_state_is_a_stack_or_members(self):
        layout = block_layout(2, 1, ancilla=True)
        vec = np.eye(1, layout.dim)[0]
        member = ClassifierState(layout, vec)
        for bad in ({}, {"stack": vec, "members": ((1.0, member),)},
                    {"signs": [1.0], "members": ((1.0, member),)}):
            with pytest.raises(DataError, match="a stack and its signs, or members alone"):
                ClassifierState(layout, **bad)

    def test_an_ensemble_of_members_refuses_joint_reads(self):
        # Only the members are held: reading or measuring a joint stack of
        # an ensemble raises DataError, not AttributeError.
        rng = np.random.default_rng(34)
        test = random_density_matrix(2, rng)
        train = [(random_density_matrix(2, rng), 0), (random_density_matrix(2, rng), 1)]
        ens = assemble_ensemble_exponents(test, [(0.5, [0.5, 0.5], 1), (0.5, [0.3, 0.7], 2)],
                                          train, 2)
        assert repr(ens) == "ClassifierState(dim=64, members=2)"
        obs = swap_label_observable(ens.layout)
        for read in (lambda: ens.stack, lambda: ens.signs, lambda: ens.vector,
                     lambda: ens.rho, lambda: swap_test_expectation(ens),
                     lambda: expectation(obs, ens), lambda: outcome_probabilities(obs, ens)):
            with pytest.raises(DataError, match="ensemble of members"):
                read()

    def test_eigen_factor_rejects_non_psd(self):
        with pytest.raises(NumericError):
            qmath.eigen_factor(np.diag([1.0 + 1e-9, -1e-9]))
        rho = DensityMatrix(np.diag([0.75, 0.25, 0.0, 0.0]).astype(complex))
        rows, signs = qmath.eigen_factor(rho)
        assert rows.shape == (2, 4) and signs is None

    def test_eigen_factor_of_a_pure_state_is_its_vector(self):
        vec = np.array([0.6, 0.0, 0.8j, 0.0])
        for state in (QState(vec), vec):
            rows, signs = qmath.eigen_factor(state)
            assert rows.shape == (1, 4) and signs is None
            assert np.array_equal(rows[0], vec)
        with pytest.raises(DimensionError):
            qmath.eigen_factor(np.ones((2, 3)))
