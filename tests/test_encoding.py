import math

import numpy as np
import pytest

from qkclass import encoding
from qkclass.encoding import (ClassifierState, RawDatum, TrainingSet,
                              amplitude_encode, assemble_bias_extended,
                              assemble_ensemble_exponents,
                              assemble_ensemble_weights,
                              assemble_mixed_stc_input,
                              assemble_pure_stc_input, block_to_pair_order)
from qkclass.errors import DataError, DimensionError, NumericError
from qkclass.qmath import (QState, basis_state, partial_trace,
                           permute_registers, random_density_matrix,
                           random_state_vector, tensor)
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

    def test_keep_norms_effective_weights(self):
        ts = TrainingSet.from_raw(
            [RawDatum([2.0, 0.0], 0), RawDatum([0.0, 1.0], 1)],
            k=2, mode=encoding.KEEP_NORMS)
        # raw norms 2 and 1, weights 1/2 each: effective ~ (2^4, 1) normalized
        assert np.allclose(ts.effective_weights(), [16 / 17, 1 / 17])

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
    def test_pure_inputs_reduce_to_block_assembly_after_permutation(self):
        rng = np.random.default_rng(3)
        xs = [random_state_vector(2, rng) for _ in range(2)]
        test = random_state_vector(2, rng)
        k = 2
        ts = TrainingSet.from_states([(xs[0], 0, 0.4), (xs[1], 1, 0.6)], k=k)
        block = assemble_pure_stc_input(ts, test)
        pair = assemble_mixed_stc_input(
            test.to_density(),
            [(x.to_density(), y, w) for x, y, w in [(xs[0], 0, 0.4), (xs[1], 1, 0.6)]],
            k)
        permuted = permute_registers(block.rho.entries, block.layout.dims,
                                     block_to_pair_order(k))
        assert np.allclose(permuted, pair.rho.entries, atol=1e-12)

    def test_rank_two_test_state_has_unit_trace(self):
        rng = np.random.default_rng(4)
        test = random_density_matrix(2, rng, rank=2)
        train = [(random_density_matrix(2, rng), 0, 0.5),
                 (random_density_matrix(2, rng), 1, 0.5)]
        state = assemble_mixed_stc_input(test, train, 2)
        assert abs(np.trace(state.rho.entries) - 1.0) < 1e-12
        state.rho.validate()

    def test_weights_must_be_distribution(self):
        rng = np.random.default_rng(5)
        train = [(random_density_matrix(2, rng), 0, 0.5)]
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


class TestVectorState:
    def test_vector_size_must_match_layout(self):
        layout = block_layout(2, 1, ancilla=True)
        vec = np.zeros(layout.dim // 2, dtype=complex)
        vec[0] = 1.0
        with pytest.raises(DimensionError):
            ClassifierState(None, layout, vector=vec)

    def test_vector_must_have_unit_norm(self):
        layout = block_layout(2, 1, ancilla=True)
        vec = np.zeros(layout.dim, dtype=complex)
        vec[0] = 1.0 + 1e-9
        with pytest.raises(NumericError):
            ClassifierState(None, layout, vector=vec)

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
        assert ens.members is not None and len(ens.members) == 2
        assert abs(np.trace(ens.rho.entries) - 1.0) < 1e-12
        ens.rho.validate()

    def test_exponent_bounds_checked(self):
        rng = np.random.default_rng(9)
        test = random_density_matrix(2, rng)
        train = [(random_density_matrix(2, rng), 0)]
        with pytest.raises(DataError):
            assemble_ensemble_exponents(test, [(1.0, [1.0], 3)], train, max_copies=2)

    def test_model_probabilities_checked(self):
        rng = np.random.default_rng(10)
        test = random_density_matrix(2, rng)
        train = [(random_density_matrix(2, rng), 0)]
        with pytest.raises(DataError):
            assemble_ensemble_weights(test, [(0.7, [1.0])], train, k=1)
