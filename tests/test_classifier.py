import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from dense_reference import block_to_pair, dense_ensemble_exponents
from helpers import basis_state, label_sign, maximally_mixed, random_density_matrix

from qkclass import circuit as circuit_module
from qkclass import classifier as classifier_module
from qkclass import encoding as encoding_module
from qkclass import qmath
from qkclass.classifier import (STC_MODES, TIE, ClassifierOutput, classify_assembled,
                                decide, hadamard_classify, helstrom_operator,
                                misclassification_probability,
                                outcome_to_label, qsvm_oracle_classify,
                                single_shot_classify, stc_classify,
                                stc_classify_bias)
from qkclass.classifier import TestMixture as Mixture
from qkclass.circuit import Observable, swap_test_expectation
from qkclass.encoding import (KEEP_NORMS, ClassifierState, RawDatum,
                              TrainingSet, assemble_bias_extended,
                              assemble_ensemble_exponents,
                              assemble_ensemble_weights,
                              assemble_mixed_stc_input)
from qkclass.errors import DataError, DimensionError, NumericError
from qkclass.qmath import (DensityMatrix, QState, hs_inner, random_state_vector,
                           register_permutation_matrix, tensor_power)
from qkclass.registers import LABEL

KET0 = QState(basis_state(2, 0))
KET1 = QState(basis_state(2, 1))
PLUS = QState(np.array([1, 1]) / np.sqrt(2))


def random_pure_training(rng, m, dim, k=1):
    states = [random_state_vector(dim, rng) for _ in range(m)]
    labels = [0, 1] * (m // 2) + [0] * (m % 2)
    weights = rng.random(m) + 0.1
    return TrainingSet.from_states(
        [(s, y, w) for s, y, w in zip(states, labels, weights)], k=k)


def random_mixed_training(rng, m, dim, k=1):
    states = [random_density_matrix(dim, rng) for _ in range(m)]
    labels = [int(rng.integers(0, 2)) for _ in range(m)]
    labels[0], labels[-1] = 0, 1
    weights = rng.random(m) + 0.1
    return TrainingSet.from_states(
        [(s, y, w) for s, y, w in zip(states, labels, weights)], k=k)


class TestLabelConventions:
    def test_label_sign(self):
        assert label_sign(0) == 1 and label_sign(1) == -1

    def test_outcome_to_label(self):
        assert outcome_to_label(1) == 0 and outcome_to_label(-1) == 1

    def test_decide(self):
        assert decide(0.5) == 0 and decide(-0.5) == 1 and decide(0.0) == TIE

    def test_output_invariants(self):
        with pytest.raises(NumericError):
            ClassifierOutput(1.5, 0)
        with pytest.raises(NumericError):
            ClassifierOutput(0.5, 0, per_term=((0, 0.4),))

    def test_direct_output_runs_both_checks_at_their_tolerances(self):
        ClassifierOutput(-1.0 - 5e-11, 1)
        for value in (1.0 + 2e-10, -1.0 - 2e-10, math.nan):
            with pytest.raises(NumericError, match=r"expectation .* outside \[-1, 1\]"):
                ClassifierOutput(value, 0)
        ClassifierOutput(0.5, 0, per_term=((0, 0.25), (1, 0.05)), bias_term=0.2 + 1e-13)
        with pytest.raises(NumericError, match="per-term sum .* does not reproduce expectation"):
            ClassifierOutput(0.5, 0, per_term=((0, 0.25), (1, 0.05)), bias_term=0.2 + 1e-11)

    def test_batch_outputs_are_checked_once_per_chunk(self, monkeypatch):
        # The public single-test classifiers check their one chunk; the
        # output built from it is not checked again.
        calls = []

        def counting(values, terms, bias):
            calls.append(len(values))
            return checked(values, terms, bias)

        checked = classifier_module._checked
        monkeypatch.setattr(classifier_module, "_checked", counting)
        ts = TrainingSet.from_states([(KET0, 0, 1.0), (KET1, 1, 1.0)])
        out = stc_classify(ts, QState([0.6, 0.8]))
        assert calls == [1]
        assert out == ClassifierOutput(out.expectation, 1, out.per_term, 0.0)
        assert out.expectation == pytest.approx(0.5 * (0.36 - 0.64), abs=1e-12)


class TestStcClassify:
    def test_perfect_match(self):
        ts = TrainingSet.from_states([(KET0, 0, 1.0)])
        out = stc_classify(ts, KET0)
        assert out.expectation == pytest.approx(1.0, abs=1e-12)
        assert out.predicted_label == 0

    def test_identical_data_opposite_labels_tie(self):
        ts = TrainingSet.from_states([(KET0, 0, 0.5), (KET0, 1, 0.5)])
        out = stc_classify(ts, PLUS)
        assert abs(out.expectation) < 1e-12
        assert out.predicted_label == TIE

    def test_hand_computed_two_point_k2(self):
        # 0.7 * (1/2)**2 - 0.3 * 0 = 0.175
        ts = TrainingSet.from_states([(PLUS, 0, 0.7), (KET1, 1, 0.3)], k=2)
        for mode in ("analytic", "ancilla-circuit", "minimal"):
            out = stc_classify(ts, KET0, mode=mode)
            assert out.expectation == pytest.approx(0.175, abs=1e-10)
            assert out.predicted_label == 0

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("mixed", [False, True])
    def test_mode_agreement_random(self, seed, mixed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(1, 3))
        k = int(rng.integers(1, 3))
        m = int(rng.integers(2, 5))
        ts = (random_mixed_training if mixed else random_pure_training)(rng, m, 2**n, k)
        test = (random_density_matrix(2**n, rng) if mixed
                else random_state_vector(2**n, rng))
        values = [stc_classify(ts, test, mode=mode).expectation
                  for mode in ("analytic", "ancilla-circuit", "minimal")]
        assert abs(values[0] - values[1]) < 1e-10
        assert abs(values[0] - values[2]) < 1e-10
        if mixed:
            # A pure test against density-matrix data is scored as its projector.
            pure = random_state_vector(2**n, rng)
            closed = stc_classify(ts, pure.to_density()).expectation
            for mode in STC_MODES:
                assert abs(stc_classify(ts, pure, mode=mode).expectation - closed) < 1e-10

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 2), k=st.integers(1, 2), m=st.integers(1, 4),
           mixed=st.booleans(), full_rank=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_mode_agreement_property(self, n, k, m, mixed, full_rank, seed):
        rng = np.random.default_rng(seed)
        dim = 2**n

        def rank():
            return dim if full_rank else int(rng.integers(1, dim + 1))

        if mixed:
            data = [random_density_matrix(dim, rng, rank=rank()) for _ in range(m)]
            test = random_density_matrix(dim, rng, rank=rank())
        else:
            data = [random_state_vector(dim, rng) for _ in range(m)]
            test = random_state_vector(dim, rng)
        labels = rng.integers(0, 2, size=m)
        weights = rng.random(m) + 0.05
        ts = TrainingSet.from_states(list(zip(data, labels, weights)), k=k)
        values = [stc_classify(ts, test, mode=mode).expectation
                  for mode in ("analytic", "ancilla-circuit", "minimal")]
        assert abs(values[0] - values[1]) < 1e-10
        assert abs(values[0] - values[2]) < 1e-10
        if not mixed:
            return
        # Ensembles through classify_assembled, against the kernel sums.
        kernels = np.array([np.trace(test.entries @ s.entries).real for s in data])
        signs = 1 - 2 * labels
        a1, a2 = rng.random(m) + 0.05, rng.random(m) + 0.05
        a1, a2 = a1 / a1.sum(), a2 / a2.sum()
        pairs = list(zip(data, labels))
        expect = float(np.sum(signs * (0.3 * a1 + 0.7 * a2) * kernels ** k))
        for with_ancilla in (True, False):
            ens = assemble_ensemble_weights(test, [(0.3, a1), (0.7, a2)], pairs, k,
                                            with_ancilla=with_ancilla)
            assert abs(classify_assembled(ens).expectation - expect) < 1e-10
        expect = float(np.sum(signs * (0.3 * a1 * kernels + 0.7 * a2 * kernels ** 2)))
        ens = assemble_ensemble_exponents(test, [(0.3, a1, 1), (0.7, a2, 2)], pairs, 2)
        assert abs(classify_assembled(ens).expectation - expect) < 1e-10

    def test_circuit_modes_are_checked_against_the_kernel_sum(self, monkeypatch):
        # Skipping the circuit kernel's swap step, or measuring Z on the
        # label without the swap, leaves sum_m sign_m w_m instead of the
        # kernel sum, which the output's 1e-12 per-term check must reject.
        rng = np.random.default_rng(1100)
        cases = [(random_pure_training(rng, 3, 2, k=2), random_state_vector(2, rng)),
                 (random_mixed_training(rng, 3, 2, k=2), random_density_matrix(2, rng))]
        for ts, test in cases:
            for mode in ("ancilla-circuit", "minimal"):
                stc_classify(ts, test, mode=mode)
            with monkeypatch.context() as patch:
                patch.setattr(circuit_module, "_permute",
                              lambda src, plan, out: np.copyto(out, src))
                with pytest.raises(NumericError, match="per-term sum"):
                    stc_classify(ts, test, mode="ancilla-circuit")
            with monkeypatch.context() as patch:
                patch.setattr(classifier_module, "swap_label_observable",
                              lambda layout: Observable(layout, (layout.index_of(LABEL),)))
                with pytest.raises(NumericError, match="per-term sum"):
                    stc_classify(ts, test, mode="minimal")

    def test_mixed_ancilla_circuit_memory(self):
        # m=32, dim=4, k=2, rank-2 data: the input is a stack of 128 rows of
        # 1024 amplitudes (2 MiB); its dense rho alone would be 16 MiB.
        rng = np.random.default_rng(1200)
        states = [random_density_matrix(4, rng, rank=2) for _ in range(32)]
        ts = TrainingSet.from_states([(s, i % 2, 1.0) for i, s in enumerate(states)], k=2)
        test = random_density_matrix(4, rng, rank=2)
        tracemalloc.start()
        try:
            out = stc_classify(ts, test, mode="ancilla-circuit")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert abs(out.expectation - stc_classify(ts, test).expectation) < 1e-10

    @pytest.mark.parametrize("part_bytes", [None, 2**14, 1])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("mode", ["ancilla-circuit", "minimal"])
    def test_density_matrix_batches_equal_assembled_states(self, monkeypatch, mode, k,
                                                           part_bytes):
        # Density-matrix tests run through the chunked loop of unit vectors,
        # each the sum of its signed rows, whether a part holds a test's
        # rows, several tests' rows or a single row. The last test has a
        # round-off negative eigenvalue, so some of its rows have sign -1.
        rng = np.random.default_rng(1400 + k)
        data = [(random_density_matrix(4, rng, rank=2), i % 2, w)
                for i, w in enumerate((0.25, 0.25, 0.125, 0.375))]
        ts = TrainingSet.from_states(data, k=k)
        tests = [random_density_matrix(4, rng, rank=r) for r in (1, 2, 4)]
        tests.append(DensityMatrix(SLIGHTLY_NEGATIVE))
        if part_bytes is not None:
            monkeypatch.setattr(encoding_module, "PART_BYTES", part_bytes)
        outputs = list(classifier_module._outputs(
            classifier_module._stc_batch(ts, tests, mode)))
        assert len(outputs) == len(tests)
        for test, out in zip(tests, outputs):
            state = assemble_mixed_stc_input(test, data, k,
                                             with_ancilla=mode == "ancilla-circuit")
            assert abs(out.expectation - classify_assembled(state).expectation) <= 1e-12

    @pytest.mark.parametrize("mode,rows_in_layout", [("ancilla-circuit", 5), ("minimal", 5)])
    def test_pure_circuit_memory_does_not_grow_with_m(self, mode, rows_in_layout):
        # m=100, dim=16, k=2: one input row is 2 * 256 * 256 * 2 amplitudes
        # (4 MiB) with the ancilla, 2 MiB without; all 100 rows would be
        # 400 MiB, over the size budget. The rows are measured part by
        # part, so the peak stays within a few rows.
        rng = np.random.default_rng(1300)
        ts = random_pure_training(rng, 100, 16, k=2)
        test = random_state_vector(16, rng)
        row_bytes = 16 * 256 * 256 * 2 * (2 if mode == "ancilla-circuit" else 1)
        tracemalloc.start()
        try:
            out = stc_classify(ts, test, mode=mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < rows_in_layout * row_bytes
        assert abs(out.expectation - stc_classify(ts, test).expectation) < 1e-12

    @pytest.mark.parametrize("mode", ["minimal", "ancilla-circuit", "bias"])
    def test_over_budget_layout_refused_before_building(self, mode):
        # dim 8, k=6: one row of the layout has at least 8**12 amplitudes,
        # over the 2**20 dimension cap. The check runs before the k-fold
        # training rows (10 x 8**6 amplitudes, 42 MB) exist.
        rng = np.random.default_rng(1400)
        ts = TrainingSet.from_states([(random_state_vector(8, rng), i % 2, 1.0)
                                      for i in range(10)], k=6,
                                     bias=0.3 if mode == "bias" else None)
        test = random_state_vector(8, rng)
        tracemalloc.start()
        try:
            with pytest.raises(DimensionError, match="circuit row"):
                if mode == "bias":
                    stc_classify_bias(ts, test)
                else:
                    stc_classify(ts, test, mode=mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_per_term_decomposition(self):
        ts = TrainingSet.from_states([(PLUS, 0, 0.7), (KET1, 1, 0.3)], k=2)
        out = stc_classify(ts, KET0)
        assert out.per_term == ((0, pytest.approx(0.175)), (1, pytest.approx(0.0)))

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(11)
        x = random_state_vector(2, rng)
        test = random_state_vector(2, rng)
        theta = 1.234
        shifted = QState(np.exp(1j * theta) * x.vec)
        test_shifted = QState(np.exp(0.5j) * test.vec)
        for mode in ("analytic", "ancilla-circuit", "minimal"):
            base = stc_classify(TrainingSet.from_states([(x, 0, 1.0)]), test, mode=mode)
            moved = stc_classify(TrainingSet.from_states([(shifted, 0, 1.0)]),
                                 test_shifted, mode=mode)
            assert abs(base.expectation - moved.expectation) < 1e-12

    def test_maximally_mixed_test_state_scores_half(self):
        # the trace kernel against I/2 is 1/2 whatever the training state is
        rng = np.random.default_rng(13)
        half = maximally_mixed(2)
        for y in (0, 1):
            ts = TrainingSet.from_states([(random_density_matrix(2, rng), y, 1.0)])
            out = stc_classify(ts, half)
            assert out.expectation == pytest.approx(0.5 * (1 - 2 * y), abs=1e-12)

    def test_unknown_mode_refused(self):
        ts = TrainingSet.from_states([(KET0, 0, 1.0)])
        with pytest.raises(DataError, match="unknown mode"):
            stc_classify(ts, KET0, mode="x")

    def test_expectation_bounded(self):
        rng = np.random.default_rng(12)
        for seed in range(10):
            ts = random_pure_training(np.random.default_rng(seed), 4, 2)
            out = stc_classify(ts, random_state_vector(2, rng))
            assert abs(out.expectation) <= 1.0 + 1e-10

    def test_bias_set_rejected(self):
        ts = TrainingSet.from_states([(KET0, 0, 1.0)], bias=0.5)
        with pytest.raises(DataError):
            stc_classify(ts, KET0)


# Validated (DensityMatrix accepts eigenvalues down to -1e-10), with a
# round-off negative eigenvalue of -5e-11 on |2>.
SLIGHTLY_NEGATIVE = np.diag([0.5 + 5e-11, 0.5, -5e-11, 0.0]).astype(complex)


class TestRoundOffNegativeEigenvalues:
    """The stacks carry a validated state's round-off negative eigen-part
    with sign -1, so every path reproduces the closed form to 1e-12."""

    @staticmethod
    def _training(k):
        states = [DensityMatrix(np.diag(d).astype(complex))
                  for d in ([0.1, 0.2, 0.6, 0.1], [0.4, 0.1, 0.3, 0.2])]
        states.append(DensityMatrix(SLIGHTLY_NEGATIVE))
        labels, weights = [0, 1, 1], [0.5, 0.3, 0.2]
        return TrainingSet.from_states(list(zip(states, labels, weights)), k=k), \
            [(s, y, w) for s, y, w in zip(states, labels, weights)]

    @pytest.mark.parametrize("k", [1, 2])
    def test_every_stc_mode_reproduces_the_closed_form(self, k):
        test = DensityMatrix(SLIGHTLY_NEGATIVE)
        assert test.min_eigenvalue() < -1e-11
        ts, data = self._training(k)
        expect = sum((1 - 2 * y) * w * np.trace(test.entries @ s.entries).real ** k
                     for s, y, w in data)
        for mode in STC_MODES:
            assert abs(stc_classify(ts, test, mode=mode).expectation - expect) < 1e-12
        single = TrainingSet.from_states([(QState(basis_state(4, 0)), 0, 1.0)])
        for mode in STC_MODES:
            out = stc_classify(single, test, mode=mode)
            assert abs(out.expectation - (0.5 + 5e-11)) < 1e-15

    def test_ensembles_and_misclassification(self):
        test = DensityMatrix(SLIGHTLY_NEGATIVE)
        _, data = self._training(1)
        pairs = [(s, y) for s, y, _ in data]
        kernels = np.array([np.trace(test.entries @ s.entries).real for s, _ in pairs])
        signs = np.array([1 - 2 * y for _, y in pairs])
        a1, a2 = np.array([0.2, 0.5, 0.3]), np.array([0.6, 0.1, 0.3])
        ens = assemble_ensemble_weights(test, [(0.4, a1), (0.6, a2)], pairs, 2)
        expect = float(np.sum(signs * (0.4 * a1 + 0.6 * a2) * kernels ** 2))
        assert abs(classify_assembled(ens).expectation - expect) < 1e-12
        ens = assemble_ensemble_exponents(test, [(0.4, a1, 1), (0.6, a2, 2)], pairs, 2)
        expect = float(np.sum(signs * (0.4 * a1 * kernels + 0.6 * a2 * kernels ** 2)))
        assert abs(classify_assembled(ens).expectation - expect) < 1e-12
        assert abs(sum(q * swap_test_expectation(m) for q, m in ens.members) - expect) < 1e-12
        ts, _ = self._training(2)
        mix = Mixture(0.5, 0.5, test, DensityMatrix(np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)))
        assert 0.0 <= misclassification_probability(ts, mix) <= 1.0

    def test_below_the_floor_is_rejected(self):
        bad = np.diag([0.5 + 2e-10, 0.5, -2e-10, 0.0]).astype(complex)
        with pytest.raises(NumericError, match="below"):
            qmath.eigen_factor(bad, "test state")


class TestStcClassifyBias:
    def test_bias_only_negative(self):
        ts = TrainingSet.from_raw([], bias=-0.3)
        out = stc_classify_bias(ts, KET0)
        assert out.expectation == pytest.approx(-1.0, abs=1e-12)
        assert out.predicted_label == 1

    def test_bias_dominates_orthogonal_data(self):
        # kernel of |1> against test |0> vanishes so only the bias remains
        ts = TrainingSet.from_states([(KET1, 1, 1.0)], bias=0.5)
        out = stc_classify_bias(ts, KET0)
        assert out.expectation == pytest.approx(0.5 / 1.5, abs=1e-12)
        assert out.predicted_label == 0

    def test_cancellation_gives_tie(self):
        # the kernel term contributes +0.5, so bias -0.5 cancels it exactly
        ts = TrainingSet.from_states([(PLUS, 0, 1.0)], bias=-0.5)
        out = stc_classify_bias(ts, KET0)
        assert abs(out.expectation) < 1e-12
        assert out.predicted_label == TIE

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_closed_form_on_random_instances(self, seed):
        rng = np.random.default_rng(2000 + seed)
        m = int(rng.integers(1, 4))
        states = [random_state_vector(2, rng) for _ in range(m)]
        labels = [int(rng.integers(0, 2)) for _ in range(m)]
        weights = rng.random(m) + 0.1
        weights /= weights.sum()
        b = float(rng.normal())
        if b == 0.0:
            b = 0.1
        ts = TrainingSet.from_states(list(zip(states, labels, weights)), k=1, bias=b)
        test = random_state_vector(2, rng)
        out = stc_classify_bias(ts, test)
        n = abs(b) + 1.0
        expect = (b + sum((1 - 2 * y) * w * abs(test.overlap(s)) ** 2
                          for s, y, w in zip(states, labels, weights))) / n
        assert out.expectation == pytest.approx(expect, abs=1e-12)

    def test_requires_bias(self):
        ts = TrainingSet.from_states([(KET0, 0, 1.0)])
        with pytest.raises(DataError):
            stc_classify_bias(ts, KET0)

    def test_circuit_check_runs_on_the_state_vector(self, monkeypatch):
        built = []
        init = DensityMatrix.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        rng = np.random.default_rng(2100)
        ts = TrainingSet.from_states(
            [(random_state_vector(4, rng), i % 2, 1.0 + i) for i in range(5)], bias=0.3)
        test = random_state_vector(4, rng)
        monkeypatch.setattr(DensityMatrix, "__init__", counting_init)
        stc_classify_bias(ts, test)
        assert built == []

    def test_circuit_check_runs_on_every_call(self, monkeypatch):
        # Skipping the circuit kernel's swap step leaves a parity that
        # differs from the closed form, which the 1e-10 cross-check must
        # reject.
        rng = np.random.default_rng(2101)
        ts = TrainingSet.from_states(
            [(random_state_vector(2, rng), i % 2, 1.0) for i in range(3)], bias=0.3)
        test = random_state_vector(2, rng)
        stc_classify_bias(ts, test)
        monkeypatch.setattr(circuit_module, "_permute",
                            lambda src, plan, out: np.copyto(out, src))
        with pytest.raises(NumericError):
            stc_classify_bias(ts, test)

    def test_large_instance_costs_the_state_vector(self):
        # m=100, dim=8: the bias-extended state has 32768 amplitudes
        # (512 KiB); its density matrix, or a dense observable on it, would
        # be 16 GiB.
        rng = np.random.default_rng(2102)
        states = [random_state_vector(8, rng) for _ in range(100)]
        labels = [i % 2 for i in range(100)]
        raw = 1.0 + rng.random(100)
        ts = TrainingSet.from_states(list(zip(states, labels, raw)), bias=0.4)
        test = random_state_vector(8, rng)
        tracemalloc.start()
        try:
            out = stc_classify_bias(ts, test)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        w, b = raw / raw.sum(), 0.4 / raw.sum()
        expect = (b + sum((1 - 2 * y) * wm * abs(test.overlap(s)) ** 2
                          for s, y, wm in zip(states, labels, w))) / (abs(b) + 1.0)
        assert out.expectation == pytest.approx(expect, abs=1e-12)
        with pytest.raises(DimensionError):
            assemble_bias_extended(ts, test).rho


class TestHadamardClassifier:
    @pytest.mark.parametrize("with_bias,bias,test,error", [
        (False, None, QState(basis_state(4, 0)), DimensionError),
        (True, None, KET0, DataError),
        (False, 0.5, KET0, DataError),
    ])
    def test_refusals(self, with_bias, bias, test, error):
        ts = TrainingSet.from_states([(KET0, 0, 1.0), (KET1, 1, 1.0)], bias=bias)
        with pytest.raises(error):
            hadamard_classify(ts, test, with_bias=with_bias)

    def test_empty_set_with_a_bias_refused(self):
        with pytest.raises(DataError, match="empty"):
            hadamard_classify(TrainingSet.from_states([], bias=0.5), KET0, with_bias=True)

    def test_real_amplitudes_match_stc_signs(self):
        rng = np.random.default_rng(21)
        states = []
        for _ in range(3):
            v = np.abs(rng.standard_normal(2)) + 0.1
            states.append(QState(v / np.linalg.norm(v)))
        ts = TrainingSet.from_states([(s, i % 2, 1.0) for i, s in enumerate(states)])
        raw = np.abs(rng.standard_normal(2)) + 0.2
        test = QState(raw / np.linalg.norm(raw))
        hc = hadamard_classify(ts, test)
        stc = stc_classify(ts, test)
        for (m, hv), (_, sv) in zip(hc.per_term, stc.per_term):
            assert np.sign(hv) == np.sign(sv)

    def test_orthogonal_test_gives_zero(self):
        ts = TrainingSet.from_states([(KET0, 0, 0.5), (KET0, 1, 0.5)])
        out = hadamard_classify(ts, KET1)
        assert abs(out.expectation) < 1e-12

    def test_global_phase_sensitivity(self):
        ts = TrainingSet.from_states([(KET0, 0, 1.0)])
        base = hadamard_classify(ts, KET0)
        rotated = hadamard_classify(ts, QState(1j * KET0.vec))
        assert base.expectation == pytest.approx(1.0, abs=1e-12)
        assert abs(rotated.expectation) < 1e-12
        assert abs(base.expectation - rotated.expectation) > 0.5
        stc_base = stc_classify(ts, KET0).expectation
        stc_rot = stc_classify(ts, QState(1j * KET0.vec)).expectation
        assert abs(stc_base - stc_rot) < 1e-12

    def test_mixed_input_rejected(self):
        rho = random_density_matrix(2, np.random.default_rng(0))
        ts = TrainingSet.from_states([(rho, 0, 1.0)])
        with pytest.raises(DataError):
            hadamard_classify(ts, KET0)

    def test_copies_rejected(self):
        ts = TrainingSet.from_states([(KET0, 0, 1.0)], k=2)
        with pytest.raises(DataError):
            hadamard_classify(ts, KET0)

    @pytest.mark.parametrize("seed", range(4))
    def test_bias_variant_sign_matches_oracle_classifier(self, seed):
        # For signed multipliers alpha_m = (-1)**y_m a_m and the same bias,
        # the HC-with-bias and the oracle classifier share the numerator
        # b + sum alpha_m Re<x_m|x~>, so their signs must agree.
        rng = np.random.default_rng(6000 + seed)
        m = int(rng.integers(1, 4))
        states = [random_state_vector(2, rng) for _ in range(m)]
        labels = [int(rng.integers(0, 2)) for _ in range(m)]
        weights = rng.random(m) + 0.1
        weights /= weights.sum()
        b = float(rng.normal()) or 0.3
        test = random_state_vector(2, rng)
        hc_ts = TrainingSet.from_states(list(zip(states, labels, weights)), bias=b)
        hc = hadamard_classify(hc_ts, test, with_bias=True)
        alphas = [(1 - 2 * y) * w for y, w in zip(labels, weights)]
        plain_ts = TrainingSet.from_states(list(zip(states, labels, weights)))
        oracle = qsvm_oracle_classify(alphas, b, plain_ts, test)
        if abs(hc.expectation) > 1e-9 and abs(oracle.expectation) > 1e-9:
            assert np.sign(hc.expectation) == np.sign(oracle.expectation)

    def test_with_bias_recovers_regression_shape(self):
        rng = np.random.default_rng(22)
        states = [random_state_vector(2, rng) for _ in range(2)]
        ts = TrainingSet.from_states([(states[0], 0, 0.5), (states[1], 1, 0.5)],
                                     bias=0.4)
        test = random_state_vector(2, rng)
        out = hadamard_classify(ts, test, with_bias=True)
        n_u = abs(ts.bias) + 1.0
        n_x = abs(ts.bias) + 1.0
        expect = (ts.bias + sum(
            (1 - 2 * y) * 0.5 * float(np.real(s.overlap(test)))
            for s, y in zip(states, (0, 1)))) / np.sqrt(n_u * n_x)
        assert out.expectation == pytest.approx(expect, abs=1e-12)


def test_interference_circuit_is_checked_on_every_call(monkeypatch):
    # Reversing every branch row moves each amplitude to the other label
    # block, which negates the measured parity but not the kernel closed
    # form; the 1e-10 check of the Hadamard and oracle circuits must reject it.
    rng = np.random.default_rng(6100)
    data = [(random_state_vector(2, rng), i % 2, 1.0 + i) for i in range(3)]
    test = random_state_vector(2, rng)
    calls = [lambda: hadamard_classify(TrainingSet.from_states(data, bias=0.3), test,
                                       with_bias=True),
             lambda: qsvm_oracle_classify([0.5, -0.2, 0.4], 0.1,
                                          TrainingSet.from_states(data), test)]
    assert all(abs(call().expectation) > 1e-3 for call in calls)
    slot_rows = encoding_module._slot_rows
    monkeypatch.setattr(encoding_module, "_slot_rows",
                        lambda *args, **kwargs: slot_rows(*args, **kwargs)[:, ::-1])
    for call in calls:
        with pytest.raises(NumericError, match="circuit values disagree"):
            call()


class TestQsvmOracle:
    def test_single_support_vector(self):
        out = qsvm_oracle_classify([1.0], 0.0, TrainingSet.from_states([(KET0, 0, 1.0)]), KET0)
        # N_u = 1, N_x = M + 1 = 2 so the value is 1/sqrt(2)
        assert out.expectation == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert out.predicted_label == 0

    def test_bias_dominates(self):
        ts = TrainingSet.from_states([(KET0, 0, 1.0)])
        out = qsvm_oracle_classify([0.0], -2.0, ts, KET1)
        assert out.expectation < 0
        assert out.predicted_label == 1

    def test_degenerate_oracle_rejected(self):
        ts = TrainingSet.from_states([(KET0, 0, 1.0)])
        with pytest.raises(DataError):
            qsvm_oracle_classify([0.0], 0.0, ts, KET0)

    def test_one_multiplier_per_training_point(self):
        ts = TrainingSet.from_states([(KET0, 0, 1.0), (KET1, 1, 1.0), (PLUS, 0, 1.0)])
        with pytest.raises(DataError, match="2 multipliers for 3"):
            qsvm_oracle_classify([1.0, 2.0], 0.0, ts, KET0)

    @pytest.mark.parametrize("seed", range(3))
    def test_closed_form_on_random_instances(self, seed):
        rng = np.random.default_rng(3000 + seed)
        m = int(rng.integers(1, 4))
        states = [random_state_vector(2, rng) for _ in range(m)]
        ts = TrainingSet.from_states([(s, i % 2, 1.0) for i, s in enumerate(states)])
        alphas = rng.normal(size=m)
        b = float(rng.normal())
        test = random_state_vector(2, rng)
        out = qsvm_oracle_classify(alphas, b, ts, test)
        n_u = b**2 + float(np.sum(alphas**2))
        n_x = m + 1.0
        expect = (b + sum(a * float(np.real(s.overlap(test)))
                          for a, s in zip(alphas, states))) / np.sqrt(n_u * n_x)
        assert out.expectation == pytest.approx(expect, abs=1e-12)


class TestSingleShot:
    def test_certain_instance_always_class_zero(self):
        ts = TrainingSet.from_states([(KET0, 0, 1.0)])
        assert all(single_shot_classify(ts, KET0, seed) == 0 for seed in range(20))

    def test_seed_determinism(self):
        ts = TrainingSet.from_states([(KET1, 0, 1.0)])
        labels = [single_shot_classify(ts, KET0, seed=42) for _ in range(5)]
        assert len(set(labels)) == 1

    def test_kernel_zero_instance_balanced(self):
        ts = TrainingSet.from_states([(KET1, 0, 1.0)])
        draws = np.array([single_shot_classify(ts, KET0, seed) for seed in range(4000)])
        freq = draws.mean()
        # binomial 3 sigma around 1/2 over 4000 draws
        assert abs(freq - 0.5) < 3 * 0.5 / np.sqrt(4000)

    @pytest.mark.parametrize("seed", [-1, True, 0.5])
    def test_seed_must_be_an_integer_at_least_zero(self, seed):
        ts = TrainingSet.from_states([(KET1, 0, 1.0)])
        with pytest.raises(DataError, match="seed must be an integer >= 0"):
            single_shot_classify(ts, KET0, seed)


class TestMisclassification:
    def _aligned_instance(self, swap_labels=False):
        y0, y1 = (1, 0) if swap_labels else (0, 1)
        ts = TrainingSet.from_states([(KET0, y0, 0.5), (KET1, y1, 0.5)])
        mix = Mixture(0.5, 0.5, KET0.to_density(), KET1.to_density())
        return ts, mix

    def test_hand_derived_quarter(self):
        ts, mix = self._aligned_instance()
        assert misclassification_probability(ts, mix) == pytest.approx(0.25, abs=1e-12)

    def test_mixture_refusals(self):
        with pytest.raises(DataError, match="priors"):
            Mixture(0.7, 0.7, KET0.to_density(), KET1.to_density())
        with pytest.raises(DimensionError):
            Mixture(0.5, 0.5, KET0.to_density(), QState(basis_state(4, 0)).to_density())

    def test_swapped_labels_complement(self):
        ts, mix = self._aligned_instance(swap_labels=True)
        assert misclassification_probability(ts, mix) == pytest.approx(0.75, abs=1e-12)

    def test_uninformative_test_mixture_is_chance(self):
        rng = np.random.default_rng(31)
        rho = random_density_matrix(2, rng)
        ts = random_mixed_training(rng, 3, 2)
        mix = Mixture(0.5, 0.5, rho, rho)
        # equal class-conditional states and balanced priors give chance level
        assert misclassification_probability(ts, mix) == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_circuit_route_agrees_with_closed_form(self, seed):
        # each class state's circuit value is checked against its per-term
        # sum inside the function, at every k
        rng = np.random.default_rng(4000 + seed)
        ts = random_mixed_training(rng, 3, 2)
        mix = Mixture(0.3, 0.7, random_density_matrix(2, rng),
                          random_density_matrix(2, rng))
        value = misclassification_probability(ts, mix)
        assert 0.0 <= value <= 1.0

    def test_monte_carlo_cross_check(self):
        ts, mix = self._aligned_instance()
        rng = np.random.default_rng(77)
        n = 4000
        errors = 0
        for i in range(n):
            true_class = 0 if rng.random() < mix.p0 else 1
            test = mix.rho0 if true_class == 0 else mix.rho1
            predicted = single_shot_classify(ts, test, seed=int(rng.integers(2**31)))
            errors += predicted != true_class
        freq = errors / n
        sigma = np.sqrt(0.25 * 0.75 / n)
        assert abs(freq - 0.25) < 3 * sigma

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_closed_form_at_every_k(self, k):
        rng = np.random.default_rng(4200 + k)
        ts = random_mixed_training(rng, 3, 2, k=k)
        mix = Mixture(0.3, 0.7, random_density_matrix(2, rng), random_density_matrix(2, rng))
        signed = (1 - 2 * ts.labels) * ts.effective_weights()
        e = [sum(s * hs_inner(rho, r) ** k for s, r in zip(signed, ts.states))
             for rho in (mix.rho0, mix.rho1)]
        expect = 0.5 - 0.5 * (mix.p0 * e[0] - mix.p1 * e[1])
        assert abs(misclassification_probability(ts, mix) - expect) < 1e-12

    def test_corrupted_projector_value_trips_the_check(self, monkeypatch):
        rng = np.random.default_rng(4300)
        ts = random_mixed_training(rng, 3, 2, k=2)
        mix = Mixture(0.5, 0.5, random_density_matrix(2, rng), random_density_matrix(2, rng))
        misclassification_probability(ts, mix)
        real = classifier_module._stack_value
        monkeypatch.setattr(classifier_module, "_stack_value",
                            lambda *args: real(*args) + 1e-9)
        with pytest.raises(NumericError, match="per-term sum"):
            misclassification_probability(ts, mix)

    def test_streams_the_class_states(self):
        # 512 product rows of 8192 amplitudes per class state (64 MiB whole)
        # are measured in parts of at most PART_BYTES.
        rng = np.random.default_rng(4400)
        states = [random_density_matrix(8, rng, rank=2) for _ in range(32)]
        ts = TrainingSet.from_states([(s, i % 2, 1.0) for i, s in enumerate(states)], k=2)
        mix = Mixture(0.4, 0.6, random_density_matrix(8, rng, rank=2),
                      random_density_matrix(8, rng, rank=2))
        tracemalloc.start()
        try:
            value = misclassification_probability(ts, mix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20
        assert 0.0 <= value <= 1.0

    def test_biased_training_set_refused(self):
        ts = TrainingSet.from_states([(KET0, 0, 0.5), (KET1, 1, 0.5)], bias=0.2)
        mix = Mixture(0.5, 0.5, KET0.to_density(), KET1.to_density())
        with pytest.raises(DataError, match="without a bias"):
            misclassification_probability(ts, mix)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 2), k=st.integers(1, 2), m=st.integers(1, 4),
           p0=st.floats(0.05, 0.95), seed=st.integers(0, 2**32 - 1))
    def test_helstrom_bound_property(self, n, k, m, p0, seed):
        # The single-shot classifier is a two-outcome measurement on the k
        # test copies, so its error is at least the Helstrom bound
        # (1 - ||p0 rho0^(x)k - p1 rho1^(x)k||_1) / 2.
        rng = np.random.default_rng(seed)
        dim = 2**n

        def draw():
            return random_density_matrix(dim, rng, rank=int(rng.integers(1, dim + 1)))

        ts = TrainingSet.from_states(
            [(draw(), int(rng.integers(0, 2)), rng.random() + 0.05) for _ in range(m)], k=k)
        mix = Mixture(p0, 1.0 - p0, draw(), draw())
        gamma = (mix.p0 * tensor_power(mix.rho0.entries, k)
                 - mix.p1 * tensor_power(mix.rho1.entries, k))
        bound = 0.5 * (1.0 - np.abs(np.linalg.eigvalsh(gamma)).sum())
        assert misclassification_probability(ts, mix) >= bound - 1e-10

    def test_k2_uses_minimal_circuit(self):
        rng = np.random.default_rng(32)
        ts = random_mixed_training(rng, 2, 2, k=2)
        mix = Mixture(0.5, 0.5, random_density_matrix(2, rng),
                          random_density_matrix(2, rng))
        value = misclassification_probability(ts, mix)
        assert 0.0 <= value <= 1.0


class TestHelstrom:
    def test_balanced_identical_classes_vanish(self):
        ts = TrainingSet.from_states([(KET0, 0, 0.5), (KET0, 1, 0.5)])
        assert np.abs(helstrom_operator(ts)).max() < 1e-12

    def test_orthogonal_pair(self):
        ts = TrainingSet.from_states([(KET0, 0, 0.5), (KET1, 1, 0.5)])
        op = helstrom_operator(ts)
        expect = 0.5 * (KET0.projector() - KET1.projector())
        assert np.allclose(op, expect, atol=1e-12)
        assert np.allclose(np.sort(np.linalg.eigvalsh(op)), [-0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_trace_against_test_block_equals_stc(self, seed):
        rng = np.random.default_rng(5000 + seed)
        k = int(rng.integers(1, 3))
        ts = random_pure_training(rng, 4, 2, k=k)
        test = random_state_vector(2, rng)
        op = helstrom_operator(ts)
        block = tensor_power(test.projector(), k)
        traced = float(np.einsum("ij,ji->", block, op).real)
        assert abs(traced - stc_classify(ts, test).expectation) < 1e-12

    def test_single_class_rejected(self):
        ts = TrainingSet.from_states([(KET0, 0, 1.0)])
        with pytest.raises(DataError):
            helstrom_operator(ts)

    def test_class_priors_from_training_set(self):
        # orthogonal classes: the eigenvalues are p0 and -p1
        ts = TrainingSet.from_states([(KET0, 0, 0.25), (KET1, 1, 0.75)])
        vals = np.linalg.eigvalsh(helstrom_operator(ts))
        assert vals[1] == pytest.approx(0.25)
        assert -vals[0] == pytest.approx(0.75)


class TestEnsembleLinearity:
    def test_weight_ensemble_matches_member_sum(self):
        rng = np.random.default_rng(41)
        test = random_density_matrix(2, rng)
        train = [(random_density_matrix(2, rng), 0), (random_density_matrix(2, rng), 1)]
        models = [(0.25, [0.2, 0.8]), (0.75, [0.6, 0.4])]
        ens = assemble_ensemble_weights(test, models, train, k=1)
        whole = classify_assembled(ens).expectation
        parts = 0.0
        for q, a in models:
            member = assemble_mixed_stc_input(
                test, [(r, y, w) for (r, y), w in zip(train, a)], 1)
            parts += q * classify_assembled(member).expectation
        assert abs(whole - parts) < 1e-10

    def test_exponent_ensemble_closed_form(self):
        rng = np.random.default_rng(42)
        x = random_state_vector(2, rng)
        test = random_state_vector(2, rng)
        kappa = abs(test.overlap(x)) ** 2
        for y in (0, 1):
            ens = assemble_ensemble_exponents(
                test.to_density(), [(0.5, [1.0], 1), (0.5, [1.0], 2)],
                [(x.to_density(), y)], max_copies=2)
            value = classify_assembled(ens).expectation
            expect = 0.5 * (1 - 2 * y) * (kappa + kappa**2)
            assert abs(value - expect) < 1e-10

    def test_exponent_ensemble_member_sum(self):
        rng = np.random.default_rng(43)
        test = random_density_matrix(2, rng)
        train = [(random_density_matrix(2, rng), 0), (random_density_matrix(2, rng), 1)]
        models = [(0.6, [0.5, 0.5], 1), (0.4, [0.1, 0.9], 2)]
        ens = assemble_ensemble_exponents(test, models, train, max_copies=2)
        parts = sum(q * classify_assembled(member).expectation
                    for q, member in ens.members)
        assert abs(classify_assembled(ens).expectation - parts) < 1e-12

    @pytest.mark.parametrize("max_copies", [2, 3])
    def test_symmetric_padding_supports_full_circuit(self, max_copies):
        # Padding each unused (test, train) copy pair with the uniform state
        # on the symmetric subspace, which is swap invariant, makes the one
        # circuit over all max_copies slots reproduce the member-wise value.
        rng = np.random.default_rng(44)
        test = random_density_matrix(2, rng)
        train = [(random_density_matrix(2, rng), 0), (random_density_matrix(2, rng), 1)]
        models = [(0.5, [0.5, 0.5], 1), (0.5, [0.2, 0.8], 2)]
        ens = assemble_ensemble_exponents(test, models, train, max_copies)
        member_value = sum(q * classify_assembled(member).expectation
                           for q, member in ens.members)
        p = register_permutation_matrix(ens.layout.dims, block_to_pair(max_copies))
        joint = p.T @ dense_ensemble_exponents(test, models, train, max_copies, "symmetric") @ p
        circuit_value = swap_test_expectation(ClassifierState(ens.layout,
                                                              *qmath.eigen_factor(joint)))
        assert abs(circuit_value - member_value) < 1e-10

    def test_equal_exponents_degenerate_to_fixed_k(self):
        rng = np.random.default_rng(46)
        test = random_density_matrix(2, rng)
        train = [(random_density_matrix(2, rng), 0), (random_density_matrix(2, rng), 1)]
        a = [0.4, 0.6]
        ens = assemble_ensemble_exponents(
            test, [(0.5, a, 2), (0.5, a, 2)], train, max_copies=2)
        fixed = assemble_mixed_stc_input(
            test, [(r, y, w) for (r, y), w in zip(train, a)], 2)
        gap = abs(classify_assembled(ens).expectation
                  - classify_assembled(fixed).expectation)
        assert gap < 1e-12

    def test_zero_weight_model_irrelevant(self):
        rng = np.random.default_rng(45)
        test = random_density_matrix(2, rng)
        train = [(random_density_matrix(2, rng), 0)]
        ens = assemble_ensemble_weights(test, [(1.0, [1.0]), (0.0, [1.0])], train, k=1)
        single = assemble_mixed_stc_input(test, [(train[0][0], 0, 1.0)], 1)
        assert np.allclose(ens.rho.entries, single.rho.entries, atol=1e-12)


class TestKeepNorms:
    def test_norm_weighted_kernel(self):
        # keep-norms: |x_1| = 2 with weight folded as norm**(2k)
        ts = TrainingSet.from_raw(
            [RawDatum([2.0, 0.0], 0), RawDatum([0.0, 1.0], 1)], mode=KEEP_NORMS)
        out = stc_classify(ts, QState(basis_state(2, 0)))
        # effective weights (4/5, 1/5): expectation 4/5*1 - 1/5*0
        assert out.expectation == pytest.approx(0.8, abs=1e-12)
