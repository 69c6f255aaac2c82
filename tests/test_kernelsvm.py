import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import basis_state, maximally_mixed, random_density_matrix
from smo_reference import reference_smo

from qkclass.classifier import stc_classify, stc_classify_bias
from qkclass.datasets import gen_toy
from qkclass.encoding import TrainingSet
from qkclass.errors import DataError, DimensionError, NumericError
from qkclass.kernelsvm import (DEFAULT_C, HS_TRACE, KERNEL_KINDS, KKT_TOL,
                               REAL_OVERLAP, SQUARED_OVERLAP, GramMatrix,
                               KernelSpec, encode_rows, gram, kernel_eval,
                               kernel_matrix, psd_certify, regression, svm_train)
from qkclass.qmath import DensityMatrix, QState, hs_inner, random_state_vector

KET0 = QState(basis_state(2, 0))
KET1 = QState(basis_state(2, 1))
PLUS = QState(np.array([1, 1]) / np.sqrt(2))


def bloch_state(theta):
    return QState(np.array([np.cos(theta), np.sin(theta)], dtype=complex))


def random_inputs(kind, rng, m, dim):
    if kind == HS_TRACE:
        return [random_density_matrix(dim, rng, rank=int(rng.integers(1, dim + 1)))
                for _ in range(m)]
    return [random_state_vector(dim, rng) for _ in range(m)]


def reference_kernel(kind, a, b):
    """Per-pair base kernel from QState.overlap and hs_inner."""
    if kind == HS_TRACE:
        return hs_inner(a, b)
    overlap = a.overlap(b)
    return abs(overlap) ** 2 if kind == SQUARED_OVERLAP else overlap.real


def with_phase(state, theta):
    return QState(np.exp(1j * theta) * state.vec)


def separable_toy(thetas0, thetas1):
    states = [bloch_state(t) for t in thetas0] + [bloch_state(t) for t in thetas1]
    labels = [0] * len(thetas0) + [1] * len(thetas1)
    return states, np.array(labels)


class TestKernelEval:
    def test_squared_overlap_identical(self):
        assert kernel_eval(KernelSpec(SQUARED_OVERLAP), KET0, KET0) == pytest.approx(1.0)

    def test_hs_trace_maximally_mixed(self):
        rng = np.random.default_rng(0)
        spec = KernelSpec(HS_TRACE)
        for _ in range(5):
            rho = random_density_matrix(2, rng)
            assert kernel_eval(spec, maximally_mixed(2), rho) == pytest.approx(0.5)

    def test_copy_exponent(self):
        spec = KernelSpec(SQUARED_OVERLAP, k=3)
        assert kernel_eval(spec, KET0, PLUS) == pytest.approx(0.125)

    def test_real_overlap(self):
        spec = KernelSpec(REAL_OVERLAP)
        assert kernel_eval(spec, KET0, PLUS) == pytest.approx(1 / np.sqrt(2))

    def test_type_mismatch(self):
        with pytest.raises(DataError):
            kernel_eval(KernelSpec(SQUARED_OVERLAP), KET0, KET0.to_density())
        with pytest.raises(DataError):
            kernel_eval(KernelSpec(HS_TRACE), KET0, KET0)

    def test_bad_spec(self):
        with pytest.raises(DataError):
            KernelSpec("polynomial")
        with pytest.raises(DataError):
            KernelSpec(SQUARED_OVERLAP, k=0)


class TestKernelMatrix:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(m=st.integers(1, 5), n=st.integers(1, 5), dim=st.sampled_from([2, 4, 8]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_per_pair_references(self, kind, k, m, n, dim, seed):
        rng = np.random.default_rng(seed)
        rows, cols = random_inputs(kind, rng, m, dim), random_inputs(kind, rng, n, dim)
        got = kernel_matrix(KernelSpec(kind, k=k), rows, cols)
        want = np.array([[reference_kernel(kind, r, c) ** k for c in cols] for r in rows])
        assert got.shape == (m, n)
        assert np.abs(got - want).max() <= 1e-12

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(KERNEL_KINDS), k=st.integers(1, 3), m=st.integers(1, 40),
           dim=st.sampled_from([2, 4, 8]), seed=st.integers(0, 2**32 - 1))
    def test_gram_symmetric_and_psd(self, kind, k, m, dim, seed):
        states = random_inputs(kind, np.random.default_rng(seed), m, dim)
        g = gram(KernelSpec(kind, k=k), states)
        assert np.array_equal(g.matrix, g.matrix.T)
        assert psd_certify(g).certified

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(k=st.integers(1, 3), m=st.integers(1, 4), dim=st.sampled_from([2, 4]),
           seed=st.integers(0, 2**32 - 1))
    def test_global_phase_invariance(self, k, m, dim, seed):
        rng = np.random.default_rng(seed)
        states = [random_state_vector(dim, rng) for _ in range(m + 1)]
        phased = [with_phase(s, t) for s, t in zip(states, rng.uniform(0, 2 * np.pi, m + 1))]
        for kind, convert in ((SQUARED_OVERLAP, lambda s: s),
                              (HS_TRACE, lambda s: s.to_density())):
            spec = KernelSpec(kind, k=k)
            base = kernel_matrix(spec, [convert(s) for s in states],
                                 [convert(s) for s in states])
            moved = kernel_matrix(spec, [convert(s) for s in phased],
                                  [convert(s) for s in phased])
            assert np.abs(base - moved).max() <= 1e-12
        labels = [i % 2 for i in range(m)]
        weights = rng.random(m) + 0.1
        value = stc_classify(TrainingSet.from_states(
            list(zip(states[:m], labels, weights)), k=k), states[m]).expectation
        moved = stc_classify(TrainingSet.from_states(
            list(zip(phased[:m], labels, weights)), k=k), phased[m]).expectation
        assert abs(value - moved) <= 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            kernel_matrix(KernelSpec(SQUARED_OVERLAP), [KET0], [QState(basis_state(4, 0))])
        with pytest.raises(DimensionError):
            kernel_matrix(KernelSpec(SQUARED_OVERLAP), [KET0, QState(basis_state(4, 0))],
                          [KET0])

    @pytest.mark.parametrize("kind,stack", [(SQUARED_OVERLAP, np.array([[np.nan, 0.0]])),
                                            (HS_TRACE, np.full((1, 2, 2), np.nan))])
    def test_nan_stack_fails_the_range_check(self, kind, stack):
        # NaN kernel values must fail the [0, 1] check, not pass it as NaN.
        with pytest.raises(NumericError, match="outside"):
            kernel_matrix(KernelSpec(kind), stack, stack)
        with pytest.raises(NumericError, match="outside"):
            gram(KernelSpec(kind), stack)

    def test_empty_input_rejected(self):
        # An empty list and an empty stack are the same empty input.
        with pytest.raises(DataError):
            kernel_matrix(KernelSpec(SQUARED_OVERLAP), [], [KET0])
        for spec, empty, one in ((KernelSpec(SQUARED_OVERLAP), np.zeros((0, 2)), [KET0]),
                                 (KernelSpec(REAL_OVERLAP), np.zeros((0, 2)), [KET0]),
                                 (KernelSpec(HS_TRACE), np.zeros((0, 2, 2)),
                                  [KET0.to_density()])):
            with pytest.raises(DataError, match="at least one state"):
                kernel_matrix(spec, empty, one)
            with pytest.raises(DataError, match="at least one state"):
                kernel_matrix(spec, one, empty)

    def test_value_outside_unit_interval_rejected(self):
        not_psd = DensityMatrix(np.diag([1.5, -0.5]), check_psd=False)
        with pytest.raises(NumericError):
            kernel_matrix(KernelSpec(HS_TRACE), [not_psd], [not_psd])

    @pytest.mark.parametrize("as_stack", [False, True])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_hs_trace_matches_trace_loop(self, dim, k, as_stack):
        # Every rank 1..dim among rows and columns; rows != columns in number.
        rng = np.random.default_rng(610 + dim + k)
        rows = [random_density_matrix(dim, rng, rank=1 + i % dim) for i in range(dim + 3)]
        cols = [random_density_matrix(dim, rng, rank=dim - i % dim) for i in range(dim)]
        want = np.array([[np.trace(r.entries @ c.entries).real ** k for c in cols]
                         for r in rows])
        if as_stack:
            rows, cols = (np.stack([s.entries for s in part]) for part in (rows, cols))
        got = kernel_matrix(KernelSpec(HS_TRACE, k=k), rows, cols)
        assert got.shape == (dim + 3, dim)
        assert np.abs(got - want).max() <= 1e-12

    def test_non_hermitian_stack_rejected_on_imaginary_residual(self):
        rng = np.random.default_rng(611)
        raw = 0.3 * (rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2)))
        with pytest.raises(NumericError, match="imaginary residual"):
            kernel_matrix(KernelSpec(HS_TRACE), raw, raw)


class TestGram:
    def test_orthonormal_basis_gives_identity(self):
        states = [QState(basis_state(4, i)) for i in range(4)]
        g = gram(KernelSpec(SQUARED_OVERLAP), states)
        assert np.allclose(g.matrix, np.eye(4), atol=1e-12)

    def test_duplicated_states_give_rank_one(self):
        states = [PLUS] * 4
        g = gram(KernelSpec(SQUARED_OVERLAP), states)
        assert np.allclose(g.matrix, np.ones((4, 4)), atol=1e-12)
        assert np.allclose(np.sort(g.eigenvalues), [0, 0, 0, 4], atol=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("kind", [SQUARED_OVERLAP, HS_TRACE])
    def test_random_sets_are_psd(self, seed, kind):
        rng = np.random.default_rng(600 + seed)
        m = int(rng.integers(2, 10))
        dim = int(rng.choice([2, 4, 8]))
        if kind == SQUARED_OVERLAP:
            states = [random_state_vector(dim, rng) for _ in range(m)]
        else:
            states = [random_density_matrix(dim, rng) for _ in range(m)]
        g = gram(KernelSpec(kind), states)
        assert g.min_eigenvalue >= -1e-8
        assert psd_certify(g).certified

    def test_schur_product_identity(self):
        rng = np.random.default_rng(601)
        states = [random_state_vector(4, rng) for _ in range(5)]
        g = gram(KernelSpec(SQUARED_OVERLAP), states)
        vecs = np.stack([s.vec for s in states])
        overlaps = vecs.conj() @ vecs.T  # plain overlaps <x_n|x_m>
        schur = (overlaps * overlaps.conj()).real
        assert np.abs(g.matrix - schur).max() < 1e-12

    def test_heterogeneous_inputs_rejected(self):
        with pytest.raises(DataError):
            gram(KernelSpec(SQUARED_OVERLAP), [KET0, KET0.to_density()])


class TestPsdCertify:
    def test_identity_certified(self):
        assert psd_certify(np.eye(3)).certified

    def test_known_violation(self):
        cert = psd_certify(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert not cert.certified
        assert cert.min_eigenvalue == pytest.approx(-1.0, abs=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(NumericError):
            psd_certify(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_symmetry_tolerance_is_1e_12(self):
        mat = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert psd_certify(mat + np.array([[0.0, 5e-13], [0.0, 0.0]])).certified
        with pytest.raises(NumericError, match="symmetric"):
            psd_certify(mat + np.array([[0.0, 2e-12], [0.0, 0.0]]))


class TestSvmTrain:
    def test_two_point_identity_gram(self):
        # Hand-solvable dual: maximize a1 + a2 - (a1**2 + a2**2)/2 on a1 == a2
        g = GramMatrix(np.eye(2), KernelSpec(SQUARED_OVERLAP),
                       np.linalg.eigvalsh(np.eye(2)))
        model = svm_train(g, [0, 1], C=10.0, record_objective=True)
        assert np.allclose(model.multipliers, [1.0, 1.0], atol=1e-8)
        assert model.bias == pytest.approx(0.0, abs=1e-8)
        assert model.support_indices == (0, 1)
        f1 = model.signed_multipliers @ g.matrix[:, 0] + model.bias
        f2 = model.signed_multipliers @ g.matrix[:, 1] + model.bias
        assert f1 == pytest.approx(1.0, abs=1e-8)
        assert f2 == pytest.approx(-1.0, abs=1e-8)

    def test_duplicated_point_opposite_labels_saturates(self):
        ones = np.ones((2, 2))
        g = GramMatrix(ones, KernelSpec(SQUARED_OVERLAP), np.linalg.eigvalsh(ones))
        C = 5.0
        model = svm_train(g, [0, 1], C=C)
        # brute-force oracle on the feasible line a1 == a2 == t
        grid = np.linspace(0.0, C, 2001)
        objective = 2 * grid - 0.5 * (grid**2 + grid**2 - 2 * grid**2)
        best = grid[np.argmax(objective)]
        assert best == pytest.approx(C)
        assert np.allclose(model.multipliers, [C, C], atol=1e-8)

    def test_kkt_balance_and_box(self):
        rng = np.random.default_rng(602)
        states, labels = separable_toy([0.05, 0.2, 0.35], [1.2, 1.4])
        g = gram(KernelSpec(SQUARED_OVERLAP), states)
        model = svm_train(g, labels)
        l = 1 - 2 * model.labels
        assert abs(float(model.multipliers @ l)) < 1e-8
        assert np.all(model.multipliers >= 0)
        assert np.all(model.multipliers <= DEFAULT_C)

    def test_objective_monotone(self):
        states, labels = separable_toy([0.1, 0.25], [1.3, 1.45])
        g = gram(KernelSpec(SQUARED_OVERLAP), states)
        model = svm_train(g, labels, record_objective=True)
        diffs = np.diff(model.objective_history)
        assert np.all(diffs >= -1e-12)

    def test_gram_scaling_keeps_decision_signs(self):
        states, labels = separable_toy([0.1, 0.3], [1.2, 1.35, 1.5])
        spec = KernelSpec(SQUARED_OVERLAP)
        g = gram(spec, states)
        model = svm_train(g, labels)
        scaled = GramMatrix(3.7 * g.matrix, spec, 3.7 * g.eigenvalues)
        model_scaled = svm_train(scaled, labels)
        for i, s in enumerate(states):
            f = regression(model, states, s)
            f_scaled = model_scaled.signed_multipliers @ scaled.matrix[:, i] + model_scaled.bias
            assert np.sign(f) == np.sign(f_scaled)

    def test_single_class_rejected(self):
        g = GramMatrix(np.eye(2), KernelSpec(SQUARED_OVERLAP),
                       np.linalg.eigvalsh(np.eye(2)))
        with pytest.raises(DataError):
            svm_train(g, [0, 0])

    @pytest.mark.parametrize("labels, message", [
        ([0, 2, 1], "labels must be 0 or 1"),
        ([2, 2, 2], "labels must be 0 or 1"),
        ([-1, 0, 1], "labels must be 0 or 1"),
        ([1, 1, 1], "requires both classes"),
        ([0, 0, 0], "requires both classes"),
        ([0, 1], "2 labels for a 3-point"),
        ([0, 2], "2 labels for a 3-point"),
    ])
    def test_label_errors(self, labels, message):
        g = GramMatrix(np.eye(3), KernelSpec(SQUARED_OVERLAP), np.ones(3))
        with pytest.raises(DataError, match=message):
            svm_train(g, labels)

    def test_unconverged_error_names_gap_and_box(self):
        # Random labels on a rank-6 Gram: not separable, so at C=1e6 the
        # multipliers creep towards C and a few iterations leave a gap.
        rng = np.random.default_rng(613)
        x = rng.standard_normal((40, 6))
        matrix = x @ x.T
        g = GramMatrix(matrix, KernelSpec(SQUARED_OVERLAP), np.linalg.eigvalsh(matrix))
        labels = np.arange(40) % 2
        rng.shuffle(labels)
        with pytest.raises(NumericError, match="SMO did not reach tolerance") as info:
            svm_train(g, labels, max_iter=20)
        found = re.search(r"in 20 iterations \(final KKT gap (\S+) at C=1e\+06\)",
                          str(info.value))
        assert found and float(found.group(1)) > KKT_TOL
        assert found.group(1) == "3.52"
        assert "--box-c" in str(info.value)
        assert svm_train(g, labels, C=1.0).multipliers.max() <= 1.0

    def test_non_psd_refused(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        g = GramMatrix(bad, KernelSpec(SQUARED_OVERLAP), np.linalg.eigvalsh(bad))
        with pytest.raises(NumericError):
            svm_train(g, [0, 1])

    @pytest.mark.parametrize("C", [0.0, -1.0, float("nan"), float("inf")])
    def test_box_constraint_must_be_finite_and_positive(self, C):
        g = GramMatrix(np.eye(2), KernelSpec(SQUARED_OVERLAP),
                       np.linalg.eigvalsh(np.eye(2)))
        with pytest.raises(DataError, match="finite and positive"):
            svm_train(g, [0, 1], C=C)

    @pytest.mark.parametrize("kind, m, dim, C, seed", [
        ("psd", 40, 60, 1e6, 1),       # full rank: separable
        ("psd", 120, 4, 10.0, 2),
        ("psd", 80, 8, 0.05, 3),       # small C: multipliers on the box
        ("psd", 60, 3, 0.5, 4),
        (SQUARED_OVERLAP, 100, 8, 100.0, 5),
        (HS_TRACE, 60, 4, 10.0, 6),
        (HS_TRACE, 40, 2, 0.2, 7),
        (HS_TRACE, 300, 4, 10.0, 8),   # the size of a mixed-circuit benchmark problem
        ("clusters", 400, 8, 1e6, 9),  # and of a kernel-train one
    ])
    def test_matches_reference_loop_bit_for_bit(self, kind, m, dim, C, seed):
        rng = np.random.default_rng(seed)
        labels = np.arange(m) % 2
        rng.shuffle(labels)
        if kind == "psd":
            x = rng.standard_normal((m, dim))
            matrix = x @ x.T
            matrix = (matrix + matrix.T) / 2
            g = GramMatrix(matrix, KernelSpec(SQUARED_OVERLAP), np.linalg.eigvalsh(matrix))
        elif kind == "clusters":
            # squared overlap on separable toy clusters
            ds = gen_toy("separable", m, dim, seed, 0.25)
            labels = ds.labels
            g = gram(KernelSpec(SQUARED_OVERLAP), encode_rows(ds.features)[0])
        else:
            g = gram(KernelSpec(kind), random_inputs(kind, rng, m, dim))
        assert np.array_equal(g.matrix, g.matrix.T)
        alpha, bias = reference_smo(g.matrix, labels, C)
        model = svm_train(g, labels, C=C)
        assert np.array_equal(model.multipliers, alpha)
        assert repr(model.bias) == repr(bias)
        if C < 1:
            assert np.any(alpha == C)
        recorded = svm_train(g, labels, C=C, record_objective=True)
        assert np.array_equal(recorded.multipliers, alpha)
        assert repr(recorded.bias) == repr(bias)

    def test_negative_zero_bias_matches_reference(self):
        # The one free multiplier's gradient cancels to exactly 0, so the
        # bias is -l * 0 = -0.0, which the results file writes as "-0.0".
        x = np.array([[1.0], [-1.0], [1.0], [1.0]])
        g = GramMatrix(x @ x.T, KernelSpec(SQUARED_OVERLAP), np.linalg.eigvalsh(x @ x.T))
        labels = [0, 1, 0, 0]
        alpha, bias = reference_smo(g.matrix, labels, 0.5)
        model = svm_train(g, labels, C=0.5)
        assert np.array_equal(model.multipliers, alpha)
        assert repr(model.bias) == repr(bias) == "-0.0"


class TestRegression:
    def test_zero_multipliers_return_bias(self):
        model_g = GramMatrix(np.eye(2), KernelSpec(SQUARED_OVERLAP),
                             np.linalg.eigvalsh(np.eye(2)))
        model = svm_train(model_g, [0, 1], C=10.0)
        zeroed = type(model)(np.zeros(2), 0.7, (), model.kernel, model.labels)
        assert regression(zeroed, [KET0, KET1], PLUS) == pytest.approx(0.7)

    def test_support_vector_margins(self):
        states, labels = separable_toy([0.05, 0.15, 0.3], [1.25, 1.4])
        g = gram(KernelSpec(SQUARED_OVERLAP), states)
        model = svm_train(g, labels)
        for s_idx in model.support_indices:
            f = regression(model, states, states[s_idx])
            assert (1 - 2 * labels[s_idx]) * f >= 1 - 1e-6

    def test_separable_toy_signs(self):
        states, labels = separable_toy([0.0, 0.2, 0.1, 0.3], [1.2, 1.5])
        g = gram(KernelSpec(SQUARED_OVERLAP), states)
        model = svm_train(g, labels)
        for s, y in zip(states, labels):
            assert np.sign(regression(model, states, s)) == (1 if y == 0 else -1)

    def test_consistency_with_bias_classifier(self):
        states, labels = separable_toy([0.05, 0.2, 0.4], [1.1, 1.3])
        g = gram(KernelSpec(SQUARED_OVERLAP), states)
        model = svm_train(g, labels)
        entries = [(s, int(y), float(a))
                   for s, y, a in zip(states, labels, model.multipliers)]
        rng = np.random.default_rng(603)
        tests = [states[0], states[-1]] + [random_state_vector(2, rng) for _ in range(4)]
        for t in tests:
            f = regression(model, states, t)
            if abs(f) <= 1e-9:
                continue
            if model.bias != 0.0:
                out = stc_classify_bias(
                    TrainingSet.from_states(entries, bias=model.bias), t)
            else:
                out = stc_classify(TrainingSet.from_states(entries), t)
            assert out.predicted_label == (0 if f > 0 else 1)


class TestStcKernelSum:
    """Hand-derived values of the swap-test classifier's weighted kernel sum."""

    def test_single_datum_per_class_orthogonal(self):
        ts = TrainingSet.from_states([(KET0, 0, 0.5), (KET1, 1, 0.5)])
        assert stc_classify(ts, KET0).expectation == pytest.approx(0.5)

    def test_symmetric_instance_is_zero(self):
        ts = TrainingSet.from_states([(KET0, 0, 0.5), (KET1, 1, 0.5)])
        assert abs(stc_classify(ts, PLUS).expectation) < 1e-12
