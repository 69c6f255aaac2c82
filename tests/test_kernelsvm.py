import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import basis_state, maximally_mixed, random_density_matrix
from smo_reference import reference_smo

from qkclass import constants, kernelsvm, qmath
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
        # hs-trace takes pure states as vectors: Tr(|a><a| |b><b|) = |<a|b>|**2.
        assert (kernel_eval(KernelSpec(HS_TRACE), KET0, PLUS)
                == kernel_eval(KernelSpec(SQUARED_OVERLAP), KET0, PLUS))
        with pytest.raises(DataError, match="homogeneous inputs: all QState"):
            kernel_eval(KernelSpec(SQUARED_OVERLAP), KET0, KET0.to_density())
        with pytest.raises(DataError, match="cannot pair pure-state vectors with density"):
            kernel_eval(KernelSpec(HS_TRACE), KET0, KET0.to_density())

    def test_bad_spec(self):
        with pytest.raises(DataError):
            KernelSpec("polynomial")
        with pytest.raises(DataError):
            KernelSpec(SQUARED_OVERLAP, k=0)

    @pytest.mark.parametrize("k", [1.5, True, 0, 2.0])
    def test_copy_exponent_must_be_an_integer_of_at_least_one(self, k):
        # TrainingSet's rule: a bool or a non-integral k is no copy count.
        with pytest.raises(DataError, match="integer >= 1"):
            KernelSpec(SQUARED_OVERLAP, k)

    def test_numpy_integer_copy_exponent_accepted(self):
        spec = KernelSpec(SQUARED_OVERLAP, np.int64(2))
        assert kernel_eval(spec, KET0, PLUS) == pytest.approx(0.25)


class TestKernelMatrix:
    def test_real_overlap_of_a_float_stack_against_a_complex_one(self):
        # A float and a complex stack are paired as two complex stacks.
        rng = np.random.default_rng(41)
        real = rng.normal(size=(3, 4))
        cplx = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
        spec = KernelSpec(REAL_OVERLAP, k=2)
        mixed = kernel_matrix(spec, real, cplx)
        assert mixed.dtype == np.float64
        assert np.array_equal(mixed, kernel_matrix(spec, real.astype(complex), cplx))
        assert np.array_equal(kernel_matrix(spec, cplx, real),
                              kernel_matrix(spec, cplx, real.astype(complex)))

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
                                            (HS_TRACE, np.array([[np.nan, 0.0]]))])
    def test_nan_stack_fails_the_range_check(self, kind, stack):
        # NaN kernel values must fail the [0, 1] check, not pass it as NaN.
        # (A NaN matrix stack fails the Hermitian check before any product.)
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

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_product_checked_against_the_size_budget(self, monkeypatch, kind):
        # The (rows, cols) complex product is checked before it is formed: at
        # a 1000-byte budget, 16 * 50 = 800 bytes pass and 16 * 100 do not.
        rng = np.random.default_rng(612)
        states = random_inputs(kind, rng, 100, 2)
        vecs = encode_rows(rng.standard_normal((100, 2)))[0]
        monkeypatch.setattr(constants, "DENSE_BYTES_BUDGET", 1000)
        assert kernel_matrix(KernelSpec(kind), states[:1], states[:50]).shape == (1, 50)
        with pytest.raises(DimensionError, match=r"kernel matrix of shape \(1, 100\)"):
            kernel_matrix(KernelSpec(kind), states[:1], states)
        with pytest.raises(DimensionError, match=r"kernel matrix of shape \(100, 100\)"):
            gram(KernelSpec(kind), states)
        with pytest.raises(DimensionError, match=r"kernel matrix of shape \(100, 100\)"):
            gram(KernelSpec(kind), vecs)

    @pytest.mark.parametrize("make", [
        lambda rng: 0.3 * (rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))),
        lambda rng: np.full((1, 2, 2), np.nan),
        # Hermitian but for one entry moved by 2e-12 (5e-13 passes).
        lambda rng: np.stack([np.eye(2) / 2, np.array([[0.5, 2e-12], [0.0, 0.5]])])])
    def test_non_hermitian_stack_rejected(self, make):
        raw = make(np.random.default_rng(611))
        for call in (lambda: kernel_matrix(KernelSpec(HS_TRACE), raw, raw),
                     lambda: kernel_matrix(KernelSpec(HS_TRACE), [maximally_mixed(2)], raw),
                     lambda: gram(KernelSpec(HS_TRACE), raw)):
            with pytest.raises(NumericError, match="hs-trace kernel input is not Hermitian"):
                call()
        near = np.stack([np.eye(2) / 2, np.array([[0.5, 5e-13], [0.0, 0.5]])])
        assert kernel_matrix(KernelSpec(HS_TRACE), near, near).shape == (2, 2)

    def test_vectors_and_matrices_are_not_mixed(self):
        rho = maximally_mixed(2)
        vecs = np.stack([KET0.vec, PLUS.vec])
        for rows, cols in (([KET0], [rho]), ([rho], [KET0]), (vecs, [rho]),
                           (vecs, rho.entries[None]), ([KET0, rho], [KET0]),
                           ([rho, KET0], [rho])):
            with pytest.raises(DataError, match="pure-state vectors|all QState, or all Dens"):
                kernel_matrix(KernelSpec(HS_TRACE), rows, cols)
        with pytest.raises(DataError, match="all QState, or all DensityMatrix"):
            gram(KernelSpec(HS_TRACE), [KET0, rho])
        for kind in (SQUARED_OVERLAP, REAL_OVERLAP):
            with pytest.raises(DimensionError, match="cannot take a stack of shape"):
                kernel_matrix(KernelSpec(kind), rho.entries[None], rho.entries[None])


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

    @pytest.mark.parametrize("matrix", [np.ones((2, 3)), np.ones(4), np.ones((2, 2, 2))])
    def test_non_square_matrix_rejected(self, matrix):
        with pytest.raises(DimensionError, match="square"):
            GramMatrix(matrix, KernelSpec(SQUARED_OVERLAP))

    def test_nested_list_trains_like_its_array(self):
        rows = [[2.0, 0.5], [0.5, 1.0]]
        spec = KernelSpec(SQUARED_OVERLAP)
        from_list = svm_train(GramMatrix(rows, spec), [0, 1])
        from_array = svm_train(GramMatrix(np.array(rows), spec), [0, 1])
        assert np.array_equal(from_list.multipliers, from_array.multipliers)
        assert from_list.bias == from_array.bias

    def test_gram_array_is_kept_uncopied(self):
        g = gram(KernelSpec(SQUARED_OVERLAP), [KET0, PLUS])
        assert GramMatrix(g.matrix, g.kernel).matrix is g.matrix

    @pytest.mark.parametrize("as_states", [False, True])
    def test_hs_trace_gram_of_pure_states_is_the_squared_overlap_gram(self, as_states):
        # Tr(|a><a| |b><b|) = |<a|b>|**2, so the hs-trace Gram of unit
        # vectors builds no (m, d, d) projector stack (20 MiB here).
        rng = np.random.default_rng(605)
        states = [random_state_vector(256, rng) for _ in range(20)]
        vecs = np.stack([s.vec for s in states])
        given = states if as_states else vecs
        spec = KernelSpec(HS_TRACE, k=2)
        tracemalloc.start()
        try:
            g = gram(spec, given)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        overlap = gram(KernelSpec(SQUARED_OVERLAP, k=2), given)
        assert g.kernel == spec
        assert np.array_equal(g.matrix, overlap.matrix)
        assert g._psd_bound[1] == overlap._psd_bound[1]
        assert np.array_equal(kernel_matrix(spec, given[:3], given),
                              kernel_matrix(KernelSpec(SQUARED_OVERLAP, k=2), given[:3], given))
        assert np.abs(g.matrix - gram(spec, qmath.projectors(vecs)).matrix).max() < 1e-12


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


def spectrum_matrix(n, t, norm, seed):
    """Q diag(lam) Q^T, exactly symmetric, with largest eigenvalue ``norm``
    and smallest -t times the size of psd_certify's threshold at that norm."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(0.0, norm, n)
    lam[0], lam[-1] = -t * 1e-8 * max(1.0, norm), norm
    matrix = (q * lam) @ q.T
    return (matrix + matrix.T) / 2


def refusal(cert):
    return f"Gram matrix is not PSD (min eigenvalue {cert.min_eigenvalue}); refusing"


@pytest.fixture
def certify_calls(monkeypatch):
    """The matrices svm_train hands to psd_certify."""
    calls = []

    def spy(g):
        calls.append(g)
        return psd_certify(g)

    monkeypatch.setattr(kernelsvm, "psd_certify", spy)
    return calls


def forbid(monkeypatch, name):
    """Make np.linalg.<name> fail the test wherever it is called."""
    def fail(*args, **kwargs):
        raise AssertionError(f"np.linalg.{name} called")

    monkeypatch.setattr(np.linalg, name, fail)


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

    def test_unconverged_error_names_gap_and_box(self, monkeypatch):
        # Random labels on a rank-6 Gram: not separable, so at C=1e6 the
        # multipliers creep towards C and a few iterations leave a gap.
        rng = np.random.default_rng(613)
        x = rng.standard_normal((40, 6))
        matrix = x @ x.T
        g = GramMatrix(matrix, KernelSpec(SQUARED_OVERLAP), np.linalg.eigvalsh(matrix))
        labels = np.arange(40) % 2
        rng.shuffle(labels)
        with monkeypatch.context() as patch, \
                pytest.raises(NumericError, match="SMO did not reach tolerance") as info:
            patch.setattr(kernelsvm, "MAX_SMO_ITER", 20)
            svm_train(g, labels)
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
    def test_box_constraint_must_be_finite_and_positive(self, monkeypatch, C):
        # C is checked before the PSD gate: a non-PSD Gram with a bad C is a
        # data error, and neither certificate runs.
        forbid(monkeypatch, "cholesky")
        forbid(monkeypatch, "eigvalsh")
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(DataError, match="finite and positive"):
            svm_train(GramMatrix(bad, KernelSpec(SQUARED_OVERLAP)), [0, 1], C=C)

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


class TestPsdGate:
    """svm_train certifies a Gram from gram() by its rounding bound and
    leaves every other case to psd_certify: the verdict and the refusal must
    be psd_certify's on every input, and a hand-built Gram always reaches
    psd_certify."""

    @pytest.mark.parametrize("norm", [1.0, 250.0])
    @pytest.mark.parametrize("t", [0, 0.3, 0.5, 0.9, 0.999, 1.001, 1.1, 2])
    @pytest.mark.parametrize("n", [2, 40, 300])
    def test_verdict_and_refusal_are_psd_certifys(self, certify_calls, n, t, norm):
        matrix = spectrum_matrix(n, t, norm, seed=n)
        cert = psd_certify(matrix)
        assert cert.certified == (t < 1)
        g = GramMatrix(matrix, KernelSpec(SQUARED_OVERLAP))
        labels = np.arange(n) % 2
        if cert.certified:
            svm_train(g, labels, C=1.0)
        else:
            with pytest.raises(NumericError) as info:
                svm_train(g, labels, C=1.0)
            assert str(info.value) == refusal(cert)
        assert certify_calls == [g]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
    def test_non_finite_entries_take_the_exact_path(self, certify_calls, bad, where):
        matrix = spectrum_matrix(6, 0, 1.0, seed=1)
        i, j = (2, 2) if where == "diagonal" else (1, 4)
        matrix[i, j] = matrix[j, i] = bad
        # eigvalsh may return NaN or raise on such a matrix; either way the
        # outcome must be psd_certify's.
        try:
            cert = psd_certify(matrix)
        except np.linalg.LinAlgError as exc:
            want = pytest.raises(np.linalg.LinAlgError, match=re.escape(str(exc)))
        else:
            assert not cert.certified
            want = pytest.raises(NumericError, match=re.escape(refusal(cert)))
        g = GramMatrix(matrix, KernelSpec(SQUARED_OVERLAP))
        with want:
            svm_train(g, np.arange(6) % 2)
        assert certify_calls == [g]

    def test_nearly_symmetric_matrix_takes_the_exact_path(self, monkeypatch, certify_calls):
        forbid(monkeypatch, "cholesky")
        matrix = spectrum_matrix(40, 0, 1.0, seed=2)
        within, beyond = matrix.copy(), matrix.copy()
        within[3, 7] += 5e-13
        beyond[3, 7] += 2e-12
        labels = np.arange(40) % 2
        g = GramMatrix(within, KernelSpec(SQUARED_OVERLAP))
        model = svm_train(g, labels, C=1.0)
        assert certify_calls == [g]
        assert model.multipliers.sum() > 0
        with pytest.raises(NumericError, match="PSD certification requires a symmetric matrix"):
            svm_train(GramMatrix(beyond, KernelSpec(SQUARED_OVERLAP)), labels, C=1.0)

    def test_a_given_spectrum_is_used_as_given(self, monkeypatch, certify_calls):
        forbid(monkeypatch, "cholesky")
        forbid(monkeypatch, "eigvalsh")
        given_eigs = np.array([-1.0, 1.0])
        g = GramMatrix(np.eye(2), KernelSpec(SQUARED_OVERLAP), given_eigs)
        assert g.eigenvalues is given_eigs
        with pytest.raises(NumericError, match=re.escape("(min eigenvalue -1.0); refusing")):
            svm_train(g, [0, 1])
        assert certify_calls == [g]


def bound_certifies(g):
    """The test svm_train applies to a Gram's rounding bound."""
    return g._psd_bound[1] <= ((0.5e-8 - g.size ** 2 * (np.finfo(float).eps / 2))
                               * max(1.0, g.matrix.diagonal().max()))


def real_density_stack(rng, n, dim):
    """n real symmetric density matrices, each at least 1/2 of I / dim."""
    stack = np.empty((n, dim, dim))
    for i in range(n):
        v = rng.standard_normal((dim, dim))
        rho = v @ v.T
        stack[i] = 0.5 * np.eye(dim) / dim + 0.5 * rho / np.trace(rho)
    return stack


def sweep_inputs(kind, raw, n, dim, rng):
    """States or raw stacks of every shape gram() accepts. Raw vectors need
    not be unit; a raw hs-trace stack scales Hermitian density matrices by
    1 - raw t_i, t_i in [0, 0.8), so every value stays in [0, 1]."""
    if not raw:
        return random_inputs(kind, rng, n, dim)
    if kind != HS_TRACE:
        vecs = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        scale = rng.uniform(0.2, 1.0, n) if kind == SQUARED_OVERLAP else rng.uniform(0.1, 10, n)
        return vecs * scale[:, None]
    return real_density_stack(rng, n, dim) * (1 - raw * rng.uniform(0, 0.8, n))[:, None, None]


class TestPsdByConstruction:
    """gram() bounds how far rounding and the clamp moved lambda_min below 0,
    and svm_train certifies from that bound alone when it is small enough."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(KERNEL_KINDS), k=st.integers(1, 3), n=st.integers(2, 40),
           dim=st.sampled_from([2, 4, 8]), raw=st.sampled_from([0, 1e-6, 1.0]),
           seed=st.integers(0, 2**16))
    def test_bound_holds_and_the_verdict_is_psd_certifys(self, kind, k, n, dim, raw, seed):
        rng = np.random.default_rng(seed)
        g = gram(KernelSpec(kind, k), sweep_inputs(kind, raw, n, dim, rng))
        assert np.isfinite(g._psd_bound[1])
        assert g._psd_bound[1] >= -np.linalg.eigvalsh(g.matrix)[0]
        labels = np.arange(n) % 2
        cert = psd_certify(GramMatrix(g.matrix, g.kernel))
        if cert.certified:
            svm_train(g, labels, C=1.0)
        else:
            with pytest.raises(NumericError) as info:
                svm_train(g, labels, C=1.0)
            assert str(info.value) == refusal(cert)
        if bound_certifies(g):
            assert cert.certified

    @pytest.mark.parametrize("n, k, by_bound", [(40, 1, True), (40, 2, False), (120, 1, False)])
    def test_clamp_near_the_tolerance_falls_back(self, certify_calls, n, k, by_bound):
        # |x|**4 = 1 + 0.9e-10 on the diagonal, clamped to 1: n k 0.9e-10
        # passes the bound's budget at n = 40, k = 2 and at n = 120.
        rng = np.random.default_rng(n + k)
        vecs = np.stack([random_state_vector(4, rng).vec for _ in range(n)])
        g = gram(KernelSpec(SQUARED_OVERLAP, k), vecs * (1 + 0.9e-10) ** 0.25)
        assert g._psd_bound[1] >= n * k * 0.89e-10
        assert bound_certifies(g) == by_bound
        svm_train(g, np.arange(n) % 2, C=1.0)
        assert certify_calls == ([] if by_bound else [g])
        assert psd_certify(g).certified

    @pytest.mark.parametrize("sign", [1, -1])
    def test_anti_hermitian_parts_are_refused_up_front(self, certify_calls, sign):
        # A = I/2 + K and I/2 + sign K, K real antisymmetric: Tr(A_i A_j) is
        # real, but A is no Hermitian matrix, so no Gram (and no bound for
        # its anti-Hermitian parts) is formed.
        half, k0 = np.eye(2) / 2, np.array([[0.0, 0.3], [-0.3, 0.0]])
        with pytest.raises(NumericError, match="not Hermitian within 1e-12"):
            gram(KernelSpec(HS_TRACE), np.stack([half + k0, half + sign * k0]))
        assert certify_calls == []

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_large_raw_norms_certify_by_the_relative_bound(self, monkeypatch, certify_calls,
                                                          k):
        # Row norms up to 10: S grows with max ||x_i||**(2k), past the
        # absolute budget 0.5e-8 at k = 3, but stays far below the budget
        # scaled by max_i G_ii = max ||x_i||**(2k).
        rng = np.random.default_rng(730 + k)
        vecs = rng.standard_normal((40, 4)) + 1j * rng.standard_normal((40, 4))
        vecs *= (rng.uniform(0.1, 10, 40) / np.linalg.norm(vecs, axis=1))[:, None]
        g = gram(KernelSpec(REAL_OVERLAP, k), vecs)
        assert (g._psd_bound[1] + 40 ** 2 * np.finfo(float).eps / 2 <= 0.5e-8) == (k < 3)
        forbid(monkeypatch, "cholesky")
        forbid(monkeypatch, "eigvalsh")
        svm_train(g, np.arange(40) % 2, C=1.0)
        assert certify_calls == []

    @pytest.mark.parametrize("kind, k, m", [(HS_TRACE, 1, 300), (SQUARED_OVERLAP, 1, 400),
                                            (SQUARED_OVERLAP, 3, 100), (REAL_OVERLAP, 2, 100),
                                            (HS_TRACE, 2, 60)])
    def test_training_on_a_gram_output_runs_no_certificate(self, monkeypatch, certify_calls,
                                                           kind, k, m):
        rng = np.random.default_rng(700 + m + k)
        states = random_inputs(kind, rng, m, 4)
        labels = np.arange(m) % 2
        forbid(monkeypatch, "cholesky")
        forbid(monkeypatch, "eigvalsh")
        grams = [gram(KernelSpec(kind, k), states)]
        if kind != HS_TRACE:
            grams.append(gram(KernelSpec(kind, k), np.stack([s.vec for s in states])))
        for g in grams:
            assert g._psd_bound[1] < 1e-10
            svm_train(g, labels, C=1.0)
        assert certify_calls == []

    @pytest.mark.parametrize("kind", [REAL_OVERLAP, SQUARED_OVERLAP])
    def test_single_precision_stack_is_trained_in_double(self, monkeypatch, certify_calls,
                                                         kind):
        # Rows a little inside the unit sphere: rounded to single precision
        # they stay there, so no squared overlap exceeds 1.
        rng = np.random.default_rng(720)
        stack = np.stack([random_state_vector(4, rng).vec for _ in range(6)]) * (1 - 1e-6)
        single = stack.astype(np.complex64)
        g = gram(KernelSpec(kind), single)
        assert g.matrix.dtype == np.float64
        assert np.array_equal(g.matrix, gram(KernelSpec(kind), single.astype(complex)).matrix)
        forbid(monkeypatch, "cholesky")
        forbid(monkeypatch, "eigvalsh")
        svm_train(g, np.arange(6) % 2, C=1.0)
        assert certify_calls == []
        # A double-precision stack enters the kernel as it is, uncopied.
        for given in (stack, stack.real.copy()):
            assert kernelsvm._stack(SQUARED_OVERLAP, given) is given

    def test_a_hand_built_gram_always_reaches_psd_certify(self, certify_calls):
        rng = np.random.default_rng(710)
        g = gram(KernelSpec(HS_TRACE), random_inputs(HS_TRACE, rng, 40, 4))
        labels = np.arange(40) % 2
        hand = [GramMatrix(g.matrix, g.kernel),
                GramMatrix(g.matrix, g.kernel, np.linalg.eigvalsh(g.matrix))]
        for h in hand:
            svm_train(h, labels, C=1.0)
        assert certify_calls == hand
        # A gram() output given another matrix no longer carries its bound.
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        g = gram(KernelSpec(SQUARED_OVERLAP), [KET0, KET1])
        g.matrix = bad
        with pytest.raises(NumericError, match=re.escape(refusal(psd_certify(bad)))):
            svm_train(g, [0, 1], C=1.0)
        assert certify_calls == hand + [g]


class TestSpectrumOnFirstRead:
    @pytest.mark.parametrize("kind, m", [(HS_TRACE, 300), (SQUARED_OVERLAP, 400)])
    def test_training_computes_no_spectrum(self, monkeypatch, kind, m):
        rng = np.random.default_rng(620 + m)
        if kind == HS_TRACE:
            states = random_inputs(kind, rng, m, 4)
            labels = np.arange(m) % 2
            rng.shuffle(labels)
        else:
            ds = gen_toy("separable", m, 8, 621, 0.25)
            states, labels = encode_rows(ds.features)[0], ds.labels
        spec = KernelSpec(kind)
        eigvalsh = np.linalg.eigvalsh
        forbid(monkeypatch, "eigvalsh")
        g = gram(spec, states)
        model = svm_train(g, labels, C=10.0)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        eager = svm_train(GramMatrix(g.matrix, spec, eigvalsh(g.matrix)), labels, C=10.0)
        assert repr(model.multipliers.tolist()) == repr(eager.multipliers.tolist())
        assert repr(model.bias) == repr(eager.bias)
        eigs = g.eigenvalues
        assert np.array_equal(eigs, eigvalsh(g.matrix))
        assert g.eigenvalues is eigs
        assert not eigs.flags.writeable
        with pytest.raises(ValueError):
            eigs[0] = 0.0


class TestRegression:
    def test_one_state_per_multiplier(self):
        g = GramMatrix(np.eye(3), KernelSpec(SQUARED_OVERLAP), np.ones(3))
        model = svm_train(g, [0, 1, 0], C=10.0)
        with pytest.raises(DataError, match="2 states for 3 multipliers"):
            regression(model, [KET0, KET1], PLUS)

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
