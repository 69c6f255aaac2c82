import tracemalloc

import numpy as np
import pytest
from helpers import basis_state, maximally_mixed, random_density_matrix, reconstruct

from qkclass import qmath
from qkclass.errors import DataError, DimensionError, NumericError
from qkclass.qmath import (DensityMatrix, HermitianSpectrum, QState, fidelity,
                           hs_inner, partial_trace, random_state_vector, tensor)


def brute_force_partial_trace(mat, dims, keep):
    """Definition-level index contraction, independent of the library path."""
    dims = list(dims)
    n = len(dims)
    keep = sorted(keep)
    traced = [i for i in range(n) if i not in keep]
    d_keep = int(np.prod([dims[i] for i in keep]))
    out = np.zeros((d_keep, d_keep), dtype=complex)
    for row in range(mat.shape[0]):
        for col in range(mat.shape[1]):
            ri = np.unravel_index(row, dims)
            ci = np.unravel_index(col, dims)
            if any(ri[t] != ci[t] for t in traced):
                continue
            r_keep = np.ravel_multi_index([ri[i] for i in keep],
                                          [dims[i] for i in keep]) if keep else 0
            c_keep = np.ravel_multi_index([ci[i] for i in keep],
                                          [dims[i] for i in keep]) if keep else 0
            out[r_keep, c_keep] += mat[row, col]
    return out


class TestTensor:
    def test_basis_state_composition(self):
        zero, one = basis_state(2, 0), basis_state(2, 1)
        assert np.array_equal(tensor(zero, one), np.array([0, 1, 0, 0], dtype=complex))

    def test_identity(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    @pytest.mark.parametrize("shapes", [
        [(2,), (4,), (2,)], [(2, 2), (8, 8)], [(4, 4), (4,)], [(3,), (2, 5), (3, 1)]])
    def test_equals_numpy_kron(self, shapes):
        rng = np.random.default_rng(len(shapes))
        ops = [rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes]
        expect = ops[0]
        for op in ops[1:]:
            expect = np.kron(expect, op)
        assert np.array_equal(tensor(*ops), expect)

    def test_zz_eigenvalue_on_11(self):
        zz = tensor(qmath.SIGMA_Z, qmath.SIGMA_Z)
        ket11 = tensor(basis_state(2, 1), basis_state(2, 1))
        assert np.allclose(zz @ ket11, ket11)

    def test_dimension_cap(self):
        big = np.zeros(2**11, dtype=complex)
        big[0] = 1.0
        with pytest.raises(DimensionError):
            tensor(big, big)

    def test_budget_checked_before_allocating(self):
        # Zero-stride operands hold one element each; their products would
        # be 2**18 x 2**18 complex entries, 2**40 bytes.
        op = np.broadcast_to(np.complex128(1.0), (2**9, 2**9))
        tracemalloc.start()
        try:
            with pytest.raises(DimensionError):
                tensor(op, op)
            with pytest.raises(DimensionError):
                qmath.register_permutation_matrix((2**9, 2**9), (1, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestPartialTrace:
    def test_bell_state_reduction(self):
        bell = (tensor(basis_state(2, 0), basis_state(2, 0))
                + tensor(basis_state(2, 1), basis_state(2, 1))) / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        for keep in ([0], [1]):
            reduced = partial_trace(rho, [2, 2], keep)
            assert np.allclose(reduced, np.eye(2) / 2, atol=1e-12)

    def test_product_state_factorization(self):
        rng = np.random.default_rng(7)
        rho = random_density_matrix(2, rng)
        sigma = random_density_matrix(4, rng)
        joint = tensor(rho.entries, sigma.entries)
        assert np.allclose(partial_trace(joint, [2, 4], [0]), rho.entries, atol=1e-12)
        assert np.allclose(partial_trace(joint, [2, 4], [1]), sigma.entries, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("keep", [[0], [1]])
    def test_against_definition_level_contraction(self, seed, keep):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(4, rng)
        got = partial_trace(rho, [2, 2], keep)
        expect = brute_force_partial_trace(rho.entries, [2, 2], keep)
        assert np.allclose(got.entries, expect, atol=1e-12)
        assert abs(np.trace(got.entries) - 1.0) < 1e-12

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_three_register_contraction(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(8, rng)
        got = partial_trace(rho.entries, [2, 2, 2], [0, 2])
        expect = brute_force_partial_trace(rho.entries, [2, 2, 2], [0, 2])
        assert np.allclose(got, expect, atol=1e-12)

    def test_dims_mismatch(self):
        with pytest.raises(DimensionError):
            partial_trace(np.eye(4) / 4, [2, 3], [0])


class TestSimilarityMeasures:
    def test_hs_inner_maximally_mixed(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            rho = random_density_matrix(2, rng)
            assert abs(hs_inner(maximally_mixed(2), rho) - 0.5) < 1e-12

    def test_hs_inner_pure_pairs(self):
        ket0 = QState(basis_state(2, 0)).to_density()
        plus = QState(np.array([1, 1]) / np.sqrt(2)).to_density()
        assert abs(hs_inner(ket0, ket0) - 1.0) < 1e-12
        assert abs(hs_inner(ket0, plus) - 0.5) < 1e-12

    def test_hs_inner_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = random_density_matrix(4, rng)
            b = random_density_matrix(4, rng)
            assert abs(hs_inner(a, b) - hs_inner(b, a)) < 1e-12

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
    def test_fidelity_against_maximally_mixed(self, eps):
        rho = DensityMatrix(np.diag([eps, 1 - eps]).astype(complex), check_psd=False)
        expect = 0.5 + np.sqrt(eps * (1 - eps))
        assert abs(fidelity(maximally_mixed(2), rho) - expect) < 1e-10

    def test_fidelity_pure_state_case(self):
        pure = QState(basis_state(2, 0)).to_density()
        assert abs(fidelity(maximally_mixed(2), pure) - 0.5) < 1e-10

    def test_self_fidelity(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            rho = random_density_matrix(4, rng)
            assert abs(fidelity(rho, rho) - 1.0) < 1e-10

    def test_fidelity_equals_hs_for_pure_states(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = random_state_vector(4, rng)
            y = random_state_vector(4, rng)
            overlap_sq = abs(x.overlap(y)) ** 2
            assert abs(fidelity(x.to_density(), y.to_density()) - overlap_sq) < 1e-10
            assert abs(hs_inner(x.to_density(), y.to_density()) - overlap_sq) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            hs_inner(maximally_mixed(2), maximally_mixed(4))
        with pytest.raises(DimensionError):
            fidelity(maximally_mixed(2), maximally_mixed(4))


class TestTypes:
    def test_qstate_rejects_unnormalized(self):
        with pytest.raises(NumericError):
            QState([1.0, 1.0])

    def test_qstate_rejects_non_power_of_two(self):
        with pytest.raises(DimensionError):
            QState([1.0, 0.0, 0.0])

    def test_density_matrix_rejects_non_hermitian(self):
        with pytest.raises(NumericError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_density_matrix_rejects_bad_trace(self):
        with pytest.raises(NumericError):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_density_matrix_rejects_negative(self):
        with pytest.raises(NumericError):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_density_matrix_rejects_nan(self):
        # A NaN entry makes the Hermiticity gap NaN, which must fail the check.
        with pytest.raises(NumericError, match="Hermitian"):
            DensityMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_nan_trace_fails_the_trace_check(self, monkeypatch):
        # Only a NaN entry gives a NaN trace, and it fails the Hermiticity
        # check first; a patched trace reaches the trace check itself.
        with monkeypatch.context() as patch:
            patch.setattr(np, "trace", lambda mat: complex("nan"))
            with pytest.raises(NumericError, match="trace"):
                DensityMatrix(np.eye(2) / 2)

    def test_nan_eigenvalue_fails_the_floor_check(self, monkeypatch):
        rho = DensityMatrix(np.eye(2) / 2, check_psd=False)
        monkeypatch.setattr(DensityMatrix, "min_eigenvalue", lambda self: float("nan"))
        with pytest.raises(NumericError, match="minimum eigenvalue"):
            rho.validate_psd()
        with pytest.raises(NumericError, match="minimum eigenvalue"):
            rho.validate()

    def test_values_are_immutable(self):
        state = QState(basis_state(2, 0))
        with pytest.raises(ValueError):
            state.vec[0] = 5.0
        with pytest.raises(AttributeError):
            state.vec = basis_state(2, 1)

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            qmath.as_cvec([np.nan, 1.0])

    @pytest.mark.parametrize("build", [DensityMatrix, HermitianSpectrum.of])
    def test_empty_matrix_rejected(self, build):
        with pytest.raises(DimensionError, match="empty"):
            build(np.zeros((0, 0)))


class TestSpectrum:
    @pytest.mark.parametrize("dim", [2, 8, 17, 64])
    def test_reconstruction(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        herm = (a + a.conj().T) / 2
        spec = HermitianSpectrum.of(herm)
        assert np.linalg.norm(reconstruct(spec) - herm) < 1e-10
        assert np.all(np.diff(spec.eigenvalues) <= 1e-12)

    def test_eigenvectors_orthonormal(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        spec = HermitianSpectrum.of((a + a.conj().T) / 2)
        gram = spec.eigenvectors.conj().T @ spec.eigenvectors
        assert np.allclose(gram, np.eye(6), atol=1e-12)


class TestPermutations:
    def test_round_trip(self):
        rng = np.random.default_rng(11)
        dims = (2, 3, 2)
        vec = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        moved = qmath.register_permutation_matrix(dims, (2, 0, 1)) @ vec
        back = qmath.register_permutation_matrix((2, 2, 3), (1, 2, 0)) @ moved
        assert np.allclose(back, vec)

    @pytest.mark.parametrize("order", [(0, 0), (0, 1, 2), (1,), (0, 2), (-1, 0)])
    def test_non_permutation_order_rejected_before_allocating(self, order):
        tracemalloc.start()
        try:
            with pytest.raises(DimensionError, match="not a permutation"):
                qmath.register_permutation_matrix((2**9, 2**9), order)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_matrix_permutation_matches_matrix_builder(self):
        rng = np.random.default_rng(12)
        dims = (2, 2, 2)
        mat = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        order = (1, 0, 2)
        p = qmath.register_permutation_matrix(dims, order)
        # Definition-level reference: swap the first two factors' index bits.
        expect = mat.reshape(2, 2, 2, 2, 2, 2).transpose(1, 0, 2, 4, 3, 5).reshape(8, 8)
        assert np.allclose(p @ mat @ p.T, expect)
