"""Covariance and the cyclic Jacobi eigensolver.

The solver is checked two independent ways: against closed-form 2x2
eigenvalues and against LAPACK (np.linalg.eigh), which shares no code
with the Jacobi implementation.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pcashrink import (
    DimMismatchError,
    EmptyDataError,
    NoConvergenceError,
    NonFiniteError,
    NotSymmetricError,
    anisotropic_gaussian,
    covariance,
    jacobi_eigendecomposition,
)
from pcashrink import matrix
from pcashrink.matrix import round_robin

THREE_POINTS = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


class TestCovariance:
    def test_three_point_oracle(self):
        # hand computation: mean (1/3, -1/3), C = [[8/9, 4/9], [4/9, 8/9]]
        C = covariance(THREE_POINTS)
        assert_allclose(C, np.array([[8.0, 4.0], [4.0, 8.0]]) / 9.0, atol=1e-15)

    def test_population_normalization(self):
        # two points at +-1 in one dimension: 1/N gives variance 1, not 2
        C = covariance([[1.0], [-1.0]])
        assert_allclose(C, [[1.0]], atol=1e-15)

    def test_single_sample_is_zero_matrix(self):
        assert_allclose(covariance([[3.0, -2.0, 5.0]]), np.zeros((3, 3)))

    def test_exactly_symmetric(self, small_corpus):
        for X, _ in small_corpus:
            C = covariance(X)
            assert np.array_equal(C, C.T)

    def test_positive_semidefinite(self, small_corpus):
        for X, _ in small_corpus:
            values = jacobi_eigendecomposition(covariance(X)).values
            floor = -1e-9 * max(1.0, float(values[0]))
            assert values[-1] >= floor, "covariance eigenvalue %g below %g" % (
                values[-1],
                floor,
            )

    def test_rejects_empty(self):
        with pytest.raises(EmptyDataError):
            covariance(np.empty((0, 3)))

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteError):
            covariance([[1.0, np.nan]])


class TestJacobi:
    def test_2x2_closed_form(self):
        pairs = jacobi_eigendecomposition(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert_allclose(pairs.values, [3.0, 1.0], atol=1e-12)
        root = 1.0 / np.sqrt(2.0)
        assert_allclose(pairs.vectors, [[root, root], [root, -root]], atol=1e-12)

    def test_diagonal_input_is_sorted_passthrough(self):
        pairs = jacobi_eigendecomposition(np.diag([1.0, 5.0, 3.0]))
        assert_allclose(pairs.values, [5.0, 3.0, 1.0])
        # columns are the matching standard basis vectors
        assert_allclose(pairs.vectors, np.eye(3)[:, [1, 2, 0]])

    def test_repeated_eigenvalue_keeps_orthonormal_basis(self):
        pairs = jacobi_eigendecomposition(4.0 * np.eye(4))
        assert_allclose(pairs.values, np.full(4, 4.0))
        assert_allclose(pairs.vectors, np.eye(4))

    def test_matches_lapack_on_random_symmetric(self):
        """Independent route: same spectra as np.linalg.eigvalsh."""
        rng = np.random.default_rng(99)
        for _ in range(60):
            n = int(rng.integers(1, 13))
            A = rng.standard_normal((n, n)) * rng.uniform(0.1, 10.0)
            S = (A + A.T) / 2.0
            got = jacobi_eigendecomposition(S)
            want = np.linalg.eigvalsh(S)[::-1]
            scale = max(1.0, float(np.max(np.abs(want))))
            assert_allclose(got.values, want, atol=1e-9 * scale, rtol=0)

    def test_invariants_on_random_symmetric(self, small_corpus):
        for X, _ in small_corpus:
            S = covariance(X)
            pairs = jacobi_eigendecomposition(S)
            n = S.shape[0]
            scale = max(1.0, float(np.max(np.abs(pairs.values))))
            gram = pairs.vectors.T @ pairs.vectors
            assert np.max(np.abs(gram - np.eye(n))) <= 1e-9, "columns not orthonormal"
            residual = S @ pairs.vectors - pairs.vectors * pairs.values
            assert np.max(np.abs(residual)) <= 1e-9 * scale, "S v != lambda v"
            assert abs(np.sum(pairs.values) - np.trace(S)) <= 1e-9 * scale, (
                "trace not preserved"
            )
            assert np.all(np.diff(pairs.values) <= 1e-15 * scale), (
                "eigenvalues not sorted non-increasing"
            )

    def test_sign_convention(self, small_corpus):
        for X, _ in small_corpus:
            vectors = jacobi_eigendecomposition(covariance(X)).vectors
            for k in range(vectors.shape[1]):
                col = vectors[:, k]
                assert col[int(np.argmax(np.abs(col)))] >= 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((7, 7))
        S = (A + A.T) / 2.0
        first = jacobi_eigendecomposition(S)
        second = jacobi_eigendecomposition(S)
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.vectors, second.vectors)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetricError):
            jacobi_eigendecomposition([[1.0, 2.0], [0.5, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(DimMismatchError):
            jacobi_eigendecomposition(np.ones((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(EmptyDataError):
            jacobi_eigendecomposition(np.empty((0, 0)))

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteError):
            jacobi_eigendecomposition([[np.nan, 0.0], [0.0, 1.0]])

    def test_no_convergence_carries_residual(self, monkeypatch):
        monkeypatch.setattr(matrix, "JACOBI_MAX_SWEEPS", 0)
        S = np.array([[2.0, 1.0], [1.0, 2.0]])
        with pytest.raises(NoConvergenceError) as info:
            jacobi_eigendecomposition(S)
        assert info.value.residual is not None
        assert info.value.residual > 0.0
        assert info.value.code == "no-convergence"

    @staticmethod
    def eigh_cases():
        rng = np.random.default_rng(41)
        cases = []
        for n in (2, 3, 7, 30, 101):
            A = rng.standard_normal((n, n)) * rng.uniform(0.1, 10.0)
            cases.append((A + A.T) / 2.0)
        cases.append(covariance(rng.standard_normal((300, 100)) * rng.uniform(0.1, 5.0, 100)))
        cases.append(np.diag([2.0, -1.0, 7.0, 0.0, 7.0]))
        # repeated eigenvalues 3, 3, 1, 1 in a random orthonormal basis
        Q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        cases.append(Q @ np.diag([3.0, 3.0, 1.0, 1.0]) @ Q.T)
        # some exact-zero off-diagonals, set in both triangles
        A = rng.standard_normal((6, 6))
        A = (A + A.T) / 2.0
        A[0, 3] = A[3, 0] = A[1, 5] = A[5, 1] = A[2, 4] = A[4, 2] = 0.0
        cases.append(A)
        cases.append(np.array([[1e20, 1e-3, 0.0], [1e-3, 2e20, 1.0], [0.0, 1.0, 1.0]]))
        cases.append(np.array([[-2.5]]))
        cases.append(np.zeros((4, 4)))
        return cases

    def test_matches_eigh(self):
        """Independent route: LAPACK's eigenvalues, and eigenpairs that
        satisfy S V = V diag(values) with orthonormal V, all to 1e-12 of
        the matrix's own scale."""
        for S in self.eigh_cases():
            n = S.shape[0]
            got = jacobi_eigendecomposition(S)
            want = np.linalg.eigh(S)[0][::-1]
            scale = float(np.max(np.abs(want)))
            assert np.max(np.abs(got.values - want)) <= 1e-12 * scale, n
            residual = S @ got.vectors - got.vectors * got.values
            assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(S), n
            gram = got.vectors.T @ got.vectors
            assert np.max(np.abs(gram - np.eye(n))) <= 1e-12, n

    def test_zero_matrix_takes_no_sweep(self):
        pairs = jacobi_eigendecomposition(np.zeros((5, 5)))
        assert pairs.sweeps == 0
        assert np.array_equal(pairs.values, np.zeros(5))
        assert np.array_equal(pairs.vectors, np.eye(5))

    def test_negligible_pivot_is_dropped(self):
        # pivot (0, 1) cannot move either diagonal entry and is dropped, so
        # 1e20 and 2e20 keep their basis vectors exactly (rotating it would
        # mix in 1e-23 of the other axis); pivot (2, 3) needs a sweep
        assert 1e20 + 100.0 * 1e-3 == 1e20
        S = np.array([[1e20, 1e-3, 0.0, 0.0], [1e-3, 2e20, 0.0, 0.0],
                      [0.0, 0.0, 1.0, 1e9], [0.0, 0.0, 1e9, 1.0]])
        pairs = jacobi_eigendecomposition(S)
        assert pairs.sweeps == 1
        assert pairs.values.tolist() == [2e20, 1e20, 1.0 + 1e9, 1.0 - 1e9]
        assert pairs.vectors[:, :2].tolist() == [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]

    @pytest.mark.parametrize("n", [*range(1, 13), 100, 101])
    def test_round_robin_schedule(self, n):
        P, Q = round_robin(n)
        assert P.shape == Q.shape == (n - 1 + n % 2, n // 2)
        assert np.all(P < Q) and np.all(Q < n)
        for p, q in zip(P, Q):
            assert np.unique(np.concatenate([p, q])).size == 2 * (n // 2), "round not disjoint"
        swept = sorted(zip(P.ravel().tolist(), Q.ravel().tolist()))
        assert swept == [(p, q) for p in range(n) for q in range(p + 1, n)]

    @pytest.mark.parametrize("n_samples, variances, sweeps", [
        (3000, [np.exp(-k / 25.0) for k in range(100)], 9),   # the fit-wide benchmark input
        (2000, [2.0 ** (-k / 2.0) for k in range(20)], 8),    # the sweep benchmark input
    ], ids=["fit-wide", "sweep"])
    def test_sweep_count_is_pinned(self, n_samples, variances, sweeps):
        """A solver change that needs more sweeps fails here; the count
        does not depend on timing, so it repeats exactly."""
        X = anisotropic_gaussian(n_samples, variances, seed=101).features
        assert jacobi_eigendecomposition(covariance(X)).sweeps == sweeps

    @pytest.mark.parametrize("c", [1e-30, 1.0, 1e30])
    def test_no_convergence_after_one_sweep(self, monkeypatch, c):
        monkeypatch.setattr(matrix, "JACOBI_MAX_SWEEPS", 1)
        A = np.random.default_rng(43).standard_normal((6, 6))
        S = (A + A.T) / 2.0 * c
        with pytest.raises(NoConvergenceError) as info:
            jacobi_eigendecomposition(S)
        # the off-diagonal norm left, in the units of S
        residual = info.value.residual
        assert np.isfinite(residual)
        assert 1e-12 * np.linalg.norm(S) < residual < np.linalg.norm(S)
