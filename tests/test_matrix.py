"""Covariance, distances, and the cyclic Jacobi eigensolver.

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
    covariance,
    euclidean_distance,
    jacobi_eigendecomposition,
)

THREE_POINTS = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


def reference_jacobi(S, tol=1e-12, max_sweeps=100):
    """The solver's pivot loop written out with separate row, column and
    eigenvector rotations and a per-column sign loop; the solver must
    match it bit for bit. Returns (values, vectors) or raises
    NoConvergenceError like the solver."""
    A = np.asarray(S, dtype=float)
    n = A.shape[0]
    A = (A + A.T) / 2.0
    V = np.eye(n)
    stop = tol * (1.0 + float(np.sqrt(np.sum(A * A))))

    def offdiag(A):
        off = A - np.diag(np.diag(A))
        return float(np.sqrt(np.sum(off * off)))

    sweeps = 0
    residual = offdiag(A)
    while residual > stop:
        if sweeps >= max_sweeps:
            raise NoConvergenceError("no convergence", residual=residual)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if apq == 0.0:
                    continue
                g = 100.0 * abs(apq)
                if abs(A[p, p]) + g == abs(A[p, p]) and abs(A[q, q]) + g == abs(A[q, q]):
                    A[p, q] = 0.0
                    A[q, p] = 0.0
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = 1.0 / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                app, aqq = A[p, p], A[q, q]
                col_p = A[:, p].copy()
                col_q = A[:, q].copy()
                A[:, p] = c * col_p - s * col_q
                A[:, q] = s * col_p + c * col_q
                row_p = A[p, :].copy()
                row_q = A[q, :].copy()
                A[p, :] = c * row_p - s * row_q
                A[q, :] = s * row_p + c * row_q
                A[p, p] = app - t * apq
                A[q, q] = aqq + t * apq
                A[p, q] = 0.0
                A[q, p] = 0.0
                v_p = V[:, p].copy()
                v_q = V[:, q].copy()
                V[:, p] = c * v_p - s * v_q
                V[:, q] = s * v_p + c * v_q
        sweeps += 1
        residual = offdiag(A)

    values = np.diag(A).copy()
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = V[:, order]
    for k in range(n):
        col = vectors[:, k]
        if col[int(np.argmax(np.abs(col)))] < 0.0:
            vectors[:, k] = -col
    return values, vectors


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


class TestEuclideanDistance:
    def test_hand_values(self):
        assert euclidean_distance([0.0, 0.0], [3.0, 4.0]) == 5.0
        assert euclidean_distance([2.0], [2.0]) == 0.0

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, b, c = rng.standard_normal((3, 4)) * 3
            assert euclidean_distance(a, b) == euclidean_distance(b, a)
            assert euclidean_distance(a, c) <= (
                euclidean_distance(a, b) + euclidean_distance(b, c) + 1e-12
            )

    def test_length_mismatch(self):
        with pytest.raises(DimMismatchError):
            euclidean_distance([1.0, 2.0], [1.0])

    def test_non_finite(self):
        with pytest.raises(NonFiniteError):
            euclidean_distance([np.inf, 0.0], [0.0, 0.0])


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

    def test_no_convergence_carries_residual(self):
        S = np.array([[2.0, 1.0], [1.0, 2.0]])
        with pytest.raises(NoConvergenceError) as info:
            jacobi_eigendecomposition(S, max_sweeps=0)
        assert info.value.residual is not None
        assert info.value.residual > 0.0
        assert info.value.code == "no-convergence"

    def test_matches_reference_loop_bit_for_bit(self):
        rng = np.random.default_rng(41)
        cases = []
        for n in (2, 3, 7, 30):
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
        # pivot (0, 1) is negligible against its diagonal and is dropped,
        # pivot (1, 2) is not and is rotated
        assert 1e20 + 100.0 * 1e-3 == 1e20
        cases.append(np.array([[1e20, 1e-3, 0.0], [1e-3, 2e20, 1.0], [0.0, 1.0, 1.0]]))
        for S in cases:
            values, vectors = reference_jacobi(S)
            got = jacobi_eigendecomposition(S)
            assert got.values.tobytes() == values.tobytes()
            assert got.vectors.tobytes() == vectors.tobytes()

    def test_no_convergence_residual_matches_reference_loop(self):
        A = np.random.default_rng(43).standard_normal((6, 6))
        S = (A + A.T) / 2.0
        with pytest.raises(NoConvergenceError) as want:
            reference_jacobi(S, max_sweeps=1)
        with pytest.raises(NoConvergenceError) as got:
            jacobi_eigendecomposition(S, max_sweeps=1)
        assert got.value.residual == want.value.residual
