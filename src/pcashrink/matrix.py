"""Covariance computation and a cyclic Jacobi eigensolver for symmetric
matrices.

The eigensolver is written out explicitly (rather than calling LAPACK)
because everything downstream depends on its exact behaviour: a stable
descending eigenvalue sort and a canonical sign for each eigenvector make
fitted models reproducible to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimMismatchError,
    EmptyDataError,
    NoConvergenceError,
    NonFiniteError,
    NotSymmetricError,
)

JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100
SYMMETRY_TOL = 1e-8


def as_vector(x, name="vector"):
    """Validate and return ``x`` as a finite 1-D float array."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise DimMismatchError(
            "%s must be one-dimensional, got shape %r" % (name, arr.shape)
        )
    if arr.size == 0:
        raise EmptyDataError("%s is empty" % name)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("%s contains NaN or infinite entries" % name)
    return arr


def as_vector_pair(a, b, names):
    """Validate ``a`` and ``b`` with as_vector (``names`` gives their names
    in messages) and check that their lengths match."""
    u = as_vector(a, names[0])
    v = as_vector(b, names[1])
    if u.shape[0] != v.shape[0]:
        raise DimMismatchError("length mismatch: %d vs %d" % (u.shape[0], v.shape[0]))
    return u, v


def as_data_matrix(data, name="data"):
    """Validate and return ``data`` as a finite 2-D float array of row samples."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2:
        raise DimMismatchError(
            "%s must be a 2-D array of row vectors, got shape %r" % (name, arr.shape)
        )
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise EmptyDataError("%s has no samples or no features" % name)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("%s contains NaN or infinite entries" % name)
    return arr


def euclidean_distance(a, b):
    """Euclidean distance between two equal-length vectors."""
    u, v = as_vector_pair(a, b, ("a", "b"))
    d = u - v
    return float(np.sqrt(np.dot(d, d)))


def covariance(data):
    """Population covariance matrix of row-vector samples.

    Uses the 1/N normalization, so a single sample gives the zero matrix.
    The accumulated product is symmetrized before returning to scrub
    floating-point asymmetry.
    """
    X = as_data_matrix(data)
    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / X.shape[0]
    return (cov + cov.T) / 2.0


@dataclass(frozen=True)
class EigenPairs:
    """Eigenvalues sorted non-increasing; column k of ``vectors`` is the
    unit eigenvector paired with ``values[k]``."""

    values: np.ndarray
    vectors: np.ndarray


def _offdiag_norm(A):
    off = A - np.diag(np.diag(A))
    return float(np.sqrt(np.sum(off * off)))


def jacobi_eigendecomposition(S, tol=JACOBI_TOL, max_sweeps=JACOBI_MAX_SWEEPS,
                              symmetry_tol=SYMMETRY_TOL):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps over all upper-triangle pivots (p, q) in row order, each time
    applying the Givens rotation that zeroes A[p, q], and accumulates the
    rotations into the eigenvector matrix. Iteration stops when the
    off-diagonal Frobenius norm falls below ``tol * (1 + ||S||_F)``.

    Returns an EigenPairs with eigenvalues sorted non-increasing (stable
    sort, so exact ties keep diagonal order) and each eigenvector scaled
    so its largest-magnitude entry is non-negative (first such entry on
    ties). Raises NoConvergenceError, carrying the remaining off-diagonal
    norm, if ``max_sweeps`` full sweeps are not enough.
    """
    A = np.asarray(S, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimMismatchError("expected a square matrix, got shape %r" % (A.shape,))
    if A.size == 0:
        raise EmptyDataError("cannot decompose an empty matrix")
    if not np.all(np.isfinite(A)):
        raise NonFiniteError("matrix contains NaN or infinite entries")
    asym = float(np.max(np.abs(A - A.T)))
    scale = float(np.max(np.abs(A)))
    if asym > symmetry_tol * max(1.0, scale):
        raise NotSymmetricError("matrix is not symmetric: max |S - S^T| = %g" % asym)

    n = A.shape[0]
    # A on top of V, so one column update rotates both
    W = np.vstack([(A + A.T) / 2.0, np.eye(n)])
    A, V = W[:n], W[n:]
    stop = tol * (1.0 + float(np.sqrt(np.sum(A * A))))

    sweeps = 0
    residual = _offdiag_norm(A)
    while residual > stop:
        if sweeps >= max_sweeps:
            raise NoConvergenceError(
                "off-diagonal norm %g still above %g after %d sweeps"
                % (residual, stop, max_sweeps),
                residual=residual,
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq, app, aqq = A[p, q], A[p, p], A[q, q]
                if apq == 0.0:
                    continue
                # a pivot this far below the diagonal cannot move it;
                # drop it instead of rotating (also dodges theta overflow)
                g = 100.0 * abs(apq)
                if abs(app) + g == abs(app) and abs(aqq) + g == abs(aqq):
                    A[p, q] = A[q, p] = 0.0
                    continue
                theta = (aqq - app) / (2.0 * apq)
                t = 1.0 / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c

                # A <- J^T A J and V <- V J for the rotation J with
                # J[p,p]=J[q,q]=c, J[p,q]=s, J[q,p]=-s. A stays exactly
                # symmetric (every write sets both triangles), so rotating
                # its rows would recompute its new columns bit for bit:
                # copy them instead, then set diagonal and pivot explicitly.
                W[:, p], W[:, q] = c * W[:, p] - s * W[:, q], s * W[:, p] + c * W[:, q]
                A[p, :], A[q, :] = A[:, p], A[:, q]
                A[p, p] = app - t * apq
                A[q, q] = aqq + t * apq
                A[p, q] = A[q, p] = 0.0
        sweeps += 1
        residual = _offdiag_norm(A)

    values = np.diag(A).copy()
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = V[:, order]
    lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(n)]
    vectors[:, lead < 0.0] *= -1.0
    return EigenPairs(values=values, vectors=vectors)
