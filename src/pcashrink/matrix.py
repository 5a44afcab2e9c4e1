"""Covariance computation, a cyclic Jacobi eigensolver for symmetric
matrices, max_exponent, the one power-of-two rule that keeps the
solver, pearson and the collision witness free of the data's scale, and
refuse_overflow, the one rule for a result past the float range.

The eigensolver is written out explicitly (rather than calling LAPACK)
because everything downstream depends on its exact behaviour. It visits
the pivots in a fixed round-robin order, ⌊n/2⌋ disjoint rotations per
round applied as one batched update (Brent & Luk 1985), and stops on an
off-diagonal norm relative to the matrix's own (Demmel & Veselić 1992),
after scaling the matrix by an exact power of two. A stable descending
eigenvalue sort and a canonical sign for each eigenvector then make
fitted models reproducible to the last bit, and rescaling the input by
2^k changes no bit of the eigenvectors.
"""

from __future__ import annotations

from contextlib import contextmanager
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


def max_exponent(v):
    """The e with max|v| in [2^(e-1), 2^e), and 0 when every entry is 0;
    max|v| is read as max(max v, -min v), which copies nothing."""
    return int(np.frexp(np.maximum(np.max(v), -np.min(v)))[1])


@contextmanager
def refuse_overflow(what):
    """Run a with block, or each call of a function this decorates, with
    numpy's overflow raised, and refuse an overflow as NonFiniteError
    "<what> the float range; rescale the data". numpy checks its status
    flags after every ufunc call whatever errstate says, so the guard only
    changes what an overflow does. The block gets ``finite``, which
    returns an array that has no infinite or NaN entry and refuses one
    that has, the same way: for products such as np.einsum's, which set
    no overflow flag."""
    message = "%s the float range; rescale the data" % what

    def finite(arr):
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError(message)
        return arr

    try:
        with np.errstate(over="raise"):
            yield finite
    except FloatingPointError as exc:
        raise NonFiniteError(message) from exc


@refuse_overflow("the covariance overflows")
def covariance(data):
    """Population covariance matrix of row-vector samples.

    Uses the 1/N normalization, so a single sample gives the zero matrix.
    The centred data are scaled by an exact power of two 2^s before the
    product, and the result by 2^-2s after it: s brings their largest
    magnitude to the largest power of two whose N squares still sum below
    2^1021, so the sum cannot overflow where the covariance itself does
    not, small products keep all the range below it, and 2^k X has the
    covariance 4^k S bit for bit. The product is summed over the rows by
    np.einsum, in an order fixed by the data's shape and not by a BLAS
    library's thread count, so a fit has the same bits at any thread
    count. The accumulated product is symmetrized before returning to
    scrub floating-point asymmetry. Data whose covariance overflows the
    float range, or whose nonzero covariance has its largest entry below
    the smallest normal float, raise NonFiniteError.
    """
    X = as_data_matrix(data)
    centered = X - X.mean(axis=0)
    shift = (1021 - X.shape[0].bit_length()) // 2 - max_exponent(centered)
    np.ldexp(centered, shift, out=centered)
    scaled = np.einsum("ki,kj->ij", centered, centered) / X.shape[0]
    cov = np.ldexp((scaled + scaled.T) / 2.0, -2 * shift)
    if np.any(scaled) and np.max(np.abs(cov)) < np.finfo(float).tiny:
        raise NonFiniteError("the covariance underflows the float range; rescale the data")
    return cov


@dataclass(frozen=True)
class EigenPairs:
    """Eigenvalues sorted non-increasing; column k of ``vectors`` is the
    unit eigenvector paired with ``values[k]``. ``sweeps`` is the number
    of full Jacobi sweeps the solver took."""

    values: np.ndarray
    vectors: np.ndarray
    sweeps: int


def _offdiag_norm(A):
    off = A - np.diag(np.diag(A))
    return float(np.sqrt(np.sum(off * off)))


def round_robin(n):
    """The Jacobi pivot schedule for an n x n matrix.

    Returns arrays P and Q of shape (rounds, n // 2) with P < Q: the
    pivots of one round are disjoint, and one sweep (all rounds: n - 1
    for even n, n for odd n) holds every pair p < q exactly once. Seat
    the m = n + n % 2 indices at two rows of a table, facing each other;
    index 0 keeps its seat and the others move one seat round the ring
    per round. For odd n, index n is a bye and its pair is dropped.
    """
    m = n + n % 2
    ring = (np.arange(m - 1)[:, None] + np.arange(m - 1)) % (m - 1) + 1
    seats = np.hstack([np.zeros((m - 1, 1), dtype=ring.dtype), ring])
    a, b = seats[:, : m // 2], seats[:, : m // 2 - 1 : -1]
    P, Q = np.minimum(a, b), np.maximum(a, b)
    keep = Q < n
    return P[keep].reshape(m - 1, n // 2), Q[keep].reshape(m - 1, n // 2)


def jacobi_eigendecomposition(S):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    S is first scaled by the power of two that brings max |S| into
    [0.5, 1), so no norm below can overflow or underflow and 2^k S goes
    through bit-identical iterations. Each sweep runs the rounds of
    ``round_robin``: a round reads its pivots' A[p, q], A[p, p] and
    A[q, q] as vectors, chooses each pivot's Givens rotation (a zero
    pivot, or one too small to move either diagonal entry, gets the
    identity and is set to zero), and applies them all as one two-sided
    update of A and one update of the eigenvector matrix. Iteration stops
    once ||offdiag(A)||_F <= JACOBI_TOL * ||A||_F. A matrix with
    max |S - S^T| above SYMMETRY_TOL * max(1, max |S|) raises
    NotSymmetricError. The tolerances and the sweep limit are fixed.

    Returns an EigenPairs with eigenvalues sorted non-increasing (stable
    sort, so exact ties keep diagonal order), each eigenvector scaled so
    its largest-magnitude entry is non-negative (first such entry on
    ties), and the number of sweeps taken. Raises NoConvergenceError,
    carrying the remaining off-diagonal norm in the units of S, if
    JACOBI_MAX_SWEEPS full sweeps are not enough, and NonFiniteError if
    an eigenvalue, scaled back to the units of S, overflows the float
    range (it may exceed max |S| by up to a factor of n).
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
    if asym > SYMMETRY_TOL * max(1.0, scale):
        raise NotSymmetricError("matrix is not symmetric: max |S - S^T| = %g" % asym)

    n = A.shape[0]
    exponent = max_exponent(scale)
    # A beside V^T, so one row update rotates both
    M = np.hstack([np.ldexp(A, -exponent), np.eye(n)])
    A, Vt = M[:, :n], M[:, n:]
    A[:] = (A + A.T) / 2.0
    diag = A.diagonal()
    stop = JACOBI_TOL * float(np.sqrt(np.sum(A * A)))
    P, Q = round_robin(n)
    # each round's rows p0, q0, p1, q1, ...: pair k is rows 2k and 2k + 1
    rows = np.stack([P, Q], axis=2).reshape(P.shape[0], -1)

    sweeps = 0
    residual = _offdiag_norm(A)
    while residual > stop:
        if sweeps >= JACOBI_MAX_SWEEPS:
            residual, stop = np.ldexp([residual, stop], exponent)
            raise NoConvergenceError(
                "off-diagonal norm %g still above %g after %d sweeps"
                % (residual, stop, sweeps),
                residual=float(residual),
            )
        for p, q, pq in zip(P, Q, rows):
            apq, app, aqq = A[p, q], diag[p], diag[q]
            # a pivot this far below both diagonals cannot move them (a
            # zero pivot included): it gets t = 0, the identity
            g = 100.0 * np.abs(apq)
            rotate = (np.abs(app) + g != np.abs(app)) | (np.abs(aqq) + g != np.abs(aqq))
            # t = sgn(theta) / (|theta| + sqrt(theta^2 + 1)) for
            # theta = (aqq - app) / (2 apq), written so nothing overflows
            d = aqq - app
            t = np.zeros_like(apq)
            np.divide(2.0 * apq, d + np.copysign(np.hypot(d, 2.0 * apq), d), out=t, where=rotate)
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            R = np.stack([c, -s, s, c], axis=1).reshape(-1, 2, 2)

            # J^T on the rows of A and V^T, for the rotation J with
            # J[p,p]=J[q,q]=c, J[p,q]=s, J[q,p]=-s. As A is symmetric,
            # (J^T A)^T = A J, and J^T on its rows gives J^T A J. Then set
            # the diagonal and the pivots explicitly.
            M[pq] = (R @ M[pq].reshape(-1, 2, 2 * n)).reshape(-1, 2 * n)
            A[:] = A.T
            A[pq] = (R @ A[pq].reshape(-1, 2, n)).reshape(-1, n)
            A[p, p] = app - t * apq
            A[q, q] = aqq + t * apq
            A[p, q] = A[q, p] = 0.0
        sweeps += 1
        residual = _offdiag_norm(A)

    with refuse_overflow("the eigenvalues overflow"):
        values = np.ldexp(diag, exponent)
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = Vt[order].T.copy()
    lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(n)]
    vectors[:, lead < 0.0] *= -1.0
    return EigenPairs(values=values, vectors=vectors, sweeps=sweeps)
