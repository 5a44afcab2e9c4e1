"""The paper's guarantees as properties over generated data: every data
scale from 1e-9 to 1e8, rank-deficient matrices, duplicate rows and up
to 12 features.

Each slack is relative to the data's own scale, the largest distance of
a sample from the mean, and not to each pair's own distance: a pair of
near-duplicate rows carries the roundoff of the whole transform, so a
slack of a few eps times its own distance would flag correct pairs.

Known failures are not drawn here; they stay as the deterministic
strict xfails of tests/test_scale.py, since a failing hypothesis test
cannot report cleanly while warnings are errors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcashrink import (
    FullRankInjectiveError,
    collision_witness,
    covariance,
    discarded_eigenvalue_sum,
    fit,
    reconstruct,
    shrinkage_table,
    transform,
)

ROUNDOFF = 64 * np.finfo(float).eps
# the solver stops once its off-diagonal norm is 1e-12 of the matrix's
RESIDUAL_TOL = 1e-11

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def datasets(draw):
    """A data matrix of 2..12 rows and 1..12 features times 10^k for k
    in -9..8, of rank at most ``rank`` (rank-deficient when that is below
    the feature count), with rows 2..dup+1 copies of row 0; rows 0 and 1
    stay distinct."""
    n_samples = draw(st.integers(2, 12))
    n = draw(st.integers(1, 12))
    rank = draw(st.integers(1, n))
    dup = draw(st.integers(0, n_samples - 2))
    scale = 10.0 ** draw(st.integers(-9, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n_samples, rank)) @ rng.standard_normal((rank, n))
    X += rng.standard_normal(n)
    X[2:2 + dup] = X[0]
    return X * scale


def spread(X):
    """The data's scale: the largest distance of a sample from the mean."""
    return float(np.max(np.linalg.norm(X - X.mean(axis=0), axis=1)))


def all_levels(model, X):
    return ((m, shrinkage_table(model, X, m, pair_sample=0))
            for m in range(1, model.n_features + 1))


@PROPERTY
@given(datasets())
def test_full_rank_is_an_injective_isometry(X):
    """Theorem 1: at m = n no pair distance changes, so distinct points
    keep distinct images, and no collision witness exists."""
    model = fit(X)
    slack = ROUNDOFF * spread(X)
    table = shrinkage_table(model, X, model.n_features, pair_sample=0)
    assert np.all(np.abs(table.dist_truncated - table.dist_original) <= slack)
    assert np.all(table.recon_error == 0)
    distinct = table.dist_original > 2 * slack
    assert np.all(table.dist_truncated[distinct] > 0)
    with pytest.raises(FullRankInjectiveError):
        collision_witness(model, X[0], model.n_features)


@PROPERTY
@given(datasets())
def test_truncation_collides_a_unit_step(X):
    """Below full rank the witness has the same truncated image and lies
    2^max(0, e - 20) from the point, e the binary exponent of the
    point's largest magnitude: one unit while that is below 2^20."""
    model = fit(X)
    slack = ROUNDOFF * (1.0 + float(np.linalg.norm(X[0])) + spread(X))
    step = np.ldexp(1.0, max(0, int(np.frexp(np.max(np.abs(X[0])))[1]) - 20))
    for m in range(1, model.n_features):
        witness = collision_witness(model, X[0], m)
        assert abs(np.linalg.norm(witness - X[0]) - step) <= slack
        gap = np.linalg.norm(transform(model, witness, m) - transform(model, X[0], m))
        assert gap <= slack


@PROPERTY
@given(datasets())
def test_shrinkage_is_non_negative_and_bounded(X):
    """Theorems 2 and 3 at every m: 0 <= shrinkage <= the summed
    reconstruction errors of the pair's endpoints."""
    model = fit(X)
    slack = ROUNDOFF * spread(X)
    for m, table in all_levels(model, X):
        assert np.min(table.shrinkage) >= -slack, m
        assert np.max(table.shrinkage - table.recon_error) <= slack, m


@PROPERTY
@given(datasets())
def test_eigsum_is_mse_and_pair_energy(X):
    """The discarded-eigenvalue sum is the training mean squared
    reconstruction error, and over all pairs the mean of shrinkage *
    (d_orig + d_trunc) is 2N/(N-1) times the discarded eigenvalues."""
    model = fit(X)
    n_samples = X.shape[0]
    slack = ROUNDOFF * model.n_features * spread(X) ** 2
    for m, table in all_levels(model, X):
        back = reconstruct(model, transform(model, X, m))
        mse = float(np.mean(np.sum((X - back) ** 2, axis=1)))
        assert abs(discarded_eigenvalue_sum(model, m) - mse) <= slack, m
        energy = np.mean(table.shrinkage * (table.dist_original + table.dist_truncated))
        want = 2 * n_samples / (n_samples - 1) * float(np.sum(model.eigenvalues[m:]))
        assert abs(energy - want) <= slack, m


@PROPERTY
@given(datasets())
def test_eigenpairs_match_lapack(X):
    """Eigenvalues agree with numpy.linalg.eigh to roundoff, the residual
    ||SV - V Lambda|| is within the solver's stop rule, and the
    components are orthonormal; each relative to the squared scale."""
    model = fit(X)
    S = covariance(X)
    scale2 = spread(X) ** 2
    want = np.linalg.eigh(S)[0][::-1]
    assert np.max(np.abs(model.eigenvalues - want)) <= ROUNDOFF * scale2
    V = model.components
    assert np.linalg.norm(S @ V - V * model.eigenvalues) <= RESIDUAL_TOL * scale2
    assert np.linalg.norm(V.T @ V - np.eye(model.n_features)) <= ROUNDOFF * model.n_features
