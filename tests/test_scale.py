"""The fit, the pair-energy identity and the full-rank isometry check on
one dataset at every data scale. A case that fails today is a strict xfail naming the ROADMAP item
whose fix removes its mark."""

import numpy as np
import pytest

from pcashrink import anisotropic_gaussian, covariance, fit, shrinkage_table, shrinkage_tables

BASE = anisotropic_gaussian(300, seed=0).features
SCALES = (1e-9, 1e-7, 1e-6, 1.0, 1e6)

ABSOLUTE_TOL = ("ROADMAP item 4: d_orig - d_trunc against an absolute tolerance "
                "flags 25,483 of 44,850 correct pairs at x1e6 "
                "(25,388 negative, 95 over the bound)")


def scales(failing=(), reason=None, values=SCALES):
    """One case per scale; those in ``failing`` are strict xfails."""
    xfail = pytest.mark.xfail(strict=True, reason=reason)
    return [pytest.param(c, id="x%g" % c, marks=xfail if c in failing else ()) for c in values]


@pytest.mark.parametrize("c", scales(values=SCALES + (1e-150, 1e150)))
def test_fit_eigenvalues_match_lapack(c):
    X = BASE * c
    want = np.linalg.eigvalsh(covariance(X))[::-1]
    got = fit(X).eigenvalues
    assert np.max(np.abs(got - want)) <= 1e-9 * want[0]


@pytest.mark.parametrize("k", [-500, -240, -30, 30, 240, 500])
def test_power_of_two_rescaling_is_exact(k):
    """2^k X has the covariance 4^k S bit for bit, and the solver scales
    both to the same matrix, so the components keep every bit and the
    eigenvalues are scaled exactly."""
    base = fit(BASE)
    model = fit(np.ldexp(BASE, k))
    assert model.components.tobytes() == base.components.tobytes()
    assert model.eigenvalues.tobytes() == np.ldexp(base.eigenvalues, 2 * k).tobytes()


@pytest.mark.parametrize("c", [1e-9, 1.0, 1e6], ids=lambda c: "x%g" % c)
def test_pair_energy_identity(c):
    """Over all pairs, d_orig^2 - d_trunc^2 is the squared distance of the
    discarded coordinates, whose pair sum is N^2 times the discarded
    eigenvalue sum (the data are centred). So at every m < n the mean of
    shrinkage * (d_orig + d_trunc) is 2N/(N-1) * sum(eigenvalues[m:])."""
    X = BASE * c
    model = fit(X)
    n_samples, n = X.shape
    total = float(np.sum(model.eigenvalues))
    levels = range(1, n)
    for m, table in zip(levels, shrinkage_tables(model, X, levels, pair_sample=0)):
        assert not table.sampled
        energy = np.mean(table.shrinkage * (table.dist_original + table.dist_truncated))
        want = 2 * n_samples / (n_samples - 1) * float(np.sum(model.eigenvalues[m:]))
        assert abs(energy - want) <= 1e-12 * total, (m, energy, want)


@pytest.mark.parametrize("c", scales({1e6}, ABSOLUTE_TOL))
def test_full_rank_flags_no_pair(c):
    X = BASE * c
    model = fit(X)
    assert shrinkage_table(model, X, model.n_features).summary().violating_pairs == 0
