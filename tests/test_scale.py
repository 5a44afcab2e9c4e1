"""The fit and the full-rank isometry check on one dataset at every data
scale. A case that fails today is a strict xfail naming the ROADMAP item
whose fix removes its mark."""

import numpy as np
import pytest

from pcashrink import anisotropic_gaussian, covariance, fit, shrinkage_table

BASE = anisotropic_gaussian(300, seed=0).features
SCALES = (1e-9, 1e-7, 1e-6, 1.0, 1e6)

STOP_RULE = ("ROADMAP item 4: the Jacobi stop rule tol * (1 + ||S||_F) is not "
             "relative, so small data stops early (5.4e-1 of lambda_max at x1e-9)")
ABSOLUTE_TOL = ("ROADMAP item 3: d_orig - d_trunc against an absolute tolerance "
                "flags 42,926 of 44,850 correct pairs at x1e6")


def scales(failing, reason):
    """One case per scale; those in ``failing`` are strict xfails."""
    xfail = pytest.mark.xfail(strict=True, reason=reason)
    return [pytest.param(c, id="x%g" % c, marks=xfail if c in failing else ()) for c in SCALES]


@pytest.mark.parametrize("c", scales({1e-9, 1e-7, 1e-6}, STOP_RULE))
def test_fit_eigenvalues_match_lapack(c):
    X = BASE * c
    want = np.linalg.eigvalsh(covariance(X))[::-1]
    got = fit(X).eigenvalues
    assert np.max(np.abs(got - want)) <= 1e-9 * want[0]


@pytest.mark.parametrize("c", scales({1e6}, ABSOLUTE_TOL))
def test_full_rank_flags_no_pair(c):
    X = BASE * c
    model = fit(X)
    assert shrinkage_table(model, X, model.n_features).summary().violating_pairs == 0
