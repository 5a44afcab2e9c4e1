"""The fit, the pair-energy identity and the full-rank isometry check on
one dataset at every data scale. A case that fails today is a strict xfail naming the ROADMAP item
whose fix removes its mark."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import write_dataset_csv
from pcashrink import (
    NonFiniteError,
    anisotropic_gaussian,
    collision_witness,
    correlate,
    covariance,
    fit,
    pearson,
    run_sweep,
    shrinkage_table,
)

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
    for m in range(1, n):
        table = shrinkage_table(model, X, m, pair_sample=0)
        assert not table.sampled
        energy = np.mean(table.shrinkage * (table.dist_original + table.dist_truncated))
        want = 2 * n_samples / (n_samples - 1) * float(np.sum(model.eigenvalues[m:]))
        assert abs(energy - want) <= 1e-12 * total, (m, energy, want)


@pytest.mark.parametrize("c", scales({1e6}, ABSOLUTE_TOL))
def test_full_rank_flags_no_pair(c):
    X = BASE * c
    model = fit(X)
    assert shrinkage_table(model, X, model.n_features).summary().violating_pairs == 0


@pytest.mark.parametrize("k", [-600, 600])
def test_pearson_keeps_its_bits_at_any_scale(k):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(20)
    y = x + rng.standard_normal(20)
    want = pearson(x, y).hex()
    assert pearson(np.ldexp(x, k), y).hex() == want
    assert pearson(x, np.ldexp(y, k)).hex() == want


def test_sweep_correlations_keep_their_bits_at_any_scale():
    """At 2^400 the eigsum column reaches ~2^800, whose square overflows."""
    dataset = anisotropic_gaussian(50, seed=1)
    scaled = dataclasses.replace(dataset, features=np.ldexp(dataset.features, 400))

    def hexed(summary):
        return [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(summary)]

    assert hexed(correlate(run_sweep(scaled))) == hexed(correlate(run_sweep(dataset)))


@pytest.mark.parametrize("shift", [lambda X: X * 1e17, lambda X: X + 1e17], ids=["x1e17", "+1e17"])
def test_witness_collides_at_large_magnitudes(shift):
    """A one-unit move would be absorbed by rounding against |x| ~ 1e17."""
    X = shift(BASE)
    model = fit(X)
    for m in range(1, model.n_features):
        pair = shrinkage_table(model, np.stack([X[0], collision_witness(model, X[0], m)]), m)
        assert pair.dist_original[0] > 0, m
        assert pair.dist_truncated[0] <= 1e-9 * pair.dist_original[0], m


def test_witness_moves_one_unit_at_unit_scale():
    model = fit(BASE)
    for m in range(1, model.n_features):
        want = BASE[0] + model.components[:, m]
        assert collision_witness(model, BASE[0], m).tobytes() == want.tobytes()


def test_covariance_overflow_is_a_clean_non_finite_error(tmp_path):
    with pytest.raises(NonFiniteError, match="overflow"):
        fit(BASE * 1e160)
    dataset = anisotropic_gaussian(300, seed=0)
    path = write_dataset_csv(tmp_path / "big.csv",
                             dataclasses.replace(dataset, features=dataset.features * 1e160))
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "pcashrink", "analyze", "--input", str(path), "--m", "2"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert "[non-finite]" in proc.stderr and "overflow" in proc.stderr
