"""The fit, the pair-energy identity and the full-rank isometry check on
one dataset at every data scale."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import drained_table, write_dataset_csv
from pcashrink import (
    NonFiniteError,
    anisotropic_gaussian,
    collision_witness,
    correlate,
    covariance,
    fit,
    knn_accuracy,
    pearson,
    reconstruct,
    run_sweep,
    save_model,
    shrinkage_blocks,
)
from pcashrink.cli import main

BASE = anisotropic_gaussian(300, seed=0).features
SCALES = (1e-9, 1e-7, 1e-6, 1.0, 1e6)


def scales(values=SCALES):
    """One case per scale."""
    return [pytest.param(c, id="x%g" % c) for c in values]


@pytest.mark.parametrize("c", scales(values=SCALES + (1e-150, 1e150)))
def test_fit_eigenvalues_match_lapack(c):
    X = BASE * c
    want = np.linalg.eigvalsh(covariance(X))[::-1]
    got = fit(X).eigenvalues
    assert np.max(np.abs(got - want)) <= 1e-9 * want[0]


@pytest.mark.parametrize("k", [-500, -240, -30, 30, 240, 500, 508])
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
        table, _ = drained_table(model, X, m, pair_sample=0)
        assert not table.sampled
        energy = np.mean(table.shrinkage * (table.dist_original + table.dist_truncated))
        want = 2 * n_samples / (n_samples - 1) * float(np.sum(model.eigenvalues[m:]))
        assert abs(energy - want) <= 1e-12 * total, (m, energy, want)


@pytest.mark.parametrize("c", scales())
def test_full_rank_flags_no_pair(c):
    """The violation slack is relative to each pair's original distance,
    so full-rank roundoff, about 1e-15 of it, flags no pair at any scale."""
    X = BASE * c
    model = fit(X)
    assert drained_table(model, X, model.n_features)[1].violating_pairs == 0


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
        pair = next(shrinkage_blocks(model, np.stack([X[0], collision_witness(model, X[0], m)]),
                                     m)[0])
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


def scaled_csv(tmp_path, k):
    """The CSV of anisotropic_gaussian(300, seed=0) times 2^k."""
    dataset = anisotropic_gaussian(300, seed=0)
    return write_dataset_csv(tmp_path / ("x%d.csv" % k), dataclasses.replace(
        dataset, features=np.ldexp(dataset.features, k)))


COMMANDS = {
    "fit": ("fit",),
    "analyze": ("analyze", "--m", "2", "--pair-sample", "0"),
    "sweep": ("sweep", "--m-range", "1..3"),
}


def test_covariance_underflow_is_a_clean_non_finite_error():
    """Below about 2^-511 the eigenvalues, in data units squared, leave the
    normal float range: zeros at 2^-560, subnormals at 2^-520. Data whose
    covariance is exactly zero still fit."""
    for k in (-560, -520):
        with pytest.raises(NonFiniteError, match="underflow"):
            fit(np.ldexp(BASE, k))
    for X in (np.full((5, 3), 2.0 ** -560), np.ldexp(BASE[:2], -560)[[0, 0]]):
        assert not np.any(fit(X).eigenvalues)
    with pytest.warns(RuntimeWarning, match="single sample"):
        assert fit(np.ldexp(BASE[:1], -560)).degenerate


@pytest.mark.parametrize("command, k, what", [
    ("fit", -560, "underflow"), ("analyze", -560, "underflow"), ("sweep", -560, "underflow"),
    ("fit", -520, "underflow"), ("analyze", -520, "underflow"), ("sweep", -520, "underflow"),
    ("analyze", 509, "overflow"), ("sweep", 509, "overflow"),
    ("analyze", 510, "overflow"), ("sweep", 510, "overflow"),
    ("fit", 511, "overflow"),
])
def test_out_of_range_scales_are_refused(tmp_path, capsys, command, k, what):
    """Past either end of the float range a command exits 3 with one
    [non-finite] line that names the edge, and writes nothing: no NaN,
    inf or zero eigenvalue reaches a report, and no numpy warning leaks
    (tier-1 turns one into an error)."""
    path = scaled_csv(tmp_path, k)
    out = tmp_path / "out"
    assert main([*COMMANDS[command], "--input", str(path), "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert "[non-finite]" in err and what in err, err
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


@pytest.mark.parametrize("k", [505, 508])
def test_pair_csv_columns_scale_exactly_near_the_top(tmp_path, capsys, k):
    """Inside the range every distance column of analyze's pair CSV is
    the ldexp of the unscaled one, and the index columns are equal."""
    tables = []
    for scale in (0, k):
        out = tmp_path / ("pairs%d.csv" % scale)
        argv = [*COMMANDS["analyze"], "--input", str(scaled_csv(tmp_path, scale)),
                "--output", str(out)]
        assert main(argv) == 0
        tables.append(np.loadtxt(out, delimiter=",", skiprows=1))
    capsys.readouterr()
    base, scaled = tables
    assert scaled[:, :3].tobytes() == base[:, :3].tobytes()
    assert scaled[:, 3:].tobytes() == np.ldexp(base[:, 3:], k).tobytes()


def assert_refused(tmp_path, capsys, argv, keep):
    """``main(argv)`` exits 3 with one [non-finite] line naming the
    overflow, prints nothing on stdout and leaves only the files ``keep``
    in ``tmp_path``."""
    assert main([str(a) for a in argv]) == 3
    out, err = capsys.readouterr()
    assert len(err.splitlines()) == 1, err
    assert "[non-finite]" in err and "overflow" in err, err
    assert out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in keep)


@pytest.mark.parametrize("k", [509, 510])
def test_knn_overflow_is_a_clean_non_finite_error(k):
    """The k-NN's running d² refuses an overflow like the pair kernel."""
    dataset = anisotropic_gaussian(300, seed=0)
    scaled = dataclasses.replace(dataset, features=np.ldexp(dataset.features, k))
    with pytest.raises(NonFiniteError, match="pairwise distances overflow"):
        knn_accuracy(scaled)


def test_sampled_sweep_overflow_is_refused(tmp_path, capsys):
    """At 1.2 x 2^508 no pair of a 2,000-pair sample overflows, but the
    k-NN, which compares every row, does."""
    dataset = anisotropic_gaussian(300, seed=0)
    path = write_dataset_csv(tmp_path / "big.csv", dataclasses.replace(
        dataset, features=np.ldexp(1.2 * dataset.features, 508)))
    assert_refused(tmp_path, capsys, ["sweep", "--m-range", "1..3", "--pair-sample", "2000",
                                      "--input", path, "--output", tmp_path / "out"], [path])


@pytest.mark.parametrize("output", [False, True], ids=["stdout", "file"])
def test_transform_overflow_is_refused(tmp_path, capsys, output):
    """A row inside the float range whose coordinates on a model fitted to
    other data are not: np.einsum sets no overflow flag, so the transform
    checks its result."""
    dataset = anisotropic_gaussian(50, seed=0)
    model = fit(dataset.features)
    save_model(model, tmp_path / "model.json")
    row = np.sign(model.components[:, 0]) * 1.6e308
    path = write_dataset_csv(tmp_path / "row.csv",
                             dataclasses.replace(dataset, features=row[None, :], labels=("a",)))
    argv = ["transform", "--model", tmp_path / "model.json", "--input", path]
    if output:
        argv += ["--output", tmp_path / "coords.csv"]
    assert_refused(tmp_path, capsys, argv, [path, tmp_path / "model.json"])


def test_reconstruct_overflow_is_refused():
    """Coordinates inside the float range whose first feature is not."""
    model = fit(anisotropic_gaussian(50, seed=0).features)
    y = np.sign(model.components[0])
    assert np.all(np.isfinite(reconstruct(model, y * 1e300)))
    with pytest.raises(NonFiniteError, match="the reconstruction overflows"):
        reconstruct(model, y * 1.6e308)


def test_refused_analyze_leaves_no_partial_csv(tmp_path, capsys):
    """Only pair (290, 291) overflows: pair 44,805, which the median's
    every-64th sample misses, so the refusal comes after thousands of
    rows of the pair CSV are written."""
    dataset = anisotropic_gaussian(300, seed=0)
    features = dataset.features.copy()
    features[290, 0], features[291, 0] = 1e154, -1e154
    path = write_dataset_csv(tmp_path / "pair.csv",
                             dataclasses.replace(dataset, features=features))
    assert_refused(tmp_path, capsys, ["analyze", "--m", "2", "--pair-sample", "0",
                                      "--input", path, "--output", tmp_path / "q.csv"],
                   [path])
