"""One rule for the paper's guarantees: the pair engine's bound check,
with each point's reconstruction error taken as the norm of its
discarded coordinates, is also the full-rank isometry check. Also the
automatic pair-sampling rule, which has one constant."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import drained_table, write_dataset_csv
from pcashrink import fit, shrinkage
from pcashrink.cli import main
from pcashrink.experiments import anisotropic_gaussian
from pcashrink.shrinkage import shrinkage_blocks


def sixty_rows():
    return anisotropic_gaussian(60, variances=(4.0, 2.0, 1.0, 0.5), seed=3)


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_full_rank_recon_error_is_exactly_zero(scale):
    X = sixty_rows().features * scale
    table, _ = drained_table(fit(X), X, 4)
    assert np.all(table.recon_error == 0.0)


def test_recon_error_matches_lapack_tail_norm():
    """Oracle: the norm of the centred data's coordinates past m in the
    basis of numpy.linalg.eigh, on data far from the origin."""
    X = anisotropic_gaussian(300, seed=0).features + 1e6
    n = X.shape[1]
    centred = X - X.mean(axis=0)
    _, vectors = np.linalg.eigh(centred.T @ centred / X.shape[0])
    coords = centred @ vectors[:, ::-1]
    model = fit(X)
    for m in range(1, n):
        table, _ = drained_table(model, X, m)
        tail = np.sqrt(np.sum(coords[:, m:] ** 2, axis=1))
        assert_allclose(table.recon_error, tail[table.i] + tail[table.j], rtol=1e-10, atol=0,
                        err_msg="m=%d" % m)


def _distinct_violations(d_orig, shrink, bound, tol):
    """The rule's count with its slack relative to each pair's d_orig."""
    slack = tol * d_orig
    return int(np.count_nonzero((shrink < -slack) | (shrink > bound + slack)))


def _summary_at(model, X, m, tol):
    blocks, summary = shrinkage_blocks(model, X, m, violation_tol=tol)
    for _ in blocks:
        pass
    return summary()


def test_violating_pairs_counts_each_pair_once():
    X = sixty_rows().features
    model = fit(X)
    for m in (1, 2, 3, 4):
        table, _ = drained_table(model, X, m)
        for tol in (-1.0, -1e-3, 0.0, 1e-9):
            stats = _summary_at(model, X, m, tol)
            assert stats.violating_pairs == _distinct_violations(
                table.dist_original, table.shrinkage, table.recon_error, tol)
            assert stats.violating_pairs <= stats.negative_count + stats.bound_violations
    # at full rank the bound is 0 and a tolerance of -1 makes the slack -d_orig,
    # so every pair of distinct points is above its bound
    assert _summary_at(model, X, 4, -1).violating_pairs == table.i.size == 1770


@pytest.mark.parametrize("m", [2, 4])
def test_analyze_logs_distinct_violating_pairs(tmp_path, capsys, m):
    ds = sixty_rows()
    data = write_dataset_csv(tmp_path / "data.csv", ds)
    pairs = tmp_path / "pairs.csv"
    rc = main(["analyze", "--input", str(data), "--m", str(m), "--violation-tol", "-1",
               "--output", str(pairs)])
    assert rc == 4
    out, err = capsys.readouterr()
    table = np.loadtxt(pairs, delimiter=",", skiprows=1)
    assert table.shape[0] == 1770
    count = _distinct_violations(table[:, 3], table[:, 5], table[:, 6], -1.0)
    if m == 4:
        assert count == 1770
        assert "isometry_violation_pairs=1770\n" in out
    assert err == ("pca-shrink: wrote %s\n"
                   "pca-shrink: %d pairs violate the shrinkage guarantees (tol=-1)\n"
                   % (pairs, count))


class _Stop(Exception):
    pass


@pytest.mark.parametrize("n_samples, pairs, sampled", [
    (2000, 1_999_000, False),
    (2001, 2_000_000, True),
])
def test_automatic_pair_rule(monkeypatch, n_samples, pairs, sampled):
    """All pairs up to 2000 samples, a 2,000,000-pair subsample beyond;
    the engine is stopped once its pair list exists."""
    seen = {}
    real = shrinkage._choose_pairs

    def spy(*args):
        chosen = real(*args)
        seen.update(pairs=chosen.count, sampled=chosen.sampled)
        raise _Stop

    monkeypatch.setattr(shrinkage, "_choose_pairs", spy)
    X = np.arange(float(n_samples))[:, None]
    with pytest.raises(_Stop):
        shrinkage_blocks(fit(X), X, 1)
    assert seen == {"pairs": pairs, "sampled": sampled}
