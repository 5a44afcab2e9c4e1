"""Acceptance gate: eight checks covering the package's core claims.

Each test prints one PASS/FAIL verdict line (visible with -s, or in the
captured output of a failing run; the pytest -v status line carries the
same verdict). The three property suites draw from a shared corpus of
100 random datasets; their time budgets include the corpus build.
"""

import json
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import drained_table, random_dataset, write_dataset_csv
from pcashrink import (
    FullRankInjectiveError,
    collision_witness,
    correlate,
    discarded_eigenvalue_sum,
    fit,
    jacobi_eigendecomposition,
    reconstruct,
    run_sweep,
    transform,
)
from pcashrink.cli import main
from pcashrink.experiments import SweepResult, SweepRow, anisotropic_gaussian
from pcashrink.reports import sweep_report

CORPUS_SIZE = 100


def verdict(number, name, ok, detail=""):
    suffix = " (%s)" % detail if detail else ""
    print("[criterion %d] %s: %s%s" % (number, name, "PASS" if ok else "FAIL", suffix))
    assert ok, "[criterion %d] %s FAILED %s" % (number, name, suffix)


@pytest.fixture(scope="module")
def corpus():
    """100 fitted random datasets plus the seconds spent building them."""
    start = time.perf_counter()
    rng = np.random.default_rng(20260814)
    fitted = []
    for _ in range(CORPUS_SIZE):
        X = random_dataset(rng)
        fitted.append((X, fit(X)))
    return fitted, time.perf_counter() - start


def test_criterion_1_truncation_loses_injectivity(corpus):
    """Every truncated transform admits an explicit collision witness;
    the full-rank transform refuses to produce one."""
    fitted, build = corpus
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_gap = 0.0
    for X, model in fitted:
        n = model.n_features
        m = int(rng.integers(1, n))
        witness = collision_witness(model, X[0], m)
        gap = np.linalg.norm(transform(model, X[0], m) - transform(model, witness, m))
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-9, "witness images %g apart at m=%d" % (gap, m)
        assert np.linalg.norm(X[0] - witness) >= 1.0 - 1e-9, "witness equals the point"
        with pytest.raises(FullRankInjectiveError):
            collision_witness(model, X[0], n)
    elapsed = build + time.perf_counter() - start
    verdict(
        1,
        "truncation loses injectivity on %d datasets" % CORPUS_SIZE,
        elapsed < 30.0,
        "worst image gap %.2e, %.1fs of 30s" % (worst_gap, elapsed),
    )


def test_criterion_2_distances_never_grow(corpus):
    """The full transform is an isometry; truncation only shrinks
    distances, by exactly the energy in the discarded coordinates."""
    fitted, build = corpus
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    pairs_checked = 0
    for X, model in fitted:
        n = model.n_features
        N = X.shape[0]
        Y = transform(model, X)
        i_idx, j_idx = np.triu_indices(N, k=1)
        dX = X[i_idx] - X[j_idx]
        dY = Y[i_idx] - Y[j_idx]
        orig_sq = np.einsum("ij,ij->i", dX, dX)
        orig = np.sqrt(orig_sq)
        full = np.sqrt(np.einsum("ij,ij->i", dY, dY))
        assert np.all(np.abs(full - orig) <= 1e-9 * (1.0 + orig)), (
            "full-rank transform moved a distance"
        )
        m = int(rng.integers(1, n + 1))
        kept = dY[:, :m]
        tail = dY[:, m:]
        trunc_sq = np.einsum("ij,ij->i", kept, kept)
        trunc = np.sqrt(trunc_sq)
        assert np.all(trunc <= orig + 1e-9), "a truncated distance grew"
        # squared distances split exactly across kept and discarded axes
        tail_sq = np.einsum("ij,ij->i", tail, tail)
        assert_allclose(orig_sq, trunc_sq + tail_sq, rtol=1e-8, atol=1e-12)
        pairs_checked += i_idx.size
    elapsed = build + time.perf_counter() - start
    verdict(
        2,
        "pairwise distances only shrink (%d pairs)" % pairs_checked,
        elapsed < 60.0,
        "%.1fs of 60s" % elapsed,
    )


def test_criterion_3_shrinkage_bounded_by_reconstruction_error(corpus):
    """0 <= shrinkage <= sum of endpoint reconstruction errors, per pair."""
    fitted, build = corpus
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    slack_worst = 0.0
    for X, model in fitted:
        m = int(rng.integers(1, model.n_features + 1))
        table, stats = drained_table(model, X, m)
        assert np.all(table.shrinkage >= -1e-9), "negative shrinkage"
        assert np.all(table.shrinkage <= table.recon_error + 1e-9), (
            "shrinkage exceeded the reconstruction bound"
        )
        assert stats.negative_count == 0 and stats.bound_violations == 0
        slack_worst = max(slack_worst, float(np.max(table.shrinkage - table.recon_error)))
    elapsed = build + time.perf_counter() - start
    verdict(
        3,
        "shrinkage bounded by reconstruction error",
        elapsed < 60.0,
        "max(shrinkage - bound) = %.2e, %.1fs of 60s" % (slack_worst, elapsed),
    )


def test_criterion_4_discarded_eigenvalue_sum_is_training_mse(corpus):
    """The discarded-eigenvalue sum equals the mean squared
    reconstruction error of the training data at every m."""
    fitted, _ = corpus
    worst = 0.0
    for X, model in fitted:
        for m in range(1, model.n_features + 1):
            back = reconstruct(model, transform(model, X, m))
            mse = float(np.mean(np.sum((X - back) ** 2, axis=1)))
            eigsum = discarded_eigenvalue_sum(model, m)
            assert_allclose(mse, eigsum, rtol=1e-8, atol=1e-12)
            worst = max(worst, abs(mse - eigsum) / max(1.0, eigsum))
    verdict(4, "discarded eigenvalue sum equals training MSE", True,
            "worst relative gap %.2e" % worst)


def test_criterion_5_jacobi_matches_closed_form_2x2():
    """Jacobi eigenvalues of 2x2 symmetric matrices match the quadratic
    closed form to 1e-12, with orthonormal vectors and tiny residuals."""
    rng = np.random.default_rng(505)
    matrices = [np.array([[2.0, 1.0], [1.0, 2.0]])]
    for _ in range(200):
        a, b, c = rng.uniform(-2.0, 2.0, size=3)
        matrices.append(np.array([[a, b], [b, c]]))
    worst = 0.0
    for S in matrices:
        a, b, c = S[0, 0], S[0, 1], S[1, 1]
        half_gap = np.sqrt(((a - c) / 2.0) ** 2 + b * b)
        expected = np.array([(a + c) / 2.0 + half_gap, (a + c) / 2.0 - half_gap])
        pairs = jacobi_eigendecomposition(S)
        assert_allclose(pairs.values, expected, rtol=0, atol=1e-12)
        worst = max(worst, float(np.max(np.abs(pairs.values - expected))))
        gram = pairs.vectors.T @ pairs.vectors
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-9
        residual = S @ pairs.vectors - pairs.vectors * pairs.values
        assert np.max(np.abs(residual)) <= 1e-9 * max(1.0, float(np.max(np.abs(expected))))
    verdict(5, "2x2 spectra match the closed form", True,
            "%d matrices, worst gap %.2e" % (len(matrices), worst))


def test_criterion_6_eigsum_tracks_shrinkage_on_synthetic_profile():
    """On the 8-dimensional anisotropic Gaussian (200 samples, variances
    8,4,2,1,0.5,0.25,0.1,0.05) the discarded-eigenvalue sum correlates
    strongly with mean shrinkage across the full sweep."""
    start = time.perf_counter()
    dataset = anisotropic_gaussian(
        n_samples=200,
        variances=(8.0, 4.0, 2.0, 1.0, 0.5, 0.25, 0.1, 0.05),
        seed=0,
    )
    summary = correlate(run_sweep(dataset, seed=0))
    elapsed = time.perf_counter() - start
    r = summary.r_eigsum_shrinkage
    ok = r is not None and r > 0.7 and elapsed < 30.0
    verdict(6, "eigsum vs mean shrinkage strongly correlated", ok,
            "r=%.4f (need > 0.7), %.1fs of 30s" % (-1 if r is None else r, elapsed))


def test_criterion_7_weak_correlations_are_flagged():
    """Report strength labels follow |r| against the 0.7 threshold, with
    np.corrcoef as the independent check on each coefficient."""

    def report_for(accuracy):
        rows = tuple(
            SweepRow(m=k + 1, eigsum=float(8 - 2 * k), mean_shrinkage=float(4 - k),
                     median_shrinkage=0.0, max_shrinkage=0.0, accuracy=float(a))
            for k, a in enumerate(accuracy)
        )
        result = SweepResult(
            dataset_name="crafted", seed=0, classifier_config="knn k=5 folds=5",
            rows=rows, pair_count=6, pairs_sampled=False,
            negative_shrinkage_pairs=0, bound_violation_pairs=0,
        )
        return sweep_report(result, correlate(result))

    # accuracy bouncing around: weakly correlated with the monotone columns
    weak = report_for([0.5, 0.9, 0.4, 0.85])
    # accuracy rising in lock step: strongly correlated
    strong = report_for([0.2, 0.4, 0.6, 0.8])

    checked = 0
    for report in (weak, strong):
        eigsum = [row["eigsum"] for row in report["rows"]]
        for key, series in (
            ("eigsum_vs_accuracy", [row["accuracy"] for row in report["rows"]]),
            ("eigsum_vs_mean_shrinkage", [row["mean_shrinkage"] for row in report["rows"]]),
        ):
            entry = report["correlations"][key]
            independent = float(np.corrcoef(eigsum, series)[0, 1])
            assert_allclose(entry["r"], independent, atol=1e-12)
            assert entry["strength"] == ("strong" if abs(independent) >= 0.7 else "weak")
            checked += 1
    assert weak["correlations"]["eigsum_vs_accuracy"]["strength"] == "weak"
    assert strong["correlations"]["eigsum_vs_accuracy"]["strength"] == "strong"
    assert weak["accuracy_correlations_weak"] is True
    assert strong["accuracy_correlations_weak"] is False

    # an undefined coefficient must stay null, not masquerade as weak
    constant = report_for([0.9, 0.9, 0.9, 0.9])
    assert constant["correlations"]["eigsum_vs_accuracy"]["r"] is None
    assert constant["correlations"]["eigsum_vs_accuracy"]["strength"] is None

    verdict(7, "sub-threshold correlations flagged as weak", True,
            "%d coefficients cross-checked" % checked)


def test_criterion_8_reports_are_byte_identical(tmp_path):
    """Same seed, same bytes: repeated runs and different --threads
    settings of the sweep and analyze commands agree exactly."""
    dataset = anisotropic_gaussian(n_samples=80, variances=(4.0, 1.0, 0.25, 0.1), seed=5)
    data = write_dataset_csv(tmp_path / "data.csv", dataset)

    def sweep(tag, threads):
        base = tmp_path / tag
        rc = main(["sweep", "--input", str(data), "--m-range", "1..4", "--folds", "4",
                   "--seed", "3", "--threads", str(threads), "--output", str(base)])
        assert rc == 0
        return (tmp_path / (tag + ".csv")).read_bytes(), (tmp_path / (tag + ".json")).read_bytes()

    def analyze(tag, threads):
        out = tmp_path / (tag + ".pairs.csv")
        rc = main(["analyze", "--input", str(data), "--m", "2", "--seed", "3",
                   "--threads", str(threads), "--output", str(out)])
        assert rc == 0
        return out.read_bytes()

    first = sweep("a", 1)
    again = sweep("b", 1)
    threaded = sweep("c", 4)
    assert first == again, "re-running the sweep changed bytes"
    assert first == threaded, "--threads changed sweep bytes"
    pairs = analyze("p1", 1)
    assert pairs == analyze("p2", 4), "--threads changed pair CSV bytes"
    assert pairs == analyze("p3", 1), "re-running analyze changed bytes"

    # sanity: the files carry real content
    payload = json.loads(first[1].decode())
    assert payload["seed"] == 3 and len(payload["rows"]) == 4
    verdict(8, "reports byte-identical across runs and thread counts", True,
            "%d sweep bytes compared" % (len(first[0]) + len(first[1])))
