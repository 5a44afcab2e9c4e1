"""The chunked k-NN classifier against a per-row reference loop, at one
level and at every level of one pass, its memory bound, and the pinned
bytes of a small seeded sweep."""

import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import write_dataset_csv
from pcashrink import Dataset, anisotropic_gaussian, experiments, fit, knn_accuracy, transform
from pcashrink.cli import main
from pcashrink.experiments import _knn_folds, _knn_pass, _knn_predict, _stratified_folds


def reference_knn_predict(X_train, y_train, X_test, k):
    """The classifier as one loop over test rows: a stable argsort of each
    row's distances and a vote broken by the best-ranked neighbour."""
    k = min(k, X_train.shape[0])
    predictions = []
    for x in X_test:
        diff = X_train - x
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        ranked = y_train[np.argsort(dist, kind="stable")[:k]].tolist()
        predictions.append(
            max(ranked, key=lambda lbl: (ranked.count(lbl), -ranked.index(lbl)))
        )
    return np.asarray(predictions)


def assert_matches_reference(dataset, k, folds, seed=0):
    """Every fold's predictions equal the reference loop's, and so does
    knn_accuracy, compared with ==."""
    labels = np.asarray(dataset.labels)
    fold_of = _stratified_folds(labels, folds, seed)
    X = dataset.features
    accuracies = []
    for f in range(folds):
        test = fold_of == f
        got = _knn_predict(X[~test], labels[~test], X[test], k, [X.shape[1]])[0]
        want = reference_knn_predict(X[~test], labels[~test], X[test], k)
        assert np.array_equal(got, want), (k, folds, f)
        accuracies.append(float(np.mean(want == labels[test])))
    assert knn_accuracy(dataset, k=k, folds=folds, seed=seed) == float(np.mean(accuracies))


def assert_levels_match_reference(dataset, levels, k, folds, seed=0):
    """One pass over ``levels`` gives, at each level m, the reference loop's
    predictions on the first m columns in every fold, and the accuracies
    those predictions give, compared with ==."""
    labels = np.asarray(dataset.labels)
    fold_of = _stratified_folds(labels, folds, seed)
    X = dataset.features
    accuracies = np.empty((len(levels), folds))
    for f in range(folds):
        test = fold_of == f
        got = _knn_predict(X[~test], labels[~test], X[test], k, levels)
        assert got.shape == (len(levels), np.count_nonzero(test))
        for row, m in enumerate(levels):
            want = reference_knn_predict(X[~test][:, :m], labels[~test], X[test][:, :m], k)
            assert np.array_equal(got[row], want), (m, k, folds, f)
            accuracies[row, f] = np.mean(want == labels[test])
    assert _knn_pass(X, *_knn_folds(dataset.labels, k, folds, seed), levels, k) == [
        float(np.mean(row)) for row in accuracies]


HALVING_20 = tuple(2.0 ** (-k / 2.0) for k in range(20))


@pytest.mark.parametrize("m", [1, 2, 5, 10, 20])
def test_pca_features_match_reference(m):
    ds = anisotropic_gaussian(600, HALVING_20, seed=101)
    full = transform(fit(ds.features), ds.features)
    assert_matches_reference(Dataset(full[:, :m], ds.labels), k=5, folds=5, seed=101)


@pytest.mark.parametrize("levels", [range(1, 21), range(3, 8)], ids=["1..20", "3..7"])
def test_pca_features_at_every_level_match_reference(levels):
    # a range above 1 must still sum the columns below its first level
    ds = anisotropic_gaussian(600, HALVING_20, seed=101)
    full = transform(fit(ds.features), ds.features)
    assert_levels_match_reference(Dataset(full, ds.labels), levels, k=5, folds=5, seed=101)


@pytest.mark.parametrize("k, chunk_rows", [
    *(pytest.param(k, None, id=str(k)) for k in (1, 3, 7, 50)),
    *(pytest.param(k, rows, id="%d-%d-row-chunks" % (k, rows))
      for k in (1, 3, 7, 50) for rows in (1, 3)),
])
def test_tie_heavy_integer_grid_matches_reference(monkeypatch, k, chunk_rows):
    # 4**6 cells for 600 rows: many exact distance ties at the k-th place.
    # With chunk_rows set, the budget fits that many test rows of a fold's
    # 480 training rows, so the predictions cross chunk borders
    if chunk_rows is not None:
        monkeypatch.setattr(experiments, "KNN_BLOCK_BYTES", chunk_rows * 3 * 8 * 480)
    rng = np.random.default_rng(3)
    X = rng.integers(0, 4, size=(600, 6)).astype(float)
    labels = rng.choice(["a", "b", "c"], size=600)
    assert_matches_reference(Dataset(X, labels), k=k, folds=5, seed=7)
    assert_levels_match_reference(Dataset(X, labels), range(1, 7), k=k, folds=5, seed=7)


@pytest.mark.parametrize("k", [8, 9, 40])
def test_k_at_or_above_training_size_matches_reference(k):
    ds = anisotropic_gaussian(12, (3.0, 1.0), seed=4)
    # 3 folds of 4 rows: 8 training rows per fold; a k above that warns
    if k > 8:
        with pytest.warns(RuntimeWarning, match=r"k=%d .*as few as 8\)" % k):
            assert_matches_reference(ds, k=k, folds=3, seed=2)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_matches_reference(ds, k=k, folds=3, seed=2)


def test_one_point_test_folds_match_reference():
    ds = anisotropic_gaussian(30, (3.0, 1.0, 0.5), seed=9)
    assert_matches_reference(ds, k=5, folds=30)
    X = ds.features
    labels = np.asarray(ds.labels)
    got = _knn_predict(X[1:], labels[1:], X[:1], 5, [X.shape[1]])[0]
    assert np.array_equal(got, reference_knn_predict(X[1:], labels[1:], X[:1], 5))


@pytest.mark.parametrize("labels, expected", [
    ("cbaabc", "c"),
    ("bcacab", "b"),
    ("abccba", "a"),
    ("ccbbaa", "c"),
])
def test_three_way_vote_tie_goes_to_the_best_ranked_class(labels, expected):
    # six neighbours at distances 1..6 and two votes for each class
    X_train = np.arange(1.0, 7.0)[:, None]
    y_train = np.asarray(list(labels))
    query = np.array([[0.0], [0.5]])
    got = _knn_predict(X_train, y_train, query, 6, [1])[0]
    assert got.tolist() == [expected, expected]
    assert np.array_equal(got, reference_knn_predict(X_train, y_train, query, 6))


def test_memory_stays_within_the_block_budget():
    # a fixed 256-row chunk would need 256 x 20,000 x 20 doubles (819 MB)
    rng = np.random.default_rng(0)
    X_train = rng.standard_normal((20000, 20))
    y_train = rng.choice(["neg", "pos"], size=20000)
    X_test = rng.standard_normal((500, 20))
    for levels in ([20], range(1, 21)):
        tracemalloc.start()
        try:
            _knn_predict(X_train, y_train, X_test, 5, levels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, levels


def test_small_sweep_bytes_are_pinned(tmp_path, capsys):
    """Any change to the bits of a sweep report shows here. The digests
    were taken before the k-NN was vectorized, which did not move them, and
    re-pinned when the Jacobi solver moved to batched round-robin rotations
    and changed the fit's last bits: against the previous reports, m and
    every accuracy were identical, and eigsum and each shrinkage column
    within 1.3e-15 of the column's largest value. Re-pinned again when
    every pair distance became its squared coordinate differences summed
    in column order and the mean a sum of fixed pieces: m, eigsum and
    every accuracy were identical, and each shrinkage column within
    5.1e-16 of its largest value. Re-pinned when the covariance moved from
    a BLAS product to a fixed-order np.einsum sum, which changed the fit's
    last bits: m and every accuracy were identical, eigsum within 4.0e-16
    and each shrinkage column within 5.1e-16 of its largest value, and
    each correlation within 4e-16. Re-pinned when anisotropic_gaussian
    moved from np.linalg.qr and a BLAS product to fixed-order sums, which
    changed the input's last bits, and transform and pearson to np.einsum:
    m and every accuracy were identical, eigsum and each shrinkage column
    within 8.8e-16 of the column's largest value, and each correlation
    within 1.2e-16."""
    ds = anisotropic_gaussian(400, seed=5)
    data = write_dataset_csv(tmp_path / "data.csv", ds)
    rc = main(["sweep", "--input", str(data), "--k", "5", "--folds", "4", "--seed", "3",
               "--output", str(tmp_path / "s")])
    capsys.readouterr()
    assert rc == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("s.csv", "s.json")}
    assert digests == {
        "s.csv": "4ba050c6747879051fd57e6f93bb3eff4c6f95e05dc16583046dd23b58f9c020",
        "s.json": "177df735d7c35699c3fa36907c2d6a865b7e2909828bbaa4f0f361249bdadc7f",
    }
