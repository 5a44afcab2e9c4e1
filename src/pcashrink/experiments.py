"""Retained-dimension sweeps tying eigenvalue sums, pairwise shrinkage
and nearest-neighbour accuracy together, plus the CSV ingestion and
synthetic data they run on."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadFoldsError,
    DatasetParseError,
    DegenerateLabelsError,
    DimMismatchError,
    InsufficientRowsError,
    NonFiniteError,
    ToolkitError,
    ZeroVarianceError,
)
from .matrix import as_data_matrix
from .pca import discarded_eigenvalue_sum, fit, transform
from .serialize import open_text
from .shrinkage import CorrelationSummary, check_seed, pearson, shrinkage_tables

STRONG_CORRELATION = 0.7
# Bytes of the k-NN difference block per chunk of test rows. A byte budget,
# not a row count: 256 test rows against a 20,000 x 20 training set take 819 MB.
KNN_BLOCK_BYTES = 8 << 20


@dataclass(frozen=True)
class Dataset:
    """Numeric feature rows with optional string class labels."""

    features: np.ndarray
    labels: tuple | None = None
    name: str = "dataset"

    def __post_init__(self):
        X = as_data_matrix(self.features, "features").copy()
        X.setflags(write=False)
        object.__setattr__(self, "features", X)
        if self.labels is not None:
            labels = tuple(str(v) for v in self.labels)
            if len(labels) != X.shape[0]:
                raise DimMismatchError(
                    "%d labels for %d rows" % (len(labels), X.shape[0])
                )
            object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self):
        return self.features.shape[0]

    @property
    def n_features(self):
        return self.features.shape[1]


def load_csv(path, label_column=-1, header=False, delimiter=","):
    """Load a Dataset from delimited text.

    ``label_column`` selects which raw column holds the class label: an
    integer index (negatives count from the end), a column name (needs
    ``header=True``), or None for a purely numeric file with no labels.
    All remaining cells must parse as finite floats; the first offending
    cell is reported with its 1-based line and column. ``delimiter`` must
    be exactly one character.
    """
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise ValueError("delimiter must be a single character, got %r" % (delimiter,))
    path = Path(path)
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            rows = [(reader.line_num, row) for row in reader]
        except csv.Error as exc:
            raise DatasetParseError("%s: line %d: %s" % (path, reader.line_num, exc)) from exc

    names = None
    if header:
        if not rows:
            raise DatasetParseError("%s: empty file, expected a header row" % path)
        names = [cell.strip() for cell in rows[0][1]]
        rows = rows[1:]
    rows = [(line, row) for line, row in rows if row]
    if not rows:
        raise DatasetParseError("%s: no data rows" % path)

    width = len(rows[0][1])
    label_index = _resolve_label_column(path, label_column, names, width)

    features = []
    labels = [] if label_index is not None else None
    for line, row in rows:
        if len(row) != width:
            raise DatasetParseError(
                "%s: line %d has %d columns, expected %d" % (path, line, len(row), width)
            )
        feats = []
        for col, cell in enumerate(row):
            if col == label_index:
                labels.append(cell.strip())
                continue
            try:
                value = float(cell)
            except ValueError as exc:
                raise DatasetParseError(
                    "%s: line %d column %d: %r is not a number"
                    % (path, line, col + 1, cell)
                ) from exc
            if not math.isfinite(value):
                raise DatasetParseError(
                    "%s: line %d column %d: non-finite value %r" % (path, line, col + 1, cell)
                )
            feats.append(value)
        features.append(feats)

    if width - (0 if label_index is None else 1) == 0:
        raise DatasetParseError("%s: no feature columns left" % path)
    return Dataset(
        features=np.asarray(features, dtype=float),
        labels=tuple(labels) if labels is not None else None,
        name=path.stem,
    )


def _resolve_label_column(path, label_column, names, width):
    if label_column is None:
        return None
    if isinstance(label_column, str):
        if label_column.lower() == "none":
            return None
        if names is None:
            raise DatasetParseError(
                "%s: label column %r needs header=True" % (path, label_column)
            )
        try:
            return names.index(label_column)
        except ValueError:
            raise DatasetParseError(
                "%s: no column named %r in header %r" % (path, label_column, names)
            ) from None
    index = int(label_column)
    if index < 0:
        index += width
    if not 0 <= index < width:
        raise DatasetParseError(
            "%s: label column %d out of range for %d columns" % (path, label_column, width)
        )
    return index


def knn_accuracy(dataset, k=5, folds=5, seed=0):
    """Stratified k-fold cross-validation accuracy of a Euclidean k-NN
    majority vote, averaged over folds (unweighted).

    Everything is deterministic for a fixed seed: folds come from a
    seeded per-class shuffle dealt round-robin, neighbours are ranked by
    (distance, training index), and a tied vote goes to the class of the
    best-ranked neighbour among the tied classes. A negative seed raises
    ValueError.

    Memory: test rows are classified in chunks whose (rows x n_train x m)
    difference block holds at most KNN_BLOCK_BYTES (8 MiB), or one row's
    n_train x m block when that alone is larger, so the temporaries do not
    grow with the number of test rows.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    check_seed(seed)
    if dataset.labels is None:
        raise DegenerateLabelsError("dataset has no labels")
    labels = np.asarray(dataset.labels)
    if len(set(dataset.labels)) < 2:
        raise DegenerateLabelsError("need at least two distinct classes")
    n_samples = dataset.n_samples
    if folds < 2 or folds > n_samples:
        raise BadFoldsError(
            "folds must be in [2, %d], got %d" % (n_samples, folds)
        )

    fold_of = _stratified_folds(labels, folds, seed)
    X = dataset.features
    accuracies = []
    for f in range(folds):
        test = fold_of == f
        train = ~test
        predictions = _knn_predict(X[train], labels[train], X[test], k)
        accuracies.append(float(np.mean(predictions == labels[test])))
    return float(np.mean(accuracies))


def _stratified_folds(labels, folds, seed):
    """Fold id per sample; each class is shuffled then dealt round-robin
    with a cursor that runs on across classes, so every fold is non-empty
    whenever folds <= n_samples."""
    rng = np.random.default_rng(int(seed))
    fold_of = np.empty(labels.shape[0], dtype=np.int64)
    cursor = 0
    for cls in sorted(set(labels.tolist())):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        fold_of[idx] = (cursor + np.arange(idx.size)) % folds
        cursor += idx.size
    return fold_of


def _knn_predict(X_train, y_train, X_test, k):
    """Class of each test row by the vote of its k nearest training rows,
    one chunk of test rows at a time; each row's distances, ranking and
    vote are those of a loop over single rows, bit for bit."""
    n_train = X_train.shape[0]
    k = min(k, n_train)
    classes, codes = np.unique(y_train, return_inverse=True)
    chunk = max(1, KNN_BLOCK_BYTES // (8 * n_train * X_train.shape[1]))
    predictions = np.empty(X_test.shape[0], dtype=np.intp)
    for lo in range(0, X_test.shape[0], chunk):
        diff = X_train[None] - X_test[lo:lo + chunk, None]
        dist = np.sqrt(np.einsum("abj,abj->ab", diff, diff))
        ranked = codes[_nearest(dist, k)]
        predictions[lo:lo + chunk] = _vote(ranked, classes.size)
    return classes[predictions]


def _nearest(dist, k):
    """Per row of ``dist``, the columns of its k smallest entries ordered
    by (distance, column): the first k of a stable argsort."""
    part = np.argpartition(dist, k - 1, axis=1)[:, :k]
    near = np.take_along_axis(dist, part, axis=1)
    nearest = np.take_along_axis(part, np.lexsort((part, near), axis=1), axis=1)
    # with more than k entries at or below the k-th distance, argpartition
    # may have kept a higher column than the stable order would
    tied = np.flatnonzero(np.count_nonzero(dist <= near[:, k - 1:], axis=1) > k)
    if tied.size:
        nearest[tied] = np.argsort(dist[tied], axis=1, kind="stable")[:, :k]
    return nearest


def _vote(ranked, n_classes):
    """Winning class code per row of ``ranked`` (class codes, nearest
    first): the most votes, and among tied classes the one whose first
    neighbour ranks best."""
    rows = np.arange(ranked.shape[0])
    counts = np.bincount(
        (rows[:, None] * n_classes + ranked).ravel(), minlength=rows.size * n_classes
    ).reshape(rows.size, n_classes)
    votes = np.take_along_axis(counts, ranked, axis=1)
    best = np.argmax(votes == counts.max(axis=1, keepdims=True), axis=1)
    return ranked[rows, best]


@dataclass(frozen=True)
class SweepRow:
    """One retained-dimension setting of a sweep."""

    m: int
    eigsum: float
    mean_shrinkage: float
    median_shrinkage: float
    max_shrinkage: float
    accuracy: float


@dataclass(frozen=True)
class SweepResult:
    """All rows of a sweep plus the settings that produced them."""

    dataset_name: str
    seed: int
    classifier_config: str
    rows: tuple
    pair_count: int
    pairs_sampled: bool
    negative_shrinkage_pairs: int
    bound_violation_pairs: int


def run_sweep(dataset, m_range=None, k=5, folds=5, seed=0, threads=1, pair_sample=None):
    """Sweep the retained dimension m over ``m_range`` (inclusive; the
    default covers 1..n) and record, per m: the discarded-eigenvalue sum,
    pairwise shrinkage statistics, and k-NN accuracy measured on the
    m-dimensional transformed features. One model is fitted on the full
    data and reused for every m. Deterministic for fixed inputs and seed;
    ``threads`` is accepted and has no effect, as in shrinkage_tables.
    """
    X = dataset.features
    n = X.shape[1]
    lo, hi = (1, n) if m_range is None else (int(m_range[0]), int(m_range[1]))
    if not 1 <= lo <= hi <= n:
        raise DimMismatchError(
            "m range [%d, %d] outside [1, %d]" % (lo, hi, n)
        )

    model = fit(X)
    full = transform(model, X)
    rows = []
    negative = 0
    violations = 0
    tables = shrinkage_tables(model, X, range(lo, hi + 1), pair_sample=pair_sample, seed=seed)
    for m in range(lo, hi + 1):
        try:
            stats = next(tables).summary()
            truncated = Dataset(
                features=full[:, :m], labels=dataset.labels, name=dataset.name
            )
            accuracy = knn_accuracy(truncated, k=k, folds=folds, seed=seed)
        except ToolkitError as exc:
            raise exc.__class__("m=%d: %s" % (m, exc)) from exc
        rows.append(
            SweepRow(
                m=m,
                eigsum=discarded_eigenvalue_sum(model, m),
                mean_shrinkage=stats.mean,
                median_shrinkage=stats.median,
                max_shrinkage=stats.max,
                accuracy=accuracy,
            )
        )
        negative += stats.negative_count
        violations += stats.bound_violations
    return SweepResult(
        dataset_name=dataset.name,
        seed=int(seed),
        classifier_config="knn k=%d folds=%d" % (k, folds),
        rows=tuple(rows),
        pair_count=stats.pair_count,
        pairs_sampled=stats.sampled,
        negative_shrinkage_pairs=negative,
        bound_violation_pairs=violations,
    )


def correlate(result):
    """CorrelationSummary across the rows of a SweepResult.

    A coefficient comes out None when its series is constant (for
    example accuracy that never moves); fewer than two rows cannot be
    correlated at all.
    """
    rows = result.rows
    if len(rows) < 2:
        raise InsufficientRowsError(
            "need at least two sweep rows, got %d" % len(rows)
        )
    eigsum = [row.eigsum for row in rows]
    shrink = [row.mean_shrinkage for row in rows]
    accuracy = [row.accuracy for row in rows]

    def maybe(xs, ys):
        try:
            return pearson(xs, ys)
        except ZeroVarianceError:
            return None

    return CorrelationSummary(
        r_eigsum_shrinkage=maybe(eigsum, shrink),
        r_eigsum_accuracy=maybe(eigsum, accuracy),
        r_shrinkage_accuracy=maybe(shrink, accuracy),
        sample_count=len(rows),
    )


def anisotropic_gaussian(n_samples=200, variances=(8.0, 4.0, 2.0, 1.0, 0.5, 0.25, 0.1, 0.05),
                         seed=0, name="anisotropic-gaussian"):
    """Two-class Gaussian sample with a fixed per-axis variance profile.

    Latent axes carry the requested variances and are then mixed by a
    seeded random rotation, so the population covariance eigenvalues are
    exactly the profile. Labels are the sign of the leading latent
    coordinate, which makes them learnable from the dominant direction.
    """
    variances = np.asarray(variances, dtype=float)
    if variances.ndim != 1 or variances.size == 0 or np.any(variances < 0):
        raise ValueError("variances must be a non-empty vector of non-negative numbers")
    if np.any(~np.isfinite(variances)):
        raise NonFiniteError("variances contain NaN or infinite entries")
    n = variances.size
    rng = np.random.default_rng(int(seed))
    latent = rng.standard_normal((int(n_samples), n)) * np.sqrt(variances)
    basis, upper = np.linalg.qr(rng.standard_normal((n, n)))
    basis = basis * np.where(np.diag(upper) >= 0, 1.0, -1.0)
    labels = tuple("pos" if z > 0 else "neg" for z in latent[:, 0])
    return Dataset(features=latent @ basis.T, labels=labels, name=name)
