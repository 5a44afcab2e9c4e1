"""Retained-dimension sweeps tying eigenvalue sums, pairwise shrinkage
and nearest-neighbour accuracy together, the Pearson correlations across
a sweep's rows, and the CSV ingestion and synthetic data they run on."""

from __future__ import annotations

import csv
import math
import warnings
from array import array
from contextlib import contextmanager
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
from .matrix import as_data_matrix, as_vector, max_exponent, refuse_overflow
from .pca import discarded_eigenvalue_sum, fit, transform
from .serialize import open_text
from .shrinkage import check_seed, shrinkage_summaries

# Bytes of the k-NN temporaries per chunk of test rows. A byte budget, not a
# row count: the temporaries grow with the training rows, 0.48 MB per test
# row against a 20,000-row training set. 2 MiB was no slower than 4 or 8 MiB
# at 2,000 or 20,000 rows.
KNN_BLOCK_BYTES = 2 << 20

# Feature cells load_csv converts at once. The block's cell strings are the
# reader's largest temporaries: at 8,192 cells a 1,000 x 40 load peaked at
# 1.25 MiB (tracemalloc), where 2,048 keep it under 1 MiB.
_LOAD_CELLS = 2048


@dataclass(frozen=True)
class Dataset:
    """Numeric feature rows with optional string class labels. The
    features are held read-only: a writeable input is copied first, so
    that changing it later leaves the Dataset as it was; a read-only
    float64 matrix is kept as it is."""

    features: np.ndarray
    labels: tuple | None = None
    name: str = "dataset"

    def __post_init__(self):
        X = as_data_matrix(self.features, "features")
        if X.flags.writeable:
            X = X.copy()
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
    All remaining cells must parse as finite floats (``float()``'s
    grammar). Rows are read as strings a block of about _LOAD_CELLS
    feature cells at a time, and each block is converted by one
    ``np.array(rows, dtype=float)``, whose str-to-float cast is
    ``float()``'s own parser, straight into one float64 buffer (8 B a
    cell), so no more than one block's cell strings are alive at once.
    Only a block that fails to convert or holds a non-finite value goes
    through the per-cell checks, and a block is converted before any
    later error (a ragged row, a csv or a decoding error) is raised, so
    the first error in file order is the one reported, with its 1-based
    line (and column for a bad cell). A header must be as wide as the
    rows. ``delimiter`` must be exactly one character.
    """
    check_delimiter(delimiter)
    path = Path(path)
    values = array("d")
    labels = []
    # the feature cells and line numbers of the rows not yet converted
    block, lines = [], []
    with open_text(path, newline="") as fh:
        rows = _numbered_rows(csv.reader(fh, delimiter=delimiter), path)
        names = None
        if header:
            first = next(rows, None)
            if first is None:
                raise DatasetParseError("%s: empty file, expected a header row" % path)
            names = [cell.strip() for cell in first[1]]
        width = label_index = None
        try:
            for line, row in rows:
                if not row:
                    continue
                if width is None:
                    width = len(row if names is None else names)
                    label_index = _resolve_label_column(path, label_column, names, width)
                    n_features = width - (label_index is not None)
                    step = max(1, _LOAD_CELLS // max(1, n_features))
                if len(row) != width:
                    raise DatasetParseError(
                        "%s: line %d has %d columns, expected %d" % (path, line, len(row), width)
                    )
                if label_index is not None:
                    labels.append(row.pop(label_index).strip())
                block.append(row)
                lines.append(line)
                if len(block) == step:
                    # new lists first: a block that fails is not converted again below
                    full, full_lines, block, lines = block, lines, [], []
                    _convert(path, full_lines, full, label_index, values)
        except (DatasetParseError, UnicodeDecodeError):
            # the rows not yet converted come before this error in the file
            _convert(path, lines, block, label_index, values)
            raise
        _convert(path, lines, block, label_index, values)

    if width is None:
        raise DatasetParseError("%s: no data rows" % path)
    if n_features == 0:
        raise DatasetParseError("%s: no feature columns left" % path)
    features = np.frombuffer(values, dtype=float).reshape(-1, n_features)
    features.setflags(write=False)  # the Dataset keeps it, with no copy
    return Dataset(
        features=features,
        labels=tuple(labels) if label_index is not None else None,
        name=path.stem,
    )


def check_delimiter(delimiter):
    """Refuse a field delimiter that is not exactly one character."""
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise ValueError("delimiter must be a single character, got %r" % (delimiter,))


def _convert(path, lines, rows, label_index, values):
    """Append ``rows``, the feature cells of ``lines``, to the float64
    buffer ``values`` by one np.array cast; a block that the cast refuses
    or that holds a non-finite value raises from _check_cells."""
    try:
        block = np.array(rows, dtype=float)
    except ValueError:
        block = None
    if block is None or not np.isfinite(block).all():
        _check_cells(path, lines, rows, label_index)  # raises: a cell is no finite float
    values.frombytes(block.tobytes())


def _check_cells(path, lines, rows, label_index):
    """Raise the error of the first cell of ``rows``, the feature cells of
    ``lines``, that is not a finite float, in file order. The rows hold no
    label cell, but a column number counts it. Only a block that has such
    a cell comes here: np.array's str-to-float cast and the finiteness
    check are exact per cell."""
    for line, row in zip(lines, rows):
        for k, cell in enumerate(row):
            col = k + 1 + (label_index is not None and k >= label_index)
            try:
                value = float(cell)
            except ValueError as exc:
                raise DatasetParseError(
                    "%s: line %d column %d: %r is not a number" % (path, line, col, cell)
                ) from exc
            if not math.isfinite(value):
                raise DatasetParseError(
                    "%s: line %d column %d: non-finite value %r" % (path, line, col, cell)
                )


def _numbered_rows(reader, path):
    """(physical line, row) per row as read; a csv.Error names its line."""
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise DatasetParseError("%s: line %d: %s" % (path, reader.line_num, exc)) from exc


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
    majority vote, averaged over folds (unweighted): the sweep's k-NN
    pass at the one level of all features.

    Everything is deterministic for a fixed seed: folds come from a
    seeded per-class shuffle dealt round-robin, neighbours are ranked by
    (distance, training index), and a tied vote goes to the class of the
    best-ranked neighbour among the tied classes. A negative seed raises
    ValueError.

    Memory: test rows are classified in chunks of KNN_BLOCK_BYTES //
    (24 x n_train) rows, at least one, budgeting three rows x n_train
    blocks of 8 bytes (the squared distances, one reused buffer of a
    column's differences and the partition's indices) at 2 MiB; rows
    with an exact distance tie at the k-th place take a few more such
    blocks besides. The temporaries grow with neither the number of test
    rows nor the number of features.
    """
    labels, tests = _knn_folds(dataset.labels, k, folds, seed)
    return _knn_pass(dataset.features, labels, tests, [dataset.n_features], k)[0]


def check_k(k):
    """Refuse a neighbour count below one."""
    if k < 1:
        raise ValueError("k must be at least 1")


def _knn_folds(labels, k, folds, seed):
    """Check the k-NN arguments against the row ``labels`` and deal the
    folds: the labels as an array and each fold's test-row mask. A k
    above the fewest training rows of a fold warns (RuntimeWarning): such
    a fold votes over all of its training rows (see _knn_predict)."""
    check_k(k)
    check_seed(seed)
    if labels is None:
        raise DegenerateLabelsError("dataset has no labels")
    if len(set(labels)) < 2:
        raise DegenerateLabelsError("need at least two distinct classes")
    if folds < 2 or folds > len(labels):
        raise BadFoldsError("folds must be in [2, %d], got %d" % (len(labels), folds))
    labels = np.asarray(labels)
    fold_of = _stratified_folds(labels, folds, seed)
    fewest = labels.size - np.bincount(fold_of).max()
    if k > fewest:
        warnings.warn("k=%d exceeds a fold's training rows (as few as %d); such a fold "
                      "votes over all of them" % (k, fewest), RuntimeWarning, stacklevel=3)
    return labels, [fold_of == f for f in range(folds)]


def _knn_pass(X, labels, tests, levels, k):
    """Mean over the folds of the k-NN accuracy at each m of ``levels``,
    each fold's test rows classified by its other rows."""
    accuracies = np.empty((len(levels), len(tests)))
    for f, test in enumerate(tests):
        predictions = _knn_predict(X[~test], labels[~test], X[test], k, levels)
        accuracies[:, f] = np.mean(predictions == labels[test], axis=1)
    return [float(np.mean(row)) for row in accuracies]


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


@refuse_overflow("pairwise distances overflow")
def _knn_predict(X_train, y_train, X_test, k, levels):
    """Class of each test row by the vote of its k nearest training rows
    on the first m columns, one row per m of the ascending ``levels``.
    Per chunk of test rows the squared distances grow one column at a
    time, in column order, so a level costs one column instead of m. A
    difference, square or sum that overflows raises NonFiniteError, as
    in the pair kernel (shrinkage._extend)."""
    n_train = X_train.shape[0]
    k = min(k, n_train)
    classes, codes = np.unique(y_train, return_inverse=True)
    train = np.ascontiguousarray(X_train[:, :levels[-1]].T)
    chunk = max(1, KNN_BLOCK_BYTES // (3 * 8 * n_train))
    predictions = np.empty((len(levels), X_test.shape[0]), dtype=np.intp)
    for lo in range(0, X_test.shape[0], chunk):
        test = X_test[lo:lo + chunk]
        d2 = np.zeros((test.shape[0], n_train))
        diff = np.empty_like(d2)
        for row, (start, m) in enumerate(zip([0, *levels], levels)):
            for c in range(start, m):
                np.subtract(train[c], test[:, c, None], out=diff)
                np.multiply(diff, diff, out=diff)
                d2 += diff
            predictions[row, lo:lo + chunk] = _vote(codes[_nearest(d2, k)], classes.size)
    return classes[predictions]


def _nearest(dist, k):
    """Per row of ``dist``, the columns of its k smallest entries ordered
    by (distance, column): the first k of a stable argsort."""
    if k == dist.shape[1]:
        return np.argsort(dist, axis=1, kind="stable")
    # partitioned at k, columns 0..k-1 hold the k smallest distances and
    # column k the next one
    part = np.argpartition(dist, k, axis=1)[:, :k + 1]
    near = np.take_along_axis(dist, part, axis=1)
    part, near, after = part[:, :k], near[:, :k], near[:, k]
    nearest = np.take_along_axis(part, np.lexsort((part, near), axis=1), axis=1)
    # when the next distance equals the k-th, more than k entries lie at or
    # below it, and argpartition may have kept a higher column than the
    # stable order would. The stable order's first k are every entry below
    # the k-th distance, then the lowest columns at it; a stable sort of
    # those k alone, taken in column order, orders them by (distance, column)
    kth = near.max(axis=1)
    tied = np.flatnonzero(after <= kth)
    if tied.size:
        rows, kth = dist[tied], kth[tied, None]
        below, at = rows < kth, rows == kth
        at &= np.cumsum(at, axis=1) <= k - np.count_nonzero(below, axis=1)[:, None]
        cols = np.nonzero(below | at)[1].reshape(-1, k)
        order = np.argsort(np.take_along_axis(rows, cols, axis=1), axis=1, kind="stable")
        nearest[tied] = np.take_along_axis(cols, order, axis=1)
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


@contextmanager
def _at_level(m):
    """Name level ``m`` in a ToolkitError that the block raises."""
    try:
        yield
    except ToolkitError as exc:
        raise exc.__class__("m=%d: %s" % (m, exc)) from exc


def run_sweep(dataset, m_range=None, k=5, folds=5, seed=0, pair_sample=None):
    """Sweep the retained dimension m over ``m_range`` (inclusive; the
    default covers 1..n) and record, per m: the discarded-eigenvalue sum,
    pairwise shrinkage statistics, and k-NN accuracy measured on the
    m-dimensional transformed features. One model is fitted on the full
    data and reused for every m. The k-NN arguments are checked before
    the fit, the pair arguments and budget before any pass (a ToolkitError
    names the first m). shrinkage_summaries first summarizes the pairs of
    every level in one pass, holding no pair column and freeing its
    temporaries when it returns; then one k-NN pass covers every level.
    Both add one column a level to running squared distances, by the one
    distance rule. Deterministic for fixed inputs and seed.
    """
    X = dataset.features
    n = X.shape[1]
    lo, hi = (1, n) if m_range is None else (int(m_range[0]), int(m_range[1]))
    if not 1 <= lo <= hi <= n:
        raise DimMismatchError(
            "m range [%d, %d] outside [1, %d]" % (lo, hi, n)
        )

    levels = range(lo, hi + 1)
    with _at_level(lo):  # so a one-row input (one class) is refused before the fit
        labels, tests = _knn_folds(dataset.labels, k, folds, seed)
    model = fit(X)
    with _at_level(lo):
        stats = list(shrinkage_summaries(model, X, levels, pair_sample=pair_sample, seed=seed))
    accuracies = _knn_pass(transform(model, X), labels, tests, levels, k)
    rows = tuple(
        SweepRow(m, discarded_eigenvalue_sum(model, m), s.mean, s.median, s.max, accuracy)
        for m, s, accuracy in zip(levels, stats, accuracies)
    )
    return SweepResult(
        dataset_name=dataset.name,
        seed=int(seed),
        classifier_config="knn k=%d folds=%d" % (k, folds),
        rows=rows,
        pair_count=stats[-1].pair_count,
        pairs_sampled=stats[-1].sampled,
        negative_shrinkage_pairs=sum(s.negative_count for s in stats),
        bound_violation_pairs=sum(s.bound_violations for s in stats),
    )


def pearson(xs, ys):
    """Pearson correlation coefficient of two equal-length series.

    Raises ZeroVarianceError when either series is constant (including
    the single-observation case), DimMismatchError when the lengths differ.
    Each series is first scaled by the exact power of two that brings its
    largest magnitude into [0.5, 1), so the squares neither overflow nor
    underflow at any data scale, and a series scaled by 2^k gives the
    same bits. The returned value is clipped to [-1, 1] to absorb roundoff.
    """
    x, y = (np.ldexp(v, -max_exponent(v)) for v in (as_vector(xs, "xs"), as_vector(ys, "ys")))
    if x.shape[0] != y.shape[0]:
        raise DimMismatchError("length mismatch: %d vs %d" % (x.shape[0], y.shape[0]))
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.sqrt(np.einsum("i,i->", dx, dx)))
    sy = float(np.sqrt(np.einsum("i,i->", dy, dy)))
    if sx == 0.0 or sy == 0.0:
        raise ZeroVarianceError("correlation is undefined for a constant series")
    r = float(np.einsum("i,i->", dx, dy)) / (sx * sy)
    return min(1.0, max(-1.0, r))


@dataclass(frozen=True)
class CorrelationSummary:
    """Pearson coefficients among sweep series; None marks a coefficient
    that is undefined because one of its series is constant."""

    r_eigsum_shrinkage: float | None
    r_eigsum_accuracy: float | None
    r_shrinkage_accuracy: float | None
    sample_count: int


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
                         seed=0):
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
    # the Q of a Gaussian matrix's QR with R's diagonal positive, by modified
    # Gram-Schmidt run twice: row k of ``basis`` is column k of Q
    basis = rng.standard_normal((n, n)).T.copy()
    for k, v in enumerate(basis):
        for q in [*basis[:k], *basis[:k]]:
            v -= np.einsum("i,i->", q, v) * q
        v /= np.sqrt(np.einsum("i,i->", v, v))
    labels = tuple("pos" if z > 0 else "neg" for z in latent[:, 0])
    return Dataset(features=np.einsum("ij,jk->ik", latent, basis), labels=labels,
                   name="anisotropic-gaussian")
