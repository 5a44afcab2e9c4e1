"""PCA model fitting, coordinate transforms, reconstruction, persistence.

A fitted model is the triple (mean, eigenvalues, components) where the
components matrix holds unit eigenvectors of the covariance matrix as
columns, ordered by non-increasing eigenvalue. Transforming with all n
components is an orthogonal change of basis and preserves Euclidean
distances; keeping only the first m rows of the transform is the lossy
truncation the rest of this package studies.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._version import VERSION
from .errors import DatasetParseError, DimMismatchError, NonFiniteError
from .matrix import as_data_matrix, covariance, jacobi_eigendecomposition, refuse_overflow
from .serialize import json_text, read_json, write_text

MODEL_FORMAT = "pcashrink-model"
ORTHOGONALITY_TOL = 1e-9


@dataclass(frozen=True)
class PcaModel:
    """Fitted PCA basis.

    mean
        Per-feature mean of the training data, shape (n,).
    eigenvalues
        Covariance eigenvalues sorted non-increasing, shape (n,).
    components
        Orthonormal (n, n) matrix; column k is the eigenvector paired
        with ``eigenvalues[k]``.
    degenerate
        True when the model was fitted from a single sample (zero
        covariance; transforms still work but explain nothing).
    """

    mean: np.ndarray
    eigenvalues: np.ndarray
    components: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float)
        values = np.array(self.eigenvalues, dtype=float)
        comps = np.array(self.components, dtype=float)
        if mean.ndim != 1:
            raise DimMismatchError("mean must be a vector, got shape %r" % (mean.shape,))
        n = mean.shape[0]
        if values.shape != (n,) or comps.shape != (n, n):
            raise DimMismatchError(
                "inconsistent model shapes: mean %r, eigenvalues %r, components %r"
                % (mean.shape, values.shape, comps.shape)
            )
        for arr, name in ((mean, "mean"), (values, "eigenvalues"), (comps, "components")):
            if not np.all(np.isfinite(arr)):
                raise NonFiniteError("model %s contains NaN or infinite entries" % name)
            arr.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "eigenvalues", values)
        object.__setattr__(self, "components", comps)

    @property
    def n_features(self):
        return self.mean.shape[0]


def fit(data):
    """Fit a PcaModel to row-vector samples.

    The covariance matrix (1/N normalization) is diagonalized with the
    cyclic Jacobi solver; between its fixed rotation schedule, stable
    sort and canonical sign choice, refitting the same data reproduces
    the model bit for bit, and data scaled by 2^k gives the same
    components with eigenvalues scaled by exactly 4^k.
    A single-sample fit is allowed but flagged degenerate.
    """
    X = as_data_matrix(data)
    if X.shape[0] < 2:
        warnings.warn(
            "fitting from a single sample yields a degenerate zero-covariance model",
            RuntimeWarning,
            stacklevel=2,
        )
    pairs = jacobi_eigendecomposition(covariance(X))
    return PcaModel(
        mean=X.mean(axis=0),
        eigenvalues=pairs.values,
        components=pairs.vectors,
        degenerate=X.shape[0] < 2,
    )


def check_m(model, m):
    """Resolve a retained-dimension argument; None means keep everything."""
    n = model.n_features
    if m is None:
        return n
    m = int(m)
    if not 1 <= m <= n:
        raise DimMismatchError("m must be in [1, %d], got %d" % (n, m))
    return m


def transform(model, x, m=None):
    """Project ``x`` onto the first ``m`` principal axes.

    Accepts a single vector (returns shape (m,)) or a matrix of row
    vectors (returns shape (N, m)). The truncated result equals the
    first m coordinates of the full transform by construction. A
    coordinate past the float range raises NonFiniteError.
    """
    m = check_m(model, m)
    arr = np.asarray(x, dtype=float)
    X = as_data_matrix(arr[None, :] if arr.ndim == 1 else arr, "x")
    if X.shape[1] != model.n_features:
        raise DimMismatchError(
            "expected %d features, got %d" % (model.n_features, X.shape[1])
        )
    with refuse_overflow("the coordinates overflow") as finite:
        Y = finite(np.einsum("ij,jk->ik", X - model.mean, model.components[:, :m]))
    return Y[0] if arr.ndim == 1 else Y


def reconstruct(model, y):
    """Map principal-axis coordinates back to feature space.

    ``y`` may be a vector of length m or an (N, m) matrix; discarded
    coordinates are treated as zero, so for m < n this is the usual
    lossy reconstruction and for m = n it inverts the transform exactly
    (up to roundoff). A feature past the float range raises
    NonFiniteError.
    """
    arr = np.asarray(y, dtype=float)
    Y = as_data_matrix(arr[None, :] if arr.ndim == 1 else arr, "y")
    m = check_m(model, Y.shape[1])
    with refuse_overflow("the reconstruction overflows") as finite:
        X = finite(np.einsum("ij,kj->ik", Y, model.components[:, :m])) + model.mean
    return X[0] if arr.ndim == 1 else X


def discarded_eigenvalue_sum(model, m):
    """Sum of the eigenvalues of the discarded components.

    This equals the mean squared reconstruction error of the training
    data at truncation level m. Tiny negative eigenvalues (eigensolver
    roundoff on near-singular covariances) count as zero so the sum is
    non-negative and non-increasing in m.
    """
    m = check_m(model, m)
    tail = model.eigenvalues[m:]
    return float(np.sum(np.maximum(tail, 0.0)))


def save_model(model, path):
    """Write a model to ``path`` as deterministic JSON."""
    write_text(path, [json_text({
        "format": MODEL_FORMAT,
        "version": VERSION,
        "n": model.n_features,
        "degenerate": model.degenerate,
        "mean": model.mean,
        "eigenvalues": model.eigenvalues,
        "components": model.components,
    })])


def load_model(path):
    """Read back a model written by save_model.

    Raises DatasetIOError if the file is unreadable and DatasetParseError
    if it is not a valid model (wrong marker, an ``n`` that is not a JSON
    integer or a ``degenerate`` that is not a JSON boolean, bad shapes,
    non-finite values, a components matrix that is not orthonormal, or
    eigenvalues out of order).
    """
    raw = read_json(path, "model file ")
    if not isinstance(raw, dict) or raw.get("format") != MODEL_FORMAT:
        raise DatasetParseError("model file %s lacks the %r marker" % (path, MODEL_FORMAT))
    try:
        n, degenerate = raw["n"], raw.get("degenerate", False)
        if isinstance(n, bool) or not isinstance(n, int):
            raise TypeError("n must be an integer, got %r" % (n,))
        if not isinstance(degenerate, bool):
            raise TypeError("degenerate must be true or false, got %r" % (degenerate,))
        model = PcaModel(
            mean=np.asarray(raw["mean"], dtype=float),
            eigenvalues=np.asarray(raw["eigenvalues"], dtype=float),
            components=np.asarray(raw["components"], dtype=float),
            degenerate=degenerate,
        )
    except (KeyError, TypeError, ValueError, DimMismatchError, NonFiniteError) as exc:
        raise DatasetParseError("model file %s is malformed: %s" % (path, exc)) from exc
    if model.n_features != n:
        raise DatasetParseError(
            "model file %s declares n=%d but carries %d features" % (path, n, model.n_features)
        )
    gram = model.components.T @ model.components
    if float(np.max(np.abs(gram - np.eye(n)))) > ORTHOGONALITY_TOL:
        raise DatasetParseError("model file %s: components are not orthonormal" % path)
    lam = model.eigenvalues
    slack = ORTHOGONALITY_TOL * max(1.0, float(np.max(np.abs(lam))))
    if np.any(np.diff(lam) > slack):
        raise DatasetParseError("model file %s: eigenvalues are not sorted" % path)
    return model
