"""The paper's guarantees as properties over generated data: every data
scale from 1e-9 to 1e8, rank-deficient matrices, duplicate rows and up
to 12 features; and load_csv against a reader that converts each row
as it comes, over generated cells.

Each slack is relative to the data's own scale, the largest distance of
a sample from the mean, and not to each pair's own distance: a pair of
near-duplicate rows carries the roundoff of the whole transform, so a
slack of a few eps times its own distance would flag correct pairs.

Known failures are not drawn here; they stay as the deterministic
strict xfails of tests/test_scale.py, since a failing hypothesis test
cannot report cleanly while warnings are errors."""

import csv
import dataclasses
import math
import tempfile
from array import array
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import drained_table
from pcashrink import (
    DatasetParseError,
    FullRankInjectiveError,
    collision_witness,
    covariance,
    discarded_eigenvalue_sum,
    fit,
    load_csv,
    reconstruct,
    shrinkage_summaries,
    transform,
)
from pcashrink import experiments
from pcashrink.experiments import _numbered_rows

ROUNDOFF = 64 * np.finfo(float).eps
# the solver stops once its off-diagonal norm is 1e-12 of the matrix's
RESIDUAL_TOL = 1e-11

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def datasets(draw):
    """A data matrix of 2..12 rows and 1..12 features times 10^k for k
    in -9..8, of rank at most ``rank`` (rank-deficient when that is below
    the feature count), with rows 2..dup+1 copies of row 0; rows 0 and 1
    stay distinct."""
    n_samples = draw(st.integers(2, 12))
    n = draw(st.integers(1, 12))
    rank = draw(st.integers(1, n))
    dup = draw(st.integers(0, n_samples - 2))
    scale = 10.0 ** draw(st.integers(-9, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n_samples, rank)) @ rng.standard_normal((rank, n))
    X += rng.standard_normal(n)
    X[2:2 + dup] = X[0]
    return X * scale


def spread(X):
    """The data's scale: the largest distance of a sample from the mean."""
    return float(np.max(np.linalg.norm(X - X.mean(axis=0), axis=1)))


def all_levels(model, X):
    return ((m, drained_table(model, X, m, pair_sample=0)[0])
            for m in range(1, model.n_features + 1))


@PROPERTY
@given(datasets())
def test_full_rank_is_an_injective_isometry(X):
    """Theorem 1: at m = n no pair distance changes, so distinct points
    keep distinct images, and no collision witness exists."""
    model = fit(X)
    slack = ROUNDOFF * spread(X)
    table, _ = drained_table(model, X, model.n_features, pair_sample=0)
    assert np.all(np.abs(table.dist_truncated - table.dist_original) <= slack)
    assert np.all(table.recon_error == 0)
    distinct = table.dist_original > 2 * slack
    assert np.all(table.dist_truncated[distinct] > 0)
    with pytest.raises(FullRankInjectiveError):
        collision_witness(model, X[0], model.n_features)


@PROPERTY
@given(datasets())
def test_truncation_collides_a_unit_step(X):
    """Below full rank the witness has the same truncated image and lies
    2^max(0, e - 20) from the point, e the binary exponent of the
    point's largest magnitude: one unit while that is below 2^20."""
    model = fit(X)
    slack = ROUNDOFF * (1.0 + float(np.linalg.norm(X[0])) + spread(X))
    step = np.ldexp(1.0, max(0, int(np.frexp(np.max(np.abs(X[0])))[1]) - 20))
    for m in range(1, model.n_features):
        witness = collision_witness(model, X[0], m)
        assert abs(np.linalg.norm(witness - X[0]) - step) <= slack
        gap = np.linalg.norm(transform(model, witness, m) - transform(model, X[0], m))
        assert gap <= slack


@PROPERTY
@given(datasets())
def test_shrinkage_is_non_negative_and_bounded(X):
    """Theorems 2 and 3 at every m: 0 <= shrinkage <= the summed
    reconstruction errors of the pair's endpoints."""
    model = fit(X)
    slack = ROUNDOFF * spread(X)
    for m, table in all_levels(model, X):
        assert np.min(table.shrinkage) >= -slack, m
        assert np.max(table.shrinkage - table.recon_error) <= slack, m


@PROPERTY
@given(datasets())
def test_eigsum_is_mse_and_pair_energy(X):
    """The discarded-eigenvalue sum is the training mean squared
    reconstruction error, and over all pairs the mean of shrinkage *
    (d_orig + d_trunc) is 2N/(N-1) times the discarded eigenvalues."""
    model = fit(X)
    n_samples = X.shape[0]
    slack = ROUNDOFF * model.n_features * spread(X) ** 2
    for m, table in all_levels(model, X):
        back = reconstruct(model, transform(model, X, m))
        mse = float(np.mean(np.sum((X - back) ** 2, axis=1)))
        assert abs(discarded_eigenvalue_sum(model, m) - mse) <= slack, m
        energy = np.mean(table.shrinkage * (table.dist_original + table.dist_truncated))
        want = 2 * n_samples / (n_samples - 1) * float(np.sum(model.eigenvalues[m:]))
        assert abs(energy - want) <= slack, m


@PROPERTY
@given(datasets(), st.integers(-300, 300))
def test_power_of_two_scaling_is_exact(X, k):
    """2^k X fits to the same components, bit for bit, and to exactly
    4^k times the eigenvalues; its pair summaries at every level are
    exactly 2^k times the mean, median and max, with the same counts."""
    model, scaled = fit(X), fit(np.ldexp(X, k))
    assert scaled.components.tobytes() == model.components.tobytes()
    assert scaled.eigenvalues.tobytes() == np.ldexp(model.eigenvalues, 2 * k).tobytes()
    levels = range(1, model.n_features + 1)
    for want, got in zip(shrinkage_summaries(model, X, levels),
                         shrinkage_summaries(scaled, np.ldexp(X, k), levels), strict=True):
        centre = [np.ldexp(want.mean, k), np.ldexp(want.median, k), np.ldexp(want.max, k)]
        assert np.array(centre).tobytes() == np.array([got.mean, got.median, got.max]).tobytes()
        unscaled = dict(mean=0.0, median=0.0, max=0.0)
        assert dataclasses.replace(got, **unscaled) == dataclasses.replace(want, **unscaled)


@PROPERTY
@given(datasets())
def test_eigenpairs_match_lapack(X):
    """Eigenvalues agree with numpy.linalg.eigh to roundoff, the residual
    ||SV - V Lambda|| is within the solver's stop rule, and the
    components are orthonormal; each relative to the squared scale."""
    model = fit(X)
    S = covariance(X)
    scale2 = spread(X) ** 2
    want = np.linalg.eigh(S)[0][::-1]
    assert np.max(np.abs(model.eigenvalues - want)) <= ROUNDOFF * scale2
    V = model.components
    assert np.linalg.norm(S @ V - V * model.eigenvalues) <= RESIDUAL_TOL * scale2
    assert np.linalg.norm(V.T @ V - np.eye(model.n_features)) <= ROUNDOFF * model.n_features


SPACES = " \t\x0b\x0c\xa0\u2003\u3000"
DIGITS = "0123456789\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669\u0967"
SIGNS = st.sampled_from(["", "+", "-"])


def padded(cells):
    """``cells`` with up to two ASCII or Unicode spaces on either side."""
    pad = st.text(SPACES, max_size=2)
    return st.builds("{}{}{}".format, pad, cells, pad)


# finite cells that float() reads: decimal and exponent spellings, digit
# groups joined by underscores, and non-ASCII digits
NUMBERS = padded(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e300, 1e300).map("%.3e".__mod__),
    st.builds("{}{}.{}e{}{}".format, SIGNS, st.text(DIGITS, min_size=1, max_size=3),
              st.text(DIGITS, max_size=3), SIGNS, st.text(DIGITS, min_size=1, max_size=2)),
    st.lists(st.text(DIGITS, min_size=1, max_size=3), min_size=1, max_size=3).map("_".join),
))

# cells load_csv refuses: inf and nan spellings, and cells that are no
# float, the csv reader's NUL among them
BAD = st.one_of(
    padded(st.sampled_from(["inf", "-Infinity", "+INF", "nan", "-NaN", "nAn", "1e999"])),
    st.sampled_from(["", " ", "0x10", "1e", "1\x00", "--1", "1__0", "_1", "1_", "1.2.3",
                     "infinit", "nan(1)", "\u0661\u066b5"]),
    st.text(st.characters(exclude_categories=("Cs",), exclude_characters=',"\r\n'),
            max_size=4),
)


def per_row_reference(path, label_column):
    """(features' bytes, None) or (None, the first error's message) of
    the reader load_csv's blocks replaced: each row's feature cells go
    through map(float) as it is read, and a row that fails is checked
    cell by cell."""
    values = array("d")
    width = None
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            for line, row in _numbered_rows(csv.reader(fh), path):
                if not row:
                    continue
                width = width or len(row)
                if len(row) != width:
                    return None, "%s: line %d has %d columns, expected %d" % (
                        path, line, len(row), width)
                cells = row if label_column is None else row[1:]
                try:
                    feats = list(map(float, cells))
                except ValueError:
                    feats = [math.nan]
                if not math.isfinite(sum(feats)):
                    for col, cell in enumerate(row, 1):
                        if col == 1 and label_column is not None:
                            continue
                        try:
                            value = float(cell)
                        except ValueError:
                            return None, "%s: line %d column %d: %r is not a number" % (
                                path, line, col, cell)
                        if not math.isfinite(value):
                            return None, "%s: line %d column %d: non-finite value %r" % (
                                path, line, col, cell)
                values.extend(feats)
    except DatasetParseError as exc:
        return None, str(exc)
    if width is None:
        return None, "%s: no data rows" % path
    if width == (label_column is not None):
        return None, "%s: no feature columns left" % path
    return values.tobytes(), None


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.data())
def test_load_csv_matches_the_per_row_reader(data):
    """Block by block, load_csv reads the features' bits and the first
    error of a reader that converts each row as it comes, over files of
    several blocks."""
    n = data.draw(st.integers(1, 4))
    labelled = data.draw(st.booleans())
    rows = data.draw(st.lists(st.lists(NUMBERS, min_size=n, max_size=n),
                              min_size=1, max_size=30))
    for _ in range(data.draw(st.integers(0, 3))):
        row = rows[data.draw(st.integers(0, len(rows) - 1))]
        if not row:
            continue
        if data.draw(st.integers(0, 2)):
            row[data.draw(st.integers(0, len(row) - 1))] = data.draw(BAD)
        else:
            row.pop()  # a row one cell short
    text = "".join(",".join((["a"] if labelled else []) + row) + "\n" for row in rows)
    label_column = 0 if labelled else None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_text(text, encoding="utf-8")
        want = per_row_reference(path, label_column)
        with mock.patch.object(experiments, "_LOAD_CELLS", data.draw(st.integers(1, 12))):
            try:
                got = load_csv(path, label_column=label_column).features.tobytes(), None
            except DatasetParseError as exc:
                got = None, str(exc)
    assert got == want
