"""The pair kernel's two ways of visiting pairs, and the summary paths
of the sweep and of analyze. All pairs go in row blocks (row r's pairs
as ``Z[r+1:] - Z[r]``), sampled pairs by index gathers; both must give
the same bits. Each summary path must give the bits of
``PairTable.summary`` without a table."""

import dataclasses

import numpy as np
import pytest

from pcashrink import (
    fit,
    shrinkage,
    shrinkage_blocks,
    shrinkage_summaries,
    shrinkage_table,
    transform,
)


def _data(n_samples, n_features, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_samples, n_features)) * 2.0 ** -np.arange(n_features)
    if n_samples > 4:
        X[n_samples // 2] = X[1]
        X[-1] = X[0]
    return X


def _column(Z, pairs):
    out = np.empty(pairs.count)
    for step in pairs.steps():
        out[step[0]:step[1]] = shrinkage._distances(Z, step)
    return out


def _gathered(Z, i, j):
    diff = Z[i] - Z[j]
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


# a chunk of 5 pairs puts long rows in steps of their own and groups the short ones
@pytest.mark.parametrize("chunk", [5, shrinkage._CHUNK])
@pytest.mark.parametrize("n_samples, n_features", [(2, 3), (3, 2), (17, 5), (40, 7)])
def test_row_blocks_match_gathers_bit_for_bit(monkeypatch, chunk, n_samples, n_features):
    monkeypatch.setattr(shrinkage, "_CHUNK", chunk)
    X = _data(n_samples, n_features)
    model = fit(X)
    Y = transform(model, X)
    i, j = (v.astype(np.int64) for v in np.triu_indices(n_samples, k=1))
    rows = shrinkage._Pairs(n_samples, None)
    gathers = shrinkage._Pairs(n_samples, (i, j))
    # the table builds its index columns a step at a time
    table = shrinkage_table(model, X, 1)
    assert table.i.dtype == table.j.dtype == np.int64
    assert np.array_equal(table.i, i) and np.array_equal(table.j, j)
    # the first n columns of Y are a non-contiguous view for m < n; a level
    # hands the kernel a contiguous copy, which must give the view's bits
    for Z in [X] + [Y[:, :m] for m in range(1, n_features + 1)]:
        expected = _gathered(Z, i, j).tobytes()
        assert _column(Z, rows).tobytes() == expected
        assert _column(Z, gathers).tobytes() == expected
        if Z is not X:
            level_copy = shrinkage._level_operands(Y, Z.shape[1])[0]
            assert level_copy.flags.c_contiguous
            assert _column(level_copy, rows).tobytes() == expected
            assert _column(level_copy, gathers).tobytes() == expected


def _hex_fields(summary):
    return {field.name: getattr(summary, field.name).hex()
            if isinstance(getattr(summary, field.name), float) else getattr(summary, field.name)
            for field in dataclasses.fields(summary)}


@pytest.mark.parametrize("options", [{"pair_sample": 0}, {"pair_sample": 300, "seed": 5}],
                         ids=["all-pairs", "sampled"])
@pytest.mark.parametrize("tol", [shrinkage.VIOLATION_TOL, -1e-3], ids=["default-tol", "flagging"])
def test_summaries_match_table_summaries_bit_for_bit(monkeypatch, options, tol):
    """The flagging tolerance makes the counts non-zero and spread across
    steps, whose boundaries a small _CHUNK multiplies. A several-level
    call shares one original-distance column; a one-level call, like
    analyze's, takes each step's original distances from X."""
    monkeypatch.setattr(shrinkage, "_CHUNK", 64)
    X = _data(60, 6, seed=2)
    model = fit(X)
    levels = range(1, 7)
    summaries = list(shrinkage_summaries(model, X, levels, violation_tol=tol, **options))
    assert [s.m for s in summaries] == list(levels)
    for m, got in zip(levels, summaries):
        want = _hex_fields(shrinkage_table(model, X, m, **options).summary(violation_tol=tol))
        assert _hex_fields(got) == want, "m=%d" % m
        one = next(shrinkage_summaries(model, X, [m], violation_tol=tol, **options))
        assert _hex_fields(one) == want, "m=%d" % m
        blocks, summary = shrinkage_blocks(model, X, m, violation_tol=tol, **options)
        for _ in blocks:
            pass
        assert _hex_fields(summary()) == want, "m=%d" % m
    if tol < 0:
        assert sum(s.violating_pairs for s in summaries) > 0


def test_summary_leaves_the_shrinkage_column_unchanged():
    # the median partitions a copy; the analyze CSV writes this column afterwards
    X = _data(80, 4, seed=1)
    table = shrinkage_table(fit(X), X, 2)
    before = table.shrinkage.tobytes()
    table.summary()
    table.summary(violation_tol=-1)
    assert table.shrinkage.tobytes() == before


def _median(values):
    d = np.array(values, dtype=float)
    return shrinkage._summarize(1, False, d, np.zeros(3, dtype=np.int64)).median


_RNG = np.random.default_rng(11)
MEDIAN_CASES = {
    "size-1": [2.5],
    "size-2": [0.3, 0.1],
    "size-3": [0.7, -0.2, 0.3],
    "size-4": [0.3, 0.7, 0.1, 0.2],
    "large-odd": _RNG.standard_normal(100_001),
    "large-even": _RNG.standard_normal(100_000),
    "middle-duplicates": [5.0, 0.1, 0.1, 0.1, 0.1, 2.0, 0.1, -3.0],
    "all-equal": np.full(12, 0.1),
    "negative": -_RNG.exponential(size=1000),
}


@pytest.mark.parametrize("values", MEDIAN_CASES.values(), ids=MEDIAN_CASES.keys())
def test_one_partition_median_matches_numpy(values):
    assert _median(values).hex() == float(np.median(values)).hex()


@pytest.mark.parametrize("size", [3, 4])
def test_median_of_a_column_with_nan_is_nan(size):
    values = np.arange(size, dtype=float)
    values[1] = np.nan
    assert np.isnan(_median(values))
