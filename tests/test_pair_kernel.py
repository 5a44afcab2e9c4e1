"""The pair kernel's two ways of visiting pairs, and the sweep's summary
path. All pairs go in row blocks (row r's pairs as ``Z[r+1:] - Z[r]``),
sampled pairs by index gathers; both must give the same bits. The
summary path must give the bits of ``PairTable.summary`` without a
table."""

import dataclasses

import numpy as np
import pytest

from pcashrink import fit, shrinkage, shrinkage_summaries, shrinkage_table, transform


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
    Y = transform(fit(X), X)
    rows = shrinkage._Pairs(n_samples, None)
    i, j = rows.indices()
    gathers = shrinkage._Pairs(n_samples, (i, j))
    assert i.dtype == j.dtype == np.int64
    # the first n columns of Y are a non-contiguous view for m < n
    for Z in [X] + [Y[:, :m] for m in range(1, n_features + 1)]:
        expected = _gathered(Z, i, j).tobytes()
        assert _column(Z, rows).tobytes() == expected
        assert _column(Z, gathers).tobytes() == expected


def _hex_fields(summary):
    return {field.name: getattr(summary, field.name).hex()
            if isinstance(getattr(summary, field.name), float) else getattr(summary, field.name)
            for field in dataclasses.fields(summary)}


@pytest.mark.parametrize("options", [{"pair_sample": 0}, {"pair_sample": 300, "seed": 5}],
                         ids=["all-pairs", "sampled"])
@pytest.mark.parametrize("tol", [shrinkage.VIOLATION_TOL, -1e-3], ids=["default-tol", "flagging"])
def test_summaries_match_table_summaries_bit_for_bit(monkeypatch, options, tol):
    """The flagging tolerance makes the counts non-zero and spread across
    steps, whose boundaries a small _CHUNK multiplies."""
    monkeypatch.setattr(shrinkage, "_CHUNK", 64)
    monkeypatch.setattr(shrinkage, "VIOLATION_TOL", tol)
    X = _data(60, 6, seed=2)
    model = fit(X)
    levels = range(1, 7)
    summaries = list(shrinkage_summaries(model, X, levels, **options))
    assert [s.m for s in summaries] == list(levels)
    for m, got in zip(levels, summaries):
        want = shrinkage_table(model, X, m, **options).summary(violation_tol=tol)
        assert _hex_fields(got) == _hex_fields(want), "m=%d" % m
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
