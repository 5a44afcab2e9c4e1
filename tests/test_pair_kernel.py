"""The pair kernel's two ways of visiting pairs, and the summary paths
of the sweep and of analyze. All pairs go in row blocks (row r's pairs
as ``Z[r+1:] - Z[r]``), sampled pairs by index gathers; both must give
the bits of the one distance rule, squared coordinate differences added
in column order. Each summary path must give the bits of
``PairTable.summary`` without a table."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from pcashrink import (
    experiments,
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


def _column(Zt, pairs):
    """The kernel's distances between the points of the feature-major
    ``Zt``, one row a coordinate."""
    out = np.empty(pairs.count)
    for step in pairs.steps():
        lo, hi, _ = step
        out[lo:hi] = np.sqrt(shrinkage._extend(np.zeros(hi - lo), Zt, step))
    return out


def _gathered(Z, i, j):
    """The one distance rule from index gathers, one column at a time: the
    squared differences added in column order from zero, as the k-NN adds
    them."""
    d2 = np.zeros(i.size)
    for c in range(Z.shape[1]):
        diff = Z[j, c] - Z[i, c]
        d2 += diff * diff
    return np.sqrt(d2)


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
    # the engine reads a contiguous copy for all pairs and a transposed view for
    # sampled pairs; each layout must give the bits of both ways
    for Z in [X] + [Y[:, :m] for m in range(1, n_features + 1)]:
        expected = _gathered(Z, i, j).tobytes()
        for Zt in (np.ascontiguousarray(Z.T), Z.T):
            assert _column(Zt, rows).tobytes() == expected
            assert _column(Zt, gathers).tobytes() == expected
    # the table's level m reads the first m rows of the feature-major transform
    for m in range(1, n_features + 1):
        table = shrinkage_table(model, X, m)
        assert table.dist_original.tobytes() == _gathered(X, i, j).tobytes()
        assert table.dist_truncated.tobytes() == _gathered(Y[:, :m], i, j).tobytes()


def _hex_fields(summary):
    return {field.name: getattr(summary, field.name).hex()
            if isinstance(getattr(summary, field.name), float) else getattr(summary, field.name)
            for field in dataclasses.fields(summary)}


def _flagged(table, tol):
    """The guarantee rule's counts at ``tol``, from the table's own columns:
    a slack of ``tol`` times each pair's original distance."""
    slack = tol * table.dist_original
    negative = table.shrinkage < -slack
    over = table.shrinkage > table.recon_error + slack
    return {"negative_count": int(np.count_nonzero(negative)),
            "bound_violations": int(np.count_nonzero(over)),
            "violating_pairs": int(np.count_nonzero(negative | over))}


@pytest.mark.parametrize("options", [{"pair_sample": 0}, {"pair_sample": 300, "seed": 5}],
                         ids=["all-pairs", "sampled"])
@pytest.mark.parametrize("tol", [shrinkage.VIOLATION_TOL, -1e-3], ids=["default-tol", "flagging"])
def test_summaries_match_table_summaries_bit_for_bit(monkeypatch, options, tol):
    """The sweep's summaries, several levels or one, and analyze's blocks
    at ``tol`` against the table's summary. The flagging tolerance, which
    only analyze's blocks take, makes the counts non-zero and spread
    across steps, whose boundaries a small _CHUNK multiplies; its counts
    are checked against the table's own columns."""
    monkeypatch.setattr(shrinkage, "_CHUNK", 64)
    X = _data(60, 6, seed=2)
    model = fit(X)
    levels = range(1, 7)
    summaries = list(shrinkage_summaries(model, X, levels, **options))
    assert [s.m for s in summaries] == list(levels)
    flagged = 0
    for m, got in zip(levels, summaries):
        table = shrinkage_table(model, X, m, **options)
        want = _hex_fields(table.summary())
        counts = _flagged(table, shrinkage.VIOLATION_TOL)
        assert {name: want[name] for name in counts} == counts, "m=%d" % m
        assert _hex_fields(got) == want, "m=%d" % m
        one = next(shrinkage_summaries(model, X, [m], **options))
        assert _hex_fields(one) == want, "m=%d" % m
        blocks, summary = shrinkage_blocks(model, X, m, violation_tol=tol, **options)
        for _ in blocks:
            pass
        want.update(_flagged(table, tol))
        assert _hex_fields(summary()) == want, "m=%d" % m
        flagged += want["violating_pairs"]
    if tol < 0:
        assert flagged > 0


def test_summary_leaves_the_shrinkage_column_unchanged():
    # the median gathers copies; the analyze CSV writes this column afterwards
    X = _data(80, 4, seed=1)
    table = shrinkage_table(fit(X), X, 2)
    before = table.shrinkage.tobytes()
    first = table.summary()
    assert table.summary() == first
    assert table.shrinkage.tobytes() == before


def _column_summary(values):
    # the fold's summary, through the table summary that folds one block
    d = np.array(values, dtype=float)
    table = shrinkage.PairTable(m=1, sampled=False, i=None, j=None, dist_original=d,
                                dist_truncated=d, shrinkage=d, recon_error=d)
    return table.summary()


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
    assert _column_summary(values).median.hex() == float(np.median(values)).hex()


@pytest.mark.parametrize("size", [3, 4])
def test_median_of_a_column_with_nan_is_nan(size):
    # pair 0 is in the median's sample, pair 1 is not
    for at in (0, 1):
        values = np.arange(size, dtype=float)
        values[at] = np.nan
        summary = _column_summary(values)
        assert np.isnan([summary.mean, summary.median, summary.max]).all(), at


def test_levels_in_any_order_get_the_bits_of_an_ascending_call():
    """The sweep computes its levels in ascending order over one running
    column; a descending call, or one that repeats levels, must still give
    each value the summary of its own level."""
    X = _data(50, 6, seed=3)
    model = fit(X)
    ascending = {s.m: _hex_fields(s) for s in shrinkage_summaries(model, X, range(1, 7))}
    for ms in ([4, 3, 2, 1], [2, 5, 2, 1, 5, 6], [6], [3, 3]):
        got = [_hex_fields(s) for s in shrinkage_summaries(model, X, ms)]
        assert got == [ascending[m] for m in ms], ms


def test_truncated_distances_are_the_knn_distances(monkeypatch):
    """One distance rule: at every level the engine's squared truncated
    distance, and so its dist_truncated, has the bits of the k-NN's
    running d² for the same pair."""
    n_samples = 40
    X = _data(n_samples, 5, seed=4)
    model = fit(X)
    Y = transform(model, X)
    test = np.arange(n_samples) % 3 == 0
    seen = []
    nearest = experiments._nearest

    def spy(dist, k):
        seen.append(dist.copy())
        return nearest(dist, k)

    monkeypatch.setattr(experiments, "_nearest", spy)
    levels = range(1, 6)
    labels = np.array(["a", "b"] * (n_samples // 2))
    experiments._knn_predict(Y[~test], labels[~test], Y[test], 3, levels)
    assert len(seen) == len(levels)
    a, b = np.meshgrid(np.flatnonzero(test), np.flatnonzero(~test), indexing="ij")
    i, j = np.minimum(a, b).ravel(), np.maximum(a, b).ravel()
    position = i * n_samples - i * (i + 1) // 2 + j - i - 1  # the pair's place in triu order
    Yt = np.ascontiguousarray(Y.T)
    for m, d2 in zip(levels, seen):
        squared = shrinkage._extend(np.zeros(i.size), Yt[:m], (0, i.size, [(i, j)]))
        assert squared.tobytes() == d2.ravel().tobytes(), m
        table = shrinkage_table(model, X, m)
        assert table.dist_truncated[position].tobytes() == np.sqrt(d2).ravel().tobytes(), m


def _reference(X, Y, m):
    """Level m's shrinkage column, built independently with numpy: the
    distances pair by pair on triu_indices, one column at a time."""
    i, j = np.triu_indices(X.shape[0], k=1)
    return _gathered(X, i, j) - _gathered(Y[:, :m], i, j)


def _assert_matches_reference(summary, reference):
    assert summary.median.hex() == float(np.median(reference)).hex(), summary.m
    assert summary.max.hex() == float(np.max(reference)).hex(), summary.m
    exact = math.fsum(reference) / reference.size
    assert abs(summary.mean - exact) <= 1e-15 * abs(exact), summary.m


def _all_paths(model, X, levels):
    """Each level's summary from the sweep, from analyze's blocks and
    from the table."""
    for m, swept in zip(levels, shrinkage_summaries(model, X, levels)):
        blocks, summary = shrinkage_blocks(model, X, m)
        for _ in blocks:
            pass
        yield m, (swept, summary(), shrinkage_table(model, X, m).summary())


@pytest.mark.parametrize("n_samples", [300, 301])
def test_median_max_and_mean_match_an_independent_column(n_samples):
    """An even and an odd pair count (44,850 and 45,150), every level."""
    X = _data(n_samples, 6, seed=5)
    model = fit(X)
    Y = transform(model, X)
    levels = range(1, 7)
    for m, summaries in _all_paths(model, X, levels):
        reference = _reference(X, Y, m)
        for summary in summaries:
            _assert_matches_reference(summary, reference)


def _passes(monkeypatch):
    """The bounds of every pass the median makes, as (low, high)."""
    seen = []
    gather = shrinkage._gather

    def spy(source, count, low, high):
        seen.append((low, high))
        return gather(source, count, low, high)

    monkeypatch.setattr(shrinkage, "_gather", spy)
    return seen


def test_a_bracket_that_misses_is_widened(monkeypatch):
    """With no margin the bracket is the sample's median alone, which
    almost never is the column's: the pass is redone with one side
    unbounded, and every path still gives the reference bits."""
    monkeypatch.setattr(shrinkage, "_MARGIN", 0.0)
    passes = _passes(monkeypatch)
    X = _data(200, 5, seed=6)
    model = fit(X)
    Y = transform(model, X)
    levels = range(1, 6)
    for m, summaries in _all_paths(model, X, levels):
        for summary in summaries:
            _assert_matches_reference(summary, _reference(X, Y, m))
    assert len(passes) > 3 * len(levels)
    assert any(np.isinf(bound) for bound in np.ravel(passes))


def _one_sided_column(side, count, spread):
    """A column whose every 16th value is 10 plus ``spread`` times a
    normal draw (negated for the high side), the rest standard normal."""
    rng = np.random.default_rng(7)
    d = rng.standard_normal(count)
    sampled = np.arange(count) % 16 == 0
    d[sampled] = (10.0 + spread * rng.standard_normal(sampled.sum())) * (
        1.0 if side == "low" else -1.0)
    return shrinkage.PairTable(m=1, sampled=False, i=None, j=None, dist_original=np.abs(d),
                               dist_truncated=np.zeros(count), shrinkage=d,
                               recon_error=np.zeros(count))


@pytest.mark.parametrize("side", ["low", "high"])
@pytest.mark.parametrize("count", [9_999, 10_000])
def test_a_sample_that_misses_one_side_brackets_that_side(monkeypatch, side, count):
    """Every _STRIDE-th shrinkage, the sample, is among the column's
    largest (or smallest) values, so the bracket lies above (below) the
    median. The second pass samples the values below (above) it, and the
    bracket drawn from them, which the third pass gathers, lies below
    (above) the first one and holds the median."""
    monkeypatch.setattr(shrinkage, "_STRIDE", 16)
    passes = _passes(monkeypatch)
    table = _one_sided_column(side, count, 1.0)
    _assert_matches_reference(table.summary(), table.shrinkage)
    assert len(passes) == 2
    assert np.all(np.isfinite(passes))
    assert passes[1][1] < passes[0][0] if side == "low" else passes[1][0] > passes[0][1]


@pytest.mark.parametrize("side", ["low", "high"])
@pytest.mark.parametrize("count", [9_999, 10_000])
def test_a_sample_that_misses_one_side_unbounds_that_side(monkeypatch, side, count):
    """Every _STRIDE-th shrinkage, the sample, is the column's largest (or
    smallest) value, and every _STRIDE-th value below (above) the first
    bracket is that value again, so the second bracket misses the median
    too and the last pass leaves its lower (upper) side open."""
    monkeypatch.setattr(shrinkage, "_STRIDE", 16)
    passes = _passes(monkeypatch)
    table = _one_sided_column(side, count, 0.0)
    _assert_matches_reference(table.summary(), table.shrinkage)
    assert len(passes) == 3
    assert passes[2] == ((-np.inf, passes[1][1]) if side == "low" else (passes[1][0], np.inf))


def test_a_bracket_miss_gathers_a_sample_of_the_side_not_the_side(monkeypatch):
    """A 2M-value column whose every 64th value is 10 above the others:
    the sample bracket misses, and the second bracket, drawn from every
    64th value below the first, holds the median, so no pass gathers a
    whole side and the memory peak stays under a quarter of the
    column's bytes. Mean, median and max keep their bits."""
    passes = _passes(monkeypatch)
    col = np.random.default_rng(0).random(2_000_000)
    col[::64] += 10
    tracemalloc.start()
    try:
        mean, median, top = shrinkage._centre(col.__getitem__, col.size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < col.nbytes / 4
    assert len(passes) == 2 and np.all(np.isfinite(passes))
    assert median.hex() == float(np.median(col)).hex()
    assert top.hex() == float(col.max()).hex()
    pieces = range(0, col.size, shrinkage._PASS_CHUNK)
    sums = [np.add.reduce(col[lo:lo + shrinkage._PASS_CHUNK]) for lo in pieces]
    assert mean.hex() == (math.fsum(sums) / col.size).hex()
