"""The pair kernel's two ways of visiting pairs, and the summary paths
of the sweep and of analyze. All pairs go in row blocks (row r's pairs
as ``Z[r+1:] - Z[r]``), sampled pairs by index gathers; both must give
the bits of the one distance rule, squared coordinate differences added
in column order. The sweep's summaries must give the bits of analyze's
blocks, drained. Sampled pairs are drawn in int64 and held in the
smallest index type."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from conftest import drained_table
from pcashrink import (
    experiments,
    fit,
    shrinkage,
    shrinkage_blocks,
    shrinkage_summaries,
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
    # the blocks build their index columns a step at a time
    table, _ = drained_table(model, X, 1)
    assert table.i.dtype == table.j.dtype == np.int64
    assert np.array_equal(table.i, i) and np.array_equal(table.j, j)
    # the engine reads a contiguous copy for all pairs and a transposed view for
    # sampled pairs; each layout must give the bits of both ways
    for Z in [X] + [Y[:, :m] for m in range(1, n_features + 1)]:
        expected = _gathered(Z, i, j).tobytes()
        for Zt in (np.ascontiguousarray(Z.T), Z.T):
            assert _column(Zt, rows).tobytes() == expected
            assert _column(Zt, gathers).tobytes() == expected
    # the blocks' level m reads the first m rows of the feature-major transform
    for m in range(1, n_features + 1):
        table, _ = drained_table(model, X, m)
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
    at ``tol`` against the drained blocks' summary at the default
    tolerance. The flagging tolerance, which only analyze's blocks take,
    makes the counts non-zero and spread across steps, whose boundaries a
    small _CHUNK multiplies; its counts are checked against the joined
    blocks' own columns."""
    monkeypatch.setattr(shrinkage, "_CHUNK", 64)
    X = _data(60, 6, seed=2)
    model = fit(X)
    levels = range(1, 7)
    summaries = list(shrinkage_summaries(model, X, levels, **options))
    assert [s.m for s in summaries] == list(levels)
    flagged = 0
    for m, got in zip(levels, summaries):
        table, table_summary = drained_table(model, X, m, **options)
        want = _hex_fields(table_summary)
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
    # the fold and the median gather copies; the analyze CSV writes each
    # block's column after the block is folded
    X = _data(80, 4, seed=1)
    blocks, summary = shrinkage_blocks(fit(X), X, 2)
    blocks = list(blocks)
    first = summary()
    assert summary() == first
    for block in blocks:
        assert block.shrinkage.tobytes() == (block.dist_original - block.dist_truncated).tobytes()


def _column_summary(values):
    # the fold's summary of one block, no pair outside its limits; a float
    # array is folded as it is, and its median reads a copy of it
    d = np.asarray(values, dtype=float)
    fold = shrinkage._Summary(1, False, d.size, d[::shrinkage._STRIDE], d.copy)
    fold.add(d, d, d)
    return fold.summary()


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
        table, _ = drained_table(model, X, m)
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
    """Each level's summary from the sweep and from analyze's blocks."""
    for m, swept in zip(levels, shrinkage_summaries(model, X, levels)):
        yield m, (swept, _drain(model, X, m))


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


def _builds(monkeypatch):
    """The (levels, pair count) of every shrinkage column the engine builds."""
    built = []
    columns = shrinkage._columns

    def spy(Xt, Yt, ms, pairs):
        built.append((list(ms), pairs.count))
        return columns(Xt, Yt, ms, pairs)

    monkeypatch.setattr(shrinkage, "_columns", spy)
    return built


def _column_reads(monkeypatch):
    """The pair count of every column a summary's median reads whole."""
    reads = []
    centre = shrinkage._centre

    def spy(first, count, column):
        def read():
            reads.append(count)
            return column()
        return centre(first, count, read)

    monkeypatch.setattr(shrinkage, "_centre", spy)
    return reads


def _misses(column):
    """Whether the bracket at _MARGIN = 0, the median of every _STRIDE-th
    value, misses either of the median's ranks of ``column``."""
    sample = np.sort(column[::shrinkage._STRIDE])
    end = sample[(sample.size - 1) // 2]
    ordered, h = np.sort(column), column.size // 2
    return not ordered[h - 1 + column.size % 2] == end == ordered[h]


def test_a_bracket_that_misses_is_widened(monkeypatch):
    """With no margin the bracket is the sample's median alone, which
    almost never is the column's: the median is read off the whole
    column, which the sweep and analyze's blocks build once for each level
    that misses, and every path still gives the reference bits."""
    monkeypatch.setattr(shrinkage, "_MARGIN", 0.0)
    built = _builds(monkeypatch)
    X = _data(200, 5, seed=6)
    model = fit(X)
    Y = transform(model, X)
    levels = range(1, 6)
    for m, summaries in _all_paths(model, X, levels):
        for summary in summaries:
            _assert_matches_reference(summary, _reference(X, Y, m))
    missing = [[m] for m in levels if _misses(_reference(X, Y, m))]
    assert missing
    # the sweep builds its levels' columns before analyze runs any level
    assert [ms for ms, count in built if count == 200 * 199 // 2] == missing * 2


def _one_sided_column(side, count, spread):
    """A column whose every 16th value is 10 plus ``spread`` times a
    normal draw (negated for the high side), the rest standard normal."""
    rng = np.random.default_rng(7)
    d = rng.standard_normal(count)
    sampled = np.arange(count) % 16 == 0
    d[sampled] = (10.0 + spread * rng.standard_normal(sampled.sum())) * (
        1.0 if side == "low" else -1.0)
    return d


def _assert_one_sided_miss(monkeypatch, side, count, spread):
    monkeypatch.setattr(shrinkage, "_STRIDE", 16)
    reads = _column_reads(monkeypatch)
    column = _one_sided_column(side, count, spread)
    before = column.tobytes()
    _assert_matches_reference(_column_summary(column), column)
    assert reads == [count]
    assert column.tobytes() == before


@pytest.mark.parametrize("side", ["low", "high"])
@pytest.mark.parametrize("count", [9_999, 10_000])
def test_a_sample_that_misses_one_side_brackets_that_side(monkeypatch, side, count):
    """Every _STRIDE-th shrinkage, the sample, is among the column's
    largest (or smallest) values, so the bracket lies above (below) the
    median: the median is read off one copy of the column, and the
    folded column keeps its bytes."""
    _assert_one_sided_miss(monkeypatch, side, count, 1.0)


@pytest.mark.parametrize("side", ["low", "high"])
@pytest.mark.parametrize("count", [9_999, 10_000])
def test_a_sample_that_misses_one_side_unbounds_that_side(monkeypatch, side, count):
    """Every _STRIDE-th shrinkage, the sample, is the column's largest (or
    smallest) value, so both of the bracket's ends are that one value:
    the median is read off one copy of the column, and the folded column
    keeps its bytes."""
    _assert_one_sided_miss(monkeypatch, side, count, 0.0)


def _peak(run):
    """The traced memory peak of ``run()``, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_sweep_bracket_miss_adds_at_most_one_column_to_the_peak(monkeypatch):
    """All 499,500 pairs of 1,000 points, levels 1..10: with level 2's
    bracket forced above the median, the sweep's memory peak grows by at
    most about that level's one column, 8 B a pair, and every level keeps
    the bits it has when no bracket misses."""
    X = _data(1000, 20, seed=10)
    model = fit(X)
    levels = range(1, 11)
    want, got = [], []
    hit = _peak(lambda: want.extend(shrinkage_summaries(model, X, levels)))
    bracket, drawn = shrinkage._bracket, []

    def high_second(sample, centre):
        drawn.append(centre)
        return (sample.max(), sample.max()) if len(drawn) == 2 else bracket(sample, centre)

    monkeypatch.setattr(shrinkage, "_bracket", high_second)
    built = _builds(monkeypatch)
    missed = _peak(lambda: got.extend(shrinkage_summaries(model, X, levels)))
    assert built[1:] == [([2], 499_500)]
    assert [_hex_fields(s) for s in got] == [_hex_fields(s) for s in want]
    assert missed - hit < 1.1 * 8 * 499_500, (hit, missed)


@pytest.mark.parametrize("pass_chunk", [shrinkage._PASS_CHUNK, 100], ids=["pieces", "small-pieces"])
@pytest.mark.parametrize("options", [{"pair_sample": 0}, {"pair_sample": 1500, "seed": 5}],
                         ids=["all-pairs", "sampled"])
def test_a_sweep_level_whose_bracket_misses_builds_its_own_column(monkeypatch, pass_chunk,
                                                                  options):
    """The sweep's bracket for level 2 is the sample's largest value, far
    above the median, while the other levels get theirs: only level 2
    builds a column, and every level keeps the bits of the drained
    blocks' summary. Each level's sample is every _STRIDE-th shrinkage of
    the joined blocks. Small pieces fill and straddle the sweep's steps."""
    monkeypatch.setattr(shrinkage, "_CHUNK", 64)
    monkeypatch.setattr(shrinkage, "_PASS_CHUNK", pass_chunk)
    bracket, samples = shrinkage._bracket, []

    def high_second(sample, centre):
        samples.append(sample.copy())
        ends = bracket(sample, centre)
        return (sample.max(), sample.max()) if len(samples) == 2 else ends

    monkeypatch.setattr(shrinkage, "_bracket", high_second)
    built = _builds(monkeypatch)
    X = _data(60, 6, seed=2)
    model = fit(X)
    levels = range(1, 7)
    summaries = list(shrinkage_summaries(model, X, levels, **options))
    count = summaries[0].pair_count
    sample = -(-count // shrinkage._STRIDE)
    assert built == [(list(levels), sample), ([2], count)]
    monkeypatch.setattr(shrinkage, "_bracket", bracket)
    for m, got, sample in zip(levels, summaries, samples):
        table, want = drained_table(model, X, m, **options)
        assert sample.tobytes() == table.shrinkage[::shrinkage._STRIDE].tobytes(), "m=%d" % m
        assert _hex_fields(got) == _hex_fields(want), "m=%d" % m


def _drain(model, X, m, **options):
    blocks, summary = shrinkage_blocks(model, X, m, **options)
    for _ in blocks:
        pass
    return summary()


def test_drained_blocks_keep_no_pair_column():
    """All 2,878,800 pairs of 2,400 points: analyze's fold holds pieces
    of the first pass, not a shrinkage column of 8 B a pair."""
    X = _data(2400, 6, seed=8)
    model = fit(X)
    pairs = 2400 * 2399 // 2
    assert _peak(lambda: _drain(model, X, 2, pair_sample=0)) < pairs * 8 / 4


# the sweep of _data(5000, 6, seed=11) at levels 1..3 over 1,000,000 pairs
# drawn at seed 4, from int64 pair arrays; re-pinned when transform moved to
# np.einsum, which moved level 3's mean by one last bit and its median by
# 1.7e-16 of the level's max
SAMPLED_SWEEP = [
    (1, "0x1.437c0ef216f1cp-2", "0x1.b693a98fc031ep-3", "0x1.869c33fb6a20dp+1"),
    (2, "0x1.4532befa515e6p-4", "0x1.6efe1496f4a9cp-5", "0x1.5f44ae4188f5dp+0"),
    (3, "0x1.3fc5313bbde99p-6", "0x1.556fb067c6e00p-7", "0x1.52bef4d578becp-1"),
]


def test_a_sampled_sweep_holds_its_pairs_in_compact_indices():
    """1,000,000 pairs of 5,000 points: the sweep's peak is its pair
    draw, under 16 B a pair (32 B a pair from int64 draws), and its
    summaries keep the bits they had with int64 pair arrays."""
    X = _data(5000, 6, seed=11)
    model = fit(X)
    count = 1_000_000
    got = []
    assert _peak(lambda: got.extend(
        shrinkage_summaries(model, X, [1, 2, 3], pair_sample=count, seed=4))) < 16 * count
    assert [(s.m, s.mean.hex(), s.median.hex(), s.max.hex()) for s in got] == SAMPLED_SWEEP
    assert all(s.pair_count == count and s.sampled and s.violating_pairs == 0 for s in got)


def _int64_draw(n_samples, count, seed):
    """The pair draw as it was made in int64: every pair compared again on
    each round of redraws."""
    rng = np.random.default_rng([seed, n_samples, 0x70A1])
    a = rng.integers(0, n_samples, size=count, dtype=np.int64)
    b = rng.integers(0, n_samples, size=count, dtype=np.int64)
    clash = a == b
    while clash.any():
        b[clash] = rng.integers(0, n_samples, size=int(np.count_nonzero(clash)), dtype=np.int64)
        clash = a == b
    return np.minimum(a, b), np.maximum(a, b)


# at 3 points a third of the draws clash; 256/257 and 65,536/65,537 points
# straddle the uint8/uint16 and uint16/uint32 index types; a count one
# below the pair total is the densest draw
@pytest.mark.parametrize("n_samples, count, dtype", [
    (3, 1, np.uint8), (3, 2, np.uint8), (256, 32_639, np.uint8), (257, 32_895, np.uint16),
    (257, 1000, np.uint16), (65_536, 20_000, np.uint16), (65_537, 20_000, np.uint32)])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_sampled_pairs_are_the_int64_draw_in_the_smallest_type(n_samples, count, dtype, seed):
    i, j = shrinkage._choose_pairs(n_samples, count, seed).ij
    want_i, want_j = _int64_draw(n_samples, count, seed)
    assert i.dtype == j.dtype == dtype
    assert np.array_equal(i, want_i) and np.array_equal(j, want_j)


def test_a_draw_peaks_under_6_bytes_a_pair():
    """1,000,000 pairs of 5,000 points are held in uint16, 4 B a pair, and
    drawn straight into them a chunk at a time (int64 arrays held 16 and
    peaked at 33.7; whole int64 draws cast afterwards peaked at 12.7)."""
    shrinkage._choose_pairs(5000, 10, 0)  # numpy's lazy imports, before the trace
    count = 1_000_000
    tracemalloc.start()
    try:
        pairs = shrinkage._choose_pairs(5000, count, 0)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pairs.count == count
    assert peak < 6 * count, peak / count
    assert held < 5 * count, held / count


@pytest.mark.parametrize("path", ["sweep", "analyze"])
def test_step_temporaries_do_not_grow_with_the_features(path):
    """The kernel differences a few coordinates at a time, so a step's
    temporaries at 100 features are those at 20."""
    peaks = []
    for n_features in (20, 100):
        X = _data(300, n_features, seed=9)
        model = fit(X)
        if path == "sweep":
            peaks.append(_peak(lambda: list(shrinkage_summaries(model, X, range(1, 11)))))
        else:
            peaks.append(_peak(lambda: _drain(model, X, 2, pair_sample=0)))
    assert peaks[1] < 1.5 * peaks[0], peaks
