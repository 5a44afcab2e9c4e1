"""Pairwise distance shrinkage, collision witnesses, the pair
engine, and the Pearson helper. A single pair is the pair engine run on
a two-row matrix.

The frozen numbers below were computed independently with LAPACK
eigendecompositions and plain-Python arithmetic before this module
existed; they are closed forms for the three-point dataset."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pcashrink import (
    DimMismatchError,
    FullRankInjectiveError,
    InsufficientPairsError,
    NonFiniteError,
    PcaModel,
    TooManyPairsError,
    ZeroVarianceError,
    collision_witness,
    fit,
    pearson,
    shrinkage,
    shrinkage_blocks,
    shrinkage_summaries,
    shrinkage_table,
    transform,
)

THREE_POINTS = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])

# closed forms at m=1 for the pair (0, 2): distance 2 before, sqrt(2)
# after, so the pair shrinks by 2 - sqrt(2); each endpoint reconstructs
# sqrt(2)/2 away from itself, summing to sqrt(2)
PAIR_02_SHRINKAGE = 0.58578643762690508
PAIR_02_TRUNCATED = 1.4142135623730949
PAIR_02_BOUND = 1.4142135623730949
MEAN_SHRINKAGE_M1 = 0.39052429175127018  # (4 - 2*sqrt(2)) / 3


@pytest.fixture(scope="module")
def three_point_model():
    return fit(THREE_POINTS)


class TestPairShrinkage:
    def test_frozen_oracle(self, three_point_model):
        pair = shrinkage_table(three_point_model, THREE_POINTS[[0, 2]], 1)
        assert pair.dist_original[0] == 2.0
        assert_allclose(pair.dist_truncated[0], PAIR_02_TRUNCATED, atol=1e-12)
        assert_allclose(pair.shrinkage[0], PAIR_02_SHRINKAGE, atol=1e-12)
        assert_allclose(pair.recon_error[0], PAIR_02_BOUND, atol=1e-12)
        assert (pair.i.tolist(), pair.j.tolist(), pair.m) == ([0], [1], 1)

    def test_full_rank_pair_keeps_distance(self, three_point_model):
        pair = shrinkage_table(three_point_model, THREE_POINTS[[0, 1]], 2)
        assert_allclose(pair.dist_truncated[0], pair.dist_original[0], rtol=1e-12)
        assert abs(pair.shrinkage[0]) <= 1e-12

    def test_reconstruction_error_oracle(self, three_point_model):
        got = shrinkage_table(three_point_model, THREE_POINTS[[0, 2]], 1).recon_error[0]
        assert_allclose(got, np.sqrt(2.0), atol=1e-12)

    def test_mean_shrinkage_oracle(self, three_point_model):
        got = shrinkage_table(three_point_model, THREE_POINTS, 1).summary().mean
        assert_allclose(got, MEAN_SHRINKAGE_M1, atol=1e-12)
        assert_allclose(got, (4.0 - 2.0 * np.sqrt(2.0)) / 3.0, atol=1e-12)

    def test_mismatched_vectors_raise_dim_mismatch(self, three_point_model):
        # a 3-feature pair for a 2-feature model
        with pytest.raises(DimMismatchError):
            shrinkage_table(three_point_model, [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]], 1)

    def test_single_point_has_no_pairs(self, three_point_model):
        with pytest.raises(InsufficientPairsError):
            shrinkage_table(three_point_model, THREE_POINTS[:1], 1).summary()


class TestCollisionWitness:
    def test_images_collide_but_points_differ(self, small_corpus):
        for X, model in small_corpus:
            n = model.n_features
            for m in range(1, n):
                witness = collision_witness(model, X[0], m)
                gap = np.linalg.norm(transform(model, X[0], m) - transform(model, witness, m))
                assert gap <= 1e-9, "witness images split by %g" % gap
                assert_allclose(np.linalg.norm(X[0] - witness), 1.0, rtol=1e-12)

    def test_full_rank_refuses(self, three_point_model):
        with pytest.raises(FullRankInjectiveError) as info:
            collision_witness(three_point_model, THREE_POINTS[0], 2)
        assert info.value.code == "full-rank-injective"


class TestPairEngine:
    def test_table_matches_per_pair_calls(self, small_corpus):
        X, model = small_corpus[0]
        m = max(1, model.n_features - 1)
        table = shrinkage_table(model, X, m)
        assert table.i.size == X.shape[0] * (X.shape[0] - 1) // 2
        for k in range(0, table.i.size, 7):
            i, j = int(table.i[k]), int(table.j[k])
            pair = shrinkage_table(model, X[[i, j]], m)
            assert_allclose(table.dist_original[k], pair.dist_original[0], rtol=1e-12)
            assert_allclose(table.dist_truncated[k], pair.dist_truncated[0],
                            rtol=1e-12, atol=1e-12)
            assert_allclose(table.shrinkage[k], pair.shrinkage[0], atol=1e-10)
            assert_allclose(table.recon_error[k], pair.recon_error[0], rtol=1e-12, atol=1e-12)

    def test_records_round_trip(self, three_point_model):
        table = shrinkage_table(three_point_model, THREE_POINTS, 1)
        assert list(zip(table.i.tolist(), table.j.tolist())) == [(0, 1), (0, 2), (1, 2)]
        assert table.m == 1
        assert_allclose(table.shrinkage[1], PAIR_02_SHRINKAGE, atol=1e-12)

    def test_summary_statistics(self, three_point_model):
        stats = shrinkage_table(three_point_model, THREE_POINTS, 1).summary()
        assert stats.pair_count == 3
        assert not stats.sampled
        assert_allclose(stats.mean, MEAN_SHRINKAGE_M1, atol=1e-12)
        assert_allclose(stats.max, PAIR_02_SHRINKAGE, atol=1e-12)
        assert stats.negative_count == 0
        assert stats.bound_violations == 0

    def test_negative_tolerance_flags_everything(self, three_point_model):
        # the violation gate is driven by this knob; with an impossible
        # tolerance every pair must be flagged
        blocks, summary = shrinkage_blocks(three_point_model, THREE_POINTS, 1,
                                           violation_tol=-1.0)
        for _ in blocks:
            pass
        assert summary().violating_pairs == 3

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_tolerance_refused(self, three_point_model, tol):
        # NaN compares false against every pair, so it turned the gate off
        with pytest.raises(ValueError, match="finite"):
            shrinkage_blocks(three_point_model, THREE_POINTS, 1, violation_tol=tol)

    def test_sampling_is_seeded_and_valid(self):
        rng = np.random.default_rng(44)
        X = rng.standard_normal((40, 3))
        model = fit(X)
        a = shrinkage_table(model, X, 2, pair_sample=100, seed=9)
        b = shrinkage_table(model, X, 2, pair_sample=100, seed=9)
        c = shrinkage_table(model, X, 2, pair_sample=100, seed=10)
        assert a.sampled and a.i.size == 100
        assert np.all(a.i < a.j), "self-pairs or unsorted indices"
        assert np.array_equal(a.i, b.i) and np.array_equal(a.shrinkage, b.shrinkage)
        assert not np.array_equal(a.i, c.i)

    def test_pair_sample_zero_forces_all_pairs(self):
        rng = np.random.default_rng(44)
        X = rng.standard_normal((25, 3))
        model = fit(X)
        table = shrinkage_table(model, X, 2, pair_sample=0)
        assert not table.sampled
        assert table.i.size == 25 * 24 // 2

    @pytest.mark.parametrize("pair_sample", [-1, -1000])
    def test_negative_pair_sample_refused(self, pair_sample):
        # a negative count once visited every pair, like 0
        X = np.random.default_rng(44).standard_normal((50, 3))
        model = fit(X)
        with pytest.raises(ValueError, match="got %d" % pair_sample):
            shrinkage_table(model, X, 2, pair_sample=pair_sample)
        with pytest.raises(ValueError, match="pair sample"):
            shrinkage_summaries(model, X, [1, 2], pair_sample=pair_sample)

    def test_threads_do_not_change_bytes(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((800, 3)) * [3.0, 1.0, 0.2]
        model = fit(X)
        one = shrinkage_table(model, X, 1, threads=1)
        for threads in (4, 0):
            other = shrinkage_table(model, X, 1, threads=threads)
            assert np.array_equal(one.dist_original, other.dist_original)
            assert np.array_equal(one.dist_truncated, other.dist_truncated)
            assert np.array_equal(one.shrinkage, other.shrinkage)
            assert np.array_equal(one.recon_error, other.recon_error)

    def test_feature_mismatch(self, three_point_model):
        with pytest.raises(DimMismatchError):
            shrinkage_table(three_point_model, np.ones((4, 3)), 1)

    def test_tables_match_single_level_calls(self, monkeypatch):
        # every level's blocks are collected before any comparison, so a
        # buffer shared between steps or levels by mistake shows up as a
        # mismatch; a chunk of 7 pairs gives steps of one or several rows
        monkeypatch.setattr(shrinkage, "_CHUNK", 7)
        rng = np.random.default_rng(23)
        X = rng.standard_normal((150, 4)) * [3.0, 1.0, 0.5, 0.1]
        model = fit(X)
        levels = range(1, model.n_features + 1)
        columns = ("i", "j", "dist_original", "dist_truncated", "shrinkage", "recon_error")
        for options in ({}, {"pair_sample": 500, "seed": 3}):
            passes = [shrinkage_blocks(model, X, m, **options) for m in levels]
            blocks = [list(level_blocks) for level_blocks, _ in passes]
            summaries = list(shrinkage_summaries(model, X, levels, **options))
            for m, level_blocks, (_, summary), joint in zip(levels, blocks, passes, summaries):
                single = shrinkage_table(model, X, m, **options)
                assert (single.m, single.sampled) == (m, "pair_sample" in options)
                for block in level_blocks:
                    assert (block.m, block.sampled) == (single.m, single.sampled)
                for name in columns:
                    got = np.concatenate([getattr(b, name) for b in level_blocks])
                    assert got.dtype == getattr(single, name).dtype, name
                    assert np.array_equal(got, getattr(single, name)), name
                assert summary() == joint == single.summary()

    def test_block_summary_needs_every_block(self, three_point_model):
        blocks, summary = shrinkage_blocks(three_point_model, THREE_POINTS, 1)
        with pytest.raises(RuntimeError, match="0 of 3 pairs"):
            summary()
        assert sum(block.i.size for block in blocks) == 3
        first = summary()
        assert first.pair_count == 3
        # the median partitioned the column once; a second call returns that same result
        assert summary() is first

    def test_sweep_builds_no_pair_table(self, monkeypatch):
        # the sweep folds its steps' arrays; a table per step would be waste
        rng = np.random.default_rng(5)
        X = rng.standard_normal((90, 6)) * [3.0, 2.0, 1.0, 0.5, 0.2, 0.1]
        model = fit(X)
        levels = range(1, 7)

        def hexed(summaries):
            return [tuple(v.hex() if isinstance(v, float) else v for v in vars(s).values())
                    for s in summaries]

        def no_table(*args, **kwargs):
            raise AssertionError("a PairTable was built")

        for options in ({}, {"pair_sample": 300}):
            want = hexed(shrinkage_summaries(model, X, levels, **options))
            with monkeypatch.context() as patch:
                patch.setattr(shrinkage, "PairTable", no_table)
                got = hexed(shrinkage_summaries(model, X, levels, **options))
            assert got == want

    def test_median_pass_runs_at_the_first_summary_call(self, three_point_model,
                                                        monkeypatch):
        calls = []
        centre = shrinkage._centre

        def counted(*args):
            calls.append(args)
            return centre(*args)

        monkeypatch.setattr(shrinkage, "_centre", counted)
        blocks, summary = shrinkage_blocks(three_point_model, THREE_POINTS, 1)
        for _ in blocks:
            pass
        assert calls == []
        assert summary() is summary()
        assert len(calls) == 1

    @pytest.mark.parametrize("data, ms, options, error", [
        (np.ones((1, 2)), [1], {}, InsufficientPairsError),
        (None, [3], {}, DimMismatchError),
        (None, [1], {"pair_sample": -1}, ValueError),
        (None, [1], {"seed": -1}, ValueError),
    ], ids=["one-row", "m-above-n", "negative-pair-sample", "negative-seed"])
    def test_tables_check_arguments_when_called(self, three_point_model, data, ms, options,
                                                error):
        # nothing is iterated: the checks run at the call, not at the first next()
        data = THREE_POINTS if data is None else data
        with pytest.raises(error):
            shrinkage_summaries(three_point_model, data, ms, **options)
        with pytest.raises(error):
            shrinkage_blocks(three_point_model, data, ms[0], **options)

    def test_no_levels_compute_no_distance(self, three_point_model, monkeypatch):
        def no_distance(*args):
            raise AssertionError("a distance was computed")

        monkeypatch.setattr(shrinkage, "_extend", no_distance)
        assert list(shrinkage_summaries(three_point_model, THREE_POINTS, [])) == []
        with pytest.raises(ValueError, match="seed"):
            shrinkage_summaries(three_point_model, THREE_POINTS, [], seed=-1)
        with pytest.raises(InsufficientPairsError):
            shrinkage_summaries(three_point_model, np.ones((1, 2)), [])

    def test_pair_budget_refuses_before_allocating(self):
        X = np.arange(100_000.0)[:, None]
        model = PcaModel(mean=[0.0], eigenvalues=[1.0], components=[[1.0]])
        for pair_sample in (0, 30_000_000):
            with pytest.raises(TooManyPairsError) as info:
                shrinkage_table(model, X, 1, pair_sample=pair_sample)
            assert info.value.code == "too-many-pairs"
            assert info.value.exit_status == 3


class TestPearson:
    def test_frozen_oracle(self):
        # sqrt(3)/2, computed with plain Python before implementation
        assert_allclose(pearson([1.0, 2.0, 3.0], [1.0, 2.0, 2.0]), 0.86602540378443849, atol=1e-12)

    def test_perfect_correlations(self):
        xs = [1.0, 2.0, 5.0, 9.0]
        assert pearson(xs, [2 * v + 1 for v in xs]) == 1.0
        assert pearson(xs, [-3 * v for v in xs]) == -1.0

    def test_result_stays_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            xs = rng.standard_normal(5) * 1e8
            assert -1.0 <= pearson(xs, xs * 7.0 + 3.0) <= 1.0

    def test_constant_series(self):
        with pytest.raises(ZeroVarianceError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ZeroVarianceError):
            pearson([5.0], [3.0])

    def test_length_mismatch(self):
        with pytest.raises(DimMismatchError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_non_finite(self):
        with pytest.raises(NonFiniteError):
            pearson([np.inf, 0.0], [0.0, 1.0])
