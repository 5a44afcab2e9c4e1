"""CSV ingestion, the k-NN cross-validation classifier, retained
dimension sweeps, and the correlation summary."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import drained_table, write_dataset_csv
from pcashrink import (
    BadFoldsError,
    DatasetIOError,
    DatasetParseError,
    Dataset,
    DegenerateLabelsError,
    DimMismatchError,
    InsufficientRowsError,
    STRONG_CORRELATION,
    anisotropic_gaussian,
    correlate,
    covariance,
    fit,
    jacobi_eigendecomposition,
    knn_accuracy,
    load_csv,
    run_sweep,
)
from pcashrink import experiments, shrinkage
from pcashrink.experiments import SweepResult, SweepRow, _knn_predict, _stratified_folds


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_default_last_column_is_label(self, tmp_path):
        path = write(tmp_path / "iris-ish.csv", "1.0,2.0,a\n3.0,4.0,b\n5.0,6.0,a\n")
        ds = load_csv(path)
        assert ds.features.shape == (3, 2)
        assert ds.labels == ("a", "b", "a")
        assert ds.name == "iris-ish"

    def test_header_and_named_label(self, tmp_path):
        path = write(tmp_path / "t.csv", "x,species,y\n1,a,2\n3,b,4\n")
        ds = load_csv(path, label_column="species", header=True)
        assert_allclose(ds.features, [[1.0, 2.0], [3.0, 4.0]])
        assert ds.labels == ("a", "b")

    def test_positive_label_index(self, tmp_path):
        path = write(tmp_path / "t.csv", "a,1,2\nb,3,4\n")
        ds = load_csv(path, label_column=0)
        assert_allclose(ds.features, [[1.0, 2.0], [3.0, 4.0]])
        assert ds.labels == ("a", "b")

    def test_no_label_column(self, tmp_path):
        path = write(tmp_path / "t.csv", "1,2\n3,4\n")
        ds = load_csv(path, label_column=None)
        assert ds.labels is None
        assert ds.features.shape == (2, 2)

    def test_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path / "t.csv", "1,2,a\n\n3,4,b\n\n")
        assert load_csv(path).features.shape == (2, 2)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetIOError):
            load_csv(tmp_path / "absent.csv")

    def test_non_numeric_cell_reports_location(self, tmp_path):
        path = write(tmp_path / "t.csv", "1,2,a\n3,oops,b\n")
        with pytest.raises(DatasetParseError) as info:
            load_csv(path)
        assert "line 2" in str(info.value)
        assert "column 2" in str(info.value)

    def test_non_finite_cell_rejected(self, tmp_path):
        path = write(tmp_path / "t.csv", "1,2,a\n3,inf,b\n")
        with pytest.raises(DatasetParseError):
            load_csv(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = write(tmp_path / "t.csv", "1,2,a\n3,b\n")
        with pytest.raises(DatasetParseError) as info:
            load_csv(path)
        assert "line 2" in str(info.value)

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(DatasetParseError):
            load_csv(write(tmp_path / "t.csv", ""))

    def test_named_label_needs_header(self, tmp_path):
        path = write(tmp_path / "t.csv", "1,2,a\n")
        with pytest.raises(DatasetParseError):
            load_csv(path, label_column="species")

    def test_label_index_out_of_range(self, tmp_path):
        path = write(tmp_path / "t.csv", "1,2,a\n")
        with pytest.raises(DatasetParseError):
            load_csv(path, label_column=7)

    def test_only_label_column(self, tmp_path):
        with pytest.raises(DatasetParseError):
            load_csv(write(tmp_path / "t.csv", "a\nb\n"))

    def test_alternate_delimiter(self, tmp_path):
        path = write(tmp_path / "t.csv", "1;2;a\n3;4;b\n")
        ds = load_csv(path, delimiter=";")
        assert_allclose(ds.features, [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("delimiter", ["", "ab"])
    def test_delimiter_must_be_one_character(self, tmp_path, delimiter):
        path = write(tmp_path / "t.csv", "1,2,a\n3,4,b\n")
        with pytest.raises(ValueError, match="delimiter must be a single character, got %r"
                           % delimiter):
            load_csv(path, delimiter=delimiter)

    @pytest.mark.parametrize("later", [
        b"5,%s,a\n" % (b"6" * 131_073),  # over csv's 131,072-character field limit
        b"5,6,a\n" * 5000 + b"\xff,6,a\n",  # not UTF-8, past the first read block
    ], ids=["field-limit", "not-utf8"])
    def test_first_error_in_file_order_wins(self, tmp_path, later):
        path = tmp_path / "t.csv"
        path.write_bytes(b"1,2,a\n3,oops,b\n" + later)
        with pytest.raises(DatasetParseError) as info:
            load_csv(path)
        assert str(info.value) == "%s: line 2 column 2: 'oops' is not a number" % path

    # Blocks of rows are converted whole; only a block that fails goes
    # through the per-cell checks, which must still name its first bad cell.
    @pytest.mark.parametrize("text, label_column, message", [
        ("inf,x,a\n", -1, "line 1 column 1: non-finite value 'inf'"),
        ("1,x,inf\n", -1, "line 1 column 2: 'x' is not a number"),
        ("1,2,a\nnan,3,b\noops,4,c\n", -1, "line 2 column 1: non-finite value 'nan'"),
        ("1,a,2\n3,b,x\n", 1, "line 2 column 3: 'x' is not a number"),
        ("1,a,2\n3,b,-inf\n", 1, "line 2 column 3: non-finite value '-inf'"),
    ])
    def test_failing_row_reports_its_first_bad_cell(self, tmp_path, text, label_column,
                                                     message):
        path = write(tmp_path / "t.csv", text)
        with pytest.raises(DatasetParseError) as info:
            load_csv(path, label_column=label_column)
        assert str(info.value) == "%s: %s" % (path, message)

    def test_row_whose_sum_overflows_loads(self, tmp_path):
        ds = load_csv(write(tmp_path / "t.csv", "1e308,1e308,a\n-1e308,1e308,b\n"))
        assert ds.features.tolist() == [[1e308, 1e308], [-1e308, 1e308]]

    def test_cells_keep_the_bits_of_float(self, tmp_path):
        cells = [" 1.5 ", "1_000", "-0", "1e-320"]
        ds = load_csv(write(tmp_path / "t.csv", ",".join(cells) + ",a\n"))
        assert ds.features.tobytes() == np.array([float(c) for c in cells]).tobytes()

    def test_memory_holds_no_raw_rows(self, tmp_path):
        # 1000 rows x 40 columns: 4.9 MB while every cell string was kept,
        # 1.9 MiB while every cell was a Python float until the end, 0.64 MiB
        # when each row goes straight into one float64 buffer
        rng = np.random.default_rng(0)
        path = write_dataset_csv(tmp_path / "t.csv", Dataset(
            rng.standard_normal((1000, 39)), labels=("a", "b") * 500))
        tracemalloc.start()
        try:
            ds = load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.features.shape == (1000, 39)
        assert peak < 1.0 * 2**20

    def test_peak_is_near_the_matrix_it_loads(self, tmp_path):
        # 3000 x 100: 2.20x the float64 matrix while the Dataset copied the
        # loaded buffer, 1.32x once it keeps it
        rng = np.random.default_rng(0)
        path = write_dataset_csv(tmp_path / "t.csv", Dataset(
            rng.standard_normal((3000, 100)), labels=("a", "b") * 1500))
        tracemalloc.start()
        try:
            ds = load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * ds.features.nbytes, peak
        assert not ds.features.flags.writeable

    def test_dataset_copies_a_writeable_input_only(self):
        X = np.arange(6.0).reshape(3, 2)
        ds = Dataset(X)
        X[0, 0] = 99.0
        assert ds.features.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
        assert not ds.features.flags.writeable
        assert Dataset(ds.features).features is ds.features


# a 32-byte row of two feature cells: a block of _LOAD_CELLS // 2 of them
# is longer than the 8 KB the text reader decodes at once
ROW = b"5.000000000000,6.000000000000,a\n"
PER_BLOCK = experiments._LOAD_CELLS // 2


class TestLoadCsvBlocks:
    """load_csv converts a block of rows at a time: a bad cell still
    wins over every later error, and still names its own line and column."""

    # the bad cell opens line PER_BLOCK + 2, in the second block; the later
    # error comes 400 rows (12.8 KB) on, in that same block
    @pytest.mark.parametrize("later", [
        b"5,6\n",
        b"5,%s,a\n" % (b"6" * 131_073),  # over csv's 131,072-character field limit
        b"\xff,6,a\n",
    ], ids=["width", "field-limit", "not-utf8"])
    def test_bad_cell_wins_over_a_later_error_in_its_block(self, tmp_path, later):
        path = tmp_path / "t.csv"
        path.write_bytes(ROW * (PER_BLOCK + 1) + b"3,oops,b\n" + ROW * 400 + later + ROW)
        with pytest.raises(DatasetParseError) as info:
            load_csv(path)
        assert str(info.value) == "%s: line %d column 2: 'oops' is not a number" % (
            path, PER_BLOCK + 2)

    def test_bad_cell_in_the_last_partial_block(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(ROW * (2 * PER_BLOCK + 4) + b"3,4,b\n1,2 2,a\n" + ROW * 3)
        with pytest.raises(DatasetParseError) as info:
            load_csv(path)
        assert str(info.value) == "%s: line %d column 2: '2 2' is not a number" % (
            path, 2 * PER_BLOCK + 6)

    @pytest.mark.parametrize("label_column, row, bad, message", [
        (-1, ROW, b"3,-inf,b\n", "column 2: non-finite value '-inf'"),
        # the label is column 1 and no feature
        (0, b"a,5.000000000000,6.000000000000\n", b"b,3,nan\n",
         "column 3: non-finite value 'nan'"),
    ], ids=["label-last", "label-first"])
    def test_non_finite_cell_in_block_two_names_its_place(self, tmp_path, label_column,
                                                          row, bad, message):
        path = tmp_path / "t.csv"
        path.write_bytes(row * (PER_BLOCK + 3) + bad + row * 5)
        with pytest.raises(DatasetParseError) as info:
            load_csv(path, label_column=label_column)
        assert str(info.value) == "%s: line %d %s" % (path, PER_BLOCK + 4, message)

    def test_non_finite_cell_wins_over_a_later_bad_cell_in_its_block(self, tmp_path):
        # the block fails its cast on "x"; the cell checks go in file order
        path = tmp_path / "t.csv"
        path.write_bytes(ROW * 3 + b"nan,1,a\n" + ROW * 3 + b"x,1,a\n" + ROW * 3)
        with pytest.raises(DatasetParseError) as info:
            load_csv(path)
        assert str(info.value) == "%s: line 4 column 1: non-finite value 'nan'" % path


class TestDataset:
    def test_label_count_must_match(self):
        with pytest.raises(DimMismatchError):
            Dataset(features=np.ones((3, 2)), labels=("a", "b"))

    def test_features_read_only(self):
        ds = Dataset(features=np.ones((2, 2)))
        with pytest.raises(ValueError):
            ds.features[0, 0] = 9.0


def two_blob_dataset(n_per_class=20, gap=10.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_per_class, 2))
    b = rng.standard_normal((n_per_class, 2)) + gap
    features = np.vstack([a, b])
    labels = ("a",) * n_per_class + ("b",) * n_per_class
    return Dataset(features=features, labels=labels, name="blobs")


class TestKnnAccuracy:
    def test_separated_blobs_are_perfect(self):
        assert knn_accuracy(two_blob_dataset(), k=3, folds=4, seed=1) == 1.0

    def test_deterministic_for_fixed_seed(self):
        ds = two_blob_dataset(gap=1.0, seed=5)
        first = knn_accuracy(ds, k=5, folds=5, seed=7)
        second = knn_accuracy(ds, k=5, folds=5, seed=7)
        assert first == second

    def test_seed_changes_folds(self):
        ds = two_blob_dataset(gap=0.5, seed=5)
        results = {knn_accuracy(ds, k=3, folds=5, seed=s) for s in range(8)}
        assert len(results) > 1, "fold assignment ignored the seed"

    def test_leave_one_out_allowed(self):
        ds = two_blob_dataset(n_per_class=4)
        assert knn_accuracy(ds, k=1, folds=8, seed=0) == 1.0

    def test_bad_folds(self):
        ds = two_blob_dataset(n_per_class=3)
        with pytest.raises(BadFoldsError):
            knn_accuracy(ds, folds=1)
        with pytest.raises(BadFoldsError):
            knn_accuracy(ds, folds=7)

    def test_degenerate_labels(self):
        ds = Dataset(features=np.ones((4, 2)), labels=("a",) * 4)
        with pytest.raises(DegenerateLabelsError):
            knn_accuracy(ds, folds=2)
        with pytest.raises(DegenerateLabelsError):
            knn_accuracy(Dataset(features=np.ones((4, 2))), folds=2)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            knn_accuracy(two_blob_dataset(), k=0)

    def test_folds_match_per_sample_dealing(self):
        # reference: shuffle each class, then deal its samples one at a
        # time with a cursor that runs on across classes
        labels = np.asarray(list("abcab" * 7 + "cc"))
        for folds, seed in ((2, 0), (3, 5), (7, 11)):
            rng = np.random.default_rng(seed)
            expected = np.empty(labels.size, dtype=np.int64)
            cursor = 0
            for cls in sorted(set(labels.tolist())):
                idx = np.flatnonzero(labels == cls)
                rng.shuffle(idx)
                for sample in idx:
                    expected[sample] = cursor % folds
                    cursor += 1
            assert np.array_equal(_stratified_folds(labels, folds, seed), expected)

    def test_distance_ties_rank_by_training_index(self):
        # both training points sit at distance 1 from the query; the
        # lower training index ranks first and alone decides at k=1
        X_train = np.array([[1.0], [-1.0], [5.0]])
        for labels, expected in ((["b", "a", "c"], "b"), (["a", "b", "c"], "a")):
            got = _knn_predict(X_train, np.asarray(labels), np.array([[0.0]]), 1, [1])[0]
            assert got.tolist() == [expected]

    def test_vote_ties_go_to_the_best_ranked_class(self):
        X_train = np.array([[1.0], [2.0], [3.0], [4.0]])
        query = np.array([[0.0]])
        # two votes each; "z" holds the nearest neighbour, "a" the next two
        got = _knn_predict(X_train, np.asarray(["z", "a", "a", "z"]), query, 4, [1])[0]
        assert got.tolist() == ["z"]
        got = _knn_predict(X_train, np.asarray(["a", "z", "z", "a"]), query, 4, [1])[0]
        assert got.tolist() == ["a"]
        # a strict majority still beats the nearest neighbour
        got = _knn_predict(X_train, np.asarray(["z", "a", "a", "q"]), query, 4, [1])[0]
        assert got.tolist() == ["a"]


class TestRunSweep:
    def test_rows_cover_range_in_order(self):
        ds = anisotropic_gaussian(n_samples=60, variances=(4.0, 1.0, 0.25), seed=2)
        result = run_sweep(ds, seed=2, folds=3)
        assert [row.m for row in result.rows] == [1, 2, 3]
        assert result.dataset_name == ds.name
        assert result.classifier_config == "knn k=5 folds=3"
        eigsums = [row.eigsum for row in result.rows]
        assert all(a >= b for a, b in zip(eigsums, eigsums[1:]))
        assert all(0.0 <= row.accuracy <= 1.0 for row in result.rows)
        assert result.negative_shrinkage_pairs == 0
        assert result.bound_violation_pairs == 0

    def test_explicit_sub_range(self):
        ds = anisotropic_gaussian(n_samples=40, variances=(4.0, 1.0, 0.25, 0.1), seed=3)
        result = run_sweep(ds, m_range=(2, 3), seed=3, folds=4)
        assert [row.m for row in result.rows] == [2, 3]

    def test_deterministic(self):
        ds = anisotropic_gaussian(n_samples=50, variances=(2.0, 0.5), seed=6)
        a = run_sweep(ds, seed=6, folds=5)
        b = run_sweep(ds, seed=6, folds=5)
        assert a == b

    def test_range_validation(self):
        ds = anisotropic_gaussian(n_samples=30, variances=(2.0, 0.5), seed=1)
        with pytest.raises(DimMismatchError):
            run_sweep(ds, m_range=(0, 2))
        with pytest.raises(DimMismatchError):
            run_sweep(ds, m_range=(1, 3))
        with pytest.raises(DimMismatchError):
            run_sweep(ds, m_range=(2, 1))

    def test_pair_statistics_match_single_level_tables(self):
        ds = anisotropic_gaussian(n_samples=80, variances=(4.0, 1.0, 0.25, 0.1), seed=4)
        model = fit(ds.features)
        for pair_sample in (None, 300):
            result = run_sweep(ds, m_range=(1, 4), seed=4, folds=3, pair_sample=pair_sample)
            stats = [
                drained_table(model, ds.features, m, pair_sample=pair_sample, seed=4)[1]
                for m in range(1, 5)
            ]
            assert [
                (row.m, row.mean_shrinkage, row.median_shrinkage, row.max_shrinkage)
                for row in result.rows
            ] == [(s.m, s.mean, s.median, s.max) for s in stats]
            assert (result.pair_count, result.pairs_sampled) == (
                stats[-1].pair_count, stats[-1].sampled)
            assert result.negative_shrinkage_pairs == sum(s.negative_count for s in stats)
            assert result.bound_violation_pairs == sum(s.bound_violations for s in stats)

    def test_constituent_error_names_the_m(self):
        ds = anisotropic_gaussian(n_samples=20, variances=(2.0, 0.5), seed=1)
        with pytest.raises(BadFoldsError) as info:
            run_sweep(ds, folds=25, seed=1)
        assert str(info.value).startswith("m=1:")


    @pytest.mark.parametrize("labels, kwargs, error, message", [
        ("ab", dict(k=0), ValueError, "k must be at least 1"),
        ("ab", dict(folds=1), BadFoldsError, "m=1: folds must be in [2, 20], got 1"),
        ("ab", dict(folds=21, m_range=(2, 2)), BadFoldsError,
         "m=2: folds must be in [2, 20], got 21"),
        (None, dict(), DegenerateLabelsError, "m=1: dataset has no labels"),
        ("a", dict(), DegenerateLabelsError, "m=1: need at least two distinct classes"),
        ("ab", dict(seed=-1), ValueError, "seed must be a non-negative integer, got -1"),
    ], ids=["k", "one-fold", "folds-above-rows", "no-labels", "one-class", "seed"])
    def test_knn_arguments_are_refused_before_the_pair_engine(
            self, monkeypatch, labels, kwargs, error, message):
        def no_pair_engine(*args, **kwargs):
            raise AssertionError("the pair engine ran")

        monkeypatch.setattr(experiments, "shrinkage_summaries", no_pair_engine)
        X = anisotropic_gaussian(n_samples=20, variances=(2.0, 0.5), seed=1).features
        ds = Dataset(X, None if labels is None else [labels[i % len(labels)] for i in range(20)])
        with pytest.raises(error) as info:
            run_sweep(ds, **kwargs)
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize("budget, kwargs, error, message", [
        (None, dict(pair_sample=-1), ValueError,
         "pair sample must be 0 (all pairs) or positive, got -1"),
        (10, dict(), shrinkage.TooManyPairsError,
         "m=1: 190 pairs exceed the budget of 10; request fewer sampled pairs"),
    ], ids=["negative-pair-sample", "over-budget"])
    def test_pair_arguments_are_refused_before_the_knn(
            self, monkeypatch, budget, kwargs, error, message):
        def no_knn(*args, **kwargs):
            raise AssertionError("the k-NN ran")

        monkeypatch.setattr(experiments, "_knn_predict", no_knn)
        if budget is not None:
            monkeypatch.setattr(shrinkage, "PAIR_BUDGET", budget)
        X = anisotropic_gaussian(n_samples=20, variances=(2.0, 0.5), seed=1).features
        ds = Dataset(X, ["ab"[i % 2] for i in range(20)])
        with pytest.raises(error) as info:
            run_sweep(ds, **kwargs)
        assert type(info.value) is error
        assert str(info.value) == message

    def test_memory_holds_one_level_table(self):
        # 719,400 pairs and no pair column: 5.6 MiB, the median's sample, the
        # values inside each level's bracket, a piece buffer per level and one
        # step's differences; holding the original distances and the running
        # squared truncated distances (5.5 MiB each) peaked at 12.5 MiB, and a
        # six-column pair table per level at 41.0 MiB
        ds = anisotropic_gaussian(1200, tuple(2.0 ** -k for k in range(8)), seed=3)
        tracemalloc.start()
        try:
            result = run_sweep(ds, m_range=(1, 6), folds=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.rows) == 6
        assert peak < 10 * 2**20

    def test_summary_memory_grows_slower_than_the_pairs(self):
        # 4x the pairs (719,400 -> 2,878,800), all of them: 5.6 -> 8.3 MiB, the
        # bracketed values growing with the square root of the pairs; a pair
        # column grows with the pairs (12.5 -> 46.8 MiB for two of them)
        peaks = []
        for n_samples in (1200, 2400):
            ds = anisotropic_gaussian(n_samples, tuple(2.0 ** -k for k in range(8)), seed=3)
            model = fit(ds.features)
            tracemalloc.start()
            try:
                stats = list(shrinkage.shrinkage_summaries(model, ds.features, range(1, 7),
                                                           pair_sample=0))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert stats[-1].pair_count == n_samples * (n_samples - 1) // 2
        assert peaks[1] < 2.5 * peaks[0]

    def test_knn_runs_with_no_pair_column_alive(self, monkeypatch):
        # the same 719,400 pairs: the pair summaries are done, and their
        # temporaries freed, before the k-NN's first fold starts
        ds = anisotropic_gaussian(1200, tuple(2.0 ** -k for k in range(8)), seed=3)
        predict = experiments._knn_predict
        alive = []

        def spy(*args):
            alive.append(tracemalloc.get_traced_memory()[0])
            return predict(*args)

        monkeypatch.setattr(experiments, "_knn_predict", spy)
        tracemalloc.start()
        try:
            run_sweep(ds, m_range=(1, 6), folds=3)
        finally:
            tracemalloc.stop()
        assert len(alive) == 3
        assert max(alive) < 2**20

    def test_each_level_differences_one_column_of_the_transform(self, monkeypatch):
        """The work the pair kernel does, counted without a clock: for each
        pair, the n columns of X once for the original distances, then one
        column of the transform per level, not the m columns of every level
        m. The median's sample, every _STRIDE-th pair, is differenced the
        same way once more, before the pass."""
        ds = anisotropic_gaussian(50, seed=2)
        differenced = []
        pairwise = shrinkage._pairwise

        def counting(ufunc, v, step, *out):
            out = pairwise(ufunc, v, step, *out)
            if ufunc is np.subtract:
                differenced.append(out.size)
            return out

        monkeypatch.setattr(shrinkage, "_pairwise", counting)
        levels = 6
        run_sweep(ds, m_range=(1, levels), folds=3)
        pairs = 50 * 49 // 2
        sample = -(-pairs // shrinkage._STRIDE)
        assert sum(differenced) == (ds.n_features + levels) * (pairs + sample)


class TestCorrelate:
    @staticmethod
    def result_from_columns(eigsum, shrink, accuracy):
        rows = tuple(
            SweepRow(
                m=k + 1,
                eigsum=float(e),
                mean_shrinkage=float(s),
                median_shrinkage=float(s),
                max_shrinkage=float(s),
                accuracy=float(a),
            )
            for k, (e, s, a) in enumerate(zip(eigsum, shrink, accuracy))
        )
        return SweepResult(
            dataset_name="synthetic",
            seed=0,
            classifier_config="knn k=5 folds=5",
            rows=rows,
            pair_count=10,
            pairs_sampled=False,
            negative_shrinkage_pairs=0,
            bound_violation_pairs=0,
        )

    def test_known_coefficients(self):
        result = self.result_from_columns([3.0, 2.0, 1.0], [3.0, 2.0, 1.0], [1.0, 2.0, 2.0])
        summary = correlate(result)
        assert_allclose(summary.r_eigsum_shrinkage, 1.0, atol=1e-12)
        assert_allclose(summary.r_eigsum_accuracy, -0.86602540378443849, atol=1e-12)
        assert summary.sample_count == 3

    def test_constant_series_yields_none(self):
        result = self.result_from_columns([3.0, 2.0, 1.0], [3.0, 2.0, 1.0], [0.9, 0.9, 0.9])
        summary = correlate(result)
        assert_allclose(summary.r_eigsum_shrinkage, 1.0, atol=1e-12)
        assert summary.r_eigsum_accuracy is None
        assert summary.r_shrinkage_accuracy is None

    def test_too_few_rows(self):
        result = self.result_from_columns([1.0], [1.0], [1.0])
        with pytest.raises(InsufficientRowsError):
            correlate(result)


class TestAnisotropicGaussian:
    def test_shape_and_labels(self):
        ds = anisotropic_gaussian(n_samples=100, seed=0)
        assert ds.features.shape == (100, 8)
        assert set(ds.labels) == {"pos", "neg"}

    def test_covariance_matches_variance_profile(self):
        """With plenty of samples the sample covariance eigenvalues land
        on the requested profile (mixing rotation notwithstanding)."""
        profile = (8.0, 4.0, 2.0, 1.0, 0.5, 0.25, 0.1, 0.05)
        ds = anisotropic_gaussian(n_samples=20000, variances=profile, seed=12)
        values = jacobi_eigendecomposition(covariance(ds.features)).values
        assert_allclose(values, profile, rtol=0.15)

    def test_deterministic(self):
        a = anisotropic_gaussian(n_samples=30, seed=4)
        b = anisotropic_gaussian(n_samples=30, seed=4)
        c = anisotropic_gaussian(n_samples=30, seed=5)
        assert np.array_equal(a.features, b.features)
        assert a.labels == b.labels
        assert not np.array_equal(a.features, c.features)

    def test_bad_variances(self):
        with pytest.raises(ValueError):
            anisotropic_gaussian(variances=())
        with pytest.raises(ValueError):
            anisotropic_gaussian(variances=(1.0, -2.0))


def test_strong_correlation_threshold():
    assert STRONG_CORRELATION == 0.7
