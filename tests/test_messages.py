"""Golden messages for failure branches no other test reaches, and the
option checks that run before any input is read."""

import json

import numpy as np
import pytest

from pcashrink import (
    CorrelationSummary,
    DatasetIOError,
    DatasetParseError,
    DimMismatchError,
    EmptyDataError,
    NonFiniteError,
    PcaModel,
    anisotropic_gaussian,
    collision_witness,
    fit,
    load_csv,
    load_model,
    save_model,
)
from pcashrink import cli
from pcashrink.cli import main
from pcashrink.matrix import as_data_matrix, as_vector
from pcashrink.reports import format_correlation_lines

MODEL = fit(np.array([[0.0, 1.0], [2.0, 0.5], [1.0, 3.0]]))


def saved_model(tmp_path):
    """Path of a freshly saved model and its parsed JSON."""
    path = tmp_path / "model.json"
    save_model(MODEL, path)
    return path, json.loads(path.read_text(encoding="utf-8"))


def test_model_missing_an_array_is_malformed(tmp_path):
    path, raw = saved_model(tmp_path)
    del raw["mean"]
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(DatasetParseError) as exc:
        load_model(path)
    assert str(exc.value) == "model file %s is malformed: 'mean'" % path


def test_model_n_must_match_its_arrays(tmp_path):
    path, raw = saved_model(tmp_path)
    raw["n"] = 3
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(DatasetParseError) as exc:
        load_model(path)
    assert str(exc.value) == "model file %s declares n=3 but carries 2 features" % path


@pytest.mark.parametrize("field, value, message", [
    ("degenerate", "false", "degenerate must be true or false, got 'false'"),
    ("degenerate", 0, "degenerate must be true or false, got 0"),
    ("n", 3.7, "n must be an integer, got 3.7"),
    ("n", 2.0, "n must be an integer, got 2.0"),
    ("n", True, "n must be an integer, got True"),
], ids=["degenerate-string", "degenerate-number", "n-fraction", "n-float", "n-boolean"])
def test_mistyped_model_field_is_malformed(tmp_path, capsys, field, value, message):
    # a string "false" is truthy and 3.7 truncates: neither may load as a model
    path, raw = saved_model(tmp_path)
    raw[field] = value
    path.write_text(json.dumps(raw), encoding="utf-8")
    rc = main(["transform", "--model", str(path), "--input", str(tmp_path / "nope.csv")])
    assert rc == 2
    out, err = capsys.readouterr()
    assert err == "pca-shrink: [parse] model file %s is malformed: %s\n" % (path, message)
    assert out == ""


def test_save_model_onto_a_directory(tmp_path):
    with pytest.raises(DatasetIOError) as exc:
        save_model(MODEL, tmp_path)
    assert str(exc.value) == "cannot write %s: [Errno 21] Is a directory: %r" % (
        tmp_path, str(tmp_path))


def test_undefined_correlations_print_as_undefined():
    lines = format_correlation_lines(CorrelationSummary(None, 0.5, None, 3))
    assert lines == [
        "r_eigsum_shrinkage=undefined",
        "r_eigsum_accuracy=0.5 (weak)",
        "r_shrinkage_accuracy=undefined",
        "sample_count=3",
    ]


def test_collision_witness_needs_one_value_per_feature():
    with pytest.raises(DimMismatchError) as exc:
        collision_witness(MODEL, [1.0, 2.0, 3.0], 1)
    assert str(exc.value) == "expected 2 features, got 3"


def test_header_on_an_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(DatasetParseError) as exc:
        load_csv(path, header=True)
    assert str(exc.value) == "%s: empty file, expected a header row" % path


def test_unknown_label_name(tmp_path):
    path = tmp_path / "named.csv"
    path.write_text("a,b,c\n1,2,x\n", encoding="utf-8")
    with pytest.raises(DatasetParseError) as exc:
        load_csv(path, header=True, label_column="zz")
    assert str(exc.value) == "%s: no column named 'zz' in header ['a', 'b', 'c']" % path


# a nonexistent --input shows the option is checked before any input is read
@pytest.mark.parametrize("argv, message", [
    (("analyze",), "missing required option --m"),
    (("sweep", "--m-range", "1..x"), "bad m range '1..x', expected A..B"),
    (("sweep", "--m-range", "3"), "bad m range '3', expected A..B"),
    (("analyze", "--m", "2", "--violation-tol", "nan"),
     "violation tolerance must be finite, got nan"),
    (("analyze", "--m", "2", "--violation-tol", "inf"),
     "violation tolerance must be finite, got inf"),
], ids=["analyze-no-m", "sweep-1..x", "sweep-single-m", "analyze-nan-tol", "analyze-inf-tol"])
def test_bad_option_wins_over_unreadable_input(tmp_path, capsys, argv, message):
    rc = main(list(argv) + ["--input", str(tmp_path / "nope.csv"),
                            "--output", str(tmp_path / "out")])
    assert rc == 1
    out, err = capsys.readouterr()
    assert err == "pca-shrink: error: %s\n" % message
    assert out == "" and list(tmp_path.iterdir()) == []


def test_single_level_range_is_refused_before_input_is_read(tmp_path, capsys):
    # one level gives one sweep row, too few to correlate
    rc = main(["sweep", "--m-range", "3..3", "--input", str(tmp_path / "nope.csv"),
               "--output", str(tmp_path / "out")])
    assert rc == 3
    out, err = capsys.readouterr()
    assert err == "pca-shrink: [insufficient-rows] need at least two sweep rows, got 1\n"
    assert out == "" and list(tmp_path.iterdir()) == []


def test_one_feature_sweep_is_refused_before_the_fit(tmp_path, capsys, monkeypatch):
    # one feature gives the default range 1..1: one sweep row, too few to correlate
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    data = tmp_path / "one.csv"
    data.write_text("".join("%d,%s\n" % (v, "ab"[v % 2]) for v in range(6)), encoding="utf-8")
    rc = main(["sweep", "--input", str(data), "--output", str(tmp_path / "out")])
    assert rc == 3
    out, err = capsys.readouterr()
    assert err == "pca-shrink: [insufficient-rows] need at least two sweep rows, got 1\n"
    assert out == "" and [p.name for p in tmp_path.iterdir()] == ["one.csv"]


@pytest.mark.parametrize("config, message", [
    ({"m-range": [1, 2]}, "config key 'm-range' must be a string or a number, got [1, 2]"),
    ({"k": True}, "config key 'k' must be a string or a number, got True"),
], ids=["list", "boolean"])
def test_config_value_of_the_wrong_json_type(tmp_path, capsys, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    rc = main(["sweep", "--config", str(path), "--input", str(tmp_path / "nope.csv"),
               "--output", str(tmp_path / "out")])
    assert rc == 1
    out, err = capsys.readouterr()
    assert err == "pca-shrink: error: %s\n" % message
    assert out == "" and [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("call, error, message", [
    (lambda: as_vector([[1.0, 2.0]], "x"), DimMismatchError,
     "x must be one-dimensional, got shape (1, 2)"),
    (lambda: as_vector([], "x"), EmptyDataError, "x is empty"),
    (lambda: as_data_matrix([1.0, 2.0]), DimMismatchError,
     "data must be a 2-D array of row vectors, got shape (2,)"),
    (lambda: PcaModel(mean=[[0.0, 1.0]], eigenvalues=[1.0, 0.5], components=np.eye(2)),
     DimMismatchError, "mean must be a vector, got shape (1, 2)"),
    (lambda: PcaModel(mean=[0.0, 1.0], eigenvalues=[1.0, np.nan], components=np.eye(2)),
     NonFiniteError, "model eigenvalues contains NaN or infinite entries"),
    (lambda: anisotropic_gaussian(10, variances=(1.0, np.nan)), NonFiniteError,
     "variances contain NaN or infinite entries"),
], ids=["vector-2d", "vector-empty", "matrix-1d", "model-2d-mean", "model-nan-eigenvalue",
        "gaussian-nan-variance"])
def test_library_input_refusals(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
