"""A negative seed is refused by name, by the library and by the CLI,
whether or not pairs are sampled."""

import json

import pytest

from conftest import write_dataset_csv
from pcashrink import (
    anisotropic_gaussian,
    fit,
    knn_accuracy,
    shrinkage_blocks,
    shrinkage_summaries,
    shrinkage_table,
)
from pcashrink.cli import main

MESSAGE = "seed must be a non-negative integer, got -1"
DATA = anisotropic_gaussian(40, (4.0, 1.0, 0.25), seed=5)


@pytest.mark.parametrize("pair_sample", [None, 0, 50], ids=["default", "all", "sampled"])
def test_pair_engine_refuses_negative_seed(pair_sample):
    model = fit(DATA.features)
    with pytest.raises(ValueError) as exc:
        shrinkage_table(model, DATA.features, 2, pair_sample=pair_sample, seed=-1)
    assert str(exc.value) == MESSAGE
    with pytest.raises(ValueError, match=MESSAGE):
        shrinkage_summaries(model, DATA.features, [1, 2], pair_sample=pair_sample, seed=-1)
    with pytest.raises(ValueError, match=MESSAGE):
        shrinkage_blocks(model, DATA.features, 2, pair_sample=pair_sample, seed=-1)


def test_knn_accuracy_refuses_negative_seed():
    with pytest.raises(ValueError) as exc:
        knn_accuracy(DATA, k=3, folds=4, seed=-1)
    assert str(exc.value) == MESSAGE


@pytest.fixture()
def data_csv(tmp_path):
    return write_dataset_csv(tmp_path / "data.csv", DATA)


@pytest.mark.parametrize("source", ["flag", "config", "env"])
@pytest.mark.parametrize("argv", [
    ("analyze", "--m", "1"),
    ("analyze", "--m", "1", "--pair-sample", "10"),
    ("sweep", "--m-range", "1..2", "--folds", "3"),
], ids=["analyze", "analyze-sampled", "sweep"])
def test_cli_refuses_negative_seed(data_csv, tmp_path, capsys, monkeypatch, source, argv):
    argv = list(argv) + ["--input", str(data_csv), "--output", str(tmp_path / "out")]
    if source == "flag":
        argv += ["--seed", "-1"]
    elif source == "config":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": -1}), encoding="utf-8")
        argv += ["--config", str(config)]
    else:
        monkeypatch.setenv("PCA_SHRINK_SEED", "-1")
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err == "pca-shrink: error: %s\n" % MESSAGE
    assert out == "" and list(tmp_path.glob("out*")) == []
