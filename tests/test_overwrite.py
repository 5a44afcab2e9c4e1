"""An output path that names one of the command's own input files (the
data, the model or the config) is refused before anything is read, and
that file keeps its bytes."""

import os

import pytest

from conftest import write_dataset_csv
from pcashrink.cli import main
from pcashrink.experiments import anisotropic_gaussian


@pytest.fixture()
def data_csv(tmp_path):
    ds = anisotropic_gaussian(n_samples=40, variances=(4.0, 1.0, 0.25), seed=8)
    return write_dataset_csv(tmp_path / "sweep.csv", ds)


def refused(capsys, argv, source, target, option="--input"):
    """Run ``argv``; assert exit 2, the [io] line for ``target``, no stdout,
    and ``source`` unchanged."""
    before = source.read_bytes()
    rc = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    assert rc == 2
    assert err == "pca-shrink: [io] cannot write %s: it is the %s file\n" % (target, option)
    assert out == ""
    assert source.read_bytes() == before


@pytest.mark.parametrize("output", ["sweep", "sweep.csv", "sweep.json"])
def test_sweep_rows_file_is_the_input(data_csv, tmp_path, capsys, output):
    base = tmp_path / output
    refused(capsys, ["sweep", "--input", data_csv, "--output", base], data_csv, data_csv)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.csv"]


def test_sweep_report_file_is_the_input(data_csv, tmp_path, capsys):
    data = data_csv.rename(tmp_path / "s.json")
    refused(capsys, ["sweep", "--input", data, "--output", tmp_path / "s"], data, data)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]


def test_fit_output_is_the_input(data_csv, capsys):
    refused(capsys, ["fit", "--input", data_csv, "--output", data_csv], data_csv, data_csv)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_analyze_output_is_the_input(data_csv, capsys, fmt):
    refused(capsys, ["analyze", "--input", data_csv, "--m", 1, "--format", fmt,
                     "--output", data_csv], data_csv, data_csv)


def test_transform_output_is_the_input_or_the_model(data_csv, tmp_path, capsys):
    model = tmp_path / "model.json"
    assert main(["fit", "--input", str(data_csv), "--output", str(model)]) == 0
    capsys.readouterr()
    argv = ["transform", "--input", data_csv, "--model", model, "--output"]
    refused(capsys, argv + [data_csv], data_csv, data_csv)
    refused(capsys, argv + [model], model, model, option="--model")


def test_other_spellings_of_the_same_file(data_csv, tmp_path, capsys):
    (tmp_path / "sub").mkdir()
    dotted = tmp_path / "sub" / ".." / "sweep.csv"
    refused(capsys, ["fit", "--input", data_csv, "--output", dotted], data_csv, dotted)
    link = tmp_path / "link.csv"
    os.symlink(data_csv, link)
    refused(capsys, ["fit", "--input", data_csv, "--output", link], data_csv, link)


@pytest.mark.parametrize("command, output", [("fit", "c.json"), ("sweep", "c")])
def test_output_is_the_config(data_csv, tmp_path, capsys, command, output):
    config = tmp_path / "c.json"
    config.write_text('{"seed": 3}\n', encoding="utf-8")
    refused(capsys, [command, "--input", data_csv, "--config", config,
                     "--output", tmp_path / output], config, config, option="--config")
