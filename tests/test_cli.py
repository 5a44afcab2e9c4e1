"""End-to-end command-line behaviour: subcommands, exit codes, config
file precedence, and the stdout/stderr split."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import write_dataset_csv
from pcashrink import cli, load_model, transform
from pcashrink.cli import main
from pcashrink.experiments import Dataset, anisotropic_gaussian
from pcashrink._version import VERSION
from pcashrink.reports import coords_json_blocks
from pcashrink.serialize import json_text
from pcashrink.shrinkage import VIOLATION_TOL
from test_trace_sites import RETIRED, STALE

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def data_csv(tmp_path):
    ds = anisotropic_gaussian(n_samples=50, variances=(4.0, 1.0, 0.25), seed=21)
    return write_dataset_csv(tmp_path / "data.csv", ds)


def run_cli(*argv):
    return main([str(a) for a in argv])


def over_budget_csv(tmp_path):
    """6,400 rows of one feature: 20,476,800 pairs, just over the pair budget."""
    path = tmp_path / "wide.csv"
    path.write_text("".join("%d,%s\n" % (k, "ab"[k % 2]) for k in range(6400)),
                    encoding="utf-8")
    return path


class TestFit:
    def test_writes_model_and_summary(self, data_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        rc = run_cli("fit", "--input", data_csv, "--output", model_path)
        assert rc == 0
        out, err = capsys.readouterr()
        assert "samples=50 features=3" in out
        assert "eigenvalues=" in out
        assert "wrote" in err and "wrote" not in out
        model = load_model(model_path)
        assert model.n_features == 3

    def test_missing_input_exits_2(self, tmp_path, capsys):
        rc = run_cli("fit", "--input", tmp_path / "nope.csv", "--output", tmp_path / "m.json")
        assert rc == 2
        assert "[io]" in capsys.readouterr().err

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,frog,a\n", encoding="utf-8")
        rc = run_cli("fit", "--input", bad, "--output", tmp_path / "m.json")
        assert rc == 2
        assert "[parse]" in capsys.readouterr().err

    def test_undecodable_input_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"1.0,2.0,a\n3.0,4.0,caf\xe9\n")
        rc = run_cli("fit", "--input", bad, "--output", tmp_path / "m.json")
        assert rc == 2
        out, err = capsys.readouterr()
        assert "[parse]" in err and "UTF-8" in err
        assert out == ""

    def test_unwritable_output_exits_2(self, data_csv, tmp_path, capsys):
        rc = run_cli("fit", "--input", data_csv, "--output", tmp_path / "missing" / "m.json")
        assert rc == 2
        out, err = capsys.readouterr()
        assert "[io]" in err and "Traceback" not in err
        assert out == ""

    def test_missing_output_exits_1(self, data_csv, capsys):
        assert run_cli("fit", "--input", data_csv) == 1
        assert "--output" in capsys.readouterr().err

    def test_warning_prints_as_one_log_line(self, tmp_path):
        """Run with Python's default warning filters, which show a warning
        once rather than raise it as this suite does."""
        data = tmp_path / "one.csv"
        data.write_text("1.0,2.0,a\n", encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "pcashrink", "fit", "--input", str(data),
             "--output", "one.json"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "degenerate=true" in proc.stdout
        assert proc.stderr == ("pca-shrink: warning: fitting from a single sample yields a "
                               "degenerate zero-covariance model\n"
                               "pca-shrink: wrote one.json\n")


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert run_cli() == 1
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert run_cli("fit", "--frobnicate") == 1
        capsys.readouterr()

    def test_version(self, capsys):
        assert run_cli("--version") == 0
        assert capsys.readouterr().out.startswith("pca-shrink ")

    def test_console_script_installed(self, tmp_path):
        """The entry point is resolved from pyproject.toml, not looked up on PATH:
        the suite runs from the source tree, and a script on PATH may belong to another checkout."""
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
        target = project["scripts"]["pca-shrink"]
        # What the wrapper pip generates for a console_scripts entry does.
        launcher = (
            "import sys\n"
            "from importlib.metadata import EntryPoint\n"
            "ep = EntryPoint(name='pca-shrink', value=%r, group='console_scripts')\n"
            "sys.argv = ['pca-shrink', '--version']\n"
            "sys.exit(ep.load()())\n" % target
        )
        proc = subprocess.run(
            [sys.executable, "-c", launcher],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "pca-shrink %s\n" % project["version"]


class TestTransform:
    def test_round_trips_through_model_file(self, data_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        run_cli("fit", "--input", data_csv, "--output", model_path)
        capsys.readouterr()
        rc = run_cli("transform", "--input", data_csv, "--model", model_path, "--m", 2)
        assert rc == 0
        out, _ = capsys.readouterr()
        rows = [[float(cell) for cell in line.split(",")] for line in out.strip().splitlines()]
        got = np.asarray(rows)
        assert got.shape == (50, 2)
        from pcashrink import load_csv

        expected = transform(load_model(model_path), load_csv(data_csv).features, 2)
        assert_allclose(got, expected, rtol=0, atol=0)  # f17 round-trips exactly

    def test_json_format(self, data_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        run_cli("fit", "--input", data_csv, "--output", model_path)
        capsys.readouterr()
        out_path = tmp_path / "coords.json"
        rc = run_cli(
            "transform", "--input", data_csv, "--model", model_path,
            "--m", 1, "--format", "json", "--output", out_path,
        )
        assert rc == 0
        payload = json.loads(out_path.read_text())
        assert payload["m"] == 1
        assert len(payload["rows"]) == 50

    def test_m_beyond_rank_exits_3(self, data_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        run_cli("fit", "--input", data_csv, "--output", model_path)
        capsys.readouterr()
        rc = run_cli("transform", "--input", data_csv, "--model", model_path, "--m", 9)
        assert rc == 3
        assert "[dim-mismatch]" in capsys.readouterr().err

    def test_undecodable_model_exits_2(self, data_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_bytes(b'{"format": "pcashrink-model", "n": "\xe9"}')
        rc = run_cli("transform", "--input", data_csv, "--model", model_path)
        assert rc == 2
        assert "[parse]" in capsys.readouterr().err

    def test_csv_output_is_streamed(self, tmp_path, capsys):
        # 2000 rows x 60 columns: 8.1 MiB while the whole text and every row's
        # Python floats were built at once, 3.9 MiB when written in blocks
        rng = np.random.default_rng(0)
        data = write_dataset_csv(tmp_path / "wide.csv", Dataset(
            rng.standard_normal((2000, 60)), labels=("a", "b") * 1000))
        model_path = tmp_path / "model.json"
        args = ("--input", data)
        assert run_cli("fit", *args, "--output", model_path) == 0
        tracemalloc.start()
        try:
            rc = run_cli("transform", *args, "--model", model_path,
                         "--output", tmp_path / "coords.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert len((tmp_path / "coords.csv").read_text().splitlines()) == 2000
        assert peak < 5 * 2**20

    def test_json_output_is_streamed(self, tmp_path, capsys):
        # the 2000 x 60 input of the CSV test: 10.6 MiB while the whole
        # report was rendered at once, 4.6 MiB when written in blocks
        rng = np.random.default_rng(0)
        data = write_dataset_csv(tmp_path / "wide.csv", Dataset(
            rng.standard_normal((2000, 60)), labels=("a", "b") * 1000))
        model_path = tmp_path / "model.json"
        args = ("--input", data)
        assert run_cli("fit", *args, "--output", model_path) == 0
        tracemalloc.start()
        try:
            rc = run_cli("transform", *args, "--model", model_path, "--format", "json",
                         "--output", tmp_path / "coords.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert len(json.loads((tmp_path / "coords.json").read_text())["rows"]) == 2000
        assert peak < 5 * 2**20, peak

    # 3000 x 20 is 60,000 values, three blocks
    @pytest.mark.parametrize("shape", [(1, 4), (30, 1), (3000, 20)],
                             ids=["one-row", "one-column", "several-blocks"])
    def test_json_blocks_give_the_bytes_of_json_text(self, shape):
        coords = np.random.default_rng(5).standard_normal(shape) * 1e-3
        coords.flat[:3] = [-0.0, 5e-324, 1e17][:coords.size]
        want = json_text({"report": "pca-shrink-transform", "version": VERSION,
                          "m": shape[1], "rows": coords})
        blocks = list(coords_json_blocks(coords))
        assert len(blocks) == 2 + (3 if shape[0] == 3000 else 1)
        assert "".join(blocks) == want


class TestAnalyze:
    def test_csv_report_and_summary(self, data_csv, tmp_path, capsys):
        pairs_path = tmp_path / "pairs.csv"
        rc = run_cli("analyze", "--input", data_csv, "--m", 2, "--output", pairs_path)
        assert rc == 0
        out, _ = capsys.readouterr()
        assert "pairs=1225 sampled=false" in out
        assert "negative_shrinkage_pairs=0" in out
        assert "bound_violation_pairs=0" in out
        assert "witness: sample 0" in out
        header, first = pairs_path.read_text().splitlines()[:2]
        assert header == "i,j,m,dist_original,dist_truncated,shrinkage,recon_error"
        assert first.startswith("0,1,2,")

    def test_json_report(self, data_csv, tmp_path, capsys):
        report_path = tmp_path / "analysis.json"
        rc = run_cli(
            "analyze", "--input", data_csv, "--m", 3,
            "--output", report_path, "--format", "json",
        )
        assert rc == 0
        capsys.readouterr()
        payload = json.loads(report_path.read_text())
        assert payload["m"] == 3
        assert payload["isometry_violation_pairs"] == 0
        assert payload["witness"]["exists"] is False

    def test_full_rank_reports_injectivity(self, data_csv, capsys):
        rc = run_cli("analyze", "--input", data_csv, "--m", 3)
        assert rc == 0
        out, _ = capsys.readouterr()
        assert "isometry_violation_pairs=0" in out
        assert "full-rank transform is injective" in out

    def test_violation_gate_exits_4(self, data_csv, capsys):
        rc = run_cli("analyze", "--input", data_csv, "--m", 2, "--violation-tol", "-1")
        assert rc == 4
        _, err = capsys.readouterr()
        assert "violate" in err

    def test_pair_sampling_flag(self, data_csv, capsys):
        rc = run_cli("analyze", "--input", data_csv, "--m", 1, "--pair-sample", 40)
        assert rc == 0
        out, _ = capsys.readouterr()
        assert "pairs=40 sampled=true" in out

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unwritable_output_exits_2(self, data_csv, tmp_path, capsys, fmt):
        rc = run_cli("analyze", "--input", data_csv, "--m", 1, "--format", fmt,
                     "--output", tmp_path / "missing" / "pairs.out")
        assert rc == 2
        out, err = capsys.readouterr()
        assert "[io]" in err and "Traceback" not in err
        assert out == ""

    def test_pair_budget_exits_3(self, tmp_path, capsys):
        rc = run_cli("analyze", "--input", over_budget_csv(tmp_path), "--m", 1, "--pair-sample", 0)
        assert rc == 3
        out, err = capsys.readouterr()
        assert "[too-many-pairs]" in err and "20476800" in err
        assert out == ""

    REFUSALS = {
        "m-out-of-range": (("--m", 9), 3, "[dim-mismatch]"),
        "negative-seed": (("--m", 1, "--seed", -1), 1, "seed must be a non-negative integer"),
        "over-budget": (("--m", 1, "--pair-sample", 0), 3, "[too-many-pairs]"),
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("case", REFUSALS)
    def test_refusal_leaves_the_output_untouched(self, data_csv, tmp_path, capsys, case, fmt):
        """The seed is checked before the input is read, and m, the sample
        count and the pair budget after it, but all before the output
        file is opened."""
        argv, status, message = self.REFUSALS[case]
        data = over_budget_csv(tmp_path) if case == "over-budget" else data_csv
        target = tmp_path / "existing.csv"
        target.write_bytes(b"0,1,2,keep these bytes\n")
        rc = run_cli("analyze", "--input", data, *argv, "--format", fmt, "--output", target)
        assert rc == status
        out, err = capsys.readouterr()
        assert out == "" and message in err and err.count("\n") == 1
        assert target.read_bytes() == b"0,1,2,keep these bytes\n"

    PASS_OPTIONS = {
        "all-pairs": (),
        "sampled": ("--pair-sample", 40, "--seed", 3),
        "flagging": ("--violation-tol", -1),
    }

    @pytest.mark.parametrize("m", [2, 3], ids=["truncated", "full-rank"])
    @pytest.mark.parametrize("case", PASS_OPTIONS)
    def test_every_output_makes_one_engine_pass(self, data_csv, tmp_path, capsys, monkeypatch,
                                                case, m):
        """A pair CSV, a JSON report and no output print the same stdout,
        the same stderr besides the wrote line, and the same exit status,
        each from one shrinkage_blocks call."""
        assert not hasattr(cli, "shrinkage_summaries")
        calls = _spy(monkeypatch, cli, "shrinkage_blocks", "violation_tol")
        outputs = [(), ("--output", tmp_path / "x.csv"),
                   ("--format", "json", "--output", tmp_path / "x.json")]
        runs = []
        for output in outputs:
            calls.clear()
            rc = run_cli("analyze", "--input", data_csv, "--m", m, *self.PASS_OPTIONS[case],
                         *output)
            assert len(calls) == 1
            out, err = capsys.readouterr()
            err = "".join(line for line in err.splitlines(True)
                          if not line.startswith("pca-shrink: wrote "))
            runs.append((rc, out, err))
        assert runs[1] == runs[0] and runs[2] == runs[0]
        assert runs[0][0] == (4 if case == "flagging" else 0)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_all_pairs_hold_one_pair_column(self, tmp_path, capsys, fmt):
        """179,700 pairs (N=600, m=3): analyze keeps their shrinkages
        (1.4 MB) and renders the CSV a block of rows at a time: 3.8 MiB (CSV)
        and 2.0 MiB (JSON), against 10.4 and 10.0 MiB with a whole pair table."""
        data = write_dataset_csv(tmp_path / "data.csv", anisotropic_gaussian(600, seed=4))
        tracemalloc.start()
        try:
            rc = run_cli("analyze", "--input", data, "--m", 3, "--pair-sample", 0,
                         "--format", fmt, "--output", tmp_path / ("out." + fmt))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert "pairs=179700 sampled=false" in capsys.readouterr().out
        assert peak < 5 * 2**20, peak


def test_pair_and_transform_csv_bytes_are_pinned(tmp_path, capsys):
    """Any change to the bytes of the pair CSV, the transform CSV, or the
    analyze stdout and JSON report (whose witness distances come from the
    pair engine run on a two-row matrix) shows here. The two CSV digests
    were taken while both went through csv_line, and re-pinned when the
    Jacobi solver moved to batched round-robin rotations and changed the
    fit's last bits: against the previous files, i, j and m were
    identical, every distance within 1.2e-15 and recon_error within
    4.6e-15 of its pair's dist_original, and shrinkage within 2.0e-15 of
    the column's largest value. The pair CSVs were re-pinned when every
    pair distance became its squared coordinate differences summed in
    column order: against the previous files, i, j, m and recon_error
    were identical, and dist_original, dist_truncated and shrinkage
    within 4.7e-16 of their pair's dist_original; the other three digests
    did not move."""
    ds = anisotropic_gaussian(400, seed=5)
    data = write_dataset_csv(tmp_path / "data.csv", ds)
    runs = {
        "all.csv": ("analyze", "--input", data, "--m", 3, "--output", tmp_path / "all.csv"),
        "sampled.csv": ("analyze", "--input", data, "--m", 3, "--pair-sample", 5000,
                        "--seed", 3, "--output", tmp_path / "sampled.csv"),
        "coords.csv": ("transform", "--input", data, "--model", tmp_path / "model.json",
                       "--m", 4, "--output", tmp_path / "coords.csv"),
        "report.json": ("analyze", "--input", data, "--m", 3, "--format", "json",
                        "--output", tmp_path / "report.json"),
    }
    assert run_cli("fit", "--input", data, "--output", tmp_path / "model.json") == 0
    capsys.readouterr()
    got = {}
    for name, argv in runs.items():
        assert run_cli(*argv) == 0
        raw = capsys.readouterr().out.encode("utf-8")
        if name == "all.csv":  # the analyze summary, witness line included
            got["all.stdout"] = (len(raw), hashlib.sha256(raw).hexdigest())
    for name in runs:
        raw = (tmp_path / name).read_bytes()
        got[name] = (len(raw), hashlib.sha256(raw).hexdigest())
    assert got == {
        "all.csv": (6_869_057, "254e03a294deee8d5ee7735262ea964faf035f41a5fc153e566e7420e9886a00"),
        "sampled.csv": (430_409, "2d6770ff4aa39a2394c764fdafaf15dd4a63a27804312534d25f9eff11fc8e31"),
        "coords.csv": (31_860, "b56f63a8995e0b32f2081a8b052e2616359b49d36d58df0d19d4a48f91632081"),
        "all.stdout": (316, "bfc39866ad30a3949a9036bec33019157368a52e2743e7c3bc1a11da41d702c6"),
        "report.json": (518, "5658e082d08501397495e3ced476a272b241562ebaa451a09ba1cdf6028ebe84"),
    }


class TestSweep:
    def test_writes_csv_and_report(self, data_csv, tmp_path, capsys):
        base = tmp_path / "sweep"
        rc = run_cli("sweep", "--input", data_csv, "--m-range", "1..3",
                     "--folds", "4", "--output", base)
        assert rc == 0
        out, _ = capsys.readouterr()
        assert "r_eigsum_shrinkage=" in out
        csv_text = (tmp_path / "sweep.csv").read_text()
        assert csv_text.splitlines()[0] == (
            "m,eigsum,mean_shrinkage,median_shrinkage,max_shrinkage,accuracy"
        )
        assert len(csv_text.splitlines()) == 4
        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert payload["classifier"] == "knn k=5 folds=4"
        assert [row["m"] for row in payload["rows"]] == [1, 2, 3]
        assert payload["correlations"]["eigsum_vs_mean_shrinkage"]["strength"] in (
            "strong", "weak",
        )

    def test_json_stdout(self, data_csv, tmp_path, capsys):
        rc = run_cli("sweep", "--input", data_csv, "--m-range", "2..3", "--folds", "3",
                     "--output", tmp_path / "s", "--format", "json")
        assert rc == 0
        out, _ = capsys.readouterr()
        assert json.loads(out)["m_range"] == [2, 3]

    def test_bad_m_range_exits_1(self, tmp_path, capsys):
        # the input does not exist: the range is refused before it is read
        for m_range in ("huh", "3..1"):
            rc = run_cli("sweep", "--input", tmp_path / "nope.csv", "--m-range", m_range,
                         "--output", tmp_path / "s")
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("pca-shrink: error: bad m range %r, " % m_range)
            assert err.count("\n") == 1

    def test_out_of_range_exits_3(self, data_csv, tmp_path, capsys):
        rc = run_cli("sweep", "--input", data_csv, "--m-range", "1..9",
                     "--output", tmp_path / "s")
        assert rc == 3
        capsys.readouterr()


class TestConfigAndSeed:
    def test_config_supplies_defaults_flags_win(self, data_csv, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "input": str(data_csv),
            "m-range": "1..2",
            "folds": 3,
            "k": 7,
            "seed": 11,
        }))
        base = tmp_path / "cfg"
        rc = run_cli("sweep", "--config", config, "--k", "2", "--output", base)
        assert rc == 0
        capsys.readouterr()
        payload = json.loads((tmp_path / "cfg.json").read_text())
        assert payload["classifier"] == "knn k=2 folds=3"  # flag beat config on k
        assert payload["seed"] == 11
        assert payload["m_range"] == [1, 2]

    def test_env_seed_used_when_flag_absent(self, data_csv, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PCA_SHRINK_SEED", "123")
        rc = run_cli("sweep", "--input", data_csv, "--m-range", "1..2",
                     "--folds", "3", "--output", tmp_path / "env")
        assert rc == 0
        capsys.readouterr()
        assert json.loads((tmp_path / "env.json").read_text())["seed"] == 123

    def test_flag_beats_env_seed(self, data_csv, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PCA_SHRINK_SEED", "123")
        rc = run_cli("sweep", "--input", data_csv, "--m-range", "1..2", "--folds", "3",
                     "--seed", "9", "--output", tmp_path / "flag")
        assert rc == 0
        capsys.readouterr()
        assert json.loads((tmp_path / "flag.json").read_text())["seed"] == 9

    def test_junk_env_seed_exits_1(self, data_csv, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PCA_SHRINK_SEED", "elephant")
        rc = run_cli("sweep", "--input", data_csv, "--m-range", "1..2",
                     "--output", tmp_path / "junk")
        assert rc == 1
        assert "PCA_SHRINK_SEED" in capsys.readouterr().err

    def test_config_must_be_object(self, data_csv, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[1, 2, 3]")
        rc = run_cli("fit", "--input", data_csv, "--config", config,
                     "--output", tmp_path / "m.json")
        assert rc == 2
        capsys.readouterr()

    def test_config_header_must_be_boolean(self, data_csv, tmp_path, capsys):
        # the string "false" is truthy; taken as is it dropped the first data row
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"header": "false"}))
        model_path = tmp_path / "m.json"
        rc = run_cli("fit", "--input", data_csv, "--config", config, "--output", model_path)
        assert rc == 1
        out, err = capsys.readouterr()
        assert "'header'" in err and out == ""
        assert not model_path.exists()

    def test_config_numbers_pass_the_flag_type(self, data_csv, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"pair_sample": "40"}))
        rc = run_cli("analyze", "--input", data_csv, "--m", 1, "--config", config)
        assert rc == 0
        assert "pairs=40 sampled=true" in capsys.readouterr().out
        config.write_text(json.dumps({"pair-sample": "forty"}))
        rc = run_cli("analyze", "--input", data_csv, "--m", 1, "--config", config)
        assert rc == 1
        out, err = capsys.readouterr()
        assert "'pair-sample'" in err and out == ""

    def test_config_format_must_be_a_choice(self, data_csv, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"format": "xml"}))
        report = tmp_path / "report.out"
        rc = run_cli("analyze", "--input", data_csv, "--m", 1, "--config", config,
                     "--output", report)
        assert rc == 1
        out, err = capsys.readouterr()
        assert "'format'" in err and "xml" in err and out == ""
        assert not report.exists()

    def test_undecodable_config_exits_2(self, data_csv, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"k": "\xe9"}')
        rc = run_cli("fit", "--input", data_csv, "--config", config,
                     "--output", tmp_path / "m.json")
        assert rc == 2
        assert "[parse]" in capsys.readouterr().err


def write_config(tmp_path, values):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(values), encoding="utf-8")
    return path


def _spy(monkeypatch, owner, name, key):
    """Record the ``key`` argument of every call to ``owner.name``."""
    seen = []
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        seen.append(kwargs[key])
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return seen


# option, command, built-in default, config value, flag value
PRECEDENCE = [
    ("format", "sweep", "csv", "json", "csv"),
    ("k", "sweep", 5, 3, 2),
    ("folds", "sweep", 5, 3, 4),
    ("header", "fit", False, True, False),
    ("delimiter", "fit", ",", ";", "|"),
    ("violation-tol", "analyze", VIOLATION_TOL, 0.5, 0.25),
]


@pytest.mark.parametrize("source", ["default", "config", "flag"])
@pytest.mark.parametrize("option, command, default, config_value, flag_value", PRECEDENCE,
                         ids=[row[0] for row in PRECEDENCE])
def test_option_precedence(data_csv, tmp_path, capsys, monkeypatch, source,
                           option, command, default, config_value, flag_value):
    """A flag beats config, and config beats the built-in default."""
    key = option.replace("-", "_")
    if key in ("header", "delimiter"):
        seen = _spy(monkeypatch, cli, "load_csv", key)
    elif key in ("k", "folds"):
        seen = _spy(monkeypatch, cli, "run_sweep", key)
    elif key == "violation_tol":
        # analyze writes its pair CSV here, so the pair pass that renders it gets the tolerance
        seen = _spy(monkeypatch, cli, "shrinkage_blocks", key)
    argv = [command, "--input", data_csv, "--output", tmp_path / "out"]
    if command == "analyze":
        argv += ["--m", 1]
    if source != "default":
        argv += ["--config", write_config(tmp_path, {option: config_value})]
    if source == "flag":
        if isinstance(flag_value, bool):
            argv.append("--header" if flag_value else "--no-header")
        else:
            argv += ["--" + option, flag_value]
    run_cli(*argv)
    out = capsys.readouterr().out
    used = ("json" if out.startswith("{") else "csv") if key == "format" else seen[0]
    assert used == {"default": default, "config": config_value, "flag": flag_value}[source]


def test_config_seed_beats_env_seed(data_csv, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PCA_SHRINK_SEED", "123")
    config = write_config(tmp_path, {"seed": 11})
    rc = run_cli("sweep", "--input", data_csv, "--m-range", "1..2", "--folds", "3",
                 "--config", config, "--output", tmp_path / "cfg")
    assert rc == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "cfg.json").read_text())["seed"] == 11


@pytest.mark.parametrize("source", ["flag", "config"])
class TestBadOptionValues:
    """Values no command can use exit with one error line, from a flag or from config;
    those that need no input are refused before any is read. Most exit 1; an m, an
    m range or a fold count below its floor keeps the exit 3 of its library check."""

    def run(self, tmp_path, source, option, value, *argv):
        if source == "flag":
            argv += ("--" + option, value)
        else:
            argv += ("--config", write_config(tmp_path, {option: value}))
        return run_cli(*argv)

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_violation_tol_exits_1(self, data_csv, tmp_path, capsys, no_input_read,
                                              source, tol):
        rc = self.run(tmp_path, source, "violation-tol", tol,
                      "analyze", "--input", data_csv, "--m", 1)
        assert rc == 1
        out, err = capsys.readouterr()
        assert err == "pca-shrink: error: violation tolerance must be finite, got %s\n" % tol
        assert out == ""

    @pytest.mark.parametrize("delimiter", ["", "ab"])
    def test_delimiter_not_one_character_exits_1(self, data_csv, tmp_path, capsys,
                                                 no_input_read, source, delimiter):
        model_path = tmp_path / "m.json"
        rc = self.run(tmp_path, source, "delimiter", delimiter,
                      "fit", "--input", data_csv, "--output", model_path)
        assert rc == 1
        out, err = capsys.readouterr()
        assert err == ("pca-shrink: error: delimiter must be a single character, got %r\n"
                       % delimiter)
        assert out == "" and not model_path.exists()

    @pytest.mark.parametrize("command", ["analyze", "sweep"])
    def test_negative_pair_sample_exits_1(self, data_csv, tmp_path, capsys, no_input_read,
                                          source, command):
        base = tmp_path / "out"
        argv = (command, "--input", data_csv, "--output", base)
        rc = self.run(tmp_path, source, "pair-sample", -1,
                      *argv + (("--m", 1) if command == "analyze" else ()))
        assert rc == 1
        out, err = capsys.readouterr()
        assert err == ("pca-shrink: error: pair sample must be 0 (all pairs) or positive, "
                       "got -1\n")
        assert out == "" and list(tmp_path.glob("out*")) == []

    def test_k_below_one_exits_1(self, data_csv, tmp_path, capsys, no_input_read, source):
        rc = self.run(tmp_path, source, "k", 0,
                      "sweep", "--input", data_csv, "--output", tmp_path / "out")
        assert rc == 1
        out, err = capsys.readouterr()
        assert err == "pca-shrink: error: k must be at least 1\n"
        assert out == "" and list(tmp_path.glob("out*")) == []

    @pytest.mark.parametrize("option, value, argv, message", [
        ("m", 0, ("analyze",), "[dim-mismatch] m must be at least 1, got 0"),
        ("m", 0, ("transform", "--model", "model.json"),
         "[dim-mismatch] m must be at least 1, got 0"),
        ("m-range", "0..3", ("sweep",),
         "[dim-mismatch] m range [0, 3] must start at 1 or above"),
        ("folds", 1, ("sweep",), "[bad-folds] folds must be at least 2, got 1"),
    ], ids=["analyze-m", "transform-m", "sweep-m-range", "sweep-folds"])
    def test_below_its_floor_exits_3(self, data_csv, tmp_path, capsys, no_input_read,
                                     source, option, value, argv, message):
        # the upper bounds (n, the row count) need the data and are checked after the read
        rc = self.run(tmp_path, source, option, value, *argv,
                      "--input", data_csv, "--output", tmp_path / "out")
        assert rc == 3
        out, err = capsys.readouterr()
        assert err == "pca-shrink: %s\n" % message
        assert out == "" and list(tmp_path.glob("out*")) == []

    @pytest.mark.parametrize("argv", [("transform", "--model", "model.json"),
                                      ("analyze", "--m", 1), ("sweep",)],
                             ids=["transform", "analyze", "sweep"])
    def test_delimiter_refused_by_every_command(self, data_csv, tmp_path, capsys,
                                                no_input_read, source, argv):
        rc = self.run(tmp_path, source, "delimiter", ";;", *argv,
                      "--input", data_csv, "--output", tmp_path / "out")
        assert rc == 1
        out, err = capsys.readouterr()
        assert err == "pca-shrink: error: delimiter must be a single character, got ';;'\n"
        assert out == "" and list(tmp_path.glob("out*")) == []


class TestOutputCheckedFirst:
    """Every command checks the files it will write before it loads input,
    and an unwritable one creates or truncates nothing."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the output path was checked")

        for name in ("load_csv", "load_model", "fit", "run_sweep"):
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize("kind", ["missing-parent", "file-parent", "directory"])
    @pytest.mark.parametrize("command", ["fit", "analyze", "transform", "sweep"])
    def test_unwritable_target_exits_2(self, data_csv, tmp_path, capsys, command, kind):
        extra = {"analyze": ("--m", 1), "transform": ("--model", "m.json")}.get(command, ())
        # sweep writes <base>.csv first, so its base "out.csv" checks the same path
        target = tmp_path / "out.csv"
        if kind == "directory":
            target.mkdir()
        elif kind == "file-parent":
            (tmp_path / "file").write_text("", encoding="utf-8")
            target = tmp_path / "file" / "out.csv"
        else:
            target = tmp_path / "missing" / "out.csv"
        before = sorted(tmp_path.rglob("*"))
        rc = run_cli(command, "--input", data_csv, *extra, "--output", target)
        assert rc == 2
        out, err = capsys.readouterr()
        # the same line the write itself would give
        with pytest.raises(OSError) as exc:
            open(target, "w")
        assert err == "pca-shrink: [io] cannot write %s: %s\n" % (target, exc.value)
        assert out == ""
        assert sorted(tmp_path.rglob("*")) == before

    def test_sweep_checks_the_report_path_too(self, data_csv, tmp_path, capsys):
        rows = tmp_path / "s.csv"
        rows.write_text("keep\n", encoding="utf-8")
        (tmp_path / "s.json").mkdir()
        rc = run_cli("sweep", "--input", data_csv, "--output", tmp_path / "s")
        assert rc == 2
        out, err = capsys.readouterr()
        assert err.startswith("pca-shrink: [io] cannot write %s: " % (tmp_path / "s.json"))
        assert out == "" and rows.read_text(encoding="utf-8") == "keep\n"


def test_traced_cli_names_stay_module_globals():
    """The benchmark's tracer replaces these names on pcashrink.cli and wraps
    the entries of cli._COMMANDS, so renaming one would silently drop a layer."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    # a site that tests/test_trace_sites.py marks stale or retired is left to it
    names = [site.partition(":")[2] for site, _ in spans.SITES
             if site.startswith("pcashrink.cli:") and site not in STALE
             and site not in RETIRED]
    assert names
    for name in names:
        assert callable(getattr(cli, name, None)), name
    assert set(cli._COMMANDS) == {"fit", "transform", "analyze", "sweep"}
