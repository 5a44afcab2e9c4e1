"""Every demo script runs to completion and prints something, and the
README's library quickstart and command-line block run as written.

The demos use the collision witness, the pair blocks and the report
renderers the way a library user would, outside the CLI, so each one
runs here in a fresh interpreter against the source tree."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import write_dataset_csv
from pcashrink import anisotropic_gaussian
from pcashrink.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = _run(tmp_path, str(demo))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip(), "demo printed nothing"


def test_readme_quickstart_reports_no_bound_violation(tmp_path):
    """The README's one ```python block, run as written; any warning fails it."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (code,) = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    proc = _run(tmp_path, "-W", "error", "-c", code)
    assert proc.returncode == 0, proc.stderr
    mean, top, violations = proc.stdout.split()
    assert violations == "0"
    assert 0.0 < float(mean) <= float(top)


def test_readme_command_line_block_runs(tmp_path, monkeypatch, capsys):
    """The README's ```sh block of pca-shrink commands, each run through
    cli.main on a labelled 6-feature data.csv."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = [b for b in re.findall(r"^```sh\n(.*?)^```$", readme, flags=re.M | re.S)
                if b.startswith("pca-shrink ")]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert [argv[0] for argv in commands] == ["pca-shrink"] * 4
    monkeypatch.chdir(tmp_path)
    write_dataset_csv(tmp_path / "data.csv",
                      anisotropic_gaussian(120, (8.0, 4.0, 2.0, 1.0, 0.5, 0.25), seed=3))
    for argv in commands:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
    for name in ("model.json", "pairs.csv", "sweep.csv", "sweep.json"):
        assert (tmp_path / name).is_file(), name


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
