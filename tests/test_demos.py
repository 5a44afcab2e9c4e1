"""Every demo script runs to completion and prints something, and the
README's library quickstart runs as written.

The demos use the collision witness, the pair table and the report
renderers the way a library user would, outside the CLI, so each one
runs here in a fresh interpreter against the source tree."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
