"""The pair engine runs in the calling thread: no entry point starts a
thread whatever ``threads`` asks for, and importing the CLI does not pull
in concurrent.futures. The BLAS library's own threads do not change a
fit's bytes either."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from conftest import write_dataset_csv
from pcashrink import fit, shrinkage_table
from pcashrink.cli import main
from pcashrink.experiments import anisotropic_gaussian, run_sweep

ROOT = Path(__file__).resolve().parent.parent

# 300 rows give 44,850 pairs, so the engine walks several chunks
DATA = anisotropic_gaussian(n_samples=300, variances=(4.0, 1.0, 0.25), seed=5)


@pytest.fixture(autouse=True)
def no_thread_starts(monkeypatch):
    def refuse(thread):
        raise AssertionError("thread %r was started" % thread.name)

    monkeypatch.setattr(threading.Thread, "start", refuse)


def test_shrinkage_table_starts_no_thread():
    table = shrinkage_table(fit(DATA.features), DATA.features, 2, threads=4)
    assert table.i.size == 300 * 299 // 2


def test_run_sweep_starts_no_thread():
    result = run_sweep(DATA, m_range=(1, 2), folds=3)
    assert len(result.rows) == 2


def test_cli_sweep_starts_no_thread(tmp_path, capsys):
    data = write_dataset_csv(tmp_path / "data.csv", DATA)
    rc = main(["sweep", "--input", str(data), "--m-range", "1..2", "--folds", "3",
               "--threads", "4", "--output", str(tmp_path / "sweep")])
    assert rc == 0
    assert "rows=2 pairs=44850" in capsys.readouterr().out


def test_cli_import_leaves_concurrent_futures_out():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, pcashrink.cli; print('concurrent.futures' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# the fit of 100 features, and the transform of its input, as one digest
BLAS_PROBE = """
import hashlib, math
from pcashrink import fit, transform
from pcashrink.experiments import anisotropic_gaussian
X = anisotropic_gaussian(300, [math.exp(-k / 25.0) for k in range(100)], seed=1).features
model = fit(X)
digest = hashlib.sha256()
for v in (model.mean, model.eigenvalues, model.components, transform(model, X)):
    digest.update(v.tobytes())
print(digest.hexdigest())
"""


def test_fit_and_transform_bytes_do_not_depend_on_the_blas_thread_count():
    """The covariance sums its rows in a fixed order, not in a BLAS
    product that OpenBLAS splits across its threads."""
    digests = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", BLAS_PROBE],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]
