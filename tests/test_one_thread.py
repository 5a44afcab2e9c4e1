"""The pair engine runs in the calling thread: no entry point starts a
thread whatever ``--threads`` asks for, and importing the CLI does not pull
in concurrent.futures. The BLAS library's own threads do not change a
fit's bytes either."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from conftest import drained_table, write_dataset_csv
from pcashrink import fit
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


def test_shrinkage_blocks_start_no_thread():
    table, _ = drained_table(fit(DATA.features), DATA.features, 2)
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


# the generated input, its fit of 100 features and the transform, and the
# correlations of a small sweep, as one digest
BLAS_PROBE = """
import hashlib, math
from pcashrink import fit, transform
from pcashrink.experiments import anisotropic_gaussian, correlate, run_sweep
X = anisotropic_gaussian(300, [math.exp(-k / 25.0) for k in range(100)], seed=1).features
model = fit(X)
digest = hashlib.sha256()
for v in (X, model.mean, model.eigenvalues, model.components, transform(model, X)):
    digest.update(v.tobytes())
summary = correlate(run_sweep(anisotropic_gaussian(60, seed=2), m_range=(1, 5), folds=3))
digest.update(repr(summary).encode())
print(digest.hexdigest())
"""


def _has_avx2():
    try:
        return "avx2" in Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return False


def test_fit_and_transform_bytes_do_not_depend_on_the_blas_thread_count():
    """The generator, the covariance, transform and pearson sum in a fixed
    order, with np.einsum, not in a BLAS product whose order OpenBLAS picks
    by its thread count and by the kernels it chose for the CPU. The probe
    runs at one and two OpenBLAS threads, each with the default kernels and
    with OPENBLAS_CORETYPE=Haswell, the kernels of x86 CPUs with AVX2 but
    not AVX-512; those runs are skipped on a CPU without AVX2, where the
    Haswell kernels would fault. An OpenBLAS built without DYNAMIC_ARCH
    ignores OPENBLAS_CORETYPE, so there its runs repeat the default ones."""
    coretypes = [{}, {"OPENBLAS_CORETYPE": "Haswell"}] if _has_avx2() else [{}]
    digests = set()
    for coretype in coretypes:
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", BLAS_PROBE],
                env=dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                         OPENBLAS_NUM_THREADS=threads, **coretype),
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            digests.add(proc.stdout)
    assert len(digests) == 1, digests
