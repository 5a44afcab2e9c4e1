"""pcashrink benchmark: seeded workloads run through the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The seed generates an input CSV with
``anisotropic_gaussian`` (17 significant digits); the program sees only
that file. Each command runs in a fresh interpreter (``worker.py``), one
after another, until ``--seconds`` have passed (at least three
commands). The first command's output is checked by ``oracle.py``, every
later one must be byte-identical to it, and the checker must flag a copy
with one corrupted digit.

A calibration job that calls no pcashrink code runs before the first
command and after each one; every timing is scaled by it to a fixed
reference host speed, so that the host's speed changes between and
during runs do not show as changes of the program (see README.md).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as
medians over the run's commands; ``--trace 1`` also runs one command
under the span recorder (``spans.py``) and reports the per-layer
metrics. The last stdout line is the JSON result; progress goes to
stderr. Scratch files live in ``.perfbench_runs/`` and are removed at
exit, except the spans of traced runs.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402

WORKER = HERE / "worker.py"
MIN_COMMANDS = 3
SETUP_PROBES = 5
# Timings are reported at the reference host's speed: each is scaled by
# the reference time of a calibration job (worker.py) over its time next
# to the measurement. Import time is scaled by a Python-only job.
IMPORT_CALIBRATION = ("fmt=40", "parse=60")
IMPORT_CALIB_REF_S = 0.2
# every run must end within 180 s; keep a margin for checks and clean-up
DEADLINE_S = 165.0


@dataclass(frozen=True)
class Workload:
    n_samples: int
    variances: tuple
    argv: tuple
    outputs: tuple
    check: object
    corrupt: object
    calibration: tuple      # kernel=repeats words for worker.py, weighted by layer shares
    calib_ref_s: float      # the calibration's seconds on the reference host


HALVING_20 = tuple(2.0 ** (-k / 2.0) for k in range(20))

WORKLOADS = {
    "sweep": Workload(
        2000, HALVING_20,
        ("sweep", "--m-range", "1..10", "--k", "5", "--folds", "5", "--threads", "1",
         "--output", "sweep"),
        ("sweep.csv", "sweep.json"),
        functools.partial(oracle.check_sweep, m_range=(1, 10)), oracle.corrupt_sweep,
        ("gather=12", "gemm=22"), 0.46),
    "analyze-pairs": Workload(
        5000, HALVING_20,
        ("analyze", "--m", "5", "--pair-sample", "200000", "--output", "pairs.csv"),
        ("pairs.csv",),
        functools.partial(oracle.check_pairs, m=5, pair_sample=200000), oracle.corrupt_pairs,
        ("fmt=185", "parse=33", "gather=1"), 0.53),
    "fit-wide": Workload(
        3000, tuple(math.exp(-k / 25.0) for k in range(100)),
        ("fit", "--output", "model.json"),
        ("model.json",),
        oracle.check_model, oracle.corrupt_model,
        ("rotate=360", "parse=133"), 0.62),
}


def log(message):
    print("perfbench: %s" % message, file=sys.stderr, flush=True)


def fail(message):
    log(message)
    raise SystemExit(2)


def write_input(path, src, workload, seed):
    """Generate the workload's data set and write it as CSV; return X."""
    sys.path.insert(0, str(src))
    from pcashrink.experiments import anisotropic_gaussian

    data = anisotropic_gaussian(workload.n_samples, workload.variances, seed=seed)
    lines = (
        ",".join([format(v, ".17g") for v in row.tolist()] + [label])
        for row, label in zip(data.features, data.labels)
    )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return data.features


class Runner:
    """Starts workers one at a time and waits for each to end."""

    def __init__(self, src, deadline):
        self.src = str(src)
        self.deadline = deadline

    def __call__(self, mode, cwd, argv=()):
        cwd.mkdir(parents=True, exist_ok=True)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            fail("out of time before starting a %s worker" % mode)
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), self.src, mode, *argv],
                cwd=cwd, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            fail("%s worker did not finish within the run's deadline" % mode)
        wall = time.monotonic() - start
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            log("%s worker exited %d: %s" % (mode, proc.returncode, proc.stderr.strip()[-2000:]))
            return None, wall
        return json.loads(lines[-1]), wall


def output_files(cmd_dir, workload):
    """The command's output files that exist, and its stdout ("" if none)."""
    files = {name: (cmd_dir / name).read_bytes() for name in workload.outputs
             if (cmd_dir / name).is_file()}
    stdout = cmd_dir / "cli_stdout.txt"
    return files, stdout.read_text(encoding="utf-8") if stdout.is_file() else ""


def digest(files, stdout):
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name] + b"\0")
    h.update(stdout.encode())
    return h.hexdigest()


def oracle_verdict(workload, X, files, stdout):
    """Problems found in the output, or a note if the checker misses a
    corrupted digit (then the check itself cannot be trusted)."""
    if set(files) != set(workload.outputs):
        return ["missing output files: %s" % sorted(set(workload.outputs) - set(files))]
    problems = workload.check(X, files, stdout)
    if problems:
        return problems
    if not workload.check(X, workload.corrupt(files), stdout):
        return ["checker self-test: a corrupted digit went unnoticed"]
    return []


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "pcashrink" / "cli.py").is_file():
        fail("no pcashrink sources under %s; run from the repository root" % src)
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        fail("cannot read BENCHMARK.json: %s" % exc)
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        fail("unknown workload %r; choose from %s" % (args.workload, sorted(WORKLOADS)))

    run_dir = root / ".perfbench_runs" / ("%s-s%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        result = measure(args, spec, workload, src, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))


def calibrate(run, run_dir, spec):
    measured, _ = run("calibrate", run_dir, spec)
    if measured is None:
        fail("the calibration job failed")
    return measured["calib_s"]


def measure(args, spec, workload, src, run_dir):
    start = time.monotonic()
    run = Runner(src, start + DEADLINE_S)
    run_dir.mkdir(parents=True, exist_ok=True)
    data_path = run_dir / "data.csv"
    X = write_input(data_path, src, workload, args.seed)
    argv = (*workload.argv, "--input", str(data_path), "--seed", str(args.seed))

    # the first import compiles bytecode, which users pay once, not per call
    run("import", run_dir)
    # setup_s: import probes, each scaled by a Python-only calibration just before it
    setup = []
    for _ in range(SETUP_PROBES):
        factor = IMPORT_CALIB_REF_S / calibrate(run, run_dir, IMPORT_CALIBRATION)
        probe, _ = run("import", run_dir)
        if probe is not None:
            setup.append((probe["setup_s"], factor))
    if not setup:
        fail("no import probe succeeded")
    calibs = [calibrate(run, run_dir, workload.calibration)]

    reference = None
    reference_digest = None
    commands = []   # (measurement or None, output digest); calibs[k], calibs[k + 1] bracket k
    walls = []
    t0 = time.monotonic()
    while True:
        cmd_dir = run_dir / ("cmd%d" % len(commands))
        measured, wall = run("run", cmd_dir, argv)
        calib_start = time.monotonic()
        calibs.append(calibrate(run, run_dir, workload.calibration))
        walls.append(wall + time.monotonic() - calib_start)
        files, stdout = output_files(cmd_dir, workload)
        out_digest = digest(files, stdout)
        if reference is None:
            reference, reference_digest = (files, stdout), out_digest
        else:
            shutil.rmtree(cmd_dir)
        commands.append((measured, out_digest))
        if measured is not None:
            log("command %d: rc=%d run_s=%.4f cpu_s=%.4f peak_rss_mb=%.1f calib_s=%.4f"
                % (len(commands) - 1, measured["rc"], measured["run_s"], measured["cpu_s"],
                   measured["peak_rss_mb"], calibs[-1]))
        elapsed = time.monotonic() - t0
        next_wall = statistics.median(walls)
        reserve = 10.0 + (2.0 * max(walls) + 10.0 if args.trace else 0.0)
        if time.monotonic() + next_wall + reserve > run.deadline:
            break
        if len(commands) >= MIN_COMMANDS and elapsed + next_wall > args.seconds:
            break

    problems = oracle_verdict(workload, X, *reference)
    for problem in problems:
        log("check failed: %s" % problem)

    def ok(measured, out_digest):
        return (measured is not None and measured["rc"] == 0
                and out_digest == reference_digest and not problems)

    passed = [m for m, d in commands if ok(m, d)]
    attempted = len(commands)
    failed = attempted - len(passed)
    # each command's speed factor: the reference calibration time over the
    # mean of the two calibrations around it
    timed = [(m, workload.calib_ref_s / statistics.mean(calibs[k:k + 2]))
             for k, (m, _) in enumerate(commands) if m is not None]
    if not timed:
        fail("no command produced measurements")
    correct = failed == 0
    raw_run_s = statistics.median(m["run_s"] for m, _ in timed)
    log("raw medians: run_s=%.4f cpu_s=%.4f setup_s=%.4f calib_s=%.4f"
        % (raw_run_s, statistics.median(m["cpu_s"] for m, _ in timed),
           statistics.median(t for t, _ in setup), statistics.median(calibs)))

    if not args.trace:
        values = {
            "run_s": statistics.median(m["run_s"] * f for m, f in timed),
            "setup_s": statistics.median(t * f for t, f in setup),
            "cpu_s": statistics.median(m["cpu_s"] * f for m, f in timed),
            "peak_rss_mb": statistics.median(m["peak_rss_mb"] for m, _ in timed),
            "pass_frac": len(passed) / attempted,
        }
        return result_line(spec["end_to_end"], values, correct, attempted, failed)

    trace_dir = run_dir / "trace"
    traced, _ = run("trace", trace_dir, argv)
    attempted += 1
    files, stdout = output_files(trace_dir, workload)
    if traced is None or traced["rc"] != 0 or digest(files, stdout) != reference_digest:
        log("traced command failed or changed the output")
        return result_line(spec["per_layer"], None, False, attempted, failed + 1)
    kept = run_dir.parent / ("spans-%s-s%d.json" % (args.workload, args.seed))
    shutil.copyfile(trace_dir / "spans.json", kept)
    for site in traced["missing_sites"]:
        log("lookup site %s not found; its calls are not traced" % site)

    values = dict(traced["layers"])
    values["trace.run_s"] = traced["run_s"]
    values["trace.overhead_s"] = traced["run_s"] - raw_run_s
    values["trace.unaccounted_s"] = traced["run_s"] - traced["self_sum_s"]
    # the spans must cover the traced run: what they miss is bounded by the
    # tracing overhead (or 1 % of the run when the overhead is lost in noise)
    slack = max(abs(values["trace.overhead_s"]), 0.01 * traced["run_s"])
    if not 0.0 <= values["trace.unaccounted_s"] <= slack:
        log("self times sum to %.6f s but the traced run took %.6f s"
            % (traced["self_sum_s"], traced["run_s"]))
        correct = False
    if not traced.get("threads_match", True):
        log("shrinkage_table gives different results at threads=1 and threads=2")
        correct = False
    return result_line(spec["per_layer"], values, correct, attempted, failed)


def result_line(declared, values, correct, attempted, failed):
    """The result object with every declared metric, in declared order."""
    metrics = {}
    if values is not None:
        missing = [d["name"] for d in declared if d["name"] not in values]
        if missing:
            fail("metrics declared in BENCHMARK.json but not measured: %s" % missing)
        metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": metrics}


if __name__ == "__main__":
    main()
