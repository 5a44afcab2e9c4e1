"""Run one pca-shrink command in a fresh interpreter and report its cost.

    python3 worker.py SRC_DIR MODE [CLI_ARG ...]

MODE is ``import`` (time the import only), ``run`` (time one
``pcashrink.cli.main`` call), ``trace`` (the same call under the span
recorder, then the thread baseline of the pair engine) or ``calibrate``
(time a fixed reference job that uses no pcashrink code). The command's
stdout goes to ``cli_stdout.txt`` in the working directory; the last line
of this script's stdout is one JSON object with the measurements.

Only ``resource``, ``sys`` and ``time`` are loaded before the import is
timed, so ``setup_s`` is what every ``pca-shrink`` call pays.
"""

import resource
import sys
import time


def _usage():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb():
    """High-water resident set of this process in MB. ru_maxrss is not
    used: after exec it also carries the parent's high-water mark."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _thread_baseline(tracer):
    """Time the first pair-engine call of the traced run again, at
    threads=1 and threads=2 alternately, with the untraced function.
    Returns (median t1 / median t2, whether the two results match)."""
    import statistics

    import numpy as np
    from pcashrink.shrinkage import shrinkage_table

    args, kwargs = tracer.pair_input
    times = {1: [], 2: []}
    tables = {}
    for _ in range(3):
        for threads in (1, 2):
            t0 = time.perf_counter()
            tables[threads] = shrinkage_table(*args, **dict(kwargs, threads=threads))
            times[threads].append(time.perf_counter() - t0)
    same = all(
        np.array_equal(getattr(tables[1], f), getattr(tables[2], f))
        for f in ("i", "j", "dist_original", "dist_truncated", "shrinkage", "recon_error")
    )
    return statistics.median(times[1]) / statistics.median(times[2]), same


def _calibration_kernels():
    """Small fixed jobs, each like one layer's work, that call no
    pcashrink code. Their inputs are fixed, so their time changes only
    with the host's speed."""
    import numpy as np

    rng = np.random.default_rng(20141222)
    rows = rng.standard_normal((2000, 20))
    i = rng.integers(0, 2000, 131_072)
    j = rng.integers(0, 2000, 131_072)
    queries = rows[:400]
    block = rows[:100].tolist()
    text = "\n".join(",".join([format(v, ".17g") for v in row]) for row in block)
    A = rng.standard_normal((100, 100))
    A = A + A.T
    c, s = np.cos(0.3), np.sin(0.3)
    rotation = np.array([[c, -s], [s, c]])

    def fmt():      # write_pair_csv: floats to CSV text
        out = "\n".join(",".join([format(v, ".17g") for v in row]) for row in block)
        assert len(out) == len(text)

    def parse():    # load_csv: CSV text to floats
        parsed = [[float(cell) for cell in line.split(",")] for line in text.split("\n")]
        assert parsed == block

    def gather():   # pair engine: row pairs and their distances
        diff = rows[i] - rows[j]
        assert np.isfinite(np.sqrt(np.einsum("ij,ij->i", diff, diff)).sum())

    def gemm():     # k-NN: query-by-training distances and the nearest k
        d = queries @ rows.T
        assert np.argpartition(d, 5, axis=1).shape == d.shape

    def rotate():   # Jacobi: two-row plane rotations of a small matrix
        for k in range(100):
            p, q = k % 99, 99 - k % 50
            A[[p, q], :] = rotation @ A[[p, q], :]
        assert np.isfinite(A.sum())

    return {"fmt": fmt, "parse": parse, "gather": gather, "gemm": gemm, "rotate": rotate}


def _calibrate(spec):
    """Seconds that ``spec`` (``kernel=repeats`` words) takes right now."""
    kernels = _calibration_kernels()
    plan = [(kernels[name], int(count)) for name, count in
            (word.split("=") for word in spec)]
    t0 = time.perf_counter()
    for kernel, count in plan:
        for _ in range(count):
            kernel()
    return time.perf_counter() - t0


def main():
    src, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode == "calibrate":
        import json
        print(json.dumps({"calib_s": _calibrate(argv)}))
        return
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import pcashrink.cli as cli
    result = {"setup_s": time.perf_counter() - t0}

    if mode != "import":
        import contextlib

        tracer = None
        if mode == "trace":
            from spans import Tracer
            tracer = Tracer(argv[0])
        with open("cli_stdout.txt", "w", encoding="utf-8") as out, \
                contextlib.redirect_stdout(out), \
                (tracer or contextlib.nullcontext()):
            cpu0 = _usage()
            t1 = time.perf_counter()
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.call("cli.main", cli.main, argv)
            result["run_s"] = time.perf_counter() - t1
            result["cpu_s"] = _usage() - cpu0
        result["rc"] = rc
        result["peak_rss_mb"] = _peak_rss_mb()

        if tracer is not None:
            from spans import layer_metrics
            tracer.write("spans.json")
            result["layers"] = layer_metrics(tracer)
            result["self_sum_s"] = sum(tracer.self_times())
            result["missing_sites"] = tracer.missing
            if tracer.pair_input is not None:
                speedup, same = _thread_baseline(tracer)
                result["layers"]["shrinkage.shrinkage_table.thread_speedup"] = speedup
                result["threads_match"] = same
            else:
                result["layers"]["shrinkage.shrinkage_table.thread_speedup"] = 0.0

    import json
    print(json.dumps(result))


if __name__ == "__main__":
    main()
