"""Span recorder that traces pcashrink from outside the program.

Each public function a CLI command reaches is replaced where its caller
looks it up (``pcashrink.experiments.shrinkage_table``, not the
definition in ``pcashrink.shrinkage``), and ``PairTable.summary`` is
replaced on the class, so no program file changes. A span holds name,
start, end and parent index; spans stay in memory until ``write``.
Counters are taken from arguments and results as each call returns, so
no large result is kept alive.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict

# module:attribute path at the lookup site -> span name (defining module).
SITES = (
    ("pcashrink.cli:load_csv", "experiments.load_csv"),
    ("pcashrink.cli:run_sweep", "experiments.run_sweep"),
    ("pcashrink.cli:fit", "pca.fit"),
    ("pcashrink.cli:transform", "pca.transform"),
    ("pcashrink.cli:save_model", "pca.save_model"),
    ("pcashrink.cli:shrinkage_table", "shrinkage.shrinkage_table"),
    ("pcashrink.cli:collision_witness", "shrinkage.collision_witness"),
    ("pcashrink.cli:write_pair_csv", "reports.write_pair_csv"),
    ("pcashrink.cli:sweep_csv", "reports.sweep_csv"),
    ("pcashrink.cli:sweep_report_json", "reports.sweep_report_json"),
    ("pcashrink.experiments:fit", "pca.fit"),
    ("pcashrink.experiments:transform", "pca.transform"),
    ("pcashrink.experiments:shrinkage_table", "shrinkage.shrinkage_table"),
    ("pcashrink.experiments:knn_accuracy", "experiments.knn_accuracy"),
    ("pcashrink.pca:covariance", "matrix.covariance"),
    ("pcashrink.pca:jacobi_eigendecomposition", "matrix.jacobi_eigendecomposition"),
    ("pcashrink.shrinkage:transform", "pca.transform"),
    ("pcashrink.shrinkage:PairTable.summary", "shrinkage.PairTable.summary"),
)


# the root span and the commands the workloads run
COMMAND_SPANS = ("cli.main", "cli.fit", "cli.analyze", "cli.sweep")


def _load_csv_counters(args, dataset):
    width = dataset.n_features + (0 if dataset.labels is None else 1)
    return {"cells": dataset.n_samples * width}


def _shrinkage_table_counters(args, table):
    # bytes the current engine gathers per pair: rows i and j of the data
    # (n values each) and of the truncated coordinates (m values each);
    # computed from array sizes, not measured
    n = args[0].n_features
    return {"pairs": int(table.i.size), "gathered_bytes": int(table.i.size) * 2 * (n + table.m) * 8}


def _knn_counters(args, accuracy):
    return {"queries": args[0].n_samples}


def _write_pair_csv_counters(args, result):
    return {"rows": int(args[0].i.size)}


COUNTERS = {
    "experiments.load_csv": _load_csv_counters,
    "shrinkage.shrinkage_table": _shrinkage_table_counters,
    "experiments.knn_accuracy": _knn_counters,
    "reports.write_pair_csv": _write_pair_csv_counters,
}


def _resolve(site):
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Installs span wrappers on entry and restores the originals on exit.

    Lookup sites missing from the program (a later refactor may remove
    one) are skipped and listed in ``missing``. The first pair-engine
    call's inputs are kept in ``pair_input`` for the thread baseline, and
    every eigensolver call's matrix and result in ``eigen_calls``.
    """

    def __init__(self, command):
        self.command = command
        self.spans = []
        self.missing = []
        self.pair_input = None
        self.eigen_calls = []
        self.pair_csv_paths = []
        self._stack = []
        self._restore = []

    def __enter__(self):
        for site, name in SITES:
            try:
                owner, attr = _resolve(site)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(site)
                continue
            self._patch(owner, attr, original, name)
        cli = importlib.import_module("pcashrink.cli")
        commands = cli._COMMANDS
        original = commands[self.command]
        commands[self.command] = self._wrap(original, "cli." + self.command)
        self._restore.append(lambda: commands.__setitem__(self.command, original))
        return self

    def __exit__(self, *exc):
        while self._restore:
            self._restore.pop()()
        return False

    def _patch(self, owner, attr, original, name):
        setattr(owner, attr, self._wrap(original, name))
        self._restore.append(lambda: setattr(owner, attr, original))

    def _wrap(self, func, name):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, func, *args, **kwargs)

        return traced

    def call(self, name, func, *args, **kwargs):
        """Run ``func`` inside a span called ``name``."""
        record = {"name": name, "parent": self._stack[-1] if self._stack else None,
                  "counters": {}}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record["start"] = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
        counters = COUNTERS.get(name)
        if counters is not None:
            record["counters"] = counters(args, result)
        if name == "shrinkage.shrinkage_table" and self.pair_input is None:
            self.pair_input = (args, kwargs)
        elif name == "matrix.jacobi_eigendecomposition":
            self.eigen_calls.append((args[0], result))
        elif name == "reports.write_pair_csv":
            self.pair_csv_paths.append(args[1])
        return result

    def self_times(self):
        """Per span: its duration minus the durations of its children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child[span["parent"]] += span["end"] - span["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, child)]

    def write(self, path):
        origin = self.spans[0]["start"] if self.spans else 0.0
        rows = [
            {"name": s["name"], "start": s["start"] - origin, "end": s["end"] - origin,
             "parent": s["parent"], "counters": s["counters"]}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=1)


def _eigen_diagnostics(S, pairs):
    """Off-diagonal residual of V^T S V against ||S||_F, and the largest
    eigenvalue error against LAPACK relative to the largest |eigenvalue|."""
    import numpy as np

    S = np.asarray(S, dtype=float)
    V = np.asarray(pairs.vectors)
    D = V.T @ S @ V
    off = D - np.diag(np.diag(D))
    norm = float(np.linalg.norm(S))
    ref = np.sort(np.linalg.eigvalsh(S))[::-1]
    got = np.sort(np.asarray(pairs.values))[::-1]
    scale = float(np.max(np.abs(ref)))
    residual = float(np.linalg.norm(off)) / norm if norm > 0 else 0.0
    error = float(np.max(np.abs(got - ref))) / scale if scale > 0 else 0.0
    return residual, error


def layer_metrics(tracer):
    """Per-layer metrics named ``<module>.<function>.<stat>``.

    Self time is summed per span name; rates divide a counter by the
    inclusive time of the calls that did the work. A layer the command
    never reaches reads 0.
    """
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = defaultdict(int)
    counters = defaultdict(lambda: defaultdict(int))
    for span, own in zip(tracer.spans, tracer.self_times()):
        name = span["name"]
        self_s[name] += own
        total_s[name] += span["end"] - span["start"]
        calls[name] += 1
        for key, value in span["counters"].items():
            counters[name][key] += value

    def rate(name, key):
        return counters[name][key] / total_s[name] if total_s[name] > 0 else 0.0

    out = {}
    for name in COMMAND_SPANS + tuple(dict.fromkeys(span for _, span in SITES)):
        out[name + ".self_s"] = self_s[name]
    out["experiments.load_csv.cells_per_s"] = rate("experiments.load_csv", "cells")
    out["experiments.knn_accuracy.calls"] = calls["experiments.knn_accuracy"]
    out["experiments.knn_accuracy.queries_per_s"] = rate("experiments.knn_accuracy", "queries")
    out["shrinkage.shrinkage_table.calls"] = calls["shrinkage.shrinkage_table"]
    out["shrinkage.shrinkage_table.pairs_per_s"] = rate("shrinkage.shrinkage_table", "pairs")
    out["shrinkage.shrinkage_table.gathered_mb"] = (
        counters["shrinkage.shrinkage_table"]["gathered_bytes"] / 1e6)
    out["reports.write_pair_csv.rows_per_s"] = rate("reports.write_pair_csv", "rows")
    out["reports.write_pair_csv.bytes"] = sum(os.path.getsize(p) for p in tracer.pair_csv_paths)

    diagnostics = [_eigen_diagnostics(S, pairs) for S, pairs in tracer.eigen_calls]
    out["matrix.jacobi_eigendecomposition.offdiag_rel_residual"] = max(
        (d[0] for d in diagnostics), default=0.0)
    out["matrix.jacobi_eigendecomposition.max_eig_rel_err"] = max(
        (d[1] for d in diagnostics), default=0.0)
    return out
