"""The shapes of the CSV and JSON reports of sweep, pair-analysis and
transform results: their headers, row formats and report dicts. Floats
are rendered in serialize's 17-significant-digit format, the streamed
rows by its one row generator, so two runs with the same inputs produce
byte-identical files."""

from __future__ import annotations

from dataclasses import asdict, astuple, fields

import numpy as np

from ._version import VERSION
from .experiments import SweepRow
from .serialize import F17, _rows, f17, json_text

STRONG_CORRELATION = 0.7
SWEEP_CSV_HEADER = ",".join(f.name for f in fields(SweepRow))
# one sweep row, a format per field type ("%d" gives str() of an int and F17
# the f17 text of a float); the annotations are strings, as experiments
# postpones their evaluation
SWEEP_CSV_ROW = ",".join({"int": "%d", "float": F17}[f.type] for f in fields(SweepRow)) + "\n"
PAIR_CSV_HEADER = "i,j,m,dist_original,dist_truncated,shrinkage,recon_error"
PAIR_CSV_ROW = "%d,%d,%d" + ("," + F17) * 4 + "\n"

def sweep_csv(result):
    """CSV text for the rows of a SweepResult."""
    return SWEEP_CSV_HEADER + "\n" + "".join(SWEEP_CSV_ROW % astuple(row) for row in result.rows)


def _strength(r):
    """Strength label of a coefficient: "strong" when |r| >=
    STRONG_CORRELATION, "weak" below it, None when r is undefined
    (constant series)."""
    if r is None:
        return None
    return "strong" if abs(r) >= STRONG_CORRELATION else "weak"


def correlation_entry(r):
    """JSON fragment for one coefficient: value plus its strength flag."""
    return {"r": r, "strength": _strength(r)}


def sweep_report(result, summary):
    """Dict form of the full sweep report (rows, diagnostics, and the
    CorrelationSummary ``summary`` with strength flags)."""
    accuracy_rs = [summary.r_eigsum_accuracy, summary.r_shrinkage_accuracy]
    return {
        "report": "pca-shrink-sweep",
        "version": VERSION,
        "dataset": result.dataset_name,
        "seed": result.seed,
        "classifier": result.classifier_config,
        "m_range": [result.rows[0].m, result.rows[-1].m],
        "rows": [asdict(row) for row in result.rows],
        "pair_count": result.pair_count,
        "pairs_sampled": result.pairs_sampled,
        "negative_shrinkage_pairs": result.negative_shrinkage_pairs,
        "bound_violation_pairs": result.bound_violation_pairs,
        "correlations": {
            "eigsum_vs_mean_shrinkage": correlation_entry(summary.r_eigsum_shrinkage),
            "eigsum_vs_accuracy": correlation_entry(summary.r_eigsum_accuracy),
            "mean_shrinkage_vs_accuracy": correlation_entry(summary.r_shrinkage_accuracy),
            "sample_count": summary.sample_count,
        },
        "accuracy_correlations_weak": all(_strength(r) == "weak" for r in accuracy_rs),
    }


def sweep_report_json(result, summary):
    return json_text(sweep_report(result, summary))


def pair_csv_blocks(blocks):
    """The pair CSV text of an iterable of PairTable ``blocks``: the
    header, then each block's rows a slice at a time, in order."""
    yield PAIR_CSV_HEADER + "\n"
    for b in blocks:
        yield from _rows((b.i, b.j, np.broadcast_to(b.m, b.i.shape), b.dist_original,
                          b.dist_truncated, b.shrinkage, b.recon_error), PAIR_CSV_ROW)


def coords_csv_blocks(coords):
    """The headerless CSV text of the rows of ``coords``, each value as
    f17 text, a block of rows at a time."""
    return _rows(coords.T, ",".join([F17] * coords.shape[1]) + "\n")


def coords_json_blocks(coords):
    """The transform JSON report of ``coords`` a block of rows at a time:
    the bytes of json_text on the report, its ``rows`` list streamed
    between a fixed head and tail."""
    text = json_text({"report": "pca-shrink-transform", "version": VERSION,
                      "m": coords.shape[1], "rows": []})
    cut = text.rindex("[]")  # the rows list, the report's last value
    yield text[:cut] + "["
    row = "[" + ", ".join([F17] * coords.shape[1]) + "]"
    for k, block in enumerate(_rows(coords.T, row, ", ")):
        yield ", " + block if k else block
    yield text[cut + 1:]


def analyze_report(stats, n_features, dataset_name, witness_note):
    """Dict form of the single-m analysis report (no per-pair rows), with
    the isometry check's violating pairs at full rank (m == n_features)."""
    payload = {
        "report": "pca-shrink-analyze",
        "version": VERSION,
        "dataset": dataset_name,
        "n": n_features,
        "m": stats.m,
        "pair_count": stats.pair_count,
        "pairs_sampled": stats.sampled,
        "mean_shrinkage": stats.mean,
        "median_shrinkage": stats.median,
        "max_shrinkage": stats.max,
        "negative_shrinkage_pairs": stats.negative_count,
        "bound_violation_pairs": stats.bound_violations,
        "witness": witness_note,
    }
    if stats.m == n_features:
        payload["isometry_violation_pairs"] = stats.violating_pairs
    return payload


def format_correlation_lines(summary):
    """Plain key=value lines for printing a CorrelationSummary."""
    lines = []
    for key in ("r_eigsum_shrinkage", "r_eigsum_accuracy", "r_shrinkage_accuracy"):
        r = getattr(summary, key)
        lines.append("%s=undefined" % key if r is None
                     else "%s=%s (%s)" % (key, f17(r), _strength(r)))
    return lines + ["sample_count=%d" % summary.sample_count]
