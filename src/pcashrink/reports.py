"""Deterministic CSV and JSON renderings of sweep and pair-analysis
results. All floats pass through the 17-significant-digit formatter, so
two runs with the same inputs produce byte-identical files."""

from __future__ import annotations

from dataclasses import asdict, astuple, fields
from itertools import chain, repeat

from ._version import VERSION
from .experiments import STRONG_CORRELATION, SweepRow
from .serialize import csv_line, f17, json_text, write_text

SWEEP_CSV_HEADER = ",".join(f.name for f in fields(SweepRow))
PAIR_CSV_HEADER = "i,j,m,dist_original,dist_truncated,shrinkage,recon_error"
# one pair row: "%d" gives str() of an int and "%.17g" the f17 text of a float
PAIR_CSV_ROW = "%d,%d,%d" + ",%.17g" * 4 + "\n"
# pair rows rendered per write; a block's Python values take a few MB
_PAIR_CSV_BLOCK = 4096
# values per write of a transform CSV, whose rows can be wide: a pair CSV
# block's worth (4096 rows of 7 columns)
_COORDS_CSV_BLOCK = 7 * _PAIR_CSV_BLOCK


def sweep_csv(result):
    """CSV text for the rows of a SweepResult."""
    lines = [SWEEP_CSV_HEADER] + [csv_line(astuple(row)) for row in result.rows]
    return "\n".join(lines) + "\n"


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


def write_pair_csv(table, path):
    """Stream the pair CSV of a PairTable (header first, then the rows in
    engine order) to ``path``, one write per _PAIR_CSV_BLOCK rows; each
    block's columns become Python scalars only when it is written."""
    cols = (table.i, table.j, table.dist_original, table.dist_truncated,
            table.shrinkage, table.recon_error)

    def block(lo):
        i, j, *floats = (c[lo:lo + _PAIR_CSV_BLOCK].tolist() for c in cols)
        return "".join([PAIR_CSV_ROW % row for row in zip(i, j, repeat(table.m), *floats)])

    blocks = map(block, range(0, table.i.size, _PAIR_CSV_BLOCK))
    write_text(path, chain([PAIR_CSV_HEADER + "\n"], blocks))


def coords_csv_blocks(coords):
    """The headerless CSV text of the rows of ``coords``, each value as
    ``%.17g``, one string per block of about _COORDS_CSV_BLOCK values (at
    least one row); a block's rows become Python floats only when it is
    rendered."""
    row = ",".join(["%.17g"] * coords.shape[1]) + "\n"
    step = max(1, _COORDS_CSV_BLOCK // coords.shape[1])
    for lo in range(0, coords.shape[0], step):
        yield "".join([row % tuple(values) for values in coords[lo:lo + step].tolist()])


def analyze_report(stats, n_features, dataset_name, witness_note, isometry_violations=None):
    """Dict form of the single-m analysis report (no per-pair rows)."""
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
    if isometry_violations is not None:
        payload["isometry_violation_pairs"] = isometry_violations
    return payload


def format_correlation_lines(summary):
    """Plain key=value lines for printing a CorrelationSummary."""
    lines = []
    for key, r in (
        ("r_eigsum_shrinkage", summary.r_eigsum_shrinkage),
        ("r_eigsum_accuracy", summary.r_eigsum_accuracy),
        ("r_shrinkage_accuracy", summary.r_shrinkage_accuracy),
    ):
        strength = _strength(r)
        if strength is None:
            lines.append("%s=undefined" % key)
        else:
            lines.append("%s=%s (%s)" % (key, f17(r), strength))
    lines.append("sample_count=%d" % summary.sample_count)
    return lines
