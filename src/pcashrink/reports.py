"""Deterministic CSV and JSON renderings of sweep and pair-analysis
results. All floats pass through the 17-significant-digit formatter, so
two runs with the same inputs produce byte-identical files."""

from __future__ import annotations

from dataclasses import asdict, astuple, fields
from itertools import repeat

from ._version import VERSION
from .experiments import SweepRow
from .serialize import F17, csv_line, f17, json_text

STRONG_CORRELATION = 0.7
SWEEP_CSV_HEADER = ",".join(f.name for f in fields(SweepRow))
PAIR_CSV_HEADER = "i,j,m,dist_original,dist_truncated,shrinkage,recon_error"
# one pair row: "%d" gives str() of an int and F17 the f17 text of a float
PAIR_CSV_ROW = "%d,%d,%d" + ("," + F17) * 4 + "\n"
# values per write of a transform report, whose rows can be wide: one
# engine step's pair CSV values (4096 rows of 7 columns)
_COORDS_BLOCK = 7 * 4096
# pair CSV rows rendered at once: a block's rows become Python ints,
# floats, tuples and row strings this many at a time
_PAIR_ROWS = 1024


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


def pair_csv_blocks(blocks):
    """The pair CSV text of an iterable of PairTable ``blocks``: the
    header, then one string per _PAIR_ROWS rows of a block, in order. A
    block's rows become Python scalars only when they are rendered."""
    yield PAIR_CSV_HEADER + "\n"
    for b in blocks:
        for lo in range(0, b.i.size, _PAIR_ROWS):
            i, j, *floats = (c[lo:lo + _PAIR_ROWS].tolist() for c in (
                b.i, b.j, b.dist_original, b.dist_truncated, b.shrinkage, b.recon_error))
            yield "".join([PAIR_CSV_ROW % row for row in zip(i, j, repeat(b.m), *floats)])


def _row_blocks(coords, row, sep):
    """The rows of ``coords`` rendered with the %-format ``row`` and
    joined by ``sep``, one string per block of about _COORDS_BLOCK values
    (at least one row); a block's rows become Python floats only when it
    is rendered."""
    step = max(1, _COORDS_BLOCK // coords.shape[1])
    for lo in range(0, coords.shape[0], step):
        yield sep.join([row % tuple(values) for values in coords[lo:lo + step].tolist()])


def coords_csv_blocks(coords):
    """The headerless CSV text of the rows of ``coords``, each value as
    f17 text, a block of rows at a time."""
    return _row_blocks(coords, ",".join([F17] * coords.shape[1]) + "\n", "")


def coords_json_blocks(coords):
    """The transform JSON report of ``coords`` a block of rows at a time:
    the bytes of json_text on the report, its ``rows`` list streamed
    between a fixed head and tail."""
    text = json_text({"report": "pca-shrink-transform", "version": VERSION,
                      "m": coords.shape[1], "rows": []})
    cut = text.rindex("[]")  # the rows list, the report's last value
    yield text[:cut] + "["
    row = "[" + ", ".join([F17] * coords.shape[1]) + "]"
    for k, block in enumerate(_row_blocks(coords, row, ", ")):
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
