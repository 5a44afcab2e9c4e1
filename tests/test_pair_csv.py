"""The report row renderer: the pair and sweep CSV row formats give the
same text as csv_line on edge values, and the pair CSV's rows read back to
the table's exact bits and stream block by block."""

import csv
import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import csv_line
from pcashrink.reports import (
    PAIR_CSV_HEADER,
    PAIR_CSV_ROW,
    SWEEP_CSV_HEADER,
    SWEEP_CSV_ROW,
    pair_csv_blocks,
)
from pcashrink.serialize import write_text
from pcashrink.shrinkage import PairTable

EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    1e16, 1e17, 0.1, 1.0 / 3.0, float("inf"), float("-inf"), float("nan"),
    np.float64(2.0 / 3.0), np.float64(-0.0),
]
EDGE_INTS = [0, 1, 4095, 2**63 - 1, np.int64(7), np.int64(2**62)]


def edge_rows():
    """Rows in PAIR_CSV_HEADER column order (i, j, m, then the four
    floats); each float column takes every edge value, and the int columns
    take every edge int."""
    rows = []
    for k in range(len(EDGE_FLOATS)):
        ints = [EDGE_INTS[(k + s) % len(EDGE_INTS)] for s in range(3)]
        floats = [EDGE_FLOATS[(k + s) % len(EDGE_FLOATS)] for s in range(4)]
        rows.append(tuple(ints) + tuple(floats))
    return rows


def sweep_edge_rows():
    """Rows in SWEEP_CSV_HEADER column order (m, then five floats): m takes
    each edge int, and each float column each edge float."""
    return [(EDGE_INTS[k % len(EDGE_INTS)],)
            + tuple(EDGE_FLOATS[(k + s) % len(EDGE_FLOATS)] for s in range(5))
            for k in range(len(EDGE_FLOATS))]


@pytest.mark.parametrize(
    "form, row",
    [pytest.param(PAIR_CSV_ROW, row, id="row%d" % k) for k, row in enumerate(edge_rows())]
    + [pytest.param(SWEEP_CSV_ROW, row, id="sweep-row%d" % k)
       for k, row in enumerate(sweep_edge_rows())])
def test_row_format_matches_csv_line(form, row):
    assert form % row == csv_line(row) + "\n"


def test_row_format_has_one_field_per_header_column():
    for form, header in ((PAIR_CSV_ROW, PAIR_CSV_HEADER), (SWEEP_CSV_ROW, SWEEP_CSV_HEADER)):
        assert form.endswith("\n")
        assert len(form[:-1].split(",")) == len(header.split(","))


def random_table(n_pairs, seed=0):
    rng = np.random.default_rng(seed)
    i = rng.integers(0, 5000, size=n_pairs, dtype=np.int64)
    j = i + rng.integers(1, 5000, size=n_pairs, dtype=np.int64)
    d_orig = rng.random(n_pairs) * 10.0
    d_trunc = d_orig * rng.random(n_pairs)
    # tiny, huge and signed-zero values among the ordinary ones
    d_trunc[:4] = [5e-324, 1.7976931348623157e308, -0.0, 1e17]
    return PairTable(m=5, sampled=True, i=i, j=j, dist_original=d_orig,
                     dist_truncated=d_trunc, shrinkage=d_orig - d_trunc,
                     recon_error=rng.random(n_pairs) ** 7)


def write_blocks(table, path, size=4096):
    """Write ``table`` as the engine hands it to analyze: blocks of
    ``size`` rows."""
    names = ("i", "j", "dist_original", "dist_truncated", "shrinkage", "recon_error")
    blocks = (dataclasses.replace(table, **{name: getattr(table, name)[lo:lo + size]
                                            for name in names})
              for lo in range(0, table.i.size, size))
    write_text(path, pair_csv_blocks(blocks))


def test_written_csv_reads_back_bit_for_bit(tmp_path):
    # more than two row blocks, the last one partial
    table = random_table(2 * 4096 + 123)
    path = tmp_path / "pairs.csv"
    write_blocks(table, path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        assert next(reader) == PAIR_CSV_HEADER.split(",")
        rows = list(reader)
    assert len(rows) == table.i.size
    ints = np.array([[int(c) for c in row[:3]] for row in rows], dtype=np.int64)
    floats = np.array([[float(c) for c in row[3:]] for row in rows])
    assert np.array_equal(ints[:, 0], table.i)
    assert np.array_equal(ints[:, 1], table.j)
    assert (ints[:, 2] == table.m).all()
    for k, name in enumerate(("dist_original", "dist_truncated", "shrinkage", "recon_error")):
        want = getattr(table, name)
        assert floats[:, k].view(np.int64).tolist() == want.view(np.int64).tolist(), name


def test_writer_streams_by_block(tmp_path):
    """The file text of 200,000 pairs is about 17 MB; the renderer holds
    one block's rows at a time."""
    table = random_table(200_000)
    path = tmp_path / "pairs.csv"
    tracemalloc.start()
    try:
        write_blocks(table, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 15_000_000
    assert peak < 4 * 2**20, peak


def test_a_block_is_rendered_a_slice_of_rows_at_a_time():
    """One engine step's 4,096 rows become Python scalars and row strings
    1,024 at a time: the rendering peaks under 1 MiB (1.8 MB when the
    whole block was rendered at once), in strings of at most 1,024 rows."""
    table = random_table(4096)
    list(pair_csv_blocks([random_table(10)]))  # first-call allocations, before the trace
    lines = []
    tracemalloc.start()
    try:
        for text in pair_csv_blocks([table]):
            lines.append(text.count("\n"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert lines == [1, 1024, 1024, 1024, 1024]
