"""The one input reader: golden error lines for every file the CLI reads
(--input, --model, --config), CRLF input, a UTF-8 byte-order mark,
over-long CSV fields, line numbers after a multi-line quoted field, and
the `none` label spelling."""

import codecs
import json

import numpy as np
import pytest

from pcashrink.cli import main
from pcashrink.experiments import load_csv

MISSING = "./nope//x"
DIRECTORY = "./d/"
NOT_UTF8 = "bad.bin"
NOT_JSON = "bad.json"

# what each reader's failure looks like on stderr; the CSV reader names the
# Path-normalised path, the model and config readers the path as given
GOLDEN = {
    ("input", MISSING):
        "[io] cannot read nope/x: [Errno 2] No such file or directory: 'nope/x'",
    ("model", MISSING):
        "[io] cannot read model file ./nope//x: [Errno 2] No such file or directory: 'nope/x'",
    ("config", MISSING):
        "[io] cannot read config ./nope//x: [Errno 2] No such file or directory: 'nope/x'",
    ("input", DIRECTORY): "[io] cannot read d: [Errno 21] Is a directory: 'd'",
    ("model", DIRECTORY): "[io] cannot read model file ./d/: [Errno 21] Is a directory: 'd'",
    ("config", DIRECTORY): "[io] cannot read config ./d/: [Errno 21] Is a directory: 'd'",
    ("input", NOT_UTF8): "[parse] bad.bin is not valid UTF-8: 'utf-8' codec can't decode "
                         "byte 0xe9 in position 10: invalid continuation byte",
    ("model", NOT_UTF8): "[parse] model file bad.bin is not valid UTF-8: 'utf-8' codec can't "
                         "decode byte 0xe9 in position 10: invalid continuation byte",
    ("config", NOT_UTF8): "[parse] config bad.bin is not valid UTF-8: 'utf-8' codec can't "
                          "decode byte 0xe9 in position 10: invalid continuation byte",
    ("model", NOT_JSON): "[parse] model file bad.json is not valid JSON: "
                         "Expecting value: line 1 column 7 (char 6)",
    ("config", NOT_JSON): "[parse] config bad.json is not valid JSON: "
                          "Expecting value: line 1 column 7 (char 6)",
}


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    (tmp_path / NOT_UTF8).write_bytes(b'{"a": "caf\xe9"}\n')
    (tmp_path / NOT_JSON).write_text('{"a": }', encoding="utf-8")
    (tmp_path / "ok.csv").write_text("1,2,a\n3,5,b\n4,4,a\n", encoding="utf-8")
    assert main(["fit", "--input", "ok.csv", "--output", "model.json"]) == 0
    return tmp_path


def _argv(reader, path):
    if reader == "input":
        return ["fit", "--input", path, "--output", "m.json"]
    if reader == "model":
        return ["transform", "--input", "ok.csv", "--model", path]
    return ["fit", "--config", path, "--input", "ok.csv", "--output", "m.json"]


@pytest.mark.parametrize("reader, path", sorted(GOLDEN), ids=lambda v: str(v))
def test_reader_failures_have_golden_lines(workdir, capsys, reader, path):
    capsys.readouterr()
    assert main(_argv(reader, path)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "pca-shrink: %s\n" % GOLDEN[reader, path]
    assert not (workdir / "m.json").exists()


@pytest.mark.parametrize("text, width, header_width", [
    ("a,b,c,d\n1,2,x\n3,4,y\n", 3, 4),
    ("a,b,d\n1,2,0,4\n3,4,1,5\n", 4, 3),  # d would name the third column
], ids=["header-wider", "header-narrower"])
def test_header_width_differs_from_rows(tmp_path, capsys, text, width, header_width):
    data = tmp_path / "data.csv"
    data.write_text(text, encoding="utf-8")
    model = tmp_path / "model.json"
    rc = main(["fit", "--input", str(data), "--header", "--label-column", "d",
               "--output", str(model)])
    assert rc == 2
    out, err = capsys.readouterr()
    assert err == "pca-shrink: [parse] %s: line 2 has %d columns, expected %d\n" % (
        data, width, header_width)
    assert out == "" and not model.exists()


def test_crlf_csv_loads_like_lf(tmp_path):
    text = "x,y,label\n1.5,2,a\n3,-4.25,b\n\n7e-3,8,a\n"
    (tmp_path / "lf").mkdir()
    (tmp_path / "crlf").mkdir()
    lf = tmp_path / "lf" / "data.csv"
    crlf = tmp_path / "crlf" / "data.csv"
    lf.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    for kwargs in ({"header": True}, {"header": True, "label_column": "label"}):
        a, b = load_csv(lf, **kwargs), load_csv(crlf, **kwargs)
        assert np.array_equal(a.features, b.features)
        assert a.labels == b.labels == ("a", "b", "a")
        assert a.name == b.name


BOM_FILES = {
    "rows.csv": "1.5,2,x\n3,-4.25,y\n7e-3,8,x\n",
    "named.csv": "c,a,b\nx,1.5,2\ny,3,-4.25\nx,7e-3,8\n",
    "config.json": '{"header": true, "label-column": "c"}\n',
}
# per marked file, a run that reads it; model.json is fitted from rows.csv
BOM_RUNS = {
    "rows.csv": ["fit", "--input", "rows.csv", "--output", "out.json"],
    "named.csv": ["fit", "--input", "named.csv", "--header", "--label-column", "c",
                  "--output", "out.json"],
    "config.json": ["fit", "--input", "named.csv", "--config", "config.json",
                    "--output", "out.json"],
    "model.json": ["transform", "--input", "rows.csv", "--model", "model.json"],
}


@pytest.mark.parametrize("marked", sorted(BOM_RUNS))
def test_byte_order_mark_is_skipped(tmp_path, monkeypatch, capsys, marked):
    """A file that starts with a UTF-8 byte-order mark, as Excel's "CSV
    UTF-8" saves it, reads exactly like an unmarked copy."""
    runs = []
    for home in (tmp_path / "plain", tmp_path / "marked"):
        home.mkdir()
        monkeypatch.chdir(home)
        for name, text in BOM_FILES.items():
            (home / name).write_text(text, encoding="utf-8")
        assert main(["fit", "--input", "rows.csv", "--output", "model.json"]) == 0
        if home.name == "marked":
            (home / marked).write_bytes(codecs.BOM_UTF8 + (home / marked).read_bytes())
        capsys.readouterr()
        rc = main(BOM_RUNS[marked])
        out = home / "out.json"
        runs.append((rc, *capsys.readouterr(), out.read_bytes() if out.exists() else None))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0


def test_over_long_csv_field_is_a_parse_error(tmp_path, capsys):
    data = tmp_path / "long.csv"
    data.write_text("1,2,a\n3,5," + "b" * 131_073 + "\n4,4,a\n", encoding="utf-8")
    rc = main(["fit", "--input", str(data), "--output", str(tmp_path / "m.json")])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("pca-shrink: [parse] %s: line 2: field larger than field limit (131072)\n"
                   % data)


@pytest.mark.parametrize("last_row, message", [
    ("x,5,d", "line 4 column 1: 'x' is not a number"),
    ("5,d", "line 4 has 2 columns, expected 3"),
], ids=["bad-cell", "bad-width"])
def test_line_numbers_count_the_lines_of_a_quoted_field(tmp_path, capsys, last_row, message):
    # the first row's quoted label spans lines 1 and 2
    data = tmp_path / "multi.csv"
    data.write_text('1,2,"a\nb"\n3,4,c\n%s\n' % last_row, encoding="utf-8")
    rc = main(["fit", "--input", str(data), "--output", str(tmp_path / "m.json")])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "pca-shrink: [parse] %s: %s\n" % (data, message)


@pytest.mark.parametrize("spelling", ["none", "NONE", " None "])
def test_label_column_none_by_flag_and_by_config(tmp_path, capsys, spelling):
    data = tmp_path / "numeric.csv"
    data.write_text("1,2\n3,5\n4,4\n", encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"label-column": spelling}), encoding="utf-8")
    runs = {}
    for source, extra in (("flag", ["--label-column", spelling]),
                          ("config", ["--config", str(config)])):
        model = tmp_path / ("model-%s.json" % source)
        rc = main(["fit", "--input", str(data), "--output", str(model)] + extra)
        runs[source] = (rc, capsys.readouterr().out, model.read_bytes())
    assert runs["flag"] == runs["config"]
    assert runs["flag"][0] == 0
    assert "samples=3 features=2" in runs["flag"][1]
