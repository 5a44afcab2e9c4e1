"""Deterministic text rendering for reports and persisted models, and
the one reader and one writer every input and output file goes through.

Floats are always written in the one format F17, 17 significant digits,
so the printed value round-trips to the exact same IEEE-754 double,
which is what makes repeated runs byte-identical. Float arrays become
text through one row generator, _rows: json_text's vectors and matrices
(model.json among them) and the streamed CSV and JSON reports of
``reports`` alike. Every reader skips a UTF-8 byte-order mark.
"""

import errno
import json as _json
import os
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

from .errors import DatasetIOError, DatasetParseError


F17 = "%.17g"  # the one float format; every row format is built from it
# values rendered at once by _rows: 1,024 pair CSV rows of seven values, so a
# report's rows become Python scalars, tuples and row strings a few hundred
# KB at a time however wide they are
_RENDER_VALUES = 7 * 1024


def f17(x):
    """Format a float with 17 significant digits."""
    return F17 % float(x)


def _rows(columns, row, sep=""):
    """The rows of the equal-length numpy ``columns`` rendered with the
    %-format ``row`` and joined by ``sep``, one string per slice of
    _RENDER_VALUES // len(columns) rows (at least one row); a slice's
    values become Python scalars only when it is rendered."""
    step = max(1, _RENDER_VALUES // len(columns))
    for lo in range(0, len(columns[0]), step):
        values = zip(*[c[lo:lo + step].tolist() for c in columns])
        yield sep.join([row % v for v in values])


def write_text(path, chunks):
    """Write the strings of ``chunks`` to ``path`` as UTF-8, one write each.

    ``chunks`` may be a generator, so large outputs are streamed. An
    OSError (missing directory, no permission, full disk) becomes
    DatasetIOError. When a chunk or a write raises, the opened file is
    removed, so a refused command leaves no partial output; only a
    regular file that is not a symlink is removed (/dev/stdout stays),
    and a file that could not be opened is left as it is.
    """
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise DatasetIOError("cannot write %s: %s" % (path, exc)) from exc
    try:
        with fh:
            for chunk in chunks:
                fh.write(chunk)
    except BaseException as exc:
        if os.path.isfile(path) and not os.path.islink(path):
            with suppress(OSError):
                os.remove(path)
        if isinstance(exc, OSError):
            raise DatasetIOError("cannot write %s: %s" % (path, exc)) from exc
        raise


@contextmanager
def open_text(path, what="", newline=None):
    """Open ``path`` as UTF-8 text for a with block. An OSError becomes
    DatasetIOError and a decoding error, also one raised while the block
    reads, DatasetParseError; messages name ``what`` and ``path`` as given."""
    try:
        with Path(path).open(encoding="utf-8-sig", newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise DatasetIOError("cannot read %s%s: %s" % (what, path, exc)) from exc
    except UnicodeDecodeError as exc:
        raise DatasetParseError("%s%s is not valid UTF-8: %s" % (what, path, exc)) from exc


def read_json(path, what):
    """Parsed JSON content of ``path``; errors as in open_text, and text
    that is not JSON becomes DatasetParseError."""
    with open_text(path, what) as fh:
        text = fh.read()
    try:
        return _json.loads(text)
    except _json.JSONDecodeError as exc:
        raise DatasetParseError("%s%s is not valid JSON: %s" % (what, path, exc)) from exc


def check_writable(path):
    """Raise the DatasetIOError that ``write_text(path, ...)`` would raise
    for a missing parent directory or a directory at ``path``, without
    creating or truncating anything, so a command can fail before it
    computes what it would write."""
    path = os.fspath(path)
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    else:
        return
    raise DatasetIOError("cannot write %s: %s" % (path, OSError(code, os.strerror(code), path)))


def json_text(obj):
    """Render ``obj`` as JSON with f17 floats and two-space indents.

    Dict insertion order is preserved, lists are kept on one line, so the
    output is a pure function of the data.
    """
    return _render(obj, 0) + "\n"


def _render(obj, level):
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return _json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return f17(obj)
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.ndim in (1, 2):
        # a vector is one column of _rows; a (k, 0) matrix goes on to tolist()
        if obj.ndim == 1:
            return "[" + ", ".join(_rows((obj,), F17, ", ")) + "]"
        if obj.shape[1]:
            row = "[" + ", ".join([F17] * obj.shape[1]) + "]"
            return "[" + ", ".join(_rows(obj.T, row, ", ")) + "]"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + ", ".join(_render(v, level + 1) for v in obj) + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        pad = "  " * (level + 1)
        items = ",\n".join(
            "%s%s: %s" % (pad, _json.dumps(str(k)), _render(v, level + 1))
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + "  " * level + "}"
    raise TypeError("cannot serialize %r" % (type(obj),))
