"""Deterministic text rendering for reports and persisted models, and
the one reader and one writer every input and output file goes through.

Floats are always written in the one format F17, 17 significant digits,
so the printed value round-trips to the exact same IEEE-754 double,
which is what makes repeated runs byte-identical. Every reader skips a
UTF-8 byte-order mark.
"""

import errno
import json as _json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DatasetIOError, DatasetParseError


F17 = "%.17g"  # the one float format; every row format is built from it


def f17(x):
    """Format a float with 17 significant digits."""
    return F17 % float(x)


def write_text(path, chunks):
    """Write the strings of ``chunks`` to ``path`` as UTF-8, one write each.

    ``chunks`` may be a generator, so large outputs are streamed. An
    OSError (missing directory, no permission, full disk) becomes
    DatasetIOError.
    """
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        raise DatasetIOError("cannot write %s: %s" % (path, exc)) from exc


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
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.ndim:
        # a float vector in one join, with the bits of f17 on each value;
        # a matrix row by row
        if obj.ndim == 1:
            return "[" + ", ".join([F17 % v for v in obj.tolist()]) + "]"
        return "[" + ", ".join([_render(row, level + 1) for row in obj]) + "]"
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
