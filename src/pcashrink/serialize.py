"""Deterministic text rendering for reports and persisted models, and
the one writer every output file goes through.

Floats are always written with 17 significant digits so the printed
value round-trips to the exact same IEEE-754 double, which is what makes
repeated runs byte-identical.
"""

import errno
import json as _json
import os

import numpy as np

from .errors import DatasetIOError


def f17(x):
    """Format a float with 17 significant digits."""
    return format(float(x), ".17g")


def csv_line(values):
    """One CSV line; floats go through f17, everything else through str."""
    parts = []
    for v in values:
        if isinstance(v, (float, np.floating)):
            parts.append(f17(v))
        else:
            parts.append(str(v))
    return ",".join(parts)


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
