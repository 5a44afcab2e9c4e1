"""Independent checks of each workload's output.

Every check recomputes from the input matrix with numpy (closed forms and
``numpy.linalg``) and compares with relative tolerances, never against
stored bytes, so a deliberate change in the last bits of the program's
arithmetic still passes while a wrong digit does not. A check returns a
list of problems; an empty list means the output is correct.

``corrupt_*`` change one significant digit of one value in an output;
the benchmark runs each check on such a copy and expects a problem.
"""

from __future__ import annotations

import io
import json

import numpy as np

# relative tolerances, far above double roundoff and far below one
# changed significant digit
RTOL_EIG = 1e-9
RTOL_DIST = 1e-8
ORTHO_TOL = 1e-9


def _covariance(X):
    centered = X - X.mean(axis=0)
    return centered.T @ centered / X.shape[0]


def _descending_eig(X):
    values, vectors = np.linalg.eigh(_covariance(X))
    order = np.argsort(values)[::-1]
    return values[order], vectors[:, order]


def _stdout_fields(stdout):
    fields = {}
    for token in stdout.split():
        key, sep, value = token.partition("=")
        if sep:
            fields.setdefault(key, value)
    return fields


def bump_digit(token):
    """``token`` with its first non-zero digit changed by one."""
    for pos, ch in enumerate(token):
        if ch in "123456789":
            new = str(int(ch) + 1) if ch != "9" else "8"
            return token[:pos] + new + token[pos + 1:]
    raise ValueError("no significant digit in %r" % token)


# -- sweep -----------------------------------------------------------------

SWEEP_HEADER = "m,eigsum,mean_shrinkage,median_shrinkage,max_shrinkage,accuracy"


def check_sweep(X, files, stdout, m_range):
    problems = []
    n_samples = X.shape[0]
    lines = files["sweep.csv"].decode().splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return ["sweep.csv: bad header"]
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    ms = list(range(m_range[0], m_range[1] + 1))
    if rows.shape != (len(ms), 6) or rows[:, 0].tolist() != ms:
        return ["sweep.csv: expected rows for m=%s" % ms]

    values, _ = _descending_eig(X)
    tails = np.array([np.sum(np.maximum(values[m:], 0.0)) for m in ms])
    scale = float(np.sum(np.maximum(values, 0.0)))
    bad = np.abs(rows[:, 1] - tails) > RTOL_EIG * scale
    if np.any(bad):
        problems.append("eigsum differs from eigvalsh tail sums at m=%s"
                        % rows[bad, 0].astype(int).tolist())
    for col, label in ((2, "mean"), (3, "median"), (4, "max")):
        series = rows[:, col]
        slack = 1e-12 * float(np.max(np.abs(series)))
        if np.any(np.diff(series) > slack):
            problems.append("%s shrinkage increases with m" % label)
    if np.any((rows[:, 5] < 0.0) | (rows[:, 5] > 1.0)):
        problems.append("accuracy outside [0, 1]")

    report = json.loads(files["sweep.json"])
    json_rows = np.array([[r["m"], r["eigsum"], r["mean_shrinkage"], r["median_shrinkage"],
                           r["max_shrinkage"], r["accuracy"]] for r in report["rows"]])
    if json_rows.shape != rows.shape or not np.array_equal(json_rows, rows):
        problems.append("sweep.json rows differ from sweep.csv")
    if report["negative_shrinkage_pairs"] != 0 or report["bound_violation_pairs"] != 0:
        problems.append("report counts negative or bound-violating pairs")
    if report["pair_count"] != n_samples * (n_samples - 1) // 2 or report["pairs_sampled"]:
        problems.append("sweep did not visit all %d pairs" % (n_samples * (n_samples - 1) // 2))
    fields = _stdout_fields(stdout)
    if fields.get("rows") != str(len(ms)) or fields.get("pairs") != str(report["pair_count"]):
        problems.append("stdout summary disagrees with the report")
    return problems


def corrupt_sweep(files):
    lines = files["sweep.csv"].decode().split("\n")
    cells = lines[3].split(",")
    cells[1] = bump_digit(cells[1])
    lines[3] = ",".join(cells)
    return dict(files, **{"sweep.csv": "\n".join(lines).encode()})


# -- analyze-pairs ---------------------------------------------------------

PAIR_HEADER = "i,j,m,dist_original,dist_truncated,shrinkage,recon_error"


def check_pairs(X, files, stdout, m, pair_sample):
    data = files["pairs.csv"]
    if not data.startswith((PAIR_HEADER + "\n").encode()):
        return ["pairs.csv: bad header"]
    table = np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (pair_sample, 7):
        return ["pairs.csv: %d rows, expected %d" % (table.shape[0], pair_sample)]
    problems = []
    n_samples = X.shape[0]
    i = table[:, 0].astype(np.int64)
    j = table[:, 1].astype(np.int64)
    if (np.any(i != table[:, 0]) or np.any(j != table[:, 1]) or np.any(i < 0)
            or np.any(i >= j) or np.any(j >= n_samples)):
        return ["pairs.csv: pair indices are not 0 <= i < j < N"]
    if np.any(table[:, 2] != m):
        problems.append("pairs.csv: m column is not %d" % m)
    d_orig, d_trunc, shrink, recon = table[:, 3], table[:, 4], table[:, 5], table[:, 6]

    _, vectors = _descending_eig(X)
    centered = X - X.mean(axis=0)
    Y = centered @ vectors[:, :m]
    point_error = np.linalg.norm(centered - Y @ vectors[:, :m].T, axis=1)
    ref_orig = np.linalg.norm(X[i] - X[j], axis=1)
    ref_trunc = np.linalg.norm(Y[i] - Y[j], axis=1)
    ref_recon = point_error[i] + point_error[j]
    tol = RTOL_DIST * ref_orig
    for got, ref, label in ((d_orig, ref_orig, "dist_original"),
                            (d_trunc, ref_trunc, "dist_truncated"),
                            (recon, ref_recon, "recon_error"),
                            (shrink, d_orig - d_trunc, "shrinkage")):
        bad = np.flatnonzero(np.abs(got - ref) > tol)
        if bad.size:
            problems.append("%s wrong on %d rows (first row %d)" % (label, bad.size, bad[0]))
    if np.any(shrink > recon + tol):
        problems.append("shrinkage exceeds recon_error")
    fields = _stdout_fields(stdout)
    if (fields.get("pairs") != str(pair_sample) or fields.get("negative_shrinkage_pairs") != "0"
            or fields.get("bound_violation_pairs") != "0"):
        problems.append("stdout summary disagrees with the pair table")
    return problems


def corrupt_pairs(files):
    data = files["pairs.csv"]
    # the 1235th data row: header line plus 1234 rows before it
    start = 0
    for _ in range(1235):
        start = data.index(b"\n", start) + 1
    end = data.index(b"\n", start)
    cells = data[start:end].decode().split(",")
    cells[4] = bump_digit(cells[4])
    return dict(files, **{"pairs.csv": data[:start] + ",".join(cells).encode() + data[end:]})


# -- fit-wide --------------------------------------------------------------


def check_model(X, files, stdout):
    model = json.loads(files["model.json"])
    n = X.shape[1]
    if model.get("format") != "pcashrink-model" or model.get("n") != n or model.get("degenerate"):
        return ["model.json: wrong marker, size or degenerate flag"]
    problems = []
    mean = np.asarray(model["mean"])
    values = np.asarray(model["eigenvalues"])
    V = np.asarray(model["components"])
    if mean.shape != (n,) or values.shape != (n,) or V.shape != (n, n):
        return ["model.json: wrong array shapes"]
    if np.max(np.abs(mean - X.mean(axis=0))) > RTOL_EIG * np.max(np.abs(X)):
        problems.append("mean differs from the data mean")
    S = _covariance(X)
    ref = np.sort(np.linalg.eigvalsh(S))[::-1]
    bad = np.flatnonzero(np.abs(values - ref) > RTOL_EIG * np.max(np.abs(ref)))
    if bad.size:
        problems.append("eigenvalues differ from eigvalsh at %s" % bad[:5].tolist())
    if np.max(np.abs(V.T @ V - np.eye(n))) > ORTHO_TOL:
        problems.append("components are not orthonormal")
    if np.linalg.norm(S @ V - V * values) > RTOL_DIST * np.linalg.norm(S):
        problems.append("components are not eigenvectors")
    printed = _stdout_fields(stdout).get("eigenvalues", "")
    if [float(v) for v in printed.split(",") if v] != values.tolist():
        problems.append("stdout eigenvalues differ from model.json")
    return problems


def corrupt_model(files):
    lines = files["model.json"].decode().split("\n")
    for k, line in enumerate(lines):
        if line.lstrip().startswith('"eigenvalues"'):
            head, _, rest = line.partition("[")
            tokens = rest.rstrip("],").split(", ")
            tokens[3] = bump_digit(tokens[3])
            lines[k] = head + "[" + ", ".join(tokens) + rest[len(rest.rstrip("],")):]
            break
    return dict(files, **{"model.json": "\n".join(lines).encode()})
