"""Command-line front end.

Four subcommands: fit, transform, analyze, sweep. Results go to stdout
and to the files named by --output; log lines go to stderr. Exit status
is 0 on success, 1 for usage problems, 2 for input/parse failures, 3 for
numeric/analysis failures, and 4 when analyze finds pairs that violate
the shrinkage guarantees beyond the tolerance.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

import numpy as np

from ._version import VERSION
from .errors import (
    BadFoldsError,
    DatasetIOError,
    DatasetParseError,
    DimMismatchError,
    InsufficientRowsError,
    ToolkitError,
)
from .experiments import check_delimiter, check_k, correlate, load_csv, run_sweep
from .pca import fit, load_model, save_model, transform
from .reports import (
    analyze_report,
    coords_csv_blocks,
    coords_json_blocks,
    format_correlation_lines,
    pair_csv_blocks,
    sweep_csv,
    sweep_report_json,
)
from .serialize import check_writable, f17, json_text, read_json, write_text
from .shrinkage import (
    VIOLATION_TOL,
    check_pair_sample,
    check_samples,
    check_seed,
    check_violation_tol,
    collision_witness,
    shrinkage_blocks,
)

SEED_ENV_VAR = "PCA_SHRINK_SEED"


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; we reserve 2 for input
    errors, so map usage problems to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def build_parser():
    """The top-level parser and the subcommand parsers by name."""
    top = _Parser(prog="pca-shrink", description=__doc__)
    top.add_argument("--version", action="version", version="pca-shrink %s" % VERSION)
    sub = top.add_subparsers(dest="command", required=True, metavar="command")

    def command(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default: $%s or 0)" % SEED_ENV_VAR)
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for existing scripts; has no effect")
        p.add_argument("--config", default=None,
                       help="JSON file of option defaults; explicit flags win")
        p.add_argument("--input", default=None, help="input CSV path")
        p.add_argument("--label-column", default="-1",
                       help="label column: index, name (with --header), or 'none'")
        p.add_argument("--header", action=argparse.BooleanOptionalAction, default=False,
                       help="treat the first row as column names")
        p.add_argument("--delimiter", default=",", help="field delimiter (default %(default)r)")
        return p

    p = command("fit", "fit a PCA model and save it as JSON")
    p.add_argument("--output", default=None, help="where to write the model JSON")

    p = command("transform", "project data with a saved model")
    p.add_argument("--model", default=None, help="model JSON from 'fit'")
    p.add_argument("--m", type=int, default=None, help="retained dimensions (default all)")
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = command("analyze", "pairwise shrinkage analysis at one m")
    p.add_argument("--m", type=int, default=None, help="retained dimensions (required)")
    p.add_argument("--pair-sample", type=int, default=None,
                   help="sampled pair count; 0 forces all pairs")
    p.add_argument("--violation-tol", type=float, default=VIOLATION_TOL,
                   help="slack before a pair counts as violating, as a fraction of the "
                        "pair's original distance (default %(default)g)")
    p.add_argument("--output", default=None, help="per-pair CSV or JSON report path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = command("sweep", "sweep m, write rows CSV and correlation report")
    p.add_argument("--m-range", default=None, help="inclusive range A..B (default 1..n)")
    p.add_argument("--k", type=int, default=5, help="nearest neighbours (default %(default)s)")
    p.add_argument("--folds", type=int, default=5,
                   help="cross-validation folds (default %(default)s)")
    p.add_argument("--pair-sample", type=int, default=None,
                   help="sampled pair count; 0 forces all pairs")
    p.add_argument("--output", default=None, help="base path; writes <base>.csv and <base>.json")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="stdout style: key=value lines (csv) or the JSON report")
    return top, sub.choices


def _config_value(key, value, action):
    """Check a config value the way argparse checks its flag: true or false
    for --X/--no-X, otherwise a string or number whose text must pass the
    flag's type and choices."""
    if isinstance(action, argparse.BooleanOptionalAction):
        if not isinstance(value, bool):
            raise ValueError("config key %r must be true or false, got %r" % (key, value))
        return value
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError("config key %r must be a string or a number, got %r" % (key, value))
    text = str(value)
    try:
        value = text if action.type is None else action.type(text)
    except ValueError:
        raise ValueError("config key %r: invalid %s value %r"
                         % (key, action.type.__name__, text)) from None
    if action.choices is not None and value not in action.choices:
        raise ValueError("config key %r: invalid choice %r (choose from %s)"
                         % (key, value, ", ".join(action.choices)))
    return value


def _load_config(path, parser):
    """Config values by option name, each checked like its flag in ``parser``;
    keys that name no flag, and null values, are ignored."""
    raw = read_json(path, "config ")
    if not isinstance(raw, dict):
        raise DatasetParseError("config %s must hold a JSON object" % path)
    flags = {a.dest: a for a in parser._actions if a.dest != "help"}
    config = {}
    for name, value in raw.items():
        key = str(name).replace("-", "_")
        if key in flags and value is not None:
            config[key] = _config_value(name, value, flags[key])
    return config


def _require(args, key):
    value = getattr(args, key)
    if value is None:
        raise ValueError("missing required option --%s" % key.replace("_", "-"))
    return value


def _seed(args):
    """The seed of --seed (or config), else $PCA_SHRINK_SEED, else 0; a
    junk or negative seed raises ValueError."""
    seed = args.seed
    if seed is None:
        env = os.environ.get(SEED_ENV_VAR, "0")
        try:
            seed = int(env)
        except ValueError:
            raise ValueError("$%s=%r is not an integer" % (SEED_ENV_VAR, env)) from None
    check_seed(seed)
    return seed


def _parse_label_column(value):
    text = value.strip()
    try:
        return int(text)
    except ValueError:
        return text


def _parse_m_range(value):
    text = value.strip()
    lo, _, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ValueError("bad m range %r, expected A..B" % text) from None
    if lo > hi:
        raise ValueError("bad m range %r, expected A..B with A <= B" % text)
    return lo, hi


def _sweep_range(lo, hi):
    """(lo, hi), refused when it is one level (correlate needs two sweep
    rows) or starts below 1, so this runs before the fit and every pass;
    the upper bound, n, needs the data."""
    if lo == hi:
        raise InsufficientRowsError("need at least two sweep rows, got 1")
    if lo < 1:
        raise DimMismatchError("m range [%d, %d] must start at 1 or above" % (lo, hi))
    return lo, hi


def _check_m(m):
    """Refuse an m below 1 before input is read; the upper bound, n, needs
    the data. None (all dimensions) passes."""
    if m is not None and m < 1:
        raise DimMismatchError("m must be at least 1, got %d" % m)
    return m


def _load_dataset(args):
    return load_csv(
        _require(args, "input"),
        label_column=_parse_label_column(args.label_column),
        header=args.header,
        delimiter=args.delimiter,
    )


def _check_outputs(args, *paths):
    """Fail before any input is read when an output path cannot be written
    or is the same file as --input, --model or --config, which writing would
    destroy."""
    sources = (("--input", args.input), ("--model", getattr(args, "model", None)),
               ("--config", args.config))
    for path in paths:
        check_writable(path)
        for option, source in sources:
            if source is not None and _same_file(path, source):
                raise DatasetIOError("cannot write %s: it is the %s file" % (path, option))


def _same_file(a, b):
    try:
        return os.path.samefile(a, b)
    except OSError:  # either one missing: nothing to overwrite
        return False


def _log(message):
    print("pca-shrink: %s" % message, file=sys.stderr)


def cmd_fit(args):
    out = _require(args, "output")
    _check_outputs(args, out)
    dataset = _load_dataset(args)
    model = fit(dataset.features)
    save_model(model, out)
    _log("wrote %s" % out)
    print("dataset=%s samples=%d features=%d degenerate=%s"
          % (dataset.name, dataset.n_samples, dataset.n_features,
             "true" if model.degenerate else "false"))
    print("eigenvalues=%s" % ",".join(f17(v) for v in model.eigenvalues))
    return 0


def cmd_transform(args):
    out = args.output
    if out is not None:
        _check_outputs(args, out)
    _check_m(args.m)
    model = load_model(_require(args, "model"))
    dataset = _load_dataset(args)
    coords = transform(model, dataset.features, args.m)
    chunks = (coords_json_blocks if args.format == "json" else coords_csv_blocks)(coords)
    if out is None:
        for chunk in chunks:
            sys.stdout.write(chunk)
    else:
        write_text(out, chunks)
        _log("wrote %s" % out)
    return 0


def cmd_analyze(args):
    out = args.output
    if out is not None:
        _check_outputs(args, out)
    m = _check_m(_require(args, "m"))
    tol = args.violation_tol
    check_violation_tol(tol)
    check_pair_sample(args.pair_sample)
    dataset = _load_dataset(args)
    check_samples(dataset.n_samples)  # one row forms no pair: refused before the fit
    model = fit(dataset.features)
    options = dict(pair_sample=args.pair_sample, seed=args.seed, violation_tol=tol)
    pair_csv = out is not None and args.format == "csv"
    # the call checks every pair argument, so a refusal leaves the output file untouched
    blocks, summary = shrinkage_blocks(model, dataset.features, m, **options)

    full_rank = m == model.n_features
    if full_rank:
        witness_note = {"exists": False,
                        "reason": "full-rank transform is injective"}
    else:
        base = dataset.features[0]
        witness = np.stack([base, collision_witness(model, base, m)])
        pair = next(shrinkage_blocks(model, witness, m)[0])  # its one block, of one pair
        witness_note = {
            "exists": True,
            "base_index": 0,
            "offset_axis": m,
            "original_distance": float(pair.dist_original[0]),
            "truncated_image_distance": float(pair.dist_truncated[0]),
        }

    if pair_csv:
        write_text(out, pair_csv_blocks(blocks))
    else:
        for _ in blocks:
            pass
    stats = summary()
    if out is not None:
        if not pair_csv:
            write_text(out, [json_text(analyze_report(
                stats, model.n_features, dataset.name, witness_note))])
        _log("wrote %s" % out)

    print("dataset=%s n=%d m=%d" % (dataset.name, model.n_features, stats.m))
    print("pairs=%d sampled=%s" % (stats.pair_count, "true" if stats.sampled else "false"))
    print("mean_shrinkage=%s median_shrinkage=%s max_shrinkage=%s"
          % (f17(stats.mean), f17(stats.median), f17(stats.max)))
    print("negative_shrinkage_pairs=%d" % stats.negative_count)
    print("bound_violation_pairs=%d" % stats.bound_violations)
    if full_rank:
        print("isometry_violation_pairs=%d" % stats.violating_pairs)
        print("witness: none, the full-rank transform is injective")
    else:
        print("witness: sample 0 moved %s along discarded axis %d; truncated images %s apart"
              % (f17(witness_note["original_distance"]), m,
                 f17(witness_note["truncated_image_distance"])))

    if stats.violating_pairs:
        _log("%d pairs violate the shrinkage guarantees (tol=%g)" % (stats.violating_pairs, tol))
        return 4
    return 0


def cmd_sweep(args):
    base = _require(args, "output")
    if base.endswith(".csv") or base.endswith(".json"):
        base = base.rsplit(".", 1)[0]
    csv_path = base + ".csv"
    json_path = base + ".json"
    _check_outputs(args, csv_path, json_path)
    m_range = None if args.m_range is None else _sweep_range(*_parse_m_range(args.m_range))
    check_k(args.k)
    if args.folds < 2:
        raise BadFoldsError("folds must be at least 2, got %d" % args.folds)
    check_pair_sample(args.pair_sample)
    dataset = _load_dataset(args)
    if m_range is None:
        _sweep_range(1, dataset.n_features)
    result = run_sweep(
        dataset,
        m_range=m_range,
        k=args.k,
        folds=args.folds,
        seed=args.seed,
        pair_sample=args.pair_sample,
    )
    summary = correlate(result)

    report = sweep_report_json(result, summary)
    write_text(csv_path, [sweep_csv(result)])
    write_text(json_path, [report])
    _log("wrote %s" % csv_path)
    _log("wrote %s" % json_path)

    if args.format == "json":
        sys.stdout.write(report)
    else:
        print("dataset=%s rows=%d pairs=%d sampled=%s"
              % (result.dataset_name, len(result.rows), result.pair_count,
                 "true" if result.pairs_sampled else "false"))
        for line in format_correlation_lines(summary):
            print(line)
    return 0


_COMMANDS = {
    "fit": cmd_fit,
    "transform": cmd_transform,
    "analyze": cmd_analyze,
    "sweep": cmd_sweep,
}


def main(argv=None):
    """Parse arguments and run one subcommand; returns the exit status."""
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    with warnings.catch_warnings():  # the filters stay; a shown warning is one log line
        warnings.showwarning = lambda message, *where: _log("warning: %s" % message)
        try:
            if args.config is not None:
                # parsed again with config as defaults: flag > config > built-in default
                command = commands[args.command]
                command.set_defaults(**_load_config(args.config, command))
                args = parser.parse_args(argv)
            args.seed = _seed(args)  # every command refuses a bad seed before reading input
            check_delimiter(args.delimiter)  # and a bad delimiter
            return _COMMANDS[args.command](args)
        except ToolkitError as err:
            print("pca-shrink: [%s] %s" % (err.code, err), file=sys.stderr)
            return err.exit_status
        except ValueError as err:
            print("pca-shrink: error: %s" % err, file=sys.stderr)
            return 1


def run():
    raise SystemExit(main())
