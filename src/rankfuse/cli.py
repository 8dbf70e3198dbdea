"""Command-line interface.

One subcommand per experiment step: pool, sweep, train, fuse, eval,
xval, curve, compare, group-eval, sensitivity, synth. Tables are CSV
with headers, written to stdout unless an output path is given; a run
or a qrels goes to stdout one query at a time, as to a file, and the
same bytes go to either. Every input file, a run, a qrels or a
``--weights`` CSV, is read by one rule: UTF-8, after an optional
byte-order mark, with a byte that is not UTF-8 reported by its line.
Exit code 0 on success; any failure prints one ``error: ...``
diagnostic to stderr and exits nonzero. When the reader of stdout
leaves before the output ends (``rankfuse fuse ... | head``), the
``rankfuse`` program exits 141, the status a shell gives a program
that SIGPIPE ends, and prints no error; it first points stdout's
descriptor at the null device, so the interpreter's exit flush cannot
fail again. That ``os.open`` in ``console`` is the one open of a file
outside ``trec``. Every notice, the loaders' and the command's alike,
is raised with ``warnings.warn``; main is the one place that prints
notices, one stderr line per distinct message. Fixed inputs (and
seed, where applicable) produce byte-identical outputs.

The commands make no fusion decision: the fusers cut to ``--depth``,
the writers write every entry, and ``linear_combine`` matches weights
to runs by tag. ``fuse`` normalizes once for every method; Borda reads
only each query's order, which normalization keeps.

No command reads a raw score: the loader keeps each run as its doc
codes and one reciprocal-rank lookup at the default constant (about
6 B an entry), and ``train`` and ``fuse`` normalize again at
``--constant``, which reads only ranks.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from collections.abc import Iterable, Sequence

from . import harness, pooling
from ._warn import warn
from .evaluation import evaluate, report_csv, sensitivity_csv, sensitivity_table
from .fusion import (
    DEFAULT_OUTPUT_DEPTH,
    DEFAULT_RECIPROCAL_CONSTANT,
    borda,
    comb_mnz,
    comb_sum,
    linear_combine,
    normalize_reciprocal,
)
from .regression import (
    _fit_warning,
    assemble_matrix,
    solve_ols,
    weights_from_csv,
    weights_to_csv,
)
from .trec import (
    Qrels,
    _open_text,
    _qrels_texts,
    _query_texts,
    _write_texts,
    load_qrels,
    load_run,
)


def _emit(texts: Iterable[str], path: str | None) -> None:
    """Write ``texts`` in order to stdout, or to ``path`` through the
    package's one file writer: every output of a command, a CSV, a qrels
    or a run. Each piece is written as it is taken, so a run or a qrels
    goes to stdout one query at a time, as to a file."""
    if path is None:
        sys.stdout.writelines(texts)
    else:
        _write_texts(texts, path)


def _load_runs(paths: Sequence[str]) -> list:
    """normalize_reciprocal(load_run(path)) of each path, at the default
    constant, with one warning per file that has no run entries.

    Every command reads only each run's order: its codes and ranks. So a
    loaded run keeps its int32 codes and one shared reciprocal lookup,
    which its rankings' scores are views of, and each file's raw scores
    are freed as soon as it is parsed. A command that comes to read raw
    scores (min-max or z-score LC, say) must load its runs with load_run.
    """
    runs = [normalize_reciprocal(load_run(path)) for path in paths]
    for path, run in zip(paths, runs):
        if not run.by_query:
            warn(f"{path}: no run entries")
    tags = [run.run_tag for run in runs]
    duplicates = sorted({tag for tag in tags if tags.count(tag) > 1})
    if duplicates:
        raise ValueError(f"duplicate run tags across input files: {duplicates}")
    return runs


def _load_qrels(path: str) -> Qrels:
    """load_qrels, with one warning when the file repeats a judgment."""
    qrels = load_qrels(path)
    if qrels.duplicate_warnings:
        warn(
            f"{path}: {qrels.duplicate_warnings} duplicate (query, doc) "
            "lines with the same grade; each pair counted once"
        )
    return qrels


def _parse_depths(text: str) -> list[int]:
    """Either an inclusive range 'LO:HI' or a comma list '1,5,10'."""
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            return list(range(int(lo), int(hi) + 1))
        return [int(token) for token in text.split(",") if token]
    except ValueError:
        raise ValueError(
            f"--depths {text!r} is not a range LO:HI or a comma list of integers"
        ) from None


def _parse_queries(text: str | None) -> list[str] | None:
    if text is None:
        return None
    ids = [token.strip() for token in text.split(",") if token.strip()]
    if not ids:
        raise ValueError("query list is empty")
    return ids


def _parse_mode(text: str) -> tuple[str, int]:
    if text == "tertiles":
        return "tertiles", 0
    if text.startswith("threshold:"):
        try:
            return "threshold", int(text.split(":", 1)[1])
        except ValueError:
            pass
    raise ValueError(
        f"bad mode {text!r} for --mode; expected 'tertiles' or 'threshold:<t>', t an integer"
    )


def _cmd_pool(args: argparse.Namespace) -> int:
    runs = _load_runs(args.runs)
    full = _load_qrels(args.qrels)
    if args.depth is not None:
        depth = args.depth
    else:
        depth, coverage = pooling.pick_depth_for_fraction(
            runs, full, args.target_fraction
        )
        print(
            f"picked depth {depth} (relevant coverage {coverage:.4f})",
            file=sys.stderr,
        )
    partial = pooling.make_partial_qrels(pooling.build_pool(runs, depth), full)
    _emit(_qrels_texts(partial), args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    runs = _load_runs(args.runs)
    full = _load_qrels(args.qrels)
    rows = pooling.pool_sweep(runs, full, _parse_depths(args.depths))
    _emit([pooling.sweep_csv(rows)], args.out)
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    runs = _load_runs(args.runs)
    qrels = _load_qrels(args.qrels)
    scored = [normalize_reciprocal(run, args.constant) for run in runs]
    queries = _parse_queries(args.queries) or qrels.query_ids
    weights = solve_ols(assemble_matrix(scored, qrels, queries))
    _fit_warning("train", weights)
    _emit([weights_to_csv(weights)], args.out_weights)
    return 0


def _cmd_fuse(args: argparse.Namespace) -> int:
    scored = [normalize_reciprocal(run, args.constant) for run in _load_runs(args.runs)]
    if args.method == "lc":
        if args.weights is None:
            raise ValueError("--weights is required for method 'lc'")
        with _open_text(args.weights) as lines:
            weights = weights_from_csv("".join(lines))
        fused = linear_combine(scored, weights, args.depth, args.tag or "LC-mlr")
    else:
        fuser = {"combsum": comb_sum, "combmnz": comb_mnz, "borda": borda}[args.method]
        fused = fuser(scored, args.depth, args.tag or args.method)
    _emit(_query_texts(fused), args.out)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    (run,) = _load_runs([args.run])
    qrels = _load_qrels(args.qrels)
    report = evaluate(run, qrels, _parse_queries(args.queries))
    _emit([report_csv(report)], args.csv)
    return 0


def _load_experiment(args: argparse.Namespace) -> tuple[list, Qrels, Qrels]:
    """The runs, official and training qrels (default: official) of xval, curve, compare."""
    runs = _load_runs(args.runs)
    official = _load_qrels(args.qrels)
    training = official if args.training_qrels is None else _load_qrels(args.training_qrels)
    return runs, official, training


def _cmd_xval(args: argparse.Namespace) -> int:
    runs, official, training = _load_experiment(args)
    result = harness.cross_validated_fusion(
        runs, training, official, args.constant, args.depth
    )
    if args.out_run is not None:
        _emit(_query_texts(result.fused), args.out_run)
    _emit([report_csv(result.report)], args.csv)
    return 0


def _compare(args: argparse.Namespace, methods: Sequence[str]) -> int:
    runs, official, training = _load_experiment(args)
    rows = harness.compare_methods(
        runs, training, official, methods, args.constant, args.depth
    )
    _emit([harness.curve_csv(rows)], args.out)
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    return _compare(args, ("LC-mlr",))


def _cmd_compare(args: argparse.Namespace) -> int:
    return _compare(args, [token.strip() for token in args.methods.split(",") if token.strip()])


def _cmd_group_eval(args: argparse.Namespace) -> int:
    (run,) = _load_runs([args.run])
    qrels = _load_qrels(args.qrels)
    mode, threshold = _parse_mode(args.mode)
    groups = harness.group_by_relcount(qrels, mode, threshold)
    reports = harness.grouped_eval(run, qrels, groups)
    _emit([harness.group_csv(reports)], args.out)
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    (run,) = _load_runs([args.run])
    full = _load_qrels(args.qrels)
    partials = [_load_qrels(path) for path in args.partials]
    rows = sensitivity_table(run, full, partials)
    _emit([sensitivity_csv(rows)], args.out)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    profile = None
    if args.qualities is not None:
        try:
            profile = [float(token) for token in args.qualities.split(",") if token]
        except ValueError:
            raise ValueError(
                f"--qualities {args.qualities!r} is not a comma list of numbers"
            ) from None
    runs, qrels = harness.generate_synthetic(
        args.seed,
        args.num_queries,
        args.num_systems,
        args.docs_per_query,
        args.relevant_per_query,
        profile,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    for run in runs:
        _emit(_query_texts(run), os.path.join(args.out_dir, f"{run.run_tag}.run"))
    _emit(_qrels_texts(qrels), os.path.join(args.out_dir, "full.qrels"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankfuse",
        description="Pool-based weight training, run fusion, and IR evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    def opt_constant(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--constant",
            type=float,
            default=DEFAULT_RECIPROCAL_CONSTANT,
            help="reciprocal rank-to-score constant (default 60)",
        )

    def opt_depth(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--depth",
            type=int,
            default=DEFAULT_OUTPUT_DEPTH,
            help="output depth of fused runs (default 1000)",
        )

    p = add("pool", _cmd_pool, "build pool-restricted partial qrels")
    p.add_argument("--runs", nargs="+", required=True, metavar="RUN")
    p.add_argument("--qrels", required=True, help="full qrels file")
    pick = p.add_mutually_exclusive_group(required=True)
    pick.add_argument("--depth", type=int, help="fixed pool depth")
    pick.add_argument(
        "--target-fraction",
        type=float,
        help="choose the depth whose relevant coverage is nearest this fraction",
    )
    p.add_argument("--out", help="output qrels path (default stdout)")

    p = add("sweep", _cmd_sweep, "relevant coverage per pool depth (CSV)")
    p.add_argument("--runs", nargs="+", required=True, metavar="RUN")
    p.add_argument("--qrels", required=True)
    p.add_argument("--depths", default="1:20", help="range LO:HI or comma list (default 1:20)")
    p.add_argument("--out", help="output CSV path (default stdout)")

    p = add("train", _cmd_train, "fit linear-combination weights (CSV)")
    p.add_argument("--runs", nargs="+", required=True, metavar="RUN")
    p.add_argument("--qrels", required=True, help="training qrels (full or partial)")
    p.add_argument("--queries", help="comma-separated training query ids (default: all)")
    opt_constant(p)
    p.add_argument("--out-weights", help="weights CSV path (default stdout)")

    p = add("fuse", _cmd_fuse, "fuse runs into one ranked list")
    p.add_argument("--runs", nargs="+", required=True, metavar="RUN")
    p.add_argument(
        "--method", choices=("lc", "combsum", "combmnz", "borda"), default="lc"
    )
    p.add_argument("--weights", help="weights CSV from 'train' (lc only)")
    p.add_argument("--tag", help="run tag of the fused output (default: method name)")
    opt_constant(p)
    opt_depth(p)
    p.add_argument("--out", help="output run path (default stdout)")

    p = add("eval", _cmd_eval, "per-query MAP/RP/P@10/P@20 report (CSV)")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--queries", help="comma-separated query ids (default: qrels queries)")
    p.add_argument("--csv", help="output CSV path (default stdout)")

    p = add("xval", _cmd_xval, "two-fold cross-validated LC fusion + report")
    p.add_argument("--runs", nargs="+", required=True, metavar="RUN")
    p.add_argument("--qrels", required=True, help="official qrels (evaluation standard)")
    p.add_argument("--training-qrels", help="qrels for weight training (default: official)")
    opt_constant(p)
    opt_depth(p)
    p.add_argument("--out-run", help="also write the fused run here")
    p.add_argument("--csv", help="report CSV path (default stdout)")

    p = add("curve", _cmd_curve, "incremental LC fusion curve over run prefixes")
    p.add_argument("--runs", nargs="+", required=True, metavar="RUN",
                   help="run files ordered best-first")
    p.add_argument("--qrels", required=True)
    p.add_argument("--training-qrels")
    opt_constant(p)
    opt_depth(p)
    p.add_argument("--out", help="output CSV path (default stdout)")

    p = add("compare", _cmd_compare, "fusion methods vs best component (CSV)")
    p.add_argument("--runs", nargs="+", required=True, metavar="RUN",
                   help="run files ordered best-first")
    p.add_argument("--qrels", required=True)
    p.add_argument("--training-qrels")
    p.add_argument(
        "--methods",
        default=",".join(harness.ALL_METHODS),
        help="comma list from: " + ", ".join(harness.ALL_METHODS),
    )
    opt_constant(p)
    opt_depth(p)
    p.add_argument("--out", help="output CSV path (default stdout)")

    p = add("group-eval", _cmd_group_eval, "per-group evaluation by relevant count")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--mode", default="tertiles", help="'tertiles' or 'threshold:<t>'")
    p.add_argument("--out", help="output CSV path (default stdout)")

    p = add("sensitivity", _cmd_sensitivity, "metric shifts under substituted qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True, help="full qrels")
    p.add_argument("--partials", nargs="+", required=True, metavar="QRELS")
    p.add_argument("--out", help="output CSV path (default stdout)")

    p = add("synth", _cmd_synth, "generate deterministic synthetic runs + qrels")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--num-queries", type=int, default=50)
    p.add_argument("--num-systems", type=int, default=10)
    p.add_argument("--docs-per-query", type=int, default=120)
    p.add_argument("--relevant-per-query", type=int, default=25)
    p.add_argument("--qualities", help="comma list of per-system qualities in [0,1]")
    p.add_argument("--out-dir", required=True)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand and return its exit code.

    Each distinct UserWarning message the command raises is printed once
    to stderr as ``warning: <message>``. Every warning is then raised
    again to the caller, so that its warning filters still see it. A
    BrokenPipeError, a reader of stdout that left, is raised to the
    caller, not printed: console() ends the program on it.
    """
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        try:
            code, error = args.func(args), None
        except Exception as exc:  # one diagnostic line, nonzero exit
            code, error = 1, exc
    notices = [str(w.message) for w in caught if issubclass(w.category, UserWarning)]
    for message in dict.fromkeys(notices):
        print(f"warning: {message}", file=sys.stderr)
    if error is not None and not isinstance(error, BrokenPipeError):
        print(f"error: {error}", file=sys.stderr)
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    if isinstance(error, BrokenPipeError):
        raise error
    return code


def console() -> int:
    """The ``rankfuse`` program: main(), with the UserWarnings it has printed
    not shown a second time in Python's own format, and stdout flushed.

    A reader of stdout that leaves early, during the command or before
    the flush, ends it with status 141 and no error line. Stdout's
    descriptor is then pointed at the null device (the recipe of
    Python's signal docs), so what its buffer still holds goes there at
    exit, not to a closed pipe."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # as a shell reports a program that SIGPIPE ends: 128 + 13
    return code


if __name__ == "__main__":
    sys.exit(console())
