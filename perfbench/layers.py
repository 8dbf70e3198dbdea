"""Per-layer metrics of rankfuse, taken from the spans of traced iterations.

The layers are the package's modules. Each ``_s`` metric is busy self time
per iteration: a span's duration minus the time its traced children took,
summed over the spans of one function. ``cli.<command>_s`` is instead the
whole time of that subcommand, and ``cli.self_s`` the CLI's own self time
(argument parsing, ``_emit``, the run-tag check). Counts are exact per
iteration. A ratio whose base is zero, because the layer was not called,
reads 0. Which end-to-end metric each of these should move, and on which
workload, is set out in README.md.
"""

from __future__ import annotations

from .tracer import COUNT_SPAN, Counts, Span, covered_length

PACKAGE = "rankfuse"
LAYERS = ("trec", "pooling", "fusion", "regression", "evaluation", "harness", "cli")

# metric -> the function whose spans' self time it sums
SELF_TIME = {
    "trec.parse_run_s": "trec.parse_run",
    "trec.parse_qrels_s": "trec.parse_qrels",
    "trec.write_run_s": "trec.write_run",
    "trec.write_qrels_s": "trec.write_qrels",
    "pooling.pick_depth_for_fraction_s": "pooling.pick_depth_for_fraction",
    "pooling.build_pool_s": "pooling.build_pool",
    "pooling.make_partial_qrels_s": "pooling.make_partial_qrels",
    "pooling.pool_sweep_s": "pooling.pool_sweep",
    "fusion.comb_sum_s": "fusion.comb_sum",
    "fusion.comb_mnz_s": "fusion.comb_mnz",
    "fusion.borda_s": "fusion.borda",
    "fusion.linear_combine_s": "fusion.linear_combine",
    "fusion.normalize_reciprocal_s": "fusion.normalize_reciprocal",
    "regression.assemble_matrix_s": "regression.assemble_matrix",
    "regression.solve_ols_s": "regression.solve_ols",
    "evaluation.evaluate_s": "evaluation.evaluate",
    "harness.cross_validated_fusion_self_s": "harness.cross_validated_fusion",
    "harness.compare_methods_self_s": "harness.compare_methods",
    "harness.incremental_fusion_curve_self_s": "harness.incremental_fusion_curve",
}
# metric -> the subcommand handler whose time, with its callees', it sums
CLI_COMMANDS = {
    f"cli.{command}_s": f"cli._cmd_{command}"
    for command in ("pool", "xval", "eval", "sensitivity", "curve", "compare")
}
COMMAND_OF = {handler: metric for metric, handler in CLI_COMMANDS.items()}
# metric -> the function whose calls it counts
CALLS = {
    "trec.parse_run_calls": "trec.parse_run",
    "fusion.normalize_reciprocal_calls": "fusion.normalize_reciprocal",
    "regression.solves": "regression.solve_ols",
    "evaluation.evaluate_calls": "evaluation.evaluate",
}
FUSERS = ("fusion.linear_combine", "fusion.comb_sum", "fusion.comb_mnz", "fusion.borda")
# Traced in the set-up phase, not in the iterations.
SETUP_FUNCTION = "harness.generate_synthetic"

UNITS = {"_s": "s", "_ratio": "ratio", "_entry": "B", "_coverage": "ratio"}

# Every per-layer metric in report order.
PER_LAYER = (
    "trec.parse_run_s",
    "trec.parse_run_calls",
    "trec.parse_run_lines",
    "trec.parse_qrels_s",
    "trec.bytes_per_entry",
    "trec.write_run_s",
    "trec.write_run_lines",
    "trec.write_qrels_s",
    "trec.roundtrip_changed_queries",
    "pooling.pick_depth_for_fraction_s",
    "pooling.build_pool_s",
    "pooling.make_partial_qrels_s",
    "pooling.pool_sweep_s",
    "fusion.comb_sum_s",
    "fusion.comb_mnz_s",
    "fusion.borda_s",
    "fusion.candidates",
    "fusion.linear_combine_s",
    "fusion.normalize_reciprocal_s",
    "fusion.normalize_reciprocal_calls",
    "fusion.normalize_useful_ratio",
    "regression.assemble_matrix_s",
    "regression.rows",
    "regression.row_useful_ratio",
    "regression.solve_ols_s",
    "regression.solves",
    "regression.ridge_fallbacks",
    "evaluation.evaluate_s",
    "evaluation.evaluate_calls",
    "evaluation.queries",
    "harness.cross_validated_fusion_self_s",
    "harness.compare_methods_self_s",
    "harness.incremental_fusion_curve_self_s",
    "harness.generate_synthetic_s",
    *CLI_COMMANDS,
    "cli.self_s",
    "trace.overhead_s",
    "trace.wall_s",
    "trace.span_coverage",
)


def unit(metric: str) -> str:
    for suffix, name in UNITS.items():
        if metric.endswith(suffix):
            return name
    return "count"


def expected_functions() -> set[str]:
    """Functions the metrics name; a missing one is reported as absent."""
    return {
        *SELF_TIME.values(), *CLI_COMMANDS.values(), *CALLS.values(), *FUSERS,
        SETUP_FUNCTION, "cli.main",
    }


def _docs(system, query_id: str):
    docs = getattr(system, "docs", None)  # RunList; a ScoredList keeps a score map
    return docs(query_id) if docs is not None else system.scores.get(query_id, {})


def _count_candidates(counts: Counts, args: dict, result) -> None:
    systems = args.get("scored", args.get("runs"))
    queries = args.get("queries")
    if queries is None:
        queries = {query_id for system in systems for query_id in system.query_ids}
    for query_id in set(queries):
        union: set[str] = set()
        for system in systems:
            union.update(_docs(system, query_id))
        counts.add("fusion.candidates", len(union))


def _count_normalize(counts: Counts, args: dict, result) -> None:
    counts.distinct("fusion.normalize_reciprocal", (args["run"].run_tag, args["constant"]))


def _count_rows(counts: Counts, args: dict, result) -> None:
    fold = tuple(args["queries"])
    counts.add("regression.rows", result.num_rows)
    for query_id, doc_id in result.keys:
        counts.distinct("regression.rows", (fold, query_id, doc_id))


def _count_solve(counts: Counts, args: dict, result) -> None:
    if result.regularized and args["ridge_epsilon"] == 0:
        counts.add("regression.ridge_fallbacks")


COUNTERS = {
    "trec.parse_run": lambda c, a, r: c.add("trec.parse_run_lines", r.num_entries()),
    "trec.write_run": lambda c, a, r: c.add("trec.write_run_lines", r.count("\n")),
    "fusion.normalize_reciprocal": _count_normalize,
    **{name: _count_candidates for name in FUSERS},
    "regression.assemble_matrix": _count_rows,
    "regression.solve_ols": _count_solve,
    "evaluation.evaluate": lambda c, a, r: c.add("evaluation.queries", len(r.per_query)),
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def iteration_metrics(
    spans: list[Span], self_s: list[float], first: int, counts: Counts, start: float, end: float
) -> dict[str, float]:
    """Per-layer metrics of one iteration, from its spans and counts.

    ``spans`` are the iteration's spans, ``first`` the index of the first
    of them in the tracer's list (parents are indices into that list), and
    ``self_s`` their self times. ``start`` and ``end`` bound the iteration,
    so that the share of it the outermost spans cover can be reported.
    """
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    cli_self = 0.0
    roots = []
    # The subcommand handler each span runs under, if any.
    handler: list[str | None] = []
    for span, own in zip(spans, self_s):
        by_name[span.name] = by_name.get(span.name, 0.0) + own
        calls[span.name] = calls.get(span.name, 0) + 1
        if span.name.startswith("cli."):
            cli_self += own
        if span.parent is None:
            if span.name != COUNT_SPAN:
                roots.append((span.start, span.end))
            handler.append(None)
        else:
            handler.append(handler[span.parent - first])
        if span.name in COMMAND_OF:
            handler[-1] = span.name
    whole = dict.fromkeys(CLI_COMMANDS, 0.0)
    for span, own, under in zip(spans, self_s, handler):
        if under is not None and span.name != COUNT_SPAN:
            whole[COMMAND_OF[under]] += own
    totals = counts.totals
    normalized = calls.get("fusion.normalize_reciprocal", 0)
    return {
        **{metric: by_name.get(name, 0.0) for metric, name in SELF_TIME.items()},
        **whole,
        "cli.self_s": cli_self,
        **{metric: float(calls.get(name, 0)) for metric, name in CALLS.items()},
        "trec.parse_run_lines": totals["trec.parse_run_lines"],
        "trec.write_run_lines": totals["trec.write_run_lines"],
        "fusion.candidates": totals["fusion.candidates"],
        "fusion.normalize_useful_ratio": _ratio(
            len(counts.keys["fusion.normalize_reciprocal"]), normalized
        ),
        "regression.rows": totals["regression.rows"],
        "regression.row_useful_ratio": _ratio(
            len(counts.keys["regression.rows"]), totals["regression.rows"]
        ),
        "regression.ridge_fallbacks": totals["regression.ridge_fallbacks"],
        "evaluation.queries": totals["evaluation.queries"],
        "trace.wall_s": end - start,
        "trace.span_coverage": _ratio(covered_length(start, end, roots), end - start),
    }

