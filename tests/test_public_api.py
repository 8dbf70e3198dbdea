"""The public surface of ``rankfuse``, recorded name by name, so that a
change which adds or drops a public name or a defaulted option shows in
this file's diff."""

from __future__ import annotations

import inspect

import rankfuse

PUBLIC_NAMES = [
    "ALL_METHODS", "DEFAULT_OUTPUT_DEPTH", "DEFAULT_RECIPROCAL_CONSTANT",
    "DuplicateDocError", "EvalReport", "FUSION_METHODS", "FoldSplit", "FusionCurveRow",
    "GradeConflictError", "GroupReport", "METRICS", "MixedRunTagsError", "ParseError",
    "Pool", "Qrels", "QueryEval", "QueryGroup", "RIDGE_FALLBACK", "Ranking", "RunList",
    "ScoreMatrix", "SensitivityRow", "SweepRow", "TrecFormatError", "WeightVector",
    "XvalResult", "assemble_matrix", "average_precision", "borda", "build_pool",
    "comb_mnz", "comb_sum", "compare_methods", "cross_validated_fusion", "curve_csv",
    "evaluate", "format_variance", "generate_synthetic", "group_by_relcount", "group_csv",
    "grouped_eval", "linear_combine", "load_qrels", "load_run", "make_partial_qrels",
    "normalize_reciprocal", "objective_g", "parse_qrels", "parse_run", "percent_variance",
    "pick_depth_for_fraction", "pool_sweep", "precision_at", "r_precision", "report_csv",
    "save_qrels", "save_run", "sensitivity_csv", "sensitivity_table", "solve_ols",
    "sort_query_ids", "split_odd_even", "sweep_csv", "weights_from_csv", "weights_to_csv",
    "write_qrels", "write_run",
]

DEFAULTED_OPTIONS = [
    "borda(depth=)", "borda(run_tag=)",
    "comb_mnz(depth=)", "comb_mnz(run_tag=)",
    "comb_sum(depth=)", "comb_sum(run_tag=)",
    "compare_methods(methods=)", "compare_methods(constant=)", "compare_methods(depth=)",
    "cross_validated_fusion(constant=)", "cross_validated_fusion(depth=)",
    "evaluate(query_set=)",
    "generate_synthetic(system_quality_profile=)",
    "group_by_relcount(mode=)", "group_by_relcount(threshold=)",
    "linear_combine(depth=)", "linear_combine(run_tag=)",
    "normalize_reciprocal(constant=)",
    "parse_qrels(name=)",
    "solve_ols(ridge_epsilon=)",
]


def test_public_names_and_defaulted_options_are_the_recorded_ones():
    assert rankfuse.__all__ == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 67
    options = [
        f"{name}({parameter.name}=)"
        for name in rankfuse.__all__
        if inspect.isfunction(getattr(rankfuse, name))
        for parameter in inspect.signature(getattr(rankfuse, name)).parameters.values()
        if parameter.default is not inspect.Parameter.empty
    ]
    assert options == DEFAULTED_OPTIONS
    assert len(DEFAULTED_OPTIONS) == 20
