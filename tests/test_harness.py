"""Cross-validation protocol, grouping, curves, and the generator."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankfuse import harness
from rankfuse.evaluation import evaluate
from rankfuse.fusion import borda, comb_mnz, comb_sum, linear_combine, normalize_reciprocal
from rankfuse.harness import (
    FUSION_METHODS,
    FoldSplit,
    FusionCurveRow,
    compare_methods,
    cross_validated_fusion,
    curve_csv,
    generate_synthetic,
    group_by_relcount,
    group_csv,
    grouped_eval,
    split_odd_even,
)
from rankfuse.regression import assemble_matrix, solve_ols
from rankfuse.trec import Qrels, RunList, write_qrels, write_run


def _run_from_docs(tag, per_query):
    return RunList.from_scores(
        tag,
        {
            q: {doc: float(len(docs) - i) for i, doc in enumerate(docs)}
            for q, docs in per_query.items()
        },
    )


def test_split_odd_even_numeric():
    split = split_odd_even(["302", "304", "301", "303"])
    assert split.partition_a == ("301", "303")
    assert split.partition_b == ("302", "304")


def test_split_odd_even_odd_cardinality():
    split = split_odd_even(["1", "2", "3"])
    assert split.partition_a == ("1", "3")
    assert split.partition_b == ("2",)


def test_split_odd_even_lexicographic_fallback():
    split = split_odd_even(["qd", "qb", "qa", "qc"])
    assert split.partition_a == ("qa", "qc")
    assert split.partition_b == ("qb", "qd")


def test_split_requires_two_queries():
    with pytest.raises(ValueError):
        split_odd_even(["only"])


def test_fold_split_rejects_overlap():
    with pytest.raises(ValueError):
        FoldSplit(("1", "2"), ("2", "3"))


def test_xval_identical_runs_preserve_ranking():
    runs, qrels = generate_synthetic(3, 6, 1, 25, 6)
    twin = RunList("copy", runs[0].by_query)
    result = cross_validated_fusion([runs[0], twin], qrels, qrels)
    for query_id in runs[0].query_ids:
        assert result.fused.docs(query_id) == runs[0].docs(query_id)


def test_xval_perfect_system_outweighs_random():
    runs, qrels = generate_synthetic(
        5, num_queries=20, num_systems=2, docs_per_query=40,
        relevant_per_query=8, system_quality_profile=[1.0, 0.0],
    )
    result = cross_validated_fusion(runs, qrels, qrels)
    assert result.weights_a.weights[0] > result.weights_a.weights[1]
    assert result.weights_b.weights[0] > result.weights_b.weights[1]


def test_xval_fuses_every_query_and_evaluates_official():
    runs, qrels = generate_synthetic(9, 10, 3, 30, 6)
    partial = Qrels(
        {q: dict(list(qrels.grades[q].items())[:2]) for q in qrels.grades},
        name="partial",
    )
    result = cross_validated_fusion(runs, partial, qrels)
    assert result.fused.query_ids == qrels.query_ids
    assert result.report.qrels_name == qrels.name  # official, not training
    assert set(result.split.partition_a) | set(result.split.partition_b) == set(
        qrels.query_ids
    )


def test_xval_deterministic_bytes():
    runs, qrels = generate_synthetic(13, 8, 3, 30, 6)
    first = cross_validated_fusion(runs, qrels, qrels)
    second = cross_validated_fusion(runs, qrels, qrels)
    assert write_run(first.fused) == write_run(second.fused)


def test_xval_no_training_leak_from_test_fold():
    """Poisoning fold B's training judgments must change neither the
    weights trained on fold A nor fold B's fused rankings."""
    runs, qrels = generate_synthetic(17, 12, 3, 30, 6)
    clean = cross_validated_fusion(runs, qrels, qrels)
    poisoned_grades = {q: dict(g) for q, g in qrels.grades.items()}
    for query_id in clean.split.partition_b:
        poisoned_grades[query_id] = {
            doc: 1 - grade for doc, grade in poisoned_grades[query_id].items()
        }
    poisoned = cross_validated_fusion(runs, Qrels(poisoned_grades), qrels)
    np.testing.assert_array_equal(
        poisoned.weights_a.weights, clean.weights_a.weights
    )
    assert poisoned.weights_a.intercept == clean.weights_a.intercept
    for query_id in clean.split.partition_b:
        assert poisoned.fused.docs(query_id) == clean.fused.docs(query_id)


def test_xval_training_failure_names_fold():
    # fold A's queries (1, 3) never appear in the runs, so its training
    # matrix is empty
    runs = [
        _run_from_docs("r1", {"2": ["a", "b"], "4": ["c"]}),
        _run_from_docs("r2", {"2": ["b"], "4": ["a", "c"]}),
    ]
    official = Qrels({"1": {"a": 1}, "2": {"a": 1}, "3": {"a": 1}, "4": {"c": 1}})
    with pytest.raises(RuntimeError, match="fold A"):
        cross_validated_fusion(runs, official, official)


def test_xval_warns_on_a_fold_without_relevant_labels():
    runs, qrels = generate_synthetic(19, 6, 2, 20, 4)
    split = split_odd_even(qrels.query_ids)
    training = Qrels({
        q: {d: (0 if q in split.partition_a else g) for d, g in grades.items()}
        for q, grades in qrels.grades.items()
    })
    with pytest.warns(UserWarning, match=r"fold A \(2 systems\): no training label is relevant"):
        result = cross_validated_fusion(runs, training, qrels)
    assert result.weights_a.degenerate and not result.weights_b.degenerate
    for query_id in split.partition_b:  # zero weights: doc-id order
        assert result.fused.docs(query_id) == tuple(sorted(runs[0].docs(query_id)))


def test_xval_warns_on_a_regularized_fold():
    runs, qrels = generate_synthetic(3, 6, 1, 25, 6)
    twin = RunList("copy", runs[0].by_query)
    with pytest.warns(UserWarning, match=r"fold B \(2 systems\): the design is rank-deficient"):
        result = cross_validated_fusion([runs[0], twin], qrels, qrels)
    assert result.weights_b.regularized


def test_xval_requires_two_runs():
    runs, qrels = generate_synthetic(1, 4, 1, 10, 3)
    with pytest.raises(ValueError):
        cross_validated_fusion(runs, qrels, qrels)


@pytest.mark.parametrize("experiment", [
    lambda runs, qrels: cross_validated_fusion(runs, qrels, qrels),
    lambda runs, qrels: compare_methods(runs, qrels, qrels, methods=["LC-mlr"]),
], ids=["xval", "curve"])
def test_cross_validation_requires_two_queries(experiment):
    runs, qrels = generate_synthetic(1, 4, 2, 10, 3)
    one_query = Qrels({"301": qrels.grades["301"]})
    with pytest.raises(ValueError, match="cross-validation needs at least 2 queries"):
        experiment(runs, one_query)


def test_compare_methods_refuses_an_empty_query_set():
    # the methods that gave NaN rows here; LC-mlr would fail first on its folds
    runs, qrels = generate_synthetic(26, 6, 3, 20, 5)
    with pytest.raises(ValueError, match="query set must be non-empty"):
        compare_methods(runs, qrels, Qrels({}), methods=["combsum", "combmnz", "borda"])


def test_curve_row_per_prefix():
    runs, qrels = generate_synthetic(21, 8, 4, 30, 6)
    rows = compare_methods(runs, qrels, qrels, methods=["LC-mlr"])
    assert [row.num_systems for row in rows] == [2, 3, 4]
    assert all(row.method == "LC-mlr" for row in rows)


def test_curve_single_row_for_two_runs():
    runs, qrels = generate_synthetic(22, 6, 2, 20, 5)
    rows = compare_methods(runs, qrels, qrels, methods=["LC-mlr"])
    assert len(rows) == 1


def test_curve_flat_for_identical_systems():
    # duplicated system: every prefix fuses the same ranking
    runs, qrels = generate_synthetic(23, 6, 1, 25, 6)
    copies = [RunList(f"c{i}", runs[0].by_query) for i in range(4)]
    rows = compare_methods(copies, qrels, qrels, methods=["LC-mlr"])
    for metric in ("map", "rp", "p10", "p20"):
        values = {row.value(metric) for row in rows}
        assert len(values) == 1


def test_compare_methods_rows_and_baseline():
    runs, qrels = generate_synthetic(25, 10, 3, 30, 8)
    rows = compare_methods(runs, qrels, qrels)
    by_method = {}
    for row in rows:
        by_method.setdefault(row.method, []).append(row)
    assert sorted(by_method) == ["LC-mlr", "best-component", "borda", "combmnz", "combsum"]
    for method in ("LC-mlr", "combsum", "combmnz", "borda"):
        assert [r.num_systems for r in by_method[method]] == [2, 3]
    (baseline,) = by_method["best-component"]
    expected = evaluate(runs[0], qrels).mean_metrics()
    assert baseline.num_systems == 1
    assert baseline.map == expected["map"]
    assert baseline.p20 == expected["p20"]
    for row in rows:
        for metric in ("map", "rp", "p10", "p20"):
            assert row.value(metric) >= 0.0


def _prefix_runs():
    """Partial-overlap runs: each system drops a query with chance 0.2 (as
    ``_random_runs`` in test_fusion.py does), query 8 is ranked only by the
    last two systems and docs D30..D39 only by the last three."""
    rng = np.random.default_rng(52)
    runs = []
    for r in range(6):
        scores = {}
        for q in range(1, 9):
            if (q == 8 and r < 4) or rng.random() < 0.2:
                continue
            universe = 30 if r < 3 else 40
            picks = rng.permutation(universe)[: rng.integers(3, 16)]
            scores[str(q)] = {f"D{i:02d}": float(rng.integers(1, 1000)) for i in picks}
        runs.append(RunList.from_scores(f"s{r}", scores))
    official = Qrels({str(q): {f"D{i:02d}": int(i % 3 == 0) for i in range(0, 40, 2)}
                      for q in range(1, 9)}, name="official")
    training = Qrels({q: {d: g for d, g in grades.items() if d < "D20"}
                      for q, grades in official.grades.items()}, name="training")
    return runs, training, official


def _kept(fused, queries):
    """``fused`` with only ``queries`` kept, in ``fused``'s order."""
    return RunList(fused.run_tag, {q: r for q, r in fused.by_query.items() if q in queries})


def _per_prefix_public_rows(runs, training, official, constant, depth):
    """compare_methods' rows, rebuilt from the public calls one method and
    prefix at a time: normalize, train each fold's weights, fuse every
    query and keep the fold's (or the official queries), and evaluate.

    Each prefix's cross_validated_fusion is checked on the way against
    the public LC chain: each fold's weights, the fused run, and its
    fold order (fold A's queries, then fold B's).
    """
    queries = official.query_ids
    split = split_odd_even(queries)
    expected = []
    for method in FUSION_METHODS:
        for size in range(2, len(runs) + 1):
            scored = [normalize_reciprocal(run, constant) for run in runs[:size]]
            if method == "LC-mlr":
                weights_a = solve_ols(assemble_matrix(scored, training, split.partition_a))
                weights_b = solve_ols(assemble_matrix(scored, training, split.partition_b))
                fused_b = _kept(linear_combine(scored, weights_a, depth), split.partition_b)
                fused_a = _kept(linear_combine(scored, weights_b, depth), split.partition_a)
                fused = RunList("LC-mlr", {**fused_a.by_query, **fused_b.by_query})
                xval = cross_validated_fusion(runs[:size], training, official, constant, depth)
                for got, want in ((xval.weights_a, weights_a), (xval.weights_b, weights_b)):
                    assert got.weights.tolist() == want.weights.tolist()
                    assert (got.intercept, got.rss) == (want.intercept, want.rss)
                assert xval.fused == fused
                assert list(xval.fused.by_query) == list(fused.by_query)
            elif method == "combsum":
                fused = _kept(comb_sum(scored, depth), queries)
            elif method == "combmnz":
                fused = _kept(comb_mnz(scored, depth), queries)
            else:
                fused = _kept(borda(runs[:size], depth), queries)
            means = evaluate(fused, official, queries).mean_metrics()
            expected.append((method, size, *(means[m] for m in ("map", "rp", "p10", "p20"))))
    return expected


def test_compare_methods_equals_per_prefix_public_calls_exactly():
    runs, training, official = _prefix_runs()
    queries = official.query_ids
    assert not any(run.entries("8") for run in runs[:4])
    assert any("D35" in run.docs(q) for run in runs[3:] for q in queries)
    expected = _per_prefix_public_rows(runs, training, official, 7.5, 9)
    rows = compare_methods(runs, training, official, FUSION_METHODS, 7.5, 9)
    assert [(r.method, r.num_systems, r.map, r.rp, r.p10, r.p20) for r in rows] == expected


@st.composite
def _ragged_corpora(draw):
    """Runs, training and official qrels, constant and depth of a ragged corpus.

    Query 1 has one candidate, which every system ranks (up to 9 systems);
    query 2 is ranked by every system; the middle queries have candidate
    counts from 1 to 40 and may be skipped by any system; the last query is
    ranked by the last system alone, so no shorter prefix ranks it. One
    query has R(q) = 0 under the official qrels, and one fold may have no
    relevant training label. Scores tie often, so doc-id tie-breaks matter.
    """
    systems = draw(st.integers(2, 9), label="systems")
    widths = draw(st.lists(st.sampled_from((1, 2, 3, 12, 40)), min_size=1, max_size=4))
    queries = ["1", *(str(q) for q in range(2, len(widths) + 2)), str(len(widths) + 2)]
    score = st.integers(1, 5).map(float)

    def ranking(width, may_skip):
        docs = draw(st.sets(st.integers(0, width - 1), min_size=0 if may_skip else 1,
                            max_size=width))
        return {f"D{d:02d}": draw(score) for d in sorted(docs)}

    per_run = [{"1": {"D00": draw(score)}} for _ in range(systems)]
    for query_id, width in zip(queries[1:], widths):
        for scores in per_run:
            scores[query_id] = ranking(width, may_skip=query_id != "2")
    per_run[-1][queries[-1]] = ranking(draw(st.sampled_from((1, 12))), may_skip=False)
    runs = [RunList.from_scores(f"s{r}", {q: d for q, d in scores.items() if d})
            for r, scores in enumerate(per_run)]

    unjudged = draw(st.sampled_from(queries[1:]), label="R(q) = 0")
    official = {}
    for query_id in queries:
        grades = draw(st.lists(st.integers(0, 1), min_size=40, max_size=40))
        if query_id == unjudged:
            grades = [0] * 40
        official[query_id] = {f"D{d:02d}": g for d, g in enumerate(grades)}
    official["1"]["D00"] = 1
    zero_fold = draw(st.sampled_from((None, 0, 1)), label="all-zero-target fold")
    training = {
        query_id: {doc: g * (position % 2 != zero_fold) * draw(st.integers(0, 1))
                   for doc, g in grades.items()}
        for position, (query_id, grades) in enumerate(official.items())
    }
    constant = draw(st.sampled_from((0.5, 7.5, 60.0)))
    depth = draw(st.integers(1, 15), label="depth")
    return runs, Qrels(training, "training"), Qrels(official, "official"), constant, depth


@settings(deadline=None, max_examples=60)
@given(_ragged_corpora())
def test_batched_prefix_loop_equals_per_prefix_public_calls(corpus):
    runs, training, official, constant, depth = corpus
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        expected = _per_prefix_public_rows(runs, training, official, constant, depth)
        rows = compare_methods(runs, training, official, FUSION_METHODS, constant, depth)
    assert [(r.method, r.num_systems, r.map, r.rp, r.p10, r.p20) for r in rows] == expected


def test_best_component_alone_builds_no_rank_cube(monkeypatch):
    def no_cube(*args):
        raise AssertionError("rank cube built")

    monkeypatch.setattr(harness, "_rank_cube", no_cube)
    runs, qrels = generate_synthetic(26, 6, 3, 20, 5)
    (row,) = compare_methods(runs, qrels, qrels, methods=["best-component"])
    assert row == FusionCurveRow("best-component", 1, **evaluate(runs[0], qrels).mean_metrics())
    with pytest.raises(ValueError, match="at least 2 runs"):
        compare_methods(runs[:1], qrels, qrels, methods=["best-component"])
    with pytest.raises(ValueError, match="query set must be non-empty"):
        compare_methods(runs, qrels, Qrels({}), methods=["best-component"])


def test_compare_methods_subset_and_validation():
    runs, qrels = generate_synthetic(26, 6, 3, 20, 5)
    rows = compare_methods(runs, qrels, qrels, methods=["combsum"])
    assert {row.method for row in rows} == {"combsum"}
    with pytest.raises(ValueError, match="unknown methods"):
        compare_methods(runs, qrels, qrels, methods=["combsum", "median"])
    for methods in ([], ["combsum", "borda", "combsum"]):
        with pytest.raises(ValueError, match="must be non-empty and name each method once"):
            compare_methods(runs, qrels, qrels, methods=methods)


def test_curve_csv_layout():
    runs, qrels = generate_synthetic(27, 6, 2, 20, 5)
    text = curve_csv(compare_methods(runs, qrels, qrels, methods=["LC-mlr"]))
    lines = text.splitlines()
    assert lines[0] == "method,num_systems,map,rp,p10,p20"
    assert lines[1].startswith("LC-mlr,2,")


def _qrels_with_counts(counts):
    grades = {}
    for i, count in enumerate(counts):
        query_id = str(101 + i)
        grades[query_id] = {f"d{j:03d}": 1 for j in range(count)}
        grades[query_id]["pad"] = 0
    return Qrels(grades)


def test_tertiles_sizes_50_and_40():
    groups = group_by_relcount(_qrels_with_counts(range(1, 51)))
    assert [g.label for g in groups] == ["Low", "Middle", "High"]
    assert [len(g.query_ids) for g in groups] == [17, 16, 17]

    groups = group_by_relcount(_qrels_with_counts(range(1, 41)))
    assert [len(g.query_ids) for g in groups] == [13, 14, 13]

    groups = group_by_relcount(_qrels_with_counts(range(1, 43)))
    assert [len(g.query_ids) for g in groups] == [14, 14, 14]


def test_tertiles_ascending_mean_relevant():
    rng = np.random.default_rng(30)
    qrels = _qrels_with_counts(rng.integers(1, 60, size=25))
    low, middle, high = group_by_relcount(qrels)
    def mean_r(group):
        return np.mean([qrels.relevant_count(q) for q in group.query_ids])
    assert mean_r(low) <= mean_r(middle) <= mean_r(high)


def test_tertiles_need_three_queries():
    with pytest.raises(ValueError):
        group_by_relcount(_qrels_with_counts([1, 2]))


def test_threshold_grouping_inclusive_boundary():
    qrels = _qrels_with_counts([5, 10, 11])
    first, second = group_by_relcount(qrels, mode="threshold", threshold=10)
    assert first.label == "R<=10"
    assert first.query_ids == ("101", "102")
    assert second.query_ids == ("103",)


def test_group_mode_validated():
    with pytest.raises(ValueError, match="mode"):
        group_by_relcount(_qrels_with_counts([1, 2, 3]), mode="quartiles")


def test_grouped_eval_identity_partition():
    runs, qrels = generate_synthetic(31, 9, 1, 25, 6)
    run = runs[0]
    groups = group_by_relcount(qrels, mode="threshold", threshold=100)
    with pytest.warns(UserWarning, match="empty"):
        reports = grouped_eval(run, qrels, groups)
    # R>100 group is empty and skipped; the rest equals a plain evaluate
    assert [r.label for r in reports] == ["R<=100", "all"]
    plain = evaluate(run, qrels).mean_metrics()
    assert reports[0].report.mean_metrics() == plain
    assert reports[1].report.mean_metrics() == plain


def test_grouped_eval_means_recombine():
    runs, qrels = generate_synthetic(33, 12, 1, 30, 5)
    run = runs[0]
    groups = group_by_relcount(qrels)
    reports = grouped_eval(run, qrels, groups)
    parts = [r for r in reports if r.label != "all"]
    overall = next(r for r in reports if r.label == "all")
    for metric in ("map", "p10"):
        weighted = sum(
            len(r.report.per_query) * r.report.mean_metrics()[metric] for r in parts
        ) / sum(len(r.report.per_query) for r in parts)
        assert weighted == pytest.approx(overall.report.mean_metrics()[metric])
    assert overall.mean_relevant == pytest.approx(5.0)


def test_group_csv_layout():
    runs, qrels = generate_synthetic(34, 6, 1, 20, 4)
    reports = grouped_eval(runs[0], qrels, group_by_relcount(qrels))
    lines = group_csv(reports).splitlines()
    assert lines[0] == "group,num_queries,mean_relevant,map,rp,p10,p20"
    assert lines[1].startswith("Low,2,4.00,")
    assert lines[-1].startswith("all,6,4.00,")


def test_generate_synthetic_deterministic():
    first_runs, first_qrels = generate_synthetic(40, 5, 3, 25, 6)
    second_runs, second_qrels = generate_synthetic(40, 5, 3, 25, 6)
    assert write_qrels(first_qrels) == write_qrels(second_qrels)
    for a, b in zip(first_runs, second_runs):
        assert write_run(a) == write_run(b)
    for run in first_runs:  # built already canonical
        scores = {q: dict(zip(r.docs, r.scores)) for q, r in run.by_query.items()}
        assert run == RunList.from_scores(run.run_tag, scores)
    third_runs, _ = generate_synthetic(41, 5, 3, 25, 6)
    assert write_run(first_runs[0]) != write_run(third_runs[0])


def test_generate_synthetic_quality_one_is_perfect():
    runs, qrels = generate_synthetic(
        42, 10, 2, 30, 7, system_quality_profile=[1.0, 0.5]
    )
    report = evaluate(runs[0], qrels)
    assert report.mean_metrics()["map"] == 1.0
    assert report.mean_metrics()["rp"] == 1.0


def test_generate_synthetic_quality_orders_map():
    runs, qrels = generate_synthetic(
        43, 40, 3, 60, 12, system_quality_profile=[0.95, 0.5, 0.0]
    )
    maps = [evaluate(run, qrels).mean_metrics()["map"] for run in runs]
    assert maps[0] > maps[1] > maps[2]


def test_generate_synthetic_validation():
    with pytest.raises(ValueError):
        generate_synthetic(1, 5, 2, 10, 11)
    with pytest.raises(ValueError):
        generate_synthetic(1, 0, 2, 10, 5)
    with pytest.raises(ValueError):
        generate_synthetic(1, 5, 2, 10, 5, system_quality_profile=[0.5])


def test_generate_synthetic_refuses_a_nan_quality_and_reads_infinite_ones():
    with pytest.raises(ValueError, match=r"system_quality_profile\[1\] is NaN"):
        generate_synthetic(1, 4, 3, 20, 4, [0.5, np.nan, 0.0])
    # +inf is >= 1, perfect; -inf is <= 0, uniform
    assert generate_synthetic(1, 4, 2, 20, 4, [np.inf, -np.inf]) == generate_synthetic(
        1, 4, 2, 20, 4, [1.0, 0.0]
    )
