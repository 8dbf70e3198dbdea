"""Metric definitions, mean conventions, and sensitivity arithmetic."""

from __future__ import annotations

import math

import numpy as np
import pytest

from rankfuse.evaluation import (
    average_precision,
    evaluate,
    format_variance,
    percent_variance,
    precision_at,
    r_precision,
    report_csv,
    sensitivity_csv,
    sensitivity_table,
)
from rankfuse.trec import Qrels, RunList, parse_qrels, parse_run


def _list_of(n):
    return [f"d{i:02d}" for i in range(1, n + 1)]


def _run_from_docs(tag, per_query):
    return RunList.from_scores(
        tag,
        {
            q: {doc: float(len(docs) - i) for i, doc in enumerate(docs)}
            for q, docs in per_query.items()
        },
    )


def oracle_walk(docs, relevant, cutoff=None):
    """Recount precision from scratch at every prefix; O(n^2) on purpose."""
    if cutoff is not None:
        prefix = docs[:cutoff]
        return sum(1 for d in prefix if d in relevant) / cutoff
    total = len(relevant)
    if total == 0:
        return math.nan, math.nan
    precisions = []
    for i in range(1, len(docs) + 1):
        if docs[i - 1] in relevant:
            precisions.append(sum(1 for d in docs[:i] if d in relevant) / i)
    ap = sum(precisions) / total
    rp = sum(1 for d in docs[:total] if d in relevant) / total
    return ap, rp


def test_ap_worked_example_exact():
    # 20 docs, relevant at ranks 1 and 20: AP = (1 + 2/20)/2 = 0.55 exactly
    docs = _list_of(20)
    relevant = {docs[0], docs[19]}
    assert average_precision(docs, relevant) == 0.55
    # deleting the rank-20 label leaves R(q)=1 and a perfect prefix
    assert average_precision(docs, {docs[0]}) == 1.0


def test_ap_counts_unretrieved_relevant_in_denominator():
    docs = _list_of(4)
    assert average_precision(docs, {docs[0], "never-retrieved"}) == 0.5


def test_ap_no_relevant_retrieved():
    assert average_precision(_list_of(5), {"x", "y", "z"}) == 0.0


def test_ap_rp_undefined_when_no_relevant():
    assert math.isnan(average_precision(_list_of(3), frozenset()))
    assert math.isnan(r_precision(_list_of(3), frozenset()))


def test_rp_examples():
    docs = _list_of(6)
    assert r_precision(docs, {docs[0], "absent"}) == 0.5
    # list shorter than R: denominator stays R(q)
    assert r_precision(["a"], {"a", "b", "c"}) == pytest.approx(1 / 3)
    # perfect run: all R(q) relevant docs first
    assert r_precision(docs, set(docs[:4])) == 1.0


def test_precision_at_examples():
    docs = _list_of(10)
    assert precision_at(docs, set(docs[:3]), 10) == pytest.approx(0.3)
    # 5-doc list, all relevant, cutoff 10: denominator stays 10
    assert precision_at(_list_of(5), set(_list_of(5)), 10) == 0.5
    with pytest.raises(ValueError):
        precision_at(docs, set(), 0)


def test_metrics_in_unit_interval_randomized():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(1, 21))
        docs = [f"d{i}" for i in rng.permutation(30)[:n]]
        relevant = {f"d{i}" for i in rng.permutation(30)[: rng.integers(0, 6)]}
        for value in (
            average_precision(docs, relevant),
            r_precision(docs, relevant),
            precision_at(docs, relevant, 10),
            precision_at(docs, relevant, 20),
        ):
            assert math.isnan(value) or 0.0 <= value <= 1.0


def test_metrics_agree_with_oracle_randomized():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(1, 21))
        docs = [f"d{i}" for i in rng.permutation(30)[:n]]
        relevant = frozenset(f"d{i}" for i in rng.permutation(30)[: rng.integers(0, 6)])
        ap, rp = oracle_walk(docs, relevant)
        mine_ap = average_precision(docs, relevant)
        mine_rp = r_precision(docs, relevant)
        if math.isnan(ap):
            assert math.isnan(mine_ap) and math.isnan(mine_rp)
        else:
            assert abs(mine_ap - ap) <= 1e-12
            assert abs(mine_rp - rp) <= 1e-12
        for k in (10, 20):
            assert abs(precision_at(docs, relevant, k) - oracle_walk(docs, relevant, k)) <= 1e-12


def test_evaluate_single_query_worked_example():
    docs = _list_of(20)
    run = _run_from_docs("t", {"q": docs})
    report = evaluate(run, Qrels({"q": {docs[0]: 1, docs[19]: 1}}))
    assert report.mean_metrics()["map"] == 0.55


def test_evaluate_ignores_scores_and_tag():
    rng = np.random.default_rng(25)
    docs = _list_of(15)
    qrels = Qrels({"q": {docs[2]: 1, docs[7]: 1, "absent": 1}})
    base = _run_from_docs("a", {"q": docs})
    rescored = RunList.from_scores(
        "b", {"q": {doc: float(v) for doc, v in zip(docs, sorted(rng.uniform(1, 9, 15), reverse=True))}}
    )
    assert rescored.docs("q") == base.docs("q")
    assert evaluate(base, qrels).mean_metrics() == evaluate(rescored, qrels).mean_metrics()


def test_evaluate_missing_query_scores_zero_with_warning():
    run = _run_from_docs("t", {"1": _list_of(3)})
    qrels = Qrels({"1": {_list_of(3)[0]: 1}, "2": {"a": 1}})
    with pytest.warns(UserWarning, match="missing from run"):
        report = evaluate(run, qrels)
    row = {r.query_id: r for r in report.per_query}["2"]
    assert (row.ap, row.rp, row.p10, row.p20) == (0.0, 0.0, 0.0, 0.0)


def test_evaluate_reports_each_query_once_and_reads_any_digit_id():
    run = parse_run(["\u00b2 Q0 d1 1 1.0 t", "301 Q0 d1 1 1.0 t"])
    qrels = parse_qrels(["\u00b2 0 d1 1", "301 0 d1 1"])
    assert evaluate(run, qrels).query_ids == ["301", "\u00b2"]
    assert evaluate(run, qrels, ["301", "301"]).query_ids == ["301"]


def test_evaluate_requires_queries():
    run = _run_from_docs("t", {"1": ["a"]})
    with pytest.raises(ValueError):
        evaluate(run, Qrels({}))


def test_evaluate_r_zero_excluded_from_map_rp_means():
    """A query whose (partial) qrels kept no relevant docs drops out of
    the MAP/RP means but still counts for P@k."""
    run = _run_from_docs("t", {"1": ["a", "b"], "2": ["c", "d"]})
    qrels = Qrels({"1": {"a": 1}, "2": {"c": 0, "d": 0}})
    report = evaluate(run, qrels)
    means = report.mean_metrics()
    assert means["map"] == 1.0  # only query 1 counts
    assert means["rp"] == 1.0
    assert means["p10"] == pytest.approx((0.1 + 0.0) / 2)
    rows = {r.query_id: r for r in report.per_query}
    assert math.isnan(rows["2"].ap) and math.isnan(rows["2"].rp)


def test_evaluate_perfect_run_rp_one():
    rng = np.random.default_rng(31)
    relevant = [f"r{i}" for i in range(7)]
    docs = list(rng.permutation(relevant))
    run = _run_from_docs("t", {"q": docs})
    report = evaluate(run, Qrels({"q": {d: 1 for d in relevant}}))
    assert report.mean_metrics()["rp"] == 1.0


def test_report_csv_layout():
    run = _run_from_docs("t", {"1": ["a", "b"]})
    report = evaluate(run, Qrels({"1": {"a": 1}}))
    text = report_csv(report)
    lines = text.splitlines()
    assert lines[0] == "query_id,map,rp,p10,p20"
    assert lines[1].startswith("1,1.000000,1.000000,0.100000,0.050000")
    assert lines[2].startswith("__mean__,")


def test_percent_variance_worked_values():
    assert percent_variance(0.4230, 0.4366) == pytest.approx(3.2151, abs=1e-3)
    assert percent_variance(0.6540, 0.4458) == pytest.approx(-31.8349, abs=1e-3)
    assert format_variance(percent_variance(0.4230, 0.4366)) == "+3.22%"
    assert format_variance(percent_variance(0.6540, 0.4458)) == "-31.83%"
    assert math.isnan(percent_variance(0.0, 0.5))


def test_sensitivity_identity_partial():
    run = _run_from_docs("t", {"1": _list_of(8), "2": list(reversed(_list_of(8)))})
    full = Qrels({"1": {"d01": 1, "d05": 1}, "2": {"d02": 1}}, name="full")
    rows = sensitivity_table(run, full, [Qrels(full.grades, name="copy")])
    assert len(rows) == 4
    for row in rows:
        assert row.partial_value == row.full_value
        assert row.percent_variance == 0.0
        assert row.formatted_variance == "+0.00%"


def test_sensitivity_table_detects_map_increase_and_p20_decrease():
    """Restricting qrels can raise MAP while it can only lower P@k."""
    docs = _list_of(20)
    run = _run_from_docs("t", {"q": docs})
    full = Qrels({"q": {docs[0]: 1, docs[19]: 1}}, name="full")
    partial = Qrels({"q": {docs[0]: 1}}, name="pool")
    by_metric = {r.metric: r for r in sensitivity_table(run, full, [partial])}
    assert by_metric["map"].full_value == 0.55
    assert by_metric["map"].partial_value == 1.0
    assert by_metric["map"].percent_variance > 0
    assert by_metric["p20"].full_value == 0.10
    assert by_metric["p20"].partial_value == 0.05
    assert by_metric["p20"].formatted_variance == "-50.00%"


def test_sensitivity_csv_layout():
    docs = _list_of(20)
    run = _run_from_docs("t", {"q": docs})
    full = Qrels({"q": {docs[0]: 1, docs[19]: 1}}, name="full")
    partial = Qrels({"q": {docs[0]: 1}}, name="depth5")
    text = sensitivity_csv(sensitivity_table(run, full, [partial]))
    lines = text.splitlines()
    assert lines[0] == "qrels,map,map_variance,rp,rp_variance,p10,p10_variance,p20,p20_variance"
    assert lines[1] == "full,0.5500,,0.5000,,0.1000,,0.1000,"
    assert lines[2].startswith("depth5,1.0000,+81.82%,")
    assert lines[2].count(",") == 8
