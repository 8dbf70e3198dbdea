"""Fixed-depth pooling, partial qrels, and coverage sweeps."""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankfuse.pooling import (
    _entry_depths,
    build_pool,
    make_partial_qrels,
    pick_depth_for_fraction,
    pool_sweep,
    sweep_csv,
)
from rankfuse.trec import Qrels, Ranking, RunList, _doc_ids, parse_qrels, write_qrels


def _run(tag, queries):
    """queries: {query_id: [doc ids in rank order]}"""
    return RunList.from_scores(
        tag,
        {
            q: {doc: float(len(docs) - i) for i, doc in enumerate(docs)}
            for q, docs in queries.items()
        },
    )


def _random_setup(rng, num_runs=None):
    """Random small run set plus qrels over a shared doc universe."""
    num_runs = num_runs or int(rng.integers(2, 6))
    queries = [str(q) for q in range(1, int(rng.integers(2, 7)))]
    universe = [f"D{i:02d}" for i in range(25)]
    runs = []
    for r in range(num_runs):
        per_query = {}
        for q in queries:
            picks = rng.permutation(25)[: rng.integers(1, 15)]
            per_query[q] = [universe[i] for i in picks]
        runs.append(_run(f"s{r}", per_query))
    grades = {
        q: {doc: int(rng.random() < 0.3) for doc in universe if rng.random() < 0.6}
        for q in queries
    }
    return runs, Qrels(grades)


def test_build_pool_union_example():
    runs = [_run("r1", {"q": ["a", "b"]}), _run("r2", {"q": ["b", "c"]})]
    assert build_pool(runs, 2).for_query("q") == {"a", "b", "c"}


def test_build_pool_short_run_contributes_all():
    runs = [_run("r1", {"q": ["a", "b", "c", "d", "e"]})]
    assert build_pool(runs, 50).for_query("q") == {"a", "b", "c", "d", "e"}


def test_build_pool_validates_inputs():
    with pytest.raises(ValueError):
        build_pool([], 2)
    with pytest.raises(ValueError):
        build_pool([_run("r", {"q": ["a"]})], 0)


def test_pool_prefix_monotone_randomized():
    rng = np.random.default_rng(3)
    for _ in range(20):
        runs, _ = _random_setup(rng)
        for query_id in build_pool(runs, 1).query_ids:
            previous = frozenset()
            for depth in range(1, 16):
                current = build_pool(runs, depth).for_query(query_id)
                assert previous <= current
                previous = current


def test_make_partial_qrels_restriction_example():
    runs = [_run("r", {"q": ["a", "b"]})]
    full = Qrels({"q": {"a": 1, "b": 0, "c": 1}})
    partial = make_partial_qrels(build_pool(runs, 2), full)
    assert partial.grades_for("q") == {"a": 1, "b": 0}
    assert partial.relevant_count("q") == 1
    assert full.relevant_count("q") == 2
    assert partial.name == "depth2"


def test_make_partial_qrels_unjudged_doc_gets_zero():
    runs = [_run("r", {"q": ["a", "x"]})]
    full = Qrels({"q": {"a": 1}})
    partial = make_partial_qrels(build_pool(runs, 2), full)
    assert partial.grade("q", "x") == 0
    assert "x" in partial.grades_for("q")


def test_make_partial_qrels_warns_on_unjudged_query():
    runs = [_run("r", {"q1": ["a"], "q2": ["b"]})]
    full = Qrels({"q1": {"a": 1}})
    with pytest.warns(UserWarning, match="no judgments"):
        partial = make_partial_qrels(build_pool(runs, 1), full)
    assert partial.grades_for("q2") == {"b": 0}


def test_a_query_with_an_empty_pool_gets_no_entry_and_the_partial_survives_a_round_trip():
    run = RunList(
        "t",
        {"1": Ranking(("a", "b"), (2.0, 1.0)), "2": Ranking((), ()), "3": Ranking((), ())},
    )
    # query 2 is judged and query 3 is not; neither has a pooled doc
    full = Qrels({"1": {"a": 1}, "2": {"x": 1}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # query 3 is not reported as unjudged
        partial = make_partial_qrels(build_pool([run], 1), full)
    assert partial.grades == {"1": {"a": 1}}
    assert partial.query_ids == ["1"]
    assert parse_qrels(write_qrels(partial).splitlines(), name=partial.name) == partial


def test_make_partial_qrels_idempotent():
    rng = np.random.default_rng(11)
    runs, full = _random_setup(rng)
    pool = build_pool(runs, 4)
    once = make_partial_qrels(pool, full)
    twice = make_partial_qrels(pool, once)
    assert twice == once


def test_pool_saturation_equals_full_when_everything_pooled():
    full = Qrels({"q": {"a": 1, "b": 1, "c": 0}})
    runs = [_run("r", {"q": ["a", "b", "c"]})]
    partial = make_partial_qrels(build_pool(runs, 3), full)
    assert partial.relevant_count("q") == full.relevant_count("q")


def test_pool_sweep_against_brute_force():
    """Sweep counts must equal recounting relevant docs in an explicitly
    rebuilt pool at every depth."""
    rng = np.random.default_rng(5)
    for _ in range(15):
        runs, full = _random_setup(rng)
        depths = list(range(1, 16))
        rows = pool_sweep(runs, full, depths)
        total = full.total_relevant()
        for row in rows:
            partial = make_partial_qrels(build_pool(runs, row.depth), full)
            expected = partial.total_relevant()
            assert row.relevant_count == expected
            expected_pct = 100.0 * expected / total if total else 0.0
            assert row.percent == pytest.approx(expected_pct, abs=1e-12)


def test_pool_sweep_monotone_and_saturating():
    rng = np.random.default_rng(9)
    for _ in range(10):
        runs, full = _random_setup(rng)
        max_len = max(len(e) for run in runs for e in run.by_query.values())
        rows = pool_sweep(runs, full, range(1, max_len + 3))
        counts = [row.relevant_count for row in rows]
        assert counts == sorted(counts)
        percents = [row.percent for row in rows]
        assert percents == sorted(percents)
        # beyond the longest list nothing new can enter the pool
        assert counts[max_len - 1] == counts[-1]
        assert counts[-1] <= full.total_relevant()


def test_pool_sweep_top1_relevant_construction():
    # every run's top doc is relevant, so depth 1 already finds one per query
    runs = [_run("r1", {"1": ["a", "x"], "2": ["b", "y"]})]
    full = Qrels({"1": {"a": 1, "x": 1}, "2": {"b": 1}})
    rows = pool_sweep(runs, full, [1])
    assert rows[0].relevant_count >= 2


def test_pool_sweep_validates_depths():
    runs = [_run("r", {"q": ["a"]})]
    with pytest.raises(ValueError):
        pool_sweep(runs, Qrels({}), [])
    with pytest.raises(ValueError):
        pool_sweep(runs, Qrels({}), [0, 1])


def test_pool_sweep_zero_total_relevant():
    runs = [_run("r", {"q": ["a"]})]
    rows = pool_sweep(runs, Qrels({"q": {"a": 0}}), [1])
    assert rows[0].percent == 0.0


def test_pick_depth_known_fraction_curve():
    """Coverage fractions 0.10/0.19/0.30 at depths 1/2/3; target 0.20
    must pick depth 2. Verified against explicit enumeration."""
    # one query, 100 relevant docs; lists are 3 deep over 11 runs with
    # disjoint tails arranged to cover 10, then 19, then 30 relevant
    relevant = [f"R{i:03d}" for i in range(100)]
    full = Qrels({"q": {doc: 1 for doc in relevant}})
    runs = []
    for r in range(11):
        if r < 10:
            docs = [relevant[r], relevant[10 + r] if r < 9 else "junkA", relevant[19 + r]]
        else:
            docs = ["junkB", "junkC", relevant[29]]
        runs.append(_run(f"s{r}", {"q": docs}))
    rows = pool_sweep(runs, full, [1, 2, 3])
    assert [row.relevant_count for row in rows] == [10, 19, 30]

    depth, achieved = pick_depth_for_fraction(runs, full, 0.20)
    assert (depth, achieved) == (2, 0.19)

    # brute-force argmin over the enumerated curve agrees
    curve = {row.depth: row.relevant_count / 100 for row in rows}
    best = min(curve, key=lambda d: (abs(curve[d] - 0.20), d))
    assert best == depth


def test_pick_depth_tie_prefers_smaller():
    # fractions 0.25 at depth 1 and 0.75 at depth 2: equidistant from 0.5
    full = Qrels({"q": {"a": 1, "b": 1, "c": 1, "d": 1}})
    runs = [_run("r1", {"q": ["a", "b"]}), _run("r2", {"q": ["a", "c"]})]
    depth, achieved = pick_depth_for_fraction(runs, full, 0.5)
    assert (depth, achieved) == (1, 0.25)


def test_pick_depth_saturation_target_one():
    rng = np.random.default_rng(13)
    runs, full = _random_setup(rng)
    pooled_all = make_partial_qrels(build_pool(runs, 100), full)
    depth, achieved = pick_depth_for_fraction(runs, full, 1.0)
    assert achieved == pytest.approx(pooled_all.total_relevant() / full.total_relevant())


def test_pick_depth_validates_inputs():
    runs = [_run("r", {"q": ["a"]})]
    with pytest.raises(ValueError):
        pick_depth_for_fraction(runs, Qrels({}), 0.0)
    with pytest.raises(ValueError):
        pick_depth_for_fraction(runs, Qrels({}), 1.5)
    with pytest.raises(ValueError, match="no ranked documents"):
        pick_depth_for_fraction([RunList("t", {})], Qrels({}), 0.5)


def test_partial_never_exceeds_full_per_query():
    rng = np.random.default_rng(17)
    for _ in range(10):
        runs, full = _random_setup(rng)
        for depth in (1, 3, 7):
            partial = make_partial_qrels(build_pool(runs, depth), full)
            for query_id in partial.query_ids:
                assert partial.relevant_count(query_id) <= full.relevant_count(query_id)


def test_sweep_csv_layout():
    rows = pool_sweep([_run("r", {"q": ["a", "b"]})], Qrels({"q": {"a": 1, "b": 1}}), [1, 2])
    assert sweep_csv(rows) == "depth,relevant_count,percent\n1,1,50.00\n2,2,100.00\n"


def test_pool_sweep_refuses_no_runs_as_build_pool_does():
    message = "^need at least one run to build a pool$"
    with pytest.raises(ValueError, match=message):
        build_pool([], 1)
    with pytest.raises(ValueError, match=message):
        pool_sweep([], Qrels({"q": {"a": 1}}), [1, 2])
    # runs with no entries are runs: every row covers nothing
    rows = pool_sweep([RunList("t", {})], Qrels({"q": {"a": 1}}), [1, 5])
    assert [(r.depth, r.relevant_count, r.percent) for r in rows] == [(1, 0, 0.0), (5, 0, 0.0)]


def test_pool_sweep_memory_grows_with_the_pool_not_the_deepest_depth():
    runs = [_run("r", {"q": ["a", "b"]})]
    full = Qrels({"q": {"a": 1, "c": 1}})
    pool_sweep(runs, full, [1, 2])
    tracemalloc.start()
    try:
        rows = pool_sweep(runs, full, [1, 10**6])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(r.relevant_count, r.percent) for r in rows] == [(1, 50.0), (1, 50.0)]
    assert peak < 2**20


_QUERIES = ("1", "2", "3", "4")
_UNIVERSE = [f"D{i:02d}" for i in range(12)]


@st.composite
def _ragged_pooling(draw):
    """Ragged runs over queries 1-4 and a full qrels over the same doc ids.

    Every query draws its docs from one universe, so doc ids are shared
    across queries. The first run lacks query 4 and ranks nothing for
    query 3. Query 1 or 2 has R(q) = 0, and D99, which no run ranks, is
    relevant for query 4 and query 5, which no run ranks either.
    """
    runs = []
    for r in range(draw(st.integers(1, 4), label="runs")):
        per_query = {}
        for query_id in _QUERIES[:3] if r == 0 else _QUERIES:
            docs = draw(st.lists(st.sampled_from(_UNIVERSE), unique=True, max_size=12))
            if r == 0 and query_id == "3":
                docs = []
            per_query[query_id] = {doc: float(len(docs) - i) for i, doc in enumerate(docs)}
        runs.append(RunList.from_scores(f"s{r}", per_query))
    unjudged = draw(st.sampled_from(_QUERIES[:2]), label="R(q) = 0")
    grades = {
        query_id: {
            doc: draw(st.integers(0, 2)) * (query_id != unjudged)
            for doc in draw(st.lists(st.sampled_from(_UNIVERSE), unique=True))
        }
        for query_id in _QUERIES
    }
    grades["4"]["D99"] = 1
    grades["5"] = {"D99": 1, "D00": 1}
    return runs, Qrels(grades), draw(st.floats(0.0, 1.0, exclude_min=True), label="target")


@settings(deadline=None, max_examples=200)
@given(_ragged_pooling())
def test_pooling_equals_per_doc_loops_over_ragged_runs(case):
    runs, full, target = case
    assert "4" not in runs[0].by_query and not len(runs[0].by_query["3"])
    least: dict[str, dict[str, int]] = {}
    for run in runs:
        for query_id in run.by_query:
            per_query = least.setdefault(query_id, {})
            for rank, doc in enumerate(run.docs(query_id), start=1):
                per_query[doc] = min(rank, per_query.get(doc, rank))
    longest = max(len(ranking) for run in runs for ranking in run.by_query.values())
    counts = {}
    for depth in range(1, longest + 3):
        table = _entry_depths(runs, depth)
        assert list(table) == list(least)
        for query_id, (codes, depths) in table.items():
            assert np.all(codes[1:] > codes[:-1])
            expected = {doc: d for doc, d in least[query_id].items() if d <= depth}
            got = dict(zip(_doc_ids(codes), depths.tolist()))
            assert got == expected
        pool = build_pool(runs, depth)
        assert pool.docs == {
            query_id: frozenset(doc for run in runs for doc in run.docs(query_id)[:depth])
            for query_id in least
        }
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            counts[depth] = make_partial_qrels(pool, full).total_relevant()
        (row,) = pool_sweep(runs, full, [depth])
        assert (row.depth, row.relevant_count) == (depth, counts[depth])
    rows = pool_sweep(runs, full, counts)
    assert [(row.depth, row.relevant_count) for row in rows] == list(counts.items())
    total = full.total_relevant()
    fractions = {depth: count / total if total else 0.0 for depth, count in counts.items()}
    if not longest:
        with pytest.raises(ValueError, match="no ranked documents"):
            pick_depth_for_fraction(runs, full, target)
        return
    best = min(range(1, longest + 1), key=lambda d: (abs(fractions[d] - target), d))
    assert pick_depth_for_fraction(runs, full, target) == (best, fractions[best])
