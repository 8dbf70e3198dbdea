"""Reciprocal normalization and the four fusion methods."""

from __future__ import annotations

import gc
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankfuse import fusion, trec
from rankfuse.fusion import (
    _rank_cube,
    borda,
    comb_mnz,
    comb_sum,
    linear_combine,
    normalize_reciprocal,
)
from rankfuse.harness import compare_methods, cross_validated_fusion, generate_synthetic
from rankfuse.regression import WeightVector
from rankfuse.trec import Qrels, Ranking, RunEntry, RunList, _doc_ids, parse_run, write_run


def _run(tag, queries):
    return RunList.from_scores(
        tag,
        {
            q: {doc: float(len(docs) - i) for i, doc in enumerate(docs)}
            for q, docs in queries.items()
        },
    )


def _score(run, query_id, doc_id):
    """The run's score for one doc, 0.0 for docs it did not retrieve."""
    return {e.doc_id: e.raw_score for e in run.entries(query_id)}.get(doc_id, 0.0)


def _weights(tags, weights, intercept=0.0):
    return WeightVector(tuple(tags), intercept, np.asarray(weights, dtype=float))


def _random_runs(rng, num_runs=3, num_queries=3, universe=20, max_len=12, skip=0.0):
    """Random partial-overlap runs; each system drops a query with chance ``skip``."""
    runs = []
    for r in range(num_runs):
        scores = {}
        for q in range(1, num_queries + 1):
            if skip and rng.random() < skip:
                continue
            picks = rng.permutation(universe)[: rng.integers(2, max_len)]
            scores[str(q)] = {f"D{i:02d}": float(rng.integers(1, 1000)) for i in picks}
        runs.append(RunList.from_scores(f"s{r}", scores))
    return runs


def test_normalize_reciprocal_values():
    run = _run("t", {"q": [f"d{i:02d}" for i in range(40)]})
    scored = normalize_reciprocal(run)
    assert _score(scored, "q", "d00") == pytest.approx(1 / 61)
    assert _score(scored, "q", "d39") == 0.01  # rank 40 -> 1/100 exactly
    assert _score(scored, "q", "unranked") == 0.0


def test_normalize_preserves_order():
    rng = np.random.default_rng(4)
    for run in _random_runs(rng):
        scored = normalize_reciprocal(run)
        for query_id in run.query_ids:
            docs = run.docs(query_id)
            values = [_score(scored, query_id, d) for d in docs]
            assert values == sorted(values, reverse=True)
            assert all(v > 0 for v in values)


def test_normalized_queries_of_one_length_share_their_scores():
    run = _run("t", {"1": ["a", "b", "c"], "2": ["d", "e", "f"], "3": ["g"]})
    scored = normalize_reciprocal(run)
    assert scored.by_query["1"].scores is scored.by_query["2"].scores
    assert np.shares_memory(scored.by_query["3"].scores, scored.by_query["1"].scores)
    assert scored.by_query["3"].scores.tolist() == scored.by_query["1"].scores[:1].tolist()
    # 50 queries of 400 docs: one shared array of 400 scores, not one per query
    run = _run("t", {str(q): [f"d{i:03d}" for i in range(400)] for q in range(50)})
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        scored = normalize_reciprocal(run)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert scored.by_query["0"].scores is scored.by_query["49"].scores
    assert retained / run.num_entries() < 2.0  # an array per query alone is 8 B per entry


def test_normalized_rankings_hold_their_inputs_codes():
    rng = np.random.default_rng(6)
    for run in _random_runs(rng, skip=0.3):
        scored = normalize_reciprocal(run, 10.0)
        assert scored.by_query.keys() == run.by_query.keys()
        for query_id, ranking in run.by_query.items():
            assert scored.by_query[query_id].codes is ranking.codes
            assert scored.docs(query_id) == run.docs(query_id)


def test_normalize_constant_configurable_and_validated():
    run = _run("t", {"q": ["a"]})
    assert _score(normalize_reciprocal(run, 0.0), "q", "a") == 1.0
    assert _score(normalize_reciprocal(run, -0.5), "q", "a") == 2.0
    with pytest.raises(ValueError):
        normalize_reciprocal(run, -1.0)
    for constant in (np.nan, np.inf):
        with pytest.raises(ValueError, match="reciprocal constant must be finite"):
            normalize_reciprocal(run, constant)


@pytest.mark.parametrize("constant", [60.0, 1e12, 1e15, -0.999, 2.0**53, 1e16, 1e17])
def test_a_constant_whose_ranks_would_tie_is_refused(constant):
    # From about 2**53 the float spacing exceeds 1, so 1/(constant + rank) stops
    # decreasing over 5000 ranks, and the fusers would order by doc id alone.
    docs = [f"d{i:04d}" for i in range(5000)][::-1]  # ranked in doc-id descending order
    runs = [_run("a", {"q": docs}), _run("b", {"q": docs})]
    qrels = Qrels({"q": {docs[0]: 1}})
    if constant < 2**53:
        scored = [normalize_reciprocal(run, constant) for run in runs]
        assert comb_sum(scored, 5000).docs("q") == tuple(docs)
        assert len(compare_methods(runs, qrels, qrels, ["combsum"], constant)) == 1
        return
    message = re.escape(f"reciprocal constant {constant} is too large")
    with pytest.raises(ValueError, match=message):
        normalize_reciprocal(runs[0], constant)
    with pytest.raises(ValueError, match=message):
        comb_sum([normalize_reciprocal(run, constant) for run in runs])
    with pytest.raises(ValueError, match=message):
        compare_methods(runs, qrels, qrels, ["combsum"], constant)


def test_linear_combine_hand_example():
    # a: (0.5, 0.1), b: (0.2, 0.4), weights (1, 2) -> a=0.7, b=1.0
    s1 = RunList.from_scores("s1", {"q": {"a": 0.5, "b": 0.2}})
    s2 = RunList.from_scores("s2", {"q": {"a": 0.1, "b": 0.4}})
    fused = linear_combine([s1, s2], _weights(["s1", "s2"], [1.0, 2.0]))
    assert linear_combine([s2, s1], _weights(["s1", "s2"], [1.0, 2.0])) == fused
    assert fused.docs("q") == ("b", "a")
    scores = {e.doc_id: e.raw_score for e in fused.entries("q")}
    assert scores["a"] == pytest.approx(0.7)
    assert scores["b"] == pytest.approx(1.0)
    assert fused.run_tag == "LC-mlr"


def test_linear_combine_missing_doc_scores_zero():
    s1 = RunList.from_scores("s1", {"q": {"a": 0.5}})
    s2 = RunList.from_scores("s2", {"q": {"b": 0.4}})
    fused = linear_combine([s1, s2], _weights(["s1", "s2"], [1.0, 1.0]))
    assert {e.doc_id: e.raw_score for e in fused.entries("q")} == {"a": 0.5, "b": 0.4}


def test_linear_combine_unit_weights_equals_comb_sum():
    rng = np.random.default_rng(6)
    runs = _random_runs(rng)
    scored = [normalize_reciprocal(r) for r in runs]
    lc = linear_combine(scored, _weights([s.run_tag for s in scored], [1.0] * 3))
    cs = comb_sum(scored)
    for query_id in cs.query_ids:
        assert lc.docs(query_id) == cs.docs(query_id)


def test_linear_combine_intercept_shift_invariance():
    rng = np.random.default_rng(10)
    runs = _random_runs(rng)
    scored = [normalize_reciprocal(r) for r in runs]
    tags = [s.run_tag for s in scored]
    weights = rng.uniform(0.5, 2.0, size=3)
    plain = linear_combine(scored, _weights(tags, weights, intercept=0.0))
    shifted = linear_combine(scored, _weights(tags, weights, intercept=5.0))
    for query_id in plain.query_ids:
        assert plain.docs(query_id) == shifted.docs(query_id)
        for a, b in zip(plain.entries(query_id), shifted.entries(query_id)):
            assert b.raw_score - a.raw_score == pytest.approx(5.0)


def test_linear_combine_positive_scale_invariance():
    rng = np.random.default_rng(14)
    runs = _random_runs(rng)
    scored = [normalize_reciprocal(r) for r in runs]
    tags = [s.run_tag for s in scored]
    weights = rng.uniform(0.5, 2.0, size=3)
    base = linear_combine(scored, _weights(tags, weights, intercept=0.3))
    scaled = linear_combine(scored, _weights(tags, weights * 7.0, intercept=0.3 * 7.0))
    for query_id in base.query_ids:
        assert base.docs(query_id) == scaled.docs(query_id)


def test_linear_combine_dimension_mismatch():
    s1 = RunList.from_scores("s1", {"q": {"a": 0.5}})
    with pytest.raises(ValueError):
        linear_combine([s1], _weights(["s1", "s2"], [1.0, 1.0]))
    with pytest.raises(ValueError):
        linear_combine([s1], _weights(["other"], [1.0]))
    for tags in (["s1", "s1"], ["s1"], ["s1", "s2"]):
        with pytest.raises(ValueError, match="do not match"):
            linear_combine([s1, s1], _weights(tags, [1.0] * len(tags)))
    with pytest.raises(ValueError):
        linear_combine([], _weights([], []))


def test_comb_sum_single_system_identity():
    rng = np.random.default_rng(15)
    (run,) = _random_runs(rng, num_runs=1)
    fused = comb_sum([normalize_reciprocal(run)])
    for query_id in run.query_ids:
        assert fused.docs(query_id) == run.docs(query_id)


def test_comb_sum_tie_breaks_by_doc_id():
    # dyadic scores keep the two sums exactly equal in binary arithmetic
    s1 = RunList.from_scores("s1", {"q": {"a": 0.5, "b": 0.25}})
    s2 = RunList.from_scores("s2", {"q": {"a": 0.25, "b": 0.5}})
    fused = comb_sum([s1, s2])
    assert [e.raw_score for e in fused.entries("q")] == [0.75, 0.75]
    assert fused.docs("q") == ("a", "b")
    assert fused.run_tag == "combsum"


def test_comb_mnz_counts_systems():
    # two systems summing 0.3 beat one system with 0.5
    s1 = RunList.from_scores("s1", {"q": {"a": 0.1, "b": 0.5}})
    s2 = RunList.from_scores("s2", {"q": {"a": 0.2}})
    fused = comb_mnz([s1, s2])
    scores = {e.doc_id: e.raw_score for e in fused.entries("q")}
    assert scores["a"] == pytest.approx(0.6)
    assert scores["b"] == pytest.approx(0.5)
    assert fused.docs("q") == ("a", "b")
    assert fused.run_tag == "combmnz"


def test_comb_mnz_single_system_identity():
    rng = np.random.default_rng(16)
    (run,) = _random_runs(rng, num_runs=1)
    fused = comb_mnz([normalize_reciprocal(run)])
    for query_id in run.query_ids:
        assert fused.docs(query_id) == run.docs(query_id)


def test_comb_mnz_equals_comb_sum_when_all_rank_all():
    rng = np.random.default_rng(18)
    docs = [f"D{i:02d}" for i in range(10)]
    scored = [
        RunList.from_scores(
            f"s{r}", {"q": {d: float(v) for d, v in zip(docs, rng.permutation(10) + 1)}}
        )
        for r in range(3)
    ]
    mnz = comb_mnz(scored)
    cs = comb_sum(scored)
    assert mnz.docs("q") == cs.docs("q")


def test_borda_single_run_points():
    fused = borda([_run("r", {"q": ["a", "b", "c"]})])
    assert {e.doc_id: e.raw_score for e in fused.entries("q")} == {
        "a": 3.0,
        "b": 2.0,
        "c": 1.0,
    }
    assert fused.run_tag == "borda"


def test_borda_symmetric_tie():
    fused = borda([_run("r1", {"q": ["a", "b"]}), _run("r2", {"q": ["b", "a"]})])
    assert [e.raw_score for e in fused.entries("q")] == [3.0, 3.0]
    assert fused.docs("q") == ("a", "b")


def test_borda_uneven_lists():
    # C={a,b,c}: a=3+2=5, b=2+0=2, c=1+3=4
    fused = borda([_run("r1", {"q": ["a", "b", "c"]}), _run("r2", {"q": ["c", "a"]})])
    scores = {e.doc_id: e.raw_score for e in fused.entries("q")}
    assert scores == {"a": 5.0, "b": 2.0, "c": 4.0}
    assert fused.docs("q") == ("a", "c", "b")


def test_empty_inputs_raise():
    for method in (comb_sum, comb_mnz):
        with pytest.raises(ValueError):
            method([])
    with pytest.raises(ValueError):
        borda([])


def test_permutation_invariance_of_unweighted_methods():
    rng = np.random.default_rng(19)
    runs = _random_runs(rng)
    scored = [normalize_reciprocal(r) for r in runs]
    for method, inputs in ((comb_sum, scored), (comb_mnz, scored), (borda, runs)):
        forward = method(list(inputs))
        backward = method(list(reversed(inputs)))
        assert write_run(forward) == write_run(backward)


def test_depth_truncation():
    docs = [f"d{i:02d}" for i in range(30)]
    fused = comb_sum([normalize_reciprocal(_run("r", {"q": docs}))], depth=5)
    assert len(fused.entries("q")) == 5


def test_fusion_determinism_bytes():
    rng = np.random.default_rng(23)
    runs = _random_runs(rng)
    scored = [normalize_reciprocal(r) for r in runs]
    tags = [s.run_tag for s in scored]
    w = _weights(tags, [0.7, 0.2, 0.1], intercept=0.05)
    for method, args in (
        (linear_combine, (scored, w)),
        (comb_sum, (scored,)),
        (comb_mnz, (scored,)),
        (borda, (runs,)),
    ):
        assert write_run(method(*args)) == write_run(method(*args))


def _naive_fusion(per_system, combine):
    """Per-doc loop: ``combine(union, [(system index, value), ...])`` over
    each query's candidate union, systems in order, missing ones skipped."""
    fused = {}
    for q in {q for system in per_system for q in system}:
        union = {d for system in per_system for d in system.get(q, {})}
        for d in union:
            present = [(j, system[q][d]) for j, system in enumerate(per_system)
                       if d in system.get(q, {})]
            fused[(q, d)] = combine(union, present)
    return fused


def _summed(terms):
    """Plain left-to-right adds; sum() compensates its float sums on Python 3.12+."""
    total = 0.0
    for term in terms:
        total += term
    return total


def _raw_scores(run):
    return {(q, e.doc_id): e.raw_score for q in run.query_ids for e in run.entries(q)}


@pytest.mark.parametrize(
    "seed,num_runs,raw",
    [
        pytest.param(31, 5, False, id="31-5"),
        pytest.param(32, 7, False, id="32-7"),
        pytest.param(33, 12, False, id="33-12"),
        pytest.param(34, 6, True, id="raw-34-6"),
    ],
)
def test_fused_scores_equal_a_per_doc_loop_exactly(seed, num_runs, raw):
    rng = np.random.default_rng(seed)
    runs = _random_runs(rng, num_runs, num_queries=6, universe=30, max_len=15, skip=0.2)
    queries = None
    if raw:
        # Scores that are no function of rank: negative, fractional, often
        # tied, and -1e300, which absorbs every other score it is added to,
        # for the first run's top doc of each query. The kept queries leave
        # some out and add one no run ranks.
        runs = [
            RunList.from_scores(run.run_tag, {
                q: {d: float(rng.integers(-12, 12)) / 7 if r or i else -1e300
                    for i, d in enumerate(run.docs(q))}
                for q in run.query_ids
            })
            for r, run in enumerate(runs)
        ]
        scored, queries = runs, ["2", "3", "5", "9"]
    else:
        scored = [normalize_reciprocal(r, 7.3) for r in runs]
    values = [{q: {e.doc_id: e.raw_score for e in s.entries(q)} for q in s.query_ids}
              for s in scored]
    ranks = [{q: {e.doc_id: e.rank for e in r.entries(q)} for q in r.query_ids} for r in runs]
    weights = rng.normal(size=num_runs)  # mixed signs
    w = _weights([s.run_tag for s in scored], weights, intercept=-0.37)

    def kept(scores):
        return {key: v for key, v in scores.items() if queries is None or key[0] in queries}

    def loop(per_system, combine):
        return kept(_naive_fusion(per_system, combine))

    def public(fused):
        assert "9" not in fused.by_query  # no run ranks it
        return kept(_raw_scores(fused))

    lc = loop(values, lambda union, present: -0.37 + _summed(weights[j] * v for j, v in present))
    combsum = loop(values, lambda union, present: _summed(v for _, v in present))
    combmnz = loop(values, lambda union, present: len(present) * _summed(v for _, v in present))
    points = loop(
        ranks, lambda union, present: float(sum(len(union) - r + 1 for _, r in present))
    )
    assert public(linear_combine(scored, w)) == lc
    assert public(comb_sum(scored)) == combsum
    assert public(comb_mnz(scored)) == combmnz
    assert public(borda(runs)) == points
    if raw:
        assert any(len(set(r.scores)) < len(r) for run in runs for r in run.by_query.values())
        assert -1e300 in combsum.values() and {q for q, _ in lc} == {"2", "3", "5"}


_TIED = {
    # method -> (fuse at depth 3, per-doc combine for _naive_fusion, uses ranks)
    "lc": (lambda scored, runs: linear_combine(scored, _weights(["f", "r"], [0.5, 0.5], 0.25), 3),
           lambda union, present: 0.25 + _summed(0.5 * v for _, v in present), False),
    "combsum": (lambda scored, runs: comb_sum(scored, 3),
                lambda union, present: _summed(v for _, v in present), False),
    "combmnz": (lambda scored, runs: comb_mnz(scored, 3),
                lambda union, present: len(present) * _summed(v for _, v in present), False),
    "borda": (lambda scored, runs: borda(runs, 3),
              lambda union, present: float(sum(len(union) - r + 1 for _, r in present)), True),
}


@pytest.mark.parametrize("method", sorted(_TIED))
def test_fused_ties_break_by_doc_id_like_from_scores(method):
    # Two mirrored systems tie docs pairwise (exactly: a + b == b + a), and
    # depth 3 of 5 candidates cuts through a tied pair.
    forward = {"1": ["d3", "d1", "d4", "d2", "d0"], "2": ["e", "b", "a", "d", "c"]}
    runs = [_run("f", forward), _run("r", {q: docs[::-1] for q, docs in forward.items()})]
    scored = [normalize_reciprocal(r) for r in runs]
    fuse, combine, uses_ranks = _TIED[method]
    per_system = (
        [{q: {e.doc_id: e.rank for e in r.entries(q)} for q in r.query_ids} for r in runs]
        if uses_ranks
        else [{q: {e.doc_id: e.raw_score for e in s.entries(q)} for q in s.query_ids}
              for s in scored]
    )
    scores = {}
    for (q, d), score in _naive_fusion(per_system, combine).items():
        scores.setdefault(q, {})[d] = score
    for per_doc in scores.values():
        assert len(set(per_doc.values())) < len(per_doc)  # the data does tie
    fused = fuse(scored, runs)
    full = RunList.from_scores(fused.run_tag, scores)
    top3 = {q: Ranking(r.docs[:3], r.scores[:3]) for q, r in full.by_query.items()}
    assert fused == RunList(fused.run_tag, top3)
    assert all(len(fused.entries(q)) == 3 for q in forward)


def test_every_run_stores_one_ranking_of_docs_and_read_only_scores_per_query():
    rng = np.random.default_rng(8)
    runs = _random_runs(rng, num_runs=3, num_queries=4, skip=0.2)
    scored = [normalize_reciprocal(r) for r in runs]
    qrels = Qrels({str(q): {"D01": 1, "D02": 1, "D03": 0} for q in range(1, 5)})
    built = {
        "parsed": parse_run(write_run(runs[0]).splitlines()),
        "from_scores": runs[1],
        "normalized": scored[2],
        "lc": linear_combine(scored, _weights([s.run_tag for s in scored], [0.5, -0.2, 0.3], 0.1)),
        "combsum": comb_sum(scored),
        "combmnz": comb_mnz(scored),
        "borda": borda(runs),
        "xval": cross_validated_fusion(runs, qrels, qrels).fused,
        "synthetic": generate_synthetic(8, 4, 2, 10, 3)[0][1],
    }
    for name, run in built.items():
        assert run.by_query, name
        for query_id, ranking in run.by_query.items():
            assert type(ranking) is Ranking, name
            assert type(ranking.docs) is tuple, name
            assert all(type(d) is str for d in ranking.docs), name
            codes = ranking.codes
            assert type(codes) is np.ndarray and codes.dtype == np.int32, name
            assert codes.shape == (len(ranking),) and not codes.flags.writeable, name
            scores = ranking.scores
            assert type(scores) is np.ndarray and scores.dtype == np.float64, name
            assert scores.shape == (len(ranking.docs),) and not scores.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                scores[0] = 0.0
            entries = run.entries(query_id)
            assert all(type(entry.raw_score) is float for entry in entries), name
            assert entries == tuple(
                RunEntry(query_id, doc_id, position + 1, score, run.run_tag)
                for position, (doc_id, score) in enumerate(zip(ranking.docs, scores.tolist()))
            ), name


@pytest.mark.parametrize("fuse", [
    lambda runs, qrels: comb_sum(runs),
    lambda runs, qrels: cross_validated_fusion(runs, qrels, qrels).fused,
], ids=["fuse", "xval"])
def test_a_fused_ranking_keeps_its_scores_array_not_a_copy(fuse, monkeypatch):
    # and its codes array: both are gathered once and handed to the Ranking
    runs, qrels = generate_synthetic(3, 4, 3, 20, 4)
    made = []
    ranking_of = Ranking._of

    def ranking(codes, scores):
        made.append((codes, scores, ranking_of(codes, scores)))
        return made[-1][2]

    monkeypatch.setattr(Ranking, "_of", ranking)
    fused = fuse(runs, qrels)
    assert len(made) == len(fused.by_query) == 4
    assert all(kept.codes is codes and kept.scores is scores for codes, scores, kept in made)
    assert all(any(r is kept for *_, kept in made) for r in fused.by_query.values())
    assert not any(r.codes.flags.writeable or r.scores.flags.writeable for *_, r in made)


def test_borda_holds_one_query_cube_at_a_time():
    # 4 queries of 800 candidates each over 100 runs: a 160 kB uint16 cube per query
    runs, qrels = generate_synthetic(7, 4, 100, 800, 20)
    cube = _rank_cube(runs, [qrels.query_ids[0]])[1]
    gc.collect()
    tracemalloc.start()
    try:
        fused = borda(runs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {len(ranking) for ranking in fused.by_query.values()} == {cube.shape[2]}
    # The fused run: each query's scores (8 B a doc) and codes (4 B), and slack.
    fused_bytes = 2 * sum(ranking.scores.nbytes for ranking in fused.by_query.values())
    # Slack: half a cube (the candidates' order keys and their first-of-a-kind
    # mask, built before the cube, and the width-long arrays) and one ufunc
    # buffer of intp. A second cube held while the next is built adds a whole
    # cube.
    slack = cube.nbytes // 2 + np.getbufsize() * np.dtype(np.intp).itemsize
    assert peak < cube.nbytes + fused_bytes + slack
    # _systems' one count per column serves Borda and _rank: no bool copy of
    # the cube is made (Borda's count_nonzero and _rank's ranks > 0 each made
    # one, and the peak was 520,700 B for this 320,000 B cube)
    assert cube.nbytes == 160_000
    assert peak < 520_700
    # Scoring and ranking the cube: one ufunc buffer and a few width-long
    # arrays; a bool copy of the cube, a quarter of it, would not fit
    gc.collect()
    tracemalloc.start()
    try:
        systems = fusion._systems(cube)
        fusion._rank(systems, fusion._SCORERS["borda"](cube, systems, None), 1000)
        scoring = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scoring < np.getbufsize() * np.dtype(np.intp).itemsize + cube.nbytes // 8


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 40))
def test_rank_is_the_full_stable_argsort_cut_to_depth(seed, rows, width):
    # Few distinct scores, so ties fall at the cut; unranked columns, NaN and
    # -inf scores; every depth from 1 to past the width, where no cut is made.
    rng = np.random.default_rng(seed)
    values = np.array([np.nan, -np.inf, -1.5, -0.0, 0.0, 0.5, 2.0])
    scores = rng.choice(values, size=(rows, width))
    systems = rng.integers(0, 3, size=(rows, width)).astype(np.int32)
    keys = np.where(systems > 0, -scores, np.inf)
    full = np.argsort(keys, axis=1, kind="stable")
    ranked = np.count_nonzero(systems > 0, axis=1)
    for depth in range(1, width + 3):
        order, lengths = fusion._rank(systems, scores, depth)
        assert np.array_equal(order, full[:, :depth])
        assert np.array_equal(lengths, np.minimum(ranked, depth))


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**32 - 1), st.integers(1, 15), st.floats(-0.99, 100.0))
def test_every_fused_run_re_parses_equal(seed, depth, constant):
    # Reciprocal scores of an arbitrary constant need all 17 digits.
    rng = np.random.default_rng(seed)
    runs = _random_runs(rng, num_runs=4, num_queries=4, universe=30, max_len=15, skip=0.2)
    scored = [normalize_reciprocal(run, constant) for run in runs]
    w = _weights([s.run_tag for s in scored], rng.normal(size=4), rng.normal())
    qrels = Qrels({str(q): {f"D{i:02d}": int(i % 3 == 0) for i in range(30)} for q in range(1, 5)})
    for fused in (
        linear_combine(scored, w, depth),
        comb_sum(scored, depth),
        comb_mnz(scored, depth),
        borda(runs, depth),
        cross_validated_fusion(runs, qrels, qrels, constant, depth).fused,
    ):
        assert parse_run(write_run(fused).splitlines()) == fused, fused.run_tag


@pytest.mark.parametrize("depth", [0, -2])
def test_every_fuser_refuses_a_depth_below_one(depth):
    runs = _random_runs(np.random.default_rng(5))
    scored = [normalize_reciprocal(r) for r in runs]
    w = WeightVector(tuple(s.run_tag for s in scored), 0.0, np.ones(len(scored)))
    for fuse in (
        lambda: linear_combine(scored, w, depth),
        lambda: comb_sum(scored, depth),
        lambda: comb_mnz(scored, depth),
        lambda: borda(runs, depth),
    ):
        with pytest.raises(ValueError, match=f"output depth must be >= 1, got {depth}"):
            fuse()


@pytest.mark.parametrize("fuse", ["lc", "combsum", "combmnz"])
def test_raw_score_fusers_refuse_a_nan_fused_score(fuse):
    # Every score of a run is finite, but two near the float limit overflow
    # when added: 1.5e308 twice is inf, and LC's weights 2, -2 make
    # inf + -inf, which is NaN. Tier-1 turns numpy's RuntimeWarning into an
    # error, so the refusal must come before any warning does.
    runs = [
        RunList.from_scores("a", {"1": {"y": 1.0}, "2": {"x": 1.5e308, "y": 1.0, "z": 0.0}}),
        RunList.from_scores("b", {"1": {"y": 2.0}, "2": {"x": 1.5e308, "y": 2.0, "z": 5.0}}),
    ]
    fusers = {
        "lc": lambda: linear_combine(runs, _weights(["a", "b"], [2.0, -2.0])),
        "combsum": lambda: comb_sum(runs),
        "combmnz": lambda: comb_mnz(runs),
    }
    value = "nan" if fuse == "lc" else "inf"
    with pytest.raises(ValueError, match=f"^query '2', doc 'x': fused score {value} is not finite$"):
        fusers[fuse]()
    if fuse == "lc":  # equal weights overflow to inf, as CombSum does
        with pytest.raises(ValueError, match="^query '2', doc 'x': fused score inf is not finite$"):
            linear_combine(runs, _weights(["a", "b"], [1.0, 1.0]))
    assert borda(runs).by_query["2"] == Ranking(("x", "y", "z"), (6.0, 3.0, 3.0))  # ranks only


def _reference_rank_cube(runs, query_ids):
    """A per-doc loop: candidates and a nested-list rank cube from dicts."""
    candidates = [sorted({d for run in runs for d in run.docs(q)}) for q in query_ids]
    width = max(map(len, candidates), default=0)
    cube = []
    for q, docs in zip(query_ids, candidates):
        per_run = []
        for run in runs:
            rank_of = {e.doc_id: e.rank for e in run.entries(q)}
            per_run.append([rank_of.get(d, 0) for d in docs] + [0] * (width - len(docs)))
        cube.append(per_run)
    return candidates, cube


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 5))
def test_rank_cube_matches_a_per_doc_loop(seed, num_runs, num_queries):
    # Ragged, partly overlapping runs, each skipping some queries; the query
    # ids asked for include every query at once (as the harness asks), one
    # query alone (as the public fusers ask) and a query no run ranks.
    rng = np.random.default_rng(seed)
    runs = _random_runs(rng, num_runs, num_queries, universe=25, max_len=15, skip=0.3)
    every = [str(q) for q in range(1, num_queries + 1)] + ["none"]
    for query_ids in (every, every[::-1], ["1"], ["none"], []):
        candidates, ranks = _rank_cube(runs, query_ids)
        expected_candidates, expected = _reference_rank_cube(runs, query_ids)
        longest = max((len(run.by_query.get(q, ())) for run in runs for q in query_ids),
                      default=0)
        assert all(codes.dtype == np.int32 for codes in candidates)
        assert [list(_doc_ids(codes)) for codes in candidates] == expected_candidates
        assert ranks.dtype == np.min_scalar_type(longest)
        assert ranks.shape == (len(query_ids), num_runs, max(map(len, candidates), default=0))
        assert ranks.tolist() == expected


@pytest.mark.parametrize(
    "longest,dtype",
    [(255, np.uint8), (256, np.uint16), (65_535, np.uint16), (65_536, np.uint32)],
)
def test_rank_cube_dtype_holds_every_rank_of_the_longest_ranking(longest, dtype):
    # Run s0 ranks ``longest`` docs, so its deepest rank would wrap to 0 (or
    # to a small rank) in any narrower dtype; s1 and s2 rank shuffled parts of
    # them and docs s0 does not. The docs are ids of one pool for every size.
    rng = np.random.default_rng(longest)
    pool = np.array([f"wide-{i:05d}" for i in range(65_536 + 64)])
    order = pool[rng.permutation(longest + 64)]

    def ranked(docs):
        return {doc: float(len(docs) - k) for k, doc in enumerate(docs)}

    runs = [
        RunList.from_scores("s0", {"1": ranked(order[:longest]), "2": ranked(order[:3])}),
        RunList.from_scores("s1", {"1": ranked(rng.permutation(order[longest // 2 :]))}),
        RunList.from_scores("s2", {"1": ranked(order[-90:]), "2": ranked(order[5:50])}),
    ]
    candidates, ranks = _rank_cube(runs, ["1", "2"])
    expected_candidates, expected = _reference_rank_cube(runs, ["1", "2"])
    assert ranks.dtype == dtype
    assert [list(_doc_ids(codes)) for codes in candidates] == expected_candidates
    assert ranks.tolist() == expected
    del candidates, ranks, expected

    scored = [normalize_reciprocal(run, 7.3) for run in runs]
    values = [{q: {e.doc_id: e.raw_score for e in s.entries(q)} for q in s.query_ids}
              for s in scored]
    positions = [{q: {e.doc_id: e.rank for e in r.entries(q)} for q in r.query_ids}
                 for r in runs]
    weights = np.array([0.7, -1.3, 2.1])
    w = _weights([s.run_tag for s in scored], weights, intercept=-0.37)
    depth = longest + 64
    assert _raw_scores(linear_combine(scored, w, depth)) == _naive_fusion(
        values, lambda union, present: -0.37 + _summed(weights[j] * v for j, v in present)
    )
    assert _raw_scores(comb_sum(scored, depth)) == _naive_fusion(
        values, lambda union, present: _summed(v for _, v in present)
    )
    assert _raw_scores(comb_mnz(scored, depth)) == _naive_fusion(
        values, lambda union, present: len(present) * _summed(v for _, v in present)
    )
    assert _raw_scores(borda(runs, depth)) == _naive_fusion(
        positions, lambda union, present: float(sum(len(union) - r + 1 for _, r in present))
    )


def test_rank_cube_of_queries_that_share_one_namespace_holds_no_lookup_that_spans_it():
    # Each query ranks a few of 8,000 ids that every query shares, as runs
    # over one collection do, so its keys spread over the whole namespace: a
    # key -> column lookup spanning them would take about 32,000 B
    pool = [f"shared-{i:05d}" for i in range(8_000)]
    trec._encode(pool)
    rng = np.random.default_rng(5)
    runs = []
    for r in range(3):
        scores = {}
        for q in range(1, 4):
            picks = rng.choice(len(pool), 12, replace=False)
            scores[str(q)] = {pool[i]: float(rng.integers(1, 100)) for i in picks}
        runs.append(RunList.from_scores(f"s{r}", scores))
    query_ids = ["1", "2", "3"]
    _rank_cube(runs, query_ids)  # the order key takes the pool in here
    gc.collect()
    tracemalloc.start()
    try:
        candidates, ranks = _rank_cube(runs, query_ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected_candidates, expected = _reference_rank_cube(runs, query_ids)
    assert [list(_doc_ids(codes)) for codes in candidates] == expected_candidates
    assert ranks.tolist() == expected
    assert peak < 20_000


def _prefixed_corpus(prefix):
    """Three runs and qrels over 4 queries of ids ``prefix`` + d000..d059, the
    same for every prefix but for the prefix."""
    rng = np.random.default_rng(21)
    runs = []
    for r in range(3):
        scores = {}
        for q in range(1, 5):
            picks = rng.permutation(60)[: rng.integers(20, 50)]
            scores[str(q)] = {f"{prefix}d{i:03d}": float(rng.integers(1, 30)) for i in picks}
        runs.append(RunList.from_scores(f"s{r}", scores))
    grades = {str(q): {f"{prefix}d{i:03d}": int(i % 4 == q % 4) for i in range(60)} for q in range(1, 5)}
    return runs, Qrels(grades, name="q")


def test_outputs_do_not_depend_on_the_order_ids_entered_the_table():
    # The table meets the x1- ids in doc-id order and the x2- ids in reverse,
    # so their codes run in opposite orders; integer scores in 1..29 tie often.
    names = [f"d{i:03d}" for i in range(60)]
    trec._encode([f"x1-{name}" for name in names])
    trec._encode([f"x2-{name}" for name in reversed(names)])
    assert trec._CODES["x1-d000"] < trec._CODES["x1-d059"]
    assert trec._CODES["x2-d000"] > trec._CODES["x2-d059"]
    outputs = []
    for prefix in ("x1-", "x2-"):
        runs, qrels = _prefixed_corpus(prefix)
        scored = [normalize_reciprocal(run) for run in runs]
        xval = cross_validated_fusion(runs, qrels, qrels)
        fused = [comb_sum(scored), comb_sum(runs), borda(runs), xval.fused]
        docs = [
            {q: [doc_id.removeprefix(prefix) for doc_id in run.docs(q)] for q in run.query_ids}
            for run in fused
        ]
        scores = [[ranking.scores.tolist() for ranking in run.by_query.values()] for run in fused]
        weights = [(w.intercept, w.weights.tolist()) for w in (xval.weights_a, xval.weights_b)]
        outputs.append((docs, scores, xval.report, weights))
    assert outputs[0] == outputs[1]
