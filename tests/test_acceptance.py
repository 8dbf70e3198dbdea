"""Acceptance gate: ten criteria, one printed pass/fail line each.

Run ``pytest tests/test_acceptance.py -s`` to watch the lines as they
print; without ``-s`` they show up in pytest's captured-output section.
Every oracle here is rebuilt locally so the gate does not lean on the
unit-test modules it is meant to back up.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from rankfuse import (
    Qrels,
    RunList,
    ScoreMatrix,
    WeightVector,
    average_precision,
    borda,
    build_pool,
    comb_mnz,
    comb_sum,
    cross_validated_fusion,
    evaluate,
    format_variance,
    generate_synthetic,
    load_qrels,
    load_run,
    make_partial_qrels,
    normalize_reciprocal,
    objective_g,
    percent_variance,
    pick_depth_for_fraction,
    pool_sweep,
    precision_at,
    r_precision,
    save_qrels,
    save_run,
    solve_ols,
)
from rankfuse.cli import main


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number:02d}: {description}")
        raise
    print(f"PASS criterion {number:02d}: {description}")


# --- local oracles, independent of the library and the unit tests ---


def gaussian_solve(a, b):
    """Solve a @ x = b on plain lists with partial pivoting."""
    n = len(b)
    m = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(m[r][col]))
        if abs(m[pivot][col]) == 0.0:
            raise ZeroDivisionError("singular")
        m[col], m[pivot] = m[pivot], m[col]
        for row in range(col + 1, n):
            factor = m[row][col] / m[col][col]
            for k in range(col, n + 1):
                m[row][k] -= factor * m[col][k]
    x = [0.0] * n
    for row in range(n - 1, -1, -1):
        acc = m[row][n] - sum(m[row][k] * x[k] for k in range(row + 1, n))
        x[row] = acc / m[row][row]
    return x


def ols_oracle(scores, targets):
    """Normal equations assembled with math.fsum; returns [b0, b1, ...]."""
    rows = [[1.0] + list(map(float, row)) for row in scores]
    n = len(rows[0])
    xtx = [[math.fsum(r[i] * r[j] for r in rows) for j in range(n)] for i in range(n)]
    xty = [math.fsum(r[i] * t for r, t in zip(rows, targets)) for i in range(n)]
    return gaussian_solve(xtx, xty)


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


def _matrix(scores, targets):
    scores = np.asarray(scores, dtype=float)
    tags = tuple(f"s{j}" for j in range(scores.shape[1]))
    keys = tuple(("q", f"d{i}") for i in range(scores.shape[0]))
    return ScoreMatrix(tags, keys, scores, np.asarray(targets, dtype=float))


def test_criterion_01_worked_example_exact():
    with criterion(1, "20-doc example: MAP 0.55 exact, 1.0 after label removal, <1 ms"):
        docs = [f"doc{i:02d}" for i in range(1, 21)]
        start = time.perf_counter()
        ap_full = average_precision(docs, {docs[0], docs[19]})
        ap_trimmed = average_precision(docs, {docs[0]})
        elapsed = time.perf_counter() - start
        assert ap_full == 0.55
        assert ap_trimmed == 1.0
        assert elapsed < 1e-3
        # end to end: the same numbers through run evaluation
        run = RunList.from_scores("probe", {"401": {d: float(20 - i) for i, d in enumerate(docs)}})
        full = Qrels({"401": {docs[0]: 1, docs[19]: 1}})
        trimmed = Qrels({"401": {docs[0]: 1}})
        assert evaluate(run, full).mean("map") == 0.55
        assert evaluate(run, trimmed, full.query_ids).mean("map") == 1.0


def test_criterion_02_sensitivity_percentages():
    with criterion(2, "sensitivity arithmetic gives +3.22% (MAP) and -31.83% (P@20)"):
        up = percent_variance(0.4230, 0.4366)
        down = percent_variance(0.6540, 0.4458)
        assert abs(up - 3.22) <= 0.01
        assert abs(down - -31.83) <= 0.01
        assert format_variance(up) == "+3.22%"
        assert format_variance(down) == "-31.83%"


def test_criterion_03_ols_matches_bruteforce_oracle():
    with criterion(3, "solve_ols matches a brute-force oracle on 200 instances, <5 s"):
        rng = np.random.default_rng(303)
        start = time.perf_counter()
        for _ in range(200):
            n = int(rng.integers(1, 5))
            rows = int(rng.integers(5, 101))
            scores = rng.uniform(0.0, 1.0, size=(rows, n))
            targets = (rng.random(rows) < 0.4).astype(float)
            if not targets.any():
                targets[int(rng.integers(rows))] = 1.0
            matrix = _matrix(scores, targets)
            w = solve_ols(matrix)
            assert not w.regularized and not w.degenerate
            expected = ols_oracle(scores.tolist(), targets.tolist())
            np.testing.assert_allclose(
                [w.intercept, *w.weights], expected, rtol=0, atol=1e-9
            )
            design = matrix.design()
            beta = np.concatenate([[w.intercept], w.weights])
            gradient = -2.0 * design.T @ (targets - design @ beta)
            scale = max(1.0, float(np.linalg.norm(2.0 * design.T @ targets)))
            assert float(np.linalg.norm(gradient)) / scale < 1e-8
        assert time.perf_counter() - start < 5.0


def test_criterion_04_solution_beats_perturbations():
    with criterion(4, "no perturbation beats the fit: 20 instances x 1000 tries, <5 s"):
        rng = np.random.default_rng(404)
        start = time.perf_counter()
        for _ in range(20):
            n = int(rng.integers(1, 5))
            rows = int(rng.integers(10, 61))
            scores = rng.uniform(size=(rows, n))
            targets = (rng.random(rows) < 0.5).astype(float)
            if not targets.any():
                targets[0] = 1.0
            matrix = _matrix(scores, targets)
            w = solve_ols(matrix)
            best = objective_g(matrix, w)
            for _ in range(1000):
                delta = rng.normal(scale=10.0 ** rng.integers(-6, 1), size=n + 1)
                candidate = WeightVector(
                    w.system_order, w.intercept + delta[0], w.weights + delta[1:]
                )
                assert objective_g(matrix, candidate) >= best - 1e-12
        assert time.perf_counter() - start < 5.0


def test_criterion_05_metrics_match_walking_oracle():
    with criterion(5, "metrics match a list-walking oracle on 500 instances, 1e-12"):
        rng = np.random.default_rng(505)
        universe = [f"D{i:03d}" for i in range(40)]
        for _ in range(500):
            length = int(rng.integers(1, 31))
            docs = [universe[i] for i in rng.permutation(40)[:length]]
            relevant = {d for d in universe if rng.random() < 0.25}
            ap, rp = oracle_walk(docs, relevant)
            if math.isnan(ap):
                assert math.isnan(average_precision(docs, relevant))
                assert math.isnan(r_precision(docs, relevant))
            else:
                assert abs(average_precision(docs, relevant) - ap) <= 1e-12
                assert abs(r_precision(docs, relevant) - rp) <= 1e-12
            for k in (10, 20):
                expected = oracle_walk(docs, relevant, cutoff=k)
                assert abs(precision_at(docs, relevant, k) - expected) <= 1e-12


def _random_runset(rng):
    """Small random run set plus qrels with at least one judgment per query."""
    num_runs = int(rng.integers(2, 6))
    queries = [str(q) for q in range(1, int(rng.integers(2, 7)) + 1)]
    universe = [f"D{i:02d}" for i in range(25)]
    runs = []
    for r in range(num_runs):
        scores = {}
        for q in queries:
            picks = rng.permutation(25)[: int(rng.integers(1, 15))]
            scores[q] = {universe[i]: float(25 - j) for j, i in enumerate(picks)}
        runs.append(RunList.from_scores(f"s{r}", scores))
    grades = {}
    for q in queries:
        judged = {doc: int(rng.random() < 0.4) for doc in universe if rng.random() < 0.7}
        if not judged:
            judged[universe[0]] = 1
        grades[q] = judged
    return runs, Qrels(grades)


def test_criterion_06_pool_coverage_monotone_and_bounded():
    with criterion(6, "pool coverage monotone and saturating over 50 random run sets"):
        rng = np.random.default_rng(606)
        for _ in range(50):
            runs, full = _random_runset(rng)
            max_len = max(
                len(run.by_query[q]) for run in runs for q in run.query_ids
            )
            rows = pool_sweep(runs, full, range(1, max_len + 3))
            counts = [row.relevant_count for row in rows]
            percents = [row.percent for row in rows]
            assert counts == sorted(counts)
            assert percents == sorted(percents)
            # past the longest list the pool is the full union: flat tail
            union = build_pool(runs, max_len)
            saturated = sum(
                len(full.relevant(q) & union.for_query(q)) for q in union.query_ids
            )
            assert counts[max_len - 1] == saturated
            assert counts[-1] == saturated
            for depth in (1, max(1, max_len // 2), max_len):
                partial = make_partial_qrels(build_pool(runs, depth), full)
                for q in full.query_ids:
                    assert partial.relevant_count(q) <= full.relevant_count(q)


def test_criterion_07_label_removal_never_raises_patk():
    with criterion(7, "label deletion never raises P@10/P@20; MAP can rise"):
        rng = np.random.default_rng(707)
        universe = [f"D{i:02d}" for i in range(60)]
        map_increases = 0
        for _ in range(200):
            length = int(rng.integers(10, 41))
            docs = [universe[i] for i in rng.permutation(60)[:length]]
            relevant = {d for d in universe if rng.random() < 0.15}
            relevant.update(docs[i] for i in rng.permutation(length)[:2])
            rel_sorted = sorted(relevant)
            deleted = {
                rel_sorted[i]
                for i in rng.permutation(len(rel_sorted))[: int(rng.integers(1, len(rel_sorted)))]
            }
            kept = relevant - deleted
            run = RunList.from_scores(
                "probe", {"q": {d: float(length - i) for i, d in enumerate(docs)}}
            )
            full = evaluate(run, Qrels({"q": {d: 1 for d in relevant}})).per_query[0]
            part = evaluate(run, Qrels({"q": {d: 1 for d in kept}}), ["q"]).per_query[0]
            assert part.p10 <= full.p10
            assert part.p20 <= full.p20
            if not math.isnan(part.ap) and part.ap > full.ap:
                map_increases += 1
        assert map_increases >= 1


SWEEP_SEEDS = (1, 2, 3, 4, 5)
SWEEP_METRICS = ("map", "rp", "p10", "p20")


@pytest.fixture(scope="module")
def synthetic_sweep():
    """Five seeded 10-system / 50-query corpora: cross-validated LC fusion
    trained on full and pooled labels, plus the unweighted baselines."""
    start = time.perf_counter()
    regimes = {"full": [], "half": [], "fifth": []}
    method_maps = {"LC-mlr": [], "combsum": [], "combmnz": [], "borda": []}
    component_maps = None
    for seed in SWEEP_SEEDS:
        runs, full = generate_synthetic(
            seed,
            num_queries=50,
            num_systems=10,
            docs_per_query=120,
            relevant_per_query=25,
        )
        for label, target in (("half", 0.5), ("fifth", 0.2)):
            depth, _ = pick_depth_for_fraction(runs, full, target)
            partial = make_partial_qrels(build_pool(runs, depth), full)
            result = cross_validated_fusion(runs, partial, full)
            regimes[label].append(result.report.mean_metrics())
        result = cross_validated_fusion(runs, full, full)
        regimes["full"].append(result.report.mean_metrics())
        method_maps["LC-mlr"].append(result.report.mean("map"))
        scored = [normalize_reciprocal(run) for run in runs]
        queries = full.query_ids
        method_maps["combsum"].append(evaluate(comb_sum(scored), full, queries).mean("map"))
        method_maps["combmnz"].append(evaluate(comb_mnz(scored), full, queries).mean("map"))
        method_maps["borda"].append(evaluate(borda(runs), full, queries).mean("map"))
        per_system = [evaluate(run, full, queries).mean("map") for run in runs]
        if component_maps is None:
            component_maps = [[] for _ in per_system]
        for bucket, value in zip(component_maps, per_system):
            bucket.append(value)
    means = {
        label: {m: float(np.mean([row[m] for row in rows])) for m in SWEEP_METRICS}
        for label, rows in regimes.items()
    }
    return {
        "means": means,
        "method_maps": {k: float(np.mean(v)) for k, v in method_maps.items()},
        "best_component_map": max(float(np.mean(b)) for b in component_maps),
        "elapsed": time.perf_counter() - start,
    }


def test_criterion_08_pooled_training_keeps_quality(synthetic_sweep):
    with criterion(8, "half/fifth-pool training keeps 95%/90% of full quality, <60 s"):
        means = synthetic_sweep["means"]
        for metric in SWEEP_METRICS:
            assert means["half"][metric] >= 0.95 * means["full"][metric]
            assert means["fifth"][metric] >= 0.90 * means["full"][metric]
        assert synthetic_sweep["elapsed"] < 60.0


def test_criterion_09_trained_fusion_leads_methods(synthetic_sweep):
    with criterion(9, "LC >= CombSum on MAP; every method >= 0.9x best component"):
        maps = synthetic_sweep["method_maps"]
        assert maps["LC-mlr"] >= maps["combsum"]
        best = synthetic_sweep["best_component_map"]
        for value in maps.values():
            assert value >= 0.9 * best


def test_criterion_10_cli_determinism_and_round_trip(tmp_path):
    with criterion(10, "CLI output byte-deterministic; files round-trip unchanged"):
        synth = [
            "synth", "--seed", "11", "--num-queries", "6", "--num-systems", "3",
            "--docs-per-query", "30", "--relevant-per-query", "8",
        ]
        corpora = [tmp_path / f"corpus{i}" for i in range(2)]
        for out_dir in corpora:
            assert main([*synth, "--out-dir", str(out_dir)]) == 0
        names = sorted(p.name for p in corpora[0].iterdir())
        assert names == sorted(p.name for p in corpora[1].iterdir())
        for name in names:
            assert (corpora[0] / name).read_bytes() == (corpora[1] / name).read_bytes()

        data = corpora[0]
        runs = sorted(str(p) for p in data.glob("*.run"))
        qrels = str(data / "full.qrels")
        weights = tmp_path / "w.csv"
        assert main(["train", "--runs", *runs, "--qrels", qrels,
                     "--out-weights", str(weights)]) == 0
        partial = tmp_path / "partial.qrels"
        assert main(["pool", "--runs", *runs, "--qrels", qrels,
                     "--depth", "2", "--out", str(partial)]) == 0

        commands = {
            "pool.qrels": ("--out", ["pool", "--runs", *runs, "--qrels", qrels, "--depth", "2"]),
            "sweep.csv": ("--out", ["sweep", "--runs", *runs, "--qrels", qrels, "--depths", "1:6"]),
            "weights.csv": ("--out-weights", ["train", "--runs", *runs, "--qrels", qrels]),
            "lc.run": ("--out", ["fuse", "--runs", *runs, "--method", "lc",
                                 "--weights", str(weights)]),
            "borda.run": ("--out", ["fuse", "--runs", *runs, "--method", "borda"]),
            "eval.csv": ("--csv", ["eval", "--run", runs[0], "--qrels", qrels]),
            "xval.csv": ("--csv", ["xval", "--runs", *runs, "--qrels", qrels,
                                   "--training-qrels", str(partial)]),
            "curve.csv": ("--out", ["curve", "--runs", *runs, "--qrels", qrels]),
            "compare.csv": ("--out", ["compare", "--runs", *runs, "--qrels", qrels]),
            "groups.csv": ("--out", ["group-eval", "--run", runs[0], "--qrels", qrels]),
            "sens.csv": ("--out", ["sensitivity", "--run", runs[0], "--qrels", qrels,
                                   "--partials", str(partial)]),
        }
        for name, (flag, argv) in commands.items():
            twice = [tmp_path / f"{i}-{name}" for i in range(2)]
            for path in twice:
                assert main([*argv, flag, str(path)]) == 0
            assert twice[0].read_bytes() == twice[1].read_bytes()

        for path in [*runs, str(tmp_path / "0-lc.run")]:
            copy = tmp_path / ("rt-" + Path(path).name)
            save_run(load_run(path), copy)
            assert copy.read_bytes() == Path(path).read_bytes()
        for path in (qrels, str(partial)):
            copy = tmp_path / ("rt-" + Path(path).name)
            save_qrels(load_qrels(path), copy)
            assert copy.read_bytes() == Path(path).read_bytes()
