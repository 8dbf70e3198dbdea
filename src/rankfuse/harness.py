"""Experiment orchestration: cross-validated fusion, incremental
curves, method comparisons, query grouping, and synthetic data.

Protocol notes that apply throughout:

- Two-fold cross-validation splits queries by alternation over their
  natural order; weights are trained on one fold's (query, doc) rows
  only and applied to the other fold, then the two fused halves are
  concatenated. No test-fold row ever enters a training matrix.
- Training may use full or pool-restricted qrels, but evaluation is
  always against the official qrels passed by the caller, so runs of
  the same experiment differ only in the training signal.
- Everything is deterministic: fixed inputs and seed give byte-stable
  outputs.
- Each call builds one rank cube over every query and all the runs and
  judges its candidates once. Each (method, prefix size) goes one way:
  a scorer gives every query's candidate scores in one batched pass,
  and _ranked, the one rank-and-evaluate step, ranks them and gives
  each query's metric values under the official qrels. xval's report is
  _report of those values; a compare row is evaluation._means of them,
  the one mean that EvalReport.mean_metrics takes too, with no report
  made. So its numbers equal those of the public calls on
  ``runs[:size]``. The unweighted methods' scorers
  are fusion's; LC's is _cross_validate, which trains each fold and
  scores the other. The harness makes none of their decisions itself:
  fusion owns the cube, each method's scorer, the ranking and the fused
  Rankings; regression the training rows and the solve; evaluation the
  relevance tables, the metrics and the CSV columns (METRICS);
  split_odd_even the folds.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._warn import warn
from .evaluation import (
    METRICS,
    EvalReport,
    _checked_metrics,
    _means,
    _relevance_table,
    _report,
    evaluate,
)
from .fusion import (
    _SCORERS,
    DEFAULT_OUTPUT_DEPTH,
    DEFAULT_RECIPROCAL_CONSTANT,
    _by_reciprocal,
    _check_depth,
    _rank,
    _rank_cube,
    _rankings,
    _systems,
    _weighted,
)
from .regression import WeightVector, _fit_warning, _solve, _training_rows
from .trec import Qrels, Ranking, RunList, _encode, sort_query_ids

FUSION_METHODS = ("LC-mlr", "combsum", "combmnz", "borda")
ALL_METHODS = FUSION_METHODS + ("best-component",)

GROUP_MODES = ("tertiles", "threshold")
TERTILE_LABELS = ("Low", "Middle", "High")


@dataclass(frozen=True)
class FoldSplit:
    """Disjoint query partitions covering the full query set."""

    partition_a: tuple[str, ...]
    partition_b: tuple[str, ...]

    def __post_init__(self) -> None:
        overlap = set(self.partition_a) & set(self.partition_b)
        if overlap:
            raise ValueError(f"folds overlap on {sorted(overlap)}")


def split_odd_even(query_ids: Iterable[str]) -> FoldSplit:
    """Alternate natural-ordered queries into two folds.

    Positions 1, 3, 5, ... form partition A and the rest partition B,
    under numeric order when every id is numeric, else lexicographic.
    """
    ordered = sort_query_ids(query_ids)
    if len(ordered) < 2:
        raise ValueError("cross-validation needs at least 2 queries")
    return FoldSplit(tuple(ordered[0::2]), tuple(ordered[1::2]))


@dataclass(frozen=True)
class XvalResult:
    """Cross-validated fusion output with per-fold diagnostics."""

    fused: RunList
    report: EvalReport
    split: FoldSplit
    weights_a: WeightVector  # trained on partition A, applied to B
    weights_b: WeightVector  # trained on partition B, applied to A


class _RankCube(NamedTuple):
    """A call's queries and their candidates over all its runs.

    Row i describes ``query_ids[i]`` (natural order): ``candidates[i]``
    (doc codes) and ``ranks[i]`` are fusion._rank_cube's, ``training[i]`` and
    ``relevant[i]`` whether each candidate is relevant under the training
    and the official qrels (False past its candidates), and
    ``relevant_counts[i]`` is R(q) under the official qrels. ``ranks`` is of
    the narrowest unsigned dtype that holds the deepest rank, so every read
    of it indexes a lookup, compares with 0, takes its max or sums into a
    signed accumulator; none subtracts from it.
    """

    query_ids: list[str]
    candidates: list[np.ndarray]
    ranks: np.ndarray
    training: np.ndarray
    relevant: np.ndarray
    relevant_counts: np.ndarray

    def fold(self, parity: int) -> _RankCube:
        """Fold A (parity 0) or B (1): split_odd_even alternates the natural order."""
        return _RankCube(*(field[parity::2] for field in self))


def _judged_cube(
    runs: Sequence[RunList], training_qrels: Qrels, official_qrels: Qrels
) -> _RankCube:
    """The cube of ``runs`` over the official qrels' queries."""
    query_ids = official_qrels.query_ids
    candidates, ranks = _rank_cube(runs, query_ids)
    training, _ = _relevance_table(training_qrels, query_ids, candidates, ranks.shape[2])
    relevant, counts = _relevance_table(official_qrels, query_ids, candidates, ranks.shape[2])
    return _RankCube(query_ids, candidates, ranks, training, relevant, counts)


def _ranked(
    cube: _RankCube, systems: np.ndarray, scores: np.ndarray, depth: int, run_tag: str
) -> tuple[np.ndarray, np.ndarray, tuple[list[float], ...]]:
    """Rank every query of ``cube`` by the ``scores`` of a prefix of its
    systems, whose fusion._systems counts are ``systems``, and evaluate
    the result under the official qrels.

    Returns (order, lengths, values): fusion._rank's order and lengths,
    and evaluation._checked_metrics' per-query AP, RP, P@10 and P@20
    lists, in the cube's query order. Queries with an empty ranking give
    one warning naming ``run_tag``; an empty query set raises ValueError.
    """
    order, lengths = _rank(systems, scores, depth)
    ranked = np.arange(order.shape[1]) < lengths[:, None]
    relevant = np.take_along_axis(cube.relevant, order, axis=1) & ranked
    missing = int(np.count_nonzero(lengths == 0))
    values = _checked_metrics(run_tag, cube.query_ids, relevant, cube.relevant_counts, missing)
    return order, lengths, values


def _train_fold(
    fold: _RankCube,
    system_order: tuple[str, ...],
    lookups: Sequence[np.ndarray],
    label: str,
) -> WeightVector:
    """Solve the fold's training rows, in the order assemble_matrix uses."""
    try:
        rows = _training_rows(fold.ranks[:, : len(system_order)], lookups, fold.training)
        weights = _solve(system_order, *rows)
    except Exception as exc:
        raise RuntimeError(f"weight training failed on fold {label}: {exc}") from exc
    _fit_warning(f"fold {label}", weights)
    return weights


def _cross_validate(
    cube: _RankCube,
    systems: np.ndarray,
    system_order: tuple[str, ...],
    lookups: Sequence[np.ndarray],
) -> tuple[WeightVector, WeightVector, np.ndarray]:
    """LC's two-fold scorer for the first ``len(system_order)`` systems of
    ``cube``, each system scoring its ranks by its ``lookups`` entry;
    ``systems`` is their fusion._systems counts.

    Weights trained on fold A score fold B's queries and vice versa.
    Returns (weights_a, weights_b, scores), with ``scores`` in the cube's
    query order, as the unweighted scorers give them. The cube must hold
    at least 2 queries; its callers check that through split_odd_even.
    """
    size = len(system_order)
    fold_a, fold_b = cube.fold(0), cube.fold(1)
    weights_a = _train_fold(fold_a, system_order, lookups, "A")
    weights_b = _train_fold(fold_b, system_order, lookups, "B")
    scores = np.empty(cube.relevant.shape)
    scores[1::2] = _weighted(weights_a)(fold_b.ranks[:, :size], systems[1::2], lookups)
    scores[0::2] = _weighted(weights_b)(fold_a.ranks[:, :size], systems[0::2], lookups)
    return weights_a, weights_b, scores


def cross_validated_fusion(
    runs: Sequence[RunList],
    training_qrels: Qrels,
    official_qrels: Qrels,
    constant: float = DEFAULT_RECIPROCAL_CONSTANT,
    depth: int = DEFAULT_OUTPUT_DEPTH,
) -> XvalResult:
    """Two-fold cross-validated linear-combination fusion.

    Weights trained on fold A fuse fold B's queries and vice versa; the
    halves concatenate into one run covering every query of
    ``official_qrels``, evaluated against it. A fold whose weights are
    degenerate (no relevant training label) or ridge-regularized is
    reported with a warning. The scores are ranked and evaluated by
    _ranked, the step every compare_methods row goes through, so the
    report's means (evaluation._means) are compare_methods' LC row at
    the prefix of all ``runs``. Fewer than 2 runs, or ``depth`` below 1,
    raise ValueError before any fold trains.
    """
    if len(runs) < 2:
        raise ValueError("fusion experiments need at least 2 runs")
    _check_depth(depth)
    cube = _judged_cube(runs, training_qrels, official_qrels)
    lookups = [_by_reciprocal(constant, int(cube.ranks.max(initial=0)))] * len(runs)
    split = split_odd_even(cube.query_ids)
    tags = tuple(run.run_tag for run in runs)
    systems = _systems(cube.ranks)
    weights_a, weights_b, scores = _cross_validate(cube, systems, tags, lookups)
    order, lengths, values = _ranked(cube, systems, scores, depth, "LC-mlr")
    report = _report("LC-mlr", official_qrels.name, cube.query_ids, values)
    rankings = _rankings(cube.query_ids, cube.candidates, scores, order, lengths)
    in_fold_order = (*split.partition_a, *split.partition_b)
    fused = {query_id: rankings[query_id] for query_id in in_fold_order if query_id in rankings}
    return XvalResult(RunList("LC-mlr", fused), report, split, weights_a, weights_b)


@dataclass(frozen=True)
class FusionCurveRow:
    """Mean metrics for one method at one prefix size, one field per metric."""

    method: str
    num_systems: int
    map: float
    rp: float
    p10: float
    p20: float

    def value(self, metric: str) -> float:
        return getattr(self, metric)


def compare_methods(
    runs: Sequence[RunList],
    training_qrels: Qrels,
    official_qrels: Qrels,
    methods: Sequence[str] = ALL_METHODS,
    constant: float = DEFAULT_RECIPROCAL_CONSTANT,
    depth: int = DEFAULT_OUTPUT_DEPTH,
) -> list[FusionCurveRow]:
    """Incremental curves for each fusion method plus the best run.

    Each method fuses the run prefixes of size 2..n, so ``runs`` must
    already be ordered best-first; ``methods=["LC-mlr"]`` alone gives the
    cross-validated LC curve. Every row is computed on the official
    qrels' query set; ``best-component`` is a single row (num_systems 1)
    evaluating ``runs[0]`` as-is, with no rank cube. ``methods`` must be
    non-empty and name each method once. For the fusion methods one rank
    cube is built over all ``runs``. Each prefix and method scores every
    query of it in one pass, with the public fusers' scorers or, for LC,
    _cross_validate; then _ranked, the step that ranks and evaluates
    every prefix (xval's too), gives each query's metric values, and
    evaluation._means, the mean EvalReport.mean_metrics takes, averages
    them with no report made. So each row equals the one the public
    per-method calls on ``runs[:size]`` give, bit for bit. Each prefix's
    fusion._systems counts are the previous prefix's, plus its new
    system, added in place. They all read fusion._by_reciprocal's one
    lookup of ``constant``, got once per call, so a ``constant`` of -1 or
    less, NaN, +inf or one too large for the scores to strictly decrease
    over ranks 1 to the deepest rank in the cube raises ValueError for
    Borda too, as normalize_reciprocal does over its run's ranks. With LC
    among ``methods``, fewer than 2 queries raise ValueError before any
    prefix trains; with any fusion method, so does ``depth`` below 1.
    """
    unknown = [m for m in methods if m not in ALL_METHODS]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; expected a subset of {ALL_METHODS}")
    if not methods or len(set(methods)) < len(methods):
        raise ValueError(f"methods {list(methods)} must be non-empty and name each method once")
    if len(runs) < 2:
        raise ValueError("fusion experiments need at least 2 runs")
    if any(method != "best-component" for method in methods):
        _check_depth(depth)
        cube = _judged_cube(runs, training_qrels, official_qrels)
        reciprocal = _by_reciprocal(constant, int(cube.ranks.max(initial=0)))
    if "LC-mlr" in methods:
        split_odd_even(cube.query_ids)  # raises on fewer than 2 queries
    tags = tuple(run.run_tag for run in runs)

    rows: list[FusionCurveRow] = []
    for method in methods:
        if method == "best-component":
            report = evaluate(runs[0], official_qrels)
            rows.append(FusionCurveRow(method, 1, **report.mean_metrics()))
            continue
        # each prefix's _systems counts: the last one's, plus its new system
        systems = _systems(cube.ranks[:, :1])
        for size in range(2, len(runs) + 1):
            lookups = [reciprocal] * size
            systems += cube.ranks[:, size - 1] > 0
            if method == "LC-mlr":
                scores = _cross_validate(cube, systems, tags[:size], lookups)[2]
            else:
                scores = _SCORERS[method](cube.ranks[:, :size], systems, lookups)
            values = _ranked(cube, systems, scores, depth, method)[2]
            del scores  # not held while the next prefix trains: it sets the peak memory
            rows.append(FusionCurveRow(method, size, **_means(values)))
    return rows


def curve_csv(rows: Sequence[FusionCurveRow]) -> str:
    """Curve/compare rows as CSV, one line per (method, prefix size)."""
    out = ["method,num_systems," + ",".join(METRICS) + "\n"]
    for row in rows:
        cells = ",".join(f"{row.value(metric):.6f}" for metric in METRICS)
        out.append(f"{row.method},{row.num_systems},{cells}\n")
    return "".join(out)


@dataclass(frozen=True)
class QueryGroup:
    """Labeled subset of queries, grouped by relevant-doc count."""

    label: str
    query_ids: tuple[str, ...]


def group_by_relcount(
    qrels: Qrels,
    mode: str = "tertiles",
    threshold: int = 10,
) -> list[QueryGroup]:
    """Group the qrels' queries by R(q).

    ``tertiles``: sort queries ascending by R(q) and cut into three
    contiguous groups, remainder spread to the outer groups (50 queries
    give 17/16/17), labeled Low/Middle/High. ``threshold``: inclusive
    split into R(q) <= t and the rest.
    """
    if mode not in GROUP_MODES:
        raise ValueError(f"unknown grouping mode {mode!r}; expected one of {GROUP_MODES}")
    query_ids = qrels.query_ids

    if mode == "threshold":
        low = tuple(q for q in query_ids if qrels.relevant_count(q) <= threshold)
        high = tuple(q for q in query_ids if qrels.relevant_count(q) > threshold)
        return [
            QueryGroup(f"R<={threshold}", low),
            QueryGroup(f"R>{threshold}", high),
        ]

    if len(query_ids) < 3:
        raise ValueError("tertile grouping needs at least 3 queries")
    by_count = sorted(query_ids, key=qrels.relevant_count)  # stable: ties keep natural order
    third, remainder = divmod(len(by_count), 3)
    outer = third + (1 if remainder == 2 else 0)
    middle = third + (1 if remainder == 1 else 0)
    cuts = [by_count[:outer], by_count[outer : outer + middle], by_count[outer + middle :]]
    return [
        QueryGroup(label, tuple(sort_query_ids(chunk)))
        for label, chunk in zip(TERTILE_LABELS, cuts)
    ]


@dataclass(frozen=True)
class GroupReport:
    """Evaluation of one query group, with its mean R(q)."""

    label: str
    mean_relevant: float
    report: EvalReport


def grouped_eval(
    run: RunList, qrels: Qrels, groups: Sequence[QueryGroup]
) -> list[GroupReport]:
    """Evaluate ``run`` per group and overall.

    Empty groups are skipped with a warning. The trailing ``all`` entry
    covers the union of the group queries, so when the groups partition
    the query set it equals a plain evaluate().
    """
    out: list[GroupReport] = []
    union: set[str] = set()
    for group in groups:
        union.update(group.query_ids)
        if not group.query_ids:
            warn(f"group {group.label!r} is empty; skipped")
            continue
        counts = [qrels.relevant_count(q) for q in group.query_ids]
        out.append(
            GroupReport(
                group.label,
                sum(counts) / len(counts),
                evaluate(run, qrels, group.query_ids),
            )
        )
    if union:
        counts = [qrels.relevant_count(q) for q in sorted(union)]
        out.append(
            GroupReport("all", sum(counts) / len(counts), evaluate(run, qrels, union))
        )
    return out


def group_csv(reports: Sequence[GroupReport]) -> str:
    """Grouped evaluation as CSV, one line per group plus ``all``."""
    out = ["group,num_queries,mean_relevant," + ",".join(METRICS) + "\n"]
    for entry in reports:
        means = entry.report.mean_metrics()
        cells = ",".join(f"{means[metric]:.6f}" for metric in METRICS)
        out.append(
            f"{entry.label},{len(entry.report.per_query)},"
            f"{entry.mean_relevant:.2f},{cells}\n"
        )
    return "".join(out)


def generate_synthetic(
    seed: int,
    num_queries: int,
    num_systems: int,
    docs_per_query: int,
    relevant_per_query: int,
    system_quality_profile: Sequence[float] | None = None,
) -> tuple[list[RunList], Qrels]:
    """Deterministic synthetic runs and qrels for desk-scale experiments.

    Each query has its own document universe of ``docs_per_query`` ids,
    the first ``relevant_per_query`` of which are relevant. A system of
    quality c ranks docs by weighted sampling without replacement where
    relevant docs carry weight 1/(1 - c) and the rest weight 1
    (exponential-race keys); c >= 1 ranks all relevant docs first and
    c <= 0 ranks uniformly at random. Higher quality therefore gives
    stochastically higher MAP. A NaN quality has no such meaning and
    raises ValueError naming its index. Same seed, same bytes.
    """
    if min(num_queries, num_systems, docs_per_query, relevant_per_query) < 1:
        raise ValueError("all counts must be positive")
    if relevant_per_query > docs_per_query:
        raise ValueError(
            f"relevant_per_query {relevant_per_query} exceeds docs_per_query {docs_per_query}"
        )
    if system_quality_profile is None:
        qualities = np.linspace(0.85, 0.35, num_systems)
    else:
        if len(system_quality_profile) != num_systems:
            raise ValueError("quality profile length must equal num_systems")
        qualities = np.asarray(system_quality_profile, dtype=float)
        nan = np.flatnonzero(np.isnan(qualities))
        if nan.size:
            raise ValueError(f"system_quality_profile[{nan[0]}] is NaN")

    query_ids = [str(301 + i) for i in range(num_queries)]
    doc_ids = {
        query_id: [f"D{query_id}-{j:04d}" for j in range(docs_per_query)]
        for query_id in query_ids
    }
    grades = {
        query_id: {doc_id: 1 for doc_id in doc_ids[query_id][:relevant_per_query]}
        for query_id in query_ids
    }
    qrels = Qrels(grades, name="synthetic")
    # each query's universe as doc codes: a ranking gathers its codes from them
    universes = {query_id: _encode(doc_ids[query_id]) for query_id in query_ids}

    rng = np.random.default_rng(seed)
    relevant_slice = np.arange(docs_per_query) < relevant_per_query
    # Strictly decreasing scores, one read-only array that every ranking
    # shares: every drawn order is already canonical.
    scores = np.arange(docs_per_query, 0, -1, dtype=np.float64)
    scores.flags.writeable = False
    runs = []
    for index, quality in enumerate(qualities):
        rankings: dict[str, Ranking] = {}
        for query_id in query_ids:
            if quality >= 1.0:
                order = np.concatenate(
                    [
                        rng.permutation(relevant_per_query),
                        relevant_per_query
                        + rng.permutation(docs_per_query - relevant_per_query),
                    ]
                )
            else:
                weights = np.where(
                    relevant_slice, 1.0 / (1.0 - min(max(quality, 0.0), 1.0)), 1.0
                )
                keys = rng.exponential(size=docs_per_query) / weights
                order = np.argsort(keys, kind="stable")
            codes = universes[query_id][order]
            codes.flags.writeable = False
            rankings[query_id] = Ranking._of(codes, scores)
        runs.append(RunList(f"sys{index + 1:02d}", rankings))
    return runs, qrels
