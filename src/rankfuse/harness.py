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
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

import numpy as np

from .evaluation import METRICS, EvalReport, evaluate
from .fusion import (
    DEFAULT_OUTPUT_DEPTH,
    DEFAULT_RECIPROCAL_CONSTANT,
    _as_float,
    _fuse,
    _mnz,
    _points,
    _rank_table,
    _rankings,
    _reciprocal,
    _summed,
    _weighted,
)
from .regression import RIDGE_FALLBACK, WeightVector, _stack_rows, _targets, solve_ols
from .trec import Qrels, RunList, sort_query_ids

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


class _RankTable(NamedTuple):
    """One query's candidates over all of a call's runs.

    ``candidates`` are doc-id-sorted, ``ranks`` is the int32
    systems x candidates rank matrix (0 = unranked) and ``targets`` holds
    each candidate's binarized training judgment.
    """

    candidates: list[str]
    ranks: np.ndarray
    targets: np.ndarray

    def prefix(self, size: int) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
        """The table of the first ``size`` systems.

        Rows [:size] and the columns at least one of them ranked, as
        (candidates, ranks, presence mask, targets): exactly the table
        the fusion methods build from those systems alone.
        """
        ranks = self.ranks[:size]
        present = ranks > 0
        keep = present.any(axis=0)
        if keep.all():
            return self.candidates, ranks, present, self.targets
        candidates = list(compress(self.candidates, keep))
        return candidates, ranks[:, keep], present[:, keep], self.targets[keep]


def _rank_tables(
    runs: Sequence[RunList], query_ids: Sequence[str], training_qrels: Qrels
) -> dict[str, _RankTable]:
    tables = {}
    for query_id in query_ids:
        candidates, ranks, _ = _rank_table(_rankings(runs, query_id))
        tables[query_id] = _RankTable(
            candidates, ranks, _targets(training_qrels, query_id, candidates)
        )
    return tables


def _fuse_prefix(
    tables: Mapping[str, _RankTable],
    query_ids: Iterable[str],
    size: int,
    values_of: Callable[[np.ndarray], np.ndarray],
    reduce: Callable[[np.ndarray, np.ndarray], np.ndarray],
    run_tag: str,
    depth: int,
) -> RunList:
    """Fuse the first ``size`` systems over ``query_ids``, one table slice at a time."""
    def sliced():
        for query_id in query_ids:
            candidates, ranks, present, _ = tables[query_id].prefix(size)
            yield query_id, candidates, values_of(ranks), present

    return _fuse(sliced(), reduce, run_tag, depth)


def _train_fold(
    tables: Mapping[str, _RankTable],
    system_order: tuple[str, ...],
    reciprocal: Callable[[np.ndarray], np.ndarray],
    fold_queries: Sequence[str],
    label: str,
) -> WeightVector:
    """Solve the fold's training matrix, rows in the order assemble_matrix uses."""
    size = len(system_order)
    try:
        rows = []
        for query_id in sort_query_ids(fold_queries):
            candidates, ranks, _, targets = tables[query_id].prefix(size)
            rows.append((query_id, candidates, reciprocal(ranks), targets))
        weights = solve_ols(_stack_rows(system_order, rows))
    except Exception as exc:
        raise RuntimeError(f"weight training failed on fold {label}: {exc}") from exc
    if weights.degenerate:
        warnings.warn(
            f"fold {label} ({size} systems): no training label is relevant; "
            "the weights are all zero and the other fold is fused in doc-id order",
            stacklevel=4,
        )
    elif weights.regularized:
        warnings.warn(
            f"fold {label} ({size} systems): the design is rank-deficient; "
            f"solved with a ridge of {RIDGE_FALLBACK}",
            stacklevel=4,
        )
    return weights


def _cross_validate(
    tables: Mapping[str, _RankTable],
    system_order: tuple[str, ...],
    official_qrels: Qrels,
    query_ids: Sequence[str],
    constant: float,
    depth: int,
) -> XvalResult:
    """Two-fold LC fusion of the first ``len(system_order)`` systems' tables."""
    split = split_odd_even(query_ids)
    reciprocal = _reciprocal(constant)
    weights_a = _train_fold(tables, system_order, reciprocal, split.partition_a, "A")
    weights_b = _train_fold(tables, system_order, reciprocal, split.partition_b, "B")
    size = len(system_order)
    fused_b = _fuse_prefix(
        tables, split.partition_b, size, reciprocal, _weighted(weights_a), "LC-mlr", depth
    )
    fused_a = _fuse_prefix(
        tables, split.partition_a, size, reciprocal, _weighted(weights_b), "LC-mlr", depth
    )
    fused = RunList("LC-mlr", {**fused_a.by_query, **fused_b.by_query})
    report = evaluate(fused, official_qrels, query_ids)
    return XvalResult(fused, report, split, weights_a, weights_b)


def cross_validated_fusion(
    runs: Sequence[RunList],
    training_qrels: Qrels,
    official_qrels: Qrels,
    constant: float = DEFAULT_RECIPROCAL_CONSTANT,
    depth: int = DEFAULT_OUTPUT_DEPTH,
    queries: Iterable[str] | None = None,
) -> XvalResult:
    """Two-fold cross-validated linear-combination fusion.

    Weights trained on fold A fuse fold B's queries and vice versa; the
    halves concatenate into one run covering every query, evaluated
    against ``official_qrels``. ``queries`` defaults to the official
    qrels' query set. A fold whose weights are degenerate (no relevant
    training label) or ridge-regularized is reported with a warning.
    """
    if len(runs) < 2:
        raise ValueError("fusion experiments need at least 2 runs")
    query_ids = sort_query_ids(
        official_qrels.query_ids if queries is None else queries
    )
    return _cross_validate(
        _rank_tables(runs, query_ids, training_qrels),
        tuple(run.run_tag for run in runs),
        official_qrels, query_ids, constant, depth,
    )


@dataclass(frozen=True)
class FusionCurveRow:
    """Mean metrics for one method at one prefix size."""

    method: str
    num_systems: int
    map: float
    rp: float
    p10: float
    p20: float

    def value(self, metric: str) -> float:
        return {"map": self.map, "rp": self.rp, "p10": self.p10, "p20": self.p20}[
            metric
        ]


def _curve_row(method: str, num_systems: int, report: EvalReport) -> FusionCurveRow:
    means = report.mean_metrics()
    return FusionCurveRow(
        method, num_systems, means["map"], means["rp"], means["p10"], means["p20"]
    )


def compare_methods(
    runs: Sequence[RunList],
    training_qrels: Qrels,
    official_qrels: Qrels,
    methods: Sequence[str] = ALL_METHODS,
    constant: float = DEFAULT_RECIPROCAL_CONSTANT,
    depth: int = DEFAULT_OUTPUT_DEPTH,
    queries: Iterable[str] | None = None,
) -> list[FusionCurveRow]:
    """Incremental curves for each fusion method plus the best run.

    Each method fuses the run prefixes of size 2..n, so ``runs`` must
    already be ordered best-first; ``methods=["LC-mlr"]`` alone gives the
    cross-validated LC curve. Every row is computed on the same query
    set; ``best-component`` is a single row (num_systems 1) evaluating
    ``runs[0]`` as-is. Each query's rank table is built once over all
    ``runs``; every prefix and method reduces a slice of it, so each row
    equals the one the public per-method calls on ``runs[:size]`` give.
    """
    unknown = [m for m in methods if m not in ALL_METHODS]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; expected a subset of {ALL_METHODS}")
    if len(runs) < 2:
        raise ValueError("fusion experiments need at least 2 runs")
    query_ids = sort_query_ids(
        official_qrels.query_ids if queries is None else queries
    )
    tables = _rank_tables(runs, query_ids, training_qrels)
    tags = tuple(run.run_tag for run in runs)

    rows: list[FusionCurveRow] = []
    for method in methods:
        if method == "best-component":
            rows.append(
                _curve_row(method, 1, evaluate(runs[0], official_qrels, query_ids))
            )
            continue
        for size in range(2, len(runs) + 1):
            if method == "LC-mlr":
                report = _cross_validate(
                    tables, tags[:size], official_qrels, query_ids, constant, depth
                ).report
            else:
                if method == "borda":
                    values_of, reduce = _as_float, _points
                else:
                    values_of = _reciprocal(constant)
                    reduce = _summed if method == "combsum" else _mnz
                fused = _fuse_prefix(tables, query_ids, size, values_of, reduce, method, depth)
                report = evaluate(fused, official_qrels, query_ids)
            rows.append(_curve_row(method, size, report))
    return rows


def curve_csv(rows: Sequence[FusionCurveRow]) -> str:
    """Curve/compare rows as CSV, one line per (method, prefix size)."""
    out = ["method,num_systems,map,rp,p10,p20\n"]
    for row in rows:
        out.append(
            f"{row.method},{row.num_systems},{row.map:.6f},{row.rp:.6f},"
            f"{row.p10:.6f},{row.p20:.6f}\n"
        )
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
    queries: Iterable[str] | None = None,
) -> list[QueryGroup]:
    """Group queries by R(q).

    ``tertiles``: sort queries ascending by R(q) and cut into three
    contiguous groups, remainder spread to the outer groups (50 queries
    give 17/16/17), labeled Low/Middle/High. ``threshold``: inclusive
    split into R(q) <= t and the rest.
    """
    if mode not in GROUP_MODES:
        raise ValueError(f"unknown grouping mode {mode!r}; expected one of {GROUP_MODES}")
    query_ids = sort_query_ids(qrels.query_ids if queries is None else queries)

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
            warnings.warn(f"group {group.label!r} is empty; skipped", stacklevel=2)
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
    out = ["group,num_queries,mean_relevant,map,rp,p10,p20\n"]
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
    stochastically higher MAP. Same seed, same bytes.
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

    rng = np.random.default_rng(seed)
    relevant_slice = np.arange(docs_per_query) < relevant_per_query
    runs = []
    for index, quality in enumerate(qualities):
        scores: dict[str, dict[str, float]] = {}
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
            docs = doc_ids[query_id]
            scores[query_id] = {
                docs[doc_index]: float(docs_per_query - position)
                for position, doc_index in enumerate(order)
            }
        runs.append(RunList.from_scores(f"sys{index + 1:02d}", scores))
    return runs, qrels
