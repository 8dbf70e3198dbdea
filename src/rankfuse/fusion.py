"""Rank-to-score normalization and run fusion.

Ranked lists are first normalized with the reciprocal model
score(d) = 1/(constant + rank(d)), then combined per query over the
union of retrieved documents, held as one systems x candidates table
that each method reduces column by column. Fusion methods: weighted
linear combination, CombSum, CombMNZ, and Borda count. Every fused run
is sorted score-descending with doc_id-ascending tie-break, densely
ranked, and truncated to the output depth, so identical inputs yield
byte-identical output.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .trec import RunList, sort_query_ids

if TYPE_CHECKING:  # import cycle: regression trains on ScoredList
    from .regression import WeightVector

DEFAULT_RECIPROCAL_CONSTANT = 60.0
DEFAULT_OUTPUT_DEPTH = 1000

# (values, present) of one query's candidate table -> one score per candidate
_Reduce = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ScoredList:
    """Per-query doc_id -> normalized score map for one system."""

    run_tag: str
    scores: dict[str, dict[str, float]]

    @property
    def query_ids(self) -> list[str]:
        return sort_query_ids(self.scores)

    def score(self, query_id: str, doc_id: str) -> float:
        """Normalized score, 0.0 for docs this system did not retrieve."""
        return self.scores.get(query_id, {}).get(doc_id, 0.0)


def normalize_reciprocal(
    run: RunList, constant: float = DEFAULT_RECIPROCAL_CONSTANT
) -> ScoredList:
    """Convert canonical ranks to scores 1/(constant + rank).

    constant must exceed -1 so every rank >= 1 maps to a finite positive
    score; the mapping is strictly decreasing in rank, so ranking order
    is preserved.
    """
    if constant <= -1:
        raise ValueError(f"reciprocal constant must be > -1, got {constant}")
    scores = {
        query_id: {e.doc_id: 1.0 / (constant + e.rank) for e in run.entries(query_id)}
        for query_id in run.query_ids
    }
    return ScoredList(run.run_tag, scores)


def _select_queries(
    per_system: Sequence[Mapping[str, Mapping[str, float]]],
    queries: Iterable[str] | None,
) -> list[str]:
    if queries is not None:
        return sort_query_ids(queries)
    seen: set[str] = set()
    for scores in per_system:
        seen.update(scores)
    return sort_query_ids(seen)


def _candidate_table(
    per_system: Sequence[Mapping[str, float]],
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """One query's candidates as a table.

    Returns the sorted union C of the systems' docs, a systems x |C|
    matrix of each system's value per candidate (0 where the system did
    not rank it) and the matching boolean presence mask.
    """
    candidates = sorted(set().union(*per_system))
    column = {doc_id: index for index, doc_id in enumerate(candidates)}
    values = np.zeros((len(per_system), len(candidates)))
    present = np.zeros(values.shape, dtype=bool)
    for row, docs in enumerate(per_system):
        columns = [column[doc_id] for doc_id in docs]
        values[row, columns] = list(docs.values())
        present[row, columns] = True
    return candidates, values, present


def _fuse_query(per_system: Sequence[Mapping[str, float]], reduce: _Reduce) -> dict[str, float]:
    """Score each candidate by ``reduce(values, present)``, one value per column.

    The table is local, so it is freed as soon as its query is fused.
    """
    candidates, values, present = _candidate_table(per_system)
    return dict(zip(candidates, reduce(values, present).tolist()))


def _fuse(
    per_system: Sequence[Mapping[str, Mapping[str, float]]],
    queries: Iterable[str] | None,
    reduce: _Reduce,
    run_tag: str,
    depth: int,
) -> RunList:
    """One fused run; a query that no system ranked anything for is left out."""
    fused: dict[str, dict[str, float]] = {}
    for query_id in _select_queries(per_system, queries):
        scores = _fuse_query([system.get(query_id, {}) for system in per_system], reduce)
        if scores:
            fused[query_id] = scores
    return RunList.from_scores(run_tag, fused, depth=depth)


# The reductions below keep to elementwise products and sum(axis=0), which
# adds the systems' rows in order; a BLAS product could reorder the sum and
# change the last bit of a fused score.


def linear_combine(
    scored: Sequence[ScoredList],
    w: WeightVector,
    depth: int = DEFAULT_OUTPUT_DEPTH,
    run_tag: str = "LC-mlr",
    queries: Iterable[str] | None = None,
) -> RunList:
    """Fuse by fused(d) = intercept + sum_j w_j * score_j(d), missing = 0.

    The scored lists must line up one-to-one with w.system_order. The
    intercept shifts all fused scores equally, so it never alters the
    ranking; it is kept so fused scores match the trained model's
    predictions.
    """
    if not scored:
        raise ValueError("need at least one scored run")
    tags = tuple(system.run_tag for system in scored)
    if tags != w.system_order or len(w.weights) != len(scored):
        raise ValueError(
            f"scored runs {tags} do not match weight vector systems {w.system_order}"
        )
    weights = np.asarray(w.weights, dtype=float)[:, None]
    return _fuse(
        [system.scores for system in scored], queries,
        lambda values, present: w.intercept + (weights * values).sum(axis=0),
        run_tag, depth,
    )


def comb_sum(
    scored: Sequence[ScoredList],
    depth: int = DEFAULT_OUTPUT_DEPTH,
    run_tag: str = "combsum",
    queries: Iterable[str] | None = None,
) -> RunList:
    """Fuse by fused(d) = sum_j score_j(d), missing = 0."""
    if not scored:
        raise ValueError("need at least one scored run")
    return _fuse(
        [system.scores for system in scored], queries,
        lambda values, present: values.sum(axis=0),
        run_tag, depth,
    )


def comb_mnz(
    scored: Sequence[ScoredList],
    depth: int = DEFAULT_OUTPUT_DEPTH,
    run_tag: str = "combmnz",
    queries: Iterable[str] | None = None,
) -> RunList:
    """Fuse by fused(d) = (systems ranking d) * sum_j score_j(d)."""
    if not scored:
        raise ValueError("need at least one scored run")
    return _fuse(
        [system.scores for system in scored], queries,
        lambda values, present: present.sum(axis=0) * values.sum(axis=0),
        run_tag, depth,
    )


def borda(
    runs: Sequence[RunList],
    depth: int = DEFAULT_OUTPUT_DEPTH,
    run_tag: str = "borda",
    queries: Iterable[str] | None = None,
) -> RunList:
    """Fuse by Borda count over each query's candidate union C.

    A system ranking d at rank r awards |C| - r + 1 points; a system
    that did not rank d awards 0. Unranked candidates share no residual
    points under this variant.
    """
    if not runs:
        raise ValueError("need at least one run")
    ranks = [
        {
            query_id: {e.doc_id: e.rank for e in run.entries(query_id)}
            for query_id in run.query_ids
        }
        for run in runs
    ]
    return _fuse(
        ranks, queries,
        lambda values, present: ((values.shape[1] + 1 - values) * present).sum(axis=0),
        run_tag, depth,
    )
