"""Rank-to-score normalization and run fusion.

A normalized run is a RunList whose scores are the reciprocal model
score(d) = 1/(constant + rank(d)). Runs are combined per query over the
union of retrieved documents, held as one systems x candidates table
built from each system's docs and a parallel value sequence (its scores,
or its ranks 1..L for Borda), which each method reduces column by
column. Fusion methods: weighted linear combination, CombSum, CombMNZ,
and Borda count. Every fused run is sorted score-descending with
doc_id-ascending tie-break, densely ranked, and truncated to the output
depth, so identical inputs yield byte-identical output.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import TYPE_CHECKING

import numpy as np

from .trec import _NO_RANKING, Ranking, RunList, sort_query_ids

if TYPE_CHECKING:  # import cycle: regression builds its rows with _score_table
    from .regression import WeightVector

DEFAULT_RECIPROCAL_CONSTANT = 60.0
DEFAULT_OUTPUT_DEPTH = 1000

# (values, present) of one query's candidate table -> one score per candidate
_Reduce = Callable[[np.ndarray, np.ndarray], np.ndarray]
# (candidates, systems x candidates values, presence mask) of one query
_Table = tuple[list[str], np.ndarray, np.ndarray]


def _reciprocal(constant: float) -> Callable[[np.ndarray], np.ndarray]:
    """Reciprocal scores of a rank array: 1/(constant + rank) where rank > 0, else 0.

    Every reciprocal score in the package is computed here.
    """
    if constant <= -1:
        raise ValueError(f"reciprocal constant must be > -1, got {constant}")

    def values(ranks: np.ndarray) -> np.ndarray:
        out = np.zeros(ranks.shape)
        ranked = ranks > 0
        out[ranked] = 1.0 / (constant + ranks[ranked])
        return out

    return values


def normalize_reciprocal(
    run: RunList, constant: float = DEFAULT_RECIPROCAL_CONSTANT
) -> RunList:
    """The run with each score replaced by 1/(constant + rank).

    constant must exceed -1 so every rank >= 1 maps to a finite positive
    score; the mapping is strictly decreasing in rank, so the ranking,
    and each query's docs tuple, are kept as they are.
    """
    reciprocal = _reciprocal(constant)
    longest = max(map(len, run.by_query.values()), default=0)
    by_rank = reciprocal(np.arange(1, longest + 1)).tolist()
    by_query = {
        query_id: Ranking(ranking.docs, tuple(by_rank[: len(ranking)]))
        for query_id, ranking in run.by_query.items()
    }
    return RunList(run.run_tag, by_query)


def _rankings(runs: Sequence[RunList], query_id: str) -> list[Ranking]:
    """Each run's ranking of one query, empty where it has none."""
    return [run.by_query.get(query_id, _NO_RANKING) for run in runs]


def _candidate_table(
    systems: Sequence[tuple[Sequence[str], Sequence[float] | np.ndarray]],
    dtype: type = float,
) -> _Table:
    """One query's candidates as a table.

    ``systems`` holds each system's docs and a parallel value sequence.
    Returns the sorted union C of the docs, a systems x |C| ``dtype``
    matrix of each system's value per candidate (0 where the system did
    not rank it) and the matching boolean presence mask.
    """
    candidates = sorted(set().union(*(docs for docs, _ in systems)))
    column = {doc_id: index for index, doc_id in enumerate(candidates)}
    values = np.zeros((len(systems), len(candidates)), dtype=dtype)
    present = np.zeros(values.shape, dtype=bool)
    for row, (docs, row_values) in enumerate(systems):
        columns = [column[doc_id] for doc_id in docs]
        values[row, columns] = row_values
        present[row, columns] = True
    return candidates, values, present


def _score_table(rankings: Sequence[Ranking]) -> _Table:
    """The float table of the rankings' scores."""
    return _candidate_table([(ranking.docs, ranking.scores) for ranking in rankings])


def _rank_table(rankings: Sequence[Ranking]) -> _Table:
    """The int32 table of the rankings' ranks 1..L (0 = unranked)."""
    return _candidate_table(
        [(ranking.docs, np.arange(1, len(ranking) + 1)) for ranking in rankings], np.int32
    )


def _query_tables(
    runs: Sequence[RunList],
    queries: Iterable[str] | None,
    table: Callable[[Sequence[Ranking]], _Table],
) -> Iterator[tuple[str, list[str], np.ndarray, np.ndarray]]:
    """``(query_id, *table)`` per selected query, in natural order, each
    built only when it is consumed.

    Every per-query table over a list of runs comes from here: the
    fusers', the training matrix's and the prefix loop's rank tables.
    ``queries`` defaults to every query any run ranks.
    """
    if queries is None:
        queries = {query_id for run in runs for query_id in run.by_query}
    for query_id in sort_query_ids(queries):
        yield query_id, *table(_rankings(runs, query_id))


def _fuse(
    tables: Iterable[tuple[str, Sequence[str], np.ndarray, np.ndarray]],
    reduce: _Reduce,
    run_tag: str,
    depth: int,
) -> RunList:
    """One fused run from ``(query_id, candidates, values, present)`` tables.

    Each candidate scores ``reduce(values, present)``. The candidates are
    doc-id-sorted, so a stable argsort of -score is the canonical
    (score descending, doc_id ascending) order. A query with no
    candidates is left out. ``depth`` below 1 raises ValueError.
    """
    if depth < 1:
        raise ValueError(f"output depth must be >= 1, got {depth}")
    fused: dict[str, Ranking] = {}
    for query_id, candidates, values, present in tables:
        if not candidates:
            continue
        scores = reduce(values, present)
        order = np.argsort(-scores, kind="stable")[:depth]
        fused[query_id] = Ranking(
            tuple([candidates[column] for column in order.tolist()]),
            tuple(scores[order].tolist()),
        )
    return RunList(run_tag, fused)


# The reductions below keep to elementwise products and sum(axis=0), which
# adds the systems' rows in order; a BLAS product could reorder the sum and
# change the last bit of a fused score.


def _weighted(w: WeightVector) -> _Reduce:
    """intercept + sum_j w_j * value_j."""
    weights = np.asarray(w.weights, dtype=float)[:, None]
    return lambda values, present: w.intercept + (weights * values).sum(axis=0)


def _summed(values: np.ndarray, present: np.ndarray) -> np.ndarray:
    return values.sum(axis=0)


def _mnz(values: np.ndarray, present: np.ndarray) -> np.ndarray:
    return present.sum(axis=0) * values.sum(axis=0)


def _as_float(ranks: np.ndarray) -> np.ndarray:
    """Borda's values: the int32 ranks as floats, so the points are float sums."""
    return ranks.astype(float)


def _points(ranks: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Borda: |C| + 1 - rank from each system that ranked the candidate."""
    return ((ranks.shape[1] + 1 - ranks) * present).sum(axis=0)


def linear_combine(
    scored: Sequence[RunList],
    w: WeightVector,
    depth: int = DEFAULT_OUTPUT_DEPTH,
    run_tag: str = "LC-mlr",
    queries: Iterable[str] | None = None,
) -> RunList:
    """Fuse by fused(d) = intercept + sum_j w_j * score_j(d), missing = 0.

    The scored runs must line up one-to-one with w.system_order. The
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
    tables = _query_tables(scored, queries, _score_table)
    return _fuse(tables, _weighted(w), run_tag, depth)


def comb_sum(
    scored: Sequence[RunList],
    depth: int = DEFAULT_OUTPUT_DEPTH,
    run_tag: str = "combsum",
    queries: Iterable[str] | None = None,
) -> RunList:
    """Fuse by fused(d) = sum_j score_j(d), missing = 0."""
    if not scored:
        raise ValueError("need at least one scored run")
    tables = _query_tables(scored, queries, _score_table)
    return _fuse(tables, _summed, run_tag, depth)


def comb_mnz(
    scored: Sequence[RunList],
    depth: int = DEFAULT_OUTPUT_DEPTH,
    run_tag: str = "combmnz",
    queries: Iterable[str] | None = None,
) -> RunList:
    """Fuse by fused(d) = (systems ranking d) * sum_j score_j(d)."""
    if not scored:
        raise ValueError("need at least one scored run")
    tables = _query_tables(scored, queries, _score_table)
    return _fuse(tables, _mnz, run_tag, depth)


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
    tables = (
        (query_id, candidates, _as_float(ranks), present)
        for query_id, candidates, ranks, present in _query_tables(runs, queries, _rank_table)
    )
    return _fuse(tables, _points, run_tag, depth)
