"""Rank-to-score normalization and run fusion.

A normalized run is a RunList whose scores are the reciprocal model
score(d) = 1/(constant + rank(d)). Fusion methods: weighted linear
combination, CombSum, CombMNZ, and Borda count. This module makes each
fusion decision once, for its public fusers and the harness alike:
_rank_cube turns doc ids into an int32 rank cube (one query per call
here, every query of an experiment in the harness); each system's value
is looked up by rank (its scores, or the rank itself for Borda) and
reduced by the method's reducer (_REDUCERS, or _weighted for LC); _rank
orders each row score-descending with doc_id-ascending tie-break, cut
to the output depth; and _rankings builds the fused Rankings. Identical
inputs yield byte-identical output.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from typing import TYPE_CHECKING

import numpy as np

from .trec import _NO_RANKING, Ranking, RunList, sort_query_ids

if TYPE_CHECKING:  # import cycle: regression imports _rank_cube
    from .regression import WeightVector

DEFAULT_RECIPROCAL_CONSTANT = 60.0
DEFAULT_OUTPUT_DEPTH = 1000

# (values, present) rows, one per system, -> one score per candidate
_Reduce = Callable[[Iterable[tuple[np.ndarray, np.ndarray]]], np.ndarray]


def _by_reciprocal(constant: float, longest: int) -> np.ndarray:
    """The rank -> 1/(constant + rank) lookup of ranks 0..longest, 0.0 at rank 0.

    Every reciprocal score in the package is computed here.
    """
    if constant <= -1:
        raise ValueError(f"reciprocal constant must be > -1, got {constant}")
    lookup = np.zeros(longest + 1)
    lookup[1:] = 1.0 / (constant + np.arange(1, longest + 1))
    return lookup


def normalize_reciprocal(
    run: RunList, constant: float = DEFAULT_RECIPROCAL_CONSTANT
) -> RunList:
    """The run with each score replaced by 1/(constant + rank).

    constant must exceed -1 so every rank >= 1 maps to a finite positive
    score; the mapping is strictly decreasing in rank, so the ranking,
    and each query's docs tuple, are kept as they are.
    """
    longest = max(map(len, run.by_query.values()), default=0)
    by_rank = _by_reciprocal(constant, longest).tolist()
    by_query = {
        query_id: Ranking(ranking.docs, tuple(by_rank[1 : len(ranking) + 1]))
        for query_id, ranking in run.by_query.items()
    }
    return RunList(run.run_tag, by_query)


def _rank_cube(
    runs: Sequence[RunList], query_ids: Sequence[str]
) -> tuple[list[list[str]], np.ndarray]:
    """The candidate table of ``query_ids`` over ``runs``.

    Returns each query's candidates, the doc-id-sorted union of the
    runs' docs for it, and the int32 queries x runs x width rank cube:
    ranks[i, j, c] is run j's rank 1..L of candidates[i][c], 0 where run
    j did not rank it or c is past the query's candidates; the width is
    the largest candidate count. Doc ids become table columns only here.
    """
    rankings = [[run.by_query.get(q, _NO_RANKING) for run in runs] for q in query_ids]
    candidates = [sorted(set().union(*(ranking.docs for ranking in row))) for row in rankings]
    width = max(map(len, candidates), default=0)
    ranks = np.zeros((len(query_ids), len(runs), width), dtype=np.int32)
    for row, (docs, per_run) in enumerate(zip(candidates, rankings)):
        column = {doc_id: index for index, doc_id in enumerate(docs)}
        for j, ranking in enumerate(per_run):
            columns = [column[doc_id] for doc_id in ranking.docs]
            ranks[row, j, columns] = np.arange(1, len(ranking) + 1)
    return candidates, ranks


def _by_score(ranking: Ranking) -> np.ndarray:
    """A scored ranking's rank -> value lookup: its scores, 0.0 at rank 0."""
    return np.array((0.0, *ranking.scores))


def _scores(ranks: np.ndarray, lookups: Sequence[np.ndarray], reduce: _Reduce) -> np.ndarray:
    """The fused score of every column of a rank cube, queries x width.

    System j's value at rank r is lookups[j][r] (0 at r = 0, unranked).
    Each row is looked up as ``reduce`` consumes it, so no float cube is
    built.
    """
    return reduce((lookup[ranks[:, j]], ranks[:, j] > 0) for j, lookup in enumerate(lookups))


def _check_depth(depth: int) -> None:
    if depth < 1:
        raise ValueError(f"output depth must be >= 1, got {depth}")


def _rank(ranks: np.ndarray, scores: np.ndarray, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """(order, lengths): order[i] holds the columns of row i of ``scores``
    that some system of ``ranks`` ranked, by score descending, then the
    rest, cut to ``depth``; lengths[i] counts the ranked ones in it.

    Columns are in doc-id order, so a stable argsort of -score is the
    canonical (score descending, doc_id ascending) order.
    """
    _check_depth(depth)
    ranked = (ranks > 0).any(axis=1)
    order = np.argsort(np.where(ranked, -scores, np.inf), axis=1, kind="stable")[:, :depth]
    return order, np.minimum(np.count_nonzero(ranked, axis=1), depth)


def _rankings(
    query_ids: Sequence[str],
    candidates: Sequence[Sequence[str]],
    scores: np.ndarray,
    order: np.ndarray,
    lengths: np.ndarray,
) -> dict[str, Ranking]:
    """Each query's fused Ranking: its candidates at the first lengths[i]
    columns of _rank's order[i], with their scores; one with none is left out."""
    fused: dict[str, Ranking] = {}
    for query_id, docs, row, columns, length in zip(
        query_ids, candidates, scores, order, lengths.tolist()
    ):
        if length:
            columns = columns[:length]
            fused[query_id] = Ranking(
                tuple([docs[column] for column in columns.tolist()]), tuple(row[columns].tolist())
            )
    return fused


def _fuse(
    runs: Sequence[RunList],
    queries: Iterable[str] | None,
    lookup: Callable[[Ranking], np.ndarray],
    reduce: _Reduce,
    run_tag: str,
    depth: int,
) -> RunList:
    """One fused run of ``runs`` over ``queries``, in natural order.

    ``queries`` defaults to every query any run ranks. Each query is
    scored as a one-row cube, with each run's ``lookup`` of its ranking,
    so only one query's table is held at a time. A query with no
    candidates is left out. ``depth`` below 1 raises ValueError.
    """
    _check_depth(depth)
    if queries is None:
        queries = {query_id for run in runs for query_id in run.by_query}
    fused: dict[str, Ranking] = {}
    for query_id in sort_query_ids(queries):
        candidates, ranks = _rank_cube(runs, [query_id])
        lookups = [lookup(run.by_query.get(query_id, _NO_RANKING)) for run in runs]
        scores = _scores(ranks, lookups, reduce)
        fused.update(_rankings([query_id], candidates, scores, *_rank(ranks, scores, depth)))
    return RunList(run_tag, fused)


# The reducers take one (values, present) row per system, in system order,
# each row queries x width: one query's from the public fusers, every
# query's from the harness. Both paths share them, so a fused score has one
# rounding.


def _sums(rows: Iterable[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Per candidate, the rows' values added one row at a time from 0 in
    system order, and the number of rows it is present in.

    numpy's sum(axis=0) adds a one-column table pairwise, and a BLAS
    product could reorder the sum; either could change the last bit of a
    fused score.
    """
    total = count = 0
    for values, present in rows:
        total += values  # the first row rebinds to a new array, the rest add in place
        count += present
    return total, count


def _weighted(w: WeightVector) -> _Reduce:
    """intercept + sum_j w_j * value_j."""
    weights = np.asarray(w.weights, dtype=float)
    return lambda rows: w.intercept + _sums(
        (weight * values, present) for weight, (values, present) in zip(weights, rows)
    )[0]


def _points(rows: Iterable[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Borda over int rank rows (0 = unranked): |C| + 1 - rank from each
    system that ranked the candidate, as floats.

    Summed as (|C| + 1) * m - (sum of the m ranks), in integers, which is
    exact; |C| counts the columns some system ranked.
    """
    rank_sum, systems = _sums(rows)
    candidates = np.count_nonzero(systems, axis=-1, keepdims=True)
    return ((candidates + 1) * systems - rank_sum).astype(float)


# The reducer of each unweighted method, read by its public fuser and by the
# harness: CombSum's sum of scores, CombMNZ's sum times the number of systems
# that ranked the candidate, and Borda's points from the ranks.
_REDUCERS: dict[str, _Reduce] = {
    "combsum": lambda rows: _sums(rows)[0],
    "combmnz": lambda rows: np.multiply(*_sums(rows)),
    "borda": _points,
}


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
    return _fuse(scored, queries, _by_score, _weighted(w), run_tag, depth)


def comb_sum(
    scored: Sequence[RunList],
    depth: int = DEFAULT_OUTPUT_DEPTH,
    run_tag: str = "combsum",
    queries: Iterable[str] | None = None,
) -> RunList:
    """Fuse by fused(d) = sum_j score_j(d), missing = 0."""
    if not scored:
        raise ValueError("need at least one scored run")
    return _fuse(scored, queries, _by_score, _REDUCERS["combsum"], run_tag, depth)


def comb_mnz(
    scored: Sequence[RunList],
    depth: int = DEFAULT_OUTPUT_DEPTH,
    run_tag: str = "combmnz",
    queries: Iterable[str] | None = None,
) -> RunList:
    """Fuse by fused(d) = (systems ranking d) * sum_j score_j(d)."""
    if not scored:
        raise ValueError("need at least one scored run")
    return _fuse(scored, queries, _by_score, _REDUCERS["combmnz"], run_tag, depth)


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
    return _fuse(
        runs, queries, lambda r: np.arange(len(r) + 1), _REDUCERS["borda"], run_tag, depth
    )
