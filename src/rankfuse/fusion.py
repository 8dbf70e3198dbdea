"""Rank-to-score normalization and run fusion.

A normalized run is a RunList whose scores are the reciprocal model
score(d) = 1/(constant + rank(d)). Fusion methods: weighted linear
combination, CombSum, CombMNZ, and Borda count. This module makes each
fusion decision once, for its public fusers and the harness alike:
_rank_cube turns doc ids into an int32 rank cube (one query per call
here, every query of an experiment in the harness); the method's scorer
(_SCORERS, or _weighted for LC) gives each column its fused score from
the cube and each system's rank -> value lookup, Borda's from the ranks
alone; _rank orders each row score-descending with doc_id-ascending
tie-break, cut to the output depth; and _rankings builds the fused
Rankings. Identical inputs yield byte-identical output.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from itertools import chain, count
from typing import TYPE_CHECKING

import numpy as np

from .trec import _NO_RANKING, Ranking, RunList, sort_query_ids

if TYPE_CHECKING:  # import cycle: regression imports _rank_cube
    from .regression import WeightVector

DEFAULT_RECIPROCAL_CONSTANT = 60.0
DEFAULT_OUTPUT_DEPTH = 1000

# (rank cube, each system's rank -> value lookup) -> one score per column
_Score = Callable[[np.ndarray, Iterable[np.ndarray]], np.ndarray]


def _by_reciprocal(constant: float, longest: int) -> np.ndarray:
    """The rank -> 1/(constant + rank) lookup of ranks 0..longest, 0.0 at rank 0.

    Every reciprocal score in the package is computed here, so this is
    where a constant of -1 or less, NaN or +inf is refused, and so is a
    finite one too large for the scores of ranks 1..longest to strictly
    decrease (from about 2**53 the float spacing exceeds 1, so ranks
    share a score and the fusers would order by doc id alone).
    """
    if constant <= -1:
        raise ValueError(f"reciprocal constant must be > -1, got {constant}")
    if not math.isfinite(constant):
        raise ValueError(f"reciprocal constant must be finite, got {constant}")
    lookup = np.zeros(longest + 1)
    lookup[1:] = 1.0 / (constant + np.arange(1, longest + 1))
    if not (lookup[1:-1] > lookup[2:]).all():
        raise ValueError(
            f"reciprocal constant {constant} is too large: 1/(constant + rank) "
            f"does not strictly decrease over ranks 1..{longest}"
        )
    return lookup


def normalize_reciprocal(
    run: RunList, constant: float = DEFAULT_RECIPROCAL_CONSTANT
) -> RunList:
    """The run with each score replaced by 1/(constant + rank).

    constant must be finite and exceed -1 so every rank >= 1 maps to a
    finite positive score, and small enough (below about 2**53) that the
    scores strictly decrease over the run's ranks; so the ranking, and
    each query's docs tuple, are kept as they are.
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

    Per query and run, the doc ids are mapped to columns by builtins
    (dict(zip(...)), np.fromiter over map), with no Python-level step
    per entry, and the ranks are slices of one shared arange.
    """
    rankings = [[run.by_query.get(q, _NO_RANKING) for run in runs] for q in query_ids]
    candidates = [sorted(set().union(*(ranking.docs for ranking in row))) for row in rankings]
    width = max(map(len, candidates), default=0)
    ranks = np.zeros((len(query_ids), len(runs), width), dtype=np.int32)
    longest = max(map(len, chain.from_iterable(rankings)), default=0)
    by_position = np.arange(1, longest + 1, dtype=np.int32)
    for row, (docs, per_run) in enumerate(zip(candidates, rankings)):
        # CPython makes count()'s ints 28 B and range()'s 32 B: it shows in the peak memory
        column = dict(zip(docs, count()))
        for j, ranking in enumerate(per_run):
            n = len(ranking)
            ranks[row, j, np.fromiter(map(column.__getitem__, ranking.docs), np.intp, n)] = (
                by_position[:n]
            )
    return candidates, ranks


def _by_score(ranking: Ranking) -> np.ndarray:
    """A scored ranking's rank -> value lookup: its scores, 0.0 at rank 0."""
    lookup = np.empty(len(ranking) + 1)
    lookup[0] = 0.0
    lookup[1:] = ranking.scores
    return lookup


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
                tuple(map(docs.__getitem__, columns.tolist())), tuple(row[columns].tolist())
            )
    return fused


def _fuse(runs: Sequence[RunList], score: _Score, run_tag: str, depth: int) -> RunList:
    """One fused run of ``runs`` over every query any run ranks, in natural order.

    This is the one query policy of the public fusers; a caller that
    wants a subset of queries keeps them from the result (each query is
    fused on its own, so that changes no score). Each query is scored as
    a one-row cube by ``score``, with each run's scores as its lookup, so
    only one query's table is held at a time; the lookups are built as
    ``score`` reads them, and not at all by Borda's. A query with no
    candidates is left out. No runs, ``depth`` below 1, or a NaN fused
    score (inf + -inf, or a zero weight times inf), raises ValueError;
    the error names the query and the doc of the first NaN.
    """
    if not runs:
        raise ValueError("need at least one run")
    _check_depth(depth)
    fused: dict[str, Ranking] = {}
    for query_id in sort_query_ids({query_id for run in runs for query_id in run.by_query}):
        candidates, ranks = _rank_cube(runs, [query_id])
        lookups = (_by_score(run.by_query.get(query_id, _NO_RANKING)) for run in runs)
        with np.errstate(invalid="ignore"):
            scores = score(ranks, lookups)
        nan = np.flatnonzero(np.isnan(scores[0]))
        if nan.size:
            raise ValueError(
                f"query {query_id!r}, doc {candidates[0][nan[0]]!r}: fused score is NaN"
            )
        fused.update(_rankings([query_id], candidates, scores, *_rank(ranks, scores, depth)))
    return RunList(run_tag, fused)


# The scorers take a queries x systems x width rank cube (one query's from the
# public fusers, every query's from the harness) and each system's rank ->
# value lookup, in system order, and give the fused score of every column.
# Both paths share them, so a fused score has one rounding.


def _sums(
    ranks: np.ndarray, lookups: Iterable[np.ndarray], weights: np.ndarray | None = None
) -> np.ndarray:
    """Per column, each system's lookups[j][ranks[:, j]], times weights[j]
    if given, added one system at a time from 0 in system order.

    numpy's sum(axis=0) adds a one-column table pairwise, and a BLAS
    product could reorder the sum; either could change the last bit of a
    fused score.
    """
    total = 0
    for j, lookup in enumerate(lookups):
        values = lookup[ranks[:, j]]
        # the first system rebinds total to a new array, the rest add in place
        total += values if weights is None else weights[j] * values
    return total


def _weighted(w: WeightVector) -> _Score:
    """LC's scorer: intercept + sum_j w_j * value_j."""
    return lambda ranks, lookups: w.intercept + _sums(ranks, lookups, w.weights)


def _borda(ranks: np.ndarray, lookups: Iterable[np.ndarray]) -> np.ndarray:
    """Borda points from the ranks alone: |C| + 1 - rank from each system
    that ranked the candidate, as floats; ``lookups`` is not read.

    Summed as (|C| + 1) * m - (sum of the m ranks), in integers, which is
    exact; |C| counts the columns some system ranked.
    """
    systems = np.count_nonzero(ranks, axis=1)
    candidates = np.count_nonzero(systems, axis=-1, keepdims=True)
    return ((candidates + 1) * systems - ranks.sum(axis=1)).astype(float)


# The scorer of each unweighted method, read by its public fuser and by the
# harness: CombSum's sum of scores, CombMNZ's sum times the number of systems
# that ranked the candidate, and Borda's points from the ranks.
_SCORERS: dict[str, _Score] = {
    "combsum": _sums,
    "combmnz": lambda ranks, lookups: _sums(ranks, lookups) * np.count_nonzero(ranks, axis=1),
    "borda": _borda,
}


def linear_combine(
    scored: Sequence[RunList],
    w: WeightVector,
    depth: int = DEFAULT_OUTPUT_DEPTH,
    run_tag: str = "LC-mlr",
) -> RunList:
    """Fuse by fused(d) = intercept + sum_j w_j * score_j(d), missing = 0.

    Each weight goes to the scored run whose tag is its system, so the
    runs may come in any order; their tags must be w.system_order's, each
    once, or ValueError is raised. The intercept shifts all fused scores
    equally, so it never alters the ranking; it is kept so fused scores
    match the trained model's predictions.
    """
    tags = tuple(system.run_tag for system in scored)
    by_tag = dict(zip(tags, scored))
    if (
        len(by_tag) < len(tags)
        or sorted(tags) != sorted(w.system_order)
        or len(w.weights) != len(tags)
    ):
        raise ValueError(
            f"scored runs {tags} do not match weight vector systems {w.system_order}"
        )
    ordered = [by_tag[tag] for tag in w.system_order]
    return _fuse(ordered, _weighted(w), run_tag, depth)


def comb_sum(
    scored: Sequence[RunList],
    depth: int = DEFAULT_OUTPUT_DEPTH,
    run_tag: str = "combsum",
) -> RunList:
    """Fuse by fused(d) = sum_j score_j(d), missing = 0."""
    return _fuse(scored, _SCORERS["combsum"], run_tag, depth)


def comb_mnz(
    scored: Sequence[RunList],
    depth: int = DEFAULT_OUTPUT_DEPTH,
    run_tag: str = "combmnz",
) -> RunList:
    """Fuse by fused(d) = (systems ranking d) * sum_j score_j(d)."""
    return _fuse(scored, _SCORERS["combmnz"], run_tag, depth)


def borda(
    runs: Sequence[RunList],
    depth: int = DEFAULT_OUTPUT_DEPTH,
    run_tag: str = "borda",
) -> RunList:
    """Fuse by Borda count over each query's candidate union C.

    A system ranking d at rank r awards |C| - r + 1 points; a system
    that did not rank d awards 0. Unranked candidates share no residual
    points under this variant.
    """
    return _fuse(runs, _SCORERS["borda"], run_tag, depth)
