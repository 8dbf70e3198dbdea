"""Rank-to-score normalization and run fusion.

A normalized run is a RunList whose scores are the reciprocal model
score(d) = 1/(constant + rank(d)). Fusion methods: weighted linear
combination, CombSum, CombMNZ, and Borda count. This module makes each
fusion decision once, for its public fusers and the harness alike:
_rank_cube turns the runs' doc codes into a rank cube of the narrowest
unsigned dtype that holds the longest ranking's ranks, its columns in
doc-id order by the doc-id table's order key, with no doc id read (one
query per call here, every query of an experiment in the
harness); _systems counts the systems that ranked each column; the
method's scorer (_SCORERS, or _weighted for LC) gives each column its
fused score from the cube, those counts and each system's rank -> value
lookup, Borda's from the ranks alone; _rank orders each row
score-descending with doc_id-ascending tie-break, cut to the output
depth; and _rankings gathers the fused Rankings' codes from the
candidates' codes. Identical inputs yield byte-identical output.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Callable, Iterable, Sequence
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .trec import _NO_RANKING, Ranking, RunList, _doc_ids, _order_key, sort_query_ids

if TYPE_CHECKING:  # import cycle: regression imports _rank_cube
    from .regression import WeightVector

DEFAULT_RECIPROCAL_CONSTANT = 60.0
DEFAULT_OUTPUT_DEPTH = 1000

# (rank cube, its _systems counts, each system's rank -> value lookup) -> one
# score per column
_Score = Callable[[np.ndarray, np.ndarray, Iterable[np.ndarray]], np.ndarray]

# each (constant, longest)'s reciprocal lookup, while some array views it; two
# threads that miss at once each build an equal lookup, and the later is kept
_RECIPROCALS: weakref.WeakValueDictionary[tuple[float, int], np.ndarray] = (
    weakref.WeakValueDictionary()
)
_NO_KEYS = np.empty(0, dtype=np.int32)


def _by_reciprocal(constant: float, longest: int) -> np.ndarray:
    """The rank -> 1/(constant + rank) lookup of ranks 0..longest, 0.0 at rank 0.

    Every reciprocal score in the package is computed here, so this is
    where a constant of -1 or less, NaN or +inf is refused, and so is a
    finite one too large for the scores of ranks 1..longest to strictly
    decrease (from about 2**53 the float spacing exceeds 1, so ranks
    share a score and the fusers would order by doc id alone).

    The lookup is read-only and made once per (constant, longest): each
    caller gets the one that some array still views (a normalized run's
    scores, a harness call's lookups), so runs of one length share one
    buffer, and it is freed with the last array that views it.
    """
    lookup = _RECIPROCALS.get((constant, longest))
    if lookup is not None:
        return lookup
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
    lookup.flags.writeable = False
    _RECIPROCALS[constant, longest] = lookup
    return lookup


def normalize_reciprocal(
    run: RunList, constant: float = DEFAULT_RECIPROCAL_CONSTANT
) -> RunList:
    """The run with each score replaced by 1/(constant + rank).

    constant must be finite and exceed -1 so every rank >= 1 maps to a
    finite positive score, and small enough (below about 2**53) that the
    scores strictly decrease over the run's ranks; so the ranking is kept
    as it is, and each normalized query holds its input's codes array.
    Its scores are read-only views of _by_reciprocal's one lookup of
    ``constant`` over the run's longest ranking: runs whose longest
    rankings are of one length share one buffer.
    """
    lengths = set(map(len, run.by_query.values()))
    by_rank = _by_reciprocal(constant, max(lengths, default=0))[1:]
    # one view of the lookup per length: the queries of one length share one
    # scores array
    views = {n: by_rank[:n] for n in lengths}
    by_query = {
        query_id: Ranking._of(ranking.codes, views[len(ranking)])
        for query_id, ranking in run.by_query.items()
    }
    return RunList(run.run_tag, by_query)


def _rank_cube(
    runs: Sequence[RunList], query_ids: Sequence[str]
) -> tuple[list[np.ndarray], np.ndarray]:
    """The candidate table of ``query_ids`` over ``runs``.

    Returns each query's candidates, the doc-id-sorted union of the runs'
    doc codes for it as an int32 array, and the queries x runs x width
    rank cube: ranks[i, j, c] is run j's rank 1..L of candidates[i][c], 0
    where run j did not rank it or c is past the query's candidates; the
    width is the largest candidate count. Its dtype is the narrowest
    unsigned one that holds the longest ranking's length L,
    np.min_scalar_type(L): uint8 up to 255, uint16 up to 65535, uint32
    beyond.

    No doc id is read. A query's candidates are the distinct order keys
    of its runs' codes, sorted in chunks of about itemsize / 4 of the
    call's entries, so their buffer takes about the cube's bytes at
    most. Each run's ranks then go to their columns through a key ->
    column lookup that spans those keys, when that span is no larger
    than the query's row of the cube. When the keys spread wider, as
    when queries share one doc-id namespace, one argsort of the query's
    keys gives each entry its column instead, so no array grows with the
    table. Beside the cube, at most a few arrays of one query's entries
    and one row's size of lookup are alive at once.
    """
    rank_of, code_of = _order_key()
    rankings = [[run.by_query.get(q, _NO_RANKING) for run in runs] for q in query_ids]
    lengths = list(map(len, chain.from_iterable(rankings)))
    longest = max(lengths, default=0)
    dtype = np.min_scalar_type(longest)
    chunk = dtype.itemsize * sum(lengths) // 4
    keys = [_distinct_keys(row, rank_of, chunk) for row in rankings]
    width = max(map(len, keys), default=0)
    ranks = np.zeros((len(query_ids), len(runs), width), dtype=dtype)
    by_position = np.arange(1, longest + 1, dtype=dtype)
    for row, (distinct, per_run) in enumerate(zip(keys, rankings)):
        if not distinct.size:
            continue
        low = int(distinct[0])
        span = int(distinct[-1]) - low + 1
        if span <= ranks[row].size:
            column = np.empty(span, dtype=np.int32)
            column[distinct - low] = np.arange(distinct.size, dtype=np.int32)
            for j, ranking in enumerate(per_run):
                at = rank_of.take(ranking.codes)
                at -= low
                ranks[row, j, column.take(at)] = by_position[: len(ranking)]
        else:
            # each entry's column, from one argsort of every entry's key
            at = _keys(per_run, rank_of)
            order = at.argsort()
            at = at.take(order)
            column = np.empty(at.size, dtype=np.int32)
            column[order] = np.cumsum(_firsts(at), dtype=np.int32)
            column -= 1
            start = 0
            for j, ranking in enumerate(per_run):
                end = start + len(ranking)
                ranks[row, j, column[start:end]] = by_position[: len(ranking)]
                start = end
    return [code_of[distinct] for distinct in keys], ranks


def _distinct_keys(
    rankings: Sequence[Ranking], rank_of: np.ndarray, chunk: int
) -> np.ndarray:
    """The order keys of the docs ``rankings`` rank, each once, ascending.

    The rankings are read in chunks of at most ``chunk`` entries (or one
    ranking): each chunk's keys go after the distinct keys of the chunks
    before it in one buffer, which is sorted in place and cut to its
    distinct keys. When ``chunk`` holds every entry, that is one buffer
    of every key, sorted once.
    """
    distinct = _NO_KEYS
    for part in _chunks(rankings, chunk):
        keys = _keys(part, rank_of, distinct)
        keys.sort()
        # compress, not keys[mask]: boolean indexing took up to 4x as long
        distinct = keys.compress(_firsts(keys))
        del keys  # freed before the next chunk's buffer is made
    return distinct


def _chunks(rankings: Sequence[Ranking], chunk: int) -> Iterable[Sequence[Ranking]]:
    """``rankings`` cut into consecutive groups, each of at most ``chunk``
    entries or of one ranking: all in one group when they fit."""
    if sum(map(len, rankings)) <= chunk:
        yield rankings
        return
    part: list[Ranking] = []
    held = 0
    for ranking in rankings:
        if part and held + len(ranking) > chunk:
            yield part
            part, held = [], 0
        part.append(ranking)
        held += len(ranking)
    yield part


def _keys(
    rankings: Sequence[Ranking], rank_of: np.ndarray, before: np.ndarray = _NO_KEYS
) -> np.ndarray:
    """The order key of each doc ``rankings`` rank, ranking by ranking,
    after ``before``, in one int32 buffer."""
    keys = np.empty(before.size + sum(map(len, rankings)), dtype=np.int32)
    keys[: before.size] = before
    start = before.size
    for ranking in rankings:
        end = start + len(ranking)
        # every code is in the table, so "clip" clips none; it spares the
        # copy that take makes into ``out`` under "raise"
        rank_of.take(ranking.codes, out=keys[start:end], mode="clip")
        start = end
    return keys


def _firsts(keys: np.ndarray) -> np.ndarray:
    """Whether each of sorted ``keys`` is the first of its value."""
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def _systems(ranks: np.ndarray) -> np.ndarray:
    """How many systems of a rank cube ranked each column, queries x width
    int32, counted one system at a time so that no bool copy of the cube
    is made. One count serves a query's scorer and _rank."""
    systems = np.zeros((ranks.shape[0], ranks.shape[2]), dtype=np.int32)
    for j in range(ranks.shape[1]):
        systems += ranks[:, j] > 0
    return systems


def _by_score(ranking: Ranking) -> np.ndarray:
    """A scored ranking's rank -> value lookup: its scores, 0.0 at rank 0."""
    lookup = np.empty(len(ranking) + 1)
    lookup[0] = 0.0
    lookup[1:] = ranking.scores
    return lookup


def _check_depth(depth: int) -> None:
    if depth < 1:
        raise ValueError(f"output depth must be >= 1, got {depth}")


def _rank(
    systems: np.ndarray, scores: np.ndarray, depth: int
) -> tuple[np.ndarray, np.ndarray]:
    """(order, lengths): order[i] holds the columns of row i of ``scores``
    that some system ranked (``systems``, _systems' counts, above 0), by
    score descending, then the rest, cut to ``depth``; lengths[i] counts
    the ranked ones in it.

    Columns are in doc-id order, so a stable argsort of the key -score
    (+inf where no system ranked the column) is the canonical (score
    descending, doc_id ascending) order. When ``depth`` is below the row
    width, only what that order keeps is sorted: np.partition finds each
    row's depth-th smallest key, the cut, and the row's columns whose key
    is not above it (~(key > cut), so a NaN cut keeps every column),
    still in column order, are stable-argsorted and cut to ``depth``.
    Each of the full order's first ``depth`` is at or below the cut, so
    that is the same order. At ``depth`` >= the width every row is
    sorted whole, by _stable_argsort.
    """
    _check_depth(depth)
    ranked = systems > 0
    keys = np.where(ranked, -scores, np.inf)
    lengths = np.minimum(np.count_nonzero(ranked, axis=1), depth)
    if depth >= keys.shape[1]:
        return _stable_argsort(keys), lengths
    kept = ~(keys > np.partition(keys, depth - 1, axis=1)[:, depth - 1 : depth])
    order = np.empty((keys.shape[0], depth), dtype=np.intp)
    for row, key, keep in zip(order, keys, kept):
        columns = np.flatnonzero(keep)
        row[:] = columns.take(np.argsort(key.take(columns), kind="stable")[:depth])
    return order, lengths


def _stable_argsort(keys: np.ndarray) -> np.ndarray:
    """np.argsort(keys, axis=1, kind="stable") of a 2-D float array, from
    one unstable argsort, which is several times faster.

    Only tied keys can come out of column order: equal ones (0.0 and
    -0.0 are equal), or NaNs, which every sort puts last in a row. When
    some row has a tie, the groups of tied keys are numbered in sorted
    order, and one int64 sort per row of (group, column), packed into
    one integer, puts each group in column order.
    """
    order = np.argsort(keys, axis=1)
    width = keys.shape[1]
    if width < 2:
        return order
    values = keys.take(order + np.arange(0, keys.size, width)[:, None])
    # whether each sorted key starts a group of tied keys
    starts = np.empty(keys.shape, dtype=bool)
    starts[:, 0] = True
    np.not_equal(values[:, 1:], values[:, :-1], out=starts[:, 1:])
    if np.isnan(values[:, -1]).any():  # NaN != NaN, but NaNs tie
        starts[:, 1:] &= ~np.isnan(values[:, :-1])
    if starts.all():
        return order
    keyed = np.cumsum(starts.ravel(), dtype=np.int64).reshape(keys.shape)
    shift = (width - 1).bit_length()
    keyed <<= shift
    keyed |= order
    keyed.sort(axis=1)
    keyed &= (1 << shift) - 1
    return keyed.astype(order.dtype, copy=False)


def _rankings(
    query_ids: Sequence[str],
    candidates: Sequence[np.ndarray],
    scores: np.ndarray,
    order: np.ndarray,
    lengths: np.ndarray,
) -> dict[str, Ranking]:
    """Each query's fused Ranking: its candidates' codes at the first
    lengths[i] columns of _rank's order[i], with their scores; one with
    none is left out. Both are gathered into new arrays made read-only,
    which the Ranking holds as they are."""
    fused: dict[str, Ranking] = {}
    for query_id, codes, row, columns, length in zip(
        query_ids, candidates, scores, order, lengths.tolist()
    ):
        if length:
            columns = columns[:length]
            docs, values = codes[columns], row[columns]
            docs.flags.writeable = values.flags.writeable = False
            fused[query_id] = Ranking._of(docs, values)
    return fused


def _fuse(runs: Sequence[RunList], score: _Score, run_tag: str, depth: int) -> RunList:
    """One fused run of ``runs`` over every query any run ranks, in natural order.

    This is the one query policy of the public fusers; a caller that
    wants a subset of queries keeps them from the result (each query is
    fused on its own, so that changes no score). Each query is scored as
    a one-row cube by ``score``, with each run's scores as its lookup; the
    lookups are built as ``score`` reads them, and not at all by Borda's.
    A query's _systems counts are made once, for its scorer and _rank.
    A query's candidates, cube and scores are let go before the next
    query's cube is built, so one query's table is alive at a time. A
    query with no candidates is left out. No runs, ``depth`` below 1, or
    a fused score that is not finite, raises ValueError; the error names
    the query and the doc of the first such score. Every input score is
    finite, so only overflow makes one (1e308 + 1e308 is inf, and
    inf - inf NaN).
    """
    if not runs:
        raise ValueError("need at least one run")
    _check_depth(depth)
    fused: dict[str, Ranking] = {}
    for query_id in sort_query_ids({query_id for run in runs for query_id in run.by_query}):
        candidates, ranks = _rank_cube(runs, [query_id])
        systems = _systems(ranks)
        lookups = (_by_score(run.by_query.get(query_id, _NO_RANKING)) for run in runs)
        with np.errstate(invalid="ignore", over="ignore"):
            scores = score(ranks, systems, lookups)
        bad = np.flatnonzero(~np.isfinite(scores[0]))
        if bad.size:
            (doc_id,) = _doc_ids(candidates[0][bad[:1]])
            raise ValueError(
                f"query {query_id!r}, doc {doc_id!r}: "
                f"fused score {scores[0, bad[0]]} is not finite"
            )
        fused.update(_rankings([query_id], candidates, scores, *_rank(systems, scores, depth)))
        # not held while the next query's cube is built
        del candidates, ranks, systems, scores
    return RunList(run_tag, fused)


# The scorers take a queries x systems x width rank cube (one query's from the
# public fusers, every query's from the harness), its _systems counts and each
# system's rank -> value lookup, in system order, and give the fused score of
# every column. Both paths share them, so a fused score has one rounding.


def _sums(
    ranks: np.ndarray, lookups: Iterable[np.ndarray], weights: np.ndarray | None = None
) -> np.ndarray:
    """Per column, each system's lookups[j][ranks[:, j]] (gathered by
    take), times weights[j] if given, added one system at a time from 0
    in system order.

    numpy's sum(axis=0) adds a one-column table pairwise, and a BLAS
    product could reorder the sum; either could change the last bit of a
    fused score.
    """
    total = 0
    for j, lookup in enumerate(lookups):
        values = lookup.take(ranks[:, j])
        # the first system rebinds total to a new array, the rest add in place
        total += values if weights is None else weights[j] * values
    return total


def _weighted(w: WeightVector) -> _Score:
    """LC's scorer: intercept + sum_j w_j * value_j."""
    return lambda ranks, systems, lookups: w.intercept + _sums(ranks, lookups, w.weights)


def _borda(ranks: np.ndarray, systems: np.ndarray, lookups: Iterable[np.ndarray]) -> np.ndarray:
    """Borda points from the ranks alone: |C| + 1 - rank from each system
    that ranked the candidate, as floats; ``lookups`` is not read.

    Summed as (|C| + 1) * m - (sum of the m ranks), in int64, which is
    exact; m is ``systems``' count and |C| counts the columns some system
    ranked. The ranks are summed into int64 too: the cube is unsigned, and
    its own sum, uint64, less an int64 would go through float64.
    """
    candidates = np.count_nonzero(systems, axis=-1, keepdims=True)
    return ((candidates + 1) * systems - ranks.sum(axis=1, dtype=np.int64)).astype(float)


# The scorer of each unweighted method, read by its public fuser and by the
# harness: CombSum's sum of scores, CombMNZ's sum times the number of systems
# that ranked the candidate, and Borda's points from the ranks.
_SCORERS: dict[str, _Score] = {
    "combsum": lambda ranks, systems, lookups: _sums(ranks, lookups),
    "combmnz": lambda ranks, systems, lookups: _sums(ranks, lookups) * systems,
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
