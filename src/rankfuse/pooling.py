"""Fixed-depth pooling and pool-derived partial qrels.

A depth-k pool is, per query, the union of the top-k documents from
every run. Restricting a full qrels to the pool yields a partial qrels:
pooled documents keep their official grade (0 when unjudged), and
everything outside the pool is simply absent, i.e. non-relevant.

One table defines the pool (_entry_depths): per query, each pooled doc's
entry depth, the least rank at which any run ranks it, which is the
least pool depth that holds it. build_pool reads the table's docs, and
the coverage counts of pool_sweep and pick_depth_for_fraction are a
running total of the relevant docs' entry depths, which stops where the
pool stops growing.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from ._warn import warn
from .fusion import _firsts
from .trec import (
    Qrels,
    RunList,
    _among,
    _doc_ids,
    _known_codes,
    sort_query_ids,
)


@dataclass(frozen=True)
class Pool:
    """Per-query sets of pooled doc ids at one depth."""

    depth: int
    docs: dict[str, frozenset[str]]

    @property
    def query_ids(self) -> list[str]:
        return sort_query_ids(self.docs)

    def for_query(self, query_id: str) -> frozenset[str]:
        return self.docs.get(query_id, frozenset())


@dataclass(frozen=True)
class SweepRow:
    """Relevant-document coverage of the depth-``depth`` partial qrels."""

    depth: int
    relevant_count: int
    percent: float


def _entry_depths(runs: Sequence[RunList], depth: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The depth-``depth`` pool as one table: per query any run ranks, in
    order of first appearance over the runs, the distinct codes of the
    docs in the runs' top ``depth``, ascending, and each one's entry
    depth, the least rank at which any run ranks it, which is the least
    pool depth that holds it.

    Per query, the key ``code << 32 | rank`` of every entry of the
    prefixes is sorted in place in one buffer, and the first key of each
    code holds its least rank.
    """
    if not runs:
        raise ValueError("need at least one run to build a pool")
    prefixes: dict[str, list[np.ndarray]] = {}
    for run in runs:
        for query_id, ranking in run.by_query.items():
            prefixes.setdefault(query_id, []).append(ranking.codes[:depth])
    longest = max((len(codes) for per in prefixes.values() for codes in per), default=0)
    ranks = np.arange(1, longest + 1, dtype=np.int64)
    table = {}
    for query_id, per_query in prefixes.items():
        keys = np.concatenate(per_query, dtype=np.int64) << 32
        keys |= np.concatenate([ranks[: len(codes)] for codes in per_query])
        keys.sort()
        keys = keys.compress(_firsts(keys >> 32))
        table[query_id] = keys >> 32, keys & 0xFFFFFFFF
    return table


def build_pool(runs: Sequence[RunList], depth: int) -> Pool:
    """Union of each run's top-``depth`` docs, per query.

    A run shorter than ``depth`` contributes all of its docs. Membership
    depends only on the union of prefixes, never on which run
    contributed a document: the pool is the codes of _entry_depths'
    table, and only each query's distinct codes are looked up as doc ids.
    """
    if depth < 1:
        raise ValueError("pool depth must be >= 1")
    return Pool(
        depth,
        {
            query_id: frozenset(_doc_ids(codes))
            for query_id, (codes, _) in _entry_depths(runs, depth).items()
        },
    )


def make_partial_qrels(pool: Pool, full: Qrels) -> Qrels:
    """Restrict ``full`` to the pooled documents, named ``depth{pool.depth}``.

    The result contains exactly the pooled (query, doc) pairs; pairs
    missing from ``full`` get grade 0. Queries pooled but entirely
    absent from ``full`` are kept (all grade 0) and reported once via a
    warning. A query whose pool holds no doc (every run's ranking of it
    is empty) gets no entry, as a qrels file cannot hold one.
    """
    grades: dict[str, dict[str, int]] = {}
    unjudged_queries: list[str] = []
    for query_id in pool.query_ids:
        if not pool.docs[query_id]:
            continue
        if query_id not in full.grades:
            unjudged_queries.append(query_id)
        grades[query_id] = {
            doc_id: full.grade(query_id, doc_id) for doc_id in sorted(pool.for_query(query_id))
        }
    if unjudged_queries:
        warn(
            f"{len(unjudged_queries)} pooled queries have no judgments "
            f"(e.g. {unjudged_queries[0]}); their pooled docs get grade 0"
        )
    return Qrels(grades, name=f"depth{pool.depth}")


def _coverage_counts(runs: Sequence[RunList], full: Qrels, max_depth: int) -> np.ndarray:
    """Relevant docs covered by the depth-d pool, for d = 0..D: D, at
    least 1, is the deepest entry depth, up to ``max_depth``, of a
    relevant doc, and a deeper pool covers as many.

    The counts are the running total of a histogram of the relevant
    docs' entry depths in _entry_depths' table, so they stop where the
    pool stops growing, however deep ``max_depth`` is.
    """
    entered = [np.zeros(0, dtype=np.int64)]
    for query_id, (codes, depths) in _entry_depths(runs, max_depth).items():
        entered.append(depths[_among(codes, _known_codes(full.relevant(query_id)))])
    return np.bincount(np.concatenate(entered), minlength=2).cumsum()


def pool_sweep(runs: Sequence[RunList], full: Qrels, depths: Iterable[int]) -> list[SweepRow]:
    """Coverage table over pool depths: how many of the full qrels'
    relevant docs the depth-d partial qrels retains, and the percentage.

    Both columns are non-decreasing in depth and saturate once the pool
    holds every retrieved relevant document; a depth beyond the runs'
    longest ranking reads the saturated count.
    """
    wanted = sorted(set(depths))
    if not wanted:
        raise ValueError("depths must be non-empty")
    if wanted[0] < 1:
        raise ValueError("pool depths must be >= 1")
    counts = _coverage_counts(runs, full, wanted[-1]).tolist()
    total = full.total_relevant()
    rows = []
    for depth in wanted:
        count = counts[min(depth, len(counts) - 1)]
        percent = 100.0 * count / total if total else 0.0
        rows.append(SweepRow(depth, count, percent))
    return rows


def pick_depth_for_fraction(
    runs: Sequence[RunList], full: Qrels, target_fraction: float
) -> tuple[int, float]:
    """Smallest pool depth whose relevant-doc fraction is closest to target.

    Scans depths 1..D from the coverage counts pool_sweep reads, where D
    is the deepest entry depth of a relevant doc (no deeper pool covers
    more); ties go to the smaller depth. Returns (depth, achieved_fraction).
    """
    if not 0.0 < target_fraction <= 1.0:
        raise ValueError("target_fraction must be in (0, 1]")
    if not any(len(ranking) for run in runs for ranking in run.by_query.values()):
        raise ValueError("runs contain no ranked documents")
    # a depth no ranking reaches: the pool of every ranked doc
    counts = _coverage_counts(runs, full, sys.maxsize)
    # with no relevant doc every count is 0
    fractions = counts[1:] / (full.total_relevant() or 1)
    # argmin keeps the first of equal gaps, the smaller depth
    depth = int(np.argmin(np.abs(fractions - target_fraction)))
    return depth + 1, float(fractions[depth])


def sweep_csv(rows: Sequence[SweepRow]) -> str:
    """Plot-ready CSV for a coverage sweep."""
    out = ["depth,relevant_count,percent\n"]
    for row in rows:
        out.append(f"{row.depth},{row.relevant_count},{row.percent:.2f}\n")
    return "".join(out)
