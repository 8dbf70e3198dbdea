"""Fixed-depth pooling and pool-derived partial qrels.

A depth-k pool is, per query, the union of the top-k documents from
every run. Restricting a full qrels to the pool yields a partial qrels:
pooled documents keep their official grade (0 when unjudged), and
everything outside the pool is simply absent, i.e. non-relevant.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .trec import (
    _NO_RANKING,
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


def build_pool(runs: Sequence[RunList], depth: int) -> Pool:
    """Union of each run's top-``depth`` docs, per query.

    A run shorter than ``depth`` contributes all of its docs. Membership
    depends only on the union of prefixes, never on which run
    contributed a document. The prefixes are taken as doc codes, and
    only each query's distinct codes are looked up as doc ids.
    """
    if depth < 1:
        raise ValueError("pool depth must be >= 1")
    if not runs:
        raise ValueError("need at least one run to build a pool")
    prefixes: dict[str, list[np.ndarray]] = {}
    for run in runs:
        for query_id, ranking in run.by_query.items():
            prefixes.setdefault(query_id, []).append(ranking.codes[:depth])
    return Pool(
        depth,
        {
            query_id: frozenset(_doc_ids(np.unique(np.concatenate(codes))))
            for query_id, codes in prefixes.items()
        },
    )


def make_partial_qrels(pool: Pool, full: Qrels) -> Qrels:
    """Restrict ``full`` to the pooled documents, named ``depth{pool.depth}``.

    The result contains exactly the pooled (query, doc) pairs; pairs
    missing from ``full`` get grade 0. Queries pooled but entirely
    absent from ``full`` are kept (all grade 0) and reported once via a
    warning.
    """
    grades: dict[str, dict[str, int]] = {}
    unjudged_queries: list[str] = []
    for query_id in pool.query_ids:
        if query_id not in full.grades:
            unjudged_queries.append(query_id)
        grades[query_id] = {
            doc_id: full.grade(query_id, doc_id) for doc_id in sorted(pool.for_query(query_id))
        }
    if unjudged_queries:
        warnings.warn(
            f"{len(unjudged_queries)} pooled queries have no judgments "
            f"(e.g. {unjudged_queries[0]}); their pooled docs get grade 0",
            stacklevel=2,
        )
    return Qrels(grades, name=f"depth{pool.depth}")


def _coverage_counts(runs: Sequence[RunList], full: Qrels, max_depth: int) -> list[int]:
    """Relevant docs covered by the depth-d pool, for d = 1..max_depth.

    Per query, the runs' top ``max_depth`` codes are tested against the
    relevant docs' codes at once, and the depth at which each relevant
    doc first enters the pool is the least depth of its hits; the counts
    are the running total of a histogram of those depths.
    """
    entered = [np.zeros(0, dtype=np.intp)]
    for query_id in {query_id for run in runs for query_id in run.by_query}:
        relevant = _known_codes(full.relevant(query_id))
        if not relevant.size:
            continue
        prefixes = [run.by_query.get(query_id, _NO_RANKING).codes[:max_depth] for run in runs]
        pooled = np.concatenate(prefixes)
        starts = np.cumsum([0, *map(len, prefixes)])
        hits = np.flatnonzero(_among(pooled, relevant))
        # a hit's depth is its place in its own run's prefix, from 1
        depths = hits - starts[np.searchsorted(starts, hits, side="right") - 1] + 1
        first = np.full(relevant.size, max_depth + 1)
        np.minimum.at(first, np.searchsorted(relevant, pooled[hits]), depths)
        entered.append(first[first <= max_depth])
    return np.bincount(np.concatenate(entered), minlength=max_depth + 1)[1:].cumsum().tolist()


def pool_sweep(runs: Sequence[RunList], full: Qrels, depths: Iterable[int]) -> list[SweepRow]:
    """Coverage table over pool depths: how many of the full qrels'
    relevant docs the depth-d partial qrels retains, and the percentage.

    Both columns are non-decreasing in depth and saturate once the pool
    holds every retrieved relevant document.
    """
    wanted = sorted(set(depths))
    if not wanted:
        raise ValueError("depths must be non-empty")
    if wanted[0] < 1:
        raise ValueError("pool depths must be >= 1")
    counts = _coverage_counts(runs, full, wanted[-1])
    total = full.total_relevant()
    rows = []
    for depth in wanted:
        count = counts[depth - 1]
        percent = 100.0 * count / total if total else 0.0
        rows.append(SweepRow(depth, count, percent))
    return rows


def pick_depth_for_fraction(
    runs: Sequence[RunList], full: Qrels, target_fraction: float
) -> tuple[int, float]:
    """Smallest pool depth whose relevant-doc fraction is closest to target.

    Scans depths 1..max list length; ties go to the smaller depth.
    Returns (depth, achieved_fraction).
    """
    if not 0.0 < target_fraction <= 1.0:
        raise ValueError("target_fraction must be in (0, 1]")
    max_depth = max(
        (len(ranking) for run in runs for ranking in run.by_query.values()), default=0
    )
    if max_depth == 0:
        raise ValueError("runs contain no ranked documents")
    counts = _coverage_counts(runs, full, max_depth)
    total = full.total_relevant()
    fractions = [count / total if total else 0.0 for count in counts]
    # min keeps the first of equal gaps, the smaller depth
    depth = min(range(len(fractions)), key=lambda d: abs(fractions[d] - target_fraction))
    return depth + 1, fractions[depth]


def sweep_csv(rows: Sequence[SweepRow]) -> str:
    """Plot-ready CSV for a coverage sweep."""
    out = ["depth,relevant_count,percent\n"]
    for row in rows:
        out.append(f"{row.depth},{row.relevant_count},{row.percent:.2f}\n")
    return "".join(out)
