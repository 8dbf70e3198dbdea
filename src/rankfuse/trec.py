"""TREC run and qrels file I/O.

Run files are 6-column whitespace-separated text, one entry per line:

    <query_id> <iter> <doc_id> <rank> <score> <run_tag>

Qrels files are 4-column:

    <query_id> <iter> <doc_id> <grade>

Parsed runs are canonicalized: entries are re-sorted per query by raw
score descending (doc_id ascending on ties) and ranks are rewritten
densely 1..L. Run files in the wild disagree between their rank and
score columns, so one of them has to be the authority; the rank column
found in the file must be an integer but is otherwise ignored.
Canonicalization is deterministic: the same entries produce the same
RunList regardless of line order.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field


class TrecFormatError(ValueError):
    """Base class for run/qrels format violations."""


class ParseError(TrecFormatError):
    """A line that cannot be parsed (wrong field count or a bad number)."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DuplicateDocError(TrecFormatError):
    """The same (query, doc) pair occurs twice in one run file."""


class MixedRunTagsError(TrecFormatError):
    """More than one run tag inside a single run file."""


class GradeConflictError(TrecFormatError):
    """Two qrels lines assign different grades to the same (query, doc)."""


def sort_query_ids(query_ids: Iterable[str]) -> list[str]:
    """Sort query ids numerically when all of them are decimal tokens, else lexicographically."""
    ids = list(query_ids)
    if ids and all(q.isdigit() for q in ids):
        return sorted(ids, key=lambda q: (int(q), q))
    return sorted(ids)


@dataclass(frozen=True)
class RunEntry:
    """One retrieved document; ``rank`` is the canonical rank (dense, score-ordered)."""

    query_id: str
    doc_id: str
    rank: int
    raw_score: float
    run_tag: str


def _canonical(
    run_tag: str,
    rows: Mapping[str, Iterable[tuple[str, float]]],
    depth: int | None = None,
) -> dict[str, tuple[RunEntry, ...]]:
    by_query: dict[str, tuple[RunEntry, ...]] = {}
    for query_id, docs in rows.items():
        ordered = sorted(docs, key=lambda t: (-t[1], t[0]))
        if depth is not None:
            ordered = ordered[:depth]
        by_query[query_id] = tuple(
            RunEntry(query_id, doc_id, rank, score, run_tag)
            for rank, (doc_id, score) in enumerate(ordered, start=1)
        )
    return by_query


@dataclass(frozen=True)
class RunList:
    """One retrieval system's ranked output in canonical form.

    Per query, entries are sorted by raw score descending with doc_id
    ascending as tie-break, and ranks are exactly 1..L. Instances are
    treated as immutable and are safe to share across threads.
    """

    run_tag: str
    by_query: dict[str, tuple[RunEntry, ...]]

    @classmethod
    def from_scores(
        cls,
        run_tag: str,
        scores: Mapping[str, Mapping[str, float]],
        depth: int | None = None,
    ) -> RunList:
        """Build a canonical RunList from per-query doc -> score maps."""
        rows = {query_id: docs.items() for query_id, docs in scores.items()}
        return cls(run_tag, _canonical(run_tag, rows, depth))

    @property
    def query_ids(self) -> list[str]:
        return sort_query_ids(self.by_query)

    def entries(self, query_id: str) -> tuple[RunEntry, ...]:
        return self.by_query.get(query_id, ())

    def docs(self, query_id: str) -> tuple[str, ...]:
        """Doc ids for one query in rank order."""
        return tuple(e.doc_id for e in self.entries(query_id))

    def num_entries(self) -> int:
        return sum(len(v) for v in self.by_query.values())


def parse_run(lines: Iterable[str]) -> RunList:
    """Parse a TREC run file into a canonical RunList.

    Accepts any iterable of lines (an open text file qualifies). Blank
    lines are skipped. Raises ParseError for malformed lines,
    DuplicateDocError for repeated (query, doc) pairs and
    MixedRunTagsError when the tag column is not constant.
    """
    rows: dict[str, list[tuple[str, float]]] = {}
    seen: set[tuple[str, str]] = set()
    run_tag: str | None = None
    for line_no, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 6:
            raise ParseError(line_no, f"expected 6 fields, got {len(parts)}")
        query_id, _iteration, doc_id, rank_str, score_str, tag = parts
        try:
            int(rank_str)
        except ValueError:
            raise ParseError(line_no, f"rank field {rank_str!r} is not an integer") from None
        try:
            score = float(score_str)
        except ValueError:
            raise ParseError(line_no, f"score field {score_str!r} is not a number") from None
        if not math.isfinite(score):
            raise ParseError(line_no, f"score field {score_str!r} is not finite")
        if run_tag is None:
            run_tag = tag
        elif tag != run_tag:
            raise MixedRunTagsError(
                f"line {line_no}: run tag {tag!r} differs from earlier tag {run_tag!r}"
            )
        if (query_id, doc_id) in seen:
            raise DuplicateDocError(
                f"line {line_no}: duplicate entry for query {query_id}, doc {doc_id}"
            )
        seen.add((query_id, doc_id))
        rows.setdefault(query_id, []).append((doc_id, score))
    return RunList(run_tag or "", _canonical(run_tag or "", rows))


def write_run(run: RunList, depth_limit: int = 1000) -> str:
    """Serialize a RunList to TREC 6-column text, top ``depth_limit`` per query.

    Scores are written with 6 significant digits, so a list whose scores
    carry more precision may not survive a round trip bit-for-bit;
    anything this toolkit writes re-parses to an equal RunList.
    """
    if depth_limit < 1:
        raise ValueError("depth_limit must be >= 1")
    out: list[str] = []
    for query_id in run.query_ids:
        for e in run.entries(query_id)[:depth_limit]:
            out.append(f"{query_id} Q0 {e.doc_id} {e.rank} {e.raw_score:.6g} {run.run_tag}\n")
    return "".join(out)


@dataclass(frozen=True)
class Qrels:
    """Relevance judgments: per-query doc -> integer grade.

    A document is relevant iff its grade is > 0 (the binarized view).
    Grade-0 entries are kept explicitly so that pool-derived judgment
    sets preserve which documents were actually looked at.
    """

    grades: dict[str, dict[str, int]]
    name: str = field(default="", compare=False)
    duplicate_warnings: int = field(default=0, compare=False)

    @property
    def query_ids(self) -> list[str]:
        return sort_query_ids(self.grades)

    def grade(self, query_id: str, doc_id: str) -> int:
        return self.grades.get(query_id, {}).get(doc_id, 0)

    def grades_for(self, query_id: str) -> Mapping[str, int]:
        return self.grades.get(query_id, {})

    def relevant(self, query_id: str) -> frozenset[str]:
        """Docs with grade > 0 for one query."""
        return frozenset(d for d, g in self.grades.get(query_id, {}).items() if g > 0)

    def relevant_count(self, query_id: str) -> int:
        return sum(1 for g in self.grades.get(query_id, {}).values() if g > 0)

    def total_relevant(self) -> int:
        return sum(self.relevant_count(q) for q in self.grades)


def parse_qrels(lines: Iterable[str], name: str = "") -> Qrels:
    """Parse a 4-column qrels file.

    Grades are stored as given. A repeated (query, doc) line with the
    identical grade is accepted and counted in ``duplicate_warnings``;
    a conflicting grade raises GradeConflictError.
    """
    grades: dict[str, dict[str, int]] = {}
    duplicates = 0
    for line_no, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 4:
            raise ParseError(line_no, f"expected 4 fields, got {len(parts)}")
        query_id, _iteration, doc_id, grade_str = parts
        try:
            grade = int(grade_str)
        except ValueError:
            raise ParseError(line_no, f"grade field {grade_str!r} is not an integer") from None
        per_query = grades.setdefault(query_id, {})
        if doc_id in per_query:
            if per_query[doc_id] != grade:
                raise GradeConflictError(
                    f"line {line_no}: query {query_id}, doc {doc_id} already has grade "
                    f"{per_query[doc_id]}, now {grade}"
                )
            duplicates += 1
            continue
        per_query[doc_id] = grade
    return Qrels(grades, name=name, duplicate_warnings=duplicates)


def write_qrels(qrels: Qrels) -> str:
    """Serialize qrels to 4-column text sorted by (query_id, doc_id)."""
    out: list[str] = []
    for query_id in qrels.query_ids:
        per_query = qrels.grades_for(query_id)
        for doc_id in sorted(per_query):
            out.append(f"{query_id} 0 {doc_id} {per_query[doc_id]}\n")
    return "".join(out)


def load_run(path: str | os.PathLike[str]) -> RunList:
    with open(path, encoding="utf-8") as f:
        return parse_run(f)


def save_run(run: RunList, path: str | os.PathLike[str], depth_limit: int = 1000) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(write_run(run, depth_limit))


def load_qrels(path: str | os.PathLike[str]) -> Qrels:
    with open(path, encoding="utf-8") as f:
        return parse_qrels(f, name=os.path.basename(path))


def save_qrels(qrels: Qrels, path: str | os.PathLike[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(write_qrels(qrels))
