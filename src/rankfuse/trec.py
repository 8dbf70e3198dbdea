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

A RunList stores one Ranking per query: a tuple of doc ids in rank
order and a parallel read-only float64 array of their raw scores. A
doc's rank is its position + 1, so no rank is stored and no per-entry
object is kept; ``RunList.entries`` builds RunEntry views on demand.
Every score is finite: a Ranking checks that where it is made, so no
score keeps a RunList from being written and parsed back equal.

Each parse makes its own str for every doc id. Runs of one experiment
rank largely the same docs, so a caller that holds many of them (each
CLI command) passes every parsed run through _share_doc_ids with one
dict, and the runs then hold one str per doc id between them.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np


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
    """Each distinct query id once, sorted numerically when all of them are
    decimal tokens, else lexicographically."""
    ids = set(query_ids)
    if ids and all(q.isdecimal() for q in ids):
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


@dataclass(frozen=True, slots=True, eq=False)
class Ranking:
    """One query's canonical ranking: doc ids in rank order and their raw scores.

    The doc at position i has rank i + 1. ``len`` is the number of docs.
    ``scores`` is a read-only float64 array of one finite score per doc.
    Any other sequence, or a writable array, is copied into one here, so
    changing what was passed changes no Ranking. Every form is checked:
    a score that is not finite (NaN, ±inf, None), an int too large for a
    float, or a str or bytes (even one that reads as a number) raises
    ValueError naming its doc. Rankings compare by value and are not
    hashable.
    """

    docs: tuple[str, ...]
    scores: np.ndarray

    def __post_init__(self) -> None:
        scores = self.scores
        if not (
            type(scores) is np.ndarray
            and scores.dtype == np.float64
            and not scores.flags.writeable
        ):
            values = np.asarray(scores)
            if values.dtype.kind in "USO" and values.ndim == 1:
                # numpy would read a str or bytes score as a number
                given = scores.tolist() if isinstance(scores, np.ndarray) else scores
                for doc_id, score in zip(self.docs, given):
                    if isinstance(score, (str, bytes)):
                        raise ValueError(f"doc {doc_id!r}: score {score!r} is not a number")
            try:
                scores = values.astype(np.float64)
            except OverflowError:  # an int too large for a float
                for doc_id, score in zip(self.docs, self.scores):
                    try:
                        float(score)
                    except OverflowError:
                        raise ValueError(
                            f"doc {doc_id!r}: score is too large for a float"
                        ) from None
                raise
            scores.flags.writeable = False
            object.__setattr__(self, "scores", scores)
        if scores.shape != (len(self.docs),):
            raise ValueError(
                f"ranking has {len(self.docs)} docs but {scores.size} scores "
                f"of shape {scores.shape}"
            )
        finite = np.isfinite(scores)
        if not finite.all():
            bad = finite.argmin()  # the first False
            raise ValueError(f"doc {self.docs[bad]!r}: score {scores[bad]} is not finite")

    def __eq__(self, other: object) -> bool:
        if type(other) is not Ranking:
            return NotImplemented
        return self.docs == other.docs and np.array_equal(self.scores, other.scores)

    def __len__(self) -> int:
        return len(self.docs)


_NO_RANKING = Ranking((), ())


def _sort_ties_by_doc(ordered: list[str], values: np.ndarray) -> None:
    """Sort each run of equal ``values`` in the parallel ``ordered`` by doc id, in place."""
    start = 0
    # A run ends where the next value is strictly smaller, or at the end.
    for end in (*(np.flatnonzero(values[:-1] > values[1:]) + 1).tolist(), len(values)):
        if end - start > 1:
            ordered[start:end] = sorted(ordered[start:end])
        start = end


def _canonical(scores: Mapping[str, Mapping[str, float]]) -> dict[str, Ranking]:
    """One Ranking per query: score descending, doc_id ascending on ties.

    The docs are sorted once by score. When the sorted scores, as
    floats, strictly decrease no two docs tie and that order is final.
    Otherwise each run of equal floats (0.0 beside -0.0, and two ints
    that round to one float, are equal too) is sorted by doc id. A score
    Ranking refuses raises its ValueError with the query id in front.
    """
    by_query: dict[str, Ranking] = {}
    for query_id, per_doc in scores.items():
        try:
            ordered = sorted(per_doc, key=per_doc.__getitem__, reverse=True)
            if ordered and isinstance(per_doc[ordered[0]], (str, bytes)):
                # then every score is one (a number beside one does not sort),
                # and np.fromiter would read them as numbers
                raise TypeError
            values = np.fromiter(map(per_doc.__getitem__, ordered), np.float64, len(ordered))
            if not (values[:-1] > values[1:]).all():
                _sort_ties_by_doc(ordered, values)
                values = np.fromiter(map(per_doc.__getitem__, ordered), np.float64, len(ordered))
            values.flags.writeable = False  # so Ranking keeps it, not a copy
            by_query[query_id] = Ranking(tuple(ordered), values)
        except (TypeError, OverflowError, ValueError):
            # NaN or ±inf, None or a str beside a number (which do not sort),
            # 10**400 (no float) or a str or bytes: Ranking names the first
            # doc it refuses, in the given order
            try:
                Ranking(tuple(per_doc), tuple(per_doc.values()))
            except ValueError as error:
                raise ValueError(f"query {query_id!r}, {error}") from None
            raise
    return by_query


@dataclass(frozen=True)
class RunList:
    """One retrieval system's ranked output in canonical form.

    Per query, docs are sorted by raw score descending with doc_id
    ascending as tie-break, and ranks are exactly 1..L. Instances are
    treated as immutable and are safe to share across threads.
    """

    run_tag: str
    by_query: dict[str, Ranking]

    @classmethod
    def from_scores(cls, run_tag: str, scores: Mapping[str, Mapping[str, float]]) -> RunList:
        """Build a canonical RunList from per-query doc -> score maps.

        A score that is not finite (NaN, ±inf, None), an int too large for
        a float, or a str or bytes raises ValueError naming its query and
        doc.
        """
        return cls(run_tag, _canonical(scores))

    @property
    def query_ids(self) -> list[str]:
        return sort_query_ids(self.by_query)

    def entries(self, query_id: str) -> tuple[RunEntry, ...]:
        """One query's ranking as RunEntry objects, built on each call."""
        ranking = self.by_query.get(query_id, _NO_RANKING)
        return tuple(
            RunEntry(query_id, doc_id, rank, score, self.run_tag)
            for rank, (doc_id, score) in enumerate(
                zip(ranking.docs, ranking.scores.tolist()), start=1
            )
        )

    def docs(self, query_id: str) -> tuple[str, ...]:
        """Doc ids for one query in rank order."""
        return self.by_query.get(query_id, _NO_RANKING).docs

    def num_entries(self) -> int:
        return sum(len(v) for v in self.by_query.values())


def parse_run(lines: Iterable[str]) -> RunList:
    """Parse a TREC run file into a canonical RunList.

    Accepts any iterable of lines (an open text file qualifies). Blank
    lines are skipped. Raises ParseError for malformed lines,
    DuplicateDocError for repeated (query, doc) pairs and
    MixedRunTagsError when the tag column is not constant.

    A rank field must be one int() reads. A decimal one, with or without
    one leading sign, is not converted, so it is accepted at any length,
    beyond int()'s digit limit (sys.get_int_max_str_digits()) too.
    """
    rows: dict[str, dict[str, float]] = {}
    run_tag: str | None = None
    # Run files are grouped by query: look a query's docs up only when the id changes.
    last_query: str | None = None
    per_doc: dict[str, float] = {}
    for line_no, raw in enumerate(lines, start=1):
        try:
            query_id, _iteration, doc_id, rank_str, score_str, tag = raw.split()
        except ValueError:  # not 6 fields
            fields = len(raw.split())
            if not fields:
                continue
            raise ParseError(line_no, f"expected 6 fields, got {fields}") from None
        try:
            # int() reads every non-empty decimal str (a test checks each decimal
            # code point), so it runs only on other forms: "+1", "1_0" pass, "x" not.
            # Nor on one sign and a decimal str, which int()'s digit limit would
            # refuse when long.
            if not rank_str.isdecimal() and not (
                rank_str[0] in "+-" and rank_str[1:].isdecimal()
            ):
                int(rank_str)
        except ValueError:
            raise ParseError(line_no, f"rank field {rank_str!r} is not an integer") from None
        try:
            score = float(score_str)
        except ValueError:
            raise ParseError(line_no, f"score field {score_str!r} is not a number") from None
        if not math.isfinite(score):
            raise ParseError(line_no, f"score field {score_str!r} is not finite")
        if tag != run_tag:
            if run_tag is not None:
                raise MixedRunTagsError(
                    f"line {line_no}: run tag {tag!r} differs from earlier tag {run_tag!r}"
                )
            run_tag = tag
        if query_id != last_query:
            per_doc = rows.setdefault(query_id, {})
            last_query = query_id
        if doc_id in per_doc:
            raise DuplicateDocError(
                f"line {line_no}: duplicate entry for query {query_id}, doc {doc_id}"
            )
        per_doc[doc_id] = score
    return RunList(run_tag or "", _canonical(rows))


def write_run(run: RunList) -> str:
    """Serialize a RunList to TREC 6-column text, every entry of every query.

    The writer cuts nothing: a fused run is already cut to its output
    depth by the fuser that made it. Ranks are written as 1..L and each
    score as the shortest text that parses back to the same float, with
    no ".0" on an integer-valued one (so below 10**6 it prints as
    ``.6g`` would). A run with no empty query re-parses to an equal
    RunList, a fused run included.

    Each entry is formatted by builtins (map, zip, str.join) with no
    Python-level step: the rank strings are made once per call, and a
    query's lines are joined by one separator that ends a line and
    starts the next.

    A run with entries whose tag is empty or contains whitespace raises
    ValueError, since parse_run could not read it back. Every score is
    finite, as Ranking checks, so no score can stop the round trip.
    """
    tag = run.run_tag
    if tag.split() != [tag] and any(run.by_query.values()):
        raise ValueError(f"run tag {tag!r} is empty or contains whitespace")
    longest = max(map(len, run.by_query.values()), default=0)
    ranks = list(map(str, range(1, longest + 1)))
    # a few strings per query: a list of every line would raise the peak memory
    out: list[str] = []
    for query_id in run.query_ids:
        ranking = run.by_query[query_id]
        if not ranking:
            continue
        scores = map(str.removesuffix, map(str, ranking.scores.tolist()), repeat(".0"))
        out += (
            f"{query_id} Q0 ",
            f" {tag}\n{query_id} Q0 ".join(map(" ".join, zip(ranking.docs, ranks, scores))),
            f" {tag}\n",
        )
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
        """Docs with grade > 0 for one query: the package's one test of relevance."""
        return frozenset(d for d, g in self.grades.get(query_id, {}).items() if g > 0)

    def relevant_count(self, query_id: str) -> int:
        return len(self.relevant(query_id))

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
    last_query: str | None = None
    per_query: dict[str, int] = {}
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
        if query_id != last_query:
            per_query = grades.setdefault(query_id, {})
            last_query = query_id
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


def _share_doc_ids(run: RunList, docs: dict[str, str]) -> RunList:
    """``run`` with each doc id replaced by the equal str kept in ``docs``.

    A doc id ``docs`` lacks is added, so the runs passed with one
    ``docs`` hold one str object per doc id, not one per run: each
    parse makes its own. Each scores array is kept, not copied, and the
    ids are looked up by builtins (tuple over map), with no Python-level
    step per entry.
    """
    share = docs.setdefault
    return RunList(
        run.run_tag,
        {
            query_id: Ranking(tuple(map(share, ranking.docs, ranking.docs)), ranking.scores)
            for query_id, ranking in run.by_query.items()
        },
    )


def save_run(run: RunList, path: str | os.PathLike[str]) -> None:
    """Write ``write_run(run)`` to ``path``: every entry, none cut.

    The text is built before the file is opened, so a run write_run
    refuses leaves whatever is at ``path`` as it was.
    """
    text = write_run(run)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)


def load_qrels(path: str | os.PathLike[str]) -> Qrels:
    with open(path, encoding="utf-8") as f:
        return parse_qrels(f, name=os.path.basename(path))


def save_qrels(qrels: Qrels, path: str | os.PathLike[str]) -> None:
    text = write_qrels(qrels)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)
