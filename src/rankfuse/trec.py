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

A RunList stores one Ranking per query: a read-only int32 array of
doc-id codes in rank order and a parallel read-only float64 array of
their raw scores. A doc's rank is its position + 1, so no rank is stored
and no per-entry object is kept; ``Ranking.docs`` and ``RunList.entries``
build doc ids and RunEntry views on demand. Every score is finite: a
Ranking checks that where it is made, so no score keeps a RunList from
being written and parsed back equal.

Doc ids become codes in one table per process: each distinct id is held
once, as one str, with one int32 code, however many runs, parses and
threads rank it. The table only grows; an id it holds is kept until the
process ends. Beside the codes it keeps an int32 order key, each code's
rank among all the ids it holds, so code arrays sort in doc-id order
with no string compared. Ids join the key at its first use after they
were added (the first rank cube after a load), all at once, by merging
them into the sorted order; its room is taken as they are added.
"""

from __future__ import annotations

import math
import os
import threading
from bisect import bisect_left
from collections.abc import Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import count, islice, repeat

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


# The doc-id table (see the module docstring). _IDS and _CODES are only added
# to, and _CODES only read, under _TABLE_LOCK: while _encode adds ids, _CODES
# holds them before their codes. Every code a Ranking holds has its id in _IDS.
_IDS: list[str] = []  # code -> doc id
_CODES: dict[str, int] = {}  # doc id -> code, in code order
_TABLE_LOCK = threading.Lock()
# The order key of the first len(_ORDER[0]) codes, as read-only int32 arrays:
# (code -> rank of its id among them, rank -> code).
_ORDER: tuple[np.ndarray, np.ndarray] = (np.empty(0, np.int32), np.empty(0, np.int32))
# While ids wait to join the order key: room for the next one, two rows of
# len(_IDS) int32 that nothing reads, made as the ids are added. So the key's
# memory is taken with the ids, and the first fusion after a load fills it.
_NEXT_ORDER: np.ndarray | None = None


def _encode(docs: Collection[str]) -> np.ndarray:
    """The codes of ``docs`` as a read-only int32 array; an id the table
    lacks gets the next code. A doc id that is not a str raises TypeError
    and leaves the table as it was."""
    global _NEXT_ORDER
    with _TABLE_LOCK:
        known = len(_CODES)
        try:
            # one lookup per doc: an id the table lacks goes in as -1 for now
            codes = np.fromiter(map(_CODES.setdefault, docs, repeat(-1)), np.int32, len(docs))
            new = _last_added(known)
            if not set(map(type, new)) <= {str}:
                for doc_id in new:
                    if not isinstance(doc_id, str):
                        raise TypeError(f"doc id {doc_id!r} is not a str")
        except BaseException:
            for doc_id in _last_added(known):
                del _CODES[doc_id]
            raise
        if new:
            _CODES.update(zip(new, count(known)))
            _IDS.extend(new)
            _NEXT_ORDER = np.empty((2, len(_IDS)), np.int32)
            fresh = np.flatnonzero(codes < 0)
            if len(fresh) == len(new):  # each new id once, in code order
                codes[fresh] = np.arange(known, len(_IDS), dtype=np.int32)
            else:
                docs = list(docs)
                codes[fresh] = [_CODES[docs[i]] for i in fresh.tolist()]
    codes.flags.writeable = False
    return codes


def _last_added(known: int) -> list[str]:
    """The ids _CODES has gained beyond its first ``known``, in code order."""
    new = list(islice(reversed(_CODES), len(_CODES) - known))
    new.reverse()
    return new


def _doc_ids(codes: np.ndarray) -> tuple[str, ...]:
    """The doc id of each of ``codes``, the table's own str."""
    return tuple(map(_IDS.__getitem__, codes.tolist()))


def _known_codes(doc_ids: Iterable[str]) -> np.ndarray:
    """The codes of those of ``doc_ids`` the table holds, sorted, as int32:
    no Ranking holds another."""
    with _TABLE_LOCK:
        codes = list(map(_CODES.get, doc_ids))
    return np.array(sorted(code for code in codes if code is not None), dtype=np.int32)


def _among(codes: np.ndarray, known: np.ndarray) -> np.ndarray:
    """Whether each of ``codes`` is one of ``known``, _known_codes' sorted
    codes, as a bool array."""
    if not known.size:
        return np.zeros(codes.shape, dtype=bool)
    return known.take(np.searchsorted(known, codes), mode="clip") == codes


def _order_key() -> tuple[np.ndarray, np.ndarray]:
    """(code -> rank, rank -> code) over every id the table holds, where an
    id's rank is its place in sorted order: codes sorted by rank are in
    doc-id order."""
    order = _ORDER
    if len(order[0]) < len(_IDS):
        with _TABLE_LOCK:
            order = _merge_added_ids()
    return order


def _merge_added_ids() -> tuple[np.ndarray, np.ndarray]:
    """The order key with the ids added since it was made merged in, in
    _NEXT_ORDER; under _TABLE_LOCK. The added ids are sorted and each is
    placed among the known ones by bisection of the rank -> code key: its
    cost grows with the ids added, plus one pass over the rest, and
    neither a list of every id nor one of their ranks is made."""
    global _ORDER, _NEXT_ORDER
    code_of = _ORDER[1]
    known, total = len(code_of), len(_IDS)
    if known == total:
        return _ORDER
    added = sorted(islice(_IDS, known, total))
    # each added id's rank: the known ids before it, plus the added ones
    place = partial(bisect_left, code_of, key=_IDS.__getitem__)
    at = np.fromiter(map(place, added), np.int32, len(added))
    at += np.arange(len(added), dtype=np.int32)
    rank, code = _NEXT_ORDER
    code[at] = np.fromiter(map(_CODES.__getitem__, added), np.int32, len(added))
    del added
    if known:
        kept = np.ones(total, dtype=bool)
        kept[at] = False
        code[kept] = code_of
    rank[code] = np.arange(total, dtype=np.int32)
    rank.flags.writeable = code.flags.writeable = False
    _ORDER, _NEXT_ORDER = (rank, code), None
    return _ORDER


@dataclass(frozen=True, slots=True, eq=False, init=False, repr=False)
class Ranking:
    """One query's canonical ranking: doc ids in rank order and their raw scores.

    Made as ``Ranking(docs, scores)``. The doc at position i has rank
    i + 1. ``len`` is the number of docs. ``codes`` is a read-only int32
    array of the docs' codes in the doc-id table, and ``docs`` builds
    their tuple of ids, the table's own strs, on each call. ``scores`` is
    a read-only float64 array of one finite score per doc. Any other
    sequence, or a writable array, is copied into one here, so changing
    what was passed changes no Ranking. Every form is checked: a score
    that is not finite (NaN, ±inf, None), an int too large for a float,
    or a str or bytes (even one that reads as a number) raises
    ValueError naming its doc, and a doc id that is not a str TypeError.
    Rankings compare by value and are not hashable. A pickled Ranking
    holds its doc ids, not its codes, so any process reads it back.
    """

    codes: np.ndarray
    scores: np.ndarray

    def __init__(self, docs: Sequence[str], scores: Iterable[float] | np.ndarray) -> None:
        if not (
            type(scores) is np.ndarray
            and scores.dtype == np.float64
            and not scores.flags.writeable
        ):
            given = scores
            values = np.asarray(given)
            if values.dtype.kind in "USO" and values.ndim == 1:
                # numpy would read a str or bytes score as a number
                items = given.tolist() if isinstance(given, np.ndarray) else given
                for doc_id, score in zip(docs, items):
                    if isinstance(score, (str, bytes)):
                        raise ValueError(f"doc {doc_id!r}: score {score!r} is not a number")
            try:
                scores = values.astype(np.float64)
            except OverflowError:  # an int too large for a float
                for doc_id, score in zip(docs, given):
                    try:
                        float(score)
                    except OverflowError:
                        raise ValueError(
                            f"doc {doc_id!r}: score is too large for a float"
                        ) from None
                raise
            scores.flags.writeable = False
        if scores.shape != (len(docs),):
            raise ValueError(
                f"ranking has {len(docs)} docs but {scores.size} scores "
                f"of shape {scores.shape}"
            )
        finite = np.isfinite(scores)
        if not finite.all():
            bad = finite.argmin()  # the first False
            raise ValueError(f"doc {docs[bad]!r}: score {scores[bad]} is not finite")
        object.__setattr__(self, "codes", _encode(docs))
        object.__setattr__(self, "scores", scores)

    @classmethod
    def _of(cls, codes: np.ndarray, scores: np.ndarray) -> Ranking:
        """A Ranking that holds ``codes`` and ``scores`` themselves, neither
        checked nor copied: read-only int32 codes from the table and
        read-only finite float64 scores, one per code."""
        ranking = object.__new__(cls)
        object.__setattr__(ranking, "codes", codes)
        object.__setattr__(ranking, "scores", scores)
        return ranking

    @property
    def docs(self) -> tuple[str, ...]:
        return _doc_ids(self.codes)

    def __eq__(self, other: object) -> bool:
        if type(other) is not Ranking:
            return NotImplemented
        return np.array_equal(self.codes, other.codes) and np.array_equal(
            self.scores, other.scores
        )

    def __len__(self) -> int:
        return len(self.codes)

    def __repr__(self) -> str:
        return f"Ranking(docs={self.docs!r}, scores={self.scores!r})"

    def __reduce__(self) -> tuple:
        return Ranking, (self.docs, self.scores)


_NO_RANKING = Ranking((), ())


def _ties_by_doc(order: np.ndarray, values: np.ndarray, docs: list[str]) -> np.ndarray:
    """``order`` with each run of equal ``values`` (the values in that order)
    put in doc-id order by ``docs``, the doc ids it indexes."""
    order = order.tolist()
    start = 0
    # A run ends where the next value is strictly smaller, or at the end.
    for end in (*(np.flatnonzero(values[:-1] > values[1:]) + 1).tolist(), len(values)):
        if end - start > 1:
            order[start:end] = sorted(order[start:end], key=docs.__getitem__)
        start = end
    return np.array(order, dtype=np.intp)


def _canonical(
    scores: Mapping[str, Mapping[str, float]], floats: bool = False
) -> dict[str, Ranking]:
    """One Ranking per query: score descending, doc_id ascending on ties.

    A query's scores are read as floats and its doc ids as codes, both in
    the given order, and one stable argsort of the negated scores orders
    both. When the sorted scores strictly decrease no two docs tie and
    that order is final. Otherwise each run of equal floats (0.0 beside
    -0.0, and two ints that round to one float, are equal too) is put in
    doc-id order. A score Ranking refuses raises its ValueError with the
    query id in front. ``floats`` says every score is a float (parse_run's
    are), so their types are not checked again.
    """
    by_query: dict[str, Ranking] = {}
    for query_id, per_doc in scores.items():
        try:
            if not floats and any(
                issubclass(kind, (str, bytes)) for kind in set(map(type, per_doc.values()))
            ):
                raise TypeError  # np.fromiter would read them as numbers
            given = np.fromiter(per_doc.values(), np.float64, len(per_doc))
            if not np.isfinite(given).all():
                raise ValueError
            order = np.argsort(-given, kind="stable")
            values = given[order]
            if not (values[:-1] > values[1:]).all():
                order = _ties_by_doc(order, values, list(per_doc))
                values = given[order]
            codes = _encode(per_doc.keys())[order]
            codes.flags.writeable = values.flags.writeable = False
            by_query[query_id] = Ranking._of(codes, values)
        except (TypeError, OverflowError, ValueError):
            # NaN or ±inf, None, 10**400 (no float), a str or bytes, or a doc
            # id that is not a str: Ranking names the first doc it refuses,
            # in the given order
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
    # local names for what is called on every line: the current query's
    # doc -> score setdefault, and isfinite
    add_doc = {}.setdefault
    isfinite = math.isfinite
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
        if not isfinite(score):
            raise ParseError(line_no, f"score field {score_str!r} is not finite")
        if tag != run_tag:
            if run_tag is not None:
                raise MixedRunTagsError(
                    f"line {line_no}: run tag {tag!r} differs from earlier tag {run_tag!r}"
                )
            run_tag = tag
        if query_id != last_query:
            add_doc = rows.setdefault(query_id, {}).setdefault
            last_query = query_id
        # one lookup: a doc already there keeps its own score, another object
        if add_doc(doc_id, score) is not score:
            raise DuplicateDocError(
                f"line {line_no}: duplicate entry for query {query_id}, doc {doc_id}"
            )
    return RunList(run_tag or "", _canonical(rows, floats=True))


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
        docs = map(_IDS.__getitem__, ranking.codes.tolist())
        scores = map(str.removesuffix, map(str, ranking.scores.tolist()), repeat(".0"))
        out += (
            f"{query_id} Q0 ",
            f" {tag}\n{query_id} Q0 ".join(map(" ".join, zip(docs, ranks, scores))),
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
