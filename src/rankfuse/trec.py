"""TREC run and qrels file I/O.

Run files are 6-column whitespace-separated text, one entry per line:

    <query_id> <iter> <doc_id> <rank> <score> <run_tag>

Qrels files are 4-column:

    <query_id> <iter> <doc_id> <grade>

Every Ranking is canonical, however it is made: its docs are distinct,
sorted by raw score descending (doc_id ascending on ties), and ranked
densely 1..L. Ranking(docs, scores) is the one way a checked ranking
becomes canonical (RunList.from_scores goes through it); parse_run,
which checks its lines itself, shares its ordering, _canonical. Run
files in the wild disagree between their rank and score columns, so
one of them has to be the authority; the rank column found in the file
must be an integer but is otherwise ignored. Canonicalization is
deterministic: the same entries produce the same RunList regardless of
line or argument order.

A RunList stores one Ranking per query: a read-only int32 array of
doc-id codes in rank order and a parallel read-only float64 array of
their raw scores. A doc's rank is its position + 1, so no rank is stored
and no per-entry object is kept; ``Ranking.docs`` and ``RunList.docs``
build doc ids on demand. parse_run encodes a file's docs and reads its
scores into one codes and one scores array, and each query whose
scores strictly decrease holds read-only views of them: one query kept
keeps its file's two arrays. Only a query with tied or out-of-order
scores is put in canonical order, into arrays of its own.

Every score is a finite
real number and every doc id a whitespace-free token: a Ranking checks
that where it is made, a RunList and a Qrels refuse a query id that is
not a str where they are made, a Qrels also a doc id that is not a str
and a grade that is not an integer, and the writers check the run tag
and query ids, so a RunList written is parsed back equal. Ranking is the
one check of score objects: RunList.from_scores makes one Ranking per
query, and parse_run checks each line's score text as it reads it, so
that its error names the line.

Doc ids become codes in one table per process: each distinct id is held
once, as one str, with one int32 code, however many runs, parses and
threads rank it. The table only grows; an id it holds is kept until the
process ends. Beside the codes it keeps an int32 order key, each code's
rank among all the ids it holds, so code arrays sort in doc-id order
with no string compared. Ids join the key at its first use after they
were added (the first rank cube after a load), all at once, by merging
them into the sorted order; its room is taken as they are added.

Qrels hold doc ids as strs, not codes, but parse_qrels keys each judged
doc whose id the table holds by the table's own str. Under depth pooling
every judged doc is one some run ranked, so qrels loaded after the runs
(as every CLI command loads them) hold no doc id of their own. An id the
table lacks keeps its parsed str and does not join the table.
"""

from __future__ import annotations

import math
import os
import threading
import unicodedata
from bisect import bisect_left
from collections import Counter
from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, compress, count, islice, repeat

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
        return sorted(ids, key=_decimal_key)
    return sorted(ids)


def _decimal_key(query_id: str) -> tuple[int, str, str]:
    """The order of ``(int(query_id), query_id)`` for a decimal token, with
    no int(), which refuses more than sys.get_int_max_str_digits() digits:
    its digits as ASCII, without leading zeros, by length and then text."""
    digits = "".join([str(unicodedata.decimal(c)) for c in query_id]).lstrip("0")
    return len(digits), digits, query_id


# The doc-id table (see the module docstring). _IDS and _CODES are only added
# to, and _CODES only read, under _TABLE_LOCK: while _encode adds ids, _CODES
# holds them before their codes. Every code a Ranking holds has its id in _IDS.
# One read takes no lock: parse_qrels' _CODES.get(doc_id, -1), which takes
# _IDS[code] only when 0 <= code < len(_IDS) as it was when the parse began.
# A dict read is atomic, an id _encode is adding or taking back reads -1, a
# code is set before _IDS holds its id, and _IDS only grows: at worst the
# parsed str is kept. A lock per line would cost more than the read, and one
# held over the whole parse would stall _encode in other threads while the
# file is read.
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


def _check_fields(name: str, texts: Collection[str]) -> None:
    """Refuse the first of ``texts`` that is empty or holds whitespace with
    a ValueError naming it as ``name``: the parsers split each line on
    whitespace, so they could not read it back as one field. When none
    is, the check is one split of the texts joined."""
    joined = "".join(texts)
    if not texts or (all(texts) and joined.split() == [joined]):
        return
    bad = next(text for text in texts if text.split() != [text])
    raise ValueError(f"{name} {bad!r} is empty or contains whitespace")


def _check_query_ids(query_ids: Iterable[object]) -> None:
    """Refuse the first of ``query_ids`` that is not a str with a ValueError
    naming it: the writers and sort_query_ids read each id as a str."""
    for query_id in query_ids:
        if not isinstance(query_id, str):
            raise ValueError(f"query id {query_id!r} is not a str")


def _check_judgments(grades: Mapping[str, Mapping[str, int]]) -> None:
    """Refuse the first doc id of ``grades`` that is not a str, or grade
    that is not an integer (a bool is not), with a ValueError naming it
    and its query. When every doc id is a str and every grade an int, it
    only collects their types."""
    doc_types = set(map(type, chain.from_iterable(grades.values())))
    grade_types = set(map(type, chain.from_iterable(g.values() for g in grades.values())))
    if doc_types <= {str} and grade_types <= {int}:
        return
    for query_id, per_query in grades.items():
        for doc_id, grade in per_query.items():
            if not isinstance(doc_id, str):
                raise ValueError(f"query {query_id!r}, doc id {doc_id!r} is not a str")
            if isinstance(grade, bool) or not isinstance(grade, (int, np.integer)):
                raise ValueError(
                    f"query {query_id!r}, doc {doc_id!r}: grade {grade!r} is not an integer"
                )


def _encode(*groups: Collection[str]) -> np.ndarray:
    """The codes of the doc ids of ``groups``, one group after another, as
    one read-only int32 array; an id the table lacks gets the next code,
    in the order of its first use. An id may be used more than once (a
    run file's queries share docs). A new doc id that is not a str raises
    TypeError, and one that is empty or holds whitespace ValueError;
    either leaves the table as it was. Only the ids the table lacks are
    checked. One call, under one lock, encodes them all: one lookup per
    doc, and one more per use of a new id only when some new id is used
    twice (on an empty table, every doc of a file whose queries share
    docs)."""
    global _NEXT_ORDER
    size = sum(map(len, groups))
    with _TABLE_LOCK:
        known = len(_CODES)
        try:
            # one lookup per doc: an id the table lacks goes in as -1 for now
            codes = np.fromiter(
                map(_CODES.setdefault, chain.from_iterable(groups), repeat(-1)), np.int32, size
            )
            new = _last_added(known)
            if not set(map(type, new)) <= {str}:
                for doc_id in new:
                    if not isinstance(doc_id, str):
                        raise TypeError(f"doc id {doc_id!r} is not a str")
            if new:
                _check_fields("doc id", new)
        except BaseException:
            for doc_id in _last_added(known):
                del _CODES[doc_id]
            raise
        if new:
            _CODES.update(zip(new, count(known)))
            _IDS.extend(new)
            _NEXT_ORDER = np.empty((2, len(_IDS)), np.int32)
            added = codes < 0
            uses = np.count_nonzero(added)
            if uses == len(new):  # each new id used once: they come in code order
                codes[added] = np.arange(known, len(_IDS), dtype=np.int32)
            else:  # a new id used twice: look the uses of new ids up again
                docs = compress(chain.from_iterable(groups), added.tolist())
                codes[added] = np.fromiter(map(_CODES.__getitem__, docs), np.int32, uses)
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
    codes: np.ndarray, scores: np.ndarray, docs: Iterable[str]
) -> tuple[np.ndarray, np.ndarray]:
    """One query's codes and scores in canonical order, score descending,
    doc_id ascending on ties, as new read-only arrays.

    ``codes`` and ``scores`` are one query's codes of distinct docs and
    its checked float64 scores, both in the given order, and ``docs``
    their doc ids, listed only when a tie needs them. It checks nothing:
    Ranking and parse_run check first. One stable argsort of the negated
    scores orders both. When the sorted scores strictly decrease no two
    docs tie and that order is final. Otherwise each run of equal scores
    (0.0 beside -0.0, and two ints that round to one float, are equal
    too) is put in doc-id order.
    """
    order = np.argsort(-scores, kind="stable")
    values = scores[order]
    if not (values[:-1] > values[1:]).all():
        order = _ties_by_doc(order, values, list(docs))
        values = scores[order]
    codes = codes[order]
    codes.flags.writeable = values.flags.writeable = False
    return codes, values


@dataclass(frozen=True, slots=True, eq=False, init=False, repr=False)
class Ranking:
    """One query's canonical ranking: doc ids in rank order and their raw scores.

    Made as ``Ranking(docs, scores)``, docs in any order: it puts them in
    canonical order, score descending and doc id ascending on ties, so
    it equals RunList.from_scores of the same pairs. The doc at position
    i has rank i + 1. ``len`` is the number of docs. ``codes`` is a
    read-only int32 array of the docs' codes in the doc-id table, and
    ``docs`` builds their tuple of ids, the table's own strs, on each
    call. ``scores`` is a read-only float64 array of one finite score per
    doc, always a new one, so changing what was passed changes no
    Ranking and a Ranking changes nothing that was passed. Every form is
    checked here, the one check of score objects (RunList.from_scores
    goes through it): a score that is not finite (NaN, ±inf, None), an
    int too large for a float, a complex number (a Python complex, or any
    numpy complex dtype), or a str or bytes (even one that reads as a
    number) raises ValueError naming its doc. Then a repeated doc, and a
    new doc id that is empty or holds whitespace, which parse_run could
    not read back, raise ValueError naming it, and a new doc id that is
    not a str TypeError, each before any id joins the doc-id table.
    Rankings compare by value and are not hashable. A pickled Ranking
    holds its doc ids, not its codes, so any process reads it back.
    """

    codes: np.ndarray
    scores: np.ndarray

    def __init__(self, docs: Sequence[str], scores: Iterable[float] | np.ndarray) -> None:
        given = scores
        values = np.asarray(given)
        if values.dtype.kind in "USOc" and values.ndim == 1:
            # numpy would read a str or bytes score as a number, and keep
            # only the real part of a complex one
            items = given.tolist() if isinstance(given, np.ndarray) else given
            for doc_id, score in zip(docs, items):
                if isinstance(score, (str, bytes)):
                    raise ValueError(f"doc {doc_id!r}: score {score!r} is not a number")
                if np.iscomplexobj(score):
                    raise ValueError(f"doc {doc_id!r}: score {score} is not a real number")
        try:
            scores = values.astype(np.float64, copy=False)
        except OverflowError:  # an int too large for a float
            for doc_id, score in zip(docs, given):
                try:
                    float(score)
                except OverflowError:
                    raise ValueError(f"doc {doc_id!r}: score is too large for a float") from None
            raise
        if scores.shape != (len(docs),):
            raise ValueError(
                f"ranking has {len(docs)} docs but {scores.size} scores "
                f"of shape {scores.shape}"
            )
        finite = np.isfinite(scores)
        if not finite.all():
            bad = finite.argmin()  # the first False
            raise ValueError(f"doc {docs[bad]!r}: score {scores[bad]} is not finite")
        if len(set(docs)) != len(docs):
            repeated = next(doc_id for doc_id, n in Counter(docs).items() if n > 1)
            raise ValueError(f"doc {repeated!r} is repeated")
        # _canonical's arrays are new, so the caller's scores are neither held nor changed
        codes, scores = _canonical(_encode(docs), scores, docs)
        object.__setattr__(self, "codes", codes)
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


@dataclass(frozen=True)
class RunList:
    """One retrieval system's ranked output in canonical form.

    Per query, docs are sorted by raw score descending with doc_id
    ascending as tie-break, and ranks are exactly 1..L. A query id that
    is not a str raises ValueError naming it. Instances are treated as
    immutable and are safe to share across threads.
    """

    run_tag: str
    by_query: dict[str, Ranking]

    def __post_init__(self) -> None:
        _check_query_ids(self.by_query)

    @classmethod
    def from_scores(cls, run_tag: str, scores: Mapping[str, Mapping[str, float]]) -> RunList:
        """Build a canonical RunList from per-query doc -> score maps.

        Each query is one ``Ranking(docs, scores)``, which checks it and
        puts it in canonical order: a score or doc id it refuses raises
        its ValueError, which names the doc, with the query id in front.
        """
        by_query: dict[str, Ranking] = {}
        for query_id, per_doc in scores.items():
            try:
                by_query[query_id] = Ranking(tuple(per_doc), tuple(per_doc.values()))
            except ValueError as error:
                raise ValueError(f"query {query_id!r}, {error}") from None
        return cls(run_tag, by_query)

    @property
    def query_ids(self) -> list[str]:
        return sort_query_ids(self.by_query)

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
    return RunList(run_tag or "", _rankings_of(rows))


def _rankings_of(rows: dict[str, dict[str, float]]) -> dict[str, Ranking]:
    """The Ranking of each query of parse_run's ``rows`` (query -> doc ->
    score, each score checked finite), all made at once.

    Every doc of the file is encoded in one _encode call, and every score
    read into one array; each query's Ranking holds read-only views of
    those two arrays. One comparison over the file finds the queries
    whose scores do not strictly decrease (ties, lines out of order):
    only those go through _canonical, which gives them arrays of their
    own. A query whose scores strictly decrease is canonical as it is.
    """
    sizes = list(map(len, rows.values()))
    codes = _encode(*rows.values())
    scores = np.fromiter(
        chain.from_iterable(map(dict.values, rows.values())), np.float64, len(codes)
    )
    scores.flags.writeable = False
    ends = np.cumsum(sizes)
    # each pair of neighbours that does not strictly decrease, in the query
    # of its first (the scores are finite, so <= is "not >")
    pairs = np.flatnonzero(scores[:-1] <= scores[1:])
    queries = np.searchsorted(ends, pairs, side="right")
    # the pairs that straddle two queries do not count
    unsorted = set(queries[pairs + 1 < ends[queries]].tolist())
    rankings: dict[str, Ranking] = {}
    start = 0
    for index, ((query_id, per_doc), end) in enumerate(zip(rows.items(), ends.tolist())):
        ranked = codes[start:end], scores[start:end]
        if index in unsorted:
            ranked = _canonical(*ranked, per_doc)
        rankings[query_id] = Ranking._of(*ranked)
        start = end
    return rankings


def write_run(run: RunList) -> str:
    """Serialize a RunList to TREC 6-column text, every entry of every query.

    The writer cuts nothing: a fused run is already cut to its output
    depth by the fuser that made it. Ranks are written as 1..L and each
    score as the shortest text that parses back to the same float, with
    no ".0" on an integer-valued one (so below 10**6 it prints as
    ``.6g`` would). A run with no empty query re-parses to an equal
    RunList, a fused run included. The scores of a query of 100 or more
    whole numbers below 1e16 in magnitude, none of them -0.0, are
    written as the reprs of their int64s, not of their floats: the same
    bytes, since below 1e16 a float's shortest repr is positional and
    such a float's is its int's digits plus ".0" (see _score_texts).

    No str is made per line: each query is laid out as one list of four
    strs per line, joined once (see _query_texts).

    A run with entries whose tag is empty or contains whitespace, or a
    query with entries whose id is, raises ValueError, since parse_run
    could not read it back. Every Ranking is canonical, its scores finite
    and its doc ids whitespace-free tokens, as Ranking checks, so no
    entry can stop the round trip.
    """
    return "".join(_query_texts(run))


def _query_texts(run: RunList) -> Iterator[str]:
    """write_run's text in pieces, two per query, made as they are taken;
    a run write_run refuses raises ValueError here, before any piece is
    made.

    A query of n lines is "{query_id} Q0 " and then one list of 4n strs
    joined once: per line the doc id (the table's own str), " {rank} "
    (made once per call), the score text, and the separator
    " {tag}\n{query_id} Q0 " that ends the line and starts the next, or
    " {tag}\n" after the last. The list is filled by extended-slice
    assignment, so no per-line str or tuple is made.
    """
    tag = run.run_tag
    written = [query_id for query_id, ranking in run.by_query.items() if len(ranking)]
    if written:
        _check_fields("run tag", [tag])
    _check_fields("query id", written)

    longest = max(map(len, run.by_query.values()), default=0)
    ranks = [f" {rank} " for rank in range(1, longest + 1)]

    def pieces() -> Iterator[str]:
        for query_id in run.query_ids:
            ranking = run.by_query[query_id]
            n = len(ranking)
            if not n:
                continue
            parts = [f" {tag}\n{query_id} Q0 "] * (4 * n)
            parts[0::4] = map(_IDS.__getitem__, ranking.codes.tolist())
            parts[1::4] = ranks[:n]
            parts[2::4] = _score_texts(ranking.scores)
            parts[-1] = f" {tag}\n"
            yield f"{query_id} Q0 "
            yield "".join(parts)

    return pieces()


def _score_texts(scores: np.ndarray) -> Iterator[str]:
    """The text of each of one query's ``scores``: its shortest repr, with
    no ".0" on a whole number (repr, which str would only call).

    When every score is a whole number below 1e16 in magnitude and none
    is -0.0, each is written as the repr of its int64, which is faster
    and gives the same bytes: below 1e16 a float's shortest repr is
    positional, every such whole float is an int that int64 holds
    exactly, and its shortest digits are that int's digits plus ".0".
    That is tested before the cast, which would warn on a float beyond
    int64. The test costs a few numpy calls, more than the ints save on
    a query of under 100 scores or on one whose first score is
    fractional, so those go straight to repr.
    """
    if (
        len(scores) >= 100
        and scores[0].is_integer()
        and (
            (abs(scores) < 1e16)
            & (np.trunc(scores) == scores)
            & (scores.view(np.int64) != _NEGATIVE_ZERO)
        ).all()
    ):
        return map(repr, scores.astype(np.int64).tolist())
    return map(str.removesuffix, map(repr, scores.tolist()), repeat(".0"))


# -0.0's bits as an int64: they tell -0.0 from 0.0, which == does not
_NEGATIVE_ZERO = np.float64(-0.0).view(np.int64)


@dataclass(frozen=True)
class Qrels:
    """Relevance judgments: per-query doc -> integer grade.

    A document is relevant iff its grade is > 0 (the binarized view).
    Grade-0 entries are kept explicitly so that pool-derived judgment
    sets preserve which documents were actually looked at. A query id
    or a doc id that is not a str, and a grade that is not an integer (a
    Python int or a numpy integer; a bool, a float or a str is not),
    raise ValueError naming it: relevance compares each grade with 0, and
    the writers write what parse_qrels reads back.
    """

    grades: dict[str, dict[str, int]]
    name: str = field(default="", compare=False)
    duplicate_warnings: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        _check_query_ids(self.grades)
        _check_judgments(self.grades)

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
        """len(relevant(query_id)), counted without building the set."""
        return len([g for g in self.grades.get(query_id, {}).values() if g > 0])

    def total_relevant(self) -> int:
        return sum(map(self.relevant_count, self.grades))


def parse_qrels(lines: Iterable[str], name: str = "") -> Qrels:
    """Parse a 4-column qrels file.

    Grades are stored as given. A repeated (query, doc) line with the
    identical grade is accepted and counted in ``duplicate_warnings``;
    a conflicting grade raises GradeConflictError.

    A doc whose id the doc-id table holds when the parse begins is keyed
    by the table's own str, so qrels parsed after the runs that rank
    their docs share those runs' strs; any other id keeps its parsed str
    and does not join the table.
    """
    grades: dict[str, dict[str, int]] = {}
    duplicates = 0
    last_query: str | None = None
    per_query: dict[str, int] = {}
    # local names for what is read on every line: the doc-id table, whose
    # first ``known`` ids are there to stay (see _IDS), and each grade text's
    # int, since a file holds few grade texts and int() costs more than a lookup
    code_of = _CODES.get
    ids = _IDS
    known = len(ids)
    grade_of: dict[str, int] = {}
    for line_no, raw in enumerate(lines, start=1):
        try:
            query_id, _iteration, doc_id, grade_str = raw.split()
        except ValueError:  # not 4 fields
            fields = len(raw.split())
            if not fields:
                continue
            raise ParseError(line_no, f"expected 4 fields, got {fields}") from None
        grade = grade_of.get(grade_str)
        if grade is None:
            try:
                grade = grade_of[grade_str] = int(grade_str)
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
        # an id the table holds is keyed by the table's str
        code = code_of(doc_id, -1)
        if 0 <= code < known:
            doc_id = ids[code]
        per_query[doc_id] = grade
    return Qrels(grades, name=name, duplicate_warnings=duplicates)


def write_qrels(qrels: Qrels) -> str:
    """Serialize qrels to 4-column text sorted by (query_id, doc_id).

    A judged query whose id, or a doc whose id, is empty or contains
    whitespace raises ValueError, since parse_qrels could not read it
    back.
    """
    return "".join(_qrels_texts(qrels))


def _qrels_texts(qrels: Qrels) -> Iterator[str]:
    """write_qrels' text in pieces, one per query, made as they are taken;
    qrels write_qrels refuses raise ValueError here, before any piece is
    made."""
    for query_id, per_query in qrels.grades.items():
        if per_query:
            _check_fields("query id", [query_id])
            _check_fields("doc id", per_query)

    def pieces() -> Iterator[str]:
        for query_id in qrels.query_ids:
            per_query = qrels.grades_for(query_id)
            yield "".join(
                [f"{query_id} 0 {doc_id} {per_query[doc_id]}\n" for doc_id in sorted(per_query)]
            )

    return pieces()


@contextmanager
def _open_text(path: str | os.PathLike[str]) -> Iterator[Iterable[str]]:
    """The lines of the file at ``path``, read as UTF-8 text, without the
    byte-order mark some editors put first: the one reader of every file
    the package reads (runs, qrels and weights CSVs). A byte sequence that
    is not UTF-8 raises ParseError naming its line: only then is the file
    read again, as bytes, to find that line."""
    try:
        with open(path, encoding="utf-8") as f:
            # not the utf-8-sig codec: its decoder, written in Python, raised
            # the peak memory of a CLI command that loads runs
            yield chain((next(f, "").removeprefix("\ufeff"),), f)
    except UnicodeDecodeError:
        with open(path, "rb") as f:
            lines = f.read().splitlines()  # the lines text mode reads: \n, \r\n, \r
        for line_no, raw in enumerate(lines, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ParseError(line_no, "line is not valid UTF-8") from None
        raise


def load_run(path: str | os.PathLike[str]) -> RunList:
    with _open_text(path) as lines:
        return parse_run(lines)


def save_run(run: RunList, path: str | os.PathLike[str]) -> None:
    """Write ``write_run(run)`` to ``path``: every entry, none cut.

    Each query's text is written as it is made, so no more than one
    query's text is held at once. A run write_run refuses is refused
    before the file is opened, so whatever is at ``path`` is left as it
    was.
    """
    _write_texts(_query_texts(run), path)


def load_qrels(path: str | os.PathLike[str]) -> Qrels:
    with _open_text(path) as lines:
        return parse_qrels(lines, name=os.path.basename(path))


def save_qrels(qrels: Qrels, path: str | os.PathLike[str]) -> None:
    """Write ``write_qrels(qrels)`` to ``path``, each query's text as it is
    made, so no more than one query's text is held at once. Qrels
    write_qrels refuses are refused before the file is opened, so
    whatever is at ``path`` is left as it was."""
    _write_texts(_qrels_texts(qrels), path)


def _write_texts(texts: Iterable[str], path: str | os.PathLike[str]) -> None:
    """Write ``texts`` in order to the file at ``path``, as UTF-8 with no
    newline translation: the one writer of every file this package makes."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.writelines(texts)
