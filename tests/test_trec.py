"""Run/qrels parsing, canonicalization, and serialization round-trips."""

from __future__ import annotations

import math
import os
import pickle
import random
import re
import subprocess
import sys
import threading
import tracemalloc
from itertools import count

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankfuse import trec
from rankfuse.trec import (
    DuplicateDocError,
    GradeConflictError,
    MixedRunTagsError,
    ParseError,
    Qrels,
    Ranking,
    RunList,
    TrecFormatError,
    load_qrels,
    load_run,
    parse_qrels,
    parse_run,
    save_qrels,
    save_run,
    sort_query_ids,
    write_qrels,
    write_run,
)
from rankfuse.evaluation import evaluate
from rankfuse.fusion import borda
from rankfuse.regression import weights_from_csv


def test_sort_query_ids_numeric_when_all_digits():
    assert sort_query_ids(["301", "9", "10"]) == ["9", "10", "301"]


def test_sort_query_ids_lexicographic_fallback():
    assert sort_query_ids(["q2", "q10", "q1"]) == ["q1", "q10", "q2"]


def test_sort_query_ids_returns_each_id_once():
    assert sort_query_ids(["301", "9", "301"]) == ["9", "301"]
    assert sort_query_ids(["q2", "q1", "q2"]) == ["q1", "q2"]


def test_sort_query_ids_sorts_a_non_decimal_digit_as_text():
    # "\u00b2".isdigit() holds, but int() cannot read it
    assert sort_query_ids(["10", "\u00b2", "9"]) == ["10", "9", "\u00b2"]


def test_sort_query_ids_orders_decimal_ids_as_int_does_past_its_digit_limit():
    # int() refuses more digits than sys.get_int_max_str_digits() (4300 by
    # default); the order is still (int(q), q)'s, with leading zeros and
    # non-ASCII decimal digits
    readable = ["10", "010", "9", "0", "00", "\u0663", "0\u0663", "\u0661\u0660", "\uff19", "301"]
    assert sort_query_ids(readable) == sorted(readable, key=lambda q: (int(q), q))
    long_id = "1" * 5000
    assert sort_query_ids([long_id, "2", "0" + long_id, "1" + long_id]) == [
        "2", "0" + long_id, long_id, "1" + long_id
    ]
    run = parse_run([long_id + " Q0 a 1 2.0 t", "2 Q0 b 1 1.0 t"])
    assert run.query_ids == ["2", long_id]


def test_parse_run_single_line_fields():
    run = parse_run(["301 Q0 FBIS3-1 1 12.5 runA"])
    assert run.run_tag == "runA"
    assert run.query_ids == ["301"]
    assert run.docs("301") == ("FBIS3-1",)
    assert run.by_query["301"].scores.tolist() == [12.5]


def test_parse_run_resorts_by_score_descending():
    # file order and rank column disagree with the scores; score wins
    run = parse_run(
        [
            "301 Q0 docB 1 5.0 runA",
            "301 Q0 docA 2 9.0 runA",
        ]
    )
    assert run.docs("301") == ("docA", "docB")
    assert run.by_query["301"].scores.tolist() == [9.0, 5.0]


def test_every_decimal_string_parses_as_an_int():
    # parse_run skips int() for a decimal rank field on this premise, which
    # rests on the interpreter's Unicode database: check it on each version
    decimal = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isdecimal()]
    assert len(decimal) > 600
    for digit in decimal:
        int(digit)
        int("1" + digit)


def test_a_decimal_rank_beyond_the_int_digit_limit_is_accepted():
    # int() refuses a str of more digits than sys.get_int_max_str_digits()
    # (4300 by default), to bound its conversion time; parse_run converts no
    # decimal rank, so it accepts one of any length and ignores it as any other
    long_rank = "7" * 5000
    assert parse_run([f"1 Q0 d1 {long_rank} 2.5 t"]) == parse_run(["1 Q0 d1 1 2.5 t"])


@pytest.mark.parametrize("sign", ["+", "-"])
def test_a_signed_rank_beyond_the_int_digit_limit_is_accepted(sign):
    long_rank = sign + "7" * 5000
    assert parse_run([f"1 Q0 d1 {long_rank} 2.5 t"]) == parse_run(["1 Q0 d1 1 2.5 t"])


def test_parse_run_tie_breaks_by_doc_id():
    run = parse_run(
        [
            "1 Q0 zz 1 3.0 t",
            "1 Q0 aa 2 3.0 t",
        ]
    )
    assert run.docs("1") == ("aa", "zz")


def test_parse_run_skips_blank_lines():
    run = parse_run(["", "1 Q0 a 1 2.0 t", "   ", "1 Q0 b 2 1.0 t"])
    assert run.docs("1") == ("a", "b")


def test_parse_run_field_count_error_names_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_run(["1 Q0 a 1 2.0 t", "1 Q0 b 2 1.0"])


def test_parse_run_non_numeric_rank():
    with pytest.raises(ParseError, match="line 1.*rank"):
        parse_run(["301 Q0 docX one 12.5 runA"])


@pytest.mark.parametrize("rank", ["+1", "-0", "1_0", "\u0663", "\uff10", "\uff11\uff12"])
def test_parse_run_accepts_any_rank_int_reads(rank):
    assert parse_run([f"1 Q0 d1 {rank} 2.5 t"]) == parse_run(["1 Q0 d1 1 2.5 t"])


@pytest.mark.parametrize(
    "rank", ["\u00b2", "0x1", "1.0", "1e3", "_1", "+", "-", "+-7", "+x", "-\u00b2"]
)
def test_parse_run_refuses_a_rank_int_cannot_read(rank):
    message = f"^line 2: rank field {re.escape(repr(rank))} is not an integer$"
    with pytest.raises(ParseError, match=message) as raised:
        parse_run(["1 Q0 d1 1 2.5 t", f"1 Q0 d2 {rank} 2.5 t"])
    assert raised.value.line_no == 2


def test_parse_run_non_numeric_and_non_finite_score():
    with pytest.raises(ParseError, match="score"):
        parse_run(["1 Q0 a 1 abc t"])
    with pytest.raises(ParseError, match="finite"):
        parse_run(["1 Q0 a 1 inf t"])
    # the one score check outside Ranking: it names the line of outside input
    for field in ("nan", "-inf"):
        with pytest.raises(ParseError, match=f"^line 2: score field '{field}' is not finite$") as e:
            parse_run(["1 Q0 a 1 2 t", f"1 Q0 b 2 {field} t"])
        assert e.value.line_no == 2


def test_parse_run_duplicate_doc():
    with pytest.raises(DuplicateDocError, match="query 1, doc a"):
        parse_run(["1 Q0 a 1 2.0 t", "1 Q0 a 2 1.0 t"])


def test_parse_run_duplicate_doc_in_a_later_block_of_its_query():
    with pytest.raises(DuplicateDocError, match="^line 3: duplicate entry for query q1, doc d1$"):
        parse_run(["q1 Q0 d1 1 2.0 t", "q2 Q0 d1 1 2.0 t", "q1 Q0 d1 2 1.0 t"])


def test_parse_run_mixed_tags():
    with pytest.raises(MixedRunTagsError):
        parse_run(["1 Q0 a 1 2.0 t1", "1 Q0 b 2 1.0 t2"])


def test_parse_run_empty_input():
    run = parse_run([])
    assert run.run_tag == ""
    assert run.num_entries() == 0
    assert write_run(run) == ""


def test_parse_run_accepts_any_iteration_token():
    run = parse_run(["1 ITER a 1 2.0 t"])
    assert run.docs("1") == ("a",)


def test_canonical_ranks_are_dense_after_from_scores():
    run = RunList.from_scores("t", {"7": {"a": 0.25, "b": 0.5, "c": 0.125}})
    assert run.docs("7") == ("b", "a", "c")
    assert run.by_query["7"].scores.tolist() == [0.5, 0.25, 0.125]


def test_write_run_line_format():
    run = RunList.from_scores("runA", {"301": {"FBIS3-1": 12.5}})
    assert write_run(run) == "301 Q0 FBIS3-1 1 12.5 runA\n"


def test_write_run_writes_every_entry():
    scores = {"1": {f"d{i:04d}": float(2000 - i) for i in range(2000)}}
    run = RunList.from_scores("t", scores)
    lines = write_run(run).splitlines()
    assert len(lines) == 2000
    assert parse_run(lines) == run


@pytest.mark.parametrize("tag", ["", "a b", "a\tb", " a", "a\n", "a\x85b", "a\u2028"])
def test_write_run_refuses_a_tag_parse_run_cannot_read_back(tag):
    with pytest.raises(ValueError, match="empty or contains whitespace"):
        write_run(RunList.from_scores(tag, {"1": {"d": 1.0}}))
    assert write_run(RunList.from_scores(tag, {"1": {}})) == ""  # no line to write


# Ids the parsers, which split each line on whitespace, could not read back as one field.
_UNREADABLE_IDS = ["", "a b", "a\tb", " a", "a\n", "a\x85b", "a\u2028", "a\u00a0b", "a\x1cb"]


@pytest.mark.parametrize("doc_id", _UNREADABLE_IDS, ids=repr)
def test_a_doc_id_parse_run_cannot_read_back_is_refused_where_it_joins_the_table(doc_id):
    table = (list(trec._IDS), dict(trec._CODES))
    message = f"doc id {re.escape(repr(doc_id))} is empty or contains whitespace$"
    with pytest.raises(ValueError, match=f"^query '1', {message}"):
        RunList.from_scores("t", {"1": {"unreadable-new": 2.0, doc_id: 1.0}})
    with pytest.raises(ValueError, match=f"^{message}"):
        Ranking(("unreadable-new", doc_id), (2.0, 1.0))
    assert (trec._IDS, trec._CODES) == table


@pytest.mark.parametrize("query_id", _UNREADABLE_IDS, ids=repr)
def test_write_run_refuses_a_query_id_parse_run_cannot_read_back(query_id, tmp_path):
    run = RunList.from_scores("t", {"1": {"d": 1.0}, query_id: {"d": 1.0}})
    message = f"^query id {re.escape(repr(query_id))} is empty or contains whitespace$"
    with pytest.raises(ValueError, match=message):
        write_run(run)
    path = tmp_path / "kept.run"
    path.write_text("kept\n")
    with pytest.raises(ValueError, match=message):
        save_run(run, path)
    assert path.read_text() == "kept\n"
    # a query with no entries writes no line
    assert write_run(RunList.from_scores("t", {query_id: {}})) == ""


_NOT_STR_QUERY_IDS = [1, None, b"1", ("1",)]


def _not_a_str(query_id):
    return f"^query id {re.escape(repr(query_id))} is not a str$"


@pytest.mark.parametrize("query_id", _NOT_STR_QUERY_IDS, ids=repr)
def test_a_run_list_refuses_a_query_id_that_is_not_a_str(query_id):
    ranking = Ranking(("a",), (1.0,))
    with pytest.raises(ValueError, match=_not_a_str(query_id)):
        RunList("t", {"1": ranking, query_id: ranking})


@pytest.mark.parametrize("query_id", _NOT_STR_QUERY_IDS, ids=repr)
def test_from_scores_refuses_a_query_id_that_is_not_a_str(query_id):
    with pytest.raises(ValueError, match=_not_a_str(query_id)):
        RunList.from_scores("t", {"1": {"a": 1.0}, query_id: {"a": 1.0}})


@pytest.mark.parametrize("query_id", _NOT_STR_QUERY_IDS, ids=repr)
def test_qrels_refuses_a_query_id_that_is_not_a_str(query_id):
    with pytest.raises(ValueError, match=_not_a_str(query_id)):
        Qrels({"1": {"a": 1}, query_id: {"a": 1}})


@pytest.mark.parametrize("doc_id", [2, None, b"d", ("d",)], ids=repr)
def test_qrels_refuses_a_doc_id_that_is_not_a_str(doc_id):
    # write_qrels could not write it, and evaluate would score it as never retrieved
    message = f"^query '2', doc id {re.escape(repr(doc_id))} is not a str$"
    with pytest.raises(ValueError, match=message):
        Qrels({"1": {"a": 1}, "2": {"b": 0, doc_id: 1}})


# relevance compares each grade with 0, which a str or None cannot be, and
# write_qrels would write a float or a bool as "1.5" or "True", which
# parse_qrels refuses
@pytest.mark.parametrize(
    "grade", ["1", b"1", None, 1.5, 1.0, np.float64(2.0), True, False, np.True_], ids=repr
)
def test_qrels_refuses_a_grade_that_is_not_an_integer(grade):
    message = f"^query '1', doc 'b': grade {re.escape(repr(grade))} is not an integer$"
    with pytest.raises(ValueError, match=message):
        Qrels({"1": {"a": 1, "b": grade}})


@pytest.mark.parametrize("grade", [2, -1, np.int64(2), np.int8(-1), np.uint16(0)], ids=repr)
def test_qrels_takes_an_int_or_numpy_integer_grade_and_counts_its_relevant_docs(grade):
    qrels = Qrels({"1": {"a": 1, "b": grade, "c": 0}, "2": {}})
    relevant = {"a", "b"} if grade > 0 else {"a"}
    assert qrels.relevant("1") == relevant
    assert qrels.relevant_count("1") == len(relevant)
    assert qrels.total_relevant() == len(relevant)
    assert [type(qrels.relevant_count(q)) for q in ("1", "2", "absent")] == [int, int, int]
    assert parse_qrels(write_qrels(qrels).splitlines()).grades == {"1": qrels.grades["1"]}


@pytest.mark.parametrize("bad", _UNREADABLE_IDS, ids=repr)
@pytest.mark.parametrize("field", ["query id", "doc id"])
def test_write_qrels_refuses_an_id_parse_qrels_cannot_read_back(field, bad, tmp_path):
    grades = {"1": {"d": 1}}
    grades.update({bad: {"d": 1}} if field == "query id" else {"2": {"d": 0, bad: 1}})
    message = f"^{field} {re.escape(repr(bad))} is empty or contains whitespace$"
    with pytest.raises(ValueError, match=message):
        write_qrels(Qrels(grades))
    path = tmp_path / "kept.qrels"
    path.write_text("kept\n")
    with pytest.raises(ValueError, match=message):
        save_qrels(Qrels(grades), path)
    assert path.read_text() == "kept\n"


def test_a_repeated_doc_is_refused_by_name_and_leaves_the_table_as_it_was():
    Ranking(("repeated-known",), (1.0,))
    table = (list(trec._IDS), dict(trec._CODES))
    for docs, repeated in (
        (("repeated-a", "repeated-b", "repeated-a"), "repeated-a"),
        (("repeated-c", "repeated-known", "repeated-known"), "repeated-known"),
        (("repeated-d", "repeated-e", "repeated-e", "repeated-d"), "repeated-d"),
    ):
        with pytest.raises(ValueError, match=f"^doc '{repeated}' is repeated$"):
            Ranking(docs, range(len(docs)))
        assert (trec._IDS, trec._CODES) == table
    # a parsed file with a repeated doc, after a new doc of another query
    with pytest.raises(DuplicateDocError, match="^line 3: .* query 2, doc repeated-f$"):
        parse_run(["1 Q0 repeated-g 1 2.0 t\n", "2 Q0 repeated-f 1 2.0 t\n",
                   "2 Q0 repeated-f 2 1.0 t\n"])
    assert (trec._IDS, trec._CODES) == table
    # a score is checked first
    with pytest.raises(ValueError, match="^doc 'repeated-b': score nan is not finite$"):
        Ranking(("repeated-a", "repeated-b", "repeated-a"), (1.0, math.nan, 0.0))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_write_run_refuses_a_score_parse_run_cannot_read_back(bad, tmp_path):
    # a Ranking refuses a score that is not finite, so write_run never meets one
    with pytest.raises(ValueError, match=r"^doc 'x': score -?(inf|nan) is not finite$"):
        RunList("t", {
            "1": Ranking(("a", "b"), (2.0, 1.0)),
            "q2": Ranking(("a", "x", "c"), (3.0, bad, 1.0)),
        })
    # save_run refuses a run write_run refuses, and leaves the file as it was,
    # not opened and truncated before the refusal
    path = tmp_path / "kept.run"
    path.write_bytes(b"1 Q0 a 1 2 old\n")
    with pytest.raises(ValueError, match="empty or contains whitespace"):
        save_run(RunList.from_scores("a b", {"1": {"d": 1.0}}), path)
    assert path.read_bytes() == b"1 Q0 a 1 2 old\n"


def test_an_int_score_too_large_for_a_float_is_refused_by_name():
    with pytest.raises(ValueError, match=r"query '1', doc 'a': score is too large for a float"):
        RunList.from_scores("t", {"1": {"b": 1, "a": 10**400}})
    # a Ranking refuses it where it is made, so no run holds one
    with pytest.raises(ValueError, match="^doc 'x': score is too large for a float$"):
        RunList("t", {"q2": Ranking(("x", "c"), (10**400, 1))})
    with pytest.raises(ValueError, match="^doc 'c': score is too large for a float$"):
        Ranking(("x", "c"), [1, -(10**400)])


def test_an_int_score_beyond_float_precision_is_written_as_its_float():
    # 2**53 + 1 and 2**53 round to one float, so d and c tie and c ranks first
    run = RunList.from_scores("t", {"1": {"a": 10**17, "d": 2**53 + 1, "c": 2**53, "b": 3}})
    assert run.docs("1") == ("a", "c", "d", "b")
    assert run.by_query["1"].scores.tolist() == [1e17, 2.0**53, 2.0**53, 3.0]
    text = write_run(run)
    assert text == (
        "1 Q0 a 1 1e+17 t\n1 Q0 c 2 9007199254740992 t\n"
        "1 Q0 d 3 9007199254740992 t\n1 Q0 b 4 3 t\n"
    )
    assert parse_run(text.splitlines()) == run


def test_write_run_orders_queries_naturally():
    run = RunList.from_scores("t", {"10": {"a": 1.0}, "9": {"b": 1.0}})
    lines = write_run(run).splitlines()
    assert [line.split()[0] for line in lines] == ["9", "10"]


def test_run_round_trip_randomized():
    """write_run then parse_run reproduces the RunList, and re-writing
    reproduces the bytes; the scores are sixteenths, so some tie."""
    rng = np.random.default_rng(42)
    for _ in range(25):
        scores = {}
        for qi in range(rng.integers(1, 5)):
            docs = rng.permutation(24)[: rng.integers(1, 12)]
            scores[str(300 + qi)] = {
                f"D{d:03d}": float(rng.integers(0, 512)) / 16.0 for d in docs
            }
        run = RunList.from_scores("sysX", scores)
        text = write_run(run)
        again = parse_run(text.splitlines())
        assert again == run
        assert write_run(again) == text


def test_ranking_rejects_docs_and_scores_of_different_lengths():
    with pytest.raises(ValueError, match="2 docs but 1 scores"):
        Ranking(("a", "b"), (1.0,))
    with pytest.raises(ValueError, match="0 docs but 1 scores"):
        Ranking((), (1.0,))
    # one score per doc, but not a 1-D array of them: the message names the shape
    with pytest.raises(ValueError, match=re.escape("1 docs but 1 scores of shape (1, 1)")):
        Ranking(("a",), np.zeros((1, 1)))
    with pytest.raises(ValueError, match=re.escape("1 docs but 1 scores of shape ()")):
        Ranking(("a",), 5.0)
    assert len(Ranking(("a", "b"), (2.0, 1.0))) == 2


def test_a_ranking_copies_its_scores_into_a_read_only_float64_array():
    docs = ("a", "b", "c")
    given = np.array([3.0, -0.0, -1.5])
    built = [Ranking(docs, (3.0, -0.0, -1.5)), Ranking(docs, [3, -0.0, -1.5]), Ranking(docs, given)]
    assert built[0] == built[1] == built[2]
    assert built[0] != Ranking(docs, (3.0, -0.0, -2.5))
    assert built[0] != Ranking(("a", "c", "b"), (3.0, -0.0, -1.5))
    given[0] = 9.0  # the caller's array is not the Ranking's
    assert built[2].scores.tolist() == [3.0, -0.0, -1.5]
    for ranking in built:
        assert ranking.scores.dtype == np.float64 and not ranking.scores.flags.writeable
    # a read-only float64 array is not held either, and a float64 array put
    # in canonical order is not changed
    again = Ranking(docs, built[0].scores)
    assert again == built[0] and again.scores is not built[0].scores
    unordered = np.array([1.0, 3.0])
    assert Ranking(("x", "y"), unordered).scores.tolist() == [3.0, 1.0]
    assert unordered.tolist() == [1.0, 3.0]
    with pytest.raises(TypeError, match="unhashable"):
        hash(built[0])


def _read_only(values):
    array = np.array(values, dtype=np.float64)
    array.flags.writeable = False
    return array


_DOCS = ("a", "b", "c")
_MAKERS = {
    "tuple": lambda values: Ranking(_DOCS, tuple(values)),
    "list": lambda values: Ranking(_DOCS, list(values)),
    "array": lambda values: Ranking(_DOCS, np.array(values)),
    "read-only": lambda values: Ranking(_DOCS, _read_only(values)),
    "from_scores": lambda values: RunList.from_scores(
        "t", {"1": {"a": 1.0}, "q2": dict(zip(_DOCS, values))}
    ),
    # borda reads only positions, so a NaN score in its runs went unseen
    "borda": lambda values: borda([RunList("t", {"1": Ranking(_DOCS, values)})]),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, None], ids=repr)
@pytest.mark.parametrize("maker", sorted(_MAKERS))
def test_every_way_a_ranking_is_made_refuses_a_score_that_is_not_finite(maker, bad):
    query = "query 'q2', " if maker == "from_scores" else ""
    with pytest.raises(ValueError, match=rf"^{query}doc 'b': score -?(nan|inf) is not finite$"):
        _MAKERS[maker]([1.0, bad, 0.5])


@pytest.mark.parametrize("bad", [math.nan, math.inf, None], ids=repr)
def test_from_scores_names_the_first_refused_doc_in_the_given_order(bad):
    # alone in its query, None sorts; beside NaN, the sort's order is arbitrary
    with pytest.raises(ValueError, match=r"^query 'q2', doc 'b': score (nan|inf) is not finite$"):
        RunList.from_scores("t", {"1": {"a": 1.0}, "q2": {"b": bad}})
    with pytest.raises(ValueError, match=r"^query '1', doc 'y': score (nan|inf) is not finite$"):
        RunList.from_scores("t", {"1": {"x": 3.0, "y": bad, "z": math.nan}})


_STR_MAKERS = {
    **{name: _MAKERS[name] for name in ("tuple", "list", "from_scores", "borda")},
    "object array": lambda values: Ranking(_DOCS, np.array(values, dtype=object)),
}


@pytest.mark.parametrize("bad", ["1.5", b"1.5", "abc", 1 + 2j, np.complex128(1 + 1j)], ids=repr)
@pytest.mark.parametrize("maker", sorted(_STR_MAKERS))
def test_every_way_a_ranking_is_made_refuses_a_str_or_bytes_score(maker, bad):
    query = "query 'q2', " if maker == "from_scores" else ""
    message = rf"^{query}doc 'b': score {re.escape(repr(bad))} is not a number$"
    if isinstance(bad, complex):  # numpy would keep only its real part
        message = rf"^{query}doc 'b': score {re.escape(str(bad))} is not a real number$"
    with pytest.raises(ValueError, match=message):
        _STR_MAKERS[maker]([1.0, bad, 0.5])


def test_scores_that_are_all_text_are_refused_by_name():
    # str scores sort among themselves, and numpy reads each one as a number
    with pytest.raises(ValueError, match=r"^query '1', doc 'a': score '2' is not a number$"):
        RunList.from_scores("t", {"1": {"a": "2", "b": "1.5"}})
    with pytest.raises(ValueError, match=r"^query '1', doc 'a': score b'1' is not a number$"):
        RunList.from_scores("t", {"1": {"a": b"1"}})
    with pytest.raises(ValueError, match=r"^doc 'a': score '1.5' is not a number$"):
        Ranking(("a",), np.array(["1.5"]))
    # so are complex ones, a whole array of them included
    with pytest.raises(ValueError, match=r"^query '1', doc 'a': score \(1\+2j\) is not a real number$"):
        RunList.from_scores("t", {"1": {"a": 1 + 2j, "b": np.complex128(2)}})
    with pytest.raises(ValueError, match=r"^doc 'a': score \(3\+4j\) is not a real number$"):
        Ranking(("a",), np.array([3 + 4j]))
    with pytest.raises(ValueError, match=r"^doc 'x': score \(1\+0j\) is not a real number$"):
        Ranking(("x", "y"), np.array([1, 2j], dtype=np.complex64))
    # numbers of every other kind still convert, and are put in canonical order
    converted = Ranking(("a", "b", "c"), (True, 2, np.float32(0.5)))
    assert converted.docs == ("b", "a", "c") and converted.scores.tolist() == [2.0, 1.0, 0.5]


def test_entries_rank_one_to_length():
    run = RunList.from_scores("t", {"1": {"a": 1.0, "b": 3.0, "c": 3.0}, "2": {"z": 0.0}})
    # a doc's rank is its position + 1; tied scores order by doc id
    assert run.docs("1") == ("b", "c", "a")
    assert run.by_query["1"].scores.tolist() == [3.0, 3.0, 1.0]
    for query_id in run.query_ids:
        ranks = [rank for rank, _ in enumerate(run.docs(query_id), start=1)]
        assert ranks == list(range(1, len(run.by_query[query_id]) + 1))
    assert run.docs("missing") == ()


# Doc and query ids are whitespace-free tokens; a run has a query, a query a doc
# (an empty run file parses with run tag "").
_TOKENS = st.text(alphabet="abcXYZ019-_.:", min_size=1, max_size=6)


def _runs(scores: st.SearchStrategy) -> st.SearchStrategy:
    return st.dictionaries(
        _TOKENS, st.dictionaries(_TOKENS, scores, min_size=1, max_size=8), min_size=1, max_size=4
    )


_RUNS = _runs(st.integers(-(10**6) + 1, 10**6 - 1))


def _lines(scores: dict[str, dict[str, float]]) -> list[str]:
    return [
        f"{query_id} Q0 {doc_id} 1 {score!r} tag\n"
        for query_id, docs in scores.items()
        for doc_id, score in docs.items()
    ]


@settings(deadline=None)
@given(
    _RUNS.map(lambda r: {q: {d: s / 8 for d, s in docs.items()} for q, docs in r.items()}),
    st.randoms(use_true_random=False),
)
def test_parse_run_ignores_line_order(scores, random):
    lines = _lines(scores)
    shuffled = list(lines)
    random.shuffle(shuffled)
    run = parse_run(lines)
    assert parse_run(shuffled) == run
    for query_id, docs in scores.items():
        ordered = sorted(docs.items(), key=lambda item: (-item[1], item[0]))
        assert run.by_query[query_id] == Ranking(*map(tuple, zip(*ordered)))


@settings(deadline=None)
@given(st.one_of(_RUNS, _runs(st.floats(allow_nan=False, allow_infinity=False))))
def test_integer_scores_round_trip(scores):
    """Integer scores, and any finite float ones, are written losslessly."""
    run = RunList.from_scores("tag", scores)
    assert parse_run(write_run(run).splitlines()) == run


# Run, qrels and weights-CSV texts with good and bad fields, and mixtures with any text.
_ID = st.sampled_from(["1", "2", "d1", "d2", "\u00b2"])
# "\u0663" (Arabic-Indic 3) and "\uff11\uff12" (fullwidth 12) are decimal; "+1" and "0x1"
# are not, so parse_run reads them with int(), which takes the first and refuses the second.
_NUMBER = st.sampled_from(
    [
        "1", "0", "-2", "3.5", "nan", "inf", "1e999", "x", "\u00b2", "1_0",
        "\u0663", "\uff11\uff12", "+1", "0x1",
    ]
)
_RUN_LINE = st.tuples(_ID, st.just("Q0"), _ID, _NUMBER, _NUMBER, st.sampled_from(["t", "t2"]))
_QRELS_LINE = st.tuples(_ID, st.just("0"), _ID, _NUMBER)
_CSV_ROW = st.tuples(st.sampled_from(["a", "b", "a,b", "__intercept__", "__rss__", ""]), _NUMBER)
_HOSTILE = st.one_of(
    st.lists(_RUN_LINE.map(" ".join), max_size=6).map("\n".join),
    st.lists(_QRELS_LINE.map(" ".join), max_size=6).map("\n".join),
    st.lists(_CSV_ROW.map(",".join), max_size=5).map(
        lambda rows: "\n".join(["system,weight", *rows])
    ),
    st.lists(
        st.one_of(
            _RUN_LINE.map(" ".join),
            _QRELS_LINE.map(" ".join),
            _CSV_ROW.map(",".join),
            st.lists(st.one_of(_ID, _NUMBER), max_size=7).map(" ".join),
            st.text(),
        ),
        max_size=8,
    ).map("\n".join),
)


@settings(deadline=None, max_examples=300)
@given(_HOSTILE)
def test_parsers_raise_only_value_errors(text):
    lines = text.splitlines()
    for parse, write in ((parse_run, write_run), (parse_qrels, write_qrels)):
        try:
            parsed = parse(lines)
        except ParseError as exc:
            assert 1 <= exc.line_no <= len(lines)
        except ValueError:  # TrecFormatError included
            pass
        else:  # what parses can be listed and written back
            parsed.query_ids
            write(parsed)
    try:
        weights_from_csv(text)
    except ValueError:
        pass


def test_qrels_parse_grades_and_counts():
    qrels = parse_qrels(["301 0 FBIS3-1 2", "301 0 FBIS3-9 0", "301 0 other 1"])
    assert qrels.grade("301", "FBIS3-1") == 2
    assert qrels.relevant("301") == {"FBIS3-1", "other"}
    assert qrels.relevant_count("301") == 2
    assert qrels.grade("301", "missing") == 0
    assert qrels.total_relevant() == 2


def test_qrels_duplicate_identical_grade_counted():
    qrels = parse_qrels(["1 0 a 1", "1 0 a 1"])
    assert qrels.duplicate_warnings == 1
    assert qrels.grade("1", "a") == 1


def test_qrels_conflicting_grade_raises():
    with pytest.raises(GradeConflictError, match="doc a"):
        parse_qrels(["1 0 a 1", "1 0 a 0"])


def test_qrels_repeat_in_a_later_block_of_its_query():
    qrels = parse_qrels(["1 0 a 1", "2 0 a 0", "1 0 a 1"])
    assert qrels.duplicate_warnings == 1
    assert qrels.grades == {"1": {"a": 1}, "2": {"a": 0}}
    with pytest.raises(GradeConflictError, match="^line 3: query 1, doc a already has grade 1, now 0$"):
        parse_qrels(["1 0 a 1", "2 0 a 0", "1 0 a 0"])


def test_qrels_malformed_line():
    with pytest.raises(ParseError, match="line 1"):
        parse_qrels(["1 0 a"])
    with pytest.raises(ParseError, match="grade"):
        parse_qrels(["1 0 a x"])


def test_write_qrels_format_and_sorting():
    qrels = Qrels({"301": {"FBIS3-1": 2}, "9": {"b": 0, "a": 1}})
    assert write_qrels(qrels) == "9 0 a 1\n9 0 b 0\n301 0 FBIS3-1 2\n"


def test_qrels_round_trip_randomized():
    rng = np.random.default_rng(7)
    for _ in range(25):
        grades = {
            str(rng.integers(1, 400)): {
                f"D{d:03d}": int(rng.integers(0, 3)) for d in rng.permutation(30)[:8]
            }
            for _ in range(4)
        }
        qrels = Qrels(grades)
        text = write_qrels(qrels)
        again = parse_qrels(text.splitlines())
        assert again == qrels
        assert write_qrels(again) == text


def test_empty_qrels_round_trip():
    assert write_qrels(Qrels({})) == ""
    assert parse_qrels([]) == Qrels({})


def test_path_helpers(tmp_path):
    run = RunList.from_scores("t", {"1": {"a": 2.0, "b": 1.0}})
    qrels = Qrels({"1": {"a": 1, "b": 0}})
    run_path = tmp_path / "x.run"
    qrels_path = tmp_path / "x.qrels"
    save_run(run, run_path)
    save_qrels(qrels, qrels_path)
    assert load_run(run_path) == run
    loaded = load_qrels(qrels_path)
    assert loaded == qrels
    assert loaded.name == "x.qrels"  # basename only, paths stay out of outputs


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=repr)
def test_the_loaders_name_the_first_line_that_is_not_utf8(tmp_path, newline):
    # the decoder's own message gives an offset in the chunk it read, not a line;
    # 1000 good lines put the bad one past the first chunk
    good_run = [b"1 Q0 d%d %d 1 t" % (i, i) for i in range(1, 1001)]
    good_qrels = [b"1 0 d%d 1" % i for i in range(1, 1001)]
    for load, good, bad in (
        (load_run, good_run, b"1 Q0 caf\xe9 1001 1 t"),
        (load_qrels, good_qrels, b"1 0 caf\xe9 1"),
    ):
        path = tmp_path / "bad"
        path.write_bytes(newline.join([*good, b"", bad, b"\xff"]) + newline)
        with pytest.raises(ParseError, match="^line 1002: line is not valid UTF-8$") as raised:
            load(path)
        assert raised.value.line_no == 1002
        # valid UTF-8 beyond ASCII loads as before
        path.write_bytes(newline.join([*good, bad.replace(b"\xe9", "é".encode())]))
        assert len(load(path).query_ids) == 1
        # a byte-order mark first changes no line's number
        path.write_bytes(b"\xef\xbb\xbf" + newline.join([*good, b"", bad]))
        with pytest.raises(ParseError, match="^line 1002: line is not valid UTF-8$"):
            load(path)


def test_the_loaders_drop_a_byte_order_mark(tmp_path):
    # as an editor saving "UTF-8 with BOM" puts it first
    path = tmp_path / "bom"
    path.write_bytes(b"\xef\xbb\xbf1 Q0 a 1 2 t\n1 Q0 b 2 1 t\n")
    assert load_run(path) == RunList.from_scores("t", {"1": {"a": 2.0, "b": 1.0}})
    path.write_bytes(b"\xef\xbb\xbf1 0 a 1\n1 0 b 0\n")
    assert load_qrels(path) == Qrels({"1": {"a": 1, "b": 0}})


# The parsers and canonical order as they were when parse_run looked a query's docs
# up on every line and _canonical always sorted by doc id and then by score: the
# new ones must agree.
def _reference_canonical(scores):
    by_query = {}
    for query_id, per_doc in scores.items():
        ordered = sorted(per_doc)
        ordered.sort(key=per_doc.__getitem__, reverse=True)
        by_query[query_id] = Ranking(tuple(ordered), tuple(map(per_doc.__getitem__, ordered)))
    return by_query


def _reference_parse_run(lines):
    rows = {}
    run_tag = None
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
        if tag != run_tag:
            if run_tag is not None:
                raise MixedRunTagsError(
                    f"line {line_no}: run tag {tag!r} differs from earlier tag {run_tag!r}"
                )
            run_tag = tag
        per_doc = rows.setdefault(query_id, {})
        if doc_id in per_doc:
            raise DuplicateDocError(
                f"line {line_no}: duplicate entry for query {query_id}, doc {doc_id}"
            )
        per_doc[doc_id] = score
    return RunList(run_tag or "", _reference_canonical(rows))


def _reference_parse_qrels(lines):
    grades = {}
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
    return Qrels(grades, duplicate_warnings=duplicates)


def _outcome(parse, lines):
    """What a parser returns, or the class, text and line of what it raises.

    A result is compared by repr, which tells 0.0 from -0.0 and 1 from 1.0.
    """
    try:
        parsed = parse(lines)
    except TrecFormatError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)
    return repr(parsed), getattr(parsed, "duplicate_warnings", None)


# Blocks of lines per query, so a query's lines can come back after another's
# (A, B, A); few doc ids and numbers, so repeats across blocks and ties are common.
# With ``descending``, each block's lines come in score-descending order, as
# write_run writes them, with tied scores left in the order drawn.
def _blocks(line, numbers, descending=False):
    docs = st.lists(
        st.tuples(st.sampled_from(["d1", "d2", "d3", "d4"]), numbers),
        min_size=1,
        max_size=4,
        unique_by=lambda doc_and_number: doc_and_number[0],
    )
    if descending:
        docs = docs.map(lambda pairs: sorted(pairs, key=lambda pair: -float(pair[1])))
    block = st.tuples(st.sampled_from(["1", "2", "q"]), docs)
    return st.lists(block, min_size=1, max_size=5).map(
        lambda blocks: [line.format(q, d, n) for q, docs in blocks for d, n in docs]
    )


@settings(deadline=None, max_examples=300)
@given(
    st.one_of(
        _HOSTILE.map(str.splitlines),
        _blocks("{} Q0 {} 1 {} t", st.sampled_from(["2", "2.0", "0", "-0", "0.5"])),
        _blocks(
            "{} Q0 {} 1 {} t",
            st.sampled_from(["2", "1", "1.0", "0.5", "0", "-0", "-1"]),
            descending=True,
        ),
    )
)
def test_parse_run_matches_the_reference_parser(lines):
    assert _outcome(parse_run, lines) == _outcome(_reference_parse_run, lines)


@settings(deadline=None, max_examples=300)
@given(
    st.one_of(
        _HOSTILE.map(str.splitlines),
        _blocks("{} 0 {} {}", st.sampled_from(["0", "1", "-0", "2"])),
    )
)
def test_parse_qrels_matches_the_reference_parser(lines):
    assert _outcome(parse_qrels, lines) == _outcome(_reference_parse_qrels, lines)


@settings(deadline=None, max_examples=300)
@given(
    st.dictionaries(
        _TOKENS,
        st.sampled_from(
            [0.0, -0.0, 1, 1.0, 2.5, math.nan, math.inf, -math.inf, 10**400, -(10**400)]
        ),
        min_size=1,
        max_size=10,
    ),
    st.randoms(use_true_random=False),
    st.booleans(),
)
def test_from_scores_matches_the_two_sort_order(per_doc, random, descending):
    items = list(per_doc.items())
    random.shuffle(items)
    if descending:  # the order write_run writes, ties left shuffled
        items.sort(key=lambda item: item[1], reverse=True)
    if not all(map(_is_finite, per_doc.values())):  # NaN, ±inf, or an int no float holds
        with pytest.raises(
            ValueError, match=r"^query '1', doc '.*': score (-?(nan|inf) is not finite"
            r"|is too large for a float)$"
        ):
            RunList.from_scores("t", {"1": dict(items)})
        return
    run = RunList.from_scores("t", {"1": dict(items)})
    # repr tells 0.0 from -0.0 and 1 from 1.0, which == does not
    assert repr(run.by_query) == repr(_reference_canonical({"1": per_doc}))
    assert run.docs("1") == tuple(sorted(per_doc, key=lambda d: (-per_doc[d], d)))
    # every run that can be built is written and parsed back equal
    assert parse_run(write_run(run).splitlines()) == run


def _is_finite(score):
    try:
        return math.isfinite(score)
    except OverflowError:  # an int too large for a float
        return False


# write_run as it was when it made one f-string per entry: the builtin-only writer
# must give the same bytes.
def _reference_write_run(run):
    tag = run.run_tag
    if tag.split() != [tag] and any(run.by_query.values()):
        raise ValueError(f"run tag {tag!r} is empty or contains whitespace")
    out = []
    for query_id in run.query_ids:
        ranking = run.by_query[query_id]
        out.append("".join([
            f"{query_id} Q0 {doc_id} {rank} {score.removesuffix('.0')} {tag}\n"
            for rank, doc_id, score in zip(count(1), ranking.docs, map(str, ranking.scores))
        ]))
    return "".join(out)


# Whole numbers at the edges of write_run's int64 texts: beyond 2**53 (where not
# every int is a float), just below 1e16 (the last positional reprs), and beyond
# int64; 2**52 + 0.5 rounds to a whole float, 2**51 + 0.5 does not.
_WHOLE_EDGES = [
    2.0**53, 2.0**53 + 2, 1e16 - 2, -(1e16 - 2), 2**52 + 0.5, 2**51 + 0.5,
    1e16, -1e16, 1e19, 1e300, -1e300,
]
# Scores as they reach write_run: Python ints and floats, numpy float64 scalars,
# signed zeros, and values whose shortest text has an exponent.
_WRITTEN_SCORE = st.one_of(
    st.integers(-(10**20), 10**20),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.sampled_from(
        [0.0, -0.0, 1e16, -1e16, 5e-324, 1.0, 10.0, 1e22, np.float64(-0.0), *_WHOLE_EDGES]
    ),
)
# Distinct docs per query, some empty; query ids decimal or not (natural or text order).
_WRITTEN_RANKING = st.lists(
    st.tuples(_TOKENS, _WRITTEN_SCORE), max_size=6, unique_by=lambda entry: entry[0]
).map(
    lambda entries: Ranking(*map(tuple, zip(*entries))) if entries else Ranking((), ())
)


# Queries of distinct docs with scores as they reach write_run, ties common, in
# any order; every other doc, in the order drawn, is relevant.
_DRAWN_QUERIES = st.dictionaries(
    st.one_of(st.integers(0, 999).map(str), _TOKENS),
    st.lists(
        st.tuples(_TOKENS, st.one_of(_WRITTEN_SCORE, st.sampled_from([1, 1.0, -0.0, 0.0, 2.5]))),
        min_size=1,
        max_size=8,
        unique_by=lambda entry: entry[0],
    ),
    min_size=1,
    max_size=4,
)


@settings(deadline=None, max_examples=300)
@given(_DRAWN_QUERIES, st.sampled_from(["t", "LC-mlr"]))
def test_a_ranking_in_any_order_is_evaluated_as_it_is_written_and_parsed_back(drawn, tag):
    run = RunList(tag, {
        query_id: Ranking(*map(tuple, zip(*entries))) for query_id, entries in drawn.items()
    })
    assert run == RunList.from_scores(tag, {q: dict(entries) for q, entries in drawn.items()})
    again = parse_run(write_run(run).splitlines())
    assert again == run
    qrels = Qrels({
        query_id: {doc_id: 1 - i % 2 for i, (doc_id, _) in enumerate(entries)}
        for query_id, entries in drawn.items()
    })
    assert evaluate(again, qrels) == evaluate(run, qrels)


@settings(deadline=None, max_examples=300)
@given(
    st.one_of(
        st.dictionaries(st.integers(0, 999).map(str), _WRITTEN_RANKING, max_size=5),
        st.dictionaries(_TOKENS, _WRITTEN_RANKING, max_size=5),
    ),
    st.sampled_from(["t", "LC-mlr", "sys.01"]),
)
def test_write_run_matches_the_reference_writer(by_query, tag):
    run = RunList(tag, by_query)
    assert write_run(run) == _reference_write_run(run)


# Queries long enough for write_run to test for whole scores, every score a whole
# number (with the edges above, and -0.0, which keeps a query on float texts).
_WHOLE_SCORES = st.one_of(
    st.integers(-(2**53), 2**53).map(float), st.sampled_from([*_WHOLE_EDGES, -0.0, 0.0])
)
# A few drawn scores repeated past 100, which is quicker to draw than 100 scores.
_WHOLE_RANKING = st.lists(_WHOLE_SCORES, min_size=1, max_size=12).map(
    lambda drawn: drawn * (100 // len(drawn) + 1)
).map(lambda scores: Ranking(tuple(f"w{i}" for i in range(len(scores))), tuple(scores)))


def _whole_query(scores):
    return Ranking(tuple(f"w{i}" for i in range(len(scores))), tuple(map(float, scores)))


@st.composite
def _small_whole_queries(draw):
    """Queries of 100 or more small whole scores, each a few drawn values
    repeated: ints in 0..L, where L is the run's longest ranking, and the
    edges of write_run's table of whole-number texts, 0, L, L + 1 and -1.
    So in one run some queries fit the table and others do not."""
    drawn = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    sizes = [k * (100 // k + 1) for k in drawn]
    longest = max(sizes)
    value = st.one_of(
        st.integers(0, longest), st.sampled_from([0, longest, longest + 1, -1])
    )
    return {
        str(query): _whole_query(draw(st.lists(value, min_size=k, max_size=k)) * (size // k))
        for query, (k, size) in enumerate(zip(drawn, sizes))
    }


@settings(deadline=None, max_examples=200)
@given(
    st.one_of(
        st.dictionaries(st.integers(0, 99).map(str), _WHOLE_RANKING, min_size=1, max_size=3),
        _small_whole_queries(),
    )
)
# the longest ranking is 101: query 1 fits the table (100..0), query 2 does
# not (102..2), nor does query 3 (99..-1)
@example({
    "1": _whole_query(range(100, -1, -1)),
    "2": _whole_query(range(102, 1, -1)),
    "3": _whole_query(range(99, -2, -1)),
})
def test_write_run_writes_whole_scores_as_the_reference_writer_does(by_query):
    run = RunList("t", by_query)
    assert write_run(run) == _reference_write_run(run)


def test_a_query_of_whole_and_fractional_scores_is_written_as_floats():
    whole = [float(n) for n in range(200, 0, -1)]
    for scores in (
        [*whole[:150], 2.5, *whole[151:]],  # whole first, one fractional later
        [200.5, *whole[1:]],  # fractional first, whole after
        [*whole[:150], -0.0, *whole[151:]],
        [*whole[:150], 1e16, *whole[151:]],
    ):
        docs = tuple(f"m{i}" for i in range(200))
        run = RunList("t", {"1": Ranking(docs, scores)})
        text = write_run(run)
        assert text == _reference_write_run(run)
        assert parse_run(text.splitlines()) == RunList.from_scores(
            "t", {"1": dict(zip(docs, scores))}
        )


def test_save_run_holds_one_query_text_at_a_time(tmp_path):
    run = RunList("t", {
        str(q): Ranking(tuple(f"held-{q}-{i}" for i in range(1000)), np.linspace(1.5, 0.1, 1000))
        for q in range(50)
    })
    size = len(write_run(run))
    path = tmp_path / "held.run"
    tracemalloc.start()
    try:
        save_run(run, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.read_text(encoding="utf-8") == write_run(run)
    assert peak < size / 2


def test_save_qrels_holds_one_query_text_at_a_time(tmp_path):
    qrels = Qrels({
        str(q): {f"held-{q}-{i}": i % 3 for i in range(1000)} for q in range(50)
    })
    size = len(write_qrels(qrels))
    path = tmp_path / "held.qrels"
    tracemalloc.start()
    try:
        save_qrels(qrels, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.read_text(encoding="utf-8") == write_qrels(qrels)
    assert peak < size / 2


def test_new_ids_get_one_code_each_and_a_refused_id_leaves_the_table_as_it_was():
    # new ids beside a known one, each new id once
    known = Ranking(("once-known",), (1.0,)).codes[0]
    ranking = Ranking(("once-a", "once-known", "once-b", "once-c"), (5, 4, 3, 2))
    codes = ranking.codes.tolist()
    assert codes[1] == known and len(set(codes)) == 4
    assert ranking.docs == ("once-a", "once-known", "once-b", "once-c")
    assert [trec._CODES[doc_id] for doc_id in ranking.docs] == codes
    # none, one and two codes decode as a per-code loop over the table does
    for kept in (0, 1, 2):
        part = Ranking._of(ranking.codes[:kept], ranking.scores[:kept])
        assert part.docs == tuple([trec._IDS[code] for code in codes[:kept]])
        assert trec._doc_ids(ranking.codes[:kept]) == part.docs
    size = len(trec._IDS)
    for docs in (("refused-a", 7, "refused-b"), ("refused-c", ["unhashable"])):
        with pytest.raises(TypeError):
            Ranking(docs, (2.0, 1.0, 0.0)[: len(docs)])
        assert len(trec._IDS) == len(trec._CODES) == size
        assert not any(doc_id in trec._CODES for doc_id in docs if isinstance(doc_id, str))
    rank_of, code_of = trec._order_key()
    assert [trec._IDS[code] for code in code_of.tolist()] == sorted(trec._IDS)


def test_a_pickled_ranking_carries_its_doc_ids_not_its_codes():
    # a fresh process has its own doc-id table, in which these ids have other
    # codes or none at all
    ranking = Ranking(("pickled-b", "pickled-a"), (2.0, -0.0))
    data = pickle.dumps(ranking)
    assert b"pickled-b" in data and b"pickled-a" in data
    assert pickle.loads(data) == ranking
    check = (
        "import pickle, sys\n"
        "from rankfuse.trec import Ranking\n"
        "Ranking(('other',), (1.0,))\n"
        "ranking = pickle.loads(sys.stdin.buffer.read())\n"
        "assert ranking == Ranking(('pickled-b', 'pickled-a'), (2.0, -0.0)), ranking\n"
        "print(repr(ranking))\n"
    )
    import rankfuse

    source = os.path.dirname(os.path.dirname(rankfuse.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([source, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", check], input=data, capture_output=True, env=env, check=False
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode().strip() == repr(ranking)


def test_threads_adding_the_same_new_ids_give_each_id_one_code():
    # 8 threads encode the same 40 blocks of 50 ids the table has not met,
    # block by block, each in its own order, and merge the order key, with
    # the interpreter switching threads often
    blocks = [[f"threaded-{b:02d}-{i:02d}" for i in range(50)] for b in range(40)]
    made: dict[int, list[Ranking]] = {}
    start = threading.Barrier(8)

    def build(seed):
        rng = random.Random(seed)
        start.wait(timeout=60)
        made[seed] = [Ranking(rng.sample(block, len(block)), range(50, 0, -1)) for block in blocks]
        trec._order_key()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and len(made) == 8
    assert len(trec._IDS) == len(trec._CODES)
    for rankings in made.values():
        for ranking in rankings:
            assert all(trec._CODES[d] == code for d, code in zip(ranking.docs, ranking.codes))
    ids = [doc_id for block in blocks for doc_id in block]
    assert len({trec._CODES[doc_id] for doc_id in ids}) == len(ids)
    rank_of, code_of = trec._order_key()
    assert [trec._IDS[code] for code in code_of.tolist()] == sorted(trec._IDS)
    assert (rank_of[code_of] == np.arange(len(code_of))).all()


def test_parse_qrels_keeps_its_own_str_for_an_id_the_table_is_adding(monkeypatch):
    # the two states an id is in while _encode adds it: in _CODES as -1, and
    # with its code set before _IDS holds it
    monkeypatch.setitem(trec._CODES, "being-added-a", -1)
    monkeypatch.setitem(trec._CODES, "being-added-b", len(trec._IDS))
    qrels = parse_qrels(["1 0 being-added-a 1\n", "1 0 being-added-b 0\n"])
    assert qrels.grades == {"1": {"being-added-a": 1, "being-added-b": 0}}


def test_qrels_parsed_while_threads_add_their_ids_keep_each_id():
    # 4 threads encode 40 blocks of 50 ids the table has not met while 4
    # threads parse qrels that judge them, with the interpreter switching
    # threads often: parse_qrels reads the table without its lock, so an id
    # being added keeps its parsed str, never another id's
    blocks = [[f"judged-threaded-{b:02d}-{i:02d}" for i in range(50)] for b in range(40)]
    lines = [f"{b} 0 {doc_id} 1\n" for b, block in enumerate(blocks) for doc_id in block]
    parsed: dict[int, list[Qrels]] = {}
    start = threading.Barrier(8)

    def encode(seed):
        rng = random.Random(seed)
        start.wait(timeout=60)
        for block in blocks:
            Ranking(rng.sample(block, len(block)), range(50, 0, -1))

    def parse(seed):
        start.wait(timeout=60)
        parsed[seed] = [parse_qrels(lines) for _ in range(5)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=encode, args=(seed,)) for seed in range(4)]
        threads += [threading.Thread(target=parse, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and len(parsed) == 4
    for qrels in (q for per_thread in parsed.values() for q in per_thread):
        assert [list(qrels.grades_for(str(b))) for b in range(40)] == blocks
    # every id is in the table now, and a parse shares its str
    again = parse_qrels(lines)
    assert all(
        doc_id is trec._IDS[trec._CODES[doc_id]] for per in again.grades.values() for doc_id in per
    )


@pytest.fixture
def cold_table(monkeypatch):
    """An empty doc-id table for one test; the process's own comes back after."""
    monkeypatch.setattr(trec, "_IDS", [])
    monkeypatch.setattr(trec, "_CODES", {})
    monkeypatch.setattr(trec, "_ORDER", (np.empty(0, np.int32), np.empty(0, np.int32)))
    monkeypatch.setattr(trec, "_NEXT_ORDER", None)


# TREC-shaped: queries share docs, query 2 comes in two blocks, query 3 ties
# and query 2 has a line out of order; "both" is new and first used by two
# queries of the file; blank lines between
_TREC_SHAPED = [
    "1 Q0 shared-a 1 9.5 t\n",
    "1 Q0 both 2 8.0 t\n",
    "1 Q0 only-1 3 -0.5 t\n",
    "\n",
    "2 Q0 shared-a 1 7.0 t\n",
    "2 Q0 both 2 7.5 t\n",
    "   \n",
    "3 Q0 shared-a 1 2.0 t\n",
    "3 Q0 only-3 2 2.0 t\n",
    "3 Q0 both 3 2.0 t\n",
    "3 Q0 last 4 -0.0 t\n",
    "3 Q0 zero 5 0.0 t\n",
    "2 Q0 only-2 3 1.0 t\n",
    "4 Q0 only-4 1 3.0 t\n",
    "4 Q0 shared-a 2 1.0 t\n",
]


def _from_lines(lines):
    """RunList.from_scores of the same entries as ``lines``."""
    scores: dict[str, dict[str, float]] = {}
    for line in lines:
        if line.split():
            query_id, _, doc_id, _, score, _ = line.split()
            scores.setdefault(query_id, {})[doc_id] = float(score)
    return RunList.from_scores("t", scores)


@pytest.mark.usefixtures("cold_table")
def test_parse_run_of_a_file_equals_from_scores_on_a_cold_table():
    run = parse_run(_TREC_SHAPED)
    # codes follow the file's queries, each query's blocks together
    assert trec._IDS == ["shared-a", "both", "only-1", "only-2", "only-3", "last", "zero", "only-4"]
    assert {doc_id: code for code, doc_id in enumerate(trec._IDS)} == trec._CODES
    assert run == _from_lines(_TREC_SHAPED)
    assert list(run.by_query) == ["1", "2", "3", "4"]
    assert run.docs("2") == ("both", "shared-a", "only-2")
    assert run.docs("3") == ("both", "only-3", "shared-a", "last", "zero")
    for ranking in run.by_query.values():
        assert not ranking.codes.flags.writeable and not ranking.scores.flags.writeable
    # the queries already in order view one codes and one scores array
    first, fourth = run.by_query["1"], run.by_query["4"]
    assert first.codes.base is fourth.codes.base is not None
    assert first.scores.base is fourth.scores.base is not None
    assert run.by_query["2"].codes.base is not first.codes.base


@given(st.lists(st.lists(st.tuples(st.integers(0, 6), st.sampled_from((0.0, -0.0, 1.0, 2.5))),
                         min_size=1, max_size=6, unique_by=lambda e: e[0]),
                min_size=1, max_size=4),
       st.randoms())
@settings(max_examples=60, deadline=None)
def test_parse_run_equals_from_scores_in_any_line_order(queries, rng):
    lines = [f"{q + 1} Q0 d{doc} 1 {score!r} t\n"
             for q, entries in enumerate(queries) for doc, score in entries]
    rng.shuffle(lines)
    run = parse_run(lines)
    assert run == _from_lines(lines)
    for ranking in run.by_query.values():
        assert not ranking.codes.flags.writeable and not ranking.scores.flags.writeable


def test_encode_refuses_a_new_id_of_a_later_group_before_any_joins_the_table():
    ids, codes = list(trec._IDS), dict(trec._CODES)
    with pytest.raises(ValueError, match="'bad id' is empty or contains whitespace"):
        trec._encode(["encode-group-a"], ["encode-group-a", "bad id"])
    assert trec._IDS == ids and trec._CODES == codes
    # an id new to the table and used in two groups gets one code in both
    got = trec._encode(["encode-group-a", "encode-group-b"], ["encode-group-b"])
    assert got.tolist() == [len(ids), len(ids) + 1, len(ids) + 1]
    assert not got.flags.writeable
    # new ids used again after known ones, in another order
    got = trec._encode(["encode-group-c", "encode-group-a", "encode-group-d"],
                       ["encode-group-d", "encode-group-b", "encode-group-c"])
    c, d = len(ids) + 2, len(ids) + 3
    assert got.tolist() == [c, len(ids), d, d, len(ids) + 1, c]
    assert trec._IDS[len(ids):] == [f"encode-group-{x}" for x in "abcd"]
