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
from itertools import count

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankfuse import trec
from rankfuse.trec import (
    DuplicateDocError,
    GradeConflictError,
    MixedRunTagsError,
    ParseError,
    Qrels,
    Ranking,
    RunEntry,
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


def test_parse_run_single_line_fields():
    run = parse_run(["301 Q0 FBIS3-1 1 12.5 runA"])
    assert run.run_tag == "runA"
    (entry,) = run.entries("301")
    assert (entry.query_id, entry.doc_id, entry.rank) == ("301", "FBIS3-1", 1)
    assert entry.raw_score == 12.5


def test_parse_run_resorts_by_score_descending():
    # file order and rank column disagree with the scores; score wins
    run = parse_run(
        [
            "301 Q0 docB 1 5.0 runA",
            "301 Q0 docA 2 9.0 runA",
        ]
    )
    assert run.docs("301") == ("docA", "docB")
    assert [e.rank for e in run.entries("301")] == [1, 2]


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
    assert [e.rank for e in run.entries("7")] == [1, 2, 3]


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
    # a read-only float64 array is kept as it is, not copied
    assert Ranking(docs, built[0].scores).scores is built[0].scores
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
    "read-only": lambda values: Ranking(_DOCS, _read_only(values)),  # kept, not copied
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


@pytest.mark.parametrize("bad", ["1.5", b"1.5", "abc"], ids=repr)
@pytest.mark.parametrize("maker", sorted(_STR_MAKERS))
def test_every_way_a_ranking_is_made_refuses_a_str_or_bytes_score(maker, bad):
    query = "query 'q2', " if maker == "from_scores" else ""
    message = rf"^{query}doc 'b': score {re.escape(repr(bad))} is not a number$"
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
    # numbers of every other kind still convert
    assert Ranking(("a", "b", "c"), (True, 2, np.float32(0.5))).scores.tolist() == [1.0, 2.0, 0.5]


def test_entries_rank_one_to_length():
    run = RunList.from_scores("t", {"1": {"a": 1.0, "b": 3.0, "c": 3.0}, "2": {"z": 0.0}})
    assert run.entries("1") == (
        RunEntry("1", "b", 1, 3.0, "t"),
        RunEntry("1", "c", 2, 3.0, "t"),
        RunEntry("1", "a", 3, 1.0, "t"),
    )
    for query_id in run.query_ids:
        ranks = [e.rank for e in run.entries(query_id)]
        assert ranks == list(range(1, len(run.by_query[query_id]) + 1))
    assert run.entries("missing") == ()
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


# Scores as they reach write_run: Python ints and floats, numpy float64 scalars,
# signed zeros, and values whose shortest text has an exponent.
_WRITTEN_SCORE = st.one_of(
    st.integers(-(10**20), 10**20),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.sampled_from([0.0, -0.0, 1e16, -1e16, 5e-324, 1.0, 10.0, 1e22, np.float64(-0.0)]),
)
# Docs per query, some empty; query ids decimal or not (natural or text order).
_WRITTEN_RANKING = st.lists(st.tuples(_TOKENS, _WRITTEN_SCORE), max_size=6).map(
    lambda entries: Ranking(*map(tuple, zip(*entries))) if entries else Ranking((), ())
)


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


def test_new_ids_get_one_code_each_and_a_refused_id_leaves_the_table_as_it_was():
    # a new id twice in one Ranking, beside known and other new ids
    known = Ranking(("twice-known",), (1.0,)).codes[0]
    ranking = Ranking(
        ("twice-a", "twice-known", "twice-b", "twice-a", "twice-c"), (5, 4, 3, 2, 1)
    )
    codes = ranking.codes.tolist()
    assert codes[0] == codes[3] and codes[1] == known
    assert len(set(codes)) == 4
    assert ranking.docs == ("twice-a", "twice-known", "twice-b", "twice-a", "twice-c")
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
