"""Run/qrels parsing, canonicalization, and serialization round-trips."""

from __future__ import annotations

import math
from itertools import count

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_parse_run_non_numeric_and_non_finite_score():
    with pytest.raises(ParseError, match="score"):
        parse_run(["1 Q0 a 1 abc t"])
    with pytest.raises(ParseError, match="finite"):
        parse_run(["1 Q0 a 1 inf t"])


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
    run = RunList("t", {
        "1": Ranking(("a", "b"), (2.0, 1.0)),
        "q2": Ranking(("a", "x", "c"), (3.0, bad, 1.0)),
    })
    with pytest.raises(ValueError, match=r"query 'q2', doc 'x': score -?(inf|nan) is not finite"):
        write_run(run)
    # the file is left as it was, not opened and truncated before the refusal
    path = tmp_path / "kept.run"
    path.write_bytes(b"1 Q0 a 1 2 old\n")
    with pytest.raises(ValueError, match="is not finite"):
        save_run(run, path)
    with pytest.raises(ValueError, match="empty or contains whitespace"):
        save_run(RunList.from_scores("a b", {"1": {"d": 1.0}}), path)
    assert path.read_bytes() == b"1 Q0 a 1 2 old\n"


def test_an_int_score_too_large_for_a_float_is_refused_by_name(tmp_path):
    with pytest.raises(ValueError, match=r"query '1', doc 'a': score is too large for a float"):
        RunList.from_scores("t", {"1": {"b": 1, "a": 10**400}})
    run = RunList("t", {
        "1": Ranking(("a", "b"), (2.0, 1.0)),
        "q2": Ranking(("x", "c"), (10**400, 1)),
    })
    with pytest.raises(ValueError, match=r"query 'q2', doc 'x': score is too large for a float"):
        write_run(run)
    path = tmp_path / "kept.run"
    path.write_bytes(b"1 Q0 a 1 2 old\n")
    with pytest.raises(ValueError, match="too large for a float"):
        save_run(run, path)
    assert path.read_bytes() == b"1 Q0 a 1 2 old\n"


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
    assert len(Ranking(("a", "b"), (2.0, 1.0))) == 2


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
_NUMBER = st.sampled_from(["1", "0", "-2", "3.5", "nan", "inf", "1e999", "x", "\u00b2", "1_0"])
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
        st.sampled_from([0.0, -0.0, 1, 1.0, 2.5, math.nan, math.inf, -math.inf]),
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
    if any(map(math.isnan, per_doc.values())):  # NaN has no place in the order
        with pytest.raises(ValueError, match=r"query '1', doc '.*': score is NaN"):
            RunList.from_scores("t", {"1": dict(items)})
        return
    run = RunList.from_scores("t", {"1": dict(items)})
    # repr tells 0.0 from -0.0 and 1 from 1.0, which == does not
    assert repr(run.by_query) == repr(_reference_canonical({"1": per_doc}))
    if all(map(math.isfinite, per_doc.values())):
        assert run.docs("1") == tuple(sorted(per_doc, key=lambda d: (-per_doc[d], d)))


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
