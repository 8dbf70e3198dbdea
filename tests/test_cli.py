"""End-to-end CLI behavior: every subcommand, file and stdout output,
error reporting, and byte determinism."""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from rankfuse import cli, harness, trec
from rankfuse.cli import console, main
from rankfuse.fusion import _by_reciprocal, normalize_reciprocal
from rankfuse.harness import cross_validated_fusion, generate_synthetic
from rankfuse.pooling import build_pool, make_partial_qrels
from rankfuse.regression import assemble_matrix, solve_ols, weights_to_csv
from rankfuse.trec import Ranking, RunList, load_qrels, load_run, save_qrels, save_run


@pytest.fixture()
def dataset(tmp_path):
    """Small synthetic corpus written through the CLI itself."""
    out = tmp_path / "data"
    code = main(
        [
            "synth", "--seed", "7", "--num-queries", "8", "--num-systems", "4",
            "--docs-per-query", "40", "--relevant-per-query", "10",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    runs = sorted(str(p) for p in out.glob("*.run"))
    assert len(runs) == 4
    return {"dir": out, "runs": runs, "qrels": str(out / "full.qrels")}


def test_synth_writes_expected_files(dataset):
    names = sorted(p.name for p in dataset["dir"].iterdir())
    assert names == ["full.qrels", "sys01.run", "sys02.run", "sys03.run", "sys04.run"]
    qrels = load_qrels(dataset["qrels"])
    assert qrels.total_relevant() == 8 * 10
    run = load_run(dataset["runs"][0])
    assert run.run_tag == "sys01"
    assert len(run.query_ids) == 8


def test_synth_writes_every_doc(tmp_path):
    out = tmp_path / "deep"
    assert main(
        [
            "synth", "--seed", "7", "--num-queries", "2", "--num-systems", "2",
            "--docs-per-query", "1500", "--relevant-per-query", "10",
            "--out-dir", str(out),
        ]
    ) == 0
    for name in ("sys01.run", "sys02.run"):
        run = load_run(out / name)
        assert [len(run.docs(q)) for q in run.query_ids] == [1500, 1500]


def test_synth_deterministic_bytes(tmp_path, dataset):
    again = tmp_path / "again"
    assert main(
        [
            "synth", "--seed", "7", "--num-queries", "8", "--num-systems", "4",
            "--docs-per-query", "40", "--relevant-per-query", "10",
            "--out-dir", str(again),
        ]
    ) == 0
    for name in ("sys01.run", "sys03.run", "full.qrels"):
        assert (again / name).read_bytes() == (dataset["dir"] / name).read_bytes()


def test_sweep_stdout(dataset, capsys):
    assert main(
        ["sweep", "--runs", *dataset["runs"], "--qrels", dataset["qrels"],
         "--depths", "1:5"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "depth,relevant_count,percent"
    assert len(lines) == 6


def test_sweep_comma_depths(dataset, capsys):
    assert main(
        ["sweep", "--runs", *dataset["runs"], "--qrels", dataset["qrels"],
         "--depths", "2,4"]
    ) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 3


def test_pool_fixed_depth_file_output(dataset, tmp_path):
    out = tmp_path / "partial.qrels"
    assert main(
        ["pool", "--runs", *dataset["runs"], "--qrels", dataset["qrels"],
         "--depth", "3", "--out", str(out)]
    ) == 0
    partial = load_qrels(out)
    full = load_qrels(dataset["qrels"])
    assert partial.total_relevant() <= full.total_relevant()
    for query_id in partial.query_ids:
        assert partial.relevant_count(query_id) <= full.relevant_count(query_id)


def test_pool_target_fraction_reports_choice(dataset, tmp_path, capsys):
    out = tmp_path / "p50.qrels"
    assert main(
        ["pool", "--runs", *dataset["runs"], "--qrels", dataset["qrels"],
         "--target-fraction", "0.5", "--out", str(out)]
    ) == 0
    err = capsys.readouterr().err
    assert "picked depth" in err
    assert out.exists()


def test_train_then_fuse_lc(dataset, tmp_path, capsys):
    weights = tmp_path / "w.csv"
    assert main(
        ["train", "--runs", *dataset["runs"], "--qrels", dataset["qrels"],
         "--out-weights", str(weights)]
    ) == 0
    header = weights.read_text().splitlines()[0]
    assert header == "system,weight"

    fused = tmp_path / "lc.run"
    assert main(
        ["fuse", "--runs", *dataset["runs"], "--method", "lc",
         "--weights", str(weights), "--out", str(fused)]
    ) == 0
    run = load_run(fused)
    assert run.run_tag == "LC-mlr"
    assert run.query_ids == load_qrels(dataset["qrels"]).query_ids


def test_fuse_reads_weights_saved_with_a_byte_order_mark(dataset, tmp_path):
    # a spreadsheet's "CSV UTF-8" puts one before the header
    weights = tmp_path / "w.csv"
    assert main(
        ["train", "--runs", *dataset["runs"], "--qrels", dataset["qrels"],
         "--out-weights", str(weights)]
    ) == 0
    marked = tmp_path / "bom.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + weights.read_bytes())
    outputs = []
    for path in (weights, marked):
        fused = tmp_path / f"{path.stem}.run"
        assert main(
            ["fuse", "--runs", *dataset["runs"], "--method", "lc",
             "--weights", str(path), "--out", str(fused)]
        ) == 0
        outputs.append(fused.read_bytes())
    assert outputs[0] == outputs[1]


def test_train_with_query_subset(dataset, capsys):
    assert main(
        ["train", "--runs", *dataset["runs"], "--qrels", dataset["qrels"],
         "--queries", "301,302,303"]
    ) == 0
    assert "__intercept__" in capsys.readouterr().out


def test_train_reports_degenerate_or_ridge_regularized_weights(dataset, tmp_path, capsys):
    text = Path(dataset["runs"][0]).read_text()
    twin = tmp_path / "twin.run"
    twin.write_text(text.replace(" sys01\n", " twin\n"))
    unjudged = tmp_path / "unjudged.qrels"
    unjudged.write_text(Path(dataset["qrels"]).read_text().replace(" 1\n", " 0\n"))
    cases = [
        (dataset["runs"], dataset["qrels"], ""),
        (dataset["runs"], str(unjudged), "warning: train (4 systems): no training label is "
         "relevant; the weights are all zero and fuse in doc-id order\n"),
        ([dataset["runs"][0], str(twin)], dataset["qrels"], "warning: train (2 systems): "
         "the design is rank-deficient; solved with a ridge of 1e-08\n"),
    ]
    for runs, qrels, warning in cases:
        scored = [normalize_reciprocal(load_run(path)) for path in runs]
        judged = load_qrels(qrels)
        expected = weights_to_csv(solve_ols(assemble_matrix(scored, judged, judged.query_ids)))
        assert main(["train", "--runs", *runs, "--qrels", qrels]) == 0
        assert capsys.readouterr() == (expected, warning)
        weights = tmp_path / "w.csv"
        assert main(["train", "--runs", *runs, "--qrels", qrels,
                     "--out-weights", str(weights)]) == 0
        assert weights.read_text() == expected
        assert capsys.readouterr() == ("", warning)


def test_fuse_unweighted_methods(dataset, tmp_path, capsys):
    for method, tag in (("combsum", "combsum"), ("combmnz", "combmnz"), ("borda", "borda")):
        out = tmp_path / f"{method}.run"
        assert main(
            ["fuse", "--runs", *dataset["runs"], "--method", method,
             "--out", str(out)]
        ) == 0
        assert main(
            ["fuse", "--runs", *dataset["runs"], "--method", method, "--constant", "-1"]
        ) == 1
        assert capsys.readouterr() == ("", "error: reciprocal constant must be > -1, got -1.0\n")
        assert load_run(out).run_tag == tag


@pytest.mark.parametrize("constant", ["nan", "inf"])
@pytest.mark.parametrize("command", ["fuse", "xval", "compare"])
def test_a_constant_that_is_not_finite_is_refused(dataset, capsys, command, constant):
    options = ["--method", "combsum"] if command == "fuse" else ["--qrels", dataset["qrels"]]
    assert main([command, "--runs", *dataset["runs"], *options, "--constant", constant]) == 1
    assert capsys.readouterr() == (
        "", f"error: reciprocal constant must be finite, got {constant}\n"
    )


@pytest.mark.parametrize("command", ["fuse", "xval", "compare"])
def test_a_constant_too_large_to_order_the_ranks_is_refused(dataset, capsys, command):
    # 1/(1e17 + rank) is one float for every rank, so each doc would tie
    options = ["--method", "combsum"] if command == "fuse" else ["--qrels", dataset["qrels"]]
    assert main([command, "--runs", *dataset["runs"], *options, "--constant", "1e17"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: reciprocal constant 1e+17 is too large: ")
    assert err.count("\n") == 1


def _disjoint_corpus(tmp_path):
    """Two runs ranking 3 docs per query and sharing none: each query has 6 candidates."""
    paths = []
    for tag, first in (("a", 0), ("b", 3)):
        path = tmp_path / f"{tag}.run"
        path.write_text("".join(
            f"{q} Q0 {q}-d{first + rank} {rank} {4 - rank} {tag}\n"
            for q in ("1", "2") for rank in (1, 2, 3)
        ))
        paths.append(str(path))
    qrels = tmp_path / "full.qrels"
    qrels.write_text("1 0 1-d1 1\n1 0 1-d5 1\n2 0 2-d2 1\n2 0 2-d4 1\n")
    return paths, str(qrels)


# The scores of all ranks then agree to about 15 digits, so LC's design is rank-deficient.
@pytest.mark.filterwarnings("ignore:fold [AB] .*rank-deficient:UserWarning")
@pytest.mark.parametrize("command", ["fuse", "xval", "compare"])
@pytest.mark.parametrize("constant, accepted", [("7e15", True), ("8e15", False)])
def test_commands_agree_on_a_constant_near_the_edge(tmp_path, capsys, command, constant, accepted):
    # Every command bounds the constant by the deepest rank it scores (3
    # here), not by a query's candidate count (6): 7e15's scores strictly
    # decrease over ranks 1..3 but not 1..4, and 8e15's not over 1..3.
    assert [_strictly_decreasing(float(constant), n) for n in (3, 4)] == [accepted, False]
    runs, qrels = _disjoint_corpus(tmp_path)
    options = ["--method", "combsum"] if command == "fuse" else ["--qrels", qrels]
    code = main([command, "--runs", *runs, *options, "--constant", constant])
    out, err = capsys.readouterr()
    if accepted:
        assert (code, bool(out)) == (0, True)
    else:
        assert (code, out) == (1, "")
        assert err.startswith(f"error: reciprocal constant {float(constant)} is too large: ")


def _strictly_decreasing(constant, longest):
    try:
        _by_reciprocal(constant, longest)
    except ValueError:
        return False
    return True


def test_synth_refuses_a_nan_quality(tmp_path, capsys):
    out = tmp_path / "nan"
    assert main(
        ["synth", "--seed", "1", "--num-systems", "2", "--qualities", "nan,0.5",
         "--out-dir", str(out)]
    ) == 1
    assert capsys.readouterr() == ("", "error: system_quality_profile[0] is NaN\n")
    assert not out.exists()


def test_fuse_lc_requires_weights(dataset, capsys):
    assert main(["fuse", "--runs", *dataset["runs"], "--method", "lc"]) == 1
    assert "error: --weights is required" in capsys.readouterr().err


def test_fuse_rejects_mismatched_weights(dataset, tmp_path, capsys):
    weights = tmp_path / "w.csv"
    weights.write_text(
        "system,weight\nnope,1.0\n__intercept__,0.0\n__rss__,0.0\n"
    )
    assert main(
        ["fuse", "--runs", *dataset["runs"], "--method", "lc",
         "--weights", str(weights)]
    ) == 1
    assert "do not match" in capsys.readouterr().err


def test_eval_csv(dataset, tmp_path):
    report = tmp_path / "report.csv"
    assert main(
        ["eval", "--run", dataset["runs"][0], "--qrels", dataset["qrels"],
         "--csv", str(report)]
    ) == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "query_id,map,rp,p10,p20"
    assert lines[-1].startswith("__mean__,")
    assert len(lines) == 1 + 8 + 1


def test_xval_report_and_run(dataset, tmp_path, capsys):
    fused = tmp_path / "xv.run"
    assert main(
        ["xval", "--runs", *dataset["runs"], "--qrels", dataset["qrels"],
         "--out-run", str(fused)]
    ) == 0
    out = capsys.readouterr().out
    assert out.startswith("query_id,map,rp,p10,p20")
    assert load_run(fused).run_tag == "LC-mlr"


def test_xval_with_partial_training(dataset, tmp_path, capsys):
    partial = tmp_path / "partial.qrels"
    assert main(
        ["pool", "--runs", *dataset["runs"], "--qrels", dataset["qrels"],
         "--depth", "3", "--out", str(partial)]
    ) == 0
    assert main(
        ["xval", "--runs", *dataset["runs"], "--qrels", dataset["qrels"],
         "--training-qrels", str(partial)]
    ) == 0
    assert "__mean__" in capsys.readouterr().out


def test_curve_and_compare(dataset, capsys):
    assert main(
        ["curve", "--runs", *dataset["runs"], "--qrels", dataset["qrels"]]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "method,num_systems,map,rp,p10,p20"
    assert len(lines) == 1 + 3  # prefixes 2, 3, 4

    assert main(
        ["compare", "--runs", *dataset["runs"], "--qrels", dataset["qrels"],
         "--methods", "LC-mlr,combsum,best-component"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    methods = {line.split(",")[0] for line in lines[1:]}
    assert methods == {"LC-mlr", "combsum", "best-component"}

    # Borda's points ignore the constant, but compare checks it as fuse does
    assert main(
        ["compare", "--runs", *dataset["runs"], "--qrels", dataset["qrels"],
         "--methods", "borda", "--constant", "-1"]
    ) == 1
    assert capsys.readouterr() == ("", "error: reciprocal constant must be > -1, got -1.0\n")


def test_group_eval_modes(dataset, capsys):
    assert main(
        ["group-eval", "--run", dataset["runs"][0], "--qrels", dataset["qrels"]]
    ) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "group,num_queries,mean_relevant,map,rp,p10,p20"
    assert out.splitlines()[1].startswith("Low,")

    # every synthetic query has R(q)=10, so the R>10 group is empty
    with pytest.warns(UserWarning, match="empty"):
        assert main(
            ["group-eval", "--run", dataset["runs"][0], "--qrels", dataset["qrels"],
             "--mode", "threshold:10"]
        ) == 0
    assert "R<=10," in capsys.readouterr().out


def test_group_eval_bad_mode(dataset, capsys):
    assert main(
        ["group-eval", "--run", dataset["runs"][0], "--qrels", dataset["qrels"],
         "--mode", "quartiles"]
    ) == 1
    assert "error: bad mode" in capsys.readouterr().err


@pytest.mark.parametrize("depths", ["1:x", "x:5", "1,x", "1:2:3"])
def test_sweep_names_the_option_of_depths_it_cannot_read(dataset, capsys, depths):
    assert main(
        ["sweep", "--runs", *dataset["runs"], "--qrels", dataset["qrels"], "--depths", depths]
    ) == 1
    assert capsys.readouterr() == (
        "", f"error: --depths {depths!r} is not a range LO:HI or a comma list of integers\n"
    )


@pytest.mark.parametrize("mode", ["threshold:x", "threshold:", "threshold", "quartiles"])
def test_group_eval_names_the_option_of_a_mode_it_cannot_read(dataset, capsys, mode):
    assert main(
        ["group-eval", "--run", dataset["runs"][0], "--qrels", dataset["qrels"], "--mode", mode]
    ) == 1
    assert capsys.readouterr() == ("", (
        f"error: bad mode {mode!r} for --mode; expected 'tertiles' or 'threshold:<t>', "
        "t an integer\n"
    ))


def test_synth_names_the_option_of_qualities_it_cannot_read(tmp_path, capsys):
    out = tmp_path / "bad"
    assert main(
        ["synth", "--seed", "1", "--num-systems", "2", "--qualities", "0.5,x",
         "--out-dir", str(out)]
    ) == 1
    assert capsys.readouterr() == (
        "", "error: --qualities '0.5,x' is not a comma list of numbers\n"
    )
    assert not out.exists()


def test_fuse_writes_the_same_bytes_to_a_file_and_to_stdout(dataset, tmp_path, capsys):
    for method in ("combsum", "borda"):
        out = tmp_path / f"{method}.run"
        fuse = ["fuse", "--runs", *dataset["runs"], "--method", method, "--depth", "7"]
        assert main([*fuse, "--out", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        assert main(fuse) == 0
        assert capsys.readouterr() == (out.read_bytes().decode("utf-8"), "")


def test_sensitivity_table(dataset, tmp_path, capsys):
    partial = tmp_path / "d2.qrels"
    assert main(
        ["pool", "--runs", *dataset["runs"], "--qrels", dataset["qrels"],
         "--depth", "2", "--out", str(partial)]
    ) == 0
    assert main(
        ["sensitivity", "--run", dataset["runs"][0], "--qrels", dataset["qrels"],
         "--partials", str(partial)]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("qrels,map,map_variance,")
    assert lines[1].startswith("full,")
    assert lines[2].startswith("d2.qrels,")


def test_sensitivity_refuses_two_partials_of_one_file_name(dataset, tmp_path, capsys):
    partials = []
    for depth, folder in (("2", "a"), ("5", "b")):
        (tmp_path / folder).mkdir()
        partials.append(str(tmp_path / folder / "p.qrels"))
        assert main(
            ["pool", "--runs", *dataset["runs"], "--qrels", dataset["qrels"],
             "--depth", depth, "--out", partials[-1]]
        ) == 0
    assert main(
        ["sensitivity", "--run", dataset["runs"][0], "--qrels", dataset["qrels"],
         "--partials", *partials]
    ) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: partial qrels name 'p.qrels' repeats; each partial needs its own\n"
    )


def test_sensitivity_refuses_a_partial_file_name_holding_a_comma(dataset, tmp_path, capsys):
    # the CSV writes names as they are: "a,b.qrels" would add a cell to its row
    partial = tmp_path / "a,b.qrels"
    assert main(
        ["pool", "--runs", *dataset["runs"], "--qrels", dataset["qrels"],
         "--depth", "2", "--out", str(partial)]
    ) == 0
    assert main(
        ["sensitivity", "--run", dataset["runs"][0], "--qrels", dataset["qrels"],
         "--partials", str(partial)]
    ) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: partial qrels name 'a,b.qrels' holds a comma, quote or line break, "
        "which the sensitivity CSV cannot hold; rename it\n"
    )


def test_cli_reports_missing_file(capsys):
    assert main(["eval", "--run", "/nonexistent.run", "--qrels", "/nope.qrels"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_reports_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.run"
    bad.write_text("only three fields\n")
    assert main(["eval", "--run", str(bad), "--qrels", str(bad)]) == 1
    assert "line 1" in capsys.readouterr().err


def test_cli_names_the_line_that_is_not_utf8(dataset, tmp_path, capsys):
    bad = tmp_path / "bad.run"
    bad.write_bytes(b"1 Q0 a 1 2 t\n1 Q0 b\xff 2 1 t\n")
    assert main(["eval", "--run", str(bad), "--qrels", dataset["qrels"]]) == 1
    assert capsys.readouterr() == ("", "error: line 2: line is not valid UTF-8\n")


def test_compare_refuses_an_empty_qrels(dataset, tmp_path, capsys):
    empty = tmp_path / "empty.qrels"
    empty.write_text("")
    compare = ["compare", "--runs", *dataset["runs"], "--qrels", str(empty), "--methods", "combsum"]
    assert main(compare) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: query set must be non-empty\n"


def test_cli_rejects_a_depth_below_one(dataset, capsys):
    runs_and_qrels = ["--runs", *dataset["runs"], "--qrels", dataset["qrels"]]
    for argv in (
        ["compare", *runs_and_qrels, "--depth", "-2"],
        ["xval", *runs_and_qrels, "--depth", "0"],
        ["fuse", "--runs", *dataset["runs"], "--method", "combsum", "--depth", "-2"],
    ):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: output depth must be >= 1")


def test_fuse_refuses_a_tag_that_cannot_be_read_back(dataset, capsys):
    fuse = ["fuse", "--runs", *dataset["runs"], "--method", "borda"]
    assert main([*fuse, "--tag", "a b"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: run tag 'a b' is empty or contains whitespace\n"
    assert main([*fuse, "--tag", "a_b"]) == 0
    assert capsys.readouterr().out.splitlines()[0].endswith(" a_b")


def test_cli_rejects_duplicate_run_tags(dataset, tmp_path, capsys):
    copy = tmp_path / "copy.run"
    copy.write_text(Path(dataset["runs"][0]).read_text())
    assert main(
        ["sweep", "--runs", dataset["runs"][0], str(copy),
         "--qrels", dataset["qrels"]]
    ) == 1
    assert "duplicate run tags" in capsys.readouterr().err


def _overlapping_run_files(tmp_path):
    """Three run files over one doc universe: a partial run, a full one, a reversed one."""
    lines = {
        "a": "1 Q0 d1 1 3 a\n1 Q0 d2 2 2 a\n2 Q0 d9 1 1 a\n",
        "b": "1 Q0 d3 1 5 b\n1 Q0 d2 2 4 b\n1 Q0 d1 3 4 b\n2 Q0 d9 1 0 b\n",
        "c": "1 Q0 d1 1 -1 c\n1 Q0 d3 2 2.5 c\n2 Q0 d8 1 1 c\n2 Q0 d9 2 1.0 c\n",
    }
    paths = []
    for tag, text in lines.items():
        path = tmp_path / f"{tag}.run"
        path.write_text(text)
        paths.append(str(path))
    return paths


def test_loaded_runs_equal_per_file_loads_and_share_doc_ids(tmp_path):
    paths = _overlapping_run_files(tmp_path)
    runs = cli._load_runs(paths)
    alone = [normalize_reciprocal(load_run(path)) for path in paths]
    assert runs == alone
    assert repr(runs) == repr(alone)
    a, b, c = (run.by_query for run in runs)
    assert [a["1"].docs, b["1"].docs, c["1"].docs] == [
        ("d1", "d2"), ("d3", "d1", "d2"), ("d3", "d1")
    ]
    assert a["1"].docs[0] is b["1"].docs[1] is c["1"].docs[1]  # d1
    assert a["1"].docs[1] is b["1"].docs[2]  # d2
    assert b["1"].docs[0] is c["1"].docs[0]  # d3
    assert a["2"].docs[0] is b["2"].docs[0] is c["2"].docs[1]  # d9
    _assert_doc_ids_are_the_tables(runs + alone)


def _assert_doc_ids_are_the_tables(runs, qrels=()):
    """Every doc id a Ranking of ``runs`` returns, and every doc id of
    ``qrels`` that one of those Rankings holds, is the doc-id table's str."""
    ranked = set()
    for run in runs:
        for ranking in run.by_query.values():
            assert all(doc_id is trec._IDS[trec._CODES[doc_id]] for doc_id in ranking.docs)
            ranked.update(ranking.docs)
    for judged in qrels:
        for per_query in judged.grades.values():
            shared = [doc_id for doc_id in per_query if doc_id in ranked]
            assert all(doc_id is trec._IDS[trec._CODES[doc_id]] for doc_id in shared)


def _retained_bytes(load):
    """Bytes still allocated, under tracemalloc, once ``load()`` has returned."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = load()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before, loaded
    finally:
        tracemalloc.stop()


def test_runs_that_rank_the_same_docs_hold_each_doc_id_once(tmp_path):
    runs, _ = generate_synthetic(3, 5, 10, 200, 20)  # every run ranks every doc
    paths = []
    for run in runs:
        paths.append(str(tmp_path / f"{run.run_tag}.run"))
        save_run(run, paths[-1])
    alone, per_file = _retained_bytes(
        lambda: [normalize_reciprocal(load_run(path)) for path in paths]
    )
    shared, loaded = _retained_bytes(lambda: cli._load_runs(paths))
    assert loaded == per_file == [normalize_reciprocal(run) for run in runs]
    assert all(isinstance(run, RunList) for run in loaded)
    # the runs hold codes, not strs: the doc-id table holds each id once
    _assert_doc_ids_are_the_tables(loaded + per_file)
    assert shared <= 1.01 * alone


def test_loaded_runs_keep_under_8_bytes_per_entry(tmp_path):
    # 20 runs of 10 queries x 200 docs: each entry holds an int32 code (4 B)
    # and a share of its query's objects and of its run's one reciprocal
    # lookup, which every ranking's scores are views of; the doc ids are the
    # doc-id table's, which generate_synthetic filled
    runs, _ = generate_synthetic(5, 10, 20, 200, 20)
    paths = []
    for run in runs:
        paths.append(str(tmp_path / f"{run.run_tag}.run"))
        save_run(run, paths[-1])
    retained, loaded = _retained_bytes(lambda: cli._load_runs(paths))
    assert loaded == [normalize_reciprocal(run) for run in runs]
    assert retained / sum(run.num_entries() for run in loaded) < 8


def test_each_loaded_runs_scores_are_views_of_one_lookup_no_longer_than_its_longest_ranking(
    tmp_path,
):
    # the runs' rankings have 1, 2 and 3 entries
    for run in cli._load_runs(_overlapping_run_files(tmp_path)):
        rankings = list(run.by_query.values())
        assert len(rankings) == 2
        longest = max(map(len, rankings))
        lookup = rankings[0].scores.base
        for ranking in rankings:
            assert np.shares_memory(ranking.scores, lookup)
        # one slot for rank 0 and one score per rank 1..longest
        assert lookup.size <= longest + 1


def test_one_xval_command_peaks_under_2_1_mib(tmp_path):
    # each loaded run holds its codes and one lookup, about 6 B an entry;
    # its raw float64 scores would add 0.9 MiB to fold training's peak
    runs, full = generate_synthetic(3, 6, 20, 1000, 50)
    paths = []
    for run in runs:
        paths.append(str(tmp_path / f"{run.run_tag}.run"))
        save_run(run, paths[-1])
    save_qrels(full, tmp_path / "full.qrels")
    del runs, full
    argv = ["xval", "--runs", *paths, "--qrels", str(tmp_path / "full.qrels"),
            "--csv", str(tmp_path / "xval.csv")]
    assert main(argv) == 0  # the doc ids join the table, the imports settle
    gc.collect()
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2.1 * 2**20


def _synthetic_files(tmp_path, *args):
    """generate_synthetic(*args) saved: the run files' paths and the qrels file's."""
    runs, full = generate_synthetic(*args)
    paths = []
    for run in runs:
        paths.append(str(tmp_path / f"{run.run_tag}.run"))
        save_run(run, paths[-1])
    save_qrels(full, tmp_path / "full.qrels")
    return paths, str(tmp_path / "full.qrels")


def test_loaded_runs_of_one_depth_share_one_lookup_with_cross_validated_fusion(
    tmp_path, monkeypatch
):
    paths, qrels = _synthetic_files(tmp_path, 4, 4, 3, 37, 5)
    runs = cli._load_runs(paths)
    lookup = runs[0].by_query["301"].scores.base
    for run in runs:
        for ranking in run.by_query.values():
            assert np.shares_memory(ranking.scores, lookup)
    # the harness's lookup at the default constant over the cube's 37 ranks
    made = []

    def recorded(constant, longest):
        made.append(_by_reciprocal(constant, longest))
        return made[-1]

    monkeypatch.setattr(harness, "_by_reciprocal", recorded)
    full = cli._load_qrels(qrels)
    cross_validated_fusion(runs, full, full)
    assert len(made) == 1 and made[0] is lookup
    assert not lookup.flags.writeable


def test_a_shared_lookup_is_freed_with_the_last_run_that_views_it(tmp_path):
    paths, _ = _synthetic_files(tmp_path, 4, 4, 2, 41, 5)
    runs = cli._load_runs(paths)
    lookup = weakref.ref(runs[0].by_query["301"].scores.base)
    assert np.shares_memory(runs[1].by_query["301"].scores, lookup())
    del runs[0]
    gc.collect()
    assert lookup() is not None  # the other run still views it
    del runs
    gc.collect()
    assert lookup() is None


def test_one_xval_command_peaks_under_1_6_mib(tmp_path):
    # the runs of 1000 docs share one reciprocal lookup, and fold training's
    # rank cube is uint16; 20 lookups and an int32 cube peaked at 1.83 MiB
    paths, qrels = _synthetic_files(tmp_path, 3, 6, 20, 1000, 50)
    argv = ["xval", "--runs", *paths, "--qrels", qrels, "--csv", str(tmp_path / "xval.csv")]
    assert main(argv) == 0  # the doc ids join the table, the imports settle
    gc.collect()
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1.6 * 2**20


def _rescored(run):
    """``run`` with each score s as 3 * s + 1000.5, which keeps every
    order and makes or breaks no tie, so only the raw scores differ."""
    return RunList(
        run.run_tag,
        {
            query_id: Ranking(ranking.docs, ranking.scores * 3 + 1000.5)
            for query_id, ranking in run.by_query.items()
        },
    )


def test_no_command_reads_a_raw_score(tmp_path, capsys, monkeypatch):
    """Two corpora whose runs rank alike under different raw scores give
    every command that loads runs the same bytes: stdout, stderr and files."""
    runs, full = generate_synthetic(4, 8, 4, 40, 10)
    corpora = {"integer": runs, "rescored": [_rescored(run) for run in runs]}
    paths = [f"{run.run_tag}.run" for run in runs]
    loads = ["--runs", *paths, "--qrels", "full.qrels"]
    experiment = [*loads, "--training-qrels", "half.qrels"]
    one_run = ["--run", paths[0], "--qrels", "full.qrels"]
    commands = [
        ["pool", *loads, "--target-fraction", "0.5", "--out", "half.qrels"],
        ["pool", *loads, "--depth", "3"],
        ["sweep", *loads, "--depths", "1:40"],
        ["train", "--runs", *paths, "--qrels", "half.qrels", "--out-weights", "weights.csv"],
        ["train", *loads, "--queries", "301,303,305"],
        ["fuse", "--runs", *paths, "--method", "lc", "--weights", "weights.csv",
         "--out", "lc.run"],
        *(["fuse", "--runs", *paths, "--method", method, "--depth", "20"]
          for method in ("combsum", "combmnz", "borda")),
        ["eval", *one_run],
        ["xval", *experiment, "--out-run", "fused.run", "--csv", "xval.csv"],
        ["curve", *experiment],
        ["compare", *experiment],
        ["group-eval", *one_run],
        ["sensitivity", *one_run, "--partials", "half.qrels"],
    ]
    seen = {}
    for name, corpus in corpora.items():
        workdir = tmp_path / name
        workdir.mkdir()
        for run, path in zip(corpus, paths):
            save_run(run, workdir / path)
        save_qrels(full, workdir / "full.qrels")
        monkeypatch.chdir(workdir)
        printed = []
        for argv in commands:
            assert main(argv) == 0, argv
            printed.append(capsys.readouterr())
        written = {
            path.name: path.read_bytes()
            for path in sorted(workdir.iterdir())
            if path.name not in paths
        }
        seen[name] = printed, written
    assert all(
        (tmp_path / "integer" / path).read_bytes() != (tmp_path / "rescored" / path).read_bytes()
        for path in paths
    )
    assert sorted(seen["integer"][1]) == [
        "full.qrels", "fused.run", "half.qrels", "lc.run", "weights.csv", "xval.csv"
    ]
    assert seen["integer"] == seen["rescored"]


def test_judged_doc_ids_are_the_doc_id_tables_strs(tmp_path):
    paths = _overlapping_run_files(tmp_path)
    # the runs rank d1, d2, d3, d8 and d9; no run ranks the last id
    unranked = "judged-by-qrels-only-7f3a"
    official = tmp_path / "official.qrels"
    official.write_text(f"1 0 d1 1\n1 0 d3 0\n1 0 {unranked} 1\n2 0 d9 1\n")
    training = tmp_path / "training.qrels"
    training.write_text("1 0 d1 1\n2 0 d8 0\n")
    args = cli.build_parser().parse_args(
        ["xval", "--runs", *paths, "--qrels", str(official), "--training-qrels", str(training)]
    )
    cli._load_runs(paths)  # the runs' ids join the table
    size = len(trec._IDS)
    runs, official_qrels, training_qrels = cli._load_experiment(args)
    # the qrels add no id to the table: an id no run ranks keeps its parsed str
    assert len(trec._IDS) == size
    assert unranked not in trec._CODES
    assert [doc_id in trec._CODES for doc_id in official_qrels.grades["1"]] == [True, True, False]
    _assert_doc_ids_are_the_tables(runs, [official_qrels, training_qrels])


def test_loaded_pooled_qrels_keep_under_50_bytes_per_judgment(tmp_path):
    # a depth-20 pool of 10 runs of 200 docs: each judgment holds a dict entry
    # and a share of its query's dict; its doc id is the doc-id table's str,
    # which the runs filled
    runs, full = generate_synthetic(6, 10, 10, 200, 20)
    paths = []
    for run in runs:
        paths.append(str(tmp_path / f"{run.run_tag}.run"))
        save_run(run, paths[-1])
    path = tmp_path / "pooled.qrels"
    save_qrels(make_partial_qrels(build_pool(runs, 20), full), path)
    runs = cli._load_runs(paths)
    retained, pooled = _retained_bytes(lambda: cli._load_qrels(str(path)))
    judgments = [len(per_query) for per_query in pooled.grades.values()]
    assert min(judgments) >= 50
    assert retained / sum(judgments) < 50


def test_duplicate_qrels_lines_reported_on_stderr_only(dataset, tmp_path, capsys):
    text = Path(dataset["qrels"]).read_text()
    first, second = text.splitlines(keepends=True)[:2]
    doubled = tmp_path / "doubled.qrels"
    doubled.write_text(first + text + second + first)
    outputs = {}
    for name, qrels in (("clean", dataset["qrels"]), ("doubled", str(doubled))):
        assert main(["eval", "--run", dataset["runs"][0], "--qrels", qrels]) == 0
        outputs[name] = capsys.readouterr()
    assert outputs["doubled"].out == outputs["clean"].out
    assert outputs["clean"].err == ""
    assert outputs["doubled"].err == (
        f"warning: {doubled}: 3 duplicate (query, doc) lines with the same grade; "
        "each pair counted once\n"
    )


def test_empty_run_files_reported_on_stderr_only(dataset, tmp_path, capsys):
    empty = tmp_path / "empty.run"
    empty.write_text("\n")
    fuse = ["fuse", "--method", "combsum", "--runs", *dataset["runs"]]
    assert main(fuse) == 0
    clean = capsys.readouterr()
    assert main([*fuse, str(empty)]) == 0
    padded = capsys.readouterr()
    assert padded.out == clean.out
    assert clean.err == ""
    assert padded.err == f"warning: {empty}: no run entries\n"
    assert main(["eval", "--run", str(empty), "--qrels", dataset["qrels"]]) == 0
    assert capsys.readouterr().err == (
        f"warning: {empty}: no run entries\n"
        "warning: 8 of 8 queries missing from run ''; they score 0\n"
    )
    xval = ["xval", "--runs", *dataset["runs"], str(empty), "--qrels", dataset["qrels"]]
    assert main(xval) == 0
    ridge = "the design is rank-deficient; solved with a ridge of 1e-08"  # the empty run's zero column
    assert capsys.readouterr().err == (
        f"warning: {empty}: no run entries\n"
        f"warning: fold A (5 systems): {ridge}\n"
        f"warning: fold B (5 systems): {ridge}\n"
    )


def _twin_xval(dataset, tmp_path):
    """xval of sys01 and a copy of it: each fold's design is rank-deficient."""
    twin = tmp_path / "twin.run"
    twin.write_text(Path(dataset["runs"][0]).read_text().replace(" sys01\n", " twin\n"))
    return ["xval", "--runs", dataset["runs"][0], str(twin), "--qrels", dataset["qrels"]]


_RIDGE = "the design is rank-deficient; solved with a ridge of 1e-08"


def test_warnings_print_as_one_line_each_and_reach_the_caller(dataset, tmp_path, capsys):
    with pytest.warns(UserWarning, match="rank-deficient") as caught:
        assert main(_twin_xval(dataset, tmp_path)) == 0
    assert len(caught) == 2
    assert capsys.readouterr().err == (
        f"warning: fold A (2 systems): {_RIDGE}\nwarning: fold B (2 systems): {_RIDGE}\n"
    )


@pytest.mark.parametrize("notice", ["empty-run", "duplicate-qrels"])
def test_loader_notices_reach_the_caller(notice, dataset, tmp_path, capsys):
    runs, qrels = dataset["runs"], dataset["qrels"]
    if notice == "empty-run":
        empty = tmp_path / "empty.run"
        empty.write_text("\n")
        runs, message = [*runs, str(empty)], f"{empty}: no run entries"
    else:
        doubled = tmp_path / "doubled.qrels"
        text = Path(qrels).read_text()
        doubled.write_text(text + text.splitlines(keepends=True)[0])
        qrels = str(doubled)
        message = (
            f"{doubled}: 1 duplicate (query, doc) lines with the same grade; "
            "each pair counted once"
        )
    with pytest.warns(UserWarning) as caught:
        assert main(["sweep", "--runs", *runs, "--qrels", qrels]) == 0
    assert [str(w.message) for w in caught] == [message]
    assert capsys.readouterr().err == f"warning: {message}\n"


def test_console_prints_each_warning_once_and_errors_as_one_line(
    dataset, tmp_path, capsys, monkeypatch
):
    """console() is the installed ``rankfuse`` program: a warning main() has
    printed is not printed again in Python's own format."""
    with warnings.catch_warnings():
        # as outside pytest: a warning no filter ignores is written to stderr
        warnings.simplefilter("default")
        warnings.showwarning = lambda *shown: sys.stderr.write(
            warnings.formatwarning(*shown[:4])
        )
        monkeypatch.setattr(sys, "argv", ["rankfuse", *_twin_xval(dataset, tmp_path)])
        assert console() == 0
        assert capsys.readouterr().err == (
            f"warning: fold A (2 systems): {_RIDGE}\nwarning: fold B (2 systems): {_RIDGE}\n"
        )
        monkeypatch.setattr(sys, "argv", ["rankfuse", "eval", "--run", "/nonexistent.run",
                                          "--qrels", dataset["qrels"]])
        assert console() == 1
        out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_a_repeated_warning_prints_once(dataset, tmp_path, capsys):
    # no run ranks query 301, so each of the prefixes 2, 3 and 4 warns the same line
    runs = [tmp_path / Path(path).name for path in dataset["runs"]]
    for path, copy in zip(dataset["runs"], runs):
        lines = Path(path).read_text().splitlines(keepends=True)
        copy.write_text("".join(line for line in lines if not line.startswith("301 ")))
    compare = ["compare", "--runs", *map(str, runs), "--qrels", dataset["qrels"],
               "--methods", "combsum"]
    with pytest.warns(UserWarning, match="1 of 8 queries missing") as caught:
        assert main(compare) == 0
    assert len(caught) == 3
    assert capsys.readouterr().err == (
        "warning: 1 of 8 queries missing from run 'combsum'; they score 0\n"
    )


def test_cli_byte_determinism_across_invocations(dataset, tmp_path):
    """The same command twice writes identical bytes."""
    for name, argv in {
        "sweep.csv": ["sweep", "--runs", *dataset["runs"], "--qrels", dataset["qrels"]],
        "w.csv": ["train", "--runs", *dataset["runs"], "--qrels", dataset["qrels"]],
        "report.csv": ["eval", "--run", dataset["runs"][0], "--qrels", dataset["qrels"]],
        "curve.csv": ["curve", "--runs", *dataset["runs"], "--qrels", dataset["qrels"]],
    }.items():
        paths = [tmp_path / f"{i}-{name}" for i in range(2)]
        for path in paths:
            flag = "--csv" if name == "report.csv" else (
                "--out-weights" if name == "w.csv" else "--out"
            )
            assert main([*argv, flag, str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


# One process runs the sequence in its working directory, with relative
# paths, so that its files and stderr name nothing of the directory.
_HASH_SEED_SEQUENCE = """
from pathlib import Path
from rankfuse.cli import main

def run(*argv):
    assert main(list(argv)) == 0, argv

run("synth", "--seed", "11", "--num-queries", "10", "--num-systems", "5",
    "--docs-per-query", "40", "--out-dir", "corpus")
runs = sorted(str(path) for path in Path("corpus").glob("*.run"))
common = ["--runs", *runs, "--qrels", "corpus/full.qrels"]
run("pool", *common, "--target-fraction", "0.5", "--out", "half.qrels")
training = ["--training-qrels", "half.qrels"]
run("xval", *common, *training, "--out-run", "xval.run", "--csv", "xval.csv")
run("compare", *common, *training, "--out", "compare.csv")
run("fuse", "--runs", *runs, "--method", "borda", "--out", "borda.run")
"""


def test_cli_outputs_do_not_depend_on_the_string_hash_seed(tmp_path):
    """The same commands under two PYTHONHASHSEEDs, so two orders of every
    str set and str-keyed dict, write the same bytes."""
    source = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    outputs = []
    for seed in ("0", "4242"):
        root = tmp_path / seed
        root.mkdir()
        done = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SEQUENCE], cwd=root, capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}, check=False,
        )
        assert done.returncode == 0, done.stderr.decode()
        files = {
            str(file.relative_to(root)): file.read_bytes()
            for file in sorted(root.rglob("*")) if file.is_file()
        }
        outputs.append((files, done.stdout, done.stderr))
    files = outputs[0][0]
    assert len(files) == 11 and all(files.values())  # 5 runs, full qrels, 5 outputs
    assert outputs[0] == outputs[1]
