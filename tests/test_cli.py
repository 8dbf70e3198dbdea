"""End-to-end CLI behavior: every subcommand, file and stdout output,
error reporting, and byte determinism."""

from __future__ import annotations

import sys
import warnings
from pathlib import Path

import pytest

from rankfuse.cli import console, main
from rankfuse.fusion import normalize_reciprocal
from rankfuse.regression import assemble_matrix, solve_ols, weights_to_csv
from rankfuse.trec import load_qrels, load_run


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


def test_cli_reports_missing_file(capsys):
    assert main(["eval", "--run", "/nonexistent.run", "--qrels", "/nope.qrels"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_reports_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.run"
    bad.write_text("only three fields\n")
    assert main(["eval", "--run", str(bad), "--qrels", str(bad)]) == 1
    assert "line 1" in capsys.readouterr().err


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
