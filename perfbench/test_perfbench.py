"""Tests of the benchmark itself: python3 -m pytest perfbench/test_perfbench.py"""

from __future__ import annotations

import gc
import time

import pytest

from perfbench import run

run.import_program()

from rankfuse import cli, harness, trec  # noqa: E402

from perfbench import layers, measure, workloads  # noqa: E402
from perfbench.tracer import COUNT_SPAN, Counts, Span, patched, public_functions, self_times  # noqa: E402
from perfbench.workloads import Sizes  # noqa: E402


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        Span("a", 0.0, 10.0, None, "0"),
        Span("b", 1.0, 4.0, 0, "0"),
        Span("c", 3.0, 6.0, 0, "0"),  # overlaps b: [1, 6] is covered once
        Span("d", 2.0, 3.0, 1, "0"),
        Span("e", 9.0, 12.0, 0, "0"),  # runs past its parent: only [9, 10] counts
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])


def test_iteration_metrics_on_a_hand_built_tree():
    first = 7  # the iteration's spans start at index 7 of the tracer's list
    spans = [
        Span("cli.main", 0.0, 10.0, None, "0"),
        Span("cli._cmd_pool", 1.0, 9.0, 7, "0"),
        Span("trec.parse_run", 2.0, 5.0, 8, "0"),
        Span(COUNT_SPAN, 5.0, 6.0, 8, "0"),
        Span("pooling.build_pool", 6.0, 8.0, 8, "0"),
        Span(COUNT_SPAN, 10.0, 10.5, None, "0"),
    ]
    counts = Counts()
    counts.add("regression.rows", 4)
    counts.distinct("regression.rows", ("f", "q", "d1"))
    counts.distinct("regression.rows", ("f", "q", "d1"))
    own = [1.0, 2.0, 3.0, 1.0, 2.0, 0.5]
    m = layers.iteration_metrics(spans, own, first, counts, 0.0, 12.0)
    assert m["trec.parse_run_s"] == 3.0
    assert m["pooling.build_pool_s"] == 2.0
    assert m["cli.pool_s"] == 7.0  # the handler and its callees, not the count span
    assert m["cli.self_s"] == 3.0
    assert m["trec.parse_run_calls"] == 1
    assert m["regression.rows"] == 4
    assert m["regression.row_useful_ratio"] == 0.25
    assert m["fusion.normalize_useful_ratio"] == 0.0  # not called
    assert m["trace.span_coverage"] == pytest.approx(10 / 12)


def test_patching_reaches_reimported_names_and_is_undone():
    original = trec.load_run
    functions = {"trec.load_run": original}
    with patched(layers.PACKAGE, functions, lambda key, fn: lambda *a, **k: fn(*a, **k)):
        assert cli.load_run is trec.load_run is not original
    assert cli.load_run is trec.load_run is original


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(harness, "incremental_fusion_curve")
    found = public_functions(layers.PACKAGE, layers.LAYERS)
    assert layers.expected_functions() - found.keys() == {"harness.incremental_fusion_curve"}


@pytest.fixture(scope="module")
def lowoverlap_seed1():
    workload = workloads.WORKLOADS["fuse-lowoverlap"]
    state = workload.setup(1, None)
    outputs = workload.outputs(state, workload.iterate(state))
    return outputs, workloads.load_references()["fuse-lowoverlap"]["1"]


def test_check_passes_on_the_recorded_outputs(lowoverlap_seed1):
    outputs, expected = lowoverlap_seed1
    assert workloads.mismatches(expected, workloads.checkable(outputs)) == []


def test_check_fails_when_one_reference_byte_is_altered(lowoverlap_seed1):
    outputs, expected = lowoverlap_seed1
    got = workloads.checkable(outputs)
    for name, value in expected.items():
        if isinstance(value, str):
            altered = {**expected, name: ("0" if value[0] != "0" else "1") + value[1:]}
        else:
            altered = {**expected, name: value * (1 + 1e-6)}
        assert workloads.mismatches(altered, got) == [name]


def test_check_fails_when_one_output_byte_is_altered(lowoverlap_seed1):
    outputs, expected = lowoverlap_seed1
    text = outputs["sweep.csv"]
    altered = {**outputs, "sweep.csv": text[:-2] + ("0" if text[-2] != "0" else "1") + "\n"}
    assert workloads.mismatches(expected, workloads.checkable(altered)) == ["sweep.csv"]


SMALL = {
    "roundtrip-trec": workloads.RoundtripTrec(Sizes(3, 3, 20, 20, 5)),
    "compare-acceptance": workloads.CompareAcceptance(Sizes(4, 3, 20, 20, 5)),
    "fuse-lowoverlap": workloads.FuseLowoverlap(Sizes(3, 3, 20, 100, 5)),
}


def _inputs(workload, seed, workdir):
    workdir.mkdir()
    state = workload.setup(seed, workdir)
    if "runs" in state and isinstance(state["runs"][0], str):
        return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return [trec.write_run(run) for run in state["runs"]], trec.write_qrels(state["qrels"])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    workload = SMALL[name]
    first = _inputs(workload, 5, tmp_path / "a")
    assert first == _inputs(workload, 5, tmp_path / "b")
    assert first != _inputs(workload, 6, tmp_path / "c")


def test_each_timed_iteration_carries_its_reference_time():
    class Sleepy:
        def iterate(self, state):
            time.sleep(0.01)

        def outputs(self, state, result):
            return {}

    done = measure.timed_loop(Sleepy(), None, 0.2)
    assert len(done) >= 2 and gc.isenabled()
    assert all(it.reference > 0 and it.wall >= 0.01 for it in done)


def test_every_seed_selects_an_input_set_with_references():
    references = workloads.load_references()
    recorded = set(range(workloads.REFERENCE_SEEDS))
    for name in workloads.WORKLOADS:
        assert {int(seed) for seed in references[name]} == recorded
    for seed in (0, 199, 200, 4711, 2**31 + 5, -3):
        assert workloads.input_seed(seed) in recorded
    assert workloads.input_seed(4711) == workloads.input_seed(4711) != workloads.input_seed(4712)


def test_lowoverlap_unions_are_several_times_a_run_depth():
    sizes = Sizes(2, 20, 100, 500, 5)
    runs, _ = workloads.lowoverlap_lines(3, sizes)
    for q in range(sizes.queries):
        query = str(401 + q)
        union = {line.split()[2] for lines in runs for line in lines if line.startswith(query + " ")}
        assert 4 * sizes.depth < len(union) <= sizes.universe
