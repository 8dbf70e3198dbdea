"""Measurement phases of a benchmark run, the run record and the result line.

Imported by ``run.py`` once rankfuse is importable from this checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy
import scipy

from rankfuse import trec

from . import layers
from .tracer import Tracer, patched, public_functions, self_times
from .workloads import (
    REFERENCES,
    WORKLOADS,
    checkable,
    input_seed,
    load_references,
    mismatches,
    save_references,
)

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5
MIB = 2**20


@dataclass
class Iteration:
    start: float
    end: float
    outputs: dict | None = None
    error: str | None = None
    counts: object = None
    label: str = ""
    reference: float = math.nan  # seconds of reference_loop() around this iteration

    @property
    def wall(self) -> float:
        return self.end - self.start


def reference_loop() -> None:
    """Fixed pure-Python work of the program's kind, timed around each iteration.

    Building tuples and strings, grouping them in a dict and sorting is what
    parsing, fusing and evaluating runs spend their time on. On a shared
    host the speed of one core drifts by up to 1.8x over tens of seconds;
    this loop slows with it, and nothing in rankfuse changes it, so the
    iterations' time divided by the loop's time (``wall_ref``) keeps the
    program's speed and drops the host's. The collector is off so that the
    loop's time does not depend on how many objects the program keeps.
    """
    gc.disable()
    try:
        rows = [(f"D{i % 977:04d}", i * 0.5, str(i)) for i in range(30_000)]
        groups: dict[str, list[float]] = {}
        for doc, score, _ in rows:
            groups.setdefault(doc, []).append(score)
        sorted(groups.items(), key=lambda kv: -sum(kv[1]))
    finally:
        gc.enable()


def time_reference() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


@dataclass
class Run:
    """What one workload run measured."""

    iterations: list[Iteration] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    walls: dict[str, list[float]] = field(default_factory=dict)  # per phase
    references: dict[str, list[float]] = field(default_factory=dict)  # per timed phase

    def check(self, expected: dict, iterations: list[Iteration], phase: str) -> None:
        for it in iterations:
            self.iterations.append(it)
            self.walls.setdefault(phase, []).append(it.wall)
            if not math.isnan(it.reference):
                self.references.setdefault(phase, []).append(it.reference)
            if it.error is not None:
                self.failures.append(f"{phase} {it.label}: {it.error}")
            elif bad := mismatches(expected, it.outputs):
                self.failures.append(f"{phase} {it.label}: outputs differ: {', '.join(bad)}")


def run_once(workload, state, label: str, tracer=None) -> Iteration:
    """One iteration; its outputs are taken after the timed interval."""
    gc.collect()
    scope = tracer.active(label) if tracer is not None else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with scope:
            result = workload.iterate(state)
    except Exception as exc:  # an iteration that raises counts as failed
        return Iteration(start, time.perf_counter(), error=repr(exc), label=label)
    end = time.perf_counter()
    it = Iteration(start, end, label=label, counts=tracer.counts if tracer else None)
    try:
        it.outputs = checkable(workload.outputs(state, result))
    except Exception as exc:
        it.error = repr(exc)
    return it


def timed_loop(workload, state, seconds: float, tracer=None) -> list[Iteration]:
    """Iterations back to back until ``seconds`` have passed, at least one.

    ``reference_loop`` is timed just before and just after each iteration,
    outside its timed interval.
    """
    done: list[Iteration] = []
    deadline = time.perf_counter() + seconds
    while not done or time.perf_counter() < deadline:
        before = time_reference()
        it = run_once(workload, state, str(len(done)), tracer)
        it.reference = (before + time_reference()) / 2
        done.append(it)
    return done


def memory_pass(workload, state) -> tuple[Iteration, float, float]:
    """One untimed iteration under tracemalloc.

    Returns the iteration, its peak traced memory in bytes, and the bytes
    each entry parsed by ``trec.parse_run`` still holds when it returns.
    """
    kept = [0, 0]

    def measure(key, fn):
        def measured(*args, **kwargs):
            before = tracemalloc.get_traced_memory()[0]
            run = fn(*args, **kwargs)
            kept[0] += tracemalloc.get_traced_memory()[0] - before
            kept[1] += run.num_entries()
            return run

        return measured

    parse = {"trec.parse_run": trec.parse_run} if hasattr(trec, "parse_run") else {}
    gc.collect()
    with patched(layers.PACKAGE, parse, measure):
        tracemalloc.start()
        try:
            it = run_once(workload, state, "memory")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return it, float(peak), kept[0] / kept[1] if kept[1] else 0.0


def machine() -> dict:
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def measure_plain(workload, seed: int, seconds: float, workdir: Path, expected: dict):
    """Untraced run: end-to-end metrics with their sample counts."""
    setups = []
    state = None
    for _ in range(SETUPS):
        state = None
        gc.collect()
        start = time.perf_counter()
        state = workload.setup(seed, workdir)
        setups.append(time.perf_counter() - start)
    run = Run(walls={"setup": setups})
    mem_it, peak, _ = memory_pass(workload, state)
    run.check(expected, [mem_it], "memory pass")
    timed = timed_loop(workload, state, seconds)
    run.check(expected, timed, "iteration")
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        # A ratio of sums, not a median of ratios: the host's speed changes
        # within an iteration, so one iteration's two reference times match
        # it poorly, while over the run both sums see the same mix of speeds.
        "wall_ref": (
            sum(it.wall for it in timed) / sum(it.reference for it in timed),
            "ref",
            len(timed),
        ),
        "peak_mem_mb": (peak / MIB, "MiB", 1),
    }
    # Seconds as a user sees them: printed and recorded, not in the result
    # line, because on a shared host they move with the host's load.
    shown = {
        "wall_s": (statistics.median(it.wall for it in timed), "s", len(timed)),
        "reference_s": (statistics.median(it.reference for it in timed), "s", len(timed)),
    }
    return run, metrics, shown


def measure_traced(workload, seed: int, seconds: float, workdir: Path, expected: dict):
    """Traced run: per-layer metrics, and the spans for the run record."""
    functions = public_functions(layers.PACKAGE, layers.LAYERS)
    absent = sorted(layers.expected_functions() - functions.keys())
    tracer = Tracer({k: c for k, c in layers.COUNTERS.items() if k in functions})
    with patched(layers.PACKAGE, functions, tracer.wrap), tracer.active("setup"):
        state = workload.setup(seed, workdir)
    run = Run()
    mem_it, _, bytes_per_entry = memory_pass(workload, state)
    run.check(expected, [mem_it], "memory pass")
    plain = timed_loop(workload, state, seconds / 2)
    run.check(expected, plain, "iteration")
    with patched(layers.PACKAGE, functions, tracer.wrap):
        traced = timed_loop(workload, state, seconds / 2, tracer)
    run.check(expected, traced, "traced iteration")

    own = self_times(tracer.spans)
    per_iteration = []
    for it in traced:
        if it.error is not None:
            continue
        # An iteration's spans are contiguous in the tracer's list.
        mine = [i for i, s in enumerate(tracer.spans) if s.iteration == it.label]
        first, last = mine[0], mine[-1] + 1
        per_iteration.append(layers.iteration_metrics(
            tracer.spans[first:last], own[first:last], first, it.counts, it.start, it.end
        ))
    setup_spans = [(s, o) for s, o in zip(tracer.spans, own) if s.iteration == "setup"]
    changed = getattr(workload, "roundtrip_changed_queries", None)
    extra = {
        "trec.bytes_per_entry": bytes_per_entry,
        "trec.roundtrip_changed_queries": float(changed(state)) if changed else 0.0,
        "harness.generate_synthetic_s": sum(
            (o for s, o in setup_spans if s.name == layers.SETUP_FUNCTION), 0.0
        ),
        "trace.overhead_s": statistics.median(it.wall for it in traced)
        - statistics.median(it.wall for it in plain),
    }
    metrics = {}
    for name in layers.PER_LAYER:
        if name in extra:
            value = extra[name]
        else:
            values = [m[name] for m in per_iteration]
            value = statistics.median(values) if values else 0.0
        metrics[name] = (value, layers.unit(name), len(per_iteration))
    return run, metrics, tracer.spans, own, absent


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:

    workload = WORKLOADS[name]
    given_seed, seed = seed, input_seed(seed)
    expected = load_references().get(name, {}).get(str(seed))
    if expected is None:
        raise SystemExit(
            f"error: no reference outputs recorded for {name} input seed {seed}; "
            "record them on a known-good commit with --record"
        )
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    spans = own = None
    absent: list[str] = []
    shown: dict = {}
    try:
        if trace:
            run, metrics, spans, own, absent = measure_traced(
                workload, seed, seconds, workdir, expected
            )
        else:
            run, metrics, shown = measure_plain(workload, seed, seconds, workdir, expected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": name,
        "seed": given_seed,
        "input_seed": seed,
        "seconds": seconds,
        "trace": trace,
        "why": workload.why,
        "sizes": {**vars(workload.sizes), "lines": workload.sizes.lines},
        "machine": machine(),
        "attempted": len(run.iterations),
        "failed": len(run.failures),
        "failures": run.failures,
        "iteration_walls_s": run.walls,
        "iteration_references_s": run.references,
        "absent_functions": absent,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "shown": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in shown.items()},
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{name}-seed{given_seed}-trace{int(trace)}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if spans is not None:
        with open(out_dir / f"{stem}.spans.jsonl", "w", encoding="utf-8") as f:
            for span, self_s in zip(spans, own):
                f.write(json.dumps({**vars(span), "self": self_s}) + "\n")
    return record


def summary(record: dict) -> str:
    attempted, failed = record["attempted"], record["failed"]
    lines = [
        f"{record['workload']} seed {record['seed']} (input seed {record['input_seed']}):"
        f" sizes {record['sizes']}"
    ]
    for name, m in [*record["metrics"].items(), *record["shown"].items()]:
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']} (samples: {m['samples']})")
    lines.append(f"  failed_frac = {failed / attempted:.6g} ({failed} of {attempted} iterations)")
    lines.extend(f"  FAILED {line}" for line in record["failures"])
    if record["absent_functions"]:
        lines.append(f"  absent functions: {', '.join(record['absent_functions'])}")
    return "\n".join(lines)


def result_line(records: list[dict], prefix: bool) -> str:
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    metrics = {
        (f"{r['workload']}.{k}" if prefix else k): {"value": m["value"], "unit": m["unit"]}
        for r in records
        for k, m in r["metrics"].items()
    }
    return json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def record_references(names: list[str], seeds: range) -> None:
    """Record one iteration's outputs per seed as the reference of each workload."""

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    for name in names:
        workload = WORKLOADS[name]
        recorded = {}
        for seed in seeds:
            workdir = Path(tempfile.mkdtemp(prefix=f"record-{name}-", dir=work_root))
            try:
                state = workload.setup(seed, workdir)
                recorded[str(seed)] = checkable(workload.outputs(state, workload.iterate(state)))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(f"recorded {name} seed {seed}", file=sys.stderr)
        # Re-read just before writing, so runs recording other workloads keep theirs.
        references = load_references() if REFERENCES.exists() else {}
        references.setdefault(name, {}).update(recorded)
        save_references(references)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description="Benchmark of rankfuse; see perfbench/README.md."
    )
    parser.add_argument("--workload", default="all",
                        help="roundtrip-trec, compare-acceptance, fuse-lowoverlap or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="LO:HI", help="record references for seeds LO..HI-1")
    args = parser.parse_args(argv)
    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}; expected one of {list(WORKLOADS)} or all")
    if args.record:
        lo, hi = (int(x) for x in args.record.split(":"))
        record_references(names, range(lo, hi))
        return 0
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(summary(record), flush=True)
        records.append(record)
    print(f"machine: {json.dumps(records[0]['machine'])}")
    print(result_line(records, prefix=len(records) > 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
