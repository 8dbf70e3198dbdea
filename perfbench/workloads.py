"""The benchmark's three workloads, their generated inputs and output checks.

Each workload is a closed loop with one client: ``iterate`` runs one
iteration and the next starts only after it returns. ``setup`` builds the
inputs from the seed alone; the program sees only those inputs.
``outputs`` turns an iteration's result into the values the check
compares with the references recorded from the seed commit of the
benchmark (``references.json``): text is compared by digest, means within
1e-9.

Why these three, in short (README.md has the full reasoning):

- ``roundtrip-trec``: the paper's core experiment as the README's CLI round
  trip, at TREC-like depth and system count. Dominated by ``trec`` parsing;
  every system ranks the whole universe, so candidate sets fully overlap.
- ``compare-acceptance``: ``curve`` and ``compare`` on the acceptance
  corpus. The prefix loop re-normalizes, re-assembles and re-solves, so the
  ``harness``, ``regression`` and ``evaluation`` layers and per-call
  overhead dominate; I/O is small.
- ``fuse-lowoverlap``: in-memory fusion of deep runs drawn from a universe
  five times their depth, as in real pools. Fusion and ``write_run``
  dominate; no parsing, training or CLI.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rankfuse import cli, evaluation, fusion, harness, pooling, trec

REFERENCES = Path(__file__).with_name("references.json")
MEAN_TOLERANCE = 1e-9
# References are recorded for input seeds 0..REFERENCE_SEEDS-1 (``--record 0:200``).
REFERENCE_SEEDS = 200


def input_seed(seed: int) -> int:
    """The input set a ``--seed`` selects: any integer maps to a recorded one."""
    return seed % REFERENCE_SEEDS


@dataclass(frozen=True)
class Sizes:
    """Input size: ``depth`` docs per run and query, from ``universe`` docs."""

    queries: int
    systems: int
    depth: int
    universe: int
    relevant: int

    @property
    def lines(self) -> int:
        """Run lines over all systems, one per ranked doc."""
        return self.queries * self.systems * self.depth


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _run_cli(argv: list[str]) -> str:
    """Run one rankfuse subcommand in-process; return what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"rankfuse {argv[0]} exited {code}: {err.getvalue().strip()}")
    return err.getvalue()


def _take(path: Path) -> str:
    """Read an output file and remove it, so a later iteration cannot reuse it."""
    text = path.read_text(encoding="utf-8")
    path.unlink()
    return text


def _write_corpus(runs, qrels, workdir: Path) -> list[str]:
    paths = []
    for run in runs:
        path = workdir / f"{run.run_tag}.run"
        trec.save_run(run, path)
        paths.append(str(path))
    trec.save_qrels(qrels, workdir / "full.qrels")
    return paths


class RoundtripTrec:
    name = "roundtrip-trec"
    why = "README CLI round trip pool->xval->eval->sensitivity at TREC depth; parse-bound, full overlap"
    checked_files = ("pooled.qrels", "xval.csv", "sensitivity.csv")
    target_fraction = 0.5

    def __init__(self, sizes: Sizes = Sizes(6, 20, 1000, 1000, 50)):
        self.sizes = sizes

    def setup(self, seed: int, workdir: Path) -> dict:
        s = self.sizes
        runs, qrels = harness.generate_synthetic(seed, s.queries, s.systems, s.universe, s.relevant)
        return {"dir": workdir, "runs": _write_corpus(runs, qrels, workdir)}

    def iterate(self, state: dict) -> str:
        d, runs, full = state["dir"], state["runs"], str(state["dir"] / "full.qrels")
        pooled = str(d / "pooled.qrels")
        note = _run_cli(["pool", "--runs", *runs, "--qrels", full,
                         "--target-fraction", str(self.target_fraction), "--out", pooled])
        _run_cli(["xval", "--runs", *runs, "--qrels", full, "--training-qrels", pooled,
                  "--out-run", str(d / "fused.run"), "--csv", str(d / "xval.csv")])
        _run_cli(["eval", "--run", str(d / "fused.run"), "--qrels", full,
                  "--csv", str(d / "eval.csv")])
        _run_cli(["sensitivity", "--run", runs[0], "--qrels", full, "--partials", pooled,
                  "--out", str(d / "sensitivity.csv")])
        return note

    def outputs(self, state: dict, result: str) -> dict:
        # The fused run file and its eval CSV are not checked: fixing how
        # write_run prints scores changes them on purpose.
        picked = re.search(r"picked depth (\d+)", result)
        out = {"picked_depth": int(picked.group(1)) if picked else result}
        for name in self.checked_files:
            out[name] = _take(state["dir"] / name)
        for name in ("fused.run", "eval.csv"):
            (state["dir"] / name).unlink()
        return out

    def roundtrip_changed_queries(self, state: dict) -> int:
        """Queries whose cross-validated fused ranking changes when written and parsed."""
        runs = [trec.load_run(path) for path in state["runs"]]
        full = trec.load_qrels(state["dir"] / "full.qrels")
        depth, _ = pooling.pick_depth_for_fraction(runs, full, self.target_fraction)
        pooled = pooling.make_partial_qrels(pooling.build_pool(runs, depth), full)
        return _changed_queries(harness.cross_validated_fusion(runs, pooled, full).fused)


class CompareAcceptance:
    name = "compare-acceptance"
    why = "curve then compare (all methods) on the acceptance corpus; prefix loop of many small trains"
    pool_depth = 10

    def __init__(self, sizes: Sizes = Sizes(50, 10, 120, 120, 25)):
        self.sizes = sizes

    def setup(self, seed: int, workdir: Path) -> dict:
        s = self.sizes
        runs, qrels = harness.generate_synthetic(seed, s.queries, s.systems, s.universe, s.relevant)
        paths = _write_corpus(runs, qrels, workdir)
        pool = pooling.build_pool(runs, self.pool_depth)
        trec.save_qrels(pooling.make_partial_qrels(pool, qrels), workdir / "pooled.qrels")
        return {"dir": workdir, "runs": paths}

    def iterate(self, state: dict) -> None:
        d, runs = state["dir"], state["runs"]
        common = ["--runs", *runs, "--qrels", str(d / "full.qrels"),
                  "--training-qrels", str(d / "pooled.qrels")]
        _run_cli(["curve", *common, "--out", str(d / "curve.csv")])
        _run_cli(["compare", *common, "--out", str(d / "compare.csv")])

    def outputs(self, state: dict, result: None) -> dict:
        return {name: _take(state["dir"] / name) for name in ("curve.csv", "compare.csv")}


def lowoverlap_lines(seed: int, sizes: Sizes) -> tuple[list[list[str]], list[str]]:
    """Run and qrels lines for the low-overlap corpus.

    Per query, each system ranks ``depth`` of ``universe`` docs by an
    exponential race in which the first ``relevant`` docs weigh
    1/(1 - quality), qualities falling from 0.85 to 0.35 across systems, as
    in ``generate_synthetic``. Scores are the integers depth..1.
    """
    rng = np.random.default_rng(seed)
    qualities = np.linspace(0.85, 0.35, sizes.systems)
    is_relevant = np.arange(sizes.universe) < sizes.relevant
    runs: list[list[str]] = [[] for _ in range(sizes.systems)]
    qrels: list[str] = []
    for q in range(sizes.queries):
        query_id = str(401 + q)
        qrels.extend(f"{query_id} 0 D{query_id}-{j:04d} 1\n" for j in range(sizes.relevant))
        for system, quality in enumerate(qualities):
            keys = rng.exponential(size=sizes.universe) / np.where(
                is_relevant, 1.0 / (1.0 - quality), 1.0
            )
            top = np.argsort(keys, kind="stable")[: sizes.depth]
            tag = f"sys{system + 1:02d}"
            runs[system].extend(
                f"{query_id} Q0 D{query_id}-{doc:04d} {rank} {sizes.depth - rank + 1} {tag}\n"
                for rank, doc in enumerate(top.tolist(), start=1)
            )
    return runs, qrels


def _changed_queries(run) -> int:
    reparsed = trec.parse_run(trec.write_run(run).splitlines())
    return sum(run.docs(q) != reparsed.docs(q) for q in run.query_ids)


class FuseLowoverlap:
    name = "fuse-lowoverlap"
    why = "in-memory normalize, combsum/combmnz/borda, write_run, evaluate, pool_sweep 1..100; unions 5x depth"
    sweep_depths = range(1, 101)

    def __init__(self, sizes: Sizes = Sizes(10, 20, 1000, 5000, 50)):
        self.sizes = sizes

    def setup(self, seed: int, workdir: Path) -> dict:
        run_lines, qrels_lines = lowoverlap_lines(seed, self.sizes)
        return {
            "runs": [trec.parse_run(lines) for lines in run_lines],
            "qrels": trec.parse_qrels(qrels_lines, name="lowoverlap"),
        }

    def iterate(self, state: dict) -> dict:
        runs, qrels = state["runs"], state["qrels"]
        scored = [fusion.normalize_reciprocal(run) for run in runs]
        fused = {
            "combsum": fusion.comb_sum(scored),
            "combmnz": fusion.comb_mnz(scored),
            "borda": fusion.borda(runs),
        }
        written = sum(len(trec.write_run(run)) for run in [*fused.values(), *runs])
        means = {m: evaluation.evaluate(run, qrels).mean_metrics() for m, run in fused.items()}
        sweep = pooling.sweep_csv(pooling.pool_sweep(runs, qrels, self.sweep_depths))
        return {"fused": fused, "means": means, "sweep": sweep, "written": written}

    def outputs(self, state: dict, result: dict) -> dict:
        out: dict = {"sweep.csv": result["sweep"]}
        for method, run in result["fused"].items():
            out[f"{method}.order"] = "".join(
                f"{q} {' '.join(run.docs(q))}\n" for q in run.query_ids
            )
            for metric, value in result["means"][method].items():
                out[f"{method}.{metric}"] = value
        return out

    def roundtrip_changed_queries(self, state: dict) -> int:
        """(method, query) pairs whose fused ranking changes when written and parsed."""
        return sum(_changed_queries(run) for run in self.iterate(state)["fused"].values())


WORKLOADS = {w.name: w for w in (RoundtripTrec(), CompareAcceptance(), FuseLowoverlap())}


def checkable(outputs: dict) -> dict:
    """Text as its digest, numbers as they are."""
    return {k: digest(v) if isinstance(v, str) else v for k, v in outputs.items()}


def mismatches(expected: dict, got: dict) -> list[str]:
    """Names of outputs that differ from the reference, or are missing."""
    bad = []
    for name, want in expected.items():
        have = got.get(name)
        if isinstance(want, float):
            same = isinstance(have, float) and (
                math.isclose(have, want, rel_tol=MEAN_TOLERANCE, abs_tol=MEAN_TOLERANCE)
                or (math.isnan(have) and math.isnan(want))
            )
        else:
            same = have == want
        if not same:
            bad.append(name)
    return bad


def load_references(path: Path = REFERENCES) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def save_references(references: dict, path: Path = REFERENCES) -> None:
    """One line per (workload, seed), so that a changed reference shows as one line."""
    lines = ["{"]
    workloads = sorted(references)
    for i, name in enumerate(workloads):
        lines.append(f"{json.dumps(name)}: {{")
        seeds = sorted(references[name], key=int)
        for j, seed in enumerate(seeds):
            comma = "," if j < len(seeds) - 1 else ""
            lines.append(f"  {json.dumps(seed)}: {json.dumps(references[name][seed], sort_keys=True)}{comma}")
        lines.append("}" + ("," if i < len(workloads) - 1 else ""))
    lines.append("}")
    tmp = path.with_suffix(".tmp")
    tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    os.replace(tmp, path)
