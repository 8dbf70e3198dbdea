"""Golden bytes of every CLI subcommand on one fixed synthetic corpus.

Each output file (and each stdout/stderr stream that carries text) is
pinned by its sha256. ``train`` writes repr floats, so a change in the
last bit of a solved weight shows here; fused run files print 6
significant digits and need the exact oracles in test_fusion.py as well.
A failure means the program's output changed: fix the program, do not
re-record the digests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

from rankfuse.cli import main

SYNTH = [
    "--seed", "11", "--num-queries", "10", "--num-systems", "5",
    "--docs-per-query", "40", "--relevant-per-query", "8",
    "--qualities", "0.9,0.7,0.6,0.4,0.2",
]

# Recorded on the code before the candidate-table refactor of fusion.py.
GOLDEN = {
    "synth/full.qrels": "607a511a07960341061f273e38330e5506cb718b8284f7eda87cc6071bb513ba",
    "synth/sys01.run": "11b89c40532b6d556f5e64a3f6d0732e0ff6bc31dc4be1a6cfe78e20d0b7f07f",
    "synth/sys02.run": "4166cc475739740b4e3b01d7578d63198ee8b9ebdb3134c45e0db2f26de77bf5",
    "synth/sys03.run": "95d94118bb5bcf686d3810b8b6570d9d6e9e3be4e8eb4a44df16c1c0e56d08c8",
    "synth/sys04.run": "8630df537a40e562dfe74e07abeb5e8e72d34164faf8eb068a17416207f0cb0d",
    "synth/sys05.run": "2bf01ea77330be9f78a1813da8b2413c33992fc8bc7b7df5610c71a68ad392e7",
    "pool/half.qrels": "39afe5e39800553d49513dbf62041633e12be61f3464dc4e98aadb0b3098fe8f",
    "pool/stderr": "2375467a03ebb852489afaa12a7069f54a060247a5e226ca4d2b59101527d2c4",
    "pool/depth3.stdout": "b3416c849ea1db3d7bb6bf5a03cfd6814ed40ab2c0476b45bddfd2b7f0c9751a",
    "sweep/stdout": "9e2504f8d2a8d3d8d03a942e81ff8f8254e5d0ec60db0ead5700303c597861cf",
    "train/weights.csv": "d0f942a1499999287239cc517a6ab8d797310d2a9964a65b2289b918f702c607",
    "train/fold.stdout": "f1b52b438494a5e50a4fb9df3eb626533a13ca4e2902f40b89d151327238324b",
    "fuse/lc.run": "7f6548a2197cf44799e31eea7fe30a8b2fd355668e0ebcfeffacc626e61788dc",
    "fuse/combsum.run": "d1efc96743b28b8c86229cabea75dfecf7bf95b5aa0048e924e1068cb0eb5600",
    "fuse/combmnz.run": "eb050c6897a8b3a5906a132423f5faf2c13946de356c01d1ee8e03a12b5fa8ba",
    "fuse/borda.run": "598f94f241ef1fd851c21215dc41d3b2b3ade1bc3f6ff8a7749c17fdbab0b5ec",
    "eval/stdout": "05a90d542384f6c14e25ebeabc2e4138c0391983e24908e8b99e3a84c627678a",
    "xval/stdout": "75521b43a035ce66b546f3a6f7eb6812096bf6d6117affc196736d5b4c1fc672",
    "xval/out-run": "5e469633979e19634e397c5040ef6eeea61c49fa71df4bd044fdd6956b565438",
    "curve/stdout": "e21c12320148e1d93613147c02bb592e7a41dbaf92684e890bc322cc3c3e094a",
    "compare/stdout": "23367430b0f236a40372adf922f2bee78209e3748a2dcc563fc0b1c8c0b86f3d",
    "group-eval/tertiles.stdout": "896ef9a76e7903e2aa518bb0adf78b4831709564a206a34c1f1922540e5c3605",
    "group-eval/threshold:4.stdout": "04b30a5ce2a795aba7648fbd1dcb46bfc683da3b26748cf35eeb39ef367b7e24",
    "sensitivity/stdout": "93abf2734a1ede180cdee2cc58022a2ef6bc787019b8c5c1c881f010d18e719a",
}


def _run(argv: list[str]) -> tuple[str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, err.getvalue()
    return out.getvalue(), err.getvalue()


def golden_outputs(root) -> dict[str, bytes]:
    """Run every subcommand once under ``root``; map output name -> bytes."""
    corpus = root / "corpus"
    outputs: dict[str, bytes] = {}
    _run(["synth", *SYNTH, "--out-dir", str(corpus)])
    for path in sorted(corpus.iterdir()):
        outputs[f"synth/{path.name}"] = path.read_bytes()
    runs = sorted(str(p) for p in corpus.glob("*.run"))
    qrels = str(corpus / "full.qrels")

    def cmd(name: str, *args: str) -> list[str]:
        return [name, "--runs", *runs, "--qrels", qrels, *args]

    half = root / "half.qrels"
    _, err = _run(cmd("pool", "--target-fraction", "0.5", "--out", str(half)))
    outputs["pool/half.qrels"] = half.read_bytes()
    outputs["pool/stderr"] = err.encode()
    shallow, _ = _run(cmd("pool", "--depth", "3"))
    outputs["pool/depth3.stdout"] = shallow.encode()
    depth3 = root / "depth3.qrels"
    depth3.write_text(shallow, encoding="utf-8")

    sweep, _ = _run(cmd("sweep", "--depths", "1:40"))
    outputs["sweep/stdout"] = sweep.encode()

    weights = root / "weights.csv"
    _run(["train", "--runs", *runs, "--qrels", str(half), "--out-weights", str(weights)])
    outputs["train/weights.csv"] = weights.read_bytes()
    folded, _ = _run(["train", "--runs", *runs, "--qrels", qrels,
                      "--queries", "301,303,305,307,309"])
    outputs["train/fold.stdout"] = folded.encode()

    for method in ("lc", "combsum", "combmnz", "borda"):
        extra = ["--weights", str(weights)] if method == "lc" else []
        path = root / f"{method}.run"
        _run(["fuse", "--runs", *runs, "--method", method, *extra,
              "--depth", "30", "--out", str(path)])
        outputs[f"fuse/{method}.run"] = path.read_bytes()

    report, _ = _run(["eval", "--run", str(root / "lc.run"), "--qrels", qrels])
    outputs["eval/stdout"] = report.encode()

    fused = root / "xval.run"
    xval, _ = _run(cmd("xval", "--training-qrels", str(half), "--out-run", str(fused)))
    outputs["xval/stdout"] = xval.encode()
    outputs["xval/out-run"] = fused.read_bytes()

    curve, _ = _run(cmd("curve", "--training-qrels", str(half)))
    outputs["curve/stdout"] = curve.encode()
    compare, _ = _run(cmd("compare", "--training-qrels", str(half)))
    outputs["compare/stdout"] = compare.encode()

    for mode in ("tertiles", "threshold:4"):  # pooled qrels: R(q) varies by query
        groups, _ = _run(["group-eval", "--run", str(fused), "--qrels", str(half),
                          "--mode", mode])
        outputs[f"group-eval/{mode}.stdout"] = groups.encode()

    sensitivity, _ = _run(["sensitivity", "--run", runs[0], "--qrels", qrels,
                           "--partials", str(half), str(depth3)])
    outputs["sensitivity/stdout"] = sensitivity.encode()
    return outputs


def digests(root) -> dict[str, str]:
    return {name: hashlib.sha256(blob).hexdigest() for name, blob in golden_outputs(root).items()}


def test_every_cli_output_matches_its_golden_digest(tmp_path):
    assert digests(tmp_path) == GOLDEN
