"""Benchmark of rankfuse: three desk workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload roundtrip-trec --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each workload is a closed loop with one client in this one process. With
``--trace 0`` a run sets the inputs up five times (``setup_s`` is the
median), makes one untimed tracemalloc pass (``peak_mem_mb``), then runs
iterations for ``--seconds`` (``wall_ref`` is their time over that of
``measure.reference_loop`` timed around each). With ``--trace 1``
it sets up once, with ``harness.generate_synthetic`` traced, makes the
tracemalloc pass (``trec.bytes_per_entry``), runs an untraced and then a
traced loop of half ``--seconds`` each, and reports the per-layer metrics
of ``layers.py``. Every iteration's outputs are checked against
``references.json``; the last line of standard output is one JSON object
with the result. Inputs and outputs live in a temporary directory under
``.perfbench_work/``; the run record and spans go to ``.perfbench_out/``.

    python3 perfbench/run.py --record 0:200 [--workload NAME]

records the reference outputs of seeds 0..199. Run it only on a commit
whose outputs are known to be right. ``--seed`` is taken mod 200, so any
seed selects one of these recorded input sets.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_program() -> None:
    """Make rankfuse importable from this checkout's ``src``, and only from there."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import rankfuse
    except ImportError as exc:
        raise SystemExit(f"error: cannot import rankfuse from {src}: {exc}") from None
    if not Path(rankfuse.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: rankfuse was imported from {rankfuse.__file__}, not {src}")


if __name__ == "__main__":
    # One thread for BLAS and OpenMP, set before numpy is imported.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    import_program()
    from perfbench.measure import main

    sys.exit(main())
