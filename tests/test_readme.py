"""README's library quick start runs to completion in-process, so an API
change that leaves the README stale fails the suite."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_quick_start_runs_and_prints_two_maps(capsys):
    (block,) = _python_blocks()
    exec(compile(block, f"{README}:quick-start", "exec"), {"__name__": "__main__"})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 2
    assert all(0.0 <= float(value) <= 1.0 for value in printed)
