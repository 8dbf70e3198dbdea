"""Span tracing of a package's functions from outside the package.

A traced function is replaced by a wrapper wherever the package binds it:
in its defining module and in every module that re-imports the name (as
``rankfuse.cli`` re-imports ``load_run``). Calls made through any of those
names are then recorded. Each span holds its name, start, end, parent span
and iteration id; spans stay in memory until the caller writes them out.

A wrapper records nothing while ``Tracer.iteration`` is None, so untimed
work between iterations leaves no spans. A function may also have a
counter, called with the bound arguments and the result after the span has
ended; its time is a span of its own, so it adds to no function's self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the same list
    iteration: str


class Counts:
    """Per-iteration totals, and sets whose sizes count distinct keys."""

    def __init__(self) -> None:
        self.totals: defaultdict[str, float] = defaultdict(float)
        self.keys: defaultdict[str, set] = defaultdict(set)

    def add(self, name: str, value: float = 1) -> None:
        self.totals[name] += value

    def distinct(self, name: str, key: object) -> None:
        self.keys[name].add(key)


Counter = Callable[[Counts, dict, object], None]
COUNT_SPAN = "trace.count"  # time spent counting, not in the program


def covered_length(lo: float, hi: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - covered_length(span.start, span.end, kids)
        for span, kids in zip(spans, children)
    ]


def public_functions(package: str, modules: Iterable[str]) -> dict[str, Callable]:
    """Functions defined in each module, keyed ``module.name``.

    Names starting with ``_`` are left out, except ``_cmd_*``: the CLI's
    subcommand handlers, which give each subcommand its own span.
    """
    found: dict[str, Callable] = {}
    for short in modules:
        module = importlib.import_module(f"{package}.{short}")
        for name, value in vars(module).items():
            if not inspect.isfunction(value) or value.__module__ != module.__name__:
                continue
            if name.startswith("_") and not name.startswith("_cmd_"):
                continue
            found[f"{short}.{name}"] = value
    return found


@contextlib.contextmanager
def patched(
    package: str,
    functions: dict[str, Callable],
    make_wrapper: Callable[[str, Callable], Callable],
) -> Iterator[None]:
    """Bind ``make_wrapper(key, fn)`` to every package name bound to ``fn``."""
    modules = [
        module
        for name, module in list(sys.modules.items())
        if name == package or name.startswith(package + ".")
    ]
    undo: list[tuple[object, str, Callable]] = []
    try:
        for key, fn in functions.items():
            wrapper = make_wrapper(key, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, fn))
        yield
    finally:
        for module, attr, fn in reversed(undo):
            setattr(module, attr, fn)


class Tracer:
    """Records spans of wrapped calls and feeds the counters of the iteration."""

    def __init__(self, counters: dict[str, Counter] | None = None):
        self.spans: list[Span] = []
        self.counts = Counts()
        self.iteration: str | None = None
        self._counters = counters or {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        counter = self._counters.get(name)
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.iteration is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)  # type: ignore[arg-type]  # filled in below
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.iteration)
            if counter is not None:
                self._count(counter, signature.bind(*args, **kwargs), result, parent)
            return result

        return traced

    def _count(self, counter: Counter, bound: inspect.BoundArguments, result, parent) -> None:
        """Run a counter untraced, inside a ``trace.count`` span of its own,
        so that its time is not taken as the caller's self time."""
        iteration, self.iteration = self.iteration, None
        start = time.perf_counter()
        try:
            bound.apply_defaults()
            counter(self.counts, bound.arguments, result)
        finally:
            self.spans.append(Span(COUNT_SPAN, start, time.perf_counter(), parent, iteration))
            self.iteration = iteration

    @contextlib.contextmanager
    def active(self, iteration: str) -> Iterator[None]:
        """Record spans under ``iteration``, with fresh counts, for the block."""
        self.iteration = iteration
        self.counts = Counts()
        try:
            yield
        finally:
            self.iteration = None
