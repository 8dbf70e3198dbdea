"""Retrieval effectiveness metrics and qrels-sensitivity analysis.

Per-query metrics: average precision (AP), R-precision (RP), and
precision at a cutoff (P@k). Means are unweighted arithmetic means over
the evaluated query set. AP and RP are undefined for a query with no
relevant documents under the active qrels; such queries carry NaN and
are excluded from the AP/RP means, while P@k remains defined and always
counts. This matches trec_eval's topic-count convention and matters
when evaluating under pooled partial qrels, which can empty a query's
relevant set.

The AP denominator is R(q) under the active qrels, not under any larger
judgment set, so deleting a relevant label can raise AP even though it
can only lower P@k.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Collection, Iterable, Sequence
from dataclasses import dataclass

from .trec import Qrels, RunList, sort_query_ids

METRICS = ("map", "rp", "p10", "p20")


def average_precision(ranked_docs: Sequence[str], relevant: Collection[str]) -> float:
    """AP = (sum of precision@r over relevant retrieved ranks r) / R(q).

    Relevant docs never retrieved contribute nothing to the numerator
    but stay in the denominator. R(q) = 0 returns NaN (undefined for
    the query).
    """
    total = len(relevant)
    if total == 0:
        return math.nan
    hits = 0
    acc = 0.0
    for position, doc_id in enumerate(ranked_docs, start=1):
        if doc_id in relevant:
            hits += 1
            acc += hits / position
    return acc / total


def r_precision(ranked_docs: Sequence[str], relevant: Collection[str]) -> float:
    """Precision among the top R(q) ranked docs; NaN when R(q) = 0.

    A list shorter than R(q) keeps the R(q) denominator, so missing
    tail docs count as non-relevant.
    """
    total = len(relevant)
    if total == 0:
        return math.nan
    found = sum(1 for doc_id in ranked_docs[:total] if doc_id in relevant)
    return found / total


def precision_at(
    ranked_docs: Sequence[str], relevant: Collection[str], cutoff: int
) -> float:
    """Fraction of relevant docs among the top ``cutoff`` positions.

    The denominator is always ``cutoff``; lists shorter than the cutoff
    are padded conceptually with non-relevant docs.
    """
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    found = sum(1 for doc_id in ranked_docs[:cutoff] if doc_id in relevant)
    return found / cutoff


@dataclass(frozen=True)
class QueryEval:
    """Metric values for one query; ap/rp are NaN when R(q) = 0."""

    query_id: str
    ap: float
    rp: float
    p10: float
    p20: float

    def value(self, metric: str) -> float:
        return {"map": self.ap, "rp": self.rp, "p10": self.p10, "p20": self.p20}[metric]


def _mean(values: Iterable[float]) -> float:
    defined = [v for v in values if not math.isnan(v)]
    if not defined:
        return math.nan
    return sum(defined) / len(defined)


@dataclass(frozen=True)
class EvalReport:
    """Per-query metrics for one run under one qrels, plus their means."""

    run_tag: str
    qrels_name: str
    per_query: tuple[QueryEval, ...]

    @property
    def query_ids(self) -> list[str]:
        return [row.query_id for row in self.per_query]

    def mean_metrics(self) -> dict[str, float]:
        """Arithmetic means keyed by metric; NaN rows drop out."""
        return {
            metric: _mean(row.value(metric) for row in self.per_query)
            for metric in METRICS
        }

    def mean(self, metric: str) -> float:
        return self.mean_metrics()[metric]


def evaluate(
    run: RunList, qrels: Qrels, query_set: Iterable[str] | None = None
) -> EvalReport:
    """Per-query AP/RP/P@10/P@20 for ``run`` under ``qrels``.

    ``query_set`` defaults to the qrels' queries. Queries in the set
    but absent from the run score 0 on every defined metric (one
    aggregated warning). Only ranking order and qrels matter; raw
    scores and run_tag never affect the result.
    """
    queries = sort_query_ids(qrels.query_ids if query_set is None else query_set)
    if not queries:
        raise ValueError("query set must be non-empty")
    missing = sum(1 for query_id in queries if not run.docs(query_id))
    if missing:
        warnings.warn(
            f"{missing} of {len(queries)} queries missing from run "
            f"{run.run_tag!r}; they score 0",
            stacklevel=2,
        )
    rows = []
    for query_id in queries:
        docs = run.docs(query_id)
        relevant = qrels.relevant(query_id)
        rows.append(
            QueryEval(
                query_id,
                ap=average_precision(docs, relevant),
                rp=r_precision(docs, relevant),
                p10=precision_at(docs, relevant, 10),
                p20=precision_at(docs, relevant, 20),
            )
        )
    return EvalReport(run.run_tag, qrels.name, tuple(rows))


def report_csv(report: EvalReport) -> str:
    """Eval report as CSV with a trailing ``__mean__`` row."""
    out = ["query_id,map,rp,p10,p20\n"]
    for row in report.per_query:
        out.append(
            f"{row.query_id},{row.ap:.6f},{row.rp:.6f},{row.p10:.6f},{row.p20:.6f}\n"
        )
    means = report.mean_metrics()
    out.append(
        "__mean__," + ",".join(f"{means[metric]:.6f}" for metric in METRICS) + "\n"
    )
    return "".join(out)


def percent_variance(full_value: float, partial_value: float) -> float:
    """Relative change in percent: 100 * (partial - full) / full."""
    if full_value == 0:
        return math.nan
    return 100.0 * (partial_value - full_value) / full_value


def format_variance(percent: float) -> str:
    """Signed two-decimal rendering, e.g. +3.22% or -31.83%."""
    return f"{percent:+.2f}%"


@dataclass(frozen=True)
class SensitivityRow:
    """One (metric, alternative qrels) cell of a sensitivity table."""

    metric: str
    qrels_name: str
    full_value: float
    partial_value: float
    percent_variance: float

    @property
    def formatted_variance(self) -> str:
        return format_variance(self.percent_variance)


def sensitivity_table(
    run: RunList,
    full: Qrels,
    partials: Sequence[Qrels],
    query_set: Iterable[str] | None = None,
) -> list[SensitivityRow]:
    """Mean-metric shifts when ``run`` is scored under substituted qrels.

    The full qrels' query set is evaluated throughout, so every report
    covers the same topics; the partials are expected (not enforced) to
    be pool-restricted versions of ``full``.
    """
    queries = list(full.query_ids if query_set is None else query_set)
    base = evaluate(run, full, queries).mean_metrics()
    rows: list[SensitivityRow] = []
    for index, partial in enumerate(partials, start=1):
        name = partial.name or f"partial{index}"
        means = evaluate(run, partial, queries).mean_metrics()
        for metric in METRICS:
            rows.append(
                SensitivityRow(
                    metric,
                    name,
                    base[metric],
                    means[metric],
                    percent_variance(base[metric], means[metric]),
                )
            )
    return rows


def sensitivity_csv(rows: Sequence[SensitivityRow]) -> str:
    """Sensitivity rows pivoted to one line per qrels variant.

    Columns pair each metric's mean with its variance against the full
    qrels; the first data line restates the full-qrels means with empty
    variance cells.
    """
    header = "qrels," + ",".join(f"{m},{m}_variance" for m in METRICS) + "\n"
    if not rows:
        return header
    by_name: dict[str, dict[str, SensitivityRow]] = {}
    for row in rows:
        by_name.setdefault(row.qrels_name, {})[row.metric] = row
    first = by_name[next(iter(by_name))]
    if set(first) != set(METRICS):
        raise ValueError("sensitivity rows missing metrics for a qrels variant")
    out = [header]
    full_cells = ["full"]
    for metric in METRICS:
        full_cells.extend([f"{first[metric].full_value:.4f}", ""])
    out.append(",".join(full_cells) + "\n")
    for name, cells in by_name.items():
        if set(cells) != set(METRICS):
            raise ValueError(f"sensitivity rows incomplete for qrels {name!r}")
        out.append(
            f"{name},"
            + ",".join(
                f"{cells[m].partial_value:.4f},{cells[m].formatted_variance}"
                for m in METRICS
            )
            + "\n"
        )
    return "".join(out)
