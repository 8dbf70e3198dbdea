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
from collections.abc import Collection, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from ._warn import warn
from .trec import _NO_RANKING, Qrels, RunList, _among, _known_codes, sort_query_ids

METRICS = ("map", "rp", "p10", "p20")
_CUTOFFS = (10, 20)  # the P@k of METRICS


def _metrics(
    relevant: np.ndarray, relevant_counts: Sequence[int], cutoffs: Sequence[int] = _CUTOFFS
) -> tuple[list[float], ...]:
    """AP, RP and P@k for each cutoff, one value per ranking, as lists.

    Every metric in the package is computed here. ``relevant`` is a
    rankings x positions bool array: whether the doc at each position is
    relevant, False past a ranking's end. ``relevant_counts`` holds each
    ranking's R(q); AP and RP are NaN where it is 0. A ranking shorter
    than R(q) or a cutoff keeps that denominator. The AP numerator is a
    cumsum of precision at the relevant positions and 0.0 elsewhere: it
    adds left to right, as a loop over the ranking would, and adding 0.0
    to a non-negative sum changes no bit (a sum would add pairwise).
    """
    rankings, width = relevant.shape
    found = np.zeros((rankings, width + 1), dtype=np.intp)  # [:, k]: relevant in the top k
    np.cumsum(relevant, axis=1, out=found[:, 1:])
    gains = np.zeros((rankings, width + 1))
    gains[:, 1:] = np.where(relevant, found[:, 1:] / np.arange(1, width + 1), 0.0)
    counts = np.asarray(relevant_counts, dtype=np.intp)
    every = np.arange(rankings)

    def found_in_top(cutoff: np.ndarray | int) -> np.ndarray:
        return found[every, np.minimum(cutoff, width)]

    def per_relevant(numerator: np.ndarray) -> list[float]:
        return np.divide(
            numerator, counts, out=np.full(rankings, math.nan), where=counts > 0
        ).tolist()

    ap = per_relevant(np.cumsum(gains, axis=1)[:, -1])
    rp = per_relevant(found_in_top(counts))
    return (ap, rp, *((found_in_top(k) / k).tolist() for k in cutoffs))


def _relevance_table(
    qrels: Qrels, query_ids: Sequence[str], codes: Sequence[np.ndarray], width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Whether each doc of codes[i] (doc codes) is relevant to query_ids[i]
    under ``qrels``, as a queries x width bool table (False past codes[i]),
    and each query's R(q). evaluate, assemble_matrix and the harness all
    fill their tables here: each query's relevant ids are looked up in the
    doc-id table once, and its codes tested against theirs."""
    table = np.zeros((len(query_ids), width), dtype=bool)
    counts = np.zeros(len(query_ids), dtype=np.intp)
    for row, (query_id, ranked) in enumerate(zip(query_ids, codes)):
        relevant = qrels.relevant(query_id)
        table[row, : len(ranked)] = _among(ranked, _known_codes(relevant))
        counts[row] = len(relevant)
    return table, counts


def _one_ranking(
    ranked_docs: Sequence[str], relevant: Collection[str], cutoffs: Sequence[int] = ()
) -> tuple[float, ...]:
    """_metrics of a single ranking."""
    mask = np.fromiter(map(relevant.__contains__, ranked_docs), dtype=bool, count=len(ranked_docs))
    return tuple(values[0] for values in _metrics(mask[None, :], [len(relevant)], cutoffs))


def average_precision(ranked_docs: Sequence[str], relevant: Collection[str]) -> float:
    """AP = (sum of precision@r over relevant retrieved ranks r) / R(q).

    Relevant docs never retrieved contribute nothing to the numerator
    but stay in the denominator. R(q) = 0 returns NaN (undefined for
    the query).
    """
    return _one_ranking(ranked_docs, relevant)[0]


def r_precision(ranked_docs: Sequence[str], relevant: Collection[str]) -> float:
    """Precision among the top R(q) ranked docs; NaN when R(q) = 0.

    A list shorter than R(q) keeps the R(q) denominator, so missing
    tail docs count as non-relevant.
    """
    return _one_ranking(ranked_docs, relevant)[1]


def precision_at(
    ranked_docs: Sequence[str], relevant: Collection[str], cutoff: int
) -> float:
    """Fraction of relevant docs among the top ``cutoff`` positions.

    The denominator is always ``cutoff``; lists shorter than the cutoff
    are padded conceptually with non-relevant docs.
    """
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    return _one_ranking(ranked_docs, relevant, (cutoff,))[2]


# QueryEval field of each metric
_FIELDS = {"map": "ap", "rp": "rp", "p10": "p10", "p20": "p20"}


@dataclass(frozen=True)
class QueryEval:
    """Metric values for one query; ap/rp are NaN when R(q) = 0."""

    query_id: str
    ap: float
    rp: float
    p10: float
    p20: float

    def value(self, metric: str) -> float:
        return getattr(self, _FIELDS[metric])


def _mean(values: Iterable[float]) -> float:
    defined = [v for v in values if not math.isnan(v)]
    if not defined:
        return math.nan
    return sum(defined) / len(defined)


def _means(values: Iterable[Iterable[float]]) -> dict[str, float]:
    """Each metric's mean, keyed by METRICS: ``values`` holds one sequence
    of per-query values per metric, in METRICS order. Every mean in the
    package (a report's, a compare row's) is taken here: NaN values drop
    out, and sum() adds the rest in query order."""
    return dict(zip(METRICS, map(_mean, values)))


@dataclass(frozen=True)
class EvalReport:
    """Per-query metrics for one run under one qrels, plus their means."""

    run_tag: str
    qrels_name: str
    per_query: tuple[QueryEval, ...]

    def mean_metrics(self) -> dict[str, float]:
        """Arithmetic means keyed by metric (_means); NaN rows drop out."""
        return _means([row.value(metric) for row in self.per_query] for metric in METRICS)

    def mean(self, metric: str) -> float:
        return self.mean_metrics()[metric]


def _checked_metrics(
    run_tag: str,
    query_ids: Sequence[str],
    relevant: np.ndarray,
    relevant_counts: Sequence[int],
    missing: int,
) -> tuple[list[float], ...]:
    """_metrics(relevant, relevant_counts) for ``query_ids``.

    ``missing`` queries have an empty ranking: one aggregated warning. An
    empty ``query_ids`` raises ValueError, so no mean is a mean of nothing.
    """
    if not query_ids:
        raise ValueError("query set must be non-empty")
    if missing:
        warn(f"{missing} of {len(query_ids)} queries missing from run {run_tag!r}; they score 0")
    return _metrics(relevant, relevant_counts)


def _report(
    run_tag: str, qrels_name: str, query_ids: Sequence[str], values: Sequence[Sequence[float]]
) -> EvalReport:
    """The EvalReport of _checked_metrics' ``values`` for ``query_ids``."""
    return EvalReport(run_tag, qrels_name, tuple(map(QueryEval, query_ids, *values)))


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
    rankings = [run.by_query.get(query_id, _NO_RANKING).codes for query_id in queries]
    mask, counts = _relevance_table(qrels, queries, rankings, max(map(len, rankings), default=0))
    missing = sum(1 for codes in rankings if not codes.size)
    values = _checked_metrics(run.run_tag, queries, mask, counts, missing)
    return _report(run.run_tag, qrels.name, queries, values)


def report_csv(report: EvalReport) -> str:
    """Eval report as CSV with a trailing ``__mean__`` row."""
    out = ["query_id," + ",".join(METRICS) + "\n"]
    for row in report.per_query:
        out.append(f"{row.query_id}," + ",".join(f"{row.value(m):.6f}" for m in METRICS) + "\n")
    means = report.mean_metrics()
    out.append("__mean__," + ",".join(f"{means[m]:.6f}" for m in METRICS) + "\n")
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
) -> list[SensitivityRow]:
    """Mean-metric shifts when ``run`` is scored under substituted qrels.

    The full qrels' query set is evaluated throughout, so every report
    covers the same topics; the partials are expected (not enforced) to
    be pool-restricted versions of ``full``. A partial is named by its
    ``name``, else ``partial<i>`` (1-based); a name that repeats an
    earlier one, or ``full``, the label of sensitivity_csv's full-qrels
    row, raises ValueError, since sensitivity_csv keys its rows by name.
    So does a name holding a comma, a double quote, CR or LF, which
    sensitivity_csv, writing names as they are, would split into cells
    or rows.
    """
    names = [partial.name or f"partial{index}" for index, partial in enumerate(partials, start=1)]
    for index, name in enumerate(names):
        if name in names[:index]:
            raise ValueError(f"partial qrels name {name!r} repeats; each partial needs its own")
        if name == "full":
            raise ValueError("partial qrels name 'full' labels the full qrels row; rename it")
        if any(c in name for c in ',"\r\n'):
            raise ValueError(
                f"partial qrels name {name!r} holds a comma, quote or line break, "
                "which the sensitivity CSV cannot hold; rename it"
            )
    queries = full.query_ids
    base = evaluate(run, full, queries).mean_metrics()
    rows: list[SensitivityRow] = []
    for name, partial in zip(names, partials):
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
