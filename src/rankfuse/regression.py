"""Least-squares training of linear-combination weights.

Each training row is one (query, document) pair: the document's
normalized score under every system plus a binary relevance target.
Solving ordinary least squares over those rows yields an intercept and
one weight per system; the minimized objective is the residual sum of
squares of the affine model over all rows.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .evaluation import _relevance_table
from .fusion import _by_score, _rank_cube
from .trec import _NO_RANKING, Qrels, RunList, _doc_ids, sort_query_ids

RIDGE_FALLBACK = 1e-8
_COND_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """Design rows for weight training.

    ``scores`` is (rows, n_systems) with one column per system in
    ``system_order``; ``targets`` holds the binarized judgments;
    ``keys`` identifies each row as a (query_id, doc_id) pair, unique
    across rows.
    """

    system_order: tuple[str, ...]
    keys: tuple[tuple[str, str], ...]
    scores: np.ndarray
    targets: np.ndarray

    @property
    def num_systems(self) -> int:
        return len(self.system_order)

    @property
    def num_rows(self) -> int:
        return self.scores.shape[0]

    def design(self) -> np.ndarray:
        """Score columns prefixed with an all-ones intercept column."""
        return np.hstack([np.ones((self.num_rows, 1)), self.scores])


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Intercept plus one weight per system, aligned with ``system_order``.

    ``rss`` is the residual sum of squares of this solution on its
    training matrix; ``condition`` is the condition number of the
    normal-equation matrix. ``regularized`` marks a ridge-stabilized
    solve, ``degenerate`` an all-zero-target shortcut.
    """

    system_order: tuple[str, ...]
    intercept: float
    weights: np.ndarray
    rss: float = float("nan")
    condition: float = float("nan")
    regularized: bool = False
    degenerate: bool = False


def assemble_matrix(
    scored: Sequence[RunList],
    qrels: Qrels,
    queries: Iterable[str],
) -> ScoreMatrix:
    """Build the training matrix for a set of normalized runs.

    One row per (query, doc) in the union of docs any system retrieved
    for that query; judged-relevant docs that nobody retrieved get no
    row. A system that did not retrieve a doc scores 0. Targets binarize
    the judgment grade (absent -> 0).
    """
    if not scored:
        raise ValueError("need at least one scored run")
    keys: list[tuple[str, str]] = []
    blocks: list[tuple[np.ndarray, np.ndarray]] = []
    for query_id in sort_query_ids(queries):
        (candidates,), ranks = _rank_cube(scored, [query_id])
        lookups = [_by_score(run.by_query.get(query_id, _NO_RANKING)) for run in scored]
        relevant, _ = _relevance_table(qrels, [query_id], [candidates], ranks.shape[2])
        keys.extend((query_id, doc_id) for doc_id in _doc_ids(candidates))
        design, targets = _training_rows(ranks, lookups, relevant)
        blocks.append((design[:, 1:], targets))
    if not blocks:
        raise ValueError("query set must be non-empty")
    scores, targets = (np.concatenate(parts) for parts in zip(*blocks))
    return ScoreMatrix(tuple(system.run_tag for system in scored), tuple(keys), scores, targets)


def _training_rows(
    ranks: np.ndarray, lookups: Sequence[np.ndarray], relevant: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The design of a rank cube's training rows and their 0/1 targets
    from ``relevant`` (queries x width).

    One row per column some system ranked, in query then column order
    (assemble_matrix's keys): a 1 for the intercept, then lookups[j] of
    system j's rank in column j + 1. It is written in place, so a fold's
    rows are held once. C order, as ScoreMatrix.design() gives it:
    _solve's BLAS products round differently on an F-ordered matrix.
    """
    keep = ranks.any(axis=1)
    design = np.empty((np.count_nonzero(keep), len(lookups) + 1))
    design[:, 0] = 1.0
    for j, lookup in enumerate(lookups, start=1):
        design[:, j] = lookup[ranks[:, j - 1][keep]]
    return design, relevant[keep].astype(float)


def _spd_solve(normal: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    try:
        return cho_solve(cho_factor(normal), rhs)
    except LinAlgError:
        return None


def solve_ols(matrix: ScoreMatrix, ridge_epsilon: float = 0.0) -> WeightVector:
    """Minimize the residual sum of squares over intercept and weights.

    Solves the normal equations with a Cholesky factorization. A
    rank-deficient design (collinear or constant-zero systems) is
    retried with RIDGE_FALLBACK added to the non-intercept diagonal and
    the result is flagged ``regularized``; passing ``ridge_epsilon`` > 0
    applies that ridge up front. All-zero targets short-circuit to a
    zero vector flagged ``degenerate``.
    """
    return _solve(matrix.system_order, matrix.design(), matrix.targets, ridge_epsilon)


def _solve(
    system_order: tuple[str, ...],
    design: np.ndarray,
    targets: np.ndarray,
    ridge_epsilon: float = 0.0,
) -> WeightVector:
    """solve_ols of the rows ``design`` and ``targets``.

    ``design`` is C-ordered, rows x (1 + systems): the intercept's ones
    column, then one column per system, as ScoreMatrix.design() and
    _training_rows give it. It is read as it is, never copied.
    """
    if ridge_epsilon < 0:
        raise ValueError("ridge_epsilon must be >= 0")
    rows, systems = design.shape[0], design.shape[1] - 1
    if rows < 1:
        raise ValueError("score matrix has no rows")

    normal = design.T @ design
    condition = float(np.linalg.cond(normal))

    if not np.any(targets):
        return WeightVector(
            system_order,
            0.0,
            np.zeros(systems),
            rss=0.0,
            condition=condition,
            degenerate=True,
        )

    rhs = design.T @ targets
    ridge_mask = np.ones(systems + 1)
    ridge_mask[0] = 0.0  # intercept stays unpenalized

    epsilon = ridge_epsilon
    if epsilon == 0.0 and (not np.isfinite(condition) or condition > _COND_LIMIT):
        epsilon = RIDGE_FALLBACK
    beta = _spd_solve(normal + epsilon * np.diag(ridge_mask), rhs)
    if beta is None and epsilon == 0.0:
        epsilon = RIDGE_FALLBACK
        beta = _spd_solve(normal + epsilon * np.diag(ridge_mask), rhs)
    if beta is None:
        raise LinAlgError("normal equations are not positive definite even with ridge")

    residuals = targets - design @ beta
    return WeightVector(
        system_order,
        float(beta[0]),
        beta[1:].copy(),
        rss=float(residuals @ residuals),
        condition=condition,
        regularized=epsilon > 0.0,
    )


def objective_g(matrix: ScoreMatrix, candidate: WeightVector) -> float:
    """Sum of squared residuals of ``candidate`` over the matrix rows."""
    if candidate.system_order != matrix.system_order:
        raise ValueError(
            f"candidate systems {candidate.system_order} do not match "
            f"matrix systems {matrix.system_order}"
        )
    if len(candidate.weights) != matrix.num_systems:
        raise ValueError("weight vector length does not match the matrix")
    predictions = candidate.intercept + matrix.scores @ candidate.weights
    residuals = matrix.targets - predictions
    return float(residuals @ residuals)


def _fit_warning(subject: str, weights: WeightVector) -> str | None:
    """``subject (n systems): problem`` for degenerate or ridge-regularized
    weights, else None."""
    if weights.degenerate:
        problem = (
            "no training label is relevant; the weights are all zero and fuse in doc-id order"
        )
    elif weights.regularized:
        problem = f"the design is rank-deficient; solved with a ridge of {RIDGE_FALLBACK}"
    else:
        return None
    return f"{subject} ({len(weights.system_order)} systems): {problem}"


def weights_to_csv(weights: WeightVector) -> str:
    """Serialize weights as CSV: per-system rows plus intercept and rss.

    Raises ValueError for whatever weights_from_csv would not read back
    as written: a reserved, repeated or multi-line system tag, a weight
    count that differs from the tag count, a non-finite weight or
    intercept, or an infinite rss.
    """
    tags = weights.system_order
    if len(weights.weights) != len(tags):
        raise ValueError(f"{len(weights.weights)} weights for {len(tags)} systems")
    for tag in tags:
        if tag in ("__intercept__", "__rss__"):
            raise ValueError(f"system tag {tag!r} is reserved in the weights CSV")
        if len(f"{tag},".splitlines()) > 1:
            raise ValueError(f"system tag {tag!r} contains a line break")
    if len(set(tags)) != len(tags):
        raise ValueError(f"system tags {tags} repeat a tag")
    values = map(float, (*weights.weights, weights.intercept))
    rows = list(zip((*tags, "__intercept__"), values))
    for tag, value in rows:
        if not math.isfinite(value):
            raise ValueError(f"weight {value!r} of {tag!r} is not finite")
    rss = float(weights.rss)
    if math.isinf(rss):
        raise ValueError(f"rss {rss!r} is not finite")
    out = ["system,weight\n"]
    # repr of a builtin float round-trips
    out.extend(f"{tag},{value!r}\n" for tag, value in rows)
    out.append(f"__rss__,{rss!r}\n")
    return "".join(out)


def weights_from_csv(text: str) -> WeightVector:
    """Read back a weights CSV written by :func:`weights_to_csv`.

    The weight is split off at the last comma, since a run tag may
    itself contain commas. A row without a comma, with a non-numeric or
    non-finite weight (only ``__rss__`` may be nan), or repeating an
    earlier row's tag raises ValueError naming its line.
    """
    rows = [(line_no, line) for line_no, line in enumerate(text.splitlines(), start=1)
            if line.strip()]
    if not rows or rows[0][1] != "system,weight":
        raise ValueError("weights CSV must start with a 'system,weight' header")
    values: dict[str, float] = {}
    for line_no, line in rows[1:]:
        tag, comma, raw = line.rpartition(",")
        if not comma:
            raise ValueError(f"line {line_no}: expected 'system,weight', got {line!r}")
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(f"line {line_no}: weight {raw!r} is not a number") from None
        if not (math.isfinite(value) or (tag == "__rss__" and math.isnan(value))):
            raise ValueError(f"line {line_no}: weight {raw!r} is not finite")
        if tag in values:
            raise ValueError(f"line {line_no}: repeats the row of {tag!r}")
        values[tag] = value
    if "__intercept__" not in values:
        raise ValueError("weights CSV is missing the __intercept__ row")
    intercept = values.pop("__intercept__")
    rss = values.pop("__rss__", float("nan"))
    return WeightVector(tuple(values), intercept, np.asarray(list(values.values())), rss=rss)
