"""Least-squares training of linear-combination weights.

Each training row is one (query, document) pair: the document's
normalized score under every system plus a binary relevance target.
Solving ordinary least squares over those rows yields an intercept and
one weight per system; the minimized objective is the residual sum of
squares of the affine model over all rows.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .fusion import ScoredList, _candidate_table
from .trec import Qrels, sort_query_ids

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
    scored: Sequence[ScoredList],
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
    query_list = sort_query_ids(queries)
    if not query_list:
        raise ValueError("query set must be non-empty")

    keys: list[tuple[str, str]] = []
    blocks: list[np.ndarray] = []
    targets: list[float] = []
    for query_id in query_list:
        candidates, values, _ = _candidate_table(
            [system.scores.get(query_id, {}) for system in scored]
        )
        keys.extend((query_id, doc_id) for doc_id in candidates)
        blocks.append(values.T)
        targets.extend(1.0 if qrels.grade(query_id, doc_id) > 0 else 0.0 for doc_id in candidates)

    system_order = tuple(system.run_tag for system in scored)
    # C order: solve_ols's BLAS products round differently on an F-ordered matrix.
    scores = np.ascontiguousarray(np.concatenate(blocks))
    return ScoreMatrix(system_order, tuple(keys), scores, np.asarray(targets, dtype=float))


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
    if ridge_epsilon < 0:
        raise ValueError("ridge_epsilon must be >= 0")
    if matrix.num_rows < 1:
        raise ValueError("score matrix has no rows")

    design = matrix.design()
    targets = matrix.targets
    normal = design.T @ design
    condition = float(np.linalg.cond(normal))

    if not np.any(targets):
        return WeightVector(
            matrix.system_order,
            0.0,
            np.zeros(matrix.num_systems),
            rss=0.0,
            condition=condition,
            degenerate=True,
        )

    rhs = design.T @ targets
    ridge_mask = np.ones(matrix.num_systems + 1)
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
        matrix.system_order,
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


def weights_to_csv(weights: WeightVector) -> str:
    """Serialize weights as CSV: per-system rows plus intercept and rss."""
    out = ["system,weight\n"]
    for tag, value in zip(weights.system_order, weights.weights):
        out.append(f"{tag},{float(value)!r}\n")  # repr of builtin float round-trips
    out.append(f"__intercept__,{weights.intercept!r}\n")
    out.append(f"__rss__,{weights.rss!r}\n")
    return "".join(out)


def weights_from_csv(text: str) -> WeightVector:
    """Read back a weights CSV written by :func:`weights_to_csv`."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != "system,weight":
        raise ValueError("weights CSV must start with a 'system,weight' header")
    tags: list[str] = []
    values: list[float] = []
    intercept: float | None = None
    rss = float("nan")
    for line in lines[1:]:
        tag, _, raw = line.partition(",")
        if tag == "__intercept__":
            intercept = float(raw)
        elif tag == "__rss__":
            rss = float(raw)
        else:
            tags.append(tag)
            values.append(float(raw))
    if intercept is None:
        raise ValueError("weights CSV is missing the __intercept__ row")
    return WeightVector(tuple(tags), intercept, np.asarray(values), rss=rss)
