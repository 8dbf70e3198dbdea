"""Least-squares weight training against independent oracles.

The oracle here is deliberately primitive: build the normal equations
with plain Python arithmetic and solve them by Gaussian elimination
with partial pivoting, no numpy/scipy linear algebra involved.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankfuse.fusion import normalize_reciprocal
from rankfuse.regression import (
    ScoreMatrix,
    WeightVector,
    assemble_matrix,
    objective_g,
    solve_ols,
    weights_from_csv,
    weights_to_csv,
)
from rankfuse.trec import Qrels, RunList


def gaussian_solve(a, b):
    """Solve a @ x = b on plain lists, partial pivoting."""
    n = len(b)
    m = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(m[r][col]))
        if abs(m[pivot][col]) == 0.0:
            raise ZeroDivisionError("singular")
        m[col], m[pivot] = m[pivot], m[col]
        for row in range(col + 1, n):
            factor = m[row][col] / m[col][col]
            for k in range(col, n + 1):
                m[row][k] -= factor * m[col][k]
    x = [0.0] * n
    for row in range(n - 1, -1, -1):
        acc = m[row][n] - sum(m[row][k] * x[k] for k in range(row + 1, n))
        x[row] = acc / m[row][row]
    return x


def ols_oracle(scores, targets):
    """Normal equations assembled with math.fsum; returns [b0, b1, ...]."""
    rows = [[1.0] + list(map(float, row)) for row in scores]
    n = len(rows[0])
    xtx = [[math.fsum(r[i] * r[j] for r in rows) for j in range(n)] for i in range(n)]
    xty = [math.fsum(r[i] * t for r, t in zip(rows, targets)) for i in range(n)]
    return gaussian_solve(xtx, xty)


def _matrix(scores, targets, tags=None):
    scores = np.asarray(scores, dtype=float)
    tags = tuple(tags or (f"s{j}" for j in range(scores.shape[1])))
    keys = tuple(("q", f"d{i}") for i in range(scores.shape[0]))
    return ScoreMatrix(tags, keys, scores, np.asarray(targets, dtype=float))


def test_assemble_matrix_reciprocal_rows():
    """run1 retrieves {a@1, b@2}, run2 retrieves {b@1}; qrels marks a
    relevant: rows (q,a,[1/61,0],1) and (q,b,[1/62,1/61],0)."""
    run1 = RunList.from_scores("r1", {"q": {"a": 2.0, "b": 1.0}})
    run2 = RunList.from_scores("r2", {"q": {"b": 5.0}})
    scored = [normalize_reciprocal(run1), normalize_reciprocal(run2)]
    matrix = assemble_matrix(scored, Qrels({"q": {"a": 1}}), ["q"])
    assert matrix.system_order == ("r1", "r2")
    assert matrix.keys == (("q", "a"), ("q", "b"))
    np.testing.assert_allclose(
        matrix.scores, [[1 / 61, 0.0], [1 / 62, 1 / 61]], rtol=0, atol=0
    )
    np.testing.assert_allclose(matrix.targets, [1.0, 0.0])


def test_assemble_matrix_unretrieved_relevant_excluded_by_default():
    run = RunList.from_scores("r", {"q": {"a": 1.0}})
    qrels = Qrels({"q": {"a": 1, "ghost": 1}})
    matrix = assemble_matrix([normalize_reciprocal(run)], qrels, ["q"])
    assert matrix.keys == (("q", "a"),)


def test_assemble_matrix_row_count_adds_over_queries():
    run1 = RunList.from_scores("r1", {"1": {"a": 2.0, "b": 1.0}, "2": {"c": 1.0}})
    run2 = RunList.from_scores("r2", {"1": {"a": 1.0}, "2": {"d": 2.0, "c": 1.0}})
    scored = [normalize_reciprocal(run1), normalize_reciprocal(run2)]
    matrix = assemble_matrix(scored, Qrels({}), ["1", "2"])
    assert matrix.num_rows == 2 + 2


def test_assemble_matrix_stacks_a_repeated_query_once():
    run1 = RunList.from_scores("r1", {"1": {"a": 2.0, "b": 1.0}, "2": {"c": 1.0}})
    scored = [normalize_reciprocal(run1)]
    qrels = Qrels({"1": {"a": 1}, "2": {"c": 1}})
    once = assemble_matrix(scored, qrels, ["1", "2"])
    twice = assemble_matrix(scored, qrels, ["2", "1", "1", "2"])
    assert twice.keys == once.keys == (("1", "a"), ("1", "b"), ("2", "c"))
    assert twice.scores.tobytes() == once.scores.tobytes()


def test_assemble_matrix_validates():
    run = RunList.from_scores("r", {"q": {"a": 1.0}})
    with pytest.raises(ValueError):
        assemble_matrix([], Qrels({}), ["q"])
    with pytest.raises(ValueError):
        assemble_matrix([normalize_reciprocal(run)], Qrels({}), [])


def test_solve_two_point_exact_fit():
    # scores [1],[2] with targets 1,3 interpolate exactly: 1 = b0 + b1,
    # 3 = b0 + 2 b1 -> intercept -1, weight 2
    w = solve_ols(_matrix([[1.0], [2.0]], [1.0, 3.0]))
    assert w.intercept == pytest.approx(-1.0, abs=1e-12)
    assert w.weights[0] == pytest.approx(2.0, abs=1e-12)
    assert w.rss == pytest.approx(0.0, abs=1e-12)
    assert not w.regularized and not w.degenerate


def test_solve_univariate_closed_form():
    """scores [1],[2],[3], targets 1,2,2: slope = cov/var = 1/2,
    intercept = mean(y) - slope*mean(x) = 5/3 - 3/2*... = 2/3."""
    xs, ys = [1.0, 2.0, 3.0], [1.0, 2.0, 2.0]
    mx, my = sum(xs) / 3, sum(ys) / 3
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    intercept = my - slope * mx
    assert (slope, intercept) == (0.5, pytest.approx(2 / 3))

    w = solve_ols(_matrix([[x] for x in xs], ys))
    assert w.weights[0] == pytest.approx(0.5, abs=1e-12)
    assert w.intercept == pytest.approx(2 / 3, abs=1e-12)

    # grid refinement around the optimum cannot find anything better
    matrix = _matrix([[x] for x in xs], ys)
    best = objective_g(matrix, w)
    for db in np.linspace(-0.05, 0.05, 21):
        for dw in np.linspace(-0.05, 0.05, 21):
            candidate = WeightVector(w.system_order, w.intercept + db, w.weights + dw)
            assert objective_g(matrix, candidate) >= best - 1e-12


def test_solve_exact_fit_identifiability():
    # targets equal system 1's scores; an independent system gets weight 0
    rng = np.random.default_rng(1)
    s1 = rng.uniform(0.01, 1.0, size=30)
    s2 = rng.uniform(0.01, 1.0, size=30)
    w = solve_ols(_matrix(np.column_stack([s1, s2]), s1))
    assert w.intercept == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(w.weights, [1.0, 0.0], atol=1e-9)


def test_solve_matches_gaussian_elimination_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        rows = int(rng.integers(5, 101))
        scores = rng.uniform(0.0, 1.0, size=(rows, n))
        targets = (rng.random(rows) < 0.4).astype(float)
        if not targets.any():
            targets[int(rng.integers(rows))] = 1.0
        w = solve_ols(_matrix(scores, targets))
        expected = ols_oracle(scores.tolist(), targets.tolist())
        np.testing.assert_allclose(
            [w.intercept, *w.weights], expected, rtol=0, atol=1e-9
        )


def test_solve_gradient_vanishes():
    rng = np.random.default_rng(77)
    for _ in range(30):
        scores = rng.uniform(size=(40, 3))
        targets = (rng.random(40) < 0.5).astype(float)
        matrix = _matrix(scores, targets)
        w = solve_ols(matrix)
        design = matrix.design()
        beta = np.concatenate([[w.intercept], w.weights])
        gradient = -2.0 * design.T @ (matrix.targets - design @ beta)
        scale = max(1.0, float(np.linalg.norm(2.0 * design.T @ matrix.targets)))
        assert np.linalg.norm(gradient) / scale < 1e-8


def test_solve_all_zero_targets_degenerate():
    w = solve_ols(_matrix([[0.3], [0.5]], [0.0, 0.0]))
    assert w.degenerate
    assert w.intercept == 0.0
    np.testing.assert_allclose(w.weights, [0.0])
    assert w.rss == 0.0


def test_solve_collinear_columns_regularized():
    # second column is an exact copy: rank-deficient, ridge fallback
    s = np.array([[0.1, 0.1], [0.2, 0.2], [0.3, 0.3], [0.4, 0.4]])
    w = solve_ols(_matrix(s, [0.0, 1.0, 0.0, 1.0]))
    assert w.regularized
    # symmetric problem: the duplicated systems share the weight
    assert w.weights[0] == pytest.approx(w.weights[1], rel=1e-6)
    assert np.isfinite(w.rss)


def test_solve_constant_zero_column_regularized():
    s = np.array([[0.5, 0.0], [0.25, 0.0], [0.125, 0.0]])
    w = solve_ols(_matrix(s, [1.0, 0.0, 1.0]))
    assert w.regularized
    assert abs(w.weights[1]) < 1e-6


def test_solve_validates():
    with pytest.raises(ValueError):
        solve_ols(_matrix([[1.0]], [1.0]), ridge_epsilon=-1e-3)
    with pytest.raises(ValueError):
        solve_ols(_matrix(np.zeros((0, 1)), []))


def test_objective_zero_candidate_counts_ones():
    matrix = _matrix([[0.2], [0.4], [0.6]], [1.0, 0.0, 1.0])
    zero = WeightVector(matrix.system_order, 0.0, np.zeros(1))
    assert objective_g(matrix, zero) == 2.0


def test_objective_equals_recorded_rss():
    rng = np.random.default_rng(5)
    for _ in range(10):
        scores = rng.uniform(size=(25, 2))
        targets = (rng.random(25) < 0.5).astype(float)
        matrix = _matrix(scores, targets)
        w = solve_ols(matrix)
        assert objective_g(matrix, w) == pytest.approx(w.rss, rel=1e-10, abs=1e-12)


def test_objective_dimension_mismatch():
    matrix = _matrix([[0.2, 0.1]], [1.0], tags=("a", "b"))
    wrong_order = WeightVector(("b", "a"), 0.0, np.zeros(2))
    with pytest.raises(ValueError):
        objective_g(matrix, wrong_order)
    wrong_len = WeightVector(("a", "b"), 0.0, np.zeros(3))
    with pytest.raises(ValueError):
        objective_g(matrix, wrong_len)


def test_random_perturbations_never_beat_solution():
    rng = np.random.default_rng(8)
    scores = rng.uniform(size=(50, 3))
    targets = (rng.random(50) < 0.5).astype(float)
    matrix = _matrix(scores, targets)
    w = solve_ols(matrix)
    best = objective_g(matrix, w)
    for _ in range(1000):
        delta = rng.normal(scale=1e-3, size=4)
        candidate = WeightVector(
            w.system_order, w.intercept + delta[0], w.weights + delta[1:]
        )
        assert objective_g(matrix, candidate) >= best - 1e-12


def test_permutation_equivariance():
    rng = np.random.default_rng(21)
    scores = rng.uniform(size=(30, 3))
    targets = (rng.random(30) < 0.5).astype(float)
    w = solve_ols(_matrix(scores, targets, tags=("a", "b", "c")))
    perm = [2, 0, 1]
    w_perm = solve_ols(_matrix(scores[:, perm], targets, tags=("c", "a", "b")))
    np.testing.assert_allclose(w_perm.weights, w.weights[perm], atol=1e-10)
    assert w_perm.intercept == pytest.approx(w.intercept, abs=1e-10)
    assert w_perm.rss == pytest.approx(w.rss, rel=1e-10)


def test_scale_equivariance():
    rng = np.random.default_rng(22)
    scores = rng.uniform(size=(30, 2))
    targets = (rng.random(30) < 0.5).astype(float)
    w = solve_ols(_matrix(scores, targets))
    scaled = scores.copy()
    scaled[:, 0] *= 4.0
    w_scaled = solve_ols(_matrix(scaled, targets))
    assert w_scaled.weights[0] == pytest.approx(w.weights[0] / 4.0, abs=1e-9)
    assert w_scaled.weights[1] == pytest.approx(w.weights[1], abs=1e-9)
    assert w_scaled.rss == pytest.approx(w.rss, rel=1e-9)


def test_weights_csv_round_trip():
    rng = np.random.default_rng(33)
    w = solve_ols(_matrix(rng.uniform(size=(20, 3)), (rng.random(20) < 0.5).astype(float),
                          tags=("sysA", "sysB", "sysC")))
    text = weights_to_csv(w)
    assert text.startswith("system,weight\n")
    assert "__intercept__," in text and "__rss__," in text
    back = weights_from_csv(text)
    assert back.system_order == w.system_order
    np.testing.assert_allclose(back.weights, w.weights, rtol=0, atol=0)
    assert back.intercept == w.intercept
    assert back.rss == w.rss


def test_weights_csv_rejects_garbage():
    with pytest.raises(ValueError):
        weights_from_csv("not,a,weights,file\n")
    with pytest.raises(ValueError):
        weights_from_csv("system,weight\na,1.0\n")  # no intercept row


def test_assemble_matrix_equals_a_per_doc_loop_exactly():
    rng = np.random.default_rng(41)
    runs = []
    for r in range(6):
        scores = {}
        for q in ("1", "2", "3", "4", "5"):
            if rng.random() < 0.2:
                continue
            picks = rng.permutation(25)[: rng.integers(1, 12)]
            scores[q] = {f"D{i:02d}": float(rng.integers(1, 40)) for i in picks}
        runs.append(RunList.from_scores(f"s{r}", scores))
    scored = [normalize_reciprocal(run, 3.7) for run in runs]
    qrels = Qrels({q: {f"D{i:02d}": int(rng.integers(0, 3)) for i in range(25)} for q in "1234"})
    queries = ["5", "3", "1", "2", "4", "6"]  # "6" is retrieved by no system

    values = [{q: {e.doc_id: e.raw_score for e in s.entries(q)} for q in s.query_ids}
              for s in scored]
    keys, rows, targets = [], [], []
    for q in sorted(queries, key=int):
        union = {d for per_query in values for d in per_query.get(q, {})}
        for d in sorted(union):
            keys.append((q, d))
            rows.append([per_query.get(q, {}).get(d, 0.0) for per_query in values])
            targets.append(1.0 if qrels.grade(q, d) > 0 else 0.0)

    matrix = assemble_matrix(scored, qrels, queries)
    assert matrix.keys == tuple(keys)
    assert matrix.scores.tolist() == rows
    assert matrix.targets.tolist() == targets
    assert matrix.scores.shape == (len(rows), 6)
    # solve_ols's BLAS products round differently on an F-ordered matrix;
    # an empty query block alone would make numpy pick C order
    assert matrix.scores.flags.c_contiguous
    assert assemble_matrix(scored, qrels, ["1", "2"]).scores.flags.c_contiguous


def test_weights_csv_round_trips_a_run_tag_with_commas():
    w = WeightVector(("a,b", "c,,d", "plain"), -0.25, np.array([0.5, 1e-300, -3.0]), rss=1.5)
    back = weights_from_csv(weights_to_csv(w))
    assert back.system_order == w.system_order
    assert back.weights.tolist() == w.weights.tolist()
    assert back.intercept == w.intercept
    assert back.rss == w.rss


def test_weights_csv_bad_value_names_its_line():
    text = "system,weight\n\nsysA,0.5\nsysB,heavy\n__intercept__,0.0\n"
    with pytest.raises(ValueError, match=r"line 4: weight 'heavy' is not a number"):
        weights_from_csv(text)
    with pytest.raises(ValueError, match="line 2: expected 'system,weight'"):
        weights_from_csv("system,weight\nsysA\n__intercept__,0.0\n")


def test_weights_csv_rejects_a_repeated_row():
    with pytest.raises(ValueError, match=r"line 4: repeats the row of 'sysA'"):
        weights_from_csv("system,weight\nsysA,0.5\nsysB,0.25\nsysA,0.5\n__intercept__,0.0\n")
    with pytest.raises(ValueError, match=r"line 4: repeats the row of '__intercept__'"):
        weights_from_csv("system,weight\nsysA,0.5\n__intercept__,0.0\n__intercept__,1.0\n")


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_weights_csv_rejects_a_non_finite_weight_or_intercept(raw):
    with pytest.raises(ValueError, match=f"line 2: weight '{raw}' is not finite"):
        weights_from_csv(f"system,weight\nsysA,{raw}\n__intercept__,0.0\n")
    with pytest.raises(ValueError, match=f"line 3: weight '{raw}' is not finite"):
        weights_from_csv(f"system,weight\nsysA,0.5\n__intercept__,{raw}\n")


def test_weights_csv_keeps_a_nan_rss():
    text = weights_to_csv(WeightVector(("sysA",), 0.25, np.array([0.5])))
    assert text.endswith("__rss__,nan\n")
    back = weights_from_csv(text)
    assert back.system_order == ("sysA",)
    assert math.isnan(back.rss)
    with pytest.raises(ValueError, match="line 4: weight 'inf' is not finite"):
        weights_from_csv("system,weight\nsysA,0.5\n__intercept__,0.0\n__rss__,inf\n")


@pytest.mark.parametrize("tag", ["__intercept__", "__rss__"])
def test_weights_csv_refuses_a_reserved_system_tag(tag):
    w = WeightVector(("sysA", tag), 0.0, np.array([0.5, 0.25]))
    with pytest.raises(ValueError, match=f"system tag '{tag}' is reserved"):
        weights_to_csv(w)


def test_weights_csv_refuses_a_weight_count_that_differs_from_the_tags():
    with pytest.raises(ValueError, match="1 weights for 2 systems"):
        weights_to_csv(WeightVector(("a", "b"), 0.0, np.array([0.5])))


_CSV_TAG = st.one_of(
    st.sampled_from(["a", "b", "a,b", "", "system", "__intercept__", "__rss__"]),
    st.sampled_from(["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                     "\u2028", "\u2029", "\t", " "]).map(lambda brk: f"x{brk}y"),
    st.text(max_size=4),
)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.tuples(_CSV_TAG, st.floats()), max_size=4), st.floats(), st.floats())
def test_weights_csv_writes_only_what_it_reads_back(rows, intercept, rss):
    """weights_to_csv raises ValueError, or the CSV reads back bit-equal."""
    tags = tuple(tag for tag, _ in rows)
    weights = np.array([value for _, value in rows], dtype=float)
    try:
        text = weights_to_csv(WeightVector(tags, intercept, weights, rss=rss))
    except ValueError:
        return
    back = weights_from_csv(text)
    assert back.system_order == tags
    assert back.weights.tobytes() == weights.tobytes()
    assert back.intercept.hex() == intercept.hex()
    assert back.rss == rss or (math.isnan(back.rss) and math.isnan(rss))
