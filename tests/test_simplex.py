import functools
import itertools
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from railflow import simplex
from railflow.checks import FEASIBILITY
from railflow.model import CAPACITY_MODES, LinearConstraint, ModelError
from railflow.simplex import (
    INFEASIBLE,
    ITERATION_LIMIT,
    NUMERICS,
    OPTIMAL,
    UNBOUNDED,
    InfeasibleModel,
    LpSolution,
    _solve_sparse_basis,
    StandardFormLP,
    Tolerances,
    build_standard_form,
    solve_face_lp,
    solve_held_lp,
    solve_lp,
    solve_model_lp,
)
from support import rebuilt, synthetic_model

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import synth  # noqa: E402


def raw_lp(c, A, b, relations=None):
    """StandardFormLP for min c.x s.t. A x (rel) b, x >= 0."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float).reshape(len(b), len(c))
    n = len(c)
    rows, cols = np.nonzero(A)
    return StandardFormLP(
        c=c,
        rows=rows,
        cols=cols,
        vals=A[rows, cols],
        relations=tuple(relations or ("<=",) * len(b)),
        b=np.asarray(b, dtype=float),
        objective_constant=0.0,
        offset=np.zeros(n),
        pos_col=np.arange(n),
    )


def dense(sf):
    """The constraint matrix of a StandardFormLP as a dense array."""
    A = np.zeros((sf.n_rows, sf.n_cols))
    np.add.at(A, (sf.rows, sf.cols), sf.vals)
    return A


def reference_standard_form(model, bounds=None):
    """Row-by-row conversion with a dense A: the reference build_standard_form must match.

    Returns (c, A, relations, b, constant, offset, pos_col).
    """
    n_vars = len(model.variables)
    lo = np.array([v.lb for v in model.variables], dtype=float)
    hi = np.array([v.ub for v in model.variables], dtype=float)
    for idx, (lower, upper) in (bounds or {}).items():
        lo[idx], hi[idx] = max(lo[idx], lower), min(hi[idx], upper)
    if np.any(lo > hi + 1e-9):
        raise InfeasibleModel("conflicting bounds")
    fixed = [hi[i] - lo[i] <= 1e-12 for i in range(n_vars)]
    offset = lo.copy()
    pos_col = np.full(n_vars, -1)
    c, ub_rows, constant = [], [], 0.0
    for i in range(n_vars):
        coef = model.objective.get(i, 0.0)
        constant += coef * lo[i]
        if fixed[i]:
            continue
        pos_col[i] = len(c)
        c.append(coef)
        if np.isfinite(hi[i]):
            ub_rows.append((((pos_col[i], 1.0),), "<=", hi[i] - lo[i]))
    rows = []
    for row in model.constraints:
        terms, rhs = [], row.rhs
        for idx, coef in row.terms:
            rhs -= coef * offset[idx]
            if not fixed[idx]:
                terms.append((pos_col[idx], coef))
        violated = {"=": abs(rhs) > 1e-9, "<=": rhs < -1e-9, ">=": rhs > 1e-9}[row.relation]
        if terms:
            rows.append((terms, row.relation, rhs))
        elif violated:
            raise InfeasibleModel(f"constraint {row.name} is violated by fixed variables")
    rows += ub_rows
    A = np.zeros((len(rows), len(c)))
    for k, (terms, _, _) in enumerate(rows):
        for col, coef in terms:
            A[k, col] += coef
    relations = tuple(r[1] for r in rows)
    b = np.array([r[2] for r in rows], dtype=float)
    return np.array(c, dtype=float), A, relations, b, constant, offset, pos_col


def assert_matches_reference(model, bounds=None):
    try:
        expected = reference_standard_form(model, bounds)
    except InfeasibleModel:
        with pytest.raises(InfeasibleModel):
            build_standard_form(model, bounds)
        return
    sf = build_standard_form(model, bounds)
    c, A, relations, b, constant, offset, pos_col = expected
    assert sf.relations == relations
    assert np.array_equal(sf.rows, np.nonzero(A)[0]) and np.array_equal(sf.cols, np.nonzero(A)[1])
    for got, want in zip((sf.c, dense(sf), sf.offset, sf.pos_col), (c, A, offset, pos_col)):
        assert np.array_equal(got, want)
    # right-hand sides and the constant sum the same terms in another order
    np.testing.assert_allclose(sf.b, b, rtol=1e-12, atol=1e-12)
    assert sf.objective_constant == pytest.approx(constant, rel=1e-12, abs=1e-12)


def crash_picks(sf):
    """The (row, column) picks of the triangular crash (simplex._crash_levels), level by level.

    Pivoting them in one at a time in this order gives, bit for bit, the
    tableau that Tableau.crash forms one level at a time.
    """
    return [pick for level in simplex._crash_levels(sf) for pick in level]


def reference_solve_lp(sf, tol=None):
    """solve_lp as it was before pivots worked on nonzeros only: the reference.

    Every iteration makes whole-column and whole-row passes over the tableau;
    solve_lp must take the same pivots and return the same bits.  The crash
    picks (crash_picks) are replayed through this pivot one at a
    time, in their returned order, which Tableau.crash applies level by level,
    and then perturbed as Tableau.perturb does.  An OPTIMAL result's tableau
    is a namespace whose rhs is the right-hand side that Tableau.finish
    writes back after a perturbed solve (None when nothing was perturbed).
    """
    if tol is None:
        tol = Tolerances()
    m, n = sf.n_rows, sf.n_cols

    if n == 0:
        return LpSolution(OPTIMAL, sf.objective_constant, np.zeros(0), 0, sf.objective_constant)
    if m == 0:
        if np.any(sf.c < -simplex.PIVOT):
            return LpSolution(UNBOUNDED, None, None, 0)
        return LpSolution(OPTIMAL, sf.objective_constant, np.zeros(n), 0, sf.objective_constant)

    # Orient every row with a nonnegative right-hand side; <= rows get a
    # slack column, = and >= rows start from a logical artificial.
    sign = np.where(sf.b < 0, -1.0, 1.0)
    b = sf.b * sign
    flipped = {"<=": ">=", ">=": "<=", "=": "="}
    rel = [flipped[r] if s < 0 else r for r, s in zip(sf.relations, sign)]

    slack_rows = [i for i in range(m) if rel[i] == "<="]
    surplus_rows = [i for i in range(m) if rel[i] == ">="]
    art_rows = [i for i in range(m) if rel[i] != "<="]
    n_slack = len(slack_rows)
    n_surplus = len(surplus_rows)
    n_art = len(art_rows)
    ncols = n + n_slack + n_surplus
    width = ncols + 1

    # Tableau rows 0..m-1 are constraints; row m is the phase-2 objective,
    # row m+1 the phase-1 objective.
    T = np.zeros((m + 2, width), dtype=float)
    np.add.at(T, (sf.rows, sf.cols), sf.vals * sign[sf.rows])
    T[:m, -1] = b
    col = n
    slack_col_of_row = {}
    for i in slack_rows:
        T[i, col] = 1.0
        slack_col_of_row[i] = col
        col += 1
    surplus_col_of_row = {}
    for i in surplus_rows:
        T[i, col] = -1.0
        surplus_col_of_row[i] = col
        col += 1

    basis = np.empty(m, dtype=int)
    basic_artificial = np.zeros(m, dtype=bool)
    for i in slack_rows:
        basis[i] = slack_col_of_row[i]
    for i in art_rows:
        basis[i] = -1
        basic_artificial[i] = True

    T[m, :n] = sf.c
    if n_art:
        art_mask = np.zeros(m, dtype=bool)
        art_mask[art_rows] = True
        T[m + 1, :] = -T[:m][art_mask].sum(axis=0)

    # Leaving-variable order for Bland's rule: artificials rank before real
    # columns so they are preferred out on ties (fixed, deterministic order).
    leave_rank = np.where(basic_artificial, -1 - np.arange(m), basis)

    iterations = 0
    dense_update = False

    def pivot(p: int, q: int) -> None:
        nonlocal dense_update
        T[p, :] /= T[p, q]
        row = T[p, :]
        row[np.abs(row) < 1e-13] = 0.0
        row[q] = 1.0
        column = T[:, q].copy()
        column[p] = 0.0
        if not dense_update:
            nzr = np.nonzero(row)[0]
            nzc = np.nonzero(column)[0]
            if len(nzr) * len(nzc) < 0.35 * T.size:
                T[np.ix_(nzc, nzr)] -= np.outer(column[nzc], row[nzr])
            else:
                dense_update = True
        if dense_update:
            T[...] -= np.outer(column, row)
        T[:, q] = 0.0
        T[p, q] = 1.0

    def run_phase(cost_row: int, phase_one: bool) -> str:
        nonlocal iterations
        bland = False
        stall = 0
        while True:
            if iterations >= tol.max_iterations:
                return ITERATION_LIMIT
            costs = T[cost_row, :ncols]
            if bland:
                neg = np.nonzero(costs < -simplex.PIVOT)[0]
                if neg.size == 0:
                    return OPTIMAL
                q = int(neg[0])
            else:
                q = int(np.argmin(costs))
                if costs[q] >= -simplex.PIVOT:
                    return OPTIMAL

            column = T[:m, q]
            # Keep basic artificials at zero: rows where the entering column
            # would increase one (negative entry) are pivoted on immediately,
            # a zero-length step that drives the artificial out for good.
            # Positive entries need no guard; the ratio test picks them at
            # ratio zero by itself.
            if not phase_one and basic_artificial.any():
                guard = np.nonzero(basic_artificial & (column < -simplex.PIVOT))[0]
                if guard.size:
                    entries = column[guard]
                    strongest = entries.min()
                    pick = guard[entries <= strongest + 1e-12]
                    p = int(pick[np.argmin(leave_rank[pick])])
                    basic_artificial[p] = False
                    basis[p] = q
                    leave_rank[p] = q
                    pivot(p, q)
                    iterations += 1
                    continue

            positive = column > simplex.PIVOT
            if not positive.any():
                return UNBOUNDED if not phase_one else OPTIMAL
            ratios = np.full(m, np.inf)
            ratios[positive] = T[:m, -1][positive] / column[positive]
            best = ratios.min()
            ties = np.nonzero(ratios <= best + 1e-12)[0]
            p = int(ties[np.argmin(leave_rank[ties])])
            basic_artificial[p] = False
            basis[p] = q
            leave_rank[p] = q
            pivot(p, q)
            iterations += 1
            if best <= 1e-12:
                stall += 1
                if stall > simplex.BLAND_AFTER:
                    bland = True
            else:
                stall = 0
                bland = False

    perturbed = False
    if n_art:
        # The crash picks, pivoted in as counted phase-1 pivots up to the cap.
        for p, q in crash_picks(sf):
            if iterations >= tol.max_iterations:
                break
            basic_artificial[p] = False
            basis[p] = q
            leave_rank[p] = q
            pivot(p, q)
            iterations += 1
        # Tableau.perturb: every zero right-hand side of a row on a real
        # column is lifted to PERTURB * (1 + frac(0.618... i)).
        for i in range(m):
            if not basic_artificial[i] and T[i, -1] == 0.0:
                T[i, -1] = simplex.PERTURB * (1.0 + (0.6180339887498949 * i) % 1.0)
                perturbed = True
        outcome = run_phase(m + 1, phase_one=True)
        if outcome == ITERATION_LIMIT:
            return LpSolution(ITERATION_LIMIT, None, None, iterations)
        if T[m + 1, -1] < -(FEASIBILITY * max(1.0, float(np.abs(b).max(initial=1.0)))):
            return LpSolution(INFEASIBLE, None, None, iterations)

    outcome = run_phase(m, phase_one=False)
    if outcome == ITERATION_LIMIT:
        return LpSolution(ITERATION_LIMIT, None, None, iterations)
    if outcome == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None, iterations)

    # Recompute the basic solution from the original data: one fresh solve
    # wipes out the error accumulated across thousands of tableau updates.
    # The basis is assembled as sparse columns (slot, row, value): a logical
    # slot holds a unit column, a structural slot its oriented column of A.
    real = ~basic_artificial
    slot_of_col = np.full(ncols, -1)
    slot_of_col[basis[real]] = np.nonzero(real)[0]
    keep = slot_of_col[sf.cols] >= 0
    a_rows, a_cols = sf.rows[keep], sf.cols[keep]
    logical_rows = np.array(slack_rows + surplus_rows, dtype=int)
    logical_slots = slot_of_col[n:]
    in_basis = logical_slots >= 0
    artificial_slots = np.nonzero(basic_artificial)[0]
    rows = np.concatenate([a_rows, logical_rows[in_basis], artificial_slots])
    slots = np.concatenate([slot_of_col[a_cols], logical_slots[in_basis], artificial_slots])
    vals = np.concatenate([
        sf.vals[keep] * sign[a_rows],
        np.repeat([1.0, -1.0], [n_slack, n_surplus])[in_basis],
        np.ones(artificial_slots.size),
    ])

    x_full = np.zeros(ncols, dtype=float)
    dual_objective = None
    basic_costs = np.zeros(m)
    structural = real & (basis < n)
    basic_costs[structural] = sf.c[basis[structural]]
    try:
        x_basic, y = _solve_sparse_basis(rows, slots, vals, b, basic_costs)
        residual = np.bincount(rows, weights=vals * x_basic[slots], minlength=m) - b
        if float(np.abs(residual).max(initial=0.0)) > 1e-6:
            x_basic = T[:m, -1].copy()
        dual_objective = float(y @ b) + sf.objective_constant
    except np.linalg.LinAlgError:
        x_basic = T[:m, -1].copy()
    x_full[basis[real]] = x_basic[real]
    # Tableau.finish's write-back: the certified basic values, clipped at
    # zero, replace the perturbed right-hand side for the warm stages.
    rhs = np.maximum(x_basic, 0.0) if perturbed else None

    np.clip(x_full, 0.0, None, out=x_full)
    x = x_full[:n]
    objective = float(sf.c @ x) + sf.objective_constant
    return LpSolution(OPTIMAL, objective, x, iterations, dual_objective, SimpleNamespace(rhs=rhs))


def reference_solve_sparse_basis(
    rows: np.ndarray,
    slots: np.ndarray,
    vals: np.ndarray,
    b: np.ndarray,
    c_basic: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """simplex._solve_sparse_basis as it was, on per-slot and per-row lists: the reference.

    The new one must give the same bits, and raise where this one raises.
    """
    m = b.size
    by_slot: list[list[tuple[int, float]]] = [[] for _ in range(m)]
    by_row: list[list[tuple[int, float]]] = [[] for _ in range(m)]
    for r, s, v in zip(rows.tolist(), slots.tolist(), vals.tolist()):
        by_slot[s].append((r, v))
        by_row[r].append((s, v))
    row_done = [False] * m
    slot_done = [False] * m

    def peel(lines, crossing, line_done, cross_done):
        # Pair each line whose live entries fall to one with that entry's
        # partner; returns (line, partner, pivot) in peel order.
        live = [sum(not cross_done[k] for k, _ in entries) for entries in lines]
        if any(live[i] == 0 and not line_done[i] for i in range(m)):
            raise np.linalg.LinAlgError("structurally singular basis")
        pending = [i for i in range(m) if live[i] == 1 and not line_done[i]]
        order = []
        while pending:
            i = pending.pop()
            k, pivot = next(e for e in lines[i] if not cross_done[e[0]])
            line_done[i] = cross_done[k] = True
            order.append((i, k, pivot))
            for j, _ in crossing[k]:
                if not line_done[j]:
                    live[j] -= 1
                    if live[j] == 1:
                        pending.append(j)
                    elif live[j] == 0:
                        raise np.linalg.LinAlgError("structurally singular basis")
        return order

    front = peel(by_row, by_slot, row_done, slot_done)
    back = peel(by_slot, by_row, slot_done, row_done)
    bump_rows = [r for r in range(m) if not row_done[r]]
    bump_slots = [s for s in range(m) if not slot_done[s]]
    position = {r: i for i, r in enumerate(bump_rows)}
    bump = np.zeros((len(bump_rows), len(bump_slots)))
    for j, s in enumerate(bump_slots):
        for r, v in by_slot[s]:
            if r in position:
                bump[position[r], j] += v

    rhs = b.tolist()
    x = [0.0] * m

    def settle(s, value):
        x[s] = value
        for r, v in by_slot[s]:
            rhs[r] -= v * value

    for r, s, pivot in front:
        settle(s, rhs[r] / pivot)
    if bump_slots:
        for s, value in zip(bump_slots, np.linalg.solve(bump, [rhs[r] for r in bump_rows])):
            settle(s, float(value))
    for s, r, pivot in reversed(back):
        settle(s, rhs[r] / pivot)

    c = c_basic.tolist()
    y = [0.0] * m

    def reduced(s):
        return c[s] - sum(v * y[r] for r, v in by_slot[s])

    for s, r, pivot in back:
        y[r] = reduced(s) / pivot
    if bump_slots:
        for r, value in zip(bump_rows, np.linalg.solve(bump.T, [reduced(s) for s in bump_slots])):
            y[r] = float(value)
    for r, s, pivot in reversed(front):
        y[r] = reduced(s) / pivot
    return np.array(x), np.array(y)


def reference_crash_levels(sf) -> list[list[tuple[int, int]]]:
    """simplex._crash_levels as it was, with a sort key and a min key per row: the reference.

    The new one must give the same picks in the same levels.
    """
    m, n = sf.n_rows, sf.n_cols
    mags = np.abs(sf.vals)
    col_max = np.zeros(n)
    np.maximum.at(col_max, sf.cols, mags)
    col_nnz = np.bincount(sf.cols, minlength=n).tolist()
    starts = np.searchsorted(sf.rows, np.arange(m + 1)).tolist()
    tops = (mags >= col_max[sf.cols]).tolist()
    cols, mags = sf.cols.tolist(), mags.tolist()

    candidates = [i for i, (rel, b) in enumerate(zip(sf.relations, sf.b.tolist())) if rel != "<=" and b == 0.0]
    col_live = [True] * n
    levels: list[list[tuple[int, int]]] = []
    level_of_col = [-1] * n
    for r in sorted(candidates, key=lambda i: (starts[i + 1] - starts[i], -i)):
        entries = [k for k in range(starts[r], starts[r + 1]) if col_live[cols[k]]]
        if not entries:
            continue
        half = 0.5 * max(mags[k] for k in entries)
        eligible = [cols[k] for k in entries if tops[k] and mags[k] >= half]
        if not eligible:
            continue
        q = min(eligible, key=lambda j: (col_nnz[j], j))
        level = 1 + max(map(level_of_col.__getitem__, cols[starts[r] : starts[r + 1]]))
        level_of_col[q] = level
        if level == len(levels):
            levels.append([])
        levels[level].append((r, q))
        for k in entries:
            col_live[cols[k]] = False
    return levels


def enumerate_vertices_min(c, A, b):
    """Brute-force oracle: check every basic point of {Ax <= b, x >= 0}."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    G = np.vstack([A, -np.eye(n)])
    h = np.concatenate([b, np.zeros(n)])
    best = None
    for rows in itertools.combinations(range(m + n), n):
        M = G[list(rows)]
        if abs(np.linalg.det(M)) < 1e-9:
            continue
        x = np.linalg.solve(M, h[list(rows)])
        if np.all(G @ x <= h + 1e-9):
            value = float(c @ x)
            if best is None or value < best:
                best = value
    return best


def random_bounded_lp(rng):
    """Feasible (origin) and bounded (simplex cap row) random LP."""
    n = int(rng.integers(1, 6))
    m = int(rng.integers(0, 5))
    A = rng.uniform(-1.0, 2.0, size=(m, n))
    b = rng.uniform(0.5, 3.0, size=m)
    cap = rng.uniform(2.0, 6.0)
    A = np.vstack([A, np.ones((1, n))])
    b = np.concatenate([b, [cap]])
    c = rng.uniform(-2.0, 2.0, size=n)
    return c, A, b


def test_minimize_single_bounded_variable():
    lp = raw_lp([1.0], [[1.0]], [3.0], relations=(">=",))
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(3.0)
    assert sol.x[0] == pytest.approx(3.0)


def test_two_variable_vertex():
    c = [-1.0, -1.0]
    A = [[1.0, 1.0]]
    b = [1.0]
    sol = solve_lp(raw_lp(c, A, b))
    oracle = enumerate_vertices_min(c, np.array(A), np.array(b))
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-1.0)
    assert sol.objective == pytest.approx(oracle, abs=1e-9)


def test_contradictory_bounds_infeasible():
    model = synthetic_model([1.0, 1.0], [([1.0, 1.0], "<=", 4.0)], ub=[np.inf, 1.0])
    with pytest.raises(InfeasibleModel):
        build_standard_form(model, {1: (2.0, np.inf)})
    solution, values = solve_model_lp(model, bounds={1: (2.0, np.inf)})
    assert solution.status == INFEASIBLE and values is None


def test_violated_one_term_row_is_infeasible():
    # x0 <= -1 against x0 >= 0: phase 1 proves it.
    solution, values = solve_model_lp(synthetic_model([1.0], [([1.0], "<=", -1.0)]))
    assert solution.status == INFEASIBLE and values is None


def test_infeasible_rows_detected_by_phase_one():
    # x0 + x1 >= 4 conflicts with x0 + x1 <= 1 (neither row is a singleton)
    lp = raw_lp([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]], [4.0, 1.0], relations=(">=", "<="))
    assert solve_lp(lp).status == INFEASIBLE


def test_unbounded_detected():
    lp = raw_lp([-1.0, 0.0], [[0.0, 1.0]], [1.0])
    assert solve_lp(lp).status == UNBOUNDED


def test_iteration_limit_reported():
    rng = np.random.default_rng(7)
    c, A, b = random_bounded_lp(rng)
    sol = solve_lp(raw_lp(c, A, b), Tolerances(max_iterations=0))
    assert sol.status == ITERATION_LIMIT


def test_oracle_agreement_seeded():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        c, A, b = random_bounded_lp(rng)
        sol = solve_lp(raw_lp(c, A, b))
        oracle = enumerate_vertices_min(c, A, b)
        assert sol.status == OPTIMAL
        assert oracle is not None
        assert sol.objective == pytest.approx(oracle, abs=1e-7)


def test_duality_gap_closes():
    rng = np.random.default_rng(11)
    for _ in range(25):
        c, A, b = random_bounded_lp(rng)
        sol = solve_lp(raw_lp(c, A, b))
        assert sol.status == OPTIMAL
        assert sol.dual_objective is not None
        assert abs(sol.objective - sol.dual_objective) <= 1e-7 * max(1.0, abs(sol.objective))


@given(st.integers(min_value=0, max_value=10_000))
def test_oracle_agreement_property(seed):
    rng = np.random.default_rng(seed)
    c, A, b = random_bounded_lp(rng)
    sol = solve_lp(raw_lp(c, A, b))
    oracle = enumerate_vertices_min(c, A, b)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(oracle, abs=1e-7)


def test_one_term_row_stays_a_row_with_the_optimum_of_its_bound():
    model = synthetic_model([1.0, 1.0], [([1.0, 0.0], "=", 2.0), ([1.0, 1.0], ">=", 1.0)])
    sf = build_standard_form(model)
    assert (sf.n_cols, sf.n_rows) == (2, 2)
    solution, values = solve_model_lp(model)
    assert solution.status == OPTIMAL
    np.testing.assert_array_equal(values, [2.0, 0.0])
    assert solution.objective == 2.0
    bounded = synthetic_model([1.0, 1.0], [([1.0, 1.0], ">=", 1.0)])
    fixed, fixed_values = solve_model_lp(bounded, bounds={0: (2.0, 2.0)})
    assert (fixed.objective, fixed_values.tolist()) == (solution.objective, values.tolist())


def test_add_variable_rejects_infinite_lower_bound():
    # No variable is free, so the standard form never splits a column.
    from support import bare_model

    model = bare_model()
    with pytest.raises(ModelError, match="finite lower bound"):
        model.add_variables("x", [(0,)], lb=-np.inf)
    assert model.variables == ()


def test_violated_empty_row_is_infeasible():
    # Fixing x0 at 1 leaves the row 2 x0 = 3 with no live column.
    model = synthetic_model([1.0], [([2.0], "=", 3.0)])
    with pytest.raises(InfeasibleModel, match=r"constraint row\[0\] is violated by fixed variables"):
        build_standard_form(model, {0: (1.0, 1.0)})
    solution, _ = solve_model_lp(model, bounds={0: (1.0, 1.0)})
    assert solution.status == INFEASIBLE


def test_general_form_agreement_with_reference():
    # mixes of =, <=, >=, shifted and boxed variables against scipy's solver
    # (reference presolve off: it may misreport unbounded problems otherwise)
    from scipy.optimize import linprog

    from support import bare_model

    rng = np.random.default_rng(424242)
    outcomes = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(120):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        model = bare_model()
        bounds = []
        for j in range(n):
            lb = -2.0 if rng.random() < 0.25 else 0.0
            ub = float(rng.uniform(0.5, 4.0)) if rng.random() < 0.3 else np.inf
            model.add_variables("x", [(j,)], lb=lb, ub=ub)
            bounds.append((lb, ub))
        c = rng.uniform(-2, 2, size=n).round(3)
        model.objective = {j: float(c[j]) for j in range(n) if c[j] != 0.0}
        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for k in range(m):
            coeffs = np.where(rng.random(n) < 0.7, rng.uniform(-2, 2, size=n).round(3), 0.0)
            if not coeffs.any():
                coeffs[int(rng.integers(0, n))] = 1.0
            relation = rng.choice(["<=", ">=", "="], p=[0.5, 0.3, 0.2])
            rhs = round(float(rng.uniform(-2, 4)), 3)
            terms = [(j, float(coeffs[j])) for j in range(n) if coeffs[j] != 0.0]
            model.add_constraint(f"row[{k}]", terms, relation, rhs)
            if relation == "<=":
                a_ub.append(coeffs)
                b_ub.append(rhs)
            elif relation == ">=":
                a_ub.append(-coeffs)
                b_ub.append(-rhs)
            else:
                a_eq.append(coeffs)
                b_eq.append(rhs)
        reference = linprog(
            c,
            A_ub=np.array(a_ub) if a_ub else None,
            b_ub=b_ub or None,
            A_eq=np.array(a_eq) if a_eq else None,
            b_eq=b_eq or None,
            bounds=bounds,
            method="highs",
            options={"presolve": False},
        )
        expected = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}[reference.status]
        solution, _ = solve_model_lp(model)
        assert solution.status == expected
        outcomes[expected] += 1
        if expected == OPTIMAL:
            assert solution.objective == pytest.approx(reference.fun, rel=1e-6, abs=1e-7)
    assert min(outcomes.values()) > 0  # the generator hits all three outcomes


@given(st.integers(min_value=0, max_value=10_000))
def test_standard_form_matches_reference(seed):
    # Boxed, shifted (also below zero) and fixed variables; empty,
    # singleton (either sign) and multi-term rows, all satisfied by one point
    # within the bounds; branch bounds (one or both sides) on top, which may
    # conflict.
    from support import bare_model

    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    model = bare_model()
    for j in range(n):
        lb = float(rng.choice([0.0, -3.0, 1.5, -2.0]))
        ub = float(rng.choice([np.inf, 3.0, lb + 0.5, lb]))
        model.add_variables("x", [(j,)], lb=lb, ub=ub)
    point = [float(np.clip(1.0, v.lb, v.ub)) for v in model.variables]
    model.objective = {j: float(v) for j, v in enumerate(rng.uniform(-2, 2, n).round(3)) if v}
    for k in range(int(rng.integers(0, 7))):
        picked = rng.choice(n, size=int(rng.integers(0, min(n, 3) + 1)), replace=False)
        terms = [(int(j), float(rng.choice([-2.0, -1.0, 0.5, 1.0, 3.0]))) for j in picked]
        relation = str(rng.choice(["<=", "=", ">="]))
        slack = {"<=": 1.0, "=": 0.0, ">=": -1.0}[relation] * round(float(rng.uniform(0, 2)), 3)
        model.add_constraint(f"row[{k}]", terms, relation, sum(a * point[j] for j, a in terms) + slack)
    sides = ((-np.inf, 1.0), (1.0, np.inf), (0.0, 2.0), (2.0, 2.0), (-1.0, -1.0))
    bounds = {
        int(j): tuple(float(v) for v in sides[rng.integers(len(sides))])
        for j in rng.choice(n, size=int(rng.integers(0, 3)))
    }
    assert_matches_reference(model, bounds)


def test_bundled_standard_forms_match_reference(scenario_dir):
    import warnings

    from railflow.model import CAPACITY_MODES
    from railflow.scenario import build_scenario_model, load_scenario

    doc = load_scenario(scenario_dir / "single_track_shuttle.json")
    for mode in CAPACITY_MODES:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = build_scenario_model(replace(doc, config=replace(doc.config, capacity_mode=mode)))
        integers = [i for i, v in enumerate(model.variables) if v.integer]
        assert_matches_reference(model)
        branch = {integers[0]: (1.0, np.inf)}
        assert_matches_reference(model, {**branch, **{i: (1.0, 1.0) for i in integers[1:]}})


def test_one_term_rows_give_the_optimum_of_the_bounds_they_state(scenario_dir):
    # One-term rows stay rows; the branch bounds they state reach the same optimum.
    from railflow.scenario import build_scenario_model, load_scenario

    doc = load_scenario(scenario_dir / "single_track_shuttle.json")
    model = build_scenario_model(replace(doc, config=replace(doc.config, capacity_mode="single_track_alt2")))
    first, second = [i for i, v in enumerate(model.variables) if v.integer][:2]
    with_rows = rebuilt(
        model,
        rows=model.constraints
        + (LinearConstraint("down", ((first, 1.0),), "<=", 0.0), LinearConstraint("up", ((second, 1.0),), ">=", 1.0)),
    )
    assert build_standard_form(with_rows).n_rows == build_standard_form(model).n_rows + 2
    by_rows, _ = solve_model_lp(with_rows)
    by_bounds, _ = solve_model_lp(model, bounds={first: (-np.inf, 0.0), second: (1.0, np.inf)})
    assert by_rows.status == by_bounds.status == OPTIMAL
    assert by_rows.objective == pytest.approx(by_bounds.objective, rel=1e-12, abs=1e-12)


def test_degenerate_lp_terminates():
    # many redundant rows through the origin force degenerate pivots
    c = [-1.0, -1.0, -1.0]
    A = [
        [1.0, 1.0, 1.0],
        [1.0, 1.0, 1.0],
        [2.0, 2.0, 2.0],
        [1.0, 0.0, 0.0],
    ]
    b = [1.0, 1.0, 2.0, 1.0]
    sol = solve_lp(raw_lp(c, A, b))
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-1.0)


def assert_same_solution(got, want):
    """Same status and iterations; bit-equal x, objective and dual objective.

    After a perturbed cold solve, also the bit-equal right-hand side that
    the final tableau keeps for warm stages.
    """
    assert (got.status, got.iterations) == (want.status, want.iterations)
    assert repr(got.objective) == repr(want.objective)
    assert repr(got.dual_objective) == repr(want.dual_objective)
    if want.x is None:
        assert got.x is None
    else:
        assert got.x.dtype == want.x.dtype and got.x.tobytes() == want.x.tobytes()
    if want.tableau is not None and want.tableau.rhs is not None:
        assert got.tableau.T[: want.tableau.rhs.size, -1].tobytes() == want.tableau.rhs.tobytes()


def random_standard_form(rng, dense=False):
    """Small standard-form LP with mixed relations, signs, zeros and repeats.

    Coefficients come from a few round values so that ties, zero ratios and
    degenerate pivots are common; right-hand sides include negatives and
    -0.0, and a copied row (sometimes with another relation) makes the
    system redundant or contradictory.  Many draws are infeasible or
    unbounded.  A dense draw fills A, which drives reference_solve_lp into
    its full-tableau update.
    """
    m, n = (int(k) for k in rng.integers(1, 7, size=2))
    A = rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0], size=(m, n))
    if not dense:
        A[rng.random((m, n)) < 0.5] = 0.0
    b = rng.choice([-2.0, -1.0, -0.0, 0.0, 0.0, 1.0, 2.0, 3.0], size=m)
    relations = rng.choice(["<=", "=", ">="], size=m).tolist()
    if m > 1 and rng.random() < 0.4:
        A[-1], b[-1] = A[0], b[0]
        if rng.random() < 0.5:
            relations[-1] = relations[0]
    c = rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0], size=n)
    return raw_lp(c, A, b, relations)


def assert_matches_reference_solve(lp):
    """solve_lp equals reference_solve_lp, uncut and cut at every iteration count."""
    want = reference_solve_lp(lp)
    assert_same_solution(solve_lp(lp), want)
    for k in range(want.iterations + 1):
        tol = Tolerances(max_iterations=k)
        assert_same_solution(solve_lp(lp, tol), reference_solve_lp(lp, tol))
    return want


@given(st.integers(min_value=0, max_value=10_000))
def test_solve_lp_matches_reference_property(seed):
    rng = np.random.default_rng(seed)
    assert_matches_reference_solve(random_standard_form(rng, dense=rng.random() < 0.3))


def test_solve_lp_matches_reference_on_every_outcome():
    # Cuts inside phase 1 show on infeasible draws (every iteration is in
    # phase 1), cuts inside phase 2 on draws of <= rows with b >= 0 (no
    # artificial, so no phase 1).
    seen = set()
    for seed in range(300):
        lp = random_standard_form(np.random.default_rng(seed))
        want = assert_matches_reference_solve(lp)
        seen.add(want.status)
        if want.iterations and want.status == INFEASIBLE:
            seen.add("cut in phase 1")
        if want.iterations and set(lp.relations) == {"<="} and lp.b.min() >= 0:
            seen.add("cut in phase 2")
    assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED, "cut in phase 1", "cut in phase 2"}


@given(st.integers(min_value=0, max_value=10_000))
def test_crash_picks_form_a_triangular_basis_with_multipliers_at_most_one(seed):
    rng = np.random.default_rng(seed)
    lp = random_standard_form(rng, dense=rng.random() < 0.3)
    picks = crash_picks(lp)
    rows = [p for p, _ in picks]
    cols = [q for _, q in picks]
    assert len(set(rows)) == len(rows) and len(set(cols)) == len(cols)
    assert all(lp.relations[p] != "<=" and lp.b[p] == 0.0 for p in rows)
    A = dense(lp)
    # Lower triangular in pick order: a pick's column has no entry in an
    # earlier pick's row, so it enters as its column of A.
    B = A[np.ix_(rows, cols)]
    assert np.array_equal(B, np.tril(B)) and np.all(np.diag(B) != 0.0)
    for p, q in picks:
        assert np.abs(A[:, q]).max() == abs(A[p, q])


def test_crash_covers_the_small_network_balances_without_growth(small_doc):
    # 289 of the 380 rows start on an artificial, 269 of them with a
    # right-hand side of 0; the crash covers 251 of those, and its pivots
    # leave every entry of the constraint rows at or below 1 in magnitude.
    from railflow.scenario import build_scenario_model

    config = replace(small_doc.config, capacity_mode="single_track_alt1", relax_integrality=True)
    sf = build_standard_form(build_scenario_model(replace(small_doc, config=config)))
    tableau = simplex.Tableau(sf)
    tableau.crash(Tolerances())
    assert tableau.iterations == 251
    assert np.count_nonzero(tableau.basic_artificial) == 289 - 251
    assert np.abs(tableau.T[: sf.n_rows, :-1]).max() == 1.0


BUNDLED_LPS = list(
    itertools.product(
        ("three_station_line", "single_track_shuttle", "small_network", "small_network_tcr"), CAPACITY_MODES
    )
)


@functools.lru_cache(maxsize=None)
def bundled_lp(scenario, mode):
    """The standard form of a bundled scenario in a capacity mode, relaxed."""
    import warnings

    from railflow.scenario import build_scenario_model, load_scenario

    doc = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / f"{scenario}.json")
    config = replace(doc.config, capacity_mode=mode, relax_integrality=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_standard_form(build_scenario_model(replace(doc, config=config)))


def assert_crash_matches_replay(sf, cuts):
    """Tableau.crash equals pivoting the picks in one at a time (Tableau.enter), bit for bit.

    Checked uncut and cut at each max_iterations in cuts; the replay
    advances one tableau pick by pick and is compared at every cut.
    """
    picks = crash_picks(sf)
    replay = simplex.Tableau(sf)
    for cut in sorted(set(cuts) | {len(picks)}):
        for p, q in picks[replay.iterations : cut]:
            column = replay.T[:, q].copy()
            replay.enter(p, q, column, np.nonzero(column)[0])
        tableau = simplex.Tableau(sf)
        tableau.crash(Tolerances() if cut == len(picks) else Tolerances(max_iterations=cut))
        assert tableau.T.tobytes() == replay.T.tobytes()
        for name in ("basis", "leave_rank", "basic_artificial"):
            assert np.array_equal(getattr(tableau, name), getattr(replay, name)), name
        assert tableau.iterations == replay.iterations


@given(st.integers(min_value=0, max_value=10_000))
def test_crash_matches_one_pick_at_a_time_property(seed):
    rng = np.random.default_rng(seed)
    lp = random_standard_form(rng, dense=rng.random() < 0.3)
    assert_crash_matches_replay(lp, range(len(crash_picks(lp)) + 1))


@pytest.mark.parametrize("scenario, mode", BUNDLED_LPS)
def test_crash_matches_one_pick_at_a_time_on_bundled_lps(scenario, mode):
    # Cut at every level boundary and inside every level, where a cut ends a
    # batch early.
    sf = bundled_lp(scenario, mode)
    sizes = [len(level) for level in simplex._crash_levels(sf)]
    bounds = np.cumsum([0] + sizes)
    assert_crash_matches_replay(sf, bounds.tolist() + (bounds[:-1] + np.array(sizes) // 2).tolist())


def test_crash_snaps_tiny_entries_like_a_pivot():
    # Row 0 picks x0 (the largest entry of its column); its 1e-14 on x1
    # divides below 1e-13 and is snapped to 0 before row 1 is updated.
    lp = raw_lp([1.0, 1.0, 1.0], [[2.0, 2e-14, 0.0], [1.0, 1.0, 1.0]], [0.0, 2.0], ["=", "="])
    assert crash_picks(lp) == [(0, 0)]
    assert_crash_matches_replay(lp, [0, 1])
    tableau = simplex.Tableau(lp)
    tableau.crash(Tolerances())
    assert tableau.T[0, 1] == 0.0 and tableau.T[1, 1] == 1.0


def assert_picks_in_level_order(sf):
    levels = simplex._crash_levels(sf)
    picks = crash_picks(sf)
    assert picks == [pick for level in levels for pick in level]
    A = dense(sf)
    level_of = {q: i for i, level in enumerate(levels) for _, q in level}
    for k, (p, q) in enumerate(picks):
        # Every pick comes after each pick whose column has an entry in its
        # row, and sits one level above the highest of them.
        depends = [j for j, (_, col) in enumerate(picks) if col != q and A[p, col] != 0.0]
        assert all(j < k for j in depends)
        assert level_of[q] == 1 + max((level_of[picks[j][1]] for j in depends), default=-1)
    for level in levels:
        # No pick of a level has an entry in another pick's row or column.
        rows, cols = [p for p, _ in level], [q for _, q in level]
        B = A[np.ix_(rows, cols)]
        assert np.array_equal(B, np.diag(np.diag(B)))


@given(st.integers(min_value=0, max_value=10_000))
def test_crash_picks_come_in_dependency_level_order(seed):
    rng = np.random.default_rng(seed)
    assert_picks_in_level_order(random_standard_form(rng, dense=rng.random() < 0.3))


def test_crash_picks_come_in_dependency_level_order_on_bundled_lps():
    for scenario, mode in BUNDLED_LPS:
        assert_picks_in_level_order(bundled_lp(scenario, mode))


def test_crash_batches_the_small_network_lp_in_6_levels():
    levels = simplex._crash_levels(bundled_lp("small_network", "single_track_alt1"))
    assert [len(level) for level in levels] == [105, 40, 37, 36, 26, 7]


def test_crash_visits_sparsest_rows_first_and_the_later_row_first_among_equals():
    # x0 + x1 = 0, x1 + x2 = 0, x2 <= 1: rows 0 and 1 have two entries each,
    # so row 1 goes first and takes x1 (the fewest nonzeros of its top
    # columns), which retires x1 and x2.  Row 0 is left x0, which depends on
    # row 1's pick, so it enters a level later.
    lp = raw_lp([0.0, 0.0, 0.0], [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]], [0.0, 0.0, 1.0], ["=", "=", "<="])
    assert simplex._crash_levels(lp) == [[(1, 1)], [(0, 0)]]


@given(st.integers(min_value=0, max_value=10_000))
def test_crash_levels_match_reference_property(seed):
    rng = np.random.default_rng(seed)
    lp = random_standard_form(rng, dense=rng.random() < 0.3)
    assert simplex._crash_levels(lp) == reference_crash_levels(lp)


def assert_phase_one_row_is_the_row_sum(sf):
    # The phase-1 row has the bits of minus the sum of the artificial rows
    # over axis 0, as the reference solve forms it.
    tableau = simplex.Tableau(sf)
    m = sf.n_rows
    if tableau.basic_artificial.any():
        want = -tableau.T[:m][tableau.basic_artificial].sum(axis=0)
        assert tableau.T[m + 1].tobytes() == want.tobytes()


@given(st.integers(min_value=0, max_value=10_000))
def test_phase_one_row_is_the_row_sum_property(seed):
    rng = np.random.default_rng(seed)
    assert_phase_one_row_is_the_row_sum(random_standard_form(rng, dense=rng.random() < 0.3))


def test_phase_one_row_is_the_row_sum_on_bundled_lps():
    for scenario, mode in BUNDLED_LPS:
        assert_phase_one_row_is_the_row_sum(bundled_lp(scenario, mode))


def test_standard_form_entries_are_unique_and_nonzero():
    # The tableau writes A with one assignment, which needs each (row,
    # column) once; terms of one variable merge, and cancelling ones vanish.
    model = synthetic_model([1.0, 1.0, 1.0], [([1.0, 1.0, 0.0], "<=", 4.0), ([1.0, 0.0, 1.0], ">=", 1.0)])
    model.add_constraint("repeats", [(0, 1.0), (1, 2.0), (0, 3.0), (1, -2.0), (2, 1.0)], "=", 2.0)
    lps = [build_standard_form(model)]
    lps += [bundled_lp(scenario, mode) for scenario, mode in BUNDLED_LPS]
    for sf in lps:
        assert np.all(np.diff(sf.rows * sf.n_cols + sf.cols) > 0)
        assert np.all(sf.vals != 0.0)
    assert dense(lps[0])[2].tolist() == [4.0, 0.0, 1.0]


@pytest.mark.parametrize(
    "shift, status",
    [(None, NUMERICS), (1e-5, NUMERICS), (1e-8, OPTIMAL)],
    ids=["singular", "residual-above-1e-6", "residual-below-1e-6"],
)
def test_unverified_basis_is_numerics(monkeypatch, shift, status):
    # The basis re-solve is the only source of an optimal x: when it raises,
    # or its x misses b by more than 1e-6, no tableau value is reported.
    lp = raw_lp([-1.0, -1.0], [[1.0, 2.0], [3.0, 1.0]], [4.0, 6.0], ["<=", ">="])
    want = solve_lp(lp)
    assert want.status == OPTIMAL and want.dual_objective == pytest.approx(want.objective)
    resolve = simplex._solve_sparse_basis

    def unverified(rows, slots, vals, b, c_basic):
        if shift is None:
            raise np.linalg.LinAlgError("singular bump")
        x, y = resolve(rows, slots, vals, b, c_basic)
        return x + shift, y

    monkeypatch.setattr(simplex, "_solve_sparse_basis", unverified)
    got = solve_lp(lp)
    assert (got.status, got.iterations) == (status, want.iterations)
    if status == NUMERICS:
        assert (got.objective, got.x, got.dual_objective) == (None, None, None)


# min -x0 - x1 s.t. x0 + 2 x1 <= 4, 3 x0 + x1 >= 6 ends with x0 = 4 and the
# second row's surplus (6) basic, and duals y = (-1, 0).
CERTIFIED_LP = ([-1.0, -1.0], [[1.0, 2.0], [3.0, 1.0]], [4.0, 6.0], ["<=", ">="])


def fault_the_resolve(monkeypatch, rhs=None, duals=None):
    """Wrap the basis re-solve: move the right-hand side it is given by rhs,
    in place (so the residual check reads the same b and passes), or map the
    duals it returns through duals."""
    resolve = simplex._solve_sparse_basis

    def faulty(rows, slots, vals, b, c_basic):
        if rhs is not None:
            b += rhs
        x, y = resolve(rows, slots, vals, b, c_basic)
        return x, y if duals is None else duals(y)

    monkeypatch.setattr(simplex, "_solve_sparse_basis", faulty)


def certified(lp):
    got = solve_lp(lp)
    assert got.status in (OPTIMAL, NUMERICS)
    if got.status == NUMERICS:
        assert (got.objective, got.x, got.dual_objective, got.tableau) == (None, None, None, None)
    return got.status


@pytest.mark.parametrize("move, status", [(7.0, NUMERICS), (6.0 + 5e-7, OPTIMAL)], ids=["-1", "-5e-7"])
def test_negative_basic_value_is_numerics(monkeypatch, move, status):
    # Raising the second right-hand side to 6 + move leaves the surplus
    # basic at 6 - move: a basis that no longer covers b is primal infeasible
    # with no residual at all.
    lp = raw_lp(*CERTIFIED_LP)
    assert certified(lp) == OPTIMAL
    fault_the_resolve(monkeypatch, rhs=np.array([0.0, move]))
    assert certified(lp) == status


def test_artificial_off_zero_is_numerics(monkeypatch):
    # The second row repeats the first, so one artificial stays basic at 0;
    # moving that row's right-hand side puts the artificial at 1, which the
    # residual check alone accepts.
    lp = raw_lp([1.0, 0.0], [[1.0, 1.0], [2.0, 2.0]], [2.0, 4.0], ["=", "="])
    want = solve_lp(lp)
    assert want.status == OPTIMAL
    held = np.flatnonzero(want.tableau.basic_artificial)
    assert held.size == 1
    fault_the_resolve(monkeypatch, rhs=np.where(np.arange(2) == held[0], 1.0, 0.0))
    assert certified(lp) == NUMERICS


@pytest.mark.parametrize("side", [0, 1], ids=["x", "y"])
def test_nan_from_the_basis_resolve_is_numerics(monkeypatch, side):
    # A NaN compares false with every tolerance, so a check written as
    # "fail if breach > tol" would pass it; each check fails unless it holds.
    lp = raw_lp(*CERTIFIED_LP)
    resolve = simplex._solve_sparse_basis

    def nan_valued(*args):
        solved = resolve(*args)
        solved[side][0] = np.nan
        return solved

    monkeypatch.setattr(simplex, "_solve_sparse_basis", nan_valued)
    assert certified(lp) == NUMERICS


def test_dual_infeasible_basis_is_numerics(monkeypatch):
    # y = (-2.5, 1) keeps the dual objective at -4 but prices x0 at -1.5.
    lp = raw_lp(*CERTIFIED_LP)
    fault_the_resolve(monkeypatch, duals=lambda y: y + np.array([-1.5, 1.0]))
    assert certified(lp) == NUMERICS


def test_shut_columns_may_price_below_zero():
    # On a face, a shut column's reduced cost under the new objective does
    # not matter: x1 (reduced cost 3 under the first objective) is shut, and
    # a cost of -10 on it leaves the face optimum at x0 = 4.
    model = synthetic_model([-1.0, -1.0], [([1.0, 2.0], "<=", 4.0), ([3.0, 1.0], ">=", 6.0)])
    primary, _ = solve_model_lp(model)
    assert primary.status == OPTIMAL
    face, values = solve_face_lp(primary.tableau, {1: -10.0})
    assert face.status == OPTIMAL
    np.testing.assert_array_equal(values, [4.0, 0.0])
    assert face.tableau.reduced_costs(face.tableau.c, face.tableau.y)[1] < -1e-6


def test_duality_gap_is_numerics(monkeypatch):
    # y = (-2, 0) is dual feasible, but its objective -8 misses c.x = -4.
    lp = raw_lp(*CERTIFIED_LP)
    fault_the_resolve(monkeypatch, duals=lambda y: 2.0 * y)
    assert certified(lp) == NUMERICS


@pytest.mark.parametrize("weights, expected", [((1.0, 2.0), [3.0, 0.0, 2.0, 0.0]), ((2.0, 1.0), [3.0, 0.0, 0.0, 2.0])])
def test_face_lp_holds_a_basic_column_and_breaks_ties(weights, expected):
    # min -x0 s.t. x0 + x2 + x3 = 5, x0 + x1 <= 3 ends with x0 basic at 3 and
    # x2 + x3 = 2 on the optimal face.  Holding x0 moves its value to the
    # right-hand side; the tie-break weights on x2 and x3 then pick the
    # vertex, and the held x0 adds its weight times 3 to both the primal and
    # the dual objective.
    model = synthetic_model(
        [-1.0, 0.0, 0.0, 0.0],
        [([1.0, 0.0, 1.0, 1.0], "=", 5.0), ([1.0, 1.0, 0.0, 0.0], "<=", 3.0)],
        ub=[10.0, np.inf, np.inf, np.inf],
    )
    primary, values = solve_model_lp(model)
    assert primary.status == OPTIMAL and values[0] == 3.0
    tableau = primary.tableau
    held, values = solve_face_lp(tableau, {}, hold=[0])
    assert held.status == OPTIMAL and values[0] == 3.0
    assert tableau.shift[0] == 3.0 and tableau.shut[0]
    tied, values = solve_face_lp(tableau, {0: 5.0, 2: weights[0], 3: weights[1]})
    assert tied.status == OPTIMAL
    np.testing.assert_array_equal(values, expected)
    assert tied.objective == tied.dual_objective == 15.0 + 2.0 * min(weights)


# min x0 + 2 x1 s.t. x0 + x1 >= 1, x0 <= 5 ends with x0 basic at 1 and x1
# nonbasic at 0.
HELD_LP = ([1.0, 2.0], [([1.0, 1.0], ">=", 1.0)])


@pytest.mark.parametrize(
    "value, status, expected",
    [(3.0, OPTIMAL, [3.0, 0.0]), (0.0, OPTIMAL, [0.0, 1.0]), (6.0, INFEASIBLE, None)],
    ids=["up", "down", "past-bound"],
)
def test_held_lp_moves_a_basic_column_either_way(value, status, expected):
    # Held at 3, x0's row keeps the residual -2 and is turned; held at 0 it
    # keeps +1, and phase 1 brings x1 in.  Past x0's bound the __ub row
    # cannot be met, and phase 1 proves it.
    model = synthetic_model(*HELD_LP, ub=[5.0, np.inf])
    primary, values = solve_model_lp(model)
    assert primary.status == OPTIMAL and values.tolist() == [1.0, 0.0]
    held, values = solve_held_lp(primary.tableau, np.array([0]), np.array([value]))
    assert held.status == status
    if expected is not None:
        np.testing.assert_array_equal(values, expected)
        assert held.objective == held.dual_objective == expected[0] + 2.0 * expected[1]
        assert not held.tableau.phase_one_due


def test_hold_keeps_a_nonbasic_column_at_zero():
    model = synthetic_model(*HELD_LP, ub=[5.0, np.inf])
    tableau = solve_model_lp(model)[0].tableau
    assert 1 not in tableau.basis
    with pytest.raises(ValueError, match="nonbasic"):
        tableau.hold(np.array([0, 1]), np.array([1.0, 1.0]))
    tableau.hold(np.array([0, 1]), np.array([1.0, 0.0]))
    assert tableau.phase_one_due


def test_phase_one_keeps_a_held_row_at_zero_in_its_sum():
    # min -x0 - x1 + 0.1 y s.t. x0 + y = 1.4, x1 - y = 1 ends with x0 at 1.4
    # and x1 at 1, both basic.  Held at 1 and 1, x0's row needs y = 0.4 and
    # x1's row, at zero, y = 0: raising y to empty the first row fills the
    # second, and the phase-1 sum of both rows proves the hold infeasible.
    model = synthetic_model(
        [-1.0, -1.0, 0.1], [([1.0, 0.0, 1.0], "=", 1.4), ([0.0, 1.0, -1.0], "=", 1.0)], ub=[5.0, 5.0, 5.0]
    )
    primary, values = solve_model_lp(model)
    np.testing.assert_allclose(values, [1.4, 1.0, 0.0], rtol=0.0, atol=1e-15)
    held, _ = solve_held_lp(primary.tableau, np.array([0, 1]), np.array([1.0, 1.0]))
    assert held.status == INFEASIBLE


def test_a_rounding_hold_keeps_the_value_an_earlier_hold_moved():
    # x0 is basic at 1; held at 1, its row's residual is 0, and a second
    # hold without values rounds that residual, not x0's value.
    model = synthetic_model(*HELD_LP, ub=[5.0, np.inf])
    tableau = solve_model_lp(model)[0].tableau
    tableau.hold(np.array([0]), np.array([1.0]))
    tableau.hold(np.array([0]))
    assert tableau.shift[0] == 1.0


def test_bland_rule_ends_cycling(monkeypatch):
    # Beale's cycling example: the largest-coefficient rule cycles through
    # degenerate pivots at the origin until Bland's rule takes over.
    lp = raw_lp(
        [-0.75, 20.0, -0.5, 6.0],
        [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]],
        [0.0, 0.0, 1.0],
    )
    solution = solve_lp(lp)
    assert (solution.status, solution.iterations) == (OPTIMAL, 43)
    assert solution.objective == -1.25
    np.testing.assert_array_equal(solution.x, [1.0, 0.0, 1.0, 0.0])
    assert_same_solution(solution, reference_solve_lp(lp))
    monkeypatch.setattr(simplex, "BLAND_AFTER", 10**6)
    assert solve_lp(lp, Tolerances(max_iterations=1_000)).status == ITERATION_LIMIT


def line_lp(*args, **kwargs):
    """The standard form of a generated line (synth.line_scenario)."""
    from railflow.scenario import build_scenario_model, load_scenario

    return build_standard_form(build_scenario_model(load_scenario(synth.line_scenario(*args, **kwargs))))


class CountingThreshold(int):
    """A BLAND_AFTER that counts the degenerate pivots past it.

    run_phase tests stall > BLAND_AFTER; with an int subclass on the right,
    Python calls this reflected __lt__ first, so every test passes here and
    past counts the pivots made under Bland's rule.
    """

    past = 0

    def __lt__(self, stall):
        crossed = int(self) < stall
        self.past += crossed
        return crossed


def test_bland_rule_on_a_generated_line_matches_reference(monkeypatch):
    # No bundled LP reaches Bland's rule (their longest degenerate runs are
    # shorter than BLAND_AFTER); this line's does, from the perturbed crash
    # basis too.
    lp = line_lp(13, 8, 5, 8, relax_integrality=True, pace_refinement=False)
    assert (lp.n_rows, lp.n_cols) == (461, 736)
    threshold = CountingThreshold(simplex.BLAND_AFTER)
    monkeypatch.setattr(simplex, "BLAND_AFTER", threshold)
    assert solve_lp(lp).status == OPTIMAL
    assert threshold.past > 0
    want = assert_matches_reference_solve(lp)
    assert (want.status, want.iterations) == (OPTIMAL, 442)


@pytest.mark.parametrize("mode", CAPACITY_MODES)
def test_bundled_lp_matches_reference(small_doc, mode):
    # Real tableaux: fractions with many denominators, degenerate stretches
    # and about 830 pivots, which the round-valued random LPs do not give.
    from railflow.scenario import build_scenario_model

    config = replace(small_doc.config, capacity_mode=mode, relax_integrality=True)
    sf = build_standard_form(build_scenario_model(replace(small_doc, config=config)))
    assert_same_solution(solve_lp(sf), reference_solve_lp(sf))


def test_perturbation_never_outlives_a_cold_solve(monkeypatch):
    # Every cold solve below lifts some zero right-hand sides
    # (Tableau.perturb).  Its final tableau keeps, for warm stages, the
    # certified basic values of the re-solve clipped at zero, bit for bit; and
    # the lift is a fixed function of the row index, so a second solve gives
    # the same bits.
    lps = [bundled_lp(scenario, mode) for scenario, mode in BUNDLED_LPS]
    lps += [line_lp(seed, 5, 6, 5, single_track=2, relax_integrality=True, pace_refinement=False) for seed in (11, 22, 33)]
    lifted, resolved = [], []
    perturb, resolve = simplex.Tableau.perturb, simplex._solve_sparse_basis

    def recording_perturb(tableau):
        perturb(tableau)
        lifted.append(tableau.perturbed)

    def recording_resolve(*args):
        x, y = resolve(*args)
        resolved.append(x)
        return x, y

    monkeypatch.setattr(simplex.Tableau, "perturb", recording_perturb)
    monkeypatch.setattr(simplex, "_solve_sparse_basis", recording_resolve)
    for lp in lps:
        first, second = solve_lp(lp), solve_lp(lp)
        assert first.status == OPTIMAL and lifted[-2:] == [True, True]
        rhs = first.tableau.T[: lp.n_rows, -1]
        assert rhs.tobytes() == np.maximum(resolved[-2], 0.0).tobytes()
        assert first.tableau.T.tobytes() == second.tableau.T.tobytes()
        assert first.x.tobytes() == second.x.tobytes() and first.iterations == second.iterations
        assert not first.tableau.perturbed


def test_cold_solve_allocates_no_tableau_sized_block(small_doc):
    # The tableau lives in its own mapping, which tracemalloc does not see,
    # and the phase-1 row is summed in place without a copy of the
    # artificial rows; everything else a solve allocates is row or column
    # sized.  A tableau from np.zeros plus that copy traced 1.75 tableaus.
    from railflow.scenario import build_scenario_model

    config = replace(small_doc.config, capacity_mode="heterogeneous", relax_integrality=True)
    sf = build_standard_form(build_scenario_model(replace(small_doc, config=config)))
    assert sf.n_rows == 373
    n_logical = sum(relation != "=" for relation in sf.relations)
    tableau_bytes = 8 * (sf.n_rows + 2) * (sf.n_cols + n_logical + 1)
    tracemalloc.start()
    try:
        solution = solve_lp(sf)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert solution.status == OPTIMAL
    assert solution.tableau.T.nbytes == tableau_bytes
    assert peak < tableau_bytes / 4


def test_shifted_column_with_upper_below_lower_is_conflicting():
    model = synthetic_model([1.0, 1.0], [([1.0, 1.0], "<=", 4.0)])
    model = rebuilt(model, variables=[model.variables[0], model.variables[1]._replace(lb=2.0, ub=1.5)])
    with pytest.raises(InfeasibleModel, match=r"conflicting bounds on x\(1\)$"):
        build_standard_form(model)


def solve_coo(M, b, c):
    """_solve_sparse_basis on the nonzeros of a dense matrix."""
    rows, slots = np.nonzero(M)
    return _solve_sparse_basis(rows, slots, M[rows, slots], np.asarray(b, float), np.asarray(c, float))


def test_sparse_basis_peels_singletons_around_a_bump(monkeypatch):
    # Block lower triangular: rows 0-1 are forward row singletons, rows and
    # columns 2-4 a dense bump, columns 5-6 backward column singletons.
    L = np.array(
        [
            [2.0, 0, 0, 0, 0, 0, 0],
            [1.0, -3.0, 0, 0, 0, 0, 0],
            [0.5, 0, 4.0, 1.0, -1.0, 0, 0],
            [0, 2.0, 1.0, 3.0, 2.0, 0, 0],
            [0, 0, -1.0, 1.0, 5.0, 0, 0],
            [1.0, 0, 2.0, 0, 1.0, 1.5, 0],
            [0, 1.0, 0, -2.0, 0, 0.5, -4.0],
        ]
    )
    rng = np.random.default_rng(3)
    M = L[rng.permutation(7)][:, rng.permutation(7)]
    b = rng.uniform(-2.0, 2.0, 7)
    c = rng.uniform(-2.0, 2.0, 7)
    dense_solve = np.linalg.solve
    shapes = []

    def recording_solve(a, v):
        shapes.append(np.shape(a))
        return dense_solve(a, v)

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    x, y = solve_coo(M, b, c)
    assert shapes == [(3, 3), (3, 3)]  # only the bump is solved densely
    np.testing.assert_allclose(x, dense_solve(M, b), rtol=0, atol=1e-12)
    np.testing.assert_allclose(y, dense_solve(M.T, c), rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "M",
    [
        # rows 0 and 1 both hold only column 0
        [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 1.0, 1.0]],
        # column 1 is empty
        [[1.0, 0.0, 1.0], [2.0, 0.0, 1.0], [1.0, 0.0, 3.0]],
        # structurally fine, but the bump is numerically singular
        [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]],
    ],
)
def test_sparse_basis_singular_raises(M):
    with pytest.raises(np.linalg.LinAlgError):
        solve_coo(np.array(M), np.ones(3), np.ones(3))


@given(st.integers(min_value=0, max_value=10_000))
def test_sparse_basis_matches_dense_solve_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 16))
    density = rng.uniform(0.0, 0.4)
    M = np.where(rng.random((n, n)) < density, rng.uniform(-3.0, 3.0, (n, n)), 0.0)
    M[np.arange(n), np.arange(n)] = rng.uniform(1.0, 3.0, n) * rng.choice([-1.0, 1.0], n)
    M = M[rng.permutation(n)][:, rng.permutation(n)]
    assume(np.linalg.cond(M) < 1e6)
    b = rng.uniform(-5.0, 5.0, n)
    c = rng.uniform(-5.0, 5.0, n)
    x, y = solve_coo(M, b, c)
    np.testing.assert_allclose(x, np.linalg.solve(M, b), rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(y, np.linalg.solve(M.T, c), rtol=1e-9, atol=1e-9)
    rows, slots = np.nonzero(M)
    assert_same_bits((x, y), reference_solve_sparse_basis(rows, slots, M[rows, slots], b, c))


def assert_same_bits(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def check_against_references(monkeypatch):
    """Make every basis re-solve and crash level choice also run its reference.

    Each call asserts the same bits as the reference (or the same
    LinAlgError); returns the counts of checked calls, by function.
    """
    checked = {"_solve_sparse_basis": 0, "_crash_levels": 0}
    resolve, levels = simplex._solve_sparse_basis, simplex._crash_levels

    def checked_resolve(rows, slots, vals, b, c_basic):
        checked["_solve_sparse_basis"] += 1
        try:
            want = reference_solve_sparse_basis(rows, slots, vals, b, c_basic)
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                resolve(rows, slots, vals, b, c_basic)
            raise
        got = resolve(rows, slots, vals, b, c_basic)
        assert_same_bits(got, want)
        return got

    def checked_levels(sf):
        checked["_crash_levels"] += 1
        got = levels(sf)
        assert got == reference_crash_levels(sf)
        return got

    monkeypatch.setattr(simplex, "_solve_sparse_basis", checked_resolve)
    monkeypatch.setattr(simplex, "_crash_levels", checked_levels)
    return checked


@pytest.mark.filterwarnings("ignore:capacity mode")
def test_resolve_and_crash_levels_match_reference_on_bundled_runs(monkeypatch, scenario_dir):
    # Every cold LP of the 16 bundled runs (branch and bound nodes included),
    # and every optimal basis, cold and after each warm stage: the
    # small_network_tcr single_track_alt2 completion of a fractional root,
    # held on the root's tableau, and the refinement stages.  Only the 16
    # roots choose a crash.  The small_network single_track_alt2 root lands
    # on an integral vertex (from the perturbed crash basis, Tableau.perturb)
    # and needs no completion.
    from railflow.scenario import load_scenario, run

    checked = check_against_references(monkeypatch)
    for scenario, mode in BUNDLED_LPS:
        doc = load_scenario(scenario_dir / f"{scenario}.json")
        assert run(replace(doc, config=replace(doc.config, capacity_mode=mode))).result.status == OPTIMAL
    assert checked == {"_solve_sparse_basis": 49, "_crash_levels": 16}


def test_resolve_and_crash_levels_match_reference_on_generated_lines(monkeypatch):
    from railflow.scenario import load_scenario, run

    checked = check_against_references(monkeypatch)
    for seed in (11, 22, 33):
        for relax in (True, False):
            doc = load_scenario(synth.line_scenario(seed, 4, 6, 4, single_track=1, relax_integrality=relax))
            assert run(doc).result.status == OPTIMAL
        doc = load_scenario(synth.line_scenario(seed, 5, 6, 5, single_track=2))
        assert run(replace(doc, config=replace(doc.config, capacity_mode="single_track_alt2"))).result.status == OPTIMAL
    # One cold LP per run; the single_track_alt2 roots of seeds 11 and 33
    # land on fractional vertices (from the perturbed crash basis,
    # Tableau.perturb), and each completion re-solves warm on the root's
    # tableau.
    assert checked == {"_solve_sparse_basis": 29, "_crash_levels": 9}


def test_small_network_lp_matches_highs(small_doc):
    # A real-size basis (380 rows), far past the tiny random LPs above; its
    # singleton peel leaves a 17 x 17 bump.
    from scipy.optimize import linprog

    from railflow.scenario import build_scenario_model

    config = replace(small_doc.config, capacity_mode="single_track_alt1", relax_integrality=True)
    sf = build_standard_form(build_scenario_model(replace(small_doc, config=config)))
    assert (sf.n_rows, sf.n_cols) == (380, 581)
    solution = solve_lp(sf)
    assert solution.status == OPTIMAL

    A = dense(sf)
    rel = np.array(sf.relations)
    upper = np.concatenate([A[rel == "<="], -A[rel == ">="]])
    reference = linprog(
        sf.c,
        A_ub=upper,
        b_ub=np.concatenate([sf.b[rel == "<="], -sf.b[rel == ">="]]),
        A_eq=A[rel == "="],
        b_eq=sf.b[rel == "="],
        bounds=(0, None),
        method="highs",
    )
    assert reference.status == 0
    assert solution.objective == pytest.approx(reference.fun + sf.objective_constant, rel=1e-9)

    activity = A @ solution.x
    assert np.all(activity[rel == "<="] <= sf.b[rel == "<="] + 1e-9)
    assert np.all(activity[rel == ">="] >= sf.b[rel == ">="] - 1e-9)
    np.testing.assert_allclose(activity[rel == "="], sf.b[rel == "="], rtol=0, atol=1e-9)
    assert solution.x.min() >= 0.0


def test_solving_does_not_import_scipy(scenario_dir):
    """A solve must not pull in scipy at run time.

    scipy is a test dependency only.  Importing scipy.sparse.linalg after
    numpy raises peak RSS from about 27 MB to 59 MB and takes about 0.3 s
    (2-core 2.0 GHz Xeon).  BENCHMARK.json lets peak_rss_mb grow by 10 %,
    about 11 MB on a solve that peaks near 106 MB, so a basis factorization
    borrowed from scipy would cost three times that bound in memory alone.
    """
    script = (
        "import sys\n"
        "from pathlib import Path\n"
        "from railflow.scenario import load_scenario, run\n"
        f"output = run(load_scenario(Path({str(scenario_dir / 'small_network.json')!r})))\n"
        "assert output.result.status == 'optimal', output.result.status\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
