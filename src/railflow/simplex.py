"""Standard-form conversion and a dense two-phase primal simplex.

The converter folds singleton rows and fixed variables into bounds exactly
(no tolerance-based presolve), shifts or splits variables so every remaining
column is nonnegative, and keeps a bijection back to the model variables.
The simplex works on a dense tableau with a largest-coefficient pivot rule
and Bland's rule as the anti-cycling fallback.  The final primal and dual
values are recomputed from the original data so that residuals are at
machine precision rather than accumulated tableau error: the optimal basis
is nearly triangular, so peeling its row and column singletons leaves a
small dense bump, and only that bump goes through a dense solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .checks import ConstraintSystem
from .model import LinearConstraint, TimeExpandedModel

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"


@dataclass(frozen=True)
class Tolerances:
    """Numeric tolerances; defaults suit data made of small integers and fractions."""

    feasibility: float = 1e-7
    integrality: float = 1e-6
    mip_gap: float = 1e-6
    pivot: float = 1e-9
    max_iterations: int = 200_000
    max_nodes: int = 5_000
    bland_after: int = 40


class InfeasibleModel(Exception):
    """Conversion already proves the model infeasible (conflicting fixings)."""


@dataclass
class StandardFormLP:
    """min c.x + constant s.t. A x (rel) b, x >= 0, with model-variable mapping.

    A is sparse: vals[k] sits at (rows[k], cols[k]), sorted by row and then
    column.  Each live model variable maps to one column (offset + column
    value) or, if free, to a plus/minus column pair.  Fixed variables carry
    their value in offset with no column.
    """

    c: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    relations: tuple[str, ...]
    b: np.ndarray
    row_names: tuple[str, ...]
    objective_constant: float
    n_model_vars: int
    offset: np.ndarray          # per model variable, additive constant
    pos_col: np.ndarray         # per model variable, +1 column index or -1
    neg_col: np.ndarray         # per model variable, -1 column index or -1

    @property
    def n_rows(self) -> int:
        return self.b.size

    @property
    def n_cols(self) -> int:
        return self.c.size

    def model_values(self, x: np.ndarray) -> np.ndarray:
        values = self.offset.copy()
        pos = self.pos_col >= 0
        values[pos] += x[self.pos_col[pos]]
        neg = self.neg_col >= 0
        values[neg] -= x[self.neg_col[neg]]
        return values


def build_standard_form(
    model: TimeExpandedModel,
    extra_rows: Sequence[LinearConstraint] = (),
    extra_fixes: Mapping[int, float] | None = None,
    objective_override: Mapping[int, float] | None = None,
) -> StandardFormLP:
    """Convert a model (plus branching rows/fixings) to nonnegative standard form.

    Singleton rows become bounds.  Every other row keeps its place; its fixed
    and shifted terms move to the right-hand side, and it is dropped when no
    live column is left.  The upper bounds of the live columns follow as
    __ub rows in variable order.  Raises InfeasibleModel when bound folding
    alone proves infeasibility.
    """
    rows = list(model.constraints) + list(extra_rows)
    system = ConstraintSystem.from_rows(rows)
    n_vars = len(model.variables)
    lo = np.array([v.lb for v in model.variables], dtype=float)
    hi = np.array([v.ub for v in model.variables], dtype=float)
    if extra_fixes:
        fix_idx = np.fromiter(extra_fixes.keys(), dtype=int, count=len(extra_fixes))
        fix_val = np.fromiter(extra_fixes.values(), dtype=float, count=len(extra_fixes))
        np.maximum.at(lo, fix_idx, fix_val)
        np.minimum.at(hi, fix_idx, fix_val)

    # A singleton row bounds its variable; a negative coefficient flips the
    # relation (sense -1 is <=, 0 is =, +1 is >=).
    lengths = np.diff(system.starts)
    row_of = np.repeat(np.arange(len(rows)), lengths)
    single = lengths == 1
    first = system.starts[:-1][single]
    var, coef = system.var_idx[first], system.coefs[first]
    bound = system.rhs[single] / coef
    sense = system.sense[single] * np.sign(coef)
    np.maximum.at(lo, var[sense >= 0], bound[sense >= 0])
    np.minimum.at(hi, var[sense <= 0], bound[sense <= 0])

    bad = np.nonzero(lo > hi + 1e-9)[0]
    if bad.size:
        names = ", ".join(model.variables[i].name for i in bad[:5])
        raise InfeasibleModel(f"conflicting bounds on {names}")

    fixed = (hi - lo <= 1e-12) & np.isfinite(lo)
    free = ~fixed & (lo == -math.inf)
    offset = np.where(free, 0.0, lo)
    width = np.where(fixed, 0, np.where(free, 2, 1))
    pos_col = np.where(fixed, -1, np.cumsum(width) - width)
    neg_col = np.where(free, pos_col + 1, -1)

    objective = model.objective if objective_override is None else objective_override
    obj = np.zeros(n_vars)
    obj[np.fromiter(objective.keys(), dtype=int, count=len(objective))] = np.fromiter(
        objective.values(), dtype=float, count=len(objective)
    )
    c = np.zeros(int(width.sum()))
    c[pos_col[~fixed]] = obj[~fixed]
    c[neg_col[free]] = -obj[free]

    multi = ~single
    adj = system.rhs - np.bincount(
        row_of, weights=system.coefs * offset[system.var_idx], minlength=len(rows)
    )
    live = multi[row_of] & ~fixed[system.var_idx]
    n_live = np.bincount(row_of[live], minlength=len(rows))
    violated = np.where(system.sense == 0, np.abs(adj), system.sense * adj) > 1e-9
    dead = np.nonzero(multi & (n_live == 0) & violated)[0]
    if dead.size:
        raise InfeasibleModel(f"constraint {rows[dead[0]].name} is violated by fixed variables")
    kept = multi & (n_live > 0)

    ub_var = np.nonzero(~fixed & np.isfinite(hi))[0]
    ub_free = free[ub_var]
    span = np.where(ub_free, hi[ub_var], hi[ub_var] - lo[ub_var])
    short = np.nonzero(~ub_free & (span < -1e-9))[0]
    if short.size:
        # shifted nonnegative column: its span collapsed below zero
        raise InfeasibleModel(f"upper bound below lower bound for {model.variables[ub_var[short[0]]].name}")

    term_row = (np.cumsum(kept) - 1)[row_of[live]]
    term_var, term_coef = system.var_idx[live], system.coefs[live]
    split = free[term_var]
    ub_row = np.count_nonzero(kept) + np.arange(ub_var.size)
    a_rows = np.concatenate([term_row, term_row[split], ub_row, ub_row[ub_free]])
    a_cols = np.concatenate(
        [pos_col[term_var], neg_col[term_var[split]], pos_col[ub_var], neg_col[ub_var[ub_free]]]
    )
    a_vals = np.concatenate(
        [term_coef, -term_coef[split], np.ones(ub_var.size), -np.ones(np.count_nonzero(ub_free))]
    )
    order = np.lexsort((a_cols, a_rows))
    relation_of = np.array(["<=", "=", ">="])
    return StandardFormLP(
        c=c,
        rows=a_rows[order],
        cols=a_cols[order],
        vals=a_vals[order],
        relations=tuple(relation_of[system.sense[kept] + 1].tolist()) + ("<=",) * ub_var.size,
        b=np.concatenate([adj[kept], span]),
        row_names=tuple(rows[k].name for k in np.nonzero(kept)[0])
        + tuple(f"__ub[{model.variables[i].name}]" for i in ub_var),
        objective_constant=float(obj @ offset),
        n_model_vars=n_vars,
        offset=offset,
        pos_col=pos_col,
        neg_col=neg_col,
    )


@dataclass
class LpSolution:
    status: str
    objective: Optional[float]
    x: Optional[np.ndarray]
    iterations: int
    dual_objective: Optional[float] = None


def _solve_sparse_basis(
    rows: np.ndarray,
    slots: np.ndarray,
    vals: np.ndarray,
    b: np.ndarray,
    c_basic: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve B x = b and B^T y = c_basic for a sparse square basis B.

    B holds vals[k] at (rows[k], slots[k]).  Row singletons are peeled in
    forward order and column singletons in backward order; this permutes B to
    block lower triangular form around a dense bump, and B^T is block upper
    triangular under the same permutation.  Each peel pairs one row with one
    slot, so the bump is square.  Raises LinAlgError when the peel finds a
    row or column with no live entry or the bump is singular.
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


def solve_lp(sf: StandardFormLP, tol: Tolerances | None = None) -> LpSolution:
    """Two-phase primal simplex on the standard-form problem.

    Artificial variables are kept logical: a basis slot either holds a real
    column or marks its row as artificial.  Since an artificial never
    re-enters the basis, its column values are never needed, which keeps the
    tableau a quarter slimmer and free of artificial fill-in.  Pivot updates
    touch only the nonzero block of the rank-1 correction, falling back to a
    full update once the tableau densifies.

    At the optimum, x and the duals y are re-solved from the sparse basis
    columns with one singleton-peel ordering plus a dense solve of the bump
    (_solve_sparse_basis).  x falls back to the tableau's values when that
    re-solve leaves a residual above 1e-6, and x does so with no dual
    objective when the basis proves singular.
    """
    if tol is None:
        tol = Tolerances()
    m, n = sf.n_rows, sf.n_cols

    if n == 0:
        return LpSolution(OPTIMAL, sf.objective_constant, np.zeros(0), 0, sf.objective_constant)
    if m == 0:
        if np.any(sf.c < -tol.pivot):
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
                neg = np.nonzero(costs < -tol.pivot)[0]
                if neg.size == 0:
                    return OPTIMAL
                q = int(neg[0])
            else:
                q = int(np.argmin(costs))
                if costs[q] >= -tol.pivot:
                    return OPTIMAL

            column = T[:m, q]
            # Keep basic artificials at zero: rows where the entering column
            # would increase one (negative entry) are pivoted on immediately,
            # a zero-length step that drives the artificial out for good.
            # Positive entries need no guard; the ratio test picks them at
            # ratio zero by itself.
            if not phase_one and basic_artificial.any():
                guard = np.nonzero(basic_artificial & (column < -tol.pivot))[0]
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

            positive = column > tol.pivot
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
                if stall > tol.bland_after:
                    bland = True
            else:
                stall = 0
                bland = False

    if n_art:
        outcome = run_phase(m + 1, phase_one=True)
        if outcome == ITERATION_LIMIT:
            return LpSolution(ITERATION_LIMIT, None, None, iterations)
        if T[m + 1, -1] < -(tol.feasibility * max(1.0, float(np.abs(b).max(initial=1.0)))):
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

    np.clip(x_full, 0.0, None, out=x_full)
    x = x_full[:n]
    objective = float(sf.c @ x) + sf.objective_constant
    return LpSolution(OPTIMAL, objective, x, iterations, dual_objective)


def solve_model_lp(
    model: TimeExpandedModel,
    tol: Tolerances | None = None,
    extra_rows: Sequence[LinearConstraint] = (),
    extra_fixes: Mapping[int, float] | None = None,
    objective_override: Mapping[int, float] | None = None,
) -> tuple[LpSolution, Optional[np.ndarray]]:
    """Convert, solve and map the solution back onto the model variables."""
    try:
        sf = build_standard_form(model, extra_rows, extra_fixes, objective_override)
    except InfeasibleModel:
        return LpSolution(INFEASIBLE, None, None, 0), None
    solution = solve_lp(sf, tol)
    if solution.status != OPTIMAL:
        return solution, None
    values = sf.model_values(solution.x)
    values[np.abs(values) < 1e-11] = 0.0
    return solution, values
