"""Best-first branch and bound over the model's integer-marked variables.

Only the direction-change flags (binary) and the per-demand cancellation
totals (general integer) are ever marked, so trees stay small.  Each node is
the base LP plus simple bound rows; nodes are explored best bound first with
most-fractional branching and deterministic tie-breaking.  A cheap rounding
repair tries to complete almost-integral LP points into verified incumbents
before branching, which usually closes the root node outright.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .checks import ConstraintSystem
from .model import LinearConstraint, TimeExpandedModel
from .simplex import (
    INFEASIBLE,
    ITERATION_LIMIT,
    OPTIMAL,
    UNBOUNDED,
    Tolerances,
    solve_model_lp,
)


@dataclass
class SolveResult:
    """Outcome of one solve: status, objective and per-variable values."""

    status: str
    objective: Optional[float]
    values: Optional[np.ndarray]
    iterations: int = 0
    nodes: int = 0
    gap: Optional[float] = None
    bound: Optional[float] = None

    def value(self, model: TimeExpandedModel, kind: str, *key) -> float:
        if self.values is None:
            raise ValueError(f"no solution values in a result with status {self.status}")
        return float(self.values[model.var(kind, *key)])


def _bound_row(model: TimeExpandedModel, var_idx: int, relation: str, bound: float) -> LinearConstraint:
    name = f"__branch[{model.variables[var_idx].name}{relation}{bound:g}]"
    return LinearConstraint(name, ((var_idx, 1.0),), relation, bound)


def _try_rounding_repair(
    model: TimeExpandedModel,
    system: ConstraintSystem,
    values: np.ndarray,
    int_vars: Sequence[int],
    tol: Tolerances,
) -> Optional[np.ndarray]:
    """Round fractional integer variables and verify full feasibility."""
    candidate = values.copy()
    for idx in int_vars:
        candidate[idx] = float(round(candidate[idx]))
    if np.max(system.violations(candidate), initial=0.0) > tol.feasibility:
        return None
    for idx, var in enumerate(model.variables):
        if candidate[idx] < var.lb - tol.feasibility or candidate[idx] > var.ub + tol.feasibility:
            return None
    return candidate


def _relative_gap(incumbent: float, bound: float) -> float:
    return max(0.0, incumbent - bound) / max(1.0, abs(incumbent))


def solve_mip(model: TimeExpandedModel, tol: Tolerances | None = None) -> SolveResult:
    """Prove-optimal solve of the model's LP/MIP.

    With relax_integrality (or no integer marks) this is a single LP solve.
    """
    if tol is None:
        tol = Tolerances()
    int_vars = [i for i, v in enumerate(model.variables) if v.integer]

    if not int_vars:
        solution, values = solve_model_lp(model, tol)
        return SolveResult(
            solution.status, solution.objective, values, solution.iterations, nodes=1,
            gap=0.0 if solution.status == OPTIMAL else None,
            bound=solution.objective,
        )

    system = ConstraintSystem.from_model(model)
    objective_of = model.objective_value

    counter = 0
    iterations = 0
    nodes = 0
    incumbent: Optional[np.ndarray] = None
    incumbent_obj = math.inf
    hit_limit = False

    root_solution, root_values = solve_model_lp(model, tol)
    iterations += root_solution.iterations
    nodes += 1
    if root_solution.status == UNBOUNDED:
        return SolveResult(UNBOUNDED, None, None, iterations, nodes)
    if root_solution.status == INFEASIBLE:
        return SolveResult(INFEASIBLE, None, None, iterations, nodes)
    if root_solution.status == ITERATION_LIMIT:
        return SolveResult(ITERATION_LIMIT, None, None, iterations, nodes)

    # heap of (lp bound, tie-break counter, branch rows)
    heap: list[tuple[float, int, tuple[LinearConstraint, ...]]] = []

    def process(solution, values, branch_rows: tuple[LinearConstraint, ...]) -> None:
        """Update the incumbent or queue the two children of this node."""
        nonlocal incumbent, incumbent_obj, counter, iterations
        fractional = [
            idx for idx in int_vars if abs(values[idx] - round(values[idx])) > tol.integrality
        ]
        if not fractional:
            if solution.objective < incumbent_obj - 1e-12:
                incumbent = values
                incumbent_obj = solution.objective
            return
        repaired = _try_rounding_repair(model, system, values, int_vars, tol)
        if repaired is None:
            # Fix-and-solve completion: re-solve the continuous problem with
            # every integer pinned at its rounded value.  Zero-cost variables
            # (like single-track setup times) get lifted to whatever the
            # rounding requires, which plain value rounding cannot do.
            fixes = {idx: float(round(values[idx])) for idx in int_vars}
            fix_solution, fix_values = solve_model_lp(model, tol, extra_fixes=fixes)
            iterations += fix_solution.iterations
            if fix_solution.status == OPTIMAL and fix_values is not None:
                repaired = fix_values
        if repaired is not None:
            repaired_obj = objective_of(repaired)
            if repaired_obj < incumbent_obj - 1e-12:
                incumbent = repaired
                incumbent_obj = repaired_obj
            if repaired_obj <= solution.objective + 1e-9:
                return  # the repair already attains this node's bound
        scores = [
            (min(values[idx] - math.floor(values[idx]), math.ceil(values[idx]) - values[idx]), idx)
            for idx in fractional
        ]
        best_score = max(s for s, _ in scores)
        branch_idx = min(idx for s, idx in scores if s >= best_score - 1e-12)
        down = branch_rows + (_bound_row(model, branch_idx, "<=", math.floor(values[branch_idx])),)
        up = branch_rows + (_bound_row(model, branch_idx, ">=", math.ceil(values[branch_idx])),)
        for child in (down, up):
            counter += 1
            heapq.heappush(heap, (solution.objective, counter, child))

    process(root_solution, root_values, ())

    best_bound = root_solution.objective
    while heap:
        bound, _, branch_rows = heap[0]
        best_bound = bound
        if incumbent is not None and _relative_gap(incumbent_obj, bound) <= tol.mip_gap:
            break
        heapq.heappop(heap)
        if nodes >= tol.max_nodes:
            hit_limit = True
            break
        solution, values = solve_model_lp(model, tol, extra_rows=branch_rows)
        iterations += solution.iterations
        nodes += 1
        if solution.status == ITERATION_LIMIT:
            hit_limit = True
            break
        if solution.status == INFEASIBLE:
            continue
        if solution.status == UNBOUNDED:
            return SolveResult(UNBOUNDED, None, None, iterations, nodes)
        if solution.objective >= incumbent_obj - 1e-12:
            continue
        process(solution, values, branch_rows)

    if incumbent is None:
        status = ITERATION_LIMIT if hit_limit else INFEASIBLE
        return SolveResult(status, None, None, iterations, nodes)

    if heap and not hit_limit:
        best_bound = min(best_bound, heap[0][0])
    elif not heap:
        best_bound = incumbent_obj
    gap = _relative_gap(incumbent_obj, best_bound)
    status = OPTIMAL if (not hit_limit and gap <= tol.mip_gap) else ITERATION_LIMIT
    values = incumbent.copy()
    values[np.abs(values) < 1e-11] = 0.0
    for idx in int_vars:
        values[idx] = float(round(values[idx]))
    return SolveResult(status, incumbent_obj, values, iterations, nodes, gap=gap, bound=best_bound)


def refine_to_earliest_pace(
    model: TimeExpandedModel,
    result: SolveResult,
    tol: Tolerances | None = None,
) -> SolveResult:
    """Among the optima of a solved model, pick the earliest-moving one.

    The primary objective value is pinned by an extra row, integer variables
    are fixed at their solved values, and a secondary objective pushes volume
    through every node as early as possible.  This resolves the tie between
    alternate optima that differ only in when volume crosses a link, so the
    reported capacity usage matches the physical reading of the flows.
    """
    if result.status != OPTIMAL or result.values is None:
        return result
    if tol is None:
        tol = Tolerances()

    pin = 1e-9 * max(1.0, abs(result.objective)) + 1e-9
    objective_row = LinearConstraint(
        "__objective_pin",
        tuple((idx, coef) for idx, coef in model.objective.items()),
        "<=",
        result.objective + pin,
    )
    fixes = {
        idx: float(round(result.values[idx]))
        for idx, var in enumerate(model.variables)
        if var.integer
    }
    secondary = {
        idx: float(var.ref.key[1])
        for idx, var in enumerate(model.variables)
        if var.ref.kind == "in" and var.ref.key[1] >= 1
    }
    # Setup times and capacity allocations carry no primary cost and would
    # otherwise float anywhere between their bounds; a tiny weight pins the
    # allocations at the flow actually carried (their total over time is an
    # invariant of the flow, so this cannot trade against the pace term).
    for idx, var in enumerate(model.variables):
        if var.ref.kind in ("setup_w", "linkcap"):
            secondary[idx] = 1e-6
    solution, values = solve_model_lp(
        model,
        tol,
        extra_rows=(objective_row,),
        extra_fixes=fixes,
        objective_override=secondary,
    )
    if solution.status != OPTIMAL or values is None:
        return result
    _reoptimize_setup(model, values)
    refined_obj = model.objective_value(values)
    return SolveResult(
        OPTIMAL,
        refined_obj,
        values,
        result.iterations + solution.iterations,
        result.nodes,
        gap=result.gap,
        bound=result.bound,
    )


def _reoptimize_setup(model: TimeExpandedModel, values: np.ndarray) -> None:
    """Shrink each setup time to the smaller directional requirement, in place.

    A (setup, direction-flag) pair appears in exactly four rows: the two pair
    capacity rows (setup enters with +1, so shrinking it keeps them feasible)
    and the two flag-guarded allocation bounds (satisfied by construction for
    the direction chosen here).  Everything else is untouched, so the result
    stays feasible with an identical objective.
    """
    if model.config.capacity_mode != "single_track_alt2":
        return
    for rep, other in model.single_track_pairs:
        for t in model.horizon.periods:
            own = sum(
                values[model.var("linkcap", rep, t, h.id)] for h in model.network.train_types
            )
            opp = sum(
                values[model.var("linkcap", other, t, h.id)] for h in model.network.train_types
            )
            need_when_flagged = own / model.config.setup_coefficient(rep, t)
            need_when_clear = opp / model.config.setup_coefficient(other, t)
            w_idx = model.var("setup_w", rep, t)
            beta_idx = model.var("dirflag_beta", rep, t)
            if need_when_flagged <= need_when_clear + 1e-12:
                required = need_when_flagged
                flag = 1.0
            else:
                required = need_when_clear
                flag = 0.0
            if required < values[w_idx]:
                values[w_idx] = max(required, 0.0)
                values[beta_idx] = flag
