"""Best-first branch and bound over the model's integer-marked variables.

Only the direction-change flags (binary) and the per-demand cancellation
totals (general integer) are ever marked, so trees stay small.  Each node is
the base LP with tightened variable bounds, solved cold; nodes are explored
best bound first, and a node branches on its most fractional integer, the
lowest index on a tie, reading the integers' values as one array.  A
fractional node is completed warm on its own final tableau (solve_held_lp):
every integer is held at its rounded value, a phase 1 drives the rows this
moves off zero back to it, and phase 2 minimises the model's objective over
what is left.  That usually closes the root node outright.  Every incumbent
is the optimal vertex of an LP, and the result carries that LP's final
tableau, on which refine_to_earliest_pace continues warm.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .checks import INTEGRALITY
from .model import TimeExpandedModel
from .simplex import (
    INFEASIBLE,
    ITERATION_LIMIT,
    NUMERICS,
    OPTIMAL,
    UNBOUNDED,
    Tableau,
    Tolerances,
    solve_face_lp,
    solve_held_lp,
    solve_model_lp,
)

MIP_GAP = 1e-6  # relative gap between incumbent and best bound that proves optimality


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
    # The final tableau of the LP the values came from, until
    # refine_to_earliest_pace uses it up (scenario.run drops it).
    tableau: Optional[Tableau] = field(default=None, repr=False, compare=False)


def _relative_gap(incumbent: float, bound: float) -> float:
    return max(0.0, incumbent - bound) / max(1.0, abs(incumbent))


def solve_mip(model: TimeExpandedModel, tol: Tolerances | None = None) -> SolveResult:
    """Prove-optimal solve of the model's LP/MIP.

    With relax_integrality (or no integer marks) this is a single LP solve.
    The reported objective is that of the reported values, after integers
    are rounded (solve_model_lp has already zeroed values below 1e-11).
    """
    if tol is None:
        tol = Tolerances()
    int_idx = np.flatnonzero(model.bound_arrays()[2])

    counter = 0
    iterations = 0
    nodes = 0
    incumbent: Optional[np.ndarray] = None
    incumbent_obj = math.inf
    incumbent_tableau: Optional[Tableau] = None
    stopped: Optional[str] = None  # ITERATION_LIMIT or NUMERICS once the search stops early

    root_solution, root_values = solve_model_lp(model, tol)
    iterations += root_solution.iterations
    nodes += 1
    if root_solution.status != OPTIMAL:
        return SolveResult(root_solution.status, None, None, iterations, nodes)

    # heap of (lp bound, tie-break counter, branch bounds: variable -> (lower, upper))
    heap: list[tuple[float, int, dict[int, tuple[float, float]]]] = []

    def process(solution, values, branch: dict[int, tuple[float, float]]) -> None:
        """Prune this optimal node, take it as the incumbent or queue its children.

        The node's tableau is taken off the solution here, so that only an
        incumbent's tableau outlives its node: once there is an incumbent,
        each further node LP holds a second tableau while it solves.  A
        fractional node's completion runs on the node's tableau, which it
        leaves as the completion's.
        """
        nonlocal incumbent, incumbent_obj, incumbent_tableau, counter, iterations
        tableau, solution.tableau = solution.tableau, None
        if solution.objective >= incumbent_obj - 1e-12:
            return
        rounded = np.round(values[int_idx])
        distance = np.abs(values[int_idx] - rounded)  # to the nearest integer
        fractional = distance > INTEGRALITY
        if not fractional.any():
            incumbent, incumbent_obj, incumbent_tableau = values, solution.objective, tableau
            return
        # Fix-and-solve completion, warm on this node's tableau: re-solve the
        # continuous problem with every integer held at its rounded value,
        # so the continuous variables move to whatever the rounding
        # requires, which plain value rounding cannot do.
        fix_solution, fix_values = solve_held_lp(tableau, int_idx, rounded, tol)
        iterations += fix_solution.iterations
        if fix_solution.status == OPTIMAL:
            repaired_obj = model.objective_value(fix_values)
            if repaired_obj < incumbent_obj - 1e-12:
                incumbent, incumbent_obj, incumbent_tableau = fix_values, repaired_obj, tableau
            if repaired_obj <= solution.objective + 1e-9:
                return  # the completion already attains this node's bound
        # Branch on the most fractional integer, the lowest index on a tie.
        branch_idx = int(int_idx[fractional & (distance >= distance.max() - 1e-12)][0])
        lower, upper = branch.get(branch_idx, (-math.inf, math.inf))
        down = {**branch, branch_idx: (lower, min(upper, math.floor(values[branch_idx])))}
        up = {**branch, branch_idx: (max(lower, math.ceil(values[branch_idx])), upper)}
        for child in (down, up):
            counter += 1
            heapq.heappush(heap, (solution.objective, counter, child))

    process(root_solution, root_values, {})

    best_bound = root_solution.objective
    while heap:
        bound, _, branch = heap[0]
        best_bound = bound
        if incumbent is not None and _relative_gap(incumbent_obj, bound) <= MIP_GAP:
            break
        heapq.heappop(heap)
        if nodes >= tol.max_nodes:
            stopped = ITERATION_LIMIT
            break
        solution, values = solve_model_lp(model, tol, bounds=branch)
        iterations += solution.iterations
        nodes += 1
        if solution.status in (ITERATION_LIMIT, NUMERICS):
            stopped = solution.status
            break
        if solution.status == INFEASIBLE:
            continue
        if solution.status == UNBOUNDED:
            return SolveResult(UNBOUNDED, None, None, iterations, nodes)
        process(solution, values, branch)

    if incumbent is None:
        return SolveResult(stopped or INFEASIBLE, None, None, iterations, nodes)

    if heap and not stopped:
        best_bound = min(best_bound, heap[0][0])
    elif not heap:
        best_bound = incumbent_obj
    gap = _relative_gap(incumbent_obj, best_bound)
    status = stopped or (OPTIMAL if gap <= MIP_GAP else ITERATION_LIMIT)
    values = incumbent.copy()
    values[int_idx] = np.round(values[int_idx])
    return SolveResult(
        status, model.objective_value(values), values, iterations, nodes, gap=gap, bound=best_bound,
        tableau=incumbent_tableau if status == OPTIMAL else None,
    )


# Seed of the tie-break weights; any fixed value gives a canonical report.
_TIE_BREAK_SEED = "railflow tie-break"


def _pace_objective(model: TimeExpandedModel) -> np.ndarray:
    """Earliest pace: the volume entering each route node weighted by the period.

    Volume enters the origin as departures and every later node over the
    route's link into it: a direct arc within its period t, a next arc in
    period t + 1 (no next arc leaves t_max); the weight is 0 off these flows.
    """
    doc = model.doc
    T = np.arange(1, doc.t_max + 1)
    routes, links = np.arange(len(doc.routes)), np.arange(len(doc.links))[:, None, None]
    weight = np.zeros(model.bound_arrays()[0].size)
    # The period is the second key part of each kind, so axis 1 of its lookup.
    for ids, delay in (
        (model.lookup("dep", routes[:, None], T), 1),
        (model.lookup("direct", links, T[:, None], routes), 1),
        (model.lookup("next", links, T[:, None], routes), 2),
    ):
        at = (ids >= 0).nonzero()
        weight[ids[at]] = at[1] + delay
    return weight


def _tie_break_objective(model: TimeExpandedModel) -> np.ndarray:
    """Fixed generic weights in [1, 2) on every model variable.

    Each weight is 53 bits of a sha256 of the seed and the variable's name, so
    neither the document's order nor the other declared variables move it.
    The seed is hashed once, and each name continues a copy of that state.
    """
    seeded = hashlib.sha256(f"{_TIE_BREAK_SEED}:".encode())

    def digest(name: str) -> bytes:
        h = seeded.copy()
        h.update(name.encode())
        return h.digest()[:8]

    words = np.frombuffer(b"".join(map(digest, model.names)), dtype=">u8")
    return 1.0 + (words >> 11) / 2.0**53


def refine_to_earliest_pace(
    model: TimeExpandedModel,
    result: SolveResult,
    tol: Tolerances | None = None,
) -> SolveResult:
    """Among the optima of a solved model, pick the earliest-moving one.

    The refinement continues on the final tableau of the LP the result came
    from (result.tableau, which it uses up) in two warm stages, each on the
    optimal face of the one before (solve_face_lp):

    1. pace: integer variables are held at their solved values, and a
       secondary objective pushes volume through every node as early as
       possible.  This resolves the tie between alternate optima that
       differ only in when volume crosses a link, so the reported capacity
       usage matches the physical reading of the flows.
    2. tie-break: fixed generic weights, each drawn from a variable's name,
       pick one vertex of the pace-optimal face, so the reported solution
       depends on the declared variables alone, not on their order or on
       the pivots that reached it.

    Each stage starts from an optimal basis of the one before, so a
    refinement that does not end optimal failed numerically or at the cap;
    it keeps the solved values but not the OPTIMAL status: it reads
    ITERATION_LIMIT when a stage hit its cap and NUMERICS otherwise.  A
    result without a tableau (an LP without rows or columns, whose solution
    is x = 0) is returned as it is.
    """
    if result.status != OPTIMAL or result.values is None:
        return result
    tableau, result.tableau = result.tableau, None
    if tableau is None:
        return result
    if tol is None:
        tol = Tolerances()

    integers = np.flatnonzero(model.bound_arrays()[2])
    iterations = result.iterations
    for objective, hold in ((_pace_objective(model), integers), (_tie_break_objective(model), ())):
        solution, values = solve_face_lp(tableau, objective, tol, hold)
        iterations += solution.iterations
        if solution.status != OPTIMAL:
            status = ITERATION_LIMIT if solution.status == ITERATION_LIMIT else NUMERICS
            return replace(result, status=status, iterations=iterations)
    return SolveResult(
        OPTIMAL,
        model.objective_value(values),
        values,
        iterations,
        result.nodes,
        gap=result.gap,
        bound=result.bound,
    )

