"""Standard-form conversion and a dense two-phase primal simplex.

The converter moves fixed variables to the right-hand side exactly (no
tolerance-based presolve), shifts variables by their lower bounds so every
remaining column is nonnegative, and keeps a bijection back to the model
variables.
The simplex works on a dense tableau with a largest-coefficient pivot rule
and Bland's rule as the anti-cycling fallback; each iteration's work is in
the nonzeros of the entering column and pivot row.  A cold solve starts from
a triangular crash basis (_crash_levels): the = and >= rows with a zero
right-hand side get a structural column before phase 1, pivoted in one
dependency level per batch, as in level scheduling of a sparse triangular
solve (Anderson and Saad, 1989).  The zero right-hand sides of the rows
on a real column are then lifted to distinct values near 1e-9
(Tableau.perturb), so that the degenerate flow balances take fewer zero
steps (Wolfe, 1963).  The final primal and dual values are recomputed from
the original, unperturbed data (_solve_sparse_basis), so that residuals
are at machine precision rather than accumulated tableau error or
perturbation.  A basis that this re-solve cannot verify ends the solve as
NUMERICS; tableau values never leave the solver.  An optimal solve keeps
its final tableau (Tableau) for warm stages, with the certified basic
values written over any perturbed right-hand side.  solve_face_lp
minimises another objective over the optimal face of the last one, without
a phase 1.  solve_held_lp holds model variables at given values: a phase 1
drives the rows this moves off zero back to it, and phase 2 minimises the
tableau's own objective.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from .checks import FEASIBILITY, ConstraintSystem
from .model import TimeExpandedModel

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"
NUMERICS = "numerics"

PIVOT = 1e-9  # smallest entry a pivot, or a reduced cost that may enter, can have
PERTURB = 1e-9  # scale of the cold start's lift of zero right-hand sides (Tableau.perturb)
BLAND_AFTER = 40  # degenerate pivots in a row before Bland's rule takes over


@dataclass(frozen=True)
class Tolerances:
    """Work limits of a solve: simplex iterations, and branch-and-bound nodes."""

    max_iterations: int = 200_000
    max_nodes: int = 5_000


class InfeasibleModel(Exception):
    """Conversion already proves the model infeasible (conflicting fixings)."""


@dataclass
class StandardFormLP:
    """min c.x + constant s.t. A x (rel) b, x >= 0, with model-variable mapping.

    A is sparse: vals[k] sits at (rows[k], cols[k]), sorted by row and then
    column, with each (row, column) once and every value nonzero.  Each live
    model variable maps to one column: its value is offset plus the column
    value.  Fixed variables carry their value in offset with no column.
    offset and pos_col have one entry per model variable.
    """

    c: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    relations: tuple[str, ...]
    b: np.ndarray
    objective_constant: float
    offset: np.ndarray          # per model variable, additive constant
    pos_col: np.ndarray         # per model variable, column index or -1

    @property
    def n_rows(self) -> int:
        return self.b.size

    @property
    def n_cols(self) -> int:
        return self.c.size

    def with_objective(self, objective: Mapping[int, float]) -> "StandardFormLP":
        """The same rows and columns under an objective over the model variables."""
        obj = np.zeros(self.offset.size)
        obj[np.fromiter(objective.keys(), dtype=int, count=len(objective))] = np.fromiter(
            objective.values(), dtype=float, count=len(objective)
        )
        c = np.zeros(self.n_cols)
        pos = self.pos_col >= 0
        c[self.pos_col[pos]] = obj[pos]
        return replace(self, c=c, objective_constant=float(obj @ self.offset))

    def model_values(self, x: np.ndarray) -> np.ndarray:
        values = self.offset.copy()
        pos = self.pos_col >= 0
        values[pos] += x[self.pos_col[pos]]
        return values


def build_standard_form(
    model: TimeExpandedModel,
    bounds: Mapping[int, tuple[float, float]] | None = None,
) -> StandardFormLP:
    """Convert a model to nonnegative standard form.

    bounds maps a model variable to a (lower, upper) pair that tightens its
    own bounds (a branch of branch and bound, or a fixing); either side may
    be infinite.  Every row keeps its place; its fixed and shifted terms move
    to the right-hand side, and it is dropped when no live column is left.
    The upper bounds of the live columns follow as __ub rows in variable
    order.  Raises InfeasibleModel when the bounds alone prove infeasibility.
    """
    system = ConstraintSystem.from_model(model)
    row_of = system.row_of
    lo, hi = (bound.copy() for bound in model.bound_arrays()[:2])
    if bounds:
        idx = np.fromiter(bounds.keys(), dtype=int, count=len(bounds))
        pairs = np.array(list(bounds.values()), dtype=float)
        np.maximum.at(lo, idx, pairs[:, 0])
        np.minimum.at(hi, idx, pairs[:, 1])

    bad = np.nonzero(lo > hi + 1e-9)[0]
    if bad.size:
        names = ", ".join(model.names[i] for i in bad[:5])
        raise InfeasibleModel(f"conflicting bounds on {names}")

    fixed = hi - lo <= 1e-12
    pos_col = np.where(fixed, -1, np.cumsum(~fixed) - 1)

    adj = system.rhs - np.bincount(
        row_of, weights=system.coefs * lo[system.var_idx], minlength=system.rhs.size
    )
    live = ~fixed[system.var_idx]
    n_live = np.bincount(row_of[live], minlength=system.rhs.size)
    # sense is -1 for <=, 0 for = and +1 for >=.
    violated = np.where(system.sense == 0, np.abs(adj), system.sense * adj) > 1e-9
    dead = np.nonzero((n_live == 0) & violated)[0]
    if dead.size:
        raise InfeasibleModel(f"constraint {system.names[dead[0]]} is violated by fixed variables")
    kept = n_live > 0

    ub_var = np.nonzero(~fixed & np.isfinite(hi))[0]
    term_row = (np.cumsum(kept) - 1)[row_of[live]]
    ub_row = np.count_nonzero(kept) + np.arange(ub_var.size)
    a_rows = np.concatenate([term_row, ub_row])
    a_cols = pos_col[np.concatenate([system.var_idx[live], ub_var])]
    a_vals = np.concatenate([system.coefs[live], np.ones(ub_var.size)])
    order = np.argsort(a_rows * np.count_nonzero(~fixed) + a_cols)  # each (row, column) once
    relation_of = np.array(["<=", "=", ">="])
    return StandardFormLP(
        c=np.zeros(np.count_nonzero(~fixed)),
        rows=a_rows[order],
        cols=a_cols[order],
        vals=a_vals[order],
        relations=tuple(relation_of[system.sense[kept] + 1].tolist()) + ("<=",) * ub_var.size,
        b=np.concatenate([adj[kept], hi[ub_var] - lo[ub_var]]),
        objective_constant=0.0,
        offset=lo,
        pos_col=pos_col,
    ).with_objective(model.objective)


@dataclass
class LpSolution:
    status: str
    objective: Optional[float]
    x: Optional[np.ndarray]
    iterations: int
    dual_objective: Optional[float] = None
    # The final tableau of an OPTIMAL solve, for warm stages (solve_face_lp,
    # solve_held_lp);
    # its memory stays in use until this is set to None.
    tableau: Optional[Tableau] = field(default=None, repr=False, compare=False)


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

    The entries are grouped once by slot and by row (stable argsorts, so a
    group keeps the input order).  The peels, the substitutions around the
    bump and the reduced costs walk those groups in Python, one entry at a
    time in a fixed order, so x and y do not depend on numpy's summation
    order.
    """
    m = b.size
    # Each entry's index in the crossing line and value, grouped by slot and
    # by row, each group in input order: slot s holds entries
    # slot_at[s]:slot_at[s + 1] of s_rows and s_vals.
    by_slot, by_row = np.argsort(slots, kind="stable"), np.argsort(rows, kind="stable")
    row_count = np.bincount(rows, minlength=m)
    slot_at = np.concatenate(([0], np.bincount(slots, minlength=m).cumsum())).tolist()
    s_rows, s_vals = rows[by_slot].tolist(), vals[by_slot].tolist()
    slot_lists = slot_at, s_rows, s_vals
    row_lists = np.concatenate(([0], row_count.cumsum())).tolist(), slots[by_row].tolist(), vals[by_row].tolist()
    row_done, slot_done = bytearray(m), bytearray(m)
    done_rows, done_slots = np.frombuffer(row_done, dtype=bool), np.frombuffer(slot_done, dtype=bool)

    def peel(live, lines, crossing, line_done, cross_done):
        # Pair each line whose live entries fall to one with that entry's
        # partner; returns (line, partner, pivot) in peel order.  live counts
        # each line's entries whose crossing line is not done.
        (at, cross, value), (cross_at, cross_line, _) = lines, crossing
        open_lines = ~np.frombuffer(line_done, dtype=bool)
        if (open_lines & (live == 0)).any():
            raise np.linalg.LinAlgError("structurally singular basis")
        pending = np.flatnonzero(open_lines & (live == 1)).tolist()
        live = live.tolist()
        order = []
        while pending:
            i = pending.pop()
            e = at[i]
            while cross_done[cross[e]]:
                e += 1
            k = cross[e]
            line_done[i] = cross_done[k] = True
            order.append((i, k, value[e]))
            for j in cross_line[cross_at[k] : cross_at[k + 1]]:
                if not line_done[j]:
                    live[j] -= 1
                    if live[j] == 1:
                        pending.append(j)
                    elif live[j] == 0:
                        raise np.linalg.LinAlgError("structurally singular basis")
        return order

    front = peel(row_count, row_lists, slot_lists, row_done, slot_done)
    back = peel(np.bincount(slots[~done_rows[rows]], minlength=m), slot_lists, row_lists, slot_done, row_done)
    open_rows, open_slots = ~done_rows, ~done_slots
    in_bump = open_rows[rows] & open_slots[slots]
    bump = np.zeros((np.count_nonzero(open_rows), np.count_nonzero(open_slots)))
    # Entries enter the bump slot by slot, as the substitutions read them.
    at = by_slot[in_bump[by_slot]]
    np.add.at(bump, ((open_rows.cumsum() - 1)[rows[at]], (open_slots.cumsum() - 1)[slots[at]]), vals[at])
    bump_rows, bump_slots = np.flatnonzero(open_rows).tolist(), np.flatnonzero(open_slots).tolist()

    rhs = b.tolist()
    x = [0.0] * m

    def settle(s, value):
        x[s] = value
        for e in range(slot_at[s], slot_at[s + 1]):
            rhs[s_rows[e]] -= s_vals[e] * value

    for r, s, pivot in front:
        settle(s, rhs[r] / pivot)
    if bump_slots:
        for s, value in zip(bump_slots, np.linalg.solve(bump, [rhs[r] for r in bump_rows]).tolist()):
            settle(s, value)
    for s, r, pivot in reversed(back):
        settle(s, rhs[r] / pivot)

    c = c_basic.tolist()
    y = [0.0] * m

    def reduced(s):
        return c[s] - sum([s_vals[e] * y[s_rows[e]] for e in range(slot_at[s], slot_at[s + 1])])

    for s, r, pivot in back:
        y[r] = reduced(s) / pivot
    if bump_slots:
        for r, value in zip(bump_rows, np.linalg.solve(bump.T, [reduced(s) for s in bump_slots]).tolist()):
            y[r] = value
    for r, s, pivot in reversed(front):
        y[r] = reduced(s) / pivot
    return np.array(x), np.array(y)


def _crash_levels(sf: StandardFormLP) -> list[list[tuple[int, int]]]:
    """The (row, column) picks of the triangular crash, grouped into levels.

    Candidates are the rows that start on an artificial with a right-hand
    side of 0: = and >= rows with b == 0.  They are visited once each, in an
    order fixed before the first pick: fewest entries in A first, and among
    rows with as many entries, the later row first.  Among a visited row's
    live columns, those with |a| at least half the row's largest live |a|
    and equal to the largest |entry| of their column in A qualify; the one
    with the fewest nonzeros (then the lowest index) is picked, and every
    column with an entry in the row retires.  A row with no qualifying
    column is passed over.

    Retiring the columns makes the basis triangular: a pick's column has no
    entry in an earlier pick's row, so it is still its column of A when it
    is pivoted on, and the column-max rule keeps every elimination
    multiplier at or below 1.  A pick's level is 1 plus the highest level
    among the earlier picks whose column has an entry in its row; each level
    keeps the picks in selection order.  No pick of a level has an entry in
    another's row or column, so a level can be pivoted in as one batch.
    """
    m, n = sf.n_rows, sf.n_cols
    mags = np.abs(sf.vals)
    col_max = np.zeros(n)
    np.maximum.at(col_max, sf.cols, mags)
    starts = np.searchsorted(sf.rows, np.arange(m + 1))
    # An entry ranks its column by (nonzeros, index) as nonzeros * n + index,
    # below (m + 1) * n; an entry below its column's largest |entry| ranks
    # past every column.
    passed = (m + 1) * n
    ranks = np.where(mags >= col_max[sf.cols], np.bincount(sf.cols, minlength=n)[sf.cols] * n + sf.cols, passed)

    candidates = np.flatnonzero((np.array(sf.relations) != "<=") & (sf.b == 0.0))
    # Fewest entries first, then the later row first: entries * m - row.
    order = candidates[np.argsort((starts[candidates + 1] - starts[candidates]) * m - candidates)]
    # The entries of the rows in that order, each row's by |a| descending.
    counts = starts[order + 1] - starts[order]
    entries = _ranges(starts[order], counts)
    entries = entries[np.lexsort((-mags[entries], np.repeat(np.arange(order.size), counts)))]
    cols, mags, ranks = sf.cols[entries].tolist(), mags[entries].tolist(), ranks[entries].tolist()

    retired: set[int] = set()
    levels: list[list[tuple[int, int]]] = []
    level_of_col = [-1] * n
    lo = 0
    for r, hi in zip(order.tolist(), np.cumsum(counts).tolist()):
        # The first live entry has the row's largest live |a|; the entries
        # from there down to half of it qualify.
        half, best = None, passed
        for k in range(lo, hi):
            if cols[k] in retired:
                continue
            if half is None:
                half = 0.5 * mags[k]
            elif mags[k] < half:
                break
            if ranks[k] < best:
                best = ranks[k]
        row_cols = cols[lo:hi]
        lo = hi
        if best == passed:
            continue
        q = best % n
        level = 1 + max(map(level_of_col.__getitem__, row_cols))
        level_of_col[q] = level
        if level == len(levels):
            levels.append([])
        levels[level].append((r, q))
        retired.update(row_cols)
    return levels


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """range(s, s + c) for each start s and count c, concatenated."""
    return np.arange(counts.sum()) + (starts - counts.cumsum() + counts).repeat(counts)


class Tableau:
    """The dense tableau of one solve and its basis, kept for warm stages.

    Rows 0..m-1 of T are the constraints, oriented so that the right-hand
    side (the last column) starts nonnegative; row m is the phase-2 cost row
    and row m+1 the phase-1 cost row.  Columns are the n structural columns,
    then a slack per <= row and a surplus per >= row.  Artificial variables
    are kept logical: basis[i] is the column basic in row i, or -1 for an
    artificial, which never re-enters, so its column values are never needed.

    A row flagged in basic_artificial is driven to zero in phase 1 and held
    there in phase 2.  Besides the artificials, that covers rows whose basic
    column was held (hold): such a row keeps its real column.  shut marks the
    columns that may not enter (None: every column may), and shift the value
    that hold moved out of each held column (None: nothing moved).
    phase_one_due is set while a hold has left such rows off zero, and
    perturbed while the right-hand side holds a perturbation (perturb).
    """

    def __init__(self, sf: StandardFormLP) -> None:
        m, n = sf.n_rows, sf.n_cols
        # Orient every row with a nonnegative right-hand side; <= rows get a
        # slack column, = and >= rows start from a logical artificial.
        self.sign = np.where(sf.b < 0, -1.0, 1.0)
        self.b = sf.b * self.sign
        flipped = {"<=": ">=", ">=": "<=", "=": "="}
        rel = [flipped[r] if s < 0 else r for r, s in zip(sf.relations, self.sign.tolist())]
        slack_rows = [i for i in range(m) if rel[i] == "<="]
        surplus_rows = [i for i in range(m) if rel[i] == ">="]
        self.sf = sf
        self.m, self.n = m, n
        self.n_slack, self.n_surplus = len(slack_rows), len(surplus_rows)
        self.ncols = n + self.n_slack + self.n_surplus
        self.logical_rows = np.array(slack_rows + surplus_rows, dtype=int)
        logical_cols = n + np.arange(self.logical_rows.size)

        # T gets its own private anonymous mapping (a shared one is shmem,
        # dearer to map): the kernel zero-fills it, and it is unmapped as
        # soon as T and its views are released.  From
        # np.zeros it would come from glibc's brk heap once the dynamic mmap
        # threshold has risen past tableau size (glibc raises it to the size
        # of each mapped block freed), and a freed tableau that sits below
        # longer-lived small blocks stays resident, so the peak RSS of later
        # solves would exceed their live memory by a tableau.  MAP_POPULATE
        # (where the platform has it) maps every page in the one call instead
        # of taking a page fault on each page's first touch.
        shape = (m + 2, self.ncols + 1)
        flags = mmap.MAP_PRIVATE | getattr(mmap, "MAP_POPULATE", 0)
        self.flat = np.frombuffer(mmap.mmap(-1, 8 * shape[0] * shape[1], flags=flags), dtype=float)
        T = self.flat.reshape(shape)
        # Each (row, column) of A appears once (StandardFormLP), so one
        # assignment writes A.
        a_vals = sf.vals * self.sign[sf.rows]
        T[sf.rows, sf.cols] = a_vals
        T[:m, -1] = self.b
        T[self.logical_rows, logical_cols] = np.repeat([1.0, -1.0], [self.n_slack, self.n_surplus])
        self.basis = np.full(m, -1)
        self.basis[slack_rows] = logical_cols[: self.n_slack]
        self.basic_artificial = self.basis < 0
        T[m, :n] = sf.c
        if self.basic_artificial.any():
            # The phase-1 row is minus the sum of the artificial rows (every
            # surplus row is one).  bincount adds each column's entries in
            # row order from 0.0, so it has the bits of their sum over axis 0.
            art_rows = np.flatnonzero(self.basic_artificial)
            in_art = self.basic_artificial[sf.rows]
            phase_one = T[m + 1]
            rhs_col = np.full(art_rows.size, self.ncols)
            phase_one[:] = np.bincount(
                np.concatenate([sf.cols[in_art], logical_cols[self.n_slack :], rhs_col]),
                weights=np.concatenate([a_vals[in_art], np.full(self.n_surplus, -1.0), self.b[art_rows]]),
                minlength=self.ncols + 1,
            )
            np.negative(phase_one, out=phase_one)
        self.T = T
        # Leaving-variable order for Bland's rule: artificials rank before
        # real columns so they are preferred out on ties (fixed order).
        self.leave_rank = np.where(self.basic_artificial, -1 - np.arange(m), self.basis)
        self.shut: Optional[np.ndarray] = None
        self.shift: Optional[np.ndarray] = None
        self.phase_one_due = False
        self.perturbed = False
        self.iterations = 0
        # Column costs and verified duals of the last OPTIMAL re-solve.
        self.c: Optional[np.ndarray] = None
        self.y: Optional[np.ndarray] = None

    def enter(self, p: int, q: int, column: np.ndarray, nzc: np.ndarray) -> None:
        """Make column q basic in row p: one counted iteration."""
        self.basic_artificial[p] = False
        self.basis[p] = q
        self.leave_rank[p] = q
        self.pivot(p, q, column, nzc)
        self.iterations += 1

    def crash(self, tol: Tolerances) -> None:
        """Pivot the crash picks in before phase 1, one level (_crash_levels) per batch.

        Each pick replaces the artificial of a row with a right-hand side of
        0, so the start stays feasible; each counts as one iteration, and the
        picks stop at the iteration cap, where phase 1 then returns.  Within a
        level no pick touches another's row or column, and a picked column is
        still its column of A (with its cost entries), read on A's pattern.
        A pick row's nonzeros at its turn lie in its pattern: its entries in
        A, its logical column and the cells that earlier batches wrote in it,
        which each batch records as it writes them.  So a batch divides the
        level's rows on their patterns (a zero in a pattern divides to a zero
        and drops out), subtracts every rank-1 update with one
        np.subtract.at in pick order, and gives bit for bit what pivoting its
        picks one at a time (Tableau.enter) gives.
        """
        sf, T, flat, m, n = self.sf, self.T, self.flat, self.m, self.n
        width = T.shape[1]
        levels = _crash_levels(sf)
        picked = np.array([pick for level in levels for pick in level], dtype=int).reshape(-1, 2)
        picked = picked[: max(tol.max_iterations - self.iterations, 0)]
        by_col = np.argsort(sf.cols, kind="stable")
        col_starts = np.searchsorted(sf.cols[by_col], np.arange(n + 1))
        rows_by_col = sf.rows[by_col]
        cost_rows = np.array([m, m + 1])
        # pick_of[r] is the place of row r's pick in crash order, -1 for a
        # row without one (the cost rows too).
        pick_of = np.full(m + 2, -1)
        pick_of[picked[:, 0]] = np.arange(len(picked))
        # A pick row's pattern at its turn: its entries in A, its logical
        # column, and the cells that earlier batches wrote in it, each as
        # pick * width + column.
        in_pick = pick_of[sf.rows] >= 0
        logical = pick_of[self.logical_rows] >= 0
        pattern = np.concatenate([
            pick_of[sf.rows[in_pick]] * width + sf.cols[in_pick],
            pick_of[self.logical_rows[logical]] * width + n + np.flatnonzero(logical),
        ])
        start = 0
        for size in map(len, levels):
            end = min(start + size, len(picked))
            if start == end:
                return
            p, q = picked[start:end].T
            picks = np.arange(end - start)

            # Divide each pick row on its pattern, each cell once, and snap;
            # row_pick, row_col and row_val are the nonzeros left, by pick.
            # (argsort, not np.sort: np.sort's first call leaves about 76 KB
            # more of numpy's code resident.)
            keys = pattern[(pattern >= start * width) & (pattern < end * width)] - start * width
            keys = keys[keys.argsort()]
            row_pick, row_col = np.divmod(keys[np.concatenate(([True], keys[1:] != keys[:-1]))], width)
            cells = p[row_pick] * width + row_col
            row_val = flat[cells] / T[p, q][row_pick]
            row_val[np.abs(row_val) < 1e-13] = 0.0
            flat[cells] = row_val
            kept = row_val != 0.0
            row_pick, row_col, row_val = row_pick[kept], row_col[kept], row_val[kept]
            row_count = np.bincount(row_pick, minlength=picks.size)

            # Each picked column's other nonzeros: A's rows of it, then the
            # two cost rows.  Every row lists its picks in pick order.
            a_count = col_starts[q + 1] - col_starts[q]
            col_pick = np.concatenate([picks.repeat(a_count), picks, picks])
            col_row = np.concatenate([rows_by_col[_ranges(col_starts[q], a_count)], cost_rows.repeat(picks.size)])
            col_val = T[col_row, q[col_pick]]
            kept = (col_val != 0.0) & (col_row != p[col_pick])
            col_pick, col_row, col_val = col_pick[kept], col_row[kept], col_val[kept]

            # Each column entry times each row entry of its pick; a cell that
            # several picks update gets their updates in pick order.  The
            # cells in later pick rows join their patterns.
            span = row_count[col_pick]
            cell_col = np.arange(col_pick.size).repeat(span)
            cell_row = _ranges((row_count.cumsum() - row_count)[col_pick], span)
            cell_rows, cell_cols = col_row[cell_col], row_col[cell_row]
            np.subtract.at(flat, cell_rows * width + cell_cols, col_val[cell_col] * row_val[cell_row])
            later = pick_of[cell_rows] >= end
            pattern = np.concatenate([pattern, pick_of[cell_rows[later]] * width + cell_cols[later]])
            T[col_row, q[col_pick]] = 0.0
            T[p, q] = 1.0
            self.basic_artificial[p] = False
            self.basis[p] = q
            self.leave_rank[p] = q
            self.iterations += picks.size
            start = end

    def perturb(self) -> None:
        """Lift the zero right-hand sides of the rows on a real column off zero.

        Row i goes to PERTURB * (1 + frac(0.618... i)), a fixed value of its
        index that differs from its neighbours', so that fewer ratio tests tie
        at zero and fewer pivots take a zero step (Wolfe, 1963).  Artificial
        rows stay at zero.  finish certifies the basis on the unperturbed
        data and writes its values back over the perturbed ones.
        """
        rhs = self.T[: self.m, -1]
        rows = np.flatnonzero(~self.basic_artificial & (rhs == 0.0))
        rhs[rows] = PERTURB * (1.0 + 0.6180339887498949 * rows % 1.0)
        self.perturbed = rows.size > 0

    def pivot(self, p: int, q: int, column: np.ndarray, nzc: np.ndarray) -> None:
        # column is T[:, q] before the pivot and nzc its nonzero rows.  The
        # row is divided and snapped on its nonzeros only; the rank-1 block
        # is written through flat, T's flat view.
        T = self.T
        row = T[p]
        nzr = (row != 0.0).nonzero()[0]
        vals = row[nzr] / column[p]
        vals[np.abs(vals) < 1e-13] = 0.0
        row[nzr] = vals
        row[q] = 1.0
        nzr = nzr[vals != 0.0]
        nzc = nzc[nzc != p]
        self.flat[nzc[:, None] * T.shape[1] + nzr] -= column[nzc][:, None] * row[nzr]
        T[nzc, q] = 0.0

    def run_phase(self, cost_row: int, phase_one: bool, tol: Tolerances) -> str:
        T, m, shut = self.T, self.m, self.shut
        basic_artificial, leave_rank = self.basic_artificial, self.leave_rank
        costs, rhs = T[cost_row, : self.ncols], T[:, -1]
        bland = False
        stall = 0
        while True:
            if self.iterations >= tol.max_iterations:
                return ITERATION_LIMIT
            priced = costs if shut is None else np.where(shut, 0.0, costs)
            if bland:
                neg = (priced < -PIVOT).nonzero()[0]
                if neg.size == 0:
                    return OPTIMAL
                q = int(neg[0])
            else:
                q = int(priced.argmin())
                if priced[q] >= -PIVOT:
                    return OPTIMAL

            column = T[:, q].copy()
            nzc = (column != 0.0).nonzero()[0]
            nz = nzc[: nzc.searchsorted(m)]
            entries = column[nz]
            # Keep basic artificials at zero: rows where the entering column
            # would increase one (negative entry) are pivoted on immediately,
            # a zero-length step that drives the artificial out for good.
            # Positive entries need no guard; the ratio test picks them at
            # ratio zero by itself.
            if not phase_one and np.count_nonzero(basic_artificial):
                guard = nz[basic_artificial[nz] & (entries < -PIVOT)]
                if guard.size:
                    drive = column[guard]
                    pick = guard[drive <= drive[drive.argmin()] + 1e-12]
                    self.enter(int(pick[leave_rank[pick].argmin()]), q, column, nzc)
                    continue

            positive = entries > PIVOT
            candidates = nz[positive]
            if not candidates.size:
                return UNBOUNDED if not phase_one else OPTIMAL
            ratios = rhs[candidates] / entries[positive]
            best = ratios[ratios.argmin()]
            ties = candidates[ratios <= best + 1e-12]
            self.enter(int(ties[leave_rank[ties].argmin()] if ties.size > 1 else ties[0]), q, column, nzc)
            if best <= 1e-12:
                stall += 1
                if stall > BLAND_AFTER:
                    bland = True
            else:
                stall = 0
                bland = False

    def hold(self, cols: np.ndarray, values: Optional[np.ndarray] = None) -> None:
        """Fix the given columns at values, or at their current values rounded to integers.

        A held column is shut.  A nonbasic one stays at zero (a nonzero value
        for it raises ValueError).  A basic one moves its held value into
        shift, and its row becomes an artificial row, which the basis
        re-solve keeps on the real column over a right-hand side reduced by
        the moved value.  Without values the row is set to zero; with values
        it keeps the residual (the column's value less the held one), turned
        to be nonnegative, for the next warm solve_lp's phase 1.
        """
        if self.shut is None:
            self.shut = np.zeros(self.ncols, dtype=bool)
        if self.shift is None:
            self.shift = np.zeros(self.ncols)
        self.shut[cols] = True
        rows = np.nonzero(np.isin(self.basis, cols))[0]
        held, T = self.basis[rows], self.T
        if values is None:
            self.shift[held] += np.round(T[rows, -1])
            T[rows, -1] = 0.0
        else:
            target = np.zeros(self.ncols)
            target[cols] = values
            if np.any(np.delete(target, held)):
                raise ValueError("a nonbasic column can be held at zero only")
            T[rows, -1] += self.shift[held] - target[held]
            self.shift[held] = target[held]
            T[rows[T[rows, -1] < 0.0]] *= -1.0
            self.phase_one_due = True
        self.basic_artificial[rows] = True
        self.leave_rank[rows] = -1 - rows

    def restrict(self, c: np.ndarray) -> None:
        """Shut the columns with a positive reduced cost and make c the cost row.

        The reduced costs are those of the last objective under the verified
        duals y of the last re-solve, not the tableau's drifted cost row.
        The columns that may still enter span exactly the optimal face of
        that objective, so phase 2 on the new row minimises c over that
        face.  The new row is c minus c_B times the constraint rows, formed
        by one product over a view of T.
        """
        m, n, T = self.m, self.n, self.T
        positive = self.reduced_costs(self.c, self.y) > PIVOT
        self.shut = positive if self.shut is None else self.shut | positive
        basic_costs = np.zeros(m)
        structural = (self.basis >= 0) & (self.basis < n)
        basic_costs[structural] = c[self.basis[structural]]
        costs = np.zeros(T.shape[1])
        costs[:n] = c
        T[m] = costs - basic_costs @ T[:m]

    def reduced_costs(self, c: np.ndarray, y: np.ndarray) -> np.ndarray:
        """c - A^T y for every column (structural, then logical) under duals y of the oriented rows."""
        sf, n = self.sf, self.n
        reduced = np.empty(self.ncols)
        reduced[:n] = c - np.bincount(
            sf.cols, weights=sf.vals * self.sign[sf.rows] * y[sf.rows], minlength=n
        )
        reduced[n:] = y[self.logical_rows] * np.repeat([-1.0, 1.0], [self.n_slack, self.n_surplus])
        return reduced

    def finish(self, sf: StandardFormLP, tol: Tolerances) -> LpSolution:
        """Phase 2 on cost row m, then the verified basis re-solve.

        The re-solved basis carries its own certificate of optimality, or the
        solve ends NUMERICS:

        - primal: B x = b to 1e-6, x_B >= -1e-6, and every row held at zero
          (an artificial or held row) within 1e-6 of it;
        - dual: every column that may enter (not shut) has a reduced cost
          c - A^T y of at least -1e-6;
        - gap: c.x lies within 1e-6 * max(1, |c.x|) of the dual objective.

        A NaN fails every one of these checks.  A certified basis of a
        perturbed tableau (Tableau.perturb) writes its basic values, clipped
        at 0, over the right-hand side, so warm stages see no perturbation.
        """
        outcome = self.run_phase(self.m, False, tol)
        if outcome == ITERATION_LIMIT:
            return LpSolution(ITERATION_LIMIT, None, None, self.iterations)
        if outcome == UNBOUNDED:
            return LpSolution(UNBOUNDED, None, None, self.iterations)

        # Recompute the basic solution from the original data: one fresh
        # solve wipes out the error accumulated across thousands of tableau
        # updates.  The basis is assembled as sparse columns (slot, row,
        # value): an artificial slot holds a unit column, any other slot its
        # oriented column of A; a held column moves its value to the
        # right-hand side.
        m, n, ncols = self.m, self.n, self.ncols
        basis, artificial = self.basis, self.basic_artificial
        real = basis >= 0
        slot_of_col = np.full(ncols, -1)
        slot_of_col[basis[real]] = np.nonzero(real)[0]
        keep = slot_of_col[sf.cols] >= 0
        a_rows, a_cols = sf.rows[keep], sf.cols[keep]
        logical_slots = slot_of_col[n:]
        in_basis = logical_slots >= 0
        artificial_slots = np.nonzero(~real)[0]
        rows = np.concatenate([a_rows, self.logical_rows[in_basis], artificial_slots])
        slots = np.concatenate([slot_of_col[a_cols], logical_slots[in_basis], artificial_slots])
        vals = np.concatenate([
            sf.vals[keep] * self.sign[a_rows],
            np.repeat([1.0, -1.0], [self.n_slack, self.n_surplus])[in_basis],
            np.ones(artificial_slots.size),
        ])

        b = self.b
        if self.shift is not None:
            moved = sf.vals * self.sign[sf.rows] * self.shift[sf.cols]
            b = b - np.bincount(sf.rows, weights=moved, minlength=m)
        # A held column keeps its cost, as in the cost row restrict formed,
        # so that y prices the face the same way phase 2 did.
        basic_costs = np.zeros(m)
        structural = real & (basis < n)
        basic_costs[structural] = sf.c[basis[structural]]
        try:
            x_basic, y = _solve_sparse_basis(rows, slots, vals, b, basic_costs)
        except np.linalg.LinAlgError:
            return LpSolution(NUMERICS, None, None, self.iterations)
        # Each check passes only on a comparison that holds: a NaN fails it
        # (max and min carry a NaN through).
        residual = np.bincount(rows, weights=vals * x_basic[slots], minlength=m) - b
        if not (
            float(np.abs(residual).max(initial=0.0)) <= 1e-6
            and float(x_basic.min(initial=0.0)) >= -1e-6
            and float(np.abs(x_basic[artificial]).max(initial=0.0)) <= 1e-6
        ):
            return LpSolution(NUMERICS, None, None, self.iterations)
        reduced = self.reduced_costs(sf.c, y)
        open_reduced = reduced if self.shut is None else reduced[~self.shut]
        if not float(open_reduced.min(initial=0.0)) >= -1e-6:
            return LpSolution(NUMERICS, None, None, self.iterations)
        x_full = np.zeros(ncols, dtype=float)
        x_full[basis[~artificial]] = x_basic[~artificial]
        dual_objective = float(y @ b) + sf.objective_constant
        if self.shift is not None:
            x_full += self.shift
            dual_objective += float(sf.c @ self.shift[:n])

        np.clip(x_full, 0.0, None, out=x_full)
        x = x_full[:n]
        objective = float(sf.c @ x) + sf.objective_constant
        if not abs(objective - dual_objective) <= 1e-6 * max(1.0, abs(objective)):
            return LpSolution(NUMERICS, None, None, self.iterations)
        if self.perturbed:
            # Warm stages continue from the certified values, not the
            # perturbed ones.
            np.maximum(x_basic, 0.0, out=self.T[:m, -1])
            self.perturbed = False
        self.c, self.y = sf.c, y
        return LpSolution(OPTIMAL, objective, x, self.iterations, dual_objective, self)


def solve_lp(
    sf: StandardFormLP, tol: Tolerances | None = None, warm: Optional[Tableau] = None
) -> LpSolution:
    """Two-phase primal simplex on the standard-form problem.

    A cold solve builds a Tableau, pivots in the crash picks (Tableau.crash;
    each counts as an iteration, against max_iterations), lifts the zero
    right-hand sides of its real rows (Tableau.perturb), then runs phase 1
    and phase 2, each iteration in the nonzeros of the entering column and
    pivot row.  At the optimum, x and the duals y are re-solved from the
    sparse basis columns (_solve_sparse_basis): the only source of an
    OPTIMAL result, which carries a dual objective and its final tableau.  A
    basis that fails its certificate (Tableau.finish) ends NUMERICS.

    warm is the final tableau of an earlier OPTIMAL solve over the same rows
    and columns, continued in place.  Normally it is restricted to the
    optimal face of its last objective (Tableau.restrict), sf.c becomes the
    cost row, and phase 2 continues with no phase 1.  After a hold to values
    (Tableau.hold), phase 1 runs instead, on row m+1 set to minus the sum of
    every artificial row (phase 1 keeps none at zero unless it is in the
    sum), with the cold path's infeasibility test.  Phase 2 then continues
    unrestricted on the tableau's own cost row, so sf must be its own.
    """
    if tol is None:
        tol = Tolerances()
    m, n = sf.n_rows, sf.n_cols
    if warm is not None:
        warm.iterations = 0
        if not warm.phase_one_due:
            warm.restrict(sf.c)
            return warm.finish(sf, tol)
        tableau, warm.phase_one_due = warm, False
        tableau.T[m + 1] = -tableau.T[:m][tableau.basic_artificial].sum(axis=0)
    elif n == 0 or m == 0:
        if np.any(sf.c < -PIVOT):
            return LpSolution(UNBOUNDED, None, None, 0)
        return LpSolution(OPTIMAL, sf.objective_constant, np.zeros(n), 0, sf.objective_constant)
    else:
        tableau = Tableau(sf)
        if not tableau.basic_artificial.any():
            return tableau.finish(sf, tol)
        tableau.crash(tol)
        tableau.perturb()
    outcome = tableau.run_phase(m + 1, True, tol)
    if outcome == ITERATION_LIMIT:
        return LpSolution(ITERATION_LIMIT, None, None, tableau.iterations)
    scale = max(1.0, float(np.abs(tableau.b).max(initial=1.0)))
    if tableau.T[m + 1, -1] < -(FEASIBILITY * scale):
        return LpSolution(INFEASIBLE, None, None, tableau.iterations)
    return tableau.finish(sf, tol)


def _model_values(sf: StandardFormLP, solution: LpSolution) -> tuple[LpSolution, Optional[np.ndarray]]:
    if solution.status != OPTIMAL:
        return solution, None
    values = sf.model_values(solution.x)
    values[np.abs(values) < 1e-11] = 0.0
    return solution, values


def solve_model_lp(
    model: TimeExpandedModel,
    tol: Tolerances | None = None,
    bounds: Mapping[int, tuple[float, float]] | None = None,
) -> tuple[LpSolution, Optional[np.ndarray]]:
    """Convert, solve and map the solution back onto the model variables.

    bounds tightens variable bounds as in build_standard_form.
    """
    try:
        sf = build_standard_form(model, bounds)
    except InfeasibleModel:
        return LpSolution(INFEASIBLE, None, None, 0), None
    return _model_values(sf, solve_lp(sf, tol))


def solve_face_lp(
    tableau: Tableau,
    objective: Mapping[int, float],
    tol: Tolerances | None = None,
    hold: Sequence[int] = (),
) -> tuple[LpSolution, Optional[np.ndarray]]:
    """Minimise objective over the optimal face of the tableau's last solve.

    The warm counterpart of solve_model_lp.  tableau is the final tableau of
    an OPTIMAL solve (LpSolution.tableau), reused in place: the model
    variables in hold are fixed at their current values, rounded to
    integers (Tableau.hold), and solve_lp continues warm on the objective.
    """
    sf = tableau.sf.with_objective(objective)
    if len(hold):
        cols = sf.pos_col[np.asarray(hold, dtype=int)]
        tableau.hold(cols[cols >= 0])
    return _model_values(sf, solve_lp(sf, tol, warm=tableau))


def solve_held_lp(
    tableau: Tableau, hold: np.ndarray, values: np.ndarray, tol: Tolerances | None = None
) -> tuple[LpSolution, Optional[np.ndarray]]:
    """Minimise the tableau's own objective with the model variables in hold at values.

    The warm counterpart of solve_model_lp with the variables in hold fixed,
    on the final tableau of an OPTIMAL solve (Tableau.hold, then solve_lp's
    phase 1 and phase 2).  A variable without a column must be at its value.
    """
    sf = tableau.sf
    cols = sf.pos_col[hold]
    live = cols >= 0
    tableau.hold(cols[live], values[live] - sf.offset[hold[live]])
    return _model_values(sf, solve_lp(sf, tol, warm=tableau))
