"""Time-expanded linear(-integer) model of the three-layer train flow problem.

The model schedules *volumes* of trains, never individual trains.  Per route
(commodity) and period it balances departures at the origin, link
traversals inside one period (direct arcs), traversals crossing into the
next period (next arcs, counted half in each adjacent period for capacity)
and volumes standing at stations short of the destination (node inventory
arcs).  A route's arrivals are the inflow over its last link; they have no
variable of their own.  A route's flow variables exist only on its own links
and stations, from the first period its pace reaches them; off-route and
unreachable flow is not declared at all.  The demand layer
converts requested volumes into departures, postponements and
cancellations.  Pacing keeps volumes from outrunning their train type: at
every route node after the origin, a lag variable holds the volume that
could have arrived by the end of a period but has not yet, and cannot go
negative.  Capacity rows charge a link's flow
straight against its capacity (link_usage).

The model is built from a loaded scenario document (scenario.load_scenario,
with its TCR overrides applied), which has already been checked: every
variable is keyed by the document's names, e.g. ``model.var("direct", "A-B",
1, "A-C-r1")``, and links, nodes, routes, demands and train types are taken
in document order.  Everything here is solver independent: the result is
a set of variables and named linear rows, both kept as arrays, plus a linear
objective.  Each kind of variable is declared in one add_variables call and
kept as a grid of indices over its key axes, with the bounds and
integrality of all variables in three arrays and the names made on first
read, the way array-based modellers such as Linopy store variables.  Each
row family enters one row store in one add_rows call, its terms looked up
as blocks in those grids (lookup).  Building is a pure function of the
document, so identical documents give an identical model, row by row.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .checks import SENSE, ConstraintSystem, LinearConstraint, merged_terms

if TYPE_CHECKING:
    from .scenario import RouteSpec, ScenarioDocument

CAPACITY_MODES = ("basic", "single_track_alt1", "single_track_alt2", "heterogeneous")
# The kinds of variable that build_variables declares, each with the axes of
# its key: a period, or a link, node, route or demand of the document.
KEY_AXES = {
    "dep": ("route", "period"),
    "direct": ("link", "period", "route"),
    "next": ("link", "period", "route"),
    "ni": ("node", "period", "route"),
    "lag": ("node", "period", "route"),
    "post": ("demand", "period"),
    "cancel": ("demand", "period"),
    "cancel_total": ("demand",),
    "beta": ("link", "period"),
}
VARIABLE_KINDS = tuple(KEY_AXES)


class ModelError(ValueError):
    """Raised when the inputs cannot be turned into a well-formed model."""


@dataclass(frozen=True)
class ModelConfig:
    """Knobs of the formulation.

    capacity_mode selects the capacity rows (see emit_capacity).  k_het
    charges each other train type on a link in heterogeneous mode.  k_setup,
    in (0, 1], prices a direction change on a single-track pair in
    single_track_alt2: it takes min(own, opp) / k_setup of setup time, where
    own and opp are the two directional usages; 1.0 makes the setup equal
    the lower of the two.  cost_cancel and cost_post price a cancelled and a
    postponed volume against the mean travel time (see build_objective);
    relax_integrality solves the LP relaxation.
    """

    capacity_mode: str = "basic"
    k_het: float = 0.25
    k_setup: float = 1.0
    cost_cancel: float = 1000.0
    cost_post: float = 20.0
    relax_integrality: bool = False

    def __post_init__(self) -> None:
        if self.capacity_mode not in CAPACITY_MODES:
            raise ModelError(f"unknown capacity mode {self.capacity_mode!r}")
        for name in ("k_het", "k_setup", "cost_cancel", "cost_post"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ModelError(f"{name} must be finite, got {value}")
        if self.k_het < 0:
            raise ModelError("k_het must be >= 0")
        if not 0 < self.k_setup <= 1:
            raise ModelError("k_setup must lie in (0, 1]")


class ModelVariable(NamedTuple):
    """One declared variable as a record; name is kind(key,...)."""

    kind: str
    key: tuple
    name: str
    lb: float
    ub: float
    integer: bool


def _names(kind: str, keys: Sequence[tuple]) -> list[str]:
    """kind(key,...) of each key, with one %-template for all of them."""
    template = kind.replace("%", "%%") + "(" + ",".join(["%s"] * len(keys[0] if keys else ())) + ")"
    return [template % key for key in keys]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class TimeExpandedModel:
    """Variables, constraints and objective of one problem instance.

    Treat instances as immutable once build_model returns: the solver and the
    reports only read them, and several models may be built and solved
    concurrently.  doc is None for a bare model of hand-written rows.

    The variables are arrays: each add_variables call declares a block of
    one kind, whose indices lookup and var find in the kind's grid, and
    bound_arrays gives the bounds and integrality of all of them.  The rows
    live in one array store (rows, a checks.ConstraintSystem): each family
    of rows enters it in one add_rows call, and a hand-written row through
    add_constraint.  names, variables and constraints are made on first
    read; variables and constraints give records, for readers off the solve
    path.
    """

    def __init__(self, doc: Optional[ScenarioDocument] = None) -> None:
        self.doc = doc
        self.objective: dict[int, float] = {}
        # (earlier link, later link) of each single-track pair, ordered by
        # the earlier link's place in doc.links
        self.single_track_pairs: tuple[tuple[str, str], ...] = ()
        # Route support, set by build_variables: each route's nodes in order
        # and the routes (in document order) riding each link or visiting
        # each node.  Flow variables exist only there.
        self.nodes_of: dict[str, tuple[str, ...]] = {}
        self.routes_on_link: dict[str, tuple[RouteSpec, ...]] = {}
        self.routes_at_node: dict[str, tuple[RouteSpec, ...]] = {}
        # Place of each name on its key axis (KEY_AXES): document order.
        names = {} if doc is None else {
            "link": [l.name for l in doc.links], "node": doc.nodes,
            "route": [r.name for r in doc.routes], "demand": [d.name for d in doc.demands],
        }
        self.positions = {axis: {name: i for i, name in enumerate(items)} for axis, items in names.items()}
        self._declared: list[tuple[str, tuple[tuple, ...]]] = []  # (kind, keys) of each add_variables call
        # Bounds and integrality of every variable; each add_variables or
        # bounding add_rows call replaces an array rather than writing it.
        self._lb = self._ub = _frozen(np.zeros(0))
        self._integer = _frozen(np.zeros(0, dtype=bool))
        # Per kind, the index of the variable at each place of its key, -1
        # where none is declared.  An axis has a place per name, or per period
        # 0..t_max, and one more at its end, which stays -1.
        self._grids = {} if doc is None else {
            kind: np.full([len(self.positions[axis]) + 1 if axis != "period" else doc.t_max + 2 for axis in axes], -1)
            for kind, axes in KEY_AXES.items()
        }
        self._names: tuple[str, ...] = ()
        self._records: tuple[np.ndarray, tuple[ModelVariable, ...]] | None = None  # (the ub read, records)
        self._blocks = [ConstraintSystem.empty()]  # every block of rows appended, in order
        # The blocks joined, with their count: a read joins them once, and
        # readers of a built model on several threads join the same rows.
        self._rows: tuple[int, ConstraintSystem] | None = None

    @property
    def config(self) -> ModelConfig:
        return self.doc.config

    # -- variables ---------------------------------------------------------

    def add_variables(
        self, kind: str, keys: Sequence[tuple], lb: float = 0.0, ub: float = math.inf, integer: bool = False
    ) -> range:
        """Declare (kind, key) for each key, in order; returns their indices.

        In a model of a document, kind is one of KEY_AXES and a key holds a
        name of the document or a period per axis of the kind; a bare model
        (doc None) takes any kind and keys, which it only names.  Nothing is
        declared when one of the variables cannot be: keys of different
        lengths, a key declared before, a name the document does not have or
        a lower bound that is not finite.
        """
        if len(set(map(len, keys))) > 1:
            raise ModelError(f"the keys of one add_variables({kind!r}) call differ in length")
        if keys and not math.isfinite(lb):
            raise ModelError(f"variable {_names(kind, keys[:1])[0]} needs a finite lower bound, got {lb}")
        ids = range(self._lb.size, self._lb.size + len(keys))
        if self._grids and keys:
            axes = KEY_AXES.get(kind)
            if axes is None or len(keys[0]) != len(axes):
                raise ModelError(f"no variable kind {kind!r} has keys like {keys[0]!r}")
            columns = list(zip(*keys))
            try:
                places = tuple(
                    np.array(column if axis == "period" else [self.positions[axis][name] for name in column])
                    for axis, column in zip(axes, columns)
                )
            except KeyError as exc:
                raise ModelError(f"variable {kind} names {exc} that the document does not") from None
            t_max = self.doc.t_max
            if any(min(column) < 0 or max(column) > t_max for axis, column in zip(axes, columns) if axis == "period"):
                raise ModelError(f"variable {kind} has a period outside 0..{t_max}")
            grid = self._grids[kind]
            # A key is declared twice when its place is taken, or when it comes
            # again in the call, so that its place holds the later index.
            twice = grid[places] >= 0
            if not np.count_nonzero(twice):
                grid[places] = ids
                twice = grid[places] != ids
                if np.count_nonzero(twice):
                    grid[places] = -1
            if np.count_nonzero(twice):
                raise ModelError(f"variable {_names(kind, [keys[twice.argmax()]])[0]} declared twice")
        self._declared.append((kind, tuple(keys)))
        self._lb = _frozen(np.concatenate((self._lb, np.full(len(keys), lb, dtype=float))))
        self._ub = _frozen(np.concatenate((self._ub, np.full(len(keys), ub, dtype=float))))
        self._integer = _frozen(np.concatenate((self._integer, np.full(len(keys), integer, dtype=bool))))
        return ids

    @property
    def names(self) -> tuple[str, ...]:
        """Each variable's name kind(key,...), e.g. direct(A-B,1,A-C-r1), cancel(A-C,2) or beta(X-Y,1)."""
        if len(self._names) != self._lb.size:
            self._names = tuple(name for kind, keys in self._declared for name in _names(kind, keys))
        return self._names

    @property
    def variables(self) -> tuple[ModelVariable, ...]:
        """The variables as records, made on request (off the solve path)."""
        made = self._records
        if made is None or made[0] is not self._ub:
            lb, ub, integer = self.bound_arrays()
            refs = ((kind, key) for kind, keys in self._declared for key in keys)
            fields = zip(refs, self.names, lb.tolist(), ub.tolist(), integer.tolist())
            made = self._records = (ub, tuple(ModelVariable(kind, key, *rest) for (kind, key), *rest in fields))
        return made[1]

    def bound_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lb, ub, integer) over the variables, as read-only arrays."""
        return self._lb, self._ub, self._integer

    def var(self, kind: str, *key) -> int:
        """Index of the declared variable (kind, *key); raises KeyError when absent."""
        axes = KEY_AXES.get(kind, ())
        places = [part if axis == "period" else self.positions[axis].get(part, -1) for axis, part in zip(axes, key)]
        idx = self.lookup(kind, *places) if len(key) == len(axes) else -1
        if idx < 0:
            raise KeyError(f"no variable {kind}{key!r}")
        return int(idx)

    def lookup(self, kind: str, *key) -> np.ndarray:
        """Index of each variable (kind, *key), or -1 where none is declared.

        The vector form of var: each key part is a scalar or an array (all
        broadcast together), a name as its place in positions (-1 for none)
        and a period as itself (any period holds none outside 1..t_max).  A
        kind outside VARIABLE_KINDS raises ModelError.
        """
        if kind not in KEY_AXES:
            raise ModelError(f"unknown variable kind {kind!r}")
        if not self._grids:
            raise ModelError("a model without a document has no key axes to look up")
        grid = self._grids[kind]
        axes = KEY_AXES[kind]
        if len(key) != len(axes):
            raise ModelError(f"a {kind} key has the parts {axes}, got {key!r}")
        # A period outside the grid moves to its last place, which holds -1.
        parts = [
            np.maximum(np.minimum(part, size - 1), -1) if axis == "period" else part
            for axis, size, part in zip(axes, grid.shape, key)
        ]
        return grid[tuple(parts)]

    # -- rows --------------------------------------------------------------

    def add_rows(self, names: Sequence[str], relation: str, rhs, idx: np.ndarray, coef, bound: bool = False) -> None:
        """Append one family of rows: row i is names[i] relation rhs[i] (or rhs).

        Row i's terms are coef[i, j] on variable idx[i, j] in column order,
        with idx from lookup (coef broadcasts against idx).  A term on
        variable -1 (undeclared) drops, a repeated variable is summed in
        term order, a sum of 0 drops, and a row left with no term is not
        emitted.  With bound, a row left with one term a x <= rhs is not
        emitted either: it tightens that variable's upper bound to rhs / a.
        """
        live = idx >= 0
        full = np.empty(idx.shape)
        full[...] = coef
        self._append(names, relation, rhs, np.nonzero(live)[0], idx[live], full[live], bound=bound)

    def add_constraint(self, name: str, terms: Iterable[tuple[int, float]], relation: str, rhs: float) -> None:
        """Append one hand-written row of (variable index, coef) terms.

        Its terms merge as in add_rows, but the row is kept when none is left.
        """
        pairs = list(terms)
        var = np.array([idx for idx, _ in pairs], dtype=np.intp)
        coef = np.array([c for _, c in pairs], dtype=float)
        self._append([name], relation, rhs, np.zeros(var.size, dtype=np.intp), var, coef, keep_empty=True)

    def _append(self, names, relation, rhs, row, var, coef, bound=False, keep_empty=False) -> None:
        if relation not in SENSE:
            raise ModelError(f"bad relation {relation!r} in {names[0] if names else 'an empty family'}")
        bad = np.flatnonzero(~np.isfinite(coef))
        if bad.size:
            raise ModelError(f"non-finite coefficient {coef[bad[0]]} for variable {var[bad[0]]}")
        n = len(names)
        row, var, coef = merged_terms(row, var, coef)
        rhs = np.full(n, rhs, dtype=float) if np.ndim(rhs) == 0 else np.asarray(rhs, dtype=float)
        count = np.bincount(row, minlength=n)
        emit = np.full(n, True) if keep_empty else count > 0
        if bound:
            single = count == 1
            alone = single[row]
            ub = self._ub.copy()
            np.minimum.at(ub, var[alone], rhs[row[alone]] / coef[alone])
            self._ub = _frozen(ub)
            emit &= ~single
        self._blocks.append(ConstraintSystem.of_terms(names, SENSE[relation], rhs, row, var, coef, emit))

    @property
    def rows(self) -> ConstraintSystem:
        """Every row, as the one array store."""
        joined = self._rows
        if joined is None or joined[0] != len(self._blocks):
            blocks = list(self._blocks)
            joined = self._rows = (len(blocks), ConstraintSystem.joined(blocks))
        return joined[1]

    @property
    def constraints(self) -> tuple[LinearConstraint, ...]:
        """The rows as records, made on request (off the solve path)."""
        return self.rows.records

    def objective_value(self, values) -> float:
        return float(sum(coef * values[idx] for idx, coef in self.objective.items()))


# ---------------------------------------------------------------------------
# variable declaration
# ---------------------------------------------------------------------------


def build_variables(doc: ScenarioDocument) -> TimeExpandedModel:
    """Declare every decision variable; no constraints yet.

    A variable is declared only where it can be nonzero, and is >= 0.  A
    route's flow variables exist on its own links and nodes from the first
    period f its volume can reach there (departure_spread): direct from its
    head's f, next from one period earlier but not before its tail's f, ni
    and lag from the node's f.  There is no lag at the origin, where it would
    be 0, and no ni at the destination, where volume leaves the route.
    Nothing crosses, stands or is postponed out of t_max, so unplaceable
    volume has to be cancelled.
    """
    model = TimeExpandedModel(doc)
    config = doc.config
    T = range(1, doc.t_max + 1)
    inner = range(1, doc.t_max)  # periods that next, ni and post can leave
    routes = doc.routes
    link = {l.name: l for l in doc.links}
    model.nodes_of = {
        r.name: tuple(link[x].tail for x in r.links) + (link[r.links[-1]].head,) for r in routes
    }
    model.routes_on_link = {l.name: tuple(r for r in routes if l.name in r.links) for l in doc.links}
    model.routes_at_node = {
        n: tuple(r for r in routes if n in model.nodes_of[r.name]) for n in doc.nodes
    }
    on_link = model.routes_on_link
    at_node = model.routes_at_node
    nodes_of = model.nodes_of
    first: dict[tuple[str, str], int] = {}  # (node, route) -> first period volume can reach it
    for r in routes:
        first[(nodes_of[r.name][0], r.name)] = 1
        reach = 0.0
        for x, n in zip(r.links, nodes_of[r.name][1:]):
            reach += doc.durations[(x, r.train_type)]
            first[(n, r.name)] = 1 + departure_spread(reach)[0][0]

    model.add_variables("dep", [(r.name, t) for r in routes for t in T])
    links = [(l, t, r) for l in doc.links for t in T for r in on_link[l.name]]
    model.add_variables("direct", [(l.name, t, r.name) for l, t, r in links if t >= first[(l.head, r.name)]])
    model.add_variables("next", [
        (l.name, t, r.name)
        for l, t, r in links
        if t < doc.t_max and t >= max(first[(l.head, r.name)] - 1, first[(l.tail, r.name)])
    ])
    nodes = [(n, t, r.name) for n in doc.nodes for t in T for r in at_node[n]]
    model.add_variables(
        "ni", [(n, t, r) for n, t, r in nodes if t < doc.t_max and n != nodes_of[r][-1] and t >= first[(n, r)]]
    )
    model.add_variables("lag", [(n, t, r) for n, t, r in nodes if n != nodes_of[r][0] and t >= first[(n, r)]])
    model.add_variables("post", [(d.name, t) for d in doc.demands for t in inner])
    model.add_variables("cancel", [(d.name, t) for d in doc.demands for t in T])
    model.add_variables("cancel_total", [(d.name,) for d in doc.demands], integer=not config.relax_integrality)
    # A pair is stated in either order; its earlier link in doc.links stands for it.
    place = model.positions["link"]
    pairs = [tuple(sorted(pair, key=place.get)) for pair in doc.single_track_pairs]
    model.single_track_pairs = tuple(sorted(pairs, key=lambda pair: place[pair[0]]))
    if config.capacity_mode == "single_track_alt2":
        model.add_variables("beta", [(rep, t) for rep, _ in model.single_track_pairs for t in T], ub=1.0, integer=True)
    return model


# ---------------------------------------------------------------------------
# constraint families
# ---------------------------------------------------------------------------


def _by_period(n: int, t_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Item and period of each row when n items take periods 1..t_max in turn."""
    rows = np.arange(n * t_max)
    return rows // t_max, rows % t_max + 1


def _padded(lists: list[list[int]]) -> np.ndarray:
    """The lists as the rows of one array, each padded with -1 to the longest."""
    out = np.full((len(lists), max(map(len, lists), default=0)), -1)
    for i, items in enumerate(lists):
        out[i, : len(items)] = items
    return out


def link_usage(model: TimeExpandedModel) -> tuple[np.ndarray, np.ndarray]:
    """Terms of each link's capacity charge per period: add_rows' idx, and
    the coefficients of its columns, the same in every row.

    Row l * t_max + t - 1 is link l (its place in doc.links) in period t:
    every route on the link counts its direct arc of period t plus half of
    each adjacent next arc (from t - 1 and from t), which cross the period
    boundary halfway.  The routes come in document order, one slot of three
    terms each; a link with fewer routes than the busiest link leaves its
    last slots empty, and a link no route can use in period t has no terms.
    """
    doc = model.doc
    place = model.positions["route"]
    slots = _padded([[place[r.name] for r in model.routes_on_link[l.name]] for l in doc.links])
    links, periods = _by_period(len(doc.links), doc.t_max)
    routes = slots[links]
    links, periods = links[:, None], periods[:, None]
    idx = np.stack(
        [
            model.lookup("direct", links, periods, routes),
            model.lookup("next", links, periods - 1, routes),
            model.lookup("next", links, periods, routes),
        ],
        axis=2,
    ).reshape(routes.shape[0], -1)
    return idx, np.array([1.0, 0.5, 0.5] * slots.shape[1])


def big_m(capacity: Mapping[tuple[str, int], float]) -> float:
    """Big M of single_track_alt2: 10 x the largest capacity, and at least 10."""
    return 10.0 * max(max(capacity.values(), default=0.0), 1.0)


def type_charge(k_het: float, n_types: int) -> float:
    """Capacity a train takes in heterogeneous mode on a link that n_types train types use."""
    return 1.0 + k_het * (n_types - 1)


def emit_capacity(model: TimeExpandedModel) -> None:
    """Capacity rows of the mode selected by capacity_mode.

    Each row reads a link's flow through link_usage; a row that would have
    no terms (no route can use the link in that period) is not emitted, and
    a row of one term is that variable's upper bound.  Capacity1 keeps the
    usage within the link's nominal capacity.  heterogeneous replaces
    Capacity1 by Capacity3, which charges the usage 1 + k_het per other
    train type on the link (type_charge; the loader keeps it in float
    range), and so implies Capacity1, as k_het >= 0.  single_track_alt1
    makes coupled links share the mean of their nominal capacities.

    single_track_alt2 makes both directional usages plus the setup time
    min(own, opp) / k_setup fit in the smaller capacity c of the pair.  The
    setup time w has no variable: Fourier-Motzkin elimination of w from
    w >= (own - M (1 - beta)) / k, w >= (opp - M beta) / k, w >= 0 and
    own + opp + w <= c leaves, exactly, the pair row own + opp <= c and one
    setup row per direction, which the binary flag beta switches off through
    big M (big_m; the loader keeps it in float range, scenario.apply_tcr).
    A pair and period that no route can use has none of the three rows.
    The capacity report derives the setup time from the flows.
    """
    doc = model.doc
    config = model.config
    capacity = doc.capacity
    T = range(1, doc.t_max + 1)
    usage, coef = link_usage(model)

    heterogeneous = config.capacity_mode == "heterogeneous"
    family = "Capacity3" if heterogeneous else "Capacity1"
    charge = [
        type_charge(config.k_het, len({r.train_type for r in model.routes_on_link[l.name]})) if heterogeneous else 1.0
        for l in doc.links
    ]
    model.add_rows(
        [f"{family}[l={l.name},t={t}]" for l in doc.links for t in T],
        "<=",
        [capacity[(l.name, t)] for l in doc.links for t in T],
        usage,
        coef * np.repeat(charge, doc.t_max)[:, None],
        bound=True,
    )

    pairs = model.single_track_pairs
    if config.capacity_mode in ("single_track_alt1", "single_track_alt2") and not pairs:
        warnings.warn(
            f"capacity mode {config.capacity_mode} requested but the network has no"
            " single-track pairs; only the base capacity rows apply",
            stacklevel=2,
        )
    if not pairs:
        return
    # usage rows of each pair's earlier (own) and later (opp) link, per period
    place = model.positions["link"]
    own = np.add.outer([place[rep] * doc.t_max for rep, _ in pairs], np.arange(doc.t_max)).ravel()
    opp = np.add.outer([place[other] * doc.t_max for _, other in pairs], np.arange(doc.t_max)).ravel()
    both, both_coef = np.hstack([usage[own], usage[opp]]), np.concatenate([coef, coef])

    if config.capacity_mode == "single_track_alt1":
        model.add_rows(
            [f"Capacity2alt1[l={rep}/{other},t={t}]" for rep, other in pairs for t in T],
            "<=",
            [0.5 * (capacity[(rep, t)] + capacity[(other, t)]) for rep, other in pairs for t in T],
            both,
            both_coef,
            bound=True,
        )
    elif config.capacity_mode == "single_track_alt2":
        k, m = config.k_setup, big_m(capacity)
        periods = _by_period(len(pairs), doc.t_max)[1]
        beta = np.where((both >= 0).any(axis=1), model.lookup("beta", own // doc.t_max, periods), -1)
        # Per pair and period, three rows: own + opp <= c, then the setup
        # row of the earlier link (beta switches it off) and of the later
        # one, each k (own + opp) plus that link's own usage.
        none, no_beta = np.full_like(usage[own], -1), np.full_like(beta, -1)
        idx = np.stack(
            [
                np.hstack([both, none, none, no_beta[:, None]]),
                np.hstack([both, usage[own], none, beta[:, None]]),
                np.hstack([both, none, usage[opp], beta[:, None]]),
            ],
            axis=1,
        )
        weights = np.array(
            [
                np.concatenate([both_coef, coef, coef, [m]]),
                np.concatenate([k * both_coef, coef, coef, [m]]),
                np.concatenate([k * both_coef, coef, coef, [-m]]),
            ]
        )
        cap = [min(capacity[(rep, t)], capacity[(other, t)]) for rep, other in pairs for t in T]
        setup = "Capacity2alt2setup[l={},t={}]"
        names = [
            (f"Capacity2alt2[l={a}/{b},t={t}]", setup.format(a, t), setup.format(b, t)) for a, b in pairs for t in T
        ]
        model.add_rows(
            [name for three in names for name in three],
            "<=",
            [rhs for c in cap for rhs in (c, k * c + m, k * c)],
            idx.reshape(3 * own.size, -1),
            np.tile(weights, (own.size, 1)),
            bound=True,
        )


def emit_demand_layer(model: TimeExpandedModel) -> None:
    """Demand balance: departures, postponements and cancellations.

    Postponed volume carried out of period t is post[d,t]; it is declared
    for t = 1 .. t_max - 1 only (see build_variables), so the Departure3 rows
    of a demand add up to its whole volume being departed or cancelled.
    """
    doc = model.doc
    T = range(1, doc.t_max + 1)
    place = model.positions["route"]
    slots = _padded([[place[r] for r in doc.implements.get(d.name, ())] for d in doc.demands])

    demands, periods = _by_period(len(doc.demands), doc.t_max)
    idx = np.column_stack(
        [
            model.lookup("dep", slots[demands], periods[:, None]),
            model.lookup("post", demands, periods),
            model.lookup("post", demands, periods - 1),
            model.lookup("cancel", demands, periods),
        ]
    )
    model.add_rows(
        [f"Departure3[d={d.name},t={t}]" for d in doc.demands for t in T],
        "=",
        [volume for d in doc.demands for volume in d.volumes],
        idx,
        np.append(np.ones(slots.shape[1]), [1.0, -1.0, 1.0]),
    )
    demands = np.arange(len(doc.demands))
    idx = np.column_stack(
        [model.lookup("cancel", demands[:, None], np.arange(1, doc.t_max + 1)), model.lookup("cancel_total", demands)]
    )
    model.add_rows([f"Cancel1[d={d.name}]" for d in doc.demands], "=", 0.0, idx, np.append(np.ones(doc.t_max), -1.0))


def emit_flow_layer(model: TimeExpandedModel) -> None:
    """Per-route flow conservation over the time-expanded graph.

    Only the route's own links and nodes carry its flow, and only from the
    first period its volume can reach them (see build_variables); a term on
    an undeclared variable drops, and a node and period with no term left has
    no row.  No next arc or node inventory leaves the last period, so every
    departed volume must reach its destination within the horizon.  Flow2
    balances each timed node short of the destination: departures enter the
    route's network at its origin, and every later node is entered over the
    route's link before it and left over the link after it (a route visits
    no node twice).  The destination has no row: what flows into it arrives.
    """
    doc = model.doc
    T = range(1, doc.t_max + 1)
    link, node = model.positions["link"], model.positions["node"]
    names, at = [], []  # at: (route, node, link in or -1, link out) per row
    for i, r in enumerate(doc.routes):
        for k, n in enumerate(model.nodes_of[r.name][:-1]):
            names += [f"Flow2[n={n},t={t},r={r.name}]" for t in T]
            at.append((i, node[n], link[r.links[k - 1]] if k else -1, link[r.links[k]]))
    route, n, into, out = np.repeat(np.array(at, dtype=np.intp).reshape(-1, 4), doc.t_max, axis=0).T
    periods = _by_period(len(at), doc.t_max)[1]
    idx = np.column_stack(
        [
            model.lookup("ni", n, periods - 1, route),
            model.lookup("ni", n, periods, route),
            model.lookup("dep", np.where(into < 0, route, -1), periods),
            model.lookup("direct", into, periods, route),
            model.lookup("next", into, periods - 1, route),
            model.lookup("direct", out, periods, route),
            model.lookup("next", out, periods, route),
        ]
    )
    model.add_rows(names, "=", 0.0, idx, [1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0])


def departure_spread(cumulative_duration: float) -> tuple[tuple[int, float], ...]:
    """How one period's departures reach a node: (period offset, share) pairs.

    A volume departing uniformly within one period and needing
    cumulative_duration periods to reach the node arrives spread over at most
    two consecutive periods; integral durations collapse to a single offset.
    """
    if cumulative_duration < 0:
        raise ModelError(f"negative cumulative duration {cumulative_duration}")
    floor = int(math.floor(cumulative_duration + 1e-9))
    fraction = cumulative_duration - floor
    if fraction <= 1e-9:
        return ((floor, 1.0),)
    if fraction >= 1.0 - 1e-9:
        return ((floor + 1, 1.0),)
    return ((floor, 1.0 - fraction), (floor + 1, fraction))


def emit_aggregates(model: TimeExpandedModel) -> None:
    """Pacing: the volume reaching a node may not outrun the train's speed.

    lag[n,t,r] is the volume of route r that could have reached node n by the
    end of period t, given the departures so far and the cumulative duration
    to n, but has not yet.  Pace[n,t,r] adds each period's departures (spread
    by departure_spread) and takes off the period's inflow over the route's
    link into n (the direct arc of period t and the next arc from t-1); lag
    is declared from the first period departures can reach n, and its bound
    lag >= 0 keeps the cumulative inflow within reach.  Terms on undeclared
    variables drop, so before that period there is no Pace row.  At the
    origin departures are the inflow, so it has no lag and no Pace row.  The
    cumulative duration to a node sums the route's link durations up to it.
    """
    doc = model.doc
    T = range(1, doc.t_max + 1)
    link, node = model.positions["link"], model.positions["node"]
    # per row: (route, node, link in, first offset, second offset or -1)
    # and the shares of the two offsets (see departure_spread)
    names, at, shares = [], [], []
    for i, r in enumerate(doc.routes):
        reach = 0.0
        for x, n in zip(r.links, model.nodes_of[r.name][1:]):
            reach += doc.durations[(x, r.train_type)]
            (early, share), *late = departure_spread(reach) + ((-1, 0.0),)
            names += [f"Pace[n={n},t={t},r={r.name}]" for t in T]
            at.append((i, node[n], link[x], early, late[0][0]))
            shares.append((share, late[0][1]))
    route, n, into, early, late = np.repeat(np.array(at, dtype=np.intp).reshape(-1, 5), doc.t_max, axis=0).T
    share, late_share = np.repeat(np.array(shares).reshape(-1, 2), doc.t_max, axis=0).T
    periods = _by_period(len(at), doc.t_max)[1]
    idx = np.column_stack(
        [
            model.lookup("lag", n, periods, route),
            model.lookup("lag", n, periods - 1, route),
            model.lookup("dep", route, periods - early),
            model.lookup("dep", np.where(late >= 0, route, -1), periods - late),
            model.lookup("direct", into, periods, route),
            model.lookup("next", into, periods - 1, route),
        ]
    )
    ones = np.ones(idx.shape[0])
    model.add_rows(names, "=", 0.0, idx, np.column_stack([ones, -ones, -share, -late_share, ones, ones]))


def build_objective(model: TimeExpandedModel) -> None:
    """Cancellation and postponement penalties plus mean travel time.

    The travel-time term is the arrival periods minus the departure periods,
    weighted by volume and divided by the total demanded volume V; with no
    demanded volume it is dropped.  A route's arrivals in period t are its
    inflow over its last link (the direct arc of period t and the next arc
    from t-1), so both carry the weight t/V, and dep[r,t] carries -t/V.
    Per demand, a route that implements it adds its terms once more.
    """
    doc = model.doc
    config = model.config
    T = np.arange(1, doc.t_max + 1)
    demands = np.arange(len(doc.demands))
    # per demand: its cancellation total, then its postponements
    idx = [np.column_stack([model.lookup("cancel_total", demands), model.lookup("post", demands[:, None], T)])]
    coef = [np.append(config.cost_cancel, np.full(doc.t_max, config.cost_post))]
    total_volume = sum(sum(d.volumes) for d in doc.demands)
    if total_volume > 0:
        place, link = model.positions["route"], model.positions["link"]
        routes = np.array([place[r] for d in doc.demands for r in doc.implements.get(d.name, ())], dtype=np.intp)
        last = np.array([link[doc.routes[r].links[-1]] for r in routes], dtype=np.intp)
        routes, last = routes[:, None], last[:, None]
        # per (demand, route) and period: the inflow over the last link, then the departures
        arrivals = [model.lookup("direct", last, T, routes), model.lookup("next", last, T - 1, routes)]
        idx.append(np.stack([*arrivals, model.lookup("dep", routes, T)], axis=2))
        coef.append(np.column_stack([T / total_volume, T / total_volume, -T / total_volume]))
    coef = np.concatenate([np.broadcast_to(c, i.shape).ravel() for i, c in zip(idx, coef)])
    idx = np.concatenate([i.ravel() for i in idx])
    obj: dict[int, float] = {}
    for i, c in zip(idx[idx >= 0].tolist(), coef[idx >= 0].tolist()):
        obj[i] = obj.get(i, 0.0) + c
    model.objective = {i: c for i, c in obj.items() if c != 0.0}


def build_model(doc: ScenarioDocument) -> TimeExpandedModel:
    """Compose the full model of a loaded document under doc.config.

    Deterministic for identical documents.  The document's inline TCR
    overrides must already be applied (scenario.apply_tcr), since the model
    reads the capacity table as it stands.
    """
    if doc.tcr_overrides:
        raise ModelError("apply the document's tcr_overrides before building its model")
    model = build_variables(doc)
    emit_capacity(model)
    emit_demand_layer(model)
    emit_flow_layer(model)
    emit_aggregates(model)
    build_objective(model)
    return model
