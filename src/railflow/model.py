"""Time-expanded linear(-integer) model of the three-layer train flow problem.

The model schedules *volumes* of trains, never individual trains.  Per route
(commodity) and period it balances departures, link traversals inside one
period (direct arcs), traversals crossing into the next period (next arcs,
counted half in each adjacent period for capacity) and volumes standing at
stations (node inventory arcs).  A route's flow variables exist only on its
own links and stations; off-route flow is not declared at all.  The demand
layer converts requested volumes into departures, postponements and
cancellations; aggregate-duration pacing rows stop volumes from outrunning
their train type.

Everything here is solver independent: the result is a list of named linear
constraints plus a linear objective.  Building is a pure function of its
inputs, so identical inputs give an identical model, constraint by constraint.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .catalog import Route, ServiceCatalog, aggregate_durations, demand_total, route_nodes
from .network import Horizon, Network

CAPACITY_MODES = ("basic", "single_track_alt1", "single_track_alt2", "heterogeneous")


class ModelError(ValueError):
    """Raised when the inputs cannot be turned into a well-formed model."""


@dataclass(frozen=True)
class ModelConfig:
    """Knobs of the formulation.

    capacity_mode selects the single-track / heterogeneity family added on
    top of the always-present base capacity rows.  k_setup follows the
    convention where values in (0, 1] make a direction change consume at
    least (allocated volume / k_setup) of setup time; 1.0 means the setup
    equals the lower of the two directional volumes.
    """

    capacity_mode: str = "basic"
    k_het: float = 0.25
    k_setup: float = 1.0
    k_setup_overrides: Mapping[tuple[int, int], float] | None = None
    big_m: Optional[float] = None
    arrival_slack: float = 0.0
    arrival_slack_overrides: Mapping[int, float] | None = None
    cost_cancel: float = 1000.0
    cost_post: float = 20.0
    relax_integrality: bool = False
    include_arrival_accounting: bool = False

    def __post_init__(self) -> None:
        if self.capacity_mode not in CAPACITY_MODES:
            raise ModelError(f"unknown capacity mode {self.capacity_mode!r}")
        numbers = [
            (name, getattr(self, name))
            for name in ("k_het", "k_setup", "big_m", "arrival_slack", "cost_cancel", "cost_post")
        ]
        for name in ("k_setup_overrides", "arrival_slack_overrides"):
            numbers += [(f"{name}[{key}]", v) for key, v in (getattr(self, name) or {}).items()]
        for name, value in numbers:
            if value is not None and not math.isfinite(value):
                raise ModelError(f"{name} must be finite, got {value}")
        if self.k_het < 0:
            raise ModelError("k_het must be >= 0")
        if not 0 < self.k_setup <= 1:
            raise ModelError("k_setup must lie in (0, 1]")
        if self.arrival_slack < 0:
            raise ModelError("arrival slack must be >= 0")

    def setup_coefficient(self, link_id: int, t: int) -> float:
        if self.k_setup_overrides:
            return self.k_setup_overrides.get((link_id, t), self.k_setup)
        return self.k_setup

    def slack_for_route(self, route_id: int) -> float:
        if self.arrival_slack_overrides:
            return self.arrival_slack_overrides.get(route_id, self.arrival_slack)
        return self.arrival_slack


@dataclass(frozen=True)
class VariableRef:
    """Identity of one decision variable: a kind plus its index tuple."""

    kind: str
    key: tuple


@dataclass(frozen=True)
class ModelVariable:
    ref: VariableRef
    name: str
    lb: float = 0.0
    ub: float = math.inf
    integer: bool = False


@dataclass(frozen=True)
class LinearConstraint:
    """name: family[index,...]; terms: (variable index, coefficient) pairs."""

    name: str
    terms: tuple[tuple[int, float], ...]
    relation: str  # one of "<=", "=", ">="
    rhs: float


def _merge_terms(terms: Iterable[tuple[int, float]]) -> tuple[tuple[int, float], ...]:
    merged: dict[int, float] = {}
    for idx, coef in terms:
        if not math.isfinite(coef):
            raise ModelError(f"non-finite coefficient {coef} for variable {idx}")
        merged[idx] = merged.get(idx, 0.0) + coef
    return tuple((idx, coef) for idx, coef in merged.items() if coef != 0.0)


class TimeExpandedModel:
    """Variables, constraints and objective of one problem instance.

    Treat instances as immutable once build_model returns: the solver and the
    reports only read them, and several models may be built and solved
    concurrently.
    """

    def __init__(
        self,
        network: Network,
        catalog: ServiceCatalog,
        horizon: Horizon,
        config: ModelConfig,
    ) -> None:
        self.network = network
        self.catalog = catalog
        self.horizon = horizon
        self.config = config
        self.variables: list[ModelVariable] = []
        self.constraints: list[LinearConstraint] = []
        self.objective: dict[int, float] = {}
        self.big_m: float = 0.0
        self.single_track_pairs: tuple[tuple[int, int], ...] = ()
        # Route support, set by build_variables: each route's nodes in order,
        # and the routes (in catalog order) riding each link or visiting
        # each node.  Flow variables exist only there.
        self.nodes_of: dict[int, tuple[int, ...]] = {}
        self.routes_on_link: dict[int, tuple[Route, ...]] = {}
        self.routes_at_node: dict[int, tuple[Route, ...]] = {}
        self._index: dict[VariableRef, int] = {}

    # -- variables ---------------------------------------------------------

    def add_variable(
        self,
        kind: str,
        key: tuple,
        name: str,
        lb: float = 0.0,
        ub: float = math.inf,
        integer: bool = False,
    ) -> int:
        ref = VariableRef(kind, key)
        if ref in self._index:
            raise ModelError(f"variable {name} declared twice")
        self.variables.append(ModelVariable(ref, name, lb, ub, integer))
        idx = len(self.variables) - 1
        self._index[ref] = idx
        return idx

    def var(self, kind: str, *key) -> int:
        """Index of a declared variable; raises KeyError when absent."""
        return self._index[VariableRef(kind, tuple(key))]

    def add_constraint(
        self,
        name: str,
        terms: Iterable[tuple[int, float]],
        relation: str,
        rhs: float,
    ) -> None:
        if relation not in ("<=", "=", ">="):
            raise ModelError(f"bad relation {relation!r} in {name}")
        self.constraints.append(LinearConstraint(name, _merge_terms(terms), relation, float(rhs)))

    # -- label helpers used in names and reports ---------------------------

    def link_label(self, link_id: int) -> str:
        return self.network.link(link_id).name

    def node_label(self, node_id: int) -> str:
        return self.network.node(node_id).name

    def type_label(self, type_id: int) -> str:
        return self.network.train_type(type_id).label

    def route_label(self, route_id: int) -> str:
        return self.catalog.route(route_id).name

    def demand_label(self, demand_id: int) -> str:
        return self.catalog.demand(demand_id).name

    def objective_value(self, values) -> float:
        return float(sum(coef * values[idx] for idx, coef in self.objective.items()))


# ---------------------------------------------------------------------------
# variable declaration
# ---------------------------------------------------------------------------


def build_variables(
    network: Network,
    catalog: ServiceCatalog,
    horizon: Horizon,
    config: ModelConfig,
) -> TimeExpandedModel:
    """Declare every decision variable; no constraints yet.

    Flow variables (direct, next, ext, ni, in, aggr) of a route exist only on
    that route's links and nodes: a route's volume can use nothing else.
    Continuous variables are nonnegative except the source/sink exchange
    variables at a route's origin and destination, which are negative at the
    destination by construction (they equal minus the arrivals) and are
    therefore left free; at stations the route passes through, nothing enters
    or leaves, so ext is fixed at zero.  The horizon ends are bounds too: next
    arcs and node inventories are empty in periods 0 and t_max, pacing
    aggregates start at zero, and nothing is postponed into period 0 or out of
    the last period, so unplaceable volume has to be cancelled.
    """
    for route in catalog.routes:
        for link_id in route.links:
            key = (link_id, route.train_type)
            value = network.duration.get(key)
            if value is None:
                raise ModelError(
                    f"no traversal duration for link {network.link(link_id).name}"
                    f" and train type {network.train_type(route.train_type).label}"
                )
            if value > 1.0 + 1e-12:
                raise ModelError(
                    f"link {network.link(link_id).name} takes {value} periods for type"
                    f" {network.train_type(route.train_type).label}; routes must reach"
                    " the next node within one period"
                )

    model = TimeExpandedModel(network, catalog, horizon, config)
    T = horizon.periods
    T0 = horizon.extended_periods
    ends = {0: 0.0, horizon.t_max: 0.0}  # upper bound of next, ni and post at the horizon ends
    routes = catalog.routes
    demands = catalog.demands
    model.nodes_of = {r.id: route_nodes(r, network) for r in routes}
    model.routes_on_link = {l.id: tuple(r for r in routes if l.id in r.links) for l in network.links}
    model.routes_at_node = {
        n.id: tuple(r for r in routes if n.id in model.nodes_of[r.id]) for n in network.nodes
    }
    on_link = model.routes_on_link
    at_node = model.routes_at_node

    for r in routes:
        for t in T:
            model.add_variable("dep", (r.id, t), f"dep({r.name},{t})")
    for r in routes:
        for t in T:
            model.add_variable("arr", (r.id, t), f"arr({r.name},{t})")
    for n in network.nodes:
        for t in T:
            for r in at_node[n.id]:
                through = n.id not in (r.origin, r.destination)
                lb, ub = (0.0, 0.0) if through else (-math.inf, math.inf)
                model.add_variable("ext", (n.id, t, r.id), f"ext({n.name},{t},{r.name})", lb=lb, ub=ub)
    for l in network.links:
        for t in T:
            for r in on_link[l.id]:
                model.add_variable("direct", (l.id, t, r.id), f"direct({l.name},{t},{r.name})")
    for l in network.links:
        for t in T0:
            for r in on_link[l.id]:
                ub = ends.get(t, math.inf)
                model.add_variable("next", (l.id, t, r.id), f"next({l.name},{t},{r.name})", ub=ub)
    for n in network.nodes:
        for t in T0:
            for r in at_node[n.id]:
                ub = ends.get(t, math.inf)
                model.add_variable("ni", (n.id, t, r.id), f"ni({n.name},{t},{r.name})", ub=ub)
    for n in network.nodes:
        for t in T:
            for r in at_node[n.id]:
                model.add_variable("in", (n.id, t, r.id), f"in({n.name},{t},{r.name})")
    for n in network.nodes:
        for t in T0:
            for r in at_node[n.id]:
                ub = 0.0 if t == 0 else math.inf
                model.add_variable("aggr", (n.id, t, r.id), f"aggr({n.name},{t},{r.name})", ub=ub)
    for d in demands:
        for t in T0:
            model.add_variable("post", (d.id, t), f"post({d.name},{t})", ub=ends.get(t, math.inf))
    for d in demands:
        for t in T:
            model.add_variable("cancel_t", (d.id, t), f"cancel({d.name},{t})")
    for d in demands:
        model.add_variable(
            "cancel_total",
            (d.id,),
            f"cancel_total({d.name})",
            integer=not config.relax_integrality,
        )
    for l in network.links:
        for t in T:
            for h in network.train_types:
                model.add_variable("linkcap", (l.id, t, h.id), f"linkcap({l.name},{t},{h.label})")

    pairs = tuple(
        (l.id, network.sigma[l.id])
        for l in network.links
        if network.sigma[l.id] > l.id
    )
    model.single_track_pairs = pairs
    if config.capacity_mode == "single_track_alt2":
        for rep, _ in pairs:
            lname = network.link(rep).name
            for t in T:
                model.add_variable("setup_w", (rep, t), f"setup_w({lname},{t})")
        for rep, _ in pairs:
            lname = network.link(rep).name
            for t in T:
                model.add_variable(
                    "dirflag_beta",
                    (rep, t),
                    f"beta({lname},{t})",
                    ub=1.0,
                    integer=True,
                )

    max_cap = max(network.capacity.values(), default=0.0)
    model.big_m = config.big_m if config.big_m is not None else 10.0 * max(max_cap, 1.0)
    if model.big_m <= max_cap:
        raise ModelError(f"big M {model.big_m} must exceed the largest nominal capacity {max_cap}")
    return model


# ---------------------------------------------------------------------------
# constraint families
# ---------------------------------------------------------------------------


def emit_capacity(model: TimeExpandedModel) -> None:
    """Base capacity rows plus the family selected by capacity_mode.

    Capacity1 keeps the per-type allocations within the nominal capacity;
    Capacity4 keeps the flow of each type some route runs on the link (direct
    plus half of each adjacent next arc) within its allocation; the other
    types' allocations are only nonnegative.  single_track_alt1 makes coupled
    links share the mean of their nominal capacities; single_track_alt2 adds a
    setup-time variable w tied, through a binary flag, to the smaller of the
    two directional allocations; heterogeneous charges extra capacity for
    every pair of distinct train types sharing a link.
    """
    network = model.network
    config = model.config
    T = model.horizon.periods

    for l in network.links:
        for t in T:
            terms = [(model.var("linkcap", l.id, t, h.id), 1.0) for h in network.train_types]
            model.add_constraint(
                f"Capacity1[l={l.name},t={t}]", terms, "<=", network.capacity[(l.id, t)]
            )

    pairs = model.single_track_pairs
    if config.capacity_mode in ("single_track_alt1", "single_track_alt2") and not pairs:
        warnings.warn(
            f"capacity mode {config.capacity_mode} requested but the network has no"
            " single-track pairs; only the base capacity rows apply",
            stacklevel=2,
        )

    if config.capacity_mode == "single_track_alt1":
        for rep, other in pairs:
            lname, oname = network.link(rep).name, network.link(other).name
            for t in T:
                terms = [
                    (model.var("linkcap", link_id, t, h.id), 1.0)
                    for link_id in (rep, other)
                    for h in network.train_types
                ]
                rhs = 0.5 * (network.capacity[(rep, t)] + network.capacity[(other, t)])
                model.add_constraint(f"Capacity2alt1[l={lname}/{oname},t={t}]", terms, "<=", rhs)
    elif config.capacity_mode == "single_track_alt2":
        for rep, other in pairs:
            lname, oname = network.link(rep).name, network.link(other).name
            for t in T:
                both = [
                    (model.var("linkcap", link_id, t, h.id), 1.0)
                    for link_id in (rep, other)
                    for h in network.train_types
                ]
                w = model.var("setup_w", rep, t)
                beta = model.var("dirflag_beta", rep, t)
                model.add_constraint(
                    f"Capacity2alt2[l={lname},t={t}]",
                    both + [(w, 1.0)],
                    "<=",
                    network.capacity[(rep, t)],
                )
                model.add_constraint(
                    f"Capacity2alt2[l={oname},t={t}]",
                    both + [(w, 1.0)],
                    "<=",
                    network.capacity[(other, t)],
                )
                own = [(model.var("linkcap", rep, t, h.id), 1.0) for h in network.train_types]
                opp = [(model.var("linkcap", other, t, h.id), 1.0) for h in network.train_types]
                model.add_constraint(
                    f"Capacity2alt2setup[l={lname},t={t}]",
                    own + [(w, -config.setup_coefficient(rep, t)), (beta, model.big_m)],
                    "<=",
                    model.big_m,
                )
                model.add_constraint(
                    f"Capacity2alt2setup[l={oname},t={t}]",
                    opp + [(w, -config.setup_coefficient(other, t)), (beta, -model.big_m)],
                    "<=",
                    0.0,
                )
    elif config.capacity_mode == "heterogeneous":
        for l in network.links:
            active = [
                h
                for h in network.train_types
                if any(r.train_type == h.id for r in model.routes_on_link[l.id])
            ]
            if len(active) == 0:
                continue
            for t in T:
                coef: dict[int, float] = {}
                for h in active:
                    idx = model.var("linkcap", l.id, t, h.id)
                    coef[idx] = coef.get(idx, 0.0) + 1.0
                    for other in active:
                        if other.id == h.id:
                            continue
                        oidx = model.var("linkcap", l.id, t, other.id)
                        coef[oidx] = coef.get(oidx, 0.0) + config.k_het
                model.add_constraint(
                    f"Capacity3[l={l.name},t={t}]",
                    list(coef.items()),
                    "<=",
                    network.capacity[(l.id, t)],
                )

    for l in network.links:
        for t in T:
            for h in network.train_types:
                riding = [r for r in model.routes_on_link[l.id] if r.train_type == h.id]
                if not riding:
                    continue
                terms: list[tuple[int, float]] = []
                for r in riding:
                    terms.append((model.var("direct", l.id, t, r.id), 1.0))
                    terms.append((model.var("next", l.id, t - 1, r.id), 0.5))
                    terms.append((model.var("next", l.id, t, r.id), 0.5))
                terms.append((model.var("linkcap", l.id, t, h.id), -1.0))
                model.add_constraint(
                    f"Capacity4[l={l.name},t={t},h={h.label}]", terms, "<=", 0.0
                )


def emit_demand_layer(model: TimeExpandedModel) -> None:
    """Demand balance: departures, postponements and cancellations.

    Postponed volume carried out of period t is post[d,t]; its bounds (see
    build_variables) keep periods 0 and t_max empty.
    """
    catalog = model.catalog

    for d in catalog.demands:
        route_ids = catalog.implements.get(d.id, ())
        for t in model.horizon.periods:
            terms = [(model.var("dep", rid, t), 1.0) for rid in route_ids]
            terms.append((model.var("post", d.id, t), 1.0))
            terms.append((model.var("post", d.id, t - 1), -1.0))
            terms.append((model.var("cancel_t", d.id, t), 1.0))
            model.add_constraint(f"Departure3[d={d.name},t={t}]", terms, "=", d.volumes[t - 1])
    for d in catalog.demands:
        terms = [(model.var("cancel_t", d.id, t), 1.0) for t in model.horizon.periods]
        terms.append((model.var("cancel_total", d.id), -1.0))
        model.add_constraint(f"Cancel1[d={d.name}]", terms, "=", 0.0)
    for d in catalog.demands:
        route_ids = catalog.implements.get(d.id, ())
        terms = [
            (model.var("dep", rid, t), 1.0)
            for t in model.horizon.periods
            for rid in route_ids
        ]
        terms.append((model.var("cancel_total", d.id), 1.0))
        model.add_constraint(f"Cancel2[d={d.name}]", terms, "=", float(demand_total(d)))
    if model.config.include_arrival_accounting:
        for d in catalog.demands:
            route_ids = catalog.implements.get(d.id, ())
            terms = [
                (model.var("arr", rid, t), 1.0)
                for t in model.horizon.periods
                for rid in route_ids
            ]
            terms.append((model.var("cancel_total", d.id), 1.0))
            model.add_constraint(f"Cancel3[d={d.name}]", terms, "=", float(demand_total(d)))


def emit_flow_layer(model: TimeExpandedModel) -> None:
    """Per-route flow conservation over the time-expanded graph.

    Only the route's own links and nodes carry its flow (see build_variables).
    Next arcs and node inventories are bounded to zero at both ends of the
    horizon, so every departed volume must reach its sink within the horizon.
    Flow1 ties the exchange variables at a route's origin and destination to
    departures and arrivals (ext is fixed at zero elsewhere), Flow2 balances
    each timed node and Flow3 defines the per-period inflow used by the pacing
    rows.
    """
    network = model.network
    catalog = model.catalog
    T = model.horizon.periods
    at_node = model.routes_at_node

    for n in network.nodes:
        for t in T:
            for r in at_node[n.id]:
                ext = model.var("ext", n.id, t, r.id)
                name = f"Flow1[n={n.name},t={t},r={r.name}]"
                if n.id == r.origin:
                    model.add_constraint(name, [(ext, 1.0), (model.var("dep", r.id, t), -1.0)], "=", 0.0)
                elif n.id == r.destination:
                    model.add_constraint(name, [(ext, 1.0), (model.var("arr", r.id, t), 1.0)], "=", 0.0)

    for r in catalog.routes:
        incoming: dict[int, list[int]] = {}
        outgoing: dict[int, list[int]] = {}
        for link_id in r.links:
            link = network.link(link_id)
            incoming.setdefault(link.head, []).append(link_id)
            outgoing.setdefault(link.tail, []).append(link_id)
        for n_id in model.nodes_of[r.id]:
            nname = network.node(n_id).name
            for t in T:
                terms = [
                    (model.var("ext", n_id, t, r.id), 1.0),
                    (model.var("ni", n_id, t - 1, r.id), 1.0),
                    (model.var("ni", n_id, t, r.id), -1.0),
                ]
                for link_id in incoming.get(n_id, ()):
                    terms.append((model.var("direct", link_id, t, r.id), 1.0))
                    terms.append((model.var("next", link_id, t - 1, r.id), 1.0))
                for link_id in outgoing.get(n_id, ()):
                    terms.append((model.var("direct", link_id, t, r.id), -1.0))
                    terms.append((model.var("next", link_id, t, r.id), -1.0))
                model.add_constraint(f"Flow2[n={nname},t={t},r={r.name}]", terms, "=", 0.0)

    for n in network.nodes:
        for t in T:
            for r in at_node[n.id]:
                terms = [(model.var("in", n.id, t, r.id), 1.0)]
                if n.id == r.origin:
                    terms.append((model.var("dep", r.id, t), -1.0))
                for link_id in r.links:
                    if network.link(link_id).head != n.id:
                        continue
                    terms.append((model.var("direct", link_id, t, r.id), -1.0))
                    terms.append((model.var("next", link_id, t - 1, r.id), -1.0))
                model.add_constraint(f"Flow3[n={n.name},t={t},r={r.name}]", terms, "=", 0.0)


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
    """Pacing: cumulative inflow at a node may not outrun the train's speed.

    aggr[n,t,r] accumulates, period by period, the largest volume of route r
    that can possibly have reached node n given the departures so far; the
    Aggregate3/Aggregate4 rows then cap the cumulative inflow by it.  Like
    every flow variable, aggr exists only at the route's own nodes, and its
    bound starts it at zero in period 0.
    """
    network = model.network
    catalog = model.catalog
    T = model.horizon.periods
    nodes_of = model.nodes_of

    for r in catalog.routes:
        reach = aggregate_durations(r, network)
        for n_id in nodes_of[r.id]:
            nname = network.node(n_id).name
            spread = departure_spread(reach[n_id])
            for t in T:
                terms = [
                    (model.var("aggr", n_id, t, r.id), 1.0),
                    (model.var("aggr", n_id, t - 1, r.id), -1.0),
                ]
                for offset, share in spread:
                    if t - offset >= 1:
                        terms.append((model.var("dep", r.id, t - offset), -share))
                model.add_constraint(
                    f"Aggregate2.2[n={nname},t={t},r={r.name}]", terms, "=", 0.0
                )

    for r in catalog.routes:
        for n_id in nodes_of[r.id]:
            nname = network.node(n_id).name
            model.add_constraint(
                f"Aggregate3[n={nname},r={r.name}]",
                [
                    (model.var("aggr", n_id, 1, r.id), 1.0),
                    (model.var("in", n_id, 1, r.id), -1.0),
                ],
                ">=",
                0.0,
            )
            for t in T:
                if t == 1:
                    continue
                terms = [(model.var("aggr", n_id, t, r.id), 1.0)]
                terms.extend(
                    (model.var("in", n_id, tt, r.id), -1.0) for tt in range(1, t + 1)
                )
                model.add_constraint(
                    f"Aggregate4[n={nname},t={t},r={r.name}]", terms, ">=", 0.0
                )


def emit_arrival(model: TimeExpandedModel) -> None:
    """Arrivals must keep up with what reaches the destination each period.

    Volume flowing into the destination node in period t has to register as
    an arrival in that period up to the route's slack allowance, so it cannot
    idle at the sink and distort the travel-time accounting.
    """
    for r in model.catalog.routes:
        slack = model.config.slack_for_route(r.id)
        for t in model.horizon.periods:
            model.add_constraint(
                f"Arrival1[r={r.name},t={t}]",
                [
                    (model.var("arr", r.id, t), 1.0),
                    (model.var("in", r.destination, t, r.id), -1.0),
                ],
                ">=",
                -slack,
            )


def build_objective(model: TimeExpandedModel) -> None:
    """Cancellation and postponement penalties plus mean travel time.

    The travel-time term is (sum_t t*arr - sum_t t*dep) scaled by the total
    demanded volume; with no demanded volume it is dropped.
    """
    catalog = model.catalog
    config = model.config
    obj: dict[int, float] = {}

    def add(idx: int, coef: float) -> None:
        obj[idx] = obj.get(idx, 0.0) + coef

    for d in catalog.demands:
        add(model.var("cancel_total", d.id), config.cost_cancel)
        for t in model.horizon.extended_periods:
            add(model.var("post", d.id, t), config.cost_post)

    total_volume = sum(demand_total(d) for d in catalog.demands)
    if total_volume > 0:
        for d in catalog.demands:
            for rid in catalog.implements.get(d.id, ()):
                for t in model.horizon.periods:
                    add(model.var("arr", rid, t), t / total_volume)
                    add(model.var("dep", rid, t), -t / total_volume)

    model.objective = {idx: coef for idx, coef in obj.items() if coef != 0.0}


def build_model(
    network: Network,
    catalog: ServiceCatalog,
    horizon: Horizon,
    config: ModelConfig | None = None,
) -> TimeExpandedModel:
    """Compose the full model; deterministic for identical inputs."""
    if config is None:
        config = ModelConfig()
    if horizon.t_max != network.horizon.t_max:
        raise ModelError(
            f"horizon t_max {horizon.t_max} disagrees with the network capacity table"
            f" ({network.horizon.t_max} periods)"
        )
    model = build_variables(network, catalog, horizon, config)
    emit_capacity(model)
    emit_demand_layer(model)
    emit_flow_layer(model)
    emit_aggregates(model)
    emit_arrival(model)
    build_objective(model)
    return model
