"""Time-expanded linear(-integer) model of the three-layer train flow problem.

The model schedules *volumes* of trains, never individual trains.  Per route
(commodity) and period it balances departures at the origin, link
traversals inside one period (direct arcs), traversals crossing into the
next period (next arcs, counted half in each adjacent period for capacity)
and volumes standing at stations short of the destination (node inventory
arcs).  A route's arrivals are the inflow over its last link; they have no
variable of their own.  A route's flow variables exist only on its own links
and stations; off-route flow is not declared at all.  The demand layer
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
in document order.  Everything here is solver independent: the result is a
list of named linear constraints plus a linear objective.  Building is a pure
function of the document, so identical documents give an identical model,
constraint by constraint.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Optional

if TYPE_CHECKING:
    from .scenario import RouteSpec, ScenarioDocument

CAPACITY_MODES = ("basic", "single_track_alt1", "single_track_alt2", "heterogeneous")


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


class VariableRef(NamedTuple):
    """Identity of one decision variable: a kind plus its index tuple."""

    kind: str
    key: tuple


class ModelVariable(NamedTuple):
    ref: VariableRef
    name: str
    lb: float = 0.0
    ub: float = math.inf
    integer: bool = False


class LinearConstraint(NamedTuple):
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
    concurrently.  doc is None for a bare model of hand-written rows.
    """

    def __init__(self, doc: Optional[ScenarioDocument] = None) -> None:
        self.doc = doc
        self.variables: list[ModelVariable] = []
        self.constraints: list[LinearConstraint] = []
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
        self._index: dict[VariableRef, int] = {}

    @property
    def config(self) -> ModelConfig:
        return self.doc.config

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
        if not math.isfinite(lb):
            raise ModelError(f"variable {name} needs a finite lower bound, got {lb}")
        ref = VariableRef(kind, key)
        if ref in self._index:
            raise ModelError(f"variable {name} declared twice")
        self.variables.append(ModelVariable(ref, name, lb, ub, integer))
        idx = len(self.variables) - 1
        self._index[ref] = idx
        return idx

    def var(self, kind: str, *key) -> int:
        """Index of a declared variable; raises KeyError when absent."""
        # A VariableRef hashes and compares as the plain tuple (kind, key).
        return self._index[(kind, key)]

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

    def objective_value(self, values) -> float:
        return float(sum(coef * values[idx] for idx, coef in self.objective.items()))


# ---------------------------------------------------------------------------
# variable declaration
# ---------------------------------------------------------------------------


def build_variables(doc: ScenarioDocument) -> TimeExpandedModel:
    """Declare every decision variable; no constraints yet.

    Flow variables (direct, next, ni, lag) of a route exist only on that
    route's links and nodes; lag not at its origin, where it would always be
    0, and ni not at its destination, where volume arrives and leaves the
    route (holding it there would only delay the arrival).  Every variable
    is nonnegative (add_variable rejects an infinite lower bound, so no
    variable is free).  The horizon ends are bounds: next arcs and node
    inventories are empty in periods 0 and t_max, and nothing is postponed
    into period 0 or out of the last period, so unplaceable volume has to be
    cancelled.
    """
    model = TimeExpandedModel(doc)
    config = doc.config
    T = range(1, doc.t_max + 1)
    T0 = range(0, doc.t_max + 1)
    ends = {0: 0.0, doc.t_max: 0.0}  # upper bound of next, ni and post at the horizon ends
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

    for r in routes:
        for t in T:
            model.add_variable("dep", (r.name, t), f"dep({r.name},{t})")
    for l in doc.links:
        for t in T:
            for r in on_link[l.name]:
                model.add_variable("direct", (l.name, t, r.name), f"direct({l.name},{t},{r.name})")
    for l in doc.links:
        for t in T0:
            for r in on_link[l.name]:
                ub = ends.get(t, math.inf)
                model.add_variable("next", (l.name, t, r.name), f"next({l.name},{t},{r.name})", ub=ub)
    for n in doc.nodes:
        for t in T0:
            for r in at_node[n]:
                if n != nodes_of[r.name][-1]:
                    ub = ends.get(t, math.inf)
                    model.add_variable("ni", (n, t, r.name), f"ni({n},{t},{r.name})", ub=ub)
    for n in doc.nodes:
        for t in T:
            for r in at_node[n]:
                if n != nodes_of[r.name][0]:
                    model.add_variable("lag", (n, t, r.name), f"lag({n},{t},{r.name})")
    for d in doc.demands:
        for t in T0:
            model.add_variable("post", (d.name, t), f"post({d.name},{t})", ub=ends.get(t, math.inf))
    for d in doc.demands:
        for t in T:
            model.add_variable("cancel_t", (d.name, t), f"cancel({d.name},{t})")
    for d in doc.demands:
        model.add_variable(
            "cancel_total",
            (d.name,),
            f"cancel_total({d.name})",
            integer=not config.relax_integrality,
        )
    # A pair is stated in either order; its earlier link in doc.links stands for it.
    place = {l.name: i for i, l in enumerate(doc.links)}
    pairs = [tuple(sorted(pair, key=place.get)) for pair in doc.single_track_pairs]
    model.single_track_pairs = tuple(sorted(pairs, key=lambda pair: place[pair[0]]))
    if config.capacity_mode == "single_track_alt2":
        for rep, _ in model.single_track_pairs:
            for t in T:
                model.add_variable(
                    "dirflag_beta",
                    (rep, t),
                    f"beta({rep},{t})",
                    ub=1.0,
                    integer=True,
                )
    return model


# ---------------------------------------------------------------------------
# constraint families
# ---------------------------------------------------------------------------


def link_usage(
    model: TimeExpandedModel, link: str, t: int, train_type: Optional[str] = None
) -> list[tuple[int, float]]:
    """Terms of a link's capacity charge in period t.

    Every route on the link (of the given train type, if one is given) counts
    its direct arc of period t plus half of each adjacent next arc (from t - 1
    and from t), which cross the period boundary halfway.  A link no route
    uses has no terms.
    """
    terms: list[tuple[int, float]] = []
    for r in model.routes_on_link[link]:
        if train_type is not None and r.train_type != train_type:
            continue
        terms.append((model.var("direct", link, t, r.name), 1.0))
        terms.append((model.var("next", link, t - 1, r.name), 0.5))
        terms.append((model.var("next", link, t, r.name), 0.5))
    return terms


def big_m(capacity: Mapping[tuple[str, int], float]) -> float:
    """Big M of single_track_alt2: 10 x the largest capacity, and at least 10."""
    return 10.0 * max(max(capacity.values(), default=0.0), 1.0)


def emit_capacity(model: TimeExpandedModel) -> None:
    """Capacity rows of the mode selected by capacity_mode.

    Each row reads a link's flow through link_usage; a row that would have no
    terms (a link no route uses) is not emitted.  Capacity1 keeps the usage
    within the link's nominal capacity.  heterogeneous replaces Capacity1 by
    Capacity3, which charges the usage 1 + k_het per other train type on the
    link (and so implies Capacity1, as k_het >= 0).  single_track_alt1 makes
    coupled links share the mean of their nominal capacities.

    single_track_alt2 makes both directional usages plus the setup time
    min(own, opp) / k_setup fit in the smaller capacity c of the pair.  The
    setup time w has no variable: Fourier-Motzkin elimination of w from
    w >= (own - M (1 - beta)) / k, w >= (opp - M beta) / k, w >= 0 and
    own + opp + w <= c leaves, exactly, the pair row own + opp <= c and one
    setup row per direction, which the binary flag beta switches off through
    big M (big_m; the loader keeps it in float range, scenario.apply_tcr).
    The capacity report derives the setup time from the flows.
    """
    doc = model.doc
    config = model.config
    capacity = doc.capacity
    T = range(1, doc.t_max + 1)

    heterogeneous = config.capacity_mode == "heterogeneous"
    family = "Capacity3" if heterogeneous else "Capacity1"
    for l in doc.links:
        riding = model.routes_on_link[l.name]
        if not riding:
            continue
        n_types = len({r.train_type for r in riding})
        charge = 1.0 + config.k_het * (n_types - 1) if heterogeneous else 1.0
        for t in T:
            model.add_constraint(
                f"{family}[l={l.name},t={t}]",
                [(idx, charge * coef) for idx, coef in link_usage(model, l.name, t)],
                "<=",
                capacity[(l.name, t)],
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
            for t in T:
                terms = link_usage(model, rep, t) + link_usage(model, other, t)
                if not terms:
                    continue
                rhs = 0.5 * (capacity[(rep, t)] + capacity[(other, t)])
                model.add_constraint(f"Capacity2alt1[l={rep}/{other},t={t}]", terms, "<=", rhs)
    elif config.capacity_mode == "single_track_alt2":
        k, m = config.k_setup, big_m(capacity)
        for rep, other in pairs:
            for t in T:
                own, opp = link_usage(model, rep, t), link_usage(model, other, t)
                both = own + opp
                if not both:
                    continue
                cap = min(capacity[(rep, t)], capacity[(other, t)])
                beta = model.var("dirflag_beta", rep, t)
                model.add_constraint(f"Capacity2alt2[l={rep}/{other},t={t}]", both, "<=", cap)
                scaled = [(idx, k * coef) for idx, coef in both]
                model.add_constraint(
                    f"Capacity2alt2setup[l={rep},t={t}]",
                    scaled + own + [(beta, m)],
                    "<=",
                    k * cap + m,
                )
                model.add_constraint(
                    f"Capacity2alt2setup[l={other},t={t}]",
                    scaled + opp + [(beta, -m)],
                    "<=",
                    k * cap,
                )


def emit_demand_layer(model: TimeExpandedModel) -> None:
    """Demand balance: departures, postponements and cancellations.

    Postponed volume carried out of period t is post[d,t]; its bounds (see
    build_variables) keep periods 0 and t_max empty, so the Departure3 rows
    of a demand add up to its whole volume being departed or cancelled.
    """
    doc = model.doc
    T = range(1, doc.t_max + 1)

    for d in doc.demands:
        routes = doc.implements.get(d.name, ())
        for t in T:
            terms = [(model.var("dep", r, t), 1.0) for r in routes]
            terms.append((model.var("post", d.name, t), 1.0))
            terms.append((model.var("post", d.name, t - 1), -1.0))
            terms.append((model.var("cancel_t", d.name, t), 1.0))
            model.add_constraint(f"Departure3[d={d.name},t={t}]", terms, "=", d.volumes[t - 1])
    for d in doc.demands:
        terms = [(model.var("cancel_t", d.name, t), 1.0) for t in T]
        terms.append((model.var("cancel_total", d.name), -1.0))
        model.add_constraint(f"Cancel1[d={d.name}]", terms, "=", 0.0)


def emit_flow_layer(model: TimeExpandedModel) -> None:
    """Per-route flow conservation over the time-expanded graph.

    Only the route's own links and nodes carry its flow (see build_variables).
    Next arcs and node inventories are bounded to zero at both ends of the
    horizon, so every departed volume must reach its destination within the
    horizon.  Flow2 balances each timed node short of the destination:
    departures enter the route's network at its origin, and every later node
    is entered over the route's link before it and left over the link after
    it (a route visits no node twice).  The destination has no row: what
    flows into it arrives.
    """
    T = range(1, model.doc.t_max + 1)

    for r in model.doc.routes:
        for k, n in enumerate(model.nodes_of[r.name][:-1]):
            for t in T:
                terms = [
                    (model.var("ni", n, t - 1, r.name), 1.0),
                    (model.var("ni", n, t, r.name), -1.0),
                ]
                if k == 0:
                    terms.append((model.var("dep", r.name, t), 1.0))
                else:
                    terms.append((model.var("direct", r.links[k - 1], t, r.name), 1.0))
                    terms.append((model.var("next", r.links[k - 1], t - 1, r.name), 1.0))
                terms.append((model.var("direct", r.links[k], t, r.name), -1.0))
                terms.append((model.var("next", r.links[k], t, r.name), -1.0))
                model.add_constraint(f"Flow2[n={n},t={t},r={r.name}]", terms, "=", 0.0)


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
    starts at zero and its bound lag >= 0 keeps the cumulative inflow within
    reach.  At the origin departures are the inflow, so it has no lag and no
    Pace row.  The cumulative duration to a node sums the route's link
    durations up to it.
    """
    doc = model.doc
    T = range(1, doc.t_max + 1)

    for r in doc.routes:
        reach = 0.0
        for link, n in zip(r.links, model.nodes_of[r.name][1:]):
            reach += doc.durations[(link, r.train_type)]
            spread = departure_spread(reach)
            for t in T:
                terms = [(model.var("lag", n, t, r.name), 1.0)]
                if t > 1:
                    terms.append((model.var("lag", n, t - 1, r.name), -1.0))
                for offset, share in spread:
                    if t - offset >= 1:
                        terms.append((model.var("dep", r.name, t - offset), -share))
                terms.append((model.var("direct", link, t, r.name), 1.0))
                terms.append((model.var("next", link, t - 1, r.name), 1.0))
                model.add_constraint(f"Pace[n={n},t={t},r={r.name}]", terms, "=", 0.0)


def build_objective(model: TimeExpandedModel) -> None:
    """Cancellation and postponement penalties plus mean travel time.

    The travel-time term is the arrival periods minus the departure periods,
    weighted by volume and divided by the total demanded volume V; with no
    demanded volume it is dropped.  A route's arrivals in period t are its
    inflow over its last link (the direct arc of period t and the next arc
    from t-1), so both carry the weight t/V, and dep[r,t] carries -t/V.
    """
    doc = model.doc
    config = model.config
    obj: dict[int, float] = {}

    def add(idx: int, coef: float) -> None:
        obj[idx] = obj.get(idx, 0.0) + coef

    for d in doc.demands:
        add(model.var("cancel_total", d.name), config.cost_cancel)
        for t in range(0, doc.t_max + 1):
            add(model.var("post", d.name, t), config.cost_post)

    total_volume = sum(sum(d.volumes) for d in doc.demands)
    if total_volume > 0:
        last_link = {r.name: r.links[-1] for r in doc.routes}
        for d in doc.demands:
            for r in doc.implements.get(d.name, ()):
                last = last_link[r]
                for t in range(1, doc.t_max + 1):
                    add(model.var("direct", last, t, r), t / total_volume)
                    add(model.var("next", last, t - 1, r), t / total_volume)
                    add(model.var("dep", r, t), -t / total_volume)

    model.objective = {idx: coef for idx, coef in obj.items() if coef != 0.0}


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
