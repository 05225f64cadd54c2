"""Transport demands, named routes and the demand-to-route implementation map.

Routes are the commodities of the flow model: each one is an ordered chain of
directed links ridden by a single train type.  A demand can be implemented by
every route that shares its (origin, destination, train type) triple; a demand
with no implementing route can only be cancelled.

Nothing here validates: ``scenario.load_scenario`` checks the routes,
demands and a stated implementation map of a document by name before
``scenario_catalog`` numbers them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .network import Network


@dataclass(frozen=True)
class Demand:
    """A named transport demand with per-period requested volumes (trains)."""

    id: int
    name: str
    origin: int
    destination: int
    train_type: int
    volumes: tuple[int, ...]

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.origin, self.destination, self.train_type)


@dataclass(frozen=True)
class Route:
    """A named route: ordered directed links traversed by one train type."""

    id: int
    name: str
    origin: int
    destination: int
    train_type: int
    links: tuple[int, ...]

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.origin, self.destination, self.train_type)


def route_nodes(route: Route, network: Network) -> tuple[int, ...]:
    """Node ids visited by the route in order: every link tail plus the last head."""
    if not route.links:
        return ()
    ids = [network.link(l).tail for l in route.links]
    ids.append(network.link(route.links[-1]).head)
    return tuple(ids)


@dataclass(frozen=True)
class ServiceCatalog:
    """Demands, routes and the implementation relation, immutable after load.

    implements maps each demand id to the ordered tuple of route ids realizing
    it.  The relation must agree with the property-match definition: a route
    implements a demand exactly when their (origin, destination, train type)
    triples coincide.
    """

    demands: tuple[Demand, ...]
    routes: tuple[Route, ...]
    implements: Mapping[int, tuple[int, ...]]
    _demand_by_name: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _route_by_name: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        self._demand_by_name.update({d.name: d for d in self.demands})
        self._route_by_name.update({r.name: r for r in self.routes})

    def demand(self, demand_id: int) -> Demand:
        if not 1 <= demand_id <= len(self.demands):
            raise KeyError(f"unknown demand id {demand_id}")
        return self.demands[demand_id - 1]

    def route(self, route_id: int) -> Route:
        if not 1 <= route_id <= len(self.routes):
            raise KeyError(f"unknown route id {route_id}")
        return self.routes[route_id - 1]

    def demand_named(self, name: str) -> Demand:
        return self._demand_by_name[name]

    def route_named(self, name: str) -> Route:
        return self._route_by_name[name]


def derive_implements(demands: tuple[Demand, ...], routes: tuple[Route, ...]) -> dict[int, tuple[int, ...]]:
    """Implementation relation from the property-match definition."""
    return {
        d.id: tuple(r.id for r in routes if r.triple == d.triple)
        for d in demands
    }


def demand_total(demand: Demand) -> int:
    """Total requested volume over the whole horizon."""
    return sum(demand.volumes)


def aggregate_durations(route: Route, network: Network) -> dict[int, float]:
    """Cumulative traversal duration reached at each node along the route.

    The value is 0 at the origin and grows by one link duration per hop, in
    fractions of a period; it caps how much volume can possibly have reached
    a node by the end of a period.
    """
    out: dict[int, float] = {}
    total = 0.0
    previous = route.origin
    out[previous] = 0.0
    for link_id in route.links:
        link = network.link(link_id)
        key = (link_id, route.train_type)
        if key not in network.duration:
            label = network.train_type(route.train_type).label
            raise KeyError(f"no duration for link {link.name} and train type {label}")
        total += network.duration[key]
        out[link.head] = total
    return out
