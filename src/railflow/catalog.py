"""Transport demands, named routes and the demand-to-route implementation map.

Routes are the commodities of the flow model: each one is an ordered chain of
directed links ridden by a single train type.  A demand can be implemented by
every route that shares its (origin, destination, train type) triple; a demand
with no implementing route can only be cancelled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .network import Network, ValidationReport, Violation


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


def validate_route(route: Route, network: Network) -> ValidationReport:
    """Report contiguity breaks, cycles, endpoint mismatches and slow links."""
    out: list[Violation] = []
    link_count = len(network.links)

    unknown = [l for l in route.links if not 1 <= l <= link_count]
    for l in unknown:
        out.append(Violation("unknown-link", route.name, f"route references unknown link id {l}"))
    if unknown:
        return ValidationReport(tuple(out))

    if not route.links:
        out.append(Violation("empty-route", route.name, "route has no links"))
        return ValidationReport(tuple(out))

    if not 1 <= route.train_type <= len(network.train_types):
        out.append(Violation("unknown-train-type", route.name, f"type id {route.train_type}"))
        return ValidationReport(tuple(out))

    seen_links: set[int] = set()
    for l in route.links:
        if l in seen_links:
            out.append(Violation("cycle", route.name, f"link {network.link(l).name} used twice"))
        seen_links.add(l)

    for first, second in zip(route.links, route.links[1:]):
        if network.link(first).head != network.link(second).tail:
            out.append(
                Violation(
                    "not-contiguous",
                    route.name,
                    f"link {network.link(first).name} does not join {network.link(second).name}",
                )
            )

    nodes = route_nodes(route, network)
    seen_nodes: set[int] = set()
    for n in nodes:
        if n in seen_nodes:
            out.append(Violation("cycle", route.name, f"node {network.node(n).name} visited twice"))
        seen_nodes.add(n)

    if network.link(route.links[0]).tail != route.origin:
        out.append(Violation("endpoint-mismatch", route.name, "first link tail is not the route origin"))
    if network.link(route.links[-1]).head != route.destination:
        out.append(Violation("endpoint-mismatch", route.name, "last link head is not the route destination"))

    for l in route.links:
        value = network.duration.get((l, route.train_type))
        if value is None:
            out.append(
                Violation("duration-missing", route.name, f"no duration for link {network.link(l).name}")
            )
        elif value > 1.0 + 1e-12:
            out.append(
                Violation(
                    "duration-exceeds-period",
                    route.name,
                    f"link {network.link(l).name} takes {value} periods",
                )
            )

    out.sort(key=lambda v: (v.code, v.subject, v.detail))
    return ValidationReport(tuple(out))


def validate_catalog(catalog: ServiceCatalog, network: Network) -> ValidationReport:
    """Catalog-wide checks: routes, demand properties and the implements map."""
    out: list[Violation] = []
    for route in catalog.routes:
        out.extend(validate_route(route, network).violations)

    node_count = len(network.nodes)
    seen_triples: dict[tuple[int, int, int], str] = {}
    for d in catalog.demands:
        if d.origin == d.destination:
            out.append(Violation("self-loop", d.name, "demand origin equals destination"))
        for endpoint in (d.origin, d.destination):
            if not 1 <= endpoint <= node_count:
                out.append(Violation("unknown-node", d.name, f"endpoint {endpoint} is not a node"))
        if not 1 <= d.train_type <= len(network.train_types):
            out.append(Violation("unknown-train-type", d.name, f"type id {d.train_type}"))
        if len(d.volumes) != network.horizon.t_max:
            out.append(
                Violation(
                    "volumes-length",
                    d.name,
                    f"expected {network.horizon.t_max} per-period volumes, got {len(d.volumes)}",
                )
            )
        if any(v < 0 for v in d.volumes):
            out.append(Violation("negative-volume", d.name, f"volumes {d.volumes}"))
        if d.triple in seen_triples:
            out.append(
                Violation(
                    "duplicate-demand-triple",
                    d.name,
                    f"same origin/destination/type as demand {seen_triples[d.triple]};"
                    " they would share every implementing route",
                )
            )
        seen_triples.setdefault(d.triple, d.name)

    derived = derive_implements(catalog.demands, catalog.routes)
    for d in catalog.demands:
        stated = tuple(catalog.implements.get(d.id, ()))
        if tuple(sorted(stated)) != tuple(sorted(derived[d.id])):
            out.append(
                Violation(
                    "implements-mismatch",
                    d.name,
                    f"stated routes {sorted(stated)} disagree with property match {sorted(derived[d.id])}",
                )
            )

    out.sort(key=lambda v: (v.code, v.subject, v.detail))
    return ValidationReport(tuple(out))
