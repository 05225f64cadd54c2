"""Geographical railway network: stations, directed track links, capacities.

The network is immutable after construction.  Links are directed; a single
track line is represented by two opposite links coupled through the ``sigma``
map (an involution), while double track links are coupled with themselves.
Nominal capacities are stored per (link, period) so that temporary capacity
restrictions are plain data edits, and traversal durations are stored as
fractions of one time period.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping


@dataclass(frozen=True)
class TrainType:
    """An enumerated train type, e.g. ``reg``, ``ic`` or ``gt``."""

    id: int
    label: str


@dataclass(frozen=True)
class StationNode:
    """An enumerated station node."""

    id: int
    name: str


@dataclass(frozen=True)
class TrackLink:
    """A directed track link from ``tail`` to ``head`` (node ids)."""

    id: int
    tail: int
    head: int
    name: str


@dataclass(frozen=True)
class Horizon:
    """The investigated time periods 1..t_max, plus period 0 for initial values."""

    t_max: int

    def __post_init__(self) -> None:
        if self.t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {self.t_max}")

    @property
    def periods(self) -> range:
        return range(1, self.t_max + 1)

    @property
    def extended_periods(self) -> range:
        """Periods including the initial period 0."""
        return range(0, self.t_max + 1)


@dataclass(frozen=True)
class Violation:
    code: str
    subject: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> list[str]:
        return [v.code for v in self.violations]

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(f"[{v.code}] {v.subject}: {v.detail}" for v in self.violations)


@dataclass(frozen=True)
class Network:
    """Immutable railway network with capacities and traversal durations.

    capacity maps (link id, period) to the nominal number of trains of the
    typical type that the link can carry in that period.  duration maps
    (link id, train type id) to the traversal time as a fraction of one
    period.  Safe for concurrent reads.
    """

    train_types: tuple[TrainType, ...]
    nodes: tuple[StationNode, ...]
    links: tuple[TrackLink, ...]
    sigma: Mapping[int, int]
    capacity: Mapping[tuple[int, int], float]
    duration: Mapping[tuple[int, int], float]
    horizon: Horizon
    _node_by_name: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _link_by_name: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        self._node_by_name.update({n.name: n for n in self.nodes})
        self._link_by_name.update({l.name: l for l in self.links})

    def node(self, node_id: int) -> StationNode:
        if not 1 <= node_id <= len(self.nodes):
            raise KeyError(f"unknown node id {node_id}")
        return self.nodes[node_id - 1]

    def link(self, link_id: int) -> TrackLink:
        if not 1 <= link_id <= len(self.links):
            raise KeyError(f"unknown link id {link_id}")
        return self.links[link_id - 1]

    def train_type(self, type_id: int) -> TrainType:
        if not 1 <= type_id <= len(self.train_types):
            raise KeyError(f"unknown train type id {type_id}")
        return self.train_types[type_id - 1]

    def node_named(self, name: str) -> StationNode:
        return self._node_by_name[name]

    def link_named(self, name: str) -> TrackLink:
        return self._link_by_name[name]


def is_single_track(network: Network, link_id: int) -> bool:
    """True iff the link shares its physical track with its reverse link."""
    network.link(link_id)
    return network.sigma[link_id] != link_id


def _check_enumeration(kind: str, ids: list[int], out: list[Violation]) -> None:
    if not ids:
        return
    if sorted(ids) != list(range(1, len(ids) + 1)):
        out.append(
            Violation(
                "enumeration-density",
                kind,
                f"ids must be exactly 1..{len(ids)}, got {sorted(ids)}",
            )
        )


def validate_network(network: Network) -> ValidationReport:
    """Collect every invariant violation; an empty report means well formed.

    Deterministic and order independent: findings are sorted by (code, subject).
    """
    out: list[Violation] = []

    _check_enumeration("train_types", [h.id for h in network.train_types], out)
    _check_enumeration("nodes", [n.id for n in network.nodes], out)
    _check_enumeration("links", [l.id for l in network.links], out)

    for seq, kind in (
        ([h.label for h in network.train_types], "train type label"),
        ([n.name for n in network.nodes], "node name"),
        ([l.name for l in network.links], "link name"),
    ):
        seen: set[str] = set()
        for name in seq:
            if name in seen:
                out.append(Violation("duplicate-name", name, f"{kind} used more than once"))
            seen.add(name)

    node_ids = {n.id for n in network.nodes}
    seen_pairs: set[tuple[int, int]] = set()
    for l in network.links:
        if l.tail == l.head:
            out.append(Violation("self-loop", l.name, f"link tail equals head ({l.tail})"))
        for endpoint in (l.tail, l.head):
            if endpoint not in node_ids:
                out.append(Violation("unknown-node", l.name, f"endpoint {endpoint} is not a node"))
        if (l.tail, l.head) in seen_pairs:
            out.append(
                Violation("duplicate-link-pair", l.name, f"second link for node pair {(l.tail, l.head)}")
            )
        seen_pairs.add((l.tail, l.head))

    link_ids = {l.id for l in network.links}
    for l in network.links:
        image = network.sigma.get(l.id)
        if image is None or image not in link_ids:
            out.append(Violation("sigma-total", l.name, f"sigma({l.id}) missing or unknown"))
            continue
        if network.sigma.get(image) != l.id:
            out.append(Violation("sigma-involution", l.name, f"sigma(sigma({l.id})) != {l.id}"))
        if image != l.id:
            other = network.link(image)
            if (other.tail, other.head) != (l.head, l.tail):
                out.append(
                    Violation(
                        "sigma-endpoints",
                        l.name,
                        f"coupled link {other.name} does not reverse {l.name}",
                    )
                )

    for l in network.links:
        for t in network.horizon.periods:
            value = network.capacity.get((l.id, t))
            if value is None:
                out.append(Violation("capacity-missing", l.name, f"no nominal capacity for period {t}"))
            elif value < 0:
                out.append(Violation("negative-capacity", l.name, f"capacity {value} in period {t}"))

    for (link_id, type_id), value in network.duration.items():
        if link_id not in link_ids:
            out.append(Violation("unknown-link", str(link_id), "duration entry for unknown link"))
            continue
        name = network.link(link_id).name
        if value < 0:
            out.append(Violation("negative-duration", name, f"duration {value} for type {type_id}"))
        elif value > 1.0 + 1e-12:
            out.append(
                Violation(
                    "duration-exceeds-period",
                    name,
                    f"duration {value} periods for type {type_id}; traversal must fit in one period",
                )
            )

    out.sort(key=lambda v: (v.code, v.subject, v.detail))
    return ValidationReport(tuple(out))
