"""Geographical railway network: stations, directed track links, capacities.

The network is immutable after construction.  Links are directed; a single
track line is represented by two opposite links coupled through the ``sigma``
map (an involution), while double track links are coupled with themselves.
Nominal capacities are stored per (link, period) so that temporary capacity
restrictions are plain data edits, and traversal durations are stored as
fractions of one time period.

Nothing here validates: ``scenario.load_scenario`` checks a document by
name, and ``scenario_network`` then numbers its nodes, links and train types
1..n and builds ``sigma`` from its single-track pairs.  ``model.build_model``
still refuses a missing or over-long duration on a route, for networks built
by hand.
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
