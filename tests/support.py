"""Shared builders for hand-made networks and bare solver models."""

from __future__ import annotations

import numpy as np

from railflow.catalog import Demand, Route, ServiceCatalog, derive_implements
from railflow.model import ModelConfig, TimeExpandedModel, build_model
from railflow.network import Horizon, Network, StationNode, TrackLink, TrainType


def line_network(
    durations=(0.15, 0.20),
    t_max=3,
    capacity=5.0,
    node_names=("A", "B", "C"),
):
    """Chain of stations with one forward link per hop and a single type."""
    assert len(node_names) == len(durations) + 1
    types = (TrainType(1, "reg"),)
    nodes = tuple(StationNode(i + 1, n) for i, n in enumerate(node_names))
    links = tuple(
        TrackLink(i + 1, i + 1, i + 2, f"{node_names[i]}-{node_names[i + 1]}")
        for i in range(len(durations))
    )
    horizon = Horizon(t_max)
    return Network(
        train_types=types,
        nodes=nodes,
        links=links,
        sigma={l.id: l.id for l in links},
        capacity={(l.id, t): capacity for l in links for t in horizon.periods},
        duration={(l.id, 1): d for l, d in zip(links, durations)},
        horizon=horizon,
    )


def line_catalog(network, volumes=(1, 0, 0), route_name="A-C-r1", demand_name="A-C"):
    """One route spanning the whole line plus one demand for it."""
    links = tuple(l.id for l in network.links)
    route = Route(1, route_name, network.links[0].tail, network.links[-1].head, 1, links)
    demand = Demand(1, demand_name, route.origin, route.destination, 1, tuple(volumes))
    return ServiceCatalog((demand,), (route,), derive_implements((demand,), (route,)))


def line_model(
    durations=(0.15, 0.20),
    volumes=(1, 0, 0),
    t_max=3,
    capacity=5.0,
    config=None,
    node_names=None,
):
    if node_names is None:
        node_names = tuple("ABCDEFG"[: len(durations) + 1])
    network = line_network(
        durations=durations, t_max=t_max, capacity=capacity, node_names=node_names
    )
    catalog = line_catalog(network, volumes=volumes)
    return build_model(network, catalog, network.horizon, config or ModelConfig())


def bare_model() -> TimeExpandedModel:
    """Empty shell for synthetic LP/MIP tests that bypass the railway layers."""
    return TimeExpandedModel(network=None, catalog=None, horizon=None, config=None)


def synthetic_model(c, rows, *, integer=(), ub=None):
    """Model with variables x0..x{n-1}, rows (coeffs, relation, rhs) and costs c."""
    model = bare_model()
    n = len(c)
    for j in range(n):
        bound = np.inf if ub is None else ub[j]
        model.add_variable("x", (j,), f"x{j}", ub=bound, integer=j in set(integer))
    for k, (coeffs, relation, rhs) in enumerate(rows):
        terms = [(j, float(a)) for j, a in enumerate(coeffs) if a != 0.0]
        model.add_constraint(f"row[{k}]", terms, relation, float(rhs))
    model.objective = {j: float(v) for j, v in enumerate(c) if v != 0.0}
    return model


def inflow(model, values, node_id, t, route):
    """Volume of a route reaching one of its nodes in period t.

    Departures at the origin; elsewhere the route's link into the node, direct
    within t plus the crossing from t - 1.
    """
    if node_id == route.origin:
        return values[model.var("dep", route.id, t)]
    link_id = next(l for l in route.links if model.network.link(l).head == node_id)
    return values[model.var("direct", link_id, t, route.id)] + values[
        model.var("next", link_id, t - 1, route.id)
    ]


def usage(model, values, link_id, t, route_ids=None):
    """Capacity charge of one link and period: direct plus half of each crossing."""
    routes = model.catalog.routes if route_ids is None else [
        model.catalog.route(r) for r in route_ids
    ]
    total = 0.0
    for r in routes:
        if link_id not in r.links:
            continue
        total += values[model.var("direct", link_id, t, r.id)]
        total += 0.5 * values[model.var("next", link_id, t - 1, r.id)]
        total += 0.5 * values[model.var("next", link_id, t, r.id)]
    return total
