"""Shared builders for small scenario documents and bare solver models."""

from __future__ import annotations

from dataclasses import replace
from itertools import groupby

import numpy as np

from railflow.model import KEY_AXES, TimeExpandedModel, build_model
from railflow.scenario import load_scenario


def line_raw(
    minutes=(9, 12),
    volumes=(1, 0, 0),
    t_max=3,
    capacity=5.0,
    node_names=None,
    route_name="A-C-r1",
    demand_name="A-C",
):
    """Document of a chain of stations with one forward link per hop and a
    single type, one route spanning the whole line and one demand for it.

    Links are named after their ends ("A-B"); minutes are the traversal
    durations, in periods of 60 minutes (9 minutes is 0.15 periods).
    """
    nodes = node_names or tuple("ABCDEFG"[: len(minutes) + 1])
    assert len(nodes) == len(minutes) + 1
    links = [f"{a}-{b}" for a, b in zip(nodes, nodes[1:])]
    return {
        "name": "line",
        "period_length_minutes": 60,
        "horizon": t_max,
        "train_types": ["reg"],
        "nodes": list(nodes),
        "links": [{"name": x, "tail": a, "head": b} for x, a, b in zip(links, nodes, nodes[1:])],
        "capacities": {"default": capacity},
        "durations_minutes": {x: {"reg": d} for x, d in zip(links, minutes)},
        "routes": [{"name": route_name, "train_type": "reg", "links": links}],
        "demands": [
            {
                "name": demand_name,
                "origin": nodes[0],
                "destination": nodes[-1],
                "train_type": "reg",
                "volumes": list(volumes),
            }
        ],
    }


def line_doc(**kwargs):
    """line_raw's document, loaded (and so checked) by load_scenario."""
    return load_scenario(line_raw(**kwargs))


def line_model(config=None, **kwargs):
    """Model of line_doc(**kwargs), under config if one is given."""
    doc = line_doc(**kwargs)
    return build_model(doc if config is None else replace(doc, config=config))


def bare_model() -> TimeExpandedModel:
    """Empty shell for synthetic LP/MIP tests that bypass the railway layers."""
    return TimeExpandedModel()


def rebuilt(model, rows=None, variables=None):
    """A new model like model, with rows (LinearConstraint records) or
    variables (ModelVariable records) in place of its own.

    A built model is not edited in place: its rows live in one array store.
    The copy declares each run of variables of one kind and the same bounds
    in one call, by mask over the run's places in a model of a document, and
    appends each row through add_constraint, and keeps model's document,
    route support and objective.
    """
    copy = TimeExpandedModel(model.doc)
    copy.single_track_pairs = model.single_track_pairs
    copy.nodes_of, copy.routes_on_link = model.nodes_of, model.routes_on_link
    runs = groupby(model.variables if variables is None else variables, lambda v: (v.kind, v.lb, v.ub, v.integer))
    for (kind, lb, ub, integer), run in runs:
        keys = [v.key for v in run]
        if model.doc is None:
            copy.add_variables(kind, keys, lb, ub, integer)
        else:
            copy.declare(kind, mask(model, kind, keys), lb, ub, integer)
    for row in model.constraints if rows is None else rows:
        copy.add_constraint(row.name, row.terms, row.relation, row.rhs)
    copy.objective = model.objective
    return copy


def mask(model, kind, keys):
    """The mask of declare that holds the places of keys (kind's key tuples)."""
    axes = [model.positions[axis] for axis in KEY_AXES[kind]]
    out = np.zeros([len(places) for places in axes], dtype=bool)
    for key in keys:
        out[tuple(places[part] for places, part in zip(axes, key))] = True
    return out


def synthetic_model(c, rows, *, integer=(), ub=None):
    """Model with variables x(0)..x(n-1), rows (coeffs, relation, rhs) and costs c."""
    model = bare_model()
    n = len(c)
    for j in range(n):
        bound = np.inf if ub is None else ub[j]
        model.add_variables("x", [(j,)], ub=bound, integer=j in set(integer))
    for k, (coeffs, relation, rhs) in enumerate(rows):
        terms = [(j, float(a)) for j, a in enumerate(coeffs) if a != 0.0]
        model.add_constraint(f"row[{k}]", terms, relation, float(rhs))
    model.objective = np.asarray(c, dtype=float)
    return model


def inflow(model, values, node, t, route):
    """Volume of a named route reaching one of its nodes in period t.

    Departures at the origin; elsewhere the route's link into the node, direct
    within t plus the crossing from t - 1.  An arc the route's pace cannot
    reach yet is not declared and counts 0.
    """
    route = next(r for r in model.doc.routes if r.name == route)
    k = model.nodes_of[route.name].index(node)
    if k == 0:
        return values[model.var("dep", route.name, t)]
    link, r = model.positions["link"][route.links[k - 1]], model.positions["route"][route.name]
    idx = (model.lookup("direct", link, t, r), model.lookup("next", link, t - 1, r))
    return sum(values[i] for i in idx if i >= 0)


def usage(model, values, link, t, routes=None):
    """Capacity charge of one link and period: direct plus half of each crossing.

    routes names the routes to count; None counts every route.  An arc the
    route's pace cannot reach yet, or one out of the last period, is not
    declared and counts 0.
    """
    total = 0.0
    x = model.positions["link"][link]
    for r in model.doc.routes:
        if (routes is not None and r.name not in routes) or link not in r.links:
            continue
        place = model.positions["route"][r.name]
        idx = [model.lookup("direct", x, t, place), *(model.lookup("next", x, s, place) for s in (t - 1, t))]
        total += sum(coef * values[i] for coef, i in zip((1.0, 0.5, 0.5), idx) if i >= 0)
    return total
