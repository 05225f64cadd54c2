"""Scenario documents: load, apply capacity restrictions, run, report.

A scenario is a single JSON document naming the network, capacities,
traversal durations, routes, demands, solver configuration and optional
temporary capacity restrictions (TCRs).  Durations may be given in minutes
(converted with the period length) or directly as period fractions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .bnb import SolveResult, refine_to_earliest_pace, solve_mip
from .catalog import (
    Demand,
    Route,
    ServiceCatalog,
    derive_implements,
    demand_total,
    validate_catalog,
)
from .model import CAPACITY_MODES, ModelConfig, TimeExpandedModel, build_model
from .network import (
    Horizon,
    Network,
    StationNode,
    TrackLink,
    TrainType,
    validate_network,
)
from .simplex import OPTIMAL, Tolerances


class ScenarioError(ValueError):
    """Input document rejected; .errors lists every finding with its position."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class LinkSpec:
    name: str
    tail: str
    head: str


@dataclass(frozen=True)
class RouteSpec:
    name: str
    train_type: str
    links: tuple[str, ...]


@dataclass(frozen=True)
class DemandSpec:
    name: str
    origin: str
    destination: str
    train_type: str
    volumes: tuple[int, ...]


@dataclass(frozen=True)
class TcrOverride:
    """Replace (or scale) the nominal capacity of one link.

    period None applies the override to every period.  Exactly one of
    capacity (absolute) and scale (multiplicative) must be given.
    """

    link: str
    period: Optional[int] = None
    capacity: Optional[float] = None
    scale: Optional[float] = None


@dataclass(frozen=True)
class ScenarioDocument:
    name: str
    period_length_minutes: int
    t_max: int
    train_types: tuple[str, ...]
    nodes: tuple[str, ...]
    links: tuple[LinkSpec, ...]
    single_track_pairs: tuple[tuple[str, str], ...]
    capacity: Mapping[tuple[str, int], float]
    durations: Mapping[tuple[str, str], float]
    routes: tuple[RouteSpec, ...]
    demands: tuple[DemandSpec, ...]
    implements: Mapping[str, tuple[str, ...]]
    config: ModelConfig
    pace_refinement: bool = True
    tcr_overrides: tuple[TcrOverride, ...] = ()
    notes: str = ""


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def _number(value, position: str, errors: list[str], default: float = 0.0) -> float:
    """value as a finite float; otherwise record the finding and return default."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        errors.append(f"{position}: expected a number, got {value!r}")
        return default
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        errors.append(f"{position}: expected a finite number, got {value!r}")
        return default
    return number


def _object(value, position: str, errors: list[str]) -> dict:
    """value if it is a JSON object; otherwise record the finding and return {}."""
    if isinstance(value, dict):
        return value
    errors.append(f"{position}: expected an object, got {value!r}")
    return {}


def _array(value, position: str, errors: list[str]) -> Sequence:
    """value if it is a JSON array; otherwise record the finding and return ()."""
    if isinstance(value, (list, tuple)):
        return value
    errors.append(f"{position}: expected an array, got {value!r}")
    return ()


def _flag(raw: dict, key: str, default: bool, errors: list[str]) -> bool:
    """raw[key] as a JSON boolean; a string such as "false" is an error, not True."""
    value = raw.get(key, default)
    if isinstance(value, bool):
        return value
    errors.append(f"config.{key}: expected true or false, got {value!r}")
    return default


def _parse_config(raw: dict, routes: Sequence[RouteSpec], errors: list[str]) -> tuple[ModelConfig, bool]:
    pace = _flag(raw, "pace_refinement", True, errors)
    mode = raw.get("capacity_mode", "basic")
    if mode not in CAPACITY_MODES:
        errors.append(f"config: unknown capacity_mode {mode!r}")
        mode = "basic"
    slack_raw = raw.get("arrival_slack", 0.0)
    slack_overrides: dict[int, float] | None = None
    if isinstance(slack_raw, dict):
        slack_default = _number(slack_raw.get("default", 0.0), "config.arrival_slack.default", errors)
        per_route = _object(slack_raw.get("routes", {}), "config.arrival_slack.routes", errors)
        route_ids = {spec.name: i + 1 for i, spec in enumerate(routes)}
        overrides = {}
        for name, value in per_route.items():
            if name not in route_ids:
                errors.append(f"config.arrival_slack: unknown route {name!r}")
                continue
            overrides[route_ids[name]] = _number(value, f"config.arrival_slack.routes[{name!r}]", errors)
        slack_overrides = overrides or None
    else:
        slack_default = _number(slack_raw, "config.arrival_slack", errors)

    def number(key: str, default: float) -> float:
        return _number(raw.get(key, default), f"config.{key}", errors, default)

    try:
        config = ModelConfig(
            capacity_mode=mode,
            k_het=number("k_het", 0.25),
            k_setup=number("k_setup", 1.0),
            big_m=(number("big_m", 0.0) if raw.get("big_m") is not None else None),
            arrival_slack=slack_default,
            arrival_slack_overrides=slack_overrides,
            cost_cancel=number("cost_cancel", 1000.0),
            cost_post=number("cost_post", 20.0),
            relax_integrality=_flag(raw, "relax_integrality", False, errors),
            include_arrival_accounting=_flag(raw, "include_arrival_accounting", False, errors),
        )
    except ValueError as exc:
        errors.append(f"config: {exc}")
        config = ModelConfig()
    return config, pace


def _parse_tcr(raw, position: str, t_max: int, link_names: set[str], errors: list[str]) -> Optional[TcrOverride]:
    if not isinstance(raw, dict):
        errors.append(f"{position}: expected an object")
        return None
    link = raw.get("link")
    if link not in link_names:
        errors.append(f"{position}: unknown link {link!r}")
        return None
    period = raw.get("period")
    if period is not None:
        if not isinstance(period, int) or isinstance(period, bool):
            errors.append(f"{position}: period must be an integer or null")
            return None
        if not 1 <= period <= t_max:
            errors.append(f"{position}: period {period} outside horizon 1..{t_max}")
            return None
    capacity = raw.get("capacity")
    scale = raw.get("scale")
    if (capacity is None) == (scale is None):
        errors.append(f"{position}: give exactly one of capacity or scale")
        return None
    key, value = ("capacity", capacity) if capacity is not None else ("scale", scale)
    value = _number(value, f"{position}.{key}", errors)
    if value < 0:
        errors.append(f"{position}: {key} must be >= 0")
        return None
    return TcrOverride(link=link, period=period, **{key: value})


def load_scenario(source: bytes | str | Path | dict) -> ScenarioDocument:
    """Parse and fully validate a scenario document.

    A Path is read from disk; str and bytes are JSON text; a dict is the
    parsed document itself.  Raises ScenarioError listing every problem
    found, each tagged with the position in the document.
    """
    if isinstance(source, Path):
        raw = json.loads(source.read_text())
    elif isinstance(source, (bytes, bytearray)):
        raw = json.loads(source.decode("utf-8"))
    elif isinstance(source, str):
        raw = json.loads(source)
    else:
        raw = source
    if not isinstance(raw, dict):
        raise ScenarioError(["document: top level must be an object"])

    errors: list[str] = []

    def need(key: str, kind, default=None):
        value = raw.get(key, default)
        if value is None:
            errors.append(f"{key}: required field missing")
            return default
        if kind is int and (not isinstance(value, int) or isinstance(value, bool)):
            errors.append(f"{key}: expected an integer")
            return default
        return value

    name = str(raw.get("name", "scenario"))
    notes = str(raw.get("notes", ""))
    period_length = need("period_length_minutes", int, 0) or 0
    if period_length <= 0:
        errors.append("period_length_minutes: must be a positive integer")
        period_length = 60
    t_max = need("horizon", int, 0) or 0
    if t_max < 1:
        errors.append("horizon: must be >= 1")
        t_max = 1

    type_labels = tuple(str(x) for x in _array(raw.get("train_types", ()), "train_types", errors))
    if not type_labels:
        errors.append("train_types: at least one train type is required")
    node_names = tuple(str(x) for x in _array(raw.get("nodes", ()), "nodes", errors))
    node_set = set(node_names)

    links: list[LinkSpec] = []
    link_names: set[str] = set()
    for i, item in enumerate(_array(raw.get("links", ()), "links", errors)):
        position = f"links[{i}]"
        if not isinstance(item, dict):
            errors.append(f"{position}: expected an object")
            continue
        tail, head = item.get("tail"), item.get("head")
        lname = str(item.get("name") or f"{tail}-{head}")
        if tail not in node_set:
            errors.append(f"{position}: tail {tail!r} is not a node")
            continue
        if head not in node_set:
            errors.append(f"{position}: head {head!r} is not a node")
            continue
        if lname in link_names:
            errors.append(f"{position}: duplicate link name {lname!r}")
            continue
        link_names.add(lname)
        links.append(LinkSpec(lname, str(tail), str(head)))

    pairs: list[tuple[str, str]] = []
    for i, item in enumerate(_array(raw.get("single_track_pairs", ()), "single_track_pairs", errors)):
        position = f"single_track_pairs[{i}]"
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            errors.append(f"{position}: expected a pair of link names")
            continue
        a, b = str(item[0]), str(item[1])
        if a not in link_names or b not in link_names:
            errors.append(f"{position}: unknown link in pair {item}")
            continue
        if a == b:
            errors.append(f"{position}: a link cannot pair with itself")
            continue
        pairs.append((a, b))

    caps_raw = _object(raw.get("capacities", {}), "capacities", errors)
    default_cap = caps_raw.get("default")
    if default_cap is not None:
        default_cap = _number(default_cap, "capacities.default", errors)
    per_link = {
        lname: _number(value, f"capacities.links[{lname!r}]", errors)
        for lname, value in _object(caps_raw.get("links", {}), "capacities.links", errors).items()
    }
    capacity: dict[tuple[str, int], float] = {}
    for lname in (l.name for l in links):
        base = per_link.get(lname, default_cap)
        if base is None:
            continue  # cells may still cover this link completely
        for t in range(1, t_max + 1):
            capacity[(lname, t)] = base
    for i, cell in enumerate(_array(caps_raw.get("cells", ()), "capacities.cells", errors)):
        position = f"capacities.cells[{i}]"
        if not isinstance(cell, dict):
            errors.append(f"{position}: expected an object")
            continue
        lname = cell.get("link")
        t = cell.get("period")
        if lname not in link_names:
            errors.append(f"{position}: unknown link {lname!r}")
            continue
        if not isinstance(t, int) or isinstance(t, bool) or not 1 <= t <= t_max:
            errors.append(f"{position}: period {t!r} outside horizon 1..{t_max}")
            continue
        capacity[(lname, t)] = _number(cell.get("value", 0.0), f"{position}.value", errors)
    for link in links:
        missing = [t for t in range(1, t_max + 1) if (link.name, t) not in capacity]
        if missing:
            errors.append(f"capacities: no value for link {link.name!r} in periods {missing}")

    durations: dict[tuple[str, str], float] = {}
    in_minutes = "durations_minutes" in raw
    if in_minutes and "durations" in raw:
        errors.append("durations: give either durations or durations_minutes, not both")
    table = raw.get("durations_minutes", raw.get("durations", {}))
    if not isinstance(table, dict):
        errors.append("durations: expected an object keyed by link name")
        table = {}
    for lname, per_type in table.items():
        if lname not in link_names:
            errors.append(f"durations[{lname!r}]: unknown link")
            continue
        if not isinstance(per_type, dict):
            errors.append(f"durations[{lname!r}]: expected an object keyed by train type")
            continue
        for label, value in per_type.items():
            if label not in type_labels:
                errors.append(f"durations[{lname!r}][{label!r}]: unknown train type")
                continue
            value = _number(value, f"durations[{lname!r}][{label!r}]", errors)
            durations[(lname, str(label))] = value / period_length if in_minutes else value

    routes: list[RouteSpec] = []
    route_names: set[str] = set()
    for i, item in enumerate(_array(raw.get("routes", ()), "routes", errors)):
        position = f"routes[{i}]"
        if not isinstance(item, dict):
            errors.append(f"{position}: expected an object")
            continue
        rname = str(item.get("name", f"route-{i}"))
        label = item.get("train_type")
        if label not in type_labels:
            errors.append(f"{position}: unknown train type {label!r}")
            continue
        if rname in route_names:
            errors.append(f"{position}: duplicate route name {rname!r}")
            continue
        used = tuple(str(x) for x in _array(item.get("links", ()), f"{position}.links", errors))
        missing = [x for x in used if x not in link_names]
        if missing:
            errors.append(f"{position}: route {rname} references unknown links {missing}")
            continue
        if not used:
            errors.append(f"{position}: route {rname} has no links")
            continue
        route_names.add(rname)
        routes.append(RouteSpec(rname, str(label), used))

    demands: list[DemandSpec] = []
    demand_names: set[str] = set()
    for i, item in enumerate(_array(raw.get("demands", ()), "demands", errors)):
        position = f"demands[{i}]"
        if not isinstance(item, dict):
            errors.append(f"{position}: expected an object")
            continue
        dname = str(item.get("name", f"demand-{i}"))
        origin, destination = item.get("origin"), item.get("destination")
        label = item.get("train_type")
        volumes = _array(item.get("volumes", ()), f"{position}.volumes", errors)
        if dname in demand_names:
            errors.append(f"{position}: duplicate demand name {dname!r}")
            continue
        if origin not in node_set:
            errors.append(f"{position}: unknown origin {origin!r}")
            continue
        if destination not in node_set:
            errors.append(f"{position}: unknown destination {destination!r}")
            continue
        if label not in type_labels:
            errors.append(f"{position}: unknown train type {label!r}")
            continue
        if len(volumes) != t_max:
            errors.append(f"{position}: expected {t_max} per-period volumes, got {len(volumes)}")
            continue
        if any((not isinstance(v, int)) or isinstance(v, bool) or v < 0 for v in volumes):
            errors.append(f"{position}: volumes must be nonnegative integers")
            continue
        demand_names.add(dname)
        demands.append(DemandSpec(dname, str(origin), str(destination), str(label), tuple(volumes)))

    implements_raw = raw.get("implements")
    implements: dict[str, tuple[str, ...]] = {}
    if implements_raw is not None:
        if not isinstance(implements_raw, dict):
            errors.append("implements: expected an object keyed by demand name")
        else:
            for dname, rnames in implements_raw.items():
                if dname not in demand_names:
                    errors.append(f"implements[{dname!r}]: unknown demand")
                    continue
                rnames = _array(rnames, f"implements[{dname!r}]", errors)
                bad = [x for x in rnames if x not in route_names]
                if bad:
                    errors.append(f"implements[{dname!r}]: unknown routes {bad}")
                    continue
                implements[dname] = tuple(str(x) for x in rnames)

    config_raw = raw.get("config")
    config_raw = {} if config_raw is None else _object(config_raw, "config", errors)
    config, pace = _parse_config(config_raw, routes, errors)

    tcrs: list[TcrOverride] = []
    for i, item in enumerate(_array(raw.get("tcr_overrides", ()), "tcr_overrides", errors)):
        parsed = _parse_tcr(item, f"tcr_overrides[{i}]", t_max, link_names, errors)
        if parsed is not None:
            tcrs.append(parsed)

    if errors:
        raise ScenarioError(errors)

    doc = ScenarioDocument(
        name=name,
        period_length_minutes=period_length,
        t_max=t_max,
        train_types=type_labels,
        nodes=node_names,
        links=tuple(links),
        single_track_pairs=tuple(pairs),
        capacity=capacity,
        durations=durations,
        routes=tuple(routes),
        demands=tuple(demands),
        implements=implements,
        config=config,
        pace_refinement=pace,
        tcr_overrides=tuple(tcrs),
        notes=notes,
    )

    network = scenario_network(doc)
    catalog = scenario_catalog(doc, network)
    report = validate_network(network)
    errors.extend(f"network: [{v.code}] {v.subject}: {v.detail}" for v in report.violations)
    report = validate_catalog(catalog, network)
    errors.extend(f"catalog: [{v.code}] {v.subject}: {v.detail}" for v in report.violations)
    if errors:
        raise ScenarioError(errors)

    if not implements:
        derived = derive_implements(catalog.demands, catalog.routes)
        named = {
            catalog.demand(d).name: tuple(catalog.route(r).name for r in rids)
            for d, rids in derived.items()
        }
        doc = replace(doc, implements=named)
    return doc


def serialize_scenario(doc: ScenarioDocument) -> bytes:
    """Canonical JSON for the document; load(serialize(doc)) == doc."""
    config = doc.config
    slack: object = config.arrival_slack
    if config.arrival_slack_overrides:
        slack = {
            "default": config.arrival_slack,
            "routes": {
                doc.routes[rid - 1].name: value
                for rid, value in sorted(config.arrival_slack_overrides.items())
            },
        }
    payload = {
        "name": doc.name,
        "notes": doc.notes,
        "period_length_minutes": doc.period_length_minutes,
        "horizon": doc.t_max,
        "train_types": list(doc.train_types),
        "nodes": list(doc.nodes),
        "links": [{"name": l.name, "tail": l.tail, "head": l.head} for l in doc.links],
        "single_track_pairs": [list(p) for p in doc.single_track_pairs],
        "capacities": {
            "cells": [
                {"link": l.name, "period": t, "value": doc.capacity[(l.name, t)]}
                for l in doc.links
                for t in range(1, doc.t_max + 1)
            ]
        },
        "durations": _duration_tree(doc),
        "routes": [
            {"name": r.name, "train_type": r.train_type, "links": list(r.links)}
            for r in doc.routes
        ],
        "demands": [
            {
                "name": d.name,
                "origin": d.origin,
                "destination": d.destination,
                "train_type": d.train_type,
                "volumes": list(d.volumes),
            }
            for d in doc.demands
        ],
        "implements": {d: list(rs) for d, rs in doc.implements.items()},
        "config": {
            "capacity_mode": config.capacity_mode,
            "k_het": config.k_het,
            "k_setup": config.k_setup,
            "big_m": config.big_m,
            "arrival_slack": slack,
            "cost_cancel": config.cost_cancel,
            "cost_post": config.cost_post,
            "relax_integrality": config.relax_integrality,
            "include_arrival_accounting": config.include_arrival_accounting,
            "pace_refinement": doc.pace_refinement,
        },
        "tcr_overrides": [
            {
                "link": o.link,
                "period": o.period,
                **({"capacity": o.capacity} if o.capacity is not None else {"scale": o.scale}),
            }
            for o in doc.tcr_overrides
        ],
    }
    return json.dumps(payload, indent=2).encode("utf-8") + b"\n"


def _duration_tree(doc: ScenarioDocument) -> dict:
    tree: dict[str, dict[str, float]] = {}
    for (lname, label), value in doc.durations.items():
        tree.setdefault(lname, {})[label] = value
    return {lname: dict(sorted(per.items())) for lname, per in sorted(tree.items())}


def apply_tcr(doc: ScenarioDocument, overrides: Sequence[TcrOverride]) -> ScenarioDocument:
    """New document with the nominal capacity replaced at the listed cells.

    The returned document has its inline override list cleared (the edits are
    now part of the capacity table); everything else is untouched.
    """
    link_names = {l.name for l in doc.links}
    capacity = dict(doc.capacity)
    for i, o in enumerate(overrides):
        if o.link not in link_names:
            raise ScenarioError([f"tcr_overrides[{i}]: unknown link {o.link!r}"])
        if o.period is not None and not 1 <= o.period <= doc.t_max:
            raise ScenarioError(
                [f"tcr_overrides[{i}]: period {o.period} outside horizon 1..{doc.t_max}"]
            )
        if (o.capacity is None) == (o.scale is None):
            raise ScenarioError([f"tcr_overrides[{i}]: give exactly one of capacity or scale"])
        key = "capacity" if o.capacity is not None else "scale"
        errors: list[str] = []
        value = _number(getattr(o, key), f"tcr_overrides[{i}].{key}", errors)
        if errors:
            raise ScenarioError(errors)
        periods = (o.period,) if o.period is not None else tuple(range(1, doc.t_max + 1))
        for t in periods:
            if key == "capacity":
                capacity[(o.link, t)] = value
            else:
                capacity[(o.link, t)] = capacity[(o.link, t)] * value
    return replace(doc, capacity=capacity, tcr_overrides=())


# ---------------------------------------------------------------------------
# building model inputs
# ---------------------------------------------------------------------------


def scenario_network(doc: ScenarioDocument) -> Network:
    types = tuple(TrainType(i + 1, label) for i, label in enumerate(doc.train_types))
    nodes = tuple(StationNode(i + 1, n) for i, n in enumerate(doc.nodes))
    node_id = {n.name: n.id for n in nodes}
    links = tuple(
        TrackLink(i + 1, node_id[l.tail], node_id[l.head], l.name)
        for i, l in enumerate(doc.links)
    )
    link_id = {l.name: l.id for l in links}
    sigma = {l.id: l.id for l in links}
    for a, b in doc.single_track_pairs:
        sigma[link_id[a]] = link_id[b]
        sigma[link_id[b]] = link_id[a]
    type_id = {t.label: t.id for t in types}
    capacity = {
        (link_id[lname], t): value for (lname, t), value in doc.capacity.items()
    }
    duration = {
        (link_id[lname], type_id[label]): value
        for (lname, label), value in doc.durations.items()
    }
    return Network(
        train_types=types,
        nodes=nodes,
        links=links,
        sigma=sigma,
        capacity=capacity,
        duration=duration,
        horizon=Horizon(doc.t_max),
    )


def scenario_catalog(doc: ScenarioDocument, network: Network) -> ServiceCatalog:
    node_id = {n.name: n.id for n in network.nodes}
    link_id = {l.name: l.id for l in network.links}
    type_id = {t.label: t.id for t in network.train_types}
    routes = []
    for i, spec in enumerate(doc.routes):
        ids = tuple(link_id[x] for x in spec.links)
        origin = network.link(ids[0]).tail
        destination = network.link(ids[-1]).head
        routes.append(Route(i + 1, spec.name, origin, destination, type_id[spec.train_type], ids))
    demands = tuple(
        Demand(
            i + 1,
            spec.name,
            node_id[spec.origin],
            node_id[spec.destination],
            type_id[spec.train_type],
            spec.volumes,
        )
        for i, spec in enumerate(doc.demands)
    )
    routes = tuple(routes)
    if doc.implements:
        route_id = {r.name: r.id for r in routes}
        demand_id = {d.name: d.id for d in demands}
        implements = {
            demand_id[dname]: tuple(route_id[r] for r in rnames)
            for dname, rnames in doc.implements.items()
        }
        for d in demands:
            implements.setdefault(d.id, ())
    else:
        implements = derive_implements(demands, routes)
    return ServiceCatalog(demands=demands, routes=routes, implements=implements)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CapacityUsageReport:
    """Per (link, period) capacity usage, with per-type breakdown and setup rows.

    Usage counts each route's direct flow plus half of each adjacent
    crossing flow; setup rows (single_track_alt2 only) show the capacity
    consumed by direction changes on each coupled pair.
    """

    link_names: tuple[str, ...]
    t_max: int
    total: Mapping[tuple[str, int], float]
    by_type: Mapping[tuple[str, int, str], float]
    nominal: Mapping[tuple[str, int], float]
    setup: Mapping[tuple[str, int], float]
    setup_pairs: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class DemandOutcomeReport:
    """Per-demand departures by route and period, postponements, cancellations."""

    demand_names: tuple[str, ...]
    t_max: int
    routes_of: Mapping[str, tuple[str, ...]]
    departures: Mapping[tuple[str, str, int], float]
    postponed: Mapping[tuple[str, int], float]
    cancelled: Mapping[tuple[str, int], float]
    cancel_total: Mapping[str, float]
    requested: Mapping[str, int]


def build_capacity_report(model: TimeExpandedModel, values: np.ndarray) -> CapacityUsageReport:
    network = model.network
    total: dict[tuple[str, int], float] = {}
    by_type: dict[tuple[str, int, str], float] = {}
    nominal: dict[tuple[str, int], float] = {}
    for link in network.links:
        for t in network.horizon.periods:
            nominal[(link.name, t)] = network.capacity[(link.id, t)]
            for h in network.train_types:
                usage = 0.0
                for r in model.routes_on_link[link.id]:
                    if r.train_type != h.id:
                        continue
                    usage += values[model.var("direct", link.id, t, r.id)]
                    usage += 0.5 * values[model.var("next", link.id, t - 1, r.id)]
                    usage += 0.5 * values[model.var("next", link.id, t, r.id)]
                by_type[(link.name, t, h.label)] = usage
            total[(link.name, t)] = sum(
                by_type[(link.name, t, h.label)] for h in network.train_types
            )
    setup: dict[tuple[str, int], float] = {}
    setup_pairs: list[tuple[str, str]] = []
    if model.config.capacity_mode == "single_track_alt2":
        for rep, other in model.single_track_pairs:
            rep_name = network.link(rep).name
            setup_pairs.append((rep_name, network.link(other).name))
            for t in network.horizon.periods:
                setup[(rep_name, t)] = values[model.var("setup_w", rep, t)]
    return CapacityUsageReport(
        link_names=tuple(l.name for l in network.links),
        t_max=network.horizon.t_max,
        total=total,
        by_type=by_type,
        nominal=nominal,
        setup=setup,
        setup_pairs=tuple(setup_pairs),
    )


def build_demand_report(model: TimeExpandedModel, values: np.ndarray) -> DemandOutcomeReport:
    catalog = model.catalog
    t_max = model.horizon.t_max
    routes_of: dict[str, tuple[str, ...]] = {}
    departures: dict[tuple[str, str, int], float] = {}
    postponed: dict[tuple[str, int], float] = {}
    cancelled: dict[tuple[str, int], float] = {}
    cancel_total: dict[str, float] = {}
    requested: dict[str, int] = {}
    for d in catalog.demands:
        rids = catalog.implements.get(d.id, ())
        routes_of[d.name] = tuple(catalog.route(r).name for r in rids)
        for rid in rids:
            rname = catalog.route(rid).name
            for t in range(1, t_max + 1):
                departures[(d.name, rname, t)] = values[model.var("dep", rid, t)]
        for t in range(0, t_max + 1):
            postponed[(d.name, t)] = values[model.var("post", d.id, t)]
        for t in range(1, t_max + 1):
            cancelled[(d.name, t)] = values[model.var("cancel_t", d.id, t)]
        cancel_total[d.name] = values[model.var("cancel_total", d.id)]
        requested[d.name] = demand_total(d)
    return DemandOutcomeReport(
        demand_names=tuple(d.name for d in catalog.demands),
        t_max=t_max,
        routes_of=routes_of,
        departures=departures,
        postponed=postponed,
        cancelled=cancelled,
        cancel_total=cancel_total,
        requested=requested,
    )


def _cell(value: float) -> str:
    if value == 0:
        value = 0.0
    quantized = Decimal(f"{value:.9f}").quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)
    return str(quantized)


def report_capacity_csv(report: CapacityUsageReport) -> bytes:
    """One row per directed link plus trailing setup rows, 2-decimal cells."""
    lines = ["link," + ",".join(str(t) for t in range(1, report.t_max + 1))]
    for lname in report.link_names:
        cells = [_cell(report.total[(lname, t)]) for t in range(1, report.t_max + 1)]
        lines.append(f"{lname}," + ",".join(cells))
    for rep_name, _ in report.setup_pairs:
        cells = [_cell(report.setup[(rep_name, t)]) for t in range(1, report.t_max + 1)]
        lines.append(f"setup {rep_name}," + ",".join(cells))
    return ("\n".join(lines) + "\n").encode("utf-8")


def report_demand_csv(report: DemandOutcomeReport) -> bytes:
    """Rows per (demand, series): departures by route, postponed, cancelled."""
    header = "demand,series," + ",".join(str(t) for t in range(1, report.t_max + 1)) + ",total"
    lines = [header]
    for dname in report.demand_names:
        for rname in report.routes_of[dname]:
            cells = [report.departures[(dname, rname, t)] for t in range(1, report.t_max + 1)]
            lines.append(
                f"{dname},dep {rname}," + ",".join(_cell(x) for x in cells) + f",{_cell(sum(cells))}"
            )
        post = [report.postponed[(dname, t)] for t in range(1, report.t_max + 1)]
        lines.append(f"{dname},postponed," + ",".join(_cell(x) for x in post) + f",{_cell(sum(post))}")
        cancel = [report.cancelled[(dname, t)] for t in range(1, report.t_max + 1)]
        lines.append(
            f"{dname},cancelled," + ",".join(_cell(x) for x in cancel) + f",{_cell(report.cancel_total[dname])}"
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


class RunOutput(NamedTuple):
    result: SolveResult
    capacity: Optional[CapacityUsageReport]
    demands: Optional[DemandOutcomeReport]
    model: TimeExpandedModel


def build_scenario_model(doc: ScenarioDocument) -> TimeExpandedModel:
    """Network + catalog + formulation for a (TCR-applied) document."""
    if doc.tcr_overrides:
        doc = apply_tcr(doc, doc.tcr_overrides)
    network = scenario_network(doc)
    catalog = scenario_catalog(doc, network)
    return build_model(network, catalog, Horizon(doc.t_max), doc.config)


def run(doc: ScenarioDocument, tolerances: Tolerances | None = None) -> RunOutput:
    """Apply inline TCRs, build, solve and derive both reports."""
    model = build_scenario_model(doc)
    result = solve_mip(model, tolerances)
    if result.status == OPTIMAL and doc.pace_refinement:
        result = refine_to_earliest_pace(model, result, tolerances)
    if result.status != OPTIMAL or result.values is None:
        return RunOutput(result, None, None, model)
    capacity = build_capacity_report(model, result.values)
    demands = build_demand_report(model, result.values)
    return RunOutput(result, capacity, demands, model)
