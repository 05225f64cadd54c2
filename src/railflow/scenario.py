"""Scenario documents: load, apply capacity restrictions, run, report.

A scenario is a single JSON document naming the network, capacities,
traversal durations, routes, demands, solver configuration and optional
temporary capacity restrictions (TCRs).  Durations are given in minutes and
converted to period fractions with the period length.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Container, Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .bnb import SolveResult, refine_to_earliest_pace, solve_mip
from .checks import verify_solution
from .model import CAPACITY_MODES, ModelConfig, TimeExpandedModel, big_m, build_model, link_usage, type_charge
from .simplex import NUMERICS, OPTIMAL, Tolerances


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
    t_max: int
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


def _name(value, position: str, errors: list[str]) -> Optional[str]:
    """value as a declared name; otherwise record the finding and return None.

    A name is a non-empty string.  Names become MPS fields (split at
    whitespace) and CSV cells (split at commas), so either character is a
    finding too; such a name is still returned, so that each reference to it
    does not add a finding of its own.
    """
    if not isinstance(value, str) or not value:
        errors.append(f"{position}: expected a name, got {value!r}")
        return None
    if any(ch.isspace() or ch == "," for ch in value):
        errors.append(f"{position}: name {value!r} must not contain whitespace or a comma")
    return value


def _known(value, names) -> bool:
    """True iff value is one of names; a non-string, even an unhashable one, is not."""
    return isinstance(value, str) and value in names


def _records(
    raw: dict, key: str, known: Sequence[str], errors: list[str]
) -> Iterator[tuple[int, str, dict]]:
    """(i, position, item) of each object in the array raw[key].

    Records the finding for a raw[key] that is not an array, for an item that
    is not an object (which is skipped), and for each unknown field of an item.
    """
    for i, item in enumerate(_array(raw.get(key, ()), key, errors)):
        position = f"{key}[{i}]"
        if not isinstance(item, dict):
            errors.append(f"{position}: expected an object")
            continue
        _unknown_keys(item, known, f"{position}.", errors)
        yield i, position, item


def _refers(item: dict, key: str, names, kind: str, position: str, errors: list[str]) -> bool:
    """True iff item[key] is one of names, the declared names of kind; otherwise record the finding."""
    value = item.get(key)
    if _known(value, names):
        return True
    errors.append(f"{position}.{key}: unknown {kind} {value!r}")
    return False


def _fresh_name(
    item: dict, default: str, taken: Container[str], kind: str, position: str, errors: list[str]
) -> Optional[str]:
    """item's name (default if it states none) if it is a name outside taken.

    Otherwise record the finding and return None.
    """
    name = _name(item.get("name", default), position, errors)
    if name in taken:
        errors.append(f"{position}: duplicate {kind} name {name!r}")
        return None
    return name


def _capacity(value, position: str, subject: str, errors: list[str]) -> float:
    """value as the capacity of subject: a finite number >= 0, else a finding."""
    value = _number(value, position, errors)
    if value < 0:
        errors.append(f"{position}: capacity {value} of {subject} must be >= 0")
    return value


def _route_findings(spec: RouteSpec, links: Mapping[str, LinkSpec], durations) -> list[str]:
    """What is wrong with a route whose links and train type are all known."""
    out = []
    for before, after in zip(spec.links, spec.links[1:]):
        if links[before].head != links[after].tail:
            out.append(f"link {before!r} does not join link {after!r}")
    for verb, names in (
        ("rides link", spec.links),
        ("visits node", [links[x].tail for x in spec.links] + [links[spec.links[-1]].head]),
    ):
        seen: set[str] = set()
        for x in names:
            if x in seen:
                out.append(f"{verb} {x!r} twice")
            seen.add(x)
    for x in spec.links:
        if (x, spec.train_type) not in durations:
            out.append(f"link {x!r} has no duration for train type {spec.train_type!r}")
    return out


def _flag(raw: dict, key: str, default: bool, errors: list[str]) -> bool:
    """raw[key] as a JSON boolean; a string such as "false" is an error, not True."""
    value = raw.get(key, default)
    if isinstance(value, bool):
        return value
    errors.append(f"config.{key}: expected true or false, got {value!r}")
    return default


def _unknown_keys(raw: dict, known: Sequence[str], prefix: str, errors: list[str]) -> None:
    """Record a finding for every key of raw outside known.

    A misspelt key would otherwise be ignored and its default used in
    silence.
    """
    for key in raw:
        if key not in known:
            errors.append(f"{prefix}{key}: unknown field (expected one of {', '.join(known)})")


# The largest heterogeneous charge 1 + k_het x (types - 1) a document may
# give.  The dense simplex loses small_network's heterogeneous LP to
# round-off well before a float overflows: it ends in numerics at charges of
# 7.2e4, 1.1e5 and 1.5e5, and from 3.8e5 on it calls the LP infeasible where
# HiGHS finds an optimum.  Every charge probed up to 7e4 solves to a verified
# optimum.
MAX_TYPE_CHARGE = 1e4

_DOCUMENT_KEYS = (
    "name", "notes", "period_length_minutes", "horizon", "train_types", "nodes", "links",
    "single_track_pairs", "capacities", "durations_minutes", "routes", "demands", "config",
    "tcr_overrides",
)
_CONFIG_KEYS = tuple(f.name for f in fields(ModelConfig)) + ("pace_refinement",)
_LINK_KEYS = ("name", "tail", "head")
_ROUTE_KEYS = ("name", "train_type", "links")
_DEMAND_KEYS = ("name", "origin", "destination", "train_type", "volumes")
_CAPACITY_KEYS = ("default", "links")
_TCR_KEYS = tuple(f.name for f in fields(TcrOverride))


def _parse_config(raw: dict, errors: list[str]) -> tuple[ModelConfig, bool]:
    _unknown_keys(raw, _CONFIG_KEYS, "config.", errors)
    pace = _flag(raw, "pace_refinement", True, errors)
    mode = raw.get("capacity_mode", "basic")
    if mode not in CAPACITY_MODES:
        errors.append(f"config: unknown capacity_mode {mode!r}")
        mode = "basic"

    def number(key: str, default: float) -> float:
        return _number(raw.get(key, default), f"config.{key}", errors, default)

    try:
        config = ModelConfig(
            capacity_mode=mode,
            k_het=number("k_het", 0.25),
            k_setup=number("k_setup", 1.0),
            cost_cancel=number("cost_cancel", 1000.0),
            cost_post=number("cost_post", 20.0),
            relax_integrality=_flag(raw, "relax_integrality", False, errors),
        )
    except ValueError as exc:
        errors.append(f"config: {exc}")
        config = ModelConfig()
    return config, pace


def _checked_tcr(
    o: TcrOverride, position: str, t_max: int, link_names: Container[str], errors: list[str]
) -> Optional[TcrOverride]:
    """o with a float value if it is valid; otherwise record the finding and return None.

    Valid means: a known link, no period or one in 1..t_max, exactly one of
    capacity or scale, and that value finite and >= 0.
    """
    if not _known(o.link, link_names):
        errors.append(f"{position}: unknown link {o.link!r}")
        return None
    if o.period is not None:
        if not isinstance(o.period, int) or isinstance(o.period, bool):
            errors.append(f"{position}: period must be an integer or null")
            return None
        if not 1 <= o.period <= t_max:
            errors.append(f"{position}: period {o.period} outside horizon 1..{t_max}")
            return None
    if (o.capacity is None) == (o.scale is None):
        errors.append(f"{position}: give exactly one of capacity or scale")
        return None
    key = "capacity" if o.capacity is not None else "scale"
    found = len(errors)
    value = _number(getattr(o, key), f"{position}.{key}", errors)
    if len(errors) > found:
        return None
    if value < 0:
        errors.append(f"{position}: {key} must be >= 0")
        return None
    return replace(o, **{key: value})


def load_scenario(source: bytes | str | Path | dict) -> ScenarioDocument:
    """Parse and fully validate a scenario document; nothing downstream checks it again.

    A Path is read from disk as bytes; str and bytes are JSON text, and json
    detects the encoding of bytes (UTF-8, -16 or -32); a dict is the parsed
    document itself.  Raises ScenarioError listing every problem
    found, each tagged with its position in the document and naming the
    node, link, pair, route or demand at fault.  Besides malformed values,
    unknown fields (at any level) and unknown names, the findings are:
    duplicate names; a link from a node to itself or with another link's
    tail and head; a single-track pair whose links do not run opposite, or
    that holds a link of another pair; a negative capacity or duration, or a
    duration over one period; a route whose links do not join, that rides a
    link or visits a node twice, or that rides a link with no duration for
    its train type; a demand from a node to itself or with another demand's
    origin, destination and train type; a k_het whose heterogeneous charge
    on some link overflows a float or exceeds MAX_TYPE_CHARGE (in every
    capacity mode); and a capacity table, after the inline TCRs, that is too
    large for a float (apply_tcr).

    A demand is implemented by every route from its origin to its
    destination with its train type, in document order (doc.implements).
    """
    if isinstance(source, Path):
        source = source.read_bytes()
    raw = json.loads(source) if isinstance(source, (str, bytes, bytearray)) else source
    if not isinstance(raw, dict):
        raise ScenarioError(["document: top level must be an object"])

    errors: list[str] = []
    _unknown_keys(raw, _DOCUMENT_KEYS, "", errors)

    def need(key: str, kind, default=None):
        value = raw.get(key, default)
        if value is None:
            errors.append(f"{key}: required field missing")
            return default
        if kind is int and (not isinstance(value, int) or isinstance(value, bool)):
            errors.append(f"{key}: expected an integer")
            return default
        return value

    def declared(key: str, kind: str) -> dict[str, None]:
        names: dict[str, None] = {}  # ordered, with set lookups
        for i, item in enumerate(_array(raw.get(key, ()), key, errors)):
            item = _name(item, f"{key}[{i}]", errors)
            if item in names:
                errors.append(f"{key}[{i}]: duplicate {kind} {item!r}")
            elif item is not None:
                names[item] = None
        return names

    name = _name(raw.get("name", "scenario"), "name", errors)
    notes = raw.get("notes", "")
    if not isinstance(notes, str):
        errors.append(f"notes: expected a string, got {notes!r}")
    period_length = need("period_length_minutes", int, 0) or 0
    if period_length <= 0:
        errors.append("period_length_minutes: must be a positive integer")
        period_length = 60
    elif not _number(period_length, "period_length_minutes", errors):
        period_length = 60  # past float range: no duration in minutes could be divided by it
    t_max = need("horizon", int, 0) or 0
    if t_max < 1:
        errors.append("horizon: must be >= 1")
        t_max = 1

    type_labels = declared("train_types", "train type")
    if not type_labels:
        errors.append("train_types: at least one train type is required")
    node_names = declared("nodes", "node")

    links: dict[str, LinkSpec] = {}
    link_of_ends: dict[tuple[str, str], str] = {}
    for _, position, item in _records(raw, "links", _LINK_KEYS, errors):
        if not all(_refers(item, end, node_names, "node", position, errors) for end in ("tail", "head")):
            continue
        tail, head = item["tail"], item["head"]
        lname = _fresh_name(item, f"{tail}-{head}", links, "link", position, errors)
        if lname is None:
            continue
        if tail == head:
            errors.append(f"{position}: link {lname!r} runs from node {tail!r} to itself")
        elif (tail, head) in link_of_ends:
            twin = link_of_ends[(tail, head)]
            errors.append(f"{position}: link {lname!r} has the tail and head of link {twin!r}")
        link_of_ends.setdefault((tail, head), lname)
        links[lname] = LinkSpec(lname, tail, head)

    pairs: list[tuple[str, str]] = []
    pair_of: dict[str, int] = {}
    pairs_raw = _array(raw.get("single_track_pairs", ()), "single_track_pairs", errors)
    for i, item in enumerate(pairs_raw):
        position = f"single_track_pairs[{i}]"
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            errors.append(f"{position}: expected a pair of link names")
            continue
        if not all(_known(x, links) for x in item):
            errors.append(f"{position}: unknown link in pair {item}")
            continue
        a, b = (links[x] for x in item)
        taken = [x for x in item if x in pair_of]
        if a == b:
            errors.append(f"{position}: a link cannot pair with itself")
        elif taken:
            first = f"single_track_pairs[{pair_of[taken[0]]}]"
            errors.append(f"{position}: link {taken[0]!r} is already in {first}")
        elif (b.tail, b.head) != (a.head, a.tail):
            errors.append(f"{position}: link {b.name!r} does not run opposite to link {a.name!r}")
        else:
            pair_of[a.name] = pair_of[b.name] = i
            pairs.append((a.name, b.name))

    durations: dict[tuple[str, str], float] = {}
    table = raw.get("durations_minutes", {})
    if not isinstance(table, dict):
        errors.append("durations_minutes: expected an object keyed by link name")
        table = {}
    for lname, per_type in table.items():
        if lname not in links:
            errors.append(f"durations_minutes[{lname!r}]: unknown link")
            continue
        if not isinstance(per_type, dict):
            errors.append(f"durations_minutes[{lname!r}]: expected an object keyed by train type")
            continue
        for label, value in per_type.items():
            position = f"durations_minutes[{lname!r}][{label!r}]"
            if label not in type_labels:
                errors.append(f"{position}: unknown train type")
                continue
            value = _number(value, position, errors)
            if value < 0:
                errors.append(f"{position}: duration {value} must be >= 0")
            periods = value / period_length
            if periods > 1.0 + 1e-12:
                errors.append(
                    f"{position}: takes {periods} periods; a traversal must fit in one period"
                )
            durations[(lname, label)] = periods

    routes: dict[str, RouteSpec] = {}
    for i, position, item in _records(raw, "routes", _ROUTE_KEYS, errors):
        if not _refers(item, "train_type", type_labels, "train type", position, errors):
            continue
        rname = _fresh_name(item, f"route-{i}", routes, "route", position, errors)
        if rname is None:
            continue
        used = tuple(_array(item.get("links", ()), f"{position}.links", errors))
        missing = [x for x in used if not _known(x, links)]
        if missing:
            errors.append(f"{position}: route {rname!r} references unknown links {missing}")
            continue
        if not used:
            errors.append(f"{position}: route {rname!r} has no links")
            continue
        routes[rname] = RouteSpec(rname, item["train_type"], used)
        for finding in _route_findings(routes[rname], links, durations):
            errors.append(f"{position}: route {rname!r}: {finding}")

    demands: dict[str, DemandSpec] = {}
    demand_of_triple: dict[tuple[str, str, str], str] = {}
    for i, position, item in _records(raw, "demands", _DEMAND_KEYS, errors):
        volumes = _array(item.get("volumes", ()), f"{position}.volumes", errors)
        if len(volumes) != t_max:
            errors.append(f"{position}: expected {t_max} per-period volumes, got {len(volumes)}")
            continue
        dname = _fresh_name(item, f"demand-{i}", demands, "demand", position, errors)
        if dname is None:
            continue
        if not all(_refers(item, end, node_names, "node", position, errors) for end in ("origin", "destination")):
            continue
        if not _refers(item, "train_type", type_labels, "train type", position, errors):
            continue
        triple = (item["origin"], item["destination"], item["train_type"])
        origin, destination, label = triple
        if any((not isinstance(v, int)) or isinstance(v, bool) or v < 0 for v in volumes):
            errors.append(f"{position}: volumes must be nonnegative integers")
            continue
        found = len(errors)
        for k, v in enumerate(volumes):
            _number(v, f"{position}.volumes[{k}]", errors)
        if len(errors) == found:
            _number(sum(volumes), f"{position}.volumes (total)", errors)
        if len(errors) > found:
            continue
        if origin == destination:
            errors.append(f"{position}: demand {dname!r} runs from node {origin!r} to itself")
        elif triple in demand_of_triple:
            errors.append(
                f"{position}: demand {dname!r} has the origin, destination and train type of"
                f" demand {demand_of_triple[triple]!r}; they would share every implementing route"
            )
        demand_of_triple.setdefault(triple, dname)
        demands[dname] = DemandSpec(dname, origin, destination, label, tuple(volumes))

    caps_raw = _object(raw.get("capacities", {}), "capacities", errors)
    _unknown_keys(caps_raw, _CAPACITY_KEYS, "capacities.", errors)
    per_link: dict[str, float] = {}
    for lname, value in _object(caps_raw.get("links", {}), "capacities.links", errors).items():
        position = f"capacities.links[{lname!r}]"
        if lname not in links:
            errors.append(f"{position}: unknown link")
            continue
        per_link[lname] = _capacity(value, position, f"link {lname!r}", errors)
    default_cap = caps_raw.get("default")
    if default_cap is not None:
        users = [x for x in links if x not in per_link]
        default_cap = _capacity(default_cap, "capacities.default", f"links {users}", errors)
    for lname in links:
        if per_link.setdefault(lname, default_cap) is None:
            errors.append(f"capacities: no value for link {lname!r}")

    routes_of: dict[tuple[str, str, str], tuple[str, ...]] = {}
    for r in routes.values():
        ends = (links[r.links[0]].tail, links[r.links[-1]].head, r.train_type)
        routes_of[ends] = routes_of.get(ends, ()) + (r.name,)
    matching = {
        d.name: routes_of.get((d.origin, d.destination, d.train_type), ()) for d in demands.values()
    }

    config_raw = raw.get("config")
    config_raw = {} if config_raw is None else _object(config_raw, "config", errors)
    config, pace = _parse_config(config_raw, errors)
    # Checked in every mode, as a run can switch to heterogeneous mode.
    most = max((len({r.train_type for r in routes.values() if x in r.links}) for x in links), default=1)
    charge = type_charge(config.k_het, most)
    if not math.isfinite(charge):
        errors.append(
            f"config.k_het: {config.k_het} makes heterogeneous mode charge {charge} per train"
            f" on a link with {most} train types, past float range"
        )
    elif charge > MAX_TYPE_CHARGE:
        errors.append(
            f"config.k_het: {config.k_het} makes heterogeneous mode charge {charge} per train"
            f" on a link with {most} train types, above {MAX_TYPE_CHARGE:g}"
        )

    tcrs: list[TcrOverride] = []
    for _, position, item in _records(raw, "tcr_overrides", _TCR_KEYS, errors):
        override = _checked_tcr(TcrOverride(*map(item.get, _TCR_KEYS)), position, t_max, links, errors)
        if override is not None:
            tcrs.append(override)

    if errors:
        raise ScenarioError(errors)

    # Only now is the capacity table filled: a horizon that disagreed with the
    # volume counts may have been absurd, and filling it could take any memory.
    periods = range(1, t_max + 1)
    doc = ScenarioDocument(
        name=name,
        t_max=t_max,
        nodes=tuple(node_names),
        links=tuple(links.values()),
        single_track_pairs=tuple(pairs),
        capacity={(lname, t): per_link[lname] for lname in links for t in periods},
        durations=durations,
        routes=tuple(routes.values()),
        demands=tuple(demands.values()),
        implements=matching,
        config=config,
        pace_refinement=pace,
        tcr_overrides=tuple(tcrs),
        notes=notes,
    )

    apply_tcr(doc, ())  # the capacity table must stay in float range after the inline TCRs
    return doc


def apply_tcr(doc: ScenarioDocument, overrides: Sequence[TcrOverride]) -> ScenarioDocument:
    """New document with its inline TCRs, then the listed ones, applied in order.

    The listed overrides continue the document's own list: a scale applies
    to the capacity that the overrides before it left.  The returned
    document has its inline override list cleared (the edits are now part of
    the capacity table); everything else is untouched.  Raises ScenarioError
    for an invalid override, and for a table whose big M (model.big_m), or
    the right-hand side of a single_track_alt2 setup row, overflows a float.
    An invalid override is named by its index in its own list:
    tcr_overrides[i] for the document's, overrides[i] for the listed.
    """
    link_names = {l.name for l in doc.links}
    capacity = dict(doc.capacity)
    for prefix, listed in (("tcr_overrides", doc.tcr_overrides), ("overrides", overrides)):
        for i, o in enumerate(listed):
            errors: list[str] = []
            o = _checked_tcr(o, f"{prefix}[{i}]", doc.t_max, link_names, errors)
            if o is None:
                raise ScenarioError(errors)
            periods = (o.period,) if o.period is not None else tuple(range(1, doc.t_max + 1))
            for t in periods:
                if o.capacity is not None:
                    capacity[(o.link, t)] = o.capacity
                else:
                    capacity[(o.link, t)] = capacity[(o.link, t)] * o.scale
    # A setup row's right-hand side, k_setup x capacity + M, is at most the
    # largest capacity + M, as k_setup <= 1.
    largest = max(capacity.values(), default=0.0)
    m = big_m(capacity)
    for what, value in (("a big M of", m), ("setup rows a right-hand side of up to", largest + m)):
        if not math.isfinite(value):
            raise ScenarioError([
                f"capacities: the largest capacity after the TCRs, {largest},"
                f" gives single_track_alt2 {what} {value}, past float range"
            ])
    return replace(doc, capacity=capacity, tcr_overrides=())


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CapacityUsageReport:
    """Per (link, period) capacity usage, with setup rows.

    Usage counts each route's direct flow plus half of each adjacent
    crossing flow; setup rows (single_track_alt2 only) show the capacity
    consumed by direction changes on each coupled pair, derived from the
    flows as min(own, opp) / k_setup of the pair's two directional usages.
    """

    link_names: tuple[str, ...]
    t_max: int
    total: Mapping[tuple[str, int], float]
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


def build_capacity_report(model: TimeExpandedModel, values: np.ndarray) -> CapacityUsageReport:
    doc = model.doc
    periods = range(1, doc.t_max + 1)
    idx, coef = link_usage(model)
    usage = np.zeros(idx.shape[0])
    for term in np.where(idx >= 0, coef * values[idx], 0.0).T:
        usage += term  # one term at a time, in term order, as a plain sum adds them
    total = dict(zip([(link.name, t) for link in doc.links for t in periods], usage.tolist()))
    setup: dict[tuple[str, int], float] = {}
    setup_pairs: tuple[tuple[str, str], ...] = ()
    if model.config.capacity_mode == "single_track_alt2":
        setup_pairs = model.single_track_pairs
        for rep, other in setup_pairs:
            for t in periods:
                setup[(rep, t)] = min(total[(rep, t)], total[(other, t)]) / model.config.k_setup
    return CapacityUsageReport(
        link_names=tuple(l.name for l in doc.links),
        t_max=doc.t_max,
        total=total,
        setup=setup,
        setup_pairs=setup_pairs,
    )


def build_demand_report(model: TimeExpandedModel, values: np.ndarray) -> DemandOutcomeReport:
    doc = model.doc
    T = np.arange(1, doc.t_max + 1)
    demands = np.arange(len(doc.demands))[:, None]

    def read(kind: str, *key) -> list:
        # the values at lookup's indices, 0 where none is declared (no post leaves the last period)
        idx = model.lookup(kind, *key)
        return np.where(idx >= 0, values[idx], 0.0).tolist()

    routes_of = {d.name: tuple(doc.implements.get(d.name, ())) for d in doc.demands}
    served = [(d, r) for d, routes in routes_of.items() for r in routes]
    dep = read("dep", np.array([model.positions["route"][r] for _, r in served], dtype=np.intp)[:, None], T)
    postponed, cancelled = (
        {(d.name, t): value for d, row in zip(doc.demands, read(kind, demands, T)) for t, value in enumerate(row, 1)}
        for kind in ("post", "cancel")
    )
    return DemandOutcomeReport(
        demand_names=tuple(d.name for d in doc.demands),
        t_max=doc.t_max,
        routes_of=routes_of,
        departures={(d, r, t): value for (d, r), row in zip(served, dep) for t, value in enumerate(row, 1)},
        postponed=postponed,
        cancelled=cancelled,
        cancel_total=dict(zip((d.name for d in doc.demands), read("cancel_total", demands[:, 0]))),
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
    """The model of a document, after applying its inline TCR overrides."""
    return build_model(apply_tcr(doc, ()))


def run(doc: ScenarioDocument, tolerances: Tolerances | None = None) -> RunOutput:
    """Apply inline TCRs, build, solve and derive both reports.

    The values to be reported are audited first (checks.verify_solution):
    a row, bound or integrality breach beyond the tolerances turns the run
    into status NUMERICS, with no reports.
    """
    tol = tolerances or Tolerances()
    model = build_scenario_model(doc)
    result = solve_mip(model, tol)
    if result.status == OPTIMAL and doc.pace_refinement:
        result = refine_to_earliest_pace(model, result, tol)
    result.tableau = None
    if result.status != OPTIMAL or result.values is None:
        return RunOutput(result, None, None, model)
    if verify_solution(model, result.values):
        return RunOutput(replace(result, status=NUMERICS), None, None, model)
    capacity = build_capacity_report(model, result.values)
    demands = build_demand_report(model, result.values)
    return RunOutput(result, capacity, demands, model)
