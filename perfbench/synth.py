"""Seeded synthetic line scenarios.

A line of n stations gets one link per direction between neighbours, two
train types, a set of distinct origin/destination routes (one per direction
and O/D pair, never repeated) and integer per-period volumes.  Optional
single-track pairs couple the two directions of chosen segments.
``tcr_overrides`` draws, from a seed of its own, TCR overrides that scale the
capacity of chosen links in chosen periods.

The output is a JSON document for ``railflow.scenario.load_scenario``.  All
randomness comes from ``random.Random`` instances seeded with strings built
from the seed and the shape, so the same arguments give the same bytes.
"""

from __future__ import annotations

import json
import random

TRAIN_TYPES = ("reg", "gt")
PERIOD_MINUTES = 60


def _station(i: int) -> str:
    return f"S{i:02d}"


def line_scenario(
    seed: int,
    stations: int,
    periods: int,
    routes: int,
    *,
    single_track: int = 0,
    relax_integrality: bool = False,
    pace_refinement: bool = True,
    name: str = "line",
) -> dict:
    """One scenario document; every count is an exact target, not a bound.

    ``routes`` distinct O/D routes are drawn without replacement from all
    ordered station pairs.  Each demand has a volume of 1 or 2 in a period
    with probability 1/2 and 0 otherwise, never all zero.  Each segment has
    a capacity of 4 to 7 trains per period in both directions.
    """
    if stations < 2 or periods < 1:
        raise ValueError("a line needs at least 2 stations and 1 period")
    segments = stations - 1
    if not 0 <= single_track <= segments:
        raise ValueError(f"single_track must lie in 0..{segments}")
    pairs_all = [(o, d) for o in range(stations) for d in range(stations) if o != d]
    if not 1 <= routes <= len(pairs_all):
        raise ValueError(f"routes must lie in 1..{len(pairs_all)}")

    rng = random.Random(f"{name}:{seed}:{stations}:{periods}:{routes}:{single_track}")
    nodes = [_station(i) for i in range(stations)]
    links = []
    durations = {}
    link_caps = {}
    for i in range(segments):
        reg = rng.randint(10, 22)
        gt = reg + rng.randint(2, 10)
        cap = rng.randint(4, 7)
        for tail, head in ((i, i + 1), (i + 1, i)):
            lname = f"{_station(tail)}-{_station(head)}"
            links.append({"name": lname, "tail": _station(tail), "head": _station(head)})
            durations[lname] = {"reg": reg, "gt": gt}
            link_caps[lname] = cap

    track_segments = sorted(rng.sample(range(segments), single_track))
    single_track_pairs = [
        [f"{_station(i)}-{_station(i + 1)}", f"{_station(i + 1)}-{_station(i)}"]
        for i in track_segments
    ]

    route_docs = []
    demand_docs = []
    for o, d in sorted(rng.sample(pairs_all, routes)):
        step = 1 if d > o else -1
        path = [f"{_station(i)}-{_station(i + step)}" for i in range(o, d, step)]
        label = rng.choice(TRAIN_TYPES)
        # Leave the closing periods empty, enough for the slowest type to
        # reach the destination, so no demand is cancelled for lack of time.
        minutes = sum(durations[link]["gt"] for link in path)
        window = max(1, periods - 1 - -(-minutes // PERIOD_MINUTES))
        volumes = [rng.randint(1, 2) if rng.random() < 0.5 else 0 for _ in range(window)]
        if not any(volumes):
            volumes[rng.randrange(window)] = 1
        volumes += [0] * (periods - window)
        dname = f"{_station(o)}-{_station(d)}-{label}"
        route_docs.append({"name": f"{dname}-r1", "train_type": label, "links": path})
        demand_docs.append(
            {
                "name": dname,
                "origin": _station(o),
                "destination": _station(d),
                "train_type": label,
                "volumes": volumes,
            }
        )

    doc = {
        "name": f"{name}-s{seed}-n{stations}-t{periods}",
        "period_length_minutes": PERIOD_MINUTES,
        "horizon": periods,
        "train_types": list(TRAIN_TYPES),
        "nodes": nodes,
        "links": links,
        "single_track_pairs": single_track_pairs,
        "capacities": {"default": 4, "links": link_caps},
        "durations_minutes": durations,
        "routes": route_docs,
        "demands": demand_docs,
        "config": {
            "capacity_mode": "basic",
            "relax_integrality": relax_integrality,
            "pace_refinement": pace_refinement,
        },
    }
    return doc


def tcr_overrides(doc: dict, seed: int, count: int) -> list[dict]:
    """``count`` TCR overrides for a scenario document, drawn from ``seed``.

    Each closes a link for one period or cuts its capacity to a quarter or
    a half.
    """
    rng = random.Random(f"{doc['name']}:tcr:{seed}:{count}")
    return [
        {
            "link": rng.choice(doc["links"])["name"],
            "period": rng.randint(1, doc["horizon"]),
            "scale": rng.choice((0.0, 0.25, 0.5)),
        }
        for _ in range(count)
    ]


def scenario_bytes(doc: dict) -> bytes:
    """Canonical JSON bytes of a generated document."""
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode("utf-8")
