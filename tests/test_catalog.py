import pytest
from hypothesis import given, strategies as st

from railflow.catalog import (
    Demand,
    Route,
    ServiceCatalog,
    aggregate_durations,
    demand_total,
    derive_implements,
    route_nodes,
    validate_catalog,
    validate_route,
)
from railflow.scenario import scenario_catalog, scenario_network
from support import line_network


@pytest.fixture(scope="module")
def small_net(small_doc):
    return scenario_network(small_doc)


@pytest.fixture(scope="module")
def small_cat(small_doc, small_net):
    return scenario_catalog(small_doc, small_net)


def test_fixture_routes_validate(small_net, small_cat):
    assert validate_catalog(small_cat, small_net).ok
    route = small_cat.route_named("A-H-f1")
    assert validate_route(route, small_net).ok
    names = [small_net.node(n).name for n in route_nodes(route, small_net)]
    assert names == ["A", "C", "E", "H"]


def test_gap_in_route_reported(small_net, small_cat):
    a_c = small_net.link_named("A-C").id
    e_h = small_net.link_named("E-H").id
    broken = Route(1, "gappy", small_net.node_named("A").id, small_net.node_named("H").id, 2, (a_c, e_h))
    assert "not-contiguous" in validate_route(broken, small_net).codes()


def test_repeated_link_is_a_cycle(small_net):
    a_c = small_net.link_named("A-C").id
    looped = Route(1, "looped", small_net.node_named("A").id, small_net.node_named("C").id, 2, (a_c, a_c))
    assert "cycle" in validate_route(looped, small_net).codes()


def test_endpoint_mismatch(small_net):
    a_c = small_net.link_named("A-C").id
    wrong = Route(1, "wrong-ends", small_net.node_named("B").id, small_net.node_named("C").id, 2, (a_c,))
    assert "endpoint-mismatch" in validate_route(wrong, small_net).codes()


def test_implementing_routes(small_cat):
    ef = small_cat.demand_named("E-F-p")
    names = {small_cat.route(r).name for r in small_cat.implements[ef.id]}
    assert names == {"E-F-p1", "E-F-p2"}
    dg = small_cat.demand_named("D-G-f")
    names = {small_cat.route(r).name for r in small_cat.implements[dg.id]}
    assert names == {"D-G-f1"}


def test_unservable_demand_has_no_routes():
    net = line_network()
    route = Route(1, "A-C-r1", 1, 3, 1, (1, 2))
    # demand runs opposite to the only route, so nothing implements it
    orphan = Demand(1, "C-A", 3, 1, 1, (1, 0, 0))
    implements = derive_implements((orphan,), (route,))
    catalog = ServiceCatalog((orphan,), (route,), implements)
    assert catalog.implements[1] == ()


def test_aggregate_durations_prefix_sums():
    net = line_network(durations=(0.15, 0.20))
    route = Route(1, "A-C-r1", 1, 3, 1, (1, 2))
    reach = aggregate_durations(route, net)
    assert reach[1] == 0.0
    assert reach[2] == pytest.approx(0.15)
    assert reach[3] == pytest.approx(0.35)


def test_aggregate_duration_zero_length_link():
    net = line_network(durations=(0.0,), node_names=("A", "B"))
    route = Route(1, "A-B-r1", 1, 2, 1, (1,))
    assert aggregate_durations(route, net)[2] == 0.0


def test_aggregate_duration_missing_entry():
    import dataclasses

    net = line_network(durations=(0.15, 0.20))
    route = Route(1, "A-C-r1", 1, 3, 1, (1, 2))
    stripped = dict(net.duration)
    del stripped[(2, 1)]
    net2 = dataclasses.replace(net, duration=stripped)
    with pytest.raises(KeyError):
        aggregate_durations(route, net2)


def test_quarter_period_crossing_volume():
    # one-hour periods, 15-minute traversal: a quarter of any departing
    # volume crosses into the next period, so 1 train of 4 does
    net = line_network(durations=(0.25,), node_names=("A", "B"))
    route = Route(1, "A-B-r1", 1, 2, 1, (1,))
    reach = aggregate_durations(route, net)
    crossing = reach[2] * 4
    assert crossing == pytest.approx(1.0)


def test_demand_totals():
    d1 = Demand(1, "A-H-f", 1, 8, 2, (2, 1, 0, 0, 1, 2, 0))
    d2 = Demand(2, "B-H-p", 2, 8, 1, (0, 1, 3, 2, 3, 1, 0))
    d3 = Demand(3, "zero", 1, 2, 1, (0, 0, 0, 0, 0, 0, 0))
    assert demand_total(d1) == 6
    assert demand_total(d2) == 10
    assert demand_total(d3) == 0


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=8))
def test_demand_total_is_the_sum(volumes):
    demand = Demand(1, "d", 1, 2, 1, tuple(volumes))
    assert demand_total(demand) == sum(volumes)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=6))
def test_aggregate_durations_prefix_additive(durations):
    names = tuple(f"N{i}" for i in range(len(durations) + 1))
    net = line_network(durations=tuple(durations), node_names=names)
    route = Route(1, "r", 1, len(names), 1, tuple(l.id for l in net.links))
    reach = aggregate_durations(route, net)
    nodes = route_nodes(route, net)
    assert len(nodes) == len(route.links) + 1
    for k, link in enumerate(net.links):
        step = reach[nodes[k + 1]] - reach[nodes[k]]
        assert step == pytest.approx(durations[k], abs=1e-12)


def test_implements_must_match_properties(small_net, small_cat):
    stated = dict(small_cat.implements)
    ahf = small_cat.demand_named("A-H-f")
    stated[ahf.id] = stated[ahf.id][:1]  # drop a route that matches by properties
    tampered = ServiceCatalog(small_cat.demands, small_cat.routes, stated)
    assert "implements-mismatch" in validate_catalog(tampered, small_net).codes()


def test_duplicate_demand_triple_rejected(small_net, small_cat):
    twin = Demand(
        len(small_cat.demands) + 1,
        "E-F-p-bis",
        small_cat.demand_named("E-F-p").origin,
        small_cat.demand_named("E-F-p").destination,
        small_cat.demand_named("E-F-p").train_type,
        (0,) * 7,
    )
    demands = small_cat.demands + (twin,)
    catalog = ServiceCatalog(demands, small_cat.routes, derive_implements(demands, small_cat.routes))
    assert "duplicate-demand-triple" in validate_catalog(catalog, small_net).codes()
