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
)
from railflow.scenario import scenario_catalog, scenario_network
from support import line_network


@pytest.fixture(scope="module")
def small_net(small_doc):
    return scenario_network(small_doc)


@pytest.fixture(scope="module")
def small_cat(small_doc, small_net):
    return scenario_catalog(small_doc, small_net)


def test_fixture_route_nodes(small_net, small_cat):
    route = small_cat.route_named("A-H-f1")
    names = [small_net.node(n).name for n in route_nodes(route, small_net)]
    assert names == ["A", "C", "E", "H"]


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
