import math
import warnings

import numpy as np
import pytest

from railflow.catalog import Demand, Route, ServiceCatalog, derive_implements, route_nodes
from railflow.checks import ConstraintSystem
from railflow.model import (
    CAPACITY_MODES,
    ModelConfig,
    ModelError,
    build_model,
    build_variables,
    departure_spread,
)
from railflow.network import Horizon, Network, StationNode, TrackLink, TrainType
from support import line_catalog, line_model, line_network, usage
from test_golden import SCENARIOS


def count_kind(model, kind):
    return sum(1 for v in model.variables if v.ref.kind == kind)


def names_of(model, family):
    return [c.name for c in model.constraints if c.name.startswith(family + "[")]


def constraint(model, name):
    for c in model.constraints:
        if c.name == name:
            return c
    raise KeyError(name)


def test_variable_counts_single_link():
    net = line_network(durations=(0.5,), t_max=2, node_names=("A", "B"))
    cat = line_catalog(net, volumes=(1, 0), route_name="A-B-r1", demand_name="A-B")
    model = build_variables(net, cat, net.horizon, ModelConfig())
    assert count_kind(model, "direct") == 2  # |L| * |T| * |R|
    assert count_kind(model, "next") == 3  # periods 0..2
    assert count_kind(model, "ni") == 2 * 3
    assert count_kind(model, "dep") == 2
    assert count_kind(model, "post") == 3
    assert count_kind(model, "cancel_t") == 2
    assert count_kind(model, "cancel_total") == 1


def test_zero_routes_leaves_demand_layer_only():
    net = line_network(durations=(0.5,), t_max=2, node_names=("A", "B"))
    demand = Demand(1, "A-B", 1, 2, 1, (1, 0))
    cat = ServiceCatalog((demand,), (), {1: ()})
    model = build_variables(net, cat, net.horizon, ModelConfig())
    for kind in ("dep", "arr", "ext", "direct", "next", "ni", "in", "aggr"):
        assert count_kind(model, kind) == 0
    assert count_kind(model, "post") == 3
    assert count_kind(model, "cancel_total") == 1


def test_exchange_variables_are_free_everything_else_nonnegative():
    model = line_model()  # one route A-B-C: B is passed through
    for var in model.variables:
        if var.ref.kind == "ext" and var.ref.key[0] != 2:
            assert (var.lb, var.ub) == (-math.inf, math.inf)
        elif var.ref.kind == "ext":
            assert (var.lb, var.ub) == (0.0, 0.0)
        else:
            assert var.lb == 0.0


def test_over_long_duration_rejected_at_build():
    with pytest.raises(ModelError, match="within one period"):
        line_model(durations=(1.2, 0.2))


def test_missing_duration_rejected_at_build():
    net = line_network(durations=(0.15, 0.20))
    cat = line_catalog(net)
    import dataclasses

    net = dataclasses.replace(net, duration={(1, 1): 0.15})
    with pytest.raises(ModelError, match="no traversal duration"):
        build_variables(net, cat, net.horizon, ModelConfig())


def test_capacity_usage_expression_matches_worked_numbers():
    # splits 0.85/0.15 on the first link and 0.65/0.20 on the second:
    # charge = direct + half of each adjacent crossing flow
    model = line_model()
    values = np.zeros(len(model.variables))
    values[model.var("direct", 1, 1, 1)] = 0.85
    values[model.var("next", 1, 1, 1)] = 0.15
    assert usage(model, values, 1, 1) == pytest.approx(0.925)
    values[model.var("direct", 2, 2, 1)] = 0.15
    values[model.var("next", 2, 1, 1)] = 0.20
    assert usage(model, values, 2, 2) == pytest.approx(0.25)
    assert usage(model, values, 2, 3) == pytest.approx(0.0)


def test_capacity4_rows_bound_usage_by_allocation():
    model = line_model()
    row = constraint(model, "Capacity4[l=A-B,t=1,h=reg]")
    coefs = dict(row.terms)
    assert coefs[model.var("direct", 1, 1, 1)] == 1.0
    assert coefs[model.var("next", 1, 0, 1)] == 0.5
    assert coefs[model.var("next", 1, 1, 1)] == 0.5
    assert coefs[model.var("linkcap", 1, 1, 1)] == -1.0
    assert row.relation == "<=" and row.rhs == 0.0


def test_departure_balance_recurrence():
    # requested (3,0,0); postpone one unit from period 1 to 2
    model = line_model(volumes=(3, 0, 0))
    values = np.zeros(len(model.variables))
    values[model.var("dep", 1, 1)] = 2.0
    values[model.var("dep", 1, 2)] = 1.0
    values[model.var("post", 1, 1)] = 1.0
    system = ConstraintSystem.from_model(model)
    residuals = {
        c.name: v
        for c, v in zip(model.constraints, system.violations(values))
        if c.name.startswith("Departure3[")
    }
    assert all(v <= 1e-12 for v in residuals.values())
    # and an unbalanced vector is caught
    values[model.var("dep", 1, 2)] = 0.5
    residuals = [
        v
        for c, v in zip(model.constraints, system.violations(values))
        if c.name.startswith("Departure3[")
    ]
    assert max(residuals) == pytest.approx(0.5)


def test_post_variables_pinned_at_horizon_ends():
    model = line_model(t_max=2, volumes=(1, 0))
    post = [model.variables[model.var("post", 1, t)] for t in (0, 1, 2)]
    assert [(v.lb, v.ub) for v in post] == [(0.0, 0.0), (0.0, math.inf), (0.0, 0.0)]


def test_departure_spread_fractional_and_integral():
    assert departure_spread(0.0) == ((0, 1.0),)
    assert departure_spread(0.15) == ((0, 0.85), (1, 0.15))
    assert departure_spread(1.0) == ((1, 1.0),)
    lo, hi = departure_spread(1.3)
    assert lo == (1, pytest.approx(0.7)) and hi == (2, pytest.approx(0.3))
    with pytest.raises(ModelError):
        departure_spread(-0.1)


def test_aggregate_rows_use_the_spread():
    model = line_model()  # cumulative 0.35 at the destination
    row = constraint(model, "Aggregate2.2[n=C,t=2,r=A-C-r1]")
    coefs = dict(row.terms)
    assert coefs[model.var("aggr", 3, 2, 1)] == 1.0
    assert coefs[model.var("aggr", 3, 1, 1)] == -1.0
    assert coefs[model.var("dep", 1, 2)] == pytest.approx(-0.65)
    assert coefs[model.var("dep", 1, 1)] == pytest.approx(-0.35)


def test_objective_examples():
    model = line_model(volumes=(1, 0, 0))
    values = np.zeros(len(model.variables))
    values[model.var("dep", 1, 1)] = 1.0
    values[model.var("arr", 1, 2)] = 1.0
    assert model.objective_value(values) == pytest.approx(1.0)  # (2 - 1) / 1
    values[:] = 0.0
    values[model.var("cancel_total", 1)] = 1.0
    assert model.objective_value(values) == pytest.approx(1000.0)
    values[:] = 0.0
    values[model.var("post", 1, 1)] = 1.0
    assert model.objective_value(values) == pytest.approx(20.0)


def test_zero_total_volume_drops_travel_term():
    model = line_model(volumes=(0, 0, 0))
    kinds = {model.variables[idx].ref.kind for idx in model.objective}
    assert kinds <= {"cancel_total", "post"}


def coupled_pair_network(t_max=3, capacity=6.0, cap_back=None):
    nodes = (StationNode(1, "X"), StationNode(2, "Y"))
    links = (TrackLink(1, 1, 2, "X-Y"), TrackLink(2, 2, 1, "Y-X"))
    horizon = Horizon(t_max)
    capacity_table = {}
    for t in horizon.periods:
        capacity_table[(1, t)] = capacity
        capacity_table[(2, t)] = capacity if cap_back is None else cap_back
    return Network(
        train_types=(TrainType(1, "reg"),),
        nodes=nodes,
        links=links,
        sigma={1: 2, 2: 1},
        capacity=capacity_table,
        duration={(1, 1): 0.25, (2, 1): 0.25},
        horizon=horizon,
    )


def coupled_pair_catalog():
    routes = (Route(1, "XY-p1", 1, 2, 1, (1,)), Route(2, "YX-p1", 2, 1, 1, (2,)))
    demands = (Demand(1, "X-Y-p", 1, 2, 1, (2, 0, 0)), Demand(2, "Y-X-p", 2, 1, 1, (2, 0, 0)))
    return ServiceCatalog(demands, routes, derive_implements(demands, routes))


def test_alt1_shares_the_mean_of_both_directions():
    net = coupled_pair_network(cap_back=4.0)
    model = build_model(net, coupled_pair_catalog(), net.horizon, ModelConfig(capacity_mode="single_track_alt1"))
    rows = names_of(model, "Capacity2alt1")
    assert len(rows) == 3  # one per period for the single pair
    row = constraint(model, "Capacity2alt1[l=X-Y/Y-X,t=1]")
    assert row.rhs == pytest.approx(0.5 * (6.0 + 4.0))
    assert count_kind(model, "setup_w") == 0


def test_alt2_rows_and_variables():
    net = coupled_pair_network()
    model = build_model(net, coupled_pair_catalog(), net.horizon, ModelConfig(capacity_mode="single_track_alt2"))
    assert count_kind(model, "setup_w") == 3
    assert count_kind(model, "dirflag_beta") == 3
    beta = next(v for v in model.variables if v.ref.kind == "dirflag_beta")
    assert beta.integer and beta.ub == 1.0
    pair_rows = names_of(model, "Capacity2alt2")
    setup_rows = names_of(model, "Capacity2alt2setup")
    assert len(pair_rows) == 6 and len(setup_rows) == 6
    row = constraint(model, "Capacity2alt2[l=X-Y,t=1]")
    coefs = dict(row.terms)
    assert coefs[model.var("setup_w", 1, 1)] == 1.0
    assert coefs[model.var("linkcap", 1, 1, 1)] == 1.0
    assert coefs[model.var("linkcap", 2, 1, 1)] == 1.0


def test_single_track_mode_without_pairs_warns():
    net = line_network()
    cat = line_catalog(net)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build_model(net, cat, net.horizon, ModelConfig(capacity_mode="single_track_alt2"))
    assert any("single-track" in str(w.message) for w in caught)


def test_heterogeneous_rows_charge_cross_type_capacity():
    nodes = (StationNode(1, "A"), StationNode(2, "B"))
    links = (TrackLink(1, 1, 2, "A-B"),)
    horizon = Horizon(2)
    net = Network(
        train_types=(TrainType(1, "reg"), TrainType(2, "gt")),
        nodes=nodes,
        links=links,
        sigma={1: 1},
        capacity={(1, t): 5.0 for t in horizon.periods},
        duration={(1, 1): 0.2, (1, 2): 0.4},
        horizon=horizon,
    )
    routes = (Route(1, "r-reg", 1, 2, 1, (1,)), Route(2, "r-gt", 1, 2, 2, (1,)))
    demands = (Demand(1, "d-reg", 1, 2, 1, (1, 0)), Demand(2, "d-gt", 1, 2, 2, (1, 0)))
    cat = ServiceCatalog(demands, routes, derive_implements(demands, routes))
    model = build_model(net, cat, net.horizon, ModelConfig(capacity_mode="heterogeneous", k_het=0.25))
    row = constraint(model, "Capacity3[l=A-B,t=1]")
    coefs = dict(row.terms)
    # own allocation plus k-weighted other-type allocation, for both types
    assert coefs[model.var("linkcap", 1, 1, 1)] == pytest.approx(1.25)
    assert coefs[model.var("linkcap", 1, 1, 2)] == pytest.approx(1.25)


def test_build_is_deterministic():
    first = line_model()
    second = line_model()
    assert [v.name for v in first.variables] == [v.name for v in second.variables]
    assert [(c.name, c.terms, c.relation, c.rhs) for c in first.constraints] == [
        (c.name, c.terms, c.relation, c.rhs) for c in second.constraints
    ]
    assert first.objective == second.objective


def test_cancel3_only_on_request():
    base = line_model()
    assert not names_of(base, "Cancel3")
    with_it = line_model(config=ModelConfig(include_arrival_accounting=True))
    assert len(names_of(with_it, "Cancel3")) == 1


def test_flow3_origin_counts_departures():
    model = line_model()
    row = constraint(model, "Flow3[n=A,t=1,r=A-C-r1]")
    coefs = dict(row.terms)
    assert coefs == {
        model.var("in", 1, 1, 1): 1.0,
        model.var("dep", 1, 1): -1.0,
    }
    # an interior node sees only arriving link flows
    row = constraint(model, "Flow3[n=B,t=2,r=A-C-r1]")
    coefs = dict(row.terms)
    assert coefs[model.var("direct", 1, 2, 1)] == -1.0
    assert coefs[model.var("next", 1, 1, 1)] == -1.0


def test_arrival_slack_reaches_the_rhs():
    model = line_model(config=ModelConfig(arrival_slack=2.0))
    row = constraint(model, "Arrival1[r=A-C-r1,t=1]")
    assert row.relation == ">=" and row.rhs == -2.0
    coefs = dict(row.terms)
    assert coefs[model.var("arr", 1, 1)] == 1.0
    assert coefs[model.var("in", 3, 1, 1)] == -1.0


def test_heterogeneous_mode_solves():
    from railflow.bnb import solve_mip

    nodes = (StationNode(1, "A"), StationNode(2, "B"))
    links = (TrackLink(1, 1, 2, "A-B"),)
    horizon = Horizon(3)
    net = Network(
        train_types=(TrainType(1, "reg"), TrainType(2, "gt")),
        nodes=nodes,
        links=links,
        sigma={1: 1},
        capacity={(1, t): 5.0 for t in horizon.periods},
        duration={(1, 1): 0.2, (1, 2): 0.4},
        horizon=horizon,
    )
    routes = (Route(1, "r-reg", 1, 2, 1, (1,)), Route(2, "r-gt", 1, 2, 2, (1,)))
    demands = (Demand(1, "d-reg", 1, 2, 1, (1, 0, 0)), Demand(2, "d-gt", 1, 2, 2, (1, 0, 0)))
    cat = ServiceCatalog(demands, routes, derive_implements(demands, routes))
    model = build_model(net, cat, net.horizon, ModelConfig(capacity_mode="heterogeneous"))
    result = solve_mip(model)
    assert result.status == "optimal"
    assert result.value(model, "cancel_total", 1) == 0.0
    assert result.value(model, "cancel_total", 2) == 0.0


def test_big_m_default_dominates_capacity():
    net = coupled_pair_network(capacity=7.0)
    model = build_model(net, coupled_pair_catalog(), net.horizon, ModelConfig(capacity_mode="single_track_alt2"))
    assert model.big_m == pytest.approx(70.0)
    with pytest.raises(ModelError, match="big M"):
        build_model(
            net,
            coupled_pair_catalog(),
            net.horizon,
            ModelConfig(capacity_mode="single_track_alt2", big_m=5.0),
        )


LINK_FLOWS = ("direct", "next")
NODE_FLOWS = ("ext", "ni", "in", "aggr")


def bundled_model(scenario_dir, scenario, mode):
    from dataclasses import replace

    from railflow.scenario import build_scenario_model, load_scenario

    doc = load_scenario(scenario_dir / f"{scenario}.json")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # single-track modes on networks without pairs
        return build_scenario_model(replace(doc, config=replace(doc.config, capacity_mode=mode)))


@pytest.mark.parametrize("mode", CAPACITY_MODES)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_flows_declared_on_route_support_only(scenario_dir, scenario, mode):
    model = bundled_model(scenario_dir, scenario, mode)
    network = model.network
    for var in model.variables:
        kind, key = var.ref.kind, var.ref.key
        if kind in LINK_FLOWS:
            link_id, _, route_id = key
            assert link_id in model.catalog.route(route_id).links, var.name
        elif kind in NODE_FLOWS:
            node_id, t, route_id = key
            assert node_id in route_nodes(model.catalog.route(route_id), network), var.name
            assert kind != "in" or t >= 1, var.name

    used = set(model.objective)
    for row in model.constraints:
        used.update(idx for idx, _ in row.terms)
    unused = [v.name for i, v in enumerate(model.variables) if i not in used]
    assert not unused


@pytest.mark.parametrize("mode", CAPACITY_MODES)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_horizon_ends_are_bounds_not_rows(scenario_dir, scenario, mode):
    model = bundled_model(scenario_dir, scenario, mode)
    t_max = model.horizon.t_max
    for var in model.variables:
        kind, key = var.ref.kind, var.ref.key
        closed = (
            (kind in ("next", "ni") and key[1] in (0, t_max))
            or (kind == "aggr" and key[1] == 0)
            or (kind == "post" and key[1] in (0, t_max))
        )
        if closed:
            assert (var.lb, var.ub) == (0.0, 0.0), var.name
        elif kind != "ext":
            assert var.ub > 0.0, var.name
    # The only one-term rows left allocate a link to its single train type.
    singletons = {c.name.split("[")[0] for c in model.constraints if len(c.terms) == 1}
    assert singletons <= {"Capacity1", "Capacity3"}
    families = {c.name.split("[")[0] for c in model.constraints}
    assert not families & {"Demand1", "Demand2", "Bound4", "Bound5", "Bound6", "Aggregate1"}


def test_small_network_size(scenario_dir):
    model = bundled_model(scenario_dir, "small_network", "basic")
    assert len(model.variables) == 1450
    assert len(model.constraints) == 1123
