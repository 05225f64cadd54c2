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
    assert count_kind(model, "ni") == 3  # at A only: periods 0..2; B is the destination
    assert count_kind(model, "dep") == 2
    assert count_kind(model, "post") == 3
    assert count_kind(model, "cancel_t") == 2
    assert count_kind(model, "cancel_total") == 1


def test_zero_routes_leaves_demand_layer_only():
    net = line_network(durations=(0.5,), t_max=2, node_names=("A", "B"))
    demand = Demand(1, "A-B", 1, 2, 1, (1, 0))
    cat = ServiceCatalog((demand,), (), {1: ()})
    model = build_variables(net, cat, net.horizon, ModelConfig())
    for kind in ("dep", "direct", "next", "ni", "lag"):
        assert count_kind(model, kind) == 0
    assert count_kind(model, "post") == 3
    assert count_kind(model, "cancel_total") == 1


def test_every_variable_is_nonnegative():
    model = line_model()
    assert all(var.lb == 0.0 for var in model.variables)


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


def test_capacity1_row_of_the_three_station_line_by_hand(three_station_doc):
    # A-B carries the one route A-C-r1 at capacity 5: its direct arc of
    # period 1 counts in full, the crossings from period 0 and into period 2
    # count half each.
    from railflow.scenario import build_scenario_model

    model = build_scenario_model(three_station_doc)
    a_b, route = 1, 1
    row = constraint(model, "Capacity1[l=A-B,t=1]")
    assert row.terms == (
        (model.var("direct", a_b, 1, route), 1.0),
        (model.var("next", a_b, 0, route), 0.5),
        (model.var("next", a_b, 1, route), 0.5),
    )
    assert row.relation == "<=" and row.rhs == 5.0


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


def test_pace_row_of_the_three_station_line_by_hand(three_station_doc):
    # A-B takes 9 and B-C 12 of 60 minutes, so C lies 0.35 periods from A:
    # of the departures of period 1, 0.65 can reach C within it and 0.35 in
    # period 2.  What reaches C in period 2 comes over B-C, directly or as the
    # crossing from period 1.
    from railflow.scenario import build_scenario_model

    model = build_scenario_model(three_station_doc)
    c, b_c, route = 3, 2, 1
    row = constraint(model, "Pace[n=C,t=2,r=A-C-r1]")
    assert row.relation == "=" and row.rhs == 0.0
    assert dict(row.terms) == {
        model.var("lag", c, 2, route): 1.0,
        model.var("lag", c, 1, route): -1.0,
        model.var("dep", route, 2): pytest.approx(-0.65),
        model.var("dep", route, 1): pytest.approx(-0.35),
        model.var("direct", b_c, 2, route): 1.0,
        model.var("next", b_c, 1, route): 1.0,
    }
    # period 1 has no earlier lag
    assert dict(constraint(model, "Pace[n=C,t=1,r=A-C-r1]").terms) == {
        model.var("lag", c, 1, route): 1.0,
        model.var("dep", route, 1): pytest.approx(-0.65),
        model.var("direct", b_c, 1, route): 1.0,
        model.var("next", b_c, 0, route): 1.0,
    }


def test_objective_examples():
    model = line_model(volumes=(1, 0, 0))
    b_c = 2  # the route's last link: what flows over it in period t arrives in t
    values = np.zeros(len(model.variables))
    values[model.var("dep", 1, 1)] = 1.0
    values[model.var("direct", b_c, 2, 1)] = 1.0
    assert model.objective_value(values) == pytest.approx(1.0)  # (2 - 1) / 1
    values[model.var("direct", b_c, 2, 1)] = 0.0
    values[model.var("next", b_c, 2, 1)] = 1.0  # crosses into period 3
    assert model.objective_value(values) == pytest.approx(2.0)  # (3 - 1) / 1
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
    assert count_kind(model, "dirflag_beta") == 0


def test_alt2_rows_and_variables():
    net = coupled_pair_network(cap_back=4.0)
    config = ModelConfig(capacity_mode="single_track_alt2", k_setup=0.5)
    model = build_model(net, coupled_pair_catalog(), net.horizon, config)
    assert count_kind(model, "dirflag_beta") == 3
    beta = next(v for v in model.variables if v.ref.kind == "dirflag_beta")
    assert beta.integer and beta.ub == 1.0
    pair_rows = names_of(model, "Capacity2alt2")
    setup_rows = names_of(model, "Capacity2alt2setup")
    assert len(pair_rows) == 3 and len(setup_rows) == 6
    own = {
        model.var("direct", 1, 1, 1): 1.0,
        model.var("next", 1, 0, 1): 0.5,
        model.var("next", 1, 1, 1): 0.5,
    }
    opp = {
        model.var("direct", 2, 1, 2): 1.0,
        model.var("next", 2, 0, 2): 0.5,
        model.var("next", 2, 1, 2): 0.5,
    }
    beta, k, m = model.var("dirflag_beta", 1, 1), 0.5, model.big_m
    # both directions share the smaller capacity of the pair, 4
    pair = constraint(model, "Capacity2alt2[l=X-Y/Y-X,t=1]")
    assert (dict(pair.terms), pair.relation, pair.rhs) == ({**own, **opp}, "<=", 4.0)
    # k (own + opp) + own + M beta <= k cap + M: with beta = 1 the setup time
    # own / k fits next to both usages
    setup = constraint(model, "Capacity2alt2setup[l=X-Y,t=1]")
    both = {idx: k * coef for idx, coef in {**own, **opp}.items()}
    assert dict(setup.terms) == {**both, **{i: k * c + c for i, c in own.items()}, beta: m}
    assert setup.rhs == k * 4.0 + m
    # k (own + opp) + opp - M beta <= k cap: with beta = 0, opp / k fits
    setup = constraint(model, "Capacity2alt2setup[l=Y-X,t=1]")
    assert dict(setup.terms) == {**both, **{i: k * c + c for i, c in opp.items()}, beta: -m}
    assert setup.rhs == k * 4.0


def test_alt2_skips_a_pair_no_route_uses():
    net = coupled_pair_network()
    demand = Demand(1, "X-Y", 1, 2, 1, (1, 0, 0))
    model = build_model(
        net, ServiceCatalog((demand,), (), {1: ()}), net.horizon, ModelConfig(capacity_mode="single_track_alt2")
    )
    assert names_of(model, "Capacity2alt2") == names_of(model, "Capacity2alt2setup") == []


@pytest.mark.parametrize("k_setup", [0.5, 1.0])
def test_alt2_rows_admit_exactly_the_setup_rule(k_setup):
    # With the flag free in {0, 1}, the pair's rows admit a usage exactly when
    # own + opp + min(own, opp) / k_setup fits in the smaller capacity.  The
    # grid is dyadic, so the rows evaluate exactly, boundary cases included.
    net = coupled_pair_network(capacity=6.0, cap_back=4.5)
    config = ModelConfig(capacity_mode="single_track_alt2", k_setup=k_setup)
    model = build_model(net, coupled_pair_catalog(), net.horizon, config)
    rows = ConstraintSystem.from_rows([c for c in model.constraints if c.name.startswith("Capacity2alt2")])
    grid = np.arange(0.0, 5.0, 0.25)
    admitted_somewhere = rejected_somewhere = 0
    for own in grid:
        for opp in grid:
            values = np.zeros(len(model.variables))
            values[model.var("direct", 1, 1, 1)] = own
            values[model.var("direct", 2, 1, 2)] = opp
            admitted = False
            for flag in (0.0, 1.0):
                values[model.var("dirflag_beta", 1, 1)] = flag
                admitted |= not rows.violations(values).any()
            assert admitted == (own + opp + min(own, opp) / k_setup <= 4.5), (own, opp)
            admitted_somewhere += admitted
            rejected_somewhere += not admitted
    assert admitted_somewhere and rejected_somewhere


def test_single_track_mode_without_pairs_warns():
    net = line_network()
    cat = line_catalog(net)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build_model(net, cat, net.horizon, ModelConfig(capacity_mode="single_track_alt2"))
    assert any("single-track" in str(w.message) for w in caught)


def two_type_network():
    """A-B carries a route of each type, B-C one of type reg, C-A none."""
    nodes = (StationNode(1, "A"), StationNode(2, "B"), StationNode(3, "C"))
    links = (TrackLink(1, 1, 2, "A-B"), TrackLink(2, 2, 3, "B-C"), TrackLink(3, 3, 1, "C-A"))
    horizon = Horizon(2)
    net = Network(
        train_types=(TrainType(1, "reg"), TrainType(2, "gt")),
        nodes=nodes,
        links=links,
        sigma={1: 1, 2: 2, 3: 3},
        capacity={(l.id, t): 5.0 for l in links for t in horizon.periods},
        duration={(l.id, h): 0.2 for l in links for h in (1, 2)},
        horizon=horizon,
    )
    routes = (Route(1, "r-reg", 1, 3, 1, (1, 2)), Route(2, "r-gt", 1, 2, 2, (1,)))
    demands = (Demand(1, "d-reg", 1, 3, 1, (1, 0)), Demand(2, "d-gt", 1, 2, 2, (1, 0)))
    return net, ServiceCatalog(demands, routes, derive_implements(demands, routes))


def flow_terms(model, link_id, t, route_ids, charge=1.0):
    """A link's usage terms for the given routes, each times charge."""
    terms = {}
    for r in route_ids:
        terms[model.var("direct", link_id, t, r)] = charge
        terms[model.var("next", link_id, t - 1, r)] = 0.5 * charge
        terms[model.var("next", link_id, t, r)] = 0.5 * charge
    return terms


def test_heterogeneous_rows_charge_cross_type_capacity():
    net, cat = two_type_network()
    model = build_model(net, cat, net.horizon, ModelConfig(capacity_mode="heterogeneous", k_het=0.25))
    # two types on A-B: each flow term is charged 1 + 0.25 * (2 - 1)
    row = constraint(model, "Capacity3[l=A-B,t=1]")
    assert dict(row.terms) == pytest.approx(flow_terms(model, 1, 1, (1, 2), charge=1.25))
    assert row.relation == "<=" and row.rhs == 5.0
    # one type on B-C: the plain usage
    assert dict(constraint(model, "Capacity3[l=B-C,t=2]").terms) == flow_terms(model, 2, 2, (1,))
    # Capacity3 implies Capacity1 (k_het >= 0), so it takes its place
    assert not names_of(model, "Capacity1")
    assert names_of(model, "Capacity3") == [
        "Capacity3[l=A-B,t=1]",
        "Capacity3[l=A-B,t=2]",
        "Capacity3[l=B-C,t=1]",
        "Capacity3[l=B-C,t=2]",
    ]


def test_capacity_rows_charge_the_flow_of_every_route_on_the_link():
    net, cat = two_type_network()
    model = build_model(net, cat, net.horizon, ModelConfig())
    assert dict(constraint(model, "Capacity1[l=A-B,t=2]").terms) == flow_terms(model, 1, 2, (1, 2))
    assert dict(constraint(model, "Capacity1[l=B-C,t=1]").terms) == flow_terms(model, 2, 1, (1,))
    # C-A carries no route and has no capacity row
    assert names_of(model, "Capacity1") == [
        "Capacity1[l=A-B,t=1]",
        "Capacity1[l=A-B,t=2]",
        "Capacity1[l=B-C,t=1]",
        "Capacity1[l=B-C,t=2]",
    ]
    assert not [c.name for c in model.constraints if "l=C-A" in c.name]
    assert all(c.terms for c in model.constraints)


def test_build_is_deterministic():
    first = line_model()
    second = line_model()
    assert [v.name for v in first.variables] == [v.name for v in second.variables]
    assert [(c.name, c.terms, c.relation, c.rhs) for c in first.constraints] == [
        (c.name, c.terms, c.relation, c.rhs) for c in second.constraints
    ]
    assert first.objective == second.objective


def test_pace_rows_start_after_the_origin():
    model = line_model()
    # the origin has neither a lag nor a Pace row: departures are its inflow
    assert not [v.name for v in model.variables if v.ref.kind == "lag" and v.ref.key[0] == 1]
    assert not [name for name in names_of(model, "Pace") if name.startswith("Pace[n=A,")]
    # an interior node sees only the arriving link flows and the spread departures
    row = constraint(model, "Pace[n=B,t=2,r=A-C-r1]")
    assert dict(row.terms) == {
        model.var("lag", 2, 2, 1): 1.0,
        model.var("lag", 2, 1, 1): -1.0,
        model.var("dep", 1, 2): pytest.approx(-0.85),
        model.var("dep", 1, 1): pytest.approx(-0.15),
        model.var("direct", 1, 2, 1): 1.0,
        model.var("next", 1, 1, 1): 1.0,
    }


def test_flow2_departures_enter_at_origin_and_arrivals_leave_at_destination():
    model = line_model()  # one route A-B-C: B is passed through
    assert dict(constraint(model, "Flow2[n=A,t=2,r=A-C-r1]").terms) == {
        model.var("dep", 1, 2): 1.0,
        model.var("ni", 1, 1, 1): 1.0,
        model.var("ni", 1, 2, 1): -1.0,
        model.var("direct", 1, 2, 1): -1.0,
        model.var("next", 1, 2, 1): -1.0,
    }
    # what flows into the destination C leaves the route there: no inventory
    # and no balance row
    assert not [name for name in names_of(model, "Flow2") if name.startswith("Flow2[n=C,")]
    assert not [v.name for v in model.variables if v.ref.kind == "ni" and v.ref.key[0] == 3]
    through = dict(constraint(model, "Flow2[n=B,t=2,r=A-C-r1]").terms)
    assert model.var("dep", 1, 2) not in through
    assert not names_of(model, "Flow1")


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
NODE_FLOWS = ("ni", "lag")


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
            assert kind != "lag" or t >= 1, var.name

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
            or (kind == "post" and key[1] in (0, t_max))
        )
        if closed:
            assert (var.lb, var.ub) == (0.0, 0.0), var.name
        else:
            assert var.ub > 0.0, var.name
    families = {c.name.split("[")[0] for c in model.constraints}
    assert not families & {
        "Demand1", "Demand2", "Bound4", "Bound5", "Bound6", "Aggregate1",
        "Flow3", "Aggregate2.2", "Aggregate3", "Aggregate4", "Capacity4",
    }


@pytest.mark.parametrize("mode", CAPACITY_MODES)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_no_allocations_and_no_one_term_rows(scenario_dir, scenario, mode):
    model = bundled_model(scenario_dir, scenario, mode)
    assert not count_kind(model, "linkcap")
    assert not [c.name for c in model.constraints if len(c.terms) == 1]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_lag_and_pace_at_every_route_node_but_the_origin(scenario_dir, scenario):
    model = bundled_model(scenario_dir, scenario, "basic")
    network = model.network
    periods = list(model.horizon.periods)
    lags = {v.ref.key for v in model.variables if v.ref.kind == "lag"}
    paces = set(names_of(model, "Pace"))
    expected_lags, expected_paces = set(), set()
    for r in model.catalog.routes:
        for n_id in route_nodes(r, network)[1:]:
            for t in periods:
                expected_lags.add((n_id, t, r.id))
                expected_paces.add(f"Pace[n={network.node(n_id).name},t={t},r={r.name}]")
    assert lags == expected_lags
    assert paces == expected_paces
    origins = {(r.origin, r.id) for r in model.catalog.routes}
    assert not {(n_id, r_id) for n_id, _, r_id in lags} & origins


def test_small_network_size(scenario_dir):
    model = bundled_model(scenario_dir, "small_network", "basic")
    assert len(model.variables) == 669
    assert len(model.constraints) == 376
    assert not {v.ref.kind for v in model.variables} & {"in", "aggr", "arr"}


@pytest.mark.parametrize("mode", CAPACITY_MODES)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_equality_rows_have_full_row_rank(scenario_dir, scenario, mode):
    # No equality row of the standard form is a combination of the others
    # (each demand once had one: the sum of its Departure3 rows and Cancel1).
    from railflow.simplex import build_standard_form

    sf = build_standard_form(bundled_model(scenario_dir, scenario, mode))
    A = np.zeros((sf.n_rows, sf.n_cols))
    A[sf.rows, sf.cols] = sf.vals
    equal = np.flatnonzero(np.array(sf.relations) == "=")
    assert equal.size and np.linalg.matrix_rank(A[equal]) == equal.size
