import importlib.util
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from railflow.checks import ConstraintSystem
from railflow.model import (
    CAPACITY_MODES,
    KEY_AXES,
    ModelConfig,
    LinearConstraint,
    ModelError,
    ModelVariable,
    TimeExpandedModel,
    build_model,
    build_variables,
    departure_spread,
)
from railflow.scenario import load_scenario, run
from railflow.simplex import OPTIMAL
from support import line_doc, line_model, line_raw, mask, rebuilt, usage
from test_golden import SCENARIOS


def count_kind(model, kind):
    return sum(1 for v in model.variables if v.kind == kind)


def names_of(model, family):
    return [c.name for c in model.constraints if c.name.startswith(family + "[")]


def constraint(model, name):
    for c in model.constraints:
        if c.name == name:
            return c
    raise KeyError(name)


def test_variable_counts_single_link():
    doc = line_doc(minutes=(30,), volumes=(1, 0), t_max=2, route_name="A-B-r1", demand_name="A-B")
    model = build_variables(doc)
    # B lies half a period from A, so the route reaches it in period 1
    assert count_kind(model, "direct") == 2  # |L| * |T| * |R|
    assert count_kind(model, "next") == 1  # period 1: nothing crosses out of the last period
    assert count_kind(model, "ni") == 1  # at A only, period 1; B is the destination
    assert count_kind(model, "dep") == 2
    assert count_kind(model, "post") == 1  # out of period 1 into 2
    assert count_kind(model, "cancel") == 2
    assert count_kind(model, "cancel_total") == 1


def test_zero_routes_leaves_demand_layer_only():
    raw = line_raw(minutes=(30,), volumes=(1, 0), t_max=2, demand_name="A-B")
    raw["routes"] = []
    model = build_variables(load_scenario(raw))
    for kind in ("dep", "direct", "next", "ni", "lag"):
        assert count_kind(model, kind) == 0
    assert count_kind(model, "post") == 1
    assert count_kind(model, "cancel_total") == 1


def test_every_variable_is_nonnegative():
    model = line_model()
    assert all(var.lb == 0.0 for var in model.variables)


def test_variables_are_keyed_by_the_documents_names():
    model = line_model()
    assert model.variables[model.var("direct", "A-B", 1, "A-C-r1")].name == "direct(A-B,1,A-C-r1)"
    assert model.variables[model.var("lag", "C", 2, "A-C-r1")].name == "lag(C,2,A-C-r1)"
    assert model.variables[model.var("cancel_total", "A-C")].name == "cancel_total(A-C)"
    assert model.variables[model.var("cancel", "A-C", 2)].name == "cancel(A-C,2)"
    with pytest.raises(KeyError):
        model.var("direct", 1, 1, 1)


def test_build_needs_the_tcr_overrides_applied():
    raw = line_raw()
    raw["tcr_overrides"] = [{"link": "A-B", "capacity": 0}]
    with pytest.raises(ModelError, match="tcr_overrides"):
        build_model(load_scenario(raw))


def test_capacity_usage_expression_matches_worked_numbers():
    # splits 0.85/0.15 on the first link and 0.65/0.20 on the second:
    # charge = direct + half of each adjacent crossing flow
    model = line_model()
    values = np.zeros(len(model.variables))
    values[model.var("direct", "A-B", 1, "A-C-r1")] = 0.85
    values[model.var("next", "A-B", 1, "A-C-r1")] = 0.15
    assert usage(model, values, "A-B", 1) == pytest.approx(0.925)
    values[model.var("direct", "B-C", 2, "A-C-r1")] = 0.15
    values[model.var("next", "B-C", 1, "A-C-r1")] = 0.20
    assert usage(model, values, "B-C", 2) == pytest.approx(0.25)
    assert usage(model, values, "B-C", 3) == pytest.approx(0.0)


def test_capacity1_row_of_the_three_station_line_by_hand(three_station_doc):
    # A-B carries the one route A-C-r1 at capacity 5: its direct arc of
    # period 1 counts in full, the crossing into period 2 counts half, and no
    # crossing comes in from period 0, which has no variables.
    from railflow.scenario import build_scenario_model

    model = build_scenario_model(three_station_doc)
    a_b, route = "A-B", "A-C-r1"
    row = constraint(model, "Capacity1[l=A-B,t=1]")
    assert row.terms == (
        (model.var("direct", a_b, 1, route), 1.0),
        (model.var("next", a_b, 1, route), 0.5),
    )
    with pytest.raises(KeyError):
        model.var("next", a_b, 0, route)
    assert row.relation == "<=" and row.rhs == 5.0


def test_departure_balance_recurrence():
    # requested (3,0,0); postpone one unit from period 1 to 2
    model = line_model(volumes=(3, 0, 0))
    values = np.zeros(len(model.variables))
    values[model.var("dep", "A-C-r1", 1)] = 2.0
    values[model.var("dep", "A-C-r1", 2)] = 1.0
    values[model.var("post", "A-C", 1)] = 1.0
    system = ConstraintSystem.from_model(model)
    residuals = {
        c.name: v
        for c, v in zip(model.constraints, system.violations(values))
        if c.name.startswith("Departure3[")
    }
    assert all(v <= 1e-12 for v in residuals.values())
    # and an unbalanced vector is caught
    values[model.var("dep", "A-C-r1", 2)] = 0.5
    residuals = [
        v
        for c, v in zip(model.constraints, system.violations(values))
        if c.name.startswith("Departure3[")
    ]
    assert max(residuals) == pytest.approx(0.5)


def test_post_variables_only_between_the_horizon_ends():
    model = line_model(t_max=2, volumes=(1, 0))
    post = model.variables[model.var("post", "A-C", 1)]
    assert (post.lb, post.ub) == (0.0, math.inf)
    for t in (0, 2):
        with pytest.raises(KeyError):
            model.var("post", "A-C", t)


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
    c, b_c, route = "C", "B-C", "A-C-r1"
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
    # period 1 has no earlier lag and no crossing from period 0
    assert dict(constraint(model, "Pace[n=C,t=1,r=A-C-r1]").terms) == {
        model.var("lag", c, 1, route): 1.0,
        model.var("dep", route, 1): pytest.approx(-0.65),
        model.var("direct", b_c, 1, route): 1.0,
    }


def test_objective_examples():
    model = line_model(volumes=(1, 0, 0))
    b_c, route = "B-C", "A-C-r1"  # the route's last link: what flows over it in period t arrives in t
    values = np.zeros(len(model.variables))
    values[model.var("dep", route, 1)] = 1.0
    values[model.var("direct", b_c, 2, route)] = 1.0
    assert model.objective_value(values) == pytest.approx(1.0)  # (2 - 1) / 1
    values[model.var("direct", b_c, 2, route)] = 0.0
    values[model.var("next", b_c, 2, route)] = 1.0  # crosses into period 3
    assert model.objective_value(values) == pytest.approx(2.0)  # (3 - 1) / 1
    values[:] = 0.0
    values[model.var("cancel_total", "A-C")] = 1.0
    assert model.objective_value(values) == pytest.approx(1000.0)
    values[:] = 0.0
    values[model.var("post", "A-C", 1)] = 1.0
    assert model.objective_value(values) == pytest.approx(20.0)


def test_zero_total_volume_drops_travel_term():
    model = line_model(volumes=(0, 0, 0))
    kinds = {model.variables[idx].kind for idx in np.flatnonzero(model.objective)}
    assert kinds <= {"cancel_total", "post"}


def coupled_pair_raw(capacity=6.0, cap_back=None, config=None):
    """X-Y and Y-X as one single-track pair, a route and a demand each way."""
    return {
        "name": "pair",
        "period_length_minutes": 60,
        "horizon": 3,
        "train_types": ["reg"],
        "nodes": ["X", "Y"],
        "links": [{"name": "X-Y", "tail": "X", "head": "Y"}, {"name": "Y-X", "tail": "Y", "head": "X"}],
        "single_track_pairs": [["X-Y", "Y-X"]],
        "capacities": {"links": {"X-Y": capacity, "Y-X": capacity if cap_back is None else cap_back}},
        "durations_minutes": {"X-Y": {"reg": 15}, "Y-X": {"reg": 15}},
        "routes": [
            {"name": "XY-p1", "train_type": "reg", "links": ["X-Y"]},
            {"name": "YX-p1", "train_type": "reg", "links": ["Y-X"]},
        ],
        "demands": [
            {"name": "X-Y-p", "origin": "X", "destination": "Y", "train_type": "reg", "volumes": [2, 0, 0]},
            {"name": "Y-X-p", "origin": "Y", "destination": "X", "train_type": "reg", "volumes": [2, 0, 0]},
        ],
        "config": config or {},
    }


def coupled_pair_model(**kwargs):
    return build_model(load_scenario(coupled_pair_raw(**kwargs)))


def test_alt1_shares_the_mean_of_both_directions():
    model = coupled_pair_model(cap_back=4.0, config={"capacity_mode": "single_track_alt1"})
    rows = names_of(model, "Capacity2alt1")
    assert len(rows) == 3  # one per period for the single pair
    row = constraint(model, "Capacity2alt1[l=X-Y/Y-X,t=1]")
    assert row.rhs == pytest.approx(0.5 * (6.0 + 4.0))
    assert count_kind(model, "beta") == 0


def test_alt2_rows_and_variables():
    model = coupled_pair_model(cap_back=4.0, config={"capacity_mode": "single_track_alt2", "k_setup": 0.5})
    assert count_kind(model, "beta") == 3
    beta = next(v for v in model.variables if v.kind == "beta")
    assert beta.integer and beta.ub == 1.0
    pair_rows = names_of(model, "Capacity2alt2")
    setup_rows = names_of(model, "Capacity2alt2setup")
    assert len(pair_rows) == 3 and len(setup_rows) == 6
    # period 1: no crossing comes in from period 0
    own = {model.var("direct", "X-Y", 1, "XY-p1"): 1.0, model.var("next", "X-Y", 1, "XY-p1"): 0.5}
    opp = {model.var("direct", "Y-X", 1, "YX-p1"): 1.0, model.var("next", "Y-X", 1, "YX-p1"): 0.5}
    beta, k, m = model.var("beta", "X-Y", 1), 0.5, 60.0  # M is 10 x the largest capacity, 6
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
    raw = coupled_pair_raw(config={"capacity_mode": "single_track_alt2"})
    raw["routes"] = []
    model = build_model(load_scenario(raw))
    assert names_of(model, "Capacity2alt2") == names_of(model, "Capacity2alt2setup") == []


@pytest.mark.parametrize("k_setup", [0.5, 1.0])
def test_alt2_rows_admit_exactly_the_setup_rule(k_setup):
    # With the flag free in {0, 1}, the pair's rows admit a usage exactly when
    # own + opp + min(own, opp) / k_setup fits in the smaller capacity.  The
    # grid is dyadic, so the rows evaluate exactly, boundary cases included.
    model = coupled_pair_model(
        capacity=6.0, cap_back=4.5, config={"capacity_mode": "single_track_alt2", "k_setup": k_setup}
    )
    rows = rebuilt(model, rows=[c for c in model.constraints if c.name.startswith("Capacity2alt2")]).rows
    grid = np.arange(0.0, 5.0, 0.25)
    admitted_somewhere = rejected_somewhere = 0
    for own in grid:
        for opp in grid:
            values = np.zeros(len(model.variables))
            values[model.var("direct", "X-Y", 1, "XY-p1")] = own
            values[model.var("direct", "Y-X", 1, "YX-p1")] = opp
            admitted = False
            for flag in (0.0, 1.0):
                values[model.var("beta", "X-Y", 1)] = flag
                admitted |= not rows.violations(values).any()
            assert admitted == (own + opp + min(own, opp) / k_setup <= 4.5), (own, opp)
            admitted_somewhere += admitted
            rejected_somewhere += not admitted
    assert admitted_somewhere and rejected_somewhere


def test_single_track_mode_without_pairs_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        line_model(config=ModelConfig(capacity_mode="single_track_alt2"))
    assert any("single-track" in str(w.message) for w in caught)


def two_type_model(config=None):
    """A-B carries a route of each type, B-C one of type reg, C-A none."""
    links = {"A-B": ("A", "B"), "B-C": ("B", "C"), "C-A": ("C", "A")}
    return build_model(load_scenario({
        "period_length_minutes": 60,
        "horizon": 2,
        "train_types": ["reg", "gt"],
        "nodes": ["A", "B", "C"],
        "links": [{"name": x, "tail": a, "head": b} for x, (a, b) in links.items()],
        "capacities": {"default": 5.0},
        "durations_minutes": {x: {"reg": 12, "gt": 12} for x in links},
        "routes": [
            {"name": "r-reg", "train_type": "reg", "links": ["A-B", "B-C"]},
            {"name": "r-gt", "train_type": "gt", "links": ["A-B"]},
        ],
        "demands": [
            {"name": "d-reg", "origin": "A", "destination": "C", "train_type": "reg", "volumes": [1, 0]},
            {"name": "d-gt", "origin": "A", "destination": "B", "train_type": "gt", "volumes": [1, 0]},
        ],
        "config": config or {},
    }))


def flow_terms(model, link, t, routes, charge=1.0):
    """A link's usage terms for the given routes, each times charge.

    Every route of two_type_model reaches its links in period 1, so only the
    horizon ends drop a crossing: none comes from period 0 or leaves t_max.
    """
    terms = {}
    for r in routes:
        terms[model.var("direct", link, t, r)] = charge
        for s in (t - 1, t):
            if 1 <= s < model.doc.t_max:
                terms[model.var("next", link, s, r)] = 0.5 * charge
    return terms


def test_heterogeneous_rows_charge_cross_type_capacity():
    model = two_type_model({"capacity_mode": "heterogeneous", "k_het": 0.25})
    # two types on A-B: each flow term is charged 1 + 0.25 * (2 - 1)
    row = constraint(model, "Capacity3[l=A-B,t=1]")
    assert dict(row.terms) == pytest.approx(flow_terms(model, "A-B", 1, ("r-reg", "r-gt"), charge=1.25))
    assert row.relation == "<=" and row.rhs == 5.0
    # one type on B-C: the plain usage
    assert dict(constraint(model, "Capacity3[l=B-C,t=2]").terms) == flow_terms(model, "B-C", 2, ("r-reg",))
    # Capacity3 implies Capacity1 (k_het >= 0), so it takes its place
    assert not names_of(model, "Capacity1")
    assert names_of(model, "Capacity3") == [
        "Capacity3[l=A-B,t=1]",
        "Capacity3[l=A-B,t=2]",
        "Capacity3[l=B-C,t=1]",
        "Capacity3[l=B-C,t=2]",
    ]


def test_capacity_rows_charge_the_flow_of_every_route_on_the_link():
    model = two_type_model()
    assert dict(constraint(model, "Capacity1[l=A-B,t=2]").terms) == flow_terms(model, "A-B", 2, ("r-reg", "r-gt"))
    assert dict(constraint(model, "Capacity1[l=B-C,t=1]").terms) == flow_terms(model, "B-C", 1, ("r-reg",))
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
    assert first.objective.tobytes() == second.objective.tobytes()


def test_pace_rows_start_after_the_origin():
    model = line_model()
    # the origin has neither a lag nor a Pace row: departures are its inflow
    assert not [v.name for v in model.variables if v.kind == "lag" and v.key[0] == "A"]
    assert not [name for name in names_of(model, "Pace") if name.startswith("Pace[n=A,")]
    # an interior node sees only the arriving link flows and the spread departures
    row = constraint(model, "Pace[n=B,t=2,r=A-C-r1]")
    r = "A-C-r1"
    assert dict(row.terms) == {
        model.var("lag", "B", 2, r): 1.0,
        model.var("lag", "B", 1, r): -1.0,
        model.var("dep", r, 2): pytest.approx(-0.85),
        model.var("dep", r, 1): pytest.approx(-0.15),
        model.var("direct", "A-B", 2, r): 1.0,
        model.var("next", "A-B", 1, r): 1.0,
    }


def test_flow2_departures_enter_at_origin_and_arrivals_leave_at_destination():
    model = line_model()  # one route A-B-C: B is passed through
    r = "A-C-r1"
    assert dict(constraint(model, "Flow2[n=A,t=2,r=A-C-r1]").terms) == {
        model.var("dep", r, 2): 1.0,
        model.var("ni", "A", 1, r): 1.0,
        model.var("ni", "A", 2, r): -1.0,
        model.var("direct", "A-B", 2, r): -1.0,
        model.var("next", "A-B", 2, r): -1.0,
    }
    # what flows into the destination C leaves the route there: no inventory
    # and no balance row
    assert not [name for name in names_of(model, "Flow2") if name.startswith("Flow2[n=C,")]
    assert not [v.name for v in model.variables if v.kind == "ni" and v.key[0] == "C"]
    through = dict(constraint(model, "Flow2[n=B,t=2,r=A-C-r1]").terms)
    assert model.var("dep", r, 2) not in through
    assert through == {
        model.var("ni", "B", 1, r): 1.0,
        model.var("ni", "B", 2, r): -1.0,
        model.var("direct", "A-B", 2, r): 1.0,
        model.var("next", "A-B", 1, r): 1.0,
        model.var("direct", "B-C", 2, r): -1.0,
        model.var("next", "B-C", 2, r): -1.0,
    }
    assert not names_of(model, "Flow1")


def test_heterogeneous_mode_solves():
    from railflow.bnb import solve_mip

    model = build_model(load_scenario({
        "period_length_minutes": 60,
        "horizon": 3,
        "train_types": ["reg", "gt"],
        "nodes": ["A", "B"],
        "links": [{"name": "A-B", "tail": "A", "head": "B"}],
        "capacities": {"default": 5.0},
        "durations_minutes": {"A-B": {"reg": 12, "gt": 24}},
        "routes": [
            {"name": "r-reg", "train_type": "reg", "links": ["A-B"]},
            {"name": "r-gt", "train_type": "gt", "links": ["A-B"]},
        ],
        "demands": [
            {"name": "d-reg", "origin": "A", "destination": "B", "train_type": "reg", "volumes": [1, 0, 0]},
            {"name": "d-gt", "origin": "A", "destination": "B", "train_type": "gt", "volumes": [1, 0, 0]},
        ],
        "config": {"capacity_mode": "heterogeneous"},
    }))
    result = solve_mip(model)
    assert result.status == "optimal"
    assert result.values[model.var("cancel_total", "d-reg")] == 0.0
    assert result.values[model.var("cancel_total", "d-gt")] == 0.0


@pytest.mark.parametrize("capacity, big_m", [(7.0, 70.0), (0.5, 10.0)])
def test_big_m_is_ten_times_the_largest_capacity_and_at_least_ten(capacity, big_m):
    model = coupled_pair_model(capacity=capacity, config={"capacity_mode": "single_track_alt2"})
    beta = model.var("beta", "X-Y", 1)
    assert dict(constraint(model, "Capacity2alt2setup[l=X-Y,t=1]").terms)[beta] == big_m
    assert dict(constraint(model, "Capacity2alt2setup[l=Y-X,t=1]").terms)[beta] == -big_m


LINK_FLOWS = ("direct", "next")
NODE_FLOWS = ("ni", "lag")


def bundled_model(scenario_dir, scenario, mode):
    from railflow.scenario import build_scenario_model

    doc = load_scenario(scenario_dir / f"{scenario}.json")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # single-track modes on networks without pairs
        return build_scenario_model(replace(doc, config=replace(doc.config, capacity_mode=mode)))


@pytest.mark.parametrize("mode", CAPACITY_MODES)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_flows_declared_on_route_support_only(scenario_dir, scenario, mode):
    model = bundled_model(scenario_dir, scenario, mode)
    links_of = {r.name: r.links for r in model.doc.routes}
    for var in model.variables:
        kind, key = var.kind, var.key
        if kind in LINK_FLOWS:
            link, _, route = key
            assert link in links_of[route], var.name
        elif kind in NODE_FLOWS:
            node, t, route = key
            assert node in model.nodes_of[route], var.name
            assert kind != "lag" or t >= 1, var.name

    used = set(np.flatnonzero(model.objective).tolist())
    for row in model.constraints:
        used.update(idx for idx, _ in row.terms)
    unused = [v.name for i, v in enumerate(model.variables) if i not in used]
    assert not unused


@pytest.mark.parametrize("mode", CAPACITY_MODES)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_horizon_ends_declare_no_variables(scenario_dir, scenario, mode):
    # Nothing crosses, stands or is postponed into period 1 or out of t_max,
    # so those next, ni and post variables are not declared at all; and no
    # declared variable is pinned at 0 by its bounds.
    model = bundled_model(scenario_dir, scenario, mode)
    t_max = model.doc.t_max
    ends = []
    for r in model.doc.routes:
        ends += [("next", link, t, r.name) for link in r.links for t in (0, t_max)]
        ends += [("ni", n, t, r.name) for n in model.nodes_of[r.name][:-1] for t in (0, t_max)]
    ends += [("post", d.name, t) for d in model.doc.demands for t in (0, t_max)]
    assert ends
    for kind, *key in ends:
        with pytest.raises(KeyError):
            model.var(kind, *key)
    assert {"next", "ni", "post"} <= {v.kind for v in model.variables}
    assert all(var.ub > 0.0 for var in model.variables)
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
    # from the first period that departures of period 1 can reach the node:
    # 1 + the whole periods of its cumulative duration, snapped as in
    # departure_spread
    model = bundled_model(scenario_dir, scenario, "basic")
    doc = model.doc
    lags = {v.key for v in model.variables if v.kind == "lag"}
    paces = set(names_of(model, "Pace"))
    expected_lags, expected_paces = set(), set()
    for route in doc.routes:
        r, reach = route.name, 0.0
        for link, n in zip(route.links, model.nodes_of[r][1:]):
            reach += doc.durations[(link, route.train_type)]
            for t in range(1 + math.floor(reach + 1e-9), doc.t_max + 1):
                expected_lags.add((n, t, r))
                expected_paces.add(f"Pace[n={n},t={t},r={r}]")
    assert lags == expected_lags
    assert paces == expected_paces
    origins = {(nodes[0], r) for r, nodes in model.nodes_of.items()}
    assert not {(n, r) for n, _, r in lags} & origins


def test_small_network_size(scenario_dir):
    model = bundled_model(scenario_dir, "small_network", "basic")
    assert len(model.variables) == 581
    assert len(model.constraints) == 371
    # F-G and F-H carry, in period 1, only one route's crossing into period
    # 2: that capacity row of one term, 0.5 next <= 5, is the crossing's bound
    rows = {c.name for c in model.constraints}
    for link, route in (("F-G", "D-G-f1"), ("F-H", "A-H-f2")):
        assert f"Capacity1[l={link},t=1]" not in rows and f"Capacity1[l={link},t=2]" in rows
        assert model.variables[model.var("next", link, 1, route)].ub == 10.0
    assert not {v.kind for v in model.variables} & {"in", "aggr", "arr"}


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


def synth(scenario_dir):
    """The benchmark's seeded line generator, imported read only."""
    spec = importlib.util.spec_from_file_location("synth", scenario_dir.parent / "perfbench" / "synth.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def structural_zeros(model):
    """Rows and columns that a forcing-row pass from the Flow2 and Pace rows holds at 0.

    Every variable is >= 0, so a forcing row, one with b = 0 and live terms
    of one sign (positive for "<=", negative for ">=", either for "="),
    holds each of its live columns at 0 in every feasible point.  A column
    with upper bound 0 is not live.  The pass starts from the Flow2 and
    Pace rows, where a route's pace makes such zeros, and follows each zero
    column into every row it is in.  Zero-volume periods and capacities
    closed to 0 are zeros of the data and stay out of the seed.
    """
    rows_of = {}
    for i, row in enumerate(model.constraints):
        for idx, _ in row.terms:
            rows_of.setdefault(idx, []).append(i)
    dead = {idx for idx, var in enumerate(model.variables) if var.ub == 0.0}
    queue = [i for i, row in enumerate(model.constraints) if row.name.startswith(("Flow2[", "Pace["))]
    forcing, forced = set(), set()
    while queue:
        i = queue.pop()
        row = model.constraints[i]
        live = [(idx, coef) for idx, coef in row.terms if idx not in dead]
        signs = {coef > 0 for _, coef in live}
        one_way = {"<=": {True}, ">=": {False}, "=": signs}[row.relation]
        if i in forcing or row.rhs != 0.0 or not live or len(signs) > 1 or signs != one_way:
            continue
        forcing.add(i)
        for idx, _ in live:
            dead.add(idx)
            forced.add(idx)
            queue += rows_of[idx]
    return sorted(model.constraints[i].name for i in forcing), sorted(model.variables[i].name for i in forced)


@pytest.mark.parametrize("mode", CAPACITY_MODES)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_no_structural_zero_is_left(scenario_dir, scenario, mode):
    assert structural_zeros(bundled_model(scenario_dir, scenario, mode)) == ([], [])


@pytest.mark.parametrize("stations", [4, 8, 12, 16])
@pytest.mark.parametrize("single_track", [0, 1, 2])
def test_no_structural_zero_is_left_on_generated_lines(scenario_dir, stations, single_track):
    doc = load_scenario(synth(scenario_dir).line_scenario(11, stations, 6, stations, single_track=single_track))
    assert structural_zeros(build_model(doc)) == ([], [])


def test_fixture_route_nodes(small_doc):
    from railflow.scenario import build_scenario_model

    assert build_scenario_model(small_doc).nodes_of["A-H-f1"] == ("A", "C", "E", "H")


def reach(model, node, route):
    """Cumulative duration from the route's origin to node, read off its last Pace row.

    departure_spread turns a duration d into shares at whole-period offsets
    whose mean offset is d, up to its 1e-9 snap to a whole period.
    """
    t = model.doc.t_max
    row = constraint(model, f"Pace[n={node},t={t},r={route}]")
    offset = {model.var("dep", route, s): t - s for s in range(1, t + 1)}
    return sum(-coef * offset[idx] for idx, coef in row.terms if idx in offset)


def test_reach_is_the_prefix_sum_of_durations():
    model = line_model(minutes=(9, 12))
    assert reach(model, "B", "A-C-r1") == pytest.approx(0.15)
    assert reach(model, "C", "A-C-r1") == pytest.approx(0.35)


def test_reach_over_a_zero_length_link():
    model = line_model(minutes=(0,), volumes=(1, 0, 0))
    assert reach(model, "B", "A-C-r1") == 0.0


def test_quarter_period_crossing_volume():
    # one-hour periods, 15-minute traversal: a quarter of any departing
    # volume crosses into the next period, so 1 train of 4 does
    model = line_model(minutes=(15,), volumes=(4, 0, 0))
    assert reach(model, "B", "A-C-r1") * 4 == pytest.approx(1.0)


@given(st.lists(st.floats(min_value=0.0, max_value=60.0, allow_nan=False), min_size=1, max_size=6))
def test_reach_is_prefix_additive(minutes):
    names = tuple(f"N{i}" for i in range(len(minutes) + 1))
    model = line_model(minutes=tuple(minutes), node_names=names, t_max=8, volumes=(1,) + (0,) * 7)
    assert model.nodes_of["A-C-r1"] == names
    reaches = [0.0] + [reach(model, n, "A-C-r1") for n in names[1:]]
    steps = [b - a for a, b in zip(reaches, reaches[1:])]
    assert steps == pytest.approx([m / 60 for m in minutes], abs=1e-8)


def test_single_track_pairs_come_from_the_document(small_doc):
    from railflow.scenario import build_scenario_model

    model = build_scenario_model(small_doc)
    assert model.single_track_pairs == (("F-H", "H-F"),)
    double = replace(model.doc, single_track_pairs=(), config=ModelConfig())
    assert build_model(double).single_track_pairs == ()


def test_a_reversed_pair_builds_the_same_model(tmp_path):
    # [later link, earlier link] names the same pair: the earlier link in
    # links stands for it, so rows, beta names and the setup row stay put
    from railflow.mps_io import export_model_text
    from railflow.scenario import report_capacity_csv, run

    config = {"capacity_mode": "single_track_alt2"}
    forward = load_scenario(coupled_pair_raw(config=config))
    backward = load_scenario(dict(coupled_pair_raw(config=config), single_track_pairs=[["Y-X", "X-Y"]]))
    assert backward.single_track_pairs == (("Y-X", "X-Y"),)
    text = export_model_text(build_model(forward), name="pair")
    assert export_model_text(build_model(backward), name="pair") == text
    assert "beta(X-Y,1)" in text and "beta(Y-X," not in text
    output = run(backward)
    assert output.capacity.setup_pairs == (("X-Y", "Y-X"),)
    assert report_capacity_csv(output.capacity) == report_capacity_csv(run(forward).capacity)
    assert b"\nsetup X-Y," in report_capacity_csv(output.capacity)


def assert_names_are_keys(model):
    names = [v.name for v in model.variables]
    assert names == [f"{v.kind}({','.join(map(str, v.key))})" for v in model.variables]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mode", CAPACITY_MODES)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_variable_names_are_their_keys(scenario_dir, scenario, mode):
    assert_names_are_keys(bundled_model(scenario_dir, scenario, mode))


@pytest.mark.parametrize("single_track", [0, 1, 2])
def test_variable_names_are_their_keys_on_generated_lines(scenario_dir, single_track):
    doc = load_scenario(synth(scenario_dir).line_scenario(11, 4, 6, 4, single_track=single_track))
    doc = replace(doc, config=replace(doc.config, capacity_mode="single_track_alt2"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # no single-track pair when single_track is 0
        model = build_model(doc)
    assert count_kind(model, "beta") == single_track * doc.t_max
    assert_names_are_keys(model)


def test_lookup_finds_no_variable_outside_its_window():
    model = line_model()
    t_max = model.doc.t_max
    assert model.lookup("next", 0, t_max, 0) == -1 and model.lookup("post", 0, t_max) == -1
    assert model.lookup("dep", 0, 1) == model.var("dep", "A-C-r1", 1) >= 0
    with pytest.raises(KeyError):
        model.var("post", "A-C", t_max)


def test_a_place_declared_twice_is_rejected():
    # Nothing of a rejected declaration is declared.
    model = TimeExpandedModel(line_doc())
    model.declare("dep", mask(model, "dep", [("A-C-r1", 1)]))
    with pytest.raises(ModelError, match=r"variable dep\(A-C-r1,1\) declared twice"):
        model.declare("dep", mask(model, "dep", [("A-C-r1", 2), ("A-C-r1", 1)]))
    assert [v.name for v in model.variables] == ["dep(A-C-r1,1)"]
    assert model.var("dep", "A-C-r1", 1) == 0
    with pytest.raises(KeyError):
        model.var("dep", "A-C-r1", 2)


def test_a_bare_place_declared_twice_is_rejected():
    # A bare kind's places are its key axis, checked as a document's are.
    model = TimeExpandedModel(kinds={"x": 3})
    model.declare("x", np.array([False, True, False]))
    with pytest.raises(ModelError, match=r"variable x\(1\) declared twice"):
        model.declare("x", np.array([True, True, False]))
    assert model.names == ("x(1)",)
    assert model.bound_arrays()[0].size == 1


def test_var_and_lookup_find_a_bare_variable():
    # Bare kinds each have their own axis; indices follow declaration order.
    model = TimeExpandedModel(kinds={"x": 3, "idle": 2})
    model.declare("x", np.array([False, True, True]), ub=4.0)
    model.declare("idle", np.array([True, False]), integer=True)
    model.declare("x", np.array([True, False, False]))
    assert model.names == ("x(1)", "x(2)", "idle(0)", "x(0)")
    assert [model.var("x", j) for j in range(3)] == [3, 0, 1]
    assert model.var("idle", 0) == 2
    np.testing.assert_array_equal(model.lookup("x", np.array([2, 0, 1, -1])), [1, 3, 0, -1])
    np.testing.assert_array_equal(model.lookup("idle", np.arange(2)), [2, -1])
    assert model.variables[3] == ModelVariable("x", (0,), "x(0)", 0.0, np.inf, False)
    for kind, key in (("idle", (1,)), ("x", (3,)), ("x", (0, 0)), ("y", (0,))):
        with pytest.raises(KeyError):
            model.var(kind, *key)
    with pytest.raises(ModelError, match="unknown variable kind 'y'"):
        model.lookup("y", 0)


def test_family_call_on_a_hand_written_model():
    # Five rows of four term columns (direct, direct, direct, next on A-B),
    # with per-row periods and coefficients, appended in one add_rows call.
    model = TimeExpandedModel(line_doc())
    d1, d2 = model.declare("direct", mask(model, "direct", [("A-B", 1, "A-C-r1"), ("A-B", 2, "A-C-r1")]))
    (n1,) = model.declare("next", mask(model, "next", [("A-B", 1, "A-C-r1")]))
    link, route = model.positions["link"]["A-B"], model.positions["route"]["A-C-r1"]
    periods = np.array([[1, 1, 1, 1], [1, 1, 2, 1], [3, 2, 2, 2], [3, 3, 3, 3], [1, 1, 1, 3]])
    coefs = np.array(
        [
            [0.1, 0.2, 0.3, 1.0],  # direct(1) thrice: summed in term order
            [1.0, -1.0, 1.0, 2.0],  # direct(1) sums to 0 and drops
            [5.0, 1.0, 1.0, 1.0],  # direct(3) and next(2) undeclared: one term left
            [1.0, 1.0, 1.0, 1.0],  # nothing declared: no row
            [1.0, -1.0, 0.0, 1.0],  # emptied by the sum of 0: no row
        ]
    )
    kinds = ("direct", "direct", "direct", "next")
    idx = np.column_stack([model.lookup(kind, link, periods[:, j], route) for j, kind in enumerate(kinds)])
    names = ["sum", "zero", "bound", "undeclared", "emptied"]
    model.add_rows(names, "<=", [1.0, 2.0, 3.0, 4.0, 5.0], idx, coefs, bound=True)
    assert 0.1 + 0.2 + 0.3 == 0.6000000000000001
    assert model.constraints == (
        LinearConstraint("sum", ((d1, 0.6000000000000001), (n1, 1.0)), "<=", 1.0),
        LinearConstraint("zero", ((d2, 1.0), (n1, 2.0)), "<=", 2.0),
    )
    assert model.variables[d2].ub == 1.5  # the one-term row 2 x <= 3 became a bound
    with pytest.raises(ModelError, match="unknown variable kind 'nxt'"):
        model.lookup("nxt", link, 1, route)
    with pytest.raises(ModelError, match="non-finite coefficient inf"):
        model.add_rows(["inf"], "=", 0.0, model.lookup("direct", link, np.array([[1]]), route), math.inf)
    assert len(model.constraints) == 2


def test_a_built_model_reads_the_same_from_several_threads():
    # The row store, its records, the variable names and the variable
    # records are made on first read; threads that read a fresh model at once
    # all see each row and each variable once.
    import sys
    import threading

    fresh = line_model(volumes=(2, 1, 0))
    want, variables = [(c.name, c.terms) for c in fresh.constraints], fresh.variables
    model = line_model(volumes=(2, 1, 0))
    seen, errors = [], []

    def read():
        try:
            rows = (len(model.rows.names), len(model.constraints))
            seen.append((*rows, model.bound_arrays()[1].size, model.names, model.variables))
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and not errors
    assert set(seen) == {(len(want), len(want), len(variables), tuple(v.name for v in variables), variables)}
    assert [(c.name, c.terms) for c in model.constraints] == want


def test_bundled_models_declare_every_variable_kind_and_no_other(scenario_dir):
    kinds = {
        v.kind
        for scenario in SCENARIOS
        for mode in CAPACITY_MODES
        for v in bundled_model(scenario_dir, scenario, mode).variables
    }
    assert kinds == set(KEY_AXES)


def test_one_period_horizon_builds_and_solves(scenario_dir):
    # No next, ni or post can exist in a single period; the demand report
    # still asks for post, which must drop rather than raise.
    raw = json.loads((scenario_dir / "three_station_line.json").read_text())
    raw["horizon"] = 1
    raw["demands"][0]["volumes"] = [1]
    output = run(load_scenario(raw))
    assert output.result.status == OPTIMAL
    assert {v.kind for v in output.model.variables} == {"cancel", "cancel_total", "dep", "direct", "lag"}
    assert output.demands.postponed == {("A-C", 1): 0.0}
