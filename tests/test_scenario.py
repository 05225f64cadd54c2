import json
import math

import pytest

from railflow.cli import main
from railflow.model import ModelConfig, ModelError
from railflow.network import is_single_track
from railflow.scenario import (
    ScenarioError,
    TcrOverride,
    apply_tcr,
    load_scenario,
    report_capacity_csv,
    report_demand_csv,
    run,
    scenario_network,
    serialize_scenario,
)


def test_fixture_inventory(small_doc):
    assert len(small_doc.nodes) == 8
    assert len(small_doc.links) == 18
    assert small_doc.single_track_pairs == (("F-H", "H-F"),)
    assert len(small_doc.routes) == 7
    assert len(small_doc.demands) == 5
    assert small_doc.t_max == 7


def test_fixture_coupling(small_doc):
    net = scenario_network(small_doc)
    fh = net.link_named("F-H")
    hf = net.link_named("H-F")
    assert is_single_track(net, fh.id) and is_single_track(net, hf.id)
    assert net.sigma[fh.id] == hf.id
    assert not is_single_track(net, net.link_named("A-C").id)


def test_route_with_unknown_link_is_a_load_error(scenario_dir):
    raw = json.loads((scenario_dir / "three_station_line.json").read_text())
    raw["routes"][0]["links"] = ["A-B", "ghost"]
    with pytest.raises(ScenarioError) as err:
        load_scenario(raw)
    assert any("A-C-r1" in line and "ghost" in line for line in err.value.errors)


def test_demand_volume_length_checked(scenario_dir):
    raw = json.loads((scenario_dir / "three_station_line.json").read_text())
    raw["demands"][0]["volumes"] = [1, 0]
    with pytest.raises(ScenarioError) as err:
        load_scenario(raw)
    assert any("volumes" in line for line in err.value.errors)


def test_implements_must_agree_with_properties(scenario_dir):
    raw = json.loads((scenario_dir / "small_network.json").read_text())
    raw["implements"] = {"A-H-f": ["A-H-f1"]}  # drops a matching route
    with pytest.raises(ScenarioError) as err:
        load_scenario(raw)
    assert any("implements-mismatch" in line for line in err.value.errors)


def test_apply_tcr_touches_exactly_the_listed_cells(small_doc):
    edited = apply_tcr(small_doc, [TcrOverride(link="E-F", period=4, capacity=0.0)])
    for (lname, t), value in small_doc.capacity.items():
        if (lname, t) == ("E-F", 4):
            assert edited.capacity[(lname, t)] == 0.0
        else:
            assert edited.capacity[(lname, t)] == value
    assert edited.tcr_overrides == ()


def test_apply_tcr_empty_is_identity(small_doc):
    assert apply_tcr(small_doc, []) == small_doc


def test_apply_tcr_bulk_scaling(small_doc):
    halved = apply_tcr(small_doc, [TcrOverride(link="C-E", scale=0.5)])
    for t in range(1, small_doc.t_max + 1):
        assert halved.capacity[("C-E", t)] == pytest.approx(0.5 * small_doc.capacity[("C-E", t)])


def test_apply_tcr_rejects_bad_overrides(small_doc):
    with pytest.raises(ScenarioError):
        apply_tcr(small_doc, [TcrOverride(link="E-F", period=9, capacity=0.0)])
    with pytest.raises(ScenarioError):
        apply_tcr(small_doc, [TcrOverride(link="nope", period=1, capacity=0.0)])
    with pytest.raises(ScenarioError):
        apply_tcr(small_doc, [TcrOverride(link="E-F", period=1)])
    with pytest.raises(ScenarioError, match="finite"):
        apply_tcr(small_doc, [TcrOverride(link="E-F", period=1, scale=math.nan)])


def test_inline_overrides_match_apply_tcr(scenario_dir, small_doc):
    inline = load_scenario(scenario_dir / "small_network_tcr.json")
    applied = apply_tcr(inline, inline.tcr_overrides)
    direct = apply_tcr(small_doc, [TcrOverride(link="E-F", period=4, capacity=0.0)])
    assert applied.capacity == direct.capacity


def test_round_trip(small_doc, shuttle_doc, three_station_doc):
    for doc in (small_doc, shuttle_doc, three_station_doc):
        again = load_scenario(serialize_scenario(doc))
        assert again == doc


def test_run_reports_reconcile(three_station_run):
    output, _ = three_station_run
    report = output.demands
    for name in report.demand_names:
        served = sum(
            output.demands.departures[(name, rname, t)]
            for rname in report.routes_of[name]
            for t in range(1, report.t_max + 1)
        )
        assert served + report.cancel_total[name] == pytest.approx(report.requested[name], abs=1e-9)


def test_capacity_report_within_nominal(base_run):
    output, _ = base_run
    report = output.capacity
    for key, used in report.total.items():
        assert used <= report.nominal[key] + 1e-6


def test_capacity_csv_layout(three_station_run):
    output, _ = three_station_run
    text = report_capacity_csv(output.capacity).decode()
    lines = text.strip().split("\n")
    assert lines[0] == "link,1,2,3"
    assert lines[1] == "A-B,0.93,0.08,0.00"
    assert lines[2].startswith("B-C,0.75,0.25")


def test_capacity_csv_zero_flow(scenario_dir):
    raw = json.loads((scenario_dir / "three_station_line.json").read_text())
    raw["demands"][0]["volumes"] = [0, 0, 0]
    output = run(load_scenario(raw))
    lines = report_capacity_csv(output.capacity).decode().strip().split("\n")
    assert lines[1] == "A-B,0.00,0.00,0.00"
    assert lines[2] == "B-C,0.00,0.00,0.00"
    assert output.result.objective == pytest.approx(0.0, abs=1e-9)


def test_setup_row_present_only_for_single_track(shuttle_run, three_station_run):
    shuttle_csv = report_capacity_csv(shuttle_run[0].capacity).decode()
    assert "setup X-Y" in shuttle_csv
    plain_csv = report_capacity_csv(three_station_run[0].capacity).decode()
    assert "setup" not in plain_csv


def test_demand_csv_series(three_station_run):
    output, _ = three_station_run
    text = report_demand_csv(output.demands).decode()
    lines = text.strip().split("\n")
    assert lines[0] == "demand,series,1,2,3,total"
    assert lines[1] == "A-C,dep A-C-r1,1.00,0.00,0.00,1.00"
    assert any(line.startswith("A-C,postponed") for line in lines)
    assert any(line.startswith("A-C,cancelled") for line in lines)


def test_runs_are_deterministic(shuttle_doc):
    first = run(shuttle_doc)
    second = run(shuttle_doc)
    assert report_capacity_csv(first.capacity) == report_capacity_csv(second.capacity)
    assert report_demand_csv(first.demands) == report_demand_csv(second.demands)
    assert first.result.objective == second.result.objective


def test_intermediate_node_flow_detail(three_station_run):
    # the unit reaching B keeps moving: 0.65 crosses on to C at once, 0.20
    # continues into the next period, nothing stands at B
    output, _ = three_station_run
    model, values = output.model, output.result.values
    b = model.network.node_named("B").id
    b_c = model.network.link_named("B-C").id
    route = model.catalog.route_named("A-C-r1")
    assert values[model.var("in", b, 1, route.id)] == pytest.approx(0.85, abs=1e-9)
    assert values[model.var("direct", b_c, 1, route.id)] == pytest.approx(0.65, abs=1e-9)
    assert values[model.var("next", b_c, 1, route.id)] == pytest.approx(0.20, abs=1e-9)
    assert values[model.var("ni", b, 1, route.id)] == pytest.approx(0.0, abs=1e-9)


def test_tightening_capacity_never_improves_the_objective(three_station_doc):
    base = run(three_station_doc).result.objective
    for scale in (0.6, 0.3):
        squeezed = apply_tcr(three_station_doc, [TcrOverride(link="A-B", scale=scale)])
        objective = run(squeezed).result.objective
        assert objective >= base - 1e-9
        base = max(base, objective)


def test_alternative_capacity_modes_solve(shuttle_doc):
    import dataclasses

    for mode in ("basic", "single_track_alt1", "heterogeneous"):
        config = dataclasses.replace(shuttle_doc.config, capacity_mode=mode)
        output = run(dataclasses.replace(shuttle_doc, config=config))
        assert output.result.status == "optimal"
        assert output.capacity.setup_pairs == ()


def _set(*path):
    """Setter writing a value at path in a raw document, creating containers."""

    def put(raw, value):
        node = raw
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value

    return put


NUMERIC_FIELDS = {
    "capacities.default": _set("capacities", "default"),
    "capacities.links['A-B']": _set("capacities", "links", "A-B"),
    "capacities.cells[0].value": lambda raw, v: raw["capacities"].update(
        cells=[{"link": "A-B", "period": 1, "value": v}]
    ),
    "durations['A-B']['reg']": _set("durations_minutes", "A-B", "reg"),
    "tcr_overrides[0].capacity": lambda raw, v: raw.update(tcr_overrides=[{"link": "A-B", "capacity": v}]),
    "tcr_overrides[0].scale": lambda raw, v: raw.update(tcr_overrides=[{"link": "A-B", "scale": v}]),
    "config.k_het": _set("config", "k_het"),
    "config.k_setup": _set("config", "k_setup"),
    "config.big_m": _set("config", "big_m"),
    "config.cost_cancel": _set("config", "cost_cancel"),
    "config.cost_post": _set("config", "cost_post"),
    "config.arrival_slack": _set("config", "arrival_slack"),
    "config.arrival_slack.default": _set("config", "arrival_slack", "default"),
    "config.arrival_slack.routes['A-C-r1']": _set("config", "arrival_slack", "routes", "A-C-r1"),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "five"], ids=["nan", "inf", "-inf", "str"])
@pytest.mark.parametrize("position", list(NUMERIC_FIELDS))
def test_non_finite_or_non_numeric_input_rejected_at_load(scenario_dir, tmp_path, capsys, position, value):
    raw = json.loads((scenario_dir / "three_station_line.json").read_text())
    NUMERIC_FIELDS[position](raw, value)
    with pytest.raises(ScenarioError) as err:
        load_scenario(raw)
    assert any(line.startswith(f"{position}: expected a") for line in err.value.errors)

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))  # NaN and Infinity as Python's json writes them
    assert main(["solve", "--scenario", str(path)]) == 1
    assert f"error: {position}: expected a" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["k_het", "k_setup", "big_m", "arrival_slack", "cost_cancel", "cost_post"])
def test_model_config_rejects_non_finite(field):
    for value in (math.nan, math.inf):
        with pytest.raises(ModelError, match=f"{field} must be finite"):
            ModelConfig(**{field: value})


@pytest.mark.parametrize("value", ["false", 0, "yes"], ids=["str-false", "zero", "str-yes"])
@pytest.mark.parametrize("field", ["relax_integrality", "include_arrival_accounting", "pace_refinement"])
def test_config_flags_must_be_json_booleans(scenario_dir, tmp_path, capsys, field, value):
    raw = json.loads((scenario_dir / "three_station_line.json").read_text())
    raw["config"][field] = value
    with pytest.raises(ScenarioError) as err:
        load_scenario(raw)
    assert f"config.{field}: expected true or false, got {value!r}" in err.value.errors

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["solve", "--scenario", str(path)]) == 1
    assert f"error: config.{field}: expected true or false" in capsys.readouterr().err


def _put(path, value):
    """Setter writing value at path (keys and list indices) in a raw document."""

    def put(raw):
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return put


MALFORMED_CONTAINERS = {
    "capacities": _put(("capacities",), []),
    "capacities.links": _put(("capacities", "links"), []),
    "capacities.cells": _put(("capacities", "cells"), 5),
    "config": _put(("config",), ["relax_integrality"]),
    "config.arrival_slack.routes": _put(("config", "arrival_slack"), {"routes": []}),
    "train_types": _put(("train_types",), 5),
    "nodes": _put(("nodes",), 5),
    "links": _put(("links",), 5),
    "single_track_pairs": _put(("single_track_pairs",), 5),
    "routes": _put(("routes",), 5),
    "routes[0].links": _put(("routes", 0, "links"), 5),
    "demands": _put(("demands",), 5),
    "demands[0].volumes": _put(("demands", 0, "volumes"), 5),
    "implements['A-C']": _put(("implements",), {"A-C": 5}),
    "tcr_overrides": _put(("tcr_overrides",), 5),
}


@pytest.mark.parametrize("position", list(MALFORMED_CONTAINERS))
def test_malformed_containers_rejected_at_load(scenario_dir, tmp_path, capsys, position):
    raw = json.loads((scenario_dir / "three_station_line.json").read_text())
    MALFORMED_CONTAINERS[position](raw)
    with pytest.raises(ScenarioError) as err:
        load_scenario(raw)
    assert any(line.startswith(f"{position}: expected an") for line in err.value.errors)

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["solve", "--scenario", str(path)]) == 1
    assert f"error: {position}: expected an" in capsys.readouterr().err
