import importlib.util
import json
import math
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from railflow.cli import main
from railflow.model import CAPACITY_MODES, ModelConfig, ModelError, big_m
from railflow.simplex import Tolerances
from railflow.scenario import (
    MAX_TYPE_CHARGE,
    ScenarioError,
    TcrOverride,
    apply_tcr,
    build_scenario_model,
    load_scenario,
    report_capacity_csv,
    report_demand_csv,
    run,
)

from support import inflow, line_raw


def test_fixture_inventory(small_doc):
    assert len(small_doc.nodes) == 8
    assert len(small_doc.links) == 18
    assert small_doc.single_track_pairs == (("F-H", "H-F"),)
    assert len(small_doc.routes) == 7
    assert len(small_doc.demands) == 5
    assert small_doc.t_max == 7


def test_implementing_routes_in_document_order(small_doc):
    assert small_doc.implements["E-F-p"] == ("E-F-p1", "E-F-p2")
    assert small_doc.implements["D-G-f"] == ("D-G-f1",)


def test_implementing_routes_follow_the_routes_list(scenario_dir):
    raw = json.loads((scenario_dir / "small_network.json").read_text())
    raw["routes"].reverse()
    doc = load_scenario(raw)
    assert doc.implements["E-F-p"] == ("E-F-p2", "E-F-p1")
    assert doc.implements["A-H-f"] == ("A-H-f2", "A-H-f1")


def test_unservable_demand_has_no_routes():
    # the demand runs opposite to the only route, so nothing implements it
    raw = line_raw(demand_name="C-A")
    raw["demands"][0].update(origin="C", destination="A")
    assert load_scenario(raw).implements == {"C-A": ()}


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
    with pytest.raises(ScenarioError, match=r"capacity must be >= 0"):
        apply_tcr(small_doc, [TcrOverride(link="E-F", period=1, capacity=-1.0)])
    with pytest.raises(ScenarioError, match=r"scale must be >= 0"):
        apply_tcr(small_doc, [TcrOverride(link="E-F", scale=-0.5)])


def test_tcr_link_that_is_not_a_name_rejected_at_load(scenario_dir):
    raw = json.loads((scenario_dir / "three_station_line.json").read_text())
    raw["tcr_overrides"] = [{"link": ["A-B"], "capacity": 1}]
    with pytest.raises(ScenarioError, match=r"tcr_overrides\[0\]: unknown link \['A-B'\]"):
        load_scenario(raw)


def test_inline_overrides_match_apply_tcr(scenario_dir, small_doc):
    inline = load_scenario(scenario_dir / "small_network_tcr.json")
    applied = apply_tcr(inline, ())
    direct = apply_tcr(small_doc, [TcrOverride(link="E-F", period=4, capacity=0.0)])
    assert applied.capacity == direct.capacity
    assert applied.tcr_overrides == ()


def test_apply_tcr_keeps_the_inline_overrides(scenario_dir, tcr_run):
    # A no-op listed override used to replace the document's own closure of
    # E-F in period 4, which then carried a train (objective 0.837963).
    inline = load_scenario(scenario_dir / "small_network_tcr.json")
    stacked = apply_tcr(inline, [TcrOverride(link="A-C", scale=1.0)])
    assert stacked.capacity[("E-F", 4)] == 0.0 and stacked.tcr_overrides == ()
    assert stacked.capacity == tcr_run[0].model.doc.capacity
    output = run(stacked)
    assert output.result.objective == tcr_run[0].result.objective
    assert output.capacity.total[("E-F", 4)] == 0.0


@given(st.floats(0.0, 4.0), st.floats(0.0, 4.0))
def test_listed_scale_applies_on_top_of_the_inline_scale(three_station_doc, inline_scale, listed_scale):
    inline = replace(three_station_doc, tcr_overrides=(TcrOverride(link="B-C", scale=inline_scale),))
    assert build_scenario_model(inline).doc.capacity[("B-C", 2)] == 5.0 * inline_scale
    stacked = apply_tcr(inline, [TcrOverride(link="B-C", period=2, scale=listed_scale)])
    assert stacked.capacity[("B-C", 2)] == 5.0 * inline_scale * listed_scale
    assert stacked.capacity[("B-C", 1)] == stacked.capacity[("B-C", 3)] == 5.0 * inline_scale
    assert stacked.capacity[("A-B", 2)] == 5.0
    assert apply_tcr(stacked, ()).capacity == stacked.capacity


def test_bad_listed_override_is_named_by_its_own_index(scenario_dir):
    # small_network_tcr has one inline override; the listed list starts again at 0.
    inline = load_scenario(scenario_dir / "small_network_tcr.json")
    with pytest.raises(ScenarioError) as err:
        apply_tcr(inline, [TcrOverride(link="nope", capacity=0.0)])
    assert err.value.errors[0].startswith("overrides[0]: ")
    bad_inline = replace(inline, tcr_overrides=(TcrOverride(link="E-F", period=9, capacity=0.0),))
    with pytest.raises(ScenarioError) as err:
        apply_tcr(bad_inline, [TcrOverride(link="E-F", period=9, capacity=0.0)])
    assert err.value.errors[0].startswith("tcr_overrides[0]: ")


def test_apply_tcr_past_float_range_raises(three_station_doc):
    # It used to return an inf capacity, which only the model's big-M check stopped.
    with pytest.raises(ScenarioError, match=r"^capacities: the largest capacity after the TCRs, inf,"):
        apply_tcr(three_station_doc, [TcrOverride(link="A-B", scale=1e308)])
    with pytest.raises(ScenarioError, match=r"^capacities: the largest capacity after the TCRs, 5e\+307, gives"
                       r" single_track_alt2 a big M of inf, past float range$"):
        apply_tcr(three_station_doc, [TcrOverride(link="A-B", capacity=5e307)])
    assert big_m(apply_tcr(three_station_doc, [TcrOverride(link="A-B", capacity=1e307)]).capacity) == 1e308


def test_run_reports_reconcile(three_station_run):
    output, _ = three_station_run
    report = output.demands
    for d in output.model.doc.demands:
        served = sum(
            output.demands.departures[(d.name, rname, t)]
            for rname in report.routes_of[d.name]
            for t in range(1, report.t_max + 1)
        )
        assert served + report.cancel_total[d.name] == pytest.approx(sum(d.volumes), abs=1e-9)


def test_capacity_report_within_nominal(base_run):
    output, _ = base_run
    report = output.capacity
    for key, used in report.total.items():
        assert used <= output.model.doc.capacity[key] + 1e-6


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
    route = "A-C-r1"
    assert inflow(model, values, "B", 1, route) == pytest.approx(0.85, abs=1e-9)
    assert values[model.var("direct", "B-C", 1, route)] == pytest.approx(0.65, abs=1e-9)
    assert values[model.var("next", "B-C", 1, route)] == pytest.approx(0.20, abs=1e-9)
    assert values[model.var("ni", "B", 1, route)] == pytest.approx(0.0, abs=1e-9)


PACING_DEMO = """\
objective: 0.35
period 1: departures 1.00, arrivals 0.65
period 2: departures 0.00, arrivals 0.35

link,1,2,3
A-B,0.93,0.08,0.00
B-C,0.75,0.25,0.00
"""


def test_pacing_demo_prints_the_paced_volumes(scenario_dir, capsys):
    path = scenario_dir.parent / "scripts" / "pacing_demo.py"
    spec = importlib.util.spec_from_file_location("pacing_demo", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    assert capsys.readouterr().out == PACING_DEMO


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
    "durations_minutes['A-B']['reg']": _set("durations_minutes", "A-B", "reg"),
    "tcr_overrides[0].capacity": lambda raw, v: raw.update(tcr_overrides=[{"link": "A-B", "capacity": v}]),
    "tcr_overrides[0].scale": lambda raw, v: raw.update(tcr_overrides=[{"link": "A-B", "scale": v}]),
    "config.k_het": _set("config", "k_het"),
    "config.k_setup": _set("config", "k_setup"),
    "config.cost_cancel": _set("config", "cost_cancel"),
    "config.cost_post": _set("config", "cost_post"),
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


@pytest.mark.parametrize("field", ["k_het", "k_setup", "cost_cancel", "cost_post"])
def test_model_config_rejects_non_finite(field):
    for value in (math.nan, math.inf):
        with pytest.raises(ModelError, match=f"{field} must be finite"):
            ModelConfig(**{field: value})


def test_config_and_tolerances_hold_one_field_per_setting():
    assert [f.name for f in fields(ModelConfig)] == [
        "capacity_mode", "k_het", "k_setup", "cost_cancel", "cost_post", "relax_integrality"
    ]
    assert [f.name for f in fields(Tolerances)] == ["max_iterations", "max_nodes"]


@pytest.mark.parametrize("value", ["false", 0, "yes"], ids=["str-false", "zero", "str-yes"])
@pytest.mark.parametrize("field", ["relax_integrality", "pace_refinement"])
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
    "config": _put(("config",), ["relax_integrality"]),
    "train_types": _put(("train_types",), 5),
    "nodes": _put(("nodes",), 5),
    "links": _put(("links",), 5),
    "links[0]": _put(("links", 0), 5),
    "durations_minutes": _put(("durations_minutes",), 5),
    "durations_minutes['A-B']": _put(("durations_minutes", "A-B"), 5),
    "single_track_pairs": _put(("single_track_pairs",), 5),
    "routes": _put(("routes",), 5),
    "routes[0]": _put(("routes", 0), 5),
    "routes[0].links": _put(("routes", 0, "links"), 5),
    "demands": _put(("demands",), 5),
    "demands[0]": _put(("demands", 0), 5),
    "demands[0].volumes": _put(("demands", 0, "volumes"), 5),
    "tcr_overrides": _put(("tcr_overrides",), 5),
    "tcr_overrides[0]": _put(("tcr_overrides",), [5]),
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


# A reference that is not a string used to crash the loader ("unhashable
# type") instead of being reported.
NOT_NAMES = {
    "links[0].tail": lambda raw, v: raw["links"][0].update(tail=v),
    "links[0].head": lambda raw, v: raw["links"][0].update(head=v),
    "routes[0].train_type": lambda raw, v: raw["routes"][0].update(train_type=v),
    "demands[0].origin": lambda raw, v: raw["demands"][0].update(origin=v),
    "demands[0].destination": lambda raw, v: raw["demands"][0].update(destination=v),
    "demands[0].train_type": lambda raw, v: raw["demands"][0].update(train_type=v),
    "tcr_overrides[0]": lambda raw, v: raw.update(tcr_overrides=[{"link": v, "capacity": 1}]),
}


@pytest.mark.parametrize("value", [["A"], {"name": "A"}], ids=["array", "object"])
@pytest.mark.parametrize("position", list(NOT_NAMES))
def test_references_that_are_not_names_rejected_at_load(scenario_dir, tmp_path, capsys, position, value):
    raw = json.loads((scenario_dir / "three_station_line.json").read_text())
    NOT_NAMES[position](raw, value)
    with pytest.raises(ScenarioError) as err:
        load_scenario(raw)
    assert any(line.startswith(f"{position}: unknown") for line in err.value.errors)

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", "--scenario", str(path)]) == 1
    assert f"error: {position}: unknown" in capsys.readouterr().err


DECLARED_NAMES = {
    "train_types[0]": ("train_types", 0),
    "nodes[1]": ("nodes", 1),
    "links[0]": ("links", 0, "name"),
    "routes[0]": ("routes", 0, "name"),
    "demands[0]": ("demands", 0, "name"),
}


@pytest.mark.parametrize("value", ["", 5, None], ids=["empty", "number", "null"])
@pytest.mark.parametrize("position", list(DECLARED_NAMES))
def test_declared_names_must_be_non_empty_strings(scenario_dir, position, value):
    raw = json.loads((scenario_dir / "three_station_line.json").read_text())
    _put(DECLARED_NAMES[position], value)(raw)
    with pytest.raises(ScenarioError) as err:
        load_scenario(raw)
    assert f"{position}: expected a name, got {value!r}" in err.value.errors


def test_capacity_of_an_unknown_link_rejected_at_load(scenario_dir):
    # A misspelt link name used to leave that link on the default in silence.
    raw = json.loads((scenario_dir / "three_station_line.json").read_text())
    raw["capacities"]["links"] = {"A-b": 2}
    with pytest.raises(ScenarioError) as err:
        load_scenario(raw)
    assert err.value.errors == ["capacities.links['A-b']: unknown link"]


def test_period_length_past_float_range_rejected_at_load(scenario_dir, tmp_path, capsys):
    # Durations in minutes are divided by it.
    raw = json.loads((scenario_dir / "three_station_line.json").read_text())
    raw["period_length_minutes"] = 10**400
    with pytest.raises(ScenarioError) as err:
        load_scenario(raw)
    assert [line for line in err.value.errors if line.startswith("period_length_minutes: expected a finite")]

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", "--scenario", str(path)]) == 1
    assert "error: period_length_minutes: expected a finite number" in capsys.readouterr().err


def test_absurd_horizon_reported_before_the_capacity_table_is_filled(scenario_dir):
    raw = json.loads((scenario_dir / "three_station_line.json").read_text())
    raw["horizon"] = 10**6
    tracemalloc.start()
    try:
        with pytest.raises(ScenarioError) as err:
            load_scenario(raw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6  # the filled table took about 270 MB
    assert "demands[0]: expected 1000000 per-period volumes, got 3" in err.value.errors


UNKNOWN_FIELDS = {
    # typos: the first ran the file's own capacity mode, the second dropped the closure
    "config.capacity_mdoe": _put(("config", "capacity_mdoe"), "single_track_alt1"),
    "tcr_override": _put(("tcr_override",), [{"link": "A-B", "capacity": 0}]),
    # fields that no longer exist
    "config.arrival_slack": _put(("config", "arrival_slack"), 1.0),
    "config.include_arrival_accounting": _put(("config", "include_arrival_accounting"), True),
    # second ways to state an input: period fractions, a capacity cell, the
    # route map the loader derives, and big M
    "durations": _put(("durations",), {"A-B": {"reg": 0.15}, "B-C": {"reg": 0.2}}),
    "capacities.cells": _put(("capacities", "cells"), [{"link": "A-B", "period": 1, "value": 2}]),
    "implements": _put(("implements",), {"A-C": ["A-C-r1"]}),
    "config.big_m": _put(("config", "big_m"), 50),
    # in nested objects: a misspelt name took the default name ("A-B",
    # "route-0") in silence, a misspelt cell value set the cell to 0, and a
    # misspelt override period applied the override to every period
    "links[0].nmae": _put(("links", 0, "nmae"), "A-to-B"),
    "routes[0].nmae": _put(("routes", 0, "nmae"), "r1"),
    "demands[0].volume": _put(("demands", 0, "volume"), [1, 0, 0]),
    "capacities.defualt": _put(("capacities", "defualt"), 3),
    "tcr_overrides[0].perod": _put(("tcr_overrides",), [{"link": "A-B", "capacity": 1, "perod": 2}]),
}


@pytest.mark.parametrize("position", list(UNKNOWN_FIELDS))
def test_unknown_fields_rejected_at_load(scenario_dir, tmp_path, capsys, position):
    raw = json.loads((scenario_dir / "three_station_line.json").read_text())
    UNKNOWN_FIELDS[position](raw)
    with pytest.raises(ScenarioError) as err:
        load_scenario(raw)
    assert [line for line in err.value.errors if line.startswith(f"{position}: unknown field")]

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["solve", "--scenario", str(path)]) == 1
    assert f"error: {position}: unknown field" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, finding",
    [
        ("name", None, "name: expected a name, got None"),
        ("name", "", "name: expected a name, got ''"),
        ("name", "my line", "name: name 'my line' must not contain whitespace or a comma"),
        ("notes", ["x"], "notes: expected a string, got ['x']"),
        ("notes", None, "notes: expected a string, got None"),
    ],
    ids=["name-null", "name-empty", "name-space", "notes-list", "notes-null"],
)
def test_name_and_notes_checked_at_load(scenario_dir, key, value, finding):
    # The name lands in the MPS NAME line; neither is turned into a string.
    raw = json.loads((scenario_dir / "three_station_line.json").read_text())
    raw[key] = value
    with pytest.raises(ScenarioError) as err:
        load_scenario(raw)
    assert err.value.errors == [finding]


def test_name_and_notes_default(scenario_dir):
    raw = json.loads((scenario_dir / "three_station_line.json").read_text())
    del raw["name"], raw["notes"]
    doc = load_scenario(raw)
    assert (doc.name, doc.notes) == ("scenario", "")


def test_tcr_scaling_a_capacity_past_float_range_rejected_at_load(scenario_dir, tmp_path, capsys):
    raw = json.loads((scenario_dir / "three_station_line.json").read_text())
    raw["tcr_overrides"] = [{"link": "A-B", "scale": 1e308}]
    with pytest.raises(ScenarioError) as err:
        load_scenario(raw)
    assert err.value.errors[0].startswith("capacities: the largest capacity after the TCRs, inf,")

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["solve", "--scenario", str(path)]) == 1
    assert "error: capacities: the largest capacity after the TCRs, inf," in capsys.readouterr().err


def test_capacity_whose_big_m_overflows_rejected_at_load(scenario_dir, tmp_path, capsys):
    # 10 x 1e308, the big M of single_track_alt2, overflows.
    raw = json.loads((scenario_dir / "single_track_shuttle.json").read_text())
    raw["capacities"]["default"] = 1e308
    with pytest.raises(ScenarioError) as err:
        load_scenario(raw)
    assert err.value.errors[0].startswith("capacities: the largest capacity after the TCRs, 1e+308,")

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    for command in ("validate", "solve"):
        assert main([command, "--scenario", str(path)]) == 1
        assert "error: capacities: the largest capacity after the TCRs, 1e+308," in capsys.readouterr().err


def test_setup_row_side_past_float_range_rejected_at_load(scenario_dir, tmp_path, capsys):
    # Big M is 1.7e308, still finite, but a setup row's right-hand side
    # k_setup x capacity + M is not: the re-solve's residual on those rows
    # would be NaN.
    raw = json.loads((scenario_dir / "single_track_shuttle.json").read_text())
    raw["capacities"]["default"] = 1.7e307
    message = (
        "capacities: the largest capacity after the TCRs, 1.7e+307, gives single_track_alt2"
        " setup rows a right-hand side of up to inf, past float range"
    )
    with pytest.raises(ScenarioError) as err:
        load_scenario(raw)
    assert err.value.errors == [message]

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    for command in ("validate", "solve"):
        assert main([command, "--scenario", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "Traceback" not in err


def three_type_line_raw(k_het, mode):
    """three_station_line with three train types, each on its own route over both links."""
    raw = line_raw()
    labels = ["reg", "fr", "ic"]
    raw["train_types"] = labels
    raw["durations_minutes"] = {x: {label: 10 for label in labels} for x in ("A-B", "B-C")}
    raw["routes"] = [{"name": f"A-C-{label}", "train_type": label, "links": ["A-B", "B-C"]} for label in labels]
    raw["config"] = {"k_het": k_het, "capacity_mode": mode}
    return raw


@pytest.mark.parametrize("mode", CAPACITY_MODES)
def test_k_het_whose_charge_overflows_rejected_at_load(tmp_path, capsys, mode):
    # 1 + k_het x (3 - 1) overflows; every mode checks it, since a run can
    # switch the mode to heterogeneous (--capacity-mode).
    message = "config.k_het: 1e+308 makes heterogeneous mode charge inf per train on a link with 3 train types"
    with pytest.raises(ScenarioError) as err:
        load_scenario(three_type_line_raw(1e308, mode))
    assert err.value.errors == [f"{message}, past float range"]

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(three_type_line_raw(1e308, mode)))
    for args in (["validate"], ["solve"], ["solve", "--capacity-mode", "heterogeneous"]):
        assert main(args + ["--scenario", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize("mode", CAPACITY_MODES)
def test_k_het_whose_charge_is_huge_rejected_at_load(tmp_path, capsys, mode):
    # A finite charge above MAX_TYPE_CHARGE is refused as well: the dense
    # simplex gives wrong verdicts long before the charge overflows.  A
    # charge of exactly MAX_TYPE_CHARGE (1 + 4999.5 x 2) loads.
    assert MAX_TYPE_CHARGE == 1e4
    message = (
        "config.k_het: 15000000.0 makes heterogeneous mode charge 30000001.0 per train"
        " on a link with 3 train types, above 10000"
    )
    with pytest.raises(ScenarioError) as err:
        load_scenario(three_type_line_raw(1.5e7, mode))
    assert err.value.errors == [message]
    assert load_scenario(three_type_line_raw(4999.5, mode)).config.k_het == 4999.5

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(three_type_line_raw(1.5e7, mode)))
    for args in (["validate"], ["solve"], ["solve", "--capacity-mode", "heterogeneous"]):
        assert main(args + ["--scenario", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "volumes, position",
    [([10**400, 0, 0], "demands[0].volumes[0]"), ([10**308, 10**308, 0], "demands[0].volumes (total)")],
    ids=["volume", "total"],
)
def test_demand_volume_too_large_for_a_float_rejected_at_load(scenario_dir, tmp_path, capsys, volumes, position):
    raw = json.loads((scenario_dir / "three_station_line.json").read_text())
    raw["demands"][0]["volumes"] = volumes
    with pytest.raises(ScenarioError) as err:
        load_scenario(raw)
    assert any(line.startswith(f"{position}: expected a finite number") for line in err.value.errors)

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    for command in ("validate", "solve"):
        assert main([command, "--scenario", str(path)]) == 1
        assert f"error: {position}: expected a finite number" in capsys.readouterr().err


# (position, quoted name in three_station_line.json, replacement): every
# occurrence is renamed, so only the character itself is wrong.
BAD_NAMES = [
    ("train_types[0]", '"reg"', "reg ular"),
    ("nodes[1]", '"B"', "Stock holm"),
    ("links[0]", '"A-B"', "A,B"),
    ("links[1]", '"B-C"', "B\tC"),
    ("routes[0]", '"A-C-r1"', "A-C r1"),
    ("demands[0]", '"A-C"', "A,C"),
]


@pytest.mark.parametrize("position, old, new", BAD_NAMES, ids=[p for p, _, _ in BAD_NAMES])
def test_names_that_break_the_exports_rejected_at_load(scenario_dir, tmp_path, capsys, position, old, new):
    # A space splits an MPS field and a comma a CSV cell.
    text = (scenario_dir / "three_station_line.json").read_text().replace(old, json.dumps(new))
    with pytest.raises(ScenarioError) as err:
        load_scenario(text)
    assert err.value.errors == [f"{position}: name {new!r} must not contain whitespace or a comma"]

    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["solve", "--scenario", str(path)]) == 1
    assert f"error: {position}: name {new!r}" in capsys.readouterr().err


def test_reports_hold_plain_floats(shuttle_run):
    output, _ = shuttle_run
    capacity, demands = output.capacity, output.demands
    tables = [capacity.total, capacity.setup]
    tables += [demands.departures, demands.postponed, demands.cancelled, demands.cancel_total]
    assert all(type(v) is float for table in tables for v in table.values())
    assert capacity.setup


def _append(key, item):
    return lambda raw: raw[key].append(item)


# finding: (scenario, one edit, position of the finding, name the finding must give)
FINDINGS = {
    "duplicate node": ("small_network", _append("nodes", "A"), "nodes[8]", "A"),
    "duplicate train type": ("small_network", _append("train_types", "reg"), "train_types[2]", "reg"),
    "duplicate link name": (
        "small_network", _append("links", {"name": "A-C", "tail": "C", "head": "A"}), "links[18]", "A-C"
    ),
    "link to itself": ("small_network", _put(("links", 0, "head"), "A"), "links[0]", "A-C"),
    "duplicate tail and head": ("small_network", _put(("links", 3, "head"), "A"), "links[3]", "C-A"),
    "pair not opposite": (
        "small_network",
        _put(("single_track_pairs", 0), ["F-H", "E-H"]),
        "single_track_pairs[0]",
        "E-H",
    ),
    "link in two pairs": (
        "small_network",
        _append("single_track_pairs", ["H-F", "F-H"]),
        "single_track_pairs[1]",
        "H-F",
    ),
    "pair repeated verbatim": (
        "single_track_shuttle",
        _append("single_track_pairs", ["X-Y", "Y-X"]),
        "single_track_pairs[1]",
        "X-Y",
    ),
    "negative default capacity": (
        "three_station_line", _put(("capacities", "default"), -1), "capacities.default", "A-B"
    ),
    "negative link capacity": (
        "small_network", _put(("capacities", "links"), {"E-F": -2}), "capacities.links['E-F']", "E-F"
    ),
    "capacity missing": (
        "three_station_line", _put(("capacities",), {"links": {"A-B": 5}}), "capacities", "B-C"
    ),
    "negative duration": (
        "small_network", _put(("durations_minutes", "E-F", "reg"), -5), "durations_minutes['E-F']['reg']", "E-F"
    ),
    "duration over a period, off every route": (
        "small_network", _put(("durations_minutes", "G-F", "reg"), 90), "durations_minutes['G-F']['reg']", "G-F"
    ),
    "duration of an unknown link": (
        "small_network", _put(("durations_minutes", "E-X"), {"reg": 5}), "durations_minutes['E-X']", "E-X"
    ),
    "duration of an unknown train type": (
        "small_network",
        _put(("durations_minutes", "E-F", "slow"), 5),
        "durations_minutes['E-F']['slow']",
        "slow",
    ),
    "route link without a duration": (
        "small_network", lambda raw: raw["durations_minutes"]["C-E"].pop("gt"), "routes[0]", "C-E"
    ),
    "route repeats a link": (
        "small_network", _put(("routes", 5, "links"), ["E-F", "F-E", "E-F"]), "routes[5]", "E-F-p1"
    ),
    "route repeats a node": (
        "small_network", _put(("routes", 5, "links"), ["E-F", "F-E"]), "routes[5]", "E-F-p1"
    ),
    "route links do not join": (
        "small_network", _put(("routes", 0, "links"), ["A-C", "E-H"]), "routes[0]", "A-H-f1"
    ),
    "demand to itself": ("small_network", _put(("demands", 4, "destination"), "E"), "demands[4]", "E-F-p"),
    "duplicate demand triple": (
        "three_station_line",
        lambda raw: raw["demands"].append(dict(raw["demands"][0], name="A-C-bis")),
        "demands[1]",
        "A-C",
    ),
}


@pytest.mark.parametrize("finding", list(FINDINGS))
def test_each_finding_rejected_at_load_by_name(scenario_dir, tmp_path, capsys, finding):
    scenario, edit, position, entity = FINDINGS[finding]
    raw = json.loads((scenario_dir / f"{scenario}.json").read_text())
    load_scenario(raw)
    edit(raw)
    with pytest.raises(ScenarioError) as err:
        load_scenario(raw)
    lines = [line for line in err.value.errors if line.startswith(f"{position}: ")]
    assert any(repr(entity) in line for line in lines), err.value.errors

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", "--scenario", str(path)]) == 1
    printed = capsys.readouterr().err.splitlines()
    assert any(f"error: {line}" in printed for line in lines if repr(entity) in line)


def _with_duration(scenario_dir, minutes):
    raw = json.loads((scenario_dir / "three_station_line.json").read_text())
    raw["durations_minutes"]["A-B"]["reg"] = minutes
    return raw


def _first_minutes_over_one_period(period=60.0):
    """The least float m with m / period > 1 + 1e-12, the loader's tolerance."""
    m = period * (1.0 + 1e-12)
    while m / period > 1.0 + 1e-12:
        m = math.nextafter(m, 0.0)
    while m / period <= 1.0 + 1e-12:
        m = math.nextafter(m, math.inf)
    return m


# three_station_line has periods of 60 minutes
OVER_ONE_PERIOD = _first_minutes_over_one_period()


@given(st.floats(min_value=0.0, max_value=OVER_ONE_PERIOD, exclude_max=True))
def test_durations_within_one_period_load(scenario_dir, minutes):
    doc = load_scenario(_with_duration(scenario_dir, minutes))
    assert doc.durations[("A-B", "reg")] == minutes / 60


@given(st.floats(min_value=OVER_ONE_PERIOD, allow_infinity=False))
def test_durations_over_one_period_rejected_at_load(scenario_dir, minutes):
    with pytest.raises(ScenarioError) as err:
        load_scenario(_with_duration(scenario_dir, minutes))
    assert [line for line in err.value.errors if line.startswith("durations_minutes['A-B']['reg']: ")]


def _leaves(node, path=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in items for leaf in _leaves(child, path + (key,))]


THREE_STATION = json.loads(
    (Path(__file__).resolve().parent.parent / "scenarios" / "three_station_line.json").read_text()
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=10),
    st.sampled_from([10**400, -(10**400), 10**6]),
    st.floats(),
    st.sampled_from(["", "A", "B", "A-B", "reg", "A B", "A,B", "ghost"]),
)
_VALUES = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=2),
    st.dictionaries(st.sampled_from(["", "A", "name", "reg"]), _SCALARS, max_size=2),
)


@settings(max_examples=200)
@given(st.sampled_from(_leaves(THREE_STATION)), _VALUES)
def test_any_leaf_edit_loads_or_is_a_scenario_error(path, value):
    raw = json.loads(json.dumps(THREE_STATION))
    _put(path, value)(raw)
    try:
        doc = load_scenario(raw)
    except ScenarioError:
        return
    build_scenario_model(doc)  # a loaded document needs no further check


def test_every_record_finding_in_full_and_in_order():
    raw = line_raw()  # nodes A, B, C; links A-B, B-C; route A-C-r1; demand A-C; horizon 3
    raw["links"] += [
        "A-C",
        {"tail": "A", "head": "B", "speed": 1},  # its default name is A-B's
        {"tail": "X", "head": "C"},
        {"tail": "A", "head": "Y"},
    ]
    raw["routes"] += [
        7,
        {"name": "A-C-r1", "train_type": "reg", "links": ["A-B", "B-C"], "via": "B"},
        {"name": "r3", "train_type": "ghost", "links": ["A-B"]},
    ]
    demand = {"origin": "A", "destination": "C", "train_type": "reg", "volumes": [0, 0, 0]}
    raw["demands"] += [
        None,
        dict(demand, name="A-C", priority=1),
        dict(demand, name="d3", origin="Z"),
        dict(demand, name="d4", destination="Z"),
        dict(demand, name="d5", train_type="ghost"),
    ]
    raw["tcr_overrides"] = ["A-B", {"link": "A-B", "capacity": 0, "until": 2}, {"link": "ghost", "scale": 0.5}]
    with pytest.raises(ScenarioError) as err:
        load_scenario(raw)
    assert err.value.errors == [
        "links[2]: expected an object",
        "links[3].speed: unknown field (expected one of name, tail, head)",
        "links[3]: duplicate link name 'A-B'",
        "links[4].tail: unknown node 'X'",
        "links[5].head: unknown node 'Y'",
        "routes[1]: expected an object",
        "routes[2].via: unknown field (expected one of name, train_type, links)",
        "routes[2]: duplicate route name 'A-C-r1'",
        "routes[3].train_type: unknown train type 'ghost'",
        "demands[1]: expected an object",
        "demands[2].priority: unknown field (expected one of name, origin, destination, train_type, volumes)",
        "demands[2]: duplicate demand name 'A-C'",
        "demands[3].origin: unknown node 'Z'",
        "demands[4].destination: unknown node 'Z'",
        "demands[5].train_type: unknown train type 'ghost'",
        "tcr_overrides[0]: expected an object",
        "tcr_overrides[1].until: unknown field (expected one of link, period, capacity, scale)",
        "tcr_overrides[2]: unknown link 'ghost'",
    ]
