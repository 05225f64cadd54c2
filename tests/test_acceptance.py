"""Acceptance suite: one test per shipped criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from railflow.bnb import solve_mip
from railflow.checks import max_violation_by_family
from railflow.model import ModelConfig
from railflow.mps_io import export_model_text
from railflow.scenario import (
    build_scenario_model,
    load_scenario,
    report_capacity_csv,
    report_demand_csv,
    run,
)
from railflow.simplex import OPTIMAL, solve_lp

from mps_reader import solve_with_scipy
from support import inflow, line_model, synthetic_model, usage
from test_bnb import enumerate_mip_min, random_mip
from test_simplex import enumerate_vertices_min, random_bounded_lp, raw_lp


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"\nACCEPTANCE {number}: PASS - {description}")


def served_volume(report, name):
    return sum(
        report.departures[(name, rname, t)]
        for rname in report.routes_of[name]
        for t in range(1, report.t_max + 1)
    )


def test_criterion_1_worked_pacing_example(three_station_run):
    output, wall = three_station_run
    with criterion(1, "one-route pacing example reproduces the worked capacity usage"):
        model, values = output.model, output.result.values
        assert output.result.status == OPTIMAL
        assert usage(model, values, "A-B", 1) == pytest.approx(0.925, abs=1e-6)
        assert usage(model, values, "B-C", 2) == pytest.approx(0.25, abs=1e-6)
        arrived_first_period = inflow(model, values, "C", 1, "A-C-r1")
        assert arrived_first_period <= 0.65 + 1e-9
        assert wall < 1.0


def test_criterion_2_fixture_base_and_tcr(base_run, tcr_run):
    base, base_wall = base_run
    tcr, tcr_wall = tcr_run
    with criterion(2, "bundled network: feasible base, rerouted and costlier under the TCR"):
        assert base.result.status == OPTIMAL
        assert all(v == 0.0 for v in base.demands.cancel_total.values())

        assert tcr.result.status == OPTIMAL
        assert tcr.capacity.total[("E-F", 4)] == 0.0
        assert tcr.result.objective > base.result.objective + 1e-9
        rerouted = sum(
            tcr.demands.departures[("E-F-p", "E-F-p2", t)] for t in range(1, 8)
        )
        assert rerouted > 1e-6

        for output in (base, tcr):
            report = output.demands
            for d in output.model.doc.demands:
                assert served_volume(report, d.name) + report.cancel_total[d.name] == pytest.approx(
                    sum(d.volumes), abs=1e-9
                )
        assert base_wall < 10.0 and tcr_wall < 10.0


def _setup_invariant(output, feas=1e-6):
    model, values = output.model, output.result.values
    for rep, other in model.single_track_pairs:
        for t in range(1, model.doc.t_max + 1):
            w = output.capacity.setup[(rep, t)]
            own = usage(model, values, rep, t)
            opp = usage(model, values, other, t)
            assert w >= min(own, opp) - feas
            for link in (rep, other):
                cap = model.doc.capacity[(link, t)]
                assert own + opp + w <= cap + 1e-9


def test_criterion_3_setup_time_invariant(base_run, tcr_run, shuttle_run):
    with criterion(3, "setup time is at least the smaller directional usage (K=1)"):
        for output, _ in (base_run, tcr_run, shuttle_run):
            model = output.model
            assert model.config.capacity_mode == "single_track_alt2"
            assert model.config.k_setup == 1.0
            _setup_invariant(output)


def test_criterion_4_feasibility_invariants(base_run, tcr_run, shuttle_run, three_station_run):
    with criterion(4, "flow balance, pacing, capacity and demand accounting hold tightly"):
        for output, _ in (base_run, tcr_run, shuttle_run, three_station_run):
            model, values = output.model, output.result.values
            worst = max_violation_by_family(model, values)
            assert worst.get("Flow2", 0.0) <= 1e-9
            assert worst.get("Pace", 0.0) <= 1e-9
            lags = [values[i] for i, v in enumerate(model.variables) if v.kind == "lag"]
            assert lags and min(lags) >= -1e-9
            assert worst.get("Capacity1", 0.0) <= 1e-9
            report = output.demands
            for d in model.doc.demands:
                requested = sum(d.volumes)
                assert requested == int(requested)
                assert abs(
                    served_volume(report, d.name) + report.cancel_total[d.name] - requested
                ) <= 1e-9


def test_criterion_5_solver_oracles():
    with criterion(5, "simplex matches vertex enumeration; search matches exhaustive MIPs"):
        rng = np.random.default_rng(20_240_601)
        for _ in range(200):
            c, A, b = random_bounded_lp(rng)
            solution = solve_lp(raw_lp(c, A, b))
            oracle = enumerate_vertices_min(c, A, b)
            assert solution.status == OPTIMAL
            assert oracle is not None
            assert solution.objective == pytest.approx(oracle, abs=1e-7)

        mip_rng = np.random.default_rng(77_002)
        solved = 0
        for _ in range(50):
            c, rows, ub = random_mip(mip_rng)
            model = synthetic_model(c, rows, integer=range(len(c)), ub=ub.astype(float))
            result = solve_mip(model)
            oracle = enumerate_mip_min(c, rows, ub)
            if oracle is None:
                assert result.status == "infeasible"
                continue
            assert result.status == OPTIMAL
            assert result.objective == pytest.approx(oracle, abs=1e-9)
            solved += 1
        assert solved >= 40  # the generator keeps most instances feasible


def test_criterion_6_integrality(shuttle_run):
    with criterion(6, "cancellations and direction flags integral; relaxation bounds below"):
        output, _ = shuttle_run
        model, values = output.model, output.result.values
        for idx, var in enumerate(model.variables):
            if var.kind == "cancel_total":
                assert abs(values[idx] - round(values[idx])) <= 1e-6
            if var.kind == "beta":
                assert min(abs(values[idx]), abs(values[idx] - 1.0)) <= 1e-6

        kwargs = dict(minutes=(15,), volumes=(1, 0), t_max=2, capacity=0.4)
        strict = solve_mip(line_model(**kwargs))
        relaxed = solve_mip(line_model(config=ModelConfig(relax_integrality=True), **kwargs))
        assert strict.status == OPTIMAL and relaxed.status == OPTIMAL
        assert relaxed.objective <= strict.objective + 1e-9
        assert relaxed.objective < strict.objective - 1.0  # integrality binds here


def test_criterion_7_determinism(shuttle_doc, scenario_dir):
    with criterion(7, "identical scenario runs give byte-identical reports and exports"):
        first = run(shuttle_doc)
        second = run(shuttle_doc)
        assert report_capacity_csv(first.capacity) == report_capacity_csv(second.capacity)
        assert report_demand_csv(first.demands) == report_demand_csv(second.demands)

        doc_a = load_scenario(scenario_dir / "small_network.json")
        doc_b = load_scenario(scenario_dir / "small_network.json")
        export_a = export_model_text(build_scenario_model(doc_a), name=doc_a.name)
        export_b = export_model_text(build_scenario_model(doc_b), name=doc_b.name)
        assert export_a.encode() == export_b.encode()


def test_criterion_8_cross_solver_agreement(small_doc, base_run):
    with criterion(8, "external MILP solver reproduces the bundled objective from the export"):
        model = build_scenario_model(small_doc)
        external = solve_with_scipy(export_model_text(model, name=small_doc.name))
        assert external.status == 0
        mine = base_run[0].result.objective
        assert abs(mine - external.fun) <= 1e-6 * max(1.0, abs(external.fun))
