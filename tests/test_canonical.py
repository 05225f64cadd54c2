"""Refined reports are canonical: a function of the model, not of the pivots.

Pace refinement ends in a tie-break stage with fixed generic weights on the
pace-optimal face, so an independent solver that runs the same three stages
must write the same CSV bytes.  HiGHS (``scipy.optimize.linprog``) runs them
with the integers fixed at railflow's ``solve_mip`` values:

1. the primary objective;
2. the pace objective, with the primary objective pinned at its optimum;
3. the tie-break objective, with both objectives pinned.

Each pin is HiGHS's own optimum with no added slack: a slack of 1e-9 lets
HiGHS move about 1e-9 along the later objectives, which flips cells that sit
exactly on a half-cent rounding boundary (2.325 in ``small_network``).
"""

import hashlib
import json
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from mps_reader import solve_with_scipy
from railflow.bnb import (
    _pace_objective,
    _tie_break_objective,
    refine_to_earliest_pace,
    solve_mip,
)
from railflow.checks import ConstraintSystem
from railflow.model import CAPACITY_MODES
from railflow.mps_io import export_model_text
from railflow.scenario import (
    build_capacity_report,
    build_demand_report,
    build_scenario_model,
    load_scenario,
    report_capacity_csv,
    report_demand_csv,
    run,
)
from railflow.simplex import OPTIMAL, Tolerances
from support import line_model, rebuilt

# The benchmark's seeded line generator, imported read only.
sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import synth  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ("three_station_line", "single_track_shuttle", "small_network", "small_network_tcr")


def reports(model, values) -> bytes:
    capacity = report_capacity_csv(build_capacity_report(model, values))
    return capacity + report_demand_csv(build_demand_report(model, values))


def highs_stages(model, integer_values) -> np.ndarray:
    """The three refinement stages through HiGHS, with no post-processing."""
    system = ConstraintSystem.from_model(model)
    n = len(model.variables)
    A = sparse.csr_matrix((system.coefs, (system.row_of, system.var_idx)), shape=(system.rhs.size, n))
    bounds = [
        (float(round(integer_values[i])),) * 2 if v.integer else (v.lb, v.ub)
        for i, v in enumerate(model.variables)
    ]
    bounds = [(lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None) for lo, hi in bounds]
    upper, lower, equal = system.sense == -1, system.sense == 1, system.sense == 0
    A_ub = sparse.vstack([A[upper], -A[lower]]).tocsr()
    b_ub = np.concatenate([system.rhs[upper], -system.rhs[lower]])
    for objective in (model.objective, _pace_objective(model), _tie_break_objective(model)):
        c = np.zeros(n)
        c[list(objective)] = list(objective.values())
        stage = linprog(
            c, A_ub=A_ub, b_ub=b_ub, A_eq=A[equal], b_eq=system.rhs[equal], bounds=bounds, method="highs"
        )
        assert stage.status == 0, stage.message
        A_ub = sparse.vstack([A_ub, sparse.csr_matrix(c)]).tocsr()
        b_ub = np.append(b_ub, stage.fun)
    values = stage.x.copy()
    values[np.abs(values) < 1e-9] = 0.0
    return values


def assert_canonical(model, tol=None):
    """Refinement ends optimal, keeps the objective and writes HiGHS's reports."""
    solved = solve_mip(model, tol)
    assert solved.status == OPTIMAL
    integers, objective = solved.values, solved.objective
    refined = refine_to_earliest_pace(model, solved, tol)
    assert refined.status == OPTIMAL
    assert refined.objective == pytest.approx(objective, rel=1e-12, abs=0.0)
    assert reports(model, refined.values) == reports(model, highs_stages(model, integers))
    return refined


def bundled_model(scenario, mode):
    doc = load_scenario(ROOT / "scenarios" / f"{scenario}.json")
    doc = replace(doc, config=replace(doc.config, capacity_mode=mode))
    with warnings.catch_warnings():
        # single-track modes warn on networks without single-track pairs
        warnings.simplefilter("ignore")
        return build_scenario_model(doc)


@pytest.mark.parametrize("mode", CAPACITY_MODES)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_bundled_refinement_matches_highs_stages(scenario, mode):
    assert_canonical(bundled_model(scenario, mode))


# seeds 11-14 of 4 and 5 stations, and the single-track lines whose
# refinement used to end numerics or at the iteration cap
LINES = sorted(
    {(seed, stations, relax) for seed in (11, 12, 13, 14) for stations in (4, 5) for relax in (True, False)}
    | {(32, 4, True), (44, 4, True), (11, 5, True), (43, 4, False), (73, 4, False), (12, 5, False), (24, 5, False)}
)


@pytest.mark.parametrize(
    "seed, stations, relax", LINES, ids=[f"{s}-{n}-{'lp' if r else 'mip'}" for s, n, r in LINES]
)
def test_generated_line_refinement_matches_highs_stages(seed, stations, relax):
    doc = synth.line_scenario(seed, stations, 6, stations, single_track=1, relax_integrality=relax)
    assert_canonical(build_scenario_model(load_scenario(doc)))


ALT2_LINES = [
    (seed, stations, segments) for seed in (11, 12, 13, 14) for stations in (4, 5) for segments in (1, 2)
]


@pytest.mark.parametrize(
    "seed, stations, segments", ALT2_LINES, ids=[f"{s}-{n}-alt2-{k}" for s, n, k in ALT2_LINES]
)
def test_generated_alt2_line_refinement_matches_highs_stages(seed, stations, segments):
    # Integer lines in single_track_alt2 with one or two single-track
    # segments: the setup rows and direction flags go through both solvers.
    doc = synth.line_scenario(seed, stations, 6, stations, single_track=segments)
    doc["config"]["capacity_mode"] = "single_track_alt2"
    assert_canonical(build_scenario_model(load_scenario(doc)))


# (seed, stations, single-track segments, capacity mode, relaxed) of a
# generated line, and the sha256 of its MPS export.
EXPORTED_LINES = [
    (11, 4, 0, "basic", False, "1e77db1cebd15cc5c3c0bd511c09bfccf2bbb4a219354a9502110a63f42abcc9"),
    (12, 4, 1, "single_track_alt1", True, "31f3f1d71a563a2bfb0b2035558aa47ddd4edea821d4a6b163b9f30d1c03784a"),
    (13, 5, 2, "single_track_alt2", False, "055c3ce703236f03b6bacda2dcfaed3c776ef2369ca71dea1754e39e617aaf9a"),
    (14, 5, 1, "heterogeneous", True, "d9606ec9964be090fbcfd821278cd3076c4bb400e4c6f52f2bcf63db6a87eea2"),
    (15, 3, 2, "single_track_alt2", True, "0b9a513152215739c68e3447e4131897dc054c2734ed341fc113d732614049fc"),
    (16, 4, 1, "heterogeneous", False, "59109011edc74821e5504c792b5e18b47742a2c8c6a8d2a1552452fc0290ed08"),
]


@pytest.mark.parametrize(
    "seed, stations, segments, mode, relax, digest",
    EXPORTED_LINES,
    ids=[f"{line[0]}-{line[3]}" for line in EXPORTED_LINES],
)
def test_generated_line_exports_the_same_bytes(seed, stations, segments, mode, relax, digest):
    # Pins the model of generated lines beyond the bundled cases: variables
    # (names, order, bounds, integrality), rows and objective all show in
    # the MPS text.
    doc = synth.line_scenario(seed, stations, 6, stations, single_track=segments, relax_integrality=relax)
    doc["config"]["capacity_mode"] = mode
    text = export_model_text(build_scenario_model(load_scenario(doc)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_single_track_line_refinement_ends_optimal():
    # The cold refinement LP of this line ran into the default cap of
    # 200,000 iterations although solve_mip is optimal in 712; warm, it takes
    # a few dozen.  The cap of 2,000 per LP makes the cold path fail fast.
    doc = synth.line_scenario(24, 5, 6, 5, single_track=1)
    output = run(load_scenario(doc), Tolerances(max_iterations=2_000))
    assert output.result.status == OPTIMAL
    assert output.result.iterations < 1_000
    external = solve_with_scipy(export_model_text(output.model))
    assert external.status == 0
    assert output.result.objective == pytest.approx(external.fun, abs=1e-7)


@pytest.mark.parametrize("scenario, mode", [("small_network", "basic"), ("small_network_tcr", "single_track_alt2")])
def test_refined_reports_do_not_depend_on_row_order(scenario, mode):
    # Reversing the rows sends the simplex down another pivot path (1159 and
    # 1036 iterations on small_network basic) to another optimal vertex; the
    # refined reports stay byte-identical.
    model = bundled_model(scenario, mode)
    first = solve_mip(model)
    forward = reports(model, refine_to_earliest_pace(model, first).values)
    model = rebuilt(model, rows=model.constraints[::-1])
    second = solve_mip(model)
    assert second.iterations != first.iterations
    assert reports(model, refine_to_earliest_pace(model, second).values) == forward


def keyed_rows(output) -> dict:
    """Report rows by what they describe: link, coupled pair or (demand, series)."""
    pair_of = {f"setup {pair[0]}": frozenset(pair) for pair in output.capacity.setup_pairs}
    capacity = report_capacity_csv(output.capacity).decode().splitlines()[1:]
    demand = report_demand_csv(output.demands).decode().splitlines()[1:]
    rows = {pair_of.get(label, label): cells for label, cells in (line.split(",", 1) for line in capacity)}
    rows.update({tuple(line.split(",")[:2]): line.split(",")[2:] for line in demand})
    return rows


def bundled_raw(scenario, mode):
    raw = json.loads((ROOT / "scenarios" / f"{scenario}.json").read_text())
    raw.setdefault("config", {})["capacity_mode"] = mode
    return raw


def run_quietly(raw):
    with warnings.catch_warnings():
        # single-track modes warn on networks without single-track pairs
        warnings.simplefilter("ignore")
        return run(load_scenario(raw))


# Branch and bound picks another of the tied integer optima here: the beta
# flags differ, and so do the refined flows.
INTEGER_TIES = {f"{sc}:single_track_alt2:links" for sc in ("small_network", "small_network_tcr")}
REORDERINGS = [
    pytest.param(
        scenario, mode, field,
        marks=pytest.mark.xfail(strict=True, reason="tied integer optima are not broken canonically")
        if f"{scenario}:{mode}:{field}" in INTEGER_TIES else (),
        id=f"{scenario}:{mode}:{field}",
    )
    for scenario in SCENARIOS
    for mode in CAPACITY_MODES
    for field in ("routes", "links", "demands", "nodes", "single_track_pairs")
]


@pytest.mark.parametrize("scenario, mode, field", REORDERINGS)
def test_refined_reports_do_not_depend_on_document_order(scenario, mode, field):
    raw = bundled_raw(scenario, mode)
    forward = run_quietly(raw)
    raw[field] = raw.get(field, [])[::-1]
    backward = run_quietly(raw)
    assert backward.result.objective == pytest.approx(forward.result.objective, rel=1e-9, abs=0.0)
    assert keyed_rows(backward) == keyed_rows(forward)


@pytest.mark.parametrize(
    "volumes, capacity", [((1, 1, 0), 0.4), ((2, 1, 0), 0.4), ((2, 1, 0), 0.7), ((1, 2, 0), 1.0)]
)
def test_branched_refinement_matches_highs_stages(volumes, capacity):
    # Too little capacity for whole trains, so branch and bound solves child
    # nodes.  The incumbent's LP, whose tableau the refinement continues on,
    # is the fix-and-solve completion in the first three cases and a child
    # node (with its branch bound) in the last.
    model = line_model(minutes=(15,), volumes=volumes, t_max=3, capacity=capacity)
    assert assert_canonical(model).nodes > 1
