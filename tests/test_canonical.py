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
from support import line_model

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
    row_of = np.repeat(np.arange(system.rhs.size), np.diff(system.starts))
    A = sparse.csr_matrix((system.coefs, (row_of, system.var_idx)), shape=(system.rhs.size, n))
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
    model.constraints.reverse()
    second = solve_mip(model)
    assert second.iterations != first.iterations
    assert reports(model, refine_to_earliest_pace(model, second).values) == forward


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
