import itertools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from railflow import bnb, simplex
from railflow.bnb import refine_to_earliest_pace, solve_mip
from railflow.model import ModelConfig, build_model
from railflow.scenario import build_scenario_model, load_scenario
from railflow.simplex import (
    INFEASIBLE,
    ITERATION_LIMIT,
    NUMERICS,
    OPTIMAL,
    UNBOUNDED,
    LpSolution,
    Tolerances,
    solve_held_lp,
    solve_model_lp,
)
from support import inflow, line_model, line_raw, synthetic_model

# The benchmark's seeded line generator, imported read only.
sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import synth  # noqa: E402


def enumerate_mip_min(c, rows, ub):
    """Exhaustive lattice search over the integer box; the B&B oracle."""
    best = None
    ranges = [range(int(u) + 1) for u in ub]
    for point in itertools.product(*ranges):
        x = np.array(point, dtype=float)
        ok = True
        for coeffs, relation, rhs in rows:
            lhs = float(np.dot(coeffs, x))
            if relation == "<=" and lhs > rhs + 1e-9:
                ok = False
            elif relation == ">=" and lhs < rhs - 1e-9:
                ok = False
            elif relation == "=" and abs(lhs - rhs) > 1e-9:
                ok = False
            if not ok:
                break
        if ok:
            value = float(np.dot(c, x))
            if best is None or value < best:
                best = value
    return best


def random_mip(rng):
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 4))
    ub = rng.integers(1, 5, size=n)
    A = rng.uniform(-2.0, 3.0, size=(m, n)).round(2)
    b = rng.uniform(0.0, 6.0, size=m).round(2)
    c = rng.uniform(-3.0, 3.0, size=n).round(2)
    rows = [(A[i], "<=", float(b[i])) for i in range(m)]
    return c, rows, ub


def test_model_without_integer_marks_is_a_plain_lp():
    model = synthetic_model([1.0], [([1.0], ">=", 2.5)])
    result = solve_mip(model)
    assert result.status == OPTIMAL
    assert result.nodes == 1
    assert result.objective == pytest.approx(2.5)


def test_single_binary_branches_to_the_best_child():
    # LP relaxation puts the binary at 0.5; the children land on 0 and 1
    model = synthetic_model([-1.0], [([2.0], "<=", 1.0)], integer=(0,), ub=[1.0])
    result = solve_mip(model)
    assert result.status == OPTIMAL
    assert result.objective == pytest.approx(0.0)
    assert result.values[0] == pytest.approx(0.0)
    assert result.nodes >= 2  # root plus at least one child explored


def test_forced_cancellation_is_integral_and_expensive():
    # the only route runs A->B; this demand asks for the reverse direction
    raw = line_raw(minutes=(15,), volumes=(1, 1, 0), route_name="A-B-r1", demand_name="B-A")
    raw["demands"][0].update(origin="B", destination="A")
    model = build_model(load_scenario(raw))
    result = solve_mip(model)
    assert result.status == OPTIMAL
    total = result.values[model.var("cancel_total", "B-A")]
    assert total == pytest.approx(2.0)
    assert abs(total - round(total)) <= 1e-6
    assert result.objective >= 2000.0 - 1e-6


def test_relaxation_bounds_the_integral_optimum():
    # two periods of capacity 0.4 move at most 0.8 of the unit demand, so the
    # integral model cancels the whole train, the relaxation only a fraction
    kwargs = dict(minutes=(15,), volumes=(1, 0), t_max=2, capacity=0.4)
    strict = line_model(**kwargs)
    relaxed = line_model(config=ModelConfig(relax_integrality=True), **kwargs)
    strict_result = solve_mip(strict)
    relaxed_result = solve_mip(relaxed)
    assert strict_result.status == OPTIMAL and relaxed_result.status == OPTIMAL
    assert relaxed_result.objective <= strict_result.objective + 1e-9
    assert strict_result.objective == pytest.approx(1000.0)
    assert relaxed_result.objective < 999.0
    cancel = strict_result.values[strict.var("cancel_total", "A-C")]
    assert abs(cancel - round(cancel)) <= 1e-6


def test_infeasible_integer_model():
    model = synthetic_model(
        [0.0], [([2.0], "=", 1.0)], integer=(0,), ub=[3.0]
    )
    result = solve_mip(model)
    assert result.status == INFEASIBLE


def test_unbounded_root_reported():
    model = synthetic_model([-1.0, 0.0], [([0.0, 1.0], "<=", 1.0)], integer=(1,), ub=[np.inf, 1.0])
    result = solve_mip(model)
    assert result.status == UNBOUNDED


def test_node_limit_returns_limit_status():
    rng = np.random.default_rng(5)
    c, rows, ub = random_mip(rng)
    model = synthetic_model(c, rows, integer=range(len(c)), ub=ub.astype(float))
    result = solve_mip(model, Tolerances(max_nodes=1))
    assert result.status in (OPTIMAL, "iteration_limit")


def test_matches_exhaustive_enumeration_seeded():
    rng = np.random.default_rng(99)
    for _ in range(20):
        c, rows, ub = random_mip(rng)
        model = synthetic_model(c, rows, integer=range(len(c)), ub=ub.astype(float))
        result = solve_mip(model)
        oracle = enumerate_mip_min(c, rows, ub)
        if oracle is None:
            assert result.status == INFEASIBLE
        else:
            assert result.status == OPTIMAL
            assert result.objective == pytest.approx(oracle, abs=1e-9)
            for j in range(len(c)):
                assert abs(result.values[j] - round(result.values[j])) <= 1e-6


def test_incumbent_gap_reported_closed():
    rng = np.random.default_rng(3)
    c, rows, ub = random_mip(rng)
    model = synthetic_model(c, rows, integer=range(len(c)), ub=ub.astype(float))
    result = solve_mip(model)
    if result.status == OPTIMAL:
        assert result.gap is not None and result.gap <= 1e-6
        assert result.bound is not None
        assert result.bound <= result.objective + 1e-9


def lp_ending(monkeypatch, status, when):
    """Make every LP solve whose keyword arguments satisfy when end with status."""
    solve = bnb.solve_model_lp

    def patched(model, tol=None, **kwargs):
        if when(kwargs):
            return LpSolution(status, None, None, 7), None
        return solve(model, tol, **kwargs)

    monkeypatch.setattr(bnb, "solve_model_lp", patched)


@pytest.mark.parametrize(
    "when",
    [
        lambda kwargs: not kwargs,
        # a node's branch bounds leave a side open; the completion fixes integers
        lambda kwargs: any(lo != hi for lo, hi in kwargs.get("bounds", {}).values()),
    ],
    ids=["root", "node"],
)
def test_numerics_lp_stops_the_search(monkeypatch, when):
    # The root LP puts the binary at 0.5 and the fix-and-solve completion
    # finds the incumbent 0, so the search must solve a child node to prove
    # it optimal.
    model = synthetic_model([-1.0], [([2.0], "<=", 1.0)], integer=(0,), ub=[1.0])
    lp_ending(monkeypatch, NUMERICS, when)
    result = solve_mip(model)
    assert result.status == NUMERICS
    assert result.iterations >= 7


@pytest.mark.parametrize(
    "lp_status, status",
    [
        (NUMERICS, NUMERICS),
        (INFEASIBLE, NUMERICS),
        (UNBOUNDED, NUMERICS),
        (ITERATION_LIMIT, ITERATION_LIMIT),
    ],
)
def test_failed_refinement_is_not_optimal(monkeypatch, lp_status, status):
    model = line_model(volumes=(1, 1, 0))
    solved = solve_mip(model)
    assert solved.status == OPTIMAL
    monkeypatch.setattr(
        bnb, "solve_face_lp", lambda *args, **kwargs: (LpSolution(lp_status, None, None, 7), None)
    )
    refined = refine_to_earliest_pace(model, solved)
    assert refined.status == status
    assert refined.objective == solved.objective
    assert refined.values is solved.values
    assert refined.iterations == solved.iterations + 7


def test_refinement_at_the_iteration_cap_reads_iteration_limit():
    # Refinement uses up the tableau of the result it refines, so each
    # refinement gets its own solve.
    model = line_model(volumes=(1, 1, 0))
    assert refine_to_earliest_pace(model, solve_mip(model)).status == OPTIMAL
    capped = refine_to_earliest_pace(model, solve_mip(model), Tolerances(max_iterations=1))
    assert capped.status == ITERATION_LIMIT


def test_pace_objective_weights_each_nodes_inflow_by_its_period():
    # The flow terms of the pace stage are sum over route nodes n and periods
    # t of t * (volume entering n in t), written on departures and link arcs.
    model = line_model(minutes=(9, 12, 18), t_max=4, volumes=(1, 1, 0, 0))
    values = np.random.default_rng(5).uniform(0.0, 1.0, len(model.variables))
    flows = {"dep", "direct", "next"}
    pace = bnb._pace_objective(model)
    got = sum(w * values[idx] for idx, w in pace.items() if model.variables[idx].kind in flows)
    expected = sum(
        t * inflow(model, values, n, t, "A-C-r1")
        for n in model.nodes_of["A-C-r1"]
        for t in range(1, model.doc.t_max + 1)
    )
    assert got == pytest.approx(expected, rel=1e-12)


def completion_statuses(model, branch=None):
    """The status of a node and of its completion, which must agree warm and cold.

    The node is the model's LP under branch.  Its integers are held at their
    rounded values on its own tableau (solve_held_lp) and, for comparison,
    fixed there in a cold LP (solve_model_lp with those bounds).
    """
    node, values = solve_model_lp(model, bounds=branch)
    if node.tableau is None:  # not optimal, or no rows and columns left to hold
        return node.status, None
    ints = np.flatnonzero(model.bound_arrays()[2])
    rounded = np.round(values[ints])
    fixes = {i: (r, r) for i, r in zip(ints.tolist(), rounded.tolist())}
    cold, cold_values = solve_model_lp(model, bounds=fixes)
    warm, warm_values = solve_held_lp(node.tableau, ints, rounded)
    assert warm.status == cold.status
    if cold.status == OPTIMAL:
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
        np.testing.assert_allclose(warm_values[ints], rounded, rtol=0.0, atol=1e-9)
        np.testing.assert_array_equal(cold_values[ints], rounded)
    return node.status, cold.status


def test_warm_completion_matches_a_cold_fixed_lp_on_random_mips():
    # Rows of every relation, the first variables integer: each root and the
    # two children of its first fractional integer.
    rng = np.random.default_rng(27)
    seen = set()
    for _ in range(150):
        c, rows, ub = random_mip(rng)
        rows = [(a, str(rng.choice(["<=", ">=", "="])), b) for a, _, b in rows]
        model = synthetic_model(c, rows, integer=range(int(rng.integers(1, len(c) + 1))), ub=ub.astype(float))
        seen.add(completion_statuses(model))
        _, values = solve_model_lp(model)
        ints = np.flatnonzero(model.bound_arrays()[2])
        frac = [i for i in ints.tolist() if values is not None and abs(values[i] - round(values[i])) > 1e-6]
        if frac:
            v = values[frac[0]]
            seen.add(completion_statuses(model, {frac[0]: (0.0, float(np.floor(v)))}))
            seen.add(completion_statuses(model, {frac[0]: (float(np.ceil(v)), np.inf)}))
    assert {(OPTIMAL, OPTIMAL), (OPTIMAL, INFEASIBLE), (INFEASIBLE, None)} <= seen


@pytest.mark.filterwarnings("ignore:capacity mode")
@pytest.mark.parametrize("seed", [11, 12, 13, 22, 33])
def test_warm_completion_matches_a_cold_fixed_lp_on_generated_lines(seed):
    for doc in (
        synth.line_scenario(seed, 4, 6, 4, single_track=1),
        synth.line_scenario(seed, 5, 6, 5, single_track=2),
    ):
        doc = load_scenario(doc)
        for mode in ("basic", "single_track_alt1", "single_track_alt2"):
            model = build_scenario_model(replace(doc, config=replace(doc.config, capacity_mode=mode)))
            assert completion_statuses(model)[0] == OPTIMAL


def test_small_network_alt2_completes_on_the_roots_tableau(small_doc, monkeypatch):
    # The root LP is fractional; its completion attains the root's bound, on
    # the root's own tableau, which the refinement then uses up.
    built = []
    init = simplex.Tableau.__init__

    def counting(self, sf):
        built.append(self)
        init(self, sf)

    monkeypatch.setattr(simplex.Tableau, "__init__", counting)
    config = replace(small_doc.config, capacity_mode="single_track_alt2")
    model = build_scenario_model(replace(small_doc, config=config))
    result = solve_mip(model)
    assert result.status == OPTIMAL and result.nodes == 1
    assert len(built) == 1 and result.tableau is built[0]
    assert refine_to_earliest_pace(model, result).status == OPTIMAL
    assert len(built) == 1


def test_a_rounding_that_breaks_a_row_is_infeasible_and_the_search_branches(monkeypatch):
    # min -x s.t. x + y = 0.7, x integer in [0, 1], y in [0, 1]: the root
    # puts x at 0.7.  Held at 1, the row needs y = -0.3, so the completion
    # ends infeasible; the down child (x = 0, y = 0.7) is the optimum, and
    # the up child, infeasible, closes the gap.
    model = synthetic_model([-1.0, 0.0], [([1.0, 1.0], "=", 0.7)], integer=(0,), ub=[1.0, 1.0])
    statuses = []
    complete = bnb.solve_held_lp

    def recording(*args):
        solution, values = complete(*args)
        statuses.append(solution.status)
        return solution, values

    monkeypatch.setattr(bnb, "solve_held_lp", recording)
    result = solve_mip(model)
    assert statuses == [INFEASIBLE]
    assert result.status == OPTIMAL and result.nodes == 3
    assert result.objective == 0.0
    np.testing.assert_allclose(result.values, [0.0, 0.7], rtol=0.0, atol=1e-12)
