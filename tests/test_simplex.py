import itertools
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from railflow.simplex import (
    INFEASIBLE,
    ITERATION_LIMIT,
    OPTIMAL,
    UNBOUNDED,
    InfeasibleModel,
    _solve_sparse_basis,
    StandardFormLP,
    Tolerances,
    build_standard_form,
    solve_lp,
    solve_model_lp,
)
from support import synthetic_model


def raw_lp(c, A, b, relations=None):
    """StandardFormLP for min c.x s.t. A x (rel) b, x >= 0."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float).reshape(len(b), len(c))
    n = len(c)
    return StandardFormLP(
        c=c,
        A=A,
        relations=tuple(relations or ("<=",) * len(b)),
        b=np.asarray(b, dtype=float),
        row_names=tuple(f"r{i}" for i in range(len(b))),
        objective_constant=0.0,
        n_model_vars=n,
        offset=np.zeros(n),
        pos_col=np.arange(n),
        neg_col=np.full(n, -1),
    )


def enumerate_vertices_min(c, A, b):
    """Brute-force oracle: check every basic point of {Ax <= b, x >= 0}."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    G = np.vstack([A, -np.eye(n)])
    h = np.concatenate([b, np.zeros(n)])
    best = None
    for rows in itertools.combinations(range(m + n), n):
        M = G[list(rows)]
        if abs(np.linalg.det(M)) < 1e-9:
            continue
        x = np.linalg.solve(M, h[list(rows)])
        if np.all(G @ x <= h + 1e-9):
            value = float(c @ x)
            if best is None or value < best:
                best = value
    return best


def random_bounded_lp(rng):
    """Feasible (origin) and bounded (simplex cap row) random LP."""
    n = int(rng.integers(1, 6))
    m = int(rng.integers(0, 5))
    A = rng.uniform(-1.0, 2.0, size=(m, n))
    b = rng.uniform(0.5, 3.0, size=m)
    cap = rng.uniform(2.0, 6.0)
    A = np.vstack([A, np.ones((1, n))])
    b = np.concatenate([b, [cap]])
    c = rng.uniform(-2.0, 2.0, size=n)
    return c, A, b


def test_minimize_single_bounded_variable():
    lp = raw_lp([1.0], [[1.0]], [3.0], relations=(">=",))
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(3.0)
    assert sol.x[0] == pytest.approx(3.0)


def test_two_variable_vertex():
    c = [-1.0, -1.0]
    A = [[1.0, 1.0]]
    b = [1.0]
    sol = solve_lp(raw_lp(c, A, b))
    oracle = enumerate_vertices_min(c, np.array(A), np.array(b))
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-1.0)
    assert sol.objective == pytest.approx(oracle, abs=1e-9)


def test_contradictory_bounds_infeasible():
    model = synthetic_model([1.0], [([1.0], "<=", -1.0)])
    with pytest.raises(InfeasibleModel):
        build_standard_form(model)
    solution, values = solve_model_lp(model)
    assert solution.status == INFEASIBLE and values is None


def test_infeasible_rows_detected_by_phase_one():
    # x0 + x1 >= 4 conflicts with x0 + x1 <= 1 (neither row is a singleton)
    lp = raw_lp([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]], [4.0, 1.0], relations=(">=", "<="))
    assert solve_lp(lp).status == INFEASIBLE


def test_unbounded_detected():
    lp = raw_lp([-1.0, 0.0], [[0.0, 1.0]], [1.0])
    assert solve_lp(lp).status == UNBOUNDED


def test_iteration_limit_reported():
    rng = np.random.default_rng(7)
    c, A, b = random_bounded_lp(rng)
    sol = solve_lp(raw_lp(c, A, b), Tolerances(max_iterations=0))
    assert sol.status == ITERATION_LIMIT


def test_oracle_agreement_seeded():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        c, A, b = random_bounded_lp(rng)
        sol = solve_lp(raw_lp(c, A, b))
        oracle = enumerate_vertices_min(c, A, b)
        assert sol.status == OPTIMAL
        assert oracle is not None
        assert sol.objective == pytest.approx(oracle, abs=1e-7)


def test_duality_gap_closes():
    rng = np.random.default_rng(11)
    for _ in range(25):
        c, A, b = random_bounded_lp(rng)
        sol = solve_lp(raw_lp(c, A, b))
        assert sol.status == OPTIMAL
        assert sol.dual_objective is not None
        assert abs(sol.objective - sol.dual_objective) <= 1e-7 * max(1.0, abs(sol.objective))


@given(st.integers(min_value=0, max_value=10_000))
def test_oracle_agreement_property(seed):
    rng = np.random.default_rng(seed)
    c, A, b = random_bounded_lp(rng)
    sol = solve_lp(raw_lp(c, A, b))
    oracle = enumerate_vertices_min(c, A, b)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(oracle, abs=1e-7)


def test_singleton_rows_fold_into_fixings():
    model = synthetic_model([1.0, 1.0], [([1.0, 0.0], "=", 2.0), ([1.0, 1.0], ">=", 1.0)])
    sf = build_standard_form(model)
    assert sf.n_cols == 1  # x0 was folded away
    solution, values = solve_model_lp(model)
    assert solution.status == OPTIMAL
    assert values[0] == pytest.approx(2.0)
    assert values[1] == pytest.approx(0.0)
    assert solution.objective == pytest.approx(2.0)


def test_free_variable_can_go_negative():
    model = synthetic_model([0.0, 1.0], [([1.0, -1.0], "=", -2.5)])
    model.variables[0] = model.variables[0].__class__(
        model.variables[0].ref, model.variables[0].name, lb=-np.inf
    )
    solution, values = solve_model_lp(model)
    assert solution.status == OPTIMAL
    assert values[0] == pytest.approx(-2.5)


def test_violated_empty_row_is_infeasible():
    model = synthetic_model([1.0], [([1.0], "=", 1.0), ([2.0], "=", 3.0)])
    solution, _ = solve_model_lp(model)
    assert solution.status == INFEASIBLE


def test_general_form_agreement_with_reference():
    # mixes of =, <=, >=, free and boxed variables against scipy's solver
    # (reference presolve off: it may misreport unbounded problems otherwise)
    from scipy.optimize import linprog

    from support import bare_model

    rng = np.random.default_rng(424242)
    outcomes = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(120):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        model = bare_model()
        bounds = []
        for j in range(n):
            lb = -np.inf if rng.random() < 0.25 else 0.0
            ub = float(rng.uniform(0.5, 4.0)) if rng.random() < 0.3 else np.inf
            model.add_variable("x", (j,), f"x{j}", lb=lb, ub=ub)
            bounds.append((lb, ub))
        c = rng.uniform(-2, 2, size=n).round(3)
        model.objective = {j: float(c[j]) for j in range(n) if c[j] != 0.0}
        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for k in range(m):
            coeffs = np.where(rng.random(n) < 0.7, rng.uniform(-2, 2, size=n).round(3), 0.0)
            if not coeffs.any():
                coeffs[int(rng.integers(0, n))] = 1.0
            relation = rng.choice(["<=", ">=", "="], p=[0.5, 0.3, 0.2])
            rhs = round(float(rng.uniform(-2, 4)), 3)
            terms = [(j, float(coeffs[j])) for j in range(n) if coeffs[j] != 0.0]
            model.add_constraint(f"row[{k}]", terms, relation, rhs)
            if relation == "<=":
                a_ub.append(coeffs)
                b_ub.append(rhs)
            elif relation == ">=":
                a_ub.append(-coeffs)
                b_ub.append(-rhs)
            else:
                a_eq.append(coeffs)
                b_eq.append(rhs)
        reference = linprog(
            c,
            A_ub=np.array(a_ub) if a_ub else None,
            b_ub=b_ub or None,
            A_eq=np.array(a_eq) if a_eq else None,
            b_eq=b_eq or None,
            bounds=bounds,
            method="highs",
            options={"presolve": False},
        )
        expected = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}[reference.status]
        solution, _ = solve_model_lp(model)
        assert solution.status == expected
        outcomes[expected] += 1
        if expected == OPTIMAL:
            assert solution.objective == pytest.approx(reference.fun, rel=1e-6, abs=1e-7)
    assert min(outcomes.values()) > 0  # the generator hits all three outcomes


def test_degenerate_lp_terminates():
    # many redundant rows through the origin force degenerate pivots
    c = [-1.0, -1.0, -1.0]
    A = [
        [1.0, 1.0, 1.0],
        [1.0, 1.0, 1.0],
        [2.0, 2.0, 2.0],
        [1.0, 0.0, 0.0],
    ]
    b = [1.0, 1.0, 2.0, 1.0]
    sol = solve_lp(raw_lp(c, A, b))
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-1.0)


def solve_coo(M, b, c):
    """_solve_sparse_basis on the nonzeros of a dense matrix."""
    rows, slots = np.nonzero(M)
    return _solve_sparse_basis(rows, slots, M[rows, slots], np.asarray(b, float), np.asarray(c, float))


def test_sparse_basis_peels_singletons_around_a_bump(monkeypatch):
    # Block lower triangular: rows 0-1 are forward row singletons, rows and
    # columns 2-4 a dense bump, columns 5-6 backward column singletons.
    L = np.array(
        [
            [2.0, 0, 0, 0, 0, 0, 0],
            [1.0, -3.0, 0, 0, 0, 0, 0],
            [0.5, 0, 4.0, 1.0, -1.0, 0, 0],
            [0, 2.0, 1.0, 3.0, 2.0, 0, 0],
            [0, 0, -1.0, 1.0, 5.0, 0, 0],
            [1.0, 0, 2.0, 0, 1.0, 1.5, 0],
            [0, 1.0, 0, -2.0, 0, 0.5, -4.0],
        ]
    )
    rng = np.random.default_rng(3)
    M = L[rng.permutation(7)][:, rng.permutation(7)]
    b = rng.uniform(-2.0, 2.0, 7)
    c = rng.uniform(-2.0, 2.0, 7)
    dense_solve = np.linalg.solve
    shapes = []

    def recording_solve(a, v):
        shapes.append(np.shape(a))
        return dense_solve(a, v)

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    x, y = solve_coo(M, b, c)
    assert shapes == [(3, 3), (3, 3)]  # only the bump is solved densely
    np.testing.assert_allclose(x, dense_solve(M, b), rtol=0, atol=1e-12)
    np.testing.assert_allclose(y, dense_solve(M.T, c), rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "M",
    [
        # rows 0 and 1 both hold only column 0
        [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 1.0, 1.0]],
        # column 1 is empty
        [[1.0, 0.0, 1.0], [2.0, 0.0, 1.0], [1.0, 0.0, 3.0]],
        # structurally fine, but the bump is numerically singular
        [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]],
    ],
)
def test_sparse_basis_singular_raises(M):
    with pytest.raises(np.linalg.LinAlgError):
        solve_coo(np.array(M), np.ones(3), np.ones(3))


@given(st.integers(min_value=0, max_value=10_000))
def test_sparse_basis_matches_dense_solve_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 16))
    density = rng.uniform(0.0, 0.4)
    M = np.where(rng.random((n, n)) < density, rng.uniform(-3.0, 3.0, (n, n)), 0.0)
    M[np.arange(n), np.arange(n)] = rng.uniform(1.0, 3.0, n) * rng.choice([-1.0, 1.0], n)
    M = M[rng.permutation(n)][:, rng.permutation(n)]
    assume(np.linalg.cond(M) < 1e6)
    b = rng.uniform(-5.0, 5.0, n)
    c = rng.uniform(-5.0, 5.0, n)
    x, y = solve_coo(M, b, c)
    np.testing.assert_allclose(x, np.linalg.solve(M, b), rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(y, np.linalg.solve(M.T, c), rtol=1e-9, atol=1e-9)


def test_small_network_lp_matches_highs(small_doc):
    # A real-size basis (1130 rows) leaves a bump after the singleton peel,
    # which the tiny random LPs above never do.
    from scipy.optimize import linprog

    from railflow.scenario import build_scenario_model

    config = replace(small_doc.config, capacity_mode="single_track_alt1", relax_integrality=True)
    sf = build_standard_form(build_scenario_model(replace(small_doc, config=config)))
    assert (sf.n_rows, sf.n_cols) == (1130, 1350)
    solution = solve_lp(sf)
    assert solution.status == OPTIMAL

    rel = np.array(sf.relations)
    upper = np.concatenate([sf.A[rel == "<="], -sf.A[rel == ">="]])
    reference = linprog(
        sf.c,
        A_ub=upper,
        b_ub=np.concatenate([sf.b[rel == "<="], -sf.b[rel == ">="]]),
        A_eq=sf.A[rel == "="],
        b_eq=sf.b[rel == "="],
        bounds=(0, None),
        method="highs",
    )
    assert reference.status == 0
    assert solution.objective == pytest.approx(reference.fun + sf.objective_constant, rel=1e-9)

    activity = sf.A @ solution.x
    assert np.all(activity[rel == "<="] <= sf.b[rel == "<="] + 1e-9)
    assert np.all(activity[rel == ">="] >= sf.b[rel == ">="] - 1e-9)
    np.testing.assert_allclose(activity[rel == "="], sf.b[rel == "="], rtol=0, atol=1e-9)
    assert solution.x.min() >= 0.0


def test_solving_does_not_import_scipy(scenario_dir):
    """A solve must not pull in scipy at run time.

    scipy is a test dependency only.  Importing scipy.sparse.linalg after
    numpy raises peak RSS from about 27 MB to 59 MB and takes about 0.3 s
    (2-core 2.0 GHz Xeon).  BENCHMARK.json lets peak_rss_mb grow by 10 %,
    about 11 MB on a solve that peaks near 106 MB, so a basis factorization
    borrowed from scipy would cost three times that bound in memory alone.
    """
    script = (
        "import sys\n"
        "from pathlib import Path\n"
        "from railflow.scenario import load_scenario, run\n"
        f"output = run(load_scenario(Path({str(scenario_dir / 'small_network.json')!r})))\n"
        "assert output.result.status == 'optimal', output.result.status\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
