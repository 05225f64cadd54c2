import numpy as np
import pytest

from railflow.checks import (
    ConstraintSystem,
    constraint_family,
    max_violation_by_family,
    verify_solution,
)
from railflow.model import LinearConstraint
from support import bare_model, rebuilt, synthetic_model


def test_violation_measures_per_relation():
    model = synthetic_model(
        [0.0, 0.0],
        [
            ([1.0, 0.0], "<=", 1.0),
            ([0.0, 1.0], ">=", 2.0),
            ([1.0, 1.0], "=", 3.0),
        ],
    )
    system = ConstraintSystem.from_model(model)
    values = np.array([1.5, 1.0])
    violations = system.violations(values)
    assert violations[0] == pytest.approx(0.5)
    assert violations[1] == pytest.approx(1.0)
    assert violations[2] == pytest.approx(0.5)
    assert system.violations(np.array([1.0, 2.0])).max() == 0.0


def test_constraint_family_extraction():
    assert constraint_family("Pace[n=C,t=2,r=A-C-r1]") == "Pace"
    assert constraint_family("plain") == "plain"


def test_max_violation_groups_by_family():
    model = synthetic_model([0.0], [([1.0], "<=", 1.0)])
    model = rebuilt(model, rows=[model.constraints[0]._replace(name="Capacity1[l=A,t=1]")])
    worst = max_violation_by_family(model, np.array([3.0]))
    assert worst["Capacity1"] == pytest.approx(2.0)


def test_max_violation_reads_nan_for_a_family_with_a_nan_row():
    # x0 + x1 <= 3 is NaN at x0 = NaN; x1 <= 1 is violated by 4 at x1 = 5.
    nan_row, finite_row = ([1.0, 1.0], "<=", 3.0), ([0.0, 1.0], "<=", 1.0)
    values = np.array([np.nan, 5.0])
    for rows in ([nan_row], [nan_row, finite_row], [finite_row, nan_row]):
        worst = max_violation_by_family(synthetic_model([0.0, 0.0], rows), values)
        assert list(worst) == ["row"] and np.isnan(worst["row"]), (rows, worst)


def test_activities_are_the_per_row_sums():
    # Empty rows at the start, in the middle and at the end read 0; a NaN
    # value makes its row NaN and leaves the others alone.
    rows = [
        LinearConstraint("empty_first", (), "<=", 0.0),
        LinearConstraint("a", ((0, 1.0), (2, -2.0)), "<=", 0.0),
        LinearConstraint("empty_middle", (), "=", 0.0),
        LinearConstraint("b", ((1, 0.5),), ">=", 0.0),
        LinearConstraint("nan", ((1, 1.0), (3, 1.0)), "<=", 0.0),
        LinearConstraint("empty_last", (), ">=", 0.0),
    ]
    values = np.array([1.5, -2.0, 0.25, np.nan])
    got = rebuilt(bare_model(), rows=rows).rows.activities(values)
    want = [sum(coef * values[idx] for idx, coef in row.terms) for row in rows]
    np.testing.assert_array_equal(got, want)
    assert np.isnan(got[4]) and np.isfinite(np.delete(got, 4)).all()
    only_empty = [rows[0], rows[2]]
    np.testing.assert_array_equal(rebuilt(bare_model(), rows=only_empty).rows.activities(values), [0.0, 0.0])
    assert rebuilt(bare_model(), rows=[]).rows.activities(values).shape == (0,)


def test_verify_solution_reports_bounds_and_integrality():
    model = synthetic_model([0.0], [], integer=(0,), ub=[2.0])
    issues = verify_solution(model, np.array([2.5]))
    assert any("outside" in line for line in issues)
    issues = verify_solution(model, np.array([1.4]))
    assert any("not integral" in line for line in issues)
    assert verify_solution(model, np.array([2.0])) == []


def test_verify_solution_reports_nan_as_a_breach():
    # NaN compares false with everything, so a check written as "breach if
    # value > tolerance" would pass it.
    model = synthetic_model([0.0, 0.0], [([1.0, 1.0], "<=", 3.0)], integer=(0,), ub=[2.0, 2.0])
    assert verify_solution(model, np.array([1.0, 1.0])) == []
    issues = verify_solution(model, np.array([np.nan, 1.0]))
    assert any(line.startswith("row[0]: violated by nan") for line in issues), issues
    assert any("value nan outside" in line for line in issues)
    assert any("value nan not integral" in line for line in issues)
