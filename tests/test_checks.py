import numpy as np
import pytest

from railflow.checks import (
    ConstraintSystem,
    constraint_family,
    max_violation_by_family,
    verify_solution,
)
from support import synthetic_model


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
    assert constraint_family("Capacity4[l=E-F,t=4,h=reg]") == "Capacity4"
    assert constraint_family("plain") == "plain"


def test_max_violation_groups_by_family():
    model = synthetic_model([0.0], [([1.0], "<=", 1.0)])
    model.constraints[0] = model.constraints[0].__class__(
        "Capacity1[l=A,t=1]", model.constraints[0].terms, "<=", 1.0
    )
    worst = max_violation_by_family(model, np.array([3.0]))
    assert worst["Capacity1"] == pytest.approx(2.0)


def test_verify_solution_reports_bounds_and_integrality():
    model = synthetic_model([0.0], [], integer=(0,), ub=[2.0])
    issues = verify_solution(model, np.array([2.5]))
    assert any("outside" in line for line in issues)
    issues = verify_solution(model, np.array([1.4]))
    assert any("not integral" in line for line in issues)
    assert verify_solution(model, np.array([2.0])) == []
