"""Feasibility auditing of solved models, independent of the solver path.

Activities are evaluated straight from the stored constraints and a value
vector, so every number a report or test sees can be reproduced from the
solution alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import LinearConstraint, TimeExpandedModel

# Defaults suit data made of small integers and fractions.
FEASIBILITY = 1e-7  # largest row or bound breach a solution may show
INTEGRALITY = 1e-6  # largest distance of an integer variable from an integer


@dataclass(frozen=True)
class ConstraintSystem:
    """The rows of a model as CSR arrays, for vectorized activities.

    from_rows is the one place where LinearConstraint rows become arrays; the
    audit here and simplex.build_standard_form both read them.
    """

    starts: np.ndarray
    var_idx: np.ndarray
    coefs: np.ndarray
    rhs: np.ndarray
    sense: np.ndarray  # -1 for <=, 0 for =, +1 for >=

    @classmethod
    def from_rows(cls, rows: Sequence[LinearConstraint]) -> "ConstraintSystem":
        """CSR arrays of the rows, in row order and, within a row, term order."""
        terms = [term for row in rows for term in row.terms]
        sense_of = {"<=": -1, "=": 0, ">=": 1}
        lengths = np.array([len(row.terms) for row in rows], dtype=int)
        return cls(
            starts=np.concatenate([[0], np.cumsum(lengths)]),
            var_idx=np.array([idx for idx, _ in terms], dtype=int),
            coefs=np.array([coef for _, coef in terms], dtype=float),
            rhs=np.array([row.rhs for row in rows], dtype=float),
            sense=np.array([sense_of[row.relation] for row in rows], dtype=int),
        )

    @classmethod
    def from_model(cls, model: TimeExpandedModel) -> "ConstraintSystem":
        return cls.from_rows(model.constraints)

    def activities(self, values: np.ndarray) -> np.ndarray:
        n = len(self.rhs)
        if n == 0:
            return np.zeros(0)
        products = self.coefs * values[self.var_idx]
        if not products.size:
            return np.zeros(n)
        # reduceat needs indices < len(products); trailing empty segments are
        # clamped and then zeroed through the empty-segment mask.
        idx = np.minimum(self.starts[:-1], products.size - 1)
        totals = np.add.reduceat(products, idx)
        empty = self.starts[:-1] == self.starts[1:]
        if empty.any():
            totals[empty] = 0.0
        return totals

    def violations(self, values: np.ndarray) -> np.ndarray:
        """Per-constraint infeasibility amount (0 when satisfied)."""
        act = self.activities(values)
        over = act - self.rhs
        out = np.where(self.sense == 0, np.abs(over), 0.0)
        out = np.where(self.sense == -1, np.maximum(over, 0.0), out)
        out = np.where(self.sense == 1, np.maximum(-over, 0.0), out)
        return out


def constraint_family(name: str) -> str:
    return name.split("[", 1)[0]


def max_violation_by_family(model: TimeExpandedModel, values: np.ndarray) -> dict[str, float]:
    system = ConstraintSystem.from_model(model)
    worst: dict[str, float] = {}
    for row, violation in zip(model.constraints, system.violations(values)):
        family = constraint_family(row.name)
        if violation > worst.get(family, 0.0):
            worst[family] = float(violation)
    return worst


def verify_solution(
    model: TimeExpandedModel,
    values: np.ndarray,
    feasibility: float = FEASIBILITY,
    integrality: float | None = INTEGRALITY,
) -> list[str]:
    """All constraint, bound and integrality breaches beyond the tolerances."""
    issues: list[str] = []
    system = ConstraintSystem.from_model(model)
    violation = system.violations(values)
    for k in np.nonzero(violation > feasibility)[0]:
        issues.append(f"{model.constraints[k].name}: violated by {violation[k]:g}")
    for i, var in enumerate(model.variables):
        if values[i] < var.lb - feasibility or values[i] > var.ub + feasibility:
            issues.append(f"{var.name}: value {values[i]:g} outside [{var.lb:g}, {var.ub:g}]")
        if integrality is not None and var.integer and abs(values[i] - round(values[i])) > integrality:
            issues.append(f"{var.name}: value {values[i]:g} not integral")
    return issues
