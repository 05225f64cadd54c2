"""Feasibility auditing of solved models, independent of the solver path.

Activities are evaluated straight from the model's row store and a value
vector, so every number a report or test sees can be reproduced from the
solution alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:
    from .model import TimeExpandedModel

# Defaults suit data made of small integers and fractions.
FEASIBILITY = 1e-7  # largest row or bound breach a solution may show
INTEGRALITY = 1e-6  # largest distance of an integer variable from an integer
SENSE = {"<=": -1, "=": 0, ">=": 1}  # ConstraintSystem.sense of each relation


class LinearConstraint(NamedTuple):
    """name: family[index,...]; terms: (variable index, coefficient) pairs."""

    name: str
    terms: tuple[tuple[int, float], ...]
    relation: str  # one of "<=", "=", ">="
    rhs: float


def merged_terms(row: np.ndarray, var: np.ndarray, coef: np.ndarray):
    """Terms (row, var, coef), given in row and term order, with each variable
    once per row: a repeated variable's coefficients are summed in term order
    at its first term's place, and a sum of 0 drops."""
    if var.size > 1:
        key = row * (int(var.max()) + 1) + var
        order = np.argsort(key, kind="stable")
        repeat = key[order[1:]] == key[order[:-1]]
        if repeat.any():
            # In sorted order a variable's terms of one row are adjacent and
            # in term order; rank k adds the k-th repeat to the first term.
            first = np.concatenate([[True], ~repeat])
            place = np.arange(var.size)
            start = np.maximum.accumulate(np.where(first, place, 0))
            rank = place - start
            coef = coef.copy()
            for k in range(1, int(rank.max()) + 1):
                at = rank == k
                coef[order[start[at]]] += coef[order[at]]
            keep = np.zeros(var.size, dtype=bool)
            keep[order[first]] = True
            row, var, coef = row[keep], var[keep], coef[keep]
    live = coef != 0.0
    return row[live], var[live], coef[live]


@dataclass(frozen=True)
class ConstraintSystem:
    """Rows as arrays: the one store of a model's rows.

    Row i is names[i], with sense[i] and right-hand side rhs[i].  Term k puts
    coefs[k] on variable var_idx[k] (a place in the model's variable arrays)
    in row row_of[k]; the terms come in row order and, within a row, in term
    order, with each variable once.  A model appends its rows in blocks
    (TimeExpandedModel.add_rows and add_constraint) and from_model returns
    the joined store as it is; the audit here, simplex.build_standard_form,
    mps_io and the capacity report read it.  Its arrays are read-only.
    """

    names: tuple[str, ...]
    row_of: np.ndarray
    var_idx: np.ndarray
    coefs: np.ndarray
    rhs: np.ndarray
    sense: np.ndarray  # SENSE of each row's relation

    def __post_init__(self) -> None:
        for array in (self.row_of, self.var_idx, self.coefs, self.rhs, self.sense):
            array.setflags(write=False)

    @classmethod
    def empty(cls) -> "ConstraintSystem":
        none = np.zeros(0, dtype=np.intp)
        return cls((), none, none, np.zeros(0), np.zeros(0), none)

    @classmethod
    def of_terms(cls, names, sense: int, rhs, row, var, coef, emit) -> "ConstraintSystem":
        """Rows i with emit[i] of names[i], sense and rhs[i], with their
        terms (row, var, coef), given in row and term order."""
        kept = emit[row]
        return cls(
            names=tuple(names) if emit.all() else tuple(names[i] for i in np.flatnonzero(emit).tolist()),
            row_of=(np.cumsum(emit) - 1)[row[kept]],
            var_idx=var[kept],
            coefs=coef[kept],
            rhs=rhs[emit],
            sense=np.full(np.count_nonzero(emit), sense, dtype=np.intp),
        )

    @classmethod
    def joined(cls, parts: Sequence["ConstraintSystem"]) -> "ConstraintSystem":
        """The rows of parts, one after the other."""
        starts = np.cumsum([0] + [len(p.names) for p in parts[:-1]])
        return cls(
            names=tuple(name for p in parts for name in p.names),
            row_of=np.concatenate([p.row_of + start for p, start in zip(parts, starts)]),
            var_idx=np.concatenate([p.var_idx for p in parts]),
            coefs=np.concatenate([p.coefs for p in parts]),
            rhs=np.concatenate([p.rhs for p in parts]),
            sense=np.concatenate([p.sense for p in parts]),
        )

    @classmethod
    def from_model(cls, model: TimeExpandedModel) -> "ConstraintSystem":
        return model.rows

    @cached_property
    def records(self) -> tuple[LinearConstraint, ...]:
        """The rows as records, made once on request."""
        relation = {sense: rel for rel, sense in SENSE.items()}
        terms = list(zip(self.var_idx.tolist(), self.coefs.tolist()))
        ends = np.searchsorted(self.row_of, np.arange(len(self.names) + 1)).tolist()
        rows = zip(self.names, self.sense.tolist(), self.rhs.tolist(), ends, ends[1:])
        return tuple(LinearConstraint(name, tuple(terms[a:b]), relation[sense], rhs) for name, sense, rhs, a, b in rows)

    def activities(self, values: np.ndarray) -> np.ndarray:
        """Each row's sum of its terms at values; an empty row reads 0."""
        return np.bincount(self.row_of, weights=self.coefs * values[self.var_idx], minlength=self.rhs.size)

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
    for name, violation in zip(system.names, system.violations(values).tolist()):
        family = constraint_family(name)
        # A NaN row reads NaN, and no later row of its family replaces it.
        current = worst.get(family, 0.0)
        if not (math.isnan(current) or violation <= current):
            worst[family] = violation
    return worst


def verify_solution(
    model: TimeExpandedModel,
    values: np.ndarray,
    feasibility: float = FEASIBILITY,
    integrality: float | None = INTEGRALITY,
) -> list[str]:
    """All constraint, bound and integrality breaches beyond the tolerances.

    Every check passes only on a comparison that holds, so a NaN value, or a
    row that a NaN makes NaN, is a breach.  The checks run over whole
    arrays; only the breaches are named, rows first and then variables in
    order, each variable's bound before its integrality.
    """
    system = ConstraintSystem.from_model(model)
    violation = system.violations(values)
    issues = [
        f"{system.names[k]}: violated by {violation[k]:g}" for k in np.flatnonzero(~(violation <= feasibility))
    ]
    lb, ub, integer = model.bound_arrays()
    outside = ~((lb - feasibility <= values) & (values <= ub + feasibility))
    fractional = np.zeros(values.size, dtype=bool)
    if integrality is not None:
        ints = np.flatnonzero(integer)
        fractional[ints] = ~(np.abs(values[ints] - np.round(values[ints])) <= integrality)
    for i in np.flatnonzero(outside | fractional).tolist():
        name, value = model.names[i], float(values[i])
        if outside[i]:
            issues.append(f"{name}: value {value:g} outside [{float(lb[i]):g}, {float(ub[i]):g}]")
        if fractional[i]:
            issues.append(f"{name}: value {value:g} not integral")
    return issues
