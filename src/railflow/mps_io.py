"""Free-format MPS export of a built model.

The writer is deterministic: rows in constraint order, columns in variable
order, values printed with 12 significant digits, so re-exporting the same
model yields identical bytes.  Any MPS-aware solver can read the file and
verify the bundled solver's objective.
"""

from __future__ import annotations

import math

from .model import TimeExpandedModel

_NAME_WIDTH = 44
_OBJ_ROW = "OBJ"


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def export_model_text(model: TimeExpandedModel, name: str = "RAILFLOW") -> str:
    """Serialize the model as free MPS text (rows, columns, RHS, bounds)."""
    lines: list[str] = []
    lines.append(f"NAME          {name}")
    lines.append("ROWS")
    lines.append(f" N  {_OBJ_ROW}")
    sense_tag = {"<=": "L", "=": "E", ">=": "G"}
    for row in model.constraints:
        lines.append(f" {sense_tag[row.relation]}  {row.name}")

    # Each row and column name is padded once, not once per cell.
    row_fields = [f"{row.name:<{_NAME_WIDTH}}" for row in model.constraints]
    obj_field = f"{_OBJ_ROW:<{_NAME_WIDTH}}"
    entries: list[list[tuple[str, float]]] = [[] for _ in model.variables]
    for idx, coef in model.objective.items():
        entries[idx].append((obj_field, coef))
    for row, field in zip(model.constraints, row_fields):
        for idx, coef in row.terms:
            entries[idx].append((field, coef))

    lines.append("COLUMNS")
    integer_open = False
    marker = 0
    for var, cells in zip(model.variables, entries):
        if var.integer and not integer_open:
            lines.append(f"    M{marker:<7} 'MARKER' 'INTORG'")
            marker += 1
            integer_open = True
        elif not var.integer and integer_open:
            lines.append(f"    M{marker:<7} 'MARKER' 'INTEND'")
            marker += 1
            integer_open = False
        if not cells:
            cells = [(obj_field, 0.0)]
        prefix = f"    {var.name:<{_NAME_WIDTH}} "
        for field, coef in cells:
            lines.append(f"{prefix}{field} {_fmt(coef)}")
    if integer_open:
        lines.append(f"    M{marker:<7} 'MARKER' 'INTEND'")

    lines.append("RHS")
    for row, field in zip(model.constraints, row_fields):
        if row.rhs != 0.0:
            lines.append(f"    RHS {field} {_fmt(row.rhs)}")

    lines.append("BOUNDS")
    for var in model.variables:
        capped = math.isfinite(var.ub)
        if var.lb == var.ub:
            lines.append(f" FX BND {var.name:<{_NAME_WIDTH}} {_fmt(var.lb)}")
            continue
        if var.lb != 0.0:
            tag = "LI" if var.integer else "LO"
            lines.append(f" {tag} BND {var.name:<{_NAME_WIDTH}} {_fmt(var.lb)}")
        elif var.integer and not capped:
            # integer columns default to an upper bound of 1 in some readers
            lines.append(f" PL BND {var.name:<{_NAME_WIDTH}}")
        if capped:
            tag = "UI" if var.integer else "UP"
            lines.append(f" {tag} BND {var.name:<{_NAME_WIDTH}} {_fmt(var.ub)}")

    lines.append("ENDATA")
    return "\n".join(lines) + "\n"
