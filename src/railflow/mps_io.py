"""Free-format MPS export of a built model.

The writer is deterministic: rows in constraint order, columns in variable
order, values printed with 12 significant digits, so re-exporting the same
model yields identical bytes.  It reads the model's row store
(TimeExpandedModel.rows) as arrays: the cells of the COLUMNS section are its
terms sorted by variable, and each distinct value is formatted once.  Any
MPS-aware solver can read the file and verify the bundled solver's objective.
"""

from __future__ import annotations

import math

import numpy as np

from .model import TimeExpandedModel

_NAME_WIDTH = 44
_OBJ_ROW = "OBJ"


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _texts(values: np.ndarray, end: str = "") -> np.ndarray:
    """_fmt of each value followed by end, formatting each distinct value once."""
    distinct, at = np.unique(values, return_inverse=True)
    return np.array([_fmt(value) + end for value in distinct.tolist()], dtype=object)[at]


def export_model_text(model: TimeExpandedModel, name: str = "RAILFLOW") -> str:
    """Serialize the model as free MPS text (rows, columns, RHS, bounds)."""
    rows = model.rows
    lb, ub, integer = model.bound_arrays()
    lines: list[str] = []
    lines.append(f"NAME          {name}")
    lines.append("ROWS")
    lines.append(f" N  {_OBJ_ROW}")
    sense_tag = ("L", "E", "G")
    lines += [f" {sense_tag[sense + 1]}  {row}" for sense, row in zip(rows.sense.tolist(), rows.names)]

    # Each row and column name is padded once, not once per cell; the
    # objective's field is last, so a cell of row -1 is the objective's.
    fields = np.array([f"{row.ljust(_NAME_WIDTH)} " for row in (*rows.names, _OBJ_ROW)], dtype=object)
    n = lb.size
    obj_var = np.flatnonzero(model.objective)
    # A variable in no row and not in the objective gets an objective cell of 0.
    bare = np.flatnonzero(np.bincount(np.concatenate([obj_var, rows.var_idx]), minlength=n) == 0)
    # Per variable, its objective cell first and then its rows in row order.
    cell_var = np.concatenate([obj_var, bare, rows.var_idx])
    order = np.argsort(cell_var, kind="stable")
    cell_var = cell_var[order]
    cell_row = np.concatenate([np.full(obj_var.size + bare.size, -1), rows.row_of])[order]
    cell_val = np.concatenate([model.objective[obj_var], np.zeros(bare.size), rows.coefs])[order]
    # Cell k is the line joined from pieces[k]: the column's field, the
    # row's field and the value; a run of cells is joined at once.
    names = model.names
    prefixes = np.array([f"    {name.ljust(_NAME_WIDTH)} " for name in names], dtype=object)
    pieces = np.stack([prefixes[cell_var], fields[cell_row], _texts(cell_val, end="\n")], axis=1)

    def cells(first: int, last: int) -> list[str]:
        return ["".join(pieces[first:last].ravel().tolist())[:-1]] if first < last else []

    lines.append("COLUMNS")
    # A marker opens or closes each run of integer variables.
    starts = np.searchsorted(cell_var, np.arange(n + 1)).tolist()
    flips = np.flatnonzero(np.diff(np.concatenate([[False], integer, [False]]).astype(np.int8))).tolist()
    done = 0
    for marker, j in enumerate(flips):
        lines += cells(done, starts[j])
        tag = "INTORG" if j < n and integer[j] else "INTEND"
        lines.append(f"    M{marker:<7} 'MARKER' '{tag}'")
        done = starts[j]
    lines += cells(done, len(pieces))

    lines.append("RHS")
    given = np.flatnonzero(rows.rhs != 0.0)
    lines += [f"    RHS {fields[i]}{text}" for i, text in zip(given.tolist(), _texts(rows.rhs[given]).tolist())]

    lines.append("BOUNDS")
    bounded = np.flatnonzero((lb != 0.0) | np.isfinite(ub) | integer)
    for i, low, high, whole in zip(*(a.tolist() for a in (bounded, lb[bounded], ub[bounded], integer[bounded]))):
        name = names[i]
        capped = math.isfinite(high)
        if low == high:
            lines.append(f" FX BND {name:<{_NAME_WIDTH}} {_fmt(low)}")
            continue
        if low != 0.0:
            tag = "LI" if whole else "LO"
            lines.append(f" {tag} BND {name:<{_NAME_WIDTH}} {_fmt(low)}")
        elif whole and not capped:
            # integer columns default to an upper bound of 1 in some readers
            lines.append(f" PL BND {name:<{_NAME_WIDTH}}")
        if capped:
            tag = "UI" if whole else "UP"
            lines.append(f" {tag} BND {name:<{_NAME_WIDTH}} {_fmt(high)}")

    lines.append("ENDATA")
    return "\n".join(lines) + "\n"
