import numpy as np
import pytest

from railflow.bnb import solve_mip
from railflow.mps_io import export_model_text
from mps_reader import parse_mps, solve_with_scipy
from support import bare_model, line_model, synthetic_model


def test_empty_model_has_all_sections():
    text = export_model_text(bare_model(), name="EMPTY")
    for section in ("NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
        assert section in text
    assert "N  OBJ" in text


def test_reexport_is_byte_identical():
    first = export_model_text(line_model())
    second = export_model_text(line_model())
    assert first.encode() == second.encode()


def test_integer_markers_wrap_integer_columns():
    model = synthetic_model([1.0, 2.0], [([1.0, 1.0], ">=", 1.0)], integer=(1,), ub=[np.inf, 4.0])
    text = export_model_text(model)
    parsed = parse_mps(text)
    assert parsed.integer == {"x(1)"}
    assert parsed.upper["x(1)"] == 4.0
    intorg = text.index("'INTORG'")
    intend = text.index("'INTEND'")
    assert intorg < text.index("x(1) ", intorg) < intend


def test_twelve_significant_digits():
    model = synthetic_model([1.0 / 3.0], [([2.0 / 3.0], ">=", 1.0)])
    text = export_model_text(model)
    assert "0.333333333333" in text
    assert "0.666666666667" in text


def test_unreferenced_column_still_exported():
    model = bare_model()
    model.add_variables("idle", [(0,)])
    text = export_model_text(model)
    assert "idle(0)" in text  # appears with a zero objective entry


def test_scipy_agrees_on_a_small_model():
    model = line_model(volumes=(2, 1, 0))
    mine = solve_mip(model)
    external = solve_with_scipy(export_model_text(model))
    assert mine.status == "optimal"
    assert external.status == 0
    assert mine.objective == pytest.approx(external.fun, rel=1e-6, abs=1e-9)


def test_scipy_agrees_with_integer_marks():
    model = line_model(volumes=(1, 0), t_max=2, minutes=(15,), capacity=0.4)
    mine = solve_mip(model)
    external = solve_with_scipy(export_model_text(model))
    assert mine.status == "optimal"
    assert external.status == 0
    assert mine.objective == pytest.approx(external.fun, rel=1e-6, abs=1e-9)
