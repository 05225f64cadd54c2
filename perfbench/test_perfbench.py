"""Tests of the benchmark itself: generator, correctness gate, metric names.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gate  # noqa: E402
import run  # noqa: E402
import synth  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from railflow.scenario import build_scenario_model, load_scenario  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Double-track 4- and 5-station lines at horizon 6, as LP relaxations.
LINE_SHAPES = [
    dict(stations=n, periods=6, routes=n, relax_integrality=True, pace_refinement=False, name=f"line{n}")
    for n in (4, 5)
]


@pytest.mark.parametrize("shape", LINE_SHAPES, ids=lambda s: s["name"])
def test_generator_bytes_repeat_and_documents_load(shape):
    for seed in (1, 2):
        first = synth.scenario_bytes(synth.line_scenario(seed, **shape))
        assert synth.scenario_bytes(synth.line_scenario(seed, **shape)) == first
        doc = load_scenario(first)
        assert len(doc.nodes) == shape["stations"]
        assert len(doc.routes) == shape["routes"]
        assert len(doc.single_track_pairs) == 0
    assert synth.line_scenario(1, **shape) != synth.line_scenario(2, **shape)


def test_prepare_writes_distinct_groups(tmp_path):
    workload = workloads.WORKLOADS["tcr_lp"]
    groups = workloads.prepare(workload, 7, ROOT, tmp_path / "a")
    names = [case.name for group in groups for case in group]
    assert len(groups) == workload.groups
    assert len(set(names)) == len(names) == workload.groups * workload.variants
    docs = [load_scenario(case.scenario.read_bytes()) for group in groups for case in group]
    assert all(len(doc.tcr_overrides) == workload.tcrs for doc in docs)
    assert all(doc.config.relax_integrality and not doc.pace_refinement for doc in docs)
    assert not any(v.integer for v in build_scenario_model(docs[0]).variables)
    assert len({doc.tcr_overrides for doc in docs}) == len(docs)
    # The same seed writes the same bytes; another seed draws other overrides.
    again = workloads.prepare(workload, 7, ROOT, tmp_path / "b")
    assert [c.scenario.read_bytes() for g in again for c in g] == [c.scenario.read_bytes() for g in groups for c in g]
    other = workloads.prepare(workload, 8, ROOT, tmp_path / "c")
    docs8 = [load_scenario(case.scenario.read_bytes()) for group in other for case in group]
    assert [d.links for d in docs8] == [d.links for d in docs]
    assert [d.tcr_overrides for d in docs8] != [d.tcr_overrides for d in docs]


def test_generator_tcr_overrides_repeat_and_load():
    doc = synth.line_scenario(3, 5, 4, 6, single_track=2)
    doc["tcr_overrides"] = synth.tcr_overrides(doc, 1, 3)
    assert synth.tcr_overrides(doc, 1, 3) == doc["tcr_overrides"] != synth.tcr_overrides(doc, 2, 3)
    assert len(load_scenario(synth.scenario_bytes(doc)).tcr_overrides) == 3


def _shuttle_case(tmp_path):
    """The bundled shuttle scenario through the CLI path, as a first pass runs it."""
    workload = workloads.WORKLOADS["bundled"]
    case = workloads.Case("shuttle", ROOT / "scenarios" / "single_track_shuttle.json", "single_track_alt2")
    with tracing.Tracer(tracing.GATE_POINTS) as tracer:
        tracer.case = case.name
        workloads.run_case(workload, case, tmp_path)
    record = gate.CaseRecord.from_output(
        case.name, tracer.outputs[case.name], run._digests(tmp_path, workloads.OUTPUT_FILES)
    )
    return record, (tmp_path / "model.mps").read_text()


def test_gate_passes_a_correct_case(tmp_path):
    record, mps = _shuttle_case(tmp_path)
    assert record.status == "optimal"
    assert set(record.digests) == set(workloads.OUTPUT_FILES)
    assert gate.check_case(record, mps, [dict(record.digests)]) == []


def test_gate_flags_tampered_objective(tmp_path):
    record, mps = _shuttle_case(tmp_path)
    tampered = replace(record, objective=record.objective + 1e-3)
    reasons = gate.check_case(tampered, mps, [])
    assert len(reasons) == 1 and "HiGHS" in reasons[0]


def test_gate_flags_tampered_csv(tmp_path):
    record, mps = _shuttle_case(tmp_path)
    csv = tmp_path / "capacity_usage.csv"
    csv.write_bytes(csv.read_bytes().replace(b"0.", b"1.", 1))
    later = run._digests(tmp_path, workloads.OUTPUT_FILES)
    reasons = gate.check_case(record, mps, [later])
    assert reasons == ["timed pass 1 wrote different bytes for capacity_usage.csv"]


def test_gate_flags_exhausted_budget(tmp_path):
    record, mps = _shuttle_case(tmp_path)
    reasons = gate.check_case(replace(record, budget_hits=1), mps, [])
    assert len(reasons) == 1 and reasons[0].startswith(gate.BUDGET)


@pytest.mark.xfail(strict=True, reason="known defect: solve_lp calls this feasible LP infeasible")
def test_gate_accepts_generated_line(tmp_path):
    """A generated line on which railflow's simplex is wrong today.

    HiGHS solves this LP relaxation to 0.8619; ``solve_lp`` ends phase 1
    after 713 iterations with a positive infeasibility and says
    ``infeasible`` (with ``bland_after`` out of reach it finds 0.8619).
    Lines like it stopped synthetic lines from being a workload; when this
    test passes, they can return.
    """
    doc = synth.line_scenario(7, **dict(LINE_SHAPES[1], name="line5-2-g7"))
    path = tmp_path / "line.json"
    path.write_bytes(synth.scenario_bytes(doc))
    workload = workloads.WORKLOADS["tcr_lp"]
    with tracing.Tracer(tracing.GATE_POINTS) as tracer:
        tracer.case = "line"
        workloads.run_case(workload, workloads.Case("line", path), tmp_path / "out")
    record = gate.CaseRecord.from_output("line", tracer.outputs["line"], {})
    assert gate.check_case(record, (tmp_path / "out" / "model.mps").read_text(), []) == []


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)
    assert SPEC["paths"] == [HERE.name]
    assert SPEC["command"] == ["python3", f"{HERE.name}/run.py"]


def test_layer_self_times_subtract_children():
    spans = [
        tracing.Span("bnb.solve_mip", 0.0, 10.0, -1, {"case": "a", "nodes": 3}),
        tracing.Span("simplex.standard_form", 1.0, 2.0, 0, {"case": "a", "rows": 4, "cols": 5, "tableau_bytes": 8}),
        tracing.Span("simplex.solve", 2.0, 6.0, 0, {"case": "a", "iterations": 40, "limit": False}),
    ]
    totals = tracing.pass_totals(spans, 12.0)
    assert totals["bnb.self_s"] == 5.0
    assert totals["simplex.solve_s"] == 4.0
    assert totals["trace.unaccounted_s"] == 2.0
    out = tracing.finish([[totals], [totals]], {"model.rows": 7}, 0.5)
    assert set(out) == {name for name, _ in tracing.PER_LAYER} - {"model.vars", "model.singleton_rows", "model.nnz"}
    assert out["bnb.nodes"] == 6
    assert out["simplex.sf_rows"] == 4
    assert out["simplex.us_per_iteration"] == pytest.approx(1e5)
    assert out["trace.overhead_s"] == 0.5
