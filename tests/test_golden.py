"""Same results on every bundled scenario x capacity mode.

``golden_bundled.json`` records, per case, the status, the objective, the
total simplex iterations, the branch-and-bound nodes, the sha256 of both
CSV reports and the sha256 of the model's MPS text; equal iterations and
nodes mean the solver took the same pivots, and an equal MPS hash means the
model has the same variable names, order, bounds and coefficients.
``golden_lines.json`` records the sha256 of the MPS text of generated lines
(perfbench's ``synth.line_scenario``): 0, 1 and 2 single-track segments,
relaxed and integer, in every capacity mode, with link durations that reach
nodes in fractions of a period.  A refactor must reproduce both files
unchanged; a change that is meant to alter results rewrites them with
``PYTHONPATH=src python tests/test_golden.py`` and says why in CHANGES.md.
"""

import hashlib
import json
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from railflow.model import CAPACITY_MODES
from railflow.mps_io import export_model_text
from railflow.scenario import build_scenario_model, load_scenario, report_capacity_csv, report_demand_csv, run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_bundled.json"
GOLDEN_LINES = ROOT / "tests" / "golden_lines.json"
SCENARIOS = ("three_station_line", "single_track_shuttle", "small_network", "small_network_tcr")
CASES = [f"{sc}:{mode}" for sc in SCENARIOS for mode in CAPACITY_MODES]
# seed, stations and single-track segments of each generated line; 6
# periods and a route per station
LINES = [(11, 4, 0), (12, 5, 1), (13, 8, 2), (14, 6, 0), (15, 7, 1)]
LINE_CASES = [
    f"line:{seed}:{stations}:{segments}:{kind}:{mode}"
    for seed, stations, segments in LINES
    for kind in ("integer", "relaxed")
    for mode in CAPACITY_MODES
]

# The benchmark's seeded line generator, imported read only.
sys.path.append(str(ROOT / "perfbench"))
import synth  # noqa: E402


def record(case: str) -> dict:
    scenario, mode = case.split(":")
    doc = load_scenario(ROOT / "scenarios" / f"{scenario}.json")
    doc = replace(doc, config=replace(doc.config, capacity_mode=mode))
    with warnings.catch_warnings():
        # single-track modes warn on networks without single-track pairs
        warnings.simplefilter("ignore")
        output = run(doc)
    entry = {
        "status": output.result.status,
        "objective": output.result.objective,
        "iterations": output.result.iterations,
        "nodes": output.result.nodes,
        "model_mps_sha256": hashlib.sha256(
            export_model_text(output.model, name=doc.name).encode("utf-8")
        ).hexdigest(),
    }
    if output.capacity is not None:
        entry["capacity_usage_sha256"] = hashlib.sha256(report_capacity_csv(output.capacity)).hexdigest()
        entry["demand_outcomes_sha256"] = hashlib.sha256(report_demand_csv(output.demands)).hexdigest()
    return entry


@pytest.mark.parametrize("case", CASES)
def test_bundled_results_match_golden(case):
    expected = json.loads(GOLDEN.read_text())[case]
    got = record(case)
    assert got["status"] == expected["status"]
    if expected["objective"] is None:
        assert got["objective"] is None
    else:
        assert got["objective"] == pytest.approx(expected["objective"], rel=1e-9, abs=0.0)
    assert (got["iterations"], got["nodes"]) == (expected["iterations"], expected["nodes"])
    for key in ("capacity_usage_sha256", "demand_outcomes_sha256", "model_mps_sha256"):
        assert got.get(key) == expected.get(key)


def line_mps_sha256(case: str) -> str:
    _, seed, stations, segments, kind, mode = case.split(":")
    raw = synth.line_scenario(
        int(seed), int(stations), 6, int(stations), single_track=int(segments), relax_integrality=kind == "relaxed"
    )
    doc = load_scenario(raw)
    doc = replace(doc, config=replace(doc.config, capacity_mode=mode))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # single-track modes on a line without pairs
        model = build_scenario_model(doc)
    return hashlib.sha256(export_model_text(model, name=doc.name).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", LINE_CASES)
def test_generated_line_models_match_golden(case):
    assert line_mps_sha256(case) == json.loads(GOLDEN_LINES.read_text())[case]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({case: record(case) for case in CASES}, indent=2) + "\n")
    GOLDEN_LINES.write_text(json.dumps({case: line_mps_sha256(case) for case in LINE_CASES}, indent=2) + "\n")
