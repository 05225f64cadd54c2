"""Same results on every bundled scenario x capacity mode.

``golden_bundled.json`` records, per case, the status, the objective, the
total simplex iterations, the branch-and-bound nodes, the sha256 of both
CSV reports and the sha256 of the model's MPS text; equal iterations and
nodes mean the solver took the same pivots, and an equal MPS hash means the
model has the same variable names, order, bounds and coefficients.  A refactor must reproduce it unchanged; a change that is meant to
alter results rewrites it with ``PYTHONPATH=src python tests/test_golden.py``
and says why in CHANGES.md.
"""

import hashlib
import json
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from railflow.model import CAPACITY_MODES
from railflow.mps_io import export_model_text
from railflow.scenario import load_scenario, report_capacity_csv, report_demand_csv, run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_bundled.json"
SCENARIOS = ("three_station_line", "single_track_shuttle", "small_network", "small_network_tcr")
CASES = [f"{sc}:{mode}" for sc in SCENARIOS for mode in CAPACITY_MODES]


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


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({case: record(case) for case in CASES}, indent=2) + "\n")
