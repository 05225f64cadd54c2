import json
import sys
from pathlib import Path

import pytest

from mps_reader import solve_with_scipy
from railflow.cli import main
from railflow.mps_io import export_model_text
from railflow.scenario import load_scenario, run
from railflow.simplex import NUMERICS

# The benchmark's seeded line generator, imported read only.
sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import synth  # noqa: E402


def test_validate_ok(scenario_dir, capsys):
    code = main(["validate", "--scenario", str(scenario_dir / "small_network.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert "8 nodes" in out and "18 links" in out


def test_validate_rejects_broken_file(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps({"name": "broken", "horizon": 2}))
    code = main(["validate", "--scenario", str(bad)])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_validate_rejects_malformed_json(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["validate", "--scenario", str(bad)]) == 1


def test_solve_writes_reports_and_exports(scenario_dir, tmp_path, capsys):
    out_dir = tmp_path / "out"
    export = tmp_path / "model.mps"
    code = main(
        [
            "solve",
            "--scenario",
            str(scenario_dir / "three_station_line.json"),
            "--out-dir",
            str(out_dir),
            "--export-lp",
            str(export),
        ]
    )
    assert code == 0
    assert (out_dir / "capacity_usage.csv").exists()
    assert (out_dir / "demand_outcomes.csv").exists()
    summary = json.loads((out_dir / "solution.json").read_text())
    assert summary["status"] == "optimal"
    assert summary["cancellations"] == {"A-C": 0.0}
    assert export.read_bytes().startswith(b"NAME")
    out = capsys.readouterr().out
    assert "status: optimal" in out


def test_solve_capacity_mode_override(scenario_dir, tmp_path):
    out_dir = tmp_path / "out"
    code = main(
        [
            "solve",
            "--scenario",
            str(scenario_dir / "single_track_shuttle.json"),
            "--capacity-mode",
            "basic",
            "--out-dir",
            str(out_dir),
        ]
    )
    assert code == 0
    csv = (out_dir / "capacity_usage.csv").read_text()
    assert "setup" not in csv  # the override removed the single-track family


def test_solve_relax_integrality_flag(scenario_dir, capsys):
    code = main(
        [
            "solve",
            "--scenario",
            str(scenario_dir / "single_track_shuttle.json"),
            "--relax-integrality",
        ]
    )
    assert code == 0


def test_export_is_deterministic_across_processes(scenario_dir, tmp_path):
    paths = []
    for tag in ("one", "two"):
        target = tmp_path / f"{tag}.mps"
        main(
            [
                "solve",
                "--scenario",
                str(scenario_dir / "three_station_line.json"),
                "--export-lp",
                str(target),
            ]
        )
        paths.append(target.read_bytes())
    assert paths[0] == paths[1]


@pytest.mark.parametrize(
    "shape, name, highs",
    [((58, 5, 6, 5), "line5", 0.6179), ((32, 6, 6, 6), "line6", 0.8938)],
    ids=["line5-58", "line6-32"],
)
def test_unverifiable_basis_exits_numerics(tmp_path, capsys, shape, name, highs):
    # Generated LP lines where the tableau drifts until the final basis is
    # singular or inaccurate.  HiGHS solves them; the run must say numerics,
    # not report the drifted tableau as optimal.
    doc = synth.line_scenario(*shape, relax_integrality=True, pace_refinement=False, name=name)
    output = run(load_scenario(doc))
    assert (output.result.status, output.result.values, output.capacity) == (NUMERICS, None, None)
    external = solve_with_scipy(export_model_text(output.model))
    assert external.status == 0 and external.fun == pytest.approx(highs, abs=1e-4)

    path = tmp_path / "line.json"
    path.write_bytes(synth.scenario_bytes(doc))
    out_dir = tmp_path / "out"
    assert main(["solve", "--scenario", str(path), "--out-dir", str(out_dir)]) == 4
    assert "status: numerics" in capsys.readouterr().out
    assert json.loads((out_dir / "solution.json").read_text())["status"] == NUMERICS
    assert (out_dir / "model.mps").exists() and not (out_dir / "capacity_usage.csv").exists()
