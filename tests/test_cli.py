import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mps_reader import solve_with_scipy
from railflow import cli
from railflow.cli import main
from railflow.mps_io import export_model_text
from railflow.scenario import load_scenario, run
from railflow import simplex
from railflow.simplex import NUMERICS, OPTIMAL

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


def test_integer_past_the_int_string_limit_is_an_input_error(scenario_dir, tmp_path, capsys):
    # json.loads raises a plain ValueError, not JSONDecodeError, for it.
    text = (scenario_dir / "three_station_line.json").read_text()
    bad = tmp_path / "huge.json"
    bad.write_text(text.replace('"horizon": 3', '"horizon": 5' + "0" * 5000, 1))
    assert bad.read_text() != text
    for command in ("validate", "solve"):
        assert main([command, "--scenario", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


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


def test_two_calls_in_one_process_parse_independently(scenario_dir, monkeypatch, capsys):
    # The parser is built once and reused; what one call is given must not
    # reach the next.
    configs = []
    solve = cli.run

    def recording(doc):
        configs.append(doc.config)
        return solve(doc)

    monkeypatch.setattr(cli, "run", recording)
    path = scenario_dir / "single_track_shuttle.json"
    assert main(["solve", "--scenario", str(path), "--relax-integrality", "--capacity-mode", "basic"]) == 0
    assert main(["solve", "--scenario", str(path)]) == 0
    own = load_scenario(path).config
    assert (own.relax_integrality, own.capacity_mode) != (True, "basic")
    assert configs == [replace(own, relax_integrality=True, capacity_mode="basic"), own]
    assert cli._parser() is cli._parser()


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


# Generated lines that the simplex got wrong before the crash basis.  The
# first two ended numerics: the tableau drifted until the final basis was
# singular or inaccurate.  The others are every wrong run of
# scripts/line_sweep.py at that time: infeasible, at the iteration cap or
# numerics.  The last two stalled in phase 1 until the capacity allocations
# left the model: a 10-period integer line at the iteration cap, and a relaxed
# 24-station line of the scaling family.  Single-track lines run with pace
# refinement on, relaxed and integer; the others relaxed, without it.
# Shape: (stations, periods, routes).
LINES = [
    (58, (5, 6, 5), 0, True, "line5", 0.617857),
    (32, (6, 6, 6), 0, True, "line6", 0.893750),
    (53, (4, 6, 4), 0, True, "line", 0.718333),
    (61, (5, 6, 5), 0, True, "line", 0.759722),
    (12, (6, 6, 6), 0, True, "line", 0.554444),
    (14, (6, 6, 6), 0, True, "line", 0.739216),
    (23, (6, 6, 6), 0, True, "line", 0.620833),
] + [
    (seed, (5, 6, 5), 1, relax, "line", highs)
    for seed, highs in ((21, 0.656140), (22, 0.75), (34, 0.606667))
    for relax in (True, False)
] + [
    (215, (5, 10, 10), 1, False, "line", 0.635345),
    (11, (24, 6, 24), 0, True, "line", 7001.740404),
]


@pytest.mark.parametrize(
    "seed, shape, single_track, relax, name, highs",
    LINES,
    ids=[
        f"{n}-{sh[0]}-{s}" + (f"-{sh[1]}p" if sh[1] != 6 else "")
        + ("-st-" + ("lp" if r else "mip") if t else "")
        for s, sh, t, r, n, _ in LINES
    ],
)
def test_generated_line_matches_highs(seed, shape, single_track, relax, name, highs):
    stations, periods, routes = shape
    doc = synth.line_scenario(
        seed, stations, periods, routes, single_track=single_track, relax_integrality=relax,
        pace_refinement=bool(single_track), name=name,
    )
    output = run(load_scenario(doc))
    assert output.result.status == OPTIMAL
    external = solve_with_scipy(export_model_text(output.model))
    assert external.status == 0 and external.fun == pytest.approx(highs, abs=1e-6)
    assert output.result.objective == pytest.approx(external.fun, abs=1e-7)


def test_unverifiable_basis_exits_numerics(scenario_dir, tmp_path, capsys, monkeypatch):
    # No bundled or generated case is known to end numerics, so the basis
    # re-solve is made to fail: the run must say numerics, exit 4 and keep
    # the model for diagnosis instead of reporting tableau values.
    def singular(*args):
        raise np.linalg.LinAlgError("singular bump")

    monkeypatch.setattr(simplex, "_solve_sparse_basis", singular)
    path = scenario_dir / "three_station_line.json"
    output = run(load_scenario(path))
    assert (output.result.status, output.result.values, output.capacity) == (NUMERICS, None, None)

    out_dir = tmp_path / "out"
    assert main(["solve", "--scenario", str(path), "--out-dir", str(out_dir)]) == 4
    assert "status: numerics" in capsys.readouterr().out
    assert json.loads((out_dir / "solution.json").read_text())["status"] == NUMERICS
    assert (out_dir / "model.mps").exists() and not (out_dir / "capacity_usage.csv").exists()


def test_run_audits_the_values_it_reports(scenario_dir, tmp_path, capsys, monkeypatch):
    # A faulty refinement that leaves one pacing lag of the last period 1 too
    # high breaks the one Pace row that lag enters: run must catch it after
    # refinement, report numerics without reports, and the CLI must exit 4.
    from railflow import scenario
    from railflow.checks import verify_solution

    refine = scenario.refine_to_earliest_pace

    def lagging(model, result, tol=None):
        refined = refine(model, result, tol)
        t_max = model.doc.t_max
        lag = next(i for i, v in enumerate(model.variables) if v.kind == "lag" and v.key[1] == t_max)
        refined.values[lag] += 1.0
        return refined

    path = scenario_dir / "single_track_shuttle.json"
    assert run(load_scenario(path)).result.status == OPTIMAL
    monkeypatch.setattr(scenario, "refine_to_earliest_pace", lagging)
    output = run(load_scenario(path))
    assert (output.result.status, output.capacity, output.demands) == (NUMERICS, None, None)
    findings = verify_solution(output.model, output.result.values)
    assert len(findings) == 1 and findings[0].startswith("Pace[")

    out_dir = tmp_path / "out"
    assert main(["solve", "--scenario", str(path), "--out-dir", str(out_dir)]) == 4
    assert "status: numerics" in capsys.readouterr().out
    assert not (out_dir / "capacity_usage.csv").exists()


def test_validate_reads_utf8_under_an_ascii_locale(scenario_dir, tmp_path):
    # A file is read as bytes and json detects its encoding, so the locale's
    # encoding (ASCII under LC_ALL=C) does not decide how it is decoded.
    raw = json.loads((scenario_dir / "three_station_line.json").read_text(encoding="utf-8"))
    raw["notes"] = "Malmö–Lund"
    path = tmp_path / "utf8.json"
    path.write_bytes(json.dumps(raw, ensure_ascii=False).encode("utf-8"))
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "railflow.cli", "validate", "--scenario", str(path)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


def test_validate_prints_a_non_ascii_name_under_an_ascii_locale(scenario_dir, tmp_path):
    # stdout's encoding is ASCII here; the name is printed escaped, not raised on.
    raw = json.loads((scenario_dir / "three_station_line.json").read_text(encoding="utf-8"))
    raw["name"] = "Malmö"
    path = tmp_path / "named.json"
    path.write_bytes(json.dumps(raw, ensure_ascii=False).encode("utf-8"))
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "railflow.cli", "validate", "--scenario", str(path)],
        env=env,
        capture_output=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(b"Malm\\xf6: ok (")
