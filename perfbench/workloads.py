"""The benchmark's workloads: which cases a pass runs and how each case runs.

A case goes from a scenario file on disk to ``capacity_usage.csv``,
``demand_outcomes.csv``, ``solution.json`` and ``model.mps`` on disk.
``bundled`` goes through the CLI, as users do.  ``tcr_lp`` goes through the
public library path instead, because only ``run`` accepts the
``Tolerances`` that carry the per-case work budget.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import railflow.cli
import railflow.mps_io
import railflow.scenario
from railflow.model import CAPACITY_MODES
from railflow.simplex import Tolerances

import synth

BUNDLED_SCENARIOS = ("three_station_line", "single_track_shuttle", "small_network", "small_network_tcr")
OUTPUT_FILES = ("capacity_usage.csv", "demand_outcomes.csv", "solution.json", "model.mps")


@dataclass(frozen=True)
class Case:
    name: str
    scenario: Path
    mode: str | None = None  # CLI --capacity-mode override (bundled only)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Bundled scenario that every case varies, with ``variants`` cases per
    # group; None for bundled, which runs the scenarios as they are.
    base: str | None = None
    variants: int = 0
    # Groups of cases; bundled has one group per scenario.  A pass runs one
    # group and passes cycle through the groups, so that a run can stop soon
    # after its time is up.
    groups: int = 1
    # TCR overrides per case, drawn from the benchmark seed.
    tcrs: int = 0
    # Per-case work budget (tcr_lp only): max_iterations applies to each
    # LP solve, max_nodes to each B&B tree.
    budget: Tolerances | None = None

    @property
    def uses_cli(self) -> bool:
        return self.base is None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bundled",
            "the 4 bundled scenarios x 4 capacity modes through the CLI; model build, MPS export and the CLI's second build show here",
        ),
        Workload(
            "tcr_lp",
            "the bundled 8-station network as an LP (single_track_alt1, relaxed) under seeded TCR overrides: one cold LP per case takes most of the time, B&B none; too small for tableau memory to show",
            # Each case is small_network with 3 TCR overrides drawn from the
            # benchmark seed, in single_track_alt1 (the capacity mode without
            # integer variables), relaxed and with pace refinement off, so
            # that it is one cold LP of 1130 rows by 1406 columns; the
            # bundled workload branches and refines.  Healthy cases need
            # 1100-1210 iterations, so the cap of 6000 is about 5 times that.
            # Generated lines are not a workload while solve_lp gives wrong
            # verdicts on some of them (test_gate_accepts_generated_line).
            base="small_network",
            variants=4,
            groups=6,
            tcrs=3,
            budget=Tolerances(max_iterations=6_000, max_nodes=1),
        ),
    )
}


def prepare(workload: Workload, seed: int, root: Path, work: Path) -> list[list[Case]]:
    """Write the workload's scenario files under ``work``; its cases by group."""
    if workload.uses_cli:
        paths = [root / "scenarios" / f"{sc}.json" for sc in BUNDLED_SCENARIOS]
        missing = [str(p) for p in paths if not p.is_file()]
        if missing:
            raise FileNotFoundError(f"bundled scenarios missing: {missing}")
        return [[Case(f"{p.stem}:{mode}", p, mode) for mode in CAPACITY_MODES] for p in paths]
    base = json.loads((root / "scenarios" / f"{workload.base}.json").read_text())
    base["config"].update(capacity_mode="single_track_alt1", relax_integrality=True, pace_refinement=False)
    (work / "scenarios").mkdir(parents=True, exist_ok=True)
    groups = []
    for g in range(workload.groups):
        cases = []
        for v in range(workload.variants):
            doc = dict(base, name=f"{workload.base}-g{g}v{v}")
            doc["tcr_overrides"] = synth.tcr_overrides(doc, seed, workload.tcrs)
            doc["name"] += f"-tcr{seed}"
            path = work / "scenarios" / f"{doc['name']}.json"
            path.write_bytes(synth.scenario_bytes(doc))
            cases.append(Case(doc["name"], path))
        groups.append(cases)
    return groups


def run_case(workload: Workload, case: Case, out_dir: Path) -> None:
    """One case, scenario file to output files, through the public entry points."""
    if workload.uses_cli:
        argv = [
            "solve",
            "--scenario", str(case.scenario),
            "--capacity-mode", case.mode,
            "--out-dir", str(out_dir),
            "--export-lp", str(out_dir / "model.mps"),
        ]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            railflow.cli.main(argv)
        return
    scenario = railflow.scenario
    doc = scenario.load_scenario(case.scenario)
    output = scenario.run(doc, workload.budget)
    result = output.result
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {
        "scenario": doc.name,
        "status": result.status,
        "objective": result.objective,
        "iterations": result.iterations,
        "nodes": result.nodes,
        "gap": result.gap,
    }
    (out_dir / "solution.json").write_text(json.dumps(summary, indent=2) + "\n")
    if output.capacity is not None:
        (out_dir / "capacity_usage.csv").write_bytes(scenario.report_capacity_csv(output.capacity))
        (out_dir / "demand_outcomes.csv").write_bytes(scenario.report_demand_csv(output.demands))
    text = railflow.mps_io.export_model_text(output.model, name=doc.name)
    (out_dir / "model.mps").write_bytes(text.encode("utf-8"))
