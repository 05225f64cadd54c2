"""Batch front end: validate scenario files, solve them, write reports.

Exit codes: 0 optimal, 1 input error, 2 infeasible, 3 solver limit reached
(or unbounded), 4 numerics (the simplex could not verify its optimal basis).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

from .mps_io import export_model_text
from .scenario import (
    ScenarioError,
    build_scenario_model,  # noqa: F401  (perfbench traces this name)
    load_scenario,
    report_capacity_csv,
    report_demand_csv,
    run,
)
from .model import CAPACITY_MODES
from .simplex import INFEASIBLE, ITERATION_LIMIT, NUMERICS, OPTIMAL, UNBOUNDED

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_LIMIT = 3
EXIT_NUMERICS = 4
EXIT_OF_STATUS = {
    OPTIMAL: EXIT_OK,
    INFEASIBLE: EXIT_INFEASIBLE,
    ITERATION_LIMIT: EXIT_LIMIT,
    UNBOUNDED: EXIT_LIMIT,
    NUMERICS: EXIT_NUMERICS,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call to main, then reused: parse_args leaves the
    # parser as it was and returns a new namespace each time.
    parser = argparse.ArgumentParser(
        prog="railflow",
        description="Volume-based train flow model with capacity-restriction scenarios",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a scenario and write reports")
    solve.add_argument("--scenario", type=Path, required=True, help="scenario JSON file")
    solve.add_argument(
        "--capacity-mode",
        choices=CAPACITY_MODES,
        help="override the scenario's capacity mode",
    )
    solve.add_argument(
        "--relax-integrality",
        action="store_true",
        help="solve the LP relaxation instead of the integer model",
    )
    solve.add_argument("--export-lp", type=Path, help="write the model in MPS text to this path")
    solve.add_argument("--out-dir", type=Path, help="directory for CSV reports and the summary")

    validate = sub.add_parser("validate", help="check a scenario file and report findings")
    validate.add_argument("--scenario", type=Path, required=True, help="scenario JSON file")
    return parser


def _load(path: Path):
    """The scenario at path, or None after printing why it cannot be loaded."""
    try:
        return load_scenario(path)
    except ScenarioError as exc:
        for line in exc.errors:
            print(f"error: {line}", file=sys.stderr)
    except (OSError, ValueError) as exc:
        # ValueError covers json.JSONDecodeError and what json.loads raises
        # for an integer longer than Python's int-string limit.
        print(f"error: {exc}", file=sys.stderr)
    return None


def _cmd_validate(args) -> int:
    doc = _load(args.scenario)
    if doc is None:
        return EXIT_INPUT
    print(
        f"{doc.name}: ok ({len(doc.nodes)} nodes, {len(doc.links)} links,"
        f" {len(doc.routes)} routes, {len(doc.demands)} demands,"
        f" {doc.t_max} periods)"
    )
    return EXIT_OK


def _cmd_solve(args) -> int:
    doc = _load(args.scenario)
    if doc is None:
        return EXIT_INPUT

    config = doc.config
    if args.capacity_mode:
        config = replace(config, capacity_mode=args.capacity_mode)
    if args.relax_integrality:
        config = replace(config, relax_integrality=True)
    doc = replace(doc, config=config)

    output = run(doc)
    result = output.result
    if args.export_lp:
        args.export_lp.parent.mkdir(parents=True, exist_ok=True)
        args.export_lp.write_bytes(export_model_text(output.model, name=doc.name).encode("utf-8"))
        print(f"model exported to {args.export_lp}")
    print(f"status: {result.status}")
    if result.objective is not None:
        print(f"objective: {result.objective:.6f}")
    print(f"simplex iterations: {result.iterations}, nodes: {result.nodes}")

    if args.out_dir:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        summary = {
            "scenario": doc.name,
            "status": result.status,
            "objective": result.objective,
            "iterations": result.iterations,
            "nodes": result.nodes,
            "gap": result.gap,
        }
        if output.demands is not None:
            summary["cancellations"] = {
                name: output.demands.cancel_total[name] for name in output.demands.demand_names
            }
        (args.out_dir / "solution.json").write_text(json.dumps(summary, indent=2) + "\n")
        if output.capacity is not None:
            (args.out_dir / "capacity_usage.csv").write_bytes(report_capacity_csv(output.capacity))
            (args.out_dir / "demand_outcomes.csv").write_bytes(report_demand_csv(output.demands))
            print(f"reports written to {args.out_dir}")
        elif result.status != OPTIMAL:
            # keep a model export around for offline diagnosis of failed solves
            path = args.out_dir / "model.mps"
            path.write_bytes(export_model_text(output.model, name=doc.name).encode("utf-8"))
            print(f"no solution; model exported to {path}", file=sys.stderr)

    return EXIT_OF_STATUS[result.status]


def main(argv=None) -> int:
    # A name that the output encoding cannot hold (a scenario named "Malmö"
    # under an ASCII locale) is printed escaped rather than raising.
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(errors="backslashreplace")
    args = _parser().parse_args(argv)
    if args.command == "validate":
        return _cmd_validate(args)
    return _cmd_solve(args)


if __name__ == "__main__":
    sys.exit(main())
