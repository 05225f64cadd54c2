"""Sweep 236 generated lines against HiGHS and print every wrong run.

The runs are perfbench.synth.line_scenario lines named "line", with 6
periods and as many routes as stations:

- relaxed, pace refinement off: 4 and 5 stations with seeds 11-14, 21-24,
  ..., 71-74, 6 stations with seeds 11-14, ..., 41-44, and 12, 16, 20 and
  24 stations with seed 11 (LPs of about 800 to 3200 rows);
- one single-track segment, pace refinement on, relaxed and integer:
  4 stations with seeds 11-14, ..., 71-74, and 5 stations with seeds
  11-14, ..., 31-34;
- integer, capacity mode single_track_alt2, pace refinement on: 4 and 5
  stations with seeds 11-30, each with one and with two single-track
  segments.

Each run is solved with a cap of 20,000 simplex iterations per LP and
checked against scipy's HiGHS on its MPS export (tests/mps_reader.py).  A run
is wrong when its status differs from HiGHS's or its objective is more than
1e-6 away.  The last line also gives the total simplex iterations and branch
and bound nodes over all runs, which move with any change of pivot order,
and the standard-form rows x columns summed over all runs, which move with
the size of the model.  scipy is needed.

    PYTHONPATH=src python scripts/line_sweep.py
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]

import synth  # noqa: E402
from mps_reader import solve_with_scipy  # noqa: E402
from railflow.mps_io import export_model_text  # noqa: E402
from railflow.scenario import load_scenario, run  # noqa: E402
from railflow.simplex import (  # noqa: E402
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    Tolerances,
    build_standard_form,
)

MAX_ITERATIONS = 20_000
HIGHS_STATUS = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}


def seeds(tens: int) -> list[int]:
    return [10 * t + k for t in range(1, tens + 1) for k in range(1, 5)]


def runs():
    """(label, scenario document) for each of the 236 runs."""
    for stations, tens in ((4, 7), (5, 7), (6, 4)):
        for seed in seeds(tens):
            doc = synth.line_scenario(seed, stations, 6, stations, relax_integrality=True, pace_refinement=False)
            yield f"relaxed {stations} stations seed {seed}", doc
    for stations in (12, 16, 20, 24):
        doc = synth.line_scenario(11, stations, 6, stations, relax_integrality=True, pace_refinement=False)
        yield f"relaxed {stations} stations seed 11", doc
    for stations, tens in ((4, 7), (5, 3)):
        for seed in seeds(tens):
            for relax in (True, False):
                doc = synth.line_scenario(seed, stations, 6, stations, single_track=1, relax_integrality=relax)
                kind = "relaxed" if relax else "integer"
                yield f"single-track {stations} stations seed {seed} {kind}", doc
    for stations in (4, 5):
        for seed in range(11, 31):
            for single_track in (1, 2):
                doc = synth.line_scenario(seed, stations, 6, stations, single_track=single_track)
                doc["config"]["capacity_mode"] = "single_track_alt2"
                yield f"alt2 {stations} stations {single_track} single-track seed {seed}", doc


def main() -> int:
    start = time.perf_counter()
    tol = Tolerances(max_iterations=MAX_ITERATIONS)
    wrong = total = iterations = nodes = rows = cols = 0
    for label, doc in runs():
        total += 1
        output = run(load_scenario(doc), tol)
        result = output.result
        iterations += result.iterations
        nodes += result.nodes
        lp = build_standard_form(output.model)
        rows, cols = rows + lp.n_rows, cols + lp.n_cols
        highs = solve_with_scipy(export_model_text(output.model))
        expected = HIGHS_STATUS.get(highs.status, f"HiGHS status {highs.status}")
        agree = result.status == expected and (
            expected != OPTIMAL or abs(result.objective - highs.fun) <= 1e-6
        )
        if not agree:
            wrong += 1
            got = result.status if result.objective is None else f"{result.status} {result.objective:.6g}"
            want = expected if expected != OPTIMAL else f"{expected} {highs.fun:.6g}"
            print(f"{label}: {got} after {result.iterations} iterations; HiGHS {want}")
    print(
        f"{wrong} of {total} runs wrong in {time.perf_counter() - start:.0f} s;"
        f" {iterations} simplex iterations, {nodes} B&B nodes, standard forms {rows} x {cols} summed"
    )
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
