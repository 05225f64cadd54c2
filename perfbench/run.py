#!/usr/bin/env python3
"""railflow benchmark: scenario files to verified reports, per workload.

One workload per process:

    python3 perfbench/run.py --workload bundled --seed 1 --seconds 50 --trace 0

Every workload, each in a fresh process, untraced and then traced, with a
table of the end-to-end and per-layer metrics:

    python3 perfbench/run.py --all --seed 1 --seconds 50

A run sets up (imports railflow, writes the seeded scenario files), then
times passes for ``--seconds``.  A pass runs one group of cases and passes
cycle through the groups.  ``wall_s`` is one pass over every case: the sum
over cases of each case's median time, so a burst of noise on the host costs
one sample of the cases it hits rather than a whole pass.  ``setup_s`` is the
median over fresh child processes, spread over the run, that each import
railflow and write the scenario files.  Both are seconds at a reference host
speed: each timing is rescaled by a calibration loop run right before and
after it (see ``CALIBRATION_REF_S``); ``pass_s`` prints raw wall seconds.
With ``--trace 1`` every untraced pass is followed by a traced pass of the
same group, and the per-layer metrics come from the traced ones.  The first pass over each case also keeps
what the independent gate in ``gate.py`` needs; every case goes through the
gate after the timed passes.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts every case the
gate rejects (``error_rate`` is failed / attempted); ``correct`` is false
when any case returned a wrong answer, as opposed to only running out of its
work budget.
"""

from __future__ import annotations

import os
import sys
import time

_START = time.perf_counter()

NPROC = len(os.sched_getaffinity(0))
# One BLAS thread, which is at or below nproc on any machine.  A second
# OpenBLAS thread spins on the other core: it doubled CPU time without
# lowering wall time, and made wall time depend on that core being idle.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import importlib.metadata
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 15
# The cores of a shared host change speed by up to a third within minutes,
# and a run cannot outlast that.  Each timing is therefore divided by the
# mean time of calibration_seconds() run right before and after it, and
# multiplied by this constant, that loop's usual time on a 2-core Xeon host
# at 2.0 GHz: the time metrics are seconds at that reference speed.  A change
# to railflow moves them as it moves wall time; the host's drift cancels.
CALIBRATION_REF_S = 0.05

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", help="workload name (see BENCHMARK.json)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50.0, help="timed seconds per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload in its own process")
    p.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.all and not args.workload:
        p.error("give --workload or --all")
    return args


def _import_benchmark():
    """Import railflow from the checkout's src/ and the benchmark's modules."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    warnings.filterwarnings("ignore", category=UserWarning, module=r"railflow\.")
    import gate
    import tracing
    import workloads

    return gate, tracing, workloads


# -- run context ----------------------------------------------------------


def _blas() -> dict:
    import numpy

    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line and line.rstrip().endswith(".so")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = int(getattr(handle, symbol)())
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def _src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def run_context() -> dict:
    import numpy

    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": _blas(),
        "src_lines": _src_lines(),
    }


# -- one workload ---------------------------------------------------------


def _digests(out_dir: Path, files) -> dict[str, str]:
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in files
        if (out_dir / name).exists()
    }


def _number(value: float, unit: str):
    """Counts print as integers; measured values keep every digit."""
    if unit in ("count", "bytes", "bytes_computed") and float(value).is_integer():
        return int(value)
    return value


def _tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it (nearest rank)."""
    n = len(samples)
    if n < 11:
        return None
    pct = (100 * (n - 10)) // n
    return pct, sorted(samples)[max(0, -(-pct * n // 100) - 1)]


_CAL_COL = _CAL_ROW = _CAL_BLOCK = None


def calibration_seconds() -> float:
    """Seconds of a fixed loop of the two kinds of work railflow does.

    Interpreted integer arithmetic stands for model building and reports,
    rank-1 updates of a dense 700 x 1500 block for the simplex tableau.
    """
    global _CAL_COL, _CAL_ROW, _CAL_BLOCK
    import numpy

    if _CAL_BLOCK is None:
        _CAL_COL, _CAL_ROW = numpy.linspace(0.0, 1.0, 700), numpy.linspace(0.0, 1.0, 1500)
        _CAL_BLOCK = numpy.ones((700, 1500))
    t0 = time.perf_counter()
    total = 0
    for k in range(20_000):
        total += k * k
    # Scattered updates, as the simplex makes them while the tableau is sparse.
    nz = numpy.nonzero(_CAL_ROW)[0]
    _CAL_BLOCK[:, nz] -= numpy.outer(_CAL_COL, _CAL_ROW[nz])
    _CAL_BLOCK[:, nz] += numpy.outer(_CAL_COL, _CAL_ROW[nz])
    return time.perf_counter() - t0


def _at_reference(elapsed: float, cal_before: float, cal_after: float) -> float:
    """``elapsed`` seconds rescaled to the host speed at which the loop takes CALIBRATION_REF_S."""
    return elapsed * CALIBRATION_REF_S * 2.0 / (cal_before + cal_after)


def _setup_seconds(workload: str, seed: int, work: Path) -> float:
    """Process start to ready-for-the-first-case, in a fresh child process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe", str(work / "probe")]
    cal_before = calibration_seconds()
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
        if child.wait() != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit code {child.returncode}")
    shutil.rmtree(work / "probe", ignore_errors=True)
    return _at_reference(elapsed, cal_before, calibration_seconds())


def bench(args) -> int:
    gate, tracing, workloads = _import_benchmark()
    own_setup = time.perf_counter() - _START
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    base = ROOT / ".perfbench_work"
    work = base / f"{workload.name}-s{args.seed}-{os.getpid()}"
    try:
        return _bench(args, workload, work, own_setup, gate, tracing, workloads)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass


def _pass(workload, cases, outs, workloads, tracer, case_times, after_case=None) -> float:
    """Run ``cases`` once and return the seconds they took.

    Each case's seconds at reference speed are appended to
    ``case_times[case.name]``; ``after_case`` runs between cases, outside
    the timed regions.
    """
    total = 0.0
    cal = calibration_seconds()
    for case in cases:
        if tracer:
            tracer.case = case.name
        t_case = time.perf_counter()
        workloads.run_case(workload, case, outs[case.name])
        elapsed = time.perf_counter() - t_case
        cal_before, cal = cal, calibration_seconds()
        case_times[case.name].append(_at_reference(elapsed, cal_before, cal))
        total += elapsed
        if after_case:
            after_case(case)
    return total


def _bench(args, workload, work, own_setup, gate, tracing, workloads) -> int:
    setup: list[float] = []
    groups = workloads.prepare(workload, args.seed, ROOT, work)
    cases = [case for group in groups for case in group]
    outs = {case.name: work / "out" / f"{k:03d}" for k, case in enumerate(cases)}
    files = workloads.OUTPUT_FILES

    # The first pass over each group also feeds the gate, through the light
    # GATE_POINTS hooks.  Between cases it keeps what the gate needs and
    # drops the model, so peak RSS stays that of one case at a time.
    records = {}
    sizes: dict[str, int] = {}

    def keep(case, capture) -> None:
        output = capture.outputs.pop(case.name)
        for key, value in tracing.model_sizes(output.model).items():
            sizes[key] = sizes.get(key, 0) + value
        records[case.name] = gate.CaseRecord.from_output(case.name, output, _digests(outs[case.name], files))

    # Timed passes cycle through the groups, at least twice round so that
    # every case's output bytes are compared between passes.  With tracing
    # each untraced pass is followed by a traced pass of its group.
    passes: list[float] = []
    plain = {case.name: [] for case in cases}
    traced = {case.name: [] for case in cases}
    spans: list[tuple[int, int, list]] = []  # (pass, group, spans) of traced passes
    totals = [[] for _ in groups]
    later = {case.name: [] for case in cases}
    t_begin = time.perf_counter()
    k = 0
    while k < 2 * len(groups) or time.perf_counter() - t_begin < args.seconds:
        g = k % len(groups)
        k += 1
        if k <= len(groups):
            capture = tracing.Tracer(tracing.GATE_POINTS)
            with capture:
                passes.append(_pass(workload, groups[g], outs, workloads, capture, plain,
                                    lambda case: keep(case, capture)))
            for name, hits in tracing.limit_hits_by_case(capture.spans).items():
                records[name].budget_hits = hits
        else:
            passes.append(_pass(workload, groups[g], outs, workloads, None, plain))
            for case in groups[g]:
                later[case.name].append(_digests(outs[case.name], files))
        if args.trace:
            tracer = tracing.Tracer()
            with tracer:
                wall = _pass(workload, groups[g], outs, workloads, tracer, traced)
            totals[g].append(tracing.pass_totals(tracer.spans, wall))
            spans.append((k, g, tracer.spans))
        # Set-up probes are spread over the run, so that they meet the same
        # state of the host as the passes do.
        due = SETUP_PROBES * min(1.0, (time.perf_counter() - t_begin) / args.seconds)
        while len(setup) < due:
            setup.append(_setup_seconds(workload.name, args.seed, work))
    while len(setup) < SETUP_PROBES:
        setup.append(_setup_seconds(workload.name, args.seed, work))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = {}
    for case in cases:
        mps = (outs[case.name] / "model.mps").read_text()
        reasons = gate.check_case(records[case.name], mps, later[case.name])
        if reasons:
            failures[case.name] = reasons
    wrong = any(not r.startswith(gate.BUDGET) for reasons in failures.values() for r in reasons)

    context = run_context()
    context.update(workload=workload.name, seed=args.seed, trace=args.trace, own_setup_s=own_setup)
    print("context " + json.dumps(context, sort_keys=True))
    for name, reasons in failures.items():
        print(f"FAILED {workload.name} {name}: " + "; ".join(reasons))
    print(f"{workload.name} error_rate {len(failures) / len(cases):.4f} ratio"
          f" ({len(failures)} of {len(cases)} cases failed)")
    case_times = [x for t in plain.values() for x in t]
    for label, samples, speed in (("case_s", case_times, "reference"), ("pass_s", passes, "host")):
        tail = _tail(samples)
        tail_text = f"p{tail[0]} {tail[1]:.4f} s" if tail else "no percentile has ten samples above it"
        print(f"{workload.name} {label} at {speed} speed: median {statistics.median(samples):.4f} s,"
              f" {tail_text} (n={len(samples)})")
    print(f"{workload.name} setup_s probes {[round(x, 4) for x in setup]}")
    if spans:
        path = work.parent / f"spans-{workload.name}-s{args.seed}.jsonl"
        with path.open("w") as out:
            for k, g, pass_spans in spans:
                for span in pass_spans:
                    record = {"pass": k, "group": g, "name": span.name, "start": span.start, "end": span.end,
                              "parent": span.parent, "case": span.note["case"]}
                    out.write(json.dumps(record) + "\n")
        print(f"{workload.name} spans written to {path.relative_to(ROOT)}")

    wall_s = sum(statistics.median(t) for t in plain.values())
    if args.trace == 0:
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        overhead = sum(statistics.median(t) for t in traced.values()) - wall_s
        merged = tracing.finish(totals, sizes, overhead)
        metrics = {name: {"value": _number(merged[name], unit), "unit": unit} for name, unit in tracing.PER_LAYER}
    print(json.dumps({"correct": not wrong, "attempted": len(cases), "failed": len(failures), "metrics": metrics}))
    return 0


def setup_probe(args) -> int:
    _, _, workloads = _import_benchmark()
    workloads.prepare(workloads.WORKLOADS[args.workload], args.seed, ROOT, args.setup_probe)
    print("ready", flush=True)
    return 0


# -- every workload -------------------------------------------------------


def _cell(value) -> str:
    return f"{value:>18d}" if isinstance(value, int) else f"{value:>18.6g}"


def run_all(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = {}
    for trace_flag in (0, 1):
        for w in spec["workloads"]:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace_flag)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{w['name']} exited with {proc.returncode}")
            for line in lines[:-1]:
                if line.startswith(("FAILED", w["name"])):
                    print(line)
            result = json.loads(lines[-1])
            row = rows.setdefault(w["name"], {})
            row.update(result["metrics"])
            row["error_rate"] = {"value": result["failed"] / result["attempted"], "unit": "ratio"}
    names = [w["name"] for w in spec["workloads"]]
    metric_names = [m["name"] for m in spec["end_to_end"]] + ["error_rate"]
    metric_names += [m["name"] for m in spec["per_layer"]]
    print(f"{'metric':32} {'unit':>14} " + " ".join(f"{n:>18}" for n in names))
    for metric in metric_names:
        unit = rows[names[0]][metric]["unit"]
        cells = " ".join(_cell(rows[n][metric]["value"]) for n in names)
        print(f"{metric:32} {unit:>14} {cells}")
    return 0


def _terminate(signum, frame):
    # Turn SIGTERM into SystemExit so cleanup in finally blocks runs.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = _args(argv)
    if args.all:
        return run_all(args)
    if args.setup_probe is not None:
        return setup_probe(args)
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
