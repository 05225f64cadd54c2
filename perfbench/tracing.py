"""Spans around railflow's public entry points, recorded from outside.

``Tracer.install`` replaces module attributes with timing wrappers exactly
where callers look them up (``railflow.cli.run`` is what the CLI calls,
``railflow.scenario.solve_mip`` is what ``run`` calls, and so on);
``Tracer.remove`` puts the originals back.  Nothing inside railflow changes,
and untraced passes run the unmodified functions.

A span is (name, start, end, parent).  Spans stay in memory; ``layer_metrics``
turns the spans of one pass into per-layer self times and counts.  A layer's
self time is its span minus the spans of its children.
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass, field

import railflow.bnb
import railflow.checks
import railflow.cli
import railflow.mps_io
import railflow.scenario
import railflow.simplex
from railflow.simplex import ITERATION_LIMIT, OPTIMAL

# (module, attribute, span name); a name of None counts calls without a span.
ENTRY_POINTS = (
    (railflow.cli, "main", "cli.main"),
    (railflow.cli, "load_scenario", "scenario.load"),
    (railflow.cli, "build_scenario_model", "model.build"),
    (railflow.cli, "run", None),
    (railflow.cli, "report_capacity_csv", "scenario.reports"),
    (railflow.cli, "report_demand_csv", "scenario.reports"),
    (railflow.cli, "export_model_text", "mps_io.export"),
    (railflow.scenario, "load_scenario", "scenario.load"),
    (railflow.scenario, "run", None),
    (railflow.scenario, "build_scenario_model", "model.build"),
    (railflow.scenario, "solve_mip", "bnb.solve_mip"),
    (railflow.scenario, "refine_to_earliest_pace", "bnb.refine"),
    (railflow.scenario, "build_capacity_report", "scenario.reports"),
    (railflow.scenario, "build_demand_report", "scenario.reports"),
    (railflow.scenario, "report_capacity_csv", "scenario.reports"),
    (railflow.scenario, "report_demand_csv", "scenario.reports"),
    (railflow.mps_io, "export_model_text", "mps_io.export"),
    (railflow.bnb, "solve_model_lp", None),
    (railflow.simplex, "build_standard_form", "simplex.standard_form"),
    (railflow.simplex, "solve_lp", "simplex.solve"),
)

# What the correctness gate needs from a case: the output of ``run`` and the
# iteration-cap hits of its LP solves.  Light enough for a timed pass.
GATE_POINTS = (
    (railflow.cli, "run", None),
    (railflow.scenario, "run", None),
    (railflow.simplex, "solve_lp", "simplex.solve"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    note: dict = field(default_factory=dict)


class Tracer:
    """Records spans and per-call notes at ``points`` while installed."""

    def __init__(self, points=ENTRY_POINTS) -> None:
        self.points = points
        self.spans: list[Span] = []
        self.outputs: dict[str, object] = {}  # case name -> RunOutput of its last run
        self.case = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name in self.points:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, attr, name))
        if self.points is not ENTRY_POINTS:
            return
        cls = railflow.checks.ConstraintSystem
        raw = cls.__dict__["from_model"]
        self._saved.append((cls, "from_model", raw))
        inner = self._wrap(raw.__func__, "from_model", "checks.system")
        cls.from_model = classmethod(inner)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _wrap(self, fn, attr: str, name: str | None):
        note_of = _NOTES.get(attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
                if attr == "run":
                    self.outputs[self.case] = result
                elif attr == "solve_model_lp" and self._stack:
                    self._note_lp(args, kwargs, result)
                return result
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1)
            span.note["case"] = self.case
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if note_of is not None:
                note_of(span.note, args, result)
            return result

        return wrapper

    def _note_lp(self, args, kwargs, result) -> None:
        parent = self.spans[self._stack[-1]]
        notes = parent.note
        notes["lp_solves"] = notes.get("lp_solves", 0) + 1
        fixes = kwargs.get("extra_fixes", args[3] if len(args) > 3 else None)
        if fixes:
            notes["repairs"] = notes.get("repairs", 0) + 1
            if result[0].status == OPTIMAL:
                notes["repairs_ok"] = notes.get("repairs_ok", 0) + 1


def _note_standard_form(note: dict, args, sf) -> None:
    slacks = sum(1 for rel in sf.relations if rel != "=")
    note["rows"] = sf.n_rows
    note["cols"] = sf.n_cols
    note["tableau_bytes"] = (sf.n_rows + 2) * (sf.n_cols + slacks + 1) * 8


def _note_solve(note: dict, args, solution) -> None:
    note["iterations"] = solution.iterations
    note["limit"] = solution.status == ITERATION_LIMIT


def _note_mip(note: dict, args, result) -> None:
    note["nodes"] = result.nodes


def _note_bytes(note: dict, args, data) -> None:
    note["bytes"] = len(data)


def _note_text(note: dict, args, text) -> None:
    note["bytes"] = len(text.encode("utf-8"))


_NOTES = {
    "build_standard_form": _note_standard_form,
    "solve_lp": _note_solve,
    "solve_mip": _note_mip,
    "report_capacity_csv": _note_bytes,
    "report_demand_csv": _note_bytes,
    "export_model_text": _note_text,
}


# -- aggregation ----------------------------------------------------------

PER_LAYER = (
    ("scenario.load_s", "s"),
    ("scenario.reports_s", "s"),
    ("scenario.report_bytes", "bytes"),
    ("model.build_s", "s"),
    ("model.build_calls", "count"),
    ("model.vars", "count"),
    ("model.rows", "count"),
    ("model.singleton_rows", "count"),
    ("model.nnz", "count"),
    ("simplex.standard_form_s", "s"),
    ("simplex.standard_form_calls", "count"),
    ("simplex.sf_rows", "count"),
    ("simplex.sf_cols", "count"),
    ("simplex.tableau_bytes", "bytes_computed"),
    ("simplex.solve_s", "s"),
    ("simplex.solve_calls", "count"),
    ("simplex.iterations", "count"),
    ("simplex.us_per_iteration", "us"),
    ("simplex.limit_hits", "count"),
    ("bnb.self_s", "s"),
    ("bnb.nodes", "count"),
    ("bnb.lp_solves", "count"),
    ("bnb.repair_solves", "count"),
    ("bnb.repair_success_ratio", "ratio"),
    ("bnb.refine_s", "s"),
    ("bnb.refine_iterations", "count"),
    ("checks.system_s", "s"),
    ("mps_io.export_s", "s"),
    ("mps_io.bytes", "bytes"),
    ("cli.self_s", "s"),
    ("trace.unaccounted_s", "s"),
    ("trace.overhead_s", "s"),
)


def self_times(spans: list[Span]) -> list[float]:
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def _under(spans: list[Span], index: int, name: str) -> bool:
    while index >= 0:
        if spans[index].name == name:
            return True
        index = spans[index].parent
    return False


def model_sizes(model) -> dict[str, int]:
    rows = model.constraints
    return {
        "model.vars": len(model.variables),
        "model.rows": len(rows),
        "model.singleton_rows": sum(1 for row in rows if len(row.terms) == 1),
        "model.nnz": sum(len(row.terms) for row in rows),
    }


# Metrics that ``finish`` derives rather than adds up across groups.
_LARGEST = ("simplex.sf_rows", "simplex.sf_cols", "simplex.tableau_bytes")
_DERIVED = ("simplex.us_per_iteration", "bnb.repair_success_ratio", "trace.overhead_s")
_SIZES = ("model.vars", "model.rows", "model.singleton_rows", "model.nnz")
_SUMMED = tuple(name for name, _ in PER_LAYER if name not in _LARGEST + _DERIVED + _SIZES)


def pass_totals(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer totals of one traced pass.

    Standard-form sizes are those of the largest root LP of the pass, the
    first standard form built in each case.  ``finish`` turns the totals of
    several passes into the reported metrics.
    """
    own = self_times(spans)
    out = dict.fromkeys(_SUMMED, 0.0)
    out.update(dict.fromkeys(_LARGEST, 0))
    out["repairs_ok"] = 0

    def add(key: str, value: float) -> None:
        out[key] += value

    seen_cases: set[str] = set()
    for i, s in enumerate(spans):
        if s.name == "scenario.load":
            add("scenario.load_s", own[i])
        elif s.name == "scenario.reports":
            add("scenario.reports_s", own[i])
            add("scenario.report_bytes", s.note.get("bytes", 0))
        elif s.name == "model.build":
            add("model.build_s", own[i])
            add("model.build_calls", 1)
        elif s.name == "simplex.standard_form":
            add("simplex.standard_form_s", own[i])
            add("simplex.standard_form_calls", 1)
            if s.note["case"] not in seen_cases:
                seen_cases.add(s.note["case"])
                if s.note["tableau_bytes"] > out["simplex.tableau_bytes"]:
                    out["simplex.sf_rows"] = s.note["rows"]
                    out["simplex.sf_cols"] = s.note["cols"]
                    out["simplex.tableau_bytes"] = s.note["tableau_bytes"]
        elif s.name == "simplex.solve":
            add("simplex.solve_s", own[i])
            add("simplex.solve_calls", 1)
            add("simplex.iterations", s.note["iterations"])
            add("simplex.limit_hits", int(s.note["limit"]))
            if _under(spans, i, "bnb.refine"):
                add("bnb.refine_iterations", s.note["iterations"])
        elif s.name == "bnb.solve_mip":
            add("bnb.self_s", own[i])
            add("bnb.nodes", s.note.get("nodes", 0))
            add("bnb.lp_solves", s.note.get("lp_solves", 0))
            add("bnb.repair_solves", s.note.get("repairs", 0))
            add("repairs_ok", s.note.get("repairs_ok", 0))
        elif s.name == "bnb.refine":
            add("bnb.refine_s", own[i])
        elif s.name == "checks.system":
            add("checks.system_s", own[i])
        elif s.name == "mps_io.export":
            add("mps_io.export_s", own[i])
            add("mps_io.bytes", s.note.get("bytes", 0))
        elif s.name == "cli.main":
            add("cli.self_s", own[i])
    out["trace.unaccounted_s"] = wall_s - sum(own)
    return out


def finish(groups: list[list[dict]], sizes: dict[str, int], overhead_s: float) -> dict[str, float]:
    """Reported per-layer metrics: totals over every case of the workload.

    ``groups`` holds, per group of cases, the ``pass_totals`` of each traced
    pass over it.  Each metric takes its median over a group's passes and
    then adds up over groups; ``sizes`` are the ``model_sizes`` summed over
    all cases.
    """
    medians = [
        {key: statistics.median(p[key] for p in passes) for key in passes[0]}
        for passes in groups
    ]
    out = {key: sum(m[key] for m in medians) for key in _SUMMED + ("repairs_ok",)}
    largest = max(medians, key=lambda m: m["simplex.tableau_bytes"])
    out.update({key: largest[key] for key in _LARGEST})
    out.update(sizes)
    iterations = out["simplex.iterations"]
    out["simplex.us_per_iteration"] = out["simplex.solve_s"] / iterations * 1e6 if iterations else 0.0
    repairs, repairs_ok = out["bnb.repair_solves"], out.pop("repairs_ok")
    # 0 when no repair was attempted; bnb.repair_solves gives the base.
    out["bnb.repair_success_ratio"] = repairs_ok / repairs if repairs else 0.0
    out["trace.overhead_s"] = overhead_s
    return out


def limit_hits_by_case(spans: list[Span]) -> dict[str, int]:
    hits: dict[str, int] = {}
    for s in spans:
        if s.name == "simplex.solve" and s.note["limit"]:
            hits[s.note["case"]] = hits.get(s.note["case"], 0) + 1
    return hits
