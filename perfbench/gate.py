"""Independent correctness gate, run outside the timed region.

Each case's exported MPS text is read back, never the in-memory model, and
solved with HiGHS (``scipy.optimize.milp``) by ``tests/mps_reader.py``.  The
bundled solver's status and objective must agree with it, its values must
pass ``railflow.checks.verify_solution``, no solve may have run out of its
work budget, and every timed pass must have written the same bytes as the
first.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

from railflow.checks import verify_solution
from railflow.simplex import INFEASIBLE, ITERATION_LIMIT, OPTIMAL, UNBOUNDED

# The MPS reader and HiGHS call of the repository's own cross-solver test.
sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))

# Relative tolerance on the objective, as in that test.
OBJECTIVE_RTOL = 1e-6
_HIGHS_STATUS = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}
BUDGET = "work budget exhausted"


def highs_solve(text: str) -> tuple[str, float | None]:
    """Status and objective of the exported MPS problem according to HiGHS."""
    # Imported here, after the timed passes, so that scipy's memory does not
    # count in peak_rss_mb.
    from mps_reader import solve_with_scipy

    res = solve_with_scipy(text)
    status = _HIGHS_STATUS.get(res.status, f"highs status {res.status}")
    return status, (float(res.fun) if res.status == 0 else None)


@dataclass
class CaseRecord:
    """What the gate keeps of a case from its first timed pass."""

    name: str
    status: str
    objective: float | None
    breaches: list[str]          # verify_solution findings on the returned values
    digests: dict[str, str]      # output file name -> sha256 of its bytes
    budget_hits: int = 0         # LP solves that stopped at the iteration cap

    @classmethod
    def from_output(cls, name: str, output, digests: dict[str, str]) -> "CaseRecord":
        result = output.result
        breaches: list[str] = []
        if result.status == OPTIMAL:
            integer = any(v.integer for v in output.model.variables)
            breaches = verify_solution(output.model, result.values, integrality=1e-6 if integer else None)
        return cls(name, result.status, result.objective, breaches, digests)


def check_case(rec: CaseRecord, mps: str, later_digests: list[dict[str, str]]) -> list[str]:
    """Every reason the case fails; empty when it passes."""
    reasons: list[str] = []
    if rec.status == ITERATION_LIMIT or rec.budget_hits:
        reasons.append(f"{BUDGET}: {rec.budget_hits} LP solves hit the iteration cap, status {rec.status}")
    ref_status, ref_obj = highs_solve(mps)
    if rec.status != ITERATION_LIMIT:
        if rec.status != ref_status:
            reasons.append(f"status {rec.status} but HiGHS says {ref_status}")
        elif rec.status == OPTIMAL:
            if abs(rec.objective - ref_obj) > OBJECTIVE_RTOL * max(1.0, abs(ref_obj)):
                reasons.append(f"objective {float(rec.objective)!r} but HiGHS says {ref_obj!r}")
    if rec.breaches:
        reasons.append(f"verify_solution: {len(rec.breaches)} breaches, first {rec.breaches[0]}")
    for k, digests in enumerate(later_digests, start=1):
        changed = sorted(f for f in set(rec.digests) | set(digests) if rec.digests.get(f) != digests.get(f))
        if changed:
            reasons.append(f"timed pass {k} wrote different bytes for {', '.join(changed)}")
            break
    return reasons
