"""Volume-based multi-commodity train flow model over discrete time periods.

Demands for train volumes are matched onto named routes (the commodities)
and scheduled as flows over a time-expanded network under link capacities,
traversal-pacing limits and single-track direction-change costs.  The package
bundles its own simplex / branch-and-bound solver, a portable MPS export and
a scenario front end for studying temporary capacity restrictions.
"""

from .bnb import SolveResult, refine_to_earliest_pace, solve_mip
from .checks import max_violation_by_family, verify_solution
from .model import (
    LinearConstraint,
    ModelConfig,
    ModelError,
    TimeExpandedModel,
    VariableRef,
    build_model,
    build_objective,
    build_variables,
    departure_spread,
    emit_aggregates,
    emit_capacity,
    emit_demand_layer,
    emit_flow_layer,
)
from .mps_io import export_model_text
from .scenario import (
    CapacityUsageReport,
    DemandOutcomeReport,
    RunOutput,
    ScenarioDocument,
    ScenarioError,
    TcrOverride,
    apply_tcr,
    build_capacity_report,
    build_demand_report,
    build_scenario_model,
    load_scenario,
    report_capacity_csv,
    report_demand_csv,
    run,
)
from .simplex import (
    INFEASIBLE,
    ITERATION_LIMIT,
    NUMERICS,
    OPTIMAL,
    UNBOUNDED,
    LpSolution,
    StandardFormLP,
    Tolerances,
    build_standard_form,
    solve_lp,
    solve_model_lp,
)

__version__ = "0.1.0"
