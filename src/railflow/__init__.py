"""Volume-based multi-commodity train flow model over discrete time periods.

Demands for train volumes are matched onto named routes (the commodities)
and scheduled as flows over a time-expanded network under link capacities,
traversal-pacing limits and single-track direction-change costs.  The package
bundles its own simplex / branch-and-bound solver, a portable MPS export and
a scenario front end for studying temporary capacity restrictions.

Only the documented library API is exported here; the rest of each module
is imported from the module itself (railflow.model, railflow.simplex, ...).
"""

from .checks import verify_solution
from .model import ModelConfig, ModelError
from .mps_io import export_model_text
from .scenario import (
    RunOutput,
    ScenarioError,
    TcrOverride,
    apply_tcr,
    load_scenario,
    report_capacity_csv,
    report_demand_csv,
    run,
)
from .simplex import INFEASIBLE, ITERATION_LIMIT, NUMERICS, OPTIMAL, UNBOUNDED, Tolerances

__version__ = "0.1.0"
