"""Facility-selection solvers over shipment/box cost matrices."""
from boxsuite.pmedian.grasp import GraspParams, greedy_construct, path_relink, solve_grasp
from boxsuite.pmedian.instance import (
    PMedianInstance,
    SolveResult,
    Suite,
    check_feasible,
    collapse_rows,
    drop_dominated_columns,
    extract_assignment,
    solve_exact,
    suite_cost,
)
from boxsuite.pmedian.interchange import closest_two, local_search_interchange
from boxsuite.pmedian.kernels import active_backend
from boxsuite.pmedian.lagrangian import LagrangianParams, dual_value, solve_lagrangian

__all__ = [
    "GraspParams",
    "LagrangianParams",
    "PMedianInstance",
    "SolveResult",
    "Suite",
    "active_backend",
    "check_feasible",
    "collapse_rows",
    "closest_two",
    "drop_dominated_columns",
    "dual_value",
    "extract_assignment",
    "greedy_construct",
    "local_search_interchange",
    "path_relink",
    "solve_exact",
    "solve_grasp",
    "solve_lagrangian",
    "suite_cost",
]
