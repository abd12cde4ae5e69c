"""Feasibility tests for packing cartons into a candidate box.

Layered from cheap to complete:

- :func:`fits_stacking` is a closed-form one-sided screen: it proves FIT by
  lining the cartons up along one axis of the declared box (``box.c``
  vertical);
- ``checks.normal_pattern_box`` cuts each box axis to the longest sum of
  carton extents it holds, which never changes the verdict;
- :func:`dff_refutes` is a one-sided dual-feasible-function volume bound
  that proves NO_FIT without search;
- :func:`pack_extreme_points` is a constructive extreme-point packer that
  proves FIT when it packs everything (one-sided, no clock);
- :func:`fits_exact_small` settles two cartons exactly;
- :func:`solve_fit` is the general branch-and-bound decision procedure;
- :func:`oracle_fit` is an independent exhaustive reference used for
  cross-checking (exponential, keep n small);
- :func:`check_witness` validates a claimed packing against the box and the
  orientation/floor constraints.

Every function reads each carton's own ``height_oriented`` and
``bottom_resting`` flags; there is no switch to ignore them. A caller that
wants a carton free of a rule builds it without the flag.

The per-carton necessity screen is not here: the fit scan runs it over all
boxes at once (``fitmatrix._ShipmentScanner._necessity``), and for one
carton it is the exact fit test.
"""
from boxsuite.fitting.checks import dff_refutes, fits_stacking
from boxsuite.fitting.extreme import pack_extreme_points
from boxsuite.fitting.oracle import oracle_fit
from boxsuite.fitting.small import fits_exact_small
from boxsuite.fitting.solver import solve_fit
from boxsuite.fitting.types import (
    FitProblem,
    FitVerdict,
    Outcome,
    Placement,
    SolverConfig,
    carton_key,
    check_witness,
    orientation_extents,
)

__all__ = [
    "FitProblem",
    "FitVerdict",
    "Outcome",
    "Placement",
    "SolverConfig",
    "carton_key",
    "check_witness",
    "dff_refutes",
    "fits_exact_small",
    "fits_stacking",
    "orientation_extents",
    "oracle_fit",
    "pack_extreme_points",
    "solve_fit",
]
