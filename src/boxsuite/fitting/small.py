"""Exact fit decider for 2-carton problems.

Two axis-aligned cuboids are disjoint iff separated along some axis, so
feasibility reduces to finding an orientation pair and an axis whose summed
extents fit, with each remaining extent contained. Three or more cartons go
to the branch-and-bound ``solve_fit``.
"""
from __future__ import annotations

from time import perf_counter

from boxsuite.model import DataError

from boxsuite.fitting.types import FitProblem, FitVerdict, Outcome, Placement, orientation_extents

__all__ = ["fits_exact_small"]


def fits_exact_small(problem: FitProblem) -> FitVerdict:
    if problem.n != 2:
        raise DataError(f"fits_exact_small handles 2 cartons, got {problem.n}")
    t0 = perf_counter()
    eps = problem.eps
    box = problem.box.as_tuple()
    c0, c1 = problem.cartons
    br0, br1 = c0.bottom_resting, c1.bottom_resting
    nodes = 0
    for e0 in orientation_extents(c0):
        if not all(e0[a] <= box[a] + eps for a in range(3)):
            continue
        for e1 in orientation_extents(c1):
            if not all(e1[a] <= box[a] + eps for a in range(3)):
                continue
            for axis in range(3):
                nodes += 1
                if e0[axis] + e1[axis] > box[axis] + eps:
                    continue
                if axis == 2:
                    if br0 and br1:
                        continue  # someone would leave the floor
                    bottom, top = (1, 0) if br1 else (0, 1)
                else:
                    bottom, top = 0, 1
                ext = {0: e0, 1: e1}
                origins = {bottom: (0.0, 0.0, 0.0)}
                off = [0.0, 0.0, 0.0]
                off[axis] = ext[bottom][axis]
                origins[top] = tuple(off)
                witness = (
                    Placement(0, e0, origins[0]),
                    Placement(1, e1, origins[1]),
                )
                return FitVerdict(Outcome.FIT, witness=witness, nodes=nodes,
                                  wall_time=perf_counter() - t0)
    return FitVerdict(Outcome.NO_FIT, nodes=nodes, wall_time=perf_counter() - t0)
