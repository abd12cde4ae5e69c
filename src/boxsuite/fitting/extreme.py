"""Extreme-point packer: a constructive, one-sided fit test.

Cartons are placed one at a time, each at the first extreme point, in
(z, y, x) order, where an allowed orientation fits the box without
overlapping the cartons already placed. Placing a carton adds the three
corners it exposes (beyond it along x, along y and along z), each projected
back along the two other axes onto the nearest carton face or box wall
(Crainic, Perboli & Tadei, "Extreme point-based heuristics for
three-dimensional bin packing", INFORMS J. Computing 20, 2008).

Height-oriented cartons keep their height vertical through
``orientation_extents``; bottom-resting ones take only points on the floor.
A fixed list of carton orders, each with a few orientation preferences, is
tried until one packs everything. Nothing depends on the clock, so a call's
answer does not depend on machine load. A returned witness is a packing
under the same tolerance ``check_witness`` applies; None proves nothing.
"""
from __future__ import annotations

import random
from typing import Optional

from boxsuite.fitting.types import FitProblem, Placement, orientation_extents

__all__ = ["pack_extreme_points"]

_SHUFFLES = 3  # seeded random carton orders after the fixed ones

# Orientation preferences, as sort keys over extents (x, y, z): lying flat,
# longest side along x, longest side along y, standing tall.
_PREFERENCES = (
    lambda e: (e[2], -e[0], -e[1]),
    lambda e: (-e[0], -e[1], e[2]),
    lambda e: (-e[1], -e[0], e[2]),
    lambda e: (-e[2], -e[0], -e[1]),
)


def pack_extreme_points(problem: FitProblem) -> Optional[tuple[Placement, ...]]:
    """A packing of the problem's cartons, sorted by carton, or None."""
    box = problem.box.as_tuple()
    eps = problem.eps
    cartons = problem.cartons
    options = []
    for c in cartons:
        opts = [e for e in orientation_extents(c)
                if e[0] <= box[0] + eps and e[1] <= box[1] + eps and e[2] <= box[2] + eps]
        if not opts:
            return None
        options.append(opts)
    if sum(c.dims.volume for c in cartons) > box[0] * box[1] * box[2] + eps:
        return None
    floor = [c.bottom_resting for c in cartons]
    for prefer in _PREFERENCES:
        ranked = [sorted(opts, key=prefer) for opts in options]
        for order in _orders(problem, floor):
            placed = _pack(order, ranked, floor, box, eps)
            if placed is not None:
                return tuple(sorted(placed, key=lambda pl: pl.carton))
    return None


def _orders(problem: FitProblem, floor: list) -> list[tuple[int, ...]]:
    """Distinct carton orders: by volume, longest side, shortest side and
    floor cartons first (each falling back to volume), then seeded shuffles."""
    n = problem.n
    dims = [c.dims.as_tuple() for c in problem.cartons]
    vol = [c.dims.volume for c in problem.cartons]
    keys = (
        lambda i: (-vol[i], i),
        lambda i: (-max(dims[i]), -vol[i], i),
        lambda i: (-min(dims[i]), -vol[i], i),
        lambda i: (not floor[i], -vol[i], i),
    )
    orders = [tuple(sorted(range(n), key=key)) for key in keys]
    for seed in range(_SHUFFLES):
        order = list(range(n))
        random.Random(seed).shuffle(order)
        orders.append(tuple(order))
    return list(dict.fromkeys(orders))


def _pack(order, ranked, floor, box, eps) -> Optional[list[Placement]]:
    points = [(0.0, 0.0, 0.0)]  # (z, y, x), kept sorted
    placed: list[Placement] = []
    for i in order:
        spot = None
        for z, y, x in points:
            if floor[i] and z > eps:
                break  # points are sorted by z: none further is on the floor
            for e in ranked[i]:
                if (x + e[0] <= box[0] + eps and y + e[1] <= box[1] + eps
                        and z + e[2] <= box[2] + eps
                        and all(_apart((x, y, z), e, pl, eps) for pl in placed)):
                    spot = Placement(i, e, (x, y, z))
                    break
            if spot is not None:
                break
        if spot is None:
            return None
        placed.append(spot)
        fresh = set()
        for a in range(3):
            corner = list(spot.origin)
            corner[a] += spot.extents[a]
            for b in range(3):
                if b != a:
                    fresh.add(_project(corner, b, placed))
        points = sorted(set(points) | {(p[2], p[1], p[0]) for p in fresh})
        points.remove(spot.origin[::-1])
    return placed


def _apart(origin, ext, pl: Placement, eps) -> bool:
    """The same separation test as ``check_witness``."""
    for a in range(3):
        if (origin[a] + ext[a] <= pl.origin[a] + eps
                or pl.origin[a] + pl.extents[a] <= origin[a] + eps):
            return True
    return False


def _project(point: list, axis: int, placed: list[Placement]) -> tuple:
    """``point`` moved towards 0 along ``axis`` until it meets the far face of
    a placed carton or the wall."""
    stop = 0.0
    for pl in placed:
        o, e = pl.origin, pl.extents
        end = o[axis] + e[axis]
        if stop < end <= point[axis] and all(
                o[b] <= point[b] < o[b] + e[b] for b in range(3) if b != axis):
            stop = end
    moved = list(point)
    moved[axis] = stop
    return tuple(moved)
