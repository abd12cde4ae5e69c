"""Reference fit decider: exhaustive search over canonical ("normal") positions.

If any packing exists, one exists where every carton is pushed left/back/down
until each coordinate is 0 or a sum of a subset of the other cartons' extents
along that axis. Enumerating orientations and those positions is therefore
exact. Exponential in n — intended for small instances and as the independent
check of the branch-and-bound solver, so it deliberately shares no search code
with it.
"""
from __future__ import annotations

from time import perf_counter
from typing import Optional

from boxsuite.fitting.types import FitProblem, FitVerdict, Outcome, Placement, orientation_extents

__all__ = ["oracle_fit", "canonical_search"]


def oracle_fit(problem: FitProblem) -> FitVerdict:
    return canonical_search(problem)


def canonical_search(problem: FitProblem) -> FitVerdict:
    t0 = perf_counter()
    eps = problem.eps
    box = problem.box.as_tuple()
    n = problem.n
    cartons = problem.cartons

    options = []
    for c in cartons:
        opts = [
            e
            for e in orientation_extents(c)
            if all(e[a] <= box[a] + eps for a in range(3))
        ]
        if not opts:
            return FitVerdict(Outcome.NO_FIT, nodes=0, wall_time=perf_counter() - t0)
        options.append(opts)

    box_volume = box[0] * box[1] * box[2]
    if sum(c.dims.volume for c in cartons) > box_volume + eps:
        return FitVerdict(Outcome.NO_FIT, nodes=0, wall_time=perf_counter() - t0)

    # Place larger cartons first: they constrain the layout most.
    order = sorted(range(n), key=lambda i: (-cartons[i].dims.volume, i))
    br = [cartons[i].bottom_resting for i in range(n)]

    ext: list[Optional[tuple[float, float, float]]] = [None] * n
    origin: list[Optional[tuple[float, float, float]]] = [None] * n
    nodes = 0

    def choose_orientation(t: int) -> bool:
        if t == n:
            return place(0)
        i = order[t]
        for e in options[i]:
            # every pair of cartons must admit some separating axis
            ok = True
            for s in range(t):
                k = order[s]
                ek = ext[k]
                if not any(e[a] + ek[a] <= box[a] + eps for a in range(3)):
                    ok = False
                    break
            if not ok:
                continue
            ext[i] = e
            if choose_orientation(t + 1):
                return True
            ext[i] = None
        return False

    def candidate_coords(i: int, axis: int) -> list[float]:
        if axis == 2 and br[i]:
            return [0.0]
        limit = box[axis] - ext[i][axis] + eps
        sums = {0.0}
        for k in range(n):
            if k == i:
                continue
            v = ext[k][axis]
            sums |= {s + v for s in sums if s + v <= limit}
        return sorted(sums)

    def place(t: int) -> bool:
        nonlocal nodes
        if t == n:
            return True
        i = order[t]
        ei = ext[i]
        placed = [order[s] for s in range(t)]
        for x in candidate_coords(i, 0):
            for y in candidate_coords(i, 1):
                for z in candidate_coords(i, 2):
                    nodes += 1
                    o = (x, y, z)
                    if all(_disjoint(o, ei, origin[k], ext[k], eps) for k in placed):
                        origin[i] = o
                        if place(t + 1):
                            return True
                        origin[i] = None
        return False

    if choose_orientation(0):
        witness = tuple(
            Placement(i, ext[i], origin[i]) for i in range(n)  # type: ignore[arg-type]
        )
        return FitVerdict(Outcome.FIT, witness=witness, nodes=nodes, wall_time=perf_counter() - t0)
    return FitVerdict(Outcome.NO_FIT, nodes=nodes, wall_time=perf_counter() - t0)


def _disjoint(o1, e1, o2, e2, eps: float) -> bool:
    for a in range(3):
        if o1[a] + e1[a] <= o2[a] + eps or o2[a] + e2[a] <= o1[a] + eps:
            return True
    return False
