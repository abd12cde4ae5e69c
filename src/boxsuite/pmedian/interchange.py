"""Swap local search with closest/second-closest bookkeeping."""
from __future__ import annotations

import numpy as np

from boxsuite.pmedian import kernels
from boxsuite.pmedian.instance import PMedianInstance, SolveResult, Suite

__all__ = ["closest_two", "local_search_interchange"]

_REL_EPS = 1e-9
_MAX_SWAPS = 100_000  # a safety net: each swap lowers the cost, so the search ends


def closest_two(inst: PMedianInstance, suite: Suite):
    """(d1, d2, c1): best and second-best open costs and the best facility.

    Ties go to the lowest facility index; with p = 1 the second-best is
    infinite (removing the only facility is never evaluated on its own).
    """
    members = np.asarray(suite.members, dtype=np.int64)
    sub = inst.d[:, members]
    if len(members) == 1:
        d1 = sub[:, 0].copy()
        d2 = np.full(inst.n, np.inf)
        c1 = np.full(inst.n, members[0], dtype=np.int64)
        return d1, d2, c1
    order = np.argsort(sub, axis=1, kind="stable")
    rows = np.arange(inst.n)
    d1 = sub[rows, order[:, 0]]
    d2 = sub[rows, order[:, 1]]
    c1 = members[order[:, 0]]
    return d1, d2, c1


def local_search_interchange(inst: PMedianInstance, start: Suite) -> SolveResult:
    """Apply the best single exchange until none lowers the total cost."""
    suite = inst.suite(start.members)
    members = list(suite.members)
    mask = np.zeros(inst.m, dtype=np.bool_)
    mask[members] = True
    for _ in range(_MAX_SWAPS):
        suite = Suite(members)
        d1, d2, c1 = closest_two(inst, suite)
        total = float((d1 * inst.w).sum())
        threshold = _REL_EPS * (1.0 + abs(total))
        delta, b, a = kernels.best_swap(
            inst.d, mask, np.asarray(members, dtype=np.int64), c1, d1, d2, inst.w)
        if b < 0 or delta >= -threshold:
            return SolveResult(suite=suite, cost=total)
        mask[a] = False
        mask[b] = True
        members.remove(a)
        members.append(b)
        members.sort()
    raise AssertionError("interchange failed to converge")  # pragma: no cover
