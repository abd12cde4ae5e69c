"""Subgradient optimization of the Lagrangian dual for lower bounds."""
from __future__ import annotations

import numpy as np

from boxsuite.pmedian import kernels
from boxsuite.pmedian.instance import PMedianInstance, SolveResult, Suite, suite_cost
from boxsuite.pmedian.interchange import local_search_interchange

__all__ = ["dual_value", "solve_lagrangian"]


_MAX_ITERS = 1000  # subgradient iterations at most
_THETA0 = 2.0  # the first step-size factor
_HALVING_PATIENCE = 30  # iterations without a better bound before the factor halves
_TARGET_GAP = 1e-4  # relative gap at which the ascent stops


def dual_value(inst: PMedianInstance, lam: np.ndarray) -> tuple[float, np.ndarray]:
    """Dual objective at multipliers lam and the open-facility index set.

    Relaxing the one-facility-per-row constraints leaves a separable problem:
    each facility contributes rho_j = sum_i w_i min(0, d_ij - lam_i) if opened,
    so the p cheapest contributions are opened (stable order on ties). Row i
    stands for w_i identical customers sharing the multiplier lam_i.
    """
    rho = kernels.rho(inst.d, inst.sorted_rows, lam, inst.w)
    open_idx = np.argsort(rho, kind="stable")[: inst.p]
    value = float(rho[open_idx].sum() + (lam * inst.w).sum())
    return value, open_idx


def solve_lagrangian(inst: PMedianInstance) -> SolveResult:
    """Lower and upper bounds via subgradient ascent on the dual.

    Each iteration opens the p facilities with the most negative reduced
    contribution, derives an upper bound by assigning every row to its
    cheapest open facility (polished with interchange when it improves), and
    steps the multipliers along the subgradient. The returned result carries
    the best primal suite, the best dual bound, and the relative gap.
    """
    lam = np.zeros(inst.n)
    theta = _THETA0
    best_lb = -np.inf
    best_ub = np.inf
    best_suite: Suite | None = None
    stall = 0
    trace: list[tuple[float, float]] = []

    for _ in range(_MAX_ITERS):
        value, open_idx = dual_value(inst, lam)
        if value > best_lb + 1e-12:
            best_lb = value
            stall = 0
        else:
            stall += 1
            if stall >= _HALVING_PATIENCE:
                theta *= 0.5
                stall = 0

        suite = Suite(open_idx.tolist())
        ub = suite_cost(inst, suite)
        if ub < best_ub - 1e-12:
            polished = local_search_interchange(inst, suite)
            best_ub = polished.cost
            best_suite = polished.suite
        trace.append((best_lb, best_ub))

        # g_i = 1 - (number of open facilities priced below lam_i); those are
        # exactly the columns whose min(0, d_ij - lam_i) term went negative.
        sub = inst.d[:, open_idx]
        g = 1.0 - (sub < lam[:, None]).sum(axis=1)
        # Each of row i's w_i customers has subgradient entry g_i, so the norm
        # counts g_i^2 w_i times: the step is the repeated-row instance's step.
        norm_sq = float((g * inst.w) @ g)
        if norm_sq == 0.0:
            # The relaxed solution satisfies every row constraint, so the dual
            # value is also the cost of a primal solution: no gap remains.
            if value > best_ub + 1e-12:  # pragma: no cover - defensive
                raise AssertionError("dual exceeded primal with zero subgradient")
            best_lb = max(best_lb, value)
            if value < best_ub - 1e-12:
                polished = local_search_interchange(inst, suite)
                if polished.cost < best_ub:
                    best_ub = polished.cost
                    best_suite = polished.suite
            best_ub = min(best_ub, ub)
            if best_suite is None or ub <= suite_cost(inst, best_suite):
                best_suite = suite
            trace[-1] = (best_lb, best_ub)
            break

        denom = max(abs(best_ub), 1.0)
        if best_ub - best_lb <= _TARGET_GAP * denom:
            break

        step = theta * (best_ub - value) / norm_sq
        lam = np.maximum(0.0, lam + step * g)

    assert best_suite is not None
    lb = min(best_lb, best_ub)
    gap = max(0.0, (best_ub - lb) / max(abs(best_ub), 1.0))
    return SolveResult(suite=best_suite, cost=best_ub, lower_bound=lb,
                       gap=gap, bound_trace=tuple(trace))
