"""Multistart randomized greedy with path-relinking against an elite pool."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from boxsuite.model import DataError
from boxsuite.pmedian import kernels
from boxsuite.pmedian.instance import PMedianInstance, SolveResult, Suite, suite_cost
from boxsuite.pmedian.interchange import local_search_interchange

__all__ = ["GraspParams", "greedy_construct", "path_relink", "solve_grasp"]


_RCL_ALPHA = 0.2  # restricted candidate list width of every randomized construction


@dataclass(frozen=True)
class GraspParams:
    iterations: int = 32
    elite_size: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1 or self.elite_size < 1:
            raise DataError("iterations and elite_size must be >= 1")


def greedy_construct(inst: PMedianInstance, rng: np.random.Generator,
                     alpha: float) -> Suite:
    """Add one facility at a time minimizing total assignment cost.

    Each step restricts the candidate list to facilities within alpha of the
    best marginal total; alpha = 0 is the deterministic pure greedy (lowest
    index on ties).
    """
    members: list[int] = []
    d1 = np.full(inst.n, np.inf)
    for _ in range(inst.p):
        totals = kernels.greedy_augment_costs(inst.d, d1, inst.w)
        totals[members] = np.inf
        finite = np.isfinite(totals)
        best = totals[finite].min()
        worst = totals[finite].max()
        cut = best + alpha * (worst - best)
        rcl = np.flatnonzero(totals <= cut + 1e-12 * (1.0 + abs(cut)))
        pick = int(rcl[0]) if alpha == 0.0 else int(rng.choice(rcl))
        members.append(pick)
        d1 = np.minimum(d1, inst.d[:, pick])
    return Suite(members)


def path_relink(inst: PMedianInstance, source: Suite, guide: Suite) -> Suite:
    """Walk from source to guide one swap at a time, keeping the best stop.

    Each step inserts one guide-only facility and removes one source-only
    facility, choosing the cheapest such pair; the best suite anywhere on the
    walked path (endpoints included) is polished with the interchange search.
    """
    if set(source.members) == set(guide.members):
        return source
    current = list(source.members)
    best_cost = suite_cost(inst, source)
    best_members = tuple(source.members)
    guide_set = set(guide.members)
    while True:
        to_add = sorted(guide_set - set(current))
        to_drop = sorted(set(current) - guide_set)
        if not to_add:
            break
        step_best = None
        for b in to_add:
            for a in to_drop:
                trial = [x for x in current if x != a] + [b]
                cost = suite_cost(inst, Suite(trial))
                if step_best is None or cost < step_best[0] - 1e-12:
                    step_best = (cost, b, a)
        cost, b, a = step_best
        current = sorted([x for x in current if x != a] + [b])
        if cost < best_cost - 1e-12:
            best_cost, best_members = cost, tuple(current)
    return local_search_interchange(inst, Suite(best_members)).suite


class _ElitePool:
    """Best distinct suites seen so far, capped at a fixed size."""

    def __init__(self, size: int):
        self.size = size
        self.entries: list[tuple[float, tuple[int, ...]]] = []

    def add(self, cost: float, suite: Suite) -> None:
        members = tuple(suite.members)
        for _, existing in self.entries:
            if existing == members:
                return
        if len(self.entries) < self.size:
            self.entries.append((cost, members))
            return
        worst = max(range(len(self.entries)), key=lambda k: (self.entries[k][0], k))
        if cost < self.entries[worst][0]:
            self.entries[worst] = (cost, members)

    def suites(self) -> list[tuple[float, tuple[int, ...]]]:
        return list(self.entries)


def solve_grasp(inst: PMedianInstance, params: GraspParams | None = None) -> SolveResult:
    """Best suite over randomized restarts, local search, and path-relinking.

    The first iteration runs the pure greedy construction, so the result never
    costs more than greedy + local search. Randomness is fully determined by
    params.seed via per-iteration spawned streams.
    """
    if params is None:
        params = GraspParams()
    streams = np.random.SeedSequence(params.seed).spawn(params.iterations)
    elite = _ElitePool(params.elite_size)
    best: SolveResult | None = None

    def consider(suite: Suite, cost: float) -> None:
        nonlocal best
        if best is None or cost < best.cost - 1e-12:
            best = SolveResult(suite=suite, cost=cost)
        elite.add(cost, suite)

    for it, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        alpha = 0.0 if it == 0 else _RCL_ALPHA
        constructed = greedy_construct(inst, rng, alpha)
        local = local_search_interchange(inst, constructed)
        consider(local.suite, local.cost)
        pool = elite.suites()
        others = [m for _, m in pool if m != tuple(local.suite.members)]
        if others:
            guide = Suite(others[int(rng.integers(len(others)))])
            relinked = path_relink(inst, local.suite, guide)
            consider(relinked, suite_cost(inst, relinked))

    for _, src in list(elite.suites()):
        for _, dst in list(elite.suites()):
            if src == dst:
                continue
            relinked = path_relink(inst, Suite(src), Suite(dst))
            consider(relinked, suite_cost(inst, relinked))
    assert best is not None
    return best
