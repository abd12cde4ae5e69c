"""Core p-median types, exact enumeration, assignment extraction."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from boxsuite.model import DataError
from boxsuite.pmedian import kernels

__all__ = [
    "PMedianInstance",
    "Suite",
    "collapse_rows",
    "drop_dominated_columns",
    "SolveResult",
    "suite_cost",
    "extract_assignment",
    "check_feasible",
    "solve_exact",
]


@dataclass(frozen=True)
class Suite:
    """A set of exactly p open facilities, stored sorted for determinism."""

    members: tuple[int, ...]

    def __init__(self, members):
        object.__setattr__(self, "members", tuple(sorted(members)))
        if len(set(self.members)) != len(self.members):
            raise DataError("suite members must be distinct")

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, j: int) -> bool:
        return j in set(self.members)

    def __iter__(self):
        return iter(self.members)


class PMedianInstance:
    """n customers, m facilities, open p, nonnegative cost matrix d.

    Customer i carries weight w[i] (default 1): it counts as w[i] customers
    with identical costs in every total over customers.
    """

    def __init__(self, d: np.ndarray, p: int, w: Optional[np.ndarray] = None):
        d = np.ascontiguousarray(np.asarray(d, dtype=np.float64))
        if d.ndim != 2 or d.size == 0:
            raise DataError("cost matrix must be 2-D and nonempty")
        if not np.isfinite(d).all() or (d < 0).any():
            raise DataError("costs must be finite and nonnegative")
        self.d = d
        self.n, self.m = d.shape
        if not 1 <= p <= self.m:
            raise DataError(f"p must be in 1..{self.m}, got {p}")
        self.p = int(p)
        if w is None:
            w = np.ones(self.n)
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (self.n,):
            raise DataError(f"weights must be a vector of {self.n} entries")
        if not np.isfinite(w).all() or (w <= 0).any():
            raise DataError("weights must be finite and positive")
        self.w = w

    @cached_property
    def sorted_rows(self) -> kernels.SortedRows:
        """Cost-ordered view of d for kernels.rho, built on first use."""
        return kernels.sort_rows(self.d)

    def suite(self, members) -> Suite:
        s = Suite(members)
        if len(s) != self.p:
            raise DataError(f"suite must have exactly {self.p} members")
        if s.members and (s.members[0] < 0 or s.members[-1] >= self.m):
            raise DataError("suite member out of range")
        return s


@dataclass(frozen=True)
class SolveResult:
    suite: Suite
    cost: float
    lower_bound: Optional[float] = None
    gap: Optional[float] = None
    bound_trace: tuple = field(default=(), repr=False)

    def __post_init__(self):
        if self.lower_bound is not None and self.gap is not None:
            if self.gap < 0:
                raise DataError("gap must be nonnegative")


def collapse_rows(d: np.ndarray, p: int,
                  w: Optional[np.ndarray] = None) -> tuple[PMedianInstance, np.ndarray]:
    """Instance on the distinct rows of d, each weighted by its multiplicity,
    and the map from every row of d to its distinct row.

    Row i weighs w[i] (default 1), so a merged row carries the sum of its
    rows' weights. Distinct rows keep their first-occurrence order. Rows are
    matched by their bytes through a hash table, in O(n*m); merging identical
    customers changes no total over customers, so every solver returns the
    same suite.
    """
    d = np.ascontiguousarray(np.asarray(d, dtype=np.float64))
    first: dict[bytes, int] = {}
    keep: list[int] = []
    rows = np.empty(d.shape[0], dtype=np.int64)
    for i, row in enumerate(d):
        key = row.tobytes()
        r = first.get(key)
        if r is None:
            r = first[key] = len(keep)
            keep.append(i)
        rows[i] = r
    w = np.bincount(rows, weights=w).astype(np.float64)
    distinct = d if len(keep) == len(d) else d[keep]  # no copy without duplicates
    return PMedianInstance(distinct, p, w), rows


# The column dominance test takes candidate columns 32 at a time, compares
# every pair on the first rows at once (most pairs fail there) and the pairs
# left a chunk of rows at a time, with about 2^17 entries per temporary.
_COLUMN_BLOCK = 32
_HEAD_ROWS = 32
_DOMINANCE_BLOCK = 1 << 17


def drop_dominated_columns(inst: PMedianInstance) -> tuple[PMedianInstance, np.ndarray]:
    """Instance on the columns no other column dominates, and their indices.

    Column k dominates column j when d[i, k] <= d[i, j] in every row, so
    swapping j for k never raises the cost of a suite: the optimum over the
    kept columns is the optimum of inst, and a kept-column suite costs the
    same in both instances. Among equal columns the lowest index is kept.

    Columns are visited in ascending (column sum, index) order, so a column
    comes after every column that dominates it, and each is compared only
    with the columns kept before it; a column dominated only by a higher
    index whose sum rounds to the same value is kept, which is still exact.
    The rows of the kept columns are collapsed again, merged rows adding
    their weights, and p is capped at the kept count.
    """
    d = inst.d
    order = np.lexsort((np.arange(inst.m), d.sum(axis=0)))
    kept = np.empty(0, dtype=np.int64)
    for start in range(0, inst.m, _COLUMN_BLOCK):
        cand = order[start:start + _COLUMN_BLOCK]
        cand = cand[~_dominates(d, kept, cand).any(axis=0)]
        # a candidate also falls to an earlier candidate of its own block
        later = np.triu(_dominates(d, cand, cand), k=1)
        kept = np.concatenate((kept, cand[~later.any(axis=0)]))
    kept.sort()
    reduced, _ = collapse_rows(d[:, kept], min(inst.p, len(kept)), inst.w)
    return reduced, kept


def _dominates(d: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[x, y]: column a[x] of d is <= column b[y] in every row.

    The first rows are compared for every pair at once, the rest a chunk at
    a time for the pairs no earlier row refuted.
    """
    head = max(1, min(_HEAD_ROWS, _DOMINANCE_BLOCK // max(1, len(a) * len(b))))
    da, db = d[:head, a], d[:head, b]
    x, y = np.nonzero((da[:, :, None] <= db[:, None, :]).all(axis=0))
    r = head
    while r < d.shape[0] and x.size:
        rows = d[r:r + max(1, _DOMINANCE_BLOCK // x.size)]
        held = (rows[:, a[x]] <= rows[:, b[y]]).all(axis=0)
        x, y = x[held], y[held]
        r += len(rows)
    out = np.zeros((len(a), len(b)), dtype=bool)
    out[x, y] = True
    return out


def suite_cost(inst: PMedianInstance, suite: Suite) -> float:
    return float((inst.d[:, suite.members].min(axis=1) * inst.w).sum())


def extract_assignment(inst: PMedianInstance, suite: Suite) -> np.ndarray:
    """Per-customer chosen facility, ties to the lowest facility index."""
    sub = inst.d[:, suite.members]
    pos = sub.argmin(axis=1)  # first occurrence = lowest index (members sorted)
    return np.asarray(suite.members, dtype=np.int64)[pos]


def check_feasible(result: SolveResult, gamma: float) -> Optional[Suite]:
    """The suite, or None when the objective proves a coverage/lock failure.

    Any suite that covers every real row below the penalty and contains all
    locked boxes costs at most the sum of row maxima, which is gamma - 1; a
    single penalty assignment already costs gamma. Splitting at gamma - 0.5
    therefore separates the two cases with a full unit of slack.
    """
    if result.cost > gamma - 0.5:
        return None
    return result.suite


_EXACT_MAX_M = 25  # most facilities solve_exact enumerates over
_EXACT_MAX_SUBSETS = 200_000  # most p-subsets solve_exact enumerates


def solve_exact(inst: PMedianInstance) -> SolveResult:
    """Globally optimal suite by subset enumeration; first optimum in
    lexicographic order wins ties."""
    n_subsets = math.comb(inst.m, inst.p)
    if inst.m > _EXACT_MAX_M or n_subsets > _EXACT_MAX_SUBSETS:
        raise DataError(
            f"exact enumeration over {n_subsets} subsets (m={inst.m}) exceeds the "
            f"budget; use the interchange, GRASP, or Lagrangian solvers instead")
    d, w = inst.d, inst.w
    best_cost = math.inf
    best: Optional[tuple[int, ...]] = None
    for S in itertools.combinations(range(inst.m), inst.p):
        total = float((d[:, S].min(axis=1) * w).sum())
        if total < best_cost - 1e-12:
            best_cost, best = total, S
    assert best is not None
    return SolveResult(suite=Suite(best), cost=best_cost,
                       lower_bound=best_cost, gap=0.0)
