"""Branch-and-bound feasibility solver for the n-carton fitting problem.

The underlying integer model has, per carton, orientation binaries (which dim
lies along which axis) and continuous lower-left-bottom coordinates, and per
carton pair a disjunction of six separation relations ("i left of k", ...).
This solver branches directly on those decisions and replaces LP relaxation
with interval propagation: each carton keeps a per-axis interval [lo, hi] of
feasible start coordinates, and every chosen relation "x_v >= x_u + w" tightens
the intervals via fixpoint relaxation. A full, consistent assignment yields a
packing witness at x = lo.

Two optional symmetry-breaking families prune mirrored/permuted duplicates
without affecting feasibility:
  - identical cartons (same dims multiset and same constraint flags) are
    grouped consecutively and forced into nondecreasing x order;
  - the anchor carton (smallest volume, first of its identical group) is
    confined to the lower-left halves of the box's two horizontal axes.
    The vertical axis is left whole: floor constraints break the
    reflection argument there.

One root reduction drops orientations before the search
(``_drop_dominated_orientations``; the kind used by Fekete, Schepers & van
der Veen, *Oper. Res.* 55, 2007). When, for every other carton k, the
smallest extents of carton i and k along axis a sum to more than the box
along a, i is never separated from any carton along a. Then each orientation
of i whose extents on the two other axes are both at least those of another
of its orientations is dropped. It is sound: in any packing i is separated
from every other carton along one of the two other axes, so the dominating
orientation at the same origin on those axes overlaps nothing, and sliding
i along a back into the box keeps it so. Only allowed orientations are
used, and a bottom-resting carton keeps its z origin. Identical cartons lose
the same orientations, so both symmetry families still hold. Two 10x6x5
and four 6x6x4 cartons in 17x12x6, where no two cartons stack, take 1,959
nodes to refute instead of 190,101.

Two root screens work from each carton's smallest extent per axis over
its allowed orientations. Two cartons can share the box only if, along
some axis a, their smallest extents sum to at most ``box[a] + eps``
(``_pair_screen_refutes``). That is exactly "some pair of their
orientations has a separating axis": rounded addition is monotone, so the
sum of the two minima is the least sum of any pair. The reduction's "meets
every other carton along a" compares a carton's smallest extent with the
least of the others', which each axis's two smallest values give for all
cartons at once (``_meeting_axes``), by the same monotonicity. With one
carton there is no other, so every axis qualifies.

During the search an orientation e of carton i is tried only if, with each
carton k already oriented (extents ``ext[k]``), ``e[a] + ext[k][a] <=
box[a] + eps`` on some axis a. The check is made when the branch is taken;
addition commutes, so carton order does not change its floats.

Intervals are stored per axis (``lo[a][i]``), so a branch copies three lists.
Each node scans the undecided oriented pairs in a fixed order. An entailed
pair is decided without an edge and the scan carries on, because no interval
changed; a pair with exactly one feasible relation gets that edge and the
scan restarts; otherwise the first pair with the fewest feasible relations
becomes the branch pair, and only its relations are sorted, best slack first.
"""
from __future__ import annotations

import math
from time import perf_counter
from typing import Optional

from boxsuite.fitting.types import (
    FitProblem,
    FitVerdict,
    Outcome,
    Placement,
    SolverConfig,
    carton_key,
    orientation_extents,
)

__all__ = ["solve_fit"]

_REL_CAP_SLACK = 1e-15


class _TimeUp(Exception):
    pass


def solve_fit(problem: FitProblem, cfg: Optional[SolverConfig] = None) -> FitVerdict:
    if cfg is None:
        cfg = SolverConfig()
    search = _Search(problem, cfg)
    return search.run()


def _smallest_extents(options: list) -> list:
    """Each carton's smallest extent along each axis over its orientations."""
    return [tuple(map(min, zip(*opts))) for opts in options]


def _pair_screen_refutes(min_ext: list, bounds: tuple) -> bool:
    """True when two cartons have no separating axis under any of their
    orientations: along every axis a their smallest extents sum to more
    than ``bounds[a]`` (the box plus eps)."""
    bx, by, bz = bounds
    for i, (xi, yi, zi) in enumerate(min_ext):
        for xk, yk, zk in min_ext[i + 1:]:
            if xi + xk > bx and yi + yk > by and zi + zk > bz:
                return True
    return False


def _meeting_axes(low: list, bounds: tuple) -> list:
    """For each carton, the axes a along which it meets every other carton:
    its smallest extent ``low[i][a]`` plus every other carton's is more than
    ``bounds[a]``.

    The smallest other extent is the axis's least one, or its second least
    for a carton that holds the least. With one carton there is no other,
    so every axis qualifies.
    """
    n = len(low)
    axes: list = [[] for _ in range(n)]
    for a in range(3):
        col = sorted(e[a] for e in low)
        least, second = col[0], (col[1] if n > 1 else math.inf)
        bound = bounds[a]
        for i in range(n):
            x = low[i][a]
            if x + (second if x == least else least) > bound:
                axes[i].append(a)
    return axes


def _drop_dominated_orientations(options: list, box: tuple, eps: float) -> list:
    """Each carton's orientations, less those another of its orientations
    dominates across an axis along which it meets every other carton.

    Carton i meets every other carton along axis a when, for each k, the
    smallest extents of i and k along a sum to more than ``box[a] + eps``
    (``_meeting_axes``). Then orientation e of i is dropped when another
    orientation f has f[b] <= e[b] and f[c] <= e[c] on the two other axes
    b and c.
    """
    meeting = _meeting_axes(_smallest_extents(options), tuple(v + eps for v in box))
    reduced = []
    for opts, axes in zip(options, meeting):
        for a in axes:
            b, c = (a + 1) % 3, (a + 2) % 3
            opts = [e for e in opts
                    if not any(f != e and f[b] <= e[b] and f[c] <= e[c] for f in opts)]
        reduced.append(opts)
    return reduced


class _Search:
    def __init__(self, problem: FitProblem, cfg: SolverConfig):
        self.problem = problem
        self.cfg = cfg
        self.box = problem.box.as_tuple()
        self.eps = problem.eps
        self.t0 = perf_counter()
        self.deadline = self.t0 + cfg.time_limit
        self.nodes = 0

    def _verdict(self, outcome: Outcome, witness=None) -> FitVerdict:
        return FitVerdict(outcome, witness=witness, nodes=self.nodes,
                          wall_time=perf_counter() - self.t0)

    # -- root construction ---------------------------------------------------

    def run(self) -> FitVerdict:
        prob, box, eps = self.problem, self.box, self.eps
        n = prob.n

        # Group identical cartons consecutively (stable within each group).
        key_of = [carton_key(c) for c in prob.cartons]
        first_seen: dict = {}
        for key in key_of:
            first_seen.setdefault(key, len(first_seen))
        self.work2orig = sorted(range(n), key=lambda i: (first_seen[key_of[i]], i))
        cartons = [prob.cartons[i] for i in self.work2orig]
        keys = [key_of[i] for i in self.work2orig]

        self.bounds = bounds = tuple(v + eps for v in box)
        bx, by, bz = bounds
        # A carton's orientations depend on its key alone, so identical
        # cartons share one list.
        fitting: dict = {}
        for c, key in zip(cartons, keys):
            if key not in fitting:
                fitting[key] = [e for e in orientation_extents(c)
                                if e[0] <= bx and e[1] <= by and e[2] <= bz]
        options = [fitting[key] for key in keys]
        if not all(options):
            return self._verdict(Outcome.NO_FIT)
        self.options = options = _drop_dominated_orientations(options, box, eps)

        box_volume = box[0] * box[1] * box[2]
        if sum(c.dims.volume for c in cartons) > box_volume + eps:
            return self._verdict(Outcome.NO_FIT)

        # A pair with no separating axis under any orientation combination
        # cannot coexist in the box.
        min_ext = _smallest_extents(options)
        if _pair_screen_refutes(min_ext, bounds):
            return self._verdict(Outcome.NO_FIT)

        lo = [[0.0] * n for _ in range(3)]
        hi = [[box[a] - min_ext[i][a] for i in range(n)] for a in range(3)]

        for i, c in enumerate(cartons):
            if c.bottom_resting:
                hi[2][i] = min(hi[2][i], 0.0)

        # Anchor: smallest volume, ties to the lowest index; groups are
        # consecutive so this is the first member of its identical group.
        if self.cfg.use_orthant_symmetry:
            beta = min(range(n), key=lambda i: (cartons[i].dims.volume, i))
            beta = next(w for w in range(n) if keys[w] == keys[beta])
            for a in (0, 1):
                hi[a][beta] = min(hi[a][beta], box[a] / 2.0)

        # Persistent zero-weight edges x_m <= x_{m+1} between consecutive
        # identical cartons.
        self.edges = ([], [], [])  # per axis, (u, v, w) meaning x_v >= x_u + w
        ident_pairs = set()
        if self.cfg.use_identical_symmetry:
            for i in range(n - 1):
                if keys[i] == keys[i + 1]:
                    self.edges[0].append((i, i + 1, 0.0))
                    ident_pairs.add((i, i + 1))

        self.n = n
        self.ext: list[Optional[tuple]] = [None] * n  # None until oriented
        self.pairs = [(i, k) for i in range(n) for k in range(i + 1, n)]
        # "k before i along x" contradicts the identical-order edge.
        self.x_ordered = [pair in ident_pairs for pair in self.pairs]
        self.decided = [False] * len(self.pairs)
        self.solution = None

        # Fix all single-option orientations up front.
        for i in range(n):
            if len(options[i]) == 1 and self._apply_orientation(i, 0, lo, hi) is None:
                return self._verdict(Outcome.NO_FIT)
        for a in range(3):
            if not self._propagate(self.edges[a], lo[a], hi[a]):
                return self._verdict(Outcome.NO_FIT)

        try:
            found = self._dfs(lo, hi)
        except _TimeUp:
            return self._verdict(Outcome.TIMED_OUT)
        if not found:
            return self._verdict(Outcome.NO_FIT)
        flo, fext = self.solution
        witness = tuple(
            Placement(self.work2orig[w], fext[w], (flo[0][w], flo[1][w], flo[2][w]))
            for w in range(n)
        )
        witness = tuple(sorted(witness, key=lambda pl: pl.carton))
        return self._verdict(Outcome.FIT, witness=witness)

    # -- propagation ---------------------------------------------------------

    def _propagate(self, edges, lo, hi) -> bool:
        """Relax one axis's edges over its ``lo``/``hi`` lists to fixpoint.
        False iff infeasible.

        Without positive cycles a fixpoint is reached within n full passes
        (longest paths visit each node once); still changing after that means
        a positive cycle, i.e. contradictory orderings.
        """
        if not edges:
            return True
        eps = self.eps
        for _ in range(self.n + 2):
            changed = False
            for u, v, w in edges:
                nl = lo[u] + w
                if nl > lo[v] + _REL_CAP_SLACK:
                    if nl > hi[v] + eps:
                        return False
                    lo[v] = nl
                    changed = True
                nh = hi[v] - w
                if nh < hi[u] - _REL_CAP_SLACK:
                    if nh < lo[u] - eps:
                        return False
                    hi[u] = nh
                    changed = True
            if not changed:
                return True
        return False

    def _apply_orientation(self, i: int, opt_idx: int, lo, hi) -> Optional[list]:
        """Orient carton i: the axes whose interval it shrank, or None when
        one of them empties."""
        e = self.options[i][opt_idx]
        self.ext[i] = e
        shrunk = []
        for a in range(3):
            bound = self.box[a] - e[a]
            if bound < hi[a][i]:
                hi[a][i] = bound
                if bound < lo[a][i] - self.eps:
                    return None
                shrunk.append(a)
        return shrunk

    def _relations(self, p: int, lo, hi) -> list:
        """Feasible separation relations (u, v, axis, w) of oriented pair p,
        best slack first, ties in (axis, direction) order."""
        i, k = self.pairs[p]
        eps = self.eps
        out = []
        for axis in range(3):
            for u, v in ((i, k), (k, i)):
                if u == k and axis == 0 and self.x_ordered[p]:
                    continue
                w = self.ext[u][axis]
                slack = hi[axis][v] - (lo[axis][u] + w)
                if slack >= -eps:
                    out.append((-slack, len(out), (u, v, axis, w)))
        out.sort()
        return [c for _, _, c in out]

    def _undo(self, trail) -> None:
        for p, axis in reversed(trail):
            self.decided[p] = False
            if axis >= 0:
                self.edges[axis].pop()

    # -- search --------------------------------------------------------------

    def _dfs(self, lo, hi) -> bool:
        if perf_counter() > self.deadline:
            raise _TimeUp
        ext, decided, pairs, x_ordered = self.ext, self.decided, self.pairs, self.x_ordered
        edges = self.edges
        eps = self.eps
        neg_eps = -eps
        trail = []  # locally decided pairs: (pair index, edge axis or -1)

        # Forced moves: decide every pair that is entailed or has exactly one
        # feasible relation left, until stable. A relation (u, v, axis) is
        # entailed when hi[u] + w <= lo[v] + eps, feasible when its slack
        # hi[v] - (lo[u] + w) is at least -eps.
        n_pairs = len(pairs)
        branch, branch_count = -1, 0
        p = 0
        while p < n_pairs:
            if decided[p]:
                p += 1
                continue
            i, k = pairs[p]
            ei = ext[i]
            ek = ext[k]
            if ei is None or ek is None:
                p += 1
                continue
            count = 0
            for a in range(3):
                la = lo[a]
                ha = hi[a]
                lo_i = la[i]
                lo_k = la[k]
                hi_i = ha[i]
                hi_k = ha[k]
                w = ei[a]
                if hi_i + w <= lo_k + eps:
                    break
                if hi_k - (lo_i + w) >= neg_eps:
                    count += 1
                    only = (i, k, a, w)
                if a or not x_ordered[p]:
                    w = ek[a]
                    if hi_k + w <= lo_i + eps:
                        break
                    if hi_i - (lo_k + w) >= neg_eps:
                        count += 1
                        only = (k, i, a, w)
            else:
                if count == 0:
                    self._undo(trail)
                    return False
                if count > 1:
                    if branch < 0 or count < branch_count:
                        branch, branch_count = p, count
                    p += 1
                    continue
                u, v, a, w = only
                decided[p] = True
                edges[a].append((u, v, w))
                trail.append((p, a))
                self.nodes += 1
                la = lo[a]
                nl = la[u] + w
                if nl > la[v]:
                    la[v] = nl
                if not self._propagate(edges[a], la, hi[a]):
                    self._undo(trail)
                    return False
                branch, p = -1, 0
                continue
            # Entailed: no interval changed, so the pairs already scanned
            # would answer the same; carry on from the next one.
            decided[p] = True
            trail.append((p, -1))
            self.nodes += 1
            p += 1

        undecided_orient = [i for i in range(self.n) if ext[i] is None]
        if branch < 0 and not undecided_orient:
            self.solution = ([lo[0][:], lo[1][:], lo[2][:]], list(ext))
            return True

        # Branch on the smallest decision: an orientation choice or a pair
        # relation, whichever has fewer alternatives (pairs win ties).
        options = self.options
        best_orient = None
        if undecided_orient:
            best_orient = min(undecided_orient, key=lambda i: (len(options[i]), i))
        if branch >= 0 and (best_orient is None
                            or branch_count <= len(options[best_orient])):
            for u, v, a, w in self._relations(branch, lo, hi):
                self.nodes += 1
                nlo = [lo[0][:], lo[1][:], lo[2][:]]
                nhi = [hi[0][:], hi[1][:], hi[2][:]]
                la = nlo[a]
                nl = la[u] + w
                if nl > la[v]:
                    la[v] = nl
                decided[branch] = True
                edges[a].append((u, v, w))
                if self._propagate(edges[a], la, nhi[a]) and self._dfs(nlo, nhi):
                    return True
                edges[a].pop()
                decided[branch] = False
            self._undo(trail)
            return False

        # An orientation is tried only when it has a separating axis with
        # every carton already oriented.
        i = best_orient
        bx, by, bz = self.bounds
        for opt_idx, (xi, yi, zi) in enumerate(options[i]):
            for ek in ext:
                if ek is not None and xi + ek[0] > bx and yi + ek[1] > by and zi + ek[2] > bz:
                    break
            else:
                self.nodes += 1
                nlo = [lo[0][:], lo[1][:], lo[2][:]]
                nhi = [hi[0][:], hi[1][:], hi[2][:]]
                # Every axis is at its fixpoint on entry, so only the axes the
                # orientation shrank can change.
                shrunk = self._apply_orientation(i, opt_idx, nlo, nhi)
                if shrunk is not None and all(
                        self._propagate(edges[a], nlo[a], nhi[a]) for a in shrunk):
                    if self._dfs(nlo, nhi):
                        return True
                ext[i] = None
        self._undo(trail)
        return False
