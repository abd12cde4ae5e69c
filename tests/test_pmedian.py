"""Exact, interchange, GRASP, and Lagrangian solvers on cost matrices."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxsuite.model import DataError
from boxsuite.pmedian import (
    GraspParams,
    LagrangianParams,
    PMedianInstance,
    Suite,
    check_feasible,
    closest_two,
    collapse_rows,
    drop_dominated_columns,
    dual_value,
    extract_assignment,
    greedy_construct,
    local_search_interchange,
    path_relink,
    solve_exact,
    solve_grasp,
    solve_lagrangian,
    suite_cost,
)
from boxsuite.pmedian import kernels
from boxsuite.pmedian.instance import SolveResult

# Worked three-row example: facility 0 serves rows 0 and 2 cheaply.
D_SMALL = np.array([[1.0, 9.0], [9.0, 1.0], [2.0, 5.0]])


def brute_force_best(inst):
    best = None
    for subset in itertools.combinations(range(inst.m), inst.p):
        c = suite_cost(inst, Suite(subset))
        if best is None or c < best[0] - 1e-12:
            best = (c, subset)
    return best


class TestSuiteType:
    def test_members_sorted_and_distinct(self):
        s = Suite([4, 1, 2])
        assert s.members == (1, 2, 4)
        assert len(s) == 3
        assert 2 in s and 3 not in s

    def test_duplicate_members_rejected(self):
        with pytest.raises(DataError):
            Suite([1, 1, 2])


class TestExact:
    def test_single_facility_example(self):
        res = solve_exact(PMedianInstance(D_SMALL, p=1))
        assert res.suite.members == (0,)
        assert res.cost == 12.0
        assert res.lower_bound == 12.0
        assert res.gap == 0.0

    def test_two_facilities_example(self):
        res = solve_exact(PMedianInstance(D_SMALL, p=2))
        assert res.suite.members == (0, 1)
        assert res.cost == 4.0

    def test_p_equals_m_sums_row_minima(self):
        rng = np.random.default_rng(1)
        d = rng.uniform(0.0, 50.0, size=(20, 6))
        res = solve_exact(PMedianInstance(d, p=6))
        assert res.cost == pytest.approx(d.min(axis=1).sum())

    def test_matches_independent_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(4, 25))
            m = int(rng.integers(3, 9))
            p = int(rng.integers(1, m + 1))
            inst = PMedianInstance(rng.uniform(1.0, 100.0, size=(n, m)), p=p)
            res = solve_exact(inst)
            cost, subset = brute_force_best(inst)
            assert res.cost == pytest.approx(cost)
            assert res.suite.members == subset

    def test_refuses_oversized_enumeration(self):
        d = np.ones((3, 30))
        with pytest.raises(DataError):
            solve_exact(PMedianInstance(d, p=15))


class TestAssignmentAndFeasibility:
    def test_row_tied_between_facilities_goes_to_lowest(self):
        d = np.array([[8.0, 8.0, 99.0], [1.0, 5.0, 99.0], [7.0, 2.0, 99.0]])
        inst = PMedianInstance(d, p=2)
        assign = extract_assignment(inst, Suite([0, 1]))
        assert assign.tolist() == [0, 0, 1]

    def test_feasibility_split_half_unit_below_penalty(self):
        gamma = 36.0
        covered = SolveResult(suite=Suite([0]), cost=gamma - 1.0)
        stranded = SolveResult(suite=Suite([0]), cost=gamma)
        assert check_feasible(covered, gamma) is covered.suite
        assert check_feasible(stranded, gamma) is None
        # anything above the split line counts as a penalty assignment
        assert check_feasible(SolveResult(suite=Suite([0]), cost=gamma - 0.4),
                              gamma) is None


class TestInterchange:
    def test_walks_from_bad_start_to_optimum(self):
        inst = PMedianInstance(D_SMALL, p=1)
        res = local_search_interchange(inst, Suite([1]))
        assert res.suite.members == (0,)
        assert res.cost == 12.0

    def test_optimal_start_is_fixed_point(self):
        inst = PMedianInstance(D_SMALL, p=1)
        res = local_search_interchange(inst, Suite([0]))
        assert res.suite.members == (0,)
        assert res.cost == 12.0

    def test_result_is_swap_optimal(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(5, 30))
            m = int(rng.integers(3, 10))
            p = int(rng.integers(1, m))
            inst = PMedianInstance(rng.uniform(1.0, 100.0, size=(n, m)), p=p)
            start = Suite(sorted(rng.choice(m, size=p, replace=False).tolist()))
            res = local_search_interchange(inst, start)
            assert res.cost <= suite_cost(inst, start) + 1e-9
            for b in range(m):
                if b in res.suite:
                    continue
                for a in res.suite:
                    swapped = [x for x in res.suite.members if x != a] + [b]
                    assert suite_cost(inst, Suite(swapped)) >= res.cost - 1e-7

    def test_closest_two_orders_the_pair(self):
        inst = PMedianInstance(D_SMALL, p=2)
        d1, d2, c1 = closest_two(inst, Suite([0, 1]))
        assert d1.tolist() == [1.0, 1.0, 2.0]
        assert d2.tolist() == [9.0, 9.0, 5.0]
        assert c1.tolist() == [0, 1, 0]


class TestKernels:
    def _random_state(self, rng):
        n = int(rng.integers(4, 40))
        m = int(rng.integers(3, 12))
        p = int(rng.integers(1, m))
        d = rng.uniform(0.0, 50.0, size=(n, m))
        inst = PMedianInstance(d, p=p)
        members = sorted(rng.choice(m, size=p, replace=False).tolist())
        suite = Suite(members)
        d1, d2, c1 = closest_two(inst, suite)
        mask = np.zeros(m, dtype=bool)
        mask[members] = True
        idx = np.array(members, dtype=np.int64)
        return inst, suite, (d, mask, idx, c1.astype(np.int64), d1, d2)

    def test_best_swap_agrees_with_direct_reevaluation(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            inst, suite, state = self._random_state(rng)
            delta, b, a = kernels.best_swap(*state, inst.w)
            base = suite_cost(inst, suite)
            exhaustive = None
            for bb in range(inst.m):
                if bb in suite:
                    continue
                for aa in suite.members:
                    trial = [x for x in suite.members if x != aa] + [bb]
                    dlt = suite_cost(inst, Suite(trial)) - base
                    if exhaustive is None or dlt < exhaustive[0] - 1e-9:
                        exhaustive = (dlt, bb, aa)
            assert delta == pytest.approx(exhaustive[0], abs=1e-7)
            if exhaustive[0] < -1e-6:
                trial = [x for x in suite.members if x != a] + [b]
                assert suite_cost(inst, Suite(trial)) - base == pytest.approx(
                    exhaustive[0], abs=1e-7)


def dense_rho(d, lam, w):
    """rho read from every entry: the column sums of w_i * min(0, d_ij - lam_i)."""
    red = d - lam[:, None]
    return (np.where(red < 0.0, red, 0.0) * w[:, None]).sum(axis=0)


def add_at_best_swap(d, suite_mask, suite_idx, c1, d1, d2, w):
    """best_swap with the correction accumulated by np.add.at, one column at a
    time in the tie order the kernel documents."""
    p = suite_idx.shape[0]
    pos = np.full(d.shape[1], -1, dtype=np.int64)
    pos[suite_idx] = np.arange(p)
    cols = np.flatnonzero(~suite_mask)
    D = d[:, cols]
    capture = d1[:, None] - D
    gain = (np.where(capture > 0.0, capture, 0.0) * w[:, None]).sum(axis=0)
    Z = np.where(D >= d1[:, None], np.minimum(d2[:, None], D) - d1[:, None], 0.0)
    corr = np.zeros((p, cols.size))
    np.add.at(corr, pos[c1], Z * w[:, None])
    a_pos = corr.argmin(axis=0)
    best = None
    for k, b in enumerate(cols):
        dk = float(-gain[k] + corr[a_pos[k], k])
        if best is None or dk < best[0]:
            best = (dk, int(b), int(suite_idx[a_pos[k]]))
    return best if best is not None else (0.0, -1, -1)


class TestSortedPrefixKernels:
    """rho and best_swap against references that read the whole matrix.

    Both must agree bit for bit, on float costs as well as integer ones, so
    that no suite or bound depends on which reading is used.
    """

    def _matrices(self, rng):
        for _ in range(12):
            n = int(rng.integers(1, 30))
            m = int(rng.integers(2, 40))
            ints = rng.integers(0, 8, size=(n, m)).astype(np.float64)
            floats = rng.choice(rng.uniform(0.0, 50.0, size=9), size=(n, m))
            for d in (ints, floats, rng.uniform(0.0, 50.0, size=(n, m))):
                yield d, rng.choice([1.0, 3.0, 0.37], size=n)
        # sort_rows sorts 2**16 entries at a time: 70 x 1500 takes two blocks.
        yield rng.integers(0, 50, size=(70, 1500)).astype(np.float64), rng.uniform(0.5, 2.0, size=70)

    def _bits(self, x):
        assert x.dtype == np.float64
        return x.view(np.int64)

    def test_rho_matches_dense_reference_bitwise(self):
        rng = np.random.default_rng(61)
        for d, w in self._matrices(rng):
            n, m = d.shape
            view = kernels.sort_rows(d)
            on_entries = d[np.arange(n), rng.integers(0, m, size=n)]
            for lam in (on_entries,                      # on the strict < boundary
                        np.zeros(n),
                        np.full(n, d.max() + 1.0),       # every entry below
                        rng.uniform(0.0, 60.0, size=n),
                        np.where(rng.random(n) < 0.5, on_entries,
                                 np.nextafter(on_entries, np.inf))):
                assert np.array_equal(self._bits(kernels.rho(d, view, lam, w)),
                                      self._bits(dense_rho(d, lam, w)))

    def test_lagrangian_identical_with_dense_rho(self, monkeypatch):
        rng = np.random.default_rng(67)
        insts = [PMedianInstance(rng.uniform(1.0, 100.0, size=(40, 15)), p=3,
                                 w=rng.choice([1.0, 2.0, 0.5], size=40)),
                 PMedianInstance(rng.integers(0, 30, size=(60, 25)), p=4)]
        fast = [solve_lagrangian(inst) for inst in insts]
        monkeypatch.setattr(kernels, "rho",
                            lambda d, view, lam, w: dense_rho(d, lam, w))
        for inst, a in zip(insts, fast):
            b = solve_lagrangian(inst)
            assert a.bound_trace == b.bound_trace
            assert a.suite == b.suite
            assert (a.lower_bound, a.cost, a.gap) == (b.lower_bound, b.cost, b.gap)

    def test_best_swap_matches_add_at_reference(self):
        rng = np.random.default_rng(71)
        for d, w in self._matrices(rng):
            m = d.shape[1]
            p = int(rng.integers(1, m))
            for members in (rng.choice(m, size=p, replace=False).tolist(),
                            [int(d[0].argmax())]):       # p = 1
                suite = Suite(members)
                d1, d2, c1 = closest_two(PMedianInstance(d, len(suite), w), suite)
                mask = np.zeros(m, dtype=bool)
                mask[list(suite.members)] = True
                state = (d, mask, np.array(suite.members, dtype=np.int64), c1, d1, d2)
                assert kernels.best_swap(*state, w) == add_at_best_swap(*state, w)

    def test_best_swap_with_facilities_no_row_is_closest_to(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            d = rng.uniform(0.0, 10.0, size=(25, 12))
            d[:, 6:9] += 100.0  # never anyone's closest once 0..5 are open
            w = rng.choice([1.0, 2.5], size=25)
            suite = Suite([0, 3, 6, 7, 8])
            d1, d2, c1 = closest_two(PMedianInstance(d, 5, w), suite)
            assert not np.isin(c1, [6, 7, 8]).any()
            mask = np.zeros(12, dtype=bool)
            mask[list(suite.members)] = True
            state = (d, mask, np.array(suite.members, dtype=np.int64), c1, d1, d2)
            delta, b, a = kernels.best_swap(*state, w)
            assert (delta, b, a) == add_at_best_swap(*state, w)
            assert a in (6, 7, 8)  # removing an unused facility costs nothing


class TestRowWeights:
    """A row of integer weight k against the same row repeated k times.

    Costs and weights are integers, so every weighted total is exact and the
    weighted solvers must return exactly what they return on the expanded
    matrix.
    """

    def _pair(self, rng):
        n = int(rng.integers(3, 15))
        m = int(rng.integers(3, 9))
        p = int(rng.integers(1, m))
        d = rng.integers(0, 60, size=(n, m)).astype(np.float64)
        w = rng.integers(1, 5, size=n)
        return PMedianInstance(d, p, w), PMedianInstance(np.repeat(d, w, axis=0), p)

    def _swap_state(self, inst, suite):
        d1, d2, c1 = closest_two(inst, suite)
        mask = np.zeros(inst.m, dtype=bool)
        mask[list(suite.members)] = True
        return (inst.d, mask, np.array(suite.members, dtype=np.int64), c1, d1, d2)

    def test_kernels_match_expanded_matrix(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            weighted, expanded = self._pair(rng)
            w = weighted.w.astype(np.int64)
            suite = Suite(sorted(rng.choice(weighted.m, size=weighted.p,
                                            replace=False).tolist()))
            assert kernels.best_swap(
                *self._swap_state(weighted, suite), weighted.w
            ) == kernels.best_swap(*self._swap_state(expanded, suite), expanded.w)
            d1 = weighted.d[:, list(suite.members)].min(axis=1)
            for start in (np.full(weighted.n, np.inf), d1):
                assert np.array_equal(
                    kernels.greedy_augment_costs(weighted.d, start, weighted.w),
                    kernels.greedy_augment_costs(expanded.d, np.repeat(start, w),
                                                 expanded.w))
            lam = rng.integers(0, 70, size=weighted.n).astype(np.float64)
            assert np.array_equal(
                kernels.rho(weighted.d, weighted.sorted_rows, lam, weighted.w),
                kernels.rho(expanded.d, expanded.sorted_rows, np.repeat(lam, w),
                            expanded.w))

    def test_solvers_match_expanded_matrix(self):
        rng = np.random.default_rng(43)
        for t in range(15):
            weighted, expanded = self._pair(rng)
            start = Suite(range(weighted.p))
            params = GraspParams(iterations=4, elite_size=3, seed=t)
            for solve in (solve_exact,
                          lambda inst: local_search_interchange(inst, start),
                          lambda inst: solve_grasp(inst, params)):
                a, b = solve(weighted), solve(expanded)
                assert a.suite == b.suite
                assert a.cost == b.cost

    def test_lagrangian_follows_expanded_trajectory(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            weighted, expanded = self._pair(rng)
            a, b = solve_lagrangian(weighted), solve_lagrangian(expanded)
            assert len(a.bound_trace) == len(b.bound_trace)
            assert a.lower_bound == pytest.approx(b.lower_bound, rel=1e-9)

    def test_collapse_merges_identical_rows_in_first_order(self):
        d = np.array([[3.0, 1.0], [2.0, 2.0], [3.0, 1.0], [5.0, 0.0], [2.0, 2.0],
                      [3.0, 1.0]])
        inst, rows = collapse_rows(d, p=1)
        assert inst.d.tolist() == [[3.0, 1.0], [2.0, 2.0], [5.0, 0.0]]
        assert inst.w.tolist() == [3.0, 2.0, 1.0]
        assert rows.tolist() == [0, 1, 0, 2, 1, 0]
        assert np.array_equal(inst.d[rows], d)
        assert solve_exact(inst).cost == solve_exact(PMedianInstance(d, p=1)).cost

    def test_default_weights_are_ones(self):
        assert PMedianInstance(D_SMALL, p=1).w.tolist() == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("w", [
        [1.0, 2.0],                  # wrong length
        [[1.0, 1.0, 1.0]],           # wrong shape
        [1.0, np.nan, 1.0],          # not finite
        [1.0, np.inf, 1.0],          # not finite
        [1.0, 0.0, 1.0],             # not positive
        [1.0, -2.0, 1.0],            # not positive
    ])
    def test_invalid_weights_rejected(self, w):
        with pytest.raises(DataError):
            PMedianInstance(D_SMALL, p=1, w=np.array(w))


def pipeline_shaped(rng):
    """A cost matrix in the pipeline's shape and its locked columns.

    Boxes and orders have random 2-D sizes; a box fits the orders it covers on
    both sizes, plus about one random extra order per box, and costs its area
    plus a small surcharge per box and per order on those rows. Some boxes
    repeat another's sizes, so their columns are equal. Every other entry is
    gamma, one more than the sum of the row maxima, and each locked box has
    a row of gamma with its only zero in the locked column. A third of the
    instances have more than 32 distinct rows, so the dominance test also
    compares rows after its first chunk.
    """
    while True:
        n = int(rng.integers(5, 80))
        m = int(rng.integers(8, 16))
        dims = rng.integers(1, 7, size=(m, 2))
        copies = rng.integers(0, m, size=int(rng.integers(0, 4)))
        dims[rng.integers(0, m, size=len(copies))] = dims[copies]
        needs = rng.integers(1, 7, size=(n, 2))
        fits = (dims[None, :, :] >= needs[:, None, :]).all(axis=2)
        fits |= rng.random((n, m)) < 1.0 / n
        fits = fits[fits.any(axis=1)]
        if len(fits):
            break
    cost = (dims.prod(axis=1) + rng.integers(0, 3, size=m)
            + rng.integers(0, 4, size=(len(fits), 1)))
    d = np.where(fits, cost.astype(np.float64), np.nan)
    gamma = float(np.nanmax(d, axis=1).sum()) + 1.0
    locked = rng.choice(m, size=int(rng.integers(0, 3)), replace=False)
    lock_rows = np.full((len(locked), m), gamma)
    lock_rows[np.arange(len(locked)), locked] = 0.0
    d = np.vstack((np.nan_to_num(d, nan=gamma), lock_rows))
    p = int(rng.integers(len(locked) + 1, min(5, m)))
    return collapse_rows(d, p)[0], locked


def dominates(d, k, j):
    return bool((d[:, k] <= d[:, j]).all())


class TestColumnDominance:
    """drop_dominated_columns on pipeline-shaped instances, against direct
    column-by-column comparisons and the exact enumeration. Costs are
    integers, so every total is exact and every column sum is distinct
    unless the columns are ordered by dominance the other way."""

    CASES = 120

    def _cases(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(self.CASES):
            inst, locked = pipeline_shaped(rng)
            yield inst, locked, *drop_dominated_columns(inst)

    def test_optimum_and_mapped_suite_unchanged(self):
        solved = 0
        for inst, locked, reduced, kept in self._cases(61):
            assert reduced.p == min(inst.p, len(kept))
            if len(kept) <= inst.p:
                row_min = (inst.d.min(axis=1) * inst.w).sum()
                assert (inst.d[:, kept].min(axis=1) * inst.w).sum() == row_min
                continue
            ex = solve_exact(reduced)
            assert ex.cost == solve_exact(inst).cost
            mapped = Suite(kept[list(ex.suite.members)].tolist())
            assert suite_cost(inst, mapped) == ex.cost
            solved += 1
        assert solved >= self.CASES // 2

    def test_dropped_columns_dominated_by_kept_ones(self):
        for inst, locked, _, kept in self._cases(67):
            assert np.all(np.diff(kept) > 0)
            assert set(locked.tolist()) <= set(kept.tolist())
            dropped = np.setdiff1d(np.arange(inst.m), kept)
            for j in dropped:
                assert any(dominates(inst.d, k, j) for k in kept)
            for j in kept:
                assert not any(dominates(inst.d, k, j) for k in kept if k != j)
                # of equal columns only the lowest index stays
                assert not any(np.array_equal(inst.d[:, i], inst.d[:, j])
                               for i in range(j))

    def test_rows_collapsed_again_with_summed_weights(self):
        for inst, _, reduced, kept in self._cases(71):
            sub = inst.d[:, kept]
            again, rows = collapse_rows(sub, reduced.p, inst.w)
            assert np.array_equal(reduced.d, again.d)
            assert np.array_equal(reduced.w, again.w)
            assert np.array_equal(reduced.d[rows], sub)
            assert reduced.w.sum() == inst.w.sum()

    def test_reduction_fires_on_most_instances(self):
        fired = 0
        for inst, _, _, kept in self._cases(73):
            distinct = len(np.unique(inst.d, axis=1).T)
            fired += len(kept) < distinct
        # dominated, not merely equal, columns dropped in at least 75%
        assert fired >= 0.75 * self.CASES

    def test_collapse_adds_the_weights_of_merged_rows(self):
        d = np.array([[1.0, 2.0], [3.0, 0.0], [1.0, 2.0]])
        inst, rows = collapse_rows(d, p=1, w=np.array([2.0, 1.0, 5.0]))
        assert inst.w.tolist() == [7.0, 1.0]
        assert rows.tolist() == [0, 1, 0]


class TestGrasp:
    def test_recovers_exact_optimum_on_seeded_instance(self):
        rng = np.random.default_rng(5)
        inst = PMedianInstance(rng.uniform(1.0, 100.0, size=(60, 15)), p=3)
        res = solve_grasp(inst, GraspParams())
        assert res.suite.members == (3, 4, 10)
        assert res.cost == pytest.approx(1077.319854226852)

    def test_same_seed_reproduces_result(self):
        rng = np.random.default_rng(5)
        inst = PMedianInstance(rng.uniform(1.0, 100.0, size=(60, 15)), p=3)
        a = solve_grasp(inst, GraspParams(iterations=8, seed=123))
        b = solve_grasp(inst, GraspParams(iterations=8, seed=123))
        assert a.suite.members == b.suite.members and a.cost == b.cost

    def test_never_below_exact_and_never_above_plain_greedy(self):
        rng = np.random.default_rng(21)
        for t in range(12):
            inst = PMedianInstance(rng.uniform(1.0, 100.0, size=(30, 10)),
                                   p=int(rng.integers(2, 5)))
            ex = solve_exact(inst)
            greedy = greedy_construct(inst, np.random.default_rng(0), 0.0)
            baseline = local_search_interchange(inst, greedy).cost
            res = solve_grasp(inst, GraspParams(iterations=6, elite_size=4, seed=t))
            assert res.cost >= ex.cost - 1e-8
            assert res.cost <= baseline + 1e-9

    def test_p_equals_m_takes_every_facility(self):
        inst = PMedianInstance(D_SMALL, p=2)
        res = solve_grasp(inst, GraspParams(iterations=2, elite_size=2))
        assert res.suite.members == (0, 1)
        assert res.cost == 4.0

    def test_path_relink_identical_endpoints_is_identity(self):
        inst = PMedianInstance(D_SMALL, p=1)
        s = Suite([1])
        assert path_relink(inst, s, s) is s

    def test_path_relink_never_worse_than_either_endpoint(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            m = int(rng.integers(5, 10))
            p = int(rng.integers(2, m - 1))
            inst = PMedianInstance(rng.uniform(1.0, 100.0, size=(25, m)), p=p)
            src = Suite(sorted(rng.choice(m, size=p, replace=False).tolist()))
            dst = Suite(sorted(rng.choice(m, size=p, replace=False).tolist()))
            out = path_relink(inst, src, dst)
            bound = min(suite_cost(inst, src), suite_cost(inst, dst))
            assert suite_cost(inst, out) <= bound + 1e-9

    def test_invalid_params_rejected(self):
        with pytest.raises(DataError):
            GraspParams(iterations=0)
        with pytest.raises(DataError):
            GraspParams(rcl_alpha=1.5)


class TestLagrangian:
    def test_zero_multipliers_give_zero_dual(self):
        inst = PMedianInstance(D_SMALL, p=1)
        value, open_idx = dual_value(inst, np.zeros(3))
        assert value == 0.0
        assert len(open_idx) == 1

    def test_closes_gap_on_tiny_instance(self):
        res = solve_lagrangian(PMedianInstance(D_SMALL, p=1))
        assert res.cost == pytest.approx(12.0)
        assert res.lower_bound == pytest.approx(12.0, abs=1e-6)
        assert res.gap == pytest.approx(0.0, abs=1e-6)

    def test_bounds_sandwich_exact_optimum(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            n = int(rng.integers(10, 40))
            m = int(rng.integers(4, 12))
            p = int(rng.integers(1, m))
            inst = PMedianInstance(rng.uniform(1.0, 100.0, size=(n, m)), p=p)
            ex = solve_exact(inst)
            res = solve_lagrangian(inst, LagrangianParams(max_iters=400))
            assert res.lower_bound <= ex.cost + 1e-8
            assert res.cost >= ex.cost - 1e-8
            assert res.gap >= 0.0

    def test_bound_trace_tightens_monotonically(self):
        rng = np.random.default_rng(9)
        inst = PMedianInstance(rng.uniform(1.0, 100.0, size=(50, 12)), p=3)
        res = solve_lagrangian(inst)
        lbs = [t[0] for t in res.bound_trace]
        ubs = [t[1] for t in res.bound_trace]
        assert all(x <= y + 1e-12 for x, y in zip(lbs, lbs[1:]))
        assert all(x >= y - 1e-12 for x, y in zip(ubs, ubs[1:]))
        assert res.cost == pytest.approx(985.9454105754969)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_interchange_never_worsens_start(data):
    n = data.draw(st.integers(min_value=2, max_value=12))
    m = data.draw(st.integers(min_value=2, max_value=6))
    p = data.draw(st.integers(min_value=1, max_value=m))
    cells = data.draw(st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=n * m, max_size=n * m))
    inst = PMedianInstance(np.array(cells).reshape(n, m), p=p)
    start = Suite(range(p))
    res = local_search_interchange(inst, start)
    assert res.cost <= suite_cost(inst, start) + 1e-9
    cost, _ = brute_force_best(inst)
    assert res.cost >= cost - 1e-9
