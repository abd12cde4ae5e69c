"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints one ``PASS criterion N`` line with its measured numbers
(visible under ``pytest -s``); an assertion failure means the criterion does
not hold. Criterion 8 replays the public dataset and only runs when
BOXSUITE_DATASET_DIR points at its three CSV files.
"""
from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

import gendata
from boxsuite.fitmatrix import FitScanConfig, compute_fit_matrix
from boxsuite.fitting import (
    Outcome,
    SolverConfig,
    check_witness,
    fits_stacking,
    oracle_fit,
    solve_fit,
)
from boxsuite.model import enumerate_box_grid, load_boxes, load_shipments
from boxsuite.pipeline import RunConfig, recommend
from boxsuite.pmedian import (
    GraspParams,
    PMedianInstance,
    Suite,
    dual_value,
    local_search_interchange,
    solve_exact,
    solve_grasp,
    solve_lagrangian,
)
from conftest import one_box_scanner, passes_necessity
from test_pipeline import covering_optimum

TEN_SECONDS = SolverConfig(time_limit=10.0)

# c5 reuses c4's exact/GRASP solutions; c4 always recomputes inside its own
# timer so the runtime bound stays honest under selective runs.
_PM_CACHE: dict = {}


def _solve_pmedian_corpus():
    out = []
    for d, p in gendata.pmedian_instances():
        inst = PMedianInstance(d, p)
        out.append((inst, solve_exact(inst), solve_grasp(inst, GraspParams())))
    return out


def test_criterion_1_fitting_oracle_equivalence():
    probs = gendata.fit_instances()
    assert len(probs) == 1000
    t0 = time.perf_counter()
    timeouts = 0
    mismatches = 0
    for prob in probs:
        v = solve_fit(prob, TEN_SECONDS)
        o = oracle_fit(prob)
        if v.timed_out:
            timeouts += 1
            continue
        if v.outcome is not o.outcome:
            mismatches += 1
        if v.is_fit:
            assert v.witness is not None and check_witness(prob, v.witness)
    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    assert timeouts == 0
    assert elapsed < 120.0
    print(f"\nPASS criterion 1: solver agrees with oracle on 1000/1000, "
          f"0 timeouts at 10 s, {elapsed:.1f}s total")


def test_criterion_2_symmetry_toggles():
    probs = gendata.fit_instances()[:200] + gendata.duplicate_fit_instances()
    dup_flags = [gendata.has_duplicate_cartons(p) for p in probs]
    assert len(probs) == 300 and sum(dup_flags) >= 100
    nodes_on, nodes_off = [], []
    fit_on, fit_off = [], []  # duplicate-subset nodes, FIT instances only
    for prob, is_dup in zip(probs, dup_flags):
        verdicts = {}
        for ident in (True, False):
            for orth in (True, False):
                cfg = SolverConfig(time_limit=10.0,
                                   use_identical_symmetry=ident,
                                   use_orthant_symmetry=orth)
                v = solve_fit(prob, cfg)
                assert not v.timed_out
                verdicts[(ident, orth)] = v
        outcomes = {v.outcome for v in verdicts.values()}
        assert len(outcomes) == 1
        if is_dup:
            on, off = verdicts[(True, True)].nodes, verdicts[(False, False)].nodes
            nodes_on.append(on)
            nodes_off.append(off)
            if verdicts[(True, True)].is_fit:
                fit_on.append(on)
                fit_off.append(off)
            else:
                # a NO_FIT proof searches the whole tree, which the two
                # families exist to cut
                assert on <= off
    med_on = statistics.median(nodes_on)
    med_off = statistics.median(nodes_off)
    assert med_on <= med_off
    # On FITs the pruned order can reach a witness later; summed over the
    # subset it must still search less.
    assert fit_on and sum(fit_on) <= sum(fit_off)
    print(f"\nPASS criterion 2: identical verdicts across all 4 toggle combos "
          f"on 300/300; duplicate-subset median nodes {med_on} (on) <= "
          f"{med_off} (off) over {len(nodes_on)} instances; on <= off on each of "
          f"{len(nodes_on) - len(fit_on)} NO_FITs; FITs summed {sum(fit_on)} (on) <= "
          f"{sum(fit_off)} (off), medians {statistics.median(fit_on)} (on) and "
          f"{statistics.median(fit_off)} (off) over {len(fit_on)}")


def test_criterion_3_fast_path_soundness():
    probs = gendata.fit_instances() + gendata.single_carton_instances()
    stack_hits = single_hits = necessity_hits = violations = 0
    for prob in probs:
        v = solve_fit(prob, TEN_SECONDS)
        assert not v.timed_out
        # The scan's own screens, on a set of just the declared box.
        scanner = one_box_scanner(prob.box)
        if not passes_necessity(prob.cartons, prob.box):
            necessity_hits += 1
            if v.outcome is not Outcome.NO_FIT:
                violations += 1
            continue
        if prob.n == 1:
            # Necessity passed, so the single-carton row holds the box; must
            # be a fit.
            assert scanner._single_rows(prob.cartons, np.zeros(1, dtype=np.intp))[0, 0]
            single_hits += 1
            if v.outcome is not Outcome.FIT:
                violations += 1
            continue
        if fits_stacking(prob.cartons, prob.box):
            stack_hits += 1
            if v.outcome is not Outcome.FIT:
                violations += 1
    assert violations == 0
    print(f"\nPASS criterion 3: 0 fast-path violations over {len(probs)} "
          f"instances ({stack_hits} stacking fits, {single_hits} single-carton "
          f"fits, {necessity_hits} necessity rejections)")


def test_criterion_4_grasp_vs_exact():
    t0 = time.perf_counter()
    solved = _solve_pmedian_corpus()
    hits = 0
    for k, (inst, ex, gr) in enumerate(solved):
        tol = 1e-9 * max(1.0, abs(ex.cost))
        assert gr.cost >= ex.cost - tol  # a heuristic can never beat the optimum
        if gr.cost <= ex.cost + tol:
            hits += 1
        start = Suite(int(j) for j in
                      np.random.default_rng(k).choice(inst.m, size=inst.p,
                                                      replace=False))
        res = local_search_interchange(inst, start)
        members = set(res.suite)
        for b in range(inst.m):
            if b in members:
                continue
            for a in res.suite:
                cand = sorted((members - {a}) | {b})
                swapped = float(np.min(inst.d[:, cand], axis=1).sum())
                assert swapped >= res.cost - 1e-9 * max(1.0, abs(res.cost))
    elapsed = time.perf_counter() - t0
    assert hits >= 45
    assert elapsed < 60.0
    _PM_CACHE["solved"] = solved
    print(f"\nPASS criterion 4: GRASP(32 it, elite 10) matched the enumeration "
          f"optimum on {hits}/50, interchange passed 50/50 full swap audits, "
          f"{elapsed:.1f}s total")


def test_criterion_5_lagrangian_sandwich():
    solved = _PM_CACHE.get("solved") or _solve_pmedian_corpus()
    holds = 0
    for inst, ex, gr in solved:
        lg = solve_lagrangian(inst)
        tol = 1e-9 * max(1.0, abs(ex.cost))
        assert lg.gap is not None and lg.gap >= 0.0
        v0, _ = dual_value(inst, np.zeros(inst.n))
        assert v0 == 0.0
        if lg.lower_bound <= ex.cost + tol and ex.cost <= gr.cost + tol:
            holds += 1
    assert holds == 50
    print("\nPASS criterion 5: lower bound <= exact optimum <= GRASP on 50/50, "
          "gaps nonnegative, D(0) = 0 exactly")


def test_criterion_6_lock_and_coverage_semantics():
    cases = gendata.small_pipeline_cases()
    n_empty = 0
    for shipments, boxes, p, locked in cases:
        out = recommend(RunConfig(p=p, locked_ids=locked, method="exact"),
                        shipments, boxes)
        ref = covering_optimum(shipments, boxes, p, locked)
        if not out.feasible:
            n_empty += 1
            assert ref is None
            continue
        assert ref is not None
        assert set(locked) <= set(out.box_ids)
        assert out.result.cost == pytest.approx(ref[0], rel=1e-9)
        assert out.result.cost <= out.gamma - 0.5
        # Every packable shipment must sit in a genuinely fitting suite box.
        for k, i in enumerate(out.packables.W):
            assert out.assignment[k] in out.packables.fit.row(i).tolist()
    print(f"\nPASS criterion 6: recommend matched covering enumeration on "
          f"100/100 small pipelines ({n_empty} correctly infeasible)")


def test_criterion_7_desk_scale_pipeline():
    t0 = time.perf_counter()
    boxes = enumerate_box_grid(step=2)
    shipments = gendata.desk_dataset()
    assert len(shipments) == 300
    assert all(1 <= len(s.cartons) <= 8 for s in shipments)
    fitm, packables = compute_fit_matrix(shipments, boxes)
    free = recommend(RunConfig(p=5, method="grasp"), shipments, boxes, fit=fitm)
    assert free.feasible
    lock = free.box_ids[0]
    locked = recommend(RunConfig(p=5, method="grasp", locked_ids=(lock,)),
                       shipments, boxes, fit=fitm)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    pct_sum = sum(ln.pct_shipments for ln in free.report.lines)
    assert pct_sum == pytest.approx(100.0, abs=0.01)
    assert locked.feasible and lock in locked.box_ids
    assert 0.0 < free.report.pct_void_total < 100.0
    print(f"\nPASS criterion 7: {len(boxes.boxes)}-box grid, "
          f"{len(packables.W)}/300 packable, both runs in {elapsed:.1f}s, "
          f"shipment percentages sum {pct_sum:.3f}, suite void "
          f"{free.report.pct_void_total:.2f}%")


@pytest.mark.skipif(not os.environ.get("BOXSUITE_DATASET_DIR"),
                    reason="public-dataset replication; set BOXSUITE_DATASET_DIR")
def test_criterion_8_public_dataset_replication():
    root = Path(os.environ["BOXSUITE_DATASET_DIR"])
    boxes = load_boxes(root / "boxes.csv")
    shipments = load_shipments(root / "shipments.csv", root / "items.csv")
    threads = int(os.environ.get("BOXSUITE_THREADS", "1"))
    fitm, packables = compute_fit_matrix(
        shipments, boxes, cfg=FitScanConfig(threads=threads))
    assert abs(len(packables.W) - 14888) <= 25

    expected = {(): 26_917_098.0, (958,): 27_224_072.0, (958, 1918): 27_370_900.0}
    for locks, target in expected.items():
        run = recommend(RunConfig(p=10, method="grasp", locked_ids=locks),
                        shipments, boxes, fit=fitm)
        assert run.feasible
        assert abs(run.result.cost - target) / target <= 0.02
        bounded = recommend(RunConfig(p=10, method="lagrangian",
                                      locked_ids=locks),
                            shipments, boxes, fit=fitm)
        assert bounded.feasible and bounded.result.gap is not None
        assert bounded.result.gap <= 0.025
    print(f"\nPASS criterion 8: {len(packables.W)} packable shipments, all "
          f"three suite totals within 2% and gaps within 2.5%")
