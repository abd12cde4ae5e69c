"""Recommendation pipeline, validation metrics, comparison, fine-tuning."""
import collections
import itertools
import json

import pytest

from boxsuite import fitmatrix
from boxsuite.cost import BoxTableCost
from boxsuite.fitmatrix import compute_fit_matrix
from boxsuite.fitting import solve_fit
from boxsuite.model import BoxSet, CandidateBox, Carton, DataError, Dims3, Shipment
from boxsuite.pipeline import (
    NO_FEASIBLE_MESSAGE,
    RunConfig,
    compare_suites,
    finetune_candidates,
    pack_into_suite,
    recommend,
    validate,
)


@pytest.fixture
def tiny():
    boxes = BoxSet([
        CandidateBox(id=1, inner=Dims3(2, 2, 2)),
        CandidateBox(id=2, inner=Dims3(3, 2, 2)),
        CandidateBox(id=3, inner=Dims3(4, 3, 2)),
        CandidateBox(id=4, inner=Dims3(6, 4, 3)),
    ])
    shipments = [
        Shipment(id=10, cartons=(Carton(Dims3(2, 2, 2)),)),
        Shipment(id=11, cartons=(Carton(Dims3(3, 2, 1)),)),
        Shipment(id=12, cartons=(Carton(Dims3(4, 3, 2)),)),
    ]
    return boxes, shipments


def covering_optimum(shipments, boxes, p, locked_ids=()):
    """Cheapest covering p-subset containing the locked ids, by enumeration."""
    fitm, packables = compute_fit_matrix(shipments, boxes)
    vols = boxes.volumes
    must = {boxes.index_of(i) for i in locked_ids}
    best = None
    for sub in itertools.combinations(range(len(boxes.boxes)), p):
        if not must <= set(sub):
            continue
        total = 0.0
        ok = True
        for i in packables.W:
            fitting = [j for j in fitm.rows[i] if j in sub]
            if not fitting:
                ok = False
                break
            total += min(vols[j] for j in fitting)
        if ok and (best is None or total < best[0] - 1e-12):
            best = (total, sub)
    return best


class TestRecommend:
    def test_matches_covering_enumeration(self, tiny):
        boxes, shipments = tiny
        out = recommend(RunConfig(p=2, method="exact"), shipments, boxes)
        assert out.feasible
        assert out.box_ids == (2, 3)
        assert out.result.cost == 48.0
        expected = covering_optimum(shipments, boxes, 2)
        assert out.result.cost == pytest.approx(expected[0])
        assert tuple(out.suite.members) == expected[1]

    def test_all_methods_agree_on_tiny_fixture(self, tiny):
        boxes, shipments = tiny
        costs = {}
        for method in ("exact", "exchange", "grasp", "lagrangian"):
            out = recommend(RunConfig(p=2, method=method), shipments, boxes)
            assert out.feasible
            costs[method] = out.result.cost
            assert out.box_ids == (2, 3)
        assert len(set(costs.values())) == 1

    @pytest.mark.parametrize("method", ["exact", "exchange", "grasp", "lagrangian"])
    def test_fewer_undominated_boxes_than_p(self, method):
        # Box 1 is the cheapest and fits every order, so it dominates the two
        # others: no solver runs, and the suite is box 1 padded with the
        # lowest-index dominated box.
        boxes = BoxSet([CandidateBox(id=1, inner=Dims3(3, 3, 3)),
                        CandidateBox(id=2, inner=Dims3(4, 4, 4)),
                        CandidateBox(id=3, inner=Dims3(5, 5, 5))])
        shipments = [Shipment(id=10, cartons=(Carton(Dims3(3, 3, 3)),)),
                     Shipment(id=11, cartons=(Carton(Dims3(2, 2, 1)),))]
        out = recommend(RunConfig(p=2, method=method), shipments, boxes)
        assert out.feasible
        assert (out.distinct_rows, out.columns) == (1, 1)
        assert out.box_ids == (1, 2)
        assert out.result.cost == 2 * 27.0  # the sum of the row minima
        assert out.result.lower_bound == out.result.cost
        assert [ln.pct_shipments for ln in out.report.lines] == [100.0, 0.0]

    def test_report_percentages_and_void(self, tiny):
        boxes, shipments = tiny
        rep = recommend(RunConfig(p=2, method="exact"), shipments, boxes).report
        assert abs(sum(l.pct_shipments for l in rep.lines) - 100.0) < 0.01
        for line in rep.lines:
            assert 0.0 <= line.pct_void < 100.0
        assert rep.total_volume_shipped == 48.0
        assert rep.n_shipments == 3
        assert rep.gap == 0.0

    def test_single_shipment_void_share(self):
        boxes = BoxSet([CandidateBox(id=7, inner=Dims3(10, 2, 2)),
                        CandidateBox(id=8, inner=Dims3(40, 1, 1))])
        shipments = [Shipment(id=1, cartons=(Carton(Dims3(10, 1, 1)),))]
        rep = recommend(RunConfig(p=1, method="exact"), shipments, boxes).report
        assert rep.lines[0].pct_void == pytest.approx(75.0)

    def test_locked_box_always_selected(self, tiny):
        boxes, shipments = tiny
        out = recommend(RunConfig(p=2, method="exact", locked_ids=(1,)),
                        shipments, boxes)
        assert out.feasible and 1 in out.box_ids
        expected = covering_optimum(shipments, boxes, 2, locked_ids=(1,))
        assert out.result.cost == pytest.approx(expected[0])

    def test_disjoint_fitting_sets_infeasible(self):
        boxes = BoxSet([CandidateBox(id=1, inner=Dims3(10, 1, 1)),
                        CandidateBox(id=2, inner=Dims3(3, 3, 3))])
        shipments = [Shipment(id=20, cartons=(Carton(Dims3(10, 1, 1)),)),
                     Shipment(id=21, cartons=(Carton(Dims3(3, 3, 3)),))]
        out = recommend(RunConfig(p=1, method="exact"), shipments, boxes)
        assert not out.feasible
        assert out.suite is None and out.report is None
        assert out.message == NO_FEASIBLE_MESSAGE
        assert covering_optimum(shipments, boxes, 1) is None

    def test_no_packables_is_vacuously_feasible(self):
        boxes = BoxSet([CandidateBox(id=1, inner=Dims3(2, 2, 2)),
                        CandidateBox(id=2, inner=Dims3(3, 3, 3))])
        shipments = [Shipment(id=30, cartons=(Carton(Dims3(50, 50, 50)),))]
        out = recommend(RunConfig(p=1, method="exact"), shipments, boxes)
        assert out.feasible
        assert out.result.cost == 0.0
        assert out.report.n_shipments == 0

    def test_precomputed_fit_matrix_short_circuits(self, tiny):
        boxes, shipments = tiny
        fitm, _ = compute_fit_matrix(shipments, boxes)
        direct = recommend(RunConfig(p=2, method="exact"), shipments, boxes)
        reused = recommend(RunConfig(p=2, method="exact"), shipments, boxes,
                           fit=fitm)
        assert direct.box_ids == reused.box_ids
        assert direct.result.cost == reused.result.cost

    def test_fit_matrix_shape_mismatch_rejected(self, tiny):
        boxes, shipments = tiny
        fitm, _ = compute_fit_matrix(shipments[:2], boxes)
        with pytest.raises(DataError):
            recommend(RunConfig(p=2, method="exact"), shipments, boxes, fit=fitm)

    def test_invalid_configs_rejected(self, tiny):
        boxes, shipments = tiny
        with pytest.raises(DataError):
            RunConfig(p=2, locked_ids=(1, 2))
        with pytest.raises(DataError):
            RunConfig(p=0)
        with pytest.raises(DataError):
            RunConfig(p=2, method="anneal")
        with pytest.raises(DataError):
            recommend(RunConfig(p=4, method="exact"), shipments, boxes)

    def test_exact_budget_counts_undominated_boxes(self):
        # cube k fits the cube orders up to k, so no cube dominates another;
        # each k x k x (k+1) box fits what cube k fits, at a larger volume
        boxes = BoxSet([CandidateBox(id=k, inner=Dims3(k, k, k)) for k in range(1, 28)]
                       + [CandidateBox(id=100 + k, inner=Dims3(k, k, k + 1))
                          for k in range(1, 4)])
        shipments = [Shipment(id=k, cartons=(Carton(Dims3(k, k, k)),))
                     for k in range(1, 28)]
        with pytest.raises(DataError, match="27 of 30 candidate boxes"):
            recommend(RunConfig(p=2, method="exact"), shipments, boxes)

    def test_outputs_written(self, tiny, tmp_path):
        boxes, shipments = tiny
        out = recommend(RunConfig(p=2, method="grasp", out_dir=str(tmp_path)),
                        shipments, boxes)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["report.csv", "report.txt", "suite.json"]
        payload = json.loads((tmp_path / "suite.json").read_text())
        assert payload["feasible"] is True
        assert [e["id"] for e in payload["suite"]] == list(out.box_ids)
        assert payload["gamma"] == out.gamma

    @pytest.mark.parametrize("method", ["grasp", "lagrangian"])
    def test_bound_trace_written_for_lagrangian_only(self, tiny, tmp_path, method):
        boxes, shipments = tiny
        out = recommend(RunConfig(p=2, method=method, out_dir=str(tmp_path)),
                        shipments, boxes)
        path = tmp_path / "trace.json"
        assert path.exists() == (method == "lagrangian")
        if path.exists():
            trace = json.loads(path.read_text())
            assert trace["iterations"] == len(out.result.bound_trace) > 0
            assert [tuple(t) for t in trace["bound_trace"]] == list(out.result.bound_trace)

    @pytest.mark.parametrize("method", ["exact", "grasp", "lagrangian"])
    def test_repeated_orders_scale_objective_only(self, tiny, method):
        # Each order three times under fresh ids: the solver sees the same
        # distinct rows with three times the weight.
        boxes, shipments = tiny
        k = 3
        repeated = [Shipment(id=100 * c + s.id, cartons=s.cartons)
                    for c in range(1, k + 1) for s in shipments]
        base = recommend(RunConfig(p=2, method=method), shipments, boxes)
        rep = recommend(RunConfig(p=2, method=method), repeated, boxes)
        assert rep.box_ids == base.box_ids
        assert rep.result.cost == pytest.approx(k * base.result.cost, rel=1e-12)
        assert (rep.rows, rep.distinct_rows) == (k * base.rows, base.distinct_rows)
        for a, b in zip(rep.report.lines, base.report.lines):
            assert a.pct_shipments == b.pct_shipments
            assert a.pct_void == b.pct_void
        assert rep.report.pct_void_total == base.report.pct_void_total

    def test_deterministic_for_fixed_seed(self, tiny):
        boxes, shipments = tiny
        runs = [recommend(RunConfig(p=2, method="grasp"), shipments, boxes)
                for _ in range(2)]
        assert runs[0].box_ids == runs[1].box_ids
        assert runs[0].result.cost == runs[1].result.cost


class TestValidate:
    def test_identical_sets_identical_reports(self, tiny):
        boxes, shipments = tiny
        pair = validate([2, 3], boxes, shipments, shipments)
        assert pair.a == pair.b
        assert pair.flagged == ()
        assert pair.a.uncovered == 0

    def test_uncovered_counted_not_fatal(self, tiny):
        boxes, shipments = tiny
        pair = validate([1, 2], boxes, shipments, shipments)
        assert pair.a.uncovered == 1
        assert pair.a.n_shipments == 3

    def test_divergent_sets_flagged(self, tiny):
        boxes, _ = tiny
        set_a = [Shipment(id=1, cartons=(Carton(Dims3(2, 2, 2)),)),
                 Shipment(id=2, cartons=(Carton(Dims3(2, 2, 2)),))]
        set_b = [Shipment(id=3, cartons=(Carton(Dims3(4, 3, 2)),)),
                 Shipment(id=4, cartons=(Carton(Dims3(4, 3, 2)),))]
        pair = validate([2, 3], boxes, set_a, set_b, warn_threshold=0.10)
        assert pair.flagged

    def test_pack_prefers_cheapest_fitting_box(self, tiny):
        boxes, shipments = tiny
        suite_boxes = BoxSet([boxes.boxes[boxes.index_of(i)] for i in (2, 3, 4)])
        assignment = pack_into_suite(shipments, suite_boxes)
        # each shipment lands in the smallest box it fits
        vols = [suite_boxes.boxes[j].volume for j in assignment]
        assert vols == [12.0, 12.0, 24.0]

    def test_cost_model_changes_packing(self, tiny):
        boxes, shipments = tiny
        suite_boxes = BoxSet([boxes.boxes[boxes.index_of(i)] for i in (2, 3)])
        flipped = BoxTableCost({2: 100.0, 3: 1.0})
        assignment = pack_into_suite(shipments, suite_boxes, model=flipped)
        # box 3 is now cheaper wherever it fits
        assert assignment == [1, 1, 1]


@pytest.fixture
def searches(monkeypatch):
    """(carton multiset, box) of every branch-and-bound call; stacking is
    disabled so that every three-carton decision reaches the search."""
    seen = collections.Counter()

    def counting(prob, cfg):
        cartons = tuple(sorted(c.dims.as_tuple() for c in prob.cartons))
        seen[cartons, tuple(sorted(prob.box.as_tuple()))] += 1
        return solve_fit(prob, cfg)

    monkeypatch.setattr(fitmatrix, "fits_stacking", lambda cartons, box: False)
    monkeypatch.setattr(fitmatrix, "solve_fit", counting)
    return seen


def test_validate_decides_a_box_once_for_both_sets(searches):
    boxes = BoxSet([CandidateBox(id=1, inner=Dims3(4, 4, 2)),
                    CandidateBox(id=2, inner=Dims3(8, 3, 2))])
    trio = [Carton(Dims3(2, 2, 2)), Carton(Dims3(2, 2, 2)), Carton(Dims3(2, 2, 1))]
    pair = validate([1, 2], boxes, [Shipment(id=20, cartons=tuple(trio))],
                    [Shipment(id=21, cartons=tuple(reversed(trio)))])
    assert pair.a == pair.b and pair.a.uncovered == 0
    assert list(searches.values()) == [1]  # box 1, for the one carton multiset


class TestCompare:
    def test_baseline_reduction_zero(self, tiny):
        boxes, shipments = tiny
        table = compare_suites([[2, 3], [3, 4]], shipments, boxes)
        assert table.rows[0].pct_reduction == 0.0
        assert table.rows[1].pct_reduction == pytest.approx(-50.0)
        assert all(r.feasible for r in table.rows)

    def test_worse_suite_never_reports_gain(self, tiny):
        boxes, shipments = tiny
        base = compare_suites([[2, 3]], shipments, boxes).rows[0].total_cost
        table = compare_suites([[2, 3], [2, 4]], shipments, boxes)
        assert table.rows[1].total_cost >= base - 1e-12

    def test_uncovered_suite_marked_infeasible(self, tiny):
        boxes, shipments = tiny
        table = compare_suites([[2, 3], [1, 2]], shipments, boxes)
        row = table.rows[1]
        assert row.feasible is False
        assert row.uncovered == 1
        assert row.pct_reduction is None


class TestFinetune:
    def test_cube_variants_collapse_by_sorted_dims(self):
        boxes = BoxSet([CandidateBox(id=9, inner=Dims3(5, 5, 5))])
        out = finetune_candidates(boxes, [9], deltas=(-1, 0, 1))
        # multisets over {4,5,6} of size 3: C(5,2) = 10
        assert len(out.boxes) == 10

    def test_distinct_dims_full_grid(self):
        boxes = BoxSet([CandidateBox(id=9, inner=Dims3(10, 7, 3))])
        out = finetune_candidates(boxes, [9], deltas=(-1, 0, 1))
        assert len(out.boxes) == 27

    def test_nonpositive_dims_dropped(self):
        boxes = BoxSet([CandidateBox(id=9, inner=Dims3(1, 5, 5))])
        out = finetune_candidates(boxes, [9], deltas=(-1, 0, 1))
        assert all(min(b.inner.as_tuple()) > 0 for b in out.boxes)
        assert len(out.boxes) == 12

    def test_locked_boxes_kept_untouched(self, tiny):
        boxes, _ = tiny
        out = finetune_candidates(boxes.with_locked_ids((4,)), [3, 4],
                                  deltas=(-1, 0, 1))
        ids = [b.id for b in out.boxes]
        assert 4 in ids
        kept = out.boxes[ids.index(4)]
        assert kept.inner.as_tuple() == (6, 4, 3)
        assert len(out.locked) == 1

    def test_ids_unique_and_volume_sorted(self, tiny):
        boxes, _ = tiny
        out = finetune_candidates(boxes, [2, 3])
        ids = [b.id for b in out.boxes]
        assert len(ids) == len(set(ids))
        vols = [b.volume for b in out.boxes]
        assert vols == sorted(vols)

