"""Penalized cost matrix construction."""
import itertools
import math
import random

import numpy as np
import pytest

from boxsuite.cost import (
    BoxTableCost,
    InnerVolumeCost,
    PairTableCost,
    build_cost_matrix,
    load_pair_cost_table,
)
from boxsuite.fitmatrix import FitMatrix
from boxsuite.model import BoxSet, CandidateBox, Carton, DataError, Dims3, Shipment
from boxsuite.pmedian import collapse_rows


def boxes_by_volume(*dims):
    return BoxSet([CandidateBox(i + 1, Dims3(*d)) for i, d in enumerate(dims)])


def shipment(sid):
    return Shipment(id=sid, cartons=(Carton(Dims3(1, 1, 1)),))


def fit_matrix(n, boxes, fitting):
    """n-shipment fit matrix whose nonempty rows are ``fitting[i]``."""
    return FitMatrix(n, len(boxes), [fitting.get(i, ()) for i in range(n)])


def test_inner_volume_row_and_gamma():
    boxes = boxes_by_volume((1, 2, 2), (2, 2, 2), (3, 3, 3))  # volumes 4, 8, 27
    ships = [shipment(1), shipment(2)]
    fit = fit_matrix(2, boxes, {0: (1, 2), 1: (1,)})
    cm = build_cost_matrix(ships, fit, boxes)
    # Row maxima 27 and 8, so the penalty is 36.
    assert cm.gamma == 36.0
    assert tuple(cm.C[cm.rows[0]]) == (36.0, 8.0, 27.0)
    assert tuple(cm.C[cm.rows[1]]) == (36.0, 8.0, 36.0)
    assert cm.fake_rows == 0 and cm.row_shipment_ids == (1, 2)


def test_fake_row_for_locked_box():
    boxes = boxes_by_volume(*[(1, 1, k) for k in range(1, 7)])
    ships = [shipment(1)]
    fit = fit_matrix(1, boxes, {0: (5,)})
    cm = build_cost_matrix(ships, fit, boxes, locked=(4,))
    g = cm.gamma
    assert tuple(cm.C[cm.rows[1]]) == (g, g, g, g, 0.0, g)
    assert cm.fake_rows == 1 and cm.locked == (4,)


def test_every_row_has_sub_penalty_entry():
    rng = random.Random(2)
    boxes = boxes_by_volume(*[tuple(rng.randint(1, 6) for _ in range(3))
                              for _ in range(8)])
    W = tuple(range(5))
    fitting = {i: tuple(sorted(rng.sample(range(8), rng.randint(1, 4)))) for i in W}
    ships = [shipment(i + 1) for i in range(5)]
    cm = build_cost_matrix(ships, fit_matrix(5, boxes, fitting), boxes, locked=(0, 3))
    for row in cm.C:
        assert row.min() < cm.gamma
    assert (cm.C <= cm.gamma).all()


def test_rejects_negative_and_nan_costs():
    boxes = boxes_by_volume((1, 1, 1), (2, 2, 2))
    ships = [shipment(1)]
    fit = fit_matrix(1, boxes, {0: (0, 1)})
    with pytest.raises(DataError):
        build_cost_matrix(ships, fit, boxes, model=BoxTableCost({1: -1.0, 2: 3.0}))
    with pytest.raises(DataError):
        build_cost_matrix(ships, fit, boxes,
                          model=BoxTableCost({1: float("nan"), 2: 3.0}))
    with pytest.raises(DataError):
        build_cost_matrix(ships, fit, boxes, model=BoxTableCost({2: 3.0}))


class _PerPair:
    """Hides a box-only model's ``box_costs`` to force the per-pair loop."""

    def __init__(self, model):
        self.cost_for = model.cost_for


def test_box_only_models_match_the_per_pair_loop():
    rng = random.Random(4)
    boxes = boxes_by_volume(*[tuple(rng.uniform(1, 9) for _ in range(3))
                              for _ in range(30)])
    W = (0, 2, 3, 5)
    fitting = {i: tuple(rng.sample(range(30), rng.randint(1, 12))) for i in W}
    ships = [shipment(i + 1) for i in range(6)]
    fit = fit_matrix(6, boxes, fitting)
    table = BoxTableCost({bx.id: rng.uniform(0, 5) for bx in boxes})
    assert np.array_equal(InnerVolumeCost().box_costs(boxes), boxes.volumes)
    for model in (InnerVolumeCost(), table):
        for locked in ((), (1, 29)):
            fast = build_cost_matrix(ships, fit, boxes, model=model, locked=locked)
            slow = build_cost_matrix(ships, fit, boxes, model=_PerPair(model),
                                     locked=locked)
            assert fast.C.tobytes() == slow.C.tobytes()
            assert fast.w.tobytes() == slow.w.tobytes()
            assert np.array_equal(fast.rows, slow.rows)
            assert fast.gamma == slow.gamma
            assert fast.row_shipment_ids == slow.row_shipment_ids


def test_box_table_reports_the_first_bad_fitting_entry():
    boxes = boxes_by_volume((1, 1, 1), (2, 2, 2), (3, 3, 3))
    ships = [shipment(1), shipment(2)]
    fit = fit_matrix(2, boxes, {0: (1, 2), 1: (0,)})
    table = BoxTableCost({1: -1.0, 3: float("nan")})
    assert np.isnan(table.box_costs(boxes)[1:]).all()
    for model in (table, _PerPair(table)):
        # Row 0 asks for box 2 (missing) before box 3 (NaN); row 1's -1 comes later.
        with pytest.raises(DataError, match="no entry for box 2"):
            build_cost_matrix(ships, fit, boxes, model=model)
    # A box that no packable shipment fits needs no entry.
    fit = fit_matrix(2, boxes, {0: (0, 1)})
    cm = build_cost_matrix(ships, fit, boxes, model=BoxTableCost({1: 1.0, 2: 2.0}))
    assert tuple(cm.C[cm.rows[0]]) == (1.0, 2.0, cm.gamma)


def test_pair_table_model(tmp_path):
    table = tmp_path / "pairs.csv"
    table.write_text("shipment_id,box_id,cost\n7,1,2.5\n7,2,4.0\n")
    model = load_pair_cost_table(table)
    boxes = boxes_by_volume((1, 1, 1), (2, 2, 2))
    fit = fit_matrix(1, boxes, {0: (0, 1)})
    cm = build_cost_matrix([shipment(7)], fit, boxes, model=model)
    assert tuple(cm.C[cm.rows[0]]) == (2.5, 4.0)
    assert cm.gamma == 5.0 and isinstance(model, PairTableCost)


def _brute_force_optima(C, p):
    m = C.shape[1]
    best = None
    argbest = []
    for S in itertools.combinations(range(m), p):
        total = C[:, S].min(axis=1).sum()
        if best is None or total < best - 1e-9:
            best, argbest = total, [S]
        elif abs(total - best) <= 1e-9:
            argbest.append(S)
    return best, set(argbest)


def test_scaling_costs_preserves_optimal_suites():
    rng = random.Random(10)
    boxes = boxes_by_volume(*[tuple(rng.randint(1, 5) for _ in range(3))
                              for _ in range(6)])
    W = tuple(range(4))
    fitting = {i: tuple(sorted(rng.sample(range(6), rng.randint(2, 4)))) for i in W}
    ships = [shipment(i + 1) for i in range(4)]
    fit = fit_matrix(4, boxes, fitting)
    base = build_cost_matrix(ships, fit, boxes)
    scaled = build_cost_matrix(
        ships, fit, boxes,
        model=BoxTableCost({bx.id: 7.5 * bx.volume for bx in boxes}))
    for p in (1, 2, 3):
        _, opt_base = _brute_force_optima(base.C[base.rows], p)
        _, opt_scaled = _brute_force_optima(scaled.C[scaled.rows], p)
        assert opt_base == opt_scaled


# -- distinct rows against the dense build -------------------------------------


def _priced(model, ship, box):
    c = float(model.cost_for(ship, box))
    if not math.isfinite(c) or c < 0:
        raise DataError(f"cost model produced invalid cost {c!r} for shipment "
                        f"{ship.id}, box {box.id}")
    return c


def _dense_reference(ships, fit, boxes, model, locked=()):
    """The full penalized matrix filled one row at a time and merged by
    ``collapse_rows``: (C, w, rows, gamma) as ``build_cost_matrix`` must give."""
    W = fit.packables().W
    C = np.full((len(W) + len(locked), len(boxes)), np.nan)
    row_max = np.zeros(len(W))
    box_costs = getattr(model, "box_costs", None)
    if box_costs is not None:
        vec = np.asarray(box_costs(boxes), dtype=np.float64)
        valid = np.isfinite(vec) & (vec >= 0)
    for r, i in enumerate(W):
        cols = fit.row(i)
        if box_costs is None:
            costs = np.array([_priced(model, ships[i], boxes[j]) for j in cols.tolist()])
        else:
            if not valid[cols].all():
                _priced(model, ships[i], boxes[int(cols[np.argmin(valid[cols])])])
            costs = vec[cols]
        C[r, cols] = costs
        row_max[r] = costs.max()
    gamma = float(row_max.sum()) + 1.0
    C[np.isnan(C)] = gamma
    for f, t in enumerate(locked):
        C[len(W) + f, t] = 0.0
    if not len(C):
        return C, np.zeros(0), np.zeros(0, dtype=np.int64), gamma
    inst, rows = collapse_rows(C, 1)
    return inst.d, inst.w, rows, gamma


def _assert_matches_reference(ships, fit, boxes, model, locked=()):
    cm = build_cost_matrix(ships, fit, boxes, model=model, locked=locked)
    C, w, rows, gamma = _dense_reference(ships, fit, boxes, model, locked)
    assert cm.gamma.hex() == gamma.hex()
    assert cm.C.shape == C.shape and cm.C.tobytes() == C.tobytes()
    assert cm.w.tobytes() == w.tobytes()
    assert cm.rows.dtype == rows.dtype and np.array_equal(cm.rows, rows)
    return cm


def _random_world(rng, model_kind):
    """Shipments whose fit rows repeat a few patterns (some empty), boxes of
    unrounded dims, 0-2 locks and a cost model of the given kind."""
    J = rng.randint(1, 9)
    boxes = BoxSet([CandidateBox(j + 1, Dims3(*(rng.uniform(0.5, 9) for _ in range(3))))
                    for j in range(J)])
    n = rng.randint(0, 40)
    pool = [(), *(tuple(sorted(rng.sample(range(J), rng.randint(1, J))))
                  for _ in range(rng.randint(1, 6)))]
    fit = FitMatrix(n, J, [rng.choice(pool) for _ in range(n)])
    ships = [shipment(i + 1) for i in range(n)]
    locked = tuple(rng.sample(range(J), rng.randint(0, min(2, J))))
    if model_kind == "inner-volume":
        model = InnerVolumeCost()
    elif model_kind == "box-table":
        # Unrelated to volume, with zero costs that a lock row can equal.
        model = BoxTableCost({bx.id: rng.choice((0.0, rng.uniform(0, 50)))
                              for bx in boxes})
    else:
        # Two price lists, so equal patterns come at equal and at unequal costs.
        prices = [{bx.id: rng.choice((0.0, rng.uniform(0, 50))) for bx in boxes}
                  for _ in range(2)]
        model = PairTableCost({(s.id, bx.id): rng.choice(prices)[bx.id]
                               for s in ships for bx in boxes})
    return ships, fit, boxes, model, locked


@pytest.mark.parametrize("model_kind", ["inner-volume", "box-table", "pair-table"])
def test_distinct_rows_match_the_dense_build_and_collapse(model_kind):
    rng = random.Random(20)
    merged = 0
    for _ in range(300):
        ships, fit, boxes, model, locked = _random_world(rng, model_kind)
        cm = _assert_matches_reference(ships, fit, boxes, model, locked)
        merged += len(cm.rows) - cm.C.shape[0]
    assert merged > 0


def test_pair_costs_split_rows_of_equal_patterns():
    boxes = boxes_by_volume((1, 1, 1), (2, 2, 2))
    ships = [shipment(1), shipment(2), shipment(3)]
    fit = fit_matrix(3, boxes, {0: (0, 1), 1: (0, 1), 2: (0, 1)})
    model = PairTableCost({(1, 1): 2.0, (1, 2): 3.0, (2, 1): 2.0, (2, 2): 4.0,
                           (3, 1): 2.0, (3, 2): 3.0})
    cm = _assert_matches_reference(ships, fit, boxes, model)
    assert cm.rows.tolist() == [0, 1, 0] and cm.w.tolist() == [2.0, 1.0]


def test_zero_cost_locked_box_merges_with_its_only_real_row():
    boxes = boxes_by_volume((1, 1, 1), (2, 2, 2), (3, 3, 3))
    ships = [shipment(1), shipment(2)]
    fit = fit_matrix(2, boxes, {0: (1, 2), 1: (1,)})
    model = BoxTableCost({1: 5.0, 2: 0.0, 3: 7.0})
    cm = _assert_matches_reference(ships, fit, boxes, model, locked=(1,))
    assert cm.rows.tolist() == [0, 1, 1] and cm.w.tolist() == [1.0, 2.0]
    assert tuple(cm.C[1]) == (cm.gamma, 0.0, cm.gamma)


def test_negative_zero_cost_does_not_merge_with_the_lock_row():
    boxes = boxes_by_volume((1, 1, 1), (2, 2, 2), (3, 3, 3))
    ships = [shipment(1)]
    fit = fit_matrix(1, boxes, {0: (1,)})
    model = BoxTableCost({1: 5.0, 2: -0.0, 3: 7.0})
    cm = _assert_matches_reference(ships, fit, boxes, model, locked=(1,))
    assert cm.rows.tolist() == [0, 1] and cm.w.tolist() == [1.0, 1.0]
    assert math.copysign(1.0, cm.C[0, 1]) == -1.0 and math.copysign(1.0, cm.C[1, 1]) == 1.0


def test_a_cost_the_penalty_rounds_to_reads_as_the_penalty():
    # Row maxima 2**60 and 1.0 sum to 2**60, so gamma equals box 0's cost and
    # row 0 is the penalty everywhere but box 2, as row 1 is.
    boxes = boxes_by_volume((1, 1, 1), (2, 2, 2), (3, 3, 3))
    ships = [shipment(1), shipment(2)]
    fit = fit_matrix(2, boxes, {0: (0, 2), 1: (2,)})
    model = BoxTableCost({1: 2.0 ** 60, 2: 1.0, 3: 1.0})
    cm = _assert_matches_reference(ships, fit, boxes, model)
    assert cm.gamma == 2.0 ** 60 and cm.rows.tolist() == [0, 0]


def test_no_packables_give_lock_rows_only():
    boxes = boxes_by_volume((1, 1, 1), (2, 2, 2), (3, 3, 3))
    ships = [shipment(1), shipment(2)]
    fit = fit_matrix(2, boxes, {})
    cm = _assert_matches_reference(ships, fit, boxes, InnerVolumeCost())
    assert cm.C.shape == (0, 3) and cm.rows.size == 0 and cm.gamma == 1.0
    cm = _assert_matches_reference(ships, fit, boxes, InnerVolumeCost(), locked=(2, 0))
    assert cm.rows.tolist() == [0, 1] and cm.n_real == 0
    assert tuple(cm.C[0]) == (1.0, 1.0, 0.0) and tuple(cm.C[1]) == (0.0, 1.0, 1.0)


@pytest.mark.parametrize("model_kind", ["box-table", "pair-table"])
def test_the_first_invalid_cost_in_csr_order_raises_as_before(model_kind):
    rng = random.Random(21)
    raised = 0
    for _ in range(200):
        ships, fit, boxes, model, locked = _random_world(rng, model_kind)
        # Spoil a few entries: missing, negative or NaN.
        table = model.table
        for key in rng.sample(sorted(table), rng.randint(0, min(3, len(table)))):
            bad = rng.choice((None, -1.0, float("nan")))
            if bad is None:
                del table[key]
            else:
                table[key] = bad
        try:
            _dense_reference(ships, fit, boxes, model, locked)
        except DataError as exc:
            raised += 1
            with pytest.raises(DataError) as new:
                build_cost_matrix(ships, fit, boxes, model=model, locked=locked)
            assert str(new.value) == str(exc)
        else:
            _assert_matches_reference(ships, fit, boxes, model, locked)
    assert raised > 20


def test_pair_table_reports_the_first_bad_entry_in_row_then_column_order():
    boxes = boxes_by_volume((1, 1, 1), (2, 2, 2), (3, 3, 3))
    ships = [shipment(1), shipment(2)]
    fit = fit_matrix(2, boxes, {0: (1, 2), 1: (0,)})
    model = PairTableCost({(1, 2): 1.0, (1, 3): -2.0, (2, 1): float("nan")})
    with pytest.raises(DataError, match=r"invalid cost -2\.0 for shipment 1, box 3"):
        build_cost_matrix(ships, fit, boxes, model=model)
    del model.table[(1, 2)]
    with pytest.raises(DataError, match="no entry for shipment 1, box 2"):
        build_cost_matrix(ships, fit, boxes, model=model)
