"""Penalized cost matrix construction."""
import itertools
import random

import numpy as np
import pytest

from boxsuite.cost import (
    BoxTableCost,
    InnerVolumeCost,
    build_cost_matrix,
    load_pair_cost_table,
)
from boxsuite.fitmatrix import FitMatrix
from boxsuite.model import BoxSet, CandidateBox, Carton, DataError, Dims3, Shipment


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
    assert tuple(cm.C[0]) == (36.0, 8.0, 27.0)
    assert tuple(cm.C[1]) == (36.0, 8.0, 36.0)
    assert cm.fake_rows == 0 and cm.row_shipment_ids == (1, 2)


def test_fake_row_for_locked_box():
    boxes = boxes_by_volume(*[(1, 1, k) for k in range(1, 7)])
    ships = [shipment(1)]
    fit = fit_matrix(1, boxes, {0: (5,)})
    cm = build_cost_matrix(ships, fit, boxes, locked=(4,))
    g = cm.gamma
    assert tuple(cm.C[1]) == (g, g, g, g, 0.0, g)
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
        self.model_id = model.model_id
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
    assert tuple(cm.C[0]) == (1.0, 2.0, cm.gamma)


def test_pair_table_model(tmp_path):
    table = tmp_path / "pairs.csv"
    table.write_text("shipment_id,box_id,cost\n7,1,2.5\n7,2,4.0\n")
    model = load_pair_cost_table(table)
    boxes = boxes_by_volume((1, 1, 1), (2, 2, 2))
    fit = fit_matrix(1, boxes, {0: (0, 1)})
    cm = build_cost_matrix([shipment(7)], fit, boxes, model=model)
    assert tuple(cm.C[0]) == (2.5, 4.0)
    assert cm.gamma == 5.0 and cm.model_id == "pair-table"


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
        _, opt_base = _brute_force_optima(base.C, p)
        _, opt_scaled = _brute_force_optima(scaled.C, p)
        assert opt_base == opt_scaled
