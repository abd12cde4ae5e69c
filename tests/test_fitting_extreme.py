"""Extreme-point packer: sound witnesses, and its place in the fit scan."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxsuite import fitmatrix
from boxsuite.cli import main
from boxsuite.fitmatrix import FitScanConfig, compute_fit_matrix
from boxsuite.fitting import (
    FitProblem,
    FitVerdict,
    Outcome,
    Placement,
    SolverConfig,
    check_witness,
    oracle_fit,
    pack_extreme_points,
    solve_fit,
)
from boxsuite.model import BoxSet, CandidateBox, Carton, Dims3, Shipment, save_boxes, save_shipments

ONE_SECOND = FitScanConfig(solver=SolverConfig(time_limit=1.0))
LONG = FitScanConfig(solver=SolverConfig(time_limit=60.0))

cartons_st = st.lists(
    st.tuples(st.tuples(*[st.integers(1, 4)] * 3), st.booleans(), st.booleans()),
    min_size=1, max_size=4)


@given(cartons=cartons_st, box=st.tuples(*[st.integers(1, 7)] * 3))
@settings(max_examples=150, deadline=None)
def test_witnesses_pass_the_check_and_the_oracle(cartons, box):
    prob = FitProblem(tuple(Carton(Dims3(*d), height_oriented=h, bottom_resting=b)
                            for d, h, b in cartons), Dims3(*box))
    witness = pack_extreme_points(prob)
    if witness is not None:
        assert check_witness(prob, witness)
        assert oracle_fit(prob).is_fit


def test_floor_and_height_rules():
    # Height-oriented slabs cannot stand up: they stack, unless they must
    # rest on the floor, and then only side by side fits.
    slab = Carton(Dims3(4, 2, 1), height_oriented=True)
    floor_slab = Carton(Dims3(4, 2, 1), height_oriented=True, bottom_resting=True)
    stacked = pack_extreme_points(FitProblem((slab, slab), Dims3(4, 2, 2)))
    assert sorted(pl.origin[2] for pl in stacked) == [0.0, 1.0]
    assert pack_extreme_points(FitProblem((floor_slab, slab), Dims3(4, 2, 2)))
    assert pack_extreme_points(FitProblem((floor_slab, floor_slab), Dims3(4, 2, 2))) is None
    side = pack_extreme_points(FitProblem((floor_slab, floor_slab), Dims3(4, 4, 2)))
    assert [pl.origin[2] for pl in side] == [0.0, 0.0]
    # A height-oriented pole cannot lie down in a flat box; a free one can.
    pole = Carton(Dims3(1, 1, 3), height_oriented=True)
    assert pack_extreme_points(FitProblem((pole,), Dims3(3, 1, 1))) is None
    assert pack_extreme_points(FitProblem((Carton(Dims3(1, 1, 3)),), Dims3(3, 1, 1)))


def test_answer_is_deterministic():
    prob = FitProblem(tuple(Carton(Dims3(8, 5, 5)) for _ in range(7)), Dims3(17, 12, 11))
    first = pack_extreme_points(prob)
    assert first is not None and pack_extreme_points(prob) == first


def _world(seed, n_boxes=12, n_ships=8):
    """Shipments of 5 to 7 cartons drawn from one to three kinds each."""
    rng = random.Random(seed)
    boxes = BoxSet([CandidateBox(i + 1, Dims3(*(rng.randint(4, 9) for _ in range(3))))
                    for i in range(n_boxes)])
    ships = []
    for sid in range(1, n_ships + 1):
        kinds = [tuple(rng.randint(1, 4) for _ in range(3)) for _ in range(rng.randint(1, 3))]
        cartons = tuple(Carton(Dims3(*rng.choice(kinds)),
                               height_oriented=rng.random() < 0.25,
                               bottom_resting=rng.random() < 0.2)
                        for _ in range(rng.randint(5, 7)))
        ships.append(Shipment(id=sid, cartons=cartons))
    return boxes, ships


@pytest.mark.parametrize("seed", [1, 6, 10, 11])
def test_scan_rows_do_not_depend_on_the_packer(seed, monkeypatch):
    boxes, ships = _world(seed)
    calls = []

    def counting(prob):
        witness = pack_extreme_points(prob)
        calls.append(witness is not None)
        return witness

    monkeypatch.setattr(fitmatrix, "pack_extreme_points", counting)
    on, _ = compute_fit_matrix(ships, boxes, cfg=LONG)
    assert any(calls) and not all(calls)
    monkeypatch.setattr(fitmatrix, "pack_extreme_points", lambda prob: None)
    off, _ = compute_fit_matrix(ships, boxes, cfg=LONG)
    assert on.rows == off.rows and not on.timeouts and not off.timeouts


@pytest.mark.parametrize("dims, box", [
    # about 92,000 and 200,000 branch-and-bound nodes without the packer
    ([(10, 6, 5)] * 2 + [(6, 6, 4)] * 4, (13, 12, 9)),
    ([(8, 5, 5)] * 7, (17, 12, 11)),
])
def test_packer_settles_long_fit_searches(dims, box, monkeypatch):
    searches = []
    monkeypatch.setattr(fitmatrix, "solve_fit",
                        lambda prob, cfg=None: searches.append(prob) or solve_fit(prob, cfg))
    boxes = BoxSet([CandidateBox(1, Dims3(*box))])
    ships = [Shipment(id=1, cartons=tuple(Carton(Dims3(*d)) for d in dims))]
    mat, _ = compute_fit_matrix(ships, boxes, cfg=ONE_SECOND)
    assert mat.rows == ((0,),) and mat.timeouts == ()
    assert searches == []


def test_unchecked_packer_witness_is_not_accepted(monkeypatch):
    # the search for these seven cartons in 9x7x6 is still open after 5 s
    # and about 665,000 nodes; a bogus witness must not settle it
    cartons = (Carton(Dims3(5, 3, 4)),) * 6 + (Carton(Dims3(4, 1, 1)),)
    bogus = tuple(Placement(i, c.dims.as_tuple(), (0.0, 0.0, 0.0))
                  for i, c in enumerate(cartons))
    monkeypatch.setattr(fitmatrix, "pack_extreme_points", lambda prob: bogus)
    boxes = BoxSet([CandidateBox(1, Dims3(9, 7, 6))])
    ships = [Shipment(id=1, cartons=cartons)]
    mat, _ = compute_fit_matrix(ships, boxes, cfg=FitScanConfig(
        solver=SolverConfig(time_limit=1e-3)))
    assert mat.rows == ((),) and mat.timeouts == ((1, 1),)


def _bogus_solver(monkeypatch):
    def solve(prob, cfg=None):
        return FitVerdict(Outcome.FIT, witness=tuple(
            Placement(i, c.dims.as_tuple(), (0.0, 0.0, 0.0))
            for i, c in enumerate(prob.cartons)))
    monkeypatch.setattr(fitmatrix, "solve_fit", solve)


def test_bad_search_witness_is_an_internal_error(monkeypatch, tmp_path):
    # four cubes in a 4x4x2 box reach the branch-and-bound
    boxes = BoxSet([CandidateBox(1, Dims3(4, 4, 2))])
    ships = [Shipment(id=1, cartons=tuple(Carton(Dims3(2, 2, 2)) for _ in range(4)))]
    assert compute_fit_matrix(ships, boxes)[0].rows == ((0,),)
    _bogus_solver(monkeypatch)
    with pytest.raises(RuntimeError, match="witness"):
        compute_fit_matrix(ships, boxes)
    bpath, spath = tmp_path / "b.csv", tmp_path / "s.csv"
    save_boxes(boxes, bpath)
    save_shipments(ships, spath)
    assert main(["fit", "--boxes", str(bpath), "--shipments", str(spath),
                 "--out", str(tmp_path / "fit.csv")]) == 3

