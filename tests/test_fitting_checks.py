"""Fast-path checks: the scan's necessity screen (the exact test for one
carton), one-row stacking, the dual-feasible-function NO_FIT screen and the
normal-pattern box cut."""
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gendata
from boxsuite import fitmatrix
from boxsuite.fitmatrix import FitScanConfig, compute_fit_matrix
from boxsuite.fitting import (
    FitProblem,
    Placement,
    SolverConfig,
    check_witness,
    dff_refutes,
    fits_stacking,
    oracle_fit,
    solve_fit,
)
from boxsuite.fitting.checks import MAX_EXTENT_SUMS, extent_sums, normal_pattern_box
from boxsuite.fitting.types import carton_key
from boxsuite.model import (
    BoxSet,
    CandidateBox,
    Carton,
    Dims3,
    Shipment,
    canonical_dims,
    tolerance_for,
)

from conftest import five_to_seven_carton_world, passes_necessity, random_fit_problem


def test_single_free_examples():
    assert passes_necessity([Carton(Dims3(3, 7, 2))], Dims3(8, 3, 7))
    assert passes_necessity([Carton(Dims3(5, 4, 1))], Dims3(5, 4, 1))
    assert not passes_necessity([Carton(Dims3(9, 1, 1))], Dims3(8, 8, 8))


def test_single_height_oriented():
    # Height stays vertical: a 3-tall carton cannot lie down in a 1-tall box.
    tall = Carton(Dims3(1, 1, 3), height_oriented=True)
    assert not passes_necessity([tall], Dims3(3, 3, 1))
    assert passes_necessity([Carton(Dims3(1, 1, 3))], Dims3(3, 3, 1))
    assert passes_necessity([tall], Dims3(1, 1, 3))


def test_stacking_free_row():
    # Two 4x2x2 cartons side by side across the 4-wide axis.
    assert fits_stacking([Carton(Dims3(4, 2, 2))] * 2, Dims3(4, 4, 2))
    assert not fits_stacking([Carton(Dims3(4, 2, 2))] * 3, Dims3(4, 4, 2))


def test_stacking_bottom_resting_floor_row():
    two = [Carton(Dims3(2, 1, 1), bottom_resting=True)] * 2
    assert fits_stacking(two, Dims3(2, 2, 1))


def test_stacking_bottom_resting_blocks_height_stack():
    # Only a vertical stack would fit, but both cartons demand the floor.
    two = [Carton(Dims3(1, 1, 2), bottom_resting=True)] * 2
    assert not fits_stacking(two, Dims3(1, 1, 4))
    assert fits_stacking([Carton(Dims3(1, 1, 2))] * 2, Dims3(1, 1, 4))


def test_stacking_single_bottom_resting_takes_floor_slot():
    # One floor carton plus one free cube stack vertically; two floor cartons
    # cannot.
    br = Carton(Dims3(2, 2, 2), bottom_resting=True)
    free = Carton(Dims3(2, 2, 2))
    assert fits_stacking([br, free], Dims3(2, 2, 5))
    assert not fits_stacking([br, br], Dims3(2, 2, 5))


def test_stacking_keeps_the_declared_vertical_axis():
    # Two height-oriented 2x1 footprints, 1 tall: the declared 1x1x4 box is a
    # 4-tall chimney they cannot enter, though a 4x1x1 row would hold them.
    ho = [Carton(Dims3(2, 1, 1), height_oriented=True)] * 2
    assert not fits_stacking(ho, Dims3(1, 1, 4))
    assert fits_stacking(ho, Dims3(4, 1, 1))
    assert fits_stacking([Carton(Dims3(2, 1, 1))] * 2, Dims3(1, 1, 4))


def test_stacking_guard_rejects_oversized_member():
    # Sums alone would pass; the 5-long carton cannot fit at all.
    pair = [Carton(Dims3(5, 1, 1)), Carton(Dims3(1, 1, 1))]
    assert not fits_stacking(pair, Dims3(4, 4, 4))


def _stacking_reference(cartons, box):
    """``fits_stacking`` as three passes: oriented dims, then their sums and
    maxima, then the guard."""
    eps = tolerance_for(box)
    eff = [canonical_dims(c.dims.as_tuple(), c.pins_vertical) for c in cartons]
    sums = [sum(e[a] for e in eff) for a in range(3)]
    maxs = [max(e[a] for e in eff) for a in range(3)]
    bx = canonical_dims(box.as_tuple(), any(c.pins_vertical for c in cartons))
    if not all(maxs[a] <= bx[a] + eps for a in range(3)):
        return False
    if sums[0] <= bx[0] + eps or sums[1] <= bx[1] + eps:
        return True
    return sum(1 for c in cartons if c.bottom_resting) <= 1 and sums[2] <= bx[2] + eps


@given(
    cartons=st.lists(st.tuples(st.tuples(*[st.integers(1, 6)] * 3), st.booleans(), st.booleans()),
                     min_size=1, max_size=5),
    box=st.tuples(*[st.integers(1, 15)] * 3),
    nudge=st.tuples(*[st.sampled_from((-1.5, -0.5, 0.0, 0.5))] * 3),
    scale=st.sampled_from((1.0, 1e3)),
)
@settings(max_examples=400, deadline=None)
def test_stacking_matches_its_reference(cartons, box, nudge, scale):
    # integral dims sum exactly, so the reference's order of addition
    # cannot matter; the nudges put box axes within eps of those sums
    cs = [Carton(Dims3(*(scale * v for v in d)), height_oriented=ho, bottom_resting=br)
          for d, ho, br in cartons]
    unit = 1e-9 * scale * max(box)
    dims = Dims3(*(scale * v + k * unit for v, k in zip(box, nudge)))
    assert fits_stacking(cs, dims) is _stacking_reference(cs, dims)


def test_necessary_condition_mixed_shipment():
    # The free carton needs the box's tall axis; the HO carton needs the footprint.
    free = Carton(Dims3(8, 1, 1))
    ho = Carton(Dims3(2, 2, 2), height_oriented=True)
    assert passes_necessity([free, ho], Dims3(2, 2, 9))
    assert not passes_necessity([free, ho], Dims3(2, 2, 7))
    assert not passes_necessity([free, Carton(Dims3(3, 3, 1), height_oriented=True)],
                                Dims3(2, 2, 9))


def test_necessary_condition_ignores_bottom_resting():
    br = Carton(Dims3(1, 1, 2), bottom_resting=True)
    assert passes_necessity([br], Dims3(1, 1, 4))
    # A floor carton may still lie down: 3 tall, it fits the 3x1x1 box on its side.
    assert passes_necessity([Carton(Dims3(1, 1, 3), bottom_resting=True)], Dims3(3, 1, 1))


def test_stacking_sufficiency_random_audit():
    """fits_stacking=true must always be confirmed by the exhaustive oracle."""
    rng = random.Random(20240817)
    hits = 0
    for _ in range(300):
        prob = random_fit_problem(rng, n_range=(2, 4), ho_prob=0.3, br_prob=0.3)
        if fits_stacking(prob.cartons, prob.box):
            hits += 1
            assert oracle_fit(prob).is_fit
    assert hits > 20  # the audit actually exercised the true branch


def test_necessity_random_audit():
    rng = random.Random(9)
    for _ in range(300):
        prob = random_fit_problem(rng, n_range=(1, 4), ho_prob=0.3, br_prob=0.3)
        if not passes_necessity(prob.cartons, prob.box):
            assert not oracle_fit(prob).is_fit


@given(dims=st.tuples(*[st.integers(1, 6)] * 3), box=st.tuples(*[st.integers(1, 6)] * 3))
@settings(max_examples=200, deadline=None)
def test_single_free_is_rotation_invariant(dims, box):
    base = passes_necessity([Carton(Dims3(*dims))], Dims3(*box))
    rotated = passes_necessity([Carton(Dims3(dims[2], dims[0], dims[1]))],
                               Dims3(box[1], box[2], box[0]))
    assert base == rotated


# -- dual-feasible-function screen -----------------------------------------------


def test_dff_never_refutes_a_fit_in_the_corpora():
    problems = (gendata.fit_instances() + gendata.duplicate_fit_instances()
                + gendata.single_carton_instances())
    cfg = SolverConfig(time_limit=10.0)
    refuted = {"fit": 0, "no_fit": 0}
    no_fits = 0
    for prob in problems:
        verdict = solve_fit(prob, cfg)
        assert not verdict.timed_out
        no_fits += not verdict.is_fit
        if dff_refutes(prob):
            refuted[verdict.outcome.value] += 1
    assert refuted["fit"] == 0
    assert refuted["no_fit"] >= 0.9 * no_fits  # 789 of 807 when written


@st.composite
def scaled_problems(draw):
    """Up to four cartons on a non-integral grid, often with repeats."""
    scale = draw(st.sampled_from((0.1, 0.25, 0.3, 1.7)))
    dims = st.tuples(*[st.integers(1, 6)] * 3)
    kinds = draw(st.lists(dims, min_size=1, max_size=2))
    n = draw(st.integers(1, 4))
    cartons = tuple(
        Carton(Dims3(*(scale * v for v in draw(st.sampled_from(kinds)))),
               height_oriented=draw(st.booleans()),
               bottom_resting=draw(st.booleans()))
        for _ in range(n))
    box = draw(st.tuples(*[st.integers(1, 10)] * 3))
    return FitProblem(cartons, Dims3(*(scale * v for v in box)))


@given(prob=scaled_problems())
@settings(max_examples=300, deadline=None)
def test_dff_refutation_agrees_with_oracle(prob):
    if dff_refutes(prob):
        assert not oracle_fit(prob).is_fit


def test_dff_refutes_the_seven_slab_order():
    # The branch-and-bound needs about 51,000 nodes (2 s) to prove this.
    prob = FitProblem((Carton(Dims3(8, 5, 5)),) * 7, Dims3(17, 16, 7))
    assert dff_refutes(prob)
    boxes = BoxSet([CandidateBox(1, Dims3(17, 16, 7))])
    ship = Shipment(id=1, cartons=prob.cartons)
    cfg = FitScanConfig(solver=SolverConfig(time_limit=1.0))
    mat, _ = compute_fit_matrix([ship], boxes, cfg=cfg)
    assert mat.rows == ((),) and mat.timeouts == ()


def test_dff_keeps_tight_fits():
    for scale in (1.0, 0.1):
        cube = Carton(Dims3(5 * scale, 5 * scale, 5 * scale))
        box = Dims3(10 * scale, 10 * scale, 10 * scale)
        assert not dff_refutes(FitProblem((cube,) * 8, box))
        assert dff_refutes(FitProblem((cube,) * 9, box))


@pytest.mark.parametrize("lengths", [(2.0,) * 5, (3.0, 7.0), (2.5, 2.5, 5.0)])
def test_dff_keeps_witnesses_inside_the_tolerance(lengths):
    # A row along x that overfills the box by 0.9 (n+1) eps, laid out with
    # the overlaps and overhangs check_witness tolerates.
    box = Dims3(10, 10, 10)
    n = len(lengths)
    excess = 0.9 * (n + 1) * tolerance_for(box)
    lengths = lengths[:-1] + (lengths[-1] + excess,)
    cartons = tuple(Carton(Dims3(x, 10, 10), height_oriented=True) for x in lengths)
    prob = FitProblem(cartons, box)
    step = excess / (n + 1)
    witness, at = [], -step
    for k, x in enumerate(lengths):
        witness.append(Placement(k, (x, 10, 10), (at, 0.0, 0.0)))
        at += x - step
    assert check_witness(prob, witness)
    assert not dff_refutes(prob)


def test_dff_screen_does_not_change_scan_rows(monkeypatch):
    cfg = FitScanConfig(solver=SolverConfig(time_limit=30.0))
    verdicts = []

    def recording(prob):
        verdicts.append(dff_refutes(prob))
        return verdicts[-1]

    for seed in (13, 25, 29):
        boxes, ships = five_to_seven_carton_world(seed)
        monkeypatch.setattr("boxsuite.fitmatrix.dff_refutes", recording)
        on, _ = compute_fit_matrix(ships, boxes, cfg=cfg)
        monkeypatch.setattr("boxsuite.fitmatrix.dff_refutes", lambda prob: False)
        off, _ = compute_fit_matrix(ships, boxes, cfg=cfg)
        assert off.timeouts == ()
        assert on.rows == off.rows
    assert sum(verdicts) >= 10  # 14 of 73 screened pairs when written


# -- normal-pattern box cut -------------------------------------------------------


def _cut(prob):
    keys = sorted(map(carton_key, prob.cartons))
    sums = extent_sums(keys, max(prob.box.as_tuple()) + (prob.n + 1) * prob.eps)
    return normal_pattern_box(prob, sums)


def test_cut_examples():
    slabs = (Carton(Dims3(8, 5, 5)),) * 7
    assert _cut(FitProblem(slabs, Dims3(15, 12, 11))) == Dims3(15, 10, 10)
    # a height-oriented carton adds only its height upwards
    posts = (Carton(Dims3(4, 3, 2), height_oriented=True),) * 2
    assert _cut(FitProblem(posts, Dims3(9, 9, 9))) == Dims3(8, 8, 4)
    assert _cut(FitProblem(posts, Dims3(9, 9, 1))) is None
    free_posts = (Carton(Dims3(4, 3, 2)),) * 2
    assert _cut(FitProblem(free_posts, Dims3(9, 9, 9))) == Dims3(8, 8, 8)


@given(prob=scaled_problems())
@settings(max_examples=300, deadline=None)
def test_cut_keeps_the_oracle_verdict(prob):
    fits = oracle_fit(prob).is_fit
    cut = _cut(prob)
    if cut is None:
        assert not fits
    else:
        assert all(c <= d for c, d in zip(cut.as_tuple(), prob.box.as_tuple()))
        assert oracle_fit(FitProblem(prob.cartons, cut)).is_fit == fits


@pytest.mark.parametrize("lengths", [(2.0,) * 5, (3.0, 7.0), (2.5, 2.5, 5.0)])
def test_cut_keeps_witnesses_inside_the_tolerance(lengths):
    # a row along x that overfills the box by 0.9 (n+1) eps, as in
    # test_dff_keeps_witnesses_inside_the_tolerance, keeps the box's length
    box = Dims3(10, 10, 10)
    excess = 0.9 * (len(lengths) + 1) * tolerance_for(box)
    lengths = lengths[:-1] + (lengths[-1] + excess,)
    cartons = tuple(Carton(Dims3(x, 9.5, 10), height_oriented=True) for x in lengths)
    assert _cut(FitProblem(cartons, box)).a == box.a


def test_cut_does_not_change_scan_rows(monkeypatch):
    cfg = FitScanConfig(solver=SolverConfig(time_limit=30.0))
    cuts = []

    def recording(prob, sums):
        cut = normal_pattern_box(prob, sums)
        cuts.append(cut != prob.box)
        return cut

    for seed in (11, 13, 17, 25, 29):
        boxes, ships = five_to_seven_carton_world(seed)
        monkeypatch.setattr(fitmatrix, "normal_pattern_box", recording)
        on, _ = compute_fit_matrix(ships, boxes, cfg=cfg)
        monkeypatch.setattr(fitmatrix, "normal_pattern_box", lambda prob, sums: prob.box)
        off, _ = compute_fit_matrix(ships, boxes, cfg=cfg)
        assert on.timeouts == off.timeouts == ()
        assert on.rows == off.rows
    assert sum(cuts) >= 20  # 28 of 121 when written


def _spy(monkeypatch, name):
    calls = []
    real = getattr(fitmatrix, name)
    monkeypatch.setattr(fitmatrix, name, lambda *a: calls.append(a) or real(*a))
    return calls


def test_cut_refutes_the_seven_slab_order_in_the_tall_box(monkeypatch):
    # cut to 15x10x10, which the volume bound refutes; the uncut box took
    # the branch-and-bound about 370,000 nodes
    searches = _spy(monkeypatch, "solve_fit")
    boxes = BoxSet([CandidateBox(1, Dims3(15, 12, 11))])
    ships = [Shipment(id=1, cartons=(Carton(Dims3(8, 5, 5)),) * 7)]
    mat, _ = compute_fit_matrix(ships, boxes, cfg=FitScanConfig(
        solver=SolverConfig(time_limit=1.0)))
    assert mat.rows == ((),) and mat.timeouts == () and searches == []


def test_boxes_with_one_cut_share_a_memo_entry(monkeypatch):
    # both cut to 21x13x5; the second box is a memo hit
    screens = _spy(monkeypatch, "dff_refutes")
    boxes = BoxSet([CandidateBox(1, Dims3(21, 14, 5)), CandidateBox(2, Dims3(21, 14, 7))])
    ships = [Shipment(id=1, cartons=(Carton(Dims3(8, 5, 5)),) * 7)]
    mat, _ = compute_fit_matrix(ships, boxes)
    assert mat.rows == ((),)
    assert [prob.box for prob, in screens] == [Dims3(21, 13, 5)]


def _fractional_cartons(n, seed):
    # sizes as a unit conversion leaves them: no two subset sums coincide
    rng = random.Random(seed)
    return tuple(Carton(Dims3(*(rng.uniform(4, 12) for _ in range(3))))
                 for _ in range(n))


def test_extent_sums_stop_past_the_cap():
    keys = sorted(map(carton_key, _fractional_cartons(16, 1)))
    assert extent_sums(keys, 100.0) is None
    # seven free cartons never have more than 4^7 sums
    across, up = extent_sums(keys[:7], 100.0)
    assert len(across) == MAX_EXTENT_SUMS and up == across


def test_long_fractional_order_scans_within_the_time_limit(monkeypatch):
    # 16 distinct fractional cartons have tens of millions of extent sums
    # below the box's 60; the scan gives up on the cut instead of listing them
    sums = _spy(monkeypatch, "extent_sums")
    cartons = _fractional_cartons(16, 2)
    boxes = BoxSet([CandidateBox(1, Dims3(60, 60, 60))])
    start = time.monotonic()
    mat, _ = compute_fit_matrix([Shipment(id=1, cartons=cartons)], boxes, cfg=FitScanConfig(
        solver=SolverConfig(time_limit=0.5)))
    assert time.monotonic() - start < 5.0
    assert [len(keys) for keys, _ in sums] == [16]
    assert mat.rows == ((0,),)
