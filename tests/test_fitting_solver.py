"""Branch-and-bound solver: frozen cases, oracle agreement, symmetry soundness."""
import random
import statistics

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boxsuite import fitmatrix
from boxsuite.fitmatrix import FitScanConfig, compute_fit_matrix
from boxsuite.fitting import (
    FitProblem,
    Outcome,
    SolverConfig,
    check_witness,
    oracle_fit,
    orientation_extents,
    solve_fit,
    solver,
)
from boxsuite.model import BoxSet, CandidateBox, Carton, Dims3, Shipment, tolerance_for

from conftest import five_to_seven_carton_world, random_fit_problem

GENEROUS = SolverConfig(time_limit=30.0)


def test_unit_cube_grid():
    cubes = lambda k: tuple(Carton(Dims3(1, 1, 1)) for _ in range(k))
    four = FitProblem(cubes(4), Dims3(2, 2, 1))
    verdict = solve_fit(four)
    assert verdict.outcome is Outcome.FIT
    assert check_witness(four, verdict.witness)
    # volume 5 > 4
    assert solve_fit(FitProblem(cubes(5), Dims3(2, 2, 1))).outcome is Outcome.NO_FIT


def test_single_carton_short_circuits():
    assert solve_fit(FitProblem((Carton(Dims3(2, 3, 1)),), Dims3(3, 2, 1))).is_fit
    assert solve_fit(FitProblem((Carton(Dims3(4, 1, 1)),), Dims3(3, 3, 3))).outcome is Outcome.NO_FIT


def test_height_locked_pair():
    both = FitProblem(
        (Carton(Dims3(1, 1, 3), height_oriented=True),
         Carton(Dims3(3, 1, 1), height_oriented=True)),
        Dims3(3, 1, 3),
    )
    assert solve_fit(both).outcome is Outcome.NO_FIT
    free_bar = FitProblem(
        (Carton(Dims3(1, 1, 3), height_oriented=True), Carton(Dims3(3, 1, 1))),
        Dims3(3, 1, 3),
    )
    assert solve_fit(free_bar).outcome is Outcome.FIT


def test_oracle_agreement_random_corpus():
    rng = random.Random(123)
    fits = 0
    for _ in range(250):
        prob = random_fit_problem(rng, n_range=(1, 4), ho_prob=0.25, br_prob=0.15,
                                  dup_prob=0.3)
        expected = oracle_fit(prob).outcome
        got = solve_fit(prob, GENEROUS)
        assert got.outcome is expected, (
            [c.dims.as_tuple() for c in prob.cartons],
            [(c.height_oriented, c.bottom_resting) for c in prob.cartons],
            prob.box.as_tuple())
        if got.is_fit:
            fits += 1
            assert check_witness(prob, got.witness)
    assert fits > 50


def test_symmetry_toggles_never_change_verdict():
    rng = random.Random(321)
    combos = [
        SolverConfig(time_limit=30.0, use_identical_symmetry=i, use_orthant_symmetry=o)
        for i in (True, False) for o in (True, False)
    ]
    for _ in range(60):
        prob = random_fit_problem(rng, n_range=(2, 4), dup_prob=0.6,
                                  ho_prob=0.2, br_prob=0.2)
        verdicts = [solve_fit(prob, cfg).outcome for cfg in combos]
        assert len(set(verdicts)) == 1, prob


def test_identical_cartons_prune_nodes():
    """Median node count with symmetry breaking on must not exceed off."""
    rng = random.Random(555)
    on, off = [], []
    for _ in range(40):
        base = Dims3(*(rng.randint(1, 3) for _ in range(3)))
        cartons = tuple(Carton(base) for _ in range(rng.randint(3, 5)))
        prob = FitProblem(cartons, Dims3(*(rng.randint(3, 6) for _ in range(3))))
        on.append(solve_fit(prob, SolverConfig(time_limit=30.0)).nodes)
        off.append(solve_fit(prob, SolverConfig(
            time_limit=30.0, use_identical_symmetry=False,
            use_orthant_symmetry=False)).nodes)
    assert statistics.median(on) <= statistics.median(off)


def test_time_limit_reports_timeout():
    cartons = tuple(Carton(Dims3(2, 2, 2)) for _ in range(6))
    prob = FitProblem(cartons, Dims3(6, 6, 2))
    verdict = solve_fit(prob, SolverConfig(time_limit=1e-9))
    assert verdict.outcome is Outcome.TIMED_OUT
    assert verdict.witness is None


def test_monotone_in_box_size():
    rng = random.Random(86)
    for _ in range(80):
        prob = random_fit_problem(rng, n_range=(2, 3), ho_prob=0.2, br_prob=0.2)
        if not solve_fit(prob, GENEROUS).is_fit:
            continue
        bigger = Dims3(prob.box.a + rng.randint(0, 2),
                       prob.box.b + rng.randint(0, 2),
                       prob.box.c + rng.randint(0, 2))
        grown = FitProblem(prob.cartons, bigger)
        assert solve_fit(grown, GENEROUS).is_fit


@given(
    dims=st.lists(st.tuples(*[st.integers(1, 4)] * 3), min_size=2, max_size=3),
    box=st.tuples(*[st.integers(2, 6)] * 3),
    perm=st.permutations([0, 1, 2]),
)
@settings(max_examples=60, deadline=None)
def test_rotation_invariance_free_cartons(dims, box, perm):
    """Permuting dims of free cartons and the box never changes the verdict."""
    base = FitProblem(tuple(Carton(Dims3(*d)) for d in dims), Dims3(*box))
    rotated = FitProblem(
        tuple(Carton(Dims3(*(d[perm[a]] for a in range(3)))) for d in dims),
        Dims3(*(box[perm[a]] for a in range(3))),
    )
    assert solve_fit(base, GENEROUS).outcome is solve_fit(rotated, GENEROUS).outcome


# Node counts of the search tree. A speed-up of the node rate must explore
# the same tree; a change to the pruning re-records the counts it changes.
RECORDED_TREES = [
    ((15, 12, 7), [((12, 8, 4), False), ((6, 5, 5), False), ((6, 5, 5), False),
                   ((9, 5, 2), True), ((9, 5, 2), True), ((9, 5, 2), True)],
     Outcome.FIT, 4339),
    ((15, 10, 7), [((10, 7, 2), False)] * 3 + [((8, 5, 5), False)] * 3, Outcome.NO_FIT, 2480),
    ((21, 8, 7), [((7, 6, 5), False)] * 2 + [((6, 6, 4), False)] * 2 + [((5, 4, 4), False)],
     Outcome.FIT, 32),
    ((11, 10, 9), [((7, 6, 5), False)] * 2 + [((6, 6, 4), False)] * 2 + [((5, 4, 4), False)],
     Outcome.NO_FIT, 5065),
    ((13, 10, 5), [((5, 2, 2), False)] + [((9, 4, 3), False)] * 4, Outcome.FIT, 3751),
    # no two of these cartons stack in a box 6 tall, so only undominated
    # footprints are searched
    ((17, 12, 6), [((10, 6, 5), False)] * 2 + [((6, 6, 4), False)] * 4, Outcome.NO_FIT, 1959),
]


def test_search_tree_matches_the_recorded_one():
    for box, cartons, outcome, nodes in RECORDED_TREES:
        prob = FitProblem(tuple(Carton(Dims3(*d), bottom_resting=br) for d, br in cartons),
                          Dims3(*box))
        verdict = solve_fit(prob, GENEROUS)
        assert (verdict.outcome, verdict.nodes) == (outcome, nodes), box
    # the witness of the first one, as recorded
    first = FitProblem(tuple(Carton(Dims3(*d), bottom_resting=br)
                             for d, br in RECORDED_TREES[0][1]), Dims3(15, 12, 7))
    assert [(pl.extents, pl.origin) for pl in solve_fit(first, GENEROUS).witness] == [
        ((8.0, 12.0, 4.0), (2.0, 0.0, 2.0)), ((5.0, 6.0, 5.0), (10.0, 0.0, 2.0)),
        ((5.0, 6.0, 5.0), (10.0, 6.0, 2.0)), ((2.0, 9.0, 5.0), (0.0, 0.0, 0.0)),
        ((5.0, 9.0, 2.0), (2.0, 0.0, 0.0)), ((5.0, 9.0, 2.0), (7.0, 0.0, 0.0))]


# -- root orientation reduction ---------------------------------------------------


@st.composite
def thin_box_problems(draw):
    """Two to four cartons in a box with one axis shorter than twice every
    carton's smallest dim, so that no two cartons are separated along it."""
    scale = draw(st.sampled_from((0.25, 1.7)))
    kinds = draw(st.lists(st.tuples(*[st.integers(2, 6)] * 3), min_size=1, max_size=3))
    dims = [draw(st.sampled_from(kinds)) for _ in range(draw(st.integers(2, 4)))]
    cartons = tuple(
        Carton(Dims3(*(scale * v for v in d)),
               height_oriented=draw(st.booleans()), bottom_resting=draw(st.booleans()))
        for d in dims)
    box = list(draw(st.tuples(*[st.integers(5, 12)] * 3)))
    least = min(min(d) for d in dims)
    box[draw(st.integers(0, 2))] = draw(st.integers(least, 2 * least - 1))
    return FitProblem(cartons, Dims3(*(scale * v for v in box)))


_drop_dominated = solver._drop_dominated_orientations


def _record_reductions(monkeypatch, fired):
    def recording(options, box, eps):
        reduced = _drop_dominated(options, box, eps)
        fired.append(reduced != options)
        return reduced
    monkeypatch.setattr(solver, "_drop_dominated_orientations", recording)


def test_orientation_reduction_keeps_the_oracle_verdict(monkeypatch):
    fired, examples = [], []
    _record_reductions(monkeypatch, fired)

    @given(prob=thin_box_problems())
    @settings(max_examples=300, deadline=None)
    def agrees(prob):
        before = len(fired)
        got = solve_fit(prob, GENEROUS)
        examples.append(any(fired[before:]))
        assert got.outcome is oracle_fit(prob).outcome
        if got.is_fit:
            assert check_witness(prob, got.witness)

    agrees()
    assert sum(examples) >= len(examples) // 10  # 16% to 33% in six runs when written


# -- root screens -------------------------------------------------------------


@st.composite
def root_options(draw):
    """One to five cartons' allowed orientations in a box, as the root builds
    them, with the box eps. Box axes are drawn near sums of two extents and
    nudged by a fraction of eps, so many comparisons fall within eps."""
    scale = draw(st.sampled_from((1.0, 1e3)))
    kinds = draw(st.lists(st.tuples(*[st.integers(1, 6)] * 3), min_size=1, max_size=3))
    cartons = [Carton(Dims3(*(scale * v for v in draw(st.sampled_from(kinds)))),
                      height_oriented=draw(st.booleans()), bottom_resting=draw(st.booleans()))
               for _ in range(draw(st.integers(1, 5)))]
    box = [scale * draw(st.integers(2, 12)) for _ in range(3)]
    unit = 1e-9 * max(box)
    box = tuple(v + draw(st.sampled_from((-1.5, -0.5, 0.0, 0.5, 1.5))) * unit for v in box)
    eps = tolerance_for(Dims3(*box))
    options = [[e for e in orientation_extents(c) if all(e[a] <= box[a] + eps for a in range(3))]
               for c in cartons]
    assume(all(options))
    return options, box, eps


def _separable(ei, ek, box, eps):
    return any(ei[a] + ek[a] <= box[a] + eps for a in range(3))


@given(case=root_options())
@settings(max_examples=400, deadline=None)
def test_pair_screen_is_the_orientation_pair_search(case):
    options, box, eps = case
    n = len(options)
    brute = any(not any(_separable(ei, ek, box, eps) for ei in options[i] for ek in options[k])
                for i in range(n) for k in range(i + 1, n))
    bounds = tuple(v + eps for v in box)
    assert solver._pair_screen_refutes(solver._smallest_extents(options), bounds) is brute


def _meeting_axes_brute(low, box, eps):
    n = len(low)
    return [[a for a in range(3)
             if not any(low[i][a] + low[k][a] <= box[a] + eps for k in range(n) if k != i)]
            for i in range(n)]


@given(case=root_options())
@settings(max_examples=400, deadline=None)
def test_meeting_axes_is_the_all_pairs_rule(case):
    options, box, eps = case
    low = [[min(e[a] for e in opts) for a in range(3)] for opts in options]
    bounds = tuple(v + eps for v in box)
    assert solver._meeting_axes(low, bounds) == _meeting_axes_brute(low, box, eps)
    reference = []
    for opts, axes in zip(options, _meeting_axes_brute(low, box, eps)):
        for a in axes:
            b, c = (a + 1) % 3, (a + 2) % 3
            opts = [e for e in opts
                    if not any(f != e and f[b] <= e[b] and f[c] <= e[c] for f in opts)]
        reference.append(opts)
    assert solver._drop_dominated_orientations(options, box, eps) == reference


def test_a_lone_carton_meets_no_other_on_every_axis():
    # with no other carton the rule holds vacuously, so the reduction runs
    assert solver._meeting_axes([(1.0, 2.0, 3.0)], (1.0, 1.0, 1.0)) == [[0, 1, 2]]
    options = [list(orientation_extents(Carton(Dims3(1, 2, 3))))]
    assert solver._drop_dominated_orientations(options, (3.0, 3.0, 3.0), 0.0) == [[(3, 2, 1)]]


def test_root_screens_decide_within_eps():
    # two 3-cubes side by side along an axis eps/2 short of 6: they share
    # the box only through eps, and never along the 4-long axes
    box = (6.0 - 0.5 * 6e-9, 4.0, 4.0)
    eps = tolerance_for(Dims3(*box))
    bounds = tuple(v + eps for v in box)
    assert not solver._pair_screen_refutes([(3.0, 3.0, 3.0)] * 2, bounds)
    assert solver._pair_screen_refutes([(3.0, 3.0, 3.0)] * 2, box)
    assert solver._meeting_axes([(3.0, 3.0, 3.0)] * 2, bounds) == [[1, 2], [1, 2]]
    two = FitProblem((Carton(Dims3(3, 3, 3)),) * 2, Dims3(*box))
    verdict = solve_fit(two, GENEROUS)
    assert verdict.is_fit and check_witness(two, verdict.witness)


def _flat_box_world(seed):
    """Twelve boxes with one axis of 4 to 7 and eight orders of 4 to 6 cartons
    of 3 to 6 a side, so that few cartons are separated along the short axis."""
    rng = random.Random(seed)
    boxes = []
    for i in range(12):
        dims = [rng.randint(8, 16) for _ in range(3)]
        dims[rng.randint(0, 2)] = rng.randint(4, 7)
        boxes.append(CandidateBox(i + 1, Dims3(*dims)))
    ships = []
    for sid in range(1, 9):
        kinds = [tuple(rng.randint(3, 6) for _ in range(3))
                 for _ in range(rng.randint(1, 3))]
        ships.append(Shipment(id=sid, cartons=tuple(
            Carton(Dims3(*rng.choice(kinds)), height_oriented=rng.random() < 0.2)
            for _ in range(rng.randint(4, 6)))))
    return BoxSet(boxes), ships


def test_orientation_reduction_does_not_change_scan_rows(monkeypatch):
    cfg = FitScanConfig(solver=SolverConfig(time_limit=30.0))
    fired = []
    worlds = [five_to_seven_carton_world(seed) for seed in (11, 13, 17, 25, 29)]
    worlds += [_flat_box_world(seed) for seed in (2, 3, 4, 7, 8)]
    for boxes, ships in worlds:
        _record_reductions(monkeypatch, fired)
        on, _ = compute_fit_matrix(ships, boxes, cfg=cfg)
        monkeypatch.setattr(solver, "_drop_dominated_orientations",
                            lambda options, box, eps: options)
        off, _ = compute_fit_matrix(ships, boxes, cfg=cfg)
        assert on.timeouts == off.timeouts == ()
        assert on.rows == off.rows
    assert sum(fired) >= 30  # 69 of 146 searches when written


def test_scan_proves_the_flat_two_slab_order_in_few_nodes(monkeypatch):
    # cut to 17x12x6, where no two of these cartons stack; searched over
    # all their orientations, the proof takes about 190,000 nodes
    verdicts = []
    monkeypatch.setattr(fitmatrix, "solve_fit", lambda prob, cfg=None: (
        verdicts.append(solve_fit(prob, cfg)) or verdicts[-1]))
    dims = [(10, 6, 5)] * 2 + [(6, 6, 4)] * 4
    boxes = BoxSet([CandidateBox(1, Dims3(17, 12, 7))])
    ships = [Shipment(id=1, cartons=tuple(Carton(Dims3(*d)) for d in dims))]
    mat, _ = compute_fit_matrix(ships, boxes)
    assert mat.rows == ((),) and mat.timeouts == ()
    assert [v.outcome for v in verdicts] == [Outcome.NO_FIT]
    assert verdicts[0].nodes < 5000
