"""Branch-and-bound solver: frozen cases, oracle agreement, symmetry soundness."""
import random
import statistics

from hypothesis import given, settings
from hypothesis import strategies as st

from boxsuite.fitting import (
    FitProblem,
    Outcome,
    SolverConfig,
    check_witness,
    oracle_fit,
    solve_fit,
)
from boxsuite.model import Carton, Dims3

from conftest import random_fit_problem

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
        grown = FitProblem(prob.cartons, bigger,
                           enforce_ho=prob.enforce_ho, enforce_br=prob.enforce_br)
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


# Node counts of the search tree, recorded when the solver was first made
# faster: a speed-up must explore the same tree, not a different one.
RECORDED_TREES = [
    ((15, 12, 7), [((12, 8, 4), False), ((6, 5, 5), False), ((6, 5, 5), False),
                   ((9, 5, 2), True), ((9, 5, 2), True), ((9, 5, 2), True)],
     Outcome.FIT, 4339),
    ((15, 10, 7), [((10, 7, 2), False)] * 3 + [((8, 5, 5), False)] * 3, Outcome.NO_FIT, 2480),
    ((21, 8, 7), [((7, 6, 5), False)] * 2 + [((6, 6, 4), False)] * 2 + [((5, 4, 4), False)],
     Outcome.FIT, 4268),
    ((11, 10, 9), [((7, 6, 5), False)] * 2 + [((6, 6, 4), False)] * 2 + [((5, 4, 4), False)],
     Outcome.NO_FIT, 5065),
    ((13, 10, 5), [((5, 2, 2), False)] + [((9, 4, 3), False)] * 4, Outcome.FIT, 3751),
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
