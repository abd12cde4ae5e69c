"""Exhaustive canonical-position oracle: frozen verdicts and witness validity."""
import random

from boxsuite.fitting import FitProblem, Outcome, check_witness, oracle_fit
from boxsuite.model import Carton, Dims3


def test_three_bricks_need_an_l_shape():
    # No single-axis stack works (6>2, 3>2, 3>2); the oracle finds the corner
    # arrangement (0,0,0), (0,1,0), (0,0,1).
    prob = FitProblem(tuple(Carton(Dims3(2, 1, 1)) for _ in range(3)), Dims3(2, 2, 2))
    verdict = oracle_fit(prob)
    assert verdict.outcome is Outcome.FIT
    assert check_witness(prob, verdict.witness)


def test_height_locked_pair_cannot_share_column():
    """A vertical 1x1x3 column plus a 3-long bar cannot both keep height fixed
    in a 3x1x3 box; freeing the bar's orientation makes it packable."""
    both = FitProblem(
        (Carton(Dims3(1, 1, 3), height_oriented=True),
         Carton(Dims3(3, 1, 1), height_oriented=True)),
        Dims3(3, 1, 3),
    )
    assert oracle_fit(both).outcome is Outcome.NO_FIT

    free_bar = FitProblem(
        (Carton(Dims3(1, 1, 3), height_oriented=True), Carton(Dims3(3, 1, 1))),
        Dims3(3, 1, 3),
    )
    verdict = oracle_fit(free_bar)
    assert verdict.outcome is Outcome.FIT
    assert check_witness(free_bar, verdict.witness)


def test_bottom_resting_pair_contends_for_floor():
    br = Carton(Dims3(1, 1, 2), bottom_resting=True)
    assert oracle_fit(FitProblem((br, br), Dims3(1, 1, 4))).outcome is Outcome.NO_FIT
    # Alone it simply stands on the floor.
    assert oracle_fit(FitProblem((br,), Dims3(1, 1, 4))).outcome is Outcome.FIT


def test_volume_prune_short_circuits():
    prob = FitProblem(tuple(Carton(Dims3(2, 2, 2)) for _ in range(4)), Dims3(3, 3, 3))
    verdict = oracle_fit(prob)
    assert verdict.outcome is Outcome.NO_FIT
    assert verdict.nodes == 0


def test_witnesses_respect_flags():
    rng = random.Random(4242)
    fits = 0
    for _ in range(200):
        n = rng.randint(1, 3)
        cartons = tuple(
            Carton(Dims3(*(rng.randint(1, 4) for _ in range(3))),
                   height_oriented=rng.random() < 0.4,
                   bottom_resting=rng.random() < 0.4)
            for _ in range(n)
        )
        prob = FitProblem(cartons, Dims3(*(rng.randint(2, 6) for _ in range(3))))
        verdict = oracle_fit(prob)
        if verdict.is_fit:
            fits += 1
            assert check_witness(prob, verdict.witness)
            for pl in verdict.witness:
                if prob.cartons[pl.carton].bottom_resting:
                    assert pl.origin[2] == 0.0
    assert fits > 50

