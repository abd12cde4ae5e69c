"""The two-carton exact solver, and the search on the triples the scan sends
it, against frozen cases and the oracle."""
import random

import pytest

from boxsuite.fitting import (
    FitProblem,
    Outcome,
    SolverConfig,
    check_witness,
    fits_exact_small,
    oracle_fit,
    solve_fit,
)
from boxsuite.model import Carton, Dims3, DataError

from conftest import random_fit_problem

GENEROUS = SolverConfig(time_limit=30.0)


def decide(prob):
    """The scan's exact decision: pairs in closed form, triples by search."""
    return fits_exact_small(prob) if prob.n == 2 else solve_fit(prob, GENEROUS)


def test_two_cubes_axis_separation():
    cubes = tuple(Carton(Dims3(2, 2, 2)) for _ in range(2))
    fit = fits_exact_small(FitProblem(cubes, Dims3(4, 2, 2)))
    assert fit.outcome is Outcome.FIT
    assert check_witness(FitProblem(cubes, Dims3(4, 2, 2)), fit.witness)
    # 3x3x3 leaves no axis with room for a 4-long pair.
    assert fits_exact_small(FitProblem(cubes, Dims3(3, 3, 3))).outcome is Outcome.NO_FIT


def test_three_bricks_corner_case():
    prob = FitProblem(tuple(Carton(Dims3(2, 1, 1)) for _ in range(3)), Dims3(2, 2, 2))
    verdict = solve_fit(prob, GENEROUS)
    assert verdict.outcome is Outcome.FIT
    assert check_witness(prob, verdict.witness)


def test_two_bottom_resting_cannot_stack():
    br = Carton(Dims3(1, 1, 2), bottom_resting=True)
    assert fits_exact_small(FitProblem((br, br), Dims3(1, 1, 4))).outcome is Outcome.NO_FIT
    # One free companion may ride on top of the floor carton.
    pair = (br, Carton(Dims3(1, 1, 2)))
    verdict = fits_exact_small(FitProblem(pair, Dims3(1, 1, 4)))
    assert verdict.outcome is Outcome.FIT
    assert check_witness(FitProblem(pair, Dims3(1, 1, 4)), verdict.witness)


def test_wrong_carton_count_rejected():
    quad = FitProblem(tuple(Carton(Dims3(1, 1, 1)) for _ in range(4)), Dims3(2, 2, 2))
    with pytest.raises(DataError):
        fits_exact_small(quad)
    single = FitProblem((Carton(Dims3(1, 1, 1)),), Dims3(2, 2, 2))
    with pytest.raises(DataError):
        fits_exact_small(single)
    triple = FitProblem(tuple(Carton(Dims3(1, 1, 1)) for _ in range(3)), Dims3(2, 2, 2))
    with pytest.raises(DataError):
        fits_exact_small(triple)


def test_agreement_with_oracle():
    rng = random.Random(77)
    for _ in range(250):
        prob = random_fit_problem(rng, n_range=(2, 3), ho_prob=0.3, br_prob=0.3)
        expected = oracle_fit(prob).outcome
        got = decide(prob)
        assert got.outcome is expected, (
            [c.dims.as_tuple() for c in prob.cartons], prob.box.as_tuple())
        if got.is_fit:
            assert check_witness(prob, got.witness)
