import random

from boxsuite.fitmatrix import FitScanConfig, _ShipmentScanner, compute_nest_sets
from boxsuite.fitting import FitProblem, carton_key
from boxsuite.model import BoxSet, CandidateBox, Carton, Dims3, Shipment


def random_fit_problem(rng: random.Random, n_range=(1, 4), dim_max=5, box_max=8,
                       ho_prob=0.25, br_prob=0.15, dup_prob=0.0) -> FitProblem:
    """Seeded random instance in the shape the fitting corpus uses."""
    n = rng.randint(*n_range)
    cartons = []
    for _ in range(n):
        dims = Dims3(*(rng.randint(1, dim_max) for _ in range(3)))
        cartons.append(Carton(dims,
                              height_oriented=rng.random() < ho_prob,
                              bottom_resting=rng.random() < br_prob))
    if n >= 2 and rng.random() < dup_prob:
        cartons[1] = cartons[0]
    box = Dims3(*(rng.randint(2, box_max) for _ in range(3)))
    return FitProblem(tuple(cartons), box)


def one_box_scanner(box: Dims3) -> _ShipmentScanner:
    """The fit scan's scanner over a set holding just ``box``, as declared
    (``box.c`` vertical)."""
    boxes = BoxSet([CandidateBox(1, box)])
    return _ShipmentScanner(boxes, compute_nest_sets(boxes), FitScanConfig())


def passes_necessity(cartons, box: Dims3) -> bool:
    """The scan's per-carton necessity screen for ``cartons`` in ``box``."""
    keys = tuple(sorted(map(carton_key, cartons)))
    return bool(one_box_scanner(box)._necessity(keys)[1][0])


def five_to_seven_carton_world(seed):
    """Twelve boxes and eight orders of 5 to 7 cartons, from one to three kinds each."""
    rng = random.Random(seed)
    boxes = BoxSet([CandidateBox(i + 1, Dims3(*(rng.randint(4, 10) for _ in range(3))))
                    for i in range(12)])
    ships = []
    for sid in range(1, 9):
        n = rng.randint(5, 7)
        kinds = [tuple(rng.randint(1, 5) for _ in range(3))
                 for _ in range(rng.randint(1, 3))]
        ships.append(Shipment(id=sid, cartons=tuple(
            Carton(Dims3(*rng.choice(kinds)), height_oriented=rng.random() < 0.2)
            for _ in range(n))))
    return boxes, ships
