"""Problem/verdict types shared by all fitting deciders, plus the witness checker."""
from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import permutations
from typing import Optional, Sequence

from boxsuite.model import Carton, DataError, Dims3, canonical_dims, tolerance_for

__all__ = [
    "FitProblem",
    "FitVerdict",
    "Outcome",
    "Placement",
    "SolverConfig",
    "orientation_extents",
    "carton_key",
    "check_witness",
]


class Outcome(enum.Enum):
    FIT = "fit"
    NO_FIT = "no_fit"
    TIMED_OUT = "timed_out"


@dataclass(frozen=True)
class FitProblem:
    """Can these cartons be packed into this box?

    ``box`` dims are taken as given (unsorted); the third component,
    ``box.c``, is the vertical axis. Every carton's own flags apply: a
    height-oriented carton keeps its height vertical, a bottom-resting one
    stands on the floor. A carton built without a flag is free of that rule.
    """

    cartons: tuple[Carton, ...]
    box: Dims3

    def __post_init__(self) -> None:
        if len(self.cartons) < 1:
            raise DataError("fit problem needs at least one carton")

    @property
    def n(self) -> int:
        return len(self.cartons)

    @property
    def eps(self) -> float:
        return tolerance_for(self.box)


@dataclass(frozen=True)
class Placement:
    """One carton's placement: chosen axis extents and lower-left-bottom corner."""

    carton: int
    extents: tuple[float, float, float]
    origin: tuple[float, float, float]


@dataclass(frozen=True)
class FitVerdict:
    outcome: Outcome
    witness: Optional[tuple[Placement, ...]] = None
    nodes: int = 0
    wall_time: float = 0.0

    @property
    def is_fit(self) -> bool:
        return self.outcome is Outcome.FIT

    @property
    def timed_out(self) -> bool:
        return self.outcome is Outcome.TIMED_OUT


@dataclass(frozen=True)
class SolverConfig:
    """Branch-and-bound controls.

    Both symmetry-breaking families only prune symmetric duplicates; toggling
    them never changes the verdict. The first-orthant restriction goes on
    the smallest-volume carton.
    """

    time_limit: float = 5.0
    use_identical_symmetry: bool = True
    use_orthant_symmetry: bool = True

    def __post_init__(self) -> None:
        if not self.time_limit > 0:
            raise DataError("time_limit must be positive")


def orientation_extents(carton: Carton) -> tuple[tuple[float, float, float], ...]:
    """Allowed axis-extent triples for a carton (deduplicated, deterministic order).

    A free carton may use all 6 axis permutations; a height-oriented carton only
    the 2 that keep its height component vertical.
    """
    p, q, r = carton.dims.as_tuple()
    if carton.height_oriented:
        opts = {(p, q, r), (q, p, r)}
    else:
        opts = set(permutations((p, q, r)))
    return tuple(sorted(opts))


def carton_key(carton: Carton) -> tuple[bool, tuple[float, float, float], bool]:
    """Canonical identity of a carton under its HO/BR flags.

    Returns (height oriented, ``canonical_dims`` of its dims, bottom
    resting). Only height-orientation keeps the height third: bottom-resting
    limits position, not orientation. Two cartons with equal keys are
    interchangeable in every fit problem.
    """
    ho = bool(carton.height_oriented)
    return (ho, canonical_dims(carton.dims.as_tuple(), ho), bool(carton.bottom_resting))


def check_witness(problem: FitProblem, witness: Sequence[Placement]) -> bool:
    """Independent re-check of a claimed packing against every constraint."""
    eps = problem.eps
    if len(witness) != problem.n:
        return False
    if sorted(pl.carton for pl in witness) != list(range(problem.n)):
        return False
    box = problem.box.as_tuple()
    for pl in witness:
        carton = problem.cartons[pl.carton]
        if pl.extents not in orientation_extents(carton):
            return False
        if carton.bottom_resting and abs(pl.origin[2]) > eps:
            return False
        for axis in range(3):
            if pl.origin[axis] < -eps:
                return False
            if pl.origin[axis] + pl.extents[axis] > box[axis] + eps:
                return False
    for i in range(len(witness)):
        for k in range(i + 1, len(witness)):
            if not _disjoint(witness[i], witness[k], eps):
                return False
    return True


def _disjoint(a: Placement, b: Placement, eps: float) -> bool:
    for axis in range(3):
        if a.origin[axis] + a.extents[axis] <= b.origin[axis] + eps:
            return True
        if b.origin[axis] + b.extents[axis] <= a.origin[axis] + eps:
            return True
    return False
