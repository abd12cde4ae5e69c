"""Penalized cost matrix tying the fit matrix to the facility-location solve.

Rows are the packable shipments (in scan order) plus one fake row per locked
box. A fake shipment ships for free in its locked box and at the penalty cost
everywhere else, which forces that box into any sub-penalty suite. The penalty
is one more than the sum of per-row maxima over fitting costs, so any suite
covering all packables (locked boxes included) costs strictly less than a
single penalty entry; coverage failures and lock violations are therefore
detectable from the objective value alone.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Protocol, Sequence

import numpy as np

from boxsuite.fitmatrix import FitMatrix
from boxsuite.model import BoxSet, CandidateBox, DataError, Shipment

__all__ = [
    "CostModel",
    "InnerVolumeCost",
    "BoxTableCost",
    "PairTableCost",
    "CostMatrix",
    "build_cost_matrix",
    "load_box_cost_table",
    "load_pair_cost_table",
]


class CostModel(Protocol):
    """Cost of shipping one order in one box.

    A model whose cost depends on the box alone may also define
    ``box_costs(boxes) -> np.ndarray``, one cost per box (NaN where it has
    none); ``build_cost_matrix`` then fills whole rows at once.
    """

    model_id: str

    def cost_for(self, shipment: Shipment, box: CandidateBox) -> float: ...


class InnerVolumeCost:
    """Ship each order at the box's inner volume; the paper-style default."""

    model_id = "inner-volume"

    def cost_for(self, shipment: Shipment, box: CandidateBox) -> float:
        return box.volume

    def box_costs(self, boxes: BoxSet) -> np.ndarray:
        return boxes.volumes.copy()


class BoxTableCost:
    """Per-box cost table (outer volume, material weight, unit price, ...)."""

    model_id = "box-table"

    def __init__(self, table: dict[int, float]):
        self.table = dict(table)

    def cost_for(self, shipment: Shipment, box: CandidateBox) -> float:
        try:
            return self.table[box.id]
        except KeyError as exc:
            raise DataError(f"cost table has no entry for box {box.id}") from exc

    def box_costs(self, boxes: BoxSet) -> np.ndarray:
        return np.array([self.table.get(bx.id, np.nan) for bx in boxes.boxes],
                        dtype=np.float64)


class PairTableCost:
    """Externally supplied cost per (shipment, box) pair."""

    model_id = "pair-table"

    def __init__(self, table: dict[tuple[int, int], float]):
        self.table = dict(table)

    def cost_for(self, shipment: Shipment, box: CandidateBox) -> float:
        try:
            return self.table[(shipment.id, box.id)]
        except KeyError as exc:
            raise DataError(
                f"cost table has no entry for shipment {shipment.id}, box {box.id}"
            ) from exc


def load_box_cost_table(path: str | Path) -> BoxTableCost:
    return BoxTableCost(dict(_read_cost_rows(path, 2)))


def load_pair_cost_table(path: str | Path) -> PairTableCost:
    return PairTableCost({(s, b): c for (s, b), c in _read_cost_rows(path, 3)})


def _read_cost_rows(path: str | Path, ncols: int):
    path = Path(path)
    out = []
    with path.open(newline="") as fh:
        for lineno, cells in enumerate(csv.reader(fh), start=1):
            if not cells:
                continue
            if lineno == 1 and not _is_float(cells[-1]):
                continue  # header
            if len(cells) != ncols:
                raise DataError(f"{path}:{lineno}: expected {ncols} columns")
            try:
                ids = tuple(int(c) for c in cells[:-1])
                cost = float(cells[-1])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: malformed cost row") from exc
            out.append((ids if len(ids) > 1 else ids[0], cost))
    return out


def _is_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


@dataclass(frozen=True)
class CostMatrix:
    C: np.ndarray  # (I_hat + k) x J
    gamma: float
    fake_rows: int
    locked: tuple[int, ...]  # box indices, one per fake row
    row_shipment_ids: tuple[int, ...]  # real rows only
    model_id: str = "inner-volume"

    @property
    def n_real(self) -> int:
        return self.C.shape[0] - self.fake_rows

    def __post_init__(self):
        if self.fake_rows != len(self.locked):
            raise DataError("one fake row per locked box required")
        if len(self.row_shipment_ids) != self.C.shape[0] - self.fake_rows:
            raise DataError("row id count does not match real row count")


def build_cost_matrix(
    shipments: Sequence[Shipment],
    fit: FitMatrix,
    boxes: BoxSet,
    model: Optional[CostModel] = None,
    locked: Sequence[int] = (),
) -> CostMatrix:
    """Assemble the penalized cost matrix from the fit matrix and a cost model.

    Real rows are the fit matrix's nonempty rows in order. Model costs must
    be nonnegative and finite; under that precondition no fitting entry can
    reach the penalty (the penalty exceeds the sum of all per-row maxima), so
    the sub-penalty structure the coverage argument needs holds by
    construction. Only fitting entries are asked for, so a box-only model
    (one with ``box_costs``) is vectorized per row and a box no packable
    shipment fits needs no cost.
    """
    if model is None:
        model = InnerVolumeCost()
    locked = tuple(locked)
    if len(set(locked)) != len(locked):
        raise DataError("locked box indices must be unique")
    for t in locked:
        if not 0 <= t < len(boxes):
            raise DataError(f"locked box index {t} out of range")

    W = fit.packables().W
    I_hat, J = len(W), len(boxes)
    # NaN marks the cells no fitting cost is written to until gamma is known.
    C = np.full((I_hat + len(locked), J), np.nan)
    row_max = np.zeros(I_hat)
    box_costs = getattr(model, "box_costs", None)
    if box_costs is not None:
        vec = np.asarray(box_costs(boxes), dtype=np.float64)
        valid = np.isfinite(vec) & (vec >= 0)
    for r, i in enumerate(W):
        cols = fit.row(i)
        if box_costs is None:
            costs = np.array([_pair_cost(model, shipments[i], boxes[j])
                              for j in cols.tolist()])
        else:
            if not valid[cols].all():
                # The first bad entry in row order raises the per-pair error.
                _pair_cost(model, shipments[i], boxes[int(cols[np.argmin(valid[cols])])])
            costs = vec[cols]
        C[r, cols] = costs
        row_max[r] = costs.max()
    gamma = float(row_max.sum()) + 1.0
    for row in C[:I_hat]:
        row[np.isnan(row)] = gamma
    C[I_hat:] = gamma
    for f, t in enumerate(locked):
        C[I_hat + f, t] = 0.0
    ids = tuple(shipments[i].id for i in W)
    return CostMatrix(C=C, gamma=gamma, fake_rows=len(locked), locked=locked,
                      row_shipment_ids=ids, model_id=getattr(model, "model_id", "?"))


def _pair_cost(model: CostModel, shipment: Shipment, box: CandidateBox) -> float:
    c = float(model.cost_for(shipment, box))
    if not math.isfinite(c) or c < 0:
        raise DataError(f"cost model produced invalid cost {c!r} for shipment "
                        f"{shipment.id}, box {box.id}")
    return c
