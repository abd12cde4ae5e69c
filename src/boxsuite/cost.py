"""Penalized cost matrix tying the fit matrix to the facility-location solve.

Rows are the packable shipments (in scan order) plus one fake row per locked
box. A fake shipment ships for free in its locked box and at the penalty cost
everywhere else, which forces that box into any sub-penalty suite. The penalty
is one more than the sum of per-row maxima over fitting costs, so any suite
covering all packables (locked boxes included) costs strictly less than a
single penalty entry; coverage failures and lock violations are therefore
detectable from the objective value alone.

The matrix is kept as its distinct rows, each with its multiplicity, and a
map from every row to its distinct row. Rows are grouped straight from the
fit matrix's CSR slices, so the full matrix is never built: most packable
shipments repeat the fit pattern and costs of an earlier one.
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
    none); ``build_cost_matrix`` then prices every fitting pair in one gather.
    """

    def cost_for(self, shipment: Shipment, box: CandidateBox) -> float: ...


class InnerVolumeCost:
    """Ship each order at the box's inner volume; the paper-style default."""

    def cost_for(self, shipment: Shipment, box: CandidateBox) -> float:
        return box.volume

    def box_costs(self, boxes: BoxSet) -> np.ndarray:
        return boxes.volumes.copy()


class BoxTableCost:
    """Per-box cost table (outer volume, material weight, unit price, ...)."""

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
    """The distinct rows of the penalized cost matrix, with multiplicities.

    The full matrix has one row per packable shipment (in scan order), then
    one per locked box. ``C`` holds its distinct rows in first-occurrence
    order, ``w[r]`` counts the full rows equal to ``C[r]``, and ``rows[i]`` is
    the distinct row of full row i.
    """

    C: np.ndarray  # distinct rows x J
    w: np.ndarray  # multiplicity of each distinct row
    rows: np.ndarray  # distinct row of each real row, then of each lock row
    gamma: float
    fake_rows: int
    locked: tuple[int, ...]  # box indices, one per fake row
    row_shipment_ids: tuple[int, ...]  # real rows only

    @property
    def n_real(self) -> int:
        return len(self.row_shipment_ids)

    def __post_init__(self):
        if self.fake_rows != len(self.locked):
            raise DataError("one fake row per locked box required")
        if len(self.row_shipment_ids) != len(self.rows) - self.fake_rows:
            raise DataError("row id count does not match real row count")
        if self.w.shape != (self.C.shape[0],):
            raise DataError("one weight per distinct row required")


def build_cost_matrix(
    shipments: Sequence[Shipment],
    fit: FitMatrix,
    boxes: BoxSet,
    model: Optional[CostModel] = None,
    locked: Sequence[int] = (),
) -> CostMatrix:
    """Assemble the penalized cost matrix's distinct rows from the fit matrix
    and a cost model.

    Real rows are the fit matrix's nonempty rows in order. Model costs must
    be nonnegative and finite; under that precondition no fitting entry can
    exceed the penalty (the penalty exceeds the sum of all per-row maxima), so
    the sub-penalty structure the coverage argument needs holds by
    construction. Only fitting entries are asked for, each once, in CSR order,
    so the first invalid one raises; a box-only model (one with
    ``box_costs``) is priced in one gather and a box no packable shipment
    fits needs no cost.

    A row is the penalty everywhere but its fit pattern, so two rows are equal
    exactly when their patterns and the costs on them are. Rows are grouped by
    the bytes of those two slices, in first-occurrence order, and only the
    distinct rows are written out dense. A lock row is the pattern of its box
    at cost 0.0, so it merges with an earlier real row whose only fitting box
    is that locked box at cost 0.0 (not at -0.0, whose bytes differ).
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
    packable = np.array(W, dtype=np.int64)
    starts, ends = fit.indptr[packable], fit.indptr[packable + 1]
    cols = fit.indices  # every set bit lies in a packable row
    box_costs = getattr(model, "box_costs", None)
    if box_costs is None:
        costs = np.fromiter((_pair_cost(model, shipments[i], boxes[j])
                             for i in W for j in fit.row(i).tolist()),
                            dtype=np.float64, count=cols.size)
    else:
        vec = np.asarray(box_costs(boxes), dtype=np.float64)
        valid = np.isfinite(vec) & (vec >= 0)
        if not valid.all():
            fitting_valid = valid[cols]
            if not fitting_valid.all():
                # The first bad entry in CSR order raises the per-pair error.
                k = int(fitting_valid.argmin())
                i = int(np.searchsorted(fit.indptr, k, side="right")) - 1
                _pair_cost(model, shipments[i], boxes[int(cols[k])])
        costs = vec[cols]
    row_max = np.maximum.reduceat(costs, starts)
    gamma = float(row_max.sum()) + 1.0
    if (row_max == gamma).any():
        # A cost the penalty rounds to reads as the penalty, as a cell the
        # row does not fit does; leave it out of the row's key.
        below = costs != gamma
        kept = np.concatenate(([0], np.cumsum(below)))
        starts, ends = kept[starts], kept[ends]
        cols, costs = cols[below], costs[below]

    first: dict[tuple[bytes, bytes], int] = {}
    rows = np.empty(len(W) + len(locked), dtype=np.int64)
    spans = []  # (start, end) of each distinct real row
    for r, (a, b) in enumerate(zip(starts.tolist(), ends.tolist())):
        rows[r] = d = first.setdefault((cols[a:b].tobytes(), costs[a:b].tobytes()),
                                       len(first))
        if d == len(spans):
            spans.append((a, b))
    zero = np.zeros(1).tobytes()
    for f, t in enumerate(locked):
        rows[len(W) + f] = first.setdefault(
            (np.array([t], dtype=cols.dtype).tobytes(), zero), len(first))
    C = np.full((len(first), len(boxes)), gamma)
    for r, (a, b) in enumerate(spans):
        C[r, cols[a:b]] = costs[a:b]
    for f, t in enumerate(locked):
        C[rows[len(W) + f], t] = 0.0  # an earlier real row's cell is 0.0 already
    w = np.bincount(rows).astype(np.float64)
    ids = tuple(shipments[i].id for i in W)
    return CostMatrix(C=C, w=w, rows=rows, gamma=gamma, fake_rows=len(locked),
                      locked=locked, row_shipment_ids=ids)


def _pair_cost(model: CostModel, shipment: Shipment, box: CandidateBox) -> float:
    c = float(model.cost_for(shipment, box))
    if not math.isfinite(c) or c < 0:
        raise DataError(f"cost model produced invalid cost {c!r} for shipment "
                        f"{shipment.id}, box {box.id}")
    return c
