"""Domain types and CSV ingestion for box-suite optimization.

Value types are immutable. Dimensions are real-valued; integral datasets are a
special case. All downstream comparisons use an absolute tolerance derived from
the box scale (see :func:`tolerance_for`).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "Dims3",
    "Carton",
    "Shipment",
    "CandidateBox",
    "BoxSet",
    "DataError",
    "canonical_dims",
    "sort3",
    "liquid_volume",
    "tolerance_for",
    "load_boxes",
    "load_shipments",
    "save_boxes",
    "save_shipments",
    "enumerate_box_grid",
]


class DataError(ValueError):
    """Raised for malformed or inconsistent input data."""


@dataclass(frozen=True)
class Dims3:
    """An axis-aligned extent triple, strictly positive."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        for v in (self.a, self.b, self.c):
            if not (v > 0 and np.isfinite(v)):
                raise DataError(f"dimensions must be positive and finite, got {self!r}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)

    @property
    def volume(self) -> float:
        return self.a * self.b * self.c


def canonical_dims(dims: tuple, keep_height: bool) -> tuple:
    """A carton or box dims triple up to rotation: all three dims sorted
    nonincreasing, or with ``keep_height`` only the first two, the third
    (the vertical axis) kept in place."""
    a, b, c = dims
    if a < b:
        a, b = b, a
    if not keep_height and b < c:
        b, c = c, b
        if a < b:
            a, b = b, a
    return (a, b, c)


def sort3(d: Dims3) -> Dims3:
    """Nonincreasing permutation of a dimension triple."""
    return Dims3(*canonical_dims(d.as_tuple(), False))


@dataclass(frozen=True)
class Carton:
    """A rigid rectangular item.

    ``height_oriented``: the third dim component is the height and must stay
    vertical when packed (2 allowed rotations instead of 6).
    ``bottom_resting``: the carton must sit on the box floor (z = 0).
    """

    dims: Dims3
    height_oriented: bool = False
    bottom_resting: bool = False

    @property
    def pins_vertical(self) -> bool:
        """Height-oriented or bottom-resting. The stacking rows and the nest
        fill keep such a carton's height vertical (a floor carton could tip
        over, but need not); necessity and ``carton_key`` read
        ``height_oriented`` alone, as bottom-resting limits position only."""
        return bool(self.height_oriented or self.bottom_resting)


@dataclass(frozen=True)
class Shipment:
    """One order: a multiset of at least one carton."""

    id: int
    cartons: tuple[Carton, ...] = ()

    def __post_init__(self) -> None:
        if not self.cartons:
            raise DataError(f"shipment {self.id} has no items")

    @property
    def n_cartons(self) -> int:
        return len(self.cartons)


def liquid_volume(s: Shipment) -> float:
    """Total outer volume of the shipment's cartons."""
    return sum(c.dims.volume for c in s.cartons)


def tolerance_for(box: Dims3) -> float:
    """Absolute comparison tolerance for geometry involving this box."""
    return 1e-9 * max(box.as_tuple())


@dataclass(frozen=True)
class CandidateBox:
    """A candidate shipping box described by its inner dimensions."""

    id: int
    inner: Dims3

    @property
    def volume(self) -> float:
        return self.inner.volume


class BoxSet:
    """Candidate boxes sorted by nondecreasing inner volume, with optional locks.

    ``locked`` holds indices into the sorted order; the boxes they denote must
    appear in any recommended suite.
    """

    def __init__(self, boxes: Iterable[CandidateBox], locked_ids: Iterable[int] = ()):
        ordered = sorted(boxes, key=lambda bx: bx.volume)
        if not ordered:
            raise DataError("box set is empty")
        ids = [bx.id for bx in ordered]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise DataError(f"duplicate box ids: {dupes}")
        self.boxes: tuple[CandidateBox, ...] = tuple(ordered)
        self._index_by_id = {bx.id: j for j, bx in enumerate(self.boxes)}
        self.locked: tuple[int, ...] = tuple(self.index_of(i) for i in locked_ids)
        if len(set(self.locked)) != len(self.locked):
            raise DataError("duplicate locked box ids")
        # Dense geometry arrays used by the fitting/nesting scans.
        self.volumes = np.array([bx.volume for bx in self.boxes], dtype=np.float64)
        inner = [bx.inner.as_tuple() for bx in self.boxes]
        self.dims = np.array(inner, dtype=np.float64)
        free, kept = zip(*[(canonical_dims(d, False), canonical_dims(d, True)) for d in inner])
        self.sorted_dims = np.array(free, dtype=np.float64)  # per-box nonincreasing
        self.sorted_lw_dims = np.array(kept, dtype=np.float64)  # LW sorted, height kept

    def __len__(self) -> int:
        return len(self.boxes)

    def __iter__(self):
        return iter(self.boxes)

    def __getitem__(self, j: int) -> CandidateBox:
        return self.boxes[j]

    def index_of(self, box_id: int) -> int:
        try:
            return self._index_by_id[box_id]
        except KeyError:
            raise DataError(f"unknown box id {box_id}") from None

    @property
    def ids(self) -> list[int]:
        return [bx.id for bx in self.boxes]

    def with_locked_ids(self, locked_ids: Iterable[int]) -> "BoxSet":
        return BoxSet(self.boxes, locked_ids)


# ---------------------------------------------------------------------------
# CSV ingestion


def _read_rows(path: Path, expected_cols: int, optional_cols: int = 0):
    """Yield (line_number, cells) for data rows; a leading header row is skipped."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            cells = [cell.strip() for cell in row]
            if lineno == 1 and not _is_number(cells[0]):
                continue  # header
            if not (expected_cols <= len(cells) <= expected_cols + optional_cols):
                raise DataError(
                    f"{path}:{lineno}: expected {expected_cols}"
                    + (f"-{expected_cols + optional_cols}" if optional_cols else "")
                    + f" columns, got {len(cells)}"
                )
            yield lineno, cells


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def _parse_num(path: Path, lineno: int, cell: str, what: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise DataError(f"{path}:{lineno}: bad {what} {cell!r}") from None


def _parse_int(path: Path, lineno: int, cell: str, what: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise DataError(f"{path}:{lineno}: bad {what} {cell!r}") from None


def _parse_dims(path: Path, lineno: int, cells: Sequence[str]) -> Dims3:
    vals = [_parse_num(path, lineno, c, "dimension") for c in cells]
    if any(v <= 0 for v in vals):
        raise DataError(f"{path}:{lineno}: nonpositive dimension in {vals}")
    return Dims3(*vals)


def load_boxes(path: str | Path) -> BoxSet:
    """Load ``box_id,dim1,dim2,dim3`` rows; dims are re-sorted nonincreasing."""
    path = Path(path)
    boxes = []
    for lineno, cells in _read_rows(path, 4):
        box_id = _parse_int(path, lineno, cells[0], "box id")
        dims = sort3(_parse_dims(path, lineno, cells[1:4]))
        boxes.append(CandidateBox(box_id, dims))
    return BoxSet(boxes)


def load_shipments(path: str | Path, items_path: Optional[str | Path] = None) -> list[Shipment]:
    """Load ``shipment_id,item_id,quantity,dim1,dim2,dim3[,ho,br]`` rows.

    Rows sharing a shipment id are grouped (order of first appearance) and item
    quantities are expanded into repeated cartons. When an items file
    (``item_id,dim1,dim2,dim3``) is supplied, row dims are checked against it.
    """
    path = Path(path)
    item_dims: dict[int, Dims3] = {}
    if items_path is not None:
        items_path = Path(items_path)
        for lineno, cells in _read_rows(items_path, 4):
            item_id = _parse_int(items_path, lineno, cells[0], "item id")
            item_dims[item_id] = _parse_dims(items_path, lineno, cells[1:4])

    order: list[int] = []
    grouped: dict[int, list[Carton]] = {}
    for lineno, cells in _read_rows(path, 6, optional_cols=2):
        ship_id = _parse_int(path, lineno, cells[0], "shipment id")
        item_id = _parse_int(path, lineno, cells[1], "item id")
        qty = _parse_int(path, lineno, cells[2], "quantity")
        if qty < 1:
            raise DataError(f"{path}:{lineno}: quantity must be >= 1, got {qty}")
        dims = _parse_dims(path, lineno, cells[3:6])
        ho = br = False
        if len(cells) >= 7:
            ho = _parse_int(path, lineno, cells[6], "ho flag") != 0
        if len(cells) == 8:
            br = _parse_int(path, lineno, cells[7], "br flag") != 0
        if item_dims and item_id in item_dims:
            ref = item_dims[item_id]
            if sort3(ref).as_tuple() != sort3(dims).as_tuple():
                raise DataError(
                    f"{path}:{lineno}: dims {dims.as_tuple()} disagree with items file "
                    f"entry {ref.as_tuple()} for item {item_id}"
                )
        carton = Carton(dims, height_oriented=ho, bottom_resting=br)
        if ship_id not in grouped:
            grouped[ship_id] = []
            order.append(ship_id)
        grouped[ship_id].extend([carton] * qty)
    return [Shipment(sid, tuple(grouped[sid])) for sid in order]


def save_boxes(boxes: BoxSet, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["box_id", "dim1", "dim2", "dim3"])
        for bx in boxes:
            w.writerow([bx.id, *_fmt_dims(bx.inner)])


def save_shipments(shipments: Sequence[Shipment], path: str | Path) -> None:
    """Write one row per carton (quantity 1) with its HO/BR flags."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["shipment_id", "item_id", "quantity", "dim1", "dim2", "dim3", "ho", "br"])
        for s in shipments:
            for item_no, c in enumerate(s.cartons, start=1):
                w.writerow(
                    [s.id, item_no, 1, *_fmt_dims(c.dims),
                     int(c.height_oriented), int(c.bottom_resting)]
                )


def _fmt_dims(d: Dims3) -> list:
    return [int(v) if float(v).is_integer() else v for v in d.as_tuple()]


def enumerate_box_grid(
    max_dims: tuple[int, int, int] = (40, 20, 16),
    min_dims: tuple[int, int, int] = (5, 4, 1),
    step: int = 1,
) -> BoxSet:
    """All integral boxes with x >= y >= z inside the given per-axis ranges.

    Ids are assigned 1..J in volume order (ties by sorted dims) so the result
    is reproducible.
    """
    xs = range(min_dims[0], max_dims[0] + 1, step)
    ys = range(min_dims[1], max_dims[1] + 1, step)
    zs = range(min_dims[2], max_dims[2] + 1, step)
    triples = [
        (x, y, z)
        for x in xs
        for y in ys
        if y <= x
        for z in zs
        if z <= y
    ]
    triples.sort(key=lambda t: (t[0] * t[1] * t[2], t))
    return BoxSet(
        CandidateBox(i, Dims3(*t)) for i, t in enumerate(triples, start=1)
    )
