"""Shipment-to-box feasibility scan producing the sparse fit matrix.

For each shipment of two or more cartons the candidate boxes are visited in
volume order starting at the first box that can hold the shipment's liquid
volume. Decisions cascade from cheap to expensive: per-carton necessity, the
one-row stacking construction, and then an exact decision: the closed-form
two-carton solver, or from three cartons on the branch-and-bound solver.
From four cartons on, the box is
first cut to its normal-pattern size (``normal_pattern_box``: each axis to the
longest sum of carton extents it holds), which never changes the verdict, and
everything after the memo lookup sees the cut box; boxes that cut to the same
size share one memo entry. Orders with more than ``MAX_EXTENT_SUMS`` distinct
extent sums on an axis keep the declared box, which bounds the cut's cost.
From five cartons on the search is preceded by a dual-feasible-function
volume bound (``dff_refutes``) that proves most NO_FITs without search, and
from six on also by an extreme-point packer
(``pack_extreme_points``) that finds most FITs in milliseconds. Every
carton's own height-oriented (HO) and bottom-resting (BR) flags apply. A
packing from the packer, the exact solvers or the search counts only after
``check_witness`` accepts it in the declared box; an exact-solver or search
packing that fails the check is an internal error.
Nesting is held as two boolean box-by-box matrices (``NestSets``). A FIT
ORs the box's row of the matrix into the shipment's row, which skips work
and keeps rows closed under nesting wherever box dims differ by more than
the tolerance (within it nesting is not transitive, and a box set by another
box's row adds no row of its own). Single-carton shipments visit no
box one at a time: for one carton necessity is the exact test, so a block of
such shipments gets its rows, the test above the volume cut plus its
nesting closure, from a few array operations.

Packing shipments into a suite needs only each one's cheapest fitting box,
not its row. ``cheapest_fitting_boxes`` visits a shipment's candidate boxes
in (cost, index) order through the same cascade and stops at the first FIT,
so no box costlier than the answer is decided.

Rows are scanned a block of shipments at a time, as a boolean matrix with a
column per box, and packed into the matrix's CSR form, which every later
layer reads and writes without a Python object per set bit: ``indptr``
(int64, one entry per shipment plus one) and ``indices`` (int32 box indices,
each row's slice sorted and unique). fit.csv holds one ``shipment_id,box_id``
line per set bit, and fit.npz beside it the CSR arrays and ids in binary; the
manifest records counts, the scan-config hash, timed-out pairs, digests of
the boxes and shipments, which ``load_fit_matrix`` checks, and the sha256 of
both files, which decide whether it may read fit.npz instead of the text.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import io
import itertools
import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from boxsuite import __version__
from boxsuite.fitting import (
    FitProblem,
    Outcome,
    SolverConfig,
    carton_key,
    check_witness,
    dff_refutes,
    fits_exact_small,
    fits_stacking,
    pack_extreme_points,
    solve_fit,
)
from boxsuite.fitting.checks import extent_sums, normal_pattern_box
from boxsuite.model import (
    BoxSet,
    Carton,
    DataError,
    Dims3,
    Shipment,
    canonical_dims,
    liquid_volume,
    tolerance_for,
)

__all__ = [
    "NestSets",
    "FitMatrix",
    "PackableSet",
    "FitScanConfig",
    "compute_nest_sets",
    "compute_fit_matrix",
    "cheapest_fitting_boxes",
    "load_fit_matrix",
]


@dataclass(frozen=True)
class NestSets:
    """Which boxes each box nests into, as two J x J boolean matrices.

    ``up_free[j, k]`` holds when box j fits inside box k with all six
    rotations allowed, ``up_ho[j, k]`` when it does with height kept vertical,
    so ``up_ho`` is the family to use whenever a shipment pins the vertical
    axis. Only later (equal or larger volume) boxes count, so both matrices
    are upper triangular with a true diagonal.

    ``free[j]`` and ``ho[j]`` give row j as the tuple of those box indices,
    beginning with j itself, built on each access.
    """

    up_free: np.ndarray
    up_ho: np.ndarray

    @property
    def free(self) -> Sequence[tuple[int, ...]]:
        return _NestRows(self.up_free)

    @property
    def ho(self) -> Sequence[tuple[int, ...]]:
        return _NestRows(self.up_ho)


class _NestRows(Sequence):
    def __init__(self, up: np.ndarray):
        self._up = up

    def __len__(self) -> int:
        return len(self._up)

    def __getitem__(self, j: int) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self._up[j]).tolist())


_NEST_BLOCK = 256  # matrix rows compared per numpy call


def compute_nest_sets(boxes: BoxSet) -> NestSets:
    eps = 1e-9 * float(boxes.dims.max())
    J = len(boxes)

    def up(view: np.ndarray) -> np.ndarray:
        mat = np.zeros((J, J), dtype=bool)
        for a in range(0, J, _NEST_BLOCK):
            b = min(a + _NEST_BLOCK, J)
            block = mat[a:b, a:]
            block[:] = _covers(view[a:], view[a:b], eps)
            block[:, :b - a] &= ~np.tri(b - a, k=-1, dtype=bool)  # k >= j only
        return mat

    return NestSets(up_free=up(boxes.sorted_dims), up_ho=up(boxes.sorted_lw_dims))


def _covers(view: np.ndarray, dims: np.ndarray, eps: float) -> np.ndarray:
    """(len(dims), len(view)) mask: every dim of view row k is at least the
    same dim of ``dims`` row i, less ``eps``."""
    low = dims - eps
    out = view[:, 0] >= low[:, 0, None]
    for axis in (1, 2):
        out &= view[:, axis] >= low[:, axis, None]
    return out


@dataclass(frozen=True)
class FitScanConfig:
    solver: SolverConfig = field(default_factory=SolverConfig)
    threads: int = 1

    def __post_init__(self):
        if self.threads < 1:
            raise DataError("threads must be >= 1")

    def content_hash(self) -> str:
        """Hash of everything that affects scan results (threads excluded)."""
        payload = json.dumps({
            "time_limit": self.solver.time_limit,
            "identical_symmetry": self.solver.use_identical_symmetry,
            "orthant_symmetry": self.solver.use_orthant_symmetry,
        }, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class PackableSet:
    """Shipments with at least one fitting box, read from the fit matrix."""

    W: tuple[int, ...]
    fit: FitMatrix = field(repr=False, compare=False)

    @property
    def I_hat(self) -> int:
        return len(self.W)


class FitMatrix:
    """Sparse boolean shipment-by-box feasibility matrix in CSR form.

    Row i's set columns are ``indices[indptr[i]:indptr[i + 1]]``, sorted and
    unique; ``indptr`` is int64 of length n + 1 and ``indices`` int32.
    """

    def __init__(self, n_shipments: int, n_boxes: int,
                 rows: Sequence[Sequence[int]],
                 timeouts: Sequence[tuple[int, int]] = (),
                 config_hash: str = ""):
        if len(rows) != n_shipments:
            raise DataError("one row per shipment required")
        rows = [sorted(set(r)) for r in rows]
        for r in rows:
            if r and (r[0] < 0 or r[-1] >= n_boxes):
                raise DataError("box index out of range in fit matrix row")
        indptr = np.zeros(n_shipments + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, rows), dtype=np.int64, count=n_shipments),
                  out=indptr[1:])
        indices = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int32,
                              count=int(indptr[-1]))
        self._assign(n_shipments, n_boxes, indptr, indices, timeouts, config_hash)

    @classmethod
    def from_csr(cls, n_shipments: int, n_boxes: int, indptr: np.ndarray,
                 indices: np.ndarray, timeouts: Sequence[tuple[int, int]] = (),
                 config_hash: str = "") -> "FitMatrix":
        """Wrap CSR arrays whose rows are already sorted, unique and in range."""
        mat = cls.__new__(cls)
        mat._assign(n_shipments, n_boxes, indptr, indices, timeouts, config_hash)
        return mat

    def _assign(self, n_shipments, n_boxes, indptr, indices, timeouts, config_hash):
        self.n_shipments = n_shipments
        self.n_boxes = n_boxes
        self.indptr = indptr
        self.indices = indices
        self.timeouts = tuple(timeouts)
        self.config_hash = config_hash

    def row(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    @functools.cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        cols, bounds = self.indices.tolist(), self.indptr.tolist()
        return tuple(tuple(cols[a:b]) for a, b in zip(bounds, bounds[1:]))

    @property
    def set_bits(self) -> int:
        return int(self.indices.size)

    def packables(self) -> PackableSet:
        return PackableSet(W=tuple(np.flatnonzero(np.diff(self.indptr)).tolist()), fit=self)

    # -- persistence ----------------------------------------------------------

    def save_csv(self, path: str | Path, shipments: Sequence[Shipment],
                 boxes: BoxSet, manifest_path: Optional[str | Path] = None) -> None:
        """Write ``shipment_id,box_id`` lines with ``\\r\\n`` terminators, a
        block of rows per write, then fit.npz beside them, then the manifest.

        fit.npz holds the CSR arrays and the shipment and box ids in index
        order, uncompressed. It is left out (and an older one removed) when
        an id does not fit int64 or shipment ids repeat, since fit.csv then
        does not load back into these rows one to one. The manifest, written
        last, records the sha256 of both files, so it describes complete
        files only.
        """
        path = Path(path)
        box_lines = np.array([b"%d\r\n" % bx.id for bx in boxes], dtype=object)
        bounds = self.indptr.tolist()
        chunk = _HEADER + b"\r\n"
        csv_hash = hashlib.sha256(chunk)
        with path.open("wb") as fh:
            fh.write(chunk)
            for r0 in range(0, self.n_shipments, _SAVE_BLOCK):
                r1 = min(r0 + _SAVE_BLOCK, self.n_shipments)
                base = bounds[r0]
                lines = box_lines[self.indices[base:bounds[r1]]].tolist()
                parts = []
                for i in range(r0, r1):
                    a, b = bounds[i] - base, bounds[i + 1] - base
                    if a < b:
                        prefix = b"%d," % shipments[i].id
                        parts.append(prefix + prefix.join(lines[a:b]))
                chunk = b"".join(parts)
                fh.write(chunk)
                csv_hash.update(chunk)
        npz_path = path.with_suffix(".npz")
        ids = _unique_int64_ids(shipments, boxes)
        if ids is None:
            npz_path.unlink(missing_ok=True)
            npz_sha256 = None
        else:
            with npz_path.open("wb") as fh:
                np.savez(fh, indptr=self.indptr, indices=self.indices,
                         shipment_ids=ids[0], box_ids=ids[1])
            npz_sha256 = _file_sha256(npz_path)
        if manifest_path is None:
            manifest_path = path.with_suffix(".manifest.json")
        manifest = {
            "shipments": self.n_shipments,
            "boxes": self.n_boxes,
            "set_bits": self.set_bits,
            "packable": int(np.count_nonzero(np.diff(self.indptr))),
            "config_hash": self.config_hash,
            "boxes_digest": _boxes_digest(boxes),
            "shipments_digest": _shipments_digest(shipments),
            "csv_sha256": csv_hash.hexdigest(),
            "npz_sha256": npz_sha256,
            "version": __version__,
            "timeouts": [[sid, bid] for sid, bid in self.timeouts],
        }
        Path(manifest_path).write_text(json.dumps(manifest, indent=2) + "\n")


_SAVE_BLOCK = 64  # fit.csv rows per write; only one block's box lines are gathered at once


def _unique_int64_ids(shipments: Sequence[Shipment], boxes: BoxSet
                      ) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Shipment and box ids in index order as int64 arrays, or None when an
    id does not fit int64 or shipment ids repeat."""
    ship_ids = [s.id for s in shipments]
    if len(set(ship_ids)) != len(ship_ids):  # np.unique would import numpy.ma
        return None
    try:
        return np.array(ship_ids, dtype=np.int64), np.array(boxes.ids, dtype=np.int64)
    except OverflowError:
        return None


def _file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        while chunk := fh.read(_CHUNK_BYTES):
            h.update(chunk)
    return h.hexdigest()


def _boxes_digest(boxes: BoxSet) -> str:
    """sha256 of box ids and inner dims in id order; locks change no fit bit
    and are left out."""
    ids = boxes.ids
    order = sorted(range(len(ids)), key=ids.__getitem__)
    h = hashlib.sha256(repr([int(ids[j]) for j in order]).encode())
    h.update(boxes.dims[order].tobytes())
    return h.hexdigest()


def _shipments_digest(shipments: Sequence[Shipment]) -> str:
    """sha256 of shipment ids and carton dims with HO/BR flags, over sorted
    records, so neither shipment nor carton order matters.

    Each record ends in ``|``, where foldable items' dims followed when
    shipments could hold them; keeping it leaves the digest of every
    manifest written before then unchanged.
    """
    def dims(d: Dims3) -> str:
        return ",".join(repr(float(v)) for v in d.as_tuple())

    h = hashlib.sha256()
    for rec in sorted(
            f"{s.id}:"
            + ";".join(sorted(f"{dims(c.dims)},{c.height_oriented:d}{c.bottom_resting:d}"
                              for c in s.cartons))
            + "|"
            for s in shipments):
        h.update(rec.encode() + b"\n")
    return h.hexdigest()


def load_fit_matrix(path: str | Path, shipments: Sequence[Shipment],
                    boxes: BoxSet, manifest_path: Optional[str | Path] = None) -> FitMatrix:
    """Read fit.csv (and its manifest, when there is one) into a FitMatrix.

    fit.npz beside fit.csv is read instead of the text when the manifest
    vouches for both files and the inputs: fit.csv's bytes hash to its
    ``csv_sha256``, fit.npz's to its ``npz_sha256``, and the npz's ids are
    the given shipments' and boxes' ids in the given order. So an edited
    fit.csv always wins over an intact npz, and a stale or altered npz is
    never loaded. Otherwise, files made only of ``digits,digits`` lines
    (``\\n`` or ``\\r\\n``, after an optional ``shipment_id,box_id`` header)
    are parsed a chunk at a time with numpy; any other file, and any file
    with an error, goes through the per-line csv reader, which returns the
    same matrix and raises the ``DataError`` naming the offending line.
    The manifest's counts and input digests are checked on every path.
    """
    path = Path(path)
    n, J = len(shipments), len(boxes)
    if manifest_path is None:
        candidate = path.with_suffix(".manifest.json")
        manifest_path = candidate if candidate.exists() else None
    manifest = json.loads(Path(manifest_path).read_text()) if manifest_path else {}
    csr = _read_npz(path, manifest, shipments, boxes)
    if csr is None:
        csr = _read_csr(path, shipments, boxes)
    if csr is None:
        mat = FitMatrix(n, J, _read_rows_per_line(path, shipments, boxes))
        csr = mat.indptr, mat.indices
    mat = FitMatrix.from_csr(n, J, *csr, [tuple(t) for t in manifest.get("timeouts", [])],
                             manifest.get("config_hash", ""))
    if manifest:
        expected = {"shipments": n, "boxes": J, "set_bits": mat.set_bits,
                    "boxes_digest": _boxes_digest(boxes),
                    "shipments_digest": _shipments_digest(shipments)}
        for key, got in expected.items():
            if key in manifest and manifest[key] != got:
                raise DataError(f"fit matrix manifest disagrees on {key}: "
                                f"{manifest[key]} != {got}")
    return mat


_NPZ_ARRAYS = {"indptr": np.int64, "indices": np.int32,
               "shipment_ids": np.int64, "box_ids": np.int64}


def _read_npz(path: Path, manifest: Mapping, shipments: Sequence[Shipment],
              boxes: BoxSet) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """fit.npz's CSR (indptr, indices), or None unless the manifest's
    digests match fit.csv and the npz and its ids match the inputs."""
    csv_sha256, npz_sha256 = manifest.get("csv_sha256"), manifest.get("npz_sha256")
    if not (csv_sha256 and npz_sha256):
        return None
    try:
        data = path.with_suffix(".npz").read_bytes()
    except FileNotFoundError:
        return None
    if (hashlib.sha256(data).hexdigest() != npz_sha256
            or _file_sha256(path) != csv_sha256):
        return None
    with np.load(io.BytesIO(data), allow_pickle=False) as npz:
        if set(npz.files) != _NPZ_ARRAYS.keys():
            return None
        arrays = {name: npz[name] for name in _NPZ_ARRAYS}
    ids = _unique_int64_ids(shipments, boxes)
    indptr, indices = arrays["indptr"], arrays["indices"]
    if (ids is None
            or any(arrays[name].dtype != dtype or arrays[name].ndim != 1
                   for name, dtype in _NPZ_ARRAYS.items())
            or indptr.shape != (len(shipments) + 1,) or indptr[-1] != indices.size
            or not np.array_equal(arrays["shipment_ids"], ids[0])
            or not np.array_equal(arrays["box_ids"], ids[1])):
        return None
    return indptr, indices


def _read_rows_per_line(path: Path, shipments: Sequence[Shipment],
                        boxes: BoxSet) -> list[list[int]]:
    ship_index = {s.id: i for i, s in enumerate(shipments)}
    rows: list[list[int]] = [[] for _ in shipments]
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        for lineno, cells in enumerate(reader, start=1):
            if not cells or (lineno == 1 and cells[0] == "shipment_id"):
                continue
            if len(cells) != 2:
                raise DataError(f"{path}:{lineno}: expected shipment_id,box_id")
            try:
                sid, bid = int(cells[0]), int(cells[1])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-integer id") from exc
            if sid not in ship_index:
                raise DataError(f"{path}:{lineno}: unknown shipment id {sid}")
            rows[ship_index[sid]].append(boxes.index_of(bid))
    return rows


_CHUNK_BYTES = 1 << 18
_HEADER = b"shipment_id,box_id"
# Byte classes of the fast reader's grammar; anything else is class 0.
_DIGIT, _COMMA, _CR, _LF = 1, 2, 3, 4
_BYTE_CLASS = np.zeros(256, dtype=np.uint8)
_BYTE_CLASS[ord("0"):ord("9") + 1] = _DIGIT
_BYTE_CLASS[[ord(","), ord("\r"), ord("\n")]] = (_COMMA, _CR, _LF)
_MAX_FIELD = 18  # bytes, a trailing \r included, so every id fits int64
_SEPARATORS_TO_SPACE = bytes.maketrans(b",\r\n", b"   ")


def _read_csr(path: Path, shipments: Sequence[Shipment],
              boxes: BoxSet) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """fit.csv as CSR (indptr, indices), or None when the per-line reader
    must decide: a byte outside the grammar, an unknown id, or no shipments.

    Lines in (row, column) order, as ``save_csv`` writes them, append their
    columns as they come; out-of-order or repeated lines switch to collecting
    row * J + column keys, which are sorted and deduplicated at the end.
    """
    n, J = len(shipments), len(boxes)
    if n == 0:
        return None
    try:
        ship_ids, ship_rows = _id_lookup([s.id for s in shipments])
        box_ids, box_cols = _id_lookup(boxes.ids)
    except OverflowError:
        return None
    counts = np.zeros(n, dtype=np.int64)
    cols: list[np.ndarray] = []
    keys: Optional[list[np.ndarray]] = None
    last = -1
    carry, first = b"", True
    with path.open("rb") as fh:
        while True:
            data = fh.read(_CHUNK_BYTES)
            buf = carry + data
            if data:
                cut = buf.rfind(b"\n") + 1
                if cut == 0:
                    if len(buf) > _CHUNK_BYTES:
                        return None
                    carry = buf
                    continue
                buf, carry = buf[:cut], buf[cut:]
            elif not buf:
                break
            else:
                buf, carry = buf + b"\n", b""  # last line without a newline
            if first:
                first = False
                for header in (_HEADER + b"\r\n", _HEADER + b"\n"):
                    if buf.startswith(header):
                        buf = buf[len(header):]
                        break
            pairs = _parse_chunk(buf)
            if pairs is None:
                return None
            r = _lookup(ship_ids, ship_rows, pairs[:, 0])
            c = _lookup(box_ids, box_cols, pairs[:, 1])
            if r is None or c is None:
                return None
            if not r.size:
                continue
            key = r * J + c
            if keys is None and key[0] > last and (np.diff(key) > 0).all():
                counts += np.bincount(r, minlength=n)
                cols.append(c.astype(np.int32))
                last = int(key[-1])
                continue
            if keys is None:
                keys = [np.repeat(np.arange(n), counts) * J + np.concatenate(cols)] if cols else []
            keys.append(key)
    if keys is not None:
        key = np.sort(np.concatenate(keys))
        key = key[np.r_[True, key[1:] != key[:-1]]]
        counts = np.bincount(key // J, minlength=n)
        cols = [(key % J).astype(np.int32)]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, np.concatenate(cols) if cols else np.zeros(0, dtype=np.int32)


def _parse_chunk(buf: bytes) -> Optional[np.ndarray]:
    """(shipment id, box id) pairs of a buffer of whole ``digits,digits``
    lines, or None when it holds anything else."""
    cls = _BYTE_CLASS[np.frombuffer(buf, dtype=np.uint8)]
    if not cls.all():
        return None
    seps = np.flatnonzero((cls == _COMMA) | (cls == _LF))
    kinds = cls[seps]
    if kinds.size % 2 or (kinds[0::2] != _COMMA).any() or (kinds[1::2] != _LF).any():
        return None
    cr = np.flatnonzero(cls == _CR)  # only as \r\n after a digit
    if cr.size and (cr[0] == 0 or (cls[cr + 1] != _LF).any() or (cls[cr - 1] != _DIGIT).any()):
        return None
    widths = np.diff(seps, prepend=-1) - 1
    if widths.size and (widths.min() < 1 or widths.max() > _MAX_FIELD):
        return None
    vals = np.fromstring(buf.translate(_SEPARATORS_TO_SPACE), dtype=np.int64, sep=" ")
    return vals.reshape(-1, 2) if vals.size == seps.size else None


def _id_lookup(ids: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct ids and, for each, its last position in ``ids``."""
    ids = np.array(ids, dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    last = np.r_[ids[1:] != ids[:-1], True]
    return ids[last], order[last]


def _lookup(keys: np.ndarray, values: np.ndarray, ids: np.ndarray) -> Optional[np.ndarray]:
    """values at ids' positions in keys, or None when an id is missing."""
    k = np.minimum(np.searchsorted(keys, ids), keys.size - 1)
    return values[k] if (keys[k] == ids).all() else None


# -- the scan ------------------------------------------------------------------


class _ShipmentScanner:
    """Scans blocks of shipments across all boxes; memoizes solved subproblems.

    A shipment's carton keys (its sorted ``carton_key`` values, the carton
    part of every memo key) are computed once per shipment, in ``_scan`` and
    ``_first_fit``, not once per box decided.
    """

    def __init__(self, boxes: BoxSet, nests: NestSets, cfg: FitScanConfig):
        self.boxes = boxes
        self.nests = nests
        self.cfg = cfg
        self.memo: dict = {}
        # extent_sums per sorted carton-key tuple, up to the longest box axis
        # plus the widest tolerance any box allows (None: too many to cut)
        self.sums: dict = {}
        self._longest = float(boxes.dims.max())
        # also the necessity tolerance, as of nesting
        self._longest_eps = tolerance_for(Dims3(*(self._longest,) * 3))

    def _box_verdict(self, cartons: tuple[Carton, ...], keys: tuple, j: int,
                     pinned: bool) -> Outcome:
        """The cartons' verdict in box j: FIT by stacking, else the cascade.
        ``keys`` are the cartons' sorted ``carton_key`` values."""
        box = self.boxes[j].inner
        if fits_stacking(cartons, box):
            return Outcome.FIT
        return self._cached_verdict(cartons, keys, box, pinned)

    def _cached_verdict(self, cartons: tuple[Carton, ...], keys: tuple, box: Dims3,
                        pinned: bool) -> Outcome:
        key = (keys, canonical_dims(box.as_tuple(), pinned))
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        declared = prob = FitProblem(cartons, box)
        cut_key = None
        if len(cartons) >= 4:
            # Smaller orders are decided faster than the cut is computed.
            cut = self._cut_box(declared, keys)
            if cut is None:
                self.memo[key] = Outcome.NO_FIT
                return Outcome.NO_FIT
            if cut != declared.box:
                cut_key = (keys, canonical_dims(cut.as_tuple(), pinned))
                hit = self.memo.get(cut_key)
                if hit is not None:
                    self.memo[key] = hit
                    return hit
                prob = FitProblem(cartons, cut)
        out = self._decide(prob, declared)
        self.memo[key] = out
        if cut_key is not None:
            self.memo[cut_key] = out
        return out

    def _cut_box(self, prob: FitProblem, keys: tuple) -> Optional[Dims3]:
        """``normal_pattern_box`` of ``prob``, or its declared box when the
        cartons have too many extent sums to cut."""
        if keys not in self.sums:
            self.sums[keys] = extent_sums(
                keys, self._longest + (prob.n + 1) * self._longest_eps)
        sums = self.sums[keys]
        return prob.box if sums is None else normal_pattern_box(prob, sums)

    def _decide(self, prob: FitProblem, declared: FitProblem) -> Outcome:
        """Decide ``prob``, the declared problem or its cut box; every packing
        is re-checked against the declared box."""
        n = prob.n
        if n >= 5 and dff_refutes(prob):
            # A four-carton NO_FIT search takes about a millisecond; the
            # screen is kept for the orders whose proofs run long.
            return Outcome.NO_FIT
        if n >= 6:
            # On 4- and 5-carton orders the packer costs more than the
            # searches it settles.
            witness = pack_extreme_points(prob)
            if witness is not None and check_witness(declared, witness):
                return Outcome.FIT
        if n == 2:
            verdict, solver = fits_exact_small(prob), "exact 2-carton"
        else:
            verdict, solver = solve_fit(prob, self.cfg.solver), "branch-and-bound"
        if verdict.is_fit and not check_witness(declared, verdict.witness):
            raise RuntimeError(
                f"{solver} witness fails the re-check: box "
                f"{declared.box.as_tuple()}, cartons "
                f"{[c.dims.as_tuple() for c in declared.cartons]}")
        return verdict.outcome

    def scan_block(self, shipments: Sequence[Shipment]
                   ) -> tuple[np.ndarray, list[list[tuple[int, int]]]]:
        """The shipments' rows as a bool matrix (True = fits), one column per
        box, and each row's timeouts."""
        rows = np.zeros((len(shipments), len(self.boxes)), dtype=bool)
        timeouts: list[list[tuple[int, int]]] = [[] for _ in shipments]
        j0 = np.searchsorted(self.boxes.volumes, [liquid_volume(s) for s in shipments])
        single = [i for i, s in enumerate(shipments) if len(s.cartons) == 1]
        if single:
            rows[single] = self._single_rows(
                [shipments[i].cartons[0] for i in single], j0[single])
        for i, shipment in enumerate(shipments):
            if len(shipment.cartons) > 1:
                timeouts[i] = self._scan(shipment, int(j0[i]), rows[i])
        return rows, timeouts

    def _single_rows(self, cartons: Sequence[Carton], j0: np.ndarray) -> np.ndarray:
        """Rows of single-carton shipments, all at once.

        For one carton, necessity is the exact fit test, so every box at or
        above the volume cut that passes it fits. Closing those under nesting
        adds box k only when k nests some such box j, so k's dims are at
        least j's less eps, which are at least the carton's less 2 eps (for
        ``up_ho`` too: LW-sorted dominance implies sorted dominance). Rows
        with a box in that margin outside the fit test get the per-box
        closure fill; the margin is 3 eps, the last one for rounding.
        """
        boxes, eps = self.boxes, self._longest_eps
        keys = [carton_key(c) for c in cartons]
        ho = np.array([k[0] for k in keys])
        dims = np.array([k[1] for k in keys], dtype=np.float64)
        nec = np.empty((len(keys), len(boxes)), dtype=bool)
        margin = np.empty_like(nec)
        for is_ho, view in ((False, boxes.sorted_dims), (True, boxes.sorted_lw_dims)):
            sel = np.flatnonzero(ho == is_ho)
            nec[sel] = _covers(view, dims[sel], eps)
            margin[sel] = _covers(view, dims[sel], 3 * eps)
        above = np.arange(len(boxes)) >= j0[:, None]
        rows = nec & above
        margin &= above & ~nec
        for i in np.flatnonzero(margin.any(axis=1)).tolist():
            up = self.nests.up_ho if cartons[i].pins_vertical else self.nests.up_free
            row = np.zeros(len(boxes), dtype=bool)
            for j in np.flatnonzero(rows[i]).tolist():
                if not row[j]:
                    row |= up[j]
            rows[i] = row
        return rows

    def _necessity(self, cartons: Sequence[Carton]) -> tuple[bool, np.ndarray]:
        """Whether any carton pins the vertical axis, and per-carton
        necessity over all boxes at once."""
        boxes = self.boxes
        keys = [carton_key(c) for c in cartons]
        nec = np.ones(len(boxes), dtype=bool)
        for ho, view in ((False, boxes.sorted_dims), (True, boxes.sorted_lw_dims)):
            dims = [d for h, d, _ in keys if h == ho]
            if dims:
                nec &= _covers(view, np.max(np.array(dims), axis=0, keepdims=True),
                               self._longest_eps)[0]
        return any(c.pins_vertical for c in cartons), nec

    def _scan(self, shipment: Shipment, j0: int, row: np.ndarray) -> list[tuple[int, int]]:
        """Fill ``row`` for a shipment of two or more cartons, visiting boxes
        from ``j0`` up; returns its timeouts."""
        boxes = self.boxes
        cartons = shipment.cartons
        keys = tuple(sorted(map(carton_key, cartons)))
        pinned, nec = self._necessity(cartons)
        up = self.nests.up_ho if pinned else self.nests.up_free

        timeouts: list[tuple[int, int]] = []
        for j in (j0 + np.flatnonzero(nec[j0:])).tolist():
            if row[j]:
                continue
            out = self._box_verdict(cartons, keys, j, pinned)
            if out is Outcome.TIMED_OUT:
                timeouts.append((shipment.id, boxes[j].id))
            elif out is Outcome.FIT:
                # A FIT carries over to every box this one nests into.
                row |= up[j]
        return timeouts

    def cheapest(self, shipments: Sequence[Shipment], model) -> list[Optional[int]]:
        """Each shipment's cheapest fitting box; see ``cheapest_fitting_boxes``."""
        box_costs = getattr(model, "box_costs", None)
        if box_costs is None:
            order = missing = None
        else:
            costs = np.asarray(box_costs(self.boxes), dtype=np.float64)
            missing = np.isnan(costs)
            order = np.argsort(costs, kind="stable")  # NaN last
            order = order[~missing[order]]
        picks: list[Optional[int]] = []
        for a in range(0, len(shipments), _SCAN_BLOCK):
            block = shipments[a:a + _SCAN_BLOCK]
            j0 = np.searchsorted(self.boxes.volumes, [liquid_volume(s) for s in block])
            single = [i for i, s in enumerate(block) if len(s.cartons) == 1]
            found = {}  # single-carton shipment -> (cheapest, missing-cost) box
            if single:
                fit = self._single_rows([block[i].cartons[0] for i in single], j0[single])
                if order is None:
                    found = {i: _pick(block[i], row, lambda k: True, self.boxes, model,
                                      None, None) for i, row in zip(single, fit)}
                else:  # _pick's answer for every row at once
                    ranked = np.c_[fit[:, order], np.ones(len(fit), dtype=bool)]
                    best = np.append(order, -1)[ranked.argmax(axis=1)]
                    bad = fit & missing
                    lost = np.where(bad.any(axis=1), bad.argmax(axis=1), -1)
                    found = dict(zip(single, zip(best.tolist(), lost.tolist())))
            for i, s in enumerate(block):
                k, lost = found[i] if i in found else self._first_fit(
                    s, int(j0[i]), model, order, missing)
                if lost >= 0:
                    from boxsuite.cost import _pair_cost  # boxsuite.cost imports this module

                    _pair_cost(model, s, self.boxes[lost])  # raises the lookup's error
                    raise DataError(f"box_costs has no cost for box {self.boxes[lost].id}, "
                                    "yet cost_for gives one")
                picks.append(k if k >= 0 else None)
        return picks

    def _first_fit(self, shipment: Shipment, j0: int, model, order: Optional[np.ndarray],
                   missing: Optional[np.ndarray]) -> tuple[int, int]:
        """``_pick`` for two or more cartons: boxes are decided in cost
        order until one fits."""
        boxes = self.boxes
        cartons = shipment.cartons
        keys = tuple(sorted(map(carton_key, cartons)))
        pinned, nec = self._necessity(cartons)
        up = self.nests.up_ho if pinned else self.nests.up_free
        cand = nec
        cand[:j0] = False
        own: dict[int, Outcome] = {}

        def verdict(k: int) -> Outcome:
            if k not in own:
                own[k] = self._box_verdict(cartons, keys, k, pinned)
            return own[k]

        def fits(k: int) -> bool:
            out = verdict(k)
            if out is Outcome.TIMED_OUT:
                # A timed-out box fits when a box nesting into it does.
                nested = np.flatnonzero(up[:, k] & cand).tolist()
                return any(verdict(i) is Outcome.FIT for i in nested if i != k)
            return out is Outcome.FIT

        return _pick(shipment, cand, fits, boxes, model, order, missing)


def _pick(shipment: Shipment, cand: np.ndarray, fits, boxes: BoxSet, model,
          order: Optional[np.ndarray], missing: Optional[np.ndarray]) -> tuple[int, int]:
    """The first candidate box (``cand``, a mask over ``boxes``) in (cost,
    index) order for which ``fits`` holds, and the first fitting candidate
    whose cost lookup fails; -1 for none.

    ``order`` and ``missing`` are the boxes' visit order and missing costs
    under a box-only model; when None, costs come from ``model.cost_for``.
    Candidates whose cost lookup fails are decided before the others, in
    index order, and the search stops at the first that fits.
    """
    if order is None:
        idx = np.flatnonzero(cand)
        costs = np.array([_cost_or_nan(model, shipment, boxes[k]) for k in idx.tolist()])
        lost = np.isnan(costs)
        bad = idx[lost]
        visit = idx[~lost][np.argsort(costs[~lost], kind="stable")]
    else:
        bad = np.flatnonzero(cand & missing)
        visit = order[cand[order]]
    for k in bad.tolist():
        if fits(k):
            return -1, k
    for k in visit.tolist():
        if fits(k):
            return k, -1
    return -1, -1


def _cost_or_nan(model, shipment: Shipment, box) -> float:
    try:
        return float(model.cost_for(shipment, box))
    except DataError:  # raised again if the box fits
        return math.nan


_SCAN_BLOCK = 1024  # shipments whose rows are held at once


def _scan_chunk(args):
    """CSR row lengths, column indices and per-row timeouts of shipments
    scanned a block at a time."""
    shipments, boxes, nests, cfg = args
    scanner = _ShipmentScanner(boxes, nests, cfg)
    counts = [np.zeros(0, dtype=np.int64)]
    cols = [np.zeros(0, dtype=np.int32)]
    timeouts: list[list[tuple[int, int]]] = []
    for a in range(0, len(shipments), _SCAN_BLOCK):
        rows, ts = scanner.scan_block(shipments[a:a + _SCAN_BLOCK])
        r, c = np.nonzero(rows)
        counts.append(np.bincount(r, minlength=len(rows)))
        cols.append(c.astype(np.int32))
        timeouts += ts
    return np.concatenate(counts), np.concatenate(cols), timeouts


def compute_fit_matrix(
    shipments: Sequence[Shipment],
    boxes: BoxSet,
    nests: Optional[NestSets] = None,
    cfg: Optional[FitScanConfig] = None,
) -> tuple[FitMatrix, PackableSet]:
    if cfg is None:
        cfg = FitScanConfig()
    if nests is None:
        nests = compute_nest_sets(boxes)
    n, T = len(shipments), cfg.threads
    if T > 1 and n > 1:
        # Imported here: it pulls in multiprocessing, which a single-process
        # run would otherwise load at every start.
        from concurrent.futures import ProcessPoolExecutor

        chunks = [list(shipments[k::T]) for k in range(T)]
        with ProcessPoolExecutor(max_workers=T) as pool:
            parts = list(pool.map(_scan_chunk, [(c, boxes, nests, cfg) for c in chunks]))
        # Re-interleave to shipment order.
        counts = np.zeros(n, dtype=np.int64)
        row_timeouts: list = [None] * n
        for k, (c, _, ts) in enumerate(parts):
            counts[k::T] = c
            row_timeouts[k::T] = ts
        indptr = np.concatenate([[0], np.cumsum(counts)])
        indices = np.empty(int(indptr[-1]), dtype=np.int32)
        for k, (c, cols, _) in enumerate(parts):
            shift = indptr[k:-1:T] - (np.cumsum(c) - c)  # chunk offset -> matrix offset
            indices[np.repeat(shift, c) + np.arange(cols.size)] = cols
    else:
        counts, indices, row_timeouts = _scan_chunk((shipments, boxes, nests, cfg))
        indptr = np.concatenate([[0], np.cumsum(counts)])
    matrix = FitMatrix.from_csr(n, len(boxes), indptr, indices,
                                list(itertools.chain.from_iterable(row_timeouts)),
                                cfg.content_hash())
    return matrix, matrix.packables()


def cheapest_fitting_boxes(shipments: Sequence[Shipment], suite: BoxSet,
                           model) -> list[Optional[int]]:
    """Each shipment's cheapest fitting box as an index into ``suite``, or
    None when no box of it fits.

    ``model`` is a cost model (``boxsuite.cost.CostModel``). The answer is
    the ``compute_fit_matrix`` row's minimum by ``(cost, index)``, found
    without building the row:

    - Single-carton shipments get their rows a block at a time, as in the
      scan, and take the row's cheapest box.
    - A shipment of two or more cartons visits the boxes that pass the
      volume cut and necessity in (cost, index) order, one order for the
      suite under a box-only model (one with ``box_costs``), one per
      shipment from ``cost_for`` otherwise, and stops at the first that
      fits. A box fits when stacking or the cascade (``_box_verdict``)
      says FIT. A box whose own decision times out fits when a candidate
      box nesting into it (its ``up`` column) fits by its own verdict.
    - A candidate whose cost lookup fails (``cost_for`` raises DataError or
      gives NaN, or ``box_costs`` gives NaN) is decided first, whatever its
      place in the order, and raises only if it fits: the lookup's own
      error, or ``boxsuite.cost``'s invalid-cost DataError. As with the row
      minimum, the first shipment with such a box raises, for its lowest
      such index.

    The rule treats nesting as transitive. Where box dims lie within the
    tolerance of each other it is not, and the scan's row can then hold a
    box by nest fill alone; this routine counts a box only by its own
    verdict or, on a timeout, by a directly nested box's.

    One scanner, so one memo, serves all the shipments: a carton multiset
    decided in a box for one shipment is not decided again for another.
    """
    scanner = _ShipmentScanner(suite, compute_nest_sets(suite), FitScanConfig())
    return scanner.cheapest(shipments, model)
