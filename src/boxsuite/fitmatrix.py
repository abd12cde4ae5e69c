"""Shipment-to-box feasibility scan producing the sparse fit matrix.

For each shipment the candidate boxes are visited in volume order starting at
the first box that can hold the shipment's liquid volume. Decisions cascade
from cheap to expensive: per-carton necessity, pair/triple pre-screens, the
one-row stacking construction, and then an exact decision: the two/three-carton
solvers, or the branch-and-bound solver, which from five cartons on is preceded
by a dual-feasible-function volume bound (``dff_refutes``) that proves most
NO_FITs without search. Every positive verdict is propagated to
all boxes the current box nests into, which both skips work and keeps rows
closed under nesting.
"""
from __future__ import annotations

import csv
import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from boxsuite.fitting import (
    FitProblem,
    Outcome,
    SolverConfig,
    dff_refutes,
    fits_exact_small,
    fits_stacking,
    solve_fit,
)
from boxsuite.model import (
    BoxSet,
    Carton,
    DataError,
    Dims3,
    Shipment,
    liquid_volume,
    search_sorted_first,
)

__all__ = [
    "NestSets",
    "FitMatrix",
    "PackableSet",
    "FitScanConfig",
    "compute_nest_sets",
    "compute_fit_matrix",
    "load_fit_matrix",
]


@dataclass(frozen=True)
class NestSets:
    """Per-box lists of boxes it nests into; each list begins with the box itself.

    ``free`` allows all six rotations; ``ho`` only the two that keep height
    vertical, so it is the family to use whenever a shipment pins the vertical
    axis.
    """

    free: tuple[tuple[int, ...], ...]
    ho: tuple[tuple[int, ...], ...]


def compute_nest_sets(boxes: BoxSet, eps: Optional[float] = None) -> NestSets:
    if eps is None:
        eps = 1e-9 * float(boxes.dims.max()) if len(boxes) else 0.0
    sd = boxes.sorted_dims
    lw = boxes.sorted_lw_dims
    free = []
    ho = []
    for j in range(len(boxes)):
        # Only later (equal or larger volume) boxes can host this one.
        tail = np.arange(j + 1, len(boxes))
        free_mask = np.all(sd[j + 1:] >= sd[j] - eps, axis=1) if tail.size else np.zeros(0, bool)
        ho_mask = np.all(lw[j + 1:] >= lw[j] - eps, axis=1) if tail.size else np.zeros(0, bool)
        free.append((j, *tail[free_mask]))
        ho.append((j, *tail[ho_mask]))
    return NestSets(free=tuple(free), ho=tuple(ho))


@dataclass(frozen=True)
class FitScanConfig:
    solver: SolverConfig = field(default_factory=SolverConfig)
    enforce_ho: bool = True
    enforce_br: bool = True
    use_prescreens: bool = True  # pair/triple exact checks for n >= 4
    retry_time_limit: Optional[float] = None  # second attempt budget for timeouts
    threads: int = 1

    def __post_init__(self):
        if self.threads < 1:
            raise DataError("threads must be >= 1")
        if self.retry_time_limit is not None and self.retry_time_limit <= 0:
            raise DataError("retry_time_limit must be positive")

    def content_hash(self) -> str:
        """Hash of everything that affects scan results (threads excluded)."""
        payload = json.dumps({
            "time_limit": self.solver.time_limit,
            "identical_symmetry": self.solver.use_identical_symmetry,
            "orthant_symmetry": self.solver.use_orthant_symmetry,
            "anchor_rule": self.solver.anchor_rule,
            "enforce_ho": self.enforce_ho,
            "enforce_br": self.enforce_br,
            "use_prescreens": self.use_prescreens,
            "retry_time_limit": self.retry_time_limit,
        }, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class PackableSet:
    """Shipments with at least one fitting box, with their box index sets."""

    W: tuple[int, ...]
    fitting_boxes: dict[int, tuple[int, ...]]

    @property
    def I_hat(self) -> int:
        return len(self.W)


class FitMatrix:
    """Sparse boolean shipment-by-box feasibility matrix."""

    def __init__(self, n_shipments: int, n_boxes: int,
                 rows: Sequence[Sequence[int]],
                 timeouts: Sequence[tuple[int, int]] = (),
                 config_hash: str = ""):
        if len(rows) != n_shipments:
            raise DataError("one row per shipment required")
        self.n_shipments = n_shipments
        self.n_boxes = n_boxes
        self.rows = tuple(tuple(sorted(set(r))) for r in rows)
        for r in self.rows:
            if r and (r[0] < 0 or r[-1] >= n_boxes):
                raise DataError("box index out of range in fit matrix row")
        self.timeouts = tuple(timeouts)
        self.config_hash = config_hash

    def is_set(self, i: int, j: int) -> bool:
        row = self.rows[i]
        k = np.searchsorted(row, j) if row else 0
        return bool(row) and k < len(row) and row[k] == j

    @property
    def set_bits(self) -> int:
        return sum(len(r) for r in self.rows)

    def packables(self) -> PackableSet:
        W = tuple(i for i, r in enumerate(self.rows) if r)
        return PackableSet(W=W, fitting_boxes={i: self.rows[i] for i in W})

    # -- persistence ----------------------------------------------------------

    def save_csv(self, path: str | Path, shipments: Sequence[Shipment],
                 boxes: BoxSet, manifest_path: Optional[str | Path] = None) -> None:
        path = Path(path)
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["shipment_id", "box_id"])
            for i, row in enumerate(self.rows):
                sid = shipments[i].id
                for j in row:
                    w.writerow([sid, boxes[j].id])
        if manifest_path is None:
            manifest_path = path.with_suffix(".manifest.json")
        manifest = {
            "shipments": self.n_shipments,
            "boxes": self.n_boxes,
            "set_bits": self.set_bits,
            "packable": len([r for r in self.rows if r]),
            "config_hash": self.config_hash,
            "timeouts": [[sid, bid] for sid, bid in self.timeouts],
        }
        Path(manifest_path).write_text(json.dumps(manifest, indent=2) + "\n")


def load_fit_matrix(path: str | Path, shipments: Sequence[Shipment],
                    boxes: BoxSet, manifest_path: Optional[str | Path] = None) -> FitMatrix:
    path = Path(path)
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
    config_hash = ""
    timeouts: list[tuple[int, int]] = []
    if manifest_path is None:
        candidate = path.with_suffix(".manifest.json")
        manifest_path = candidate if candidate.exists() else None
    if manifest_path is not None:
        manifest = json.loads(Path(manifest_path).read_text())
        config_hash = manifest.get("config_hash", "")
        timeouts = [tuple(t) for t in manifest.get("timeouts", [])]
        mat = FitMatrix(len(shipments), len(boxes), rows, timeouts, config_hash)
        for key, got in (("shipments", mat.n_shipments), ("boxes", mat.n_boxes),
                         ("set_bits", mat.set_bits)):
            if key in manifest and manifest[key] != got:
                raise DataError(f"fit matrix manifest disagrees on {key}: "
                                f"{manifest[key]} != {got}")
        return mat
    return FitMatrix(len(shipments), len(boxes), rows, timeouts, config_hash)


# -- the scan ------------------------------------------------------------------


def _carton_signature(c: Carton, enforce_ho: bool, enforce_br: bool):
    ho = enforce_ho and c.height_oriented
    br = enforce_br and c.bottom_resting
    p, q, r = c.dims.as_tuple()
    if ho:
        return ("ho", (p, q) if p >= q else (q, p), r, br)
    return ("free", tuple(sorted((p, q, r), reverse=True)), br)


def _box_key(box_dims: tuple[float, float, float], pinned: bool):
    x, y, z = box_dims
    if pinned:
        return ((x, y) if x >= y else (y, x)) + (z,)
    return tuple(sorted(box_dims, reverse=True))


class _ShipmentScanner:
    """Scans one shipment across all boxes; memoizes solved subproblems."""

    def __init__(self, boxes: BoxSet, nests: NestSets, cfg: FitScanConfig):
        self.boxes = boxes
        self.nests = nests
        self.cfg = cfg
        self.memo: dict = {}

    def _cached_verdict(self, cartons: tuple[Carton, ...], box_dims, pinned: bool,
                        solver_cfg: SolverConfig) -> Outcome:
        sig = tuple(sorted(
            _carton_signature(c, self.cfg.enforce_ho, self.cfg.enforce_br)
            for c in cartons))
        key = (sig, _box_key(box_dims, pinned))
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        prob = FitProblem(cartons, Dims3(*box_dims),
                          enforce_ho=self.cfg.enforce_ho,
                          enforce_br=self.cfg.enforce_br)
        if len(cartons) in (2, 3):
            out = fits_exact_small(prob).outcome
        elif len(cartons) >= 5 and dff_refutes(prob):
            # A four-carton NO_FIT search takes about a millisecond; the
            # screen is kept for the orders whose proofs run long.
            out = Outcome.NO_FIT
        else:
            out = solve_fit(prob, solver_cfg).outcome
            if out is Outcome.TIMED_OUT and self.cfg.retry_time_limit:
                retry = SolverConfig(
                    time_limit=self.cfg.retry_time_limit,
                    use_identical_symmetry=solver_cfg.use_identical_symmetry,
                    use_orthant_symmetry=solver_cfg.use_orthant_symmetry,
                    anchor_rule=solver_cfg.anchor_rule)
                out = solve_fit(prob, retry).outcome
        self.memo[key] = out
        return out

    def _prescreens_pass(self, cartons, box_dims, pinned) -> bool:
        # Pairs and triples are necessary conditions; both go through the
        # exact small solver (memoized).
        solver_cfg = self.cfg.solver
        n = len(cartons)
        for a in range(n):
            for b in range(a + 1, n):
                if self._cached_verdict((cartons[a], cartons[b]), box_dims,
                                        pinned, solver_cfg) is not Outcome.FIT:
                    return False
        for a in range(n):
            for b in range(a + 1, n):
                for c in range(b + 1, n):
                    if self._cached_verdict((cartons[a], cartons[b], cartons[c]),
                                            box_dims, pinned, solver_cfg) is not Outcome.FIT:
                        return False
        return True

    def scan(self, shipment: Shipment) -> tuple[list[int], list[tuple[int, int]]]:
        boxes, nests, cfg = self.boxes, self.nests, self.cfg
        J = len(boxes)
        v = liquid_volume(shipment)
        j0 = search_sorted_first(boxes.volumes, v) - 1  # to 0-based
        row = bytearray(J)
        timeouts: list[tuple[int, int]] = []
        if j0 >= J:
            return [], timeouts
        cartons = shipment.cartons
        n = len(cartons)
        if n == 0:
            # Foldable items conform to any space of sufficient volume.
            for j in range(j0, J):
                row[j] = 1
            return list(range(j0, J)), timeouts

        ho_count = sum(1 for c in cartons if c.height_oriented) if cfg.enforce_ho else 0
        br_count = sum(1 for c in cartons if c.bottom_resting) if cfg.enforce_br else 0
        pinned = ho_count > 0 or br_count > 0
        closure = nests.ho if pinned else nests.free

        # Vectorized per-carton necessity over all boxes at once.
        nec = np.ones(J, dtype=bool)
        free_dims = [tuple(sorted(c.dims.as_tuple(), reverse=True))
                     for c in cartons if not (cfg.enforce_ho and c.height_oriented)]
        eps = 1e-9 * float(boxes.dims.max()) if J else 0.0
        if free_dims:
            mx = np.max(np.array(free_dims), axis=0)
            nec &= np.all(boxes.sorted_dims >= mx - eps, axis=1)
        if cfg.enforce_ho:
            ho_dims = [((c.dims.a, c.dims.b) if c.dims.a >= c.dims.b
                        else (c.dims.b, c.dims.a)) + (c.dims.c,)
                       for c in cartons if c.height_oriented]
            if ho_dims:
                mx = np.max(np.array(ho_dims), axis=0)
                nec &= np.all(boxes.sorted_lw_dims >= mx - eps, axis=1)

        for j in range(j0, J):
            if row[j] or not nec[j]:
                continue
            box = boxes[j].inner
            box_dims = box.as_tuple()
            if n == 1:
                # Necessity for one carton is the exact single test.
                for k in closure[j]:
                    row[k] = 1
                continue
            if cfg.use_prescreens and n >= 4 and not self._prescreens_pass(
                    cartons, box_dims, pinned):
                continue
            lw_box = Dims3(*_box_key(box_dims, True))
            if fits_stacking(cartons, lw_box, ho_count, br_count,
                             enforce_ho=cfg.enforce_ho, enforce_br=cfg.enforce_br):
                for k in closure[j]:
                    row[k] = 1
                continue
            out = self._cached_verdict(cartons, box_dims, pinned, cfg.solver)
            if out is Outcome.TIMED_OUT:
                timeouts.append((shipment.id, boxes[j].id))
            if out is Outcome.FIT:
                for k in closure[j]:
                    row[k] = 1
        return [j for j in range(J) if row[j]], timeouts


def _scan_chunk(args):
    shipments, boxes, nests, cfg = args
    scanner = _ShipmentScanner(boxes, nests, cfg)
    return [scanner.scan(s) for s in shipments]


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
    results: list[tuple[list[int], list[tuple[int, int]]]]
    if cfg.threads > 1 and len(shipments) > 1:
        chunks = [list(shipments[k::cfg.threads]) for k in range(cfg.threads)]
        with ProcessPoolExecutor(max_workers=cfg.threads) as pool:
            parts = list(pool.map(_scan_chunk, [(c, boxes, nests, cfg) for c in chunks]))
        # Re-interleave to shipment order.
        results = [None] * len(shipments)  # type: ignore[list-item]
        for k, part in enumerate(parts):
            for offset, res in enumerate(part):
                results[k + offset * cfg.threads] = res
    else:
        scanner = _ShipmentScanner(boxes, nests, cfg)
        results = [scanner.scan(s) for s in shipments]
    rows = [r for r, _ in results]
    timeouts = [t for _, ts in results for t in ts]
    matrix = FitMatrix(len(shipments), len(boxes), rows, timeouts, cfg.content_hash())
    return matrix, matrix.packables()
