"""Seeded workload generator for the pipeline benchmark.

Every input the program sees is written here: the candidate boxes, the
shipments, and a holdout sample for ``validate``. Nothing is imported from
the package or from its tests, so a change to either cannot shift a workload.

Orders follow the retail mix of the desk data set: items come from one fixed
catalogue of 150 integral items, small relative to the step-2 box grid, and
each order is filled from one to three distinct items.

Two kinds of order set make up a workload:

- the *panel* is a fixed set of orders, drawn once from a constant seed and
  placed first: the order history a suite is recommended from;
- *seeded* orders are drawn from ``--seed``, a fixed number per carton count
  so that the count mix itself does not vary.

Solver time is heavy-tailed in the input, so the inputs that decide it are
panel orders. At the seed commit a 600-order desk mix drawn per seed took
4.9 to 13.6 s to fit over six seeds, single 6-carton orders took 0.01 to
17 s, and the desk Lagrangian took 1.1 s on one seed's orders (it met its gap
target early) and 2.2 to 2.6 s on four others. No run short enough to repeat
averages that out. So ``desk`` and ``proofs`` recommend from a fixed history
and only the desk holdout's 1-3 carton orders follow the seed, while
``pmedian``, whose single-carton rows give steady times, is drawn in full
from the seed.
"""
from __future__ import annotations

import csv
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

CATALOGUE_SEED = 90210  # the desk data set's default seed
PANEL_SEED = 2004
_N_ITEMS = 150
_HO_SHARE = 0.10  # share of catalogue items that are height-oriented
_BR_SHARE = 0.05  # share of catalogue items that are bottom-resting


@dataclass(frozen=True)
class Workload:
    """One benchmark input family and the pipeline settings it runs with."""

    name: str
    why: str
    # (carton count, number of orders) pairs.
    seeded: tuple[tuple[int, int], ...]
    panel: tuple[tuple[int, int], ...]
    holdout_seeded: tuple[tuple[int, int], ...]
    holdout_panel: tuple[tuple[int, int], ...]
    time_limit_ms: int  # per-call B&B limit of the fit stage, as `fit --time-limit-ms`
    p: int
    grasp_iterations: int  # as `recommend --graspit`

    @property
    def n_shipments(self) -> int:
        return sum(k for _, k in self.seeded + self.panel)

    @property
    def n_holdout(self) -> int:
        return sum(k for _, k in self.holdout_seeded + self.holdout_panel)


WORKLOADS: dict[str, Workload] = {
    wl.name: wl for wl in (
        Workload(
            name="desk",
            why="everyday retail mix of 1-5 cartons: screens, exact small "
                "solvers, easy B&B, a real GRASP and validate all take a share",
            seeded=(), panel=((1, 175), (2, 125), (3, 95), (4, 40), (5, 20)),
            holdout_seeded=((1, 52), (2, 38), (3, 28)), holdout_panel=((4, 10), (5, 5)),
            time_limit_ms=5000, p=5, grasp_iterations=8),
        Workload(
            name="proofs",
            why="6- and 7-carton orders at a 1 s limit: B&B NO_FIT proofs and "
                "timeouts dominate, the p-median layer does almost nothing",
            seeded=(), panel=((6, 4), (7, 1)),
            holdout_seeded=(), holdout_panel=((6, 1),),
            # p = orders + lock: every order keeps its cheapest box, so a pair
            # that times out in one run and not in another (the limit is wall
            # clock) leaves the suite, and the stages after fit, unchanged.
            time_limit_ms=1000, p=6, grasp_iterations=4),
        Workload(
            name="pmedian",
            why="single-carton orders, 2.3x as many rows as the 665 columns: no "
                "solver calls; cost build, fit.csv I/O and kernels dominate",
            seeded=((1, 1500),), panel=(),
            holdout_seeded=((1, 500),), holdout_panel=(),
            time_limit_ms=5000, p=10, grasp_iterations=4),
    )
}


def box_grid():
    """The step-2 candidate grid: integral boxes x >= y >= z from (5, 4, 1) to
    (40, 20, 16), ids 1..665 in volume order."""
    triples = [(x, y, z)
               for x in range(5, 41, 2)
               for y in range(4, 21, 2) if y <= x
               for z in range(1, 17, 2) if z <= y]
    triples.sort(key=lambda t: (t[0] * t[1] * t[2], t))
    return [(i, t) for i, t in enumerate(triples, start=1)]


def catalogue():
    """The fixed item catalogue: (dims, height_oriented, bottom_resting)."""
    rng = np.random.default_rng(CATALOGUE_SEED)
    items = []
    for _ in range(_N_ITEMS):
        dims = sorted((int(rng.integers(2, 15)), int(rng.integers(1, 10)),
                       int(rng.integers(1, 7))), reverse=True)
        ho = bool(rng.random() < _HO_SHARE)
        if ho:
            # The third component is the height that must stay vertical.
            dims = [dims[k] for k in rng.permutation(3)]
        items.append((tuple(dims), ho, bool(rng.random() < _BR_SHARE)))
    return items


def _orders(rng: np.random.Generator, strata, n_items: int):
    """Orders as lists of (item index, quantity), one per carton count drawn."""
    orders = []
    for total, count in strata:
        for _ in range(count):
            n_unique = int(rng.integers(1, min(3, total) + 1))
            picks = rng.choice(n_items, size=n_unique, replace=False)
            quantities = [1] * n_unique
            for _ in range(total - n_unique):
                quantities[int(rng.integers(0, n_unique))] += 1
            orders.append(list(zip((int(i) for i in picks), quantities)))
    return orders


def shipment_rows(seed: int, seeded, panel, panel_salt: int):
    """CSV rows ``shipment_id,item_id,quantity,dim1,dim2,dim3,ho,br``.

    Panel orders come first, in a fixed order that depends only on
    ``panel_salt``; the seeded orders drawn from ``seed`` follow.
    """
    items = catalogue()
    orders = _orders(np.random.default_rng([PANEL_SEED, panel_salt]), panel, len(items))
    orders += _orders(np.random.default_rng(seed), seeded, len(items))
    rows = []
    for sid, order in enumerate(orders, start=1):
        for idx, qty in order:
            dims, ho, br = items[idx]
            rows.append((sid, idx + 1, qty, *dims, int(ho), int(br)))
    return rows


def locked_box_id(grid) -> int:
    """The locked box, fixed: drawn once from the middle third of the grid."""
    third = len(grid) // 3
    return grid[int(np.random.default_rng(PANEL_SEED).integers(third, 2 * third))][0]


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


_HOLDOUT_SALT = 7919  # holdout seed = seed * salt + 1: same generator, another seed


def generate(wl: Workload, seed: int, out_dir: Path) -> dict:
    """Write boxes.csv, shipments.csv and holdout.csv; return the input record."""
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = box_grid()
    _write_csv(out_dir / "boxes.csv", ("box_id", "dim1", "dim2", "dim3"),
               [(i, *t) for i, t in grid])
    header = ("shipment_id", "item_id", "quantity", "dim1", "dim2", "dim3", "ho", "br")
    _write_csv(out_dir / "shipments.csv", header,
               shipment_rows(seed, wl.seeded, wl.panel, 0))
    _write_csv(out_dir / "holdout.csv", header,
               shipment_rows(seed * _HOLDOUT_SALT + 1, wl.holdout_seeded,
                             wl.holdout_panel, 1))
    record = asdict(wl)
    record.update(seed=seed, boxes=len(grid), shipments=wl.n_shipments,
                  holdout=wl.n_holdout, locked_ids=[locked_box_id(grid)],
                  catalogue_seed=CATALOGUE_SEED, panel_seed=PANEL_SEED)
    return record
