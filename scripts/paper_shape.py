"""Wall time and peak RSS of each pipeline stage at the paper's instance shape.

The instance is synthetic, generated from a fixed seed in the shape of the
paper's (ROADMAP.md, *Measured baseline*): 15,000 single-carton orders with
dims uniform in 1.0-35.0 rounded to 0.1, against 5,284 distinct integral boxes
from 6..60 x 4..40 x 2..30, with inner-volume costs, p = 10 and no locks.

Each stage runs in a fresh interpreter against the package source of one
source tree, so two checkouts can be compared:

    python3 scripts/paper_shape.py --tree parent=../old-checkout --tree change=. \\
        --out BENCH_paper_shape.json

Stages, in order: ``nest_sets`` (compute_nest_sets), ``fit`` (the scan),
``save`` (FitMatrix.save_csv, fit.csv and fit.npz), ``load``
(load_fit_matrix), ``cost`` (the weighted distinct-row instance: the cost
build, and collapse_rows after it for a tree whose build returns the full
matrix) and ``dominance`` (drop_dominated_columns). A stage process first
redoes, untimed, the steps it needs (``cost`` loads the fit matrix that
``save`` wrote), and reads VmHWM after every step, so a stage's peak RSS
covers every step before it in that process. ``dominance`` also hashes the
reduced instance (d, w, kept columns) and the row map, which must agree
across trees. With ``--repeats N`` the trees alternate N times and each
figure is the median. The work directory holds about 0.5 GB per tree.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SEED = 2020
N_ORDERS = 15_000
N_BOXES = 5_284
P = 10
STAGES = ("nest_sets", "fit", "save", "load", "cost", "dominance")


def _instance():
    import numpy as np

    from boxsuite.model import BoxSet, CandidateBox, Carton, Dims3, Shipment

    rng = np.random.default_rng(SEED)
    dims = np.round(rng.uniform(1.0, 35.0, size=(N_ORDERS, 3)), 1).tolist()
    shipments = [Shipment(id=i + 1, cartons=(Carton(Dims3(*d)),))
                 for i, d in enumerate(dims)]
    seen: dict[tuple[int, int, int], None] = {}
    while len(seen) < N_BOXES:
        for t in zip(rng.integers(6, 61, 1024).tolist(), rng.integers(4, 41, 1024).tolist(),
                     rng.integers(2, 31, 1024).tolist()):
            seen.setdefault(t)
    boxes = BoxSet([CandidateBox(j + 1, Dims3(*t))
                    for j, t in enumerate(list(seen)[:N_BOXES])])
    return shipments, boxes


def _peak_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0  # kB
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def run_stage(stage: str, work: Path) -> dict:
    """Run one stage in this process; its timings, peaks and facts."""
    import numpy as np

    from boxsuite import fitmatrix
    from boxsuite.cost import build_cost_matrix
    from boxsuite.pmedian import PMedianInstance, collapse_rows, drop_dominated_columns

    out: dict = {}

    def step(name, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        out[f"{name}_s"] = round(time.perf_counter() - t0, 4)
        out[f"{name}_peak_rss_mb"] = round(_peak_rss_mb(), 1)
        return result

    shipments, boxes = step("generate", _instance)
    fit_csv = work / "fit.csv"
    if stage == "nest_sets":
        step("nest_sets", fitmatrix.compute_nest_sets, boxes)
        return out
    if stage in ("fit", "save"):
        fit, _ = step("fit", fitmatrix.compute_fit_matrix, shipments, boxes)
        out.update(set_bits=fit.set_bits, packable=len(fit.packables().W))
        if stage == "save":
            step("save", fit.save_csv, fit_csv, shipments, boxes)
            out["csv_mb"] = round(fit_csv.stat().st_size / 2**20, 1)
        return out
    fit = step("load", fitmatrix.load_fit_matrix, fit_csv, shipments, boxes)
    if stage == "load":
        return out
    cm = step("build", build_cost_matrix, shipments, fit, boxes)
    out["C_mb"] = round(cm.C.nbytes / 2**20, 1)
    if hasattr(cm, "w"):
        inst, rows = PMedianInstance(cm.C, P, cm.w), cm.rows
    else:  # a build that returns the full matrix: merge its rows afterwards
        inst, rows = step("collapse", collapse_rows, cm.C, P)
    out["distinct_rows"] = inst.n
    if stage == "cost":
        return out
    reduced, kept = step("dominance", drop_dominated_columns, inst)
    out.update(reduced_rows=reduced.n, kept_columns=len(kept),
               reduced_sha256=_sha256(reduced.d, reduced.w, np.asarray(kept, dtype=np.int64)),
               row_map_sha256=_sha256(np.asarray(rows, dtype=np.int64)))
    return out


def _stage_process(src: Path, stage: str, work: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, __file__, "--stage", stage, "--work", str(work)],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"stage {stage} failed under {src}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["process_s"] = round(time.perf_counter() - t0, 3)
    return result


def _median_record(runs: list[dict]) -> dict:
    """Median of every number over the runs; other values from the first run."""
    rec = {}
    for key, value in runs[0].items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            rec[key] = statistics.median(r[key] for r in runs)
        else:
            rec[key] = value
    if len(runs) > 1:
        rec["runs"] = runs
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", action="append", default=[], metavar="NAME=PATH",
                    help="a source tree to measure (its src/ is imported); repeatable")
    ap.add_argument("--out", type=Path, default=Path("BENCH_paper_shape.json"))
    ap.add_argument("--work", type=Path, default=None,
                    help="directory for fit.csv and fit.npz (default: a temporary one)")
    ap.add_argument("--repeats", type=int, default=1)
    ap.add_argument("--stage", choices=STAGES, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.stage:
        print(json.dumps(run_stage(args.stage, args.work)))
        return 0
    trees = dict(t.split("=", 1) for t in args.tree) or {"tree": "."}
    work = args.work or Path(tempfile.mkdtemp(prefix="paper_shape_"))
    runs: dict[str, dict[str, list]] = {name: {s: [] for s in STAGES} for name in trees}
    try:
        for _ in range(args.repeats):
            for name, root in trees.items():
                tree_work = work / name
                tree_work.mkdir(parents=True, exist_ok=True)
                for stage in STAGES:
                    rec = _stage_process(Path(root).resolve() / "src", stage, tree_work)
                    runs[name][stage].append(rec)
                    print(name, stage, json.dumps(rec), file=sys.stderr)
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    stages = {name: {s: _median_record(r) for s, r in per.items()} for name, per in runs.items()}
    digests = {(st["dominance"]["reduced_sha256"], st["dominance"]["row_map_sha256"])
               for st in stages.values()}
    record = {
        "instance": {"seed": SEED, "orders": N_ORDERS, "boxes": N_BOXES, "p": P,
                     "costs": "inner volume", "locks": 0},
        "host": f"{platform.machine()}, {os.cpu_count()} cores, Python {platform.python_version()}",
        "repeats": args.repeats,
        "trees": list(trees),
        "reduced_instance_identical": len(digests) == 1,
        "stages": stages,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
