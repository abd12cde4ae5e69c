"""Smoke check of the benchmark itself, at toy size.

Run from the root of a checkout:

    python3 perfbench/smoke.py

Runs one plain pass of each workload on tiny inputs and requires its output
checks to pass. It then shows that the checks reject two corrupted outputs:
a fit.csv missing one bit from a row's nesting closure (manifest adjusted to
match), and a GRASP suite.json whose objective was altered. Exits 0 when all
of this holds.
"""
from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import run as bench
from checks import check_pass
from workloads import WORKLOADS

TOY = {
    "desk": dict(seeded=((1, 20), (2, 10), (3, 6)), panel=((4, 3), (5, 1)),
                 holdout_seeded=((1, 5), (2, 3)), holdout_panel=((4, 1),),
                 p=3, grasp_iterations=2),
    "proofs": dict(panel=((6, 1),), holdout_panel=((6, 1),), p=2, grasp_iterations=2),
    "pmedian": dict(seeded=((1, 60),), holdout_seeded=((1, 20),), p=4, grasp_iterations=2),
}


def drop_closure_bit(workdir: Path) -> str:
    """Remove one fit.csv bit implied by nesting from another set bit."""
    from boxsuite import fitmatrix, model

    boxes = model.load_boxes(workdir / "boxes.csv")
    shipments = {s.id: s for s in model.load_shipments(workdir / "shipments.csv")}
    nests = fitmatrix.compute_nest_sets(boxes)
    index = {bx.id: j for j, bx in enumerate(boxes.boxes)}
    fit_csv = workdir / "out" / "fit.csv"
    lines = fit_csv.read_text().splitlines()
    rows: dict[int, list[int]] = {}
    for line in lines[1:]:
        sid, bid = map(int, line.split(","))
        rows.setdefault(sid, []).append(bid)
    for sid, bids in rows.items():
        pinned = any(c.height_oriented or c.bottom_resting for c in shipments[sid].cartons)
        family = nests.ho if pinned else nests.free
        smallest = min(bids, key=lambda b: index[b])
        implied = [b for b in bids if b != smallest and index[b] in family[index[smallest]]]
        if implied:
            victim = f"{sid},{implied[-1]}"
            fit_csv.write_text("\n".join(ln for ln in lines if ln != victim) + "\n")
            manifest_path = workdir / "out" / "fit.manifest.json"
            manifest = json.loads(manifest_path.read_text())
            manifest["set_bits"] -= 1
            manifest_path.write_text(json.dumps(manifest))
            return victim
    raise RuntimeError("no fit.csv row has a bit implied by nesting")


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    ok = True
    for name, changes in TOY.items():
        wl = dataclasses.replace(WORKLOADS[name], **changes)
        run = bench.Run(root, wl, seed=1, workdir=bench.HERE / "work" / f"smoke-{name}")
        run.one_pass("plain", timeout=120.0)
        if not run.complete("plain") or run.failed:
            print(f"{name}: FAILED clean pass: {run.problems}")
            ok = False
            continue
        result = run.passes[0]
        print(f"{name}: clean pass checked ({wl.n_shipments} shipments, "
              f"times {json.dumps({k: round(v, 3) for k, v in result['times'].items()})})")
        out = run.workdir / "out"
        saved = {p: p.read_bytes() for p in (out / "fit.csv", out / "fit.manifest.json",
                                             out / "grasp" / "suite.json")}

        victim = drop_closure_bit(run.workdir)
        report = check_pass(run.workdir, run.inputs, result, seed=1)
        rejected = "fit" in report.failed_stages
        print(f"{name}: fit.csv without bit {victim}: "
              f"{'rejected' if rejected else 'NOT rejected'} {report.problems[:1]}")
        ok &= rejected
        for path, data in saved.items():
            path.write_bytes(data)

        suite_path = out / "grasp" / "suite.json"
        suite = json.loads(suite_path.read_text())
        suite["objective"] += 1.0
        suite_path.write_text(json.dumps(suite))
        report = check_pass(run.workdir, run.inputs, result, seed=1)
        rejected = "recommend" in report.failed_stages
        print(f"{name}: suite.json objective +1: "
              f"{'rejected' if rejected else 'NOT rejected'} {report.problems[:1]}")
        ok &= rejected
        for path, data in saved.items():
            path.write_bytes(data)
    print("smoke check passed" if ok else "smoke check FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
