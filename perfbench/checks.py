"""Output checks for one pipeline pass, run outside the timed region.

The report names the stages whose outputs a check rejects; a rejected stage
counts as a failed operation. Fit verdicts are sampled and
re-decided by the package's independent deciders: set bits by ``solve_fit``
with its witness re-checked by ``check_witness``, unset bits by the
exhaustive ``oracle_fit``. Everything else is recomputed in full from the
files the CLI commands would leave behind (fit.csv, its manifest, suite.json).
"""
from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Sampling caps: the re-proofs are exponential in the worst case, so each
# family stops at a count or a time budget, whichever comes first.
_SAMPLES = 24
_BUDGET_S = 2.0
_REPROOF_LIMIT_S = 1.0
_REL_TOL = 1e-9


@dataclass
class CheckReport:
    failed_stages: set = field(default_factory=set)
    failed_shipments: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    set_bits_verified: int = 0
    set_bits_unverified: int = 0  # re-proof timed out: neither confirmed nor refuted
    unset_bits_verified: int = 0

    def fail(self, stage: str, message: str) -> None:
        self.failed_stages.add(stage)
        self.problems.append(f"{stage}: {message}")


def read_fit_csv(path: Path, ship_ids, box_ids, report: CheckReport) -> dict[int, set]:
    """Shipment id -> set of box ids, parsed independently of the package."""
    rows: dict[int, set] = {sid: set() for sid in ship_ids}
    known_boxes = set(box_ids)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["shipment_id", "box_id"]:
            report.fail("fit", "fit.csv header is not shipment_id,box_id")
        for cells in reader:
            try:
                sid, bid = int(cells[0]), int(cells[1])
            except (ValueError, IndexError):
                report.fail("fit", f"malformed fit.csv line {cells!r}")
                continue
            if sid not in rows or bid not in known_boxes or bid in rows[sid]:
                report.fail("fit", f"unknown or repeated pair {sid},{bid}")
                continue
            rows[sid].add(bid)
    return rows


def check_pass(workdir: Path, wl: dict, result: dict, seed: int) -> CheckReport:
    from boxsuite import fitmatrix, model
    from boxsuite.fitting import (FitProblem, Outcome, SolverConfig, check_witness,
                                  oracle_fit, solve_fit)

    report = CheckReport()
    out = workdir / "out"
    boxes = model.load_boxes(workdir / "boxes.csv")
    shipments = model.load_shipments(workdir / "shipments.csv")
    ship_by_id = {s.id: s for s in shipments}
    box_index = {bx.id: j for j, bx in enumerate(boxes.boxes)}
    rng = np.random.default_rng(seed)

    if "fit" not in result["stages_ok"]:
        report.fail("fit", "stage raised")
        return report
    rows = read_fit_csv(out / "fit.csv", ship_by_id, box_index, report)
    manifest = json.loads((out / "fit.manifest.json").read_text())
    set_bits = sum(len(r) for r in rows.values())
    if manifest.get("set_bits") != set_bits:
        report.fail("fit", f"manifest set_bits {manifest.get('set_bits')} != {set_bits}")
    timed_out = {(int(s), int(b)) for s, b in manifest.get("timeouts", [])}
    timed_out_ships = {s for s, _ in timed_out}

    # Rows closed under nesting: every box a set box nests into is set too.
    nests = fitmatrix.compute_nest_sets(boxes)
    m = len(boxes)
    dense = np.zeros((len(shipments), m), dtype=np.float32)
    for r, s in enumerate(shipments):
        dense[r, [box_index[b] for b in rows[s.id]]] = 1.0
    pinned = np.array([any(c.height_oriented or c.bottom_resting for c in s.cartons)
                       for s in shipments])
    for family, sel in ((nests.free, ~pinned), (nests.ho, pinned)):
        reach = np.zeros((m, m), dtype=np.float32)
        for j, hosts in enumerate(family):
            reach[j, list(hosts)] = 1.0
        implied = (dense[sel] @ reach) > 0
        missing = np.argwhere(implied & (dense[sel] == 0))
        if missing.size:
            r, j = missing[0]
            sid = shipments[int(np.flatnonzero(sel)[r])].id
            report.fail("fit", f"row {sid} not closed under nesting at box {boxes[int(j)].id}")

    # Sampled set bits are re-proved; a witness must pass the checker.
    set_pairs = [(sid, bid) for sid in sorted(rows) for bid in sorted(rows[sid])]
    reproof = SolverConfig(time_limit=_REPROOF_LIMIT_S)
    deadline = time.monotonic() + _BUDGET_S
    for k in rng.permutation(len(set_pairs))[:_SAMPLES]:
        if time.monotonic() > deadline:
            break
        sid, bid = set_pairs[int(k)]
        prob = FitProblem(ship_by_id[sid].cartons, boxes[box_index[bid]].inner)
        verdict = solve_fit(prob, reproof)
        if verdict.outcome is Outcome.TIMED_OUT:
            report.set_bits_unverified += 1
        elif verdict.is_fit and check_witness(prob, verdict.witness):
            report.set_bits_verified += 1
        else:
            report.failed_shipments.add(sid)
            report.fail("fit", f"set bit ({sid},{bid}) not re-proved")

    # Sampled unset bits above the volume cut, on small timeout-free shipments,
    # must be NO_FIT for the exhaustive oracle.
    unset_pairs = []
    for s in shipments:
        if s.n_cartons > 4 or s.id in timed_out_ships:
            continue
        liquid = sum(c.dims.volume for c in s.cartons)
        for bx in boxes.boxes:
            if bx.volume >= liquid and bx.id not in rows[s.id]:
                unset_pairs.append((s.id, bx.id))
    deadline = time.monotonic() + _BUDGET_S
    for k in rng.permutation(len(unset_pairs))[:_SAMPLES]:
        if time.monotonic() > deadline:
            break
        sid, bid = unset_pairs[int(k)]
        verdict = oracle_fit(FitProblem(ship_by_id[sid].cartons, boxes[box_index[bid]].inner))
        if verdict.outcome is Outcome.NO_FIT:
            report.unset_bits_verified += 1
        else:
            report.failed_shipments.add(sid)
            report.fail("fit", f"unset bit ({sid},{bid}) fits per the oracle")

    # Suites: objective recomputed from fit.csv and box volumes, locks present.
    volume = {bx.id: bx.volume for bx in boxes.boxes}
    objectives = {}
    for stage, name in (("recommend", "grasp"), ("bound", "lagrangian")):
        if stage not in result["stages_ok"]:
            report.fail(stage, "stage raised")
            continue
        suite = json.loads((out / name / "suite.json").read_text())
        ids = {int(e["id"]) for e in suite["suite"]}
        if not suite["feasible"] or len(ids) != wl["p"]:
            report.fail(stage, f"suite infeasible or not of size p={wl['p']}")
            continue
        if not set(wl["locked_ids"]) <= ids:
            report.fail(stage, f"locked boxes {wl['locked_ids']} missing from suite")
        total = 0.0
        for sid, row in rows.items():
            if row:
                hit = row & ids
                if not hit:
                    report.fail(stage, f"shipment {sid} not covered by the suite")
                    break
                total += min(volume[b] for b in hit)
        objectives[name] = suite["objective"]
        if abs(total - suite["objective"]) > _REL_TOL * max(1.0, total):
            report.fail(stage, f"objective {suite['objective']} != recomputed {total}")
        if name == "lagrangian":
            lb = suite["lower_bound"]
            if lb is None or lb > min(objectives.values()) * (1 + _REL_TOL):
                report.fail(stage, f"lower bound {lb} above an objective {objectives}")

    # Validation: set a is the training set; with no timeouts anywhere and at most
    # five cartons (where the 5 s default limit of `validate` is not reached), its
    # packing cost into the GRASP suite is exactly the GRASP objective.
    if "validate" not in result["stages_ok"]:
        report.fail("validate", "stage raised")
    else:
        val = result["validate"]
        if val["a"]["shipments"] != len(shipments) or val["b"]["shipments"] != wl["holdout"]:
            report.fail("validate", "validated shipment counts do not match the inputs")
        max_cartons = max(n for n, _ in wl["seeded"] + wl["panel"])
        if not timed_out and max_cartons <= 5 and "grasp" in objectives:
            unpackable = sum(1 for r in rows.values() if not r)
            if val["a"]["uncovered"] != unpackable:
                report.fail("validate", f"{val['a']['uncovered']} uncovered, "
                                        f"fit.csv has {unpackable} unpackable")
            if abs(val["a"]["total_cost"] - objectives["grasp"]) > _REL_TOL * objectives["grasp"]:
                report.fail("validate", f"set a cost {val['a']['total_cost']} != "
                                        f"GRASP objective {objectives['grasp']}")
    return report
