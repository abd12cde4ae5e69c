"""Record and replay every branch-and-bound call of a fit scan.

Runs a single-threaded ``compute_fit_matrix`` of SHIPMENTS against BOXES
(default ``FitScanConfig`` otherwise) and, with ``--holdout`` and
``--suite``, ``validate`` of that suite's boxes (training orders and
holdout, inner-volume costs, as ``boxsuite validate`` does). Every
``solve_fit`` call the two make is recorded: its problem, solver settings,
verdict and wall time.

    python3 scripts/bnb_replay.py boxes.csv shipments.csv \\
        --holdout holdout.csv --suite out/grasp/suite.json --repeat 3

It prints calls, nodes and seconds grouped by (carton count, outcome), and
a sha256 over the calls' (outcome, nodes, witness) sequence in call order.
Two source trees that give the same digest on the same inputs built the
same search tree for every call. A timed-out call's node count depends on
the clock, so it enters the digest by its outcome alone. With ``--repeat R``
the recorded problems are solved again R times in a row, and each group's
seconds are the fastest of those rounds: the branch-and-bound's own time,
without the scan around it.

The package is imported from the ``src/`` next to this script, so the
script measures the checkout it lives in.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from boxsuite import fitmatrix, pipeline  # noqa: E402
from boxsuite.cost import InnerVolumeCost  # noqa: E402
from boxsuite.model import load_boxes, load_shipments  # noqa: E402


def record_calls(boxes, shipments, holdout=None, suite_ids=None) -> list:
    """(source, problem, config, verdict, seconds) for every ``solve_fit``
    call of the scan and, given a holdout and suite, of ``validate``."""
    calls: list = []
    solve = fitmatrix.solve_fit
    source = "scan"

    def recording(prob, cfg=None):
        t0 = time.perf_counter()
        verdict = solve(prob, cfg)
        calls.append((source, prob, cfg, verdict, time.perf_counter() - t0))
        return verdict

    fitmatrix.solve_fit = recording
    try:
        fitmatrix.compute_fit_matrix(shipments, boxes, cfg=fitmatrix.FitScanConfig(threads=1))
        if suite_ids is not None:
            source = "validate"
            pipeline.validate(suite_ids, boxes, shipments, holdout, model=InnerVolumeCost())
    finally:
        fitmatrix.solve_fit = solve
    return calls


def digest(verdicts) -> str:
    """sha256 over each verdict's outcome, nodes (not for a timeout) and
    witness placements, in order."""
    h = hashlib.sha256()
    for v in verdicts:
        nodes = None if v.timed_out else v.nodes
        witness = None if v.witness is None else [
            (pl.carton, pl.extents, pl.origin) for pl in v.witness]
        h.update(repr((v.outcome.value, nodes, witness)).encode())
    return h.hexdigest()


def replay_seconds(calls, rounds: int) -> list:
    """Per call, its fastest time over ``rounds`` fresh solves of the
    recorded problems, all calls solved once per round."""
    best = [float("inf")] * len(calls)
    for _ in range(rounds):
        for k, (_, prob, cfg, _, _) in enumerate(calls):
            t0 = time.perf_counter()
            fitmatrix.solve_fit(prob, cfg)
            best[k] = min(best[k], time.perf_counter() - t0)
    return best


def summary(calls, seconds) -> dict:
    groups: dict = defaultdict(lambda: {"calls": 0, "nodes": 0, "seconds": 0.0})
    for (_, prob, _, verdict, _), s in zip(calls, seconds):
        g = groups[f"n{prob.n}.{verdict.outcome.value}"]
        g["calls"] += 1
        g["nodes"] += verdict.nodes
        g["seconds"] += s
    by_source: dict = defaultdict(int)
    for source, *_ in calls:
        by_source[source] += 1
    return {
        "calls": len(calls),
        "calls_by_source": dict(by_source),
        "nodes": sum(v.nodes for _, _, _, v, _ in calls),
        "seconds": sum(seconds),
        "groups": dict(sorted(groups.items())),
        "digest": digest(v for _, _, _, v, _ in calls),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("boxes", help="boxes CSV")
    ap.add_argument("shipments", help="shipments CSV (the training orders)")
    ap.add_argument("--holdout", help="holdout shipments CSV; needs --suite")
    ap.add_argument("--suite", help="suite.json whose boxes validate packs into")
    ap.add_argument("--repeat", type=int, default=0,
                    help="solve the recorded problems again this many times and "
                         "report the fastest round per call")
    ap.add_argument("--json", help="also write the summary to this file")
    args = ap.parse_args(argv)
    if (args.holdout is None) != (args.suite is None):
        ap.error("--holdout and --suite go together")

    boxes = load_boxes(args.boxes)
    shipments = load_shipments(args.shipments)
    holdout = suite_ids = None
    if args.suite is not None:
        holdout = load_shipments(args.holdout)
        suite_ids = [int(e["id"]) for e in json.loads(Path(args.suite).read_text())["suite"]]
    calls = record_calls(boxes, shipments, holdout, suite_ids)
    seconds = ([s for *_, s in calls] if args.repeat <= 0
               else replay_seconds(calls, args.repeat))
    out = summary(calls, seconds)
    out["seconds_are"] = ("as recorded" if args.repeat <= 0
                          else f"fastest of {args.repeat} replay rounds")

    print(f"{'group':<16}{'calls':>8}{'nodes':>10}{'seconds':>10}")
    for name, g in out["groups"].items():
        print(f"{name:<16}{g['calls']:>8}{g['nodes']:>10}{g['seconds']:>10.4f}")
    print(f"{'total':<16}{out['calls']:>8}{out['nodes']:>10}{out['seconds']:>10.4f}"
          f"  ({out['seconds_are']})")
    print(f"calls by source: {out['calls_by_source']}")
    print(f"digest: {out['digest']}")
    if args.json:
        Path(args.json).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
