"""Command-line front end: fit, recommend, validate, compare, finetune, fitone."""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import traceback
from pathlib import Path
from typing import Optional, Sequence

from boxsuite.cost import (
    CostModel,
    InnerVolumeCost,
    load_box_cost_table,
    load_pair_cost_table,
)
from boxsuite.fitmatrix import (
    FitScanConfig,
    cheapest_fitting_boxes,
    compute_fit_matrix,
    load_fit_matrix,
)
from boxsuite.fitting import SolverConfig
from boxsuite.model import (
    BoxSet,
    CandidateBox,
    DataError,
    Dims3,
    load_boxes,
    load_shipments,
    save_boxes,
)
from boxsuite.pipeline import (
    METHODS,
    NO_FEASIBLE_MESSAGE,
    RunConfig,
    compare_suites,
    finetune_candidates,
    recommend,
    validate,
)
from boxsuite.pmedian import GraspParams

__all__ = ["main"]


def _threads_default() -> int:
    """Worker count from BOXSUITE_THREADS; 1 when it is unset or empty."""
    env = os.environ.get("BOXSUITE_THREADS", "")
    if not env:
        return 1
    try:
        threads = int(env)
    except ValueError:
        threads = 0
    if threads < 1:
        raise DataError(f"BOXSUITE_THREADS must be a positive integer, got {env!r}")
    return threads


def _load_cost_model(spec: str) -> CostModel:
    if spec == "inner-volume":
        return InnerVolumeCost()
    if spec.startswith("table:"):
        path = spec[len("table:"):]
        with open(path, newline="") as fh:
            first_data = None
            for row in csv.reader(fh):
                cells = [c for c in row if c.strip() != ""]
                if cells:
                    first_data = cells
                    break
        if first_data is None:
            raise DataError(f"cost table {path} is empty")
        if len(first_data) == 2:
            return load_box_cost_table(path)
        if len(first_data) == 3:
            return load_pair_cost_table(path)
        raise DataError("cost table must have 2 columns (box_id,cost) "
                        "or 3 (shipment_id,box_id,cost)")
    raise DataError(f"unknown cost model {spec!r}; use inner-volume or table:FILE")


def _load_suite_file(path: str) -> tuple[list[int], list[CandidateBox], list[int]]:
    """Suite ids, embedded box definitions, and locked ids from a suite.json."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read suite file {path}: {exc}") from exc
    entries = payload.get("suite")
    if not isinstance(entries, list) or not entries:
        raise DataError(f"suite file {path} holds no suite")
    ids, defs = [], []
    for k, e in enumerate(entries):
        fields = e if isinstance(e, dict) else {}
        box_id, inner = fields.get("id"), fields.get("inner")
        if not _is_int(box_id):
            raise DataError(f"suite file {path}: entry {k} ({e!r}) needs an integer id")
        if not (isinstance(inner, list) and len(inner) == 3
                and all(_is_number(v) for v in inner)):
            raise DataError(f"suite file {path}: entry {k} ({e!r}) needs inner "
                            f"as three numbers")
        ids.append(box_id)
        defs.append(CandidateBox(id=box_id, inner=Dims3(*inner)))
    locked = payload.get("locked", [])
    if not (isinstance(locked, list) and all(map(_is_int, locked))):
        raise DataError(f"suite file {path}: locked must be a list of integer ids, "
                        f"got {locked!r}")
    return ids, defs, locked


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _parse_id_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise DataError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_delta_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise DataError(f"expected comma-separated numbers, got {text!r}") from exc


def cmd_fit(args: argparse.Namespace) -> int:
    boxes = load_boxes(args.boxes)
    shipments = load_shipments(args.shipments, args.items)
    cfg = FitScanConfig(
        solver=SolverConfig(time_limit=args.time_limit_ms / 1000.0),
        threads=args.threads if args.threads is not None else _threads_default())
    fitm, packables = compute_fit_matrix(shipments, boxes, cfg=cfg)
    fitm.save_csv(args.out, shipments, boxes)
    print(f"fit matrix: {fitm.set_bits} bits over {fitm.n_shipments} shipments "
          f"x {fitm.n_boxes} boxes; {len(packables.W)} packable; "
          f"{len(fitm.timeouts)} timeouts")
    return 0


def cmd_recommend(args: argparse.Namespace) -> int:
    boxes = load_boxes(args.boxes)
    shipments = load_shipments(args.shipments, args.items)
    fitm = load_fit_matrix(args.fit, shipments, boxes)
    run = RunConfig(
        p=args.p,
        locked_ids=_parse_id_list(args.lock) if args.lock else (),
        model=_load_cost_model(args.cost),
        method=args.method,
        grasp=GraspParams(iterations=args.graspit, elite_size=args.elite,
                          seed=args.seed),
        out_dir=args.out)
    outcome = recommend(run, shipments, boxes, fit=fitm)
    if outcome.feasible:
        print(outcome.report.to_text())
    else:
        print(NO_FEASIBLE_MESSAGE)
    print(f"outputs written to {args.out}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    suite_ids, _, _ = _load_suite_file(args.suite)
    boxes = load_boxes(args.boxes)
    ship_a = load_shipments(args.shipments_a, args.items_a)
    ship_b = load_shipments(args.shipments_b, args.items_b)
    pair = validate(suite_ids, boxes, ship_a, ship_b,
                    model=_load_cost_model(args.cost),
                    warn_threshold=args.threshold)
    lines = ["box_id  set  n  %ship  %cost  %void"]
    for tag, rep in (("a", pair.a), ("b", pair.b)):
        for ln in rep.lines:
            lines.append(f"{ln.box_id:>6}  {tag}  {ln.n_assigned:>3} "
                         f"{ln.pct_shipments:>7.2f} {ln.pct_cost:>7.2f} "
                         f"{ln.pct_void:>7.2f}")
        lines.append(f"set {tag}: {rep.n_shipments} shipments, "
                     f"{rep.uncovered} uncovered, total cost "
                     f"{rep.total_cost:g}, void {rep.pct_void_total:.2f}%")
    if pair.flagged:
        lines.append(f"divergences above {100 * pair.threshold:.0f}%:")
        for box_id, metric, va, vb in pair.flagged:
            lines.append(f"  box {box_id} {metric}: {va:.2f} vs {vb:.2f}")
    else:
        lines.append("no metric divergence above threshold")
    text = "\n".join(lines)
    print(text)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / "validation.txt").write_text(text + "\n")
        with (Path(args.out) / "validation.csv").open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["set", "box_id", "n_assigned", "pct_shipments",
                        "pct_cost", "pct_void"])
            for tag, rep in (("a", pair.a), ("b", pair.b)):
                for ln in rep.lines:
                    w.writerow([tag, ln.box_id, ln.n_assigned,
                                f"{ln.pct_shipments:.4f}", f"{ln.pct_cost:.4f}",
                                f"{ln.pct_void:.4f}"])
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    boxes = load_boxes(args.boxes)
    shipments = load_shipments(args.shipments, args.items)
    suites = [_load_suite_file(path)[0] for path in args.suite]
    table = compare_suites(suites, shipments, boxes,
                           model=_load_cost_model(args.cost))
    lines = ["suite  total_cost  uncovered  reduction_vs_first"]
    for k, row in enumerate(table.rows):
        red = "infeasible" if row.pct_reduction is None else f"{row.pct_reduction:.2f}%"
        lines.append(f"{k:>5}  {row.total_cost:>10g}  {row.uncovered:>9}  {red}")
        lines.append(f"       boxes: {','.join(str(i) for i in row.box_ids)}")
    text = "\n".join(lines)
    print(text)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / "comparison.txt").write_text(text + "\n")
    return 0


def cmd_finetune(args: argparse.Namespace) -> int:
    suite_ids, _, locked = _load_suite_file(args.suite)
    boxes = load_boxes(args.boxes).with_locked_ids(locked)
    candidates = finetune_candidates(boxes, suite_ids,
                                     deltas=_parse_delta_list(args.deltas))
    save_boxes(candidates, args.out)
    print(f"{len(candidates.boxes)} candidate boxes written to {args.out} "
          f"({len(candidates.locked)} locked)")
    return 0


def cmd_fitone(args: argparse.Namespace) -> int:
    shipments = load_shipments(args.shipment, args.items)
    if len(shipments) != 1:
        raise DataError("fitone expects exactly one shipment in the file")
    _, defs, _ = _load_suite_file(args.suite)
    suite_boxes = BoxSet(defs)
    [pick] = cheapest_fitting_boxes(shipments, suite_boxes, InnerVolumeCost())
    if pick is None:
        print("no suite box fits this shipment")
        return 0
    best = suite_boxes.boxes[pick]
    dims = "x".join(f"{v:g}" for v in best.inner.as_tuple())
    print(f"box {best.id} ({dims}), inner volume {best.volume:g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxsuite",
        description="Recommend a suite of shipping boxes from packing "
                    "feasibility and assignment costs.")
    parser.add_argument("--debug", action="store_true",
                        help="print the traceback of an internal error (exit 3)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="compute the shipment/box fit matrix")
    p_fit.add_argument("--boxes", required=True)
    p_fit.add_argument("--shipments", required=True)
    p_fit.add_argument("--items", default=None)
    p_fit.add_argument("--out", required=True)
    p_fit.add_argument("--time-limit-ms", type=int, default=5000)
    p_fit.add_argument("--threads", type=int, default=None,
                       help="worker processes (default: BOXSUITE_THREADS, else 1)")
    p_fit.set_defaults(func=cmd_fit)

    p_rec = sub.add_parser("recommend", help="select the best p boxes")
    p_rec.add_argument("--fit", required=True)
    p_rec.add_argument("--boxes", required=True)
    p_rec.add_argument("--shipments", required=True)
    p_rec.add_argument("--items", default=None)
    p_rec.add_argument("-p", type=int, required=True)
    p_rec.add_argument("--lock", default="")
    p_rec.add_argument("--cost", default="inner-volume")
    p_rec.add_argument("--method", default="grasp", choices=METHODS)
    p_rec.add_argument("--graspit", type=int, default=32)
    p_rec.add_argument("--elite", type=int, default=10)
    p_rec.add_argument("--seed", type=int, default=0)
    p_rec.add_argument("--out", required=True)
    p_rec.set_defaults(func=cmd_recommend)

    p_val = sub.add_parser("validate", help="pack two shipment sets into a suite")
    p_val.add_argument("--suite", required=True)
    p_val.add_argument("--boxes", required=True)
    p_val.add_argument("--shipments-a", required=True)
    p_val.add_argument("--shipments-b", required=True)
    p_val.add_argument("--items-a", default=None)
    p_val.add_argument("--items-b", default=None)
    p_val.add_argument("--cost", default="inner-volume")
    p_val.add_argument("--threshold", type=float, default=0.10)
    p_val.add_argument("--out", default=None)
    p_val.set_defaults(func=cmd_validate)

    p_cmp = sub.add_parser("compare", help="compare suites on one shipment set")
    p_cmp.add_argument("--suite", action="append", required=True,
                       help="suite.json; repeat per suite, first is baseline")
    p_cmp.add_argument("--boxes", required=True)
    p_cmp.add_argument("--shipments", required=True)
    p_cmp.add_argument("--items", default=None)
    p_cmp.add_argument("--cost", default="inner-volume")
    p_cmp.add_argument("--out", default=None)
    p_cmp.set_defaults(func=cmd_compare)

    p_ft = sub.add_parser("finetune", help="emit candidate boxes around a suite")
    p_ft.add_argument("--suite", required=True)
    p_ft.add_argument("--boxes", required=True)
    p_ft.add_argument("--deltas", default="-2,-1,0,1,2")
    p_ft.add_argument("--out", required=True)
    p_ft.set_defaults(func=cmd_finetune)

    p_one = sub.add_parser("fitone", help="cheapest suite box for one shipment")
    p_one.add_argument("--shipment", required=True)
    p_one.add_argument("--items", default=None)
    p_one.add_argument("--suite", required=True)
    p_one.set_defaults(func=cmd_fitone)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        if args.debug:
            traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
