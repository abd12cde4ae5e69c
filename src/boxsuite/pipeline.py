"""End-to-end orchestration: fit, cost, solve, report, validate, fine-tune.

The heavy stages communicate through immutable artifacts (fit matrix, cost
matrix), so a recommendation can resume from a fit matrix computed hours
earlier. Fine-tuning writes a candidate box file, which is fitted afresh.
"""
from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from boxsuite.cost import CostModel, InnerVolumeCost, build_cost_matrix
from boxsuite.fitmatrix import FitMatrix, PackableSet, cheapest_fitting_boxes, compute_fit_matrix
from boxsuite.model import (
    BoxSet,
    CandidateBox,
    DataError,
    Dims3,
    Shipment,
    canonical_dims,
    liquid_volume,
)
from boxsuite.pmedian import (
    GraspParams,
    PMedianInstance,
    SolveResult,
    Suite,
    check_feasible,
    drop_dominated_columns,
    extract_assignment,
    greedy_construct,
    local_search_interchange,
    solve_exact,
    solve_grasp,
    solve_lagrangian,
    suite_cost,
)

__all__ = [
    "BoxLine",
    "ComparisonRow",
    "ComparisonTable",
    "NO_FEASIBLE_MESSAGE",
    "RecommendOutcome",
    "REPORT_COLUMNS",
    "RunConfig",
    "SuiteReport",
    "ValidationPair",
    "ValidationReport",
    "compare_suites",
    "finetune_candidates",
    "pack_into_suite",
    "recommend",
    "validate",
    "write_outputs",
]

METHODS = ("exact", "exchange", "grasp", "lagrangian")

NO_FEASIBLE_MESSAGE = "There is no feasible solution"

REPORT_COLUMNS = (
    "#",
    "ID",
    "Inner Dimensions",
    "Inner Volume",
    "% of Packable Shipments Shipped",
    "% Liquid Void Volume Shipped",
)


@dataclass(frozen=True)
class RunConfig:
    """Everything a recommendation run needs besides the data itself."""

    p: int
    locked_ids: tuple[int, ...] = ()
    model: Optional[CostModel] = None
    method: str = "grasp"
    grasp: GraspParams = field(default_factory=GraspParams)
    out_dir: Optional[str] = None

    def __post_init__(self):
        if self.p < 1:
            raise DataError("p must be at least 1")
        if self.method not in METHODS:
            raise DataError(f"unknown method {self.method!r}; choose from {METHODS}")
        if len(set(self.locked_ids)) != len(self.locked_ids):
            raise DataError("locked box ids must be distinct")
        if len(self.locked_ids) >= self.p:
            raise DataError("number of locked boxes must be below p")


@dataclass(frozen=True)
class BoxLine:
    position: int
    box_id: int
    inner: tuple[float, float, float]
    volume: float
    pct_shipments: float
    pct_void: float


@dataclass(frozen=True)
class SuiteReport:
    lines: tuple[BoxLine, ...]
    n_shipments: int
    total_volume_shipped: float
    pct_void_total: float
    objective: Optional[float]
    lower_bound: Optional[float]
    gap: Optional[float]
    method: str

    def to_csv(self, path: str | Path) -> None:
        with Path(path).open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(REPORT_COLUMNS)
            for ln in self.lines:
                w.writerow([ln.position, ln.box_id,
                            "x".join(_fmt(v) for v in ln.inner),
                            _fmt(ln.volume), f"{ln.pct_shipments:.2f}",
                            f"{ln.pct_void:.2f}"])

    def to_text(self) -> str:
        rows = [[str(ln.position), str(ln.box_id),
                 "(" + ", ".join(_fmt(v) for v in ln.inner) + ")",
                 _fmt(ln.volume), f"{ln.pct_shipments:.2f}",
                 f"{ln.pct_void:.2f}"] for ln in self.lines]
        widths = [max(len(h), *(len(r[c]) for r in rows)) if rows else len(h)
                  for c, h in enumerate(REPORT_COLUMNS)]
        out = ["  ".join(h.ljust(widths[c]) for c, h in enumerate(REPORT_COLUMNS))]
        out.append("  ".join("-" * w for w in widths))
        for r in rows:
            out.append("  ".join(r[c].ljust(widths[c]) for c in range(len(r))))
        out.append("")
        out.append(f"shipments packed: {self.n_shipments}")
        out.append(f"total inner volume shipped: {_fmt(self.total_volume_shipped)}")
        out.append(f"suite liquid void volume: {self.pct_void_total:.2f}%")
        if self.objective is not None:
            out.append(f"objective: {_fmt(self.objective)} ({self.method})")
        if self.lower_bound is not None:
            out.append(f"lower bound: {_fmt(self.lower_bound)}")
        if self.gap is not None:
            out.append(f"optimality gap: {100.0 * self.gap:.4f}%")
        return "\n".join(out)


@dataclass(frozen=True)
class RecommendOutcome:
    suite: Optional[Suite]
    box_ids: tuple[int, ...]
    report: Optional[SuiteReport]
    result: SolveResult
    gamma: float
    assignment: Optional[np.ndarray]
    packables: PackableSet
    message: str
    rows: int = 0  # cost-matrix rows, lock rows included
    distinct_rows: int = 0  # rows the solver saw after merging identical ones
    columns: int = 0  # boxes the solver saw: those no other box dominates

    @property
    def feasible(self) -> bool:
        return self.suite is not None


def _fmt(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else f"{v:g}"


def _dispatch(inst: PMedianInstance, run: RunConfig, candidates: int) -> SolveResult:
    if run.method == "exact":
        try:
            return solve_exact(inst)
        except DataError as exc:
            raise DataError(f"{exc} ({inst.m} of {candidates} candidate boxes "
                            "are undominated)") from None
    if run.method == "exchange":
        start = greedy_construct(inst, np.random.default_rng(run.grasp.seed), 0.0)
        return local_search_interchange(inst, start)
    if run.method == "grasp":
        return solve_grasp(inst, run.grasp)
    return solve_lagrangian(inst)


def _solve(inst: PMedianInstance, run: RunConfig) -> tuple[SolveResult, PMedianInstance]:
    """The configured solver's result on inst's undominated columns, its suite
    mapped back to inst's columns, and the instance the solver saw.

    When at most p columns are undominated, every one of them is opened and
    the suite is padded with the lowest-index dominated columns, without a
    solver: that suite already meets every row's minimum.
    """
    reduced, kept = drop_dominated_columns(inst)
    if len(kept) <= inst.p:
        pad = np.setdiff1d(np.arange(inst.m), kept)[: inst.p - len(kept)]
        suite = inst.suite(np.concatenate((kept, pad)).tolist())
        cost = suite_cost(inst, suite)
        return SolveResult(suite=suite, cost=cost, lower_bound=cost, gap=0.0), reduced
    result = _dispatch(reduced, run, inst.m)
    suite = Suite(kept[list(result.suite.members)].tolist())
    return replace(result, suite=suite), reduced


def recommend(run: RunConfig, shipments: Sequence[Shipment], boxes: BoxSet,
              fit: Optional[FitMatrix] = None) -> RecommendOutcome:
    """Pick the p-box suite minimizing total assignment cost.

    Stages: nest-aware fit scan (skipped when a precomputed fit matrix is
    supplied), the cost matrix with lock penalties built as its distinct rows
    (shipments with equal fit patterns and costs are one customer weighted by
    their count, which changes no objective; see ``build_cost_matrix``), the
    configured solver on those rows and the undominated columns, feasibility
    check against the penalty level, and the packing report.
    A box is dominated when another box costs no more on every distinct row,
    lock rows included (so a locked box, the only zero of its lock row, never
    is); dropping it leaves the optimum unchanged, and rows that coincide on
    the kept boxes are merged again. The solver's suite is mapped back to box
    indices; the assignment is taken on the distinct rows and mapped to every
    packable shipment through the row map, and the report is built from it.
    When at most p boxes are undominated, the suite is all of them plus the
    lowest-index dominated boxes, and no solver runs.
    An empty suite is a legitimate outcome: it means no p-subset containing
    the locked boxes covers every packable shipment.
    """
    boxes = boxes.with_locked_ids(run.locked_ids)
    if not run.p < len(boxes.boxes):
        raise DataError("p must be below the number of candidate boxes")
    if fit is None:
        fit, packables = compute_fit_matrix(shipments, boxes)
    else:
        if fit.n_shipments != len(shipments) or fit.n_boxes != len(boxes.boxes):
            raise DataError("fit matrix shape does not match shipments/boxes")
        packables = fit.packables()

    model = run.model if run.model is not None else InnerVolumeCost()
    cm = build_cost_matrix(shipments, fit, boxes, model=model,
                           locked=boxes.locked)
    if len(cm.rows) == 0:
        # No packable shipments and no locks: every suite covers vacuously at
        # zero cost, so return the lexicographically first one.
        suite = Suite(range(run.p))
        result = SolveResult(suite=suite, cost=0.0, lower_bound=0.0, gap=0.0)
        report = _build_report(shipments, packables, boxes, suite,
                               np.empty(0, dtype=int), result, run.method)
        outcome = RecommendOutcome(
            suite=suite, box_ids=tuple(boxes.boxes[j].id for j in suite.members),
            report=report, result=result, gamma=cm.gamma,
            assignment=np.empty(0, dtype=int), packables=packables,
            message="no packable shipments; any suite works")
        if run.out_dir is not None:
            write_outputs(outcome, run, boxes, run.out_dir)
        return outcome
    inst = PMedianInstance(cm.C, run.p, cm.w)
    result, reduced = _solve(inst, run)
    suite = check_feasible(result, cm.gamma)
    if suite is None:
        outcome = RecommendOutcome(
            suite=None, box_ids=(), report=None, result=result, gamma=cm.gamma,
            assignment=None, packables=packables, message=NO_FEASIBLE_MESSAGE,
            rows=len(cm.rows), distinct_rows=reduced.n, columns=reduced.m)
    else:
        assignment = extract_assignment(inst, suite)[cm.rows[: cm.n_real]]
        report = _build_report(shipments, packables, boxes, suite, assignment,
                               result, run.method)
        ids = tuple(boxes.boxes[j].id for j in suite.members)
        outcome = RecommendOutcome(
            suite=suite, box_ids=ids, report=report, result=result,
            gamma=cm.gamma, assignment=assignment, packables=packables,
            message=f"selected {len(ids)} boxes, objective {_fmt(result.cost)}",
            rows=len(cm.rows), distinct_rows=reduced.n, columns=reduced.m)
    if run.out_dir is not None:
        write_outputs(outcome, run, boxes, run.out_dir)
    return outcome


def _build_report(shipments: Sequence[Shipment], packables: PackableSet,
                  boxes: BoxSet, suite: Suite, assignment: np.ndarray,
                  result: SolveResult, method: str) -> SuiteReport:
    n_real = len(packables.W)
    liquid = np.array([liquid_volume(shipments[i]) for i in packables.W])
    volumes = boxes.volumes
    lines = []
    total_cap = 0.0
    total_void = 0.0
    for pos, j in enumerate(suite.members, start=1):
        picked = assignment == j
        count = int(picked.sum())
        cap = count * volumes[j]
        void = cap - float(liquid[picked].sum())
        total_cap += cap
        total_void += void
        box = boxes.boxes[j]
        lines.append(BoxLine(
            position=pos, box_id=box.id, inner=box.inner.as_tuple(),
            volume=float(volumes[j]),
            pct_shipments=100.0 * count / n_real if n_real else 0.0,
            pct_void=100.0 * void / cap if cap else 0.0))
    return SuiteReport(
        lines=tuple(lines), n_shipments=n_real,
        total_volume_shipped=total_cap,
        pct_void_total=100.0 * total_void / total_cap if total_cap else 0.0,
        objective=result.cost, lower_bound=result.lower_bound,
        gap=result.gap, method=method)


def write_outputs(outcome: RecommendOutcome, run: RunConfig, boxes: BoxSet,
                  out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "feasible": outcome.feasible,
        "message": outcome.message,
        "p": run.p,
        "method": run.method,
        "locked": list(run.locked_ids),
        "gamma": outcome.gamma,
        "rows": outcome.rows,
        "distinct_rows": outcome.distinct_rows,
        "columns": outcome.columns,
        "objective": outcome.result.cost if outcome.feasible else None,
        "lower_bound": outcome.result.lower_bound,
        "gap": outcome.result.gap,
        "suite": [
            {"id": boxes.boxes[j].id,
             "inner": list(boxes.boxes[j].inner.as_tuple()),
             "volume": boxes.boxes[j].volume}
            for j in (outcome.suite.members if outcome.feasible else ())
        ],
    }
    with (out / "suite.json").open("w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    if run.method == "lagrangian":
        trace = outcome.result.bound_trace
        with (out / "trace.json").open("w") as fh:
            json.dump({"iterations": len(trace),
                       "bound_trace": [list(pair) for pair in trace]}, fh)
            fh.write("\n")
    if outcome.report is not None:
        outcome.report.to_csv(out / "report.csv")
        (out / "report.txt").write_text(outcome.report.to_text() + "\n")
    else:
        (out / "report.txt").write_text(outcome.message + "\n")


# -- validation ---------------------------------------------------------------


@dataclass(frozen=True)
class ValidationLine:
    box_id: int
    inner: tuple[float, float, float]
    volume: float
    n_assigned: int
    pct_shipments: float
    pct_cost: float
    pct_void: float


@dataclass(frozen=True)
class ValidationReport:
    lines: tuple[ValidationLine, ...]
    n_shipments: int
    uncovered: int
    total_cost: float
    pct_void_total: float


@dataclass(frozen=True)
class ValidationPair:
    a: ValidationReport
    b: ValidationReport
    flagged: tuple[tuple[int, str, float, float], ...]
    threshold: float


def pack_into_suite(shipments: Sequence[Shipment], suite_boxes: BoxSet,
                    model: Optional[CostModel] = None) -> list[Optional[int]]:
    """Cheapest fitting suite box per shipment; None when nothing fits.

    Each shipment's boxes are visited in (cost, index) order until one fits
    (``cheapest_fitting_boxes``), so no box costlier than the answer is
    decided.
    """
    model = model if model is not None else InnerVolumeCost()
    return cheapest_fitting_boxes(shipments, suite_boxes, model)


def _validation_report(shipments: Sequence[Shipment], suite_boxes: BoxSet,
                       assignment: Sequence[Optional[int]],
                       model: CostModel) -> ValidationReport:
    covered = [(i, j) for i, j in enumerate(assignment) if j is not None]
    n_cov = len(covered)
    costs = {j: 0.0 for j in range(len(suite_boxes.boxes))}
    counts = {j: 0 for j in costs}
    voids = {j: 0.0 for j in costs}
    caps = {j: 0.0 for j in costs}
    total_cost = 0.0
    for i, j in covered:
        c = model.cost_for(shipments[i], suite_boxes.boxes[j])
        costs[j] += c
        total_cost += c
        counts[j] += 1
        vol = suite_boxes.boxes[j].volume
        caps[j] += vol
        voids[j] += vol - liquid_volume(shipments[i])
    lines = []
    for j, box in enumerate(suite_boxes.boxes):
        lines.append(ValidationLine(
            box_id=box.id, inner=box.inner.as_tuple(), volume=box.volume,
            n_assigned=counts[j],
            pct_shipments=100.0 * counts[j] / n_cov if n_cov else 0.0,
            pct_cost=100.0 * costs[j] / total_cost if total_cost else 0.0,
            pct_void=100.0 * voids[j] / caps[j] if caps[j] else 0.0))
    total_cap = sum(caps.values())
    return ValidationReport(
        lines=tuple(lines), n_shipments=len(assignment),
        uncovered=len(assignment) - n_cov, total_cost=total_cost,
        pct_void_total=100.0 * sum(voids.values()) / total_cap if total_cap else 0.0)


def validate(suite_ids: Sequence[int], boxes: BoxSet,
             shipments_a: Sequence[Shipment], shipments_b: Sequence[Shipment],
             model: Optional[CostModel] = None,
             warn_threshold: float = 0.10) -> ValidationPair:
    """Pack two shipment sets into the suite and compare per-box metrics.

    Percentages are taken over covered shipments; shipments no suite box fits
    are tallied as uncovered rather than failing the run. A metric whose
    relative divergence between the two sets exceeds warn_threshold is
    flagged, suggesting the suite was tuned on an unrepresentative sample.
    Each shipment goes to its cheapest fitting suite box, found by visiting
    boxes in cost order (``pack_into_suite``); both sets are packed in one
    call, so a carton multiset and box decided for one set is not decided
    again for the other.
    """
    model = model if model is not None else InnerVolumeCost()
    suite_boxes = BoxSet([boxes.boxes[boxes.index_of(i)] for i in suite_ids])
    picks = pack_into_suite([*shipments_a, *shipments_b], suite_boxes, model)
    n_a = len(shipments_a)
    rep_a = _validation_report(shipments_a, suite_boxes, picks[:n_a], model)
    rep_b = _validation_report(shipments_b, suite_boxes, picks[n_a:], model)
    flagged = []
    for la, lb in zip(rep_a.lines, rep_b.lines):
        for name in ("pct_shipments", "pct_cost", "pct_void"):
            va, vb = getattr(la, name), getattr(lb, name)
            scale = max(abs(va), abs(vb))
            if scale > 0 and abs(va - vb) / scale > warn_threshold:
                flagged.append((la.box_id, name, va, vb))
    return ValidationPair(a=rep_a, b=rep_b, flagged=tuple(flagged),
                          threshold=warn_threshold)


# -- suite comparison ---------------------------------------------------------


@dataclass(frozen=True)
class ComparisonRow:
    box_ids: tuple[int, ...]
    total_cost: float
    uncovered: int
    feasible: bool
    pct_reduction: Optional[float]


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple[ComparisonRow, ...]


def compare_suites(suites: Sequence[Sequence[int]], shipments: Sequence[Shipment],
                   boxes: BoxSet, model: Optional[CostModel] = None) -> ComparisonTable:
    """Total packing cost of each suite; reductions relative to the first.

    Each shipment goes to its cheapest fitting box of the suite, found by
    visiting boxes in cost order (``pack_into_suite``).
    A suite leaving any shipment uncovered is marked infeasible and excluded
    from the reduction column.
    """
    model = model if model is not None else InnerVolumeCost()
    rows = []
    base_cost: Optional[float] = None
    for ids in suites:
        suite_boxes = BoxSet([boxes.boxes[boxes.index_of(i)] for i in ids])
        assignment = pack_into_suite(shipments, suite_boxes, model)
        uncovered = sum(1 for j in assignment if j is None)
        total = sum(model.cost_for(shipments[i], suite_boxes.boxes[j])
                    for i, j in enumerate(assignment) if j is not None)
        feasible = uncovered == 0
        if base_cost is None:
            base_cost = total if feasible else None
            reduction = 0.0 if feasible else None
        elif feasible and base_cost:
            reduction = 100.0 * (base_cost - total) / base_cost
        else:
            reduction = None
        rows.append(ComparisonRow(
            box_ids=tuple(ids), total_cost=total, uncovered=uncovered,
            feasible=feasible, pct_reduction=reduction))
    return ComparisonTable(rows=tuple(rows))


# -- fine-tuning --------------------------------------------------------------


def finetune_candidates(boxes: BoxSet, suite_ids: Sequence[int],
                        deltas: Sequence[float] = (-2, -1, 0, 1, 2)) -> BoxSet:
    """Candidate set for re-optimization around the current suite.

    Locked boxes carry over untouched; every unlocked suite box spawns one
    variant per combination of per-dimension offsets, dropping nonpositive
    dims and deduplicating on sorted dims. Fresh ids continue past the
    highest existing id so variants never collide with the originals.
    """
    locked_ids = {boxes.boxes[j].id for j in boxes.locked}
    next_id = max((b.id for b in boxes.boxes), default=0) + 1
    kept: list[CandidateBox] = []
    seen: set[tuple[float, ...]] = set()

    def admit(box: CandidateBox) -> None:
        key = canonical_dims(box.inner.as_tuple(), False)
        if key not in seen:
            seen.add(key)
            kept.append(box)

    for j in boxes.locked:
        admit(boxes.boxes[j])
    offsets = sorted(set(float(d) for d in deltas))
    for sid in suite_ids:
        box = boxes.boxes[boxes.index_of(sid)]
        if box.id in locked_ids:
            continue
        base = box.inner.as_tuple()
        for off in itertools.product(offsets, repeat=3):
            dims = tuple(base[k] + off[k] for k in range(3))
            if min(dims) <= 0:
                continue
            if dims == base:
                admit(CandidateBox(id=box.id, inner=Dims3(*dims)))
                continue
            key = canonical_dims(dims, False)
            if key in seen:
                continue
            admit(CandidateBox(id=next_id, inner=Dims3(*dims)))
            next_id += 1
    return BoxSet(kept, locked_ids=tuple(sorted(locked_ids)))

