"""One pass of a workload through the pipeline, in a fresh interpreter.

Usage: python3 stages.py WORKDIR SPAWN_TIME MODE

MODE is ``setup`` (import, load and nest sets only), ``plain`` (every stage,
no tracing) or ``traced`` (every stage with span wrappers installed).
SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` includes interpreter start and package import.

The stages make the same public calls as the CLI commands:
fit = ``compute_fit_matrix`` + ``FitMatrix.save_csv`` (``boxsuite fit``);
recommend = ``load_fit_matrix`` + ``recommend(method="grasp")`` and bound =
the same with ``method="lagrangian"`` (``boxsuite recommend``);
validate = ``validate`` of the GRASP suite against the holdout sample
(``boxsuite validate``). Results go to WORKDIR/pass.json; outputs to
WORKDIR/out/. ``cpu_s`` is the process CPU time of set-up plus one call of
each stage (the median call, as for the wall times).
"""
from __future__ import annotations

import json
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

# A stage shorter than this repeats (identical work and outputs) until this
# much time is measured, and reports its median call: single calls of a few
# milliseconds scatter too much between processes to compare.
MIN_STAGE_S = 1.0
MAX_REPS = 25


def main(argv) -> int:
    workdir, spawn_time, mode = Path(argv[0]), float(argv[1]), argv[2]
    wl = json.loads((workdir / "inputs.json").read_text())

    # Timed: package import is part of set-up.
    from boxsuite import fitmatrix, model, pipeline
    from boxsuite.cost import InnerVolumeCost
    from boxsuite.fitting import SolverConfig
    from boxsuite.pmedian import GraspParams

    tracer = None
    if mode == "traced":
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)

    def span(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    times: dict[str, float] = {}
    result: dict = {"mode": mode, "stages_ok": [], "times": times}
    out = workdir / "out"
    out.mkdir(exist_ok=True)

    with span("stage.setup"):
        with span("model.load"):
            boxes = model.load_boxes(workdir / "boxes.csv")
            shipments = model.load_shipments(workdir / "shipments.csv")
            holdout = model.load_shipments(workdir / "holdout.csv")
        nests = fitmatrix.compute_nest_sets(boxes)
    times["setup_s"] = time.monotonic() - spawn_time
    if mode == "setup":
        _finish(workdir, result)
        return 0

    cfg = fitmatrix.FitScanConfig(
        solver=SolverConfig(time_limit=wl["time_limit_ms"] / 1000.0), threads=1)
    fit_csv = out / "fit.csv"

    def run_fit():
        with span("fitmatrix.scan"):
            fitm, packables = fitmatrix.compute_fit_matrix(
                shipments, boxes, nests=nests, cfg=cfg)
        with span("fitmatrix.save"):
            fitm.save_csv(fit_csv, shipments, boxes)
        result["fit"] = {"shipments": fitm.n_shipments, "set_bits": fitm.set_bits,
                         "packable": len(packables.W), "timeouts": len(fitm.timeouts)}

    def run_recommend(method, out_name):
        with span("fitmatrix.load"):
            fitm = fitmatrix.load_fit_matrix(fit_csv, shipments, boxes)
        run = pipeline.RunConfig(
            p=wl["p"], locked_ids=tuple(wl["locked_ids"]), model=InnerVolumeCost(),
            method=method,
            grasp=GraspParams(iterations=wl["grasp_iterations"], elite_size=10, seed=0),
            out_dir=str(out / out_name))
        with span("pipeline.recommend"):
            outcome = pipeline.recommend(run, shipments, boxes, fit=fitm)
        result[out_name] = {"feasible": outcome.feasible,
                            "objective": outcome.result.cost,
                            "lower_bound": outcome.result.lower_bound,
                            "gap": outcome.result.gap}

    def run_validate():
        suite = json.loads((out / "grasp" / "suite.json").read_text())
        suite_ids = [int(e["id"]) for e in suite["suite"]]
        with span("pipeline.validate"):
            pair = pipeline.validate(suite_ids, boxes, shipments, holdout,
                                     model=InnerVolumeCost(), warn_threshold=0.10)
        result["validate"] = {
            tag: {"shipments": rep.n_shipments, "uncovered": rep.uncovered,
                  "total_cost": rep.total_cost}
            for tag, rep in (("a", pair.a), ("b", pair.b))}

    stages = (("fit", "fit_s", run_fit),
              ("recommend", "recommend_s", lambda: run_recommend("grasp", "grasp")),
              ("bound", "bound_s", lambda: run_recommend("lagrangian", "lagrangian")),
              ("validate", "validate_s", run_validate))
    cpu_s = time.process_time()
    for stage, metric, fn in stages:
        walls, cpus = [], []
        try:
            while True:
                t0, c0 = time.perf_counter(), time.process_time()
                with span(f"stage.{stage}"):
                    fn()
                walls.append(time.perf_counter() - t0)
                cpus.append(time.process_time() - c0)
                if tracer is not None or sum(walls) >= MIN_STAGE_S or len(walls) >= MAX_REPS:
                    break
        except Exception:  # a failed stage is reported, and later stages need its output
            traceback.print_exc()
            break
        times[metric] = statistics.median(walls)
        cpu_s += statistics.median(cpus)
        result["stages_ok"].append(stage)
    times["cpu_s"] = cpu_s
    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        tracer.unpatch()
        result["layers"] = spans.layer_metrics(tracer.spans)
        tracer.write(workdir / "spans.jsonl.gz")
    _finish(workdir, result)
    return 0


def _peak_rss_mb() -> float:
    """High-water RSS of this process's own address space.

    ``ru_maxrss`` is not used: Linux carries the spawning process's high-water
    mark over into it across exec, so it would read the parent's peak.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0  # kB
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _finish(workdir: Path, result: dict) -> None:
    (workdir / "pass.json").write_text(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
