"""In-memory span tracing of the package's layers, installed from outside.

Each wrapper replaces a function under the name its caller looks it up by:
``fitmatrix`` calls ``solve_fit`` by its imported name, so the wrapper goes on
``boxsuite.fitmatrix.solve_fit``; ``grasp`` and ``interchange`` call
``kernels.best_swap`` through the module, so it goes on the kernels module.
Calls are single-threaded and strictly nested, so a span's self time is its
duration minus the summed durations of its direct children.
"""
from __future__ import annotations

import gzip
import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    """Records spans (name, start, end, parent, attributes) in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        rec = {"id": sid, "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": perf_counter(), "end": None, "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, describe=None):
        """``fn`` recording one span per call; ``describe(args, result)`` adds attributes."""
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if describe is not None:
                    rec["attrs"].update(describe(args, result))
            return result
        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, describe=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, describe))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _bnb_attrs(args, verdict):
    return {"n": args[0].n, "outcome": verdict.outcome.value, "nodes": verdict.nodes}


def _kernel_attrs(args, _result):
    # Computed, not measured: one read of the n x m float64 cost matrix.
    return {"bytes": int(args[0].nbytes)}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the pipeline stages cross."""
    from boxsuite import fitmatrix, pipeline
    from boxsuite.pmedian import grasp, kernels, lagrangian

    tracer.patch(fitmatrix, "compute_nest_sets", "fitmatrix.nest_sets")
    tracer.patch(fitmatrix, "solve_fit", "fitting.bnb", _bnb_attrs)
    tracer.patch(fitmatrix, "fits_exact_small", "fitting.exact_small")
    tracer.patch(fitmatrix, "fits_stacking", "fitting.stacking",
                 lambda args, hit: {"hit": bool(hit)})
    tracer.patch(pipeline, "compute_fit_matrix", "fitmatrix.scan")
    tracer.patch(pipeline, "build_cost_matrix", "cost.build",
                 lambda args, cm: {"bytes": int(cm.C.nbytes)})
    tracer.patch(pipeline, "solve_grasp", "pmedian.grasp")
    tracer.patch(pipeline, "solve_lagrangian", "pmedian.lagrangian",
                 lambda args, res: {"iters": len(res.bound_trace)})
    tracer.patch(pipeline, "write_outputs", "pipeline.write_outputs")
    tracer.patch(grasp, "path_relink", "pmedian.path_relink")
    tracer.patch(grasp, "local_search_interchange", "pmedian.interchange")
    tracer.patch(lagrangian, "local_search_interchange", "pmedian.interchange")
    for kernel in ("best_swap", "greedy_augment_costs", "rho"):
        tracer.patch(kernels, kernel, f"pmedian.{kernel}", _kernel_attrs)


# Per-layer metrics reported by a traced run: name -> unit. Times are seconds
# summed over all calls in one pass; "self" times exclude child spans, and
# path_relink's time excludes the interchange polish counted under interchange.
LAYER_METRICS = {
    "model.load_s": "s",
    "fitmatrix.nest_sets_s": "s",
    "fitmatrix.scan.self_s": "s",
    "fitmatrix.save_s": "s",
    "fitmatrix.load_s": "s",
    "fitmatrix.set_bits": "count",
    "fitmatrix.packable": "count",
    "fit_timeouts": "count",
    "fitting.bnb.calls": "count",
    "fitting.bnb.s": "s",
    "fitting.bnb.nodes": "count",
    "fitting.bnb.nodes_per_s": "1/s",
    **{f"fitting.bnb.{o}.{k}": u for o in ("fit", "no_fit", "timed_out")
       for k, u in (("calls", "count"), ("s", "s"), ("nodes", "count"))},
    **{f"fitting.bnb.n{n}.s": "s" for n in (4, 5, 6, 7)},
    "fitting.exact_small.calls": "count",
    "fitting.exact_small.s": "s",
    "fitting.stacking.calls": "count",
    "fitting.stacking.s": "s",
    "fitting.stacking.hits": "count",
    "cost.build_s": "s",
    "cost.matrix_mb": "MB",
    **{f"pmedian.{k}.{m}": u for k in ("best_swap", "greedy_augment_costs", "rho")
       for m, u in (("calls", "count"), ("s", "s"))},
    "pmedian.kernel_gb": "GB_computed",
    "pmedian.interchange.calls": "count",
    "pmedian.interchange.s": "s",
    "pmedian.path_relink.calls": "count",
    "pmedian.path_relink.s": "s",
    "pmedian.grasp.s": "s",
    "pmedian.lagrangian.s": "s",
    "pmedian.lagrangian.iters": "count",
    "pipeline.recommend.self_s": "s",
    "pipeline.write_outputs_s": "s",
    "pipeline.validate.self_s": "s",
    "pipeline.grasp_objective": "cost",
    "pipeline.bound_gap": "ratio",
    "share.fit_bnb": "ratio",
    "share.fit_bnb_timed_out": "ratio",
    "share.grasp_best_swap": "ratio",
    "share.lagrangian_rho": "ratio",
    "share.recommend_kernels": "ratio",
    "share.bound_kernels": "ratio",
    "trace.overhead": "ratio",
}

_KERNELS = ("pmedian.best_swap", "pmedian.greedy_augment_costs", "pmedian.rho")


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Aggregate one traced pass's spans into the LAYER_METRICS values.

    Only metrics derivable from spans are filled; the caller adds output
    counts (set bits, objective) and the tracing overhead.
    """
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += dur[s["id"]]
    by_name: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    # Each span's enclosing pipeline stage ("stage.fit", ...), found by walking up.
    by_id = {s["id"]: s for s in spans}
    stage_of: dict[int, str] = {}
    for s in spans:
        node = s
        while node["parent"] is not None and not node["name"].startswith("stage."):
            node = by_id[node["parent"]]
        stage_of[s["id"]] = node["name"]

    def total(name, stage=None, where=lambda s: True):
        return sum(dur[s["id"]] for s in by_name[name]
                   if where(s) and (stage is None or stage_of[s["id"]] == stage))

    def count(name, where=lambda s: True):
        return sum(1 for s in by_name[name] if where(s))

    def self_time(name):
        return sum(dur[s["id"]] - child_time[s["id"]] for s in by_name[name])

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    out = {
        "model.load_s": total("model.load"),
        "fitmatrix.nest_sets_s": total("fitmatrix.nest_sets"),
        "fitmatrix.scan.self_s": self_time("fitmatrix.scan"),
        "fitmatrix.save_s": total("fitmatrix.save"),
        "fitmatrix.load_s": total("fitmatrix.load"),
        "fitting.bnb.calls": count("fitting.bnb"),
        "fitting.bnb.s": total("fitting.bnb"),
        "fitting.bnb.nodes": sum(s["attrs"]["nodes"] for s in by_name["fitting.bnb"]),
        "fitting.exact_small.calls": count("fitting.exact_small"),
        "fitting.exact_small.s": total("fitting.exact_small"),
        "fitting.stacking.calls": count("fitting.stacking"),
        "fitting.stacking.s": total("fitting.stacking"),
        "fitting.stacking.hits": count("fitting.stacking", lambda s: s["attrs"]["hit"]),
        "cost.build_s": total("cost.build"),
        "cost.matrix_mb": max((s["attrs"]["bytes"] for s in by_name["cost.build"]),
                              default=0) / 2**20,
        "pmedian.kernel_gb": sum(s["attrs"]["bytes"] for k in _KERNELS
                                 for s in by_name[k]) / 1e9,
        "pmedian.interchange.calls": count("pmedian.interchange"),
        "pmedian.interchange.s": total("pmedian.interchange"),
        "pmedian.path_relink.calls": count("pmedian.path_relink"),
        "pmedian.path_relink.s": self_time("pmedian.path_relink"),
        "pmedian.grasp.s": total("pmedian.grasp"),
        "pmedian.lagrangian.s": total("pmedian.lagrangian"),
        "pmedian.lagrangian.iters": sum(s["attrs"]["iters"]
                                        for s in by_name["pmedian.lagrangian"]),
        "pipeline.recommend.self_s": self_time("pipeline.recommend"),
        "pipeline.write_outputs_s": total("pipeline.write_outputs"),
        "pipeline.validate.self_s": self_time("pipeline.validate"),
    }
    finished = [s for s in by_name["fitting.bnb"] if s["attrs"]["outcome"] != "timed_out"]
    out["fitting.bnb.nodes_per_s"] = ratio(
        sum(s["attrs"]["nodes"] for s in finished), sum(dur[s["id"]] for s in finished))
    for outcome in ("fit", "no_fit", "timed_out"):
        sel = [s for s in by_name["fitting.bnb"] if s["attrs"]["outcome"] == outcome]
        out[f"fitting.bnb.{outcome}.calls"] = len(sel)
        out[f"fitting.bnb.{outcome}.s"] = sum(dur[s["id"]] for s in sel)
        out[f"fitting.bnb.{outcome}.nodes"] = sum(s["attrs"]["nodes"] for s in sel)
    for n in (4, 5, 6, 7):
        out[f"fitting.bnb.n{n}.s"] = total("fitting.bnb", where=lambda s: s["attrs"]["n"] == n)
    for k in _KERNELS:
        out[f"{k}.calls"] = count(k)
        out[f"{k}.s"] = total(k)

    fit_s = total("stage.fit")
    out["share.fit_bnb"] = ratio(total("fitting.bnb", "stage.fit"), fit_s)
    out["share.fit_bnb_timed_out"] = ratio(
        total("fitting.bnb", "stage.fit", lambda s: s["attrs"]["outcome"] == "timed_out"),
        fit_s)
    out["share.grasp_best_swap"] = ratio(total("pmedian.best_swap", "stage.recommend"),
                                         out["pmedian.grasp.s"])
    out["share.lagrangian_rho"] = ratio(total("pmedian.rho", "stage.bound"),
                                        out["pmedian.lagrangian.s"])
    out["share.recommend_kernels"] = ratio(
        sum(total(k, "stage.recommend") for k in _KERNELS), total("stage.recommend"))
    out["share.bound_kernels"] = ratio(
        sum(total(k, "stage.bound") for k in _KERNELS), total("stage.bound"))
    return out


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {k: float(statistics.median(p[k] for p in passes)) for k in passes[0]}
