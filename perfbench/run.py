"""Pipeline benchmark: fit, recommend (GRASP and Lagrangian) and validate.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 36 --trace 0

The workload's inputs are generated from the seed (see workloads.py). Each
pass runs every stage in a fresh, single-threaded interpreter (stages.py);
passes repeat while the next one fits in ``--seconds`` (at least two), and
each time is the median over passes. ``setup_s`` is the median over at least
five fresh interpreters. Outputs are checked after each pass, outside the
timed region (checks.py). With ``--trace 1`` passes alternate between plain
and traced (spans.py); the traced ones give the per-layer metrics, and their
stage time over the plain passes' gives the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics (end-to-end ones with ``--trace 0``, per-layer with ``--trace 1``).
An operation is one shipment scanned in the fit stage or one stage call; a
stage call fails when it raises or its output check fails. Timed-out fit
pairs are reported as ``fit_timeouts``, not as failures: they are a documented
verdict whose count depends on machine load.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# End-to-end metrics: name -> unit. Times are medians over passes.
END_TO_END = {
    "setup_s": "s",
    "fit_s": "s",
    "recommend_s": "s",
    "bound_s": "s",
    "validate_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "grasp_over_bound": "ratio",
    "lagrangian_over_bound": "ratio",
}
STAGES = ("fit", "recommend", "bound", "validate")
MIN_PASSES = 2
MIN_SETUPS = 5
RUN_LIMIT_S = 170.0  # every run must end within 180 s


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(root: Path, workdir: Path, mode: str, timeout: float) -> dict | None:
    """One stages.py process; its pass.json, or None when it failed."""
    result_path = workdir / "pass.json"
    result_path.unlink(missing_ok=True)
    spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "stages.py"), str(workdir), repr(spawn), mode],
        env=child_env(root), cwd=str(root))
    try:
        code = proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"pass ({mode}) killed after {timeout:.0f} s", file=sys.stderr)
        return None
    finally:  # also on SIGTERM (see main): no pass outlives the run
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not result_path.exists():
        print(f"pass ({mode}) exited with code {code}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text())


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes() if p.exists() else b"-")
    return h.hexdigest()


def output_digest(workdir: Path, result: dict) -> str:
    out = workdir / "out"
    files = [out / "fit.csv", out / "fit.manifest.json",
             out / "grasp" / "suite.json", out / "lagrangian" / "suite.json"]
    return _digest(files) + json.dumps([result["stages_ok"], result.get("validate")],
                                       sort_keys=True)


def environment(root: Path) -> dict:
    from boxsuite.pmedian import kernels
    import numpy
    return {
        "backend": kernels.active_backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(root),
    }


def _commit(root: Path) -> str:
    """HEAD of the checkout, read from .git directly (no git process, no parent dirs)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Run:
    """Passes of one workload and seed, with their checks and aggregates."""

    def __init__(self, root: Path, wl: workloads.Workload, seed: int, workdir: Path):
        self.root, self.wl, self.seed, self.workdir = root, wl, seed, workdir
        if workdir.exists():
            shutil.rmtree(workdir)
        self.inputs = workloads.generate(wl, seed, workdir)
        (workdir / "inputs.json").write_text(json.dumps(self.inputs, indent=1))
        self.passes: list[dict] = []
        self.setups: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.check_totals = {"set_bits_verified": 0, "set_bits_unverified": 0,
                             "unset_bits_verified": 0}
        self._checked: dict[str, checks.CheckReport] = {}
        self._first_fit_digest: str | None = None

    def one_pass(self, mode: str, timeout: float) -> None:
        result = run_child(self.root, self.workdir, mode, timeout)
        self.attempted += self.wl.n_shipments + len(STAGES)
        if result is None:
            self.failed += len(STAGES)
            self.problems.append(f"pass {len(self.passes)}: child process failed")
            return
        self.setups.append(result["times"]["setup_s"])
        digest = output_digest(self.workdir, result)
        report = self._checked.get(digest)
        if report is None:
            report = checks.check_pass(self.workdir, self.inputs, result,
                                       self.seed + len(self.passes))
            self._checked[digest] = report
            for key in self.check_totals:
                self.check_totals[key] += getattr(report, key)
        failed_stages = set(report.failed_stages)
        self._check_repeatable(result, failed_stages)
        self.failed += len(failed_stages) + len(report.failed_shipments)
        self.problems += [f"pass {len(self.passes)}: {p}" for p in report.problems]
        if mode == "traced":
            os.replace(self.workdir / "spans.jsonl.gz",
                       self.workdir / f"spans-pass{len(self.passes)}.jsonl.gz")
        self.passes.append(result)

    def _check_repeatable(self, result: dict, failed_stages: set) -> None:
        """Without timeouts the fit matrix is a pure function of the inputs."""
        if "fit" not in result["stages_ok"] or result["fit"]["timeouts"]:
            return
        digest = _digest([self.workdir / "out" / "fit.csv"])
        if self._first_fit_digest is None:
            self._first_fit_digest = digest
        elif digest != self._first_fit_digest:
            failed_stages.add("fit")
            self.problems.append(f"pass {len(self.passes)}: fit.csv differs "
                                 "from an earlier pass without timeouts")

    def measure(self, seconds: float, trace: bool) -> None:
        """Passes while the next one fits in ``seconds`` (at least MIN_PASSES)."""
        start = time.monotonic()
        run_child(self.root, self.workdir, "setup", RUN_LIMIT_S)  # compiles .pyc files
        longest, tries = 0.0, 0
        while True:
            elapsed = time.monotonic() - start
            if elapsed + longest > RUN_LIMIT_S - 20:
                break
            if tries >= MIN_PASSES and elapsed + longest > seconds:
                break
            mode = "traced" if trace and tries % 2 == 1 else "plain"
            t0 = time.monotonic()
            self.one_pass(mode, RUN_LIMIT_S - elapsed)
            longest = max(longest, time.monotonic() - t0)
            tries += 1
        while len(self.setups) < MIN_SETUPS and time.monotonic() - start < RUN_LIMIT_S - 10:
            result = run_child(self.root, self.workdir, "setup", 30.0)
            if result is not None:
                self.setups.append(result["times"]["setup_s"])

    # -- aggregates -----------------------------------------------------------

    def complete(self, mode: str) -> list[dict]:
        """Passes of this mode in which every stage ran (timings are valid)."""
        return [p for p in self.passes
                if p["mode"] == mode and len(p["stages_ok"]) == len(STAGES)]

    def end_to_end(self) -> dict[str, float]:
        plain = self.complete("plain")
        med = lambda key: float(statistics.median(p["times"][key] for p in plain))
        first = plain[0]
        lb = first["lagrangian"]["lower_bound"]
        return {
            "setup_s": float(statistics.median(self.setups)),
            **{f"{s}_s": med(f"{s}_s") for s in STAGES},
            "cpu_s": med("cpu_s"),
            "peak_rss_mb": float(statistics.median(p["peak_rss_mb"] for p in plain)),
            "grasp_over_bound": first["grasp"]["objective"] / lb,
            "lagrangian_over_bound": first["lagrangian"]["objective"] / lb,
        }

    def stage_total(self, mode: str) -> float:
        return float(statistics.median(sum(p["times"][f"{s}_s"] for s in STAGES)
                                       for p in self.complete(mode)))

    def per_layer(self) -> dict[str, float]:
        traced = self.complete("traced")
        layers = spans.median_metrics([p["layers"] for p in traced])
        first = traced[0]
        layers.update({
            "fitmatrix.set_bits": first["fit"]["set_bits"],
            "fitmatrix.packable": first["fit"]["packable"],
            "fit_timeouts": float(statistics.median(p["fit"]["timeouts"] for p in traced)),
            "pipeline.grasp_objective": first["grasp"]["objective"],
            "pipeline.bound_gap": first["lagrangian"]["gap"],
            "trace.overhead": self.stage_total("traced") / self.stage_total("plain") - 1.0,
        })
        return {k: float(layers[k]) for k in spans.LAYER_METRICS}


def _report(run: Run, trace: bool, env: dict) -> None:
    inp = run.inputs
    print(f"perfbench workload={inp['name']} seed={inp['seed']} passes={len(run.passes)} "
          f"setups={len(run.setups)}")
    print(f"inputs: shipments={inp['shipments']} holdout={inp['holdout']} "
          f"boxes={inp['boxes']} time_limit_ms={inp['time_limit_ms']} p={inp['p']} "
          f"graspit={inp['grasp_iterations']} locks={inp['locked_ids']} "
          f"catalogue_seed={inp['catalogue_seed']} panel_seed={inp['panel_seed']}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for p in run.passes:
        times = " ".join(f"{k}={v:.3f}" for k, v in p["times"].items())
        timeouts = p["fit"]["timeouts"] if "fit" in p else "?"
        print(f"pass {p['mode']}: {times} peak_rss_mb={p['peak_rss_mb']:.1f} "
              f"fit_timeouts={timeouts}")
    c = run.check_totals
    print(f"checks: set bits re-proved {c['set_bits_verified']} "
          f"(unverified, re-proof timed out: {c['set_bits_unverified']}), "
          f"unset bits confirmed {c['unset_bits_verified']}, "
          f"problems: {len(run.problems)}")
    for problem in run.problems:
        print(f"  {problem}")
    if trace and run.complete("traced") and run.complete("plain"):
        plain, traced = run.stage_total("plain"), run.stage_total("traced")
        print(f"trace overhead: {100 * (traced / plain - 1):+.1f}% "
              f"(stage time traced {traced:.3f} s vs plain {plain:.3f} s)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "boxsuite" / "__init__.py").is_file():
        print(f"error: no boxsuite sources under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    wl = workloads.WORKLOADS[args.workload]
    workdir = HERE / "work" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    run = Run(root, wl, args.seed, workdir)
    run.measure(args.seconds, bool(args.trace))
    env = environment(root)
    _report(run, bool(args.trace), env)

    if not run.complete("plain") or (args.trace and not run.complete("traced")):
        print("error: no pass completed every stage", file=sys.stderr)
        return 1
    if args.trace:
        values = run.per_layer()
        units = spans.LAYER_METRICS
    else:
        values = run.end_to_end()
        units = END_TO_END
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    summary = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    (workdir / "result.json").write_text(json.dumps(
        {**summary, "inputs": run.inputs, "env": env, "problems": run.problems,
         "passes": run.passes, "setups": run.setups}, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
