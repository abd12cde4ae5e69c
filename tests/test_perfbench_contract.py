"""The names and calls the pipeline benchmark (perfbench/) relies on.

``perfbench/spans.py`` wraps package functions under the names their callers
look up, so a rename in the package breaks ``run.py --trace 1``; the smoke
script runs every workload once at toy size through ``stages.py`` and
``checks.py``, which call the package's public API directly.
"""
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_existing_names_and_restores_them():
    spans = _load_spans()
    tracer = spans.Tracer()
    try:
        spans.install(tracer)  # getattr raises on a missing name
        patched = list(tracer._patched)
        assert patched
        for owner, attr, original in patched:
            assert callable(original), (owner.__name__, attr)
            assert getattr(owner, attr).__wrapped__ is original
    finally:
        tracer.unpatch()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original


def test_smoke_script_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke check passed" in proc.stdout
