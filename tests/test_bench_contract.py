"""The benchmark under bench/ drives sparsecf through its public API. Its
self-check runs every workload on a tiny input, so renaming or removing a
function the benchmark calls fails here rather than in a benchmark run."""

import importlib
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_self_check_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "self_check.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_traced_functions_exist():
    # bench/tracer.py times public module functions by name; one that is
    # renamed or deleted would read 0.0 instead of failing
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["per_layer"]]
    pattern = re.compile(r"^(\w+)\.(\w+?)(?:_p99_ms|_ms|_calls)$")
    traced = [m.groups() for m in map(pattern.match, names) if m] + [("data", "load_dataset")]
    assert len(traced) > 1
    for layer, function in traced:
        module = importlib.import_module(f"sparsecf.{layer}")
        fn = getattr(module, function, None)
        assert not function.startswith("_"), f"{layer}.{function}"
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, f"{layer}.{function}"
