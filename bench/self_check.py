"""Fast self-check of the benchmark at a tiny input size.

    python3 bench/self_check.py

Runs every workload in both modes on the 'tiny' scale and checks each
result against BENCHMARK.json: the metric names and units, a passing
correctness verdict, no failed operation, and that the per-layer self
times add up to the traced train() time. Also checks that the benchmark
refuses to run without the program's sources. Takes well under a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=170)


def check_result(workload: str, trace: int, proc) -> list:
    errors = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']}")
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        errors.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got["unit"] != m["unit"]:
            errors.append(f"{m['name']}: unit {got['unit']!r}, expected {m['unit']!r}")
        if not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            errors.append(f"{m['name']}: value {got['value']!r}")
        elif not trace and got["value"] <= 0:
            errors.append(f"{m['name']}: end-to-end value {got['value']!r} is not positive")
    if trace and not errors:
        layers = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
        train = metrics["trace.train_s"]["value"]
        if abs(layers - train) > 1e-9 * max(1.0, train):
            errors.append(f"layer self times sum to {layers!r}, traced train_s is {train!r}")
    return errors


def main() -> int:
    failures = 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            errors = check_result(workload, trace, run(ROOT, workload, trace))
            print(f"{workload} trace={trace}: {'ok' if not errors else '; '.join(errors)}")
            failures += bool(errors)

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, SPEC["workloads"][0]["name"], 0)
    refused = proc.returncode != 0 and not proc.stdout.strip()
    print(f"without sources: {'refused' if refused else 'NOT refused'}")
    failures += not refused
    shutil.rmtree(bare)

    print("self-check:", "ok" if failures == 0 else f"{failures} failure(s)")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
