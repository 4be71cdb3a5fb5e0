"""Train-to-inference benchmark of sparsecf.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload mf-dsl-s0.9 --seed 1 --seconds 30 --trace 0

Prepares the synthetic dataset (cached under .bench_out/),
then runs the workload's lifecycle in a fresh child process, so that its
peak resident set holds the workload alone, and prints the child's JSON
result as the last line of standard output. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones from a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
# The child must end well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170
# One process and one thread, counting the math library's: on a 2-core
# machine a second BLAS thread made training slower and no steadier.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

sys.path.insert(0, str(HERE))
from workloads import SCALES, WORKLOADS, data_params  # noqa: E402


def prepare_data(scale_name: str) -> Path:
    """Generate, split and save the dataset of a scale, unless cached."""
    out = OUT / "data" / scale_name
    if (out / "ready").exists():
        return out
    sys.path.insert(0, str(ROOT / "src"))
    from sparsecf import generate_interactions, save_dataset, split_holdout

    shutil.rmtree(out, ignore_errors=True)
    params = data_params(SCALES[scale_name])
    split = split_holdout(generate_interactions(**params["generate"]), **params["split"])
    save_dataset(split, out, manifest_extra=params)
    (out / "ready").write_text("", encoding="utf-8")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Train-to-inference benchmark of sparsecf.")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", choices=sorted(SCALES), default="desk",
                   help="input size; 'tiny' is for the self-check")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "sparsecf" / "__init__.py").is_file():
        print(f"error: no sparsecf sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    data_dir = prepare_data(args.scale)
    out_dir = OUT / "runs" / f"{args.workload}-{args.scale}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [
        sys.executable, str(HERE / "lifecycle.py"),
        "--workload", args.workload, "--scale", args.scale, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--data", str(data_dir), "--out", str(out_dir),
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              env=dict(os.environ, **THREAD_ENV), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: workload process exited with code {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
