"""The experiment scripts under scripts/ run end to end in --quick mode."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_decay_ablation_writes_plain_numbers(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_decay_ablation.py"),
         "--quick", "--seeds", "0", "--out", str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with (tmp_path / "decay_ablation.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["decay"] for r in rows] == ["cosine", "linear", "none"]
    for row in rows:
        for key, value in row.items():
            if key != "decay":
                float(value)  # a cell such as np.float64(0.4) raises here
