"""Golden sha256 digests of everything a run, a sweep, a prepared split and a
profile write.

The outputs are byte-deterministic given their inputs, so a refactor that
must not change them is checked against tests/run_digests.json. An
intended change records the table again:

    PYTHONPATH=src python tests/test_run_digests.py

Everything is written with relative paths under one working directory,
because data_dir enters config.json, complete.json, split_manifest.json
and the sweep's run ids.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from sparsecf import RunConfig, generate_interactions, save_dataset, split_holdout, train
from sparsecf.cli import main

DIGESTS = Path(__file__).resolve().with_name("run_digests.json")
SWEEP_SPEC = {
    "base": {"dim": 8, "t_end": 40, "delta_t": 10, "batch_size": 32},
    "sparsities": [0.3, 0.5],
    "methods": ["dsl", "dense"],
    "seeds": [0, 1],
}


def produce() -> None:
    """Write a prepared split, 16 run directories, a 2-worker sweep and a
    profile under the current directory."""
    ds = split_holdout(generate_interactions(60, 120, avg_degree=12, min_degree=4, seed=5), 0.2, 1)
    save_dataset(ds, "data", manifest_extra={"seed": 1, "ratio": 0.2, "source": "synthetic",
                                             "format": "pair-lines"})
    for method in ("dsl", "rp", "omp", "dense"):
        for backbone in ("mf", "lightgcn"):
            for optimizer, lr in (("adam", 0.05), ("sgd", 2.0)):
                run_id = f"{method}-{backbone}-{optimizer}"
                cfg = RunConfig(method=method, backbone=backbone, dim=8, sparsity=0.5,
                                delta_t=15, t_end=90, eval_every=30, batch_size=32, eval_k=10,
                                seed=3, optimizer=optimizer, lr=lr, data_dir="data",
                                run_id=run_id)
                train(cfg, ds, out_dir=Path("runs") / run_id)
    assert main(["profile", "runs/dsl-mf-adam"]) == 0
    Path("sweep.json").write_text(json.dumps(SWEEP_SPEC), encoding="utf-8")
    assert main(["sweep", "sweep.json", "--data", "data", "--out", "sweep", "--workers", "2"]) == 0
    Path("sweep.json").unlink()


def digests(root: Path) -> dict:
    """sha256 of every file under root, keyed by its relative POSIX path."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_outputs_match_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    produce()
    got = digests(tmp_path)
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if got != expected:
        print(json.dumps(got, indent=2, sort_keys=True))
    changed = sorted(k for k in got.keys() | expected.keys() if got.get(k) != expected.get(k))
    assert not changed, (f"{len(changed)} of {len(expected)} outputs differ from {DIGESTS.name}: "
                         f"{changed[:10]}; the new table is printed above")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        produce()
        table = digests(Path(tmp))
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(table)} digests in {DIGESTS}", file=sys.stderr)
