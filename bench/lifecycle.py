"""The measured process of the benchmark: one workload's lifecycle.

Loads the prepared dataset, trains through ``sparsecf.trainer.train`` into
a run directory, reloads ``checkpoint.final`` and ranks the full catalogue
for every test user, then checks the outputs. Prints one JSON object as
the last line of standard output. Started by run.py, which prepares the
dataset beforehand so that generating it is neither timed nor counted in
this process's peak resident set.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import sparsecf  # noqa: E402
from sparsecf import data, embeddings, evaluation, models, trainer  # noqa: E402

import oracles  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import SCALES, WORKLOADS, expected_events, run_config_kwargs, traced_trains  # noqa: E402


class Ledger:
    """Counts operations attempted and failed; a failure is reported on
    stderr and the run carries on."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failed_checks = 0

    def run(self, name, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001  (a failed operation is a measurement)
            self.failed += 1
            if name.startswith("check"):
                self.failed_checks += 1
            print(f"failed operation {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None


@dataclass
class Model:
    """One trained model: its config, run directory and in-memory artifacts,
    plus the (table, mask, report) of its latest reload from disk."""

    cfg: trainer.RunConfig
    run_dir: Path
    art: trainer.RunArtifacts | None = None
    reloaded: tuple | None = None

    @property
    def checkpoint(self) -> Path:
        return self.run_dir / "checkpoint.final"

    def train(self, ledger, ds) -> float:
        shutil.rmtree(self.run_dir, ignore_errors=True)
        start = time.perf_counter()
        self.art = ledger.run("train", trainer.train, self.cfg, ds, self.run_dir)
        return time.perf_counter() - start

    def infer(self, ledger, bb, ds) -> float:
        """One inference pass: reload the checkpoint, rank every test user."""

        def infer_pass():
            table, mask = embeddings.load_checkpoint(self.checkpoint)
            return table, mask, evaluation.evaluate(bb, table, mask, ds, self.cfg.eval_k)

        start = time.perf_counter()
        self.reloaded = ledger.run("infer", infer_pass) or self.reloaded
        return time.perf_counter() - start


def run_checks(ledger, bb, data_dir, trained) -> None:
    """The correctness checks, each one operation over every trained model."""
    cfg = trained[0].cfg
    train_pairs = oracles.read_pairs(data_dir / "train.txt")
    test_pairs = oracles.read_pairs(data_dir / "test.txt")

    def recall():
        for m in trained:
            table, mask, report = m.reloaded
            if cfg.backbone == "mf":
                combined = np.where(mask.bits, table.weights, 0.0)
            else:
                combined = models.combined_embeddings(bb, embeddings.apply_mask(table, mask))
            oracle, random = oracles.oracle_recall(
                combined, train_pairs, test_pairs, table.num_users, table.num_items, cfg.eval_k
            )
            oracles.check_recall(report.recall, oracle, random)
            oracles.check_recall(m.art.final_metrics["recall"], oracle, random)

    def budget():
        for m in trained:
            for table, mask in ((m.art.table, m.art.mask), m.reloaded[:2]):
                oracles.check_budget(table.weights, mask.bits, cfg.effective_sparsity)

    def reload():
        for m in trained:
            table, mask, _ = m.reloaded
            oracles.check_bitwise_equal(m.art.table.weights, m.art.mask.bits,
                                        table.weights, mask.bits)

    def exploration():
        want = expected_events(cfg)
        for m in trained:
            if len(m.art.events) != want:
                raise oracles.CheckFailed(f"{len(m.art.events)} events in memory, expected {want}")
            oracles.check_exploration_log(m.run_dir, want)

    def propagation():
        table, mask, _ = trained[-1].reloaded
        base = np.where(mask.bits, table.weights, 0.0)
        reference = oracles.dense_propagation(
            base, train_pairs, table.num_users, table.num_items, cfg.num_layers
        )
        oracles.check_propagation(models.combined_embeddings(bb, base), reference)

    checks = [recall, budget, reload, exploration]
    if cfg.backbone == "lightgcn":
        checks.append(propagation)
    for check in checks:
        ledger.run(f"check {check.__name__}", check)


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # KiB on Linux


def end_to_end(ledger, trained, data_dir, seconds):
    """For each model: load the dataset, train, reload and rank once; then
    reload and rank the models in turn until the run has lasted `seconds`.
    Interleaving spreads each metric's samples over the whole run. Each time
    metric is a median; the first train() of a process runs cold (see
    trace.cold_start_s) and is one of the samples."""
    start = time.perf_counter()
    cfg = trained[0].cfg
    setup, train, passes = [], [], []
    bb = None
    for m in trained:
        t = time.perf_counter()
        ds = data.load_dataset(data_dir)
        setup.append(time.perf_counter() - t)
        if bb is None:
            bb = models.BackboneConfig.for_dataset(cfg.backbone, cfg.num_layers, ds, cfg.l2_reg)
        train.append(m.train(ledger, ds))
        passes.append(m.infer(ledger, bb, ds))
    while time.perf_counter() - start < seconds:
        passes.append(trained[len(passes) % len(trained)].infer(ledger, bb, ds))
    rss = peak_rss_bytes()
    run_checks(ledger, bb, data_dir, trained)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "train_s": (statistics.median(train), "s"),
        "infer_s": (statistics.median(passes), "s"),
        "recall_at_20": (statistics.mean(m.reloaded[2].recall for m in trained), "1"),
        "model_bytes": (statistics.median(os.path.getsize(m.checkpoint) for m in trained), "B"),
        "peak_rss_bytes": (rss, "B"),
    }


def _median_ms(values) -> float:
    return float(np.median(values)) * 1e3 if len(values) else 0.0


def _p99_ms(values) -> float:
    return float(np.percentile(values, 99)) * 1e3 if len(values) else 0.0


def traced(ledger, model, scale, data_dir, out_dir):
    """The lifecycle of one model, untraced and then traced, with the spans
    of the traced part reduced to per-layer metrics."""
    ds = data.load_dataset(data_dir)
    cfg = model.cfg
    bb = models.BackboneConfig.for_dataset(cfg.backbone, cfg.num_layers, ds, cfg.l2_reg)
    # The first train() of a process runs cold; trace.cold_start_s is its
    # excess over a warm one. The overhead compares the traced trains with an
    # untraced one run after them, in a process as warm as it was for them.
    cold_train_s = model.train(ledger, ds)
    tracer = Tracer()
    with tracer:
        tracer.install(sparsecf, alloc_functions={"evaluation.evaluate_combined"})
        for _ in range(scale.traced_repeats):
            data.load_dataset(data_dir)
        for _ in range(traced_trains(cfg, scale)):
            Model(cfg, out_dir / "traced").train(ledger, ds)
        for _ in range(scale.traced_repeats):
            model.infer(ledger, bb, ds)
    tracer.write(out_dir / "trace.jsonl")
    warm_train_s = Model(cfg, out_dir / "warm").train(ledger, ds)
    run_checks(ledger, bb, data_dir, [model])
    art = model.art
    report = model.reloaded[2]

    st = tracer.analyse()
    roots = st.roots("trainer.train")
    within = st.under(roots)
    n = len(roots)

    def self_times(name):
        return st.self_time[st.calls(name)]

    def per_train(name):
        return len(st.calls(name, within)) / n

    train_s = float(st.duration[roots].mean())
    alloc = [st.peak_alloc[i] for i in st.calls("evaluation.evaluate_combined")]
    metrics = {
        "data.load_dataset_s": (float(np.median(st.duration[st.calls("data.load_dataset")])), "s"),
        "data.sample_batch_ms": (_median_ms(self_times("data.sample_batch")), "ms"),
        "data.sample_batch_calls": (per_train("data.sample_batch"), "count"),
        "models.bpr_loss_and_grad_ms": (_median_ms(self_times("models.bpr_loss_and_grad")), "ms"),
        "models.bpr_loss_and_grad_p99_ms": (_p99_ms(self_times("models.bpr_loss_and_grad")), "ms"),
        "models.lightgcn_propagate_ms": (_median_ms(self_times("models.lightgcn_propagate")), "ms"),
        "models.lightgcn_propagate_calls": (per_train("models.lightgcn_propagate"), "count"),
        "models.build_adjacency_ms": (_median_ms(self_times("models.build_adjacency")), "ms"),
        "embeddings.masked_step_ms": (_median_ms(self_times("embeddings.masked_step")), "ms"),
        "embeddings.masked_step_p99_ms": (_p99_ms(self_times("embeddings.masked_step")), "ms"),
        "embeddings.apply_mask_ms": (_median_ms(self_times("embeddings.apply_mask")), "ms"),
        "embeddings.save_checkpoint_ms": (_median_ms(self_times("embeddings.save_checkpoint")), "ms"),
        "embeddings.load_checkpoint_ms": (_median_ms(self_times("embeddings.load_checkpoint")), "ms"),
        "embeddings.active_entries": (art.mask.active_count, "count"),
        "sparsifier.exploration_step_ms": (
            _median_ms(self_times("sparsifier.exploration_step")), "ms"),
        "sparsifier.select_prune_ms": (_median_ms(self_times("sparsifier.select_prune")), "ms"),
        "sparsifier.select_grow_ms": (_median_ms(self_times("sparsifier.select_grow")), "ms"),
        "sparsifier.exploration_events": (per_train("sparsifier.exploration_step"), "count"),
        "sparsifier.positions_moved": (sum(ev.count for ev in art.events), "count"),
        "evaluation.evaluate_combined_ms": (
            _median_ms(self_times("evaluation.evaluate_combined")), "ms"),
        "evaluation.users_evaluated": (report.users_evaluated, "count"),
        "evaluation.peak_alloc_bytes": (float(np.median(alloc)) if alloc else 0.0, "B"),
        "costs.macs_train": (art.cost.macs_train, "MAC"),
        "costs.memory_bytes": (art.cost.memory_bytes, "B"),
        "trace.train_s": (train_s, "s"),
        "trace.overhead_s": (train_s - warm_train_s, "s"),
        "trace.cold_start_s": (cold_train_s - warm_train_s, "s"),
        "trace.spans": (int(within.sum()) / n, "count"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (st.layer_self_time(layer, within) / n, "s")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--scale", choices=sorted(SCALES), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    scale = SCALES[args.scale]
    ledger = Ledger()
    args.out.mkdir(parents=True, exist_ok=True)

    def model(seed, name):
        kw = run_config_kwargs(args.workload, scale, seed)
        return Model(trainer.RunConfig(**kw, data_dir=str(args.data)), args.out / name)

    if args.trace:
        metrics = traced(ledger, model(args.seed, "run"), scale, args.data, args.out)
    else:
        # Each run trains scale.models models, each with its own seed derived
        # from --seed; no two --seed values share a model seed.
        trained = [model(args.seed * scale.models + r, f"run-{r}") for r in range(scale.models)]
        metrics = end_to_end(ledger, trained, args.data, args.seconds)
    print(json.dumps({
        "correct": ledger.failed_checks == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
