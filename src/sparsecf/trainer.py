"""Training orchestration: sparse learning steps, mask exploration, logging.

train names each method's phases once and _Run.phase runs them all: dense
runs one phase under the all-active mask, rp and dsl one under a random
mask, omp a dense phase and then one under a one-shot magnitude prune of
the table it trained. Under dsl, iterations that land on the exploration
interval update the mask instead of the weights; all other iterations
sample a batch, take the ranking gradient and apply a masked optimizer
step.
Everything a run writes (metrics.csv, exploration.jsonl, checkpoints,
config.json, split_manifest.json, complete.json) is byte-deterministic
given the config and seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .costs import CostReport, macs_forward_batch, macs_inference, macs_training, memory_bytes
from .data import (
    InteractionDataset,
    _json_text,
    _split_digest,
    _write_split_manifest,
    sample_batch,
)
from .embeddings import (
    EmbeddingTable,
    OptimizerState,
    SparseMask,
    init_mask,
    init_table,
    masked_step,
    save_checkpoint,
    target_active_count,
)
from .evaluation import _require_test_split, evaluate_combined
from .models import BackboneConfig, bpr_loss_and_grad, combined_embeddings
from .sparsifier import (
    ExplorationSchedule,
    _prune_count,
    exploration_step,
    is_exploration_iteration,
    one_shot_magnitude_prune,
    update_ratio,
)

METHODS = ("dsl", "dense", "rp", "omp")

METRICS_COLUMNS = (
    "run_id",
    "iteration",
    "k",
    "recall",
    "ndcg",
    "hr",
    "sparsity",
    "macs_train_cum",
    "macs_infer",
)


class TrainingAborted(RuntimeError):
    """Raised when a non-finite loss, gradient or score stops a run early.

    The run directory (when one was requested) retains the last good
    checkpoint and all rows logged before the abort.
    """

    def __init__(self, iteration: int, message: str):
        super().__init__(f"iteration {iteration}: {message}")
        self.iteration = iteration


@dataclass
class RunConfig:
    """Everything that determines a run, bar the dataset itself."""

    method: str = "dsl"
    backbone: str = "mf"
    num_layers: int = 3
    dim: int = 64
    sparsity: float = 0.5
    rho0: float = 0.3
    delta_t: int = 2000
    t_end: int = 10000
    decay: str = "cosine"
    optimizer: str = "adam"
    lr: float = 1e-3
    l2_reg: float = 1e-4
    batch_size: int = 1024
    eval_every: int | None = None  # defaults to delta_t
    eval_k: int = 20
    seed: int = 0
    data_dir: str | None = None
    run_id: str | None = None

    def __post_init__(self):
        types = {"int": int, "float": (int, float), "str": str}  # no field takes a bool
        for f in fields(self):
            value, typ = getattr(self, f.name), f.type.removesuffix(" | None")
            typed = isinstance(value, types[typ]) and not isinstance(value, bool)
            if not typed and not (value is None and typ != f.type):
                raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if not 0.0 <= self.sparsity < 1.0:
            raise ValueError(f"sparsity must be in [0, 1), got {self.sparsity}")
        for name, low in (("batch_size", 1), ("eval_every", 1), ("eval_k", 1), ("dim", 1),
                          ("seed", 0)):
            value = getattr(self, name)
            if value is not None and value < low:  # eval_every may be None
                raise ValueError(f"{name} must be >= {low}, got {value}")
        self.schedule()  # checks rho0, delta_t, t_end and decay, for every method
        # the rules of the backbone and the optimizer, each checked by its owner
        BackboneConfig(self.backbone, self.num_layers, self.l2_reg)
        OptimizerState(self.optimizer, self.lr)

    @property
    def effective_sparsity(self) -> float:
        """Dense runs ignore the sparsity field."""
        return 0.0 if self.method == "dense" else self.sparsity

    def schedule(self) -> ExplorationSchedule:
        return ExplorationSchedule(self.rho0, self.delta_t, self.t_end, self.decay)

    def resolved(self) -> dict:
        """Config dict with every default filled in; what config.json holds."""
        out = asdict(self)
        out["run_id"] = self.resolve_run_id()
        out["eval_every"] = self.eval_every if self.eval_every is not None else self.delta_t
        return out

    def resolve_run_id(self) -> str:
        if self.run_id is not None:
            return self.run_id
        payload = {k: v for k, v in asdict(self).items() if k != "run_id"}
        digest = config_digest(payload)[:8]
        return f"{self.method}-s{self.effective_sparsity:g}-seed{self.seed}-{digest}"


def config_digest(config: dict) -> str:
    """sha1 of a config dict in canonical (sorted-key) JSON."""
    return hashlib.sha1(json.dumps(config, sort_keys=True).encode()).hexdigest()


@dataclass
class RunArtifacts:
    """Everything a run produced, in memory."""

    run_id: str
    config: dict
    table: EmbeddingTable
    mask: SparseMask
    metrics: list = field(default_factory=list)  # metrics.csv rows as dicts
    events: list = field(default_factory=list)
    losses: list = field(default_factory=list)  # (t, loss) at learning iterations
    cost: CostReport | None = None

    @property
    def final_metrics(self) -> dict:
        return self.metrics[-1] if self.metrics else {}


def write_csv(path, columns, rows) -> None:
    """Write dict rows under a header of columns; extra keys are ignored.

    The csv module writes floats with repr, so they read back exactly.
    """
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, columns, extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _completion_text(config: dict, ds: InteractionDataset) -> str:
    """complete.json of a finished run of this resolved config on this split."""
    return _json_text({"config_sha1": config_digest(config), "split_sha1": _split_digest(ds)})


def _write_run_dir(out_dir, art: RunArtifacts, ds: InteractionDataset, cfg: RunConfig,
                   finished: bool) -> None:
    """Write the run directory. complete.json, holding the digests of the
    resolved config and of the split, is written last and only when the
    run finished."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    marker = out / "complete.json"
    marker.unlink(missing_ok=True)
    (out / "config.json").write_text(_json_text(art.config), encoding="utf-8")
    write_csv(out / "metrics.csv", METRICS_COLUMNS, art.metrics)
    with (out / "exploration.jsonl").open("w", encoding="utf-8") as fh:
        for ev in art.events:
            fh.write(json.dumps(ev.log_entry(), sort_keys=True) + "\n")
    save_checkpoint(out / "checkpoint.final", art.table, art.mask)
    _write_split_manifest(out, ds, {"data_dir": cfg.data_dir})
    if finished:
        marker.write_text(_completion_text(art.config, ds), encoding="utf-8")


def is_complete(run_dir, cfg: RunConfig, ds: InteractionDataset) -> bool:
    """Whether run_dir holds a finished run of exactly this config on exactly
    this split."""
    marker = Path(run_dir) / "complete.json"
    expected = _completion_text(cfg.resolved(), ds)
    return marker.exists() and marker.read_text(encoding="utf-8") == expected


def _dense_mask(table: EmbeddingTable) -> SparseMask:
    return SparseMask(np.ones(table.shape, dtype=bool), target_sparsity=0.0)


def _require_growth_room(cfg: RunConfig, ds: InteractionDataset) -> None:
    """Raise ValueError unless a dsl run's first exploration event, its
    largest (rho_t never rises), finds inactive entries enough to grow."""
    sched = cfg.schedule()
    if cfg.method != "dsl" or not is_exploration_iteration(sched, cfg.delta_t):
        return
    total = (ds.num_users + ds.num_items) * cfg.dim
    active = target_active_count(total, cfg.sparsity)
    grow = _prune_count(update_ratio(sched, cfg.delta_t), active)
    if grow > total - active:
        raise ValueError(f"dsl at sparsity {cfg.sparsity} and rho0 {cfg.rho0} must grow "
                         f"{grow} entries at iteration {cfg.delta_t}, but only "
                         f"{total - active} are inactive")


class _Run:
    """One run in progress: its inputs, random streams, MAC count and artifacts."""

    def __init__(self, cfg: RunConfig, ds: InteractionDataset):
        self.cfg, self.ds = cfg, ds
        self.bb = BackboneConfig.for_dataset(cfg.backbone, cfg.num_layers, ds, cfg.l2_reg)
        adj = self.bb.adjacency
        self.nnz_adj = int(adj.nnz) if adj is not None else 0
        self.fwd = macs_forward_batch(cfg.backbone, cfg.dim, cfg.batch_size, cfg.num_layers,
                                      self.nnz_adj)
        table_ss, mask_ss, batch_ss = np.random.SeedSequence(cfg.seed).spawn(3)
        self.mask_rng = np.random.default_rng(mask_ss)
        self.batch_rng = np.random.default_rng(batch_ss)
        self.macs_cum = 0.0
        resolved = cfg.resolved()
        table = init_table(ds.num_users, ds.num_items, cfg.dim, np.random.default_rng(table_ss))
        self.art = RunArtifacts(resolved["run_id"], resolved, table, _dense_mask(table))

    def grad_on_fresh_batch(self):
        batch = sample_batch(self.ds, self.cfg.batch_size, self.batch_rng)
        return bpr_loss_and_grad(self.bb, self.art.table, batch)

    def snapshot_metrics(self, t: int) -> dict:
        cfg, ds = self.cfg, self.ds
        combined = combined_embeddings(self.bb, self.art.table.weights)
        report = evaluate_combined(combined, ds, cfg.eval_k)
        s = self.art.mask.sparsity
        return {
            "run_id": self.art.run_id,
            "iteration": t,
            "k": report.k,
            "recall": report.recall,
            "ndcg": report.ndcg,
            "hr": report.hr,
            "sparsity": s,
            "macs_train_cum": self.macs_cum,
            "macs_infer": macs_inference(
                cfg.backbone, ds.num_users, ds.num_items, cfg.dim, cfg.num_layers,
                self.nnz_adj, s,
            ),
        }

    def phase(self, mask: SparseMask, t_start: int, explore: bool, snapshot_hook) -> None:
        """Run iterations t_start+1 .. t_start+t_end under mask, from a fresh
        optimizer state, appending to the artifacts. The table follows the
        mask first: its entries outside the mask go."""
        cfg, art, table = self.cfg, self.art, self.art.table
        art.mask = mask
        table.follow(mask)
        opt = OptimizerState(cfg.optimizer, cfg.lr)
        eval_every = art.config["eval_every"]
        sched = cfg.schedule()
        t_final = t_start + cfg.t_end
        for t in range(t_start + 1, t_final + 1):
            snapshot = t % eval_every == 0 or t == t_final
            try:
                if explore and is_exploration_iteration(sched, t - t_start):
                    event = exploration_step(
                        table, mask, sched, t - t_start, lambda: self.grad_on_fresh_batch()[1]
                    )
                    art.events.append(event)
                    self.macs_cum += macs_training(self.fwd, 0, 0.0, exploration_iterations=1)
                else:
                    loss, grad = self.grad_on_fresh_batch()
                    masked_step(table, grad, mask, opt)
                    art.losses.append((t, loss))
                    self.macs_cum += macs_training(self.fwd, 1, mask.sparsity)
                if snapshot:
                    art.metrics.append(self.snapshot_metrics(t))
            except FloatingPointError as exc:
                raise TrainingAborted(t, str(exc)) from exc
            if snapshot and snapshot_hook is not None:
                snapshot_hook(t, table, mask)


def train(
    cfg: RunConfig,
    ds: InteractionDataset,
    out_dir=None,
    snapshot_hook=None,
) -> RunArtifacts:
    """Run one training job end to end and return its artifacts.

    Runs the phases of cfg.method in turn; metric rows and costs
    accumulate across them. Writes the run directory when out_dir is
    given, also when the run aborts; an abort then raises TrainingAborted,
    so every run returned finished. Deterministic given cfg and seed.
    A dataset without test interactions, or a dsl config that would run
    out of entries to grow, is rejected before any work.
    """
    _require_test_split(ds)
    _require_growth_room(cfg, ds)
    run = _Run(cfg, ds)
    art, table = run.art, run.art.table
    abort = None
    try:
        if cfg.method == "dense":
            run.phase(_dense_mask(table), 0, False, snapshot_hook)
        elif cfg.method in ("rp", "dsl"):
            mask = init_mask(table.shape, cfg.sparsity, run.mask_rng)
            run.phase(mask, 0, cfg.method == "dsl", snapshot_hook)
        elif cfg.method == "omp":
            run.phase(_dense_mask(table), 0, False, snapshot_hook)
            if out_dir is not None:
                # omp keeps the dense table it prunes
                Path(out_dir).mkdir(parents=True, exist_ok=True)
                save_checkpoint(Path(out_dir) / "checkpoint.dense", table, art.mask)
            mask = one_shot_magnitude_prune(table, cfg.sparsity)
            run.phase(mask, cfg.t_end, False, snapshot_hook)
    except TrainingAborted as exc:
        abort = exc
    else:
        art.cost = CostReport(
            macs_train=run.macs_cum,
            macs_infer=art.metrics[-1]["macs_infer"],
            memory_bytes=memory_bytes(art.mask.active_count, art.mask.total),
        )
    if out_dir is not None:
        _write_run_dir(out_dir, art, ds, cfg, abort is None)
    if abort is not None:
        raise abort
    return art
