"""Training orchestration: sparse learning steps, mask exploration, logging.

Every method is a short list of phases run by _run_phase: dense, rp and
dsl run one phase of exactly t_end iterations; omp runs a dense phase of
t_end iterations, prunes it once by magnitude and fine-tunes for another
t_end. Under the dynamic method, iterations that land on the exploration
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
from .data import InteractionDataset, _json_text, _write_split_manifest, sample_batch
from .embeddings import (
    EmbeddingTable,
    OptimizerState,
    SparseMask,
    init_mask,
    init_table,
    masked_step,
    save_checkpoint,
    zero_inactive,
)
from .evaluation import _require_test_split, evaluate_combined
from .models import BackboneConfig, bpr_loss_and_grad, combined_embeddings
from .sparsifier import (
    ExplorationSchedule,
    exploration_step,
    is_exploration_iteration,
    one_shot_magnitude_prune,
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

    def __init__(self, iteration: int, message: str, artifacts=None):
        super().__init__(f"iteration {iteration}: {message}")
        self.iteration = iteration
        self.artifacts = artifacts


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
        for name, check in (
            ("backbone", lambda: BackboneConfig(kind=self.backbone)),
            ("num_layers", lambda: BackboneConfig(layers=self.num_layers)),
            ("l2_reg", lambda: BackboneConfig(l2_reg=self.l2_reg)),
            ("optimizer", lambda: OptimizerState(self.optimizer, 1.0)),
            ("lr", lambda: OptimizerState("sgd", self.lr)),
        ):
            try:
                check()
            except ValueError as exc:
                # the owner's message starts with the name of its own parameter
                raise ValueError(f"{name} {str(exc).split(' ', 1)[1]}") from None

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
    """Everything a finished (or aborted) run produced, in memory."""

    run_id: str
    config: dict
    table: EmbeddingTable
    mask: SparseMask
    metrics: list = field(default_factory=list)  # metrics.csv rows as dicts
    events: list = field(default_factory=list)
    losses: list = field(default_factory=list)  # (t, loss) at learning iterations
    cost: CostReport | None = None
    aborted: bool = False

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


def _completion_text(config: dict) -> str:
    """complete.json of a finished run of this resolved config."""
    return _json_text({"config_sha1": config_digest(config)})


def _write_run_dir(out_dir, art: RunArtifacts, ds: InteractionDataset, cfg: RunConfig) -> None:
    """Write the run directory. complete.json, holding the digest of the
    resolved config, is written last and only for a finished run."""
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
    if not art.aborted:
        marker.write_text(_completion_text(art.config), encoding="utf-8")


def is_complete(run_dir, cfg: RunConfig) -> bool:
    """Whether run_dir holds a finished run of exactly this config."""
    marker = Path(run_dir) / "complete.json"
    expected = _completion_text(cfg.resolved())
    return marker.exists() and marker.read_text(encoding="utf-8") == expected


def _dense_mask(table: EmbeddingTable) -> SparseMask:
    return SparseMask(np.ones_like(table.weights, dtype=bool), target_sparsity=0.0)


def _phases(cfg: RunConfig) -> list:
    """(t_start, iterations, starting mask, explore) of each phase of a run.

    The starting mask is "dense", "random" (init_mask) or "magnitude" (a
    one-shot prune of the table the phase starts from).
    """
    if cfg.method != "omp":
        start = "dense" if cfg.method == "dense" else "random"
        return [(0, cfg.t_end, start, cfg.method == "dsl")]
    return [(0, cfg.t_end, "dense", False), (cfg.t_end, cfg.t_end, "magnitude", False)]


class _RunState:
    """Mutable pieces shared by the training phases of one run."""

    def __init__(self, cfg: RunConfig, ds: InteractionDataset):
        self.cfg = cfg
        self.ds = ds
        self.bb = BackboneConfig.for_dataset(cfg.backbone, cfg.num_layers, ds, cfg.l2_reg)
        adj = self.bb.adjacency
        self.nnz_adj = int(adj.nnz) if adj is not None else 0
        self.fwd = macs_forward_batch(
            cfg.backbone, cfg.dim, cfg.batch_size, cfg.num_layers, self.nnz_adj
        )
        ss = np.random.SeedSequence(cfg.seed)
        table_ss, mask_ss, batch_ss = ss.spawn(3)
        self.table_rng = np.random.default_rng(table_ss)
        self.mask_rng = np.random.default_rng(mask_ss)
        self.batch_rng = np.random.default_rng(batch_ss)
        self.macs_cum = 0.0

    def start_mask(self, kind: str, table: EmbeddingTable) -> SparseMask:
        """The mask a phase starts from (see _phases); zeroes the table outside it."""
        if kind == "dense":
            return _dense_mask(table)
        if kind == "random":
            mask = init_mask(table.weights.shape, self.cfg.sparsity, self.mask_rng)
        else:
            mask = one_shot_magnitude_prune(table, self.cfg.sparsity)
        zero_inactive(table, mask)
        return mask

    def grad_on_fresh_batch(self, table: EmbeddingTable):
        batch = sample_batch(self.ds, self.cfg.batch_size, self.batch_rng)
        return bpr_loss_and_grad(self.bb, table, batch)

    def snapshot_metrics(self, t: int, table: EmbeddingTable, mask: SparseMask, run_id: str):
        combined = combined_embeddings(self.bb, table.weights)
        report = evaluate_combined(combined, self.ds, self.cfg.eval_k)
        s = mask.sparsity
        return {
            "run_id": run_id,
            "iteration": t,
            "k": report.k,
            "recall": report.recall,
            "ndcg": report.ndcg,
            "hr": report.hr,
            "sparsity": s,
            "macs_train_cum": self.macs_cum,
            "macs_infer": macs_inference(
                self.cfg.backbone,
                self.ds.num_users,
                self.ds.num_items,
                self.cfg.dim,
                self.cfg.num_layers,
                self.nnz_adj,
                s,
            ),
        }


def _run_phase(
    state: _RunState,
    art: RunArtifacts,
    t_start: int,
    iterations: int,
    explore: bool,
    snapshot_hook=None,
) -> None:
    """Run iterations t_start+1 .. t_start+iterations on art.table under
    art.mask, from a fresh optimizer state, appending to art."""
    cfg = state.cfg
    table, mask = art.table, art.mask
    opt = OptimizerState(cfg.optimizer, cfg.lr)
    eval_every = art.config["eval_every"]
    sched = cfg.schedule() if explore else None
    t_final = t_start + iterations
    for t in range(t_start + 1, t_final + 1):
        snapshot = t % eval_every == 0 or t == t_final
        try:
            if explore and is_exploration_iteration(sched, t - t_start):

                def grad_fn():
                    return state.grad_on_fresh_batch(table)[1]

                event = exploration_step(table, mask, sched, t - t_start, grad_fn)
                art.events.append(event)
                state.macs_cum += macs_training(state.fwd, 0, 0.0, exploration_iterations=1)
            else:
                loss, grad = state.grad_on_fresh_batch(table)
                masked_step(table, grad, mask, opt)
                art.losses.append((t, loss))
                state.macs_cum += macs_training(state.fwd, 1, mask.sparsity)
            if snapshot:
                art.metrics.append(state.snapshot_metrics(t, table, mask, art.run_id))
        except FloatingPointError as exc:
            art.aborted = True
            raise TrainingAborted(t, str(exc), art) from exc
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
    given, also when the run aborts. Deterministic given cfg and seed.
    A dataset without test interactions is rejected before any work.
    """
    _require_test_split(ds)
    state = _RunState(cfg, ds)
    resolved = cfg.resolved()
    table = init_table(ds.num_users, ds.num_items, cfg.dim, state.table_rng)
    art = RunArtifacts(resolved["run_id"], resolved, table, _dense_mask(table))
    abort = None
    try:
        for t_start, iterations, start, explore in _phases(cfg):
            if start == "magnitude" and out_dir is not None:
                # omp keeps the dense table it prunes
                Path(out_dir).mkdir(parents=True, exist_ok=True)
                save_checkpoint(Path(out_dir) / "checkpoint.dense", table, _dense_mask(table))
            art.mask = state.start_mask(start, table)
            _run_phase(state, art, t_start, iterations, explore, snapshot_hook)
    except TrainingAborted as exc:
        abort = exc
    else:
        art.cost = CostReport(
            macs_train=state.macs_cum,
            macs_infer=art.metrics[-1]["macs_infer"],
            memory_bytes=memory_bytes(art.mask.active_count, art.mask.total),
        )
    if out_dir is not None:
        _write_run_dir(out_dir, art, ds, cfg)
    if abort is not None:
        raise abort
    return art
