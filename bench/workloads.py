"""Workload and input definitions shared by the benchmark's entry point and
its measured child process.

Every input is derived from the workload name, the scale and the ``--seed``
argument, so the same seed always gives the same dataset and run config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Shared by all three workloads, so that the only differences between them
# are the ones each workload exists to show (method, sparsity, backbone).
_COMMON = dict(
    dim=64,
    rho0=0.3,
    decay="cosine",
    optimizer="adam",
    lr=0.005,
    l2_reg=5e-3,
    batch_size=1024,
    eval_k=20,
)


@dataclass(frozen=True)
class Scale:
    """Input size: synthetic generator parameters and iteration counts."""

    num_users: int
    num_items: int
    avg_degree: float
    min_degree: int
    ratio: float
    mf_t_end: int
    mf_delta_t: int
    lightgcn_t_end: int
    lightgcn_delta_t: int
    # models trained (with distinct seeds) in one end-to-end run
    models: int
    # calls of each learning-step function the traced run gathers, enough
    # for a p99 with ten samples beyond it
    tail_calls: int
    # dataset loads and inference passes in a traced run
    traced_repeats: int


SCALES = {
    # MovieLens-100K shape: the desk dataset and hyperparameters of
    # acceptance gates 07-09, with shorter runs.
    "desk": Scale(
        num_users=943,
        num_items=1682,
        avg_degree=100.0,
        min_degree=20,
        ratio=0.2,
        mf_t_end=200,
        mf_delta_t=20,
        lightgcn_t_end=60,
        lightgcn_delta_t=20,
        models=5,
        tail_calls=1000,
        traced_repeats=3,
    ),
    # For the self-check only: seconds per workload, same code paths.
    "tiny": Scale(
        num_users=60,
        num_items=400,
        avg_degree=15.0,
        min_degree=5,
        ratio=0.2,
        mf_t_end=40,
        mf_delta_t=10,
        lightgcn_t_end=30,
        lightgcn_delta_t=10,
        models=2,
        tail_calls=1,
        traced_repeats=1,
    ),
}

WORKLOADS = ("mf-dsl-s0.9", "mf-dense", "lightgcn-dsl-s0.5")


def data_params(scale: Scale) -> dict:
    """Generator and split arguments. The seeds are those of the desk
    dataset of acceptance gates 07-09, so every benchmark seed trains on the
    same interactions; --seed varies the model (initial table and mask, and
    the batches drawn)."""
    return {
        "generate": dict(
            num_users=scale.num_users,
            num_items=scale.num_items,
            avg_degree=scale.avg_degree,
            min_degree=scale.min_degree,
            seed=17,
        ),
        "split": dict(ratio=scale.ratio, seed=23),
    }


def run_config_kwargs(workload: str, scale: Scale, seed: int) -> dict:
    """Keyword arguments of sparsecf's RunConfig for one workload.

    eval_every equals t_end, so each run evaluates once, at its end.
    """
    if workload == "mf-dsl-s0.9":
        kw = dict(method="dsl", backbone="mf", sparsity=0.9,
                  t_end=scale.mf_t_end, delta_t=scale.mf_delta_t)
    elif workload == "mf-dense":
        kw = dict(method="dense", backbone="mf", sparsity=0.0,
                  t_end=scale.mf_t_end, delta_t=scale.mf_delta_t)
    elif workload == "lightgcn-dsl-s0.5":
        kw = dict(method="dsl", backbone="lightgcn", num_layers=3, sparsity=0.5,
                  t_end=scale.lightgcn_t_end, delta_t=scale.lightgcn_delta_t)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return dict(_COMMON, **kw, eval_every=kw["t_end"], seed=seed)


def expected_events(cfg) -> int:
    """Exploration events a run (a sparsecf RunConfig) must log: one per
    delta_t strictly inside (0, t_end), none for methods that do not explore."""
    if cfg.method != "dsl":
        return 0
    return len(range(cfg.delta_t, cfg.t_end, cfg.delta_t))


def traced_trains(cfg, scale: Scale) -> int:
    """Traced train() calls needed for tail_calls calls of each learning-step
    function: every iteration calls bpr_loss_and_grad, and every iteration
    but the exploration events calls masked_step."""
    per_train = cfg.t_end - expected_events(cfg)
    return math.ceil(scale.tail_calls / per_train)
