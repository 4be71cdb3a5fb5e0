"""Fixed-budget dynamic sparse training for embedding-based recommenders."""

from .data import (
    DataFormatError,
    NoValidNegativeError,
    load_dataset,
    load_interactions,
    make_dataset,
    sample_batch,
    save_dataset,
    split_holdout,
)
from .embeddings import (
    EmbeddingTable,
    OptimizerState,
    SparseMask,
    apply_mask,
    init_mask,
    init_table,
    load_checkpoint,
    masked_step,
    save_checkpoint,
    target_active_count,
)
from .evaluation import (
    evaluate,
    evaluate_combined,
    popularity_sparsity_correlation,
    sparsity_profile,
)
from .models import (
    BackboneConfig,
    bpr_loss_and_grad,
    build_adjacency,
    combined_embeddings,
    lightgcn_propagate,
)
from .costs import macs_forward_batch, macs_inference, macs_training, memory_bytes
from .sparsifier import (
    ExplorationEvent,
    ExplorationSchedule,
    exploration_step,
    one_shot_magnitude_prune,
    select_grow,
    select_prune,
    update_ratio,
)
from .synth import generate_interactions
from .trainer import RunConfig, TrainingAborted, train

__version__ = "0.1.0"

__all__ = [
    "BackboneConfig",
    "DataFormatError",
    "EmbeddingTable",
    "ExplorationEvent",
    "ExplorationSchedule",
    "NoValidNegativeError",
    "OptimizerState",
    "RunConfig",
    "SparseMask",
    "TrainingAborted",
    "apply_mask",
    "bpr_loss_and_grad",
    "build_adjacency",
    "combined_embeddings",
    "evaluate",
    "evaluate_combined",
    "exploration_step",
    "generate_interactions",
    "init_mask",
    "init_table",
    "lightgcn_propagate",
    "load_checkpoint",
    "load_dataset",
    "load_interactions",
    "macs_forward_batch",
    "macs_inference",
    "macs_training",
    "make_dataset",
    "masked_step",
    "memory_bytes",
    "one_shot_magnitude_prune",
    "popularity_sparsity_correlation",
    "sample_batch",
    "save_checkpoint",
    "save_dataset",
    "select_grow",
    "select_prune",
    "sparsity_profile",
    "split_holdout",
    "target_active_count",
    "train",
    "update_ratio",
]
