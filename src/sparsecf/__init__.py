"""Fixed-budget dynamic sparse training for embedding-based recommenders.

The package front holds the run's entry points and the three data steps
the benchmark calls; every other name is imported from the module that
defines it (sparsecf.data, .embeddings, .models, .sparsifier,
.evaluation, .costs, .synth, .trainer).
"""

from .data import load_dataset, save_dataset, split_holdout
from .synth import generate_interactions
from .trainer import RunConfig, TrainingAborted, train

__version__ = "0.1.0"

__all__ = [
    "RunConfig",
    "TrainingAborted",
    "generate_interactions",
    "load_dataset",
    "save_dataset",
    "split_holdout",
    "train",
]
