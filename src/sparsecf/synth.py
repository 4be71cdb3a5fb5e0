"""Synthetic implicit-feedback generator with skewed item popularity.

Items get Zipf-like base popularity; users and items also carry latent
cluster affinities so the interactions have learnable low-rank structure
rather than being pure noise.
"""

from __future__ import annotations

import numpy as np

from .data import InteractionDataset, make_dataset

# latent clusters of users and items
NUM_CLUSTERS = 12
# how much a user's cluster raises the weight of the items it favours
AFFINITY_STRENGTH = 4.0


def _gumbel_topk(weights: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Sample k indices without replacement, proportional to weights."""
    logits = np.log(weights) + rng.gumbel(size=len(weights))
    return np.argpartition(-logits, k - 1)[:k]


def generate_interactions(
    num_users: int = 943,
    num_items: int = 1682,
    avg_degree: float = 100.0,
    popularity_exponent: float = 1.0,
    min_degree: int = 20,
    seed: int = 0,
) -> InteractionDataset:
    """Generate a bipartite interaction set with all edges in train.

    Per-user degree is drawn lognormally around avg_degree and clipped to
    [min_degree, num_items // 4]. A user's item distribution is the item
    popularity law reweighted by the affinity between the user's cluster
    and each item's cluster mix.
    """
    if num_users < 1 or num_items < 2:
        raise ValueError("need at least 1 user and 2 items")
    if not (np.isfinite(avg_degree) and avg_degree > 0):
        raise ValueError(f"avg_degree must be finite and positive, got {avg_degree}")
    if not np.isfinite(popularity_exponent):
        raise ValueError(f"popularity_exponent must be finite, got {popularity_exponent}")
    # the clip's upper bound, at least min_degree + 1, must fit the catalogue
    if not 0 <= min_degree <= num_items - 1:
        raise ValueError(f"min_degree must be in [0, {num_items - 1}], got {min_degree}")
    rng = np.random.default_rng(seed)

    ranks = np.arange(1, num_items + 1, dtype=np.float64)
    popularity = ranks**-popularity_exponent
    popularity /= popularity.sum()
    # shuffle so item index carries no popularity information
    popularity = popularity[rng.permutation(num_items)]

    user_cluster = rng.integers(0, NUM_CLUSTERS, size=num_users)
    item_mix = rng.dirichlet(np.full(NUM_CLUSTERS, 0.3), size=num_items)

    mean_log = np.log(avg_degree)
    degrees = rng.lognormal(mean=mean_log, sigma=0.5, size=num_users)
    degrees = np.clip(degrees.astype(np.int64), min_degree, max(min_degree + 1, num_items // 4))

    edges = []
    for u in range(num_users):
        weights = popularity * (1.0 + AFFINITY_STRENGTH * item_mix[:, user_cluster[u]])
        items = _gumbel_topk(weights, int(degrees[u]), rng)
        for i in items:
            edges.append((u, int(i)))
    return make_dataset(num_users, num_items, np.asarray(edges, dtype=np.int64))
