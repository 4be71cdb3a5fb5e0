"""Full-ranking evaluation and popularity/sparsity profiling.

Every test user is ranked against the full item catalog. Items already
seen in training are skipped without disturbing the ranks of the
remaining items, and score ties break toward the lower item index so
results are reproducible across runs and platforms.

Every per-user fact comes from the dataset's two sorted key arrays
(user * num_items + item, one per split): the train keys give the items
to exclude, the test keys the test users, their counts and, by binary
search, the relevance of each top-k item. Both are set operations, so
neither depends on the order of the edges in a file.

Only the top k of each ranking is built, never the full order. Train
items are scored -inf, so they sort after every remaining item. Each
score row is then folded into G >= k groups (group j holds items j,
j + G, j + 2G, ...) by an elementwise maximum over its contiguous slices
of width G, and `np.partition` of the short row of group maxima gives
its k-th largest, lb. The k groups with the largest maxima hold k
distinct items that score at least lb, so every item of the top k
scores at least lb. The items at or above lb (between k and 2k per row
on the trained desk models) are sorted by row and descending score; the flat order
already puts ties at the lower item index first. The first k of each row
are exactly the first k of the full stable sort. Scores must be finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import InteractionDataset, _in_sorted
from .embeddings import EmbeddingTable, SparseMask, apply_mask
from .models import BackboneConfig, combined_embeddings, score_matrix

SIDES = ("users", "items")
# items per group of the group-max bound (fewer when k needs more groups)
FOLD = 8


@dataclass
class MetricsReport:
    """Mean ranking quality over the users that have test interactions."""

    k: int
    recall: float
    ndcg: float
    hr: float
    users_evaluated: int


@dataclass
class SparsityProfile:
    """Row sparsity of one table side, bucketed by train-set popularity.

    Rows are sorted ascending by interaction count and split into
    near-equal groups (sizes differ by at most one); larger group ids
    hold more popular rows.
    """

    side: str
    num_groups: int
    mean_sparsity: list = field(default_factory=list)
    mean_popularity: list = field(default_factory=list)
    group_sizes: list = field(default_factory=list)


def _require_test_split(ds: InteractionDataset) -> None:
    """Raise ValueError unless ds holds test interactions to rank against."""
    if ds.num_test == 0:
        raise ValueError("dataset has no test interactions")


def evaluate_combined(
    combined: np.ndarray,
    ds: InteractionDataset,
    k: int,
    user_batch: int = 512,
) -> MetricsReport:
    """Rank with precomputed scorer-ready embeddings (masked, propagated).

    Raises FloatingPointError naming the first user with a non-finite
    score, as the loss and gradient checks do for a diverged table.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if user_batch < 1:
        raise ValueError(f"user_batch must be >= 1, got {user_batch}")
    _require_test_split(ds)
    if len(combined) != ds.num_users + ds.num_items:
        raise ValueError(f"combined has {len(combined)} rows for "
                         f"{ds.num_users} users + {ds.num_items} items")
    num_items = ds.num_items
    # row pointers: where each user's keys start, and where the last ends
    user_starts = np.arange(ds.num_users + 1) * np.int64(num_items)
    train_ptr = np.searchsorted(ds._train_keys, user_starts)
    test_counts = np.diff(np.searchsorted(ds._test_keys, user_starts))
    test_users = np.flatnonzero(test_counts)
    kk = min(k, num_items)
    # at least kk groups, each holding at least one item (kk <= num_items)
    groups = max(kk, -(-num_items // FOLD))
    gains = 1.0 / np.log2(np.arange(1, kk + 1) + 1.0)
    # idcg[m] = best possible DCG with m relevant items, m in [0, kk]
    idcg = np.concatenate([[0.0], np.cumsum(gains)])

    recall_sum = 0.0
    ndcg_sum = 0.0
    hr_sum = 0.0
    for start in range(0, len(test_users), user_batch):
        chunk = test_users[start : start + user_batch]
        scores = score_matrix(combined, ds.num_users, chunk)
        finite = np.isfinite(scores).all(axis=1)
        if not finite.all():
            raise FloatingPointError(f"non-finite score for user {chunk[np.argmin(finite)]}")
        # train items sort after every remaining item, so they take no rank;
        # at lays the chunk's runs of train keys end to end, and a key
        # user * num_items + item becomes the flat position row * num_items + item
        n_train = train_ptr[chunk + 1] - train_ptr[chunk]
        at = np.repeat(train_ptr[chunk] - np.cumsum(n_train) + n_train, n_train)
        at += np.arange(len(at))
        shift = np.repeat((chunk - np.arange(len(chunk))) * np.int64(num_items), n_train)
        scores.put(ds._train_keys[at] - shift, -np.inf)
        # group j's maximum over items j, j + groups, ...: one pass over the
        # row's slices, the last one ragged
        gmax = scores[:, :groups].copy()
        for lo in range(groups, num_items, groups):
            width = min(groups, num_items - lo)
            np.maximum(gmax[:, :width], scores[:, lo : lo + width], out=gmax[:, :width])
        # lb: the kk-th largest group maximum, at most the kk-th largest score
        gmax.partition(groups - kk, axis=1)
        lb = gmax[:, groups - kk]
        flat = np.flatnonzero(scores >= lb[:, None])
        rows, items = np.divmod(flat, num_items)
        # by row, then descending score; the sort is stable, so ties keep
        # the flat order, which is ascending by item within a row
        order = np.lexsort((-scores.reshape(-1)[flat], rows))
        # the next chunk's block is made without this one alive
        del scores
        # rows is already in row order, so it is also the row of each
        # sorted position; rank is the position within that row
        per_row = np.bincount(rows, minlength=len(chunk))
        rank = np.arange(len(rows)) - np.repeat(np.cumsum(per_row) - per_row, per_row)
        top = order[rank < kk]
        top_items = items[top].reshape(len(chunk), kk)
        # a train item (never a test item) takes a top slot only when fewer
        # than kk items remain, and is never relevant
        hit = _in_sorted(ds._test_keys, chunk[:, None] * np.int64(num_items) + top_items)
        dcg = np.where(hit, gains, 0.0).sum(axis=1)
        n_test = test_counts[chunk]
        hits = hit.sum(axis=1)
        recall_sum += float((hits / n_test).sum())
        ndcg_sum += float((dcg / idcg[np.minimum(n_test, kk)]).sum())
        hr_sum += float((hits > 0).sum())
    n = len(test_users)
    return MetricsReport(
        k=k,
        recall=recall_sum / n,
        ndcg=ndcg_sum / n,
        hr=hr_sum / n,
        users_evaluated=n,
    )


def evaluate(
    cfg: BackboneConfig,
    table: EmbeddingTable,
    mask: SparseMask,
    ds: InteractionDataset,
    k: int,
    user_batch: int = 512,
) -> MetricsReport:
    """Recall@k, NDCG@k and HR@k under full ranking with train exclusion.

    Scores come from the masked table (propagated first for graph
    backbones, which needs cfg.adjacency). Users without test
    interactions are skipped.
    """
    if (table.num_users, table.num_items) != (ds.num_users, ds.num_items):
        raise ValueError(f"table has (users, items) = {(table.num_users, table.num_items)}, "
                         f"dataset has {(ds.num_users, ds.num_items)}")
    combined = combined_embeddings(cfg, apply_mask(table, mask))
    return evaluate_combined(combined, ds, k, user_batch=user_batch)


def sparsity_profile(
    mask: SparseMask,
    ds: InteractionDataset,
    side: str = "items",
    num_groups: int = 10,
) -> SparsityProfile:
    """Mean row sparsity per popularity bucket on one side of the graph.

    Rows sort ascending by train interaction count and split into
    num_groups buckets whose sizes differ by at most one. Row sparsity is
    the masked-out fraction of that row's entries.
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    if side == "users":
        bits = mask.bits[: ds.num_users]
    else:
        bits = mask.bits[ds.num_users :]
    if not 1 <= num_groups <= len(bits):
        raise ValueError(f"num_groups must be in [1, {len(bits)}], got {num_groups}")
    popularity = ds.train_degrees(side).astype(np.float64)
    row_sparsity = 1.0 - bits.sum(axis=1) / bits.shape[1]
    order = np.argsort(popularity, kind="stable")
    profile = SparsityProfile(side=side, num_groups=num_groups)
    for rows in np.array_split(order, num_groups):
        profile.mean_sparsity.append(float(row_sparsity[rows].mean()))
        profile.mean_popularity.append(float(popularity[rows].mean()))
        profile.group_sizes.append(len(rows))
    return profile


def popularity_sparsity_correlation(profile: SparsityProfile):
    """Spearman correlation between group popularity rank and mean sparsity.

    Returns None when undefined (fewer than 2 groups or a constant
    profile, e.g. a fully dense mask).
    """
    if profile.num_groups < 2:
        return None
    sparsities = np.asarray(profile.mean_sparsity)
    ranks = np.arange(profile.num_groups)
    if np.ptp(sparsities) == 0.0 or np.ptp(profile.mean_popularity) == 0.0:
        return None
    # imported here, not at the top: importing scipy.stats takes longer and
    # more memory than the rest of the package, and only this function needs it
    from scipy.stats import spearmanr

    rho = spearmanr(ranks, sparsities).statistic
    return float(rho) if np.isfinite(rho) else None
