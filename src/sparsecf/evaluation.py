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

Only the top k of each ranking is built, and each user is scored only
against the items that can enter it (exact maximum inner-product search
with the Cauchy-Schwarz bound, as in LEMP, Teflioudi et al., SIGMOD 2015):

- The bound. score(u, i) = u . i <= |u| |i|. Items are ordered by
  descending norm, and a first pass scores every user against the top
  BLOCK of them, doubled until they hold 2k. The k-th largest of those
  scores, lb, is at most the user's k-th score, so an item with
  |u| |i| < lb scores below it and can neither enter the top k nor tie
  into it. The items that can are a prefix of the norm order.
- The margin. The prefix holds every item with |u| |i| >= lb - tau. tau
  is a multiple of (d + 2) eps |u| max|i| that covers the rounding of the
  first pass, of the later score and of the norms (the two products of a
  score can round differently, since BLAS blocks by shape), plus a tiny
  absolute term for underflow. Where lb <= tau (lb <= 0, a zero user, a
  user with fewer than k items left in the block) nothing is pruned.
- The buckets. Prefix lengths are rounded up to the first block's width
  times 2^j, the last one the whole catalogue. A user whose prefix is the
  first block finishes from its first-pass row; the others are scored,
  USER_BATCH at a time, against their bucket's items in ascending item
  order, so columns keep the lower-item tie rule. Train items are scored
  -inf, so they sort after every remaining item. A score can be
  non-finite only for a user where 2 |u| max|i| is not finite; those
  users' rows are checked before any other score is made.
- The selection. Each row of a block is folded into G = min(width,
  max(BLOCK, 4k, width / FOLD)) >= k groups (group j holds items j,
  j + G, ...) by an elementwise maximum, and lb is the k-th largest
  group maximum: those k groups hold k distinct items scoring at least
  lb. The first block, at most max(BLOCK, 4k) items, has one item per
  group, so there lb is the row's exact k-th score. Every entry above lb
  is kept, then the entries equal to lb in column order until the row
  holds k, so a row keeps at most max(k, entries above lb) however many
  scores tie (many are exactly 0 at high sparsity). A stable sort of the
  kept entries, padded into a block, gives the first k of the full
  stable sort. Metrics are summed USER_BATCH users at a time in order.

Rounding. Each item is ranked by the score its user's last block gives
it, and the BLAS rounds an entry of a product differently with the
product's shape and the entry's place in it (one user's row goes through
a matrix-vector kernel, for one). So two scores within a rounding error of
each other, a few (d + 2) eps |u| max|i|, can order differently than in
one full (users x items) product, as they already could between two
values of USER_BATCH. tau keeps the pruning safe under any such rounding:
no item is dropped whose score could reach the k-th. With scores that are
exact (integer embeddings) the ranking equals the full stable sort.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import InteractionDataset, _in_sorted
from .embeddings import EmbeddingTable, SparseMask, apply_mask
from .models import BackboneConfig, combined_embeddings

# items per group of the group-max bound (fewer when k needs more groups)
FOLD = 8
# items of the first pass, the top of the catalogue by norm (doubled for k)
BLOCK = 128
# users scored, and their metrics summed, per product
USER_BATCH = 512


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


def evaluate_combined(combined: np.ndarray, ds: InteractionDataset, k: int) -> MetricsReport:
    """Rank with precomputed scorer-ready embeddings (masked, propagated).

    Raises FloatingPointError naming the first user with a non-finite
    score, as the loss and gradient checks do for a diverged table.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _require_test_split(ds)
    if len(combined) != ds.num_users + ds.num_items:
        raise ValueError(f"combined has {len(combined)} rows for "
                         f"{ds.num_users} users + {ds.num_items} items")
    num_items = ds.num_items
    # row pointers: where each user's keys start, and where the last ends
    user_starts = np.arange(ds.num_users + 1) * np.int64(num_items)
    test_counts = np.diff(np.searchsorted(ds._test_keys, user_starts))
    test_users = np.flatnonzero(test_counts)
    kk = min(k, num_items)
    train = _train_lists(ds, user_starts, test_users)
    top = _top_items(combined, ds, test_users, train, kk)
    gains = 1.0 / np.log2(np.arange(1, kk + 1) + 1.0)
    # idcg[m] = best possible DCG with m relevant items, m in [0, kk]
    idcg = np.concatenate([[0.0], np.cumsum(gains)])

    recall_sum = 0.0
    ndcg_sum = 0.0
    hr_sum = 0.0
    # summed chunk by chunk in user order, so the totals do not depend on
    # the order in which users were ranked
    for start in range(0, len(test_users), USER_BATCH):
        chunk = test_users[start : start + USER_BATCH]
        # a train item (never a test item) takes a top slot only when fewer
        # than kk items remain, and is never relevant
        hit = _in_sorted(ds._test_keys,
                         chunk[:, None] * np.int64(num_items) + top[start : start + USER_BATCH])
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


def _train_lists(ds: InteractionDataset, user_starts: np.ndarray, users: np.ndarray) -> tuple:
    """(start, count, items): users[j]'s train items are
    items[start[j] : start[j] + count[j]], ascending. user_starts[u] is
    user u's first key, u * num_items, for u in [0, num_users]."""
    ptr = np.searchsorted(ds._train_keys, user_starts)
    items = ds._train_keys - np.repeat(user_starts[:-1], np.diff(ptr))
    return ptr[users], ptr[users + 1] - ptr[users], items


def _exclude(scores: np.ndarray, pos: np.ndarray, train: tuple, col_of: np.ndarray) -> None:
    """Score -inf at the train items, among the block's columns, of the
    users at positions pos (one per row of scores).

    col_of maps an item to its column in the block, -1 when absent. -inf
    sorts after every remaining item, so train items take no rank.
    """
    start, count, items = train
    n = count[pos]
    # the users' runs of train items laid end to end
    at = np.repeat(start[pos] - np.cumsum(n) + n, n) + np.arange(n.sum())
    cols = col_of[items[at]]
    flat = np.repeat(np.arange(len(pos)) * np.int64(scores.shape[1]), n) + cols
    # np.compress: boolean indexing was four times slower here
    scores.put(np.compress(cols >= 0, flat), -np.inf)


def _column_map(cols: np.ndarray, num_items: int) -> np.ndarray:
    """Item -> its column among cols, -1 for items not in cols."""
    col_of = np.full(num_items, -1)
    col_of[cols] = np.arange(len(cols))
    return col_of


def _raise_on_non_finite(combined: np.ndarray, users: np.ndarray, emb: np.ndarray) -> None:
    """FloatingPointError naming the first of users with a non-finite score
    against the items emb, (dim, items)."""
    for start in range(0, len(users), USER_BATCH):
        chunk = users[start : start + USER_BATCH]
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(combined[chunk] @ emb).all(axis=1)
        if not finite.all():
            raise FloatingPointError(f"non-finite score for user {chunk[np.argmin(finite)]}")


def _candidates(lb: np.ndarray, tau: np.ndarray, user_norms: np.ndarray,
                neg_sorted_norms: np.ndarray) -> np.ndarray:
    """How many items, taken by descending norm, each user must be scored
    against: those with |u| |i| >= lb - tau, where lb is at most the user's
    kk-th score. Every item where lb <= tau (lb <= 0, or a zero user)."""
    count = np.full(len(lb), len(neg_sorted_norms))
    bounded = lb > tau
    need = (lb[bounded] - tau[bounded]) / user_norms[bounded]
    count[bounded] = np.searchsorted(neg_sorted_norms, -need, side="right")
    return count


def _top_items(combined: np.ndarray, ds: InteractionDataset, users: np.ndarray, train: tuple,
               kk: int) -> np.ndarray:
    """(len(users), kk) items of each user's kk best, best first, scoring
    each user only against the items its norm bound leaves (see the module
    docstring); train is _train_lists of users. Raises FloatingPointError,
    before any score is made, if a score is not finite."""
    num_users, num_items = ds.num_users, ds.num_items
    items = combined[num_users:]
    dim = combined.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.einsum("ij,ij->i", combined, combined))
        user_norms, item_norms = norms[users], norms[num_users:]
        top_norm = item_norms.max()
        # |u.i| <= |u| |i|, and a computed score errs from u.i by far less
        # than a factor 2, so only these users can have a non-finite score
        unsafe = ~np.isfinite(2.0 * user_norms * top_norm)
        if unsafe.any():
            _raise_on_non_finite(combined, users[unsafe], items.T)
        # tau covers the rounding between a first-pass score, the same score
        # in a later block and the bound |u| |i|: the two d-term dot products
        # and the norms each err by at most about (d + 2) eps |u| |i|; the
        # second term, what squares and products that underflow can hide
        tau = (8 * (dim + 2) * np.finfo(np.float64).eps * user_norms * top_norm
               + 1e-150 * (user_norms + top_norm + 1.0))
    perm = np.argsort(-item_norms, kind="stable")
    # first pass: every user against the top BLOCK * 2^j >= 2 kk items by
    # norm, or the whole catalogue
    width = BLOCK
    while width < 2 * kk:
        width *= 2
    width = min(width, num_items)
    first = np.sort(perm[:width])
    col_of = _column_map(first, num_items)
    emb = items[first].T
    neg_sorted_norms = -item_norms[perm]
    top = np.empty((len(users), kk), dtype=np.intp)
    prefix = np.empty(len(users), dtype=np.intp)
    for start in range(0, len(users), USER_BATCH):
        pos = np.arange(start, min(start + USER_BATCH, len(users)))
        block = combined[users[pos]] @ emb
        _exclude(block, pos, train, col_of)
        # the block's kk-th largest score, -inf when fewer than kk block
        # items remain: at most the user's kk-th largest score
        lb = _lower_bound(block, kk)
        count = _candidates(lb, tau[pos], user_norms[pos], neg_sorted_norms)
        # prefix lengths width * 2^j, the last one the whole catalogue
        length = np.full(len(pos), width)
        while (short := length < count).any():
            length[short] *= 2
        prefix[pos] = np.minimum(length, num_items)
        # users whose candidates all lie in the block finish here
        done = prefix[pos] == width
        if done.any():
            top[pos[done]] = first[_top_columns(block[done], lb[done], kk)]
    for length in np.unique(prefix[prefix > width]):
        members = np.flatnonzero(prefix == length)
        cols = np.sort(perm[:length])
        col_of = _column_map(cols, num_items)
        emb = items[cols].T
        for start in range(0, len(members), USER_BATCH):
            pos = members[start : start + USER_BATCH]
            block = combined[users[pos]] @ emb
            _exclude(block, pos, train, col_of)
            top[pos] = cols[_top_columns(block, _lower_bound(block, kk), kk)]
            # the next block is made without this one alive
            del block
    return top


def _lower_bound(scores: np.ndarray, kk: int) -> np.ndarray:
    """Per row, a lower bound on its kk-th largest score, 1 <= kk <=
    scores.shape[1]: the kk-th largest group maximum, exact on a block of
    at most max(BLOCK, 4 kk) columns, one per group, as every first block is."""
    width = scores.shape[1]
    # at least kk groups (kk <= width), each holding at least one item
    groups = min(width, max(BLOCK, 4 * kk, -(-width // FOLD)))
    # group j's maximum over items j, j + groups, ...: one pass over the
    # row's slices, the last one ragged
    gmax = scores[:, :groups].copy()
    for lo in range(groups, width, groups):
        span = min(groups, width - lo)
        np.maximum(gmax[:, :span], scores[:, lo : lo + span], out=gmax[:, :span])
    gmax.partition(groups - kk, axis=1)
    return gmax[:, groups - kk]


def _top_columns(scores: np.ndarray, lb: np.ndarray, kk: int) -> np.ndarray:
    """(rows, kk) columns of each row's kk largest scores, best first, ties
    to the lower column, given lb, at most each row's kk-th largest."""
    rows, width = scores.shape
    flat = np.flatnonzero(scores >= lb[:, None])
    row = flat // width
    tied = scores.reshape(-1)[flat] == lb[row]
    # keep every entry above lb, then the ties at lb in column order until
    # the row has kk: at most max(above, kk) per row however many tie
    before = np.concatenate([[0], np.cumsum(tied)])
    row_start = np.searchsorted(row, np.arange(rows + 1))
    above = np.diff(row_start) - np.diff(before[row_start])
    rank = before[:-1] - before[row_start[row]]
    keep = ~tied | (rank < (kk - above)[row])
    flat, row = flat[keep], row[keep]
    per_row = np.bincount(row, minlength=rows)
    slot = np.arange(len(row)) - np.repeat(np.cumsum(per_row) - per_row, per_row)
    # negated scores, padded with +inf after each row's kept entries; a
    # stable sort keeps ties, and kept -inf scores, in column order
    neg = np.full((rows, per_row.max()), np.inf)
    neg[row, slot] = -scores.reshape(-1)[flat]
    cols = np.zeros(neg.shape, dtype=np.intp)
    cols[row, slot] = flat - row * width
    order = np.argsort(neg, axis=1, kind="stable")[:, :kk]
    return np.take_along_axis(cols, order, axis=1)


def evaluate(
    cfg: BackboneConfig,
    table: EmbeddingTable,
    mask: SparseMask,
    ds: InteractionDataset,
    k: int,
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
    return evaluate_combined(combined, ds, k)


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
    popularity = ds.train_degrees(side).astype(np.float64)  # rejects an unknown side
    if side == "users":
        bits = mask.bits[: ds.num_users]
    else:
        bits = mask.bits[ds.num_users :]
    if not 1 <= num_groups <= len(bits):
        raise ValueError(f"num_groups must be in [1, {len(bits)}], got {num_groups}")
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
