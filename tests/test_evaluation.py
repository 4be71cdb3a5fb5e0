import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sparsecf import (
    BackboneConfig,
    EmbeddingTable,
    SparseMask,
    evaluate,
    evaluate_combined,
    make_dataset,
    popularity_sparsity_correlation,
    sparsity_profile,
)
from sparsecf.models import score_matrix


def dense_mask(shape):
    return SparseMask(np.ones(shape, dtype=bool))


def eval_scores(scores, ds, k):
    """Rank from an explicit (num_users, num_items) score matrix."""
    num_users, num_items = scores.shape
    # build embeddings whose dot products reproduce the given scores:
    # users carry the score rows, items are one-hot columns
    combined = np.vstack([scores, np.eye(num_items)])
    return evaluate_combined(combined, ds, k)


def test_single_user_ranks_one_and_three():
    # user 0: test items 1 and 3 land at effective ranks 1 and 3
    ds = make_dataset(1, 4, [(0, 0)], [(0, 1), (0, 3)])
    scores = np.array([[9.0, 8.0, 7.0, 6.0]])
    rep = eval_scores(scores, ds, 2)
    # item 0 is excluded, leaving order 1, 2, 3; hits at ranks 1, 3
    assert rep.recall == 0.5
    assert rep.hr == 1.0
    expected = 1.0 / (1.0 / math.log2(2.0) + 1.0 / math.log2(3.0))
    assert rep.ndcg == pytest.approx(expected, abs=1e-15)
    rep3 = eval_scores(scores, ds, 3)
    assert rep3.recall == 1.0
    want = (1.0 + 1.0 / math.log2(4.0)) / (1.0 + 1.0 / math.log2(3.0))
    assert rep3.ndcg == pytest.approx(want, abs=1e-15)
    assert rep3.ndcg == pytest.approx(0.9197207891481876, abs=1e-15)


def test_perfect_ranking_scores_one():
    ds = make_dataset(2, 5, [(0, 0), (1, 4)], [(0, 1), (0, 2), (1, 0)])
    scores = np.array(
        [
            [0.0, 9.0, 8.0, 1.0, 2.0],
            [9.0, 1.0, 2.0, 3.0, 0.0],
        ]
    )
    rep = eval_scores(scores, ds, 2)
    assert rep.recall == 1.0
    assert rep.ndcg == 1.0
    assert rep.hr == 1.0
    assert rep.users_evaluated == 2


def test_complete_miss_scores_zero():
    ds = make_dataset(1, 5, [], [(0, 4)])
    scores = np.array([[5.0, 4.0, 3.0, 2.0, 1.0]])
    rep = eval_scores(scores, ds, 2)
    assert rep.recall == 0.0 and rep.ndcg == 0.0 and rep.hr == 0.0


def test_exclusion_and_relevance_ignore_edge_order():
    # edges listed out of user and item order; every item scores by index
    train = [(2, 4), (0, 3), (1, 0), (0, 1), (2, 0)]
    test = [(1, 5), (2, 2), (0, 5), (1, 3), (0, 0)]
    scores = np.tile(np.arange(6.0, 0.0, -1.0), (3, 1))
    rep = eval_scores(scores, make_dataset(3, 6, train, test), 3)
    # top 3 without train items: user 0 -> 0, 2, 4 (hit 0 of {0, 5}),
    # user 1 -> 1, 2, 3 (hit 3 of {3, 5}), user 2 -> 1, 2, 3 (hit 2 of {2})
    g2, g3 = 1.0 / math.log2(3.0), 1.0 / math.log2(4.0)
    assert rep.recall == pytest.approx((0.5 + 0.5 + 1.0) / 3.0, abs=1e-15)
    assert rep.hr == 1.0
    want = (1.0 / (1.0 + g2) + g3 / (1.0 + g2) + g2) / 3.0
    assert rep.ndcg == pytest.approx(want, abs=1e-15)
    assert rep == eval_scores(scores, make_dataset(3, 6, sorted(train), sorted(test)), 3)


def test_train_items_are_skipped_not_penalized():
    # the two top-scoring items are train items; the test item is next
    ds = make_dataset(1, 4, [(0, 0), (0, 1)], [(0, 2)])
    scores = np.array([[9.0, 8.0, 7.0, 6.0]])
    rep = eval_scores(scores, ds, 1)
    assert rep.recall == 1.0
    assert rep.ndcg == 1.0


def test_score_ties_break_toward_lower_item_index():
    ds = make_dataset(1, 3, [], [(0, 2)])
    scores = np.array([[1.0, 1.0, 1.0]])
    rep = eval_scores(scores, ds, 2)
    # item 2 sits at rank 3 after the tie-break, outside the cutoff
    assert rep.recall == 0.0
    rep3 = eval_scores(scores, ds, 3)
    assert rep3.recall == 1.0
    assert rep3.ndcg == pytest.approx(1.0 / math.log2(4.0), abs=1e-15)


def test_recall_at_catalog_size_is_one(rng):
    ds = make_dataset(3, 6, [(0, 0), (1, 1), (2, 2)],
                      [(0, 3), (1, 4), (1, 5), (2, 0)])
    scores = rng.normal(size=(3, 6))
    # k = 7 exceeds the catalog: the cutoff is clamped to all 6 items
    for k in (6, 7):
        rep = eval_scores(scores, ds, k)
        assert rep.recall == 1.0
        assert rep.hr == 1.0


def test_ranking_invariant_to_monotone_score_transform(rng):
    ds = make_dataset(4, 8, [(0, 0), (1, 2), (2, 5), (3, 7)],
                      [(0, 1), (1, 3), (2, 6), (3, 0), (0, 4)])
    scores = rng.normal(size=(4, 8))
    a = eval_scores(scores, ds, 3)
    b = eval_scores(3.0 * scores + 7.0, ds, 3)
    assert a.recall == b.recall
    assert a.ndcg == pytest.approx(b.ndcg, abs=1e-12)
    assert a.hr == b.hr


def test_users_without_test_items_are_skipped():
    ds = make_dataset(3, 3, [(0, 0), (1, 1), (2, 2)], [(1, 0)])
    scores = np.array([[1.0, 2.0, 3.0]] * 3)
    rep = eval_scores(scores, ds, 1)
    assert rep.users_evaluated == 1


def test_evaluate_uses_masked_table(rng):
    ds = make_dataset(2, 3, [(0, 0), (1, 1)], [(0, 1), (1, 2)])
    w = rng.normal(size=(5, 4))
    t = EmbeddingTable(2, 3, 4, w)
    cfg = BackboneConfig(kind="mf")
    bits = rng.random((5, 4)) > 0.4
    mask = SparseMask(bits)
    rep = evaluate(cfg, t, mask, ds, 2)
    zeroed = EmbeddingTable(2, 3, 4, w * bits)
    rep_z = evaluate(cfg, zeroed, dense_mask((5, 4)), ds, 2)
    assert rep == rep_z


def test_evaluate_requires_adjacency_for_lightgcn(rng):
    ds = make_dataset(2, 3, [(0, 0), (1, 1)], [(0, 1), (1, 2)])
    t = EmbeddingTable(2, 3, 4, rng.normal(size=(5, 4)))
    cfg = BackboneConfig(kind="lightgcn", layers=2)
    with pytest.raises(ValueError, match="lightgcn propagation needs cfg.adjacency"):
        evaluate(cfg, t, dense_mask((5, 4)), ds, 2)


def test_evaluate_batched_equals_unbatched(rng):
    edges = [(u, i) for u in range(30) for i in (u % 7, (u + 3) % 7)]
    test = [(u, (u + 5) % 7) for u in range(30)]
    train = [e for e in edges if e not in set(test)]
    ds = make_dataset(30, 7, train, test)
    combined = rng.normal(size=(37, 5))
    a = evaluate_combined(combined, ds, 3, user_batch=4)
    b = evaluate_combined(combined, ds, 3, user_batch=512)
    assert a.users_evaluated == b.users_evaluated
    # chunked accumulation changes the float summation order
    assert a.recall == pytest.approx(b.recall, rel=1e-12)
    assert a.ndcg == pytest.approx(b.ndcg, rel=1e-12)
    assert a.hr == pytest.approx(b.hr, rel=1e-12)


def test_evaluate_validates_inputs(rng):
    ds = make_dataset(1, 2, [(0, 0)], [(0, 1)])
    with pytest.raises(ValueError, match="k"):
        evaluate_combined(rng.normal(size=(3, 2)), ds, 0)
    empty = make_dataset(1, 2, [(0, 0)])
    with pytest.raises(ValueError, match="test"):
        evaluate_combined(rng.normal(size=(3, 2)), empty, 1)
    split = make_dataset(3, 4, [(0, 0), (1, 1)], [(0, 1), (1, 2), (2, 3)])
    table = EmbeddingTable(3, 4, 2, rng.normal(size=(7, 2)))
    mf = BackboneConfig(kind="mf")
    for bad in (0, -1):
        with pytest.raises(ValueError, match="user_batch"):
            evaluate_combined(table.weights, split, 2, user_batch=bad)
        with pytest.raises(ValueError, match="user_batch"):
            evaluate(mf, table, dense_mask((7, 2)), split, 2, user_batch=bad)
    # a table or embeddings of another split, also one with as many rows
    other = EmbeddingTable(4, 3, 2, table.weights)
    with pytest.raises(ValueError, match=r"= \(4, 3\), dataset has \(3, 4\)$"):
        evaluate(mf, other, dense_mask((7, 2)), split, 2)
    for rows in (6, 8):
        with pytest.raises(ValueError, match=f"^combined has {rows} rows for 3 users \\+ 4 items$"):
            evaluate_combined(rng.normal(size=(rows, 2)), split, 2)


@pytest.mark.parametrize("bad", [np.nan, 1e300])
def test_non_finite_scores_name_the_user(rng, bad):
    ds = make_dataset(3, 4, [(0, 0), (1, 1), (2, 2)], [(0, 1), (1, 2), (2, 3)])
    combined = rng.normal(size=(7, 2))
    # a NaN entry, or one whose products overflow to inf, in user 1's row
    combined[1, 0] = bad
    combined[3:, 0] = np.abs(combined[3:, 0]) + 1e10
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="user 1$"):
        evaluate_combined(combined, ds, 2)


def full_sort_reference(combined, ds, k, user_batch):
    """Metrics from a full stable sort of every score row.

    The ranking of evaluate_combined before it selected only the top k:
    every row is argsorted, train items are skipped by a running count of
    the remaining items, and a hit needs an effective rank <= k.
    """
    def user_item_lists(edges):
        order = np.argsort(edges[:, 0], kind="stable")
        counts = np.bincount(edges[:, 0], minlength=ds.num_users)
        return edges[order, 1], np.concatenate([[0], np.cumsum(counts)])

    test_users = np.unique(ds.test_edges[:, 0])
    train_items, train_ptr = user_item_lists(ds.train_edges)
    test_items, test_ptr = user_item_lists(ds.test_edges)
    gains = 1.0 / np.log2(np.arange(1, k + 1) + 1.0)
    idcg = np.concatenate([[0.0], np.cumsum(gains)])
    recall_sum = ndcg_sum = hr_sum = 0.0
    for start in range(0, len(test_users), user_batch):
        chunk = test_users[start : start + user_batch]
        scores = score_matrix(combined, ds.num_users, chunk)
        excluded = np.zeros_like(scores, dtype=bool)
        relevant = np.zeros_like(scores, dtype=bool)
        for row, u in enumerate(chunk):
            excluded[row, train_items[train_ptr[u] : train_ptr[u + 1]]] = True
            relevant[row, test_items[test_ptr[u] : test_ptr[u + 1]]] = True
        order = np.argsort(-scores, axis=1, kind="stable")
        ex_sorted = np.take_along_axis(excluded, order, axis=1)
        rel_sorted = np.take_along_axis(relevant, order, axis=1)
        eff_rank = np.cumsum(~ex_sorted, axis=1)
        hit = rel_sorted & ~ex_sorted & (eff_rank <= k)
        dcg = np.where(hit, 1.0 / np.log2(np.maximum(eff_rank, 1) + 1.0), 0.0).sum(axis=1)
        n_test = relevant.sum(axis=1)
        hits = hit.sum(axis=1)
        recall_sum += float((hits / n_test).sum())
        ndcg_sum += float((dcg / idcg[np.minimum(n_test, k)]).sum())
        hr_sum += float((hits > 0).sum())
    n = len(test_users)
    return recall_sum / n, ndcg_sum / n, hr_sum / n


@settings(max_examples=200, deadline=None)
@given(
    num_users=st.integers(min_value=1, max_value=6),
    num_items=st.integers(min_value=1, max_value=40),
    dim=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31),
    k_over=st.integers(min_value=0, max_value=43),
    user_batch=st.sampled_from([1, 3, 512]),
)
def test_top_k_selection_matches_full_sort(num_users, num_items, dim, seed, k_over, user_batch):
    rng = np.random.default_rng(seed)
    # 0: no interaction, 1: train, 2: test; train-heavy so that some users
    # keep fewer than k items after exclusion
    cells = rng.choice([0, 1, 1, 2], size=(num_users, num_items))
    assume((cells == 2).any())
    ds = make_dataset(num_users, num_items, np.argwhere(cells == 1), np.argwhere(cells == 2))
    # small integers: exact scores with many ties, zero rows included
    combined = rng.integers(-2, 3, size=(num_users + num_items, dim)).astype(np.float64)
    k = 1 + k_over % (num_items + 3)  # up to 3 beyond the catalog
    rep = evaluate_combined(combined, ds, k, user_batch=user_batch)
    recall, ndcg, hr = full_sort_reference(combined, ds, k, user_batch)
    assert rep.recall == recall
    assert rep.hr == hr
    # a DCG sums k gains instead of a full row with zeros between them, so
    # the summation order, and with it the last bit, can differ
    assert rep.ndcg == pytest.approx(ndcg, abs=1e-15)


@settings(max_examples=150, deadline=None)
@given(
    num_users=st.integers(min_value=3, max_value=6),
    num_items=st.integers(min_value=41, max_value=400),
    dim=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31),
    k=st.integers(min_value=1, max_value=60),
    user_batch=st.sampled_from([1, 3, 512]),
    levels=st.sampled_from([2, 1000]),
)
def test_top_k_selection_matches_full_sort_across_folds(
    num_users, num_items, dim, seed, k, user_batch, levels
):
    # catalogues long enough to fold into many groups, the last one ragged
    rng = np.random.default_rng(seed)
    # 0: no interaction, 1: train, 2: test
    cells = rng.choice([0, 0, 0, 1, 2], size=(num_users, num_items))
    # user 0 keeps 1 to k + 1 items after exclusion, one of them a test item,
    # so its row has no k-th remaining score when fewer than k are left
    left = rng.choice(num_items, size=min(num_items, rng.integers(1, k + 2)), replace=False)
    cells[0] = 1
    cells[0, left] = 0
    cells[0, left[0]] = 2
    ds = make_dataset(num_users, num_items, np.argwhere(cells == 1), np.argwhere(cells == 2))
    # integers: exact scores, with many ties at levels=2 and few at 1000
    combined = rng.integers(-levels, levels + 1, size=(num_users + num_items, dim + 1))
    combined = combined.astype(np.float64)
    # user 1 scores -item (the last column alone), strictly falling with the
    # item index: only the first item of each group can reach lb, so a bound
    # taken over fewer than k groups, or from the wrong one, loses an item
    combined[:num_users, dim] = 0.0
    combined[1] = 0.0
    combined[1, dim] = 1.0
    combined[num_users:, dim] = -np.arange(num_items)
    # the last user's row is zero, so every one of its scores is equal
    combined[num_users - 1] = 0.0
    rep = evaluate_combined(combined, ds, k, user_batch=user_batch)
    recall, ndcg, hr = full_sort_reference(combined, ds, k, user_batch)
    assert rep.recall == recall
    assert rep.hr == hr
    assert rep.ndcg == pytest.approx(ndcg, abs=1e-15)


def test_peak_memory_stays_near_one_score_block():
    # 600 users x 2000 items, 60 items each, 10 of them held out
    num_users, num_items = 600, 2000
    rng = np.random.default_rng(3)
    picked = np.argsort(rng.random((num_users, num_items)), axis=1)[:, :60]
    train = np.column_stack([np.repeat(np.arange(num_users), 50), picked[:, 10:].ravel()])
    test = np.column_stack([np.repeat(np.arange(num_users), 10), picked[:, :10].ravel()])
    ds = make_dataset(num_users, num_items, train, test)
    combined = rng.normal(size=(num_users + num_items, 16))
    block = 512 * num_items * 8  # one chunk's float64 score block
    tracemalloc.start()
    try:
        evaluate_combined(combined, ds, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the block plus temporaries a fraction of its size, with no second
    # block-sized array alive next to it
    assert peak < 1.5 * block, f"peak {peak / block:.2f} score blocks"


# ---------------------------------------------------------------------------
# sparsity profile


def profile_fixture(num_users=4, num_items=8):
    # item popularity increases with the item index
    edges = [(u, i) for i in range(num_items) for u in range(min(i + 1, num_users))]
    return make_dataset(num_users, num_items, edges)


def test_profile_groups_cover_rows_evenly():
    ds = profile_fixture()
    bits = np.ones((12, 4), dtype=bool)
    prof = sparsity_profile(SparseMask(bits), ds, side="items", num_groups=5)
    assert prof.group_sizes == [2, 2, 2, 1, 1]
    assert sum(prof.group_sizes) == ds.num_items
    assert prof.mean_sparsity == [0.0] * 5


def test_profile_orders_groups_by_popularity():
    ds = profile_fixture()
    bits = np.ones((12, 4), dtype=bool)
    prof = sparsity_profile(SparseMask(bits), ds, side="items", num_groups=4)
    assert prof.mean_popularity == sorted(prof.mean_popularity)


def test_profile_tracks_row_sparsity():
    ds = profile_fixture()
    bits = np.ones((12, 4), dtype=bool)
    # items are rows 4..11; zero out entries of the two least popular items
    bits[4] = False
    bits[5, :2] = False
    prof = sparsity_profile(SparseMask(bits), ds, side="items", num_groups=8)
    assert prof.mean_sparsity[0] == 1.0
    assert prof.mean_sparsity[1] == 0.5
    assert prof.mean_sparsity[2:] == [0.0] * 6
    assert prof.mean_popularity[0] == 1.0


def test_profile_user_side():
    ds = profile_fixture()
    bits = np.ones((12, 4), dtype=bool)
    bits[0, :1] = False  # user 0 is the most popular user (degree 8? no: 8 items hit user 0)
    prof = sparsity_profile(SparseMask(bits), ds, side="users", num_groups=4)
    assert prof.side == "users"
    # user 0 interacts with every item, so it lands in the last group
    assert prof.mean_sparsity[-1] == 0.25
    assert sum(prof.group_sizes) == ds.num_users


def test_profile_validates_arguments():
    ds = profile_fixture()
    bits = np.ones((12, 4), dtype=bool)
    with pytest.raises(ValueError):
        sparsity_profile(SparseMask(bits), ds, side="rows")
    with pytest.raises(ValueError):
        sparsity_profile(SparseMask(bits), ds, side="items", num_groups=0)
    with pytest.raises(ValueError):
        sparsity_profile(SparseMask(bits), ds, side="items", num_groups=9)


def test_correlation_sign_follows_profile_slope():
    ds = profile_fixture()
    bits = np.zeros((12, 4), dtype=bool)
    # unpopular items keep more entries: sparsity rises with popularity
    for i in range(8):
        bits[4 + i, : 4 - i // 2] = True
    prof = sparsity_profile(SparseMask(bits), ds, side="items", num_groups=4)
    assert popularity_sparsity_correlation(prof) == pytest.approx(1.0)


def test_correlation_perfectly_monotone_is_minus_one():
    ds = profile_fixture()
    bits = np.zeros((12, 4), dtype=bool)
    # more popular items keep more entries
    for i in range(8):
        bits[4 + i, : max(1, (i * 4) // 8 + 1)] = True
    prof = sparsity_profile(SparseMask(bits), ds, side="items", num_groups=4)
    assert popularity_sparsity_correlation(prof) == pytest.approx(-1.0)


def test_correlation_undefined_cases():
    ds = profile_fixture()
    dense = SparseMask(np.ones((12, 4), dtype=bool))
    prof = sparsity_profile(dense, ds, side="items", num_groups=4)
    assert popularity_sparsity_correlation(prof) is None
    single = sparsity_profile(dense, ds, side="items", num_groups=1)
    assert popularity_sparsity_correlation(single) is None


def test_import_does_not_load_scipy_stats():
    # only popularity_sparsity_correlation needs scipy.stats, whose import
    # takes longer and more memory than the rest of the package
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, sparsecf; assert 'scipy.stats' not in sys.modules, 'scipy.stats loaded'"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
