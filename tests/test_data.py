import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecf import (
    DataFormatError,
    NoValidNegativeError,
    load_dataset,
    load_interactions,
    make_dataset,
    sample_batch,
    save_dataset,
    split_holdout,
)
from sparsecf import data


def write(tmp_path, text, name="edges.txt"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_pair_lines_basic(tmp_path):
    ds = load_interactions(write(tmp_path, "0 0\n0 1\n1 0\n"))
    assert ds.num_users == 2
    assert ds.num_items == 2
    assert ds.num_train == 3


def test_separators_and_comments(tmp_path):
    ds = load_interactions(write(tmp_path, "# a comment\n0,0\n0\t1\n1 0\n\n"))
    assert ds.num_train == 3


def test_duplicate_pair_deduped_with_warning(tmp_path):
    path = write(tmp_path, "0 0\n0 0\n1 1\n")
    with pytest.warns(UserWarning, match="duplicate"):
        ds = load_interactions(path)
    assert ds.num_train == 2


def test_malformed_line_names_line_number(tmp_path):
    with pytest.raises(DataFormatError, match="line 1"):
        load_interactions(write(tmp_path, "0 x\n"))
    with pytest.raises(DataFormatError, match="line 3"):
        load_interactions(write(tmp_path, "0 0\n1 1\n2\n"))


def test_empty_file_rejected(tmp_path):
    with pytest.raises(DataFormatError, match="no interactions"):
        load_interactions(write(tmp_path, "# nothing\n"))


def test_header_declares_sizes(tmp_path):
    ds = load_interactions(write(tmp_path, "# users=10 items=20\n0 0\n3 7\n"))
    assert ds.num_users == 10
    assert ds.num_items == 20


def test_header_out_of_range(tmp_path):
    with pytest.raises(DataFormatError, match="declared range"):
        load_interactions(write(tmp_path, "# users=2 items=2\n0 0\n5 0\n"))


def test_negative_index_rejected(tmp_path):
    with pytest.raises(DataFormatError, match="negative"):
        load_interactions(write(tmp_path, "0 -1\n"))


def test_per_user_adjacency(tmp_path):
    ds = load_interactions(
        write(tmp_path, "0 0 1 2\n1 2 3\n"), format="per-user-adjacency"
    )
    assert ds.num_users == 2
    assert ds.num_items == 4
    assert ds.num_train == 5


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown format"):
        load_interactions(write(tmp_path, "0 0\n"), format="csv")


def test_make_dataset_rejects_bad_edges():
    with pytest.raises(ValueError, match="duplicate"):
        make_dataset(2, 2, [(0, 0), (0, 0)])
    with pytest.raises(ValueError, match="overlap"):
        make_dataset(2, 2, [(0, 0)], [(0, 0)])
    with pytest.raises(ValueError, match="out of range"):
        make_dataset(2, 2, [(0, 5)])


def test_split_ceiling_and_single_edge_guard():
    edges = [(0, i) for i in range(10)] + [(1, 0)]
    ds = make_dataset(2, 10, edges)
    out = split_holdout(ds, 0.2, seed=0)
    assert (out.test_edges[:, 0] == 0).sum() == 2  # ceil(0.2 * 10)
    assert (out.test_edges[:, 0] == 1).sum() == 0  # degree-1 user keeps its edge


def test_split_deterministic():
    edges = [(u, i) for u in range(20) for i in range(u % 7 + 2)]
    ds = make_dataset(20, 9, edges)
    a = split_holdout(ds, 0.3, seed=5)
    b = split_holdout(ds, 0.3, seed=5)
    assert np.array_equal(a.train_edges, b.train_edges)
    assert np.array_equal(a.test_edges, b.test_edges)


def test_split_rejects_bad_ratio(tiny_ds):
    base = make_dataset(tiny_ds.num_users, tiny_ds.num_items, tiny_ds.train_edges)
    for ratio in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            split_holdout(base, ratio, seed=0)


@settings(max_examples=30, deadline=None)
@given(
    degrees=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=15),
    ratio=st.floats(min_value=0.01, max_value=0.99),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_split_every_user_keeps_a_train_edge(degrees, ratio, seed):
    edges = [(u, i) for u, deg in enumerate(degrees) for i in range(deg)]
    ds = make_dataset(len(degrees), max(degrees), edges)
    out = split_holdout(ds, ratio, seed)
    kept = np.bincount(out.train_edges[:, 0], minlength=len(degrees))
    assert (kept >= 1).all()
    # the ceiling rule applies whenever it leaves a train edge behind
    for u, deg in enumerate(degrees):
        expected = min(math.ceil(ratio * deg), deg - 1)
        assert (out.test_edges[:, 0] == u).sum() == expected


def test_sample_batch_single_valid_negative():
    ds = make_dataset(1, 2, [(0, 0)])
    batch = sample_batch(ds, 4, np.random.default_rng(0))
    assert np.array_equal(batch.triples, np.array([[0, 0, 1]] * 4))


def test_sample_batch_no_valid_negative():
    ds = make_dataset(1, 1, [(0, 0)])
    with pytest.raises(NoValidNegativeError):
        sample_batch(ds, 1, np.random.default_rng(0))


def test_sample_batch_deterministic(small_split):
    a = sample_batch(small_split, 64, np.random.default_rng(42))
    b = sample_batch(small_split, 64, np.random.default_rng(42))
    assert np.array_equal(a.triples, b.triples)


def test_sample_batch_negatives_never_positive(small_split):
    rng = np.random.default_rng(9)
    keys_sorted = small_split._train_keys
    last = len(keys_sorted) - 1
    seen = 0
    while seen < 100_000:
        batch = sample_batch(small_split, 10_000, rng)
        pos_keys = batch.users * np.int64(small_split.num_items) + batch.pos_items
        idx = np.minimum(np.searchsorted(keys_sorted, pos_keys), last)
        assert np.all(keys_sorted[idx] == pos_keys)
        neg_keys = batch.users * np.int64(small_split.num_items) + batch.neg_items
        idx = np.minimum(np.searchsorted(keys_sorted, neg_keys), last)
        assert not np.any(keys_sorted[idx] == neg_keys)
        seen += len(batch)


def test_sample_batch_positive_marginals(small_split):
    # (u, i) pairs are drawn uniformly over train edges
    rng = np.random.default_rng(3)
    batch = sample_batch(small_split, 50_000, rng)
    counts = np.bincount(batch.users, minlength=small_split.num_users)
    degrees = small_split.train_degrees("users")
    expected = degrees / degrees.sum() * len(batch)
    assert np.all(np.abs(counts - expected) < 5 * np.sqrt(expected + 1))


def test_save_load_round_trip(tmp_path, tiny_ds):
    save_dataset(tiny_ds, tmp_path / "d")
    back = load_dataset(tmp_path / "d")
    assert back.num_users == tiny_ds.num_users
    assert back.num_items == tiny_ds.num_items
    assert np.array_equal(np.sort(back.train_edges, axis=0),
                          np.sort(tiny_ds.train_edges, axis=0))
    assert np.array_equal(np.sort(back.test_edges, axis=0),
                          np.sort(tiny_ds.test_edges, axis=0))


def test_save_is_deterministic(tmp_path, tiny_ds):
    save_dataset(tiny_ds, tmp_path / "a")
    save_dataset(tiny_ds, tmp_path / "b")
    for name in ("train.txt", "test.txt", "split_manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_sample_batch_fallback_takes_lowest_free_item(monkeypatch):
    monkeypatch.setattr(data, "_MAX_REJECTION_ROUNDS", 0)
    ds = make_dataset(3, 5, [(0, 0), (0, 1), (0, 3), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)])
    batch = sample_batch(ds, 64, np.random.default_rng(0))
    lowest_free = {0: 2, 1: 0, 2: 3}
    assert all(neg == lowest_free[u] for u, neg in zip(batch.users, batch.neg_items))


def test_load_dataset_keeps_an_empty_test_split(tmp_path):
    ds = make_dataset(2, 3, [(0, 0), (1, 2)])
    save_dataset(ds, tmp_path / "d")
    assert load_dataset(tmp_path / "d").num_test == 0


def test_load_dataset_rejects_malformed_test_split(tmp_path, tiny_ds):
    save_dataset(tiny_ds, tmp_path / "d")
    test_txt = tmp_path / "d" / "test.txt"
    header = test_txt.read_text().splitlines()[0]
    test_txt.write_text(f"{header}\n5 notanitem\n")
    with pytest.raises(DataFormatError, match="line 2") as exc_info:
        load_dataset(tmp_path / "d")
    assert "test.txt" in str(exc_info.value)
