import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsecf import data
from sparsecf.data import (DataFormatError, NoValidNegativeError, load_dataset, load_interactions,
                           make_dataset, sample_batch, save_dataset, split_holdout)
from sparsecf.synth import generate_interactions


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


def test_item_index_beyond_the_header_names_file_and_index(tmp_path):
    path = write(tmp_path, "# users=2 items=2\n0 0\n1 5\n")
    with pytest.raises(DataFormatError, match=re.escape(
            f"{path}: item index 5 outside declared range [0, 2)")):
        load_interactions(path)


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
    with pytest.raises(ValueError, match="do not fit in int64"):
        make_dataset(2**32, 2**31, [(0, 0)])


@pytest.mark.parametrize("train, test, message", [
    ([(0, 1, 1)], (), "edges must have shape (n, 2), got (1, 3)"),
    ([(2, 0)], (), "train user index out of range [0, 2)"),
    ([(0, 0)], [(-1, 1)], "test user index out of range [0, 2)"),
    ([(0, 0)], [(1, 1), (1, 1)], "duplicate (user, item) pair in test split"),
])
def test_make_dataset_names_what_is_wrong(train, test, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make_dataset(2, 2, train, test)


@pytest.mark.parametrize("loader", [load_interactions, lambda p: load_dataset(p.parent)])
def test_index_beyond_int64_names_file_and_line(tmp_path, loader):
    path = write(tmp_path, "0 0\n99999999999999999999 1\n", name="train.txt")
    with pytest.raises(DataFormatError, match=re.escape(
            f"{path}: line 2: user index 99999999999999999999 is not below 2**63")):
        loader(path)


@pytest.mark.parametrize("content, line_no, reason", [
    (b"0 0\r\n1 1\n2 \xff3\n", 3, "invalid start byte"),
    (b"\xe2\x82 0\n", 1, "invalid continuation byte"),
])
@pytest.mark.parametrize("loader", [load_interactions, lambda p: load_dataset(p.parent)])
def test_text_that_is_not_utf8_names_file_and_line(tmp_path, loader, content, line_no, reason):
    path = tmp_path / "train.txt"
    path.write_bytes(content)
    with pytest.raises(DataFormatError, match=re.escape(
            f"{path}: line {line_no}: not UTF-8 ({reason})")):
        loader(path)


@pytest.mark.parametrize("text", ["0 0\n4294967296 0\n0 4294967295\n", f"{2**63 - 1} 0\n"])
@pytest.mark.parametrize("loader", [load_interactions, lambda p: load_dataset(p.parent)])
def test_index_space_beyond_int64_keys_is_rejected(tmp_path, loader, text):
    # user * num_items + item would wrap: no key may be computed, no edge dropped
    path = write(tmp_path, text, name="train.txt")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: keys of ")):
            loader(path)


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


def test_split_rejects_a_dataset_already_split(tiny_ds):
    with pytest.raises(ValueError, match="^dataset already has a test split$"):
        split_holdout(tiny_ds, 0.2, seed=0)


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
    assert np.array_equal(batch, np.array([[0, 0, 1]] * 4))


def test_sample_batch_no_valid_negative():
    ds = make_dataset(1, 1, [(0, 0)])
    with pytest.raises(NoValidNegativeError):
        sample_batch(ds, 1, np.random.default_rng(0))


@pytest.mark.parametrize("train, batch_size, message", [
    ([(0, 0)], 0, "batch_size must be >= 1, got 0"),
    ([], 4, "cannot sample from a dataset with no train edges"),
])
def test_sample_batch_rejects_what_it_cannot_draw(train, batch_size, message):
    ds = make_dataset(1, 2, train)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sample_batch(ds, batch_size, np.random.default_rng(0))


@pytest.mark.parametrize("num_users, num_items", [(0, 5), (3, 1)])
def test_generator_needs_a_user_and_two_items(num_users, num_items):
    with pytest.raises(ValueError, match="^need at least 1 user and 2 items$"):
        generate_interactions(num_users, num_items, avg_degree=2.0, min_degree=0)


def test_sample_batch_deterministic(small_split):
    a = sample_batch(small_split, 64, np.random.default_rng(42))
    b = sample_batch(small_split, 64, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_sample_batch_negatives_never_positive(small_split):
    rng = np.random.default_rng(9)
    keys_sorted = small_split._train_keys
    last = len(keys_sorted) - 1
    seen = 0
    while seen < 100_000:
        batch = sample_batch(small_split, 10_000, rng)
        pos_keys = batch[:, 0] * np.int64(small_split.num_items) + batch[:, 1]
        idx = np.minimum(np.searchsorted(keys_sorted, pos_keys), last)
        assert np.all(keys_sorted[idx] == pos_keys)
        neg_keys = batch[:, 0] * np.int64(small_split.num_items) + batch[:, 2]
        idx = np.minimum(np.searchsorted(keys_sorted, neg_keys), last)
        assert not np.any(keys_sorted[idx] == neg_keys)
        seen += len(batch)


def test_sample_batch_positive_marginals(small_split):
    # (u, i) pairs are drawn uniformly over train edges
    rng = np.random.default_rng(3)
    batch = sample_batch(small_split, 50_000, rng)
    counts = np.bincount(batch[:, 0], minlength=small_split.num_users)
    degrees = small_split.train_degrees("users")
    expected = degrees / degrees.sum() * len(batch)
    assert np.all(np.abs(counts - expected) < 5 * np.sqrt(expected + 1))


def test_save_load_round_trip(tmp_path, tiny_ds):
    save_dataset(tiny_ds, tmp_path / "d")
    back = load_dataset(tmp_path / "d")
    assert back.num_users == tiny_ds.num_users
    assert back.num_items == tiny_ds.num_items
    assert np.array_equal(back.train_edges, tiny_ds.train_edges)
    assert np.array_equal(back.test_edges, tiny_ds.test_edges)
    assert np.array_equal(back._train_keys, tiny_ds._train_keys)
    assert np.array_equal(back._test_keys, tiny_ds._test_keys)


def test_save_is_deterministic(tmp_path, tiny_ds):
    save_dataset(tiny_ds, tmp_path / "a")
    save_dataset(tiny_ds, tmp_path / "b")
    for name in ("train.txt", "test.txt", "split_manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@settings(max_examples=100, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 12_345_678), st.integers(0, 1_000_001)),
        max_size=40, unique=True,
    ),
)
@example(edges=[])
@example(edges=[(0, 0), (9, 10), (10, 99), (100, 1000)])
def test_save_writes_one_formatted_line_per_pair(tmp_path_factory, edges):
    arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
    num_users = int(arr[:, 0].max(initial=0)) + 1
    num_items = int(arr[:, 1].max(initial=0)) + 1
    ds = make_dataset(num_users, num_items, arr)
    out = tmp_path_factory.mktemp("saved")
    save_dataset(ds, out)
    header = f"# users={num_users} items={num_items}\n"
    want = header + "".join(f"{u} {i}\n" for u, i in edges)
    assert (out / "train.txt").read_bytes() == want.encode()
    assert (out / "test.txt").read_bytes() == header.encode()


def test_sample_batch_fallback_takes_lowest_free_item(monkeypatch):
    monkeypatch.setattr(data, "_MAX_REJECTION_ROUNDS", 0)
    ds = make_dataset(3, 5, [(0, 0), (0, 1), (0, 3), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)])
    batch = sample_batch(ds, 64, np.random.default_rng(0))
    lowest_free = {0: 2, 1: 0, 2: 3}
    assert all(neg == lowest_free[u] for u, _, neg in batch)


def test_load_dataset_keeps_an_empty_test_split(tmp_path):
    ds = make_dataset(2, 3, [(0, 0), (1, 2)])
    save_dataset(ds, tmp_path / "d")
    assert load_dataset(tmp_path / "d").num_test == 0


def test_load_dataset_warns_only_about_duplicates(tmp_path):
    ds = make_dataset(2, 3, [(0, 0), (1, 2)])
    save_dataset(ds, tmp_path / "d")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        load_dataset(tmp_path / "d")
    train_txt = tmp_path / "d" / "train.txt"
    train_txt.write_text(train_txt.read_text() + "1 2\n0 0\n")
    with pytest.warns(UserWarning, match="dropped 2 duplicate"):
        back = load_dataset(tmp_path / "d")
    assert np.array_equal(back.train_edges, ds.train_edges)


def test_load_dataset_rejects_malformed_test_split(tmp_path, tiny_ds):
    save_dataset(tiny_ds, tmp_path / "d")
    test_txt = tmp_path / "d" / "test.txt"
    header = test_txt.read_text().splitlines()[0]
    test_txt.write_text(f"{header}\n5 notanitem\n")
    with pytest.raises(DataFormatError, match="line 2") as exc_info:
        load_dataset(tmp_path / "d")
    assert "test.txt" in str(exc_info.value)


def test_load_dataset_names_the_directory_and_the_first_pair_of_an_overlap(tmp_path):
    save_dataset(make_dataset(3, 3, [(0, 0), (1, 1), (2, 2)], [(0, 1), (2, 0)]), tmp_path / "d")
    test_txt = tmp_path / "d" / "test.txt"
    test_txt.write_text(test_txt.read_text() + "2 2\n1 1\n")
    with pytest.raises(DataFormatError) as exc_info:
        load_dataset(tmp_path / "d")
    # the first shared pair in (user, item) order, not in file order
    assert str(exc_info.value) == (
        f"{tmp_path / 'd'}: train and test splits overlap at user 1, item 1"
    )


# ---------------------------------------------------------------------------
# pair-lines reader against the line loop it replaced


_REFERENCE_HEADER_RE = re.compile(r"#\s*users\s*=\s*(\d+)\s+items\s*=\s*(\d+)\s*$")


def parse_pair_lines_reference(path):
    """(edges, declared sizes) of a pair-lines file, one line at a time.

    data._parse_edges before it gave pair-lines texts a fast path,
    restricted to the pair-lines format, with the later rule that an index
    is below 2**63.
    """
    def parse_index(token, where, what):
        try:
            value = int(token)
        except ValueError:
            raise DataFormatError(f"{where}: cannot parse {what} index {token!r}") from None
        if value < 0:
            raise DataFormatError(f"{where}: negative {what} index {value}")
        if value >= 2**63:
            raise DataFormatError(f"{where}: {what} index {value} is not below 2**63")
        return value

    text = Path(path).read_text(encoding="utf-8")
    declared = None
    edges = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _REFERENCE_HEADER_RE.match(line)
            if m:
                declared = (int(m.group(1)), int(m.group(2)))
            continue
        where = f"{path}: line {line_no}"
        tokens = re.split(r"[,\s]+", line)
        if len(tokens) != 2:
            raise DataFormatError(f"{where}: expected 'user item', got {len(tokens)} fields")
        u = parse_index(tokens[0], where, "user")
        i = parse_index(tokens[1], where, "item")
        edges.append((u, i))
    return np.asarray(edges, dtype=np.int64).reshape(-1, 2), declared


_pads = st.sampled_from(["", "", " ", "\t", " \t"])
_separators = st.sampled_from([" ", "  ", "\t", " \t ", ",", ", ", ",,", " , "])
# tokens int() reads as a non-negative index below 2**63; the fast path
# takes only plain ones of at most 18 digits
_indices = st.integers(min_value=0, max_value=3000).map(str) | st.sampled_from(
    ["-0", "007", "+1", "1_0", "\u0663", "9" * 18, "1" + "0" * 18])
_pair_lines = st.builds(lambda a, u, sep, i, b: a + u + sep + i + b,
                        _pads, _indices, _separators, _indices, _pads)
_bad_lines = st.one_of(
    st.builds(lambda lead, line: lead + line, st.sampled_from([",", " ,", "\t,"]), _pair_lines),
    st.builds(lambda line, tail: line + tail, _pair_lines, st.sampled_from(
        [",", ", ", " # note", "#", " 5", "\t5,6", "\v2", "\x0c2", "\xa02", "\x002"])),
    st.builds(lambda lead, u: lead + u, _pads, _indices),
    st.builds(lambda u, bad: f"{u} {bad}", _indices, st.sampled_from(
        ["-1", "-7", "x", "1.0", "1e3", "0x1", "", "99999999999999999999", "1\x002"])),
    # a line break to str.splitlines, though not a newline
    st.builds(lambda u, sep, i: u + sep + i, _indices,
              st.sampled_from(["\v", "\x0c", "\x1c", "\x1e"]), _indices),
    st.sampled_from([",", ",,", " , "]),
)
_other_lines = st.sampled_from(["", "   ", "\t", "#", "# a comment", "  # users", "#,,#",
                                "# users=1 items=2 # no", "\u2028", "\x0c", "# c\x0c3 4"])
_headers = st.builds(
    lambda lead, users, gap, items, tail: f"{lead}#{gap}users={users} items={items}{tail}",
    st.sampled_from(["", " ", "\t"]),
    st.integers(min_value=0, max_value=4000),
    st.sampled_from(["", " ", "\t "]),
    st.integers(min_value=0, max_value=4000),
    st.sampled_from(["", " ", "\t", " x"]),
)


@st.composite
def _pair_lines_texts(draw):
    """Valid pair-lines texts, and texts with one bad line, with 0-2 headers."""
    lines = draw(st.lists(st.one_of(_pair_lines, _pair_lines, _other_lines), max_size=12))
    extra = [draw(_headers) for _ in range(draw(st.integers(min_value=0, max_value=2)))]
    if draw(st.booleans()):
        extra.append(draw(_bad_lines))
    for line in extra:
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), line)
    ending = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


_saved_fields = st.integers(min_value=0, max_value=10**18 - 1).map(str)


@st.composite
def _saved_texts_with_one_bad_field(draw):
    """A text in save_dataset's grammar with exactly one field mutated: to
    19 or more digits, to empty, by a non-digit character, or by doubling
    the space before it (a leading space, for a user field)."""
    pairs = draw(st.lists(st.tuples(_saved_fields, _saved_fields), min_size=1, max_size=8))
    fields = [f for pair in pairs for f in pair]
    at = draw(st.integers(min_value=0, max_value=len(fields) - 1))
    field = fields[at]
    cut = draw(st.integers(min_value=0, max_value=len(field)))
    fields[at] = draw(st.one_of(
        st.integers(min_value=10**18).map(str),
        st.text("0123456789", min_size=19, max_size=24),
        st.just(""),
        st.characters(blacklist_categories=("Cs",), blacklist_characters="0123456789").map(
            lambda c: field[:cut] + c + field[cut:]),
        st.just(" " + field),
    ))
    header = "# users={} items={}\n".format(*draw(st.tuples(_saved_fields, _saved_fields)))
    return header + "".join(f"{u} {i}\n" for u, i in zip(fields[::2], fields[1::2]))


def _outcome(parse, path):
    try:
        return parse(path)
    except Exception as exc:  # noqa: BLE001  (the exception is the outcome compared)
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(_pair_lines_texts(), _saved_texts_with_one_bad_field()))
@example(text="0 1,\n")
@example(text=",0 1\n")
@example(text="0 1 # note\n")
@example(text="0 -1\n")
@example(text="0\x0b1\n")
@example(text="# c\x0c0 1\n")
@example(text="# users=3 items=4\n")
@example(text="# users=3 items=4\n0 1\n2 3")
@example(text=f"{'9' * 18} {'9' * 18}\n")
@example(text=f"{'1' + '0' * 18} 0\n")
@example(text=f"0 {2**63}\n")
@example(text="0 1\n2 \n")
@example(text="0 1\n 2\n")
@example(text="0 1\n\n2 3\n")
@example(text="0 1\n# users=3 items=4\n2 3\n")
@example(text="007 0000\n")
@example(text="# users=3 items=4\x1c0 1\n")
def test_pair_lines_reader_matches_line_loop(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("pairs") / "edges.txt"
    path.write_bytes(text.encode("utf-8"))
    got = _outcome(lambda p: data._parse_edges(p, "pair-lines"), path)
    want = _outcome(parse_pair_lines_reference, path)
    if isinstance(want[0], np.ndarray):
        assert isinstance(got[0], np.ndarray), got
        assert got[0].dtype == want[0].dtype
        assert got[0].shape == want[0].shape
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]
    else:
        assert got == want


def test_reading_a_saved_split_frees_its_whole_text_copies(tmp_path):
    # the desk split: 943 users, 1682 items, a 684,030-byte train.txt
    split = split_holdout(generate_interactions(num_users=943, num_items=1682, avg_degree=100,
                                                min_degree=20, seed=17), 0.2, seed=23)
    save_dataset(split, tmp_path)
    path = tmp_path / "train.txt"
    tracemalloc.start()
    try:
        edges, _ = data._parse_edges(path, "pair-lines")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(edges, split.train_edges)
    # at most the text, its bytes and the edges are held together: about 6
    # times the file, where keeping every whole-text temporary took 9
    assert peak < 7 * path.stat().st_size


def test_saved_files_take_the_c_reader(tmp_path, small_split):
    save_dataset(small_split, tmp_path / "d")
    for name, edges in (("train.txt", small_split.train_edges),
                        ("test.txt", small_split.test_edges)):
        read = data._read_pair_lines((tmp_path / "d" / name).read_text(encoding="utf-8"))
        assert read is not None
        assert np.array_equal(read[0], edges)
        assert read[1] == (small_split.num_users, small_split.num_items)


def test_windows_line_ends_take_the_fast_path(tmp_path, monkeypatch, small_split):
    save_dataset(small_split, tmp_path / "d")
    train_txt = tmp_path / "d" / "train.txt"
    train_txt.write_bytes(train_txt.read_bytes().replace(b"\n", b"\r\n"))
    monkeypatch.setattr(data, "_parse_index", None)  # the line loop would call it
    assert np.array_equal(load_dataset(tmp_path / "d").train_edges, small_split.train_edges)
