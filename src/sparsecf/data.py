"""Implicit-feedback interaction data: loading, splitting, batch sampling.

A pair-lines text in save_dataset's grammar (leading '#' lines, then lines
"<digits> <digits>\n" of 1-18 digits each) is parsed in C by numpy; any
other text goes through a line loop, more slowly, to the same result.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FORMATS = ("pair-lines", "per-user-adjacency")

_HEADER_RE = re.compile(r"#\s*users\s*=\s*(\d+)\s+items\s*=\s*(\d+)\s*$")


class DataFormatError(ValueError):
    """An interaction file could not be parsed or violates its declared sizes."""


class NoValidNegativeError(ValueError):
    """A sampled user has interacted with every item; no negative exists."""


@dataclass
class InteractionDataset:
    """Bipartite implicit-feedback interactions with a train/test split.

    Edges are (user, item) index pairs stored as int64 arrays of shape
    (n, 2) in the order given; users occupy indices [0, num_users), items
    [0, num_items). Each split is also kept as its sorted keys
    user * num_items + item (_train_keys, _test_keys), where a user's items
    are one contiguous run. Instances are treated as immutable after
    construction and may be shared across concurrent readers.
    """

    num_users: int
    num_items: int
    train_edges: np.ndarray
    test_edges: np.ndarray
    _train_keys: np.ndarray = field(repr=False)
    _test_keys: np.ndarray = field(repr=False)

    @property
    def num_train(self) -> int:
        return len(self.train_edges)

    @property
    def num_test(self) -> int:
        return len(self.test_edges)

    def train_degrees(self, side: str = "users") -> np.ndarray:
        """Per-user or per-item interaction counts in the train split."""
        if side == "users":
            return np.bincount(self.train_edges[:, 0], minlength=self.num_users)
        if side == "items":
            return np.bincount(self.train_edges[:, 1], minlength=self.num_items)
        raise ValueError(f"side must be 'users' or 'items', got {side!r}")


def _as_edge_array(edges) -> np.ndarray:
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"edges must have shape (n, 2), got {arr.shape}")
    return arr


def make_dataset(num_users, num_items, train_edges, test_edges=()) -> InteractionDataset:
    """Build a validated dataset from raw edge lists.

    Checks index ranges, rejects duplicate pairs within a split and any
    overlap between splits, naming the first shared pair.
    """
    # every key user * num_items + item, and the bound num_users * num_items
    # of the last user's keys, must fit in int64
    if int(num_users) * int(num_items) >= 2**63:
        raise ValueError(f"keys of {num_users} users x {num_items} items do not fit in int64")
    train = _as_edge_array(train_edges)
    test = _as_edge_array(test_edges)
    for name, arr in (("train", train), ("test", test)):
        if arr.size == 0:
            continue
        if arr[:, 0].min() < 0 or arr[:, 0].max() >= num_users:
            raise ValueError(f"{name} user index out of range [0, {num_users})")
        if arr[:, 1].min() < 0 or arr[:, 1].max() >= num_items:
            raise ValueError(f"{name} item index out of range [0, {num_items})")
    train_keys = np.sort(train[:, 0] * np.int64(num_items) + train[:, 1])
    test_keys = np.sort(test[:, 0] * np.int64(num_items) + test[:, 1])
    if _has_duplicates(train_keys):
        raise ValueError("duplicate (user, item) pair in train split")
    if _has_duplicates(test_keys):
        raise ValueError("duplicate (user, item) pair in test split")
    shared = _in_sorted(train_keys, test_keys)
    if shared.any():
        user, item = divmod(int(test_keys[shared.argmax()]), int(num_items))
        raise ValueError(f"train and test splits overlap at user {user}, item {item}")
    return InteractionDataset(
        num_users=int(num_users),
        num_items=int(num_items),
        train_edges=train,
        test_edges=test,
        _train_keys=train_keys,
        _test_keys=test_keys,
    )


def _has_duplicates(sorted_keys: np.ndarray) -> bool:
    return bool((sorted_keys[1:] == sorted_keys[:-1]).any())


def _in_sorted(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each of keys is in sorted_keys, by binary search."""
    if not len(sorted_keys):
        return np.zeros(keys.shape, dtype=bool)
    at = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return sorted_keys[at] == keys


def _parse_index(token: str, where: str, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise DataFormatError(f"{where}: cannot parse {what} index {token!r}") from None
    if value < 0:
        raise DataFormatError(f"{where}: negative {what} index {value}")
    if value >= 2**63:
        raise DataFormatError(f"{where}: {what} index {value} is not below 2**63")
    return value


def _parse_edges(path, format: str) -> tuple[np.ndarray, tuple | None]:
    """(n, 2) edges of an interaction file in file order, and the sizes its
    header declares.

    The line loop below defines both formats and names the file and line of
    a bad line. A pair-lines text in save_dataset's grammar is parsed by
    _read_pair_lines instead, to the same result; any other text, valid or
    not, goes through the loop.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}, expected one of {FORMATS}")
    content = Path(path).read_bytes()
    try:
        text = content.decode("utf-8")
    except UnicodeDecodeError as exc:
        # numbered as the loop numbers lines: str.splitlines of the text before
        line_no = len((content[: exc.start].decode("utf-8") + "_").splitlines())
        raise DataFormatError(f"{path}: line {line_no}: not UTF-8 ({exc.reason})") from None
    # line ends as Path.read_text reads them, so a "\r\n" file takes the fast path too
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if format == "pair-lines":
        read = _read_pair_lines(text)
        if read is not None:
            return read
    declared = None
    edges: list[tuple[int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _HEADER_RE.match(line)
            if m:
                declared = (int(m.group(1)), int(m.group(2)))
            continue
        where = f"{path}: line {line_no}"
        tokens = re.split(r"[,\s]+", line)
        if format == "pair-lines":
            if len(tokens) != 2:
                raise DataFormatError(f"{where}: expected 'user item', got {len(tokens)} fields")
            u = _parse_index(tokens[0], where, "user")
            i = _parse_index(tokens[1], where, "item")
            edges.append((u, i))
        else:
            u = _parse_index(tokens[0], where, "user")
            for tok in tokens[1:]:
                edges.append((u, _parse_index(tok, where, "item")))
    return np.asarray(edges, dtype=np.int64).reshape(-1, 2), declared


def _read_pair_lines(text: str) -> tuple[np.ndarray, tuple | None] | None:
    """_parse_edges's result for a pair-lines text in save_dataset's grammar,
    or None for any other text.

    The grammar: leading lines that start with '#' and hold only printable
    characters, each stripped and matched with _HEADER_RE as the loop does;
    then lines of two fields of 1-18 ASCII digits, one space between them,
    each ended by a newline (the last may lack it).
    """
    header = re.match(r"(?:#.*\n?)*", text).group()  # the leading '#' lines
    declared = None
    for line in header.split("\n"):
        # str.splitlines breaks a line at no printable character
        if not line.isprintable():
            return None
        m = _HEADER_RE.match(line.strip())
        if m:
            declared = (int(m.group(1)), int(m.group(2)))
    raw = text[len(header):].encode()
    if not raw:
        return np.empty((0, 2), dtype=np.int64), declared
    if not raw.endswith(b"\n"):
        raw += b"\n"
    seps = raw.translate(None, b"0123456789")
    if seps != b" \n" * (len(seps) // 2):
        return None
    # separators 2-19 bytes apart hold fields of 1-18 digits, which keep
    # every value below 2**63; a line end before the text starts the first
    ends = np.flatnonzero(np.frombuffer(b"\n" + raw, dtype=np.uint8) < ord("0"))
    steps = np.diff(ends)
    if steps.min() < 2 or steps.max() > 19:
        return None
    return np.fromstring(raw, dtype=np.int64, sep=" ").reshape(-1, 2), declared


def load_interactions(path, format: str = "pair-lines") -> InteractionDataset:
    """Read an interaction file into a dataset with all edges in train.

    ``pair-lines`` holds one "user item" pair per line (space, tab or
    comma separated); ``per-user-adjacency`` holds "user item1 item2 ..."
    lines. Lines starting with '#' are ignored, except an optional
    "# users=N items=M" header that declares the index spaces. Without a
    header, sizes are max index + 1 per side. Duplicate pairs are dropped
    with a warning.
    """
    edges, (num_users, num_items) = _checked_edges(path, *_parse_edges(path, format))
    return make_dataset(num_users, num_items, edges)


def _checked_edges(path, arr: np.ndarray, declared) -> tuple[np.ndarray, tuple]:
    """Edges of a file checked against its declared sizes, with duplicates
    dropped (first occurrence kept, file order), and (num_users, num_items):
    the declared sizes, or max index + 1 per side."""
    if not len(arr):
        raise DataFormatError(f"{path}: no interactions found")
    if declared is not None:
        num_users, num_items = declared
        if arr[:, 0].max() >= num_users:
            raise DataFormatError(
                f"{path}: user index {arr[:, 0].max()} outside declared range [0, {num_users})"
            )
        if arr[:, 1].max() >= num_items:
            raise DataFormatError(
                f"{path}: item index {arr[:, 1].max()} outside declared range [0, {num_items})"
            )
    else:
        num_users = int(arr[:, 0].max()) + 1
        num_items = int(arr[:, 1].max()) + 1
    if num_users * num_items >= 2**63:  # see make_dataset
        raise DataFormatError(
            f"{path}: keys of {num_users} users x {num_items} items do not fit in int64"
        )
    keys = arr[:, 0] * np.int64(num_items) + arr[:, 1]
    if _has_duplicates(np.sort(keys)):
        _, first_idx = np.unique(keys, return_index=True)
        warnings.warn(
            f"{path}: dropped {len(arr) - len(first_idx)} duplicate interaction(s)",
            stacklevel=3,
        )
        arr = arr[np.sort(first_idx)]
    return arr, (num_users, num_items)


def split_holdout(ds: InteractionDataset, ratio: float, seed: int) -> InteractionDataset:
    """Move a per-user random holdout of train edges into the test split.

    For each user, ceil(ratio * degree) edges move to test, capped at
    degree - 1 so every user keeps at least one train edge; single-edge
    users keep theirs. Deterministic given the seed.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    if ds.num_test:
        raise ValueError("dataset already has a test split")
    degrees = ds.train_degrees("users")
    if (degrees == 0).any():
        raise ValueError("every user must have at least one interaction before splitting; "
                         f"user {int(np.argmin(degrees))} has none")
    rng = np.random.default_rng(seed)
    by_user = np.argsort(ds.train_edges[:, 0], kind="stable")
    offsets = np.concatenate([[0], np.cumsum(degrees)])
    to_test = np.zeros(ds.num_train, dtype=bool)
    for u in range(ds.num_users):
        deg = int(degrees[u])
        n_test = min(math.ceil(ratio * deg), deg - 1)
        if n_test <= 0:
            continue
        rows = by_user[offsets[u] : offsets[u + 1]]
        picked = rng.choice(deg, size=n_test, replace=False)
        to_test[rows[picked]] = True
    return make_dataset(
        ds.num_users,
        ds.num_items,
        ds.train_edges[~to_test],
        ds.train_edges[to_test],
    )


_MAX_REJECTION_ROUNDS = 100


def sample_batch(ds: InteractionDataset, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a (batch_size, 3) int64 array of (user u, positive item i,
    negative item j) rows: (u, i) uniform over train edges, j a uniform
    random item u has not interacted with.

    Negatives are rejection-sampled with a bounded number of rounds, then
    resolved by a linear scan. Concurrent samplers must each own their rng.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if ds.num_train == 0:
        raise ValueError("cannot sample from a dataset with no train edges")
    eidx = rng.integers(0, ds.num_train, size=batch_size)
    users = ds.train_edges[eidx, 0]
    pos = ds.train_edges[eidx, 1]
    neg = np.empty(batch_size, dtype=np.int64)
    unresolved = np.arange(batch_size)
    for _ in range(_MAX_REJECTION_ROUNDS):
        if unresolved.size == 0:
            break
        cand = rng.integers(0, ds.num_items, size=unresolved.size)
        neg[unresolved] = cand
        keys = users[unresolved] * np.int64(ds.num_items) + cand
        unresolved = unresolved[_in_sorted(ds._train_keys, keys)]
    for b in unresolved:
        # the lowest item the user has not interacted with: the first gap in
        # the user's sorted slice of the train keys
        base = users[b] * np.int64(ds.num_items)
        lo, hi = np.searchsorted(ds._train_keys, [base, base + ds.num_items])
        items = ds._train_keys[lo:hi] - base
        if len(items) >= ds.num_items:
            raise NoValidNegativeError(f"user {users[b]} has interacted with all "
                                       f"{ds.num_items} items")
        gaps = np.flatnonzero(items != np.arange(len(items)))
        neg[b] = gaps[0] if gaps.size else len(items)
    return np.stack([users, pos, neg], axis=1)


def save_dataset(ds: InteractionDataset, out_dir, manifest_extra: dict | None = None) -> None:
    """Write train.txt/test.txt in pair-lines format plus a JSON manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = f"# users={ds.num_users} items={ds.num_items}\n".encode()
    for name, edges in (("train.txt", ds.train_edges), ("test.txt", ds.test_edges)):
        pairs = ("%d %d\n" * len(edges)) % tuple(edges.ravel().tolist())
        with (out / name).open("wb") as fh:
            fh.write(header)
            fh.write(pairs.encode("ascii"))
    _write_split_manifest(out, ds, manifest_extra or {})


def _split_digest(ds: InteractionDataset) -> str:
    """sha1 of a split: its four sizes and both sorted key arrays."""
    sizes = f"{ds.num_users} {ds.num_items} {ds.num_train} {ds.num_test}\n"
    digest = hashlib.sha1(sizes.encode())
    digest.update(ds._train_keys.astype("<i8", copy=False).tobytes())
    digest.update(ds._test_keys.astype("<i8", copy=False).tobytes())
    return digest.hexdigest()


def _json_text(payload: dict) -> str:
    """The text of every JSON document the package writes: sorted keys,
    two-space indent, one final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_split_manifest(out_dir: Path, ds: InteractionDataset, extra: dict) -> None:
    """Write split_manifest.json: the split's four sizes plus the entries of extra."""
    manifest = {
        "num_users": ds.num_users,
        "num_items": ds.num_items,
        "train_edges": ds.num_train,
        "test_edges": ds.num_test,
    } | extra
    (out_dir / "split_manifest.json").write_text(_json_text(manifest), encoding="utf-8")


def load_dataset(data_dir) -> InteractionDataset:
    """Load a dataset directory written by save_dataset.

    Each file is parsed and checked once; the index spaces are train.txt's,
    widened to cover any larger index in test.txt. A split make_dataset
    rejects, e.g. one whose files share a pair, raises DataFormatError
    naming the directory.
    """
    data_dir = Path(data_dir)
    train_path = data_dir / "train.txt"
    train, (num_users, num_items) = _checked_edges(
        train_path, *_parse_edges(train_path, "pair-lines")
    )
    test_path = data_dir / "test.txt"
    test = np.empty((0, 2), dtype=np.int64)
    if test_path.exists():
        # a test.txt without interaction lines (an empty split) is allowed
        arr, declared = _parse_edges(test_path, "pair-lines")
        if len(arr):
            test, _ = _checked_edges(test_path, arr, declared)
            num_users = max(num_users, int(test[:, 0].max()) + 1)
            num_items = max(num_items, int(test[:, 1].max()) + 1)
    try:
        return make_dataset(num_users, num_items, train, test)
    except ValueError as exc:
        raise DataFormatError(f"{data_dir}: {exc}") from None
