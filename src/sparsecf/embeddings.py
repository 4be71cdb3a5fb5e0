"""Embedding table, sparsity mask, and masked optimizer steps.

The table holds user and item embeddings, users first, in the active
layout: values has one float64 per active entry of the mask the table is
laid out on, in the order of that mask's flat (row-major) active index,
and inactive entries have no storage. So a table at sparsity s holds
(1 - s) of the dense table's weights. A table built from a dense
(num_users + num_items, dim) array is all-active, with values that array
flattened. EmbeddingTable.follow moves a table to another mask: kept
entries carry over, dropped ones go, and new ones read zero. Adam's
moments are held in the same layout, and the values, m and v all move
through one helper, _follow.

Every read of the dense table goes through weights: a read-only
(rows, dim) materialisation with exact zeros at inactive entries, made
once per loss, per evaluation or per check; under an all-active mask it
is a view of the values, with no copy. masked_step updates the values
in place, with no gather or scatter; besides it, only an exploration
event writes them, zeroing the ones it prunes.

A checkpoint stores the active values alone, plus the mask as a packed
bitset or, where that is smaller, as Elias–Fano-coded active positions,
so its size follows the active count (see save_checkpoint). Saving
writes the values as they are, and loading reads them into place,
without a dense table.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from .costs import elias_fano_layout, memory_bytes

CHECKPOINT_FORMAT = "sparse-embedding-v2"
# the header's "mask" value of a checkpoint whose mask is Elias–Fano coded
ELIAS_FANO = "elias-fano"
# std of the normal entries of a fresh table
INIT_SCALE = 0.01


class EmbeddingTable:
    """User/item embeddings (users then items) in the active layout of a mask.

    Built from a dense (num_users + num_items, dim) array, which it copies,
    the table is all-active. values is the one array of weights the table
    owns; every other view of it is read-only or a copy.
    """

    def __init__(self, num_users: int, num_items: int, dim: int, weights: np.ndarray):
        weights = np.array(weights, dtype=np.float64)
        if weights.shape != (num_users + num_items, dim):
            raise ValueError(f"weights shape {weights.shape} != "
                             f"({num_users} + {num_items}, {dim})")
        self._lay(num_users, num_items, dim, weights.reshape(-1), None)

    @classmethod
    def _laid_out(cls, num_users: int, num_items: int, dim: int, values: np.ndarray,
                  bits: np.ndarray | None) -> "EmbeddingTable":
        """A table over the given values, in the layout of the read-only bits
        (None: all active); nothing is copied."""
        table = cls.__new__(cls)
        table._lay(num_users, num_items, dim, values, bits)
        return table

    def _lay(self, num_users, num_items, dim, values, bits) -> None:
        self.num_users, self.num_items, self.dim = num_users, num_items, dim
        self.values = values
        self._bits = bits
        # the flat active index, computed when first needed
        self._index = slice(None) if bits is None else None

    def __repr__(self) -> str:
        return (f"EmbeddingTable(num_users={self.num_users}, num_items={self.num_items}, "
                f"dim={self.dim}, active={len(self.values)})")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_users + self.num_items, self.dim)

    @property
    def total_entries(self) -> int:
        return (self.num_users + self.num_items) * self.dim

    @property
    def weights(self) -> np.ndarray:
        """The dense table, read-only: inactive entries read exactly zero.
        A view of the values when all are active, else a new array."""
        if self._bits is None:
            dense = self.values.reshape(self.shape)
        else:
            dense = np.zeros(self.shape)
            # a fancy index scatters several times faster than the boolean bits
            dense.reshape(-1)[self._active_index()] = self.values
        dense.flags.writeable = False
        return dense

    def _active_index(self) -> np.ndarray | slice:
        if self._index is None:
            self._index = np.flatnonzero(self._bits)
        return self._index

    def _on(self, mask: "SparseMask") -> bool:
        """Whether the values are laid out on mask's active index."""
        if self._bits is None:
            return mask.active_count == mask.total
        return self._bits is mask.bits

    def _values_on(self, mask: "SparseMask") -> np.ndarray:
        """The table's entries at mask's active index, in its order."""
        if self._on(mask):
            return self.values
        return self.weights.reshape(-1)[mask._active_index()]

    def follow(self, mask: "SparseMask") -> None:
        """Lay the values out on mask's active index: entries the mask keeps
        carry over bitwise, entries it drops go, entries new to it read zero."""
        if mask.bits.shape != self.shape:
            raise ValueError(f"mask shape {mask.bits.shape} != table shape {self.shape}")
        if self._on(mask):
            return
        index = mask._active_index()
        (values,) = _follow([self.values], self._active_index(), index, self.total_entries)
        self._lay(self.num_users, self.num_items, self.dim, values,
                  None if isinstance(index, slice) else mask.bits)
        self._index = index


def _follow(arrays: list, old: np.ndarray | slice | None, new: np.ndarray | slice,
            total: int) -> list:
    """Each of arrays, laid out on the flat active index old, laid out on
    new instead: entries new to `new` read zero, those it drops go. An
    index is slice(None) when every one of the total entries is active;
    old is None when there is nothing to carry."""
    if isinstance(old, slice):
        return [a[new] for a in arrays]
    out = [np.zeros(total if isinstance(new, slice) else len(new)) for _ in arrays]
    if old is None:
        return out
    if isinstance(new, slice):
        src, dst = slice(None), old
    else:
        # a position both indices hold sorts into a pair, old's copy first; a
        # stable sort merges the two ascending runs in linear time
        both = np.concatenate([old, new])
        order = np.argsort(both, kind="stable")
        merged = both[order]
        pair = np.flatnonzero(merged[1:] == merged[:-1])
        src, dst = order[pair], order[pair + 1] - len(old)
    for o, a in zip(out, arrays):
        o[dst] = a[src]
    return out


def init_table(num_users: int, num_items: int, dim: int,
               rng: np.random.Generator) -> EmbeddingTable:
    """Create an all-active table with i.i.d. normal entries of std INIT_SCALE."""
    if num_users < 1 or num_items < 1 or dim < 1:
        raise ValueError("num_users, num_items and dim must all be >= 1")
    weights = rng.normal(0.0, INIT_SCALE, size=(num_users + num_items, dim))
    return EmbeddingTable._laid_out(num_users, num_items, dim, weights.reshape(-1), None)


@dataclass
class SparseMask:
    """Binary mask over the embedding table; True marks active entries.

    The mask makes the bits array it is given read-only; move is its only
    writer. The mask caches the flat index of its active entries, which
    move drops, so masked_step and active_count compute it once per
    exploration event.
    """

    bits: np.ndarray  # bool, of the table's shape
    target_sparsity: float | None = None
    _active: np.ndarray | slice | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        self.bits.flags.writeable = False

    def move(self, pruned: np.ndarray, grown: np.ndarray) -> None:
        """Clear the bits at flat positions pruned and set them at grown."""
        bits = self.bits.copy()
        flat = bits.reshape(-1)
        flat[pruned] = False
        flat[grown] = True
        bits.flags.writeable = False
        self.bits = bits
        self._active = None

    @property
    def active_count(self) -> int:
        index = self._active_index()
        return self.total if isinstance(index, slice) else len(index)

    @property
    def total(self) -> int:
        return self.bits.size

    @property
    def sparsity(self) -> float:
        return 1.0 - self.active_count / self.total

    def _active_index(self) -> np.ndarray | slice:
        """Flat index of the active entries; slice(None) if all are active."""
        if self._active is None:
            flat = np.flatnonzero(self.bits)
            self._active = slice(None) if len(flat) == self.bits.size else flat
        return self._active


def target_active_count(total: int, sparsity: float) -> int:
    """Active-entry budget at a given sparsity: round(total * (1 - s)).

    Uses banker's rounding, matching Python's round.
    """
    return round(total * (1.0 - sparsity))


def init_mask(shape: tuple, sparsity: float, rng: np.random.Generator) -> SparseMask:
    """Random mask with exactly round(total * (1 - s)) active positions."""
    if not 0.0 <= sparsity < 1.0:
        raise ValueError(f"sparsity must be in [0, 1), got {sparsity}")
    total = int(np.prod(shape))
    k = target_active_count(total, sparsity)
    if k < 1:
        raise ValueError(f"sparsity {sparsity} leaves no active entries for {total} total")
    bits = np.zeros(total, dtype=bool)
    bits[rng.choice(total, size=k, replace=False)] = True
    return SparseMask(bits.reshape(shape), target_sparsity=sparsity)


def apply_mask(table: EmbeddingTable, mask: SparseMask) -> np.ndarray:
    """Dense masked weights, inactive entries zero. For a table laid out on
    mask these are its weights, materialised once (read-only)."""
    return table.weights if table._on(mask) else table.weights * mask.bits


@dataclass
class OptimizerState:
    """SGD or Adam state over the active entries of a mask.

    Adam's moments m and v hold one value per active entry, in the order
    of the mask's flat active index (the whole table under an all-active
    mask), as the table's values do. masked_step moves them to a new index
    with the values' helper, _follow, so regrown entries start from a cold
    optimizer state.
    """

    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1e-8

    kind: str
    lr: float
    step: int = field(default=0, init=False)
    m: np.ndarray | None = field(default=None, init=False, repr=False)
    v: np.ndarray | None = field(default=None, init=False, repr=False)
    _index: np.ndarray | slice | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"optimizer must be 'sgd' or 'adam', got {self.kind!r}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")


def _check_finite(grad: np.ndarray, what: str) -> None:
    """Raise FloatingPointError naming what and its first non-finite position."""
    if not np.isfinite(grad).all():
        bad = tuple(int(i) for i in np.argwhere(~np.isfinite(grad))[0])
        raise FloatingPointError(f"non-finite {what} at position {bad}")


def _require_layout(table: EmbeddingTable, mask: SparseMask) -> None:
    """Raise ValueError unless table is laid out on mask (see EmbeddingTable.follow)."""
    if not table._on(mask):
        raise ValueError("the table is not laid out on this mask; EmbeddingTable.follow "
                         "moves it there")


def masked_step(
    table: EmbeddingTable,
    grad: np.ndarray,
    mask: SparseMask,
    opt: OptimizerState,
) -> None:
    """Apply one optimizer update to the active entries only.

    The gradient is dense over the table; contributions at inactive
    positions are discarded. The table must be laid out on mask, so its
    values are the active weights in the order of the mask's cached flat
    index; they are updated in place, and the work scales with the active
    count. Adam keeps dense semantics over the active set: every active
    moment decays on every step, also where the gradient is zero. Its
    moments follow the mask's index whenever SparseMask.move has replaced
    it (see OptimizerState).
    """
    if grad.shape != table.shape:
        raise ValueError(f"grad shape {grad.shape} != table shape {table.shape}")
    _require_layout(table, mask)
    _check_finite(grad, "gradient")
    idx = mask._active_index()
    w = table.values
    # under a dense mask this is a view
    g = grad.reshape(-1)[idx]
    opt.step += 1
    if opt.kind == "sgd":
        w -= opt.lr * g
    else:
        if opt._index is not idx:
            opt.m, opt.v = _follow([opt.m, opt.v], opt._index, idx, table.total_entries)
            opt._index = idx
        m, v = opt.m, opt.v
        # m = beta1 * m + (1 - beta1) * g and v = beta2 * v + ((1 - beta2) * g) * g
        tmp = np.multiply(1.0 - opt.beta1, g)
        m *= opt.beta1
        m += tmp
        np.multiply(1.0 - opt.beta2, g, out=tmp)
        tmp *= g
        v *= opt.beta2
        v += tmp
        # w -= (lr * m_hat) / (sqrt(v_hat) + eps)
        np.divide(v, 1.0 - opt.beta2**opt.step, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += opt.eps
        update = np.divide(m, 1.0 - opt.beta1**opt.step)
        update *= opt.lr
        update /= tmp
        w -= update


def save_checkpoint(path, table: EmbeddingTable, mask: SparseMask) -> None:
    """Write a table and its mask in the sparse-embedding-v2 layout.

    One JSON header line, then the mask, then the active values as
    little-endian float64 in row-major order. The mask is a packed bitset
    (np.packbits, row-major), unless the Elias–Fano coding of the ascending
    flat active positions is strictly smaller (costs.memory_bytes decides).
    Then the header holds "mask": "elias-fano" and the mask is the low part,
    the l low bits of each position, most significant first, packed, then
    the packed high bitvector (costs.elias_fano_layout). The file is
    memory_bytes(active, total) plus the header line, and identical inputs
    give identical bytes.
    """
    sparsity = mask.sparsity if mask.target_sparsity is None else mask.target_sparsity
    header = {
        "format": CHECKPOINT_FORMAT,
        "num_users": table.num_users,
        "num_items": table.num_items,
        "dim": table.dim,
        "sparsity": float(sparsity),
    }
    active, total = mask.active_count, mask.total
    index = mask._active_index()
    if memory_bytes(active, total) < 8 * active + -(-total // 8):
        # index is an array: Elias–Fano never wins for an all-active mask
        header["mask"] = ELIAS_FANO
        low, high = elias_fano_layout(active, total)
        low_bits = (index[:, None] >> np.arange(low - 1, -1, -1)).astype(np.uint8) & 1
        high_bits = np.zeros(high, dtype=bool)
        high_bits[(index >> low) + np.arange(active)] = True
        coded = [np.packbits(low_bits), np.packbits(high_bits)]
    else:
        coded = [np.packbits(mask.bits, axis=None)]
    with Path(path).open("wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for part in coded:
            fh.write(part.tobytes())
        fh.write(table._values_on(mask).astype("<f8", copy=False))


def _check_active_count(path, sparsity, total: int, active: int) -> None:
    """Raise ValueError unless the mask's active count is the header's budget."""
    want = target_active_count(total, sparsity)
    if active != want:
        raise ValueError(f"{path}: checkpoint header sparsity {sparsity} means {want} active "
                         f"of {total} entries, the mask has {active}")


def _decode_elias_fano(path, fh, body_len: int, sparsity, total: int) -> np.ndarray:
    """The ascending flat active positions of an Elias–Fano coded
    checkpoint, read from fh up to its values.

    The header's budget fixes the body's length; the padding bits of both
    parts must be zero and the positions strictly increasing below total.
    The positions are decoded in place: beside them the decoder holds at
    most one more active-length int64 array, and the unpacked parts.
    """
    active = target_active_count(total, sparsity)
    if active < 1:
        raise ValueError(f"{path}: checkpoint header sparsity {sparsity} leaves no active "
                         f"entry of {total}, which an Elias–Fano mask cannot hold")
    low, high = elias_fano_layout(active, total)
    low_bytes, high_bytes = -(-active * low // 8), -(-high // 8)
    expected = low_bytes + high_bytes + 8 * active
    if body_len != expected:
        raise ValueError(f"{path}: checkpoint body is {body_len} bytes, expected {expected} "
                         f"for {active} active of {total} entries")
    low_part = np.frombuffer(fh.read(low_bytes), dtype=np.uint8)
    high_bits = np.unpackbits(np.frombuffer(fh.read(high_bytes), dtype=np.uint8))
    pad = -active * low % 8  # the low part's padding bits, at the end of its last byte
    if (pad and low_part[-1] & ((1 << pad) - 1)) or high_bits[high:].any():
        raise ValueError(f"{path}: checkpoint mask has nonzero padding bits")
    positions = np.flatnonzero(high_bits)
    del high_bits
    _check_active_count(path, sparsity, total, len(positions))
    positions -= np.arange(active)
    positions <<= low
    low_bits = np.unpackbits(low_part)
    # the low value of each position, built a bit at a time in the smallest
    # signed type that holds 0 .. 2^low - 1
    lows = np.zeros(active, dtype=np.min_scalar_type(-(1 << low)))
    for shift in range(low):
        lows <<= 1
        lows |= low_bits[shift:active * low:low]
    positions |= lows
    if (positions[1:] <= positions[:-1]).any() or positions[-1] >= total:
        raise ValueError(f"{path}: checkpoint mask positions are not strictly increasing "
                         f"below {total}")
    return positions


def load_checkpoint(path) -> tuple[EmbeddingTable, SparseMask]:
    """Read a checkpoint back into a table and mask (see save_checkpoint).

    The file is read part by part: the mask is decoded first, then the
    values are read straight into the table's active-length array, so the
    dense table is never built.
    """
    with Path(path).open("rb") as fh:
        head = fh.readline()
        body_len = os.fstat(fh.fileno()).st_size - fh.tell()
        try:
            header = json.loads(head)
        except ValueError:
            header = None
        fmt = header.get("format") if isinstance(header, dict) else None
        if fmt != CHECKPOINT_FORMAT:
            raise ValueError(f"{path}: unrecognized checkpoint format {fmt!r}")
        for key in ("num_users", "num_items", "dim"):
            value = header.get(key)
            if type(value) is not int or value < 1:
                raise ValueError(f"{path}: checkpoint header {key} must be a positive integer, "
                                 f"got {value!r}")
        sparsity = header.get("sparsity")
        if type(sparsity) not in (int, float) or not 0.0 <= sparsity < 1.0:
            raise ValueError(f"{path}: checkpoint header sparsity must be in [0, 1), "
                             f"got {sparsity!r}")
        if header.get("mask", ELIAS_FANO) != ELIAS_FANO:
            raise ValueError(f"{path}: checkpoint header mask must be {ELIAS_FANO!r} or absent, "
                             f"got {header['mask']!r}")
        num_users, num_items, dim = header["num_users"], header["num_items"], header["dim"]
        shape = (num_users + num_items, dim)
        total = shape[0] * shape[1]
        if "mask" in header:
            positions = _decode_elias_fano(path, fh, body_len, sparsity, total)
            bits = np.zeros(total, dtype=bool)
            bits[positions] = True
            active = len(positions)
            del positions  # the values take its place
        else:
            mask_bytes = -(-total // 8)
            if body_len < mask_bytes:
                raise ValueError(f"{path}: checkpoint body is {body_len} bytes, "
                                 f"shorter than its mask")
            unpacked = np.unpackbits(np.frombuffer(fh.read(mask_bytes), dtype=np.uint8))
            if unpacked[total:].any():
                raise ValueError(f"{path}: checkpoint mask has nonzero padding bits")
            bits = unpacked[:total].view(bool)
            active = int(np.count_nonzero(bits))
            if body_len != mask_bytes + 8 * active:
                raise ValueError(
                    f"{path}: checkpoint body is {body_len} bytes, expected "
                    f"{mask_bytes + 8 * active} for {active} active of {total} entries"
                )
            _check_active_count(path, sparsity, total, active)
        values = np.empty(active, dtype="<f8")
        if fh.readinto(values) != values.nbytes:
            raise ValueError(f"{path}: checkpoint body ended before its {active} values")
    mask = SparseMask(bits.reshape(shape), target_sparsity=sparsity)
    table = EmbeddingTable._laid_out(num_users, num_items, dim,
                                     values.astype(np.float64, copy=False),
                                     None if active == total else mask.bits)
    return table, mask
