"""Embedding table, sparsity mask, and masked optimizer steps.

The table stores user and item embeddings in one (num_users + num_items,
dim) float64 array, users first. A mask of the same shape marks which
entries are trainable; masked-out entries are held at exactly zero, so
the zeroed table *is* the masked model. Scoring and the BPR loss
(models.bpr_loss_and_grad) read the weights as stored and rely on this;
only apply_mask builds a masked copy, for a (table, mask) pair from
outside a run. Adam's moments are held for the active entries only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

CHECKPOINT_FORMAT = "sparse-embedding-v2"


@dataclass
class EmbeddingTable:
    """Dense backing store for user/item embeddings (users then items)."""

    num_users: int
    num_items: int
    dim: int
    weights: np.ndarray  # (num_users + num_items, dim) float64

    @property
    def total_entries(self) -> int:
        return self.weights.size


def init_table(
    num_users: int,
    num_items: int,
    dim: int,
    rng: np.random.Generator,
    scale: float = 0.01,
) -> EmbeddingTable:
    """Create a table with i.i.d. normal entries of the given std."""
    if num_users < 1 or num_items < 1 or dim < 1:
        raise ValueError("num_users, num_items and dim must all be >= 1")
    weights = rng.normal(0.0, scale, size=(num_users + num_items, dim))
    return EmbeddingTable(num_users, num_items, dim, weights)


@dataclass
class SparseMask:
    """Binary mask over the embedding table; True marks active entries.

    The mask makes the bits array it is given read-only; move is its only
    writer. The mask caches the flat index of its active entries, which
    move drops, so masked_step and active_count compute it once per
    exploration event.
    """

    bits: np.ndarray  # bool, same shape as the table weights
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
    """Masked view of the weights: inactive entries read as zero."""
    return table.weights * mask.bits


def zero_inactive(table: EmbeddingTable, mask: SparseMask) -> None:
    """Force inactive entries of the backing store to exactly zero."""
    table.weights[~mask.bits] = 0.0


@dataclass
class OptimizerState:
    """SGD or Adam state over the active entries of a mask.

    Adam's moments m and v hold one value per active entry, in the order
    of the mask's flat active index (the whole table under an all-active
    mask); regrown entries start from a cold optimizer state.
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
            raise ValueError(f"kind must be 'sgd' or 'adam', got {self.kind!r}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")

    def _follow(self, index: np.ndarray | slice, total: int) -> None:
        """Carry m and v over to index through zeroed scratches of the table's
        total entries: entries new to index read zero, dropped ones go."""
        for name in ("m", "v"):
            full = np.zeros(total)
            if self._index is not None:
                full[self._index] = getattr(self, name)
            setattr(self, name, full[index])
        self._index = index


def _check_finite(grad: np.ndarray, what: str) -> None:
    """Raise FloatingPointError naming what and its first non-finite position."""
    if not np.isfinite(grad).all():
        bad = tuple(int(i) for i in np.argwhere(~np.isfinite(grad))[0])
        raise FloatingPointError(f"non-finite {what} at position {bad}")


def masked_step(
    table: EmbeddingTable,
    grad: np.ndarray,
    mask: SparseMask,
    opt: OptimizerState,
) -> None:
    """Apply one optimizer update to the active entries only.

    The gradient is dense over the table; contributions at inactive
    positions are discarded. Only active weights are read or written, so
    the work scales with the active count. Adam keeps dense semantics over
    the active set: every active moment decays on every step, also where
    the gradient is zero.

    The active entries come from the mask's cached flat index, which
    SparseMask.move drops whenever the bits change. Under a dense mask the
    update runs in place on the table; under a sparse one it gathers the
    active weights once, updates them in place and writes them back once.
    Adam's moments follow that index (see OptimizerState).

    Precondition: inactive weights are exactly zero. They are left
    untouched, so they stay zero; the trainer establishes this when a
    phase starts, and sparsifier.exploration_step keeps it: it zeroes what
    it prunes and grows only entries that were inactive. The zeroed table
    is then the masked model, which is what models.bpr_loss_and_grad and
    the trainer's evaluation read.
    """
    if grad.shape != table.weights.shape:
        raise ValueError(f"grad shape {grad.shape} != table shape {table.weights.shape}")
    _check_finite(grad, "gradient")
    idx = mask._active_index()
    w_flat = table.weights.reshape(-1)
    # under a dense mask these are views, and every update below is in place
    w = w_flat[idx]
    g = grad.reshape(-1)[idx]
    opt.step += 1
    if opt.kind == "sgd":
        w -= opt.lr * g
    else:
        if opt._index is not idx:
            opt._follow(idx, w_flat.size)
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
    if not isinstance(idx, slice):
        w_flat[idx] = w


def save_checkpoint(path, table: EmbeddingTable, mask: SparseMask) -> None:
    """Write a table and its mask in the sparse-embedding-v2 layout.

    One JSON header line, then the mask as a packed bitset (np.packbits,
    row-major), then the active values as little-endian float64 in
    row-major order. The file is memory_bytes(active, total) plus the
    header line, and identical inputs give identical bytes.
    """
    sparsity = mask.sparsity if mask.target_sparsity is None else mask.target_sparsity
    header = {
        "format": CHECKPOINT_FORMAT,
        "num_users": table.num_users,
        "num_items": table.num_items,
        "dim": table.dim,
        "sparsity": float(sparsity),
    }
    with Path(path).open("wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(np.packbits(mask.bits, axis=None).tobytes())
        fh.write(table.weights.reshape(-1)[mask._active_index()].astype("<f8").tobytes())


def load_checkpoint(path) -> tuple[EmbeddingTable, SparseMask]:
    """Read a checkpoint back into a table and mask."""
    head, _, body = Path(path).read_bytes().partition(b"\n")
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
        raise ValueError(f"{path}: checkpoint header sparsity must be in [0, 1), got {sparsity!r}")
    num_users, num_items, dim = header["num_users"], header["num_items"], header["dim"]
    shape = (num_users + num_items, dim)
    total = shape[0] * shape[1]
    mask_bytes = -(-total // 8)
    if len(body) < mask_bytes:
        raise ValueError(f"{path}: checkpoint body is {len(body)} bytes, shorter than its mask")
    bits = np.unpackbits(np.frombuffer(body, dtype=np.uint8, count=mask_bytes), count=total)
    active = int(np.count_nonzero(bits))
    if len(body) != mask_bytes + 8 * active:
        raise ValueError(
            f"{path}: checkpoint body is {len(body)} bytes, expected "
            f"{mask_bytes + 8 * active} for {active} active of {total} entries"
        )
    bits = bits.view(bool).reshape(shape)
    weights = np.zeros(shape)
    weights[bits] = np.frombuffer(body, dtype="<f8", offset=mask_bytes)
    mask = SparseMask(bits, target_sparsity=sparsity)
    return EmbeddingTable(num_users, num_items, dim, weights), mask
