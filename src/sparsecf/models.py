"""Scoring backbones (matrix factorization, LightGCN) and the BPR objective.

Both backbones read one shared embedding table. MF scores a pair by the
dot product of its raw rows. LightGCN first smooths the table over the
symmetrically normalized interaction graph and averages all layer
outputs, then scores by dot product. Gradients are computed analytically
and densely over the whole table, which mask growth needs; the LightGCN
backward pass is transposed propagation of the output gradient (the
adjacency is symmetric), so no autodiff is involved.

The table stores only its active entries (see embeddings). A batch
densifies it once, into a short-lived read-only array (under an
all-active mask a view, with no copy), and reads that once: the user,
positive and negative rows of every triple are gathered in one
(3 * batch, dim) block (for LightGCN, one block of base rows and one of
combined rows, from the one table it propagates). At desk scale the
block (3 * 1024 * 64 entries) is larger than the table (168,000 entries),
so densifying costs less than reading the block's rows straight from the
active values through per-row pointers; that read pays only once the
table is much larger than a batch's block. The three ranking
blocks of the gradient are written into one preallocated array of the
same shape, with the L2 term added in place. Those per-slot rows are
scattered into the table with one sparse product: an incidence matrix
with a 1 at (table row, slot) sums the rows that share a table row. It
has one entry per column, so it is built as CSC directly, with no sort.
MF scatters the ranking and L2 terms together; LightGCN propagates the
scattered ranking term and then adds the scattered L2 term, which acts
on the base rows only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .data import InteractionDataset
from .embeddings import EmbeddingTable

BACKBONES = ("mf", "lightgcn")


def build_adjacency(ds: InteractionDataset) -> sp.csr_matrix:
    """Symmetrically normalized bipartite adjacency over users + items.

    Returns D^{-1/2} A D^{-1/2} where A has a 1 between each interacting
    user/item pair. Nodes with no edges get a 1 on the diagonal instead,
    so propagation leaves their embedding untouched rather than zeroing
    it.
    """
    n = ds.num_users + ds.num_items
    users = ds.train_edges[:, 0]
    items = ds.train_edges[:, 1] + ds.num_users
    deg = np.bincount(users, minlength=n) + np.bincount(items, minlength=n)
    isolated = np.flatnonzero(deg == 0)
    inv_sqrt = np.zeros(n)
    inv_sqrt[deg > 0] = 1.0 / np.sqrt(deg[deg > 0])
    vals = inv_sqrt[users] * inv_sqrt[items]
    return sp.csr_matrix(
        (
            np.concatenate([vals, vals, np.ones(len(isolated))]),
            (np.concatenate([users, items, isolated]), np.concatenate([items, users, isolated])),
        ),
        shape=(n, n),
    )


@dataclass(eq=False)
class BackboneConfig:
    """Which scorer to use and its hyperparameters.

    layers only matters for lightgcn; zero layers degenerates to mf.
    l2_reg penalizes the base-table rows touched by each training triple.
    The normalized adjacency is carried here for lightgcn so scoring is
    self-contained.
    """

    kind: str = "mf"
    layers: int = 0
    l2_reg: float = 1e-4
    adjacency: sp.csr_matrix | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in BACKBONES:
            raise ValueError(f"backbone must be one of {BACKBONES}, got {self.kind!r}")
        if self.layers < 0:
            raise ValueError(f"num_layers must be >= 0, got {self.layers}")
        if self.l2_reg < 0:
            raise ValueError(f"l2_reg must be >= 0, got {self.l2_reg}")

    def propagates(self) -> bool:
        return self.kind == "lightgcn" and self.layers > 0

    @classmethod
    def for_dataset(cls, kind: str, layers: int, ds: InteractionDataset,
                    l2_reg: float = 1e-4) -> "BackboneConfig":
        adj = build_adjacency(ds) if kind == "lightgcn" and layers > 0 else None
        return cls(kind=kind, layers=layers, l2_reg=l2_reg, adjacency=adj)


def lightgcn_propagate(cfg: BackboneConfig, weights: np.ndarray) -> np.ndarray:
    """Mean of the layer-0..L embeddings under E_l = adj @ E_{l-1}."""
    if cfg.adjacency is None:
        raise ValueError("lightgcn propagation needs cfg.adjacency")
    out = weights.copy()
    current = weights
    for _ in range(cfg.layers):
        current = cfg.adjacency @ current
        out += current
    out /= cfg.layers + 1
    return out


def combined_embeddings(cfg: BackboneConfig, weights: np.ndarray) -> np.ndarray:
    """Embeddings the scorer actually uses, given the table weights."""
    if not cfg.propagates():
        return weights
    return lightgcn_propagate(cfg, weights)


def _incidence(rows: np.ndarray, num_rows: int) -> sp.csc_matrix:
    """(num_rows, len(rows)) matrix with a 1 at (rows[k], k).

    inc @ vals sums the rows of vals into the table rows they belong to,
    repeated indices included, in the order they appear in rows. Column k
    holds its one entry at rows[k], so the matrix is built as CSC
    directly, without the sort a COO to CSR conversion makes.
    """
    n = len(rows)
    return sp.csc_matrix((np.ones(n), rows, np.arange(n + 1)), shape=(num_rows, n))


def bpr_loss_and_grad(cfg: BackboneConfig, table: EmbeddingTable, batch: np.ndarray) -> tuple:
    """BPR loss and its dense gradient with respect to the table.

    batch is a (B, 3) int64 array of (user, positive item, negative item)
    rows, as sample_batch draws them. Loss is mean softplus(-x) over the
    batch with x = e_u . (e_i - e_j) in combined space, plus
    l2_reg * mean(|e_u|^2 + |e_i|^2 + |e_j|^2) on the base rows of each
    triple. Inactive entries of the table read zero (see embeddings). The
    gradient treats every entry as free, including those zeros, so growth
    can rank them.
    """
    b = len(batch)
    if b == 0:
        raise ValueError("batch is empty")
    # the dense table, densified once (see the module docstring)
    weights = table.weights
    num_users = table.num_users
    rows = (batch + (0, num_users, num_users)).T.ravel()
    # base (and for LightGCN combined) rows of users, positives, negatives
    base = weights[rows]
    combined = combined_embeddings(cfg, weights)
    emb = combined[rows] if cfg.propagates() else base
    e_u, e_i, e_j = emb[:b], emb[b:2 * b], emb[2 * b:]
    base_u, base_i, base_j = base[:b], base[b:2 * b], base[2 * b:]
    # the per-slot gradient rows; its first block starts as e_i - e_j
    vals = np.empty_like(base)
    diff = np.subtract(e_i, e_j, out=vals[:b])
    x = np.einsum("bd,bd->b", e_u, diff)
    # softplus(-x) = -ln sigma(x), stable for large |x|; non-finite inputs
    # are reported through the explicit check below, not as warnings
    with np.errstate(invalid="ignore", over="ignore"):
        rank_terms = np.logaddexp(0.0, -x)

    reg_terms = cfg.l2_reg * (
        np.einsum("bd,bd->b", base_u, base_u)
        + np.einsum("bd,bd->b", base_i, base_i)
        + np.einsum("bd,bd->b", base_j, base_j)
    )
    per_triple = rank_terms + reg_terms
    finite = np.isfinite(per_triple)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise FloatingPointError(
            f"non-finite loss for triple {tuple(batch[bad].tolist())}"
        )
    loss = float(per_triple.mean())

    coeff = (-expit(-x) / b)[:, None]
    diff *= coeff
    np.multiply(coeff, e_u, out=vals[b:2 * b])
    np.multiply(-coeff, e_u, out=vals[2 * b:])
    # the L2 term, scaled in place: base (for MF also emb) is not read again
    base *= 2.0 * cfg.l2_reg / b
    inc = _incidence(rows, len(weights))
    if cfg.propagates():
        # the adjacency is symmetric, so the adjoint of propagation is
        # propagation applied to the output gradient
        grad = lightgcn_propagate(cfg, inc @ vals)
        grad += inc @ base
        return loss, grad
    vals += base
    return loss, inc @ vals
