"""Multiply-accumulate and memory cost model.

All figures are derived counts, not measurements, so they are exact and
reproducible. Sparse costs are written literally as dense_cost * (1 - s)
so the sparse/dense ratio is (1 - s) down to the last bit. The backward
pass is counted as twice the forward pass; that convention is declared
here rather than inferred from hardware.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CostReport:
    """Training/inference MACs plus the parameter storage estimate."""

    macs_train: float
    macs_infer: float
    memory_bytes: int


def macs_inference(
    backbone: str,
    num_users: int,
    num_items: int,
    dim: int,
    num_layers: int = 0,
    nnz_adj: int = 0,
    sparsity: float = 0.0,
) -> float:
    """MACs for one full evaluation: propagation plus all-pairs scoring.

    lightgcn: (nnz_adj * L + N * M) * d * (1 - s); mf: N * M * d * (1 - s).
    """
    if min(num_users, num_items, dim) < 0 or num_layers < 0 or nnz_adj < 0:
        raise ValueError("all counts must be >= 0")
    if not 0.0 <= sparsity < 1.0:
        raise ValueError(f"sparsity must be in [0, 1), got {sparsity}")
    dense = num_users * num_items * dim
    if backbone == "lightgcn":
        dense = (nnz_adj * num_layers + num_users * num_items) * dim
    return dense * (1.0 - sparsity)


def macs_forward_batch(
    backbone: str,
    dim: int,
    batch_size: int,
    num_layers: int = 0,
    nnz_adj: int = 0,
) -> float:
    """Dense forward MACs for one BPR training batch.

    Two d-length dot products per triple, plus full-table propagation for
    graph backbones (nnz_adj * L * d).
    """
    forward = 2.0 * dim * batch_size
    if backbone == "lightgcn":
        forward += nnz_adj * num_layers * dim
    return forward


def macs_training(
    forward_per_iter: float,
    iterations: int,
    sparsity: float = 0.0,
    exploration_iterations: int = 0,
) -> float:
    """Cumulative training MACs over executed iterations.

    Each learning iteration costs 3 * forward * (1 - s) (forward plus a
    backward counted at 2x forward, all scaled by the active fraction).
    Each exploration iteration replaces the learning step and costs one
    dense forward + backward, since growth scoring ignores the mask.
    """
    if iterations < 0 or exploration_iterations < 0:
        raise ValueError("iteration counts must be >= 0")
    per_sparse = 3.0 * forward_per_iter * (1.0 - sparsity)
    per_dense = 3.0 * forward_per_iter
    return per_sparse * iterations + per_dense * exploration_iterations


def elias_fano_layout(active_count: int, total_entries: int) -> tuple[int, int]:
    """Widths of the Elias–Fano coding of active_count >= 1 ascending
    positions below total_entries (Elias 1974; Vigna, WSDM 2013).

    Returns (l, high bits). The low part keeps the l = floor(log2(total /
    active)) low bits of each position, active * l bits; the high part is a
    bitvector of ((total - 1) >> l) + active bits, with a 1 at
    (p_i >> l) + i for the i-th position p_i. l is computed in integers, so
    no float enters.
    """
    low = (total_entries // active_count).bit_length() - 1
    return low, ((total_entries - 1) >> low) + active_count


def memory_bytes(active_count: int, total_entries: int) -> int:
    """Storage for the sparse table: active float64 weights plus the mask.

    The mask is the packed bitset, ceil(total / 8) bytes, or the Elias–Fano
    coding of the active positions (elias_fano_layout, each part packed to
    whole bytes) when that is strictly smaller. Elias–Fano can win only
    when fewer than a quarter of the entries are active. (active, total)
    alone fixes the figure, and a checkpoint file is exactly this plus its
    header line.
    """
    if active_count < 0 or total_entries < active_count:
        raise ValueError("need 0 <= active_count <= total_entries")
    mask = -(-total_entries // 8)
    if active_count:
        low, high = elias_fano_layout(active_count, total_entries)
        mask = min(mask, -(-active_count * low // 8) + -(-high // 8))
    return active_count * 8 + mask
