"""Fixed-budget mask exploration: magnitude pruning and gradient growth.

Every ``delta_t`` iterations a fraction rho_t of the active entries is
pruned by absolute weight and the same number of inactive entries is
regrown at the positions of largest absolute gradient, keeping the
active-entry budget constant for the whole run. Between explorations the
mask is frozen. Static baselines (random prune at init, one-shot
magnitude prune of a dense table) share the same budget rule.

The table stores one value per active entry, in the order of the mask's
flat active index (see embeddings), so pruning ranks those values as
they are, with no gather. An exploration event zeroes the values it
prunes, so the growth gradient sees them as zero, then moves the mask.
The move derives one slot map, owned by the mask, from the old layout to
the new: the table follows through it at once, dropping the pruned values
and starting the grown entries at zero, and Adam's moments follow through
it in the next learning step. A one-shot prune reads the dense weights;
the trainer's next phase moves the table onto its mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embeddings import (EmbeddingTable, SparseMask, _check_finite, _require_layout,
                         target_active_count)

DECAYS = ("cosine", "linear", "none")


@dataclass(frozen=True)
class ExplorationSchedule:
    """When mask updates happen and how aggressive they are.

    rho0 is the initial update ratio, delta_t the interval between mask
    updates, t_end the final training iteration. delta_t > t_end (or
    rho0 = 0) disables exploration entirely, which reduces training to
    the static random-mask baseline.
    """

    rho0: float
    delta_t: int
    t_end: int
    decay: str = "cosine"

    def __post_init__(self):
        if not 0.0 <= self.rho0 < 1.0:
            raise ValueError(f"rho0 must be in [0, 1), got {self.rho0}")
        if self.delta_t < 1:
            raise ValueError(f"delta_t must be >= 1, got {self.delta_t}")
        if self.t_end < 1:
            raise ValueError(f"t_end must be >= 1, got {self.t_end}")
        if self.decay not in DECAYS:
            raise ValueError(f"decay must be one of {DECAYS}, got {self.decay!r}")


def update_ratio(sched: ExplorationSchedule, t: int) -> float:
    """Fraction of active entries to replace at iteration t.

    Cosine decay anneals rho0 down to zero at t_end:
    rho_t = rho0/2 * (1 + cos(pi * t / t_end)).
    """
    if not 0 <= t <= sched.t_end:
        raise ValueError(f"t must be in [0, {sched.t_end}], got {t}")
    if sched.decay == "cosine":
        return sched.rho0 / 2.0 * (1.0 + math.cos(math.pi * t / sched.t_end))
    if sched.decay == "linear":
        return sched.rho0 * (1.0 - t / sched.t_end)
    return sched.rho0


def is_exploration_iteration(sched: ExplorationSchedule, t: int) -> bool:
    """Whether a mask update fires at t: every delta_t in (0, t_end)."""
    return t % sched.delta_t == 0 and 0 < t < sched.t_end


@dataclass
class ExplorationEvent:
    """Record of one mask update: which flat positions moved and why."""

    t: int
    rho_t: float
    pruned_positions: np.ndarray  # flat indices, ascending
    grown_positions: np.ndarray  # flat indices, ascending
    sparsity_after: float

    @property
    def count(self) -> int:
        return len(self.pruned_positions)

    def log_entry(self) -> dict:
        """JSON-ready record of the event, with counts of moved positions."""
        return {
            "t": self.t,
            "rho_t": self.rho_t,
            "pruned": self.count,
            "grown": len(self.grown_positions),
            "sparsity_after": self.sparsity_after,
        }


def _largest(values: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the k largest values, 1 <= k <= len(values).

    np.partition finds the k-th largest value; every value above it is
    taken, then the values equal to it in ascending index order until k
    are taken. That is the first k of a stable descending sort, without
    sorting.
    """
    kth = np.partition(values, len(values) - k)[len(values) - k]
    chosen = values > kth
    tied = np.flatnonzero(values == kth)
    chosen[tied[: k - np.count_nonzero(chosen)]] = True
    return chosen


def _prune_count(rho_t: float, active: int) -> int:
    """Entries an exploration event at rho_t prunes (and grows) of active."""
    return math.floor(rho_t * active)


def select_prune(table: EmbeddingTable, mask: SparseMask, rho_t: float) -> np.ndarray:
    """Flat positions of the floor(rho_t * active) smallest-|weight| active
    entries.

    The threshold is the k-th smallest magnitude, found by np.partition
    over the mask's cached active index. Ties resolve toward the smaller
    row-major index. Result is ascending.
    """
    if not 0.0 <= rho_t <= 1.0:
        raise ValueError(f"rho_t must be in [0, 1], got {rho_t}")
    index = mask._active_index()
    mags = np.abs(table._values_on(mask))
    k = _prune_count(rho_t, len(mags))
    if k == 0:
        return np.empty(0, dtype=np.int64)
    chosen = np.flatnonzero(_largest(-mags, k))
    # slice(None): every entry is active, so positions are flat indices
    return chosen if isinstance(index, slice) else index[chosen]


def select_grow(grad: np.ndarray, mask: SparseMask, k: int, exclude: np.ndarray) -> np.ndarray:
    """Flat positions of the k inactive entries with largest |gradient|.

    Positions listed in exclude (the ones pruned in the same event) are
    not eligible. The threshold is the k-th largest eligible magnitude,
    found by np.partition. Ties resolve toward the smaller row-major
    index. Result is ascending.

    Most eligible magnitudes are often exactly zero (an MF batch touches
    few rows), and np.partition slows down many times over when most
    values are equal. So only the positive ones are partitioned: with at
    least k of them the threshold is their k-th largest; otherwise all are
    taken, then zeros in ascending index order.
    """
    eligible = ~mask.bits.ravel()
    eligible[exclude] = False
    inactive = np.flatnonzero(eligible)
    if k > len(inactive):
        raise ValueError(f"cannot grow {k} entries, only {len(inactive)} eligible")
    if k == 0:
        return np.empty(0, dtype=np.int64)
    mags = np.abs(grad.ravel()[inactive])
    chosen = mags > 0
    positive = np.flatnonzero(chosen)
    if len(positive) >= k:
        return inactive[positive[_largest(mags[positive], k)]]
    # every positive magnitude, then zeros in ascending index order
    chosen[np.flatnonzero(~chosen)[: k - len(positive)]] = True
    return inactive[chosen]


def exploration_step(
    table: EmbeddingTable,
    mask: SparseMask,
    sched: ExplorationSchedule,
    t: int,
    grad_fn,
) -> ExplorationEvent:
    """Replace floor(rho_t * active) mask positions in place.

    The table must be laid out on mask. Zeroes the values to prune, then
    asks grad_fn for one dense gradient on a fresh batch of that table and
    picks the largest-|grad| inactive positions to grow. The bits then move
    in one SparseMask.move, so a non-finite gradient raises with the mask
    unchanged, and the table follows the move's slot map: the pruned values
    go and the grown ones start at zero. The next masked_step carries
    Adam's moments through the same map, so grown entries start from a
    cold optimizer state. The active count is identical before and after.
    """
    _require_layout(table, mask)
    rho_t = update_ratio(sched, t)
    active_before = mask.active_count
    pruned = select_prune(table, mask, rho_t)
    index = mask._active_index()
    table.values[pruned if isinstance(index, slice) else np.searchsorted(index, pruned)] = 0.0
    grad = grad_fn()
    _check_finite(grad, "growth gradient")
    grown = select_grow(grad, mask, len(pruned), exclude=pruned)
    mask.move(pruned, grown)
    table.follow(mask)
    assert mask.active_count == active_before, "mask update changed the budget"
    return ExplorationEvent(
        t=t,
        rho_t=rho_t,
        pruned_positions=pruned,
        grown_positions=grown,
        sparsity_after=mask.sparsity,
    )


def one_shot_magnitude_prune(table: EmbeddingTable, sparsity: float) -> SparseMask:
    """Keep the round(total * (1 - s)) largest-|weight| entries of a table.

    The threshold is the keep-th largest magnitude, found by np.partition.
    Ties keep the smaller row-major index.
    """
    if not 0.0 <= sparsity < 1.0:
        raise ValueError(f"sparsity must be in [0, 1), got {sparsity}")
    total = table.total_entries
    keep = target_active_count(total, sparsity)
    if keep < 1:
        raise ValueError(f"sparsity {sparsity} keeps no entries")
    bits = _largest(np.abs(table.weights.ravel()), keep)
    return SparseMask(bits.reshape(table.shape), target_sparsity=sparsity)
