import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecf.embeddings import EmbeddingTable, SparseMask, init_mask
from sparsecf.sparsifier import (ExplorationEvent, ExplorationSchedule, exploration_step,
                                 is_exploration_iteration, one_shot_magnitude_prune, select_grow,
                                 select_prune, update_ratio)

NO_EXCLUDE = np.empty(0, dtype=np.int64)

# ---------------------------------------------------------------------------
# independent selection oracles: plain python sort over every position


def oracle_prune(weights, bits, rho):
    flat_w = weights.ravel()
    flat_b = bits.ravel()
    active = [p for p in range(flat_w.size) if flat_b[p]]
    k = math.floor(rho * len(active))
    ranked = sorted(active, key=lambda p: (abs(flat_w[p]), p))
    return sorted(ranked[:k])


def oracle_grow(grad, bits, k, exclude=()):
    flat_g = grad.ravel()
    flat_b = bits.ravel()
    banned = set(int(p) for p in exclude)
    cands = [p for p in range(flat_g.size) if not flat_b[p] and p not in banned]
    ranked = sorted(cands, key=lambda p: (-abs(flat_g[p]), p))
    return sorted(ranked[:k])


def oracle_keep_topk(weights, sparsity):
    flat = weights.ravel()
    keep = round(flat.size * (1.0 - sparsity))
    ranked = sorted(range(flat.size), key=lambda p: (-abs(flat[p]), p))
    return sorted(ranked[:keep])


def random_table(rng, rows, cols, tie_prone=False):
    w = rng.normal(size=(rows, cols))
    if tie_prone:
        # coarse quantization forces plenty of equal magnitudes
        w = np.round(w * 2.0) / 2.0
    n = rows // 2 if rows > 1 else 1
    return EmbeddingTable(n, rows - n, cols, w)


# ---------------------------------------------------------------------------


def test_select_prune_matches_oracle():
    rng = np.random.default_rng(0)
    for trial in range(100):
        t = random_table(rng, int(rng.integers(2, 12)), int(rng.integers(1, 9)),
                         tie_prone=trial % 2 == 0)
        mask = init_mask(t.weights.shape, float(rng.uniform(0, 0.8)), rng)
        rho = float(rng.uniform(0, 1))
        got = select_prune(t, mask, rho).tolist()
        assert got == oracle_prune(t.weights, mask.bits, rho)


def test_select_grow_matches_oracle():
    rng = np.random.default_rng(1)
    for trial in range(100):
        shape = (int(rng.integers(4, 12)), int(rng.integers(2, 9)))
        grad = rng.normal(size=shape)
        if trial % 2 == 0:
            grad = np.round(grad * 2.0) / 2.0
        mask = init_mask(shape, float(rng.uniform(0.2, 0.8)), rng)
        inactive = int((~mask.bits).sum())
        exclude = np.sort(rng.choice(shape[0] * shape[1], size=min(3, inactive), replace=False))
        eligible = sum(1 for p in np.flatnonzero(~mask.bits.ravel()) if p not in set(exclude))
        k = int(rng.integers(0, eligible + 1))
        got = select_grow(grad, mask, k, exclude=exclude).tolist()
        assert got == oracle_grow(grad, mask.bits, k, exclude)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(min_value=2, max_value=40),
    cols=st.integers(min_value=2, max_value=16),
    zero_share=st.floats(min_value=0.9, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
    k_frac=st.floats(min_value=0.0, max_value=1.0),
)
def test_select_grow_on_mostly_zero_gradients(rows, cols, zero_share, seed, k_frac):
    # a batch touches few rows, so most growth scores are exactly zero:
    # fewer than k positive ones, or at least k, both occur
    rng = np.random.default_rng(seed)
    grad = np.round(rng.normal(size=(rows, cols)) * 2.0) / 2.0
    grad[rng.random(grad.shape) < zero_share] = 0.0
    mask = init_mask(grad.shape, 0.5, rng)
    eligible = np.flatnonzero(~mask.bits.ravel())
    k = int(k_frac * len(eligible))
    # a stable sort puts equal magnitudes in ascending index order
    want = np.sort(eligible[np.argsort(-np.abs(grad.ravel()[eligible]), kind="stable")[:k]])
    assert select_grow(grad, mask, k, NO_EXCLUDE).tolist() == want.tolist()


def test_one_shot_prune_matches_oracle():
    rng = np.random.default_rng(2)
    for trial in range(100):
        t = random_table(rng, int(rng.integers(2, 12)), int(rng.integers(1, 9)),
                         tie_prone=trial % 2 == 0)
        s = float(rng.uniform(0, 0.9))
        mask = one_shot_magnitude_prune(t, s)
        assert np.flatnonzero(mask.bits.ravel()).tolist() == oracle_keep_topk(t.weights, s)


def test_select_prune_examples():
    w = np.array([[0.9, 0.5], [0.1, 0.05]])
    t = EmbeddingTable(1, 1, 2, w)
    mask = SparseMask(np.ones((2, 2), dtype=bool))
    assert select_prune(t, mask, 0.5).tolist() == [2, 3]
    assert select_prune(t, mask, 0.0).tolist() == []
    # equal magnitudes: lowest row-major index goes first
    tie = EmbeddingTable(1, 1, 2, np.full((2, 2), 0.3))
    assert select_prune(tie, mask, 0.25).tolist() == [0]


def test_select_grow_examples():
    grad = np.array([[0.8, 0.2, 0.0]])
    mask = SparseMask(np.zeros((1, 3), dtype=bool))
    assert select_grow(grad, mask, 1, NO_EXCLUDE).tolist() == [0]
    assert select_grow(grad, mask, 0, NO_EXCLUDE).tolist() == []
    zeros = np.zeros((1, 4))
    m = SparseMask(np.array([[False, False, True, False]]))
    assert select_grow(zeros, m, 2, NO_EXCLUDE).tolist() == [0, 1]
    with pytest.raises(ValueError, match="grow"):
        select_grow(zeros, m, 4, NO_EXCLUDE)


def test_one_shot_examples():
    t = EmbeddingTable(2, 2, 1, np.array([[4.0], [3.0], [2.0], [1.0]]))
    mask = one_shot_magnitude_prune(t, 0.5)
    assert np.flatnonzero(mask.bits.ravel()).tolist() == [0, 1]
    assert one_shot_magnitude_prune(t, 0.0).active_count == 4
    with pytest.raises(ValueError):
        one_shot_magnitude_prune(t, 1.0)


def test_update_ratio_cosine_endpoints():
    sched = ExplorationSchedule(0.3, 100, 1000, "cosine")
    assert update_ratio(sched, 0) == pytest.approx(0.3, abs=1e-12)
    assert update_ratio(sched, 1000) == pytest.approx(0.0, abs=1e-12)
    half = ExplorationSchedule(0.5, 100, 1000, "cosine")
    assert update_ratio(half, 500) == pytest.approx(0.25, abs=1e-12)


def test_update_ratio_linear_and_none():
    lin = ExplorationSchedule(0.4, 10, 200, "linear")
    assert update_ratio(lin, 0) == pytest.approx(0.4, abs=1e-12)
    assert update_ratio(lin, 50) == pytest.approx(0.3, abs=1e-12)
    assert update_ratio(lin, 200) == pytest.approx(0.0, abs=1e-12)
    flat = ExplorationSchedule(0.4, 10, 200, "none")
    for t in (0, 37, 200):
        assert update_ratio(flat, t) == 0.4


def test_update_ratio_rejects_out_of_range():
    sched = ExplorationSchedule(0.3, 10, 100)
    with pytest.raises(ValueError):
        update_ratio(sched, -1)
    with pytest.raises(ValueError):
        update_ratio(sched, 101)


@settings(max_examples=50, deadline=None)
@given(
    rho0=st.floats(min_value=0.0, max_value=0.999),
    t_end=st.integers(min_value=2, max_value=10_000),
    decay=st.sampled_from(["cosine", "linear"]),
    data=st.data(),
)
def test_update_ratio_nonincreasing(rho0, t_end, decay, data):
    sched = ExplorationSchedule(rho0, 1, t_end, decay)
    t1 = data.draw(st.integers(min_value=0, max_value=t_end - 1))
    t2 = data.draw(st.integers(min_value=t1 + 1, max_value=t_end))
    assert update_ratio(sched, t2) <= update_ratio(sched, t1) + 1e-15


def test_schedule_validation():
    with pytest.raises(ValueError):
        ExplorationSchedule(1.0, 10, 100)
    with pytest.raises(ValueError):
        ExplorationSchedule(-0.1, 10, 100)
    with pytest.raises(ValueError):
        ExplorationSchedule(0.3, 0, 100)
    with pytest.raises(ValueError):
        ExplorationSchedule(0.3, 10, 0)
    with pytest.raises(ValueError):
        ExplorationSchedule(0.3, 10, 100, "step")
    # delta_t beyond t_end is allowed and just disables exploration
    sched = ExplorationSchedule(0.3, 500, 100)
    assert not any(is_exploration_iteration(sched, t) for t in range(sched.t_end + 1))


def test_exploration_iterations_never_hit_endpoints():
    sched = ExplorationSchedule(0.3, 25, 100)
    assert [t for t in range(sched.t_end + 1) if is_exploration_iteration(sched, t)] == [25, 50, 75]


def test_exploration_step_moves_expected_positions():
    w = np.array([[0.9, 0.01], [0.5, 0.0], [0.0, 0.8]])
    bits = np.array([[True, True], [True, False], [False, True]])
    t = EmbeddingTable(1, 2, 2, w * bits)
    mask = SparseMask(bits.copy(), target_sparsity=1 - 4 / 6)
    t.follow(mask)
    grad = np.array([[0.0, 0.0], [0.0, 0.3], [0.9, 0.0]])
    sched = ExplorationSchedule(0.5, 10, 100, "none")
    calls = []

    def grad_fn():
        calls.append(1)
        return grad

    event = exploration_step(t, mask, sched, 10, grad_fn)
    # floor(0.5 * 4) = 2 smallest |w| among active: 0.01 (pos 1) and 0.5 (pos 2)
    assert event.pruned_positions.tolist() == [1, 2]
    # grows the two largest |grad| inactive positions outside the pruned set
    assert event.grown_positions.tolist() == [3, 4]
    assert len(calls) == 1
    assert mask.active_count == 4
    assert np.all(t.weights.ravel()[[1, 2]] == 0.0)
    assert np.all(t.weights.ravel()[[3, 4]] == 0.0)
    assert event.rho_t == 0.5
    assert event.sparsity_after == pytest.approx(1 - 4 / 6)


def test_exploration_step_budget_and_disjointness(rng):
    for trial in range(30):
        shape = (int(rng.integers(3, 10)), int(rng.integers(2, 8)))
        mask = init_mask(shape, 0.5, rng)
        t = EmbeddingTable(shape[0] // 2, shape[0] - shape[0] // 2, shape[1],
                           np.where(mask.bits, rng.normal(size=shape), 0.0))
        t.follow(mask)
        before_active = np.flatnonzero(mask.bits.ravel())
        sched = ExplorationSchedule(float(rng.uniform(0, 0.9)), 10, 100, "cosine")
        grad = rng.normal(size=shape)
        event = exploration_step(t, mask, sched, 10, lambda: grad)
        assert len(event.pruned_positions) == len(event.grown_positions)
        assert not set(event.pruned_positions) & set(event.grown_positions)
        assert set(event.pruned_positions) <= set(before_active)
        assert not set(event.grown_positions) & set(before_active)
        assert mask.active_count == len(before_active)
        assert np.all(t.weights.ravel()[event.pruned_positions] == 0.0)
        assert np.all(t.weights.ravel()[event.grown_positions] == 0.0)


def test_exploration_step_rho_zero_is_noop(rng):
    mask = init_mask((4, 3), 0.5, rng)
    t = EmbeddingTable(2, 2, 3, np.where(mask.bits, rng.normal(size=(4, 3)), 0.0))
    t.follow(mask)
    before = mask.bits.copy()
    sched = ExplorationSchedule(0.0, 10, 100)
    event = exploration_step(t, mask, sched, 10, lambda: np.ones((4, 3)))
    assert event.count == 0
    assert np.array_equal(mask.bits, before)


def test_exploration_step_rejects_nonfinite_gradient(rng):
    t = EmbeddingTable(2, 2, 2, rng.normal(size=(4, 2)))
    mask = init_mask((4, 2), 0.5, rng)
    t.follow(mask)
    sched = ExplorationSchedule(0.5, 10, 100, "none")
    grad = np.zeros((4, 2))
    grad[0, 1] = np.inf
    before = mask.bits.copy()
    with pytest.raises(FloatingPointError):
        exploration_step(t, mask, sched, 10, lambda: grad)
    # the bits move only once the growth set is known
    assert np.array_equal(mask.bits, before)
    assert mask.active_count == 4


def test_event_log_entry_counts_and_positions():
    ev_pruned = np.array([1, 5], dtype=np.int64)
    ev_grown = np.array([2, 7], dtype=np.int64)
    ev = ExplorationEvent(10, 0.25, ev_pruned, ev_grown, 0.5)
    # the log holds counts; the positions stay on the event, in memory
    assert ev.log_entry() == {"t": 10, "rho_t": 0.25, "pruned": 2, "grown": 2,
                              "sparsity_after": 0.5}
    assert ev.pruned_positions.tolist() == [1, 5]
    assert ev.grown_positions.tolist() == [2, 7]


def _raise_non_finite_loss():
    raise FloatingPointError("non-finite loss")


@pytest.mark.parametrize("sparsity, grad_fn, error, message", [
    (0.5, _raise_non_finite_loss, FloatingPointError, "non-finite loss"),
    (0.5, lambda: np.full((4, 2), np.inf), FloatingPointError,
     "non-finite growth gradient at position (0, 0)"),
    # 7 of 8 entries active: the event prunes 3 and finds 1 to grow
    (0.125, lambda: np.ones((4, 2)), ValueError, "cannot grow 3 entries, only 1 eligible"),
    # all active, so the table is laid out on no bits of its own
    (0.0, lambda: np.ones((4, 2)), ValueError, "cannot grow 4 entries, only 0 eligible"),
])
def test_an_aborted_exploration_event_leaves_the_table_as_it_was(rng, sparsity, grad_fn, error,
                                                                 message):
    t = EmbeddingTable(2, 2, 2, rng.normal(size=(4, 2)))
    mask = init_mask((4, 2), sparsity, rng)
    t.follow(mask)
    values, bits = t.values.copy(), mask.bits.copy()
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        exploration_step(t, mask, ExplorationSchedule(0.5, 10, 100, "none"), 10, grad_fn)
    assert np.array_equal(t.values, values)
    assert np.array_equal(mask.bits, bits)


@pytest.mark.parametrize("rho_t", [-0.1, 1.5])
def test_select_prune_rejects_a_ratio_outside_zero_to_one(rng, rho_t):
    t = EmbeddingTable(2, 2, 2, rng.normal(size=(4, 2)))
    with pytest.raises(ValueError, match=f"^{re.escape(f'rho_t must be in [0, 1], got {rho_t}')}$"):
        select_prune(t, SparseMask(np.ones((4, 2), dtype=bool)), rho_t)


def test_one_shot_prune_that_keeps_nothing_is_rejected():
    # 2 entries at s = 0.9 keep round(0.2) = 0
    t = EmbeddingTable(1, 1, 1, np.array([[1.0], [2.0]]))
    with pytest.raises(ValueError, match="^sparsity 0.9 keeps no entries$"):
        one_shot_magnitude_prune(t, 0.9)
