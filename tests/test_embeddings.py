import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecf import (
    EmbeddingTable,
    OptimizerState,
    SparseMask,
    apply_mask,
    init_mask,
    init_table,
    load_checkpoint,
    masked_step,
    memory_bytes,
    save_checkpoint,
    target_active_count,
)


def table_of(weights, num_users=None):
    weights = np.asarray(weights, dtype=np.float64)
    n = num_users if num_users is not None else weights.shape[0] // 2
    return EmbeddingTable(n, weights.shape[0] - n, weights.shape[1], weights)


def test_init_mask_counts(rng):
    assert init_mask((100, 8), 0.5, rng).active_count == 400
    assert init_mask((100, 8), 0.0, rng).active_count == 800
    # round half to even: 10 * 0.67 = 6.7 -> 7
    assert init_mask((5, 2), 0.33, rng).active_count == 7


def test_budget_rounding_half_to_even():
    assert target_active_count(10, 0.35) == 6  # round(6.5)
    assert target_active_count(10, 0.25) == 8  # round(7.5)
    assert target_active_count(10, 0.0) == 10


def test_init_mask_rejects_bad_sparsity(rng):
    for s in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            init_mask((4, 4), s, rng)


def test_init_mask_seeds_differ():
    differing = 0
    for seed in range(100):
        a = init_mask((25, 4), 0.5, np.random.default_rng(seed))
        b = init_mask((25, 4), 0.5, np.random.default_rng(seed + 1000))
        if not np.array_equal(a.bits, b.bits):
            differing += 1
    assert differing >= 99


def test_mask_bits_change_only_through_move(rng):
    mask = init_mask((4, 3), 0.5, rng)
    with pytest.raises(ValueError, match="read-only"):
        mask.bits[0, 0] = False
    before = mask.bits
    active, inactive = np.flatnonzero(before), np.flatnonzero(~before)
    mask.move(active[:2], inactive[:2])
    want = before.copy().ravel()
    want[active[:2]] = False
    want[inactive[:2]] = True
    assert np.array_equal(mask.bits.ravel(), want)
    assert mask.active_count == 6
    assert np.array_equal(mask._active_index(), np.flatnonzero(want))
    with pytest.raises(ValueError, match="read-only"):
        mask.bits[0, 0] = True
    assert SparseMask(np.ones((4, 3), dtype=bool)).active_count == 12


def test_init_table_shape_and_scale(rng):
    t = init_table(50, 70, 8, rng, scale=0.01)
    assert t.weights.shape == (120, 8)
    assert abs(t.weights.std() - 0.01) < 0.002


def test_apply_mask_identity_and_idempotence(rng):
    t = table_of(rng.normal(size=(10, 4)))
    all_on = SparseMask(np.ones((10, 4), dtype=bool))
    assert np.array_equal(apply_mask(t, all_on), t.weights)
    m = init_mask((10, 4), 0.5, rng)
    once = apply_mask(t, m)
    twice = apply_mask(table_of(once), m)
    assert np.array_equal(once, twice)
    assert np.all(once[~m.bits] == 0.0)
    assert np.count_nonzero(apply_mask(table_of(np.ones((10, 4))), m)) == m.active_count


def test_masked_step_sgd_arithmetic():
    t = table_of(np.full((2, 2), 1.0))
    bits = np.array([[True, False], [True, True]])
    grad = np.full((2, 2), 2.0)
    mask = SparseMask(bits)
    t.weights[~bits] = 0.0
    masked_step(t, grad, mask, OptimizerState("sgd", 0.1))
    assert t.weights[0, 0] == pytest.approx(0.8)
    assert t.weights[0, 1] == 0.0


def test_masked_step_zero_grad_is_fixed_point():
    t = table_of(np.arange(6.0).reshape(3, 2))
    mask = SparseMask(np.ones((3, 2), dtype=bool))
    before = t.weights.copy()
    masked_step(t, np.zeros((3, 2)), mask, OptimizerState("sgd", 0.5))
    assert np.array_equal(t.weights, before)


def test_masked_step_adam_matches_manual(rng):
    w0 = rng.normal(size=(4, 3))
    grads = [rng.normal(size=(4, 3)) for _ in range(5)]
    t = table_of(w0.copy())
    mask = SparseMask(np.ones((4, 3), dtype=bool))
    opt = OptimizerState("adam", lr=0.01)
    for g in grads:
        masked_step(t, g, mask, opt)

    # reference adam, no mask involved
    b1, b2 = 0.9, 0.999
    w = w0.copy()
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    for step, g in enumerate(grads, start=1):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**step)
        v_hat = v / (1.0 - b2**step)
        w -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
    # an all-active mask multiplies by 1.0 everywhere, which is exact
    assert np.array_equal(t.weights, w)


def test_masked_step_adam_moments_stay_zero_inactive(rng):
    t = table_of(rng.normal(size=(6, 4)))
    mask = init_mask((6, 4), 0.5, rng)
    t.weights[~mask.bits] = 0.0
    opt = OptimizerState("adam", lr=0.01)
    for _ in range(3):
        masked_step(t, rng.normal(size=(6, 4)), mask, opt)
    assert np.all(t.weights[~mask.bits] == 0.0)
    assert np.all(opt.m[~mask.bits] == 0.0)
    assert np.all(opt.v[~mask.bits] == 0.0)


@pytest.mark.parametrize("kind", ["adam", "sgd"])
def test_masked_step_sparse_mask_matches_reference_on_active(rng, kind):
    shape = (6, 5)
    mask = init_mask(shape, 0.5, rng)
    active = mask.bits
    w0 = rng.normal(size=shape) * active
    grads = [rng.normal(size=shape) for _ in range(5)]
    zero_at = tuple(np.argwhere(active)[0])
    grads[2][zero_at] = 0.0
    t = table_of(w0.copy())
    opt = OptimizerState(kind, lr=0.01)
    for g in grads[:2]:
        masked_step(t, g, mask, opt)
    before = t.weights[zero_at]
    masked_step(t, grads[2], mask, opt)
    moved = t.weights[zero_at] != before
    for g in grads[3:]:
        masked_step(t, g, mask, opt)

    # reference on the active entries alone, dense adam: every moment
    # decays on every step, also where the gradient is zero
    b1, b2 = 0.9, 0.999
    w = w0[active]
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    for step, g in enumerate(grads, start=1):
        g = g[active]
        if kind == "sgd":
            w -= 0.01 * g
            continue
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**step)
        v_hat = v / (1.0 - b2**step)
        w -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.array_equal(t.weights[active], w)
    assert np.all(t.weights[~active] == 0.0)
    # adam still moves the entry through its decaying first moment; sgd
    # leaves it where it was
    assert moved == (kind == "adam")
    if kind == "adam":
        assert np.array_equal(opt.m[active], m)
        assert np.array_equal(opt.v[active], v)
        assert np.all(opt.m[~active] == 0.0)
        assert np.all(opt.v[~active] == 0.0)


def test_masked_step_rejects_nonfinite_grad(rng):
    t = table_of(rng.normal(size=(3, 3)))
    mask = SparseMask(np.ones((3, 3), dtype=bool))
    grad = np.zeros((3, 3))
    grad[1, 2] = np.nan
    with pytest.raises(FloatingPointError, match=r"\(1, 2\)"):
        masked_step(t, grad, mask, OptimizerState("sgd", 0.1))


def test_optimizer_state_validation():
    with pytest.raises(ValueError):
        OptimizerState("rmsprop", 0.1)
    with pytest.raises(ValueError):
        OptimizerState("sgd", 0.0)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    sparsity=st.floats(min_value=0.0, max_value=0.9),
    steps=st.integers(min_value=1, max_value=5),
    kind=st.sampled_from(["sgd", "adam"]),
)
def test_masked_step_preserves_popcount_and_zeros(seed, sparsity, steps, kind):
    rng = np.random.default_rng(seed)
    t = table_of(rng.normal(size=(8, 6)))
    mask = init_mask((8, 6), sparsity, rng)
    t.weights[~mask.bits] = 0.0
    opt = OptimizerState(kind, 0.05)
    count = mask.active_count
    for _ in range(steps):
        masked_step(t, rng.normal(size=(8, 6)), mask, opt)
        assert mask.active_count == count
        assert np.max(np.abs(t.weights[~mask.bits]), initial=0.0) == 0.0


def test_checkpoint_round_trip_exact(tmp_path, rng):
    t = table_of(rng.normal(size=(7, 5)) * np.exp(rng.normal(size=(7, 5)) * 10), num_users=3)
    mask = init_mask((7, 5), 0.4, rng)
    t.weights[~mask.bits] = 0.0
    path = tmp_path / "ckpt"
    save_checkpoint(path, t, mask)
    t2, m2 = load_checkpoint(path)
    assert (t2.num_users, t2.num_items, t2.dim) == (3, 4, 5)
    assert np.array_equal(t2.weights, t.weights)
    assert np.array_equal(m2.bits, mask.bits)
    assert m2.target_sparsity == mask.target_sparsity


def test_checkpoint_bytes_deterministic(tmp_path, rng):
    t = table_of(rng.normal(size=(6, 4)))
    mask = init_mask((6, 4), 0.5, rng)
    save_checkpoint(tmp_path / "a", t, mask)
    save_checkpoint(tmp_path / "b", t, mask)
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


def test_checkpoint_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad"
    path.write_text('{"format": "other", "active": []}')
    with pytest.raises(ValueError, match="format"):
        load_checkpoint(path)
    # a header field missing or out of range fails naming the file
    good = {"format": "sparse-embedding-v2", "num_users": 2, "num_items": 3, "dim": 4,
            "sparsity": 0.5}
    for key, value in (("num_users", None), ("num_users", -3), ("num_items", 0),
                       ("dim", 2.0), ("dim", "4"), ("dim", True), ("sparsity", None)):
        header = dict(good)
        if value is None:
            del header[key]
        else:
            header[key] = value
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(20))
        with pytest.raises(ValueError, match=key) as exc_info:
            load_checkpoint(path)
        assert str(path) in str(exc_info.value)


def test_checkpoint_size_is_modelled_memory_plus_header(tmp_path, rng):
    t = table_of(rng.normal(size=(9, 7)), num_users=4)
    mask = init_mask((9, 7), 0.6, rng)
    t.weights[~mask.bits] = 0.0
    path = tmp_path / "ckpt"
    save_checkpoint(path, t, mask)
    data = path.read_bytes()
    header = data.split(b"\n", 1)[0] + b"\n"
    assert len(data) == memory_bytes(mask.active_count, mask.total) + len(header)


def test_checkpoint_rejects_truncated_file(tmp_path, rng):
    t = table_of(rng.normal(size=(6, 4)))
    mask = init_mask((6, 4), 0.5, rng)
    path = tmp_path / "ckpt"
    save_checkpoint(path, t, mask)
    data = path.read_bytes()
    header_len = data.index(b"\n") + 1
    for cut in (1, 8, len(data) - header_len):
        path.write_bytes(data[:-cut])
        with pytest.raises(ValueError, match="bytes"):
            load_checkpoint(path)
    path.write_bytes(data + b"\0")
    with pytest.raises(ValueError, match="bytes"):
        load_checkpoint(path)
