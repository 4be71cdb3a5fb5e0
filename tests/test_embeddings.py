import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sparsecf.costs import memory_bytes
from sparsecf.embeddings import (EmbeddingTable, INIT_SCALE, OptimizerState, SparseMask,
                                 apply_mask, init_mask, init_table, load_checkpoint, masked_step,
                                 save_checkpoint, target_active_count)
from sparsecf.sparsifier import ExplorationSchedule, exploration_step, one_shot_magnitude_prune
from sparsecf.trainer import RunConfig, train


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
    t = init_table(50, 70, 8, rng)
    assert t.weights.shape == (120, 8)
    assert abs(t.weights.std() - INIT_SCALE) < 0.2 * INIT_SCALE


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


def test_weights_are_a_read_only_view_of_the_values(rng):
    t = table_of(rng.normal(size=(6, 4)))
    # all active: the dense table is the values, with no copy
    assert np.shares_memory(t.weights, t.values)
    with pytest.raises(ValueError, match="read-only"):
        t.weights[0, 0] = 1.0
    mask = init_mask((6, 4), 0.75, rng)
    t.follow(mask)
    assert t.values.shape == (mask.active_count,)
    with pytest.raises(ValueError, match="read-only"):
        t.weights[mask.bits] = 1.0
    # the one writable array is the values; a write there shows in weights
    t.values[0] = 5.0
    assert t.weights.reshape(-1)[np.flatnonzero(mask.bits)[0]] == 5.0


def test_steps_need_the_table_laid_out_on_their_mask(rng):
    t = table_of(rng.normal(size=(6, 4)))
    mask = init_mask((6, 4), 0.5, rng)
    with pytest.raises(ValueError, match="not laid out on this mask"):
        masked_step(t, np.zeros((6, 4)), mask, OptimizerState("sgd", 0.1))
    with pytest.raises(ValueError, match="not laid out on this mask"):
        exploration_step(t, mask, ExplorationSchedule(0.5, 10, 100), 10, lambda: np.ones((6, 4)))
    t.follow(mask)
    masked_step(t, np.zeros((6, 4)), mask, OptimizerState("sgd", 0.1))
    # a move of the mask leaves the table behind until it follows
    active, inactive = np.flatnonzero(mask.bits), np.flatnonzero(~mask.bits)
    mask.move(active[:1], inactive[:1])
    with pytest.raises(ValueError, match="not laid out on this mask"):
        masked_step(t, np.zeros((6, 4)), mask, OptimizerState("sgd", 0.1))
    with pytest.raises(ValueError, match=r"mask shape \(4, 6\) != table shape \(6, 4\)"):
        t.follow(SparseMask(np.ones((4, 6), dtype=bool)))


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(min_value=2, max_value=30),
    dim=st.integers(min_value=1, max_value=8),
    ops=st.lists(st.sampled_from(["move", "install", "omp", "dense", "step"]),
                 min_size=1, max_size=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_table_follows_every_move_of_its_mask(tmp_path_factory, rows, dim, ops, seed):
    # the dense reference: kept entries unchanged, pruned and grown ones zero
    rng = np.random.default_rng(seed)
    shape, total = (rows, dim), rows * dim
    ref = rng.normal(size=shape)
    t = table_of(ref)
    mask = SparseMask(np.ones(shape, dtype=bool))
    for op in ops:
        if op == "step":
            g = rng.normal(size=shape)
            masked_step(t, g, mask, OptimizerState("sgd", 0.1))
            ref[mask.bits] -= 0.1 * g[mask.bits]
        else:
            if op == "move":
                active, inactive = np.flatnonzero(mask.bits), np.flatnonzero(~mask.bits)
                k = int(rng.integers(0, min(len(active), len(inactive)) + 1))
                mask.move(np.sort(rng.choice(active, k, replace=False)),
                          np.sort(rng.choice(inactive, k, replace=False)))
            elif op == "install":
                bits = np.zeros(total, dtype=bool)
                bits[rng.choice(total, int(rng.integers(1, total + 1)), replace=False)] = True
                mask = SparseMask(bits.reshape(shape))
            elif op == "omp":
                mask = one_shot_magnitude_prune(t, float(rng.uniform(0.0, 1.0 - 1.0 / total)))
            else:
                mask = SparseMask(np.ones(shape, dtype=bool))
            t.follow(mask)
            ref = np.where(mask.bits, ref, 0.0)
        assert t.weights.tobytes() == ref.tobytes()
        assert t.values.shape == (mask.active_count,)
    path = tmp_path_factory.mktemp("ckpt") / "table"
    save_checkpoint(path, t, mask)
    t2, m2 = load_checkpoint(path)
    assert t2.values.tobytes() == t.values.tobytes()
    assert np.array_equal(m2.bits, mask.bits)
    assert t2.weights.tobytes() == ref.tobytes()


def test_a_trained_table_stores_one_value_per_active_entry(small_split):
    cfg = RunConfig(method="dsl", sparsity=0.9, dim=8, t_end=30, delta_t=10, batch_size=32)
    art = train(cfg, small_split)
    active = art.mask.active_count
    assert active == target_active_count(art.mask.total, 0.9)
    # the table's only float storage is its values: 8 bytes per active entry
    floats = [a.nbytes for a in vars(art.table).values()
              if isinstance(a, np.ndarray) and a.dtype.kind == "f"]
    assert floats == [8 * active]
    # ... and the values own their memory, so no dense array stays alive behind them
    assert art.table.values.base is None


def test_load_checkpoint_never_holds_the_dense_table(tmp_path, rng):
    # the desk shape (943 users, 1682 items, d = 64) at s = 0.9, Elias-Fano coded
    t = init_table(943, 1682, 64, rng)
    dense_bytes = 8 * t.total_entries
    assert dense_bytes == 1_344_000
    mask = init_mask(t.shape, 0.9, rng)
    t.follow(mask)
    save_checkpoint(tmp_path / "ckpt", t, mask)
    tracemalloc.start()
    try:
        t2, m2 = load_checkpoint(tmp_path / "ckpt")
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert t2.values.nbytes == 8 * mask.active_count == 134_400
    # held: the values and the bool mask; the peak stays below a quarter of dense
    assert held >= t2.values.nbytes + m2.bits.nbytes
    assert peak < dense_bytes // 4
    assert t2.values.tobytes() == t.values.tobytes()


def test_masked_step_sgd_arithmetic():
    bits = np.array([[True, False], [True, True]])
    t = table_of(np.where(bits, 1.0, 0.0))
    grad = np.full((2, 2), 2.0)
    mask = SparseMask(bits)
    t.follow(mask)
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


def test_masked_step_adam_moments_carry_across_move(rng):
    shape = (6, 4)
    mask = init_mask(shape, 0.5, rng)
    t = table_of(np.where(mask.bits, rng.normal(size=shape), 0.0))
    t.follow(mask)
    opt = OptimizerState("adam", lr=0.01)
    b1, b2 = opt.beta1, opt.beta2
    moves = (2, 3, 5)
    for step in range(7):
        if step in moves:
            # moments by flat position, read through the mask's row-major order
            active = np.flatnonzero(mask.bits)
            before = dict(zip(active.tolist(), zip(opt.m.tolist(), opt.v.tolist())))
            pruned = np.sort(rng.choice(active, 3, replace=False))
            grown = np.sort(rng.choice(np.flatnonzero(~mask.bits), 3, replace=False))
            mask.move(pruned, grown)
            t.follow(mask)
        g = rng.normal(size=shape)
        masked_step(t, g, mask, opt)
        assert len(opt.m) == len(opt.v) == mask.active_count
        assert np.all(t.weights[~mask.bits] == 0.0)
        if step in moves:
            flat_g = g.reshape(-1)
            for i, pos in enumerate(np.flatnonzero(mask.bits).tolist()):
                # kept entries carry their moments bitwise; grown ones start at zero
                m0, v0 = before[pos] if pos not in grown else (0.0, 0.0)
                assert opt.m[i] == m0 * b1 + (1.0 - b1) * flat_g[pos]
                assert opt.v[i] == v0 * b2 + ((1.0 - b2) * flat_g[pos]) * flat_g[pos]


def test_masked_step_adam_moments_carry_across_all_active_move(rng):
    # dsl at s=0 with rho0=0: each exploration event moves nothing, but the
    # mask still swaps its cached slice(None) for a new one
    t = table_of(rng.normal(size=(3, 4)))
    mask = SparseMask(np.ones((3, 4), dtype=bool))
    opt = OptimizerState("adam", lr=0.01)
    masked_step(t, rng.normal(size=(3, 4)), mask, opt)
    m, v = opt.m.copy(), opt.v.copy()
    mask.move(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    g = rng.normal(size=(3, 4)).reshape(-1)
    masked_step(t, g.reshape(3, 4), mask, opt)
    assert len(opt.m) == len(opt.v) == mask.active_count == 12
    assert np.array_equal(opt.m, m * opt.beta1 + (1.0 - opt.beta1) * g)
    assert np.array_equal(opt.v, v * opt.beta2 + ((1.0 - opt.beta2) * g) * g)


@pytest.mark.parametrize("kind", ["adam", "sgd"])
def test_masked_step_sparse_mask_matches_reference_on_active(rng, kind):
    shape = (6, 5)
    mask = init_mask(shape, 0.5, rng)
    active = mask.bits
    w0 = rng.normal(size=shape) * active
    grads = [rng.normal(size=shape) for _ in range(5)]
    zero_at = tuple(np.argwhere(active)[0])
    grads[2][zero_at] = 0.0
    t = table_of(w0)
    t.follow(mask)
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
        # the moments are stored for the active entries alone, in row-major order
        assert np.array_equal(opt.m, m)
        assert np.array_equal(opt.v, v)


def test_masked_step_rejects_nonfinite_grad(rng):
    t = table_of(rng.normal(size=(3, 3)))
    mask = SparseMask(np.ones((3, 3), dtype=bool))
    grad = np.zeros((3, 3))
    grad[1, 2] = np.nan
    with pytest.raises(FloatingPointError, match=r"\(1, 2\)"):
        masked_step(t, grad, mask, OptimizerState("sgd", 0.1))


def test_optimizer_state_validation():
    # the owner's message names the RunConfig field it checks
    with pytest.raises(ValueError, match="optimizer must be 'sgd' or 'adam', got 'rmsprop'"):
        OptimizerState("rmsprop", 1.0)
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
    mask = init_mask((8, 6), sparsity, rng)
    t = table_of(np.where(mask.bits, rng.normal(size=(8, 6)), 0.0))
    t.follow(mask)
    opt = OptimizerState(kind, 0.05)
    count = mask.active_count
    for _ in range(steps):
        masked_step(t, rng.normal(size=(8, 6)), mask, opt)
        assert mask.active_count == count
        assert np.max(np.abs(t.weights[~mask.bits]), initial=0.0) == 0.0


def test_checkpoint_round_trip_exact(tmp_path, rng):
    weights = rng.normal(size=(7, 5)) * np.exp(rng.normal(size=(7, 5)) * 10)
    mask = init_mask((7, 5), 0.4, rng)
    t = table_of(np.where(mask.bits, weights, 0.0), num_users=3)
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
    # a header field missing, of the wrong type or out of range fails naming the file
    good = {"format": "sparse-embedding-v2", "num_users": 2, "num_items": 3, "dim": 4,
            "sparsity": 0.5}
    missing = object()
    for key, value in (("num_users", missing), ("num_users", -3), ("num_items", 0),
                       ("dim", 2.0), ("dim", "4"), ("dim", True), ("sparsity", missing),
                       ("sparsity", "x"), ("sparsity", 7.5), ("sparsity", 1), ("sparsity", -0.1),
                       ("sparsity", None), ("sparsity", True), ("sparsity", float("nan")),
                       ("mask", "bitset"), ("mask", None)):
        header = dict(good)
        if value is missing:
            del header[key]
        else:
            header[key] = value
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(20))
        with pytest.raises(ValueError, match=key) as exc_info:
            load_checkpoint(path)
        assert str(path) in str(exc_info.value)


def test_checkpoint_rejects_a_sparsity_its_mask_contradicts(tmp_path, rng):
    mask = init_mask((20, 6), 0.5, rng)
    t = table_of(np.where(mask.bits, rng.normal(size=(20, 6)), 0.0))
    path = tmp_path / "ckpt"
    save_checkpoint(path, t, mask)
    head, body = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    header["sparsity"] = 0.9
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)
    with pytest.raises(ValueError, match="12 active of 120 entries, the mask has 60$") as exc_info:
        load_checkpoint(path)
    assert str(path) in str(exc_info.value)


def test_checkpoint_size_is_modelled_memory_plus_header(tmp_path, rng):
    mask = init_mask((9, 7), 0.6, rng)
    t = table_of(np.where(mask.bits, rng.normal(size=(9, 7)), 0.0), num_users=4)
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


def test_checkpoint_rejects_nonzero_bitset_padding(tmp_path, rng):
    # 9 of 15 entries active: a 2-byte bitset whose bit 15 is padding
    mask = init_mask((5, 3), 0.4, rng)
    path = tmp_path / "ckpt"
    save_checkpoint(path, table_of(np.where(mask.bits, rng.normal(size=(5, 3)), 0.0)), mask)
    head, body = path.read_bytes().split(b"\n", 1)
    assert "mask" not in json.loads(head) and len(body) == 2 + 8 * 9
    body = bytearray(body)
    body[15 // 8] ^= 0x80 >> (15 % 8)
    path.write_bytes(head + b"\n" + bytes(body))
    with pytest.raises(ValueError, match="nonzero padding bits") as exc_info:
        load_checkpoint(path)
    assert str(path) in str(exc_info.value)


@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(min_value=2, max_value=40),
    dim=st.integers(min_value=1, max_value=9),
    budget=st.one_of(st.sampled_from([0.0, 0.5, 0.75, 0.8, 0.9, 0.99, "one", "all but one"]),
                     st.floats(min_value=0.0, max_value=0.999)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(rows=13, dim=5, budget=0.9, seed=0)
@example(rows=11, dim=3, budget="one", seed=1)
@example(rows=11, dim=3, budget="all but one", seed=2)
@example(rows=17, dim=1, budget=0.75, seed=3)  # 4 of 17 active: Elias-Fano, 2 bytes against 3
def test_checkpoint_round_trip_at_any_budget(tmp_path_factory, rows, dim, budget, seed):
    rng = np.random.default_rng(seed)
    total = rows * dim
    if isinstance(budget, str):
        active, sparsity = (1 if budget == "one" else total - 1), None
    else:
        active, sparsity = target_active_count(total, budget), budget
    assume(active >= 1)
    bits = np.zeros(total, dtype=bool)
    bits[rng.choice(total, active, replace=False)] = True
    mask = SparseMask(bits.reshape(rows, dim), target_sparsity=sparsity)
    weights = rng.normal(size=(rows, dim)) * np.exp(rng.normal(size=(rows, dim)) * 10)
    t = table_of(np.where(mask.bits, weights, 0.0))
    out = tmp_path_factory.mktemp("ckpt")
    save_checkpoint(out / "a", t, mask)
    save_checkpoint(out / "b", t, mask)
    data = (out / "a").read_bytes()
    assert data == (out / "b").read_bytes()
    head = data.split(b"\n", 1)[0]
    header = json.loads(head)
    assert len(data) == memory_bytes(active, total) + len(head) + 1
    elias_fano = memory_bytes(active, total) < 8 * active + -(-total // 8)
    assert ("mask" in header) == elias_fano
    # the bitset form, which every file without the "mask" key has, loads at
    # any budget, and is what the writer makes wherever Elias-Fano is no smaller
    header.pop("mask", None)
    bitset = (json.dumps(header, sort_keys=True).encode() + b"\n" + np.packbits(bits).tobytes()
              + t.weights.reshape(-1)[bits].astype("<f8").tobytes())
    assert (bitset == data) != elias_fano
    (out / "bitset").write_bytes(bitset)
    for path in (out / "a", out / "bitset"):
        t2, m2 = load_checkpoint(path)
        assert t2.weights.tobytes() == t.weights.tobytes()
        assert np.array_equal(m2.bits, mask.bits)
        assert m2.target_sparsity == header["sparsity"]


def _elias_fano_file(path, rng):
    """An Elias-Fano checkpoint of 12 active of 117 entries (s = 0.9), at flat
    positions 8k + 5: l = 3, a 5-byte low part holding 36 bits, and a 4-byte
    high part holding 26 bits, with its ones at 2k."""
    shape = (13, 9)
    bits = np.zeros(117, dtype=bool)
    bits[8 * np.arange(12) + 5] = True
    mask = SparseMask(bits.reshape(shape), target_sparsity=0.9)
    save_checkpoint(path, table_of(np.where(mask.bits, rng.normal(size=shape), 0.0)), mask)
    head, body = path.read_bytes().split(b"\n", 1)
    assert json.loads(head)["mask"] == "elias-fano" and len(body) == 5 + 4 + 8 * 12
    return head, bytearray(body)


def _flip(body, high_bit=None, low_bit=None):
    """Toggle one bit of the high part or of the low part, in np.packbits order."""
    bit = low_bit if high_bit is None else 5 * 8 + high_bit
    body[bit // 8] ^= 0x80 >> (bit % 8)
    return body


@pytest.mark.parametrize("corrupt, match", [
    (lambda head, body: (head, _flip(body, low_bit=39)), "nonzero padding bits"),
    (lambda head, body: (head, _flip(body, high_bit=31)), "nonzero padding bits"),
    # the second position's high one moves down a bit: it repeats position 5
    (lambda head, body: (head, _flip(_flip(body, high_bit=2), high_bit=1)), "strictly increasing"),
    # the last position's high one moves to the end: 14 * 8 + 5 = 117
    (lambda head, body: (head, _flip(_flip(body, high_bit=22), high_bit=25)),
     "strictly increasing below 117$"),
    (lambda head, body: (head, _flip(body, high_bit=1)), "12 active of 117 entries, the mask has 13$"),
    (lambda head, body: (head, body[:-1]), "body is 104 bytes, expected 105"),
    (lambda head, body: (head, body + b"\0"), "body is 106 bytes, expected 105"),
    (lambda head, body: (head.replace(b"elias-fano", b"elias-gamma"), body), "mask must be"),
], ids=["low padding", "high padding", "repeated position", "position at the total",
        "popcount", "truncated", "extended", "unknown mask"])
def test_checkpoint_rejects_a_corrupt_elias_fano_mask(tmp_path, rng, corrupt, match):
    path = tmp_path / "ckpt"
    head, body = corrupt(*_elias_fano_file(path, rng))
    path.write_bytes(head + b"\n" + bytes(body))
    with pytest.raises(ValueError, match=match) as exc_info:
        load_checkpoint(path)
    assert str(path) in str(exc_info.value)
