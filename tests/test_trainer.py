import json
from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from sparsecf.costs import macs_forward_batch, macs_training, memory_bytes
from sparsecf.data import _split_digest, sample_batch, split_holdout
from sparsecf.embeddings import (EmbeddingTable, OptimizerState, SparseMask, init_mask, init_table,
                                 load_checkpoint, masked_step, target_active_count)
from sparsecf.models import (BackboneConfig, bpr_loss_and_grad, combined_embeddings,
                             lightgcn_propagate)
from sparsecf.sparsifier import (ExplorationSchedule, exploration_step, is_exploration_iteration,
                                 one_shot_magnitude_prune, select_grow, select_prune,
                                 update_ratio)
from sparsecf.synth import generate_interactions
from sparsecf.trainer import (METRICS_COLUMNS, RunConfig, TrainingAborted, config_digest, train,
                              write_csv)


def quick_cfg(**overrides):
    base = dict(
        method="dsl",
        backbone="mf",
        dim=8,
        sparsity=0.5,
        rho0=0.3,
        delta_t=15,
        t_end=60,
        lr=0.01,
        batch_size=32,
        seed=0,
    )
    base.update(overrides)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# config


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(method="lottery")
    with pytest.raises(ValueError):
        RunConfig(sparsity=1.0)
    with pytest.raises(ValueError):
        RunConfig(t_end=0)
    with pytest.raises(ValueError):
        RunConfig(batch_size=0)
    with pytest.raises(ValueError):
        RunConfig(eval_every=0)
    with pytest.raises(ValueError, match="eval_k"):
        RunConfig(eval_k=0)
    # the exploration fields are checked for every method, not only dsl
    for method in ("dsl", "rp", "dense", "omp"):
        with pytest.raises(ValueError, match="delta_t"):
            RunConfig(method=method, delta_t=0)
    with pytest.raises(ValueError, match="decay"):
        RunConfig(method="rp", decay="bogus")
    with pytest.raises(ValueError, match="rho0"):
        RunConfig(method="rp", rho0=5.0)
    # the owners' range rules, named by the RunConfig field
    for field, value in (("backbone", "gcn"), ("num_layers", -1), ("l2_reg", -1e-4),
                         ("optimizer", "rmsprop"), ("lr", 0.0), ("dim", 0), ("seed", -1)):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            RunConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("sparsity", "0.5"), ("lr", "0.01"), ("dim", "8"), ("dim", 8.0), ("seed", True),
    ("sparsity", False), ("method", 5), ("t_end", None), ("eval_every", 2.0), ("run_id", 3),
])
def test_run_config_rejects_a_wrong_type(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be of type "):
        RunConfig(**{field: value})


def test_run_config_types_take_int_for_float_and_none_for_optional():
    cfg = RunConfig(sparsity=0, lr=1, rho0=0, eval_every=None, run_id=None, data_dir=None)
    assert (cfg.sparsity, cfg.lr, cfg.eval_every) == (0, 1, None)


def test_run_id_is_stable_and_descriptive():
    cfg = quick_cfg(seed=3)
    rid = cfg.resolve_run_id()
    assert rid.startswith("dsl-s0.5-seed3-")
    assert rid == cfg.resolve_run_id()
    assert quick_cfg(seed=4).resolve_run_id() != rid
    assert quick_cfg(run_id="custom").resolve_run_id() == "custom"


def test_resolved_fills_defaults():
    cfg = quick_cfg(eval_every=None)
    res = cfg.resolved()
    assert res["eval_every"] == cfg.delta_t
    # config.json holds exactly the fields, for every method
    omp = quick_cfg(method="omp")
    assert set(omp.resolved()) == {f.name for f in fields(RunConfig)}


def test_dense_ignores_sparsity_field():
    cfg = quick_cfg(method="dense", sparsity=0.8)
    assert cfg.effective_sparsity == 0.0
    assert cfg.resolve_run_id().startswith("dense-s0-")


def test_write_metrics_csv_uses_repr(tmp_path):
    row = {c: 0 for c in METRICS_COLUMNS}
    row.update(run_id="r", recall=0.1, ndcg=1.0 / 3.0, hr=1.0, sparsity=0.5)
    write_csv(tmp_path / "m.csv", METRICS_COLUMNS, [row])
    lines = (tmp_path / "m.csv").read_text().splitlines()
    assert lines[0] == ",".join(METRICS_COLUMNS)
    fields = dict(zip(METRICS_COLUMNS, lines[1].split(",")))
    assert fields["recall"] == "0.1"
    assert fields["ndcg"] == repr(1.0 / 3.0)


# ---------------------------------------------------------------------------
# the training loop against a hand-rolled reference


def test_dense_training_matches_unmasked_reference(small_split):
    ds = small_split
    cfg = quick_cfg(method="dense", t_end=25, eval_every=25)
    art = train(cfg, ds)

    ss = np.random.SeedSequence(cfg.seed)
    table_ss, _, batch_ss = ss.spawn(3)
    table = init_table(ds.num_users, ds.num_items, cfg.dim, np.random.default_rng(table_ss))
    batch_rng = np.random.default_rng(batch_ss)
    bb = BackboneConfig(cfg.backbone, cfg.num_layers, cfg.l2_reg, None)
    ones = SparseMask(np.ones_like(table.weights, dtype=bool))
    opt = OptimizerState(cfg.optimizer, cfg.lr)
    losses = []
    for t in range(1, cfg.t_end + 1):
        batch = sample_batch(ds, cfg.batch_size, batch_rng)
        loss, grad = bpr_loss_and_grad(bb, table, batch)
        masked_step(table, grad, ones, opt)
        losses.append((t, loss))

    assert np.array_equal(art.table.weights, table.weights)
    assert art.losses == losses
    assert art.mask.active_count == art.mask.total


def test_training_is_deterministic(tmp_path, small_split):
    cfg = quick_cfg(run_id="det")
    train(cfg, small_split, out_dir=tmp_path / "a")
    train(quick_cfg(run_id="det"), small_split, out_dir=tmp_path / "b")
    for name in ("metrics.csv", "exploration.jsonl", "checkpoint.final", "config.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_seed_changes_the_run(small_split):
    a = train(quick_cfg(seed=0), small_split)
    b = train(quick_cfg(seed=1), small_split)
    assert not np.array_equal(a.table.weights, b.table.weights)


# ---------------------------------------------------------------------------
# mask dynamics


@pytest.mark.parametrize("backbone", ["mf", "lightgcn"])
@pytest.mark.parametrize("method", ["dsl", "rp", "omp"])
def test_budget_constant_at_every_snapshot(small_split, method, backbone):
    # the loss and the evaluation read the table as stored, so inactive
    # entries must be exactly zero at every snapshot
    cfg = quick_cfg(method=method, backbone=backbone, num_layers=2, eval_every=5)
    total = (small_split.num_users + small_split.num_items) * cfg.dim
    target = target_active_count(total, cfg.sparsity)
    seen = []

    def hook(t, table, mask):
        seen.append(t)
        # omp trains dense for its first t_end iterations
        want = total if method == "omp" and t <= cfg.t_end else target
        assert mask.active_count == want
        assert np.all(table.weights[~mask.bits] == 0.0)

    art = train(cfg, small_split, snapshot_hook=hook)
    # omp fine-tunes for another t_end iterations
    last = 2 * cfg.t_end if method == "omp" else cfg.t_end
    assert seen and seen[-1] == last
    assert art.mask.active_count == target


def test_exploration_events_fire_on_schedule(small_split):
    cfg = quick_cfg(delta_t=15, t_end=60, rho0=0.3, decay="cosine")
    art = train(cfg, small_split)
    assert [e.t for e in art.events] == [15, 30, 45]
    rhos = [e.rho_t for e in art.events]
    assert rhos == sorted(rhos, reverse=True)
    assert all(e.count > 0 for e in art.events)
    assert all(e.sparsity_after == art.mask.sparsity for e in art.events)


def test_rho_zero_never_moves_the_mask(small_split):
    dsl = train(quick_cfg(rho0=0.0), small_split)
    rp = train(quick_cfg(method="rp"), small_split)
    assert sum(e.count for e in dsl.events) == 0
    assert np.array_equal(dsl.mask.bits, rp.mask.bits)


def test_dsl_with_interval_past_end_equals_rp(tmp_path, small_split):
    dsl_cfg = quick_cfg(method="dsl", delta_t=1000, t_end=60, run_id="same",
                        eval_every=20)
    rp_cfg = quick_cfg(method="rp", run_id="same", eval_every=20)
    train(dsl_cfg, small_split, out_dir=tmp_path / "dsl")
    train(rp_cfg, small_split, out_dir=tmp_path / "rp")
    for name in ("checkpoint.final", "metrics.csv", "exploration.jsonl"):
        assert (tmp_path / "dsl" / name).read_bytes() == (tmp_path / "rp" / name).read_bytes()


def test_loss_trends_down(small_split):
    art = train(quick_cfg(method="rp", t_end=150, lr=0.02), small_split)
    losses = [l for _, l in art.losses]
    assert np.mean(losses[:20]) > np.mean(losses[-20:])


# ---------------------------------------------------------------------------
# metrics and costs


def test_metric_rows_follow_eval_schedule(small_split):
    cfg = quick_cfg(eval_every=20, t_end=50)
    art = train(cfg, small_split)
    assert [r["iteration"] for r in art.metrics] == [20, 40, 50]
    for row in art.metrics:
        assert set(row) == set(METRICS_COLUMNS)
        assert row["sparsity"] == art.mask.sparsity
        assert row["k"] == cfg.eval_k
    cums = [r["macs_train_cum"] for r in art.metrics]
    assert cums == sorted(cums)


def test_cost_report_consistent_with_mac_model(small_split):
    cfg = quick_cfg()
    art = train(cfg, small_split)
    fwd = macs_forward_batch(cfg.backbone, cfg.dim, cfg.batch_size)
    learn_iters = cfg.t_end - len(art.events)
    want = macs_training(fwd, learn_iters, cfg.sparsity,
                         exploration_iterations=len(art.events))
    assert art.cost.macs_train == pytest.approx(want, rel=1e-12)
    assert art.cost.macs_infer == art.metrics[-1]["macs_infer"]
    assert art.cost.memory_bytes == memory_bytes(art.mask.active_count, art.mask.total)


def test_run_dir_contents(tmp_path, small_split):
    cfg = quick_cfg(run_id="rd", eval_every=30)
    art = train(cfg, small_split, out_dir=tmp_path / "run")
    out = tmp_path / "run"
    for name in ("config.json", "metrics.csv", "exploration.jsonl",
                 "checkpoint.final", "split_manifest.json"):
        assert (out / name).exists()
    config = json.loads((out / "config.json").read_text())
    assert config == art.config
    assert config["eval_every"] == 30
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == ",".join(METRICS_COLUMNS)
    assert len(lines) == 1 + len(art.metrics)
    events = [json.loads(l) for l in (out / "exploration.jsonl").read_text().splitlines()]
    assert events == [ev.log_entry() for ev in art.events]
    manifest = json.loads((out / "split_manifest.json").read_text())
    assert manifest["num_users"] == small_split.num_users
    assert manifest["test_edges"] == small_split.num_test
    table, mask = load_checkpoint(out / "checkpoint.final")
    assert np.array_equal(table.weights, art.table.weights)
    assert np.array_equal(mask.bits, art.mask.bits)


def test_complete_marker_holds_config_digest(tmp_path, small_split):
    art = train(quick_cfg(run_id="done"), small_split, out_dir=tmp_path / "run")
    marker = json.loads((tmp_path / "run" / "complete.json").read_text())
    assert marker == {"config_sha1": config_digest(art.config),
                      "split_sha1": _split_digest(small_split)}


def test_event_counts_logged_by_default(tmp_path, small_split):
    cfg = quick_cfg(run_id="counts")
    art = train(cfg, small_split, out_dir=tmp_path / "run")
    events = [json.loads(l)
              for l in (tmp_path / "run" / "exploration.jsonl").read_text().splitlines()]
    assert all(isinstance(e["pruned"], int) for e in events)
    assert [e["pruned"] for e in events] == [ev.count for ev in art.events]


# ---------------------------------------------------------------------------
# omp pipeline


def test_omp_prunes_exactly_the_dense_top_magnitudes(tmp_path, small_split):
    cfg = quick_cfg(method="omp", t_end=40, eval_every=20)
    art = train(cfg, small_split, out_dir=tmp_path / "omp")
    dense_table, _ = load_checkpoint(tmp_path / "omp" / "checkpoint.dense")
    want = one_shot_magnitude_prune(dense_table, cfg.sparsity)
    assert np.array_equal(art.mask.bits, want.bits)
    assert [r["iteration"] for r in art.metrics] == [20, 40, 60, 80]
    assert art.metrics[0]["sparsity"] == 0.0
    assert art.metrics[-1]["sparsity"] == art.mask.sparsity


def test_omp_mask_is_static_during_fine_tune(small_split):
    cfg = quick_cfg(method="omp", t_end=30, eval_every=10)
    snaps = []

    def hook(t, table, mask):
        if t > cfg.t_end:
            snaps.append(mask.bits.copy())

    art = train(cfg, small_split, snapshot_hook=hook)
    assert snaps
    for bits in snaps:
        assert np.array_equal(bits, art.mask.bits)
    assert not art.events


def test_omp_costs_more_than_its_dense_phase(small_split):
    dense = train(quick_cfg(method="dense", t_end=40), small_split)
    omp = train(quick_cfg(method="omp", t_end=40), small_split)
    assert omp.cost.macs_train > dense.cost.macs_train


# ---------------------------------------------------------------------------
# failure handling


@pytest.mark.parametrize("method", ["dense", "rp", "dsl", "omp"])
def test_diverging_run_aborts_and_keeps_artifacts(tmp_path, small_split, method):
    cfg = quick_cfg(method=method, optimizer="sgd", lr=1e100, t_end=20,
                    eval_every=1, run_id="boom")
    with pytest.raises(TrainingAborted) as exc_info:
        train(cfg, small_split, out_dir=tmp_path / "run")
    err = exc_info.value
    assert err.iteration == 2
    assert "non-finite" in str(err)
    out = tmp_path / "run"
    # omp aborts in its dense phase, before it keeps the dense table
    assert sorted(p.name for p in out.iterdir()) == [
        "checkpoint.final", "config.json", "exploration.jsonl", "metrics.csv",
        "split_manifest.json",
    ]
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == ",".join(METRICS_COLUMNS)
    # the rows logged before the abort are retained: one per iteration at eval_every=1
    assert len(lines) - 1 == err.iteration - 1


@pytest.fixture(scope="module")
def split_60x120():
    return split_holdout(generate_interactions(60, 120, avg_degree=12, min_degree=4, seed=5),
                         0.2, 1)


@pytest.mark.parametrize("sparsity, grow, inactive", [(0.0, 323, 0), (0.1, 291, 144)])
def test_dsl_without_room_to_grow_is_rejected_before_sampling(tmp_path, split_60x120, monkeypatch,
                                                              sparsity, grow, inactive):
    # 60 x 120 x 8 = 1440 entries; the first event, at iteration 100 of 300,
    # prunes and grows floor(0.225 * active)
    calls = []
    monkeypatch.setattr("sparsecf.trainer.sample_batch",
                        lambda *args: calls.append(args) or sample_batch(*args))
    cfg = quick_cfg(sparsity=sparsity, t_end=300, delta_t=100)
    message = (f"^dsl at sparsity {sparsity} and rho0 0.3 must grow {grow} entries "
               f"at iteration 100, but only {inactive} are inactive$")
    with pytest.raises(ValueError, match=message):
        train(cfg, split_60x120, out_dir=tmp_path / "run")
    assert calls == []
    assert not (tmp_path / "run").exists()


def test_dsl_with_room_to_grow_trains(split_60x120):
    # s = 0.2: the first event grows 259 of 288 inactive entries
    art = train(quick_cfg(sparsity=0.2, t_end=300, delta_t=100), split_60x120)
    assert [ev.count for ev in art.events] == [259, 86]


def test_run_aborted_at_exploration_keeps_the_budget(tmp_path, small_split):
    cfg = quick_cfg(optimizer="sgd", lr=1e200, delta_t=2, t_end=20, run_id="boom")
    with pytest.raises(TrainingAborted) as exc_info:
        train(cfg, small_split, out_dir=tmp_path / "run")
    assert is_exploration_iteration(cfg.schedule(), exc_info.value.iteration)
    table, mask = load_checkpoint(tmp_path / "run" / "checkpoint.final")
    assert mask.active_count == target_active_count(mask.total, cfg.sparsity)
    assert np.all(table.weights[~mask.bits] == 0.0)


# ---------------------------------------------------------------------------
# learning step against the reference


def bpr_loss_and_grad_reference(cfg, weights, num_users, batch):
    """BPR loss and dense gradient of a dense table as computed before the
    step gathered each row once: separate gathers per block, two
    concatenations and a CSR incidence matrix built from COO."""
    users = batch[:, 0]
    pos = batch[:, 1] + num_users
    neg = batch[:, 2] + num_users
    b = len(batch)
    combined = combined_embeddings(cfg, weights)
    e_u = combined[users]
    e_i = combined[pos]
    e_j = combined[neg]
    x = np.einsum("bd,bd->b", e_u, e_i - e_j)
    rank_terms = np.logaddexp(0.0, -x)
    base_u = weights[users]
    base_i = weights[pos]
    base_j = weights[neg]
    reg_terms = cfg.l2_reg * (
        np.einsum("bd,bd->b", base_u, base_u)
        + np.einsum("bd,bd->b", base_i, base_i)
        + np.einsum("bd,bd->b", base_j, base_j)
    )
    loss = float((rank_terms + reg_terms).mean())
    coeff = (-expit(-x) / b)[:, None]
    rows = np.concatenate([users, pos, neg])
    n = len(rows)
    inc = sp.csr_matrix((np.ones(n), (rows, np.arange(n))), shape=(len(weights), n))
    rank_vals = np.concatenate([coeff * (e_i - e_j), coeff * e_u, -coeff * e_u])
    reg_vals = (2.0 * cfg.l2_reg / b) * np.concatenate([base_u, base_i, base_j])
    if cfg.propagates():
        grad = lightgcn_propagate(cfg, inc @ rank_vals)
        grad += inc @ reg_vals
        return loss, grad
    return loss, inc @ (rank_vals + reg_vals)


def masked_step_reference(dense, grad, mask, opt):
    """One optimizer update of a dense table, in place, as computed before
    the mask cached its active index and the table held its active entries
    alone: the index is recomputed from the bits, and Adam runs out of place
    on moments over the full table, which the caller holds at zero wherever
    the mask is inactive."""
    idx = slice(None) if mask.active_count == mask.total else np.flatnonzero(mask.bits)
    weights = dense.reshape(-1)
    g = grad.reshape(-1)[idx]
    opt.step += 1
    if opt.kind == "sgd":
        weights[idx] -= opt.lr * g
        return
    if opt.m is None:
        opt.m = np.zeros(dense.shape)
        opt.v = np.zeros(dense.shape)
    m_flat = opt.m.reshape(-1)
    v_flat = opt.v.reshape(-1)
    m = opt.beta1 * m_flat[idx] + (1.0 - opt.beta1) * g
    v = opt.beta2 * v_flat[idx] + (1.0 - opt.beta2) * g * g
    m_flat[idx] = m
    v_flat[idx] = v
    m_hat = m / (1.0 - opt.beta1**opt.step)
    v_hat = v / (1.0 - opt.beta2**opt.step)
    weights[idx] -= opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)


def same_bits(a, b):
    """Bitwise equality, which also tells 0.0 from -0.0."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    backbone=st.sampled_from(["mf", "lightgcn"]),
    optimizer=st.sampled_from(["adam", "sgd"]),
    sparsity=st.sampled_from([0.0, 0.5, 0.8]),
    delta_t=st.integers(1, 4),
    steps=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
def test_learning_step_matches_reference(small_split, backbone, optimizer, sparsity,
                                         delta_t, steps, seed):
    ds = small_split
    rng = np.random.default_rng(seed)
    layers = 2 if backbone == "lightgcn" else 0
    bb = BackboneConfig.for_dataset(backbone, layers, ds, l2_reg=1e-2)
    table = EmbeddingTable(ds.num_users, ds.num_items, 8,
                           rng.normal(0.0, 0.1, size=(ds.num_users + ds.num_items, 8)))
    # the reference keeps a dense table of its own, zero wherever its mask is inactive
    ref_w = table.weights.copy()
    if sparsity:
        mask = init_mask(table.shape, sparsity, rng)
        table.follow(mask)
        ref_w[~mask.bits] = 0.0
    else:
        mask = SparseMask(np.ones(table.shape, dtype=bool))
    lr = 0.05 if optimizer == "adam" else 5.0
    ref_mask = SparseMask(mask.bits.copy())
    opt, ref_opt = OptimizerState(optimizer, lr), OptimizerState(optimizer, lr)
    sched = ExplorationSchedule(rho0=0.3, delta_t=delta_t, t_end=steps + 1, decay="none")
    for t in range(1, steps + 1):
        batch = sample_batch(ds, 64, rng)
        if sparsity and is_exploration_iteration(sched, t):
            event = exploration_step(table, mask, sched, t,
                                     lambda: bpr_loss_and_grad(bb, table, batch)[1])
            # the reference event on the dense table: zero what is pruned,
            # grow by the gradient of that table
            ref_table = EmbeddingTable(ds.num_users, ds.num_items, 8, ref_w)
            pruned = select_prune(ref_table, ref_mask, update_ratio(sched, t))
            ref_w.reshape(-1)[pruned] = 0.0
            ref_grad = bpr_loss_and_grad_reference(bb, ref_w, ds.num_users, batch)[1]
            grown = select_grow(ref_grad, ref_mask, len(pruned), exclude=pruned)
            ref_mask.move(pruned, grown)
            assert event.count > 0
            assert np.array_equal(event.pruned_positions, pruned)
            assert np.array_equal(event.grown_positions, grown)
            assert np.array_equal(mask.bits, ref_mask.bits)
            if ref_opt.m is not None:
                # pruned and regrown entries restart from a cold optimizer state
                moved = np.concatenate([pruned, grown])
                ref_opt.m.reshape(-1)[moved] = 0.0
                ref_opt.v.reshape(-1)[moved] = 0.0
        else:
            loss, grad = bpr_loss_and_grad(bb, table, batch)
            ref_loss, ref_grad = bpr_loss_and_grad_reference(bb, ref_w, ds.num_users, batch)
            assert loss == ref_loss
            assert same_bits(grad, ref_grad)
            masked_step(table, grad, mask, opt)
            masked_step_reference(ref_w, ref_grad, ref_mask, ref_opt)
            if optimizer == "adam":
                # the moments follow the mask's active entries in row-major order
                active = ref_mask.bits.reshape(-1)
                assert len(opt.m) == len(opt.v) == mask.active_count
                assert same_bits(opt.m, ref_opt.m.reshape(-1)[active])
                assert same_bits(opt.v, ref_opt.v.reshape(-1)[active])
        assert same_bits(table.weights, ref_w)
