import math

import numpy as np
import pytest

from sparsecf.data import make_dataset
from sparsecf.embeddings import EmbeddingTable
from sparsecf.models import (BackboneConfig, _incidence, bpr_loss_and_grad, build_adjacency,
                             combined_embeddings, lightgcn_propagate)


def table_of(num_users, num_items, weights):
    w = np.asarray(weights, dtype=np.float64)
    return EmbeddingTable(num_users, num_items, w.shape[1], w)


def lightgcn_cfg(ds, layers, l2_reg=0.0):
    return BackboneConfig.for_dataset("lightgcn", layers, ds, l2_reg=l2_reg)


# ---------------------------------------------------------------------------
# adjacency


def test_adjacency_hand_values():
    ds = make_dataset(2, 2, [(0, 0), (0, 1), (1, 0)])
    adj = build_adjacency(ds).toarray()
    # node order: users 0..1 then items 0..1; degrees u0=2, u1=1, i0=2, i1=1
    expect = np.zeros((4, 4))
    expect[0, 2] = expect[2, 0] = 1.0 / math.sqrt(2 * 2)
    expect[0, 3] = expect[3, 0] = 1.0 / math.sqrt(2 * 1)
    expect[1, 2] = expect[2, 1] = 1.0 / math.sqrt(1 * 2)
    assert np.allclose(adj, expect, atol=1e-15)
    assert np.allclose(adj, adj.T, atol=0)


def test_adjacency_isolated_nodes_get_identity():
    # item 2 and user 2 never appear in train edges
    ds = make_dataset(3, 3, [(0, 0), (1, 1)])
    adj = build_adjacency(ds).toarray()
    assert adj[2, 2] == 1.0
    assert adj[5, 5] == 1.0
    assert adj[2].sum() == 1.0 and adj[5].sum() == 1.0
    # connected pairs have degree 1 on both sides
    assert adj[0, 3] == 1.0 and adj[1, 4] == 1.0


def test_adjacency_rows_of_empty_graph_are_identity():
    ds = make_dataset(2, 2, np.empty((0, 2), dtype=np.int64))
    adj = build_adjacency(ds).toarray()
    assert np.array_equal(adj, np.eye(4))


# ---------------------------------------------------------------------------
# propagation


def test_propagate_zero_layers_is_identity(rng):
    ds = make_dataset(2, 2, [(0, 0)])
    t = table_of(2, 2, rng.normal(size=(4, 3)))
    cfg = BackboneConfig(kind="lightgcn", layers=0, adjacency=build_adjacency(ds))
    assert np.array_equal(lightgcn_propagate(cfg, t.weights), t.weights)


def test_propagate_matches_dense_matmul(rng):
    ds = make_dataset(3, 4, [(0, 0), (0, 1), (1, 1), (2, 3), (1, 2)])
    e = rng.normal(size=(7, 5))
    dense = build_adjacency(ds).toarray()
    for layers in (1, 2, 3):
        cfg = lightgcn_cfg(ds, layers)
        acc = e.copy()
        cur = e.copy()
        for _ in range(layers):
            cur = dense @ cur
            acc += cur
        assert np.allclose(lightgcn_propagate(cfg, e), acc / (layers + 1), atol=1e-12)


def test_propagate_single_pair_averages_rows():
    ds = make_dataset(1, 1, [(0, 0)])
    t = table_of(1, 1, [[1.0, 0.0], [0.0, 1.0]])
    cfg = lightgcn_cfg(ds, 1)
    out = lightgcn_propagate(cfg, t.weights)
    assert np.allclose(out, [[0.5, 0.5], [0.5, 0.5]], atol=0)


def test_propagate_is_linear(rng):
    ds = make_dataset(4, 5, [(0, 0), (1, 2), (2, 2), (3, 4), (0, 3)])
    cfg = lightgcn_cfg(ds, 2)
    x = rng.normal(size=(9, 4))
    y = rng.normal(size=(9, 4))
    lhs = lightgcn_propagate(cfg, 2.0 * x - 0.5 * y)
    rhs = 2.0 * lightgcn_propagate(cfg, x) - 0.5 * lightgcn_propagate(cfg, y)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_propagate_leaves_isolated_rows_unchanged(rng):
    ds = make_dataset(3, 3, [(0, 0), (1, 1)])
    e = rng.normal(size=(6, 4))
    cfg = lightgcn_cfg(ds, 3)
    out = lightgcn_propagate(cfg, e)
    assert np.allclose(out[2], e[2], atol=1e-12)
    assert np.allclose(out[5], e[5], atol=1e-12)


def test_propagate_requires_adjacency():
    cfg = BackboneConfig(kind="lightgcn", layers=2)
    with pytest.raises(ValueError, match="adjacency"):
        lightgcn_propagate(cfg, np.ones((2, 2)))


# ---------------------------------------------------------------------------
# scoring


def test_mf_score_is_dot_product():
    t = table_of(1, 1, [[1.0, 2.0], [3.0, 4.0]])
    cfg = BackboneConfig(kind="mf")
    combined = combined_embeddings(cfg, t.weights)
    assert combined[0] @ combined[1] == 11.0


def test_lightgcn_score_single_pair():
    ds = make_dataset(1, 1, [(0, 0)])
    t = table_of(1, 1, [[1.0, 0.0], [0.0, 1.0]])
    cfg = lightgcn_cfg(ds, 1)
    combined = combined_embeddings(cfg, t.weights)
    assert combined[0] @ combined[1] == pytest.approx(0.5, abs=1e-15)


def test_score_matrix_matches_scalar_scores(rng):
    ds = make_dataset(3, 4, [(0, 0), (1, 1), (2, 3), (0, 2)])
    t = table_of(3, 4, rng.normal(size=(7, 3)))
    cfg = lightgcn_cfg(ds, 2)
    combined = combined_embeddings(cfg, t.weights)
    # the (users, items) block of one product, as evaluation scores it
    mat = combined[:3] @ combined[3:].T
    for u in range(3):
        for i in range(4):
            assert mat[u, i] == pytest.approx(float(combined[u] @ combined[3 + i]), rel=1e-12)


# ---------------------------------------------------------------------------
# scatter-add helper


def test_scatter_add_rows_matches_add_at(rng):
    for _ in range(20):
        n = int(rng.integers(2, 20))
        m = int(rng.integers(1, 50))
        idx = rng.integers(0, n, size=m)
        vals = rng.normal(size=(m, 4))
        got = _incidence(idx, n) @ vals
        want = np.zeros((n, 4))
        np.add.at(want, idx, vals)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)
        untouched = np.setdiff1d(np.arange(n), idx)
        assert np.all(got[untouched] == 0.0)


# ---------------------------------------------------------------------------
# bpr loss


def batch_of(*triples):
    return np.asarray(triples, dtype=np.int64)


def test_bpr_loss_zero_table_is_ln2():
    t = table_of(2, 2, np.zeros((4, 2)))
    cfg = BackboneConfig(kind="mf", l2_reg=0.0)
    loss, grad = bpr_loss_and_grad(cfg, t, batch_of((0, 0, 1)))
    assert loss == math.log(2.0)
    assert grad.shape == (4, 2)


def test_bpr_loss_known_margin():
    # e_u = (1, 0), e_i = (1, 0), e_j = (0, 0) gives x = 1
    t = table_of(1, 2, [[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    cfg = BackboneConfig(kind="mf", l2_reg=0.0)
    loss, _ = bpr_loss_and_grad(cfg, t, batch_of((0, 0, 1)))
    assert loss == pytest.approx(math.log1p(math.exp(-1.0)), abs=1e-15)
    assert loss == pytest.approx(0.3132616875182228, abs=1e-15)


def test_bpr_regularizer_value():
    t = table_of(1, 2, [[1.0, 2.0], [3.0, 0.0], [0.0, 1.0]])
    lam = 0.01
    cfg = BackboneConfig(kind="mf", l2_reg=lam)
    loss_reg, _ = bpr_loss_and_grad(cfg, t, batch_of((0, 0, 1)))
    cfg0 = BackboneConfig(kind="mf", l2_reg=0.0)
    loss0, _ = bpr_loss_and_grad(cfg0, t, batch_of((0, 0, 1)))
    assert loss_reg - loss0 == pytest.approx(lam * (5.0 + 9.0 + 1.0), rel=1e-12)


def test_bpr_loss_depends_only_on_score_difference(rng):
    # shifting every item row by a constant cancels in e_u . (e_i - e_j)
    w = rng.normal(size=(5, 3))
    t = table_of(2, 3, w)
    shifted = w.copy()
    shifted[2:] += np.array([0.7, -1.3, 0.2])
    t2 = table_of(2, 3, shifted)
    cfg = BackboneConfig(kind="mf", l2_reg=0.0)
    batch = batch_of((0, 0, 2), (1, 1, 0))
    loss_a, _ = bpr_loss_and_grad(cfg, t, batch)
    loss_b, _ = bpr_loss_and_grad(cfg, t2, batch)
    assert loss_a == pytest.approx(loss_b, rel=1e-12)


def test_bpr_gradient_is_dense_over_masked_entries(rng):
    # masked-out entries are the table's zeros; those of touched rows
    # still get a gradient, so growth can rank them
    w = rng.normal(size=(4, 3)) + 1.0
    w[0, 1] = 0.0  # user row
    w[2, 0] = 0.0  # positive item row
    t = table_of(2, 2, w)
    cfg = BackboneConfig(kind="mf", l2_reg=0.0)
    _, grad = bpr_loss_and_grad(cfg, t, batch_of((0, 0, 1)))
    assert grad[0, 1] != 0.0
    assert grad[2, 0] != 0.0


def test_bpr_nonfinite_loss_names_triple():
    w = np.zeros((4, 2))
    w[0, 0] = np.nan
    t = table_of(2, 2, w)
    cfg = BackboneConfig(kind="mf")
    with pytest.raises(FloatingPointError, match=r"\(0, 1, 0\)"):
        bpr_loss_and_grad(cfg, t, batch_of((1, 0, 1), (0, 1, 0)))


def test_bpr_rejects_empty_batch():
    t = table_of(1, 2, np.zeros((3, 2)))
    cfg = BackboneConfig(kind="mf")
    with pytest.raises(ValueError, match="empty"):
        bpr_loss_and_grad(cfg, t, np.empty((0, 3), dtype=np.int64))


def add_at_reference_grad(cfg, weights, num_users, batch):
    """BPR gradient with both scatters written as np.add.at."""
    users = batch[:, 0]
    pos = batch[:, 1] + num_users
    neg = batch[:, 2] + num_users
    rows = np.concatenate([users, pos, neg])
    b = len(batch)
    combined = combined_embeddings(cfg, weights)
    e_u, e_i, e_j = combined[users], combined[pos], combined[neg]
    x = np.einsum("bd,bd->b", e_u, e_i - e_j)
    coeff = (-1.0 / (1.0 + np.exp(x)) / b)[:, None]
    rank = np.zeros_like(weights)
    np.add.at(rank, rows, np.concatenate([coeff * (e_i - e_j), coeff * e_u, -coeff * e_u]))
    grad = lightgcn_propagate(cfg, rank) if cfg.propagates() else rank
    np.add.at(grad, rows, 2.0 * cfg.l2_reg / b * weights[rows])
    return grad


@pytest.mark.parametrize("kind,layers", [("mf", 0), ("lightgcn", 2)])
def test_bpr_gradient_scatter_matches_add_at(rng, kind, layers):
    # 5 users, 8 items; user 4 and items 6, 7 are in no triple, and the
    # repeated triple and shared rows exercise repeated indices
    ds = make_dataset(5, 8, [(0, 0), (0, 1), (1, 1), (2, 3), (1, 2), (3, 4), (2, 5)])
    t = table_of(5, 8, rng.normal(size=(13, 4)))
    cfg = BackboneConfig.for_dataset(kind, layers, ds, l2_reg=1e-2)
    batch = batch_of((0, 0, 2), (1, 1, 3), (2, 3, 0), (0, 0, 2), (3, 4, 5), (0, 1, 4))
    _, grad = bpr_loss_and_grad(cfg, t, batch)
    want = add_at_reference_grad(cfg, t.weights, 5, batch)
    assert np.allclose(grad, want, rtol=0.0, atol=1e-12)
    if kind == "mf":
        assert np.all(grad[[4, 5 + 6, 5 + 7]] == 0.0)


# ---------------------------------------------------------------------------
# analytic gradient vs central finite differences


def numeric_grad(cfg, table, batch, h=1e-6):
    w = table.weights.copy()
    out = np.zeros_like(w)

    def loss():
        return bpr_loss_and_grad(
            cfg, EmbeddingTable(table.num_users, table.num_items, table.dim, w), batch)[0]

    for pos in range(w.size):
        orig = w.flat[pos]
        w.flat[pos] = orig + h
        lp = loss()
        w.flat[pos] = orig - h
        lm = loss()
        w.flat[pos] = orig
        out.flat[pos] = (lp - lm) / (2.0 * h)
    return out


@pytest.mark.parametrize("kind,layers", [("mf", 0), ("lightgcn", 1), ("lightgcn", 2)])
def test_bpr_gradient_matches_finite_differences(rng, kind, layers):
    ds = make_dataset(3, 4, [(0, 0), (0, 1), (1, 1), (2, 3), (1, 2)])
    t = table_of(3, 4, rng.normal(size=(7, 4)))
    cfg = BackboneConfig.for_dataset(kind, layers, ds, l2_reg=1e-2)
    batch = batch_of((0, 0, 2), (1, 1, 3), (2, 3, 0))
    _, grad = bpr_loss_and_grad(cfg, t, batch)
    num = numeric_grad(cfg, t, batch)
    denom = np.maximum(np.abs(num), 1e-8)
    assert np.max(np.abs(grad - num) / denom) < 1e-5


def test_backbone_config_validation():
    # the owner's messages name the RunConfig fields they check
    with pytest.raises(ValueError, match="backbone must be one of"):
        BackboneConfig(kind="gcn")
    with pytest.raises(ValueError, match="num_layers must be >= 0"):
        BackboneConfig(kind="mf", layers=-1)
    with pytest.raises(ValueError):
        BackboneConfig(kind="mf", l2_reg=-0.1)
    assert not BackboneConfig(kind="lightgcn", layers=0).propagates()
    assert not BackboneConfig(kind="mf", layers=3).propagates()
