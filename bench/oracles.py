"""Correctness checks, each computed apart from the code it checks.

The references here are plain re-derivations from the definitions: a
per-user ranking loop for recall, a dense adjacency matrix for LightGCN
propagation, and the budget rule round(total * (1 - s)). None of them
calls the sparsecf function whose output it checks.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

RECALL_TOLERANCE = 1e-12
PROPAGATION_TOLERANCE = 1e-12
# A trained model must rank at least this many times better than chance.
RANDOM_RECALL_FACTOR = 3.0


class CheckFailed(AssertionError):
    pass


def read_pairs(path) -> np.ndarray:
    """(user, item) rows of a pair-per-line file; '#' lines are skipped."""
    rows = [
        tuple(map(int, line.split()))
        for line in Path(path).read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    ]
    return np.asarray(rows, dtype=np.int64).reshape(-1, 2)


def _user_lists(edges: np.ndarray, num_users: int) -> list:
    lists = [[] for _ in range(num_users)]
    for u, i in edges.tolist():
        lists[u].append(i)
    return lists


def oracle_recall(combined: np.ndarray, train_edges, test_edges, num_users, num_items, k):
    """Mean recall@k over test users, one user at a time.

    Train items are removed from the candidates, and candidates are ordered
    by descending score with ties broken toward the lower item index.
    Returns (recall, expected recall of a uniformly random ranking).
    """
    train = _user_lists(train_edges, num_users)
    test = _user_lists(test_edges, num_users)
    items = combined[num_users:]
    recall_sum = 0.0
    random_sum = 0.0
    users = 0
    for u in range(num_users):
        if not test[u]:
            continue
        candidates = np.setdiff1d(np.arange(num_items), np.asarray(train[u], dtype=np.int64))
        scores = (items @ combined[u])[candidates]
        # lexsort sorts by its last key first: descending score, then index
        top = candidates[np.lexsort((candidates, -scores))[:k]]
        recall_sum += len(set(top.tolist()) & set(test[u])) / len(test[u])
        random_sum += min(k, len(candidates)) / len(candidates)
        users += 1
    return recall_sum / users, random_sum / users


def check_recall(reported: float, oracle: float, random: float) -> None:
    if abs(reported - oracle) > RECALL_TOLERANCE:
        raise CheckFailed(f"recall {reported!r} differs from oracle {oracle!r}")
    if oracle < RANDOM_RECALL_FACTOR * random:
        raise CheckFailed(
            f"recall {oracle:.4f} is not {RANDOM_RECALL_FACTOR}x the random-ranking "
            f"recall {random:.4f}"
        )


def check_budget(weights: np.ndarray, bits: np.ndarray, sparsity: float) -> None:
    total = bits.size
    want = round(total * (1.0 - sparsity))
    have = int(np.count_nonzero(bits))
    if have != want:
        raise CheckFailed(f"{have} active entries, budget is {want} of {total}")
    if np.count_nonzero(weights[~bits]):
        raise CheckFailed("an inactive weight is not exactly zero")


def check_bitwise_equal(weights, bits, reloaded_weights, reloaded_bits) -> None:
    if weights.shape != reloaded_weights.shape or weights.tobytes() != reloaded_weights.tobytes():
        raise CheckFailed("reloaded table differs from the trained one")
    if not np.array_equal(bits, reloaded_bits):
        raise CheckFailed("reloaded mask differs from the trained one")


def dense_propagation(base: np.ndarray, train_edges, num_users, num_items, layers) -> np.ndarray:
    """Mean of E_0..E_L with E_l = A_hat E_(l-1), A_hat = D^-1/2 A D^-1/2 of
    the user-item graph as a dense matrix; a node with no edge keeps its
    own embedding (a 1 on the diagonal)."""
    n = num_users + num_items
    adj = np.zeros((n, n))
    users = train_edges[:, 0]
    items = train_edges[:, 1] + num_users
    adj[users, items] = 1.0
    adj[items, users] = 1.0
    deg = adj.sum(axis=1)
    isolated = deg == 0
    inv_sqrt = np.where(isolated, 0.0, 1.0 / np.sqrt(np.where(isolated, 1.0, deg)))
    adj = inv_sqrt[:, None] * adj * inv_sqrt[None, :]
    adj[isolated, isolated] = 1.0
    out = base.copy()
    current = base
    for _ in range(layers):
        current = adj @ current
        out += current
    return out / (layers + 1)


def check_propagation(combined: np.ndarray, reference: np.ndarray) -> None:
    err = float(np.max(np.abs(combined - reference)))
    if not err <= PROPAGATION_TOLERANCE:
        raise CheckFailed(f"propagated embeddings differ from dense reference by {err:.3g}")


def check_exploration_log(run_dir, expected: int) -> None:
    """exploration.jsonl holds one line per event, each growing as many
    positions as it prunes."""
    lines = Path(run_dir, "exploration.jsonl").read_text(encoding="utf-8").splitlines()
    if len(lines) != expected:
        raise CheckFailed(f"{len(lines)} exploration events logged, expected {expected}")
    for line in lines:
        ev = json.loads(line)
        if ev["pruned"] != ev["grown"]:
            raise CheckFailed(f"event at t={ev['t']} pruned {ev['pruned']}, grew {ev['grown']}")
