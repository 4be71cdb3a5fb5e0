"""End-to-end acceptance gates for the training system.

Each test prints exactly one pass/fail line, so the whole gate reads off
a `python3 -m pytest tests/test_acceptance.py -s` run. The desk-scale
ordering experiments (criteria 7-9) share one session fixture that
trains 5 seeds x 4 configurations on a bundled synthetic dataset of
about 10^5 interactions.
"""

import json
import math
import time

import numpy as np
import pytest

from sparsecf.cli import main as cli_main
from sparsecf.costs import macs_inference
from sparsecf.data import make_dataset, save_dataset, split_holdout
from sparsecf.embeddings import EmbeddingTable, init_mask, target_active_count
from sparsecf.models import BackboneConfig, bpr_loss_and_grad
from sparsecf.sparsifier import (ExplorationSchedule, one_shot_magnitude_prune, select_grow,
                                 select_prune, update_ratio)
from sparsecf.synth import generate_interactions
from sparsecf.trainer import RunConfig, train


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)


# ---------------------------------------------------------------------------
# shared datasets


@pytest.fixture(scope="session")
def small_synth():
    """Small synthetic split for the long-loop and byte-identity checks."""
    ds = generate_interactions(num_users=300, num_items=600, avg_degree=30,
                               min_degree=10, seed=31)
    return split_holdout(ds, 0.2, seed=41)


@pytest.fixture(scope="session")
def small_synth_dir(small_synth, tmp_path_factory):
    out = tmp_path_factory.mktemp("accept") / "data"
    save_dataset(small_synth, out)
    return out


@pytest.fixture(scope="session")
def desk_split():
    """~10^5-interaction dataset in the MovieLens-100K shape."""
    ds = generate_interactions(num_users=943, num_items=1682, avg_degree=100,
                               min_degree=20, seed=17)
    return split_holdout(ds, 0.2, seed=23)


def desk_cfg(method: str, decay: str, seed: int) -> RunConfig:
    return RunConfig(
        method=method,
        backbone="mf",
        dim=64,
        sparsity=0.5,
        rho0=0.3,
        delta_t=250,
        t_end=3000,
        decay=decay,
        lr=0.005,
        l2_reg=5e-3,
        batch_size=1024,
        eval_every=3000,
        eval_k=20,
        seed=seed,
    )


@pytest.fixture(scope="session")
def desk_runs(desk_split, tmp_path_factory):
    """Recall@20 over 5 seeds for dense, rp, dsl-cosine and dsl-no-decay."""
    root = tmp_path_factory.mktemp("desk")
    data_dir = root / "data"
    save_dataset(desk_split, data_dir)
    recalls = {}
    seconds = {}
    dsl_run_dir = root / "dsl-seed0"
    for label, method, decay in (
        ("dense", "dense", "cosine"),
        ("rp", "rp", "cosine"),
        ("dsl", "dsl", "cosine"),
        ("dsl_flat", "dsl", "none"),
    ):
        t0 = time.perf_counter()
        runs = []
        for seed in range(5):
            cfg = desk_cfg(method, decay, seed)
            cfg.data_dir = str(data_dir)
            out_dir = dsl_run_dir if (label == "dsl" and seed == 0) else None
            art = train(cfg, desk_split, out_dir=out_dir)
            runs.append(art.final_metrics["recall"])
        seconds[label] = time.perf_counter() - t0
        recalls[label] = np.asarray(runs)
    return {"recalls": recalls, "seconds": seconds, "dsl_run_dir": dsl_run_dir}


# ---------------------------------------------------------------------------
# 1. budget invariance over a full run


def test_01_budget_invariance(small_synth):
    start = time.perf_counter()
    bad = []
    for s in (0.3, 0.5, 0.8):
        cfg = RunConfig(method="dsl", backbone="mf", dim=16, sparsity=s,
                        rho0=0.3, delta_t=500, t_end=10_000, lr=0.01,
                        batch_size=128, eval_every=500, eval_k=10, seed=11)
        total = (small_synth.num_users + small_synth.num_items) * cfg.dim
        want = target_active_count(total, s)
        checks = []

        def hook(t, table, mask, want=want, checks=checks):
            checks.append(
                mask.active_count == want
                and bool(np.all(table.weights[~mask.bits] == 0.0))
            )

        train(cfg, small_synth, snapshot_hook=hook)
        if len(checks) != 20 or not all(checks):
            bad.append(s)
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 60.0
    _report("01 budget invariance", ok,
            f"s in (0.3, 0.5, 0.8), 20 snapshots each, {elapsed:.1f}s")
    assert ok, f"budget violated at sparsities {bad}, elapsed {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. exploration-ratio schedule values


def test_02_schedule_values():
    rho0, t_end = 0.3, 10_000
    sched = ExplorationSchedule(rho0, 500, t_end, "cosine")
    points = [0, t_end // 4, t_end // 2, 3 * t_end // 4, t_end]
    closed_form = [rho0 / 2.0 * (1.0 + math.cos(math.pi * t / t_end)) for t in points]
    # endpoint and midpoint values the schedule must hit
    closed_form[0] = rho0
    closed_form[2] = rho0 / 2.0
    closed_form[4] = 0.0
    errs = [abs(update_ratio(sched, t) - want) for t, want in zip(points, closed_form)]
    ok = max(errs) <= 1e-12
    _report("02 schedule values", ok, f"max |err| = {max(errs):.2e} at 5 points")
    assert ok


# ---------------------------------------------------------------------------
# 3. selection against a brute-force full-sort oracle


def _oracle_prune(weights, bits, rho):
    flat_w, flat_b = weights.ravel(), bits.ravel()
    active = [p for p in range(flat_w.size) if flat_b[p]]
    k = math.floor(rho * len(active))
    return sorted(sorted(active, key=lambda p: (abs(flat_w[p]), p))[:k])


def _oracle_grow(grad, bits, k, exclude):
    flat_g, flat_b = grad.ravel(), bits.ravel()
    banned = set(int(p) for p in exclude)
    cands = [p for p in range(flat_g.size) if not flat_b[p] and p not in banned]
    return sorted(sorted(cands, key=lambda p: (-abs(flat_g[p]), p))[:k])


def _oracle_keep(weights, s):
    flat = weights.ravel()
    keep = round(flat.size * (1.0 - s))
    return sorted(sorted(range(flat.size), key=lambda p: (-abs(flat[p]), p))[:keep])


def test_03_selection_oracles():
    rng = np.random.default_rng(7)
    mismatches = 0
    for trial in range(1000):
        rows = int(rng.integers(2, 126))
        cols = int(rng.integers(2, 81))
        w = rng.normal(size=(rows, cols))
        if trial % 3 == 0:
            w = np.round(w)  # heavy ties
        if trial % 7 == 0:
            w = np.full((rows, cols), 0.25)  # all-tied
        t = EmbeddingTable(rows // 2, rows - rows // 2, cols, w)
        mask = init_mask((rows, cols), float(rng.uniform(0.1, 0.8)), rng)

        rho = float(rng.uniform(0, 1))
        if select_prune(t, mask, rho).tolist() != _oracle_prune(w, mask.bits, rho):
            mismatches += 1

        grad = rng.normal(size=(rows, cols))
        if trial % 3 == 1:
            grad = np.round(grad)
        inactive = np.flatnonzero(~mask.bits.ravel())
        if len(inactive):
            exclude = rng.choice(inactive, size=min(4, len(inactive)), replace=False)
            k = int(rng.integers(0, len(inactive) - len(exclude) + 1))
            if select_grow(grad, mask, k, exclude=np.sort(exclude)).tolist() != _oracle_grow(
                grad, mask.bits, k, exclude
            ):
                mismatches += 1

        s = float(rng.uniform(0, 0.9))
        got = np.flatnonzero(one_shot_magnitude_prune(t, s).bits.ravel()).tolist()
        if got != _oracle_keep(w, s):
            mismatches += 1
    ok = mismatches == 0
    _report("03 selection oracles", ok, f"1000 tables, {mismatches} mismatches")
    assert ok


# ---------------------------------------------------------------------------
# 4. analytic gradients vs central finite differences


def _numeric_grad(cfg, table, batch, h=1e-6):
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


def test_04_gradient_check():
    start = time.perf_counter()
    rng = np.random.default_rng(13)
    worst = 0.0
    for kind, layers in (("mf", 0), ("lightgcn", 1), ("lightgcn", 2), ("lightgcn", 3)):
        for _ in range(25):
            nu = int(rng.integers(2, 9))
            ni = int(rng.integers(2, min(13, 21 - nu)))
            edges = {(int(rng.integers(nu)), int(rng.integers(ni)))
                     for _ in range(rng.integers(2, 2 * nu + 1))}
            ds = make_dataset(nu, ni, sorted(edges))
            d = int(rng.integers(2, 9))
            table = EmbeddingTable(nu, ni, d, rng.normal(size=(nu + ni, d)))
            cfg = BackboneConfig.for_dataset(kind, layers, ds,
                                             l2_reg=float(rng.choice([0.0, 1e-2])))
            triples = np.column_stack([
                rng.integers(0, nu, size=5),
                rng.integers(0, ni, size=5),
                rng.integers(0, ni, size=5),
            ]).astype(np.int64)
            batch = triples
            _, grad = bpr_loss_and_grad(cfg, table, batch)
            num = _numeric_grad(cfg, table, batch)
            rel = np.abs(grad - num) / np.maximum(np.abs(num), 1e-8)
            worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 120.0
    _report("04 gradient check", ok,
            f"100 trials, worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 5. exploration disabled degenerates to the static random mask


def test_05_degeneration_identity(small_synth, tmp_path):
    common = dict(backbone="mf", dim=16, sparsity=0.5, t_end=500, lr=0.01,
                  batch_size=128, eval_every=100, eval_k=10, seed=3,
                  run_id="degenerate")
    dsl = RunConfig(method="dsl", delta_t=501, **common)
    rp = RunConfig(method="rp", **common)
    train(dsl, small_synth, out_dir=tmp_path / "dsl")
    train(rp, small_synth, out_dir=tmp_path / "rp")
    same = {
        name: (tmp_path / "dsl" / name).read_bytes() == (tmp_path / "rp" / name).read_bytes()
        for name in ("checkpoint.final", "metrics.csv", "exploration.jsonl")
    }
    ok = all(same.values())
    _report("05 degeneration identity", ok,
            "dsl(interval > t_end) vs rp: " + ", ".join(
                f"{n} {'==' if v else '!='}" for n, v in same.items()))
    assert ok, same


# ---------------------------------------------------------------------------
# 6. cost model exactness


def test_06_cost_model():
    plug_in = macs_inference("lightgcn", 1000, 2000, 64, num_layers=3, nnz_adj=10000)
    plug_ok = plug_in == 129_920_000

    rng = np.random.default_rng(5)
    exact = True
    for _ in range(200):
        backbone = rng.choice(["mf", "lightgcn"])
        args = dict(
            num_users=int(rng.integers(1, 5000)),
            num_items=int(rng.integers(1, 5000)),
            dim=int(rng.integers(1, 256)),
            num_layers=int(rng.integers(0, 5)),
            nnz_adj=int(rng.integers(0, 10**6)),
        )
        dense = macs_inference(backbone, **args)
        for s in (0.0, 0.3, 0.5, 0.8, float(rng.uniform(0, 0.99))):
            if macs_inference(backbone, **args, sparsity=s) != dense * (1.0 - s):
                exact = False
    ok = plug_ok and exact
    _report("06 cost model", ok,
            f"plug-in {plug_in:,.0f}, sparse == dense*(1-s) on 200 configs x 5 s")
    assert ok


# ---------------------------------------------------------------------------
# 7-9. desk-scale ordering experiments


@pytest.mark.slow
def test_07_method_ordering(desk_runs):
    r = desk_runs["recalls"]
    dsl, rp, dense = r["dsl"].mean(), r["rp"].mean(), r["dense"].mean()
    vs_rp = dsl >= rp
    vs_dense = dsl >= 0.95 * dense
    per_method = max(desk_runs["seconds"].values())
    ok = vs_rp and vs_dense and per_method < 600.0
    _report(
        "07 method ordering", ok,
        f"recall@20 dsl {dsl:.4f}±{r['dsl'].std():.4f} >= rp {rp:.4f}±{r['rp'].std():.4f}; "
        f"dsl within 5% of dense {dense:.4f}±{r['dense'].std():.4f}; "
        f"slowest method {per_method:.0f}s for 5 seeds",
    )
    assert ok


@pytest.mark.slow
def test_08_decay_ordering(desk_runs):
    r = desk_runs["recalls"]
    cos_m, cos_s = r["dsl"].mean(), r["dsl"].std()
    flat_m, flat_s = r["dsl_flat"].mean(), r["dsl_flat"].std()
    hard = cos_m >= flat_m
    flagged = not hard and (flat_m - cos_m) <= (cos_s + flat_s)
    ok = hard or flagged
    detail = f"cosine {cos_m:.4f}±{cos_s:.4f} vs no-decay {flat_m:.4f}±{flat_s:.4f}"
    if flagged:
        detail += " (flagged: within seed noise)"
    _report("08 decay ordering", ok, detail)
    assert ok


@pytest.mark.slow
def test_09_popularity_sparsity_profile(desk_runs, capsys):
    run_dir = desk_runs["dsl_run_dir"]
    rc = cli_main(["profile", str(run_dir), "--groups", "10"])
    capsys.readouterr()  # keep the single acceptance line below
    summary_path = run_dir / "profile_summary.json"
    emitted = rc == 0 and summary_path.exists() and (run_dir / "profile.csv").exists()
    rho = None
    if emitted:
        rho = json.loads(summary_path.read_text())["spearman"]["items"]
    ok = emitted and isinstance(rho, float)
    sign = "negative as expected" if (rho is not None and rho < 0) else "non-negative"
    _report("09 popularity-sparsity profile", ok,
            f"items spearman {rho if rho is None else round(rho, 3)} ({sign}), "
            f"profile.csv emitted")
    assert ok


# ---------------------------------------------------------------------------
# 10. repeated runs are byte-identical


def test_10_determinism(small_synth_dir, tmp_path, capsys):
    flags = ["--method", "dsl", "--dim", "16", "--sparsity", "0.5",
             "--t-end", "400", "--delta-t", "100", "--batch-size", "128",
             "--lr", "0.01", "--eval-every", "100", "--eval-k", "10",
             "--seed", "3", "--run-id", "repeat"]
    rc_a = cli_main(["train", "--data", str(small_synth_dir),
                     "--out", str(tmp_path / "a"), *flags])
    rc_b = cli_main(["train", "--data", str(small_synth_dir),
                     "--out", str(tmp_path / "b"), *flags])
    capsys.readouterr()
    same = (tmp_path / "a" / "metrics.csv").read_bytes() == (
        tmp_path / "b" / "metrics.csv"
    ).read_bytes()
    ok = rc_a == 0 and rc_b == 0 and same
    _report("10 determinism", ok, "same train command twice, metrics.csv byte-identical")
    assert ok
