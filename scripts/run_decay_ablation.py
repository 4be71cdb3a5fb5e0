#!/usr/bin/env python3
"""Ablate the exploration-ratio decay (cosine / linear / none) for DSL.

Trains one DSL configuration per decay over several seeds, prints a
mean +/- std table, and writes decay_ablation.csv. Also profiles the
first seed's mask to show where the surviving capacity went.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from sparsecf import (
    RunConfig,
    generate_interactions,
    popularity_sparsity_correlation,
    sparsity_profile,
    split_holdout,
    train,
)
from sparsecf.trainer import write_csv

DECAYS = ("cosine", "linear", "none")
COLUMNS = ("decay", "seed_count", "recall_mean", "recall_std", "ndcg_mean", "ndcg_std")


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, default=Path("results/decay_ablation"))
    p.add_argument("--sparsity", type=float, default=0.5)
    p.add_argument("--seeds", nargs="+", type=int, default=[0, 1, 2, 3, 4])
    p.add_argument("--quick", action="store_true")
    return p.parse_args()


def main():
    args = parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    if args.quick:
        ds = generate_interactions(num_users=150, num_items=300, avg_degree=30,
                                   min_degree=8, seed=17)
        overrides = dict(dim=16, delta_t=50, t_end=500, batch_size=256)
    else:
        ds = generate_interactions(num_users=943, num_items=1682, avg_degree=100,
                                   min_degree=20, seed=17)
        overrides = dict(dim=64, delta_t=250, t_end=3000, batch_size=1024)
    split = split_holdout(ds, 0.2, seed=23)

    rows = []
    print(f"{'decay':<8} {'recall@20':>18} {'ndcg@20':>18}")
    first_mask = {}
    for decay in DECAYS:
        recalls, ndcgs = [], []
        for seed in args.seeds:
            cfg = RunConfig(method="dsl", backbone="mf", sparsity=args.sparsity,
                            rho0=0.3, decay=decay, lr=0.005, l2_reg=5e-3,
                            eval_k=20, seed=seed, **overrides)
            art = train(cfg, split)
            recalls.append(art.final_metrics["recall"])
            ndcgs.append(art.final_metrics["ndcg"])
            first_mask.setdefault(decay, art.mask)
        r, n = np.asarray(recalls), np.asarray(ndcgs)
        rows.append({"decay": decay, "seed_count": len(r),
                     "recall_mean": float(r.mean()), "recall_std": float(r.std()),
                     "ndcg_mean": float(n.mean()), "ndcg_std": float(n.std())})
        print(f"{decay:<8} {r.mean():>9.4f} ± {r.std():.4f} {n.mean():>9.4f} ± {n.std():.4f}")

    write_csv(args.out / "decay_ablation.csv", COLUMNS, rows)
    print(f"\nwrote {args.out / 'decay_ablation.csv'}")

    print("\nitem-side popularity/sparsity correlation of the first seed's mask:")
    for decay, mask in first_mask.items():
        prof = sparsity_profile(mask, split, side="items", num_groups=10)
        rho = popularity_sparsity_correlation(prof)
        shown = "undefined" if rho is None else f"{rho:+.3f}"
        print(f"  {decay:<8} spearman {shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
