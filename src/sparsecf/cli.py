"""Command-line front end: prepare data, run training, sweep, profile, report.

Exit codes: 0 on success, 1 when a run aborts at runtime (non-finite
loss), 2 for usage or configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .costs import memory_bytes
from .data import (DataFormatError, _json_text, load_dataset, load_interactions, save_dataset,
                   split_holdout)
from .embeddings import load_checkpoint, target_active_count
from .evaluation import popularity_sparsity_correlation, sparsity_profile
from .synth import generate_interactions
from .trainer import RunConfig, TrainingAborted, is_complete, train, write_csv

RUNS_COLUMNS = ("sparsity", "method", "seed", "run_id", "status", "recall", "ndcg", "hr",
                "macs_train", "macs_infer", "memory")
SWEEP_COLUMNS = ("method", "sparsity", "seed_count", "recall_mean", "recall_std", "ndcg_mean",
                 "ndcg_std", "macs_train", "macs_infer", "memory", "status")
PROFILE_COLUMNS = ("group_id", "side", "mean_popularity", "mean_sparsity")

_FLAG_TYPES = {"int": int, "float": float, "str": str}
# RunConfig fields cmd_sweep sets for each cell; a spec's base may not set them
_CELL_KEYS = ("method", "sparsity", "seed", "data_dir", "run_id")

@dataclass
class SweepSpec:
    """A cross-product of sparsity levels, methods, and seeds over one base
    config, enumerated in declaration order (levels outermost). cmd_sweep
    checks each cell's config and gives it a run directory of its own."""

    base: RunConfig
    sparsities: list
    methods: list
    seeds: list
    data: str | None = None
    out: str | None = None

    def __post_init__(self):
        if not self.sparsities or not self.methods or not self.seeds:
            raise ValueError("sparsities, methods, and seeds must all be non-empty")

    @classmethod
    def from_file(cls, path) -> "SweepSpec":
        """The spec in the JSON file at path; a ValueError names the file."""
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("a sweep spec must be a JSON object, "
                                 f"got {type(payload).__name__}")
            unknown = set(payload) - {f.name for f in fields(cls)}
            if unknown:
                raise ValueError(f"unknown spec keys: {sorted(unknown)}")
            for key in ("sparsities", "methods", "seeds"):
                if key not in payload:
                    raise ValueError(f"missing key {key!r}")
                if not isinstance(payload[key], list):
                    raise ValueError(f"{key!r} must be a list, got {type(payload[key]).__name__}")
            for key in ("data", "out"):
                if not isinstance(payload.get(key, ""), str):
                    raise ValueError(f"{key!r} must be a string, got {type(payload[key]).__name__}")
            base = payload.get("base", {})
            base_cfg = _config_from(base, "'base'")
            per_cell = sorted(set(base) & set(_CELL_KEYS))
            if per_cell:
                raise ValueError(f"base sets {per_cell}, which the sweep sets for each cell")
            return cls(
                base=base_cfg,
                sparsities=payload["sparsities"],
                methods=payload["methods"],
                seeds=payload["seeds"],
                data=payload.get("data"),
                out=payload.get("out"),
            )
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def cells(self) -> list:
        """(sparsity, method, seed) tuples in declaration order."""
        return [
            (s, m, seed) for s in self.sparsities for m in self.methods for seed in self.seeds
        ]


def _config_from(values, what: str) -> RunConfig:
    """RunConfig of a config read from JSON; what names it in an error."""
    if not isinstance(values, dict):
        raise ValueError(f"{what} must be an object, got {type(values).__name__}")
    unknown = set(values) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**values)


def _flag_fields() -> list:
    """The RunConfig fields that have a --flag; --data sets data_dir."""
    return [f for f in fields(RunConfig) if f.name != "data_dir"]


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    for f in _flag_fields():
        flag = "--" + f.name.replace("_", "-")
        typ = _FLAG_TYPES[f.type.removesuffix(" | None")]
        p.add_argument(flag, type=typ, default=None, help=f"override config {f.name}")


def _resolve_config(args) -> RunConfig:
    """flags > config file > dataclass defaults."""
    values = {}
    if getattr(args, "config", None):
        try:
            file_cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
            _config_from(file_cfg, "a config file")  # checked alone, so errors name the file
        except ValueError as exc:
            raise ValueError(f"{args.config}: {exc}") from None
        values.update(file_cfg)
    for f in _flag_fields():
        flag_val = getattr(args, f.name, None)
        if flag_val is not None:
            values[f.name] = flag_val
    if getattr(args, "data", None):
        values["data_dir"] = str(args.data)
    cfg = RunConfig(**values)
    if cfg.method == "dense" and values.get("sparsity") not in (None, 0, 0.0):
        print(f"warning: sparsity={cfg.sparsity} ignored for dense run", file=sys.stderr)
    return cfg


def cmd_prepare(args) -> int:
    if args.synthetic:
        ds = generate_interactions(
            num_users=args.users,
            num_items=args.items,
            avg_degree=args.avg_degree,
            popularity_exponent=args.pop_exponent,
            min_degree=args.min_degree,
            seed=args.seed,
        )
        source = "synthetic"
    else:
        if args.input is None:
            print("error: either --input or --synthetic is required", file=sys.stderr)
            return 2
        ds = load_interactions(args.input, format=args.format)
        source = str(args.input)
    try:
        split = split_holdout(ds, args.ratio, args.seed)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None
    save_dataset(
        split,
        args.out,
        manifest_extra={
            "seed": args.seed,
            "ratio": args.ratio,
            "source": source,
            "format": args.format,
        },
    )
    print(
        f"prepared {args.out}: users={split.num_users} items={split.num_items} "
        f"train={split.num_train} test={split.num_test}"
    )
    return 0


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    ds = load_dataset(args.data)
    run_id = cfg.resolve_run_id()
    out_dir = Path(args.out) if args.out else Path("runs") / run_id
    art = train(cfg, ds, out_dir=out_dir)
    final = art.final_metrics
    print(
        f"run {art.run_id}: iteration={final['iteration']} "
        f"recall@{final['k']}={final['recall']:.6f} ndcg@{final['k']}={final['ndcg']:.6f} "
        f"hr@{final['k']}={final['hr']:.6f} sparsity={final['sparsity']:.4f} "
        f"macs_train={final['macs_train_cum']:.6g} macs_infer={final['macs_infer']:.6g} "
        f"dir={out_dir}"
    )
    return 0


def _read_csv(path) -> tuple[list, list]:
    """(header, rows as dicts of strings) of a CSV file."""
    with Path(path).open(encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames or [], list(reader)


def _read_final_metrics(path) -> dict:
    row = _read_csv(path)[1][-1]
    for key in ("recall", "ndcg", "hr", "sparsity", "macs_train_cum", "macs_infer"):
        row[key] = float(row[key])
    row["iteration"] = int(row["iteration"])
    return row


def _sweep_cell(cfg: RunConfig, run_dir: str, resume: bool) -> dict:
    """Run (or resume) one sweep cell; never raises, reports status instead.

    A cell resumes only from a finished run of the same resolved config on
    the same split.
    """
    run_path = Path(run_dir)
    try:
        ds = load_dataset(cfg.data_dir)
        done = resume and is_complete(run_path, cfg, ds)
        if not done:
            train(cfg, ds, out_dir=run_path)
        row = _read_final_metrics(run_path / "metrics.csv")
        manifest = json.loads((run_path / "split_manifest.json").read_text(encoding="utf-8"))
        total = (manifest["num_users"] + manifest["num_items"]) * cfg.dim
        active = target_active_count(total, cfg.effective_sparsity)
        return {
            "status": "ok",
            "resumed": done,
            "run_id": row["run_id"],
            "recall": row["recall"],
            "ndcg": row["ndcg"],
            "hr": row["hr"],
            "macs_train": row["macs_train_cum"],
            "macs_infer": row["macs_infer"],
            "memory": memory_bytes(active, total),
        }
    except Exception as exc:  # noqa: BLE001  (cell isolation is the contract)
        return {
            "status": f"failed: {type(exc).__name__}: {exc}",
            "resumed": False,
            "run_id": None,
            "recall": float("nan"),
            "ndcg": float("nan"),
            "hr": float("nan"),
            "macs_train": float("nan"),
            "macs_infer": float("nan"),
            "memory": 0,
        }


def _sweep_row(method: str, s: float, results: list) -> dict:
    """sweep.csv row of one (sparsity, method) group: seed mean and std of
    the finished cells."""
    ok = [r for r in results if r["status"] == "ok"]
    failed = len(results) - len(ok)
    # with no finished cell, the failed cells' nan metrics and zero memory carry through
    cells = ok or results
    recalls = np.array([r["recall"] for r in cells])
    ndcgs = np.array([r["ndcg"] for r in cells])
    return {
        "method": method,
        "sparsity": float(s),
        "seed_count": len(ok),
        "recall_mean": float(recalls.mean()),
        "recall_std": float(recalls.std()),
        "ndcg_mean": float(ndcgs.mean()),
        "ndcg_std": float(ndcgs.std()),
        "macs_train": float(np.mean([r["macs_train"] for r in cells])),
        "macs_infer": float(np.mean([r["macs_infer"] for r in cells])),
        "memory": int(np.mean([r["memory"] for r in cells])),
        "status": "ok" if failed == 0 else f"{failed} failed",
    }


def cmd_sweep(args) -> int:
    spec = SweepSpec.from_file(args.spec)
    data_dir = args.data or spec.data
    out_dir = Path(args.out or spec.out or "sweep")
    if data_dir is None:
        print("error: sweep needs a data dir (--data or spec 'data')", file=sys.stderr)
        return 2
    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    cells = spec.cells()
    jobs, seen = [], {}
    for cell in cells:
        s, method, seed = cell
        try:
            # RunConfig checks each cell before any cell trains or its name is formatted
            cfg = replace(spec.base, method=method, sparsity=s, seed=seed, data_dir=str(data_dir))
            name = f"{method}-s{s:g}-seed{seed}"
            if name in seen:
                raise ValueError(f"sweep cells {seen[name]} and {cell} share the run "
                                 f"directory {name!r}")
        except ValueError as exc:
            raise ValueError(f"{args.spec}: {exc}") from None
        seen[name] = cell
        jobs.append((cfg, str(out_dir / "runs" / name), args.resume))
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(_sweep_cell, *zip(*jobs)))
    else:
        results = [_sweep_cell(*job) for job in jobs]

    groups: dict = {}
    for (s, method, seed), res in zip(cells, results):
        tag = " (resumed)" if res["resumed"] else ""
        print(f"cell method={method} s={s:g} seed={seed}: {res['status']}{tag}")
        groups.setdefault((s, method), []).append(res)
    runs = [res | {"sparsity": float(s), "method": m, "seed": seed}
            for (s, m, seed), res in zip(cells, results)]
    write_csv(out_dir / "runs.csv", RUNS_COLUMNS, runs)
    sweep = [_sweep_row(method, s, group) for (s, method), group in groups.items()]
    write_csv(out_dir / "sweep.csv", SWEEP_COLUMNS, sweep)
    print(f"wrote {out_dir / 'sweep.csv'} and {out_dir / 'runs.csv'}")
    return 0 if all(r["status"] == "ok" for r in results) else 1


def cmd_profile(args) -> int:
    run_dir = Path(args.run_dir)
    ckpt = run_dir / "checkpoint.final"
    if not ckpt.exists():
        print(f"error: no checkpoint at {ckpt}", file=sys.stderr)
        return 2
    table, mask = load_checkpoint(ckpt)
    data_dir = args.data
    if data_dir is None:
        cfg_path = run_dir / "config.json"
        if cfg_path.exists():
            data_dir = json.loads(cfg_path.read_text(encoding="utf-8")).get("data_dir")
    if data_dir is None:
        print("error: dataset location unknown; pass --data", file=sys.stderr)
        return 2
    ds = load_dataset(data_dir)
    shape, ckpt_shape = (ds.num_users, ds.num_items), (table.num_users, table.num_items)
    if shape != ckpt_shape:
        print(f"error: {data_dir} has (users, items) = {shape}, but {ckpt} holds {ckpt_shape}",
              file=sys.stderr)
        return 2

    rows = []
    spearman = {}
    for side in ("users", "items"):
        prof = sparsity_profile(mask, ds, side=side, num_groups=args.groups)
        rows.extend(
            {"group_id": gid, "side": side, "mean_popularity": pop, "mean_sparsity": sp}
            for gid, (pop, sp) in enumerate(zip(prof.mean_popularity, prof.mean_sparsity))
        )
        spearman[side] = popularity_sparsity_correlation(prof)
    out_path = Path(args.out) if args.out else run_dir / "profile.csv"
    write_csv(out_path, PROFILE_COLUMNS, rows)
    summary_path = out_path.with_name(out_path.stem + "_summary.json")
    summary = {"num_groups": args.groups, "spearman": spearman}
    summary_path.write_text(_json_text(summary), encoding="utf-8")
    for side in ("users", "items"):
        rho = spearman[side]
        shown = "null" if rho is None else f"{rho:.4f}"
        print(f"{side}: popularity-sparsity spearman = {shown}")
    print(f"wrote {out_path} and {summary_path}")
    return 0


def cmd_report(args) -> int:
    """Render sweep.csv (or a single run's metrics.csv) as a readable table."""
    target = Path(args.path)
    sweep_csv = target / "sweep.csv" if target.is_dir() else target
    if not sweep_csv.exists():
        print(f"error: {sweep_csv} not found", file=sys.stderr)
        return 2
    header, rows = _read_csv(sweep_csv)
    if "recall_mean" in header:
        print(f"{'method':<8} {'sparsity':>8} {'recall':>20} {'ndcg':>20} {'macs_infer':>12}")
        for r in rows:
            recall = f"{float(r['recall_mean']):.4f} ± {float(r['recall_std']):.4f}"
            ndcg = f"{float(r['ndcg_mean']):.4f} ± {float(r['ndcg_std']):.4f}"
            print(
                f"{r['method']:<8} {float(r['sparsity']):>8.2f} {recall:>20} {ndcg:>20} "
                f"{float(r['macs_infer']):>12.4g}"
            )
    else:
        print(sweep_csv.read_text(encoding="utf-8").strip())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsecf",
        description="Fixed-budget dynamic sparse training for embedding-based recommenders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="load or synthesize interactions and write a split")
    p.add_argument("--input", type=Path, default=None, help="interaction file to load")
    p.add_argument("--format", choices=("pair-lines", "per-user-adjacency"),
                   default="pair-lines")
    p.add_argument("--synthetic", action="store_true", help="generate synthetic interactions")
    p.add_argument("--users", type=int, default=943)
    p.add_argument("--items", type=int, default=1682)
    p.add_argument("--avg-degree", type=float, default=100.0)
    p.add_argument("--pop-exponent", type=float, default=1.0)
    p.add_argument("--min-degree", type=int, default=20)
    p.add_argument("--ratio", type=float, default=0.2, help="per-user test holdout fraction")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="run one training job")
    p.add_argument("--data", type=Path, required=True, help="prepared dataset directory")
    p.add_argument("--out", type=Path, default=None, help="run directory (default runs/<run_id>)")
    p.add_argument("--config", type=Path, default=None, help="JSON config file")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="run a methods x sparsities x seeds cross-product")
    p.add_argument("spec", type=Path, help="sweep spec JSON")
    p.add_argument("--data", type=Path, default=None)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--resume", action="store_true", help="skip cells with finished runs")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("profile", help="popularity vs sparsity profile of a run's checkpoint")
    p.add_argument("run_dir", type=Path)
    p.add_argument("--groups", type=int, default=10)
    p.add_argument("--data", type=Path, default=None)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("report", help="print a sweep summary table")
    p.add_argument("path", type=Path, help="sweep directory or sweep.csv")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TrainingAborted as exc:
        print(f"error: training aborted: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, FileNotFoundError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
