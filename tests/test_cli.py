import json
from dataclasses import replace
from pathlib import Path

import pytest

from sparsecf.cli import SweepSpec, main
from sparsecf.data import load_dataset, make_dataset, sample_batch, save_dataset
from sparsecf.trainer import RunConfig, train

ROOT = Path(__file__).resolve().parents[1]
DECAYS = ("cosine", "linear", "none")


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "toy"
    rc = main([
        "prepare", "--synthetic", "--users", "30", "--items", "60",
        "--avg-degree", "8", "--min-degree", "3", "--ratio", "0.2",
        "--seed", "5", "--out", str(out),
    ])
    assert rc == 0
    return out


TRAIN_FLAGS = ["--dim", "8", "--t-end", "40", "--delta-t", "10",
               "--batch-size", "32", "--eval-every", "20", "--eval-k", "10",
               "--lr", "0.01"]


def run_train(data, out, *extra):
    return main(["train", "--data", str(data), "--out", str(out),
                 *TRAIN_FLAGS, *extra])


# ---------------------------------------------------------------------------
# prepare


def test_prepare_writes_split(data_dir):
    for name in ("train.txt", "test.txt", "split_manifest.json"):
        assert (data_dir / name).exists()
    manifest = json.loads((data_dir / "split_manifest.json").read_text())
    assert manifest["source"] == "synthetic"
    assert manifest["seed"] == 5


def test_prepare_is_deterministic(tmp_path):
    argv = ["prepare", "--synthetic", "--users", "20", "--items", "40",
            "--avg-degree", "6", "--min-degree", "2", "--seed", "9"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    for name in ("train.txt", "test.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_prepare_from_file(tmp_path, capsys):
    raw = tmp_path / "raw.txt"
    lines = [f"{u} {i}" for u in range(6) for i in range(u, u + 4)]
    raw.write_text("\n".join(lines) + "\n")
    rc = main(["prepare", "--input", str(raw), "--ratio", "0.25",
               "--out", str(tmp_path / "ds")])
    assert rc == 0
    assert "users=6" in capsys.readouterr().out


def test_prepare_requires_a_source(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["prepare", "--out", str(tmp_path / "x")])
    assert exc_info.value.code == 2
    assert "one of the arguments --input --synthetic is required" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_prepare_takes_only_one_source(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["prepare", "--synthetic", "--input", str(tmp_path / "missing.txt"),
              "--out", str(tmp_path / "x")])
    assert exc_info.value.code == 2
    assert "argument --input: not allowed with argument --synthetic" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_prepare_rejects_malformed_input(tmp_path, capsys):
    raw = tmp_path / "bad.txt"
    raw.write_text("0 not-an-item\n")
    rc = main(["prepare", "--input", str(raw), "--out", str(tmp_path / "ds")])
    assert rc == 2
    assert "line 1" in capsys.readouterr().err


def test_prepare_names_file_and_user_without_interactions(tmp_path, capsys):
    raw = tmp_path / "raw.txt"
    raw.write_text("# users=3 items=2\n0 0\n0 1\n1 0\n")
    rc = main(["prepare", "--input", str(raw), "--out", str(tmp_path / "ds")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(raw) in err
    assert "user 2 has none" in err


def test_prepare_rejects_a_directory_as_input(tmp_path, capsys):
    rc = main(["prepare", "--input", str(tmp_path), "--out", str(tmp_path / "ds")])
    assert rc == 2
    assert str(tmp_path) in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--avg-degree", "-1"], "avg_degree must be finite and positive, got -1.0"),
    (["--pop-exponent", "nan"], "popularity_exponent must be finite, got nan"),
    (["--items", "3", "--min-degree", "10"], "min_degree must be in [0, 2], got 10"),
])
def test_prepare_rejects_bad_generator_arguments(tmp_path, capsys, flags, message):
    rc = main(["prepare", "--synthetic", "--users", "5", "--items", "30", *flags,
               "--out", str(tmp_path / "ds")])
    assert rc == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()


# ---------------------------------------------------------------------------
# train


def test_train_writes_run_dir(data_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert run_train(data_dir, out, "--method", "dsl", "--run-id", "cli-dsl") == 0
    assert "run cli-dsl:" in capsys.readouterr().out
    for name in ("config.json", "metrics.csv", "exploration.jsonl",
                 "checkpoint.final", "split_manifest.json"):
        assert (out / name).exists()
    config = json.loads((out / "config.json").read_text())
    assert config["data_dir"] == str(data_dir)


def test_train_flag_overrides_config_file(data_dir, tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"method": "rp", "lr": 0.5, "sparsity": 0.8}))
    out = tmp_path / "run"
    rc = main(["train", "--data", str(data_dir), "--out", str(out),
               "--config", str(cfg_file), *TRAIN_FLAGS, "--sparsity", "0.25"])
    assert rc == 0
    config = json.loads((out / "config.json").read_text())
    assert config["method"] == "rp"  # from file
    assert config["sparsity"] == 0.25  # flag wins
    assert config["lr"] == 0.01  # TRAIN_FLAGS wins over file


def test_train_rejects_unknown_config_key(data_dir, tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"learning_rate": 0.1}))
    rc = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "r"),
               "--config", str(cfg_file)])
    assert rc == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("payload, message", [
    ({"sparsity": "0.5"}, "sparsity must be of type float, got '0.5'"),
    ({"lr": "0.01"}, "lr must be of type float, got '0.01'"),
    (5, "a config file must be an object, got int"),
    ([], "a config file must be an object, got list"),
])
def test_train_rejects_a_config_file_of_wrong_type(data_dir, tmp_path, capsys, payload, message):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(payload))
    out = tmp_path / "r"
    rc = main(["train", "--data", str(data_dir), "--out", str(out), "--config", str(cfg_file)])
    assert rc == 2
    assert f"error: {cfg_file}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_bad_exploration_fields_for_every_method(data_dir, tmp_path, capsys):
    rc = run_train(data_dir, tmp_path / "r", "--method", "rp", "--delta-t", "0")
    assert rc == 2
    assert "delta_t" in capsys.readouterr().err


def test_train_rejects_eval_k_zero_before_training(data_dir, tmp_path, capsys):
    rc = run_train(data_dir, tmp_path / "r", "--eval-k", "0")
    assert rc == 2
    assert "eval_k must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("flags, message", [
    (["--backbone", "gcn"], "backbone must be one of ('mf', 'lightgcn'), got 'gcn'"),
    (["--optimizer", "rmsprop"], "optimizer must be 'sgd' or 'adam', got 'rmsprop'"),
    (["--num-layers", "-1"], "num_layers must be >= 0, got -1"),
    (["--l2-reg", "-1"], "l2_reg must be >= 0, got -1.0"),
    (["--lr", "0"], "lr must be positive, got 0.0"),
    (["--dim", "0"], "dim must be >= 1, got 0"),
    (["--seed", "-1"], "seed must be >= 0, got -1"),
])
def test_train_rejects_an_out_of_range_flag_before_loading_data(tmp_path, capsys, flags,
                                                                message):
    # the data directory does not exist: the config is checked first
    rc = main(["train", "--data", str(tmp_path / "missing"), "--out", str(tmp_path / "r"),
               *flags])
    assert rc == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_train_user_with_every_item_exits_two(tmp_path, capsys):
    ds = make_dataset(2, 3, [(0, 0), (0, 1), (0, 2), (1, 0)], [(1, 1)])
    save_dataset(ds, tmp_path / "d")
    rc = run_train(tmp_path / "d", tmp_path / "r")
    assert rc == 2
    assert "error: user 0 has interacted with all 3 items" in capsys.readouterr().err


def test_train_rejects_a_split_without_test_interactions_before_training(tmp_path, capsys,
                                                                         monkeypatch):
    save_dataset(make_dataset(3, 4, [(0, 0), (0, 1), (1, 2), (2, 3)]), tmp_path / "d")
    calls = []
    monkeypatch.setattr("sparsecf.trainer.sample_batch",
                        lambda *args: calls.append(args) or sample_batch(*args))
    rc = main(["train", "--data", str(tmp_path / "d"), "--out", str(tmp_path / "r"),
               "--t-end", "300", "--delta-t", "100"])
    assert rc == 2
    assert "error: dataset has no test interactions" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "r").exists()


def test_train_names_the_directory_and_the_pair_of_overlapping_splits(tmp_path, capsys):
    d = tmp_path / "d"
    save_dataset(make_dataset(3, 3, [(0, 0), (1, 1), (2, 2)], [(0, 1)]), d)
    (d / "test.txt").write_text((d / "test.txt").read_text() + "2 2\n")
    assert run_train(d, tmp_path / "r") == 2
    err = capsys.readouterr().err
    assert err == f"error: {d}: train and test splits overlap at user 2, item 2\n"
    assert not (tmp_path / "r").exists()


def test_train_rejects_a_split_whose_train_file_is_a_directory(tmp_path, capsys):
    d = tmp_path / "d"
    (d / "train.txt").mkdir(parents=True)
    assert run_train(d, tmp_path / "r") == 2
    assert str(d / "train.txt") in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_train_warns_when_dense_gets_sparsity(data_dir, tmp_path, capsys):
    rc = run_train(data_dir, tmp_path / "run", "--method", "dense",
                   "--sparsity", "0.5")
    assert rc == 0
    assert "ignored for dense run" in capsys.readouterr().err


def test_train_missing_data_dir_fails(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path / "nope"),
               "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_train_divergence_exits_one(data_dir, tmp_path, capsys):
    rc = run_train(data_dir, tmp_path / "run", "--method", "rp",
                   "--optimizer", "sgd", "--lr", "1e100")
    assert rc == 1
    assert "training aborted" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep


def sweep_spec(tmp_path, data_dir, **kwargs):
    spec = {
        "base": {"dim": 8, "t_end": 30, "delta_t": 10, "batch_size": 32,
                 "eval_every": 15, "eval_k": 10, "lr": 0.01},
        "sparsities": [0.5],
        "methods": ["rp", "dsl"],
        "seeds": [0, 1],
        "data": str(data_dir),
    }
    spec.update(kwargs)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


def test_sweep_runs_cross_product(data_dir, tmp_path, capsys):
    spec = sweep_spec(tmp_path, data_dir)
    rc = main(["sweep", str(spec), "--out", str(tmp_path / "sweep")])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("cell method=") == 4
    runs = (tmp_path / "sweep" / "runs.csv").read_text().splitlines()
    assert len(runs) == 1 + 4
    sweep = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert sweep[0].startswith("method,sparsity,seed_count,recall_mean,recall_std")
    assert len(sweep) == 1 + 2
    first = dict(zip(sweep[0].split(","), sweep[1].split(",")))
    assert first["method"] == "rp"
    assert first["seed_count"] == "2"
    assert float(first["recall_std"]) >= 0.0
    assert first["status"] == "ok"


def test_sweep_single_seed_has_zero_std(data_dir, tmp_path):
    spec = sweep_spec(tmp_path, data_dir, methods=["rp"], seeds=[3])
    assert main(["sweep", str(spec), "--out", str(tmp_path / "sweep")]) == 0
    sweep = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    row = dict(zip(sweep[0].split(","), sweep[1].split(",")))
    assert row["recall_std"] == "0.0"
    assert row["seed_count"] == "1"


def test_sweep_resume_skips_finished_cells(data_dir, tmp_path, capsys):
    spec = sweep_spec(tmp_path, data_dir, methods=["rp"], seeds=[0])
    out = tmp_path / "sweep"
    assert main(["sweep", str(spec), "--out", str(out)]) == 0
    first = (out / "sweep.csv").read_text()
    capsys.readouterr()
    assert main(["sweep", str(spec), "--out", str(out), "--resume"]) == 0
    assert "(resumed)" in capsys.readouterr().out
    assert (out / "sweep.csv").read_text() == first


def test_sweep_resume_retrains_an_aborted_cell(data_dir, tmp_path, capsys):
    spec = sweep_spec(tmp_path, data_dir, methods=["rp"], seeds=[0])
    payload = json.loads(spec.read_text())
    fixed = dict(payload["base"])
    payload["base"].update(optimizer="sgd", lr=1e300)
    spec.write_text(json.dumps(payload))
    out = tmp_path / "sweep"
    assert main(["sweep", str(spec), "--out", str(out)]) == 1
    payload["base"] = fixed
    spec.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["sweep", str(spec), "--out", str(out), "--resume"]) == 0
    printed = capsys.readouterr().out
    assert ": ok" in printed and "(resumed)" not in printed


def test_sweep_resume_retrains_a_changed_config(data_dir, tmp_path, capsys):
    spec = sweep_spec(tmp_path, data_dir, methods=["rp"], seeds=[0])
    out = tmp_path / "sweep"
    assert main(["sweep", str(spec), "--out", str(out)]) == 0
    payload = json.loads(spec.read_text())
    payload["base"]["t_end"] = 90
    spec.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["sweep", str(spec), "--out", str(out), "--resume"]) == 0
    assert "(resumed)" not in capsys.readouterr().out
    config = json.loads((out / "runs" / "rp-s0.5-seed0" / "config.json").read_text())
    assert config["t_end"] == 90


def test_sweep_resume_retrains_a_cell_whose_split_was_replaced(tmp_path, capsys):
    data = tmp_path / "data"

    def prepare(seed):
        assert main(["prepare", "--synthetic", "--users", "60", "--items", "120",
                     "--avg-degree", "15", "--min-degree", "5", "--seed", str(seed),
                     "--out", str(data)]) == 0

    spec = sweep_spec(tmp_path, data, methods=["dsl"], seeds=[0],
                      base={"dim": 8, "t_end": 40, "delta_t": 20, "batch_size": 32, "eval_k": 10})
    prepare(1)
    assert main(["sweep", str(spec), "--out", str(tmp_path / "sweep")]) == 0
    old = (tmp_path / "sweep" / "runs.csv").read_text()
    # the same data directory, now holding another split
    prepare(2)
    capsys.readouterr()
    assert main(["sweep", str(spec), "--out", str(tmp_path / "sweep"), "--resume"]) == 0
    assert "(resumed)" not in capsys.readouterr().out
    assert main(["sweep", str(spec), "--out", str(tmp_path / "fresh")]) == 0
    resumed = (tmp_path / "sweep" / "runs.csv").read_text()
    assert resumed == (tmp_path / "fresh" / "runs.csv").read_text()
    assert resumed != old


def test_sweep_parallel_workers_match_serial(data_dir, tmp_path):
    spec = sweep_spec(tmp_path, data_dir, methods=["rp", "dsl"], seeds=[0])
    assert main(["sweep", str(spec), "--out", str(tmp_path / "serial")]) == 0
    assert main(["sweep", str(spec), "--out", str(tmp_path / "par"),
                 "--workers", "2"]) == 0
    assert (tmp_path / "serial" / "sweep.csv").read_text() == (
        tmp_path / "par" / "sweep.csv"
    ).read_text()


def test_sweep_reports_failed_cells(data_dir, tmp_path, capsys):
    spec = sweep_spec(tmp_path, data_dir, methods=["rp"], seeds=[0])
    payload = json.loads(spec.read_text())
    payload["base"]["optimizer"] = "sgd"
    payload["base"]["lr"] = 1e100
    spec.write_text(json.dumps(payload))
    rc = main(["sweep", str(spec), "--out", str(tmp_path / "sweep")])
    assert rc == 1
    runs = (tmp_path / "sweep" / "runs.csv").read_text().splitlines()
    assert "failed" in runs[1]
    sweep = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert sweep[1].endswith("1 failed")


def test_sweep_needs_data_location(data_dir, tmp_path, capsys):
    spec = sweep_spec(tmp_path, data_dir)
    payload = json.loads(spec.read_text())
    del payload["data"]
    spec.write_text(json.dumps(payload))
    rc = main(["sweep", str(spec), "--out", str(tmp_path / "sweep")])
    assert rc == 2
    assert "needs a data dir" in capsys.readouterr().err


def test_sweep_rejects_unknown_base_key(data_dir, tmp_path, capsys):
    spec = sweep_spec(tmp_path, data_dir)
    payload = json.loads(spec.read_text())
    payload["base"]["fine_tune_iters"] = 5
    spec.write_text(json.dumps(payload))
    rc = main(["sweep", str(spec), "--out", str(tmp_path / "sweep")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown config keys: ['fine_tune_iters']" in err
    assert str(spec) in err


@pytest.mark.parametrize("edit, message", [
    (lambda spec: [1, 2], "a sweep spec must be a JSON object, got list"),
    (lambda spec: {k: v for k, v in spec.items() if k != "sparsities"},
     "missing key 'sparsities'"),
    (lambda spec: spec | {"seeds": 0}, "'seeds' must be a list, got int"),
    (lambda spec: spec | {"methods": "rp"}, "'methods' must be a list, got str"),
    (lambda spec: spec | {"base": [1]}, "'base' must be an object, got list"),
    (lambda spec: spec | {"base": spec["base"] | {"seed": 7, "method": "omp"}},
     "base sets ['method', 'seed'], which the sweep sets for each cell"),
    (lambda spec: spec | {"base": {"run_id": "same", "data_dir": "elsewhere"}},
     "base sets ['data_dir', 'run_id'], which the sweep sets for each cell"),
    (lambda spec: spec | {"base": spec["base"] | {"dim": "8"}},
     "dim must be of type int, got '8'"),
    (lambda spec: spec | {"sparsities": ["0.5"]}, "sparsity must be of type float, got '0.5'"),
    (lambda spec: spec | {"base": spec["base"] | {"lr": 0.0}}, "lr must be positive, got 0.0"),
    (lambda spec: spec | {"base": spec["base"] | {"backbone": "gcn"}},
     "backbone must be one of ('mf', 'lightgcn'), got 'gcn'"),
    (lambda spec: spec | {"seeds": [-1]}, "seed must be >= 0, got -1"),
    (lambda spec: spec | {"decays": ["cosine", "none"]}, "unknown spec keys: ['decays']"),
    (lambda spec: spec | {"seed": [1, 2]}, "unknown spec keys: ['seed']"),
    (lambda spec: spec | {"out": 5}, "'out' must be a string, got int"),
    (lambda spec: spec | {"data": ["x"]}, "'data' must be a string, got list"),
])
def test_sweep_rejects_a_malformed_spec(data_dir, tmp_path, capsys, edit, message):
    spec = sweep_spec(tmp_path, data_dir)
    spec.write_text(json.dumps(edit(json.loads(spec.read_text()))))
    rc = main(["sweep", str(spec), "--out", str(tmp_path / "sweep")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: {spec}: {message}" in err
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("key", ["sparsities", "methods", "seeds"])
def test_sweep_rejects_an_empty_list(data_dir, tmp_path, capsys, key):
    spec = sweep_spec(tmp_path, data_dir, **{key: []})
    rc = main(["sweep", str(spec), "--out", str(tmp_path / "sweep")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {spec}: sparsities, methods, and seeds must all be non-empty\n")
    assert not (tmp_path / "sweep").exists()


def test_resumed_sweep_cell_sizes_its_table_from_the_split(data_dir, tmp_path):
    spec = sweep_spec(tmp_path, data_dir, methods=["rp"], seeds=[0])
    out = tmp_path / "sweep"
    assert main(["sweep", str(spec), "--out", str(out)]) == 0
    first = (out / "runs.csv").read_text()
    # the run's copy of the split manifest is not what a finished cell reads
    (out / "runs" / "rp-s0.5-seed0" / "split_manifest.json").unlink()
    assert main(["sweep", str(spec), "--out", str(out), "--resume"]) == 0
    assert (out / "runs.csv").read_text() == first


@pytest.mark.parametrize("sparsities, name", [
    ([0.3, 0.30000001], "rp-s0.3-seed0"),
    ([0.5, 0.5], "rp-s0.5-seed0"),
])
def test_sweep_rejects_cells_sharing_a_run_dir(data_dir, tmp_path, capsys, sparsities, name):
    spec = sweep_spec(tmp_path, data_dir, sparsities=sparsities, methods=["rp"], seeds=[0])
    rc = main(["sweep", str(spec), "--out", str(tmp_path / "sweep")])
    assert rc == 2
    a, b = sparsities
    assert (f"sweep cells ({a!r}, 'rp', 0) and ({b!r}, 'rp', 0) share the run directory "
            f"'{name}'") in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_rejects_fewer_than_one_worker(data_dir, tmp_path, capsys, workers):
    spec = sweep_spec(tmp_path, data_dir)
    rc = main(["sweep", str(spec), "--out", str(tmp_path / "sweep"), "--workers", workers])
    assert rc == 2
    captured = capsys.readouterr()
    assert f"error: --workers must be >= 1, got {workers}" in captured.err
    assert "cell method=" not in captured.out
    assert not (tmp_path / "sweep").exists()


def test_sweep_rejects_an_unknown_method_before_training(data_dir, tmp_path, capsys):
    spec = sweep_spec(tmp_path, data_dir, methods=["rp", "lottery"])
    rc = main(["sweep", str(spec), "--out", str(tmp_path / "sweep")])
    assert rc == 2
    captured = capsys.readouterr()
    assert "method must be one of" in captured.err
    assert "cell method=" not in captured.out
    assert not (tmp_path / "sweep").exists()


def test_committed_sweep_specs_load():
    paths = sorted((ROOT / "scripts").glob("*.json"))
    assert sorted((ROOT / "scripts").iterdir()) == paths  # scripts/ holds only sweep specs
    specs = {path.stem: SweepSpec.from_file(path) for path in paths}
    for spec in specs.values():  # every cell is a valid config
        for sparsity, method, seed in spec.cells():
            replace(spec.base, sparsity=sparsity, method=method, seed=seed)
    for name in ("method_comparison", "method_comparison_quick"):
        assert len(specs[name].cells()) == 3 * 4 * 5
    cosine = specs["decay_ablation_cosine"]
    assert cosine.cells() == [(0.5, "dsl", seed) for seed in range(5)]
    for decay in DECAYS:
        spec = specs[f"decay_ablation_{decay}"]
        assert spec.base.decay == decay
        assert spec.out == f"results/decay_ablation/{decay}"
        # the three ablation specs differ only in base.decay and out
        assert replace(spec, base=replace(spec.base, decay="cosine"), out=cosine.out) == cosine


@pytest.mark.parametrize("decay", DECAYS)
def test_decay_ablation_spec_trains_at_test_size(data_dir, decay):
    spec = SweepSpec.from_file(ROOT / "scripts" / f"decay_ablation_{decay}.json")
    sparsity, method, seed = spec.cells()[0]
    cfg = replace(spec.base, method=method, sparsity=sparsity, seed=seed,
                  data_dir=str(data_dir), dim=8, t_end=40, delta_t=10, batch_size=32)
    art = train(cfg, load_dataset(data_dir))
    assert art.config["decay"] == decay
    assert art.final_metrics["iteration"] == 40
    assert len(art.events) == 3  # exploration at t = 10, 20, 30


# ---------------------------------------------------------------------------
# profile and report


def test_profile_writes_tables(data_dir, tmp_path, capsys):
    run = tmp_path / "run"
    assert run_train(data_dir, run, "--method", "dsl", "--sparsity", "0.5") == 0
    capsys.readouterr()
    rc = main(["profile", str(run), "--groups", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "users: popularity-sparsity spearman" in out
    lines = (run / "profile.csv").read_text().splitlines()
    assert lines[0] == "group_id,side,mean_popularity,mean_sparsity"
    assert len(lines) == 1 + 2 * 5
    summary = json.loads((run / "profile_summary.json").read_text())
    assert set(summary["spearman"]) == {"users", "items"}


def test_profile_dense_run_has_null_correlation(data_dir, tmp_path, capsys):
    run = tmp_path / "run"
    assert run_train(data_dir, run, "--method", "dense") == 0
    capsys.readouterr()
    assert main(["profile", str(run), "--groups", "4"]) == 0
    assert "spearman = null" in capsys.readouterr().out
    summary = json.loads((run / "profile_summary.json").read_text())
    assert summary["spearman"]["items"] is None


def test_profile_names_both_shapes_when_the_data_does_not_match(data_dir, tmp_path, capsys):
    run, other = tmp_path / "run", tmp_path / "other"
    assert run_train(data_dir, run, "--method", "dense") == 0
    save_dataset(make_dataset(3, 4, [(0, 0), (1, 1), (2, 3)], [(0, 1)]), other)
    ds = load_dataset(data_dir)
    capsys.readouterr()
    assert main(["profile", str(run), "--data", str(other)]) == 2
    assert capsys.readouterr().err == (
        f"error: {other} has (users, items) = (3, 4), but {run / 'checkpoint.final'} holds "
        f"{(ds.num_users, ds.num_items)}\n"
    )
    assert not (run / "profile.csv").exists()


def test_profile_missing_checkpoint_fails(tmp_path, capsys):
    rc = main(["profile", str(tmp_path / "empty")])
    assert rc == 2
    assert "no checkpoint" in capsys.readouterr().err


def test_report_renders_sweep_table(data_dir, tmp_path, capsys):
    spec = sweep_spec(tmp_path, data_dir, methods=["rp"], seeds=[0])
    assert main(["sweep", str(spec), "--out", str(tmp_path / "sweep")]) == 0
    capsys.readouterr()
    assert main(["report", str(tmp_path / "sweep")]) == 0
    out = capsys.readouterr().out
    assert "method" in out and "rp" in out and "±" in out


def test_profile_of_a_run_without_a_data_location_fails(data_dir, tmp_path, capsys):
    # a library run leaves config.json's data_dir null
    run = tmp_path / "run"
    train(RunConfig(method="rp", dim=8, t_end=20, batch_size=32, eval_k=10), load_dataset(data_dir),
          out_dir=run)
    assert main(["profile", str(run)]) == 2
    assert capsys.readouterr().err == "error: dataset location unknown; pass --data\n"
    assert not (run / "profile.csv").exists()


def test_report_of_a_run_prints_its_metrics(data_dir, tmp_path, capsys):
    run = tmp_path / "run"
    assert run_train(data_dir, run, "--method", "rp") == 0
    capsys.readouterr()
    assert main(["report", str(run / "metrics.csv")]) == 0
    assert capsys.readouterr().out == (run / "metrics.csv").read_text()


def test_report_missing_file_fails(tmp_path, capsys):
    rc = main(["report", str(tmp_path / "nothing")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_cli_requires_a_command():
    with pytest.raises(SystemExit):
        main([])
