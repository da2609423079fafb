"""End-to-end CLI pipeline on a miniature synthetic config."""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from vflhlp.cli import main
from vflhlp.data import load_bundle
from vflhlp.nn import load_checkpoint, save_checkpoint

ALL_MODES = ["local_a", "vanilla_vfl", "vflhlp", "vflhlp_a", "vflhlp_p"]

TINY = {
    "preset": "fixture",
    "data": {
        "synth": {
            "n_local": 300,
            "aligned_pool": 60,
            "n_validation": 60,
            "n_test": 150,
            "num_fields_per_party": [1, 3, 3],
            "cat_fields_per_party": [2, 0, 0],
            "cardinality": 8,
            "feature_noise": 0.8,
            "label_noise": 0.5,
        }
    },
    "model": {"embed_dim": 3, "encoder_hidden": [8, 4]},
    "ssl": {"epochs": 2, "batch_size": 64},
    "supervised": {"epochs": 2, "batch_size": 64},
    "downstream": {"epochs": 2, "batch_size": 16},
    "grid": {"modes": ALL_MODES, "aligned_counts": [20, 40], "seeds": [7]},
}


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return path


@pytest.fixture()
def out(tmp_path):
    return tmp_path / "out"


def run(*argv) -> int:
    return main([str(a) for a in argv])


def tree_digest(root: Path, skip=("run_meta.json",)) -> dict[str, str]:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name not in skip:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            out[str(path.relative_to(root))] = digest
    return out


# ------------------------------------------------------------------ prepare


def test_prepare_builds_then_reuses_the_cache(cfg_path, out, capsys):
    assert run("prepare", "--config", cfg_path, "--out", out) == 0
    manifest = out / "cache" / "seed7" / "manifest.json"
    assert manifest.exists()
    first = tree_digest(out / "cache")
    capsys.readouterr()
    assert run("prepare", "--config", cfg_path, "--out", out) == 0
    assert "up to date" in capsys.readouterr().out
    assert tree_digest(out / "cache") == first


def test_prepare_rebuilds_when_the_config_changes(cfg_path, out, tmp_path):
    assert run("prepare", "--config", cfg_path, "--out", out) == 0
    changed = dict(TINY, model={"embed_dim": 4, "encoder_hidden": [8, 4]})
    cfg2 = tmp_path / "tiny2.json"
    cfg2.write_text(json.dumps(changed))
    assert run("prepare", "--config", cfg2, "--out", out) == 0
    meta = json.loads((out / "cache" / "seed7" / "manifest.json").read_text())["meta"]
    assert meta["seed"] == 7  # rewritten manifest still names its seed


# ------------------------------------------------------------------ pretrain


def test_pretrain_writes_per_party_checkpoints(cfg_path, out, capsys):
    assert run("pretrain", "--config", cfg_path, "--out", out) == 0
    ckpts = out / "checkpoints" / "seed7"
    assert (ckpts / "active.ckpt").exists()
    assert (ckpts / "passive2.ckpt").exists()
    assert (ckpts / "passive3.ckpt").exists()
    text = capsys.readouterr().out
    assert "active party pre-trained" in text
    assert "contrastive loss" in text


def test_pretrain_passive_only_skips_the_active_stage(cfg_path, out):
    assert run("pretrain", "--config", cfg_path, "--out", out, "--passive-only") == 0
    ckpts = out / "checkpoints" / "seed7"
    assert not (ckpts / "active.ckpt").exists()
    assert (ckpts / "passive2.ckpt").exists()


# ------------------------------------------------------------------ train / eval


@pytest.fixture()
def trained_out(cfg_path, out):
    assert run("pretrain", "--config", cfg_path, "--out", out) == 0
    assert run("train", "--config", cfg_path, "--out", out) == 0
    return out


def test_train_writes_histories_results_and_audits(trained_out):
    for count in (20, 40):
        for mode in ALL_MODES:
            run_dir = trained_out / "train" / "seed7" / f"count{count}" / mode
            history = [
                json.loads(line)
                for line in (run_dir / "history.jsonl").read_text().splitlines()
            ]
            assert history, mode
            result = json.loads((run_dir / "result.json").read_text())
            assert 0.0 <= result["test_auc"] <= 1.0
            assert result["mode"] == mode
            assert result["aligned_count"] == count
            if mode == "local_a":
                assert result["audit"] is None
            else:
                assert len(history) == TINY["downstream"]["epochs"]
                assert result["audit"]["ok"] is True
                assert result["audit"]["balanced_rounds"] is True
            assert (run_dir / "final.ckpt").exists()
    # the constraint is live only in constrained modes
    for mode, expect in [("vflhlp", 10.0), ("vanilla_vfl", 0.0), ("vflhlp_p", 0.0)]:
        result = json.loads(
            (trained_out / "train" / "seed7" / "count20" / mode / "result.json")
            .read_text()
        )
        assert result["beta"] == expect


def test_train_without_pretraining_fails_clearly(cfg_path, out, capsys):
    assert run("train", "--config", cfg_path, "--out", out, "--mode", "vflhlp") == 4
    err = capsys.readouterr().err
    assert "training error" in err
    assert "vflhlp pretrain" in err


def test_train_single_mode_trains_only_that_mode(cfg_path, out):
    assert run("train", "--config", cfg_path, "--out", out, "--mode", "vanilla_vfl") == 0
    seed_dir = out / "train" / "seed7"
    modes = {p.name for p in seed_dir.glob("count*/*")}
    assert modes == {"vanilla_vfl"}


def test_eval_reproduces_recorded_scores(trained_out, cfg_path, capsys):
    capsys.readouterr()
    assert run("eval", "--config", cfg_path, "--out", trained_out) == 0
    text = capsys.readouterr().out
    assert "differs" not in text
    for eval_path in (trained_out / "train").rglob("eval.json"):
        payload = json.loads(eval_path.read_text())
        assert payload["matches_recorded"] is True


def test_eval_without_checkpoints_fails(cfg_path, out):
    assert run("eval", "--config", cfg_path, "--out", out) == 4


def test_truncated_checkpoints_are_data_errors(trained_out, cfg_path, capsys):
    final = trained_out / "train" / "seed7" / "count20" / "vflhlp" / "final.ckpt"
    final.write_bytes(final.read_bytes()[:-5])
    capsys.readouterr()
    assert run("eval", "--config", cfg_path, "--out", trained_out) == 3
    assert "final.ckpt" in capsys.readouterr().err

    active = trained_out / "checkpoints" / "seed7" / "active.ckpt"
    active.write_bytes(active.read_bytes()[:10])  # cut inside the header
    assert run("train", "--config", cfg_path, "--out", trained_out,
               "--mode", "vflhlp") == 3
    err = capsys.readouterr().err
    assert "data error" in err and "active.ckpt" in err


def test_truncated_result_json_is_a_data_error(trained_out, cfg_path, capsys):
    result = trained_out / "train" / "seed7" / "count20" / "vflhlp" / "result.json"
    result.write_bytes(result.read_bytes()[:10])
    capsys.readouterr()
    assert run("eval", "--config", cfg_path, "--out", trained_out) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "result.json" in err


@pytest.mark.parametrize("damage", ["no mode", "unknown mode", "no head weight"])
def test_eval_on_a_bad_checkpoint_is_a_data_error(cfg_path, out, capsys, damage):
    assert run("train", "--config", cfg_path, "--out", out, "--mode", "local_a") == 0
    ckpt = out / "train" / "seed7" / "count20" / "local_a" / "final.ckpt"
    tensors, meta = load_checkpoint(ckpt)
    if damage == "no mode":
        del meta["mode"]
    elif damage == "unknown mode":
        meta["mode"] = "warp-drive"
    else:
        del tensors["head.0.weight"]
    save_checkpoint(ckpt, tensors, meta)
    capsys.readouterr()
    assert run("eval", "--config", cfg_path, "--out", out) == 3
    err = capsys.readouterr().err
    assert "data error" in err and str(ckpt) in err


@pytest.mark.parametrize("damage", ["no head weight", "misshapen passive tensor"])
def test_train_on_a_bad_pretrained_checkpoint_is_a_data_error(cfg_path, out, capsys,
                                                              damage):
    assert run("pretrain", "--config", cfg_path, "--out", out) == 0
    ckpts = out / "checkpoints" / "seed7"
    if damage == "no head weight":
        ckpt = ckpts / "active.ckpt"
        tensors, meta = load_checkpoint(ckpt)
        del tensors["head.0.weight"]
    else:
        ckpt = ckpts / "passive2.ckpt"
        tensors, meta = load_checkpoint(ckpt)
        tensors["encoder.mlp.0.bias"] = np.zeros(5)  # the spec's layer is 8 wide
    save_checkpoint(ckpt, tensors, meta)
    capsys.readouterr()
    assert run("train", "--config", cfg_path, "--out", out, "--mode", "vflhlp") == 3
    err = capsys.readouterr().err
    assert "data error" in err and str(ckpt) in err


def test_train_and_grid_give_the_same_cells(trained_out, cfg_path, tmp_path):
    grid_out = tmp_path / "g"
    assert run("grid", "--config", cfg_path, "--out", grid_out) == 0
    grid_auc = {
        (c["mode"], c["aligned_count"]): c["test_auc"]
        for c in json.loads((grid_out / "results.json").read_text())["cells"]
    }
    grid_dir = grid_out / "grid" / "seed7"
    for count in (20, 40):
        for mode in ALL_MODES:
            run_dir = trained_out / "train" / "seed7" / f"count{count}" / mode
            result = json.loads((run_dir / "result.json").read_text())
            assert result["test_auc"] == grid_auc[(mode, count)], (mode, count)
            final = run_dir / "final.ckpt"
            if mode != "local_a":
                grid_ckpt = grid_dir / f"count{count}" / f"{mode}.ckpt"
                assert final.read_bytes() == grid_ckpt.read_bytes(), (mode, count)
                continue
            # the grid writes local_a once per seed, with aligned_count 0
            tensors, meta = load_checkpoint(final)
            grid_tensors, grid_meta = load_checkpoint(grid_dir / "local_a.ckpt")
            assert sorted(tensors) == sorted(grid_tensors)
            for name, t in tensors.items():
                np.testing.assert_array_equal(t, grid_tensors[name])
            assert (meta["aligned_count"], grid_meta["aligned_count"]) == (count, 0)


def test_a_cache_in_the_older_layout_still_loads(cfg_path, out, capsys):
    # caches once also held a validation split and per-party test logits
    assert run("prepare", "--config", cfg_path, "--out", out) == 0
    cache = out / "cache" / "seed7"
    fresh, _ = load_bundle(cache)
    manifest = json.loads((cache / "manifest.json").read_text())
    old = {"val_ids": np.arange(60), "val_labels": np.zeros(60),
           "val_bayes": np.full(60, 0.5)}
    for k in (1, 2, 3):
        old[f"val_party{k}_cat"] = np.zeros((60, 2 if k == 1 else 0), np.int64)
        old[f"val_party{k}_num"] = np.zeros((60, 1 if k == 1 else 3))
        old[f"test_logit_party{k}"] = np.zeros(150)
    for name, arr in old.items():
        np.save(cache / f"{name}.npy", arr, allow_pickle=False)
    manifest["arrays"] = sorted(manifest["arrays"] + list(old))
    manifest.update(has_validation=True, has_oracle=True)
    (cache / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    (cache / "val_ids.npy").unlink()  # listed but unused, so never read
    before = tree_digest(cache)

    loaded, _ = load_bundle(cache)
    np.testing.assert_array_equal(loaded.test.bayes_scores, fresh.test.bayes_scores)
    for k in (1, 2, 3):
        np.testing.assert_array_equal(loaded.train.parties[k].num,
                                      fresh.train.parties[k].num)
        np.testing.assert_array_equal(loaded.test.cat[k], fresh.test.cat[k])
    capsys.readouterr()
    assert run("prepare", "--config", cfg_path, "--out", out) == 0
    assert "up to date" in capsys.readouterr().out
    assert tree_digest(cache) == before


def test_corrupt_dataset_cache_is_a_data_error(cfg_path, out, capsys):
    assert run("prepare", "--config", cfg_path, "--out", out) == 0
    cache = out / "cache" / "seed7"
    num = cache / "party1_num.npy"
    raw = num.read_bytes()
    num.write_bytes(raw[: len(raw) // 2])
    capsys.readouterr()
    assert run("eval", "--config", cfg_path, "--out", out) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "party1_num.npy" in err

    num.write_bytes(raw)
    manifest = cache / "manifest.json"
    manifest.write_text(manifest.read_text()[:-40])
    for command in ("eval", "prepare"):
        assert run(command, "--config", cfg_path, "--out", out) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "manifest.json" in err


# ------------------------------------------------------------------ grid


def test_grid_writes_tables_and_is_deterministic(cfg_path, tmp_path):
    out1, out2 = tmp_path / "g1", tmp_path / "g2"
    assert run("grid", "--config", cfg_path, "--out", out1) == 0
    assert run("grid", "--config", cfg_path, "--out", out2) == 0
    for name in ("results.csv", "summary.csv", "results.json", "summary.txt"):
        b1 = (out1 / name).read_bytes()
        assert b1 == (out2 / name).read_bytes()
        assert b1
    assert tree_digest(out1) == tree_digest(out2)
    rows = (out1 / "results.csv").read_text().splitlines()
    assert rows[0].startswith("mode,aligned_count,seed")
    assert len(rows) == 1 + len(ALL_MODES) * 2  # one per (mode, count), one seed
    assert all(",ok," in row for row in rows[1:])
    summary = (out1 / "summary.txt").read_text()
    assert "vflhlp" in summary and "n_al=40" in summary
    assert "bayes oracle ceiling" in summary
    assert (out1 / "grid" / "seed7" / "count40" / "vflhlp.ckpt").exists()
    assert (out1 / "grid" / "seed7" / "local_a.ckpt").exists()


def test_grid_records_a_diverged_cell_and_carries_on(tmp_path, capsys):
    # beta = 1e300 blows the active party's weights up in the one update;
    # the gradients were still finite, so only the scores show it
    raw = {
        **TINY,
        "downstream": {**TINY["downstream"], "epochs": 1, "batch_size": 64},
        "grid": {**TINY["grid"], "modes": ["vflhlp", "vanilla_vfl"],
                 "beta_sweep": [1e300, 0.1]},
    }
    cfg = tmp_path / "diverge.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "g"
    with np.errstate(all="ignore"):
        assert run("grid", "--config", cfg, "--out", out) == 4
    assert "2 grid cells failed" in capsys.readouterr().err
    rows = [r.split(",") for r in (out / "results.csv").read_text().splitlines()[1:]]
    assert [(r[0], r[1], r[3], r[4]) for r in rows] == [
        (mode, count, beta, status)
        for count in ("20", "40")
        for mode, beta, status in (("vflhlp", "1e+300", "failed"),
                                   ("vflhlp", "0.1", "ok"),
                                   ("vanilla_vfl", "0.0", "ok"))
    ]
    assert all("TrainingError: scores must be finite" in r[6] for r in rows[::3])


def test_grid_respects_seed_flag(cfg_path, tmp_path):
    cfg2 = tmp_path / "two-seeds.json"
    cfg2.write_text(json.dumps({**TINY, "grid": {**TINY["grid"], "seeds": [7, 8]}}))
    out = tmp_path / "g"
    assert run("grid", "--config", cfg2, "--out", out, "--seed", "8") == 0
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert rows
    assert all(row.split(",")[2] == "8" for row in rows)


def test_output_dir_env_var_is_used(cfg_path, tmp_path, monkeypatch):
    target = tmp_path / "env-out"
    monkeypatch.setenv("VFLHLP_OUT", str(target))
    assert run("prepare", "--config", cfg_path) == 0
    assert (target / "cache" / "seed7" / "manifest.json").exists()


# ------------------------------------------------------------------ errors


@pytest.mark.parametrize("command, overrides, fragment", [
    ("pretrain", {"supervised": {"optimizer": "rmsprop"}}, "supervised.optimizer"),
    ("grid", {"supervised": {"optimizer": "rmsprop"}}, "supervised.optimizer"),
    ("train", {"downstream": {"epochs": "ten"}}, "downstream.epochs"),
], ids=["pretrain-optimizer", "grid-optimizer", "train-epochs"])
def test_bad_config_values_use_exit_code_two(tmp_path, out, capsys, command,
                                             overrides, fragment):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {**TINY, **{k: {**TINY[k], **v} for k, v in overrides.items()}}))
    assert run(command, "--config", bad, "--out", out) == 2
    err = capsys.readouterr().err
    assert "config error" in err and fragment in err


def test_usage_and_config_errors_use_exit_code_two(cfg_path, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**TINY, "bogus": 1}))
    assert run("train", "--config", bad) == 2
    assert "config error" in capsys.readouterr().err
    assert run("train", "--config", tmp_path / "missing.json") == 2
    assert run("train", "--config", cfg_path, "--mode", "warp-drive") == 2
    assert run("grid", "--config", cfg_path, "--seed", "-1") == 2


@pytest.mark.parametrize("damage", ["invalid utf-8", "directory"])
def test_unreadable_config_is_a_config_error(tmp_path, out, capsys, damage):
    path = tmp_path / "cfg.json"
    if damage == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"preset": "fixture\xff"}')
    assert run("prepare", "--config", path, "--out", out) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(path) in err


@pytest.mark.parametrize("damage", ["none", "invalid utf-8", "directory",
                                    "field over the csv limit"])
def test_unreadable_csv_is_a_data_error(tmp_path, out, capsys, damage):
    rows = "id,label,x1,x2\n" + "".join(f"{i},{i % 2},{i},{-i}\n" for i in range(80))
    test_csv, train_csv = tmp_path / "test.csv", tmp_path / "train.csv"
    test_csv.write_text(rows)
    if damage == "directory":
        train_csv.mkdir()
    elif damage == "invalid utf-8":
        train_csv.write_bytes(rows.encode() + b"80,0,\xff,1\n")
    elif damage == "field over the csv limit":
        train_csv.write_text(rows + "80,0," + "9" * 200_000 + ",1\n")
    else:
        train_csv.write_text(rows)
    fields = [{"name": "x1", "kind": "numerical", "party": 1},
              {"name": "x2", "kind": "numerical", "party": 2}]
    csv_data = {"train_path": str(train_csv), "test_path": str(test_csv),
                "k_parties": 2, "aligned_pool": 40, "fields": fields}
    cfg = tmp_path / "csv.json"
    cfg.write_text(json.dumps({**TINY, "data": {"kind": "csv", "csv": csv_data}}))
    if damage == "none":
        assert run("prepare", "--config", cfg, "--out", out) == 0
        return
    assert run("prepare", "--config", cfg, "--out", out) == 3
    err = capsys.readouterr().err
    assert "data error" in err and str(train_csv) in err
