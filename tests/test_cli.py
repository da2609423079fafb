"""End-to-end CLI pipeline on a miniature synthetic config."""
import contextlib
import csv
import hashlib
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from vflhlp import cli, evaluation, federated
from vflhlp.cli import main
from vflhlp.config import config_hash, data_hash, encoder_specs, load_config
from vflhlp.data import load_bundle
from vflhlp.nn import load_checkpoint, save_checkpoint

from conftest import PINNED_CSV_CONFIG, splice_metadata

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
    cache = out / "cache" / "seed7"
    assert [p.name for p in cache.iterdir()] == ["dataset.ckpt"]
    first = tree_digest(out / "cache")
    capsys.readouterr()
    assert run("prepare", "--config", cfg_path, "--out", out) == 0
    assert "up to date" in capsys.readouterr().out
    assert tree_digest(out / "cache") == first


def test_prepare_rebuilds_when_the_config_changes(cfg_path, out, tmp_path, capsys):
    assert run("prepare", "--config", cfg_path, "--out", out) == 0
    path = out / "cache" / "seed7" / "dataset.ckpt"
    first_hash = load_checkpoint(path)[1]["meta"]["data_hash"]
    changed = dict(TINY, data={"synth": {**TINY["data"]["synth"], "n_test": 140}})
    cfg2 = tmp_path / "tiny2.json"
    cfg2.write_text(json.dumps(changed))
    capsys.readouterr()
    assert run("prepare", "--config", cfg2, "--out", out) == 0
    assert "up to date" not in capsys.readouterr().out
    meta = load_checkpoint(path)[1]["meta"]
    assert meta == {"data_hash": data_hash(load_config(cfg2)), "seed": 7}
    assert meta["data_hash"] != first_hash


def _spy_on_build_bundle(monkeypatch) -> list[int]:
    """The seeds `evaluation.build_bundle` is called with from now on."""
    built, build = [], evaluation.build_bundle

    def spy(c, seed):
        built.append(seed)
        return build(c, seed)

    monkeypatch.setattr(evaluation, "build_bundle", spy)
    return built


def test_a_cache_outlives_changes_outside_the_data_section(cfg_path, out, tmp_path,
                                                          monkeypatch):
    # a dataset is built from the data section and the seed alone, so a
    # training setting or the output_dir leaves its cache current
    assert run("prepare", "--config", cfg_path, "--out", out) == 0
    changed = dict(TINY, supervised={**TINY["supervised"], "epochs": 1},
                   output_dir=str(tmp_path / "elsewhere"))
    cfg2 = tmp_path / "tiny2.json"
    cfg2.write_text(json.dumps(changed))
    built = _spy_on_build_bundle(monkeypatch)
    assert run("pretrain", "--config", cfg2, "--out", out) == 0
    assert built == []


def test_a_cache_stamped_with_the_config_hash_is_stale(cfg_path, out, capsys):
    # older versions keyed a cache by the whole config's hash
    assert run("prepare", "--config", cfg_path, "--out", out) == 0
    path = out / "cache" / "seed7" / "dataset.ckpt"
    tensors, metadata = load_checkpoint(path)
    old_meta = {"config_hash": config_hash(load_config(cfg_path)), "seed": 7}
    save_checkpoint(path, tensors, {**metadata, "meta": old_meta})
    capsys.readouterr()
    assert run("prepare", "--config", cfg_path, "--out", out) == 0
    assert "up to date" not in capsys.readouterr().out
    assert load_checkpoint(path)[1] == metadata


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


@pytest.mark.parametrize("stage, error", [
    ("ssl", "training error: party 2: non-finite gradient for parameter "),
    ("supervised", "training error: party 1: non-finite gradient for parameter 'head.0.weight'"),
])
def test_a_diverging_pretrain_stage_exits_4_without_numpy_warnings(tmp_path, capfd, stage,
                                                                   error):
    cfg = tmp_path / "diverge.json"
    cfg.write_text(json.dumps({**TINY, stage: {**TINY[stage], "learning_rate": 1e300}}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("pretrain", "--config", cfg, "--out", tmp_path / "out") == 4
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capfd.readouterr().err
    assert err.startswith(error)
    assert "Warning" not in err


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


def test_a_multi_mode_train_without_pretraining_trains_no_cell(cfg_path, out, capsys):
    # local_a and vanilla_vfl need nothing, but vflhlp does: the seed's needs
    # are read before its first cell trains
    assert run("train", "--config", cfg_path, "--out", out) == 4
    err = capsys.readouterr().err
    assert "training error" in err and "active.ckpt" in err
    assert not (out / "train").exists()


def test_a_later_seed_without_pretraining_fails_before_the_first_cell(tmp_path, out, capsys):
    # seed 7 is pre-trained and seed 8 is not: every seed's checkpoints are
    # read before any cell trains, so seed 7 writes nothing either
    cfg = tmp_path / "two-seeds.json"
    cfg.write_text(json.dumps({**TINY, "grid": {**TINY["grid"], "seeds": [7, 8]}}))
    assert run("pretrain", "--config", cfg, "--out", out, "--seed", "7") == 0
    capsys.readouterr()
    assert run("train", "--config", cfg, "--out", out) == 4
    err = capsys.readouterr().err
    assert str(Path("checkpoints") / "seed8" / "active.ckpt") in err
    assert not list(out.rglob("final.ckpt"))


def test_train_and_eval_print_their_cells_in_the_grid_table_order(cfg_path, out, tmp_path,
                                                                   capsys):
    assert run("pretrain", "--config", cfg_path, "--out", out) == 0
    capsys.readouterr()
    assert run("train", "--config", cfg_path, "--out", out) == 0
    trained = capsys.readouterr().out.splitlines()
    assert run("eval", "--config", cfg_path, "--out", out) == 0
    evaluated = capsys.readouterr().out.splitlines()
    assert run("grid", "--config", cfg_path, "--out", tmp_path / "g") == 0
    rows = csv.DictReader((tmp_path / "g" / "results.csv").read_text().splitlines())
    expected = [f"seed {r['seed']} n_al={r['aligned_count']} {r['mode']}" for r in rows]
    assert len(expected) == len(ALL_MODES) * 2
    assert [line.split(":")[0] for line in trained] == expected
    assert [line.split(":")[0] for line in evaluated] == expected


def test_a_seed_flag_keeps_the_config_hash_and_reuses_the_cache(tmp_path, out, monkeypatch):
    cfg = tmp_path / "two-seeds.json"
    cfg.write_text(json.dumps({**TINY, "grid": {**TINY["grid"], "seeds": [7, 8]}}))
    assert run("prepare", "--config", cfg, "--out", out) == 0
    built = _spy_on_build_bundle(monkeypatch)
    assert run("pretrain", "--config", cfg, "--out", out, "--seed", "7", "--passive-only") == 0
    assert built == []  # the cache that prepare wrote is current for --seed 7
    _, meta = load_checkpoint(out / "checkpoints" / "seed7" / "passive2.ckpt")
    assert meta["config_hash"] == config_hash(load_config(cfg))
    assert not (out / "checkpoints" / "seed8").exists()


def test_outputs_do_not_depend_on_the_output_dir(tmp_path, monkeypatch):
    # the config hash that stamps checkpoints and result.json leaves
    # output_dir out, so two runs that differ only there write the same bytes
    monkeypatch.delenv("VFLHLP_OUT", raising=False)
    trees = []
    for name in ("a", "b"):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({**TINY, "output_dir": str(tmp_path / name)}))
        for argv in (["prepare"], ["pretrain"], ["train", "--mode", "vflhlp"]):
            assert run(*argv, "--config", cfg) == 0
        trees.append(tree_digest(tmp_path / name))
    names = {Path(p).name for p in trees[0]}
    assert {"active.ckpt", "passive2.ckpt", "final.ckpt", "result.json"} <= names
    assert trees[0] == trees[1]


def test_run_meta_keeps_one_record_per_command(cfg_path, out):
    assert run("prepare", "--config", cfg_path, "--out", out) == 0
    assert run("train", "--config", cfg_path, "--out", out, "--mode", "vflhlp") == 4
    meta = json.loads((out / "run_meta.json").read_text())
    assert {command: record["exit_code"] for command, record in meta.items()} == {
        "prepare": 0, "train": 4}
    # a sidecar that cannot be read is replaced, not an error
    (out / "run_meta.json").write_text("[1, 2")
    assert run("prepare", "--config", cfg_path, "--out", out) == 0
    assert list(json.loads((out / "run_meta.json").read_text())) == ["prepare"]


def test_train_single_mode_trains_only_that_mode(cfg_path, out):
    assert run("train", "--config", cfg_path, "--out", out, "--mode", "vanilla_vfl") == 0
    seed_dir = out / "train" / "seed7"
    modes = {p.name for p in seed_dir.glob("count*/*")}
    assert modes == {"vanilla_vfl"}


def _warm_active_config(tmp_path, **grid) -> Path:
    path = tmp_path / "warm-active.json"
    path.write_text(json.dumps({
        **TINY,
        "downstream": {**TINY["downstream"], "warm_start_active": True},
        "grid": {**TINY["grid"], **grid},
    }))
    return path


def test_local_a_with_warm_start_active_needs_no_pretraining(tmp_path, out):
    # local_a trains the active party from scratch, so the flag asks nothing of it
    cfg = _warm_active_config(tmp_path)
    assert run("train", "--config", cfg, "--out", out, "--mode", "local_a") == 0
    assert (out / "train" / "seed7" / "count20" / "local_a" / "final.ckpt").exists()
    assert not (out / "checkpoints").exists()
    # a federated cell still reads the active party's weights
    assert run("train", "--config", cfg, "--out", out, "--mode", "vanilla_vfl") == 4


def test_a_local_a_grid_does_not_pretrain_the_active_party(tmp_path, out, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a local_a grid pre-trained the active party")

    # local_a itself trains in a spawned worker, which this patch does not reach
    monkeypatch.setattr(evaluation, "pretrain_active", refuse)
    cfg = _warm_active_config(tmp_path, modes=["local_a"])
    assert run("grid", "--config", cfg, "--out", out) == 0
    results = json.loads((out / "results.json").read_text())
    assert results["active_val_auc"] == {}
    assert [c["status"] for c in results["cells"]] == ["ok", "ok"]


def test_eval_reproduces_recorded_scores(trained_out, cfg_path, capsys):
    capsys.readouterr()
    assert run("eval", "--config", cfg_path, "--out", trained_out) == 0
    text = capsys.readouterr().out
    assert "differs" not in text
    for eval_path in (trained_out / "train").rglob("eval.json"):
        payload = json.loads(eval_path.read_text())
        assert payload["matches_recorded"] is True


def test_eval_scores_a_grid_run(cfg_path, out, capsys):
    # grid writes its cells where train does, so eval reads a sweep-free grid run
    assert run("grid", "--config", cfg_path, "--out", out) == 0
    capsys.readouterr()
    assert run("eval", "--config", cfg_path, "--out", out) == 0
    assert "differs" not in capsys.readouterr().out
    evals = sorted((out / "train").rglob("eval.json"))
    assert len(evals) == len(ALL_MODES) * 2  # every (mode, count) cell, local_a's too
    for eval_path in evals:
        assert json.loads(eval_path.read_text())["matches_recorded"] is True, eval_path


def test_eval_flags_a_checkpoint_trained_under_another_config(cfg_path, out, tmp_path,
                                                              capsys):
    assert run("train", "--config", cfg_path, "--out", out, "--mode", "vanilla_vfl") == 0
    other = tmp_path / "more-epochs.json"
    other.write_text(json.dumps({**TINY, "downstream": {**TINY["downstream"], "epochs": 3}}))
    for cfg, same in ((cfg_path, True), (other, False)):
        capsys.readouterr()
        assert run("eval", "--config", cfg, "--out", out) == 0
        scored = [line for line in capsys.readouterr().out.splitlines() if "test AUC" in line]
        assert len(scored) == 2, scored  # vanilla_vfl at both counts
        assert all(line.endswith("  (trained under another config)") != same for line in scored)
        written = [json.loads(p.read_text()) for p in (out / "train").rglob("eval.json")]
        assert len(written) == 2
        assert all(e["config_hash_matches"] is same and e["matches_recorded"] for e in written)


def test_eval_without_checkpoints_fails(cfg_path, out, capsys):
    assert run("eval", "--config", cfg_path, "--out", out) == 4
    assert capsys.readouterr().err == (
        f"training error: no trained checkpoints under {out / 'train'}; "
        "run `vflhlp train` first\n")


def _scored_cells(text: str) -> list[str]:
    """The "seed S n_al=N {cell}" part of each line `train` or `eval` printed."""
    return [line.split(":")[0] for line in text.splitlines()]


def test_eval_scores_a_beta_sweep_grid_run(tmp_path, out, capsys):
    # a grid under a beta sweep tags every cell with its beta, and eval runs the
    # same config's plan, so it finds and scores each tagged cell
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({**TINY, "grid": {**TINY["grid"], "aligned_counts": [20],
                                                "modes": ["vanilla_vfl", "vflhlp"],
                                                "beta_sweep": [0.5, 10]}}))
    assert run("grid", "--config", cfg, "--out", out) == 0
    capsys.readouterr()
    assert run("eval", "--config", cfg, "--out", out) == 0
    assert _scored_cells(capsys.readouterr().out) == [
        f"seed 7 n_al=20 {tag}" for tag in ("vanilla_vfl_b0", "vflhlp_b0.5", "vflhlp_b10")]
    evals = sorted((out / "train").rglob("eval.json"))
    assert len(evals) == 3
    for eval_path in evals:
        assert json.loads(eval_path.read_text())["matches_recorded"] is True, eval_path


def test_eval_scores_a_mode_trained_outside_the_configs_modes(tmp_path, out, capsys):
    # `train --mode` trains any mode; eval's plan lists the config's modes, then the rest
    cfg = tmp_path / "vanilla-only.json"
    cfg.write_text(json.dumps({**TINY, "grid": {**TINY["grid"], "modes": ["vanilla_vfl"]}}))
    assert run("pretrain", "--config", cfg, "--out", out, "--passive-only") == 0
    assert run("train", "--config", cfg, "--out", out, "--mode", "vflhlp_p") == 0
    capsys.readouterr()
    assert run("eval", "--config", cfg, "--out", out) == 0
    assert _scored_cells(capsys.readouterr().out) == [
        "seed 7 n_al=20 vflhlp_p", "seed 7 n_al=40 vflhlp_p"]
    evals = sorted((out / "train").rglob("eval.json"))
    assert len(evals) == 2
    for eval_path in evals:
        assert json.loads(eval_path.read_text())["matches_recorded"] is True, eval_path


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


@pytest.mark.parametrize("damage", ["no mode", "unknown mode", "no head weight",
                                    "extra tensor"])
def test_eval_on_a_bad_checkpoint_is_a_data_error(cfg_path, out, capsys, damage):
    assert run("train", "--config", cfg_path, "--out", out, "--mode", "local_a") == 0
    ckpt = out / "train" / "seed7" / "count20" / "local_a" / "final.ckpt"
    tensors, meta = load_checkpoint(ckpt)
    if damage == "no mode":
        del meta["mode"]
    elif damage == "unknown mode":
        meta["mode"] = "warp-drive"
    elif damage == "extra tensor":
        tensors["party2.encoder.mlp.0.bias"] = np.zeros(4)  # local_a has no party 2
    else:
        del tensors["head.0.weight"]
    save_checkpoint(ckpt, tensors, meta)
    capsys.readouterr()
    assert run("eval", "--config", cfg_path, "--out", out) == 3
    err = capsys.readouterr().err
    assert "data error" in err and str(ckpt) in err


@pytest.mark.parametrize("damage", ["no head weight", "misshapen passive tensor",
                                    "extra active tensor", "extra passive tensor"])
def test_train_on_a_bad_pretrained_checkpoint_is_a_data_error(cfg_path, out, capsys,
                                                              damage):
    assert run("pretrain", "--config", cfg_path, "--out", out) == 0
    ckpts = out / "checkpoints" / "seed7"
    ckpt = ckpts / ("passive2.ckpt" if "passive" in damage else "active.ckpt")
    tensors, meta = load_checkpoint(ckpt)
    if damage == "no head weight":
        del tensors["head.0.weight"]
    elif damage == "misshapen passive tensor":
        tensors["encoder.mlp.0.bias"] = np.zeros(5)  # the spec's layer is 8 wide
    elif damage == "extra active tensor":
        tensors["projection.0.bias"] = np.zeros(4)
    else:
        tensors["head.0.weight"] = np.zeros((1, 4))  # a passive party has no head
    save_checkpoint(ckpt, tensors, meta)
    capsys.readouterr()
    assert run("train", "--config", cfg_path, "--out", out, "--mode", "vflhlp") == 3
    err = capsys.readouterr().err
    assert "data error" in err and str(ckpt) in err


# (edited section, mode trained, the file that goes stale): an ssl edit leaves
# active.ckpt current, and a downstream edit leaves every pre-trained file current
@pytest.mark.parametrize("section, mode, stale", [
    ("ssl", "vflhlp", "passive2.ckpt"),
    ("supervised", "vflhlp", "active.ckpt"),
    ("ssl", "vflhlp_a", None),
    ("downstream", "vflhlp", None),
])
def test_train_refuses_a_pretrained_checkpoint_from_another_config(cfg_path, out, tmp_path,
                                                                   capsys, section, mode, stale):
    assert run("pretrain", "--config", cfg_path, "--out", out) == 0
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps({**TINY, section: {**TINY[section], "epochs": 3}}))
    capsys.readouterr()
    code = run("train", "--config", edited, "--out", out, "--mode", mode)
    err = capsys.readouterr().err
    if stale is None:
        assert code == 0, err
        return
    assert code == 4 and "training error" in err
    assert str(out / "checkpoints" / "seed7" / stale) in err and "vflhlp pretrain" in err
    assert not (out / "train").exists()


def test_a_pretrained_checkpoint_without_a_key_is_stale(cfg_path, out, capsys):
    # as a file written before pre-trained checkpoints carried keys
    assert run("pretrain", "--config", cfg_path, "--out", out) == 0
    path = out / "checkpoints" / "seed7" / "passive3.ckpt"
    tensors, meta = load_checkpoint(path)
    del meta["key"]
    save_checkpoint(path, tensors, meta)
    capsys.readouterr()
    assert run("train", "--config", cfg_path, "--out", out, "--mode", "vflhlp_p") == 4
    assert str(path) in capsys.readouterr().err


def test_pretrained_checkpoints_hold_exactly_the_encoder_and_head_tensors(cfg_path, out):
    # the names and shapes a reader outside the package builds the models from
    assert run("prepare", "--config", cfg_path, "--out", out) == 0
    assert run("pretrain", "--config", cfg_path, "--out", out) == 0
    bundle, _ = load_bundle(out / "cache" / "seed7")
    specs = encoder_specs(bundle.train, load_config(cfg_path).model)
    for k, spec in specs.items():
        layout = spec.build_empty().layout
        expected = {f"encoder.{n}": s for n, s in zip(layout.names, layout.shapes)}
        if k == 1:
            expected.update({"head.0.weight": (1, spec.rep_dim), "head.0.bias": (1,)})
        name = "active.ckpt" if k == 1 else f"passive{k}.ckpt"
        tensors, _ = load_checkpoint(out / "checkpoints" / "seed7" / name)
        assert {n: t.shape for n, t in tensors.items()} == expected, name


def test_train_and_grid_give_the_same_cells(trained_out, cfg_path, tmp_path, capsys):
    # both pipelines write cells through run_plan into one layout, so the two
    # train/ trees are byte-identical, local_a's file at each count included;
    # under a beta sweep both run the same plan and tag every mode with its beta
    sweep, swept_out = tmp_path / "sweep.json", tmp_path / "swept"
    sweep.write_text(json.dumps({**TINY, "grid": {**TINY["grid"], "beta_sweep": [0.5, 10]}}))
    assert run("pretrain", "--config", sweep, "--out", swept_out) == 0
    capsys.readouterr()
    assert run("train", "--config", sweep, "--out", swept_out) == 0
    swept_tags = ["local_a_b0", "vanilla_vfl_b0", "vflhlp_b0.5", "vflhlp_b10", "vflhlp_a_b0.5",
                  "vflhlp_a_b10", "vflhlp_p_b0"]
    assert _scored_cells(capsys.readouterr().out) == [
        f"seed 7 n_al={count} {tag}" for count in (20, 40) for tag in swept_tags]
    for cfg, out, tags in ((cfg_path, trained_out, ALL_MODES), (sweep, swept_out, swept_tags)):
        grid_out = tmp_path / f"grid-{cfg.stem}"
        assert run("grid", "--config", cfg, "--out", grid_out) == 0
        grid_auc = {
            (c["mode"], c["beta"], c["aligned_count"]): c["test_auc"]
            for c in json.loads((grid_out / "results.json").read_text())["cells"]
        }
        trained = tree_digest(out / "train")
        assert trained == tree_digest(grid_out / "train")
        assert sorted(trained) == sorted(
            f"seed7/count{count}/{tag}/{name}" for count in (20, 40) for tag in tags
            for name in ("final.ckpt", "history.jsonl", "result.json")
        )
        results = [json.loads(p.read_text()) for p in (out / "train").rglob("result.json")]
        assert {(r["mode"], r["beta"], r["aligned_count"]): r["test_auc"]
                for r in results} == grid_auc


# sha256 of each cached array's raw bytes for TINY, seed 7, as the earlier
# one-.npy-per-array cache stored them: the one-file cache holds the same data
TINY_SEED7_ARRAYS = {
    "aligned_pool": ("int64", (60,), "ee7242386485bc61917960ec3faaf4eb5a3f74c1b3247b3cdd1c5917f7f62819"),
    "labels": ("float64", (300,), "944c9322ed932327d8752ca418dae13d5c305c4bfa79a18540d576bf54c602ce"),
    "party1_cat": ("int64", (300, 2), "9d48b1d45c0171c8129440e6477a62e0c75eef98c9381b24bd045452f47bd3f5"),
    "party1_ids": ("int64", (300,), "ce0025292475f524f6feb9db6db2bbbcf7222a0db4a0b36ceb438fafb527df4c"),
    "party1_num": ("float64", (300, 1), "b18ca7e528be37e3b20adbcc1374a1288476cdae1558908b1de59857939f6166"),
    "party2_cat": ("int64", (300, 0), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "party2_ids": ("int64", (300,), "c2f7e0969b0624779ac1e010c15ad94c4c243ad6f601cb710cf9d06fbb074b51"),
    "party2_num": ("float64", (300, 3), "1a34ae2a71c91e1032e646bb82d977dbd4b615fce564343dd83846cb536db556"),
    "party3_cat": ("int64", (300, 0), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "party3_ids": ("int64", (300,), "176ebccd0328ca24a3cd418d6ffc68c6956824636f02b6bd527099d93d0a560f"),
    "party3_num": ("float64", (300, 3), "9e5c08f94dbed3c97e35dac028d19edb035e35cdcb2b006a44f03a7f5f51c3a8"),
    "test_bayes": ("float64", (150,), "4b732c27c501351a551f00d0e81de1222d2744f2b7f7f94a39e85458ce5359c0"),
    "test_ids": ("int64", (150,), "e6ab9eba86e639dd2664749d14f4c9e261bdd022536696e59b5a13bffd624c07"),
    "test_labels": ("float64", (150,), "e3949b977b1180c4bbf86ab2904c120f6f0f0ce09aaafb8c88c9e311604ddddb"),
    "test_party1_cat": ("int64", (150, 2), "133a9c8a4cec0f3c34fc3108dfe4f49a9f3b2a8caf6b77763469c0f3edecd784"),
    "test_party1_num": ("float64", (150, 1), "5f7c889f05901f9dce95730f1a9ae5a63876c6b46b37a451333e68f54ce16e1d"),
    "test_party2_cat": ("int64", (150, 0), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "test_party2_num": ("float64", (150, 3), "281947afb01a4ab370281b7d92e94302ba442d3de030f660a477571a5766bad1"),
    "test_party3_cat": ("int64", (150, 0), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "test_party3_num": ("float64", (150, 3), "5b3fabc57e767fa165cfd72271906564675fd158ec24dc0e1af6dfa49559eb1e"),
}


# the same for TINY reshaped like the avazu-like preset (categorical fields
# only) and like the criteo-like one (two parties, one without numbers)
SHAPES = {
    "avazu-like": {"k_parties": 3, "num_fields_per_party": [0, 0, 0],
                   "cat_fields_per_party": [2, 2, 3]},
    "criteo-like": {"k_parties": 2, "num_fields_per_party": [3, 0],
                    "cat_fields_per_party": [0, 4], "party_signal": [1.0, 0.8]},
}
SHAPED_SEED7_ARRAYS = {
    "avazu-like": {
        "aligned_pool": ("int64", (60,), "ee7242386485bc61917960ec3faaf4eb5a3f74c1b3247b3cdd1c5917f7f62819"),
        "labels": ("float64", (300,), "4c787743955e5a8a5934e78834de867cba1253b844acdec3f59b6fd058b98491"),
        "party1_cat": ("int64", (300, 2), "6fe15744697154801e0f975d94edfe620517594fe26df77b45d63fba28244dfb"),
        "party1_ids": ("int64", (300,), "ce0025292475f524f6feb9db6db2bbbcf7222a0db4a0b36ceb438fafb527df4c"),
        "party1_num": ("float64", (300, 0), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "party2_cat": ("int64", (300, 2), "955a86d2379916f2efa841f3082f4b38db447b3b351a82a0c02d98fd1e40b1e5"),
        "party2_ids": ("int64", (300,), "c2f7e0969b0624779ac1e010c15ad94c4c243ad6f601cb710cf9d06fbb074b51"),
        "party2_num": ("float64", (300, 0), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "party3_cat": ("int64", (300, 3), "91674b5a07557dc023ba4ae6b14577c41742f028deecc749e6b3eb75debb1ee3"),
        "party3_ids": ("int64", (300,), "176ebccd0328ca24a3cd418d6ffc68c6956824636f02b6bd527099d93d0a560f"),
        "party3_num": ("float64", (300, 0), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "test_bayes": ("float64", (150,), "4b732c27c501351a551f00d0e81de1222d2744f2b7f7f94a39e85458ce5359c0"),
        "test_ids": ("int64", (150,), "e6ab9eba86e639dd2664749d14f4c9e261bdd022536696e59b5a13bffd624c07"),
        "test_labels": ("float64", (150,), "964f38f68642a7fb71edf2d1417a1911e991612e3401562d1c400c33da91138d"),
        "test_party1_cat": ("int64", (150, 2), "64c958e13ad4bfd80e35d34a4bec2a4aacdbb0f53e2bfcd08caff98e590d9c44"),
        "test_party1_num": ("float64", (150, 0), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "test_party2_cat": ("int64", (150, 2), "d02b008ec230d7452af9dce88407754a92aa0a883aa1eeb62a73a9e419fb1138"),
        "test_party2_num": ("float64", (150, 0), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "test_party3_cat": ("int64", (150, 3), "50a514d45a0a01a3d2b341f0adfa57a58efeba779e13681a0fafbb80663f70fa"),
        "test_party3_num": ("float64", (150, 0), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    },
    "criteo-like": {
        "aligned_pool": ("int64", (60,), "21c0cf873e9f7639cced2321be63c352395f4e391d16c2b99d8ceedc06a9d09d"),
        "labels": ("float64", (300,), "903e75b9d14edf653a4b749c01715c8346cb22e53421df5d2bc0a8a975e80143"),
        "party1_cat": ("int64", (300, 0), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "party1_ids": ("int64", (300,), "36fa92e4b27ef05f2ee24273a6128030035bc888e7c856b34c81032f594640b4"),
        "party1_num": ("float64", (300, 3), "04117ec5a615d2d9b29850ac2f5f3a776acb2eb7df717dd0f93e04049bd16710"),
        "party2_cat": ("int64", (300, 4), "aa9f34d40c8c18f8a4a7916c15933a828c42f460d6f77fa579c68324a4491b06"),
        "party2_ids": ("int64", (300,), "5716fd2d5f98dd5177c6f7d1da85fa4c3faa641e72e7c994a856d774b7a6d0cf"),
        "party2_num": ("float64", (300, 0), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "test_bayes": ("float64", (150,), "8a9dbdb26ab39f6406f714c054161bb4efa77a11ddd11f2542d136e0e8b45a54"),
        "test_ids": ("int64", (150,), "9cca02b6650013e641bdfe93383f5c6721032e6aca258b6056882cc2e87155a0"),
        "test_labels": ("float64", (150,), "16434851d610ede50a93c6a433b1ee250f796d3948591b7dfd8ee780785c9956"),
        "test_party1_cat": ("int64", (150, 0), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "test_party1_num": ("float64", (150, 3), "106d39eaabc27cd7135f03332f98b14a3476cf71f44c74ce977b568f4a977236"),
        "test_party2_cat": ("int64", (150, 4), "a67b8addb3958a1f8011f36f29f25b15eaba4dedd03e836f7502755cf296714c"),
        "test_party2_num": ("float64", (150, 0), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    },
}


def _bundle_arrays(bundle) -> dict[str, np.ndarray]:
    train, test = bundle.train, bundle.test
    arrays = {"aligned_pool": train.aligned_pool, "labels": train.labels,
              "test_bayes": test.bayes_scores, "test_ids": test.ids,
              "test_labels": test.labels}
    for k, view in train.parties.items():
        arrays.update({f"party{k}_ids": view.ids, f"party{k}_cat": view.cat,
                       f"party{k}_num": view.num, f"test_party{k}_cat": test.cat[k],
                       f"test_party{k}_num": test.num[k]})
    return arrays


def _cached_arrays(cfg_path, out) -> dict[str, tuple]:
    assert run("prepare", "--config", cfg_path, "--out", out) == 0
    cache = out / "cache" / "seed7"
    bundle, _ = load_bundle(cache)
    got = {name: (str(a.dtype), a.shape, hashlib.sha256(a.tobytes()).hexdigest())
           for name, a in _bundle_arrays(bundle).items()}
    tensors, _ = load_checkpoint(cache / "dataset.ckpt")
    assert sorted(tensors) == sorted(got)
    return got


def test_the_cached_arrays_are_pinned(cfg_path, out):
    assert _cached_arrays(cfg_path, out) == TINY_SEED7_ARRAYS


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_the_cached_arrays_of_other_shapes_are_pinned(tmp_path, out, shape):
    raw = json.loads(json.dumps(TINY))
    raw["data"]["synth"].update(SHAPES[shape])
    cfg = tmp_path / f"{shape}.json"
    cfg.write_text(json.dumps(raw))
    assert _cached_arrays(cfg, out) == SHAPED_SEED7_ARRAYS[shape]


def test_a_cache_in_the_older_layout_is_ignored(cfg_path, tmp_path, capsys):
    # the earlier layout: one .npy per array plus manifest.json, current meta;
    # its labels are flipped, so reading it would change every score
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    assert run("prepare", "--config", cfg_path, "--out", fresh) == 0
    bundle, metadata = load_bundle(fresh / "cache" / "seed7")
    cache = old / "cache" / "seed7"
    cache.mkdir(parents=True)
    arrays = _bundle_arrays(bundle)
    arrays["labels"] = 1.0 - arrays["labels"]
    arrays["test_labels"] = 1.0 - arrays["test_labels"]
    for name, arr in arrays.items():
        np.save(cache / f"{name}.npy", arr, allow_pickle=False)
    manifest = {**metadata, "format_version": 1, "arrays": sorted(arrays)}
    (cache / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    before = tree_digest(old)

    for where in (fresh, old):
        assert run("train", "--config", cfg_path, "--out", where,
                   "--mode", "vanilla_vfl") == 0
    for count in (20, 40):
        result = Path("train", "seed7", f"count{count}", "vanilla_vfl", "result.json")
        assert (old / result).read_bytes() == (fresh / result).read_bytes()
    capsys.readouterr()
    assert run("prepare", "--config", cfg_path, "--out", old) == 0
    assert "up to date" not in capsys.readouterr().out
    assert (cache / "dataset.ckpt").read_bytes() == \
        (fresh / "cache" / "seed7" / "dataset.ckpt").read_bytes()
    assert {k: v for k, v in tree_digest(old).items() if k in before} == before


def _damage_is_reported_then_rebuilt(cfg_path, out, capsys, damage) -> None:
    """`pretrain` on a damaged cache exits 3 naming it; `prepare` rebuilds it."""
    assert run("prepare", "--config", cfg_path, "--out", out) == 0
    cache = out / "cache" / "seed7"
    path = cache / "dataset.ckpt"
    undamaged, fresh = load_bundle(cache)[0], path.read_bytes()
    damage(path)
    capsys.readouterr()
    assert run("pretrain", "--config", cfg_path, "--out", out) == 3
    err = capsys.readouterr().err
    assert "data error" in err and str(path) in err
    assert run("prepare", "--config", cfg_path, "--out", out) == 0
    text = capsys.readouterr().out
    assert "damaged" in text and "rebuilding" in text and "up to date" not in text
    assert path.read_bytes() == fresh
    rebuilt = _bundle_arrays(load_bundle(cache)[0])
    for name, arr in _bundle_arrays(undamaged).items():
        np.testing.assert_array_equal(rebuilt[name], arr)


def test_corrupt_dataset_cache_is_a_data_error(cfg_path, out, capsys):
    def cut_in_the_data(path):
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])

    def cut_the_metadata(path):
        splice_metadata(path, json.dumps(load_checkpoint(path)[1])[:-40].encode())

    for damage in (cut_in_the_data, cut_the_metadata):
        _damage_is_reported_then_rebuilt(cfg_path, out, capsys, damage)


@pytest.mark.parametrize("damage", ["invalid utf-8", "not an object", "wrong-typed value"])
def test_damaged_manifest_is_a_data_error(cfg_path, out, capsys, damage):
    # the damage is to the metadata inside dataset.ckpt, which replaced manifest.json
    def spoil(path):
        tensors, metadata = load_checkpoint(path)
        raw = json.dumps(metadata).encode()
        if damage == "invalid utf-8":
            splice_metadata(path, raw[:30] + b"\xff" + raw[31:])
        elif damage == "not an object":
            splice_metadata(path, b"[]")
        else:
            save_checkpoint(path, tensors, {**metadata, "k_parties": "three"})

    _damage_is_reported_then_rebuilt(cfg_path, out, capsys, spoil)


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
    assert (out1 / "train" / "seed7" / "count40" / "vflhlp" / "final.ckpt").exists()
    assert (out1 / "train" / "seed7" / "count40" / "local_a" / "final.ckpt").exists()
    assert not (out1 / "grid").exists()


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
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("grid", "--config", cfg, "--out", out) == 4
    # the typed failure is the whole report: no numpy warning reaches the log
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    captured = capsys.readouterr()
    assert "2 grid cells failed" in captured.err
    assert "FAILED: mode=vflhlp n_al=20 seed=7 beta=1e+300:" in captured.err
    assert "Warning" not in captured.out + captured.err
    rows = [r.split(",") for r in (out / "results.csv").read_text().splitlines()[1:]]
    assert [(r[0], r[1], r[3], r[4]) for r in rows] == [
        (mode, count, beta, status)
        for count in ("20", "40")
        for mode, beta, status in (("vflhlp", "1e+300", "failed"),
                                   ("vflhlp", "0.1", "ok"),
                                   ("vanilla_vfl", "0.0", "ok"))
    ]
    assert all("TrainingError: scores must be finite" in r[6] for r in rows[::3])
    summary = {(r["mode"], r["beta"], r["aligned_count"]): r
               for r in csv.DictReader((out / "summary.csv").read_text().splitlines())}
    for count in ("20", "40"):
        diverged, tame = summary["vflhlp", "1e+300", count], summary["vflhlp", "0.1", count]
        assert (diverged["mean_auc"], diverged["n_ok"], diverged["n_failed"]) == ("nan", "0", "1")
        assert (tame["n_ok"], tame["n_failed"]) == ("1", "0")
        assert 0.0 <= float(tame["mean_auc"]) <= 1.0
    lines = (out / "summary.txt").read_text().splitlines()
    assert [line.split("  ")[0] for line in lines[1:4]] == [
        "vflhlp b=0.1", "vflhlp b=1e+300", "vanilla_vfl"]
    assert lines[2].split()[2:] == ["nan", "+-", "nan"] * 2
    assert "nan" not in lines[1] + lines[3]
    # the sidecar records the failure's exit code
    assert json.loads((out / "run_meta.json").read_text())["grid"]["exit_code"] == 4


def test_train_records_a_diverged_cell_and_carries_on(tmp_path, capsys):
    # beta = 1e300 fails vflhlp at both counts, as in the grid above; the
    # vanilla_vfl cells after the first failure still train, and the first
    # failed cell's error sets the exit code and the last line
    raw = {
        **TINY,
        "downstream": {**TINY["downstream"], "epochs": 1, "batch_size": 64, "beta": 1e300},
        "grid": {**TINY["grid"], "modes": ["vanilla_vfl", "vflhlp"]},
    }
    cfg, out = tmp_path / "diverge.json", tmp_path / "out"
    cfg.write_text(json.dumps(raw))
    assert run("pretrain", "--config", cfg, "--out", out) == 0
    capsys.readouterr()
    assert run("train", "--config", cfg, "--out", out) == 4
    captured = capsys.readouterr()
    error = "scores must be finite; the model has diverged"
    assert [line for line in captured.err.splitlines() if line.startswith("FAILED:")] == [
        f"FAILED: mode=vflhlp n_al={count} seed=7 beta=1e+300: TrainingError: {error}"
        for count in (20, 40)
    ]
    assert captured.err.endswith(f"\ntraining error: {error}\n")
    assert [line.split(":")[0] for line in captured.out.splitlines()] == [
        "seed 7 n_al=20 vanilla_vfl", "seed 7 n_al=40 vanilla_vfl"]
    runs = out / "train" / "seed7"
    assert sorted(p.parent.relative_to(runs).as_posix() for p in runs.rglob("result.json")) == [
        "count20/vanilla_vfl", "count40/vanilla_vfl"]
    assert not list(runs.rglob("vflhlp"))


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
    assert (target / "cache" / "seed7" / "dataset.ckpt").exists()


# ------------------------------------------------------------------ errors


@pytest.mark.parametrize("command, overrides, fragment", [
    ("pretrain", {"supervised": {"optimizer": "rmsprop"}}, "supervised.optimizer"),
    ("grid", {"supervised": {"optimizer": "rmsprop"}}, "supervised.optimizer"),
    ("train", {"downstream": {"epochs": "ten"}}, "downstream.epochs"),
    ("grid", {"downstream": {"beta": -1.0}}, "downstream: beta must be >= 0"),
    ("train", {"downstream": {"beta": -1.0}}, "downstream: beta must be >= 0"),
    ("grid", {"grid": {"beta_sweep": [-0.5, 0.1]}}, "grid: beta_sweep values must be >= 0"),
], ids=["pretrain-optimizer", "grid-optimizer", "train-epochs", "grid-negative-beta",
        "train-negative-beta", "grid-negative-beta-sweep"])
def test_bad_config_values_use_exit_code_two(tmp_path, out, capsys, command,
                                             overrides, fragment):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {**TINY, **{k: {**TINY[k], **v} for k, v in overrides.items()}}))
    assert run(command, "--config", bad, "--out", out) == 2
    err = capsys.readouterr().err
    assert "config error" in err and fragment in err
    assert not out.exists()  # a config error before --out is resolved writes nothing


def test_a_schedule_past_the_transport_logs_round_limit_exits_two(
        tmp_path, out, capsys, monkeypatch):
    # 18 training rows at count 20 make one round an epoch; no round runs
    def no_round(*args, **kwargs):
        raise AssertionError("a round ran")

    monkeypatch.setattr(federated, "run_round", no_round)
    long = tmp_path / "long.json"
    long.write_text(json.dumps({**TINY, "downstream": {"epochs": 2**32, "batch_size": 64},
                                "grid": {**TINY["grid"], "aligned_counts": [20]}}))
    assert run("train", "--config", long, "--out", out, "--mode", "vanilla_vfl") == 2
    err = capsys.readouterr().err
    assert "config error" in err and "make 4294967296 rounds" in err


def test_a_hold_out_that_leaves_no_training_row_exits_three(tmp_path, out, capsys):
    # round(0.9 * 2) = 2 of the 2 aligned rows are held out, in a cell as in
    # pre-training: one data error
    short = tmp_path / "short.json"
    short.write_text(json.dumps({**TINY, "downstream": {**TINY["downstream"], "val_fraction": 0.9},
                                 "grid": {**TINY["grid"], "aligned_counts": [2]}}))
    assert run("train", "--config", short, "--out", out, "--mode", "vanilla_vfl") == 3
    err = capsys.readouterr().err
    assert "data error" in err
    assert "no training rows left after holding out 2 of 2 rows (val_fraction 0.9)" in err


def test_usage_and_config_errors_use_exit_code_two(cfg_path, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**TINY, "bogus": 1}))
    assert run("train", "--config", bad) == 2
    assert "config error" in capsys.readouterr().err
    assert run("train", "--config", tmp_path / "missing.json") == 2
    assert run("train", "--config", cfg_path, "--mode", "warp-drive") == 2
    assert run("grid", "--config", cfg_path, "--seed", "-1") == 2


def test_an_empty_mode_is_a_usage_error(cfg_path, out, capsys):
    # an empty --mode names no mode; it does not stand for the config's list
    assert run("train", "--config", cfg_path, "--out", out, "--mode", "") == 2
    assert "unknown mode ''" in capsys.readouterr().err
    assert not out.exists()


def test_wrong_typed_config_structure_uses_exit_code_two(tmp_path, out, capsys):
    bad = tmp_path / "bad.json"
    fields = [{"name": "x1", "kind": "numerical", "party": 1},
              {"name": "c", "kind": "categorical", "party": 2, "cardinality": "8"}]
    csv_data = {"train_path": "t.csv", "test_path": "e.csv", "fields": fields}
    for raw, fragment in (
        ({**TINY, "preset": [1]}, "unknown preset"),
        ({**TINY, "data": {"kind": "csv", "csv": "x"}}, "data.csv: expected an object"),
        ({**TINY, "data": {"kind": "csv", "csv": csv_data}}, "fields[1].cardinality"),
    ):
        bad.write_text(json.dumps(raw))
        assert run("prepare", "--config", bad, "--out", out) == 2
        err = capsys.readouterr().err
        assert "config error" in err and fragment in err


@pytest.mark.parametrize("section, key, value, fragment", [
    ("ssl", "projection_hidden", ["a"], "ssl.projection_hidden[0]: expected int"),
    ("ssl", "projection_hidden", [-1], "projection_hidden widths must be >= 1"),
    ("synth", "num_fields_per_party", [-1, 3, 3], "num_fields_per_party entries must be >= 0"),
    ("synth", "cat_fields_per_party", [3.5, 0, 0], "data.synth.cat_fields_per_party[0]"),
    ("synth", "party_signal", ["a", 0.6, 0.6], "data.synth.party_signal[0]: expected float"),
    ("synth", "n_validation", -500, "n_validation must be >= 0"),
    ("synth", "n_test", -3, "n_test must be >= 1"),
    ("grid", "beta_sweep", ["a"], "grid.beta_sweep[0]: expected float"),
    ("grid", "aligned_counts", [20.5], "grid.aligned_counts[0]: expected int"),
    ("grid", "seeds", [1.5], "grid.seeds[0]: expected int, got float 1.5"),
    ("downstream", "val_fraction", -0.5, "val_fraction must be in [0, 1)"),
    ("grid", "aligned_counts", [20, 20], "grid aligned_counts contain duplicates"),
    ("grid", "beta_sweep", [0.1, 0.1], "grid beta_sweep contain duplicates"),
    ("grid", "beta_sweep", [1.0, 1.0000001], "values 1.0 and 1.0000001 both print as 1,"),
    ("downstream", "epochs", -1, "downstream: epochs must be >= 0, got -1"),
    ("downstream", "batch_size", 0, "downstream: batch_size must be >= 1, got 0"),
    ("ssl", "temperature", 0, "ssl: temperature must be > 0, got 0"),
    ("ssl", "corruption_rate", 2, "ssl: corruption_rate must be in [0, 1], got 2"),
    ("supervised", "learning_rate", -1, "supervised: learning_rate must be >= 0, got -1"),
], ids=["projection-item", "projection-width", "num-fields-count", "cat-fields-item",
        "signal-item", "negative-validation", "negative-test", "beta-item", "count-item",
        "seed-item", "val-fraction", "count-repeated", "beta-repeated", "beta-printed-alike",
        "negative-epochs", "zero-batch", "zero-temperature", "corruption-over-one",
        "negative-learning-rate"])
def test_config_lists_and_ranges_are_checked_item_by_item(tmp_path, out, capsys,
                                                          section, key, value, fragment):
    raw = json.loads(json.dumps(TINY))
    target = raw["data"]["synth"] if section == "synth" else raw.setdefault(section, {})
    target[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert run("grid", "--config", bad, "--out", out) == 2
    err = capsys.readouterr().err
    assert "config error" in err and fragment in err


@pytest.mark.parametrize("command", ["grid", "train"])
def test_a_test_split_that_cannot_be_scored_is_a_data_error(tmp_path, out, capsys,
                                                            command):
    cfg = tmp_path / "one-test-row.json"
    cfg.write_text(json.dumps(
        {**TINY, "data": {"synth": {**TINY["data"]["synth"], "n_test": 1}}}))
    argv = ("train", "--mode", "vanilla_vfl") if command == "train" else ("grid",)
    assert run(*argv, "--config", cfg, "--out", out) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "AUC needs both classes" in err


def _run_capped(tmp_path, command: str, synth: dict) -> subprocess.CompletedProcess:
    """`command` on TINY with `synth` merged into data.synth, in a child
    process capped at 2 GiB of address space."""
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps(
        {**TINY, "data": {"synth": {**TINY["data"]["synth"], **synth}}}))

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
           "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, "-m", "vflhlp.cli", command, "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, env=env, preexec_fn=cap_memory,
    )


def test_a_synthetic_table_too_large_for_memory_is_a_config_error(tmp_path):
    # n_local passes the config checks; its 4e12-row table cannot be drawn
    proc = _run_capped(tmp_path, "prepare", {"n_local": 10**12})
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "config error" in proc.stderr and "data.synth" in proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


def test_a_model_too_large_for_memory_is_a_config_error(tmp_path):
    # the table draws, but party 1's embedding tables of 1e9 rows cannot be laid out
    proc = _run_capped(tmp_path, "pretrain", {"cardinality": 10**9})
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "config error" in proc.stderr and "memory" in proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


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


CSV_ROWS = "id,label,x1,x2\n" + "".join(f"{i},{i % 2},{i},{-i}\n" for i in range(80))


def _csv_config(where: Path) -> Path:
    """A config reading where/train.csv and where/test.csv, two numerical fields."""
    fields = [{"name": "x1", "kind": "numerical", "party": 1},
              {"name": "x2", "kind": "numerical", "party": 2}]
    csv_data = {"train_path": str(where / "train.csv"), "test_path": str(where / "test.csv"),
                "k_parties": 2, "aligned_pool": 40, "fields": fields}
    cfg = where / "csv.json"
    cfg.write_text(json.dumps({**TINY, "data": {"kind": "csv", "csv": csv_data}}))
    return cfg


@pytest.mark.parametrize("damage", ["none", "invalid utf-8", "directory",
                                    "field over the csv limit"])
def test_unreadable_csv_is_a_data_error(tmp_path, out, capsys, damage):
    test_csv, train_csv = tmp_path / "test.csv", tmp_path / "train.csv"
    test_csv.write_text(CSV_ROWS)
    if damage == "directory":
        train_csv.mkdir()
    elif damage == "invalid utf-8":
        train_csv.write_bytes(CSV_ROWS.encode() + b"80,0,\xff,1\n")
    elif damage == "field over the csv limit":
        train_csv.write_text(CSV_ROWS + "80,0," + "9" * 200_000 + ",1\n")
    else:
        train_csv.write_text(CSV_ROWS)
    cfg = _csv_config(tmp_path)
    if damage == "none":
        assert run("prepare", "--config", cfg, "--out", out) == 0
        return
    assert run("prepare", "--config", cfg, "--out", out) == 3
    err = capsys.readouterr().err
    assert "data error" in err and str(train_csv) in err


@pytest.mark.parametrize("rewritten", ["train.csv", "test.csv"])
def test_a_rewritten_csv_makes_its_cache_stale(tmp_path, out, capsys, rewritten):
    for name in ("train.csv", "test.csv"):
        (tmp_path / name).write_text(CSV_ROWS)
    cfg = _csv_config(tmp_path)
    assert run("prepare", "--config", cfg, "--out", out) == 0
    # the same path with other bytes: every label flipped
    (tmp_path / rewritten).write_text(
        "id,label,x1,x2\n" + "".join(f"{i},{(i + 1) % 2},{i},{-i}\n" for i in range(80)))
    capsys.readouterr()
    assert run("prepare", "--config", cfg, "--out", out) == 0
    assert "wrote cache" in capsys.readouterr().out
    cached, _ = load_bundle(out / "cache" / "seed7")
    built = evaluation.build_bundle(load_config(cfg), 7)
    np.testing.assert_array_equal(cached.train.labels, built.train.labels)
    np.testing.assert_array_equal(cached.test.labels, built.test.labels)
    assert run("prepare", "--config", cfg, "--out", out) == 0
    assert "cache up to date" in capsys.readouterr().out


def test_a_csv_number_range_past_the_largest_float_is_a_data_error(tmp_path, out, capsys):
    # scaled, x1 read 0 in every row and nan in its maximum: prepare wrote the
    # cache, and pretrain failed on a non-finite gradient (exit 4)
    (tmp_path / "test.csv").write_text(CSV_ROWS)
    (tmp_path / "train.csv").write_text(CSV_ROWS + "80,0,-1e308,1\n81,1,1e308,2\n")
    assert run("prepare", "--config", _csv_config(tmp_path), "--out", out) == 3
    err = capsys.readouterr().err
    assert f"data error: {tmp_path / 'train.csv'}: field 'x1': range -1e+308 to 1e+308" in err


def test_a_csv_header_naming_a_read_column_twice_is_a_data_error(tmp_path, out, capsys):
    # before, the reader kept the last x1 and prepare exited 0
    (tmp_path / "test.csv").write_text(CSV_ROWS)
    (tmp_path / "train.csv").write_text(
        "id,label,x1,x2,x1\n" + "".join(f"{i},{i % 2},{i},{-i},{7 + i}\n" for i in range(80)))
    assert run("prepare", "--config", _csv_config(tmp_path), "--out", out) == 3
    err = capsys.readouterr().err
    assert err == (f"data error: {tmp_path / 'train.csv'}: the header names columns ['x1'] "
                   "more than once\n")


# sha256 of each trained model's tensors (name, then bytes, in name order),
# recorded before the training loops moved to one parameter vector each
FINAL_PARAMS_SHA256 = {
    "sgd": {
        "count20/local_a": "d0c02bf710a22191966bdb3529134dbd847d3f6d16265955d71d105f150a0980",
        "count20/vanilla_vfl": "f4897085ee267f1faa1173a0716d489f48219633990f191e78e10f48ad23fea0",
        "count20/vflhlp": "72703324454cf0eb7c5d13644568bd4e7f91f060816f9adefc1414fdd2df5c8b",
        "count20/vflhlp_a": "05d2ee7930c340bd02c2a0541ec8e4e4bd591f8761d151ba3b4855c6dc1aca05",
        "count20/vflhlp_p": "ed9e67be5e9070c8518f1966943b70f199c169461d1cbf5695a3afc8d2149518",
        "count40/local_a": "d0c02bf710a22191966bdb3529134dbd847d3f6d16265955d71d105f150a0980",
        "count40/vanilla_vfl": "ba10a007da61ff0a1a88b625b4f4048c62237f81f97369111eb2035d3b12772e",
        "count40/vflhlp": "fe25d0668a71ca61376780521671687cdb950c6f57caf30c5f9e6dbee4252f10",
        "count40/vflhlp_a": "9468d6260f809d1fca835cbf7c92ae5475faf99678df4511d0a766ba3e155be3",
        "count40/vflhlp_p": "b385930c417d36b3567d7fae776f6e8aabd3077b341d6fa500b53885d66ce77d",
    },
    "adam": {
        "count20/local_a": "cc649e200cecbf51f958ba8b3a4fc70d6f2ac8c250ef2963bac205b53877231a",
        "count20/vanilla_vfl": "1469849e2328e8d00c26cd5f7061ae5f5e321f1871c43f55fb7f3b914141e465",
        "count20/vflhlp": "112cbf86cb8ca641870af032870d374788d232cc2fd7c1d9ede886dd9f15a5f5",
        "count20/vflhlp_a": "6a2f9babb6094e12fe705f3d0010e9499bdc3a4119c06b32ae04abeb82a063bc",
        "count20/vflhlp_p": "1f85e23d815a7dd0b7e257a395f33483986c34fe5d2f0d465cf4253a85e22932",
        "count40/local_a": "cc649e200cecbf51f958ba8b3a4fc70d6f2ac8c250ef2963bac205b53877231a",
        "count40/vanilla_vfl": "9b05b88a28f7c40bcca7f06b18a80b4c51798d6f57501eb600bb5b391d0ecb77",
        "count40/vflhlp": "6ed8323e97a9b50b119eb4763bb66c9118fc103648d9b6d506af165d2b96a640",
        "count40/vflhlp_a": "4b2448a4a70f3bb5b34f360cbdb09fb4268e1aff541828b4f7e02d250b3fbcf6",
        "count40/vflhlp_p": "0ceb4398cb74e06796b46402875f14e532d73f0fe394f55b29728706812c0891",
    },
}


@pytest.mark.parametrize("optimizer", FINAL_PARAMS_SHA256)
def test_every_mode_trains_to_pinned_parameters(tmp_path, optimizer):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(
        {**TINY, "downstream": {**TINY["downstream"], "optimizer": optimizer}}))
    for command in ("prepare", "pretrain", "train"):
        assert run(command, "--config", cfg, "--out", tmp_path / "out") == 0
    got = {}
    for path in sorted((tmp_path / "out" / "train" / "seed7").rglob("final.ckpt")):
        tensors, _ = load_checkpoint(path)
        digest = hashlib.sha256()
        for name in sorted(tensors):
            digest.update(name.encode())
            digest.update(tensors[name].tobytes())
        got[f"{path.parent.parent.name}/{path.parent.name}"] = digest.hexdigest()
    assert got == FINAL_PARAMS_SHA256[optimizer]


# sha256 of the history.jsonl of TINY's vflhlp cell at n_al=40 (beta 10, a
# validation AUC each epoch), recorded before model files were written through
# ModelSet
VFLHLP_HISTORY_SHA256 = "82708aa7f43e210fa1f473bf35786a92dd4b668170c231e38565eaf30c42dc47"


def test_a_vflhlp_history_is_pinned(cfg_path, out):
    assert run("pretrain", "--config", cfg_path, "--out", out) == 0
    assert run("train", "--config", cfg_path, "--out", out, "--mode", "vflhlp") == 0
    history = out / "train" / "seed7" / "count40" / "vflhlp" / "history.jsonl"
    assert hashlib.sha256(history.read_bytes()).hexdigest() == VFLHLP_HISTORY_SHA256


# sha256 of each whole file that `pretrain` writes for TINY, seed 7, metadata
# bytes included, recorded before the active and passive writers shared one rule
PRETRAINED_FILE_SHA256 = {
    "active.ckpt": "b7f2493fcd1984a7b8e79d9fa0eef3ef361ce70a461611240b602987fab6eaf9",
    "passive2.ckpt": "c79c244c74f4adff9c849154c7b42e2c4b7ed12fbf0ea7fd7551b75fb99db996",
    "passive3.ckpt": "067f498a0dd605c632a278792674d6bbe0a557ba87fb7f5c0f48280a88712885",
}


def test_the_pretrained_files_are_pinned(cfg_path, out):
    assert run("pretrain", "--config", cfg_path, "--out", out) == 0
    assert tree_digest(out / "checkpoints" / "seed7") == PRETRAINED_FILE_SHA256


# sha256 of the whole dataset cache that `prepare` writes for TINY, seed 7,
# recorded before the stage keys and paths moved out of the CLI
DATASET_FILE_SHA256 = "cff4d90185a949a230f85986bba9f973eef432b7b6e54ed68a18a8f718e46f5d"


def test_the_dataset_cache_is_pinned(cfg_path, out):
    assert run("prepare", "--config", cfg_path, "--out", out) == 0
    assert tree_digest(out / "cache") == {"seed7/dataset.ckpt": DATASET_FILE_SHA256}


def _pinned_csv(ids) -> str:
    """A CSV of PINNED_CSV_CONFIG's columns with one row per id."""
    return "id,label,x1,c1,x2\n" + "".join(
        f"{i},{int(i * 13 % 17 + i * 5 % 11 + i % 4 > 15)},{i * 13 % 17 / 4},{'abcd'[i % 4]},"
        f"{-(i * 5 % 11)}\n" for i in ids)


# sha256 of each whole file that `prepare` and `pretrain` write for
# PINNED_CSV_CONFIG at seed 7 over _pinned_csv's rows, recorded at the same
# time; every key in them holds the sha256 of both CSV files
CSV_STAGE_FILE_SHA256 = {
    "cache/seed7/dataset.ckpt":
        "b8c2a1b19588dd9592c72564b70b6ef02e4f2206a7c87c0d594d9c519e2e19eb",
    "checkpoints/seed7/active.ckpt":
        "bcf7e0b543259cc11d8e6adca15ec4d3481c553a47cec215939ea557785966fc",
    "checkpoints/seed7/passive2.ckpt":
        "f32593be4e4bce566829a0cad385d7ef1db180c6de44c4ae2feba97942b32fef",
}


def test_a_csv_runs_stage_files_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the config's CSV paths are relative
    Path("train.csv").write_text(_pinned_csv(range(120)))
    Path("test.csv").write_text(_pinned_csv(range(120, 180)))
    Path("csv.json").write_text(json.dumps(PINNED_CSV_CONFIG))
    for command in ("prepare", "pretrain"):
        assert run(command, "--config", "csv.json", "--out", "out", "--seed", 7) == 0
    assert tree_digest(Path("out")) == CSV_STAGE_FILE_SHA256


# sha256 of the transport log of the same cell: the bytes of its fields (round,
# direction, party, rows, cols of each message, int64) and of its payload
# digests, in message order
VFLHLP_TRANSPORT_SHA256 = {
    "fields": "9ba0733de84690a78cc180738bc2d7718e78b1ed5f7901df7ea1cc7c350ae891",
    "digests": "6e1c180c1a007370711569cdb2aeec293e264dca45cbca7d6944a57742cb2a32",
}


def test_a_vflhlp_transport_log_is_pinned(cfg_path, out, monkeypatch):
    # run_cell keeps no log past its audit, so the log is read at the audit;
    # the cells run in plan order, aligned counts 20 then 40
    logs = []
    audit = evaluation.audit_transport

    def keeping(log, ds):
        logs.append(log)
        return audit(log, ds)

    monkeypatch.setattr(evaluation, "audit_transport", keeping)
    assert run("pretrain", "--config", cfg_path, "--out", out) == 0
    assert run("train", "--config", cfg_path, "--out", out, "--mode", "vflhlp") == 0
    assert len(logs) == 2
    log = logs[1]
    assert len(log.digests) == 32 * len(log.fields())
    assert {
        "fields": hashlib.sha256(log.fields().astype("<i8").tobytes()).hexdigest(),
        "digests": hashlib.sha256(log.digests).hexdigest(),
    } == VFLHLP_TRANSPORT_SHA256


# ------------------------------------------------------------------ damaged inputs

# Every file a command reads (a row) under every kind of damage that applies to
# it (a column). Each damage acts on the whole file, except that a checkpoint
# takes the non-UTF-8 byte, the nesting and the wrong type in its metadata JSON.
# A CSV is not JSON, so it takes no nesting or wrong JSON type.
DAMAGE = {
    "cut": lambda raw: raw[:-5],  # mid-record: inside the last CSV row, tensor or JSON value
    "empty": lambda raw: b"",
    "non-utf8": lambda raw: raw[:2] + b"\xff" + raw[3:],  # in the header of a CSV
    "nested": lambda raw: b"[" * 100_000,
    "wrong-type": lambda raw: b"[]",
    # past the 4,300 digits Python's decoder turns into an int
    "huge-int": lambda raw: b'{"label_noise": ' + b"7" * 5000 + b"}",
}
JSON_ONLY = ("nested", "wrong-type", "huge-int")
TRAIN_VFLHLP = ("train", "--mode", "vflhlp")
INPUTS = {  # row: (file in the run directory, format, the command that reads it)
    "config": ("tiny.json", "json", ("prepare",)),
    "train-csv": ("train.csv", "csv", ("prepare",)),
    "test-csv": ("test.csv", "csv", ("prepare",)),
    "cache-eval": ("out/cache/seed7/dataset.ckpt", "ckpt", ("eval",)),
    "cache-prepare": ("out/cache/seed7/dataset.ckpt", "ckpt", ("prepare",)),
    "active": ("out/checkpoints/seed7/active.ckpt", "ckpt", TRAIN_VFLHLP),
    "passive2": ("out/checkpoints/seed7/passive2.ckpt", "ckpt", TRAIN_VFLHLP),
    "final": ("out/train/seed7/count20/vflhlp/final.ckpt", "ckpt", ("eval",)),
    "result": ("out/train/seed7/count20/vflhlp/result.json", "json", ("eval",)),
}
CELLS = [(row, damage) for row, (_, fmt, _) in INPUTS.items()
         for damage in [*DAMAGE, "directory"] if fmt != "csv" or damage not in JSON_ONLY]


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A run directory each cell copies: TINY prepared, pre-trained and trained
    in vflhlp mode, plus the CSV pair the CSV config reads."""
    root = tmp_path_factory.mktemp("pristine")
    (root / "tiny.json").write_text(json.dumps(TINY))
    for name in ("train.csv", "test.csv"):
        (root / name).write_text(CSV_ROWS)
    for argv in (("prepare",), ("pretrain",), TRAIN_VFLHLP):
        assert run(*argv, "--config", root / "tiny.json", "--out", root / "out") == 0
    return root


@pytest.mark.parametrize("row, damage", CELLS, ids=[f"{r}-{d}" for r, d in CELLS])
def test_a_damaged_input_fails_typed_naming_the_file(pristine, tmp_path, capsys,
                                                     row, damage):
    where = tmp_path / "run"
    shutil.copytree(pristine, where)
    name, fmt, command = INPUTS[row]
    path = where / name
    if damage == "directory":
        path.unlink()
        path.mkdir()
    elif fmt == "ckpt" and damage not in ("cut", "empty"):
        splice_metadata(path, DAMAGE[damage](json.dumps(load_checkpoint(path)[1]).encode()))
    else:
        path.write_bytes(DAMAGE[damage](path.read_bytes()))
    cfg = _csv_config(where) if fmt == "csv" else where / "tiny.json"
    capsys.readouterr()
    code = run(*command, "--config", cfg, "--out", where / "out")
    captured = capsys.readouterr()
    if row == "cache-prepare" and damage != "directory":
        # prepare rebuilds a cache it cannot load; a directory it cannot replace
        assert code == 0 and "rebuilding" in captured.out
        assert path.read_bytes() == (pristine / name).read_bytes()
        return
    expected = (2, "config error") if row == "config" else (3, "data error")
    assert (code, expected[1] in captured.err) == (expected[0], True), captured.err
    assert str(path) in captured.err
    assert "Traceback" not in captured.out + captured.err


CACHE_TENSOR_DAMAGE = {  # case: (tensor, edit); unchecked, each is a ValueError in metrics.auc
    "test-label-2": ("test_labels", lambda a: np.where(np.arange(a.size) == 0, 2.0, a)),
    "test-labels-short": ("test_labels", lambda a: a[:-1]),
    "test-labels-2d": ("test_labels", lambda a: a[:, None]),
}


@pytest.mark.parametrize("case", CACHE_TENSOR_DAMAGE)
def test_a_cache_with_bad_test_labels_fails_typed_and_is_rebuilt(pristine, tmp_path, capsys,
                                                                 case):
    where, name = tmp_path / "run", INPUTS["cache-eval"][0]
    shutil.copytree(pristine, where)
    path = where / name
    tensor, edit = CACHE_TENSOR_DAMAGE[case]
    tensors, metadata = load_checkpoint(path)
    tensors[tensor] = edit(tensors[tensor])
    save_checkpoint(path, tensors, metadata)
    capsys.readouterr()
    for command in (("eval",), TRAIN_VFLHLP):
        assert run(*command, "--config", where / "tiny.json", "--out", where / "out") == 3
        err = capsys.readouterr().err
        assert "data error" in err and str(path) in err and "Traceback" not in err
    assert run("prepare", "--config", where / "tiny.json", "--out", where / "out") == 0
    assert "rebuilding" in capsys.readouterr().out
    assert path.read_bytes() == (pristine / name).read_bytes()


# ------------------------------------------------------------------ unwritable outputs

RUN_DIR = "out/train/seed7/count20/vflhlp"
OUTPUTS = {  # case: (the output a directory takes the place of, the command that writes it)
    "history": (f"{RUN_DIR}/history.jsonl", TRAIN_VFLHLP),
    "result": (f"{RUN_DIR}/result.json", TRAIN_VFLHLP),
    "eval": (f"{RUN_DIR}/eval.json", ("eval",)),
    "grid-summary": ("out/summary.txt", ("grid",)),
    "run-meta": ("out/run_meta.json", ("prepare",)),
    "out-is-a-file": ("out", ("prepare",)),  # --out itself names a file
}


@pytest.mark.parametrize("case", OUTPUTS)
def test_an_unwritable_output_fails_typed_naming_the_file(pristine, tmp_path, capsys, case):
    where = tmp_path / "run"
    shutil.copytree(pristine, where)
    name, command = OUTPUTS[case]
    path = where / name
    if case == "out-is-a-file":
        shutil.rmtree(path)
        path.write_text("a file\n")
    else:
        path.unlink(missing_ok=True)
        path.mkdir()
    capsys.readouterr()
    code = run(*command, "--config", where / "tiny.json", "--out", where / "out")
    captured = capsys.readouterr()
    assert (code, "data error" in captured.err) == (3, True), captured.err
    assert str(path) in captured.err
    assert "Traceback" not in captured.out + captured.err


# ------------------------------------------------------------------ interrupts


def _interrupted_grid(tmp_path, whole_group: bool):
    """(exit code, stdout, stderr, seconds from the SIGINT to the exit) of a
    two-seed grid at 4000 epochs a cell, signalled once its progress log shows
    its first cell: pre-training is done, and seed 7's local_a job, which
    has seconds of work left, is starting or running in its worker.
    `whole_group` signals the process group, as Ctrl-C in a terminal does.
    The child starts with SIGINT at its default disposition, as from a
    terminal, even when this process was started with SIGINT ignored."""
    cfg = tmp_path / "long.json"
    cfg.write_text(json.dumps({**TINY, "grid": {**TINY["grid"], "seeds": [7, 8]},
                               "downstream": {**TINY["downstream"], "epochs": 4000}}))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
           "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "vflhlp.cli", "grid", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True, preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    try:
        for line in proc.stdout:
            if "n_al=" in line:
                break
        signalled = time.perf_counter()
        if whole_group:
            os.killpg(proc.pid, signal.SIGINT)
        else:
            proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=120)
        return proc.returncode, out, err, time.perf_counter() - signalled
    finally:  # the whole session: a worker that outlived the run goes too
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)


def test_an_interrupted_grid_exits_130_with_one_line_and_a_run_record(tmp_path):
    code, out, err, seconds = _interrupted_grid(tmp_path, whole_group=False)
    assert (code, err) == (130, "interrupted\n"), err[-2000:]
    assert "Traceback" not in out
    meta = json.loads((tmp_path / "out" / "run_meta.json").read_text())
    assert meta["grid"]["exit_code"] == 130
    # the worker is ended, not waited for: its job has seconds left to run
    assert seconds < 1.0


def test_ctrl_c_in_a_terminal_stops_the_grid_with_one_line(tmp_path):
    # the worker has SIGINT blocked from its start, so it prints nothing of
    # its own, whether it is starting up, idle or training
    code, out, err, _ = _interrupted_grid(tmp_path, whole_group=True)
    assert (code, err) == (130, "interrupted\n"), err[-2000:]
    assert "Traceback" not in out + err
    assert json.loads((tmp_path / "out" / "run_meta.json").read_text())["grid"]["exit_code"] == 130
