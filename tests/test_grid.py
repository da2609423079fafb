"""The grid's local_a worker: same results as inline training, typed failures
recorded per cell, anything else raised, and the pool always shut down.

Failures are injected by swapping `evaluation.train_local_a` for a
module-level job defined here, which a spawned worker imports by name.
"""
import concurrent.futures
import functools
import json
import multiprocessing
import os
from dataclasses import replace

import pytest

from vflhlp import evaluation
from vflhlp.cli import main
from vflhlp.config import config_hash, encoder_specs, parse_config
from vflhlp.errors import ConfigError, DataError, TrainingError, UndefinedMetricError
from vflhlp.evaluation import build_bundle, evaluate_mode, flatten_trained, run_grid
from vflhlp.federated import TrainMode, train_downstream
from vflhlp.nn import save_checkpoint

from test_cli import TINY


def _raise(error, cfg, seed):
    raise error(f"local_a of seed {seed} went wrong")


def _exit_worker(cfg, seed):
    os._exit(1)


def _raw(**grid):
    return {**TINY, "grid": {**TINY["grid"], **grid}}


def _no_workers_left():
    assert multiprocessing.active_children() == []


def test_local_a_cell_matches_inline_training(tmp_path):
    cfg = parse_config(_raw(modes=["local_a", "vanilla_vfl"]))
    result = run_grid(cfg, out_dir=tmp_path / "g")
    _no_workers_left()

    bundle = build_bundle(cfg, 7)
    view = bundle.train.with_aligned_count(20)
    dcfg = replace(cfg.downstream, seed=7, beta=0.0)
    inline = train_downstream(
        view, encoder_specs(bundle.train, cfg.model), TrainMode.LOCAL_A, None, dcfg
    )
    score = evaluate_mode(inline, bundle.test)
    cells = [c for c in result.cells if c.mode == "local_a"]
    assert [c.aligned_count for c in cells] == [20, 40]
    for c in cells:
        assert c.status == "ok"
        assert c.test_auc == score
        assert c.history == inline.history
    assert [c.mode for c in result.cells] == ["local_a", "vanilla_vfl"] * 2

    save_checkpoint(
        tmp_path / "inline.ckpt",
        flatten_trained(inline),
        {"stage": "downstream", "mode": "local_a", "seed": 7, "aligned_count": 0,
         "beta": 0.0, "config_hash": config_hash(cfg)},
    )
    written = tmp_path / "g" / "grid" / "seed7" / "local_a.ckpt"
    assert written.read_bytes() == (tmp_path / "inline.ckpt").read_bytes()


@pytest.mark.parametrize("error", [ConfigError, DataError, TrainingError,
                                   UndefinedMetricError])
def test_typed_local_a_failure_is_recorded_for_every_count(tmp_path, monkeypatch,
                                                           capsys, error):
    monkeypatch.setattr(evaluation, "train_local_a", functools.partial(_raise, error))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_raw(modes=["local_a", "vanilla_vfl"])))
    out = tmp_path / "g"
    assert main(["grid", "--config", str(cfg_path), "--out", str(out)]) == 4
    _no_workers_left()
    assert "2 grid cells failed" in capsys.readouterr().err
    cells = json.loads((out / "results.json").read_text())["cells"]
    assert [(c["mode"], c["aligned_count"], c["status"]) for c in cells] == [
        ("local_a", 20, "failed"), ("vanilla_vfl", 20, "ok"),
        ("local_a", 40, "failed"), ("vanilla_vfl", 40, "ok"),
    ]
    # the text the inline cell loop gives: "<type>: <message>"
    expected = f"{error.__name__}: local_a of seed 7 went wrong"
    assert all(c["error"] == expected for c in cells[::2])
    assert not (out / "grid" / "seed7" / "local_a.ckpt").exists()


def test_untyped_local_a_failure_propagates(monkeypatch):
    monkeypatch.setattr(evaluation, "train_local_a", functools.partial(_raise, KeyError))
    with pytest.raises(KeyError, match="local_a of seed 7 went wrong"):
        run_grid(parse_config(_raw(modes=["local_a", "vanilla_vfl"])))
    _no_workers_left()


def test_a_dead_worker_raises_instead_of_hanging(monkeypatch):
    monkeypatch.setattr(evaluation, "train_local_a", _exit_worker)
    with pytest.raises(TrainingError, match="local_a for seed 7 died"):
        run_grid(parse_config(_raw(modes=["local_a"], seeds=[7, 8])))
    _no_workers_left()


@pytest.mark.parametrize("cpus, seeds, workers", [(1, [7, 8], 1), (8, [7, 8], 2),
                                                  (3, [7, 8, 9], 2)])
def test_worker_count_follows_spare_cpus_and_seeds(monkeypatch, cpus, seeds, workers):
    started = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, mp_context):
            started.append((max_workers, mp_context.get_start_method()))
            super().__init__(max_workers=max_workers, mp_context=mp_context)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    raw = _raw(modes=["local_a"], aligned_counts=[20], seeds=seeds)
    raw["supervised"] = {"epochs": 0}
    raw["downstream"] = {**TINY["downstream"], "epochs": 1}
    result = run_grid(parse_config(raw))
    assert started == [(workers, "spawn")]
    assert [c.seed for c in result.cells] == seeds
    assert result.all_ok()


def test_grid_without_local_a_starts_no_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no pool without local_a")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    raw = _raw(modes=["vanilla_vfl"], aligned_counts=[20])
    raw["downstream"] = {**TINY["downstream"], "epochs": 1}
    assert run_grid(parse_config(raw)).all_ok()


def test_include_oracle_false_leaves_out_the_oracle(tmp_path):
    raw = _raw(modes=["local_a"], aligned_counts=[20], include_oracle=False)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "g"
    assert main(["grid", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert json.loads((out / "results.json").read_text())["oracle_auc"] == {}
    assert "oracle" not in (out / "summary.txt").read_text()
    with_oracle = run_grid(parse_config({**raw, "grid": {**raw["grid"],
                                                         "include_oracle": True}}))
    assert set(with_oracle.oracle_auc) == {"seed7"}


def test_rerun_into_the_same_directory_rewrites_local_a(tmp_path):
    out, fresh = tmp_path / "g", tmp_path / "fresh"
    first = _raw(modes=["local_a"], aligned_counts=[20])
    second = {**first, "downstream": {**TINY["downstream"], "epochs": 1}}
    run_grid(parse_config(first), out_dir=out)
    run_grid(parse_config(second), out_dir=out)
    run_grid(parse_config(second), out_dir=fresh)
    ckpt = "grid/seed7/local_a.ckpt"
    assert (out / ckpt).read_bytes() == (fresh / ckpt).read_bytes()
