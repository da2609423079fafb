"""The plan runner's local_a worker, under `grid` and `train`: same results as
inline training, typed failures recorded per cell, anything else raised, and
the pool always shut down.

Failures are injected by swapping `evaluation.run_cell` for a module-level
stand-in defined here, which a spawned worker imports by name. It fails
local_a's cell only and runs the real `run_cell` for every other cell.
"""
import ast
import concurrent.futures
import functools
import gc
import json
import multiprocessing
import os
import signal
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

import vflhlp
from vflhlp import evaluation, federated
from vflhlp.cli import main
from vflhlp.config import config_hash, encoder_specs, parse_config
from vflhlp.errors import ConfigError, DataError, TrainingError, UndefinedMetricError
from vflhlp.evaluation import (
    build_bundle, cell_plan, evaluate_mode, run_grid, save_cell_checkpoint,
)
from vflhlp.federated import TrainMode
from vflhlp.sup_pretrain import train_local

from test_cli import TINY


_run_cell = evaluation.run_cell  # the real one, which the stand-ins below call


def _raise(error, bundle, specs, cell, *args):
    seed, _, mode, _ = cell
    if mode is not TrainMode.LOCAL_A:
        return _run_cell(bundle, specs, cell, *args)
    raise error(f"local_a of seed {seed} went wrong")


def _exit_worker(bundle, specs, cell, *args):
    if cell[2] is not TrainMode.LOCAL_A:
        return _run_cell(bundle, specs, cell, *args)
    os._exit(1)


def _slow_local_a(bundle, specs, cell, *args):
    if cell[2] is TrainMode.LOCAL_A:
        time.sleep(60)
    return _run_cell(bundle, specs, cell, *args)


def _report_parties(bundle, specs, cell, *args):
    """The real cell, whose local_a history instead names the parties it was given."""
    trained, score, audit = _run_cell(bundle, specs, cell, *args)
    if cell[2] is TrainMode.LOCAL_A:
        trained.history = [{
            "in_worker": multiprocessing.parent_process() is not None,
            "train": sorted(bundle.train.parties), "test_cat": sorted(bundle.test.cat),
            "test_num": sorted(bundle.test.num), "specs": sorted(specs),
        }]
    return trained, score, audit


def _raw(**grid):
    return {**TINY, "grid": {**TINY["grid"], **grid}}


def _no_workers_left():
    assert multiprocessing.active_children() == []


def test_local_a_cell_matches_inline_training(tmp_path):
    cfg = parse_config(_raw(modes=["local_a", "vanilla_vfl"]))
    result = run_grid(cfg, out_dir=tmp_path / "g")
    _no_workers_left()

    bundle = build_bundle(cfg, 7)
    inline = train_local(bundle.train, encoder_specs(bundle.train, cfg.model)[1],
                         cfg.downstream, 7)
    score = evaluate_mode(inline, bundle.test)
    cells = [c for c in result.cells if c.mode == "local_a"]
    assert [c.aligned_count for c in cells] == [20, 40]
    for c in cells:
        assert c.status == "ok"
        assert c.test_auc == score
        assert c.history == inline.history
    assert [c.mode for c in result.cells] == ["local_a", "vanilla_vfl"] * 2

    # the one model is written at each count it serves, under that count
    for count in (20, 40):
        save_cell_checkpoint(tmp_path / "inline.ckpt", inline, 7, count, 0.0, config_hash(cfg))
        written = tmp_path / "g" / "train" / "seed7" / f"count{count}" / "local_a" / "final.ckpt"
        assert written.read_bytes() == (tmp_path / "inline.ckpt").read_bytes()


def test_local_a_trains_on_the_rows_the_main_process_built(monkeypatch):
    # the worker gets party 1's arrays from the main process's dataset, so
    # labels flipped there reach local_a; a worker that rebuilt its own would miss them
    build = evaluation.build_bundle

    def flipped(cfg, seed):
        bundle = build(cfg, seed)
        bundle.train.labels = 1.0 - bundle.train.labels
        return bundle

    monkeypatch.setattr(evaluation, "build_bundle", flipped)
    cfg = parse_config(_raw(modes=["local_a", "vanilla_vfl"]))
    result = run_grid(cfg)
    _no_workers_left()
    scores = []
    for bundle in (flipped(cfg, 7), build(cfg, 7)):
        spec = encoder_specs(bundle.train, cfg.model)[1]
        inline = train_local(bundle.train, spec, cfg.downstream, 7)
        scores.append((evaluate_mode(inline, bundle.test), inline.history))
    assert scores[0][0] != scores[1][0]
    cells = [(c.status, c.test_auc, c.history) for c in result.cells if c.mode == "local_a"]
    assert cells == [("ok", *scores[0])] * 2


def _config(tmp_path, raw) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return str(path)


def _local_a_histories(tmp_path, command, raw) -> list:
    """The history of each count's local_a cell after `command` runs `raw`."""
    if command == "grid":
        result = run_grid(parse_config(raw))
        assert result.all_ok()
        return [c.history for c in result.cells if c.mode == "local_a"]
    out = tmp_path / "out"
    assert main(["train", "--config", _config(tmp_path, raw), "--out", str(out)]) == 0
    return [[json.loads(line) for line in (run / "history.jsonl").read_text().splitlines()]
            for run in sorted(out.glob("train/seed7/count*/local_a"))]


@pytest.mark.parametrize("command", ["grid", "train"])
def test_the_local_a_job_is_given_party_1_arrays_alone(tmp_path, monkeypatch, command):
    monkeypatch.setattr(evaluation, "run_cell", _report_parties)
    histories = _local_a_histories(tmp_path, command, _raw(modes=["local_a", "vanilla_vfl"]))
    _no_workers_left()
    seen = {"in_worker": True, "train": [1], "test_cat": [1], "test_num": [1], "specs": [1]}
    assert histories == [[seen]] * 2


@pytest.mark.parametrize("error", [ConfigError, DataError, TrainingError,
                                   UndefinedMetricError])
def test_typed_local_a_failure_is_recorded_for_every_count(tmp_path, monkeypatch,
                                                           capsys, error):
    monkeypatch.setattr(evaluation, "run_cell", functools.partial(_raise, error))
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
    assert not list(out.glob("train/seed7/count*/local_a/*"))


def test_a_non_finite_downstream_epoch_fails_its_cell_alone(monkeypatch):
    # the first cell, vanilla_vfl at count 20, trains 18 rows in batches of 16:
    # its rounds 2 and 3 are epoch 2, and report an infinite loss
    real, logs = federated.run_round, []

    def poisoned(fed, batch, round_index, transport):
        stats = real(fed, batch, round_index, transport)
        if not logs:
            logs.append(transport)
        if transport is logs[0] and round_index >= 2:
            return federated.RoundStats(np.inf, np.inf, stats.loss_cons)
        return stats

    monkeypatch.setattr(federated, "run_round", poisoned)
    result = run_grid(parse_config(_raw(modes=["vanilla_vfl", "vflhlp"])))
    assert [(c.mode, c.aligned_count, c.status) for c in result.cells] == [
        ("vanilla_vfl", 20, "failed"), ("vflhlp", 20, "ok"),
        ("vanilla_vfl", 40, "ok"), ("vflhlp", 40, "ok"),
    ]
    assert result.cells[0].error == "TrainingError: training loss non-finite at epoch 2"


def test_a_cell_whose_hold_out_leaves_no_training_row_fails_alone():
    # round(0.9 * 2) = 2 of count 2's aligned rows are held out; count 20 keeps 2
    raw = _raw(modes=["vanilla_vfl"], aligned_counts=[2, 20])
    result = run_grid(parse_config({**raw, "downstream": {**raw["downstream"],
                                                          "val_fraction": 0.9}}))
    assert [(c.aligned_count, c.status) for c in result.cells] == [(2, "failed"), (20, "ok")]
    assert result.cells[0].error == (
        "DataError: no training rows left after holding out 2 of 2 rows (val_fraction 0.9)"
    )


def test_untyped_local_a_failure_propagates(monkeypatch):
    monkeypatch.setattr(evaluation, "run_cell", functools.partial(_raise, KeyError))
    with pytest.raises(KeyError, match="local_a of seed 7 went wrong"):
        run_grid(parse_config(_raw(modes=["local_a", "vanilla_vfl"])))
    _no_workers_left()


def test_a_dead_worker_raises_instead_of_hanging(monkeypatch):
    monkeypatch.setattr(evaluation, "run_cell", _exit_worker)
    with pytest.raises(TrainingError, match="local_a for seed 7 died"):
        run_grid(parse_config(_raw(modes=["local_a"], seeds=[7, 8])))
    _no_workers_left()


@pytest.mark.parametrize("cpus, seeds", [(1, [7, 8]), (8, [7, 8]), (3, [7, 8, 9])])
def test_one_spawn_worker_whatever_the_cpus_and_seeds(monkeypatch, cpus, seeds):
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
    assert started == [(1, "spawn")]
    assert [c.seed for c in result.cells] == seeds
    assert result.all_ok()


def test_an_interrupt_ends_the_worker_through_terminate_workers(monkeypatch):
    # Python 3.14's public terminate_workers, where the pool has it; this
    # stand-in ends the workers as the fallback for older Pythons does
    terminated = []

    class Terminating(concurrent.futures.ProcessPoolExecutor):
        def terminate_workers(self):
            terminated.append(len(self._processes))
            for worker in list(self._processes.values()):
                worker.terminate()

    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Terminating)
    monkeypatch.setattr(evaluation, "pretrain_for_seed", interrupt)
    with pytest.raises(KeyboardInterrupt):
        run_grid(parse_config(_raw(modes=["local_a", "vflhlp"])))
    assert terminated == [1]
    _no_workers_left()


def test_a_failing_pre_training_ends_the_worker_at_once(monkeypatch):
    # the error leaves run_plan while local_a's job still runs; waiting for the
    # job before the error is reported would take the job's whole minute
    def diverge(*args):
        raise TrainingError("party 2: non-finite gradient")

    monkeypatch.setattr(evaluation, "run_cell", _slow_local_a)
    monkeypatch.setattr(evaluation, "pretrain_for_seed", diverge)
    started = time.monotonic()
    with pytest.raises(TrainingError, match="party 2: non-finite gradient"):
        run_grid(parse_config(_raw(modes=["local_a", "vflhlp"])))
    assert time.monotonic() - started < 20
    _no_workers_left()


def test_a_sigint_during_the_submit_is_raised_once_it_returns(monkeypatch, sigint_raises):
    # the helper thread starts before the run, so SIGINT is unblocked in its
    # mask, as in OpenBLAS's thread; it takes the SIGINT while submit runs,
    # which no mask of the main thread covers
    go, sent, returned = threading.Event(), threading.Event(), []

    def helper():
        assert go.wait(60)
        signal.pthread_kill(threading.get_ident(), signal.SIGINT)
        sent.set()

    class Interrupted(concurrent.futures.ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            go.set()
            assert sent.wait(60)
            job = super().submit(*args, **kwargs)
            returned.append(job)
            return job

    thread = threading.Thread(target=helper)
    thread.start()
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Interrupted)
    try:
        with pytest.raises(KeyboardInterrupt):
            run_grid(parse_config(_raw(modes=["local_a"])))
    finally:
        go.set()
        thread.join(60)
    assert not thread.is_alive()
    assert len(returned) == 1  # the real submit returned, and the worker was spawned
    _no_workers_left()


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
    for name in ("final.ckpt", "history.jsonl", "result.json"):
        written = f"train/seed7/count20/local_a/{name}"
        assert (out / written).read_bytes() == (fresh / written).read_bytes()


def test_the_cell_plan_lists_seed_count_mode_and_beta_in_output_order():
    cfg = parse_config(_raw(modes=["vflhlp", "local_a"], aligned_counts=[20, 40]))
    modes = [TrainMode.VFLHLP, TrainMode.LOCAL_A]
    beta = cfg.downstream.beta
    assert cell_plan(cfg, [8, 7], modes) == [
        (seed, count, mode, b)
        for seed in (8, 7)
        for count in (20, 40)
        for mode, b in ((TrainMode.VFLHLP, beta), (TrainMode.LOCAL_A, 0.0))
    ]
    swept = parse_config(_raw(modes=["vflhlp", "local_a"], aligned_counts=[20, 40],
                              beta_sweep=[0.5, 0.0]))
    assert cell_plan(swept, [7], modes)[:3] == [
        (7, 20, TrainMode.VFLHLP, 0.5), (7, 20, TrainMode.VFLHLP, 0.0),
        (7, 20, TrainMode.LOCAL_A, 0.0),
    ]


def test_grid_cells_follow_the_cell_plan():
    raw = _raw(modes=["local_a", "vflhlp", "vanilla_vfl"], beta_sweep=[0.5, 10.0])
    raw["downstream"] = {**TINY["downstream"], "epochs": 1}
    cfg = parse_config(raw)
    result = run_grid(cfg)
    _no_workers_left()
    modes = [TrainMode.parse(m) for m in cfg.grid.modes]
    assert [(c.seed, c.aligned_count, TrainMode(c.mode), c.beta) for c in result.cells] == (
        cell_plan(cfg, cfg.grid.seeds, modes))
    assert result.all_ok() and len(result.cells) == 8


@pytest.mark.parametrize("command", ["grid", "train"])
def test_no_trained_model_outlives_its_cell(tmp_path, monkeypatch, command):
    # a run saves each cell's model and keeps its history and score, never the
    # model, so the previous cell's weights and transport log are freed before
    # the next trains
    earlier = []
    run_cell = evaluation.run_cell

    def checked(*args):
        gc.collect()
        assert [ref for ref in earlier if ref() is not None] == [], "a model outlived its cell"
        cell = run_cell(*args)
        earlier.append(weakref.ref(cell[0]))
        return cell

    argv = ["--config", _config(tmp_path, _raw(modes=["vanilla_vfl", "vflhlp"])),
            "--out", str(tmp_path / "out")]
    if command == "train":
        assert main(["pretrain", *argv]) == 0
    monkeypatch.setattr(evaluation, "run_cell", checked)
    assert main([command, *argv]) == 0
    assert len(earlier) == 4


def test_a_cell_keeps_no_transport_log_past_its_audit(monkeypatch):
    # the log of a federated cell is freed before its test scoring; local_a has none
    audited = []
    audit = evaluation.audit_transport

    def keeping(log, ds):
        audited.append(weakref.ref(log))
        return audit(log, ds)

    def scoring(trained, test):
        gc.collect()
        assert [ref() for ref in audited] == [None], "the log outlived its audit"
        return evaluate_mode(trained, test)

    monkeypatch.setattr(evaluation, "audit_transport", keeping)
    monkeypatch.setattr(evaluation, "evaluate_mode", scoring)
    cfg = parse_config(_raw(modes=["vanilla_vfl", "local_a"]))
    bundle = build_bundle(cfg, 7)
    specs = encoder_specs(bundle.train, cfg.model)
    trained, _, report = evaluation.run_cell(bundle, specs, (7, 20, TrainMode.VANILLA_VFL, 0.0),
                                             None, cfg.downstream)
    assert report.ok and report.n_messages > 0 and trained.transport is None
    local, _, no_report = evaluation.run_cell(bundle, specs, (7, 20, TrainMode.LOCAL_A, 0.0),
                                              None, cfg.downstream)
    assert no_report is None and local.transport is None
    assert len(audited) == 1


def _scopes(matches) -> set[tuple[str, str]]:
    """(module, enclosing function) of every node in the package that `matches`."""
    package = Path(vflhlp.__file__).parent
    found = set()
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        parent = {child: node for node in ast.walk(tree)
                  for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not matches(node):
                continue
            scope = node
            while scope in parent and not isinstance(scope, ast.FunctionDef):
                scope = parent[scope]
            found.add((path.relative_to(package).as_posix(), getattr(scope, "name", "<module>")))
    return found


def _iterates_the_grid_counts_or_sweep(node) -> bool:
    if not isinstance(node, (ast.For, ast.comprehension)):
        return False
    it = node.iter
    return (isinstance(it, ast.Attribute) and it.attr in ("aligned_counts", "beta_sweep")
            and getattr(it.value, "attr", None) == "grid")


def test_only_the_cell_plan_iterates_the_grid_counts_and_sweep():
    # the one cell plan; config.py's validators read them too and are not counted
    found = _scopes(_iterates_the_grid_counts_or_sweep)
    assert {(module, scope) for module, scope in found if module != "config.py"} == {
        ("evaluation.py", "cell_plan")}


def _names(name: str):
    """A matcher of every node that names `name`: a use, an attribute or an import."""
    return lambda node: ((isinstance(node, ast.Name) and node.id == name)
                         or (isinstance(node, ast.Attribute) and node.attr == name)
                         or (isinstance(node, ast.alias) and node.name == name))


def test_only_the_plan_runner_runs_cells():
    # train and grid share one seed loop; a second caller of run_cell, or an
    # import of it, would be a second loop
    assert _scopes(_names("run_cell")) == {("evaluation.py", "run_plan")}


def test_only_the_plan_runner_writes_cells():
    # train and grid write cells in one layout through one writer; a save
    # callback or a command's own record loop would be a second writer
    assert _scopes(_names("save_cell_checkpoint")) == {("evaluation.py", "run_plan")}
    # nor does a command write a cell's record: no path cli.py writes, or a name
    # bound anywhere in it that such a path reads, names history.jsonl or result.json
    tree = ast.parse((Path(vflhlp.__file__).parent / "cli.py").read_text())
    assigned: dict[str, list] = {}
    for node in ast.walk(tree):
        for target in node.targets if isinstance(node, ast.Assign) else ():
            if isinstance(target, ast.Name):
                assigned.setdefault(target.id, []).append(node.value)
    for call in ast.walk(tree):
        if not (isinstance(call, ast.Call) and call.args
                and getattr(call.func, "id", None) == "write_file"):
            continue
        paths = [call.args[0]] + [value for n in ast.walk(call.args[0]) if isinstance(n, ast.Name)
                                  for value in assigned.get(n.id, [])]
        named = {n.value for path in paths for n in ast.walk(path) if isinstance(n, ast.Constant)}
        assert not named & {"history.jsonl", "result.json"}, ast.unparse(call)


def test_the_cli_leaves_stage_files_and_keys_to_evaluation():
    # where a seed's dataset cache and pre-trained files live, and the keys
    # that make them current, have one owner; the CLI parses, runs and prints
    assert {module for module, _ in _scopes(_names("read_current"))} == {"evaluation.py"}
    tree = ast.parse((Path(vflhlp.__file__).parent / "cli.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            named = set(node.value.split("/")) & {"cache", "checkpoints", "dataset.ckpt",
                                                   "active.ckpt"}
            assert not named, node.value
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported = {alias.name for alias in node.names}
            assert not imported & {"hashlib", "read_current", "CACHE_FILE"}, ast.unparse(node)


def test_the_cli_leaves_a_cells_plan_and_files_to_evaluation():
    # evaluation alone knows a cell's plan, path and files: cli.py names no cell
    # file and scores no checkpoint itself, and no other module reads the beta
    # sweep (config.py declares the field and its validator checks it)
    tree = ast.parse((Path(vflhlp.__file__).parent / "cli.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            named = set(node.value.split("/")) & {"final.ckpt", "result.json", "history.jsonl",
                                                   "eval.json"}
            assert not named, node.value
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported = {alias.name for alias in node.names}
            assert not imported & {"load_cell_checkpoint", "evaluate_mode"}, ast.unparse(node)
    assert {(module, scope) for module, scope in _scopes(_names("beta_sweep"))
            if module != "evaluation.py"} == {("config.py", "<module>"),
                                              ("config.py", "__post_init__")}


def _names_a_diverging_party(node) -> bool:
    """A `TrainingError(f"party {…}: …")` call: the prefix that names the party."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "TrainingError"
            and node.args and isinstance(node.args[0], ast.JoinedStr)):
        return False
    parts = node.args[0].values
    return (len(parts) > 2 and getattr(parts[0], "value", None) == "party "
            and isinstance(parts[1], ast.FormattedValue)
            and str(getattr(parts[2], "value", "")).startswith(": "))


def test_only_the_seed_pre_training_names_a_diverging_party():
    # each stage raises its own words; one loop over the stages adds the
    # party, so a second prefix would name a party twice or in a second way
    assert _scopes(_names_a_diverging_party) == {("evaluation.py", "pretrain_for_seed")}
