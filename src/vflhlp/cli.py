"""Command-line pipeline: prepare -> pretrain -> train -> eval, or grid.

Every command takes one JSON config (--config). Exit codes: 0 success,
2 config or usage error (a config too large for memory too), 3 data
error, 4 training error, 130 interrupted (SIGINT). The output directory
comes from --out, then the VFLHLP_OUT environment variable, then the
config's output_dir. All artifacts under it are deterministic functions
of (config, seed); wall-clock metadata goes only to the run_meta.json
sidecar, one record per command, so byte comparisons can skip it.
"""
from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .config import RunConfig, config_hash, encoder_specs, load_config
from .data import read_json_object, save_bundle
from .errors import ConfigError, DataError, TrainingError
from .evaluation import (
    CellResult,
    build_bundle,
    cached_dataset,
    cell_dir,
    cell_plan,
    dataset_dir,
    load_pretrained,
    pretrain_for_seed,
    read_dataset,
    rescore,
    run_grid,
    run_plan,
    save_pretrained,
    stage_keys,
)
from .federated import TrainMode, pretrained_needs
from .nn import write_file

ENV_OUT = "VFLHLP_OUT"


def _resolve_out(cfg: RunConfig, cli_out: str | None) -> Path:
    if cli_out:
        return Path(cli_out)
    env = os.environ.get(ENV_OUT)
    if env:
        return Path(env)
    return Path(cfg.output_dir)


def cmd_prepare(cfg: RunConfig, out: Path, seeds) -> int:
    for seed in seeds:
        cache, key = dataset_dir(out, seed), stage_keys(cfg, seed)["dataset"]
        try:
            if cached_dataset(out, seed, key) is not None:
                print(f"seed {seed}: cache up to date at {cache}")
                continue
        except DataError as exc:
            print(f"seed {seed}: cache at {cache} is damaged ({exc}); rebuilding it")
        bundle = build_bundle(cfg, seed)
        save_bundle(cache, bundle, meta=key)
        dims = {
            k: (v.cat.shape[1], v.num.shape[1])
            for k, v in bundle.train.parties.items()
        }
        print(f"seed {seed}: wrote cache to {cache}; party (cat, num) dims {dims}")
    return 0


def cmd_pretrain(cfg: RunConfig, out: Path, seeds, passive_only: bool) -> int:
    chash = config_hash(cfg)
    for seed in seeds:
        bundle, keys = read_dataset(cfg, out, seed)
        pre = pretrain_for_seed(
            cfg, bundle, seed, need_active=not passive_only, need_passive=True
        )
        save_pretrained(out, pre, seed, chash, keys)
        if not passive_only:
            val = "n/a" if pre.active.val_auc is None else f"{pre.active.val_auc:.4f}"
            print(f"seed {seed}: active party pre-trained, val AUC {val}")
        for k, trace in pre.ssl_traces.items():
            print(
                f"seed {seed}: party {k} contrastive loss "
                f"{trace[0]:.4f} -> {trace[-1]:.4f} over {len(trace) - 1} epochs"
            )
    return 0


def cmd_train(cfg: RunConfig, out: Path, seeds, mode_name: str | None) -> int:
    """Train the plan's cells with run_plan, which writes them. Failed cells get a
    FAILED line at the end, and the first one's error is raised, with its own exit code."""
    modes = [TrainMode.parse(m) for m in (cfg.grid.modes if mode_name is None else [mode_name])]
    needs = pretrained_needs(modes, cfg.downstream.warm_start_active)
    plan = cell_plan(cfg, seeds, modes)
    loaded = {}  # every seed's dataset and checkpoints are read before the first cell trains
    for seed in seeds:
        bundle, keys = read_dataset(cfg, out, seed)
        specs = encoder_specs(bundle.train, cfg.model)
        loaded[seed] = bundle, load_pretrained(out, seed, specs, *needs, keys)

    failed = []
    for cell, outcome in run_plan(
        cfg, plan, lambda seed: loaded[seed][0], lambda seed, _: loaded[seed][1], out
    ):
        if isinstance(outcome, Exception):
            failed.append((cell, outcome))
            continue
        seed, count, _, _ = cell
        print(f"seed {seed} n_al={count} {cell_dir(cfg, out, cell).name}: "
              f"test AUC {outcome[0]:.4f}")
    if failed:
        _print_failed([CellResult.of(cell, exc) for cell, exc in failed])
        raise failed[0][1]
    return 0


def cmd_eval(cfg: RunConfig, out: Path, seeds) -> int:
    """Print each trained cell as evaluation.rescore scores it again on the test
    rows, flagging a score that differs from train's and a checkpoint trained
    under another config."""
    scored = False
    for (seed, count, _, _), name, record in rescore(cfg, out, seeds):
        scored = True
        score, recorded = record["test_auc"], record["recorded_auc"]
        flag = "" if recorded in (None, score) else "  (differs from train!)"
        if not record["config_hash_matches"]:
            flag += "  (trained under another config)"
        print(f"seed {seed} n_al={count} {name}: test AUC {score:.4f}{flag}")
    if not scored:
        raise TrainingError(
            f"no trained checkpoints under {out / 'train'}; run `vflhlp train` first"
        )
    return 0


def cmd_grid(cfg: RunConfig, out: Path, seeds) -> int:
    result = run_grid(cfg, out_dir=out, log=lambda msg: print(msg, flush=True), seeds=seeds)
    print(result.render_text(), end="")
    if not result.all_ok():
        failed = [c for c in result.cells if c.status == "failed"]
        _print_failed(failed)
        raise TrainingError(f"{len(failed)} grid cells failed")
    return 0


def _print_failed(cells: list[CellResult]) -> None:
    """One stderr line for each of the first ten failed cells, `train`'s and `grid`'s alike."""
    for c in cells[:10]:
        print(
            f"FAILED: mode={c.mode} n_al={c.aligned_count} seed={c.seed} "
            f"beta={c.beta:g}: {c.error}",
            file=sys.stderr,
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vflhlp",
        description="split training across parties with local pre-training",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", help="output directory (overrides config and env)")
        p.add_argument("--seed", type=int, help="run a single seed instead of the config's list")

    p = sub.add_parser("prepare", help="materialize the dataset cache per seed")
    common(p)
    p = sub.add_parser("pretrain", help="local pre-training for every party")
    common(p)
    p.add_argument(
        "--passive-only",
        action="store_true",
        help="skip the active party's supervised stage",
    )
    p = sub.add_parser("train", help="downstream split training")
    common(p)
    p.add_argument("--mode", help="train a single mode instead of the config's list")
    p = sub.add_parser("eval", help="re-evaluate saved downstream checkpoints")
    common(p)
    p = sub.add_parser("grid", help="full sweep over modes, aligned counts and seeds")
    common(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    out = None
    try:
        cfg = load_config(args.config)
        if args.seed is not None and args.seed < 0:
            raise ConfigError("--seed must be non-negative")
        # --seed selects the one seed to run; the config, and so its hash, stay
        seeds = cfg.grid.seeds if args.seed is None else (args.seed,)
        if getattr(args, "mode", None) is not None:
            TrainMode.parse(args.mode)  # fail fast on typos, an empty name too
        out = _resolve_out(cfg, args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # e.g. --out names a file
            raise DataError(
                f"{out}: cannot create the output directory: {exc.strerror or exc}"
            ) from None
        if args.command == "prepare":
            code = cmd_prepare(cfg, out, seeds)
        elif args.command == "pretrain":
            code = cmd_pretrain(cfg, out, seeds, args.passive_only)
        elif args.command == "train":
            code = cmd_train(cfg, out, seeds, args.mode)
        elif args.command == "eval":
            code = cmd_eval(cfg, out, seeds)
        else:
            code = cmd_grid(cfg, out, seeds)
    except ConfigError as exc:
        code = _fail("config error", exc, 2)
    except MemoryError as exc:  # a model or table larger than the process may hold
        code = _fail("config error", f"not enough memory: {exc}", 2)
    except DataError as exc:
        code = _fail("data error", exc, 3)
    except TrainingError as exc:
        code = _fail("training error", exc, 4)
    except KeyboardInterrupt:  # Ctrl-C: one line and a run record, not a traceback
        print("interrupted", file=sys.stderr)
        code = 130
    if out is not None and out.is_dir():  # a failed run gets its sidecar too
        try:
            _write_run_meta(out, args.command, started, code)
        except DataError as exc:  # reported after the run's own error, never instead
            code = _fail("data error", exc, code or 3)
    return code


def _fail(kind: str, exc: Exception, code: int) -> int:
    print(f"{kind}: {exc}", file=sys.stderr)
    return code


def _write_run_meta(out: Path, command: str, started: float, code: int) -> None:
    # the one file that is allowed to differ between identical reruns; one
    # record per command, so a later command keeps an earlier one's record
    path = out / "run_meta.json"
    try:
        meta = read_json_object(path)
    except DataError:  # none yet, or unreadable: start afresh
        meta = {}
    finished = time.time()
    meta[command] = {
        "started": datetime.datetime.fromtimestamp(started).isoformat(),
        "finished": datetime.datetime.fromtimestamp(finished).isoformat(),
        "wall_seconds": finished - started,
        "exit_code": code,
        "version": __version__,
    }
    write_file(path, json.dumps(meta, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(main())
