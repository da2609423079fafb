"""Command-line pipeline: prepare -> pretrain -> train -> eval, or grid.

Every command takes one JSON config (--config). Exit codes: 0 success,
2 config or usage error, 3 data error, 4 training error. The output
directory comes from --out, then the VFLHLP_OUT environment variable,
then the config's output_dir. All artifacts under it are deterministic
functions of (config, seed); wall-clock metadata goes only to the
run_meta.json sidecar so byte comparisons can skip it.
"""
from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, config_hash, encoder_specs, load_config
from .data import DatasetBundle, load_bundle, read_manifest, save_bundle
from .errors import ConfigError, DataError, TrainingError
from .evaluation import build_bundle, evaluate_mode, flatten_trained, run_grid
from .federated import (
    PretrainedWeights,
    TrainedFederation,
    TrainedLocal,
    TrainMode,
    TransportLog,
    audit_transport,
    train_downstream,
)
from .nn import Mlp, load_checkpoint, save_checkpoint
from .nn.layers import DenseLayer
from .sup_pretrain import ActivePretrained, pretrain_active
from .ssl_pretrain import pretrain_passive

ENV_OUT = "VFLHLP_OUT"


def _resolve_out(cfg: RunConfig, cli_out: str | None) -> Path:
    if cli_out:
        return Path(cli_out)
    env = os.environ.get(ENV_OUT)
    if env:
        return Path(env)
    return Path(cfg.output_dir)


def _cache_dir(out: Path, seed: int) -> Path:
    return out / "cache" / f"seed{seed}"


def _ckpt_dir(out: Path, seed: int) -> Path:
    return out / "checkpoints" / f"seed{seed}"


def _cache_is_current(cache: Path, chash: str, seed: int) -> bool:
    """True if `cache` holds a dataset built from this config and seed."""
    manifest_path = cache / "manifest.json"
    if not manifest_path.exists():
        return False
    meta = read_manifest(manifest_path).get("meta")
    return (
        isinstance(meta, dict)
        and meta.get("config_hash") == chash
        and meta.get("seed") == seed
    )


def _bundle_for(cfg: RunConfig, out: Path, seed: int) -> DatasetBundle:
    """Load the cached dataset if it matches this config, else build it."""
    cache = _cache_dir(out, seed)
    if _cache_is_current(cache, config_hash(cfg), seed):
        return load_bundle(cache)[0]
    return build_bundle(cfg, seed)


def cmd_prepare(cfg: RunConfig, out: Path) -> int:
    chash = config_hash(cfg)
    for seed in cfg.grid.seeds:
        cache = _cache_dir(out, seed)
        if _cache_is_current(cache, chash, seed):
            print(f"seed {seed}: cache up to date at {cache}")
            continue
        bundle = build_bundle(cfg, seed)
        save_bundle(cache, bundle, meta={"config_hash": chash, "seed": seed})
        dims = {
            k: (v.cat.shape[1], v.num.shape[1])
            for k, v in bundle.train.parties.items()
        }
        print(f"seed {seed}: wrote cache to {cache}; party (cat, num) dims {dims}")
    return 0


def cmd_pretrain(cfg: RunConfig, out: Path, passive_only: bool) -> int:
    chash = config_hash(cfg)
    for seed in cfg.grid.seeds:
        bundle = _bundle_for(cfg, out, seed)
        specs = encoder_specs(bundle.train, cfg.model)
        ckpts = _ckpt_dir(out, seed)
        if not passive_only:
            active = pretrain_active(
                bundle.train.parties[1],
                bundle.train.labels,
                specs[1],
                cfg.supervised,
                seed,
            )
            tensors = {f"encoder.{n}": p for n, p in active.encoder_params.items()}
            tensors.update({f"head.{n}": p for n, p in active.head_params.items()})
            save_checkpoint(
                ckpts / "active.ckpt",
                tensors,
                {
                    "stage": "active-pretrain",
                    "party": 1,
                    "seed": seed,
                    "config_hash": chash,
                    "best_epoch": active.best_epoch,
                    "val_auc": active.val_auc,
                    "degenerate_validation": active.degenerate_validation,
                },
            )
            val = "n/a" if active.val_auc is None else f"{active.val_auc:.4f}"
            print(f"seed {seed}: active party pre-trained, val AUC {val}")
        for k in sorted(bundle.train.parties):
            if k == 1:
                continue
            encoder, trace = pretrain_passive(
                bundle.train.parties[k], specs[k], cfg.ssl, seed
            )
            tensors = {f"encoder.{n}": p for n, p in encoder.params().items()}
            save_checkpoint(
                ckpts / f"passive{k}.ckpt",
                tensors,
                {
                    "stage": "ssl-pretrain",
                    "party": k,
                    "seed": seed,
                    "config_hash": chash,
                    "loss_trace": trace,
                },
            )
            print(
                f"seed {seed}: party {k} contrastive loss "
                f"{trace[0]:.4f} -> {trace[-1]:.4f} over {len(trace) - 1} epochs"
            )
    return 0


def _split_prefixed(
    tensors: dict[str, np.ndarray], prefix: str
) -> dict[str, np.ndarray]:
    plen = len(prefix)
    return {n[plen:]: p for n, p in tensors.items() if n.startswith(prefix)}


def _load_pretrained(
    out: Path, seed: int, specs, mode: TrainMode, warm_start_active: bool
) -> PretrainedWeights:
    ckpts = _ckpt_dir(out, seed)
    weights = PretrainedWeights()
    if mode.uses_constraint or warm_start_active:
        path = ckpts / "active.ckpt"
        if not path.exists():
            raise TrainingError(
                f"mode {mode.value} needs {path} for the active party (party 1); "
                f"run `vflhlp pretrain` first"
            )
        tensors, meta = load_checkpoint(path)
        weights.active = ActivePretrained(
            spec=specs[1],
            encoder_params=_split_prefixed(tensors, "encoder."),
            head_params=_split_prefixed(tensors, "head."),
            best_epoch=meta.get("best_epoch", 0),
            val_auc=meta.get("val_auc"),
            degenerate_validation=meta.get("degenerate_validation", False),
        )
    if mode.warm_starts_passive:
        for k in sorted(specs):
            if k == 1:
                continue
            path = ckpts / f"passive{k}.ckpt"
            if not path.exists():
                raise TrainingError(
                    f"mode {mode.value} needs {path} for passive party {k}; "
                    f"run `vflhlp pretrain` first"
                )
            tensors, _ = load_checkpoint(path)
            weights.passive[k] = _split_prefixed(tensors, "encoder.")
    return weights


def cmd_train(cfg: RunConfig, out: Path, mode_name: str | None) -> int:
    chash = config_hash(cfg)
    mode_names = [mode_name] if mode_name else list(cfg.grid.modes)
    for seed in cfg.grid.seeds:
        bundle = _bundle_for(cfg, out, seed)
        specs = encoder_specs(bundle.train, cfg.model)
        local_a_cache = None
        for name in mode_names:
            mode = TrainMode.parse(name)
            pretrained = _load_pretrained(
                out, seed, specs, mode, cfg.downstream.warm_start_active
            )
            for count in cfg.grid.aligned_counts:
                view = bundle.train.with_aligned_count(count)
                dcfg = replace(cfg.downstream, seed=seed)
                if not mode.uses_constraint:
                    dcfg = replace(dcfg, beta=0.0)
                if mode is TrainMode.LOCAL_A:
                    if local_a_cache is None:
                        local_a_cache = train_downstream(
                            view, specs, mode, pretrained, dcfg
                        )
                    trained = local_a_cache
                    audit = None
                else:
                    trained = train_downstream(view, specs, mode, pretrained, dcfg)
                    audit = audit_transport(trained.transport, bundle.train)
                    if not audit.ok:
                        raise TrainingError(
                            "transport audit failed: " + "; ".join(audit.violations)
                        )
                score = evaluate_mode(trained, bundle.test)
                run_dir = out / "train" / f"seed{seed}" / f"count{count}" / mode.value
                run_dir.mkdir(parents=True, exist_ok=True)
                with (run_dir / "history.jsonl").open("w") as fh:
                    for entry in trained.history:
                        fh.write(json.dumps(entry, sort_keys=True) + "\n")
                save_checkpoint(
                    run_dir / "final.ckpt",
                    flatten_trained(trained),
                    {
                        "stage": "downstream",
                        "mode": mode.value,
                        "seed": seed,
                        "aligned_count": count,
                        "beta": dcfg.beta,
                        "config_hash": chash,
                    },
                )
                result = {
                    "mode": mode.value,
                    "seed": seed,
                    "aligned_count": count,
                    "beta": dcfg.beta,
                    "test_auc": score,
                    "config_hash": chash,
                    "audit": None
                    if audit is None
                    else {
                        "ok": audit.ok,
                        "n_messages": audit.n_messages,
                        "n_rounds": audit.n_rounds,
                        "balanced_rounds": audit.balanced_rounds,
                    },
                }
                (run_dir / "result.json").write_text(
                    json.dumps(result, indent=2, sort_keys=True) + "\n"
                )
                print(
                    f"seed {seed} n_al={count} {mode.value}: test AUC {score:.4f}"
                )
    return 0


def _rebuild(specs, tensors: dict[str, np.ndarray], mode: TrainMode):
    if mode is TrainMode.LOCAL_A:
        model = ActivePretrained(
            spec=specs[1],
            encoder_params=_split_prefixed(tensors, "party1.encoder."),
            head_params=_split_prefixed(tensors, "head."),
            best_epoch=0,
            val_auc=None,
            degenerate_validation=False,
        )
        return TrainedLocal(mode=mode, model=model, history=[])
    encoders = {}
    for k, spec in specs.items():
        encoder = spec.build_empty()
        encoder.set_params(_split_prefixed(tensors, f"party{k}.encoder."))
        encoders[k] = encoder
    head_params = _split_prefixed(tensors, "head.")
    head = Mlp(
        [DenseLayer(head_params["0.weight"], head_params["0.bias"], "identity")]
    )
    return TrainedFederation(
        mode=mode, encoders=encoders, head=head, history=[], transport=TransportLog()
    )


def cmd_eval(cfg: RunConfig, out: Path) -> int:
    any_found = False
    for seed in cfg.grid.seeds:
        bundle = _bundle_for(cfg, out, seed)
        specs = encoder_specs(bundle.train, cfg.model)
        for count in cfg.grid.aligned_counts:
            for name in cfg.grid.modes:
                run_dir = out / "train" / f"seed{seed}" / f"count{count}" / name
                ckpt = run_dir / "final.ckpt"
                if not ckpt.exists():
                    continue
                any_found = True
                tensors, meta = load_checkpoint(ckpt)
                trained = _rebuild(specs, tensors, TrainMode.parse(meta["mode"]))
                score = evaluate_mode(trained, bundle.test)
                recorded = None
                result_path = run_dir / "result.json"
                if result_path.exists():
                    recorded = json.loads(result_path.read_text()).get("test_auc")
                (run_dir / "eval.json").write_text(
                    json.dumps(
                        {
                            "test_auc": score,
                            "recorded_auc": recorded,
                            "matches_recorded": recorded == score,
                        },
                        indent=2,
                        sort_keys=True,
                    )
                    + "\n"
                )
                flag = "" if recorded in (None, score) else "  (differs from train!)"
                print(f"seed {seed} n_al={count} {name}: test AUC {score:.4f}{flag}")
    if not any_found:
        raise TrainingError(
            f"no trained checkpoints under {out / 'train'}; run `vflhlp train` first"
        )
    return 0


def cmd_grid(cfg: RunConfig, out: Path) -> int:
    result = run_grid(cfg, out_dir=out, log=lambda msg: print(msg, flush=True))
    print(result.render_text(), end="")
    if not result.all_ok():
        failed = [c for c in result.cells if c.status == "failed"]
        for c in failed[:10]:
            print(
                f"FAILED: mode={c.mode} n_al={c.aligned_count} seed={c.seed}: {c.error}",
                file=sys.stderr,
            )
        raise TrainingError(f"{len(failed)} grid cells failed")
    return 0


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
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be non-negative")
            cfg = replace(cfg, grid=replace(cfg.grid, seeds=(args.seed,)))
        if getattr(args, "mode", None):
            TrainMode.parse(args.mode)  # fail fast on typos
        out = _resolve_out(cfg, args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "prepare":
            code = cmd_prepare(cfg, out)
        elif args.command == "pretrain":
            code = cmd_pretrain(cfg, out, args.passive_only)
        elif args.command == "train":
            code = cmd_train(cfg, out, args.mode)
        elif args.command == "eval":
            code = cmd_eval(cfg, out)
        else:
            code = cmd_grid(cfg, out)
        _write_run_meta(out, args.command, started, code)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return 4


def _write_run_meta(out: Path, command: str, started: float, code: int) -> None:
    # the one file that is allowed to differ between identical reruns
    finished = time.time()
    meta = {
        "command": command,
        "started": datetime.datetime.fromtimestamp(started).isoformat(),
        "finished": datetime.datetime.fromtimestamp(finished).isoformat(),
        "wall_seconds": finished - started,
        "exit_code": code,
        "version": __version__,
    }
    (out / "run_meta.json").write_text(json.dumps(meta, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(main())
