"""End-to-end experiment grid: datasets, pre-training, all modes, aggregation.

One grid run sweeps (mode x aligned_count x seed). Per seed the dataset and
the pre-trained weights are computed once and shared across every aligned
count, which is sound because aligned subsets are nested prefixes of one
pool and local pre-training never looks at alignment. Cell failures are
recorded, not raised, so one diverging cell cannot take down a sweep.

`run_cell`, which `train` runs too, and the tensor names of every
checkpoint the pipeline writes also live here.
"""
from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, config_hash, encoder_specs
from .data import (
    AlignedBatch,
    DatasetBundle,
    load_csv,
    split_from_table,
    synth_generate,
    transform_csv,
    vertical_partition,
)
from .errors import ConfigError, DataError, SchemaError, TrainingError, UndefinedMetricError
from .federated import (
    AuditReport,
    DownstreamConfig,
    PretrainedWeights,
    TrainedFederation,
    TrainMode,
    TransportLog,
    audit_transport,
    federated_predict,
    train_downstream,
)
from .metrics import auc
from .nn import Mlp, load_checkpoint, save_checkpoint
from .nn.layers import EncoderSpec
from .ssl_pretrain import pretrain_passive
from .sup_pretrain import ActivePretrained, pretrain_active


def evaluate_mode(trained: TrainedFederation, test: AlignedBatch) -> float:
    """Test AUC of a trained model on a fully aligned split."""
    scores = federated_predict(trained.encoders, trained.head, test.cat, test.num)
    return auc(test.labels, scores)


def build_bundle(cfg: RunConfig, seed: int) -> DatasetBundle:
    """Materialize the dataset for one seed (synthetic or CSV-backed)."""
    if cfg.data.kind == "synth":
        return synth_generate(cfg.data.synth, seed)
    c = cfg.data.csv
    schema = c.schema()
    train_table, encoder = load_csv(c.train_path, schema, c.id_column, c.label_column)
    ds = vertical_partition(train_table, schema, c.k_parties, c.aligned_pool, seed)
    test_table = transform_csv(c.test_path, schema, encoder, c.id_column, c.label_column)
    test = split_from_table(test_table, schema, c.k_parties)
    return DatasetBundle(train=ds, test=test)


@dataclass
class SeedPretraining:
    """Weights and traces from the two pre-training stages for one seed."""

    weights: PretrainedWeights
    ssl_traces: dict[int, list[float]]
    active_val_auc: float | None


def pretrain_for_seed(
    cfg: RunConfig,
    bundle: DatasetBundle,
    seed: int,
    need_active: bool,
    need_passive: bool,
) -> SeedPretraining:
    specs = encoder_specs(bundle.train, cfg.model)
    weights = PretrainedWeights()
    traces: dict[int, list[float]] = {}
    active_val = None
    if need_active:
        weights.active = pretrain_active(
            bundle.train.parties[1], bundle.train.labels, specs[1], cfg.supervised, seed
        )
        active_val = weights.active.val_auc
    if need_passive:
        for k in sorted(bundle.train.parties):
            if k == 1:
                continue
            encoder, trace = pretrain_passive(
                bundle.train.parties[k], specs[k], cfg.ssl, seed
            )
            weights.passive[k] = encoder.params_copy()
            traces[k] = trace
    return SeedPretraining(
        weights=weights, ssl_traces=traces, active_val_auc=active_val
    )


@dataclass
class CellResult:
    mode: str
    aligned_count: int
    seed: int
    beta: float
    status: str  # "ok" | "failed"
    test_auc: float | None
    error: str | None
    history: list[dict] = field(default_factory=list)


@dataclass
class GridResult:
    config_hash: str
    version: str
    modes: list[str]
    aligned_counts: list[int]
    seeds: list[int]
    default_beta: float
    cells: list[CellResult]
    ssl_traces: dict[str, list[float]]  # "seed{S}/party{K}" -> loss trace
    active_val_auc: dict[str, float | None]  # "seed{S}" -> pre-training val AUC
    oracle_auc: dict[str, float]  # "seed{S}" -> Bayes-score AUC (synthetic only)

    def cells_for(
        self, mode: str, aligned_count: int, beta: float | None = None
    ) -> list[CellResult]:
        out = []
        for c in self.cells:
            if c.mode != mode or c.aligned_count != aligned_count:
                continue
            if beta is not None and c.beta != beta:
                continue
            out.append(c)
        return out

    def mean_std(
        self, mode: str, aligned_count: int, beta: float | None = None
    ) -> tuple[float, float, int]:
        """Mean and sample std of test AUC over seeds with ok status."""
        vals = [
            c.test_auc
            for c in self.cells_for(mode, aligned_count, beta)
            if c.status == "ok"
        ]
        if not vals:
            return float("nan"), float("nan"), 0
        arr = np.asarray(vals)
        std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        return float(arr.mean()), std, arr.size

    def summary_rows(self) -> list[dict]:
        rows = []
        betas = sorted({c.beta for c in self.cells})
        for mode in self.modes:
            for beta in betas:
                for count in self.aligned_counts:
                    if not self.cells_for(mode, count, beta):
                        continue
                    mean, std, n = self.mean_std(mode, count, beta)
                    failed = sum(
                        1
                        for c in self.cells_for(mode, count, beta)
                        if c.status == "failed"
                    )
                    rows.append(
                        {
                            "mode": mode,
                            "beta": beta,
                            "aligned_count": count,
                            "mean_auc": mean,
                            "std_auc": std,
                            "n_ok": n,
                            "n_failed": failed,
                        }
                    )
        return rows

    def delta_rows(self) -> list[dict]:
        """Mean improvement of vflhlp over vanilla_vfl per aligned count."""
        rows = []
        for count in self.aligned_counts:
            hyb = self.mean_std("vflhlp", count, self.default_beta)
            van = self.mean_std("vanilla_vfl", count, 0.0)
            if hyb[2] and van[2]:
                rows.append(
                    {"aligned_count": count, "delta_auc": hyb[0] - van[0]}
                )
        return rows

    def all_ok(self) -> bool:
        return all(c.status == "ok" for c in self.cells)

    def to_json_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "version": self.version,
            "modes": self.modes,
            "aligned_counts": self.aligned_counts,
            "seeds": self.seeds,
            "default_beta": self.default_beta,
            "cells": [
                {
                    "mode": c.mode,
                    "aligned_count": c.aligned_count,
                    "seed": c.seed,
                    "beta": c.beta,
                    "status": c.status,
                    "test_auc": c.test_auc,
                    "error": c.error,
                    "history": c.history,
                }
                for c in self.cells
            ],
            "summary": self.summary_rows(),
            "delta": self.delta_rows(),
            "ssl_traces": self.ssl_traces,
            "active_val_auc": self.active_val_auc,
            "oracle_auc": self.oracle_auc,
        }

    def cells_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["mode", "aligned_count", "seed", "beta", "status", "test_auc", "error"]
        )
        for c in self.cells:
            writer.writerow(
                [
                    c.mode,
                    c.aligned_count,
                    c.seed,
                    repr(c.beta),
                    c.status,
                    "" if c.test_auc is None else repr(c.test_auc),
                    c.error or "",
                ]
            )
        return out.getvalue()

    def summary_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["mode", "beta", "aligned_count", "mean_auc", "std_auc", "n_ok", "n_failed"]
        )
        for row in self.summary_rows():
            writer.writerow(
                [
                    row["mode"],
                    repr(row["beta"]),
                    row["aligned_count"],
                    repr(row["mean_auc"]),
                    repr(row["std_auc"]),
                    row["n_ok"],
                    row["n_failed"],
                ]
            )
        return out.getvalue()

    def render_text(self) -> str:
        """Mean +- std table, modes as rows, aligned counts as columns."""
        lines = []
        header = ["mode".ljust(14)] + [f"n_al={c}".rjust(16) for c in self.aligned_counts]
        lines.append("  ".join(header))
        betas = sorted({c.beta for c in self.cells})
        for mode in self.modes:
            for beta in betas:
                any_cell = any(
                    self.cells_for(mode, n, beta) for n in self.aligned_counts
                )
                if not any_cell:
                    continue
                tag = mode if len(betas) == 1 or mode in ("vanilla_vfl", "vflhlp_p",
                                                          "local_a") else f"{mode} b={beta:g}"
                row = [tag.ljust(14)]
                for count in self.aligned_counts:
                    if not self.cells_for(mode, count, beta):
                        row.append("-".rjust(16))
                        continue
                    mean, std, n = self.mean_std(mode, count, beta)
                    row.append(f"{mean:.3f} +- {std:.3f}".rjust(16))
                lines.append("  ".join(row))
        for d in self.delta_rows():
            lines.append(
                f"delta(vflhlp - vanilla_vfl) at n_al={d['aligned_count']}: "
                f"{d['delta_auc']:+.3f}"
            )
        if self.oracle_auc:
            vals = np.array(list(self.oracle_auc.values()))
            std = vals.std(ddof=1) if vals.size > 1 else 0.0
            lines.append(f"bayes oracle ceiling: {vals.mean():.3f} +- {std:.3f}")
        return "\n".join(lines) + "\n"


def _cell_tag(mode: str, beta: float, sweep: bool) -> str:
    return f"{mode}_b{beta:g}" if sweep else mode


def run_cell(
    bundle: DatasetBundle,
    specs: dict[int, EncoderSpec],
    mode: TrainMode,
    pretrained: PretrainedWeights | None,
    dcfg: DownstreamConfig,
) -> tuple[TrainedFederation, float, AuditReport | None]:
    """Train one cell on bundle.train's aligned rows and score it on bundle.test.

    A federated cell's transport log is audited first, and a payload that
    copies a raw column or the labels raises TrainingError. local_a sends
    nothing, so its audit is None. `train` and `grid` both run every cell
    through here.
    """
    trained = train_downstream(bundle.train, specs, mode, pretrained, dcfg)
    audit = None
    if mode.is_federated:
        audit = audit_transport(trained.transport, bundle.train)
        if not audit.ok:
            raise TrainingError("transport audit failed: " + "; ".join(audit.violations))
    return trained, evaluate_mode(trained, bundle.test), audit


def train_local_a(cfg: RunConfig, seed: int) -> tuple[TrainedFederation, float]:
    """Train and score one seed's local_a cell from scratch.

    local_a depends on neither pre-training nor the aligned count, so
    run_grid runs this in a worker process while it trains the seed's other
    cells. The job builds its own dataset from the config, so a freshly
    spawned worker needs nothing else from the parent process.
    """
    bundle = build_bundle(cfg, seed)
    specs = encoder_specs(bundle.train, cfg.model)
    dcfg = replace(cfg.downstream, seed=seed, beta=0.0)
    trained, score, _ = run_cell(bundle, specs, TrainMode.LOCAL_A, None, dcfg)
    return trained, score


def _spare_cpus() -> int:
    """CPUs available to this process, less the one the grid itself uses."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, cpus - 1)


_CELL_ERRORS = (ConfigError, DataError, TrainingError, UndefinedMetricError)


def run_grid(
    cfg: RunConfig, out_dir: Path | None = None, log=None
) -> GridResult:
    """Run the full sweep; optionally write results and final checkpoints.

    Returns a GridResult with one cell per (mode, aligned_count, seed, beta).
    Modes that do not use the constraint always run with beta = 0; modes
    that do use the configured beta, or every value of grid.beta_sweep.

    Each seed's local_a cell trains in a worker process (train_local_a)
    while this process pre-trains and trains the federated cells; its
    result is filled into its serial position at the end of the seed, so
    the outputs do not depend on the number of workers.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    say = log or (lambda msg: None)
    chash = config_hash(cfg)
    modes = [TrainMode.parse(m) for m in cfg.grid.modes]
    sweep = tuple(cfg.grid.beta_sweep)
    need_active = any(m.uses_constraint for m in modes) or cfg.downstream.warm_start_active
    need_passive = any(m.warm_starts_passive for m in modes)

    cells: list[CellResult | None] = []  # None marks a local_a cell not yet back
    ssl_traces: dict[str, list[float]] = {}
    active_val: dict[str, float | None] = {}
    oracle: dict[str, float] = {}

    pool = None
    local_a_jobs = {}
    try:
        if TrainMode.LOCAL_A in modes:
            workers = min(_spare_cpus(), len(cfg.grid.seeds))
            # spawn, not fork: forking a process that may run threads
            # (BLAS, a caller's) can deadlock the child
            pool = ProcessPoolExecutor(
                max_workers=workers, mp_context=multiprocessing.get_context("spawn")
            )
            local_a_jobs = {
                seed: pool.submit(train_local_a, cfg, seed) for seed in cfg.grid.seeds
            }
        for seed in cfg.grid.seeds:
            say(f"seed {seed}: building dataset")
            bundle = build_bundle(cfg, seed)
            specs = encoder_specs(bundle.train, cfg.model)
            pre = pretrain_for_seed(cfg, bundle, seed, need_active, need_passive)
            for k, trace in pre.ssl_traces.items():
                ssl_traces[f"seed{seed}/party{k}"] = trace
            if need_active:
                active_val[f"seed{seed}"] = pre.active_val_auc
            if cfg.grid.include_oracle and bundle.test.bayes_scores is not None:
                oracle[f"seed{seed}"] = auc(bundle.test.labels, bundle.test.bayes_scores)

            local_a_slots: list[tuple[int, int]] = []  # (index in cells, count)
            for count in cfg.grid.aligned_counts:
                cell_bundle = replace(bundle, train=bundle.train.with_aligned_count(count))
                for mode in modes:
                    if mode.uses_constraint:
                        betas = sweep or (cfg.downstream.beta,)
                    else:
                        betas = (0.0,)
                    for beta in betas:
                        say(
                            f"seed {seed}: n_al={count} mode={mode.value} beta={beta:g}"
                        )
                        if mode is TrainMode.LOCAL_A:
                            local_a_slots.append((len(cells), count))
                            cells.append(None)
                            continue
                        dcfg = replace(cfg.downstream, seed=seed, beta=beta)
                        try:
                            trained, score, _ = run_cell(
                                cell_bundle, specs, mode, pre.weights, dcfg
                            )
                        except _CELL_ERRORS as exc:
                            cells.append(_failed_cell(mode, count, seed, beta, exc))
                            continue
                        cells.append(_ok_cell(mode, count, seed, beta, trained, score))
                        if out_dir is not None:
                            _write_cell_checkpoint(
                                out_dir, seed, count, mode, beta, bool(sweep),
                                trained, chash,
                            )

            if not local_a_slots:
                continue
            try:
                trained, score = local_a_jobs[seed].result()
            except BrokenProcessPool as exc:
                raise TrainingError(
                    f"the worker training local_a for seed {seed} died: {exc}"
                ) from exc
            except _CELL_ERRORS as exc:
                for i, count in local_a_slots:
                    cells[i] = _failed_cell(TrainMode.LOCAL_A, count, seed, 0.0, exc)
                continue
            for i, count in local_a_slots:
                cells[i] = _ok_cell(TrainMode.LOCAL_A, count, seed, 0.0, trained, score)
            if out_dir is not None:
                _write_cell_checkpoint(
                    out_dir, seed, 0, TrainMode.LOCAL_A, 0.0, bool(sweep), trained, chash
                )
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    result = GridResult(
        config_hash=chash,
        version=__version__,
        modes=[m.value for m in modes],
        aligned_counts=list(cfg.grid.aligned_counts),
        seeds=list(cfg.grid.seeds),
        default_beta=cfg.downstream.beta,
        cells=cells,
        ssl_traces=ssl_traces,
        active_val_auc=active_val,
        oracle_auc=oracle,
    )
    if out_dir is not None:
        write_grid_outputs(result, out_dir)
    return result


def _ok_cell(mode, count, seed, beta, trained, score) -> CellResult:
    return CellResult(
        mode=mode.value,
        aligned_count=count,
        seed=seed,
        beta=beta,
        status="ok",
        test_auc=score,
        error=None,
        history=trained.history,
    )


def _failed_cell(mode, count, seed, beta, exc: Exception) -> CellResult:
    return CellResult(
        mode=mode.value,
        aligned_count=count,
        seed=seed,
        beta=beta,
        status="failed",
        test_auc=None,
        error=f"{type(exc).__name__}: {exc}",
    )


def flatten_trained(trained: TrainedFederation) -> dict[str, np.ndarray]:
    """Checkpoint tensors of a downstream model, keyed "party{k}.encoder.*" and "head.*"."""
    tensors = {}
    for k, encoder in trained.encoders.items():
        for n, p in encoder.params().items():
            tensors[f"party{k}.encoder.{n}"] = p
    for n, p in trained.head.params().items():
        tensors[f"head.{n}"] = p
    return tensors


def _strip_prefix(tensors: dict[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    plen = len(prefix)
    return {n[plen:]: p for n, p in tensors.items() if n.startswith(prefix)}


def rebuild_trained(
    specs: dict[int, EncoderSpec], tensors: dict[str, np.ndarray], mode: TrainMode
) -> TrainedFederation:
    """The inverse of flatten_trained: a scorable model, without history or transport.

    A missing, extra or misshapen tensor raises SchemaError.
    """
    party_ids = sorted(specs) if mode.is_federated else [1]
    encoders = {}
    for k in party_ids:
        encoders[k] = specs[k].build_empty()
        encoders[k].set_params(_strip_prefix(tensors, f"party{k}.encoder."))
    head = Mlp([sum(specs[k].rep_dim for k in party_ids), 1])
    head.set_params(_strip_prefix(tensors, "head."))
    return TrainedFederation(
        mode=mode, encoders=encoders, head=head, history=[], transport=TransportLog()
    )


def save_cell_checkpoint(
    path: Path, trained: TrainedFederation, seed, count, beta, chash
) -> None:
    """Write a downstream model with the metadata that `train` and `grid` both give it."""
    meta = {
        "stage": "downstream",
        "mode": trained.mode.value,
        "seed": seed,
        "aligned_count": count,
        "beta": beta,
        "config_hash": chash,
    }
    save_checkpoint(path, flatten_trained(trained), meta)


def _write_cell_checkpoint(
    out_dir: Path, seed, count, mode, beta, sweep, trained, chash
) -> None:
    cell_dir = Path(out_dir) / "grid" / f"seed{seed}"
    if mode.is_federated:  # local_a has one per seed, written with count 0
        cell_dir = cell_dir / f"count{count}"
    path = cell_dir / f"{_cell_tag(mode.value, beta, sweep)}.ckpt"
    save_cell_checkpoint(path, trained, seed, count, beta, chash)


def save_pretrained(ckpt_dir: Path, pre: SeedPretraining, seed: int, chash: str) -> None:
    """Write one seed's pre-trained weights as the `pretrain` command leaves them.

    active.ckpt holds "encoder.*" and "head.*"; passive{k}.ckpt holds "encoder.*".
    """
    active = pre.weights.active
    if active is not None:
        tensors = {f"encoder.{n}": p for n, p in active.encoder_params.items()}
        tensors.update({f"head.{n}": p for n, p in active.head_params.items()})
        meta = {
            "stage": "active-pretrain",
            "party": 1,
            "seed": seed,
            "config_hash": chash,
            "best_epoch": active.best_epoch,
            "val_auc": active.val_auc,
            "degenerate_validation": active.degenerate_validation,
        }
        save_checkpoint(Path(ckpt_dir) / "active.ckpt", tensors, meta)
    for k, params in pre.weights.passive.items():
        meta = {
            "stage": "ssl-pretrain",
            "party": k,
            "seed": seed,
            "config_hash": chash,
            "loss_trace": pre.ssl_traces[k],
        }
        tensors = {f"encoder.{n}": p for n, p in params.items()}
        save_checkpoint(Path(ckpt_dir) / f"passive{k}.ckpt", tensors, meta)


def load_pretrained(
    ckpt_dir: Path,
    specs: dict[int, EncoderSpec],
    mode: TrainMode,
    warm_start_active: bool,
) -> PretrainedWeights:
    """Read the pre-trained weights `mode` needs from what save_pretrained wrote.

    Every tensor of a file must fit `specs`: a missing, extra or misshapen one
    raises DataError naming the file.
    """
    parties = [1] if mode.uses_constraint or warm_start_active else []
    if mode.warm_starts_passive:
        parties += [k for k in sorted(specs) if k != 1]
    weights = PretrainedWeights()
    for k in parties:
        path = Path(ckpt_dir) / ("active.ckpt" if k == 1 else f"passive{k}.ckpt")
        if not path.exists():
            raise TrainingError(
                f"mode {mode.value} needs {path} for party {k}; "
                f"run `vflhlp pretrain` first"
            )
        tensors, meta = load_checkpoint(path)
        models = {"encoder.": specs[k].build_empty()}
        if k == 1:
            models["head."] = Mlp([specs[1].rep_dim, 1])
        try:
            for prefix, model in models.items():
                model.set_params(_strip_prefix(tensors, prefix))
            stray = sorted(n for n in tensors if not n.startswith(tuple(models)))
            if stray:
                raise SchemaError(f"unexpected tensors {stray}")
        except SchemaError as exc:
            raise DataError(f"{path}: {exc}") from None
        if k > 1:
            weights.passive[k] = models["encoder."].params()
            continue
        weights.active = ActivePretrained(
            spec=specs[1],
            encoder_params=models["encoder."].params(),
            head_params=models["head."].params(),
            best_epoch=meta.get("best_epoch", 0),
            val_auc=meta.get("val_auc"),
            degenerate_validation=meta.get("degenerate_validation", False),
        )
    return weights


def write_grid_outputs(result: GridResult, out_dir: Path) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "results.csv").write_text(result.cells_csv())
    (out_dir / "summary.csv").write_text(result.summary_csv())
    (out_dir / "results.json").write_text(
        json.dumps(result.to_json_dict(), indent=2, sort_keys=True) + "\n"
    )
    (out_dir / "summary.txt").write_text(result.render_text())
