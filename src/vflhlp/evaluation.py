"""End-to-end experiment grid: datasets, pre-training, all modes, aggregation.

One grid run sweeps (mode x aligned_count x seed). Per seed the dataset and
the pre-trained weights are computed once and shared across every aligned
count, which is sound because aligned subsets are nested prefixes of one
pool and local pre-training never looks at alignment. Cell failures are
recorded, not raised, so one diverging cell cannot take down a sweep.

`cell_plan`, every command's one listing of cells, `run_plan`, the one seed loop
that `grid` and `train` both run, and `eval`'s `rescore` also live here, and so
does every stage and cell file: where they go, the keys that make a stage's file
current, and the writing and reading of every model file. A model file's tensor
names are the layout of a ModelSet over its models: "<model>.<tensor>".
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import asdict, dataclass, field, replace
from itertools import groupby
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, config_hash, data_hash, encoder_specs, to_dict
from .data import (
    CACHE_FILE,
    AlignedBatch,
    DatasetBundle,
    load_bundle,
    read_csv,
    read_json_object,
    split_from_table,
    synth_generate,
    vertical_partition,
)
from .errors import ConfigError, DataError, SchemaError, TrainingError, sigint_held
from .federated import (
    ActivePretrained,
    AuditReport,
    DownstreamConfig,
    PretrainedWeights,
    TrainedFederation,
    TrainMode,
    audit_transport,
    federated_predict,
    pretrained_needs,
    train_downstream,
)
from .metrics import auc
from .nn import Mlp, load_checkpoint, save_checkpoint, write_file
from .nn.layers import EncoderSpec, FlatParams, ModelSet
from .rng import stream
from .ssl_pretrain import pretrain_passive
from .sup_pretrain import pretrain_active, train_local


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
    train_table, encoder = read_csv(c.train_path, schema, c.id_column, c.label_column)
    order = stream(seed, "partition").permutation(train_table.n)
    ds = vertical_partition(train_table, schema, c.k_parties, c.aligned_pool, order)
    test_table, _ = read_csv(c.test_path, schema, c.id_column, c.label_column, encoder)
    test = split_from_table(test_table, schema, c.k_parties, np.arange(test_table.n))
    return DatasetBundle(train=ds, test=test)


@np.errstate(over="ignore", invalid="ignore")
def pretrain_for_seed(
    cfg: RunConfig,
    bundle: DatasetBundle,
    seed: int,
    need_active: bool,
    need_passive: bool,
) -> PretrainedWeights:
    """One seed's pre-trained weights, with each passive party's loss trace.
    One loop runs the stages in party order: party 1's supervised one, then each
    passive party's contrastive one. A diverging stage overflows without numpy
    warnings, as a cell does, and fails here as "party {k}: <its error>"."""
    train, weights = bundle.train, PretrainedWeights()
    specs = encoder_specs(train, cfg.model)
    try:
        for k in sorted(specs):
            if k == 1 and need_active:
                weights.active = pretrain_active(
                    train.parties[1], train.labels, specs[1], cfg.supervised, seed)
            elif k > 1 and need_passive:
                weights.passive[k], weights.ssl_traces[k] = pretrain_passive(
                    train.parties[k], specs[k], cfg.ssl, seed)
    except TrainingError as exc:
        raise TrainingError(f"party {k}: {exc}") from exc
    return weights


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

    @classmethod
    def of(cls, cell: Cell, outcome) -> CellResult:
        """The record of one cell's outcome as run_plan yields it."""
        seed, count, mode, beta = cell
        if isinstance(outcome, Exception):
            error = f"{type(outcome).__name__}: {outcome}"
            return cls(mode.value, count, seed, beta, "failed", None, error)
        score, history = outcome
        return cls(mode.value, count, seed, beta, "ok", score, None, history)


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

    def summary_rows(self) -> list[dict]:
        """Test AUC per (mode, beta, aligned_count): the one grouping of cells.

        Rows follow the grid's modes, then ascending beta, then its aligned
        counts, with a row only where cells exist. The mean and sample std
        are over the ok cells, nan when none is ok.
        """
        groups: dict[tuple, list[CellResult]] = {}
        for c in self.cells:
            groups.setdefault((c.mode, c.beta, c.aligned_count), []).append(c)
        betas = sorted({beta for _, beta, _ in groups})
        rows = []
        for mode in self.modes:
            for beta in betas:
                for count in self.aligned_counts:
                    cells = groups.get((mode, beta, count))
                    if cells is None:
                        continue
                    ok = np.array([c.test_auc for c in cells if c.status == "ok"])
                    if ok.size:
                        mean = float(ok.mean())
                        std = float(ok.std(ddof=1)) if ok.size > 1 else 0.0
                    else:
                        mean = std = float("nan")
                    rows.append(
                        {
                            "mode": mode,
                            "beta": beta,
                            "aligned_count": count,
                            "mean_auc": mean,
                            "std_auc": std,
                            "n_ok": ok.size,
                            "n_failed": len(cells) - ok.size,
                        }
                    )
        return rows

    def delta_rows(self, summary: list[dict]) -> list[dict]:
        """Mean improvement of vflhlp over vanilla_vfl per aligned count."""
        means = {
            (r["mode"], r["beta"], r["aligned_count"]): r["mean_auc"]
            for r in summary
            if r["n_ok"]
        }
        rows = []
        for count in self.aligned_counts:
            hyb = means.get(("vflhlp", self.default_beta, count))
            van = means.get(("vanilla_vfl", 0.0, count))
            if hyb is not None and van is not None:
                rows.append({"aligned_count": count, "delta_auc": hyb - van})
        return rows

    def all_ok(self) -> bool:
        return all(c.status == "ok" for c in self.cells)

    def to_json_dict(self) -> dict:
        summary = self.summary_rows()
        return {**asdict(self), "summary": summary, "delta": self.delta_rows(summary)}

    def cells_csv(self) -> str:
        header = ["mode", "aligned_count", "seed", "beta", "status", "test_auc", "error"]
        return _csv_text(header, ([getattr(c, k) for k in header] for c in self.cells))

    def summary_csv(self) -> str:
        header = ["mode", "beta", "aligned_count", "mean_auc", "std_auc", "n_ok", "n_failed"]
        return _csv_text(header, ([r[k] for k in header] for r in self.summary_rows()))

    def render_text(self) -> str:
        """Mean +- std table, modes as rows, aligned counts as columns."""
        summary = self.summary_rows()
        sweep = len({r["beta"] for r in summary}) > 1
        header = ["mode".ljust(14)] + [f"n_al={c}".rjust(16) for c in self.aligned_counts]
        lines = ["  ".join(header)]
        # summary rows come grouped by (mode, beta); each group is one table row
        for (mode, beta), rows in groupby(summary, lambda r: (r["mode"], r["beta"])):
            cols = {r["aligned_count"]: f"{r['mean_auc']:.3f} +- {r['std_auc']:.3f}" for r in rows}
            tag = f"{mode} b={beta:g}" if sweep and TrainMode(mode).uses_constraint else mode
            row = [tag.ljust(14)] + [cols.get(c, "-").rjust(16) for c in self.aligned_counts]
            lines.append("  ".join(row))
        for d in self.delta_rows(summary):
            lines.append(
                f"delta(vflhlp - vanilla_vfl) at n_al={d['aligned_count']}: "
                f"{d['delta_auc']:+.3f}"
            )
        if self.oracle_auc:
            vals = np.array(list(self.oracle_auc.values()))
            std = vals.std(ddof=1) if vals.size > 1 else 0.0
            lines.append(f"bayes oracle ceiling: {vals.mean():.3f} +- {std:.3f}")
        return "\n".join(lines) + "\n"


def _csv_text(header: list[str], rows) -> str:
    """CSV with "\\n" line ends; csv writes a float as its repr and None as ""."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


# a cell whose split cannot be scored fails with UndefinedMetricError, a DataError
_CELL_ERRORS = (ConfigError, DataError, TrainingError)

Cell = tuple[int, int, TrainMode, float]  # (seed, aligned count, mode, beta)


@np.errstate(over="ignore", invalid="ignore")
def run_cell(
    bundle: DatasetBundle,
    specs: dict[int, EncoderSpec],
    cell: Cell,
    pretrained: PretrainedWeights | None,
    downstream: DownstreamConfig,
) -> tuple[TrainedFederation, float, AuditReport | None]:
    """Train one plan cell (seed, count, mode, beta) on the first `count`
    aligned IDs, with `downstream` at the cell's beta, and score it on bundle.test.

    A federated cell's transport log is audited first, and a payload that
    copies a raw column or the labels raises TrainingError; the returned model
    no longer holds the log. local_a trains alone (`train_local`), sends
    nothing and ignores `count`, so its audit is None. `run_plan` runs every
    cell of `train` and `grid` through here. A diverging cell overflows
    without numpy warnings and fails typed: optimizers refuse non-finite
    gradients, `fit` a non-finite epoch loss, `auc` non-finite scores.
    """
    seed, count, mode, beta = cell
    dcfg = replace(downstream, beta=beta)
    if not mode.is_federated:
        trained = train_local(bundle.train, specs[1], dcfg, seed)
        return trained, evaluate_mode(trained, bundle.test), None
    trained = train_downstream(bundle.train, specs, mode, pretrained, dcfg, seed, count)
    audit = audit_transport(trained.transport, bundle.train)
    if not audit.ok:
        raise TrainingError("transport audit failed: " + "; ".join(audit.violations))
    trained.transport = None  # the log is not kept past its audit
    return trained, evaluate_mode(trained, bundle.test), audit


def cell_plan(cfg: RunConfig, seeds, modes: list[TrainMode]) -> list[Cell]:
    """A run's cells in output order: seed, then aligned count, then mode, then beta.

    A constrained mode runs at each grid.beta_sweep value, or at downstream.beta
    when the config has no sweep; every other mode runs at beta = 0. This is the
    one listing of cells that `grid`, `train` and `eval` all iterate.
    """
    sweep = cfg.grid.beta_sweep or (cfg.downstream.beta,)
    return [
        (seed, count, mode, beta)
        for seed in seeds
        for count in cfg.grid.aligned_counts
        for mode in modes
        for beta in (sweep if mode.uses_constraint else (0.0,))
    ]


def trained_cell(cell: Cell) -> Cell:
    """The cell whose model serves `cell`: local_a's is trained once, under count 0."""
    seed, _, mode, beta = cell
    return cell if mode.is_federated else (seed, 0, mode, beta)


def cell_dir(cfg: RunConfig, out: Path, cell: Cell) -> Path:
    """Where a cell's files go: train/seed{S}/count{N}/{mode}, the mode tagged
    `_b{beta:g}` under a grid.beta_sweep. `train`, `grid` and `eval` all use it."""
    seed, count, mode, beta = cell
    tag = f"{mode.value}_b{beta:g}" if cfg.grid.beta_sweep else mode.value
    return Path(out) / "train" / f"seed{seed}" / f"count{count}" / tag


def rescore(cfg: RunConfig, out: Path, seeds):
    """For each plan cell with a final.ckpt under `out`, score it again on the test
    rows, write its eval.json and yield (cell, its cell_dir's name, the record).

    The plan holds grid.modes, then every other mode, so a `train --mode` cell
    outside them is scored too; a seed's dataset is read at its first trained cell.
    The record holds the score, result.json's test_auc (None without that file),
    whether the two are equal, and whether the checkpoint's config_hash is this
    config's: one trained under another config is scored too.
    """
    chash = config_hash(cfg)
    modes = [TrainMode.parse(m) for m in cfg.grid.modes]
    modes += [mode for mode in TrainMode if mode not in modes]
    for seed in seeds:
        bundle = None
        for cell in cell_plan(cfg, [seed], modes):
            run_dir = cell_dir(cfg, out, cell)
            if not (run_dir / "final.ckpt").exists():
                continue
            if bundle is None:
                bundle, _ = read_dataset(cfg, out, seed)
                specs = encoder_specs(bundle.train, cfg.model)
            trained, meta = load_cell_checkpoint(run_dir / "final.ckpt", specs)
            score = evaluate_mode(trained, bundle.test)
            result = run_dir / "result.json"
            recorded = read_json_object(result).get("test_auc") if result.exists() else None
            record = {"test_auc": score, "recorded_auc": recorded,
                      "matches_recorded": recorded == score,
                      "config_hash_matches": meta.get("config_hash") == chash}
            write_file(run_dir / "eval.json", json.dumps(record, indent=2, sort_keys=True) + "\n")
            yield cell, run_dir.name, record


def _scored(job, *args):
    """`job(*args)`, or its typed error without the traceback that holds the model."""
    try:
        return job(*args)
    except _CELL_ERRORS as exc:
        return exc.with_traceback(None)


def _terminate_workers(pool) -> None:
    """End a ProcessPoolExecutor's workers without waiting for their jobs: by its
    terminate_workers where Python has it (3.14 on), else by each process."""
    if hasattr(pool, "terminate_workers"):
        pool.terminate_workers()
    else:
        for worker in list(pool._processes.values()):
            worker.terminate()


def run_plan(cfg: RunConfig, plan: list[Cell], bundle_for, weights_for, out=None, log=None):
    """Run a cell_plan seed by seed, yielding each (cell, outcome) in plan order.

    Per seed: the dataset is `bundle_for(seed)`. local_a goes to a worker as a
    run_cell job on party 1's rows, labels and test block alone, and serves
    every count. `weights_for(seed, bundle)` gives the pre-trained weights, and
    the federated cells train here in plan order, `log` naming each first.
    An outcome is (score, history) or the cell's typed error; other errors, and
    a dead worker as TrainingError, are raised. Given `out`, this is the one
    writer of cells: each cell a scored model serves (local_a's, every count)
    gets final.ckpt, history.jsonl and result.json in its cell_dir at once; then
    the model is dropped.
    The worker, spawned under `sigint_held`, never sees SIGINT; any failure ends it at once.
    """
    say = log or (lambda msg: None)
    chash = config_hash(cfg)
    pool = None
    try:
        if any(mode is TrainMode.LOCAL_A for _, _, mode, _ in plan):
            # imported here, so that a run without local_a does not load them
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            # one worker: a seed's job is collected before the next is submitted.
            # spawn, not fork: forking a process that may run threads
            # (BLAS, a caller's) can deadlock the child
            pool = ProcessPoolExecutor(
                max_workers=1, mp_context=multiprocessing.get_context("spawn")
            )
        for seed, cells in groupby(plan, lambda cell: cell[0]):
            say(f"seed {seed}: building dataset")
            bundle = bundle_for(seed)
            specs = encoder_specs(bundle.train, cfg.model)
            local_a = (seed, 0, TrainMode.LOCAL_A, 0.0)
            if pool is not None:  # local_a reads party 1's arrays and no other party's
                train, test = bundle.train, bundle.test
                own = DatasetBundle(
                    replace(train, parties={1: train.parties[1]}),
                    AlignedBatch(test.ids, {1: test.cat[1]}, {1: test.num[1]}, test.labels),
                )
                with sigint_held():
                    job = pool.submit(run_cell, own, {1: specs[1]}, local_a, None,
                                      cfg.downstream)
            pre = weights_for(seed, bundle)
            cells, outcomes = list(cells), {}
            for trained_as in [*cells, local_a]:  # local_a's model is collected last
                _, count, mode, beta = trained_as
                if trained_as is not local_a:
                    say(f"seed {seed}: n_al={count} mode={mode.value} beta={beta:g}")
                if mode.is_federated:
                    outcome = _scored(run_cell, bundle, specs, trained_as, pre, cfg.downstream)
                elif trained_as is local_a and pool is not None:
                    try:
                        outcome = _scored(job.result)
                    except BrokenProcessPool as exc:
                        raise TrainingError(f"the worker training local_a for seed {seed} "
                                            f"died: {exc}") from exc
                else:  # a local_a cell, served by the model its worker trains
                    continue
                if isinstance(outcome, Exception):
                    outcomes[trained_as] = outcome
                    continue
                trained, score, audit = outcome
                history = "".join(json.dumps(e, sort_keys=True) + "\n" for e in trained.history)
                summary = None if audit is None else {
                    k: v for k, v in asdict(audit).items() if k != "violations"}
                for cell in (c for c in cells if out is not None and trained_cell(c) == trained_as):
                    _, count, mode, beta = cell
                    run_dir = cell_dir(cfg, out, cell)
                    save_cell_checkpoint(run_dir / "final.ckpt", trained, seed, count, beta, chash)
                    write_file(run_dir / "history.jsonl", history)
                    result = {"mode": mode.value, "seed": seed, "aligned_count": count,
                              "beta": beta, "test_auc": score, "config_hash": chash,
                              "audit": summary}
                    write_file(run_dir / "result.json",
                               json.dumps(result, indent=2, sort_keys=True) + "\n")
                outcomes[trained_as] = score, trained.history
                del trained, outcome
            job = None  # the future holds local_a's model
            for cell in cells:
                yield cell, outcomes[trained_cell(cell)]
    except BaseException:
        if pool is not None:  # now, not once its job is done
            _terminate_workers(pool)
        raise
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def run_grid(
    cfg: RunConfig, out_dir: Path | None = None, log=None, seeds=None
) -> GridResult:
    """Run the full sweep; with `out_dir`, write its tables and every cell's files.

    Returns a GridResult with one cell per entry of cell_plan over `seeds`
    (the config's when None), run by run_plan on freshly built and pre-trained
    seeds.
    """
    chash = config_hash(cfg)
    seeds = list(cfg.grid.seeds if seeds is None else seeds)
    modes = [TrainMode.parse(m) for m in cfg.grid.modes]
    plan = cell_plan(cfg, seeds, modes)
    need_active, need_passive = pretrained_needs(modes, cfg.downstream.warm_start_active)
    ssl_traces: dict[str, list[float]] = {}
    active_val: dict[str, float | None] = {}
    oracle: dict[str, float] = {}

    def weights_for(seed: int, bundle: DatasetBundle) -> PretrainedWeights:
        pre = pretrain_for_seed(cfg, bundle, seed, need_active, need_passive)
        for k, trace in pre.ssl_traces.items():
            ssl_traces[f"seed{seed}/party{k}"] = trace
        if need_active:
            active_val[f"seed{seed}"] = pre.active.val_auc
        if cfg.grid.include_oracle and bundle.test.bayes_scores is not None:
            oracle[f"seed{seed}"] = auc(bundle.test.labels, bundle.test.bayes_scores)
        return pre

    # build_bundle is looked up per call, so a caller may swap it on the module
    outcomes = run_plan(cfg, plan, lambda seed: build_bundle(cfg, seed), weights_for, out_dir,
                        log)
    cells = [CellResult.of(cell, outcome) for cell, outcome in outcomes]
    result = GridResult(
        config_hash=chash,
        version=__version__,
        modes=[m.value for m in modes],
        aligned_counts=list(cfg.grid.aligned_counts),
        seeds=seeds,
        default_beta=cfg.downstream.beta,
        cells=cells,
        ssl_traces=ssl_traces,
        active_val_auc=active_val,
        oracle_auc=oracle,
    )
    if out_dir is not None:
        write_grid_outputs(result, out_dir)
    return result


def _tensors(models: dict[str, FlatParams]) -> dict[str, np.ndarray]:
    """Checkpoint tensors of `models`, named "<model>.<tensor>" by their ModelSet."""
    net = ModelSet(models)
    return net.layout.views(net.theta)


def _read_models(path, tensors, models: dict[str, FlatParams]) -> dict[str, FlatParams]:
    """The models of a ModelSet over `models` (empty ones), set from the tensors
    read from `path`. A missing, extra or misshapen tensor raises DataError naming
    the file."""
    net = ModelSet(models)
    try:
        net.theta[...] = net.layout.flatten(tensors)
    except SchemaError as exc:
        raise DataError(f"{path}: {exc}") from None
    return net.models


def _cell_models(encoders: dict[int, FlatParams], head: Mlp) -> dict[str, FlatParams]:
    """A downstream model's models by name: "party{k}.encoder" and "head"."""
    return {**{f"party{k}.encoder": e for k, e in encoders.items()}, "head": head}


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
    save_checkpoint(path, _tensors(_cell_models(trained.encoders, trained.head)), meta)


def load_cell_checkpoint(
    path: Path, specs: dict[int, EncoderSpec]
) -> tuple[TrainedFederation, dict]:
    """The inverse of save_cell_checkpoint: a scorable model, without history or
    transport, and the file's metadata. A file that is not a downstream
    checkpoint for `specs` (an unknown mode, a missing, extra or misshapen
    tensor) raises DataError naming it.
    """
    tensors, meta = load_checkpoint(path)
    try:
        mode = TrainMode.parse(meta.get("mode"))
    except ConfigError as exc:
        raise DataError(f"{path}: not a downstream checkpoint: {exc}") from None
    party_ids = sorted(specs) if mode.is_federated else [1]
    head = Mlp([sum(specs[k].rep_dim for k in party_ids), 1])
    models = _read_models(
        path, tensors, _cell_models({k: specs[k].build_empty() for k in party_ids}, head)
    )
    encoders = {k: models[f"party{k}.encoder"] for k in party_ids}
    return TrainedFederation(mode=mode, encoders=encoders, head=models["head"], history=[]), meta


def read_current(path: Path, load, field: str, key):
    """`load(path)`, an (artifact, metadata) pair, if `path` exists and its
    metadata[field] is `key`, else None: the one check that a stage's file is
    current. A file that `load` cannot read raises its DataError."""
    if not path.exists():
        return None
    artifact, metadata = load(path)
    return (artifact, metadata) if metadata.get(field) == key else None


def stage_keys(cfg: RunConfig, seed: int) -> dict:
    """The keys that make a seed's stage files current. "dataset", its cache's
    meta: the data section's hash and the seed, and a CSV dataset's file bytes,
    so that a rewritten file makes the cache stale. "supervised" and "ssl", of
    the pre-trained file each trains (active.ckpt, passive{k}.ckpt): the sha256 of
    the dataset's key, the model section and that section."""
    dataset = {"data_hash": data_hash(cfg), "seed": seed}
    if cfg.data.kind == "csv":
        for name, path in (("train", cfg.data.csv.train_path), ("test", cfg.data.csv.test_path)):
            try:
                dataset[f"{name}_sha256"] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
            except OSError as exc:
                raise DataError(f"{path}: cannot read CSV: {exc.strerror or exc}") from None
    sections = to_dict(cfg)
    return {"dataset": dataset, **{
        name: hashlib.sha256(json.dumps([dataset, sections["model"], sections[name]],
                                        sort_keys=True).encode("utf-8")).hexdigest()
        for name in ("supervised", "ssl")}}


def dataset_dir(out: Path, seed: int) -> Path:
    """Where a seed's dataset cache goes: cache/seed{S}, as `prepare` writes it."""
    return Path(out) / "cache" / f"seed{seed}"


def cached_dataset(out: Path, seed: int, key: dict) -> DatasetBundle | None:
    """The dataset cached for `seed` under `out` if its meta is `key`; None if
    there is none (an older .npy layout counts as none) or it is stale. A cache
    that cannot be loaded raises DataError naming its file."""
    cache = dataset_dir(out, seed)
    found = read_current(cache / CACHE_FILE, lambda _: load_bundle(cache), "meta", key)
    return None if found is None else found[0]


def read_dataset(cfg: RunConfig, out: Path, seed: int) -> tuple[DatasetBundle, dict]:
    """A seed's dataset, cached under `out` if current or built afresh, and its stage_keys."""
    keys = stage_keys(cfg, seed)
    cached = cached_dataset(out, seed, keys["dataset"])
    return (cached if cached is not None else build_bundle(cfg, seed)), keys


def _pretrained_file(out: Path, seed: int, k: int) -> tuple[Path, str]:
    """Party k's pre-trained file in checkpoints/seed{S} and the stage whose key makes it
    current: active.ckpt and "supervised" for party 1, passive{k}.ckpt and "ssl" otherwise."""
    ckpt_dir = Path(out) / "checkpoints" / f"seed{seed}"
    if k == 1:
        return ckpt_dir / "active.ckpt", "supervised"
    return ckpt_dir / f"passive{k}.ckpt", "ssl"


def save_pretrained(out: Path, pre: PretrainedWeights, seed: int, chash: str, keys) -> None:
    """Write one seed's pre-trained weights under `out` as `pretrain` leaves them.

    active.ckpt holds models "encoder" and "head"; passive{k}.ckpt holds "encoder".
    Each file's meta names its party, seed, config hash and "key", keys["supervised"]
    or keys["ssl"] (of stage_keys) by the stage that made it, beside what that stage adds.
    """
    files = {}
    if (active := pre.active) is not None:
        files[1] = ({"encoder": active.encoder, "head": active.head},
                    {"stage": "active-pretrain", "best_epoch": active.best_epoch,
                     "val_auc": active.val_auc,
                     "degenerate_validation": active.degenerate_validation})
    for k, encoder in pre.passive.items():
        files[k] = {"encoder": encoder}, {"stage": "ssl-pretrain", "loss_trace": pre.ssl_traces[k]}
    for k, (models, meta) in files.items():
        path, stage = _pretrained_file(out, seed, k)
        meta.update(party=k, seed=seed, config_hash=chash, key=keys[stage])
        save_checkpoint(path, _tensors(models), meta)


def load_pretrained(out: Path, seed: int, specs: dict[int, EncoderSpec], need_active: bool,
                    need_passive: bool, keys: dict) -> PretrainedWeights:
    """Read the pre-trained weights asked for from what save_pretrained wrote under `out`.

    A missing file, or one without its key of `keys`, raises TrainingError. Every
    tensor must fit `specs`: a missing, extra or misshapen one is a DataError.
    """
    weights = PretrainedWeights()
    for k in [k for k in sorted(specs) if (need_active if k == 1 else need_passive)]:
        path, stage = _pretrained_file(out, seed, k)
        found = read_current(path, load_checkpoint, "key", keys[stage])
        if found is None:
            raise TrainingError(f"the modes to train need {path} for party {k}, pre-trained "
                                "under this config; run `vflhlp pretrain` again")
        tensors, meta = found
        models = {"encoder": specs[k].build_empty()}
        if k == 1:
            models["head"] = Mlp([specs[1].rep_dim, 1])
        models = _read_models(path, tensors, models)
        if k > 1:
            weights.passive[k] = models["encoder"]
            continue
        weights.active = ActivePretrained(
            spec=specs[1],
            encoder_params=models["encoder"].params(),
            head_params=models["head"].params(),
            best_epoch=meta.get("best_epoch", 0),
            val_auc=meta.get("val_auc"),
            degenerate_validation=meta.get("degenerate_validation", False),
        )
    return weights


def write_grid_outputs(result: GridResult, out_dir: Path) -> None:
    out_dir = Path(out_dir)
    write_file(out_dir / "results.csv", result.cells_csv())
    write_file(out_dir / "summary.csv", result.summary_csv())
    write_file(
        out_dir / "results.json",
        json.dumps(result.to_json_dict(), indent=2, sort_keys=True) + "\n",
    )
    write_file(out_dir / "summary.txt", result.render_text())
