"""The benchmark's workloads: generated configs, expected work, output checks.

Every workload overrides the `fixture` preset and runs one CLI command of
the program in a fresh process. `config` builds the JSON config the program
receives; `expected_work` says from that config alone how much work the
command must do; `summarize` reads what the command wrote and turns it into
values the harness checks (per cell or pre-training stage) and into the
quality metrics it reports. Only `summarize` and `expected_work` import
vflhlp, and only inside a worker process.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    seeds: int  # data seeds per run
    grid: dict  # overrides of the preset's grid section, besides the seeds
    setup: tuple[tuple[str, ...], ...]  # CLI commands run before measuring
    command: tuple[str, ...]  # the measured CLI command


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid-fixture",
            seeds=1,
            grid={"aligned_counts": [50, 200]},
            setup=(),
            command=("grid",),
        ),
        Workload(
            "train-fixture",
            seeds=1,
            grid={"aligned_counts": [800]},
            setup=(("prepare",), ("pretrain",)),
            command=("train", "--mode", "vflhlp"),
        ),
        Workload(
            "pretrain-fixture",
            seeds=3,
            grid={},
            setup=(("prepare",),),
            command=("pretrain",),
        ),
    )
}

MODES = ("local_a", "vanilla_vfl", "vflhlp", "vflhlp_a", "vflhlp_p")  # the preset's
SEED_POOL = 10  # --seed n gives data seeds 1 + n % SEED_POOL, and on


def data_seeds(workload: Workload, seed: int) -> list[int]:
    """The data seeds of one run; --seed 0 gives the defaults (from 1)."""
    first = 1 + seed % SEED_POOL
    return list(range(first, first + workload.seeds))


def deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def config(workload: Workload, seeds: list[int], extra: dict | None = None) -> dict:
    cfg = {"preset": "fixture", "grid": {**workload.grid, "seeds": list(seeds)}}
    return deep_merge(cfg, extra or {})


def operations(workload: Workload, cfg: dict) -> list[str]:
    """The cells and pre-training stages one measured command must produce.

    `cfg` is the generated config. On train-fixture pre-training is set-up;
    its results are checked with the cell they feed.
    """
    seeds, counts = cfg["grid"]["seeds"], cfg["grid"].get("aligned_counts", [])
    stages = [f"seed{s}/{op}" for s in seeds for op in ("active", "party2", "party3")]
    if workload.name == "grid-fixture":
        return stages + [
            f"seed{s}/{m}/{c}" for s in seeds for c in counts for m in MODES
        ]
    if workload.name == "train-fixture":
        return [f"seed{s}/vflhlp/{c}" for s in seeds for c in counts]
    return stages


# ---------------------------------------------------------------------------
# work implied by the config (runs inside a worker: needs vflhlp)


def _batches(rows: int, batch_size: int) -> int:
    return -(-rows // batch_size)


def _train_rows(rows: int, val_fraction: float) -> int:
    # the program holds out int(round(val_fraction * rows)) rows
    return rows - int(round(val_fraction * rows))


def _federated_modes(cfg) -> list[str]:
    return [m for m in cfg.grid.modes if m != "local_a"]


def expected_work(workload: Workload, cfg) -> dict[str, int]:
    """run_round calls, contrastive batches and rows updated, from the config.

    Rows are counted once per parameter update they take part in. The
    contrastive probe epoch (epoch 0, no update) counts as batches, not rows.
    """
    syn, ds, sup, ssl = cfg.data.synth, cfg.downstream, cfg.supervised, cfg.ssl
    passive = syn.k_parties - 1
    seeds = len(cfg.grid.seeds)
    ssl_batches = passive * (ssl.epochs + 1) * _batches(syn.n_local, ssl.batch_size)
    pretrain_rows = (
        sup.epochs * _train_rows(syn.n_local, sup.val_fraction)
        + passive * ssl.epochs * syn.n_local
    )

    def cell(count):
        rows = _train_rows(count, ds.val_fraction)
        return ds.epochs * _batches(rows, ds.batch_size), ds.epochs * rows

    if workload.name == "train-fixture":
        rounds, rows = (seeds * x for x in cell(cfg.grid.aligned_counts[0]))
        return {"rounds": rounds, "contrastive_batches": 0, "rows": rows}
    if workload.name == "pretrain-fixture":
        return {
            "rounds": 0,
            "contrastive_batches": seeds * ssl_batches,
            "rows": seeds * pretrain_rows,
        }
    fed = len(_federated_modes(cfg))
    cells = [cell(c) for c in cfg.grid.aligned_counts]
    local_a = ds.epochs * _train_rows(syn.n_local, ds.val_fraction)
    return {
        "rounds": seeds * fed * sum(r for r, _ in cells),
        "contrastive_batches": seeds * ssl_batches,
        "rows": seeds * (pretrain_rows + local_a + fed * sum(n for _, n in cells)),
    }


# ---------------------------------------------------------------------------
# reading the outputs (runs inside a worker: needs vflhlp)


def _ssl_nats(trace_last: float, n_local: int, batch_size: int) -> float:
    """The program's InfoNCE value plus the log N it subtracts per batch.

    The program reports -A_ii + logsumexp_j A_ij - log N per row, which is 0
    for an untrained encoder and negative after training. Adding back the
    row-weighted mean of log N over the epoch's batches gives the ordinary
    cross-entropy of picking the positive pair, in nats and always > 0.
    """
    sizes = [min(batch_size, n_local - i) for i in range(0, n_local, batch_size)]
    return trace_last + sum(n * math.log(n) for n in sizes) / n_local


@dataclass
class Outputs:
    """What one measured command produced, as the harness checks it."""

    ops: dict[str, list[str]]  # operation -> the value keys it produced
    values: dict[str, float]  # compared with the reference table
    errors: dict[str, str]  # operation -> why it failed, from the outputs
    work: dict[str, int]  # counted from the outputs
    expected: dict[str, int]  # implied by the config
    metrics: dict[str, float]


def summarize(workload: Workload, cfg_path: Path, out: Path) -> Outputs:
    from vflhlp.config import load_config

    cfg = load_config(cfg_path)
    o = Outputs({}, {}, {}, {}, expected_work(workload, cfg), {})
    syn, ds, ssl = cfg.data.synth, cfg.downstream, cfg.ssl
    ssl_final: list[float] = []
    val_aucs: list[float] = []
    test_aucs: list[float] = []
    work = {"rounds": 0, "contrastive_batches": 0, "rows": 0}

    def add(op, key, value):
        o.ops.setdefault(op, []).append(key)
        o.values[key] = value

    def pretrained(seed, active_meta, traces):
        val_aucs.append(active_meta["val_auc"])
        add(f"seed{seed}/active", f"seed{seed}/active_val_auc", active_meta["val_auc"])
        work["rows"] += cfg.supervised.epochs * _train_rows(
            syn.n_local, cfg.supervised.val_fraction
        )
        for party, trace in traces.items():
            add(f"seed{seed}/party{party}", f"seed{seed}/ssl_final/party{party}", trace[-1])
            ssl_final.append(_ssl_nats(trace[-1], syn.n_local, ssl.batch_size))
            work["contrastive_batches"] += len(trace) * _batches(syn.n_local, ssl.batch_size)
            work["rows"] += (len(trace) - 1) * syn.n_local

    def cell(seed, mode, count, test_auc, history):
        op = f"seed{seed}/{mode}/{count}"
        add(op, f"{op}/test_auc", test_auc)
        add(op, f"{op}/final_loss", history[-1]["loss"])
        test_aucs.append(test_auc)
        if mode == "local_a":
            work["rows"] += len(history) * _train_rows(syn.n_local, ds.val_fraction)
        else:
            rows = _train_rows(count, ds.val_fraction)
            work["rounds"] += len(history) * _batches(rows, ds.batch_size)
            work["rows"] += len(history) * rows

    if workload.name == "grid-fixture":
        res = json.loads((out / "results.json").read_text())
        seen_local_a = set()
        for c in res["cells"]:
            op = f"seed{c['seed']}/{c['mode']}/{c['aligned_count']}"
            if c["status"] != "ok":
                o.errors[op] = f"cell failed: {c['error']}"
                continue
            if c["mode"] == "local_a":
                if c["seed"] in seen_local_a:  # trained once per seed, shared by counts
                    add(op, f"{op}/test_auc", c["test_auc"])
                    test_aucs.append(c["test_auc"])
                    continue
                seen_local_a.add(c["seed"])
            cell(c["seed"], c["mode"], c["aligned_count"], c["test_auc"], c["history"])
        for seed in cfg.grid.seeds:
            traces = {
                int(key.split("party")[1]): trace
                for key, trace in res["ssl_traces"].items()
                if key.startswith(f"seed{seed}/")
            }
            pretrained(seed, {"val_auc": res["active_val_auc"][f"seed{seed}"]}, traces)
    else:
        from vflhlp.nn import load_checkpoint

        for seed in cfg.grid.seeds:
            ckpts = out / "checkpoints" / f"seed{seed}"
            _, active_meta = load_checkpoint(ckpts / "active.ckpt")
            traces = {
                k: load_checkpoint(ckpts / f"passive{k}.ckpt")[1]["loss_trace"]
                for k in range(2, syn.k_parties + 1)
            }
            if workload.name == "pretrain-fixture":
                pretrained(seed, active_meta, traces)
                auc = _active_test_auc(cfg, out, seed)
                add(f"seed{seed}/active", f"seed{seed}/active_test_auc", auc)
                test_aucs.append(auc)
                continue
            # train-fixture: pre-training ran in set-up; the cell's inputs are checked too
            for count in cfg.grid.aligned_counts:
                op = f"seed{seed}/vflhlp/{count}"
                val_aucs.append(active_meta["val_auc"])
                add(op, f"seed{seed}/active_val_auc", active_meta["val_auc"])
                for k, t in traces.items():
                    add(op, f"seed{seed}/ssl_final/party{k}", t[-1])
                    ssl_final.append(_ssl_nats(t[-1], syn.n_local, ssl.batch_size))
                run = out / "train" / f"seed{seed}" / f"count{count}" / "vflhlp"
                result = json.loads((run / "result.json").read_text())
                history = [
                    json.loads(line)
                    for line in (run / "history.jsonl").read_text().splitlines()
                ]
                cell(seed, "vflhlp", count, result["test_auc"], history)
                audit = result["audit"]
                if not (audit["ok"] and audit["balanced_rounds"]):
                    o.errors[op] = f"transport audit not clean: {audit}"
                elif audit["n_rounds"] != len(history) * _batches(
                    _train_rows(count, ds.val_fraction), ds.batch_size
                ):
                    o.errors[op] = f"audit counted {audit['n_rounds']} rounds"
    o.work = work
    o.metrics = {
        "test_auc_mean": _mean(test_aucs),
        "active_val_auc_mean": _mean(val_aucs),
        "ssl_loss_final_mean": _mean(ssl_final),
    }
    return o


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _active_test_auc(cfg, out: Path, seed: int) -> float:
    """Test AUC of the active party's pre-trained local model."""
    from vflhlp.config import encoder_specs
    from vflhlp.data import load_bundle
    from vflhlp.metrics import auc
    from vflhlp.nn import load_checkpoint
    from vflhlp.sup_pretrain import ActivePretrained, local_predict

    bundle, _ = load_bundle(out / "cache" / f"seed{seed}")
    spec = encoder_specs(bundle.train, cfg.model)[1]
    tensors, _ = load_checkpoint(out / "checkpoints" / f"seed{seed}" / "active.ckpt")

    def part(prefix):
        return {n[len(prefix):]: t for n, t in tensors.items() if n.startswith(prefix)}

    model = ActivePretrained(
        spec=spec,
        encoder_params=part("encoder."),
        head_params=part("head."),
        best_epoch=0,
        val_auc=None,
        degenerate_validation=False,
    )
    test = bundle.test
    return auc(test.labels, local_predict(model, test.cat[1], test.num[1]))
