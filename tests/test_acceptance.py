"""Acceptance gate for the package's headline promises.

One test per promise, in order: gradient correctness against finite
differences, exact agreement between the split protocol and a
centralized monolith, closed-form loss and metric oracles, the
few-overlap benchmark story on the bundled fixture preset, the
ablation comparisons, transport privacy, grid determinism, and SSL
pre-training sanity. The two grid fixtures below carry nearly all of
the runtime; everything else is seconds.

Each test prints a one-line summary of the measured quantity so a
`pytest -v -s tests/test_acceptance.py` run reads as a report.
"""
import json
import math
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from vflhlp.cli import main as cli_main
from vflhlp.config import parse_config
from vflhlp.data import AlignedBatch
from vflhlp.evaluation import GridResult, run_grid
from vflhlp.federated import (
    KIND_GRADIENT,
    KIND_REPRESENTATION,
    DownstreamConfig,
    Federation,
    PretrainedWeights,
    TrainMode,
    TransportLog,
    audit_transport,
    constraint_loss,
    content_hash,
    run_round,
    train_downstream,
)
from vflhlp.metrics import auc
from vflhlp.nn import Mlp
from vflhlp.rng import stream
from vflhlp.ssl_pretrain import SslConfig, info_nce, pretrain_passive
from vflhlp.sup_pretrain import SupConfig, pretrain_active

from conftest import (
    anchor_model,
    arrays,
    build_federation,
    draw_encoder_inputs,
    encoder_away_from_kinks,
    round_loss_setup,
    small_spec,
)
from gradcheck import grad_check
from test_federated import Monolith


class TimedGrid(NamedTuple):
    result: GridResult
    elapsed: float


def _fixture_cfg(modes, counts):
    return parse_config(
        {
            "preset": "fixture",
            "grid": {
                "modes": list(modes),
                "aligned_counts": list(counts),
                "seeds": [1, 2, 3, 4, 5],
            },
        }
    )


@pytest.fixture(scope="session")
def main_grid() -> TimedGrid:
    """vanilla_vfl vs vflhlp over the full aligned-count ladder, 5 seeds."""
    cfg = _fixture_cfg(("vanilla_vfl", "vflhlp"), (50, 100, 200, 400, 800))
    started = time.perf_counter()
    result = run_grid(cfg)
    return TimedGrid(result, time.perf_counter() - started)


@pytest.fixture(scope="session")
def ablation_grid() -> TimedGrid:
    """Single-sided pre-training ablations at the 100-overlap point."""
    cfg = _fixture_cfg(("vflhlp_a", "vflhlp_p"), (100,))
    started = time.perf_counter()
    result = run_grid(cfg)
    return TimedGrid(result, time.perf_counter() - started)


def _mean(grid: GridResult, mode: str, count: int, beta: float) -> float:
    row = next((r for r in grid.summary_rows()
                if (r["mode"], r["beta"], r["aligned_count"]) == (mode, beta, count)),
               {"n_ok": 0})
    n = row["n_ok"]
    assert n == 5, f"{mode} at n_al={count}: expected 5 seeds, got {n}"
    return row["mean_auc"]


# ---------------------------------------------------------------- criterion 1


def _random_federation(index: int):
    """A small random split model: per-party encoders, embeddings, head."""
    geo = stream(index, "acceptance", "geometry")
    k_parties = int(geo.integers(2, 4))
    hidden_menu = [(4,), (6,), (5, 3)]
    specs, cat, num = {}, {}, {}
    for k in range(1, k_parties + 1):
        n_cat = int(geo.integers(0, 3)) if k > 1 else int(geo.integers(1, 3))
        spec = small_spec(
            n_cat=n_cat,
            n_num=int(geo.integers(1, 4)),
            cardinality=int(geo.integers(3, 7)),
            embed_dim=int(geo.integers(2, 4)),
            hidden=hidden_menu[int(geo.integers(0, len(hidden_menu)))],
        )
        specs[k] = spec
        cat[k], num[k] = draw_encoder_inputs(geo, spec, n_rows=6)
    labels = geo.integers(0, 2, size=6).astype(np.float64)
    encoders = {
        k: encoder_away_from_kinks(specs[k], cat[k], num[k], seed=31 * index + k)
        for k in specs
    }
    rep_dim = sum(spec.rep_dim for spec in specs.values())
    head = Mlp.init(stream(index, "acceptance", "head"), [rep_dim, 1])
    anchor = anchor_model(specs[1], stream(index, "acceptance", "anchor"))

    batch = AlignedBatch(ids=np.arange(6), cat=cat, num=num, labels=labels)
    n_params = sum(p.size for encoder in encoders.values()
                   for p in encoder.params().values())
    n_params += sum(p.size for p in head.params().values())
    assert n_params <= 5000, n_params
    return encoders, head, batch, anchor


def test_criterion_1_analytic_gradients_match_finite_differences():
    started = time.perf_counter()
    worst = 0.0
    for index in range(20):
        encoders, head, batch, anchor = _random_federation(index)
        variants = [("task loss", 0.0, False)]
        variants += [("full objective", beta, True) for beta in (0.0, 0.1, 10.0)]
        for label, beta, anchored in variants:
            fed = Federation(
                encoders, head, beta, eta1=1e-3, eta2=1e-3, optimizer="sgd",
                anchor=anchor if anchored else None,
            )
            loss_fn, grads_fn, params = round_loss_setup(fed, batch)
            err = grad_check(loss_fn, grads_fn, params)
            worst = max(worst, err)
            assert err < 1e-4, f"model {index}, {label} beta={beta}: rel err {err:.2e}"
    elapsed = time.perf_counter() - started
    print(
        f"criterion 1: 20 models x 4 objectives, "
        f"max fd rel error {worst:.2e}, {elapsed:.1f}s"
    )
    assert elapsed < 30.0


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_split_protocol_equals_centralized_training(tiny_bundle):
    started = time.perf_counter()
    train = tiny_bundle.train
    batch = train.gather(train.aligned_ids(64))
    specs = {
        k: small_spec(n_cat=1, n_num=3, cardinality=6, embed_dim=3, hidden=(8, 4))
        for k in (1, 2, 3)
    }
    fed = build_federation(
        train, specs, beta=0.0, seed=18, optimizer="sgd", eta1=2e-3, eta2=1e-3
    )
    clones = {}
    for k, encoder in fed.encoders.items():
        clones[k] = specs[k].build_empty()
        clones[k].set_params(encoder.params())
    head_clone = fed.head.__class__(fed.head.dims, fed.head.theta.copy())
    mono = Monolith(clones, head_clone, eta1=2e-3, eta2=1e-3)

    log = TransportLog()
    worst_loss_gap = 0.0
    for r in range(100):
        stats = run_round(fed, arrays(batch), r, log)
        worst_loss_gap = max(worst_loss_gap, abs(stats.loss - mono.step(batch)))
    assert worst_loss_gap < 1e-10

    worst_param_gap = 0.0
    for k, encoder in fed.encoders.items():
        mono_params = mono.encoders[k].params()
        for name, arr in encoder.params().items():
            worst_param_gap = max(
                worst_param_gap, float(np.abs(arr - mono_params[name]).max())
            )
    for name, arr in fed.head.params().items():
        worst_param_gap = max(
            worst_param_gap, float(np.abs(arr - mono.head.params()[name]).max())
        )
    assert worst_param_gap < 1e-8
    elapsed = time.perf_counter() - started
    print(
        f"criterion 2: 100 rounds, max loss gap {worst_loss_gap:.2e}, "
        f"max param gap {worst_param_gap:.2e}, {elapsed:.1f}s"
    )
    assert elapsed < 30.0


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_losses_and_auc_match_naive_oracles():
    started = time.perf_counter()

    worst_nce = 0.0
    for trial in range(100):
        rng = stream(trial, "acceptance", "nce")
        n = int(rng.integers(2, 65))
        sims = rng.standard_normal((n, n))
        tau = float(rng.uniform(0.05, 2.0))
        loss, _ = info_nce(sims.copy(), tau)  # the copy becomes dL/dS
        total = 0.0
        for i in range(n):
            denom = 0.0
            for j in range(n):
                denom += math.exp(sims[i, j] / tau)
            total += -sims[i, i] / tau + math.log(denom / n)
        worst_nce = max(worst_nce, abs(loss - total / n))
    assert worst_nce <= 1e-10

    worst_cons = 0.0
    for trial in range(100):
        rng = stream(trial, "acceptance", "cons")
        params = {
            "w": rng.standard_normal((4, 3)),
            "b": rng.standard_normal(4),
            "e": rng.standard_normal((5, 2)),
        }
        anchors = {n: rng.standard_normal(p.shape) for n, p in params.items()}
        value, grads = constraint_loss(params, anchors)
        naive = 0.0
        for name in sorted(params):
            for p, a in zip(params[name].ravel(), anchors[name].ravel()):
                naive += 0.5 * (p - a) ** 2
        worst_cons = max(worst_cons, abs(value - naive))
        for name in params:
            np.testing.assert_array_equal(grads[name], params[name] - anchors[name])
    assert worst_cons <= 1e-12

    exact = 0
    for trial in range(100):
        rng = stream(trial, "acceptance", "auc")
        n = int(rng.integers(10, 501))
        labels = rng.integers(0, 2, size=n).astype(np.float64)
        labels[0], labels[1] = 0.0, 1.0  # both classes present
        scores = np.round(rng.standard_normal(n), 1)  # coarse grid forces ties
        pos, neg = scores[labels == 1.0], scores[labels == 0.0]
        wins = float((pos[:, None] > neg[None, :]).sum())
        ties = float((pos[:, None] == neg[None, :]).sum())
        oracle = (wins + 0.5 * ties) / (len(pos) * len(neg))
        exact += auc(labels, scores) == oracle
    assert exact == 100

    elapsed = time.perf_counter() - started
    print(
        f"criterion 3: nce gap {worst_nce:.1e}, constraint gap {worst_cons:.1e}, "
        f"auc exact {exact}/100, {elapsed:.1f}s"
    )
    assert elapsed < 10.0


# ---------------------------------------------------------------- criterion 4


@pytest.mark.slow
def test_criterion_4_pretraining_helps_most_when_overlap_is_scarce(main_grid):
    grid = main_grid.result
    counts = (50, 100, 200, 400, 800)
    vanilla = [_mean(grid, "vanilla_vfl", c, 0.0) for c in counts]
    hybrid = [_mean(grid, "vflhlp", c, grid.default_beta) for c in counts]
    gaps = [h - v for h, v in zip(hybrid, vanilla)]

    for count, gap in zip(counts, gaps):
        assert gap > 0.0, f"no improvement at n_al={count}: {gap:+.4f}"
    assert gaps[0] > gaps[-1], (
        f"gap should shrink as overlap grows: {gaps[0]:+.4f} at 50 "
        f"vs {gaps[-1]:+.4f} at 800"
    )
    rising = sum(b >= a for a, b in zip(vanilla, vanilla[1:]))
    assert rising >= 3, f"vanilla means not mostly rising: {vanilla}"

    rows = "  ".join(
        f"n={c}: {v:.3f}/{h:.3f}" for c, v, h in zip(counts, vanilla, hybrid)
    )
    print(
        f"criterion 4: vanilla/vflhlp means {rows}; gaps "
        + " ".join(f"{g:+.3f}" for g in gaps)
        + f"; {main_grid.elapsed:.0f}s"
    )
    assert main_grid.elapsed < 600.0


# ---------------------------------------------------------------- criterion 5


@pytest.mark.slow
def test_criterion_5_each_sided_pretraining_helps_and_both_is_best(
    main_grid, ablation_grid
):
    grid = ablation_grid.result
    vanilla = _mean(main_grid.result, "vanilla_vfl", 100, 0.0)
    hybrid = _mean(main_grid.result, "vflhlp", 100, main_grid.result.default_beta)
    active_only = _mean(grid, "vflhlp_a", 100, grid.default_beta)
    passive_only = _mean(grid, "vflhlp_p", 100, 0.0)

    assert active_only > vanilla, f"{active_only:.4f} vs {vanilla:.4f}"
    assert passive_only > vanilla, f"{passive_only:.4f} vs {vanilla:.4f}"
    assert hybrid >= max(active_only, passive_only) - 0.005, (
        f"combined {hybrid:.4f} vs best ablation "
        f"{max(active_only, passive_only):.4f}"
    )
    print(
        f"criterion 5: at n_al=100 vanilla {vanilla:.4f}, active-only "
        f"{active_only:.4f}, passive-only {passive_only:.4f}, combined "
        f"{hybrid:.4f}; {ablation_grid.elapsed:.0f}s"
    )
    assert ablation_grid.elapsed < 300.0


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_transport_carries_no_raw_columns_or_labels(tiny_bundle):
    train = tiny_bundle.train
    specs = {
        k: small_spec(n_cat=1, n_num=3, cardinality=6, embed_dim=3, hidden=(8, 4))
        for k in (1, 2, 3)
    }
    pre = PretrainedWeights()
    pre.active = pretrain_active(
        train.parties[1], train.labels, specs[1],
        SupConfig(epochs=2, batch_size=128), seed=21,
    )
    for k in (2, 3):
        enc, _ = pretrain_passive(
            train.parties[k], specs[k], SslConfig(epochs=2, batch_size=128), seed=21
        )
        pre.passive[k] = enc
    trained = train_downstream(

        train, specs, TrainMode.VFLHLP, pre,
        DownstreamConfig(beta=0.5, eta1=1e-2, eta2=1e-2, epochs=3, batch_size=16,
                         val_fraction=0.1),
        21, 60,
    )

    report = audit_transport(trained.transport, train)
    assert report.ok and report.balanced_rounds and not report.violations

    records = trained.transport.records
    assert records
    kinds = {rec.kind for rec in records}
    assert kinds <= {KIND_REPRESENTATION, KIND_GRADIENT}

    # rebuilt independently of the audit's own bank
    forbidden = {content_hash(train.labels)}
    for view in train.parties.values():
        for j in range(view.cat.shape[1]):
            forbidden.add(content_hash(view.cat[:, j]))
            forbidden.add(content_hash(view.cat[:, j].astype(np.float64)))
        for j in range(view.num.shape[1]):
            forbidden.add(content_hash(view.num[:, j]))
    logged = {rec.payload_hash for rec in records}
    assert not (logged & forbidden)
    print(
        f"criterion 6: {len(records)} messages over {report.n_rounds} rounds, "
        f"kinds {sorted(kinds)}, zero hash collisions against "
        f"{len(forbidden)} protected vectors"
    )


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_grid_runs_are_byte_identical(tmp_path):
    config = {
        "preset": "fixture",
        "data": {
            "synth": {
                "n_local": 600,
                "aligned_pool": 150,
                "n_validation": 100,
                "n_test": 300,
            }
        },
        "ssl": {"epochs": 3},
        "supervised": {"epochs": 3},
        "downstream": {"epochs": 8},
        "grid": {
            "modes": ["local_a", "vanilla_vfl", "vflhlp", "vflhlp_a", "vflhlp_p"],
            "aligned_counts": [50, 100],
            "seeds": [3],
        },
    }
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(config))

    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli_main(["grid", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out)

    for table in ("results.csv", "summary.csv", "results.json", "summary.txt"):
        a, b = (out / table for out in outs)
        assert a.read_bytes() == b.read_bytes(), f"{table} differs between runs"

    files = sorted(
        p.relative_to(outs[0]) for p in (outs[0] / "train").rglob("*") if p.is_file()
    )
    assert files, "grid run wrote no cell files"
    assert files == sorted(
        p.relative_to(outs[1]) for p in (outs[1] / "train").rglob("*") if p.is_file()
    )
    for rel in files:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), (
            f"{rel} differs between runs"
        )
    print(
        f"criterion 7: 4 tables and {len(files)} cell files byte-identical "
        f"across two grid runs"
    )


# ---------------------------------------------------------------- criterion 8


@pytest.mark.slow
def test_criterion_8_contrastive_pretraining_learns_and_transfers(
    main_grid, ablation_grid
):
    traces = ablation_grid.result.ssl_traces
    assert sorted(traces) == [
        f"seed{s}/party{k}" for s in (1, 2, 3, 4, 5) for k in (2, 3)
    ]
    min_rel, min_abs = math.inf, math.inf
    for key, trace in traces.items():
        drop = trace[0] - trace[-1]
        assert drop >= 0.3 * abs(trace[0]), (
            f"{key}: loss went {trace[0]:.4f} -> {trace[-1]:.4f}"
        )
        assert drop >= 0.15, f"{key}: absolute drop only {drop:.4f}"
        if abs(trace[0]) > 0:
            min_rel = min(min_rel, drop / abs(trace[0]))
        min_abs = min(min_abs, drop)

    passive_only = _mean(ablation_grid.result, "vflhlp_p", 100, 0.0)
    vanilla = _mean(main_grid.result, "vanilla_vfl", 100, 0.0)
    assert passive_only > vanilla
    print(
        f"criterion 8: min contrastive drop {min_abs:.3f} absolute "
        f"(relative floor {min_rel:.1f}x of |initial|), passive-only "
        f"{passive_only:.4f} > vanilla {vanilla:.4f} at n_al=100; "
        f"{ablation_grid.elapsed:.0f}s"
    )
    assert ablation_grid.elapsed < 180.0
