"""The benchmark's tracer still finds every entry point it wraps.

perfbench/tracer.py wraps named functions and methods of the package. A
rename, or a path that stops going through one of them, should fail here
rather than in a traced benchmark run. Only reads perfbench/.
"""
import importlib
import importlib.util
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import vflhlp.cli  # noqa: F401  (loads every module whose bindings get patched)
from vflhlp import evaluation, federated
from vflhlp.config import encoder_specs, parse_config
from vflhlp.federated import TrainMode, TransportLog
from vflhlp.rng import stream

from conftest import anchor_model, arrays, build_federation, small_spec
from test_cli import TINY

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_installs_and_uninstalls_every_entry_point():
    tracer = _load_tracer()
    functions = {}
    for module, attr in tracer.FUNCTIONS:
        fn = getattr(importlib.import_module(module), attr, None)
        assert callable(fn), f"{module}.{attr} is gone"
        functions[(module, attr)] = fn
    methods = {}
    for module, cls_name, meth in tracer.METHODS:
        cls = getattr(importlib.import_module(module), cls_name, None)
        assert cls is not None, f"{module}.{cls_name} is gone"
        assert meth in vars(cls), f"{module}.{cls_name}.{meth} is not defined there"
        methods[(module, cls_name, meth)] = vars(cls)[meth]

    t = tracer.Tracer("guard")
    t.install()  # raises if any binding of a traced function is left unwrapped
    try:
        losses = importlib.import_module("vflhlp.nn.losses")
        assert losses.bce_with_logits is not functions[("vflhlp.nn.losses", "bce_with_logits")]
        losses.bce_with_logits(np.zeros(3), np.array([0.0, 1.0, 1.0]))
        assert t.names[t.name[-1]] == "nn.bce_with_logits"
    finally:
        t.uninstall()

    for (module, attr), fn in functions.items():
        assert getattr(importlib.import_module(module), attr) is fn
    for (module, cls_name, meth), fn in methods.items():
        assert vars(getattr(importlib.import_module(module), cls_name))[meth] is fn


def test_tracer_tags_read_the_call_shapes_of_cells_and_pretraining():
    # the per-layer metrics split train_downstream by federated/local and
    # pretrain_active by batch size, from positional arguments
    tracer = _load_tracer()
    cfg = parse_config(TINY)
    assert cfg.supervised.batch_size != cfg.downstream.batch_size
    bundle = evaluation.build_bundle(cfg, 7)
    specs = encoder_specs(bundle.train, cfg.model)
    dcfg = replace(cfg.downstream, beta=0.0)

    t = tracer.Tracer("tags")
    t.install()
    try:
        pre = evaluation.pretrain_for_seed(cfg, bundle, 7, need_active=True,
                                           need_passive=False)
        evaluation.run_cell(bundle, specs, (7, 20, TrainMode.VANILLA_VFL, 0.0), pre, dcfg)
        evaluation.run_cell(bundle, specs, (7, 20, TrainMode.LOCAL_A, 0.0), None, dcfg)
    finally:
        t.uninstall()

    def tags(span):
        nid = t.names.index(span)
        return [tag for n, tag in zip(t.name, t.tag) if n == nid]

    assert tags("evaluation.pretrain_for_seed") == [0]
    # local_a trains without train_downstream, so only the federated cell has a span
    assert tags("federated.train_downstream") == [1]
    assert tags("sup_pretrain.pretrain_active") == [
        cfg.supervised.batch_size, cfg.downstream.batch_size
    ]

    # each epoch's validation scoring is one federated_predict span and one
    # auc span under the stage it scores, local or federated; each cell's test
    # rows are scored under evaluate_mode
    def parent_name(i):
        return t.names[t.name[t.parent[i]]] if t.parent[i] >= 0 else None

    scoring = Counter((parent_name(i), t.names[nid]) for i, nid in enumerate(t.name)
                      if t.names[nid] in ("federated.federated_predict", "metrics.auc"))
    local_epochs = cfg.supervised.epochs + cfg.downstream.epochs  # pretraining, local_a
    assert scoring == {
        (parent, name): n
        for parent, n in (("sup_pretrain.pretrain_active", local_epochs),
                          ("federated.train_downstream", cfg.downstream.epochs),
                          ("evaluation.evaluate_mode", 2))
        for name in ("federated.federated_predict", "metrics.auc")
    }

    # the benchmark's checked counts come through the epoch loop: one
    # run_round span per round of the cell, and under each pretrain_active
    # span (pre-training, then local_a) one optimizer step per local step
    def steps_of(rows, epochs, batch_size, val_fraction):
        return epochs * -(-(rows - int(round(val_fraction * rows))) // batch_size)

    assert t.name.count(t.names.index("federated.run_round")) == steps_of(
        20, dcfg.epochs, dcfg.batch_size, dcfg.val_fraction)
    optimizer_steps = Counter(
        t.parent[i] for i, nid in enumerate(t.name)
        if t.names[nid] in ("nn.AdamOptimizer.step", "nn.SgdOptimizer.step")
    )
    local_rows = bundle.train.parties[1].n
    assert [optimizer_steps[i] for i, nid in enumerate(t.name)
            if t.names[nid] == "sup_pretrain.pretrain_active"] == [
        steps_of(local_rows, c.epochs, c.batch_size, c.val_fraction)
        for c in (cfg.supervised, dcfg)
    ]

    # the encoder spans carry their batch rows, which the per-layer metrics
    # split into us_b8 and us_b256: each training step's forward and backward
    # has its stage's batch size, or fewer rows on an epoch's last batch
    sup, down = cfg.supervised.batch_size, cfg.downstream.batch_size
    stage_batch = {
        i: down if t.names[nid] == "federated.run_round" else t.tag[i]
        for i, nid in enumerate(t.name)
        if t.names[nid] in ("federated.run_round", "sup_pretrain.pretrain_active")
    }
    steps: dict[tuple[str, int], list[int]] = {}
    for i, nid in enumerate(t.name):
        if t.names[nid].startswith("nn.TabularEncoder."):
            p = t.parent[i]
            while p >= 0 and p not in stage_batch:
                p = t.parent[p]
            if p >= 0:
                key = (t.names[nid].rsplit(".", 1)[1], stage_batch[p])
                steps.setdefault(key, []).append(t.tag[i])
    assert sorted(steps) == sorted(
        (kind, rows) for kind in ("backward", "forward") for rows in (sup, down)
    )
    for (kind, rows), tags in steps.items():
        assert rows in tags, (kind, rows)
        if kind == "backward":
            assert max(tags) == rows, (kind, rows)


@pytest.mark.parametrize("step", [True, False], ids=["train", "gradient-only"])
@pytest.mark.parametrize("mode", [TrainMode.VANILLA_VFL, TrainMode.VFLHLP])
@pytest.mark.parametrize("k", [2, 3])
def test_a_round_calls_each_traced_kernel_once_per_use(tiny_bundle, k, mode, step):
    # the per-layer metrics count and time these calls, so a round makes each
    # one exactly where it is used: K encoder passes each way, a message each
    # way per party, one loss, the constraint when the Federation holds
    # anchors (as a cell's does exactly in a constrained mode), one step.
    # gradient-only runs Federation.forward_backward alone, the pass that
    # pretrain_active shares with the round: the same calls at the top level,
    # without the constraint and the step, whatever anchors it holds
    tracer = _load_tracer()
    train = tiny_bundle.train
    specs = {p: small_spec(n_cat=1, n_num=3, cardinality=6, embed_dim=3, hidden=(8, 4))
             for p in range(1, k + 1)}
    anchor = None
    if mode.uses_constraint:
        anchor = anchor_model(specs[1], stream(9, "anchor"), head=np.zeros(5))
    fed = build_federation(train, specs, beta=0.5, seed=9, optimizer="sgd", anchor=anchor)
    batch = train.gather(train.aligned_ids(16))
    t = tracer.Tracer("round-calls")
    t.install()
    try:
        for r in range(3):
            if step:
                federated.run_round(fed, arrays(batch), r, TransportLog())
            else:
                fed.forward_backward(batch.cat, batch.num, batch.labels,
                                     TransportLog().record, r)
    finally:
        t.uninstall()

    names = [t.names[n] for n in t.name]
    rounds = [i for i, name in enumerate(names) if name == "federated.run_round"]
    assert len(rounds) == 3 * step
    # each round's calls, or without rounds all three passes' calls at the top level
    per_caller = 1 if step else 3
    expected = Counter({
        "nn.TabularEncoder.forward": per_caller * k,
        "nn.TabularEncoder.backward": per_caller * k,
        "federated.TransportLog.record": per_caller * 2 * k,
        "nn.bce_with_logits": per_caller,
        "federated.constraint_loss": int(mode.uses_constraint and step),
        "nn.SgdOptimizer.step": int(step),
    })
    if not step:
        rounds = [-1]
    children = {i: Counter() for i in rounds}
    grandchildren = Counter()
    for j, name in enumerate(names):
        if t.parent[j] in children:
            children[t.parent[j]][name] += 1
        elif t.parent[j] >= 0 and t.parent[t.parent[j]] in children:
            grandchildren[(names[t.parent[j]], name)] += 1
    for i in rounds:
        assert children[i] == +expected
    # each encoder with embeddings looks its rows up and scatters their gradient once
    assert grandchildren == {
        ("nn.TabularEncoder.forward", "nn.EmbeddingTable.lookup"): 3 * k,
        ("nn.TabularEncoder.backward", "nn.EmbeddingTable.backward"): 3 * k,
    }
