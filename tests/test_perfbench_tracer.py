"""The benchmark's tracer still finds every entry point it wraps.

perfbench/tracer.py wraps named functions and methods of the package. A
rename, or a path that stops going through one of them, should fail here
rather than in a traced benchmark run. Only reads perfbench/.
"""
import importlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np

import vflhlp.cli  # noqa: F401  (loads every module whose bindings get patched)
from vflhlp import evaluation
from vflhlp.config import encoder_specs, parse_config
from vflhlp.federated import TrainMode

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
    view = replace(bundle, train=bundle.train.with_aligned_count(20))
    dcfg = replace(cfg.downstream, seed=7, beta=0.0)

    t = tracer.Tracer("tags")
    t.install()
    try:
        pre = evaluation.pretrain_for_seed(cfg, bundle, 7, need_active=True,
                                           need_passive=False)
        evaluation.run_cell(view, specs, TrainMode.VANILLA_VFL, pre.weights, dcfg)
        evaluation.run_cell(view, specs, TrainMode.LOCAL_A, None, dcfg)
    finally:
        t.uninstall()

    def tags(span):
        nid = t.names.index(span)
        return [tag for n, tag in zip(t.name, t.tag) if n == nid]

    assert tags("evaluation.pretrain_for_seed") == [0]
    assert tags("federated.train_downstream") == [1, 0]
    assert tags("sup_pretrain.pretrain_active") == [
        cfg.supervised.batch_size, cfg.downstream.batch_size
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
