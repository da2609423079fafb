"""Span tracing of the vflhlp layers from outside the package.

The program is not changed. `Tracer.install` replaces every binding of the
traced functions in every loaded `vflhlp` module (modules import names
directly, so `train_downstream` is bound in `federated`, `evaluation` and
`cli`) and the traced methods on their classes; `Tracer.uninstall` puts the
originals back. Each call becomes one span: name, start, end, parent span,
an integer tag read from the arguments (rows in the batch, bytes sent) and
a number read from the result. Spans stay in flat arrays in memory and are
written, with the id of the run they belong to, to one `.npz` file when the
run ends.

`layer_metrics` turns the span files of one benchmark run into the
per-layer metrics listed in BENCHMARK.json.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array

import numpy as np

FUNCTIONS = [
    ("vflhlp.federated", "run_round"),
    ("vflhlp.federated", "constraint_loss"),
    ("vflhlp.federated", "federated_predict"),
    ("vflhlp.federated", "audit_transport"),
    ("vflhlp.federated", "train_downstream"),
    ("vflhlp.nn.losses", "bce_with_logits"),
    ("vflhlp.nn.checkpoint", "save_checkpoint"),
    ("vflhlp.ssl_pretrain", "pretrain_passive"),
    ("vflhlp.ssl_pretrain", "corrupt"),
    ("vflhlp.ssl_pretrain", "contrastive_batch"),
    ("vflhlp.sup_pretrain", "pretrain_active"),
    ("vflhlp.data", "synth_generate"),
    ("vflhlp.data", "sample_aligned_batches"),
    ("vflhlp.data", "save_bundle"),
    ("vflhlp.data", "load_bundle"),
    ("vflhlp.evaluation", "run_grid"),
    ("vflhlp.evaluation", "pretrain_for_seed"),
    ("vflhlp.evaluation", "evaluate_mode"),
    ("vflhlp.metrics", "auc"),
]
METHODS = [
    ("vflhlp.federated", "TransportLog", "record"),
    ("vflhlp.nn.layers", "TabularEncoder", "forward"),
    ("vflhlp.nn.layers", "TabularEncoder", "backward"),
    ("vflhlp.nn.layers", "EmbeddingTable", "lookup"),
    ("vflhlp.nn.layers", "EmbeddingTable", "backward"),
    ("vflhlp.nn.optim", "SgdOptimizer", "step"),
    ("vflhlp.nn.optim", "AdamOptimizer", "step"),
]

WIRE_HEADER_BYTES = 15  # the README's fixed message header


def _span_name(module: str, attr: str) -> str:
    """("vflhlp.nn.layers", "TabularEncoder.forward") -> "nn.TabularEncoder.forward"."""
    return f"{module.split('.')[1]}.{attr}"


def _encoder_rows(args, kwargs) -> int:
    cat, num = args[1], args[2]
    return (cat if cat is not None else num).shape[0]


def _message_bytes(args, kwargs) -> int:
    """Payload plus header; positive going up to the server, negative coming down."""
    msg = args[1]
    size = msg.values.size * 8 + WIRE_HEADER_BYTES
    return size if type(msg).__name__ == "RepresentationMsg" else -size


TAG = {
    "nn.TabularEncoder.forward": _encoder_rows,
    "nn.TabularEncoder.backward": lambda a, k: a[2].shape[0],
    "nn.bce_with_logits": lambda a, k: a[0].size,
    "federated.TransportLog.record": _message_bytes,
    "federated.train_downstream": lambda a, k: int(a[2].is_federated),
    "sup_pretrain.pretrain_active": lambda a, k: a[3].batch_size,
}
VALUE = {
    "nn.save_checkpoint": lambda a, k, r: os.path.getsize(a[0]),
    "sup_pretrain.pretrain_active": lambda a, k, r: (
        r.best_epoch / a[3].epochs if a[3].epochs else 0.0
    ),
}


def _vflhlp_modules():
    return [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "vflhlp" or n.startswith("vflhlp."))
    ]


class Tracer:
    """Flat in-memory span store plus the patching that feeds it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.tag = array("q")
        self.value = array("d")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, span_name: str, fn):
        nid = len(self.names)
        self.names.append(span_name)
        tag_of, value_of = TAG.get(span_name), VALUE.get(span_name)
        name, start, end, parent, tag, value = (
            self.name, self.start, self.end, self.parent, self.tag, self.value
        )
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            if tag_of:
                try:
                    tag.append(tag_of(args, kwargs))
                except (IndexError, AttributeError, TypeError):
                    tag.append(-1)  # the call's signature changed; the span still counts
            else:
                tag.append(0)
            value.append(0.0)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if value_of:
                value[i] = value_of(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of every traced callable in loaded vflhlp modules."""
        originals = []
        for module, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr)
            originals.append(original)
            wrapper = self.wrap(_span_name(module, attr), original)
            for mod in _vflhlp_modules():
                for key, bound in list(vars(mod).items()):
                    if bound is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for module, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[meth]
            self._patched.append((cls, meth, original))
            setattr(cls, meth, self.wrap(_span_name(module, f"{cls_name}.{meth}"), original))
        left = [
            f"{mod.__name__}.{key}"
            for mod in _vflhlp_modules()
            for key, bound in vars(mod).items()
            if any(bound is o for o in originals)
        ]
        if left:
            self.uninstall()
            raise RuntimeError(f"unwrapped bindings remain: {left}")

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def save(self, path) -> None:
        np.savez(
            path,
            run_id=np.array(self.run_id),
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            tag=np.frombuffer(self.tag, dtype=np.int64),
            value=np.frombuffer(self.value, dtype=np.float64),
        )


# ---------------------------------------------------------------------------
# metrics from span files


class Spans:
    """The spans of one or more span files, concatenated, with self times.

    A span's self time is its duration minus the durations of its direct
    children; calls in one process nest, so the children never overlap.
    """

    def __init__(self, paths):
        self.names: list[str] = []
        cols: dict[str, list[np.ndarray]] = {
            k: [] for k in ("name", "dur", "self", "parent", "tag", "value")
        }
        offset = 0
        for path in paths:
            with np.load(path) as f:
                for n in f["names"]:
                    if str(n) not in self.names:
                        self.names.append(str(n))
                remap = np.array(
                    [self.names.index(str(n)) for n in f["names"]], dtype=np.int64
                )
                dur = (f["end"] - f["start"]) / 1e9
                parent = f["parent"]
                has = parent >= 0
                child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
                cols["name"].append(remap[f["name"]])
                cols["dur"].append(dur)
                cols["self"].append(dur - child)
                cols["parent"].append(np.where(has, parent + offset, -1))
                cols["tag"].append(f["tag"])
                cols["value"].append(f["value"])
                offset += dur.size
        for k, parts in cols.items():
            setattr(self, k, np.concatenate(parts) if parts else np.zeros(0, dtype=int))

    def mask(self, span_name: str) -> np.ndarray:
        if span_name not in self.names:
            return np.zeros(self.dur.size, dtype=bool)
        return self.name == self.names.index(span_name)

    def child_of(self, parents: np.ndarray) -> np.ndarray:
        """Spans whose nearest traced ancestor is selected by `parents`."""
        out = np.zeros(self.dur.size, dtype=bool)
        has = self.parent >= 0
        out[has] = parents[self.parent[has]]
        return out


def _median(values: np.ndarray) -> float:
    return float(np.median(values)) if values.size else 0.0


def layer_metrics(spans: Spans) -> dict[str, float]:
    """Every per-layer metric; 0 where the layer did not run in the workload.

    Suffixes: `.calls` is an exact count, `.us` the median microseconds per
    call, `.us_p50` and `.us_p99` percentiles, `.s` the total seconds spent
    in the call over the run, `.s_p50` the median seconds per call.
    """
    out: dict[str, float] = {}
    m = spans.mask
    dur, tag = spans.dur, spans.tag

    def calls(name):
        return int(m(name).sum())

    def us(name, where=True):
        return _median(dur[m(name) & where]) * 1e6

    def total_s(name, where=True):
        return float(dur[m(name) & where].sum())

    # federated
    rnd = m("federated.run_round")
    rounds = int(rnd.sum())
    out["federated.run_round.calls"] = rounds
    out["federated.run_round.us_p50"] = _median(dur[rnd]) * 1e6
    out["federated.run_round.us_p99"] = (
        float(np.percentile(dur[rnd], 99)) * 1e6 if rounds else 0.0
    )
    out["federated.run_round.self_us_p50"] = _median(spans.self[rnd]) * 1e6
    for name in ("TransportLog.record", "constraint_loss"):
        out[f"federated.{name}.calls"] = calls(f"federated.{name}")
        out[f"federated.{name}.us"] = us(f"federated.{name}")
    out["federated.federated_predict.s"] = total_s("federated.federated_predict")
    out["federated.audit_transport.s"] = total_s("federated.audit_transport")
    out["federated.train_downstream.s_p50"] = _median(dur[m("federated.train_downstream")])
    rec = m("federated.TransportLog.record")
    per_round = 1.0 / rounds if rounds else 0.0
    out["federated.messages_per_round"] = rec.sum() * per_round
    out["federated.bytes_up_per_round"] = tag[rec & (tag > 0)].sum() * per_round
    out["federated.bytes_down_per_round"] = -tag[rec & (tag < 0)].sum() * per_round
    fed_cells = m("federated.train_downstream") & (tag == 1)
    scoring = (m("federated.federated_predict") | m("metrics.auc")) & spans.child_of(fed_cells)
    cell_s = dur[fed_cells].sum()
    out["federated.val_scoring_share"] = float(dur[scoring].sum() / cell_s) if cell_s else 0.0

    # nn
    for kind in ("forward", "backward"):
        for rows in (8, 256):
            out[f"nn.TabularEncoder.{kind}.us_b{rows}"] = us(
                f"nn.TabularEncoder.{kind}", tag == rows
            )
    for name in ("EmbeddingTable.lookup", "EmbeddingTable.backward",
                 "SgdOptimizer.step", "AdamOptimizer.step"):
        out[f"nn.{name}.us"] = us(f"nn.{name}")
    for rows in (8, 256):
        out[f"nn.bce_with_logits.us_b{rows}"] = us("nn.bce_with_logits", tag == rows)
    out["nn.save_checkpoint.s"] = total_s("nn.save_checkpoint")
    out["nn.save_checkpoint.bytes"] = int(spans.value[m("nn.save_checkpoint")].sum())

    # ssl_pretrain
    passive = m("ssl_pretrain.pretrain_passive")
    out["ssl_pretrain.pretrain_passive.s"] = float(dur[passive].sum())
    for name in ("corrupt", "contrastive_batch"):
        out[f"ssl_pretrain.{name}.calls"] = calls(f"ssl_pretrain.{name}")
        out[f"ssl_pretrain.{name}.us"] = us(f"ssl_pretrain.{name}")
    batches = calls("ssl_pretrain.contrastive_batch")
    passes = int((m("nn.TabularEncoder.forward") & spans.child_of(passive)).sum())
    out["ssl_pretrain.encoder_passes_per_batch"] = passes / batches if batches else 0.0

    # sup_pretrain
    active = m("sup_pretrain.pretrain_active")
    for rows in (256, 8):
        out[f"sup_pretrain.pretrain_active.s_b{rows}"] = total_s(
            "sup_pretrain.pretrain_active", tag == rows
        )
    steps = (m("nn.AdamOptimizer.step") | m("nn.SgdOptimizer.step")) & spans.child_of(active)
    out["sup_pretrain.steps"] = int(steps.sum())
    out["sup_pretrain.kept_epoch_share"] = (
        float(spans.value[active].mean()) if active.any() else 0.0
    )

    # data
    out["data.synth_generate.s"] = total_s("data.synth_generate")
    out["data.sample_aligned_batches.calls"] = calls("data.sample_aligned_batches")
    out["data.sample_aligned_batches.us"] = us("data.sample_aligned_batches")
    out["data.save_bundle.s"] = total_s("data.save_bundle")
    out["data.load_bundle.s"] = total_s("data.load_bundle")

    # evaluation
    out["evaluation.run_grid.s"] = total_s("evaluation.run_grid")
    out["evaluation.run_grid.self_s"] = float(spans.self[m("evaluation.run_grid")].sum())
    out["evaluation.pretrain_for_seed.s"] = total_s("evaluation.pretrain_for_seed")
    out["evaluation.evaluate_mode.calls"] = calls("evaluation.evaluate_mode")
    out["evaluation.evaluate_mode.us"] = us("evaluation.evaluate_mode")

    # metrics
    out["metrics.auc.calls"] = calls("metrics.auc")
    out["metrics.auc.us"] = us("metrics.auc")
    return out


def sample_counts(spans: Spans) -> dict[str, int]:
    """How many calls each timed per-layer figure rests on, by span name."""
    return {name: int(spans.mask(name).sum()) for name in spans.names}
