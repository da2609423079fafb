"""Supervised local pre-training for the active party.

The active party trains its encoder plus a small linear head on its full
local table, labels included, unaligned samples and all. The resulting
weights serve three purposes downstream: warm start, anchor for the
knowledge-transfer constraint, and the local-only baseline.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import PartyView
from .errors import ConfigError, DataError, TrainingError, UndefinedMetricError
from .metrics import auc
from .nn import Mlp, TabularEncoder, bce_with_logits, check_labels, make_optimizer, sigmoid
from .nn.layers import EncoderSpec, ModelSet
from .nn.optim import check_schedule
from .rng import stream


@dataclass(frozen=True)
class SupConfig:
    epochs: int = 20
    batch_size: int = 256
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    val_fraction: float = 0.1

    def __post_init__(self):
        check_schedule(self.epochs, self.batch_size, learning_rate=self.learning_rate)
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must be in [0, 1), got {self.val_fraction}")


@dataclass
class ActivePretrained:
    """Frozen weights from the active party's local run.

    encoder_params and head_params are deep copies taken at the best
    validation-AUC epoch (or the last epoch when validation AUC was
    undefined, flagged by degenerate_validation).
    """

    spec: EncoderSpec
    encoder_params: dict[str, np.ndarray]
    head_params: dict[str, np.ndarray]
    best_epoch: int
    val_auc: float | None
    degenerate_validation: bool
    loss_trace: list[float] = field(default_factory=list)

    def build_encoder(self) -> TabularEncoder:
        enc = self.spec.build_empty()
        enc.set_params(self.encoder_params)
        return enc

    def build_head(self) -> Mlp:
        head = Mlp([self.spec.rep_dim, 1])
        head.set_params(self.head_params)
        return head


def pretrain_active(
    view: PartyView, labels: np.ndarray, spec: EncoderSpec, cfg: SupConfig, seed: int
) -> ActivePretrained:
    """Train encoder + linear head on the active party's local data.

    A val_fraction slice of the local rows is held out; the returned weights
    are the ones with the best held-out AUC. Single-class validation labels
    make the AUC undefined for an epoch; if that happens for every epoch the
    last-epoch weights are returned with degenerate_validation set.
    """
    if view.party_id != 1:
        raise ConfigError("supervised pre-training targets the active party (id 1)")
    labels = check_labels(labels)  # once here; the steps skip the check
    if labels.shape != view.ids.shape:
        raise DataError("labels must cover exactly the party's local rows")

    net = ModelSet({"enc": spec.build(stream(seed, "sup", "init-encoder")),
                    "head": Mlp.init(stream(seed, "sup", "init-head"), [spec.rep_dim, 1])})
    encoder, head = net.models.values()
    optimizer = make_optimizer(cfg.optimizer)
    cat_rows = encoder.resolve(view.cat)  # once; each step only gathers

    n_val = int(round(cfg.val_fraction * view.n))
    perm = stream(seed, "sup", "val-split").permutation(view.n)
    val_rows, train_rows = perm[:n_val], perm[n_val:]
    if train_rows.size == 0:
        raise DataError("no training rows left after validation split")

    def predict(rows: np.ndarray) -> np.ndarray:
        rep, _ = encoder.forward(cat_rows[rows], view.num[rows])
        logits, _ = head.forward(rep)
        return sigmoid(logits[:, 0])

    best: tuple[float, int, dict, dict] | None = None
    trace: list[float] = []
    for epoch in range(1, cfg.epochs + 1):
        order = stream(seed, "sup", "shuffle", epoch).permutation(train_rows.size)
        shuffled = train_rows[order]
        cat, num, y = cat_rows[shuffled], view.num[shuffled], labels[shuffled]
        total, count = 0.0, 0
        for i in range(0, shuffled.size, cfg.batch_size):
            rows = slice(i, i + cfg.batch_size)
            rep, enc_tape = encoder.forward(cat[rows], num[rows])
            logits, head_tape = head.forward(rep, check=False)  # it takes [n, rep_dim]
            loss, dlogits = bce_with_logits(logits[:, 0], y[rows], check=False)
            _, drep = head.backward(head_tape, dlogits[:, None], check=False)
            encoder.backward(enc_tape, drep)
            optimizer.step(net.theta, net.grad, cfg.learning_rate, net.layout)
            total += loss * dlogits.size
            count += dlogits.size
        trace.append(total / count)
        if not np.isfinite(trace[-1]):
            raise TrainingError(f"local training loss non-finite at epoch {epoch}")
        if val_rows.size:
            try:
                score = auc(labels[val_rows], predict(val_rows))
            except UndefinedMetricError:
                score = None
            if score is not None and (best is None or score > best[0]):
                best = (score, epoch, encoder.params_copy(), head.params_copy())

    if best is not None:
        val_score, best_epoch, enc_params, head_params = best
        degenerate = False
    else:
        # no usable validation signal: keep the final weights and say so
        val_score = None
        best_epoch = cfg.epochs
        enc_params = encoder.params_copy()
        head_params = head.params_copy()
        degenerate = cfg.epochs > 0 and val_rows.size > 0
    return ActivePretrained(
        spec=spec,
        encoder_params=enc_params,
        head_params=head_params,
        best_epoch=best_epoch,
        val_auc=val_score,
        degenerate_validation=degenerate,
        loss_trace=trace,
    )


def local_predict(model: ActivePretrained, cat: np.ndarray, num: np.ndarray) -> np.ndarray:
    """Scores from the active party's local model alone."""
    encoder = model.build_encoder()
    head = model.build_head()
    rep, _ = encoder.forward(cat, num)
    logits, _ = head.forward(rep)
    return sigmoid(logits[:, 0])
