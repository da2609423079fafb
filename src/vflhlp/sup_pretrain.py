"""Supervised local pre-training for the active party, and the local-only baseline.

The active party trains its encoder plus a small linear head on its full
local table, labels included, unaligned samples and all. The resulting
weights serve three purposes downstream: warm start, anchor for the
knowledge-transfer constraint, and the local-only baseline (mode local_a).
The pair trains as a one-party `Federation` with no constraint and one
learning rate, through the step that `run_round` takes, without messages:
the same arithmetic as a round, on the party's own rows. Its epochs run in
`federated.fit` over a one-party pool's `data.hold_out` and
`data.sample_aligned_batches`, as a cell's do, and it keeps fit's best epoch.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import AlignedBatch, PartyView, VerticalDataset, hold_out, sample_aligned_batches
from .errors import ConfigError, DataError
from .federated import (
    ActivePretrained,
    DownstreamConfig,
    Federation,
    RoundStats,
    TrainedFederation,
    TrainMode,
    federated_predict,
    fit,
)
from .nn import Mlp, check_labels
from .nn.layers import EncoderSpec
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


def pretrain_active(
    view: PartyView, labels: np.ndarray, spec: EncoderSpec, cfg: SupConfig, seed: int
) -> ActivePretrained:
    """Train encoder + linear head on the active party's local data, as a
    one-party Federation stepped by `forward_backward` and its optimizer.

    A val_fraction slice of the local rows is held out (DataError when it
    leaves no training row); the returned weights are the ones with the best
    held-out AUC. Single-class validation labels make the AUC undefined for an
    epoch; if that happens for every epoch the last-epoch weights are returned
    with degenerate_validation set.
    """
    if view.party_id != 1:
        raise ConfigError("supervised pre-training targets the active party (id 1)")
    labels = check_labels(labels)  # once here; the steps skip the check
    if labels.shape != view.ids.shape:
        raise DataError("labels must cover exactly the party's local rows")

    fed = Federation({1: spec.build(stream(seed, "sup", "init-encoder"))},
                     Mlp.init(stream(seed, "sup", "init-head"), [spec.rep_dim, 1]),
                     0.0, cfg.learning_rate, cfg.learning_rate, cfg.optimizer)
    # the party's rows, resolved to embedding rows once; each epoch permutes and
    # slices the training rows
    pool = AlignedBatch(view.ids, {1: fed.encoders[1].resolve(view.cat)}, {1: view.num}, labels)
    train, val = hold_out(pool, cfg.val_fraction, stream(seed, "sup", "val-split"))

    def step(batch):
        loss = fed.forward_backward(*batch)
        fed.optimizer.step(fed.theta, fed.grad, fed.lr, fed.layout)
        return RoundStats(loss, loss, 0.0)

    history, (best_auc, best_epoch, best_theta) = fit(
        fed, cfg.epochs,
        lambda e: sample_aligned_batches(train, cfg.batch_size, stream(seed, "sup", "shuffle", e)),
        step, val,
    )
    if best_theta is not None:
        fed.theta[...] = best_theta
    # no usable validation signal: the final weights stay, and the flag says so
    degenerate = best_auc is None and cfg.epochs > 0 and val is not None
    return ActivePretrained(spec=spec, encoder_params=fed.encoders[1].params(),
                            head_params=fed.head.params(), best_epoch=best_epoch,
                            val_auc=best_auc, degenerate_validation=degenerate, history=history)


def train_local(
    ds: VerticalDataset, spec: EncoderSpec, cfg: DownstreamConfig, seed: int
) -> TrainedFederation:
    """The local_a baseline: pretrain_active on the active party's whole local
    table with the downstream schedule and eta2, so its weights are those of
    the epoch with the best AUC on its own held-out val_fraction of local rows.
    Its history has val_auc None in every epoch, and it has no transport log.
    """
    sup_cfg = SupConfig(epochs=cfg.epochs, batch_size=cfg.batch_size, learning_rate=cfg.eta2,
                        optimizer=cfg.optimizer, val_fraction=cfg.val_fraction)
    model = pretrain_active(ds.parties[1], ds.labels, spec, sup_cfg, seed)
    history = [{**row, "val_auc": None} for row in model.history]
    return TrainedFederation(TrainMode.LOCAL_A, {1: model.encoder}, model.head, history)


def local_predict(model: ActivePretrained, cat: np.ndarray, num: np.ndarray) -> np.ndarray:
    """Scores from the active party's local model alone."""
    return federated_predict({1: model.encoder}, model.head, {1: cat}, {1: num})
