"""Split training across K parties with an optional knowledge-transfer constraint.

One round: each party encodes its feature block of the aligned mini-batch
and sends the representation to the server; the server concatenates the
blocks, runs the linear head, and forms

    loss = bce + beta * constraint

where the constraint is half the squared distance between the active
party's current parameters (its encoder, plus the head columns acting on
its representation block and the head bias) and the frozen weights from
its local pre-training run. The server computes all gradients with the
pre-update head, updates the head with eta1, then returns each party the
gradient of the loss w.r.t. its representation block; parties backprop and
update with eta2. All cross-boundary payloads go through the transport log
so tests can audit that no raw feature column or label vector ever leaves
its owner.
"""
from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field

import numpy as np

from .data import AlignedBatch, VerticalDataset, sample_aligned_batches
from .errors import ConfigError, SchemaError, TrainingError, UndefinedMetricError
from .metrics import auc
from .nn import (
    Mlp,
    ParamLayout,
    TabularEncoder,
    bce_with_logits,
    make_optimizer,
    sigmoid,
)
from .nn.layers import EncoderSpec
from .rng import stream
from .sup_pretrain import ActivePretrained, SupConfig, pretrain_active


class TrainMode(enum.Enum):
    """What gets warm-started and whether the anchor constraint is active."""

    VANILLA_VFL = "vanilla_vfl"
    VFLHLP = "vflhlp"
    VFLHLP_A = "vflhlp_a"  # active-party anchoring only
    VFLHLP_P = "vflhlp_p"  # passive warm start only
    LOCAL_A = "local_a"  # active party alone, no federation

    @classmethod
    def parse(cls, name: str) -> "TrainMode":
        for mode in cls:
            if mode.value == name:
                return mode
        raise ConfigError(
            f"unknown mode {name!r}; expected one of "
            f"{[m.value for m in cls]}"
        )

    @property
    def warm_starts_passive(self) -> bool:
        return self in (TrainMode.VFLHLP, TrainMode.VFLHLP_P)

    @property
    def uses_constraint(self) -> bool:
        return self in (TrainMode.VFLHLP, TrainMode.VFLHLP_A)

    @property
    def is_federated(self) -> bool:
        return self is not TrainMode.LOCAL_A


# ---------------------------------------------------------------------------
# messages and the transport log

DIR_TO_SERVER = 0
DIR_TO_PARTY = 1
KIND_REPRESENTATION = 1
KIND_GRADIENT = 2


@dataclass(frozen=True)
class RepresentationMsg:
    round_index: int
    party_id: int
    values: np.ndarray  # [batch, rep_dim] float64


@dataclass(frozen=True)
class GradientMsg:
    round_index: int
    party_id: int
    values: np.ndarray  # [batch, rep_dim] float64


def content_hash(values: np.ndarray) -> str:
    """sha256 of the C-order little-endian bytes of the array."""
    arr = np.ascontiguousarray(values)
    return hashlib.sha256(arr.tobytes(order="C")).hexdigest()


@dataclass(frozen=True)
class TransportRecord:
    round_index: int
    direction: int
    party_id: int
    kind: int
    rows: int
    cols: int
    payload_hash: str


class TransportLog:
    """Append-only record of every cross-boundary payload."""

    def __init__(self):
        self.records: list[TransportRecord] = []

    def record(self, msg: RepresentationMsg | GradientMsg) -> None:
        if isinstance(msg, RepresentationMsg):
            direction, kind = DIR_TO_SERVER, KIND_REPRESENTATION
        else:
            direction, kind = DIR_TO_PARTY, KIND_GRADIENT
        values = np.ascontiguousarray(msg.values, dtype="<f8")
        self.records.append(
            TransportRecord(
                round_index=msg.round_index,
                direction=direction,
                party_id=msg.party_id,
                kind=kind,
                rows=values.shape[0],
                cols=values.shape[1],
                payload_hash=content_hash(values),
            )
        )

    def rounds(self) -> dict[int, list[TransportRecord]]:
        out: dict[int, list[TransportRecord]] = {}
        for rec in self.records:
            out.setdefault(rec.round_index, []).append(rec)
        return out


@dataclass
class AuditReport:
    ok: bool
    n_messages: int
    n_rounds: int
    violations: list[str]
    balanced_rounds: bool  # every round has K up and K down messages


def _raw_column_hashes(ds: VerticalDataset) -> dict[str, str]:
    """Hashes of everything that must never appear as a payload."""
    out: dict[str, str] = {}
    for k, view in ds.parties.items():
        for j, f in enumerate(view.cat_fields):
            col = view.cat[:, j]
            out[content_hash(col)] = f"party {k} column {f.name!r} (int64)"
            out[content_hash(col.astype(np.float64))] = (
                f"party {k} column {f.name!r} (as float64)"
            )
        for j, f in enumerate(view.num_fields):
            out[content_hash(view.num[:, j])] = f"party {k} column {f.name!r}"
    out[content_hash(ds.labels)] = "label vector"
    return out


def audit_transport(log: TransportLog, ds: VerticalDataset) -> AuditReport:
    """Compare every logged payload hash against raw columns and labels.

    This is an instrument, not a proof: it certifies that no payload was a
    byte-for-byte copy of a protected column during this run.
    """
    forbidden = _raw_column_hashes(ds)
    violations = [
        f"round {rec.round_index}, party {rec.party_id}: payload equals {forbidden[rec.payload_hash]}"
        for rec in log.records
        if rec.payload_hash in forbidden
    ]
    k = ds.k_parties
    balanced = True
    rounds = log.rounds()
    for recs in rounds.values():
        ups = sum(1 for r in recs if r.direction == DIR_TO_SERVER)
        downs = sum(1 for r in recs if r.direction == DIR_TO_PARTY)
        if ups != k or downs != k:
            balanced = False
    return AuditReport(
        ok=not violations,
        n_messages=len(log.records),
        n_rounds=len(rounds),
        violations=violations,
        balanced_rounds=balanced,
    )


# ---------------------------------------------------------------------------
# loss pieces


def constraint_loss(
    params: dict[str, np.ndarray], anchors: dict[str, np.ndarray]
) -> tuple[float, dict[str, np.ndarray]]:
    """0.5 * sum((theta - anchor)^2) over every entry, and its gradient.

    The value is a raw sum over coordinates, not a mean, so the pull toward
    the anchor is independent of how the parameters are grouped. The
    gradient w.r.t. theta is exactly (theta - anchor).
    """
    if set(params) != set(anchors):
        raise SchemaError(
            f"constraint parameter names {sorted(params)} do not match anchors "
            f"{sorted(anchors)}"
        )
    value = 0.0
    grads = {}
    for name, p in params.items():
        a = anchors[name]
        if p.shape != a.shape:
            raise SchemaError(
                f"constraint shape mismatch for {name!r}: {p.shape} vs {a.shape}"
            )
        diff = p - a
        value += float((diff * diff).sum())
        grads[name] = diff
    return 0.5 * value, grads


def total_loss(loss_vfl: float, loss_cons: float, beta: float) -> float:
    """loss_vfl + beta * loss_cons; beta == 0 returns loss_vfl bit-for-bit."""
    if beta == 0.0:
        return loss_vfl
    return loss_vfl + beta * loss_cons


# ---------------------------------------------------------------------------
# nodes


class PartyNode:
    """One party's side of a round: encode a batch, backprop the reply."""

    def __init__(self, party_id: int, encoder: TabularEncoder, optimizer: str):
        self.party_id = party_id
        self.encoder = encoder
        self.optimizer = make_optimizer(optimizer)
        self._layouts = {"encoder": encoder.layout}
        self._tape = None

    def forward(self, batch: AlignedBatch, round_index: int) -> RepresentationMsg:
        rep, tape = self.encoder.forward(
            batch.cat[self.party_id], batch.num[self.party_id]
        )
        self._tape = tape
        return RepresentationMsg(round_index, self.party_id, rep)

    def backward(self, msg: GradientMsg) -> np.ndarray:
        """The encoder's flat parameter gradient for this round's reply."""
        if self._tape is None:
            raise TrainingError(f"party {self.party_id}: backward before forward")
        if msg.party_id != self.party_id:
            raise TrainingError(
                f"party {self.party_id} received gradients for party {msg.party_id}"
            )
        grad = self.encoder.backward(self._tape, msg.values)
        self._tape = None
        return grad

    def apply_update(self, grad: np.ndarray, lr: float) -> None:
        self.optimizer.step(
            {"encoder": self.encoder.theta}, {"encoder": grad}, lr, self._layouts
        )


class ServerNode:
    """Label owner's head plus the anchors and rates for a training run.

    encoder_anchor is the active party's pre-trained encoder as one flat
    vector (its `theta`); head_anchor holds the pre-trained head's
    "weight" [out, rep_dim of party 1] and "bias". Both are flattened once
    here, in the order of the head entries that `head_active` selects.
    """

    def __init__(
        self,
        head: Mlp,
        rep_dims: dict[int, int],
        beta: float,
        eta1: float,
        eta2: float,
        optimizer: str = "adam",
        encoder_anchor: np.ndarray | None = None,
        head_anchor: dict[str, np.ndarray] | None = None,
    ):
        self.head = head
        in_dim, out_dim = head.dims[:2]
        self.rep_slices: dict[int, slice] = {}
        off = 0
        for k in sorted(rep_dims):
            self.rep_slices[k] = slice(off, off + rep_dims[k])
            off += rep_dims[k]
        if in_dim != off:
            raise SchemaError(
                f"head input dim {in_dim} does not match total "
                f"representation dim {off}"
            )
        self.beta = beta
        self.eta1 = eta1
        self.eta2 = eta2
        self.optimizer = make_optimizer(optimizer)
        self._layouts = {"head": head.layout}
        # entries of head.theta that act on party 1's block: its weight
        # columns, then the bias
        sl = self.rep_slices[1]
        columns = np.arange(out_dim)[:, None] * in_dim + np.arange(sl.start, sl.stop)
        self.head_active = np.concatenate(
            [columns.ravel(), out_dim * in_dim + np.arange(out_dim)]
        )
        self.anchors: dict[str, np.ndarray] | None = None
        if encoder_anchor is not None and head_anchor is not None:
            self.anchors = {
                "encoder": np.array(encoder_anchor, dtype=np.float64).ravel(),
                "head": ParamLayout(
                    {"weight": columns.shape, "bias": (out_dim,)}
                ).flatten(head_anchor),
            }

    def apply_update(self, grad: np.ndarray) -> None:
        self.optimizer.step(
            {"head": self.head.theta}, {"head": grad}, self.eta1, self._layouts
        )


@dataclass
class RoundStats:
    loss: float
    loss_vfl: float
    loss_cons: float
    batch_size: int


def run_round(
    parties: dict[int, PartyNode],
    server: ServerNode,
    batch: AlignedBatch,
    mode: TrainMode,
    round_index: int,
    transport: TransportLog,
    apply_updates: bool = True,
) -> tuple[RoundStats, dict[str, np.ndarray]]:
    """One synchronized round of split training.

    Gradients for the head and for every representation block are computed
    from the pre-update head weights; the head then steps with eta1 and the
    parties with eta2. Returns the round's stats and the flat gradient of
    the total loss for each model, keyed "head" and "party{k}" (split one
    by name with the model's `grads_dict`). With apply_updates=False this
    is a pure gradient evaluation, which is what the finite-difference
    checks drive.
    """
    if not mode.is_federated:
        raise ConfigError(f"mode {mode.value} does not run the split protocol")
    constrained = mode.uses_constraint
    if constrained and server.anchors is None:
        raise TrainingError(
            f"mode {mode.value} needs pre-trained anchors for the active party"
        )

    reps = {}
    for k in sorted(parties):
        msg = parties[k].forward(batch, round_index)
        transport.record(msg)
        reps[k] = msg.values
    h = np.concatenate([reps[k] for k in sorted(parties)], axis=1)
    logits, head_tape = server.head.forward(h)
    loss_vfl, dlogits = bce_with_logits(logits[:, 0], batch.labels)
    head_grad, dh = server.head.backward(head_tape, dlogits[:, None])

    loss_cons = 0.0
    if constrained:
        loss_cons, cons_grads = constraint_loss(
            {
                "encoder": parties[1].encoder.theta,
                "head": server.head.theta[server.head_active],
            },
            server.anchors,
        )
        head_grad[server.head_active] += server.beta * cons_grads["head"]
    loss = total_loss(loss_vfl, loss_cons, server.beta if constrained else 0.0)

    grads = {"head": head_grad}
    if apply_updates:
        server.apply_update(head_grad)

    for k in sorted(parties):
        gmsg = GradientMsg(round_index, k, dh[:, server.rep_slices[k]])
        transport.record(gmsg)
        grad = parties[k].backward(gmsg)
        if constrained and k == 1:
            grad = grad + server.beta * cons_grads["encoder"]
        grads[f"party{k}"] = grad
        if apply_updates:
            parties[k].apply_update(grad, server.eta2)

    stats = RoundStats(
        loss=loss, loss_vfl=loss_vfl, loss_cons=loss_cons, batch_size=batch.n
    )
    return stats, grads


def federated_predict(
    encoders: dict[int, TabularEncoder],
    head: Mlp,
    cat: dict[int, np.ndarray],
    num: dict[int, np.ndarray],
) -> np.ndarray:
    """Joint scores over fully aligned rows; deterministic, batch-invariant."""
    missing = sorted(set(encoders) - set(cat))
    if missing:
        raise SchemaError(f"no features supplied for parties {missing}")
    blocks = []
    n_rows = None
    for k in sorted(encoders):
        rep, _ = encoders[k].forward(cat[k], num[k])
        if n_rows is None:
            n_rows = rep.shape[0]
        elif rep.shape[0] != n_rows:
            raise SchemaError("parties disagree on the number of rows")
        blocks.append(rep)
    logits, _ = head.forward(np.concatenate(blocks, axis=1))
    return sigmoid(logits[:, 0])


# ---------------------------------------------------------------------------
# downstream orchestration


@dataclass(frozen=True)
class DownstreamConfig:
    beta: float = 0.1
    eta1: float = 1e-3  # head learning rate
    eta2: float = 1e-3  # party learning rate
    epochs: int = 40
    batch_size: int = 64
    optimizer: str = "adam"
    val_fraction: float = 0.1
    warm_start_active: bool = False
    seed: int = 0


@dataclass
class PretrainedWeights:
    """Everything the downstream stage may warm-start from or anchor to."""

    active: ActivePretrained | None = None
    passive: dict[int, dict[str, np.ndarray]] = field(default_factory=dict)


@dataclass
class TrainedFederation:
    """A trained downstream model; local_a's has party 1's encoder only."""

    mode: TrainMode
    encoders: dict[int, TabularEncoder]
    head: Mlp
    history: list[dict]
    transport: TransportLog


def _require_pretrained(
    mode: TrainMode, pretrained: PretrainedWeights | None, party_ids: list[int]
) -> PretrainedWeights:
    pretrained = pretrained or PretrainedWeights()
    if mode.uses_constraint and pretrained.active is None:
        raise TrainingError(
            f"mode {mode.value} needs the active party's pre-trained weights; "
            f"run the pretrain stage for party 1 first"
        )
    if mode.warm_starts_passive:
        for k in party_ids:
            if k > 1 and k not in pretrained.passive:
                raise TrainingError(
                    f"mode {mode.value} needs pre-trained weights for passive "
                    f"party {k}; run the pretrain stage first"
                )
    return pretrained


def train_downstream(
    ds: VerticalDataset,
    specs: dict[int, EncoderSpec],
    mode: TrainMode,
    pretrained: PretrainedWeights | None,
    cfg: DownstreamConfig,
) -> TrainedFederation:
    """Train one mode on the active aligned set and return the final weights.

    Every encoder is first drawn fresh from its init stream and then
    overwritten where the mode warm-starts, so two modes that differ only in
    warm starts see byte-identical randomness everywhere else. A
    val_fraction slice of the aligned set is held out for the per-epoch AUC
    in the history; final weights are the last epoch's (no early stopping).
    """
    if cfg.epochs < 0:
        raise ConfigError("epochs must be >= 0")
    if mode is TrainMode.LOCAL_A:
        sup_cfg = SupConfig(
            epochs=cfg.epochs,
            batch_size=cfg.batch_size,
            learning_rate=cfg.eta2,
            optimizer=cfg.optimizer,
            val_fraction=cfg.val_fraction,
        )
        model = pretrain_active(ds.parties[1], ds.labels, specs[1], sup_cfg, cfg.seed)
        history = [
            {"epoch": i + 1, "loss": loss, "loss_vfl": loss, "loss_cons": 0.0,
             "val_auc": None}
            for i, loss in enumerate(model.loss_trace)
        ]
        return TrainedFederation(
            mode=mode,
            encoders={1: model.build_encoder()},
            head=model.build_head(),
            history=history,
            transport=TransportLog(),
        )

    party_ids = sorted(ds.parties)
    if set(specs) != set(party_ids):
        raise ConfigError(
            f"encoder specs for parties {sorted(specs)} do not match dataset "
            f"parties {party_ids}"
        )
    pretrained = _require_pretrained(mode, pretrained, party_ids)
    if ds.aligned_count == 0:
        raise TrainingError("aligned set is empty; nothing to train on")

    parties: dict[int, PartyNode] = {}
    for k in party_ids:
        encoder = specs[k].build(stream(cfg.seed, "downstream", "init-party", k))
        if k > 1 and mode.warm_starts_passive:
            encoder.set_params(pretrained.passive[k])
        if k == 1 and cfg.warm_start_active:
            if pretrained.active is None:
                raise TrainingError(
                    "warm_start_active requires the active party's pre-trained weights"
                )
            encoder.set_params(pretrained.active.encoder_params)
        parties[k] = PartyNode(k, encoder, cfg.optimizer)

    rep_dims = {k: specs[k].rep_dim for k in party_ids}
    head = Mlp.init(
        stream(cfg.seed, "downstream", "init-head"), [sum(rep_dims.values()), 1]
    )
    encoder_anchor = head_anchor = None
    if mode.uses_constraint:
        active = pretrained.active
        encoder_anchor = active.build_encoder().theta
        head_anchor = {
            "weight": active.head_params["0.weight"],
            "bias": active.head_params["0.bias"],
        }
    server = ServerNode(
        head,
        rep_dims,
        beta=cfg.beta,
        eta1=cfg.eta1,
        eta2=cfg.eta2,
        optimizer=cfg.optimizer,
        encoder_anchor=encoder_anchor,
        head_anchor=head_anchor,
    )

    aligned = ds.aligned_ids()
    n_val = int(round(cfg.val_fraction * aligned.size))
    perm = stream(cfg.seed, "downstream", "val-split").permutation(aligned.size)
    val_ids = aligned[perm[:n_val]]
    train_view = ds.with_aligned_ids(aligned[perm[n_val:]])
    if train_view.aligned_count == 0:
        raise TrainingError("aligned set too small for the validation fraction")
    val_batch = ds.gather(val_ids) if n_val else None

    transport = TransportLog()
    history: list[dict] = []
    round_index = 0
    for epoch in range(1, cfg.epochs + 1):
        batches = sample_aligned_batches(train_view, cfg.batch_size, cfg.seed, epoch)
        tot = np.zeros(3)
        count = 0
        for batch in batches:
            stats, _ = run_round(
                parties, server, batch, mode, round_index, transport
            )
            round_index += 1
            tot += np.array([stats.loss, stats.loss_vfl, stats.loss_cons]) * batch.n
            count += batch.n
        val_auc = None
        if val_batch is not None:
            scores = federated_predict(
                {k: parties[k].encoder for k in party_ids},
                server.head,
                val_batch.cat,
                val_batch.num,
            )
            try:
                val_auc = auc(val_batch.labels, scores)
            except UndefinedMetricError:
                val_auc = None
        history.append(
            {
                "epoch": epoch,
                "loss": tot[0] / count,
                "loss_vfl": tot[1] / count,
                "loss_cons": tot[2] / count,
                "val_auc": val_auc,
            }
        )
    return TrainedFederation(
        mode=mode,
        encoders={k: parties[k].encoder for k in party_ids},
        head=server.head,
        history=history,
        transport=transport,
    )
