"""Split training across K parties with an optional knowledge-transfer constraint.

One round: each party encodes its feature block of the aligned mini-batch
and sends the representation to the server; the server concatenates the
blocks, runs the linear head, and forms

    loss = bce + beta * constraint

where the constraint is half the squared distance between the active
party's current parameters (its encoder, plus the head columns acting on
its representation block and the head bias) and the frozen weights from
its local pre-training run. The server computes all gradients with the
pre-update head and returns each party the gradient of the loss w.r.t. its
representation block; parties backprop. Then every model steps at once:
the head with eta1 and the parties with eta2. All cross-boundary payloads
go through the transport log so tests can audit that no raw feature column
or label vector ever leaves its owner.

The forward and backward pass is `Federation.forward_backward`. Local
training (`sup_pretrain`: the active party's pre-training and the local_a
baseline) runs the same method over a one-party Federation, without messages.
Every trainer's epochs run in `fit`, each with its own step (a cell's
`run_round`, local training's step, the contrastive step of `ssl_pretrain`),
over one batch source: `data.hold_out` splits a supervised trainer's rows
once, and `data.sample_aligned_batches` cuts each epoch of the rest.
"""
from __future__ import annotations

import enum
import hashlib
from array import array
from collections import namedtuple
from dataclasses import InitVar, dataclass, field

import numpy as np

from .data import AlignedBatch, VerticalDataset, hold_out, sample_aligned_batches
from .errors import ConfigError, SchemaError, TrainingError, UndefinedMetricError
from .metrics import auc
from .nn import (
    Mlp,
    TabularEncoder,
    bce_with_logits,
    check_labels,
    make_optimizer,
    sigmoid,
)
from .nn.layers import EncoderSpec, ModelSet
from .nn.optim import check_schedule
from .rng import stream


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


def pretrained_needs(modes: list[TrainMode], warm_start_active: bool) -> tuple[bool, bool]:
    """Whether cells of `modes` need the active party's and the passive parties'
    pre-trained weights: the active's for the constraint or for a federated
    cell's warm_start_active, the passives' for their warm start. local_a
    trains from scratch and needs neither."""
    need_active = any(
        m.uses_constraint or (warm_start_active and m.is_federated) for m in modes
    )
    return need_active, any(m.warm_starts_passive for m in modes)


# ---------------------------------------------------------------------------
# messages and the transport log

DIR_TO_SERVER = 0
DIR_TO_PARTY = 1
KIND_REPRESENTATION = 1
KIND_GRADIENT = 2
MAX_ROUNDS = 2**32 - 1  # a round index is one unsigned 32-bit log entry


class _Message:
    """One payload crossing a party boundary in round `round_index`."""

    __slots__ = ("round_index", "party_id", "values")

    def __init__(self, round_index: int, party_id: int, values: np.ndarray):
        self.round_index = round_index
        self.party_id = party_id
        self.values = values


class RepresentationMsg(_Message):
    """A party's representation block, [batch, rep_dim] float64, up to the server."""

    __slots__ = ()
    direction = DIR_TO_SERVER


class GradientMsg(_Message):
    """The gradient w.r.t. a party's representation block, down to the party."""

    __slots__ = ()
    direction = DIR_TO_PARTY


_F8 = np.dtype("<f8")


def _digest(values: np.ndarray) -> bytes:
    return hashlib.sha256(np.ascontiguousarray(values)).digest()


def content_hash(values: np.ndarray) -> str:
    """sha256 of the C-order little-endian bytes of the array."""
    return _digest(values).hex()


# one logged message, as `TransportLog.records` builds it on access
TransportRecord = namedtuple(
    "TransportRecord", "round_index direction party_id kind rows cols payload_hash"
)


class TransportLog:
    """Append-only record of every cross-boundary payload: round, direction,
    party, rows and cols of each message as five consecutive unsigned 32-bit
    entries of one array, and each payload's 32-byte sha256 digest in one
    bytearray. `records` is built on access."""

    def __init__(self):
        self._fields = array("I")
        self.digests = bytearray()

    def record(self, msg: RepresentationMsg | GradientMsg) -> None:
        values = np.ascontiguousarray(msg.values, _F8)
        rows, cols = values.shape  # anything but a 2-D payload raises before the log grows
        try:
            self._fields.extend((msg.round_index, msg.direction, msg.party_id, rows, cols))
        except OverflowError:
            del self._fields[len(self.digests) // 32 * 5 :]  # no partial entry
            raise SchemaError(
                f"message of round {msg.round_index}, party {msg.party_id}, shape "
                f"{values.shape} has a field outside [0, 2**32)"
            ) from None
        self.digests += hashlib.sha256(values).digest()

    def fields(self) -> np.ndarray:
        """An [n, 5] uint32 view: round, direction, party, rows, cols. Drop it
        before the next `record`, which cannot grow an array that exports its
        buffer."""
        return np.frombuffer(self._fields, dtype=np.uint32).reshape(-1, 5)

    def digest(self, i: int) -> bytes:
        return bytes(self.digests[32 * i : 32 * i + 32])

    @property
    def records(self) -> list[TransportRecord]:
        kind = {DIR_TO_SERVER: KIND_REPRESENTATION, DIR_TO_PARTY: KIND_GRADIENT}
        return [
            TransportRecord(r, d, p, kind[d], n, c, self.digest(i).hex())
            for i, (r, d, p, n, c) in enumerate(self.fields().tolist())
        ]


@dataclass
class AuditReport:
    ok: bool
    n_messages: int
    n_rounds: int
    violations: list[str]
    balanced_rounds: bool  # every round has K up and K down messages


def _raw_column_digests(ds: VerticalDataset) -> dict[bytes, str]:
    """Digests of everything that must never appear as a payload."""
    out: dict[bytes, str] = {}
    for k, view in ds.parties.items():
        for j, f in enumerate(view.cat_fields):
            col = view.cat[:, j]
            out[_digest(col)] = f"party {k} column {f.name!r} (int64)"
            out[_digest(col.astype(np.float64))] = (
                f"party {k} column {f.name!r} (as float64)"
            )
        for j, f in enumerate(view.num_fields):
            out[_digest(view.num[:, j])] = f"party {k} column {f.name!r}"
    out[_digest(ds.labels)] = "label vector"
    return out


def audit_transport(log: TransportLog, ds: VerticalDataset) -> AuditReport:
    """Compare every logged payload digest against raw columns and labels.

    This is an instrument, not a proof: it certifies that no payload was a
    byte-for-byte copy of a protected column during this run.
    """
    forbidden = _raw_column_digests(ds)
    fields = log.fields()
    # one pass over the first 8 bytes of every digest, a strided view of the
    # digest column; a message whose prefix matches is checked on its whole digest
    prefixes = np.frombuffer(log.digests, dtype="<u8")[::4]
    keys = np.frombuffer(b"".join(forbidden), dtype="<u8")[::4]
    violations = [
        f"round {fields[i, 0]}, party {fields[i, 2]}: payload equals {forbidden[d]}"
        for i in np.flatnonzero(np.isin(prefixes, keys))
        if (d := log.digest(i)) in forbidden
    ]
    # balance: messages and up messages per round index, of the rounds present
    rounds = fields[:, 0]
    if rounds.size and rounds.max() >= rounds.size:
        # indices skipped wholesale: number the rounds present first, so that no
        # count array outgrows the log
        rounds = np.unique(rounds, return_inverse=True)[1]
    total = np.bincount(rounds)
    ups = np.bincount(rounds[fields[:, 1] == DIR_TO_SERVER], minlength=total.size)
    present = total > 0
    k = ds.k_parties
    return AuditReport(
        ok=not violations,
        n_messages=len(fields),
        n_rounds=int(np.count_nonzero(present)),
        violations=violations,
        balanced_rounds=bool(np.all(ups[present] == k) and np.all(total[present] == 2 * k)),
    )


# ---------------------------------------------------------------------------
# loss pieces


def constraint_loss(
    params: dict[str, np.ndarray], anchors: dict[str, np.ndarray]
) -> tuple[float, dict[str, np.ndarray]]:
    """0.5 * sum((theta - anchor)^2) over every entry, and its gradient.

    The value is a raw sum over coordinates, not a mean, so the pull toward
    the anchor is independent of how the parameters are grouped. The
    gradient w.r.t. theta is exactly (theta - anchor). `anchors` has an
    array of each param's shape under each of its names; a Federation checks
    that once, when it is built.
    """
    value = 0.0
    grads = {}
    for name, p in params.items():
        diff = p - anchors[name]
        value += float(np.add.reduce(diff * diff, axis=None))
        grads[name] = diff
    return 0.5 * value, grads


def total_loss(loss_vfl: float, loss_cons: float, beta: float) -> float:
    """loss_vfl + beta * loss_cons; beta == 0 returns loss_vfl bit-for-bit."""
    if beta == 0.0:
        return loss_vfl
    return loss_vfl + beta * loss_cons


# ---------------------------------------------------------------------------
# the round state


class Federation(ModelSet):
    """The state of one run's rounds. The head and each party's encoder, in
    id order, are copied into one ModelSet ("head", "party<k>"); `head` and
    `encoders[k]` are the models over its slices, and the caller's models are
    left as they were. `lr` is eta1 on the head's entries and eta2 on the
    parties', so a round takes one step. `rep_slices[k]` is party k's block
    of the head input. The head must be linear with one logit, [in_dim, 1]
    (SchemaError otherwise).

    `anchored` holds the entries of `theta` that the constraint pulls: party
    1's encoder ("encoder"), and the head's weight columns over party 1's
    block, then its bias ("head"). `anchors` holds copies of their
    pre-trained values in that order, or None without an `anchor`: the
    `ActivePretrained` model's encoder theta and its head theta, the head's
    [1, rep_dim] weight and then its bias. The anchor's spec must be party
    1's (SchemaError). A round is constrained exactly when the Federation
    holds anchors.

    What a round reads is laid out once, here: `parties` lists each party's
    (id, encoder, block of the head input) in id order, and every model
    writes its backward pass into its slice of `grad`.
    """

    def __init__(
        self,
        encoders: dict[int, TabularEncoder],
        head: Mlp,
        beta: float,
        eta1: float,
        eta2: float,
        optimizer: str = "adam",
        anchor: ActivePretrained | None = None,
    ):
        ids = sorted(encoders)
        super().__init__({"head": head, **{f"party{k}": encoders[k] for k in ids}})
        self.head = self.models["head"]
        self.encoders = {k: self.models[f"party{k}"] for k in ids}
        if len(head.dims) != 2:
            raise SchemaError(
                f"the head must be linear (one layer), got dims {list(head.dims)}"
            )
        in_dim, out_dim = head.dims
        self.rep_slices: dict[int, slice] = {}
        off = 0
        for k in ids:
            self.rep_slices[k] = slice(off, off + encoders[k].rep_dim)
            off = self.rep_slices[k].stop
        if in_dim != off:
            raise SchemaError(
                f"head input dim {in_dim} does not match total "
                f"representation dim {off}"
            )
        if out_dim != 1:
            raise SchemaError(f"the head must output one logit, got {out_dim}")
        self.parties = [(k, self.encoders[k], self.rep_slices[k]) for k in ids]
        self.beta = beta
        self.lr = np.full(self.theta.size, eta2)
        self.lr[self.spans["head"]] = eta1
        self.optimizer = make_optimizer(optimizer)
        sl = self.rep_slices[1]
        # the head's entries are its [1, in_dim] weight, then its one bias
        self.anchored = {
            "encoder": self.spans["party1"],
            "head": self.spans["head"].start + np.r_[sl.start : sl.stop, in_dim],
        }
        self.anchors: dict[str, np.ndarray] | None = None
        if anchor is not None:
            if anchor.spec != self.encoders[1].spec:
                raise SchemaError(f"the anchor's encoder spec {anchor.spec} is not "
                                  f"party 1's {self.encoders[1].spec}")
            self.anchors = {"encoder": anchor.encoder.theta.copy(),
                            "head": anchor.head.theta.copy()}

    def forward_backward(self, cat, num, labels, record=None, round_index: int = 0) -> float:
        """One batch through every model and back, the step every trainer takes;
        returns the mean BCE. Each encoder reads its party's block, `cat[k]`
        and `num[k]`, the head the representations side by side (one party's
        as it is), and the backward passes write the whole of `grad`. `record`,
        when given, gets each party's RepresentationMsg of round `round_index`,
        then each party's GradientMsg. The caller checks the labels once.
        """
        reps, tapes = zip(*[encoder.forward(cat[k], num[k]) for k, encoder, _ in self.parties])
        if record is not None:
            for (k, _, _), rep in zip(self.parties, reps):
                record(RepresentationMsg(round_index, k, rep))
        h = np.concatenate(reps, axis=1) if reps[1:] else reps[0]
        logits, head_tape = self.head.forward(h)
        loss, dlogits = bce_with_logits(logits[:, 0], labels)
        _, dh = self.head.backward(head_tape, dlogits[:, None])
        for (k, encoder, block), tape in zip(self.parties, tapes):
            drep = dh[:, block]
            if record is not None:
                record(GradientMsg(round_index, k, drep))
            encoder.backward(tape, drep)
        return loss


@dataclass
class RoundStats:
    loss: float
    loss_vfl: float
    loss_cons: float


def run_round(
    fed: Federation, batch: tuple, round_index: int, transport: TransportLog
) -> RoundStats:
    """One synchronized round of split training over `batch`, a (cat, num,
    labels) triple of `sample_aligned_batches`; returns its stats.

    `fed.forward_backward` computes every gradient from the pre-update head
    into `fed.grad`, overwriting it whole, and logs the round's messages in
    `transport`. When the Federation holds anchors the round is constrained:
    the constraint's gradient, times beta, is added to the anchored entries
    and the loss is `total_loss`; without anchors loss_cons is 0.0 and the
    loss is loss_vfl. Then one optimizer step moves the head with eta1 and
    the parties with eta2. `train_downstream` checks the batch labels once
    per cell, and gives the Federation anchors exactly in a constrained mode.
    """
    loss_vfl = fed.forward_backward(*batch, transport.record, round_index)
    loss, loss_cons = loss_vfl, 0.0
    if fed.anchors is not None:
        loss_cons, diffs = constraint_loss(
            {n: fed.theta[at] for n, at in fed.anchored.items()}, fed.anchors
        )
        for n, at in fed.anchored.items():
            fed.grad[at] += fed.beta * diffs[n]
        loss = total_loss(loss_vfl, loss_cons, fed.beta)
    fed.optimizer.step(fed.theta, fed.grad, fed.lr, fed.layout)
    return RoundStats(loss, loss_vfl, loss_cons)


def federated_predict(
    encoders: dict[int, TabularEncoder],
    head: Mlp,
    cat: dict[int, np.ndarray],
    num: dict[int, np.ndarray],
) -> np.ndarray:
    """Joint scores over fully aligned rows; deterministic, batch-invariant.
    The head's input width must be the encoders' summed rep_dim (SchemaError)."""
    missing = sorted(set(encoders) - set(cat))
    if missing:
        raise SchemaError(f"no features supplied for parties {missing}")
    width = sum(encoder.rep_dim for encoder in encoders.values())
    if head.dims[0] != width:
        raise SchemaError(
            f"head input dim {head.dims[0]} does not match total representation dim {width}"
        )
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


def validation_auc(fed: Federation, val: AlignedBatch) -> float | None:
    """AUC of `federated_predict`'s scores on held-out rows, as a training
    loop scores an epoch; None when single-class labels leave it undefined."""
    try:
        return auc(val.labels, federated_predict(fed.encoders, fed.head, val.cat, val.num))
    except UndefinedMetricError:
        return None


def fit(fed: Federation, epochs: int, batches, step, val) -> tuple[list[dict], tuple]:
    """The epoch loop of every trainer. Epoch e runs `step`, which returns a
    RoundStats, on each (batch, rows) of `batches(e)`, and its row holds the
    stats' row-weighted means and the `validation_auc` of `val`, the held-out
    AlignedBatch or None (then `fed` is not read); a non-finite loss is a
    TrainingError.
    Returns the rows and the first strictly best epoch as (AUC, epoch, a copy
    of fed.theta), or (None, epochs, None) when no epoch was scored."""
    history, best = [], (None, epochs, None)
    for epoch in range(1, epochs + 1):
        n, loss, loss_vfl, loss_cons = 0, 0.0, 0.0, 0.0
        for batch, rows in batches(epoch):
            stats = step(batch)
            n += rows
            loss += stats.loss * rows
            loss_vfl += stats.loss_vfl * rows
            loss_cons += stats.loss_cons * rows
        row = {"epoch": epoch, "loss": loss / n, "loss_vfl": loss_vfl / n,
               "loss_cons": loss_cons / n, "val_auc": None}
        if not np.isfinite(row["loss"]):
            raise TrainingError(f"training loss non-finite at epoch {epoch}")
        if val is not None:
            row["val_auc"] = score = validation_auc(fed, val)
            if score is not None and (best[0] is None or score > best[0]):
                best = (score, epoch, fed.theta.copy())
        history.append(row)
    return history, best


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

    def __post_init__(self):
        check_schedule(
            self.epochs, self.batch_size, eta1=self.eta1, eta2=self.eta2, beta=self.beta
        )
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must be in [0, 1), got {self.val_fraction}")


@dataclass
class ActivePretrained:
    """The active party's model from its local run, built once: `encoder` and
    its linear `head`, [rep_dim, 1], hold copies of encoder_params and
    head_params, the best validation-AUC epoch's (or the last epoch's when
    validation AUC was undefined, flagged by degenerate_validation), and
    `history` its run's `fit` rows."""

    spec: EncoderSpec
    encoder_params: InitVar[dict[str, np.ndarray]]
    head_params: InitVar[dict[str, np.ndarray]]
    best_epoch: int
    val_auc: float | None
    degenerate_validation: bool
    history: list[dict] = field(default_factory=list)
    encoder: TabularEncoder = field(init=False)
    head: Mlp = field(init=False)

    def __post_init__(self, encoder_params, head_params):
        self.encoder = self.spec.build_empty()
        self.encoder.set_params(encoder_params)
        self.head = Mlp([self.spec.rep_dim, 1])
        self.head.set_params(head_params)


@dataclass
class PretrainedWeights:
    """Everything the downstream stage may warm-start from or anchor to, and
    each passive party's contrastive loss trace from pre-training."""

    active: ActivePretrained | None = None
    passive: dict[int, TabularEncoder] = field(default_factory=dict)
    ssl_traces: dict[int, list[float]] = field(default_factory=dict)


@dataclass
class TrainedFederation:
    """A trained downstream model; local_a's has party 1's encoder only.
    `transport` holds the messages of `train_downstream`'s cell until
    `run_cell` audits them; otherwise it is None."""

    mode: TrainMode
    encoders: dict[int, TabularEncoder]
    head: Mlp
    history: list[dict]
    transport: TransportLog | None = None


def _warm_starts(mode: TrainMode, warm_start_active: bool, pretrained: PretrainedWeights | None,
                 specs: dict[int, EncoderSpec]) -> dict[int, TabularEncoder]:
    """Each warm-started party's pre-trained encoder: party 1's under warm_start_active,
    the passives' where the mode warm-starts them. Weights the mode needs (the anchor's
    too) that are missing raise TrainingError; a spec not the party's, SchemaError."""
    pretrained = pretrained or PretrainedWeights()
    need_active, need_passive = pretrained_needs([mode], warm_start_active)
    if need_active and pretrained.active is None:
        raise TrainingError(
            f"mode {mode.value} (warm_start_active={warm_start_active}) needs the "
            f"active party's pre-trained weights; run the pretrain stage for party 1 first"
        )
    starts = {1: pretrained.active.encoder} if warm_start_active else {}
    for k in [k for k in sorted(specs) if k > 1] if need_passive else []:
        if k not in pretrained.passive:
            raise TrainingError(f"mode {mode.value} needs pre-trained weights for passive "
                                f"party {k}; run the pretrain stage first")
        starts[k] = pretrained.passive[k]
    for k in starts:
        if starts[k].spec != specs[k]:
            raise SchemaError(f"party {k}'s pre-trained encoder spec {starts[k].spec} "
                              f"is not its spec {specs[k]}")
    return starts


def train_downstream(
    ds: VerticalDataset,
    specs: dict[int, EncoderSpec],
    mode: TrainMode,
    pretrained: PretrainedWeights | None,
    cfg: DownstreamConfig,
    seed: int,
    count: int,
) -> TrainedFederation:
    """Train one mode on the first `count` aligned IDs and return the final weights.

    A warm-started party's pre-trained encoder goes to the Federation, which
    copies it, and only the others are drawn, each from its own init stream: so
    two modes that differ only in warm starts see byte-identical randomness
    everywhere else. A constrained mode anchors to `pretrained.active`. A
    val_fraction slice of the aligned set is held out for the per-epoch AUC
    in the history (DataError when it leaves no training row); final weights
    are the last epoch's (no early stopping).
    local_a is no split training and is refused (ConfigError): it trains with
    `sup_pretrain.train_local`.
    """
    if not mode.is_federated:
        raise ConfigError(f"mode {mode.value} does not run the split protocol")
    party_ids = sorted(ds.parties)
    if set(specs) != set(party_ids):
        raise ConfigError(
            f"encoder specs for parties {sorted(specs)} do not match dataset "
            f"parties {party_ids}"
        )
    starts = _warm_starts(mode, cfg.warm_start_active, pretrained, specs)
    # the cell's rows, validation rows included, gathered and resolved to
    # embedding rows once; each epoch permutes and slices the training rows
    aligned = ds.gather(ds.aligned_ids(count))
    check_labels(aligned.labels)

    encoders = {k: starts[k] if k in starts
                else specs[k].build(stream(seed, "downstream", "init-party", k))
                for k in party_ids}
    head = Mlp.init(
        stream(seed, "downstream", "init-head"),
        [sum(specs[k].rep_dim for k in party_ids), 1],
    )
    fed = Federation(encoders, head, cfg.beta, cfg.eta1, cfg.eta2, cfg.optimizer,
                     pretrained.active if mode.uses_constraint else None)

    aligned.cat = {k: fed.encoders[k].resolve(cat) for k, cat in aligned.cat.items()}
    train, val = hold_out(aligned, cfg.val_fraction, stream(seed, "downstream", "val-split"))
    n_rounds = cfg.epochs * -(-train.n // cfg.batch_size)
    if n_rounds > MAX_ROUNDS:
        raise ConfigError(
            f"{cfg.epochs} epochs of batch {cfg.batch_size} make {n_rounds} rounds; "
            f"a transport log holds at most {MAX_ROUNDS}"
        )
    transport, rounds = TransportLog(), iter(range(n_rounds))
    history, _ = fit(
        fed, cfg.epochs,
        lambda e: sample_aligned_batches(train, cfg.batch_size, stream(seed, "aligned-batches", e)),
        lambda batch: run_round(fed, batch, next(rounds), transport),
        val,
    )
    return TrainedFederation(mode, fed.encoders, fed.head, history, transport)
