"""Self-supervised pre-training for passive parties.

Each passive party trains its encoder on its full local table, labels not
required: every sample is paired with a corrupted copy where a fixed
fraction of feature positions is resampled from the per-feature empirical
marginals, and an InfoNCE objective pulls the two views together through a
projection head. Only the encoder weights survive; the projection head is
scaffolding. The epochs run in `federated.fit`, as every trainer's epochs
do, over `data.sample_aligned_batches` of a one-party pool.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import AlignedBatch, PartyView, sample_aligned_batches
from .errors import ConfigError, SchemaError
from .federated import RoundStats, fit
from .nn import Mlp, TabularEncoder, make_optimizer
from .nn.layers import EncoderSpec, ModelSet
from .nn.optim import check_schedule
from .rng import stream

EPS_NORM = 1e-12
# 2^k -> 2^-k for k in [-64, 64]. For a power-of-two divisor d, x / d and
# x * (1 / d) round the same real number, so they are the same bits for every
# x, subnormals, infinities and NaN included; `d in` and `[d]` make no call.
EXACT_RECIPROCALS = {2.0**k: 2.0**-k for k in range(-64, 65)}


# ---------------------------------------------------------------------------
# corruption


@dataclass
class CorruptionModel:
    """Per-feature empirical marginals of one party's local table.

    Categorical fields keep (values, cdf as `Generator.choice` builds it);
    numerical fields keep `num_table`, one sorted observed column per row. A
    replacement is the feature value of a uniformly random training row.
    Fit on BlockRows, its values and so its replacements are embedding rows.
    """

    rate: float
    cat_values: list[np.ndarray]
    cat_cdfs: list[np.ndarray]
    num_table: np.ndarray  # [n_num, n]

    @classmethod
    def fit(cls, cat: np.ndarray, num: np.ndarray, rate: float) -> "CorruptionModel":
        if not 0.0 <= rate <= 1.0:
            raise ConfigError(f"corruption rate must be in [0, 1], got {rate}")
        if cat.shape[0] == 0:
            raise ConfigError("cannot fit corruption marginals on an empty table")
        cat_values, cat_cdfs = [], []
        for j in range(cat.shape[1]):
            values, counts = np.unique(cat[:, j], return_counts=True)
            cdf = (counts / counts.sum()).cumsum()
            cat_values.append(values)
            cat_cdfs.append(cdf / cdf[-1])
        num_table = num.T.copy()
        num_table.sort(axis=1)
        return cls(rate, cat_values, cat_cdfs, num_table)


def corrupt(
    cat: np.ndarray,
    num: np.ndarray,
    model: CorruptionModel,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resample exactly ceil(rate * d) feature positions per row.

    Feature positions are the categorical columns followed by the numerical
    columns. Returns (corrupted cat, corrupted num, boolean mask [n, d]) with
    the mask marking replaced positions. rate == 0 returns unchanged copies.
    A row's positions lead the stable argsort of its uniforms, so a tie goes
    to the lower column. Replacements are drawn for the cells in column-major
    order, with the bits and stream of one rng.choice or rng.integers per column.
    """
    n = cat.shape[0]
    n_cat = len(model.cat_values)
    n_num, n_table = model.num_table.shape
    if cat.shape[1] != n_cat or num.shape[1] != n_num or num.shape[0] != n:
        raise SchemaError(
            f"batch shape ({cat.shape}, {num.shape}) does not match marginals "
            f"({n_cat} categorical, {n_num} numerical)"
        )
    d = n_cat + n_num
    m = math.ceil(model.rate * d)
    cat_out, num_out = cat.copy(), num.copy()
    mask = np.zeros((n, d), dtype=bool)
    if m == 0 or n == 0:
        return cat_out, num_out, mask
    picked = rng.random((n, d)).argsort(axis=1, kind="stable")[:, :m]
    mask[np.arange(n)[:, None], picked] = True
    cols, rows = mask.T.nonzero()
    bounds = cols.searchsorted(np.arange(n_cat + 1))  # column j: cells [bounds[j], bounds[j+1])
    k = int(bounds[-1])  # the replaced cells are categorical [:k], then numerical [k:]
    if n_cat:
        u = rng.random(k)
        picks = [values.take(cdf.searchsorted(u[a:b], side="right")) for values, cdf, a, b
                 in zip(model.cat_values, model.cat_cdfs, bounds, bounds[1:])]
        cat_out.put(rows[:k] * n_cat + cols[:k], np.concatenate(picks))
    if k < rows.size:
        field = cols[k:] - n_cat
        picks = model.num_table.take(field * n_table + rng.integers(0, n_table, rows.size - k))
        num_out.put(rows[k:] * n_num + field, picks)
    return cat_out, num_out, mask


# ---------------------------------------------------------------------------
# contrastive objective


def _unit_rows(z: np.ndarray, z_tilde: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """(x / max(||x||, eps), max(||x||, eps)) of each float64 view, per row."""
    if z.ndim != 2 or z.shape != z_tilde.shape:
        raise SchemaError(
            f"views must be equal-shape 2-d arrays, got {z.shape} and {z_tilde.shape}"
        )
    rows = []
    for x in (z, z_tilde):  # the norm as np.linalg.norm computes it
        clamped = np.maximum(np.sqrt(np.add.reduce(x * x, axis=1, keepdims=True)), EPS_NORM)
        rows.append((x / clamped, clamped))
    return rows


def info_nce(s: np.ndarray, temperature: float) -> tuple[float, np.ndarray]:
    """Contrastive loss over a float64 similarity matrix S, and dL/dS written
    into S itself, which it returns.

    With A = S / tau and N rows, the per-row loss is
    -A_ii + logsumexp_j(A_ij) - log N, averaged over rows; the log N term
    comes from the mean inside the log, so a matrix with all entries equal
    scores exactly 0. The gradient is (softmax(A) - I) / (N * tau), computed
    through a max-shifted logsumexp.

    The two N x N divisions, by tau and by N * tau, are multiplies by the
    divisor's EXACT_RECIPROCALS entry when it has one (tau = 0.5 and N = 256
    give 2.0 and 1/128): the same bits at less cost. Any other divisor divides.
    """
    if temperature <= 0.0:
        raise ConfigError(f"temperature must be positive, got {temperature}")
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] == 0:
        raise SchemaError(f"similarity matrix must be square, got {s.shape}")
    n = s.shape[0]
    if temperature in EXACT_RECIPROCALS:
        a = np.multiply(s, EXACT_RECIPROCALS[temperature], out=s)
    else:
        a = np.divide(s, temperature, out=s)
    neg_diag = -a.diagonal()
    # the reductions that .max, .sum and np.mean make, called directly
    shift = np.maximum.reduce(a, axis=1, keepdims=True)
    a -= shift
    e = np.exp(a, out=a)
    sum_e = np.add.reduce(e, axis=1, keepdims=True)
    lse = np.log(sum_e[:, 0]) + shift[:, 0]
    loss = float(np.add.reduce(neg_diag + lse - np.log(n)) / n)
    p = np.divide(e, sum_e, out=e)
    p.flat[:: n + 1] -= 1.0  # minus I: off the diagonal, p - 0.0 is p
    scale = n * temperature
    if scale in EXACT_RECIPROCALS:
        return loss, np.multiply(p, EXACT_RECIPROCALS[scale], out=p)
    return loss, np.divide(p, scale, out=p)


@dataclass
class ContrastiveBatchResult:
    loss: float
    grad_z: np.ndarray
    grad_z_tilde: np.ndarray


def _cosine_backward(z_rows, t_rows, ds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pull dL/dS back to both views, given _unit_rows' tuples for them."""
    (zh, zc), (th, tc) = z_rows, t_rows
    # gradient through x / max(||x||, eps): the projection term only exists
    # where the norm is not clamped, so a clamped row's is multiplied by 0
    def through(xh, dxh, clamped_norm):
        proj = np.add.reduce(xh * dxh, axis=1, keepdims=True) * (clamped_norm > EPS_NORM)
        return (dxh - xh * proj) / clamped_norm

    return through(zh, ds @ th, zc), through(th, ds.T @ zh, tc)


def contrastive_batch(
    z: np.ndarray, z_tilde: np.ndarray, temperature: float
) -> ContrastiveBatchResult:
    """Cosine similarities + InfoNCE of float64 views, with gradients w.r.t.
    both; the similarity matrix is the batch's one N x N array, turned into dL/dS."""
    z_rows, t_rows = _unit_rows(z, z_tilde)
    s = z_rows[0] @ t_rows[0].T
    loss, ds = info_nce(s, temperature)
    grad_z, grad_zt = _cosine_backward(z_rows, t_rows, ds)
    return ContrastiveBatchResult(loss=loss, grad_z=grad_z, grad_z_tilde=grad_zt)


# ---------------------------------------------------------------------------
# training loop


@dataclass(frozen=True)
class SslConfig:
    corruption_rate: float = 0.6
    temperature: float = 1.0
    learning_rate: float = 1e-3
    epochs: int = 30
    batch_size: int = 256
    optimizer: str = "adam"
    # projection head hidden widths; output width always equals rep_dim
    projection_hidden: tuple[int, ...] = (16,)

    def __post_init__(self):
        if not 0.0 <= self.corruption_rate <= 1.0:
            raise ConfigError(f"corruption_rate must be in [0, 1], got {self.corruption_rate}")
        if not self.temperature > 0:
            raise ConfigError(f"temperature must be > 0, got {self.temperature}")
        check_schedule(self.epochs, self.batch_size, learning_rate=self.learning_rate)
        if any(w < 1 for w in self.projection_hidden):
            raise ConfigError("projection_hidden widths must be >= 1")


@np.errstate(over="ignore", invalid="ignore")
def pretrain_passive(
    view: PartyView, spec: EncoderSpec, cfg: SslConfig, seed: int
) -> tuple[TabularEncoder, list[float]]:
    """Train one passive party's encoder on its local table.

    Returns the encoder and a loss trace of length epochs + 1: entry 0 is a
    no-update pass over the data with the initial weights, each later entry
    is the mean batch loss of one epoch. Deterministic in (view, cfg, seed).
    A diverging run overflows without numpy warnings and raises fit's or the
    optimizer's TrainingError as it is; `pretrain_for_seed` names the party.

    The projection head is trained jointly and then dropped; downstream
    training warm-starts from the encoder weights alone.
    """
    if view.party_id <= 1:
        raise ConfigError("self-supervised pre-training targets passive parties (party id > 1)")
    k = view.party_id
    net = ModelSet({"enc": spec.build(stream(seed, "ssl", k, "init-encoder")),
                    "proj": Mlp.init(stream(seed, "ssl", k, "init-projection"),
                                     [spec.rep_dim, *cfg.projection_hidden, spec.rep_dim])})
    encoder, projection = net.models.values()
    # the clean view's gradient, kept here while net.grad takes the corrupted view's
    clean_grad = np.empty_like(net.grad)
    table = encoder.resolve(view.cat)  # once: both views and the marginals take its rows
    marginals = CorruptionModel.fit(table, view.num, cfg.corruption_rate)
    # the party's rows, with zero labels that no step reads
    pool = AlignedBatch(view.ids, {k: table}, {k: view.num}, np.zeros(view.n))
    optimizer = make_optimizer(cfg.optimizer)

    def batches(epoch: int) -> list:
        return sample_aligned_batches(pool, cfg.batch_size,
                                      stream(seed, "ssl", k, "shuffle", epoch))

    def step(batch, rng=stream(seed, "ssl", k, "corruption"), update=True) -> RoundStats:
        cat, num = batch[0][k], batch[1][k]
        ccat, cnum, _ = corrupt(cat, num, marginals, rng)
        r_clean, tape_clean = encoder.forward(cat, num)
        z, ptape_clean = projection.forward(r_clean)
        r_corr, tape_corr = encoder.forward(ccat, cnum)
        zt, ptape_corr = projection.forward(r_corr)
        result = contrastive_batch(z, zt, cfg.temperature)
        if update:
            _, dr = projection.backward(ptape_clean, result.grad_z)
            encoder.backward(tape_clean, dr)
            clean_grad[...] = net.grad
            _, dr = projection.backward(ptape_corr, result.grad_z_tilde)
            encoder.backward(tape_corr, dr)
            net.grad += clean_grad
            optimizer.step(net.theta, net.grad, cfg.learning_rate, net.layout)
        return RoundStats(result.loss, result.loss, 0.0)

    probe_rng, probe = stream(seed, "ssl", k, "probe"), 0.0
    for batch, rows in batches(0):  # trace entry 0
        probe += step(batch, probe_rng, update=False).loss * rows
    history, _ = fit(net, cfg.epochs, batches, step, None)
    return encoder, [probe / view.n, *(row["loss"] for row in history)]
