"""Self-supervised pre-training for passive parties.

Each passive party trains its encoder on its full local table, labels not
required: every sample is paired with a corrupted copy where a fixed
fraction of feature positions is resampled from the per-feature empirical
marginals, and an InfoNCE objective pulls the two views together through a
projection head. Only the encoder weights survive; the projection head is
scaffolding.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PartyView
from .errors import ConfigError, SchemaError, TrainingError
from .nn import Mlp, TabularEncoder, make_optimizer
from .nn.layers import EncoderSpec
from .rng import stream

EPS_NORM = 1e-12


# ---------------------------------------------------------------------------
# corruption


@dataclass
class CorruptionModel:
    """Per-feature empirical marginals of one party's local table.

    Categorical fields keep (values, probabilities); numerical fields keep a
    sorted copy of the observed column. Sampling a replacement is equivalent
    to copying the feature value of a uniformly random training row.
    """

    rate: float
    cat_values: list[np.ndarray]
    cat_probs: list[np.ndarray]
    num_values: list[np.ndarray]

    @classmethod
    def fit(cls, view: PartyView, rate: float) -> "CorruptionModel":
        if not 0.0 <= rate <= 1.0:
            raise ConfigError(f"corruption rate must be in [0, 1], got {rate}")
        if view.n == 0:
            raise ConfigError("cannot fit corruption marginals on an empty table")
        cat_values, cat_probs, num_values = [], [], []
        for j in range(view.cat.shape[1]):
            values, counts = np.unique(view.cat[:, j], return_counts=True)
            cat_values.append(values)
            cat_probs.append(counts / counts.sum())
        for j in range(view.num.shape[1]):
            num_values.append(np.sort(view.num[:, j]))
        return cls(rate, cat_values, cat_probs, num_values)


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
    """
    n = cat.shape[0]
    n_cat = len(model.cat_values)
    n_num = len(model.num_values)
    if cat.shape[1] != n_cat or num.shape[1] != n_num or num.shape[0] != n:
        raise SchemaError(
            f"batch shape ({cat.shape}, {num.shape}) does not match marginals "
            f"({n_cat} categorical, {n_num} numerical)"
        )
    d = n_cat + n_num
    m = int(np.ceil(model.rate * d))
    cat_out = cat.copy()
    num_out = num.copy()
    mask = np.zeros((n, d), dtype=bool)
    if m == 0 or n == 0:
        return cat_out, num_out, mask
    # m distinct positions per row: argsort of iid uniforms
    scores = rng.random((n, d))
    picked = np.argsort(scores, axis=1, kind="stable")[:, :m]
    np.put_along_axis(mask, picked, True, axis=1)
    for j in range(n_cat):
        rows = np.nonzero(mask[:, j])[0]
        if rows.size:
            cat_out[rows, j] = rng.choice(
                model.cat_values[j], size=rows.size, p=model.cat_probs[j]
            )
    for j in range(n_num):
        rows = np.nonzero(mask[:, n_cat + j])[0]
        if rows.size:
            vals = model.num_values[j]
            num_out[rows, j] = vals[rng.integers(0, vals.size, size=rows.size)]
    return cat_out, num_out, mask


# ---------------------------------------------------------------------------
# contrastive objective


def cosine_similarity_matrix(z: np.ndarray, z_tilde: np.ndarray) -> np.ndarray:
    """All-pairs cosine similarities; norms clamped at 1e-12."""
    z = np.asarray(z, dtype=np.float64)
    z_tilde = np.asarray(z_tilde, dtype=np.float64)
    if z.ndim != 2 or z.shape != z_tilde.shape:
        raise SchemaError(
            f"views must be equal-shape 2-d arrays, got {z.shape} and {z_tilde.shape}"
        )
    zn = np.maximum(np.linalg.norm(z, axis=1, keepdims=True), EPS_NORM)
    tn = np.maximum(np.linalg.norm(z_tilde, axis=1, keepdims=True), EPS_NORM)
    return (z / zn) @ (z_tilde / tn).T


def info_nce(similarities: np.ndarray, temperature: float) -> tuple[float, np.ndarray]:
    """Contrastive loss over a similarity matrix and its gradient.

    With A = S / tau and N rows, the per-row loss is
    -A_ii + logsumexp_j(A_ij) - log N, averaged over rows; the log N term
    comes from the mean inside the log, so a matrix with all entries equal
    scores exactly 0. The gradient is (softmax(A) - I) / (N * tau), computed
    through a max-shifted logsumexp.
    """
    if temperature <= 0.0:
        raise ConfigError(f"temperature must be positive, got {temperature}")
    s = np.asarray(similarities, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] == 0:
        raise SchemaError(f"similarity matrix must be square, got {s.shape}")
    n = s.shape[0]
    a = s / temperature
    shift = a.max(axis=1, keepdims=True)
    e = np.exp(a - shift)
    sum_e = e.sum(axis=1, keepdims=True)
    lse = np.log(sum_e[:, 0]) + shift[:, 0]
    loss = float(np.mean(-np.diagonal(a) + lse - np.log(n)))
    p = e / sum_e
    grad = (p - np.eye(n)) / (n * temperature)
    return loss, grad


@dataclass
class ContrastiveBatchResult:
    similarities: np.ndarray
    temperature: float
    loss: float
    grad_z: np.ndarray
    grad_z_tilde: np.ndarray


def _cosine_backward(
    z: np.ndarray, z_tilde: np.ndarray, ds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    zn = np.linalg.norm(z, axis=1, keepdims=True)
    tn = np.linalg.norm(z_tilde, axis=1, keepdims=True)
    zc = np.maximum(zn, EPS_NORM)
    tc = np.maximum(tn, EPS_NORM)
    zh = z / zc
    th = z_tilde / tc
    dzh = ds @ th
    dth = ds.T @ zh
    # gradient through x / max(||x||, eps): the projection term only exists
    # where the norm is not clamped
    def through(xh, dxh, norm, clamped_norm):
        proj = (xh * dxh).sum(axis=1, keepdims=True)
        live = norm > EPS_NORM
        return np.where(live, (dxh - xh * proj) / clamped_norm, dxh / clamped_norm)

    return through(zh, dzh, zn, zc), through(th, dth, tn, tc)


def contrastive_batch(
    z: np.ndarray, z_tilde: np.ndarray, temperature: float
) -> ContrastiveBatchResult:
    """Cosine similarities + InfoNCE, with gradients w.r.t. both views."""
    s = cosine_similarity_matrix(z, z_tilde)
    loss, ds = info_nce(s, temperature)
    grad_z, grad_zt = _cosine_backward(
        np.asarray(z, dtype=np.float64), np.asarray(z_tilde, dtype=np.float64), ds
    )
    return ContrastiveBatchResult(
        similarities=s,
        temperature=temperature,
        loss=loss,
        grad_z=grad_z,
        grad_z_tilde=grad_zt,
    )


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


def default_projection(rng: np.random.Generator, rep_dim: int, hidden) -> Mlp:
    return Mlp.init(rng, [rep_dim, *hidden, rep_dim])


def pretrain_passive(
    view: PartyView, spec: EncoderSpec, cfg: SslConfig, seed: int
) -> tuple[TabularEncoder, list[float]]:
    """Train one passive party's encoder on its local table.

    Returns the encoder and a loss trace of length epochs + 1: entry 0 is a
    no-update pass over the data with the initial weights, each later entry
    is the mean batch loss of one epoch. Deterministic in (view, cfg, seed).

    The projection head is trained jointly and then dropped; downstream
    training warm-starts from the encoder weights alone.
    """
    if view.party_id <= 1:
        raise ConfigError(
            "self-supervised pre-training targets passive parties (party id > 1)"
        )
    if cfg.epochs < 0 or cfg.batch_size < 1:
        raise ConfigError("epochs must be >= 0 and batch_size >= 1")
    k = view.party_id
    encoder = spec.build(stream(seed, "ssl", k, "init-encoder"))
    projection = default_projection(
        stream(seed, "ssl", k, "init-projection"), spec.rep_dim, cfg.projection_hidden
    )
    marginals = CorruptionModel.fit(view, cfg.corruption_rate)
    corrupt_rng = stream(seed, "ssl", k, "corruption")
    probe_rng = stream(seed, "ssl", k, "probe")
    optimizer = make_optimizer(cfg.optimizer)
    params = {"enc": encoder.theta, "proj": projection.theta}
    layouts = {"enc": encoder.layout, "proj": projection.layout}

    def batch_ranges(epoch: int) -> list[np.ndarray]:
        perm = stream(seed, "ssl", k, "shuffle", epoch).permutation(view.n)
        return [
            perm[i : i + cfg.batch_size] for i in range(0, view.n, cfg.batch_size)
        ]

    def batch_loss(rows: np.ndarray, rng, update: bool) -> float:
        cat = view.cat[rows]
        num = view.num[rows]
        ccat, cnum, _ = corrupt(cat, num, marginals, rng)
        r_clean, tape_clean = encoder.forward(cat, num)
        z, ptape_clean = projection.forward(r_clean)
        r_corr, tape_corr = encoder.forward(ccat, cnum)
        zt, ptape_corr = projection.forward(r_corr)
        result = contrastive_batch(z, zt, cfg.temperature)
        if update:
            pg_clean, dr_clean = projection.backward(ptape_clean, result.grad_z)
            pg_corr, dr_corr = projection.backward(ptape_corr, result.grad_z_tilde)
            eg_clean = encoder.backward(tape_clean, dr_clean)
            eg_corr = encoder.backward(tape_corr, dr_corr)
            grads = {"enc": eg_clean + eg_corr, "proj": pg_clean + pg_corr}
            optimizer.step(params, grads, cfg.learning_rate, layouts)
        return result.loss

    def epoch_pass(epoch: int, rng, update: bool) -> float:
        total, count = 0.0, 0
        for rows in batch_ranges(epoch):
            total += batch_loss(rows, rng, update) * rows.size
            count += rows.size
        return total / count

    trace = [epoch_pass(0, probe_rng, update=False)]
    for epoch in range(1, cfg.epochs + 1):
        loss = epoch_pass(epoch, corrupt_rng, update=True)
        if not np.isfinite(loss):
            raise TrainingError(
                f"party {k}: contrastive loss became non-finite at epoch {epoch}"
            )
        trace.append(loss)
    return encoder, trace
