"""Shared fixtures and helpers for the test suite.

Most tests build their own tiny inputs; the fixtures here exist for the
pieces that are expensive enough to share (a small synthetic bundle) or
fiddly enough to get wrong twice (finite-difference setups around relu).
"""
from __future__ import annotations

import numpy as np
import pytest

from vflhlp.data import AlignedBatch, SynthConfig, VerticalDataset, synth_generate
from vflhlp.federated import PartyNode, ServerNode, TrainMode, TransportLog, run_round
from vflhlp.nn import EncoderSpec, Mlp, TabularEncoder
from vflhlp.rng import stream


def tiny_synth_config(**overrides) -> SynthConfig:
    base = dict(
        k_parties=3,
        n_local=400,
        aligned_pool=120,
        n_validation=150,
        n_test=300,
        num_fields_per_party=(3, 3, 3),
        cat_fields_per_party=(1, 1, 1),
        cardinality=6,
        party_signal=(1.0, 0.8, 0.8),
        feature_noise=0.5,
        label_noise=0.45,
    )
    base.update(overrides)
    return SynthConfig(**base)


@pytest.fixture(scope="session")
def tiny_bundle():
    return synth_generate(tiny_synth_config(), seed=7)


def small_spec(n_cat: int = 1, n_num: int = 2, cardinality: int = 6,
               embed_dim: int = 3, hidden: tuple[int, ...] = (8,)) -> EncoderSpec:
    cat_fields = tuple((f"c{i}", cardinality) for i in range(n_cat))
    return EncoderSpec(cat_fields=cat_fields, num_fields=n_num,
                       embed_dim=embed_dim, hidden=hidden)


def draw_encoder_inputs(rng: np.random.Generator, spec: EncoderSpec,
                        n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    cat = np.column_stack([
        rng.integers(0, card, size=n_rows) for _, card in spec.cat_fields
    ]).astype(np.int64) if spec.cat_fields else np.zeros((n_rows, 0), np.int64)
    num = rng.uniform(0.0, 1.0, size=(n_rows, spec.num_fields))
    return cat, num


def min_relu_margin(encoder: TabularEncoder, cat: np.ndarray,
                    num: np.ndarray) -> float:
    """Smallest |preactivation| seen at any relu layer on this batch."""
    _, (_, (_, preacts)) = encoder.forward(cat, num)
    margin = np.inf
    for z in preacts[:-1]:  # every mlp layer but the last is relu
        margin = min(margin, float(np.abs(z).min()))
    return margin


def encoder_away_from_kinks(spec: EncoderSpec, cat: np.ndarray, num: np.ndarray,
                            seed: int, margin: float = 1e-3) -> TabularEncoder:
    """Build an encoder whose relu preactivations all clear ``margin``.

    Central differences with eps=1e-5 are only trustworthy when no relu
    flips branch under the perturbation, so FD tests resample the init
    until the batch stays clear of every kink.
    """
    for attempt in range(200):
        enc = spec.build(stream(seed, "gradcheck-init", attempt))
        if min_relu_margin(enc, cat, num) > margin:
            return enc
    raise AssertionError("could not find a kink-free initialization")


def mlp_away_from_kinks(dims: list[int], x: np.ndarray, seed: int,
                        margin: float = 1e-3) -> Mlp:
    for attempt in range(200):
        mlp = Mlp.init(stream(seed, "gradcheck-mlp", attempt), dims)
        _, (_, preacts) = mlp.forward(x)
        ok = all(float(np.abs(z).min()) > margin for z in preacts[:-1])
        if ok:
            return mlp
    raise AssertionError("could not find a kink-free initialization")


def build_federation(ds: VerticalDataset, specs, beta: float, seed: int,
                     optimizer: str = "adam", eta1: float = 1e-3,
                     eta2: float = 1e-3, encoder_anchor=None, head_anchor=None,
                     head_seed_path: tuple = ("head",)):
    """Fresh PartyNodes plus a ServerNode wired for ds, one per party."""
    parties = {
        k: PartyNode(k, specs[k].build(stream(seed, "party-init", k)), optimizer)
        for k in sorted(specs)
    }
    rep_dims = {k: specs[k].rep_dim for k in specs}
    head = Mlp.init(stream(seed, *head_seed_path), [sum(rep_dims.values()), 1])
    server = ServerNode(head, rep_dims, beta=beta, eta1=eta1, eta2=eta2,
                        optimizer=optimizer, encoder_anchor=encoder_anchor,
                        head_anchor=head_anchor)
    return parties, server


def split_round_grads(flat, parties, server) -> dict[str, np.ndarray]:
    """run_round's flat gradients as "head.<name>" and "party<k>.<name>" arrays."""
    grads = {f"head.{n}": g for n, g in server.head.grads_dict(flat["head"]).items()}
    for k, node in parties.items():
        for n, g in node.encoder.grads_dict(flat[f"party{k}"]).items():
            grads[f"party{k}.{n}"] = g
    return grads


def round_loss_setup(parties, server, batch: AlignedBatch, mode: TrainMode):
    """Closures for finite-difference checks over one federated round.

    Returns (loss_fn, grads_fn, params) where params holds the live
    arrays of every encoder and the head, named the way
    split_round_grads names run_round's gradients.
    """
    params: dict[str, np.ndarray] = {}
    for name, arr in server.head.params().items():
        params[f"head.{name}"] = arr
    for k, node in parties.items():
        for name, arr in node.encoder.params().items():
            params[f"party{k}.{name}"] = arr

    def loss_fn() -> float:
        stats, _ = run_round(parties, server, batch, mode, 0, TransportLog(),
                             apply_updates=False)
        return stats.loss

    def grads_fn() -> dict[str, np.ndarray]:
        _, flat = run_round(parties, server, batch, mode, 0, TransportLog(),
                            apply_updates=False)
        return split_round_grads(flat, parties, server)

    return loss_fn, grads_fn, params
