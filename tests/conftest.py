"""Shared fixtures and helpers for the test suite.

Most tests build their own tiny inputs; the fixtures here exist for the
pieces that are expensive enough to share (a small synthetic bundle) or
fiddly enough to get wrong twice (finite-difference setups around relu).
"""
from __future__ import annotations

import signal
import struct
from pathlib import Path

import numpy as np
import pytest

from vflhlp.data import AlignedBatch, SynthConfig, VerticalDataset, synth_generate
from vflhlp.federated import ActivePretrained, Federation, TransportLog, run_round
from vflhlp.nn import EncoderSpec, Mlp, TabularEncoder
from vflhlp.rng import stream

try:  # test_properties.py skips itself when hypothesis is not installed
    from hypothesis import settings
except ImportError:
    pass
else:
    # every property test draws the same examples on every run, keeps none
    # between runs, and has no per-example time limit (hosts vary in speed)
    settings.register_profile("vflhlp", derandomize=True, database=None, deadline=None)
    settings.load_profile("vflhlp")


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


# a CSV config over the fixture preset; its hash is pinned in test_config.py.
# A numerical field's cardinality is left out of the hash, given or not.
CSV_FIELDS = [
    {"name": "x1", "kind": "numerical", "party": 1},
    {"name": "c1", "kind": "categorical", "party": 1, "cardinality": 5},
    {"name": "x2", "kind": "numerical", "party": 2, "cardinality": 0},
]
PINNED_CSV_CONFIG = {
    "preset": "fixture",
    "grid": {"aligned_counts": [20, 40]},
    "data": {"kind": "csv", "csv": {"train_path": "train.csv", "test_path": "test.csv",
                                    "k_parties": 2, "aligned_pool": 40,
                                    "fields": CSV_FIELDS}},
}


@pytest.fixture(scope="session")
def tiny_bundle():
    return synth_generate(tiny_synth_config(), seed=7)


@pytest.fixture
def sigint_raises():
    """SIGINT raises KeyboardInterrupt during the test, as in a Python started
    from a terminal, even when the suite was started with SIGINT ignored."""
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    yield
    signal.signal(signal.SIGINT, previous)


def splice_metadata(path, meta: bytes) -> None:
    """Replace a checkpoint's metadata JSON with the raw bytes `meta` and
    rewrite its length field to match; the tensors stay as they were."""
    raw = Path(path).read_bytes()
    (old_len,) = struct.unpack_from("<I", raw, 8)
    Path(path).write_bytes(raw[:8] + struct.pack("<I", len(meta)) + meta + raw[12 + old_len:])


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


def fresh_models(specs, seed: int, head_seed_path: tuple = ("head",)):
    """Fresh encoders, one per party, and a fresh head over their blocks."""
    encoders = {k: specs[k].build(stream(seed, "party-init", k)) for k in sorted(specs)}
    rep_dim = sum(spec.rep_dim for spec in specs.values())
    return encoders, Mlp.init(stream(seed, *head_seed_path), [rep_dim, 1])


def anchor_model(spec: EncoderSpec, rng: np.random.Generator | None = None,
                 encoder=None, head=None) -> ActivePretrained:
    """An ActivePretrained over `spec` whose encoder theta is `encoder` and
    head theta `head` (the head's [1, rep_dim] weight, then its bias). What is
    not given is drawn from `rng`: the encoder as `spec.build` draws it, then
    the head's weight and its bias, standard normal."""
    if encoder is None:
        encoder = spec.build(rng).theta
    if head is None:
        weight = rng.standard_normal((1, spec.rep_dim))
        head = np.concatenate([weight.ravel(), rng.standard_normal(1)])
    return ActivePretrained(
        spec=spec,
        encoder_params=spec.build_empty().layout.views(np.asarray(encoder, np.float64)),
        head_params=Mlp([spec.rep_dim, 1]).layout.views(np.asarray(head, np.float64)),
        best_epoch=0, val_auc=None, degenerate_validation=False,
    )


def build_federation(ds: VerticalDataset, specs, beta: float, seed: int,
                     optimizer: str = "adam", eta1: float = 1e-3,
                     eta2: float = 1e-3, anchor: ActivePretrained | None = None,
                     head_seed_path: tuple = ("head",)) -> Federation:
    """A Federation over `fresh_models`, anchored to `anchor` when given."""
    encoders, head = fresh_models(specs, seed, head_seed_path)
    return Federation(encoders, head, beta, eta1, eta2, optimizer, anchor)


class NoStep:
    """An optimizer whose step does nothing: a round driven with it computes
    `fed.grad` and leaves `fed.theta` as it was."""

    def step(self, *args):
        pass


def arrays(batch: AlignedBatch) -> tuple:
    """An AlignedBatch as the (cat, num, labels) triple that a round takes."""
    return batch.cat, batch.num, batch.labels


def round_loss_setup(fed: Federation, batch: AlignedBatch):
    """Closures for finite-difference checks over one federated round.

    Replaces `fed.optimizer` with `NoStep`, so each call is the round's
    forward and backward pass alone. Returns (loss_fn, grads_fn, params):
    params holds live views of `fed.theta` and grads_fn a copy of the
    round's `fed.grad`, both named "<model>.<tensor>" by `fed.layout`.
    """
    fed.optimizer = NoStep()

    def loss_fn() -> float:
        return run_round(fed, arrays(batch), 0, TransportLog()).loss

    def grads_fn() -> dict[str, np.ndarray]:
        run_round(fed, arrays(batch), 0, TransportLog())
        return fed.layout.views(fed.grad.copy())

    return loss_fn, grads_fn, fed.layout.views(fed.theta)
