"""Split-protocol tests.

The backbone check rebuilds the same architecture as one centralized
model from the layer primitives and verifies the federated rounds track
it to float tolerance. Constraint math is checked against a naive sum,
and the transport log is audited for raw-column leaks.
"""
import numpy as np
import pytest

from vflhlp.errors import ConfigError, SchemaError, TrainingError
from vflhlp.federated import (
    DownstreamConfig,
    GradientMsg,
    PretrainedWeights,
    RepresentationMsg,
    TrainedFederation,
    TrainMode,
    TransportLog,
    audit_transport,
    constraint_loss,
    content_hash,
    federated_predict,
    run_round,
    total_loss,
    train_downstream,
)
from vflhlp.nn import SgdOptimizer, bce_with_logits
from vflhlp.rng import stream
from vflhlp.ssl_pretrain import SslConfig, pretrain_passive
from vflhlp.sup_pretrain import SupConfig, pretrain_active

from conftest import build_federation, round_loss_setup, small_spec, split_round_grads
from gradcheck import grad_check


@pytest.fixture(scope="module")
def specs3():
    return {
        k: small_spec(n_cat=1, n_num=3, cardinality=6, embed_dim=3, hidden=(8, 4))
        for k in (1, 2, 3)
    }


@pytest.fixture(scope="module")
def pretrained(tiny_bundle, specs3):
    pre = PretrainedWeights()
    pre.active = pretrain_active(
        tiny_bundle.train.parties[1], tiny_bundle.train.labels, specs3[1],
        SupConfig(epochs=3, batch_size=128), seed=11,
    )
    for k in (2, 3):
        enc, _ = pretrain_passive(
            tiny_bundle.train.parties[k], specs3[k],
            SslConfig(epochs=2, batch_size=128), seed=11,
        )
        pre.passive[k] = enc.params_copy()
    return pre


# ------------------------------------------------------------------ messages

def test_content_hash_ignores_memory_layout():
    a = np.arange(12, dtype=np.float64).reshape(3, 4)
    f = np.asfortranarray(a)
    assert content_hash(a) == content_hash(f)
    assert content_hash(a) != content_hash(a + 1)


# ------------------------------------------------------------------ losses

def test_constraint_loss_matches_naive_sum():
    rng = stream(41, "cons")
    params = {"w": rng.standard_normal((4, 3)), "b": rng.standard_normal(4)}
    anchors = {"w": rng.standard_normal((4, 3)), "b": rng.standard_normal(4)}
    value, grads = constraint_loss(params, anchors)
    naive = 0.0
    for name in params:
        for p, a in zip(params[name].ravel(), anchors[name].ravel()):
            naive += 0.5 * (p - a) ** 2
    assert abs(value - naive) < 1e-12
    for name in params:
        np.testing.assert_array_equal(grads[name], params[name] - anchors[name])


def test_constraint_loss_zero_at_anchor():
    p = {"w": np.ones((2, 2))}
    value, grads = constraint_loss(p, {"w": np.ones((2, 2))})
    assert value == 0.0
    assert not grads["w"].any()


def test_constraint_loss_validates_names_and_shapes():
    with pytest.raises(SchemaError):
        constraint_loss({"a": np.zeros(2)}, {"b": np.zeros(2)})
    with pytest.raises(SchemaError):
        constraint_loss({"a": np.zeros(2)}, {"a": np.zeros(3)})


def test_total_loss_beta_zero_is_bitwise_identity():
    lv = 0.123456789
    assert total_loss(lv, 99.0, 0.0) is lv
    assert total_loss(2.0, 3.0, 0.5) == 3.5


# ------------------------------------------------------------------ rounds

def _round_batch(bundle, count=40):
    train = bundle.train.with_aligned_count(count)
    return train, train.gather(train.aligned_ids())


def test_round_messages_are_balanced_and_audited(tiny_bundle, specs3):
    train, batch = _round_batch(tiny_bundle)
    parties, server = build_federation(train, specs3, beta=0.0, seed=1)
    log = TransportLog()
    for r in range(4):
        run_round(parties, server, batch, TrainMode.VANILLA_VFL, r, log)
    assert len(log.records) == 4 * 2 * 3
    report = audit_transport(log, train)
    assert report.ok
    assert report.balanced_rounds
    assert report.n_rounds == 4
    assert report.n_messages == 24
    assert report.violations == []


def test_audit_flags_raw_column_and_label_leaks(tiny_bundle, specs3):
    train, batch = _round_batch(tiny_bundle)
    parties, server = build_federation(train, specs3, beta=0.0, seed=1)
    log = TransportLog()
    run_round(parties, server, batch, TrainMode.VANILLA_VFL, 0, log)
    # a payload that is byte-for-byte one party's raw numerical column
    col = train.parties[2].num[:, 1]
    log.record(RepresentationMsg(1, 2, col.reshape(-1, 1)))
    # labels leaving the active side as a gradient payload
    log.record(GradientMsg(1, 1, train.labels.reshape(-1, 1)))
    # a categorical column cast to float
    cat = train.parties[3].cat[:, 0].astype(np.float64)
    log.record(RepresentationMsg(2, 3, cat.reshape(-1, 1)))
    report = audit_transport(log, train)
    assert not report.ok
    assert len(report.violations) == 3
    text = "\n".join(report.violations)
    assert "party 2" in text
    assert "label vector" in text
    assert "as float64" in text


def test_round_gradients_match_fd_unconstrained(tiny_bundle, specs3):
    train, batch = _round_batch(tiny_bundle, count=12)
    parties, server = build_federation(train, specs3, beta=0.0, seed=3)
    loss_fn, grads_fn, params = round_loss_setup(
        parties, server, batch, TrainMode.VANILLA_VFL
    )
    assert grad_check(loss_fn, grads_fn, params) < 1e-4


def test_round_gradients_match_fd_with_constraint(tiny_bundle, specs3, pretrained):
    train, batch = _round_batch(tiny_bundle, count=12)
    anchors = pretrained.active.build_encoder().theta
    head_anchor = {
        "weight": pretrained.active.head_params["0.weight"].copy(),
        "bias": pretrained.active.head_params["0.bias"].copy(),
    }
    parties, server = build_federation(
        train, specs3, beta=0.7, seed=3,
        encoder_anchor=anchors, head_anchor=head_anchor,
    )
    loss_fn, grads_fn, params = round_loss_setup(
        parties, server, batch, TrainMode.VFLHLP
    )
    assert grad_check(loss_fn, grads_fn, params) < 1e-4


def test_round_collected_grad_names(tiny_bundle, specs3):
    train, batch = _round_batch(tiny_bundle, count=10)
    parties, server = build_federation(train, specs3, beta=0.0, seed=4)
    _, flat = run_round(parties, server, batch, TrainMode.VANILLA_VFL, 0,
                        TransportLog(), apply_updates=False)
    assert set(flat) == {"head", "party1", "party2", "party3"}
    names = set(split_round_grads(flat, parties, server))
    assert "head.0.weight" in names and "head.0.bias" in names
    for k in (1, 2, 3):
        assert f"party{k}.mlp.0.weight" in names
        assert f"party{k}.embed.c0" in names


def test_round_rejects_local_mode_and_missing_anchors(tiny_bundle, specs3):
    train, batch = _round_batch(tiny_bundle, count=10)
    parties, server = build_federation(train, specs3, beta=0.5, seed=5)
    with pytest.raises(ConfigError):
        run_round(parties, server, batch, TrainMode.LOCAL_A, 0, TransportLog())
    with pytest.raises(TrainingError):
        run_round(parties, server, batch, TrainMode.VFLHLP, 0, TransportLog())


def test_first_round_constraint_is_zero_when_started_at_anchors(
    tiny_bundle, specs3, pretrained
):
    train, batch = _round_batch(tiny_bundle, count=20)
    anchors = pretrained.active.build_encoder().theta
    head_anchor = {
        "weight": pretrained.active.head_params["0.weight"].copy(),
        "bias": pretrained.active.head_params["0.bias"].copy(),
    }
    parties, server = build_federation(
        train, specs3, beta=2.0, seed=6,
        encoder_anchor=anchors, head_anchor=head_anchor,
    )
    parties[1].encoder.set_params(pretrained.active.encoder_params)
    sl = server.rep_slices[1]
    server.head.params()["0.weight"][:, sl] = head_anchor["weight"]
    server.head.params()["0.bias"][:] = head_anchor["bias"]
    stats, _ = run_round(parties, server, batch, TrainMode.VFLHLP, 0,
                         TransportLog(), apply_updates=False)
    assert stats.loss_cons == 0.0
    assert stats.loss == stats.loss_vfl


def test_zero_head_weights_leave_parties_stationary_for_one_round(
    tiny_bundle, specs3
):
    train, batch = _round_batch(tiny_bundle, count=20)
    parties, server = build_federation(train, specs3, beta=0.0, seed=7)
    server.head.params()["0.weight"][:] = 0.0
    before = {k: parties[k].encoder.params_copy() for k in parties}
    bias_before = server.head.params()["0.bias"].copy()
    run_round(parties, server, batch, TrainMode.VANILLA_VFL, 0, TransportLog())
    for k in parties:
        for name, arr in parties[k].encoder.params().items():
            np.testing.assert_array_equal(arr, before[k][name])
    # the head bias still learns from the labels
    assert not np.array_equal(server.head.params()["0.bias"], bias_before)


# ------------------------------------------------------------------ monolith

class Monolith:
    """The same architecture as one centralized model, trained directly."""

    def __init__(self, encoders, head, eta1, eta2):
        self.encoders = encoders
        self.head = head
        self.eta1 = eta1
        self.eta2 = eta2
        self.opt = SgdOptimizer()

    def step(self, batch) -> float:
        order = sorted(self.encoders)
        reps, tapes = {}, {}
        for k in order:
            reps[k], tapes[k] = self.encoders[k].forward(batch.cat[k], batch.num[k])
        h = np.concatenate([reps[k] for k in order], axis=1)
        logits, head_tape = self.head.forward(h)
        loss, dlogits = bce_with_logits(logits[:, 0], batch.labels)
        head_layer_grads, dh = self.head.backward(head_tape, dlogits[:, None])
        self.opt.step(self.head.params(),
                      self.head.grads_dict(head_layer_grads), self.eta1)
        off = 0
        for k in order:
            dim = self.encoders[k].rep_dim
            grad = self.encoders[k].backward(tapes[k], dh[:, off : off + dim])
            self.opt.step(self.encoders[k].params(),
                          self.encoders[k].grads_dict(grad), self.eta2)
            off += dim
        return loss


def test_split_protocol_matches_monolith(tiny_bundle, specs3):
    train, batch = _round_batch(tiny_bundle, count=40)
    parties, server = build_federation(
        train, specs3, beta=0.0, seed=8, optimizer="sgd", eta1=2e-3, eta2=1e-3
    )
    clones = {}
    for k, node in parties.items():
        clones[k] = specs3[k].build_empty()
        clones[k].set_params(node.encoder.params_copy())
    head_clone = server.head.__class__(server.head.dims, server.head.theta.copy())
    mono = Monolith(clones, head_clone, eta1=2e-3, eta2=1e-3)

    log = TransportLog()
    for r in range(30):
        stats, _ = run_round(parties, server, batch, TrainMode.VANILLA_VFL, r, log)
        mono_loss = mono.step(batch)
        assert abs(stats.loss - mono_loss) < 1e-10, f"round {r}"

    for k in parties:
        split_params = parties[k].encoder.params()
        mono_params = mono.encoders[k].params()
        for name in split_params:
            assert np.abs(split_params[name] - mono_params[name]).max() < 1e-8
    for name, arr in server.head.params().items():
        assert np.abs(arr - mono.head.params()[name]).max() < 1e-8


# ------------------------------------------------------------------ predict

def test_federated_predict_matches_manual_forward(tiny_bundle, specs3):
    train, batch = _round_batch(tiny_bundle, count=10)
    parties, server = build_federation(train, specs3, beta=0.0, seed=9)
    encoders = {k: parties[k].encoder for k in parties}
    scores = federated_predict(encoders, server.head, batch.cat, batch.num)
    reps = [encoders[k].forward(batch.cat[k], batch.num[k])[0] for k in (1, 2, 3)]
    logits, _ = server.head.forward(np.concatenate(reps, axis=1))
    np.testing.assert_array_equal(scores, 1.0 / (1.0 + np.exp(-logits[:, 0])))


def test_federated_predict_is_batch_invariant(tiny_bundle, specs3):
    train, batch = _round_batch(tiny_bundle, count=12)
    parties, server = build_federation(train, specs3, beta=0.0, seed=10)
    encoders = {k: parties[k].encoder for k in parties}
    full = federated_predict(encoders, server.head, batch.cat, batch.num)
    first = federated_predict(encoders, server.head,
                              {k: v[:5] for k, v in batch.cat.items()},
                              {k: v[:5] for k, v in batch.num.items()})
    np.testing.assert_allclose(full[:5], first, atol=1e-12)
    with pytest.raises(SchemaError):
        federated_predict(encoders, server.head,
                          {1: batch.cat[1]}, {1: batch.num[1]})


# ------------------------------------------------------------------ training

def _dcfg(**kw):
    base = dict(beta=0.0, eta1=1e-3, eta2=1e-3, epochs=2, batch_size=16,
                val_fraction=0.1, seed=13)
    base.update(kw)
    return DownstreamConfig(**base)


def test_train_downstream_shapes_history_and_audit(tiny_bundle, specs3, pretrained):
    train = tiny_bundle.train.with_aligned_count(60)
    out = train_downstream(train, specs3, TrainMode.VFLHLP, pretrained,
                           _dcfg(beta=0.3, epochs=3))
    assert isinstance(out, TrainedFederation)
    assert len(out.history) == 3
    for i, row in enumerate(out.history):
        assert row["epoch"] == i + 1
        assert set(row) == {"epoch", "loss", "loss_vfl", "loss_cons", "val_auc"}
        assert row["loss_cons"] > 0.0
    report = audit_transport(out.transport, train)
    assert report.ok and report.balanced_rounds
    # 54 train rows after the 10% validation carve, batches of 16 -> 4/epoch
    assert report.n_rounds == 3 * 4


def test_train_downstream_is_deterministic(tiny_bundle, specs3, pretrained):
    train = tiny_bundle.train.with_aligned_count(40)
    a = train_downstream(train, specs3, TrainMode.VFLHLP, pretrained,
                         _dcfg(beta=0.2))
    b = train_downstream(train, specs3, TrainMode.VFLHLP, pretrained,
                         _dcfg(beta=0.2))
    assert a.history == b.history
    for k in a.encoders:
        for name, arr in a.encoders[k].params().items():
            np.testing.assert_array_equal(arr, b.encoders[k].params()[name])
    for name, arr in a.head.params().items():
        np.testing.assert_array_equal(arr, b.head.params()[name])


def test_vflhlp_with_beta_zero_equals_passive_warm_start_mode(
    tiny_bundle, specs3, pretrained
):
    # with the constraint coefficient at zero the two modes are the same
    # algorithm, so the runs must be bit-identical
    train = tiny_bundle.train.with_aligned_count(40)
    a = train_downstream(train, specs3, TrainMode.VFLHLP, pretrained,
                         _dcfg(beta=0.0, epochs=3))
    b = train_downstream(train, specs3, TrainMode.VFLHLP_P, pretrained,
                         _dcfg(beta=0.0, epochs=3))
    assert [r["loss"] for r in a.history] == [r["loss"] for r in b.history]
    for k in a.encoders:
        for name, arr in a.encoders[k].params().items():
            np.testing.assert_array_equal(arr, b.encoders[k].params()[name])
    for name, arr in a.head.params().items():
        np.testing.assert_array_equal(arr, b.head.params()[name])


def test_warm_starts_land_where_the_mode_says(tiny_bundle, specs3, pretrained):
    train = tiny_bundle.train.with_aligned_count(40)
    out = train_downstream(train, specs3, TrainMode.VFLHLP_P, pretrained,
                           _dcfg(epochs=0))
    for k in (2, 3):
        for name, arr in out.encoders[k].params().items():
            np.testing.assert_array_equal(arr, pretrained.passive[k][name])
    fresh = specs3[1].build(stream(13, "downstream", "init-party", 1))
    for name, arr in out.encoders[1].params().items():
        np.testing.assert_array_equal(arr, fresh.params()[name])

    vanilla = train_downstream(train, specs3, TrainMode.VANILLA_VFL, None,
                               _dcfg(epochs=0))
    for k in (2, 3):
        fresh_k = specs3[k].build(stream(13, "downstream", "init-party", k))
        for name, arr in vanilla.encoders[k].params().items():
            np.testing.assert_array_equal(arr, fresh_k.params()[name])

    warm = train_downstream(train, specs3, TrainMode.VFLHLP, pretrained,
                            _dcfg(epochs=0, warm_start_active=True))
    for name, arr in warm.encoders[1].params().items():
        np.testing.assert_array_equal(arr, pretrained.active.encoder_params[name])


def test_huge_beta_clamps_active_party_to_anchor(tiny_bundle, specs3, pretrained):
    train = tiny_bundle.train.with_aligned_count(60)
    out = train_downstream(
        train, specs3, TrainMode.VFLHLP, pretrained,
        _dcfg(beta=1e6, epochs=8, warm_start_active=True),
    )
    for name, arr in out.encoders[1].params().items():
        drift = np.abs(arr - pretrained.active.encoder_params[name]).max()
        assert drift < 1e-2, f"{name} drifted {drift}"
    # passive parties are unconstrained and must actually move
    moved = max(
        np.abs(arr - pretrained.passive[2][name]).max()
        for name, arr in out.encoders[2].params().items()
    )
    assert moved > 1e-4


def test_missing_pretrained_weights_fail_with_party_names(tiny_bundle, specs3):
    train = tiny_bundle.train.with_aligned_count(40)
    with pytest.raises(TrainingError, match="party 1"):
        train_downstream(train, specs3, TrainMode.VFLHLP_A, None, _dcfg(beta=0.1))
    partial = PretrainedWeights()
    with pytest.raises(TrainingError, match="party 2"):
        train_downstream(train, specs3, TrainMode.VFLHLP_P, partial, _dcfg())


def test_local_mode_returns_local_model(tiny_bundle, specs3):
    train = tiny_bundle.train.with_aligned_count(40)
    out = train_downstream(train, specs3, TrainMode.LOCAL_A, None,
                           _dcfg(epochs=2, batch_size=128))
    assert isinstance(out, TrainedFederation) and list(out.encoders) == [1]
    assert out.mode is TrainMode.LOCAL_A
    assert len(out.history) == 2
    # local mode trains on the full local table, not the aligned subset
    direct = pretrain_active(
        train.parties[1], train.labels, specs3[1],
        SupConfig(epochs=2, batch_size=128, learning_rate=1e-3), seed=13,
    )
    for name, arr in out.encoders[1].params().items():
        np.testing.assert_array_equal(arr, direct.encoder_params[name])


def test_mode_parse_and_properties():
    assert TrainMode.parse("vflhlp") is TrainMode.VFLHLP
    with pytest.raises(ConfigError):
        TrainMode.parse("vfl")
    assert TrainMode.VFLHLP.warm_starts_passive
    assert TrainMode.VFLHLP.uses_constraint
    assert TrainMode.VFLHLP_P.warm_starts_passive
    assert not TrainMode.VFLHLP_P.uses_constraint
    assert TrainMode.VFLHLP_A.uses_constraint
    assert not TrainMode.VFLHLP_A.warm_starts_passive
    assert not TrainMode.VANILLA_VFL.uses_constraint
    assert not TrainMode.LOCAL_A.is_federated
