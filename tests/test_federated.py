"""Split-protocol tests.

The backbone check rebuilds the same architecture as one centralized
model from the layer primitives and verifies the federated rounds track
it to float tolerance. Constraint math is checked against a naive sum,
and the transport log is audited for raw-column leaks.
"""
import ast
import itertools
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import vflhlp

from vflhlp import federated
from vflhlp.data import hold_out, sample_aligned_batches
from vflhlp.errors import ConfigError, DataError, SchemaError, TrainingError
from vflhlp.federated import (
    DIR_TO_PARTY,
    DIR_TO_SERVER,
    KIND_GRADIENT,
    KIND_REPRESENTATION,
    DownstreamConfig,
    Federation,
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
    fit,
    pretrained_needs,
    run_round,
    total_loss,
    train_downstream,
)
from vflhlp.nn import EncoderSpec, Mlp, SgdOptimizer, bce_with_logits
from vflhlp.rng import stream
from vflhlp.ssl_pretrain import SslConfig, pretrain_passive
from vflhlp.sup_pretrain import SupConfig, pretrain_active, train_local

from conftest import (
    NoStep, anchor_model, arrays, build_federation, fresh_models, round_loss_setup,
    small_spec, tiny_synth_config,
)
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
        pre.passive[k] = enc
    return pre


# ------------------------------------------------------------------ messages

def test_content_hash_ignores_memory_layout():
    a = np.arange(12, dtype=np.float64).reshape(3, 4)
    f = np.asfortranarray(a)
    assert content_hash(a) == content_hash(f)
    assert content_hash(a) != content_hash(a + 1)


@pytest.mark.parametrize("shape", [(8,), (8, 4, 1), ()])
def test_a_payload_that_is_not_2d_raises_and_leaves_the_log_aligned(shape):
    log = TransportLog()
    log.record(RepresentationMsg(0, 2, np.ones((8, 4))))
    with pytest.raises(ValueError):
        log.record(GradientMsg(0, 2, np.ones(shape)))
    log.record(GradientMsg(0, 3, np.full((8, 4), 2.0)))
    records = log.records
    assert [(r.round_index, r.direction, r.party_id, r.rows, r.cols) for r in records] == [
        (0, DIR_TO_SERVER, 2, 8, 4), (0, DIR_TO_PARTY, 3, 8, 4)]
    assert records[1].payload_hash == content_hash(np.full((8, 4), 2.0))
    assert len(log.digests) == 2 * 32


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


def test_total_loss_beta_zero_is_bitwise_identity(tiny_bundle, specs3):
    lv = 0.123456789
    assert total_loss(lv, 99.0, 0.0) is lv
    assert total_loss(2.0, 3.0, 0.5) == 3.5
    # a round is constrained exactly when its Federation holds anchors: without
    # them, at any beta, it reports no constraint and its loss is the task
    # loss; with them at beta 0, the constraint is reported but adds nothing
    train, batch = _round_batch(tiny_bundle, count=16)
    anchor = anchor_model(specs3[1], stream(42, "anchor"), head=np.ones(5))
    plain = run_round(build_federation(train, specs3, beta=0.5, seed=42),
                      arrays(batch), 0, TransportLog())
    assert plain.loss_cons == 0.0 and plain.loss.hex() == plain.loss_vfl.hex()
    pulled = run_round(build_federation(train, specs3, beta=0.0, seed=42, anchor=anchor),
                       arrays(batch), 0, TransportLog())
    assert pulled.loss_cons > 1.0  # the anchors are far from the fresh weights
    assert pulled.loss.hex() == pulled.loss_vfl.hex() == plain.loss_vfl.hex()


# ------------------------------------------------------------------ rounds

def _round_batch(bundle, count=40):
    train = bundle.train
    return train, train.gather(train.aligned_ids(count))


def test_round_messages_are_balanced_and_audited(tiny_bundle, specs3):
    train, batch = _round_batch(tiny_bundle)
    fed = build_federation(train, specs3, beta=0.0, seed=1)
    log = TransportLog()
    for r in range(4):
        run_round(fed, arrays(batch), r, log)
    assert len(log.records) == 4 * 2 * 3
    report = audit_transport(log, train)
    assert report.ok
    assert report.balanced_rounds
    assert report.n_rounds == 4
    assert report.n_messages == 24
    assert report.violations == []


def test_log_records_hash_each_payload_in_both_directions(tiny_bundle, specs3):
    class KeepingLog(TransportLog):
        def record(self, msg):
            self.kept.append(msg)
            super().record(msg)

    train, batch = _round_batch(tiny_bundle)
    fed = build_federation(train, specs3, beta=0.0, seed=1)
    log = KeepingLog()
    log.kept = []
    for r in range(2):
        run_round(fed, arrays(batch), r, log)
    records = log.records
    assert len(records) == len(log.kept) == 2 * 2 * 3
    for rec, msg in zip(records, log.kept):
        up = isinstance(msg, RepresentationMsg)
        assert rec.payload_hash == content_hash(msg.values)
        assert (rec.round_index, rec.party_id) == (msg.round_index, msg.party_id)
        assert (rec.rows, rec.cols) == msg.values.shape
        assert (rec.direction, rec.kind) == (
            (DIR_TO_SERVER, KIND_REPRESENTATION) if up else (DIR_TO_PARTY, KIND_GRADIENT)
        )
    assert {rec.direction for rec in records} == {DIR_TO_SERVER, DIR_TO_PARTY}


def test_audit_flags_unbalanced_rounds(tiny_bundle, specs3):
    train, batch = _round_batch(tiny_bundle)
    fed = build_federation(train, specs3, beta=0.0, seed=1)
    log = TransportLog()
    run_round(fed, arrays(batch), 0, log)
    assert audit_transport(log, train).balanced_rounds
    log.record(GradientMsg(0, 2, np.zeros((3, 4))))  # a fourth reply in round 0
    report = audit_transport(log, train)
    assert report.ok and not report.balanced_rounds
    assert (report.n_rounds, report.n_messages) == (1, 7)


def test_audit_flags_raw_column_and_label_leaks(tiny_bundle, specs3):
    train, batch = _round_batch(tiny_bundle)
    fed = build_federation(train, specs3, beta=0.0, seed=1)
    log = TransportLog()
    run_round(fed, arrays(batch), 0, log)
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


def test_audit_flags_a_raw_column_planted_at_a_late_round(tiny_bundle, specs3):
    # the digests are matched in one pass over the digest column: a leak after
    # hundreds of clean messages is still found, at its own round and party
    train, batch = _round_batch(tiny_bundle, count=8)
    fed = build_federation(train, specs3, beta=0.0, seed=1)
    log = TransportLog()
    for r in range(100):
        run_round(fed, arrays(batch), r, log)
    assert audit_transport(log, train).ok
    col = train.parties[3].num[:, 2]
    log.record(RepresentationMsg(100, 3, col.reshape(-1, 1)))
    run_round(fed, arrays(batch), 101, log)
    report = audit_transport(log, train)
    assert (report.ok, report.n_messages, report.n_rounds) == (False, 607, 102)
    assert report.violations == [
        f"round 100, party 3: payload equals party 3 column "
        f"{train.parties[3].num_fields[2].name!r}"
    ]


def test_audit_matches_whole_digests_not_prefixes(tiny_bundle):
    # a digest that shares only its first 8 bytes with a raw column's is no leak
    train = tiny_bundle.train
    leak = content_hash(train.labels)
    log = TransportLog()
    log.record(GradientMsg(0, 1, train.labels.reshape(-1, 1)))
    log.record(GradientMsg(0, 2, np.zeros((3, 4))))
    log.digests[32:] = bytes.fromhex(leak)[:8] + bytes(24)
    assert log.records[1].payload_hash[:16] == leak[:16]
    assert audit_transport(log, train).violations == [
        "round 0, party 1: payload equals label vector"
    ]


def reference_audit(log, ds):
    """A reference audit: each digest looked up on its own, and round balance
    from np.unique(return_inverse=True) and two weighted bincounts."""
    forbidden = federated._raw_column_digests(ds)
    fields = log.fields().astype(np.int64)
    violations = [
        f"round {fields[i, 0]}, party {fields[i, 2]}: payload equals {forbidden[d]}"
        for i in range(len(fields)) if (d := log.digest(i)) in forbidden
    ]
    rounds, index = np.unique(fields[:, 0], return_inverse=True)
    up = fields[:, 1] == DIR_TO_SERVER
    ups = np.bincount(index, weights=up, minlength=rounds.size)
    downs = np.bincount(index, weights=~up, minlength=rounds.size)
    k = ds.k_parties
    return federated.AuditReport(
        ok=not violations,
        n_messages=len(fields),
        n_rounds=int(rounds.size),
        violations=violations,
        balanced_rounds=bool(np.all(ups == k) and np.all(downs == k)),
    )


def _log_of(messages):
    log = TransportLog()
    for up, r, k, values in messages:
        log.record((RepresentationMsg if up else GradientMsg)(r, k, values))
    return log


def _balanced_round(r, k_parties=3, rows=2):
    return [(up, r, k, np.full((rows, 2), r + 0.5 * k))
            for up in (True, False) for k in range(1, k_parties + 1)]


@pytest.mark.parametrize("case", [
    "empty", "gaps", "gaps-far-apart", "one-round", "up-only-round", "down-only-round",
    "extra-reply", "missing-reply", "reply-without-request",
])
def test_audit_balance_matches_the_reference_on_edge_cases(tiny_bundle, case):
    train = tiny_bundle.train
    rounds = {"empty": [], "gaps": [0, 1, 4, 9, 10], "gaps-far-apart": [3, 70_000, 2**32 - 2],
              "one-round": [5]}.get(case, [0, 1, 2])
    messages = [m for r in rounds for m in _balanced_round(r)]
    if case == "up-only-round":
        messages += [m for m in _balanced_round(3) if m[0]]
    if case == "down-only-round":
        messages = [m for m in _balanced_round(7) if not m[0]] + messages
    if case == "extra-reply":
        messages.insert(4, (False, 1, 2, np.zeros((3, 4))))
    if case == "missing-reply":
        del messages[-1]
    if case == "reply-without-request":  # the counts per direction are off, not the total
        messages[2] = (False, *messages[2][1:])
    report = audit_transport(_log_of(messages), train)
    assert report == reference_audit(_log_of(messages), train)
    assert report.ok and report.violations == []
    assert report.n_messages == len(messages)
    assert report.balanced_rounds == (case in ("empty", "gaps", "gaps-far-apart", "one-round"))


def test_audit_matches_the_reference_on_random_logs(tiny_bundle):
    train = tiny_bundle.train
    leaks = [train.labels, train.parties[2].num[:, 0],
             train.parties[3].cat[:, 0].astype(np.float64)]
    rng = stream(31, "random-logs")
    outcomes = set()
    for trial in range(60):
        n_rounds = int(rng.integers(0, 12))
        rounds = np.sort(rng.choice(40 if trial % 2 else 10**6, n_rounds, replace=False))
        messages = [m for r in rounds for m in _balanced_round(int(r), rows=1)]
        for _ in range(int(rng.integers(0, 3))):  # drop, add or flip a message
            what = rng.integers(0, 3)
            if what == 0 and messages:
                del messages[int(rng.integers(0, len(messages)))]
            elif what == 1:
                messages.append((bool(rng.integers(0, 2)), int(rng.integers(0, 50)),
                                 int(rng.integers(1, 4)), rng.standard_normal((1, 2))))
            elif messages:
                i = int(rng.integers(0, len(messages)))
                messages[i] = (not messages[i][0], *messages[i][1:])
        for _ in range(int(rng.integers(0, 3))):  # a payload becomes a leak
            if messages:
                i = int(rng.integers(0, len(messages)))
                leak = leaks[int(rng.integers(0, len(leaks)))]
                messages[i] = (*messages[i][:3], leak.reshape(-1, 1))
        order = rng.permutation(len(messages))  # messages need not come in round order
        messages = [messages[i] for i in order]
        report = audit_transport(_log_of(messages), train)
        assert report == reference_audit(_log_of(messages), train), trial
        outcomes.add((report.ok, report.balanced_rounds))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def test_a_log_refuses_a_field_outside_32_bits_and_keeps_what_it_had():
    log = TransportLog()
    log.record(RepresentationMsg(2**32 - 1, 1, np.zeros((2, 3))))
    held = (log.fields().tobytes(), bytes(log.digests))
    for msg in (RepresentationMsg(2**32, 1, np.zeros((2, 3))),
                RepresentationMsg(-1, 1, np.zeros((2, 3))),
                GradientMsg(4, -2, np.zeros((2, 3))),
                GradientMsg(4, 2**32, np.zeros((2, 3)))):
        with pytest.raises(SchemaError, match=r"outside \[0, 2\*\*32\)"):
            log.record(msg)
        assert (log.fields().tobytes(), bytes(log.digests)) == held
    assert log.records[0][:6] == (2**32 - 1, DIR_TO_SERVER, 1, KIND_REPRESENTATION, 2, 3)


def test_a_log_and_its_audit_stay_small(tiny_bundle):
    # the log holds five 4-byte fields and a 32-byte digest a message, plus
    # the growth slack of its array and bytearray; the audit's balance pass
    # allocates a few bytes a message on top
    train = tiny_bundle.train
    reps = {k: np.full((8, 4), 0.25 * k) for k in (1, 2, 3)}
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log = TransportLog()
        for r in range(1000):
            for k in (1, 2, 3):
                log.record(RepresentationMsg(r, k, reps[k]))
            for k in (1, 2, 3):
                log.record(GradientMsg(r, k, reps[k]))
        n = len(log.fields())
        held = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        report = audit_transport(log, train)
        scratch = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (report.ok, report.balanced_rounds, report.n_messages, report.n_rounds) == (
        True, True, 6000, 1000)
    assert n == 6000
    assert held <= 64 * n, held / n
    assert scratch <= 16 * n, scratch / n


def test_round_gradients_match_fd_unconstrained(tiny_bundle, specs3):
    train, batch = _round_batch(tiny_bundle, count=12)
    fed = build_federation(train, specs3, beta=0.0, seed=3)
    loss_fn, grads_fn, params = round_loss_setup(fed, batch)
    assert grad_check(loss_fn, grads_fn, params) < 1e-4


def test_round_gradients_match_fd_with_constraint(tiny_bundle, specs3, pretrained):
    train, batch = _round_batch(tiny_bundle, count=12)
    fed = build_federation(train, specs3, beta=0.7, seed=3, anchor=pretrained.active)
    loss_fn, grads_fn, params = round_loss_setup(fed, batch)
    assert grad_check(loss_fn, grads_fn, params) < 1e-4


def test_round_collected_grad_names(tiny_bundle, specs3):
    train, batch = _round_batch(tiny_bundle, count=10)
    fed = build_federation(train, specs3, beta=0.0, seed=4)
    fed.optimizer = NoStep()
    run_round(fed, arrays(batch), 0, TransportLog())
    assert set(fed.spans) == {"head", "party1", "party2", "party3"}
    names = set(fed.layout.views(fed.grad))
    assert "head.0.weight" in names and "head.0.bias" in names
    for k in (1, 2, 3):
        assert f"party{k}.mlp.0.weight" in names
        assert f"party{k}.embed.c0" in names


# party 1's spec in specs3, and one with a wider hidden layer: the same rep_dim
PARTY_SPEC = small_spec(n_cat=1, n_num=3, cardinality=6, embed_dim=3, hidden=(8, 4))
OTHER_SPEC = replace(PARTY_SPEC, hidden=(9, 4))


@pytest.mark.parametrize("damage, fragment", [
    ("head-input-dim", "head input dim 13 does not match total representation dim 12"),
    ("head-output-dim", "the head must output one logit, got 2"),
    ("anchor-spec",
     re.escape(f"the anchor's encoder spec {OTHER_SPEC} is not party 1's {PARTY_SPEC}")),
    ("encoder-anchor-size", r"parameter 'mlp\.1\.bias' has shape \(3,\), expected \(4,\)"),
    ("head-anchor-shape", r"parameter '0\.weight' has shape \(4, 1\), expected \(1, 4\)"),
    ("head-hidden-layer", r"the head must be linear \(one layer\), got dims \[12, 6, 1\]"),
], ids=["head-input-dim", "head-output-dim", "anchor-spec", "encoder-anchor-size",
        "head-anchor-shape", "head-hidden-layer"])
def test_a_federation_checks_its_head_and_anchors_when_built(specs3, damage, fragment):
    encoders, head = fresh_models(specs3, 14)
    if damage == "head-input-dim":
        head = Mlp.init(stream(14, "head"), [13, 1])
    if damage == "head-output-dim":
        head = Mlp.init(stream(14, "head"), [12, 2])
    if damage == "head-hidden-layer":
        head = Mlp.init(stream(14, "head"), [12, 6, 1])
    spec = OTHER_SPEC if damage == "anchor-spec" else specs3[1]
    anchor = anchor_model(spec, stream(14, "anchor"))
    # an anchor's parameters are checked against its spec as it is built
    encoder_params, head_params = anchor.encoder.params(), anchor.head.params()
    if damage == "encoder-anchor-size":
        encoder_params["mlp.1.bias"] = encoder_params["mlp.1.bias"][:-1]
    if damage == "head-anchor-shape":
        head_params["0.weight"] = head_params["0.weight"].T
    with pytest.raises(SchemaError, match=fragment):
        anchor = replace(anchor, encoder_params=encoder_params, head_params=head_params)
        Federation(encoders, head, 0.5, 1e-3, 1e-3, "sgd", anchor)


def test_the_head_anchor_is_party_1s_weight_columns_then_the_bias():
    # representation blocks of 4, 2 and 3 columns: the head's theta is its
    # [1, 9] weight, then its bias
    specs = {k: small_spec(n_cat=1, n_num=3, cardinality=6, embed_dim=3, hidden=(8, d))
             for k, d in ((1, 4), (2, 2), (3, 3))}
    encoders, head = fresh_models(specs, 16)
    anchor = anchor_model(specs[1], encoder=encoders[1].theta, head=[0.0, 1.0, 2.0, 3.0, -1.0])
    fed = Federation(encoders, head, 0.5, 1e-3, 1e-3, "sgd", anchor)
    start = fed.spans["head"].start
    assert fed.anchored["head"].tolist() == [start + i for i in (0, 1, 2, 3, 9)]
    assert fed.anchors["head"].tolist() == [0.0, 1.0, 2.0, 3.0, -1.0]


def test_a_federation_copies_the_models_it_is_built_from(tiny_bundle, specs3):
    _, batch = _round_batch(tiny_bundle, count=12)
    encoders, head = fresh_models(specs3, 15)
    given = dict(encoders)
    first = Federation(encoders, head, 0.0, 1e-3, 1e-3, "sgd")
    built = first.theta.tobytes()
    assert not np.shares_memory(head.theta, first.theta)
    assert np.shares_memory(first.head.theta, first.theta)
    for k, encoder in encoders.items():
        assert encoder is given[k]
        assert not np.shares_memory(encoder.theta, first.theta)
        assert np.shares_memory(first.encoders[k].theta, first.theta)
    run_round(first, arrays(batch), 0, TransportLog())
    assert first.theta.tobytes() != built
    second = Federation(encoders, head, 0.0, 1e-3, 1e-3, "sgd")
    assert second.theta.tobytes() == built


def test_first_round_constraint_is_zero_when_started_at_anchors(
    tiny_bundle, specs3, pretrained
):
    train, batch = _round_batch(tiny_bundle, count=20)
    active = pretrained.active
    fed = build_federation(train, specs3, beta=2.0, seed=6, anchor=active)
    fed.encoders[1].set_params(active.encoder.params())
    sl = fed.rep_slices[1]
    fed.head.params()["0.weight"][:, sl] = active.head.params()["0.weight"]
    fed.head.params()["0.bias"][:] = active.head.params()["0.bias"]
    fed.optimizer = NoStep()
    stats = run_round(fed, arrays(batch), 0, TransportLog())
    assert stats.loss_cons == 0.0
    assert stats.loss == stats.loss_vfl


def test_zero_head_weights_leave_parties_stationary_for_one_round(
    tiny_bundle, specs3
):
    train, batch = _round_batch(tiny_bundle, count=20)
    fed = build_federation(train, specs3, beta=0.0, seed=7)
    fed.head.params()["0.weight"][:] = 0.0
    before = {k: encoder.layout.views(encoder.theta.copy())
              for k, encoder in fed.encoders.items()}
    bias_before = fed.head.params()["0.bias"].copy()
    run_round(fed, arrays(batch), 0, TransportLog())
    for k, encoder in fed.encoders.items():
        for name, arr in encoder.params().items():
            np.testing.assert_array_equal(arr, before[k][name])
    # the head bias still learns from the labels
    assert not np.array_equal(fed.head.params()["0.bias"], bias_before)


# where the package steps an optimizer: once per training step, over the
# one vector of each training loop
OPTIMIZER_STEPS = {("sup_pretrain.py", "pretrain_active"): 1,
                   ("ssl_pretrain.py", "pretrain_passive"): 1,
                   ("federated.py", "run_round"): 1}


def test_each_training_loop_steps_one_optimizer():
    package = Path(vflhlp.__file__).parent
    steps = {}
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).as_posix()
        tree = ast.parse(path.read_text(), str(path))
        for top in tree.body:  # a call counts for the top-level def that holds it
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "step"):
                    key = (module, getattr(top, "name", "<module>"))
                    steps[key] = steps.get(key, 0) + 1
    assert steps == OPTIMIZER_STEPS


@pytest.mark.parametrize("anchored, beta", [(False, 0.0), (True, 0.7)],
                         ids=["vanilla_vfl", "vflhlp beta 0.7"])
def test_a_gradient_only_round_leaves_no_trace(tiny_bundle, specs3, pretrained, anchored, beta):
    # a round whose step does nothing (the finite-difference checks' NoStep)
    # writes fed.grad, but the next round overwrites fed.grad whole: rounds 0
    # and 2 with one between them train exactly as rounds 0 and 2 back to back
    train = tiny_bundle.train
    ids = train.aligned_ids(24)
    batches = [arrays(train.gather(ids[i : i + 8])) for i in (0, 8, 16)]
    def trained(gradient_only_between: bool) -> tuple[bytes, int]:
        fed = build_federation(train, specs3, beta=beta, seed=14,
                               anchor=pretrained.active if anchored else None)
        run_round(fed, batches[0], 0, TransportLog())
        if gradient_only_between:
            theta, kept, optimizer = fed.theta.copy(), fed.grad.copy(), fed.optimizer
            fed.optimizer = NoStep()
            run_round(fed, batches[1], 1, TransportLog())
            fed.optimizer = optimizer
            assert fed.theta.tobytes() == theta.tobytes()
            assert fed.grad.tobytes() != kept.tobytes()  # it did write fed.grad
        run_round(fed, batches[2], 2, TransportLog())
        return fed.theta.tobytes(), fed.optimizer.t

    assert trained(True) == trained(False)


def test_a_non_finite_round_gradient_names_the_party_and_tensor(tiny_bundle, specs3):
    train, batch = _round_batch(tiny_bundle, count=12)
    fed = build_federation(train, specs3, beta=0.0, seed=12)
    before = fed.theta.copy()
    grad = np.zeros_like(fed.grad)
    fed.encoders[2].layout.views(grad[fed.spans["party2"]])["mlp.1.bias"][0] = np.inf
    with pytest.raises(TrainingError, match=r"'party2\.mlp\.1\.bias'"):
        fed.optimizer.step(fed.theta, grad, fed.lr, fed.layout)
    assert fed.theta.tobytes() == before.tobytes()


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
        self.opt.step(self.head.theta, head_layer_grads, self.eta1)
        off = 0
        for k in order:
            dim = self.encoders[k].rep_dim
            grad = self.encoders[k].backward(tapes[k], dh[:, off : off + dim])
            self.opt.step(self.encoders[k].theta, grad, self.eta2)
            off += dim
        return loss


def test_split_protocol_matches_monolith(tiny_bundle, specs3):
    train, batch = _round_batch(tiny_bundle, count=40)
    fed = build_federation(
        train, specs3, beta=0.0, seed=8, optimizer="sgd", eta1=2e-3, eta2=1e-3
    )
    clones = {}
    for k, encoder in fed.encoders.items():
        clones[k] = specs3[k].build_empty()
        clones[k].set_params(encoder.params())
    head_clone = fed.head.__class__(fed.head.dims, fed.head.theta.copy())
    mono = Monolith(clones, head_clone, eta1=2e-3, eta2=1e-3)

    log = TransportLog()
    for r in range(30):
        stats = run_round(fed, arrays(batch), r, log)
        mono_loss = mono.step(batch)
        assert abs(stats.loss - mono_loss) < 1e-10, f"round {r}"

    for k, encoder in fed.encoders.items():
        split_params = encoder.params()
        mono_params = mono.encoders[k].params()
        for name in split_params:
            assert np.abs(split_params[name] - mono_params[name]).max() < 1e-8
    for name, arr in fed.head.params().items():
        assert np.abs(arr - mono.head.params()[name]).max() < 1e-8


# ------------------------------------------------------------------ predict

def test_federated_predict_matches_manual_forward(tiny_bundle, specs3):
    train, batch = _round_batch(tiny_bundle, count=10)
    fed = build_federation(train, specs3, beta=0.0, seed=9)
    encoders = fed.encoders
    scores = federated_predict(encoders, fed.head, batch.cat, batch.num)
    reps = [encoders[k].forward(batch.cat[k], batch.num[k])[0] for k in (1, 2, 3)]
    logits, _ = fed.head.forward(np.concatenate(reps, axis=1))
    np.testing.assert_array_equal(scores, 1.0 / (1.0 + np.exp(-logits[:, 0])))


def test_federated_predict_is_batch_invariant(tiny_bundle, specs3):
    train, batch = _round_batch(tiny_bundle, count=12)
    fed = build_federation(train, specs3, beta=0.0, seed=10)
    encoders = fed.encoders
    full = federated_predict(encoders, fed.head, batch.cat, batch.num)
    first = federated_predict(encoders, fed.head,
                              {k: v[:5] for k, v in batch.cat.items()},
                              {k: v[:5] for k, v in batch.num.items()})
    np.testing.assert_allclose(full[:5], first, atol=1e-12)
    with pytest.raises(SchemaError):
        federated_predict(encoders, fed.head,
                          {1: batch.cat[1]}, {1: batch.num[1]})


def test_federated_predict_checks_the_head_width(tiny_bundle, specs3):
    # the head's input width is checked once per call, against the encoders given
    _, batch = _round_batch(tiny_bundle, count=10)
    encoders, _ = fresh_models(specs3, 9)
    head = Mlp.init(stream(9, "head"), [13, 1])
    with pytest.raises(SchemaError,
                       match="head input dim 13 does not match total representation dim 12"):
        federated_predict(encoders, head, batch.cat, batch.num)


# ------------------------------------------------------------------ training

def _dcfg(**kw):
    base = dict(beta=0.0, eta1=1e-3, eta2=1e-3, epochs=2, batch_size=16,
                val_fraction=0.1)
    base.update(kw)
    return DownstreamConfig(**base)


def test_train_downstream_shapes_history_and_audit(tiny_bundle, specs3, pretrained):
    train = tiny_bundle.train
    out = train_downstream(train, specs3, TrainMode.VFLHLP, pretrained,
                           _dcfg(beta=0.3, epochs=3), 13, 60)
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


def test_train_downstream_stops_at_a_non_finite_epoch_loss(tiny_bundle, specs3, monkeypatch):
    # 54 train rows in batches of 16: rounds 4-7 are epoch 2, and report an infinite loss
    real, seen = federated.run_round, []

    def poisoned(fed, batch, round_index, transport):
        stats = real(fed, batch, round_index, transport)
        seen.append(round_index)
        if round_index // 4 == 1:
            return federated.RoundStats(np.inf, np.inf, stats.loss_cons)
        return stats

    monkeypatch.setattr(federated, "run_round", poisoned)
    with pytest.raises(TrainingError, match="non-finite at epoch 2"):
        train_downstream(tiny_bundle.train, specs3, TrainMode.VANILLA_VFL, None,
                         _dcfg(epochs=3), 13, 60)
    assert seen == list(range(8))  # epoch 3 never ran


@pytest.mark.parametrize("mode", [TrainMode.VANILLA_VFL, TrainMode.LOCAL_A])
def test_a_cell_with_a_non_binary_label_fails_before_its_first_round(
        tiny_bundle, specs3, pretrained, monkeypatch, mode):
    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    # every trainer's step runs the one loss in Federation.forward_backward
    monkeypatch.setattr(federated, "run_round", no_step)
    monkeypatch.setattr(federated, "bce_with_logits", no_step)
    train = tiny_bundle.train
    labels = train.labels.copy()
    labels[train.parties[1].rows_for(train.aligned_ids(60)[-1:])] = 0.5
    bad = replace(train, labels=labels)
    with pytest.raises(SchemaError, match="labels must be 0 or 1"):
        if mode.is_federated:
            train_downstream(bad, specs3, mode, pretrained, _dcfg(), 13, 60)
        else:
            train_local(bad, specs3[1], _dcfg(), 13)


@pytest.mark.parametrize("mode, beta",
                         [(TrainMode.VFLHLP, 0.5), (TrainMode.VANILLA_VFL, 0.0)])
def test_each_epoch_reports_the_row_weighted_mean_of_its_rounds(
    tiny_bundle, specs3, pretrained, monkeypatch, mode, beta
):
    rounds = []  # (stats, batch rows) of every round, in order

    def spy(fed, batch, *args):
        stats = run_round(fed, batch, *args)
        rounds.append((stats, batch[2].size))
        return stats

    monkeypatch.setattr(federated, "run_round", spy)
    out = train_downstream(tiny_bundle.train, specs3, mode, pretrained,
                           _dcfg(beta=beta, epochs=3), 13, 60)
    per_epoch, rest = divmod(len(rounds), len(out.history))
    assert per_epoch > 1 and rest == 0
    for i, entry in enumerate(out.history):
        epoch = rounds[i * per_epoch:(i + 1) * per_epoch]
        rows = sum(n for _, n in epoch)
        for key in ("loss", "loss_vfl", "loss_cons"):
            mean = sum(getattr(stats, key) * n for stats, n in epoch) / rows
            assert entry[key] == pytest.approx(mean, rel=1e-12, abs=0.0), (i, key)
        assert (entry["loss_cons"] > 0.0) == (beta > 0.0)


def test_train_downstream_is_deterministic(tiny_bundle, specs3, pretrained):
    train = tiny_bundle.train
    a = train_downstream(train, specs3, TrainMode.VFLHLP, pretrained,
                         _dcfg(beta=0.2), 13, 40)
    b = train_downstream(train, specs3, TrainMode.VFLHLP, pretrained,
                         _dcfg(beta=0.2), 13, 40)
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
    train = tiny_bundle.train
    a = train_downstream(train, specs3, TrainMode.VFLHLP, pretrained,
                         _dcfg(beta=0.0, epochs=3), 13, 40)
    b = train_downstream(train, specs3, TrainMode.VFLHLP_P, pretrained,
                         _dcfg(beta=0.0, epochs=3), 13, 40)
    assert [r["loss"] for r in a.history] == [r["loss"] for r in b.history]
    for k in a.encoders:
        for name, arr in a.encoders[k].params().items():
            np.testing.assert_array_equal(arr, b.encoders[k].params()[name])
    for name, arr in a.head.params().items():
        np.testing.assert_array_equal(arr, b.head.params()[name])


def test_warm_starts_land_where_the_mode_says(tiny_bundle, specs3, pretrained):
    train = tiny_bundle.train
    out = train_downstream(train, specs3, TrainMode.VFLHLP_P, pretrained,
                           _dcfg(epochs=0), 13, 40)
    for k in (2, 3):
        for name, arr in out.encoders[k].params().items():
            np.testing.assert_array_equal(arr, pretrained.passive[k].params()[name])
    fresh = specs3[1].build(stream(13, "downstream", "init-party", 1))
    for name, arr in out.encoders[1].params().items():
        np.testing.assert_array_equal(arr, fresh.params()[name])

    vanilla = train_downstream(train, specs3, TrainMode.VANILLA_VFL, None,
                               _dcfg(epochs=0), 13, 40)
    for k in (2, 3):
        fresh_k = specs3[k].build(stream(13, "downstream", "init-party", k))
        for name, arr in vanilla.encoders[k].params().items():
            np.testing.assert_array_equal(arr, fresh_k.params()[name])

    warm = train_downstream(train, specs3, TrainMode.VFLHLP, pretrained,
                            _dcfg(epochs=0, warm_start_active=True), 13, 40)
    for name, arr in warm.encoders[1].params().items():
        np.testing.assert_array_equal(arr, pretrained.active.encoder.params()[name])


def test_huge_beta_clamps_active_party_to_anchor(tiny_bundle, specs3, pretrained):
    train = tiny_bundle.train
    out = train_downstream(
        train, specs3, TrainMode.VFLHLP, pretrained,
        _dcfg(beta=1e6, epochs=8, warm_start_active=True), 13, 60,
    )
    for name, arr in out.encoders[1].params().items():
        drift = np.abs(arr - pretrained.active.encoder.params()[name]).max()
        assert drift < 1e-2, f"{name} drifted {drift}"
    # passive parties are unconstrained and must actually move
    moved = max(
        np.abs(arr - pretrained.passive[2].params()[name]).max()
        for name, arr in out.encoders[2].params().items()
    )
    assert moved > 1e-4


def test_missing_pretrained_weights_fail_with_party_names(tiny_bundle, specs3):
    train = tiny_bundle.train
    with pytest.raises(TrainingError, match="party 1"):
        train_downstream(train, specs3, TrainMode.VFLHLP_A, None, _dcfg(beta=0.1), 13, 40)
    # an unconstrained mode needs the active party's weights to warm-start it
    with pytest.raises(TrainingError, match=r"warm_start_active=True.*party 1"):
        train_downstream(train, specs3, TrainMode.VANILLA_VFL, None,
                         _dcfg(warm_start_active=True), 13, 40)
    partial = PretrainedWeights()
    with pytest.raises(TrainingError, match="party 2"):
        train_downstream(train, specs3, TrainMode.VFLHLP_P, partial, _dcfg(), 13, 40)


# EncoderSpec.build calls a cell makes: one for each party that trains from scratch
BUILDS = {(TrainMode.VANILLA_VFL, False): 3, (TrainMode.VFLHLP_A, False): 3,
          (TrainMode.VFLHLP, False): 1, (TrainMode.VFLHLP_P, False): 1,
          (TrainMode.VFLHLP, True): 0}


@pytest.mark.parametrize("mode, warm", BUILDS, ids=[f"{m.value}-{w}" for m, w in BUILDS])
def test_only_the_parties_trained_from_scratch_are_drawn(tiny_bundle, specs3, pretrained,
                                                         monkeypatch, mode, warm):
    calls = []
    build = EncoderSpec.build
    monkeypatch.setattr(EncoderSpec, "build",
                        lambda spec, rng: calls.append(spec) or build(spec, rng))
    train_downstream(tiny_bundle.train, specs3, mode, pretrained,
                     _dcfg(epochs=1, warm_start_active=warm), 13, 40)
    assert len(calls) == BUILDS[mode, warm]


def _drawn_then_overwritten(ds, specs, mode, pretrained, cfg, seed, count):
    """A cell as train_downstream once trained it: every encoder drawn from its
    init stream, then a warm-started one overwritten with its pre-trained
    params. Returns its Federation and history."""
    aligned = ds.gather(ds.aligned_ids(count))
    encoders = {}
    for k in sorted(specs):
        encoders[k] = specs[k].build(stream(seed, "downstream", "init-party", k))
        if k > 1 and mode.warm_starts_passive:
            encoders[k].set_params(pretrained.passive[k].params())
        if k == 1 and cfg.warm_start_active:
            encoders[k].set_params(pretrained.active.encoder.params())
    head = Mlp.init(stream(seed, "downstream", "init-head"),
                    [sum(spec.rep_dim for spec in specs.values()), 1])
    fed = Federation(encoders, head, cfg.beta, cfg.eta1, cfg.eta2, cfg.optimizer,
                     pretrained.active if mode.uses_constraint else None)
    aligned.cat = {k: fed.encoders[k].resolve(cat) for k, cat in aligned.cat.items()}
    train, val = hold_out(aligned, cfg.val_fraction, stream(seed, "downstream", "val-split"))
    transport, rounds = TransportLog(), itertools.count()
    history, _ = fit(
        fed, cfg.epochs,
        lambda e: sample_aligned_batches(train, cfg.batch_size, stream(seed, "aligned-batches", e)),
        lambda batch: run_round(fed, batch, next(rounds), transport),
        val,
    )
    return fed, history


@pytest.mark.parametrize("mode", [m for m in TrainMode if m.is_federated],
                         ids=lambda m: m.value)
def test_a_warm_started_cell_equals_drawing_then_overwriting(tiny_bundle, specs3, pretrained,
                                                             mode):
    cfg = _dcfg(beta=0.3, epochs=3, warm_start_active=True)
    out = train_downstream(tiny_bundle.train, specs3, mode, pretrained, cfg, 13, 40)
    fed, history = _drawn_then_overwritten(tiny_bundle.train, specs3, mode, pretrained,
                                           cfg, 13, 40)
    assert out.history == history
    for k in specs3:
        np.testing.assert_array_equal(out.encoders[k].theta, fed.encoders[k].theta)
    np.testing.assert_array_equal(out.head.theta, fed.head.theta)


def test_a_pretrained_encoder_of_another_spec_is_refused_naming_its_party(
        tiny_bundle, specs3, pretrained):
    train = tiny_bundle.train
    other = replace(specs3[2], embed_dim=2)
    wrong = PretrainedWeights(active=pretrained.active,
                              passive={**pretrained.passive, 3: other.build(stream(1, "o"))})
    with pytest.raises(SchemaError, match=r"^party 3's pre-trained encoder spec "):
        train_downstream(train, specs3, TrainMode.VFLHLP_P, wrong, _dcfg(), 13, 40)
    wrong = PretrainedWeights(active=anchor_model(other, stream(1, "a")))
    with pytest.raises(SchemaError, match=r"^party 1's pre-trained encoder spec "):
        train_downstream(train, specs3, TrainMode.VANILLA_VFL, wrong,
                         _dcfg(warm_start_active=True), 13, 40)


def test_a_cell_leaves_the_pretrained_models_as_they_were(tiny_bundle, specs3, pretrained):
    models = [pretrained.active.encoder, pretrained.active.head, *pretrained.passive.values()]
    before = [m.theta.copy() for m in models]
    out = train_downstream(tiny_bundle.train, specs3, TrainMode.VFLHLP, pretrained,
                           _dcfg(beta=0.3, epochs=2, warm_start_active=True), 13, 40)
    assert all(out.encoders[k] is not pretrained.passive[k] for k in (2, 3))
    for model, theta in zip(models, before):
        np.testing.assert_array_equal(model.theta, theta)


@pytest.mark.parametrize("batch_size, epochs", [(64, 2**32 - 1), (64, 2**32),
                                                (16, 2**30 - 1), (16, 2**30)])
def test_a_schedule_the_transport_log_cannot_index_is_refused_before_any_round(
        tiny_bundle, specs3, monkeypatch, batch_size, epochs):
    class FirstRound(Exception):
        pass

    def first_round(*args, **kwargs):
        raise FirstRound

    monkeypatch.setattr(federated, "run_round", first_round)
    # 54 rows after the 10% validation carve at count 60: 1 or 4 rounds an epoch
    n_rounds = epochs * (1 if batch_size == 64 else 4)
    args = (tiny_bundle.train, specs3, TrainMode.VANILLA_VFL, None,
            _dcfg(epochs=epochs, batch_size=batch_size), 13, 60)
    if n_rounds <= 2**32 - 1:
        with pytest.raises(FirstRound):
            train_downstream(*args)
        return
    with pytest.raises(ConfigError, match=f"make {n_rounds} rounds; .* at most 4294967295"):
        train_downstream(*args)


POOL = tiny_synth_config().aligned_pool


@pytest.mark.parametrize("count", [0, POOL + 1, POOL])
def test_the_aligned_count_is_checked_against_the_pool(tiny_bundle, specs3, count):
    train = tiny_bundle.train
    assert train.aligned_pool.size == POOL
    args = (train, specs3, TrainMode.VANILLA_VFL, None, _dcfg(epochs=1), 13, count)
    if count != POOL:
        with pytest.raises(DataError, match=f"aligned count {count} .* pool of {POOL}"):
            train_downstream(*args)
        return
    out = train_downstream(*args)
    # the whole pool less the 10% validation carve: 108 rows, batches of 16
    assert audit_transport(out.transport, train).n_rounds == 7


def test_local_mode_returns_local_model(tiny_bundle, specs3):
    train = tiny_bundle.train
    out = train_local(train, specs3[1], _dcfg(epochs=2, batch_size=128), 13)
    assert isinstance(out, TrainedFederation) and list(out.encoders) == [1]
    assert out.mode is TrainMode.LOCAL_A
    assert len(out.history) == 2
    # local mode trains on the full local table, not the aligned subset
    direct = pretrain_active(
        train.parties[1], train.labels, specs3[1],
        SupConfig(epochs=2, batch_size=128, learning_rate=1e-3), seed=13,
    )
    for name, arr in out.encoders[1].params().items():
        np.testing.assert_array_equal(arr, direct.encoder.params()[name])
    assert out.history == [
        {"epoch": i + 1, "loss": loss, "loss_vfl": loss, "loss_cons": 0.0, "val_auc": None}
        for i, loss in enumerate(row["loss"] for row in direct.history)
    ]
    assert [e["epoch"] for e in out.history] == [1, 2]


def test_train_downstream_refuses_local_a(tiny_bundle, specs3):
    # local_a is no split training: it trains with train_local
    with pytest.raises(ConfigError, match="local_a does not run the split protocol"):
        train_downstream(tiny_bundle.train, specs3, TrainMode.LOCAL_A, None, _dcfg(), 13, 40)


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


# (active, passive) pre-trained weights each mode needs, without and with
# warm_start_active
NEEDS = {
    TrainMode.LOCAL_A: ((False, False), (False, False)),
    TrainMode.VANILLA_VFL: ((False, False), (True, False)),
    TrainMode.VFLHLP: ((True, True), (True, True)),
    TrainMode.VFLHLP_A: ((True, False), (True, False)),
    TrainMode.VFLHLP_P: ((False, True), (True, True)),
}


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("mode", list(TrainMode))
def test_pretrained_needs_of_each_mode(mode, warm):
    assert pretrained_needs([mode], warm) == NEEDS[mode][warm]


def test_pretrained_needs_of_several_modes_is_the_union():
    modes = [TrainMode.LOCAL_A, TrainMode.VFLHLP_A, TrainMode.VFLHLP_P]
    assert pretrained_needs(modes, False) == (True, True)
    assert pretrained_needs([TrainMode.LOCAL_A, TrainMode.VANILLA_VFL], False) == (False, False)
    assert pretrained_needs([], True) == (False, False)
