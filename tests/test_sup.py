"""Active-party local pre-training tests."""
import numpy as np
import pytest

from vflhlp import federated, sup_pretrain
from vflhlp.data import PartyView
from vflhlp.errors import ConfigError, DataError, TrainingError
from vflhlp.federated import Federation
from vflhlp.metrics import auc
from vflhlp.nn import Mlp, bce_with_logits, make_optimizer
from vflhlp.nn.layers import BINCOUNT_ROWS, BlockRows, ModelSet
from vflhlp.rng import stream
from vflhlp.sup_pretrain import SupConfig, local_predict, pretrain_active

from conftest import small_spec


def _spec():
    return small_spec(n_cat=1, n_num=3, cardinality=6, embed_dim=3, hidden=(8, 4))


def _loss_trace(model) -> list[float]:
    """Each epoch's training loss, from the model's history rows."""
    return [row["loss"] for row in model.history]


def test_pretrain_active_is_deterministic(tiny_bundle):
    view = tiny_bundle.train.parties[1]
    labels = tiny_bundle.train.labels
    cfg = SupConfig(epochs=2, batch_size=128)
    a = pretrain_active(view, labels, _spec(), cfg, seed=5)
    b = pretrain_active(view, labels, _spec(), cfg, seed=5)
    assert a.best_epoch == b.best_epoch
    assert a.val_auc == b.val_auc
    assert _loss_trace(a) == _loss_trace(b)
    for name, arr in a.encoder.params().items():
        np.testing.assert_array_equal(arr, b.encoder.params()[name])
    for name, arr in a.head.params().items():
        np.testing.assert_array_equal(arr, b.head.params()[name])


def test_pretrain_active_learns_its_own_table(tiny_bundle):
    view = tiny_bundle.train.parties[1]
    labels = tiny_bundle.train.labels
    cfg = SupConfig(epochs=10, batch_size=128, learning_rate=5e-3)
    model = pretrain_active(view, labels, _spec(), cfg, seed=1)
    assert not model.degenerate_validation
    assert model.val_auc is not None and 0.5 < model.val_auc <= 1.0
    assert 1 <= model.best_epoch <= cfg.epochs
    scores = local_predict(model, view.cat, view.num)
    assert scores.shape == labels.shape
    assert np.all((scores > 0) & (scores < 1))
    assert auc(labels.astype(np.int64), scores) > 0.6
    assert _loss_trace(model)[-1] < _loss_trace(model)[0]


def test_pretrain_active_without_validation_keeps_the_last_epoch(tiny_bundle, monkeypatch):
    nets = []  # the one-party Federation the run trains, to read its final weights

    class Spy(sup_pretrain.Federation):
        def __init__(self, *args):
            super().__init__(*args)
            nets.append(self)

    monkeypatch.setattr(sup_pretrain, "Federation", Spy)
    view, labels = tiny_bundle.train.parties[1], tiny_bundle.train.labels
    model = pretrain_active(view, labels, _spec(),
                            SupConfig(epochs=3, batch_size=128, val_fraction=0.0), seed=5)
    assert model.degenerate_validation is False
    assert model.val_auc is None
    assert model.best_epoch == 3
    (net,) = nets
    encoder, head = net.encoders[1], net.head
    for final, kept in ((encoder, model.encoder.params()), (head, model.head.params())):
        assert set(kept) == set(final.params())
        for name, arr in final.params().items():
            np.testing.assert_array_equal(kept[name], arr)
            assert not np.shares_memory(kept[name], arr)


def test_pretrain_active_snapshot_tracks_best_validation_prefix(tiny_bundle):
    # a shorter run with the same seed replays the same epochs, so a run that
    # stops at the long run's best epoch ends on the weights the long run kept
    view = tiny_bundle.train.parties[1]
    labels = tiny_bundle.train.labels
    long = pretrain_active(view, labels, _spec(),
                           SupConfig(epochs=10, batch_size=64), seed=2)
    assert long.best_epoch < 10  # the kept epoch is not the last one
    exact = pretrain_active(view, labels, _spec(),
                            SupConfig(epochs=long.best_epoch, batch_size=64), seed=2)
    assert _loss_trace(long)[:long.best_epoch] == _loss_trace(exact)
    assert long.best_epoch == exact.best_epoch
    assert long.val_auc == exact.val_auc
    assert np.array_equal(long.encoder.theta, exact.encoder.theta)
    assert np.array_equal(long.head.theta, exact.head.theta)


def _local_view(n: int) -> PartyView:
    """An active party's table of n rows that _spec() fits."""
    rng = stream(30, "degenerate")
    ids = np.arange(n, dtype=np.int64)
    cat = rng.integers(1, 6, size=(n, 1)).astype(np.int64)
    num = rng.uniform(size=(n, 3))
    return PartyView(party_id=1, ids=ids, cat=cat, num=num,
                     cat_fields=(("c0", 6),), num_fields=("n0", "n1", "n2"))


def test_pretrain_active_degenerate_validation_flag():
    labels = np.ones(60)  # single class everywhere, AUC never defined
    for epochs in (1, 2):
        model = pretrain_active(_local_view(60), labels, _spec(), SupConfig(epochs=epochs),
                                seed=0)
        assert model.degenerate_validation
        assert model.val_auc is None
    # one validation row: both classes are there, but no AUC on the held-out row
    model = pretrain_active(_local_view(10), np.arange(10) % 2.0, _spec(),
                            SupConfig(epochs=1, val_fraction=0.1), seed=0)
    assert model.degenerate_validation


def test_pretrain_active_needs_a_training_row():
    view, labels = _local_view(4), np.array([0.0, 1.0, 0.0, 1.0])
    # round(0.9 * 4) = 4 rows held out leave nothing to train on
    with pytest.raises(DataError, match="no training rows"):
        pretrain_active(view, labels, _spec(), SupConfig(epochs=1, val_fraction=0.9), seed=0)
    # round(0.7 * 4) = 3 rows held out leave one
    model = pretrain_active(view, labels, _spec(), SupConfig(epochs=1, val_fraction=0.7),
                            seed=0)
    assert len(_loss_trace(model)) == 1 and np.isfinite(_loss_trace(model)[0])


def test_pretrain_active_without_epochs_keeps_its_initial_weights(tiny_bundle):
    view, labels = tiny_bundle.train.parties[1], tiny_bundle.train.labels
    model = pretrain_active(view, labels, _spec(), SupConfig(epochs=0), seed=5)
    assert (model.best_epoch, model.val_auc, _loss_trace(model)) == (0, None, [])
    assert model.degenerate_validation is False  # no epoch was scored
    encoder = _spec().build(stream(5, "sup", "init-encoder"))
    head = Mlp.init(stream(5, "sup", "init-head"), [_spec().rep_dim, 1])
    assert np.array_equal(model.encoder.theta, encoder.theta)
    assert np.array_equal(model.head.theta, head.theta)


def test_pretrain_active_keeps_the_first_of_tied_best_epochs(monkeypatch):
    scores = []  # each epoch's validation AUC
    score = federated.validation_auc

    def spy(*args):
        scores.append(score(*args))
        return scores[-1]

    monkeypatch.setattr(federated, "validation_auc", spy)
    view = _local_view(60)
    labels = (view.num[:, 0] + 0.3 * view.num[:, 1] > 0.6).astype(np.float64)
    model = pretrain_active(view, labels, _spec(), SupConfig(
        epochs=10, batch_size=8, learning_rate=1e-2, val_fraction=0.1), seed=1)
    assert scores.count(max(scores)) > 1  # six held-out rows: the best AUC recurs
    assert model.best_epoch == 1 + scores.index(max(scores))
    assert model.val_auc == max(scores)


def test_pretrain_active_stops_at_a_non_finite_epoch_loss(tiny_bundle, monkeypatch):
    class Spy(sup_pretrain.Federation):
        calls = 0

        def forward_backward(self, *args):
            loss = super().forward_backward(*args)
            Spy.calls += 1
            return np.inf if Spy.calls == 2 else loss

    monkeypatch.setattr(sup_pretrain, "Federation", Spy)
    view, labels = tiny_bundle.train.parties[1], tiny_bundle.train.labels
    with pytest.raises(TrainingError, match="non-finite at epoch 2"):  # one step an epoch
        pretrain_active(view, labels, _spec(), SupConfig(epochs=3, batch_size=view.n), seed=0)


def test_pretrain_active_loss_trace_is_the_row_weighted_mean_of_its_steps(tiny_bundle,
                                                                          monkeypatch):
    steps = []  # (loss, rows) of each step

    class Spy(sup_pretrain.Federation):
        def forward_backward(self, cat, num, labels, *args):
            loss = super().forward_backward(cat, num, labels, *args)
            steps.append((loss, labels.size))
            return loss

    monkeypatch.setattr(sup_pretrain, "Federation", Spy)
    view, labels = tiny_bundle.train.parties[1], tiny_bundle.train.labels
    model = pretrain_active(view, labels, _spec(), SupConfig(epochs=1, batch_size=100), seed=3)
    assert len({rows for _, rows in steps}) == 2  # full batches and a shorter last one
    total = 0.0
    for loss, rows in steps:
        total += loss * rows
    assert _loss_trace(model) == [total / sum(rows for _, rows in steps)]


def test_pretrain_active_batches_follow_the_hand_written_split_and_shuffle(tiny_bundle,
                                                                          monkeypatch):
    # the oracle is the batch order pretrain_active once built by hand: hold out
    # the first round(0.1 * n) rows of the val-split permutation, then each epoch
    # slice the rest in the order of its shuffle stream, the last batch short
    steps, scored = [], []  # each step's (cat, num, labels); each epoch's held-out rows

    class Spy(sup_pretrain.Federation):
        def forward_backward(self, cat, num, labels, *args):
            steps.append((cat[1], num[1], labels))
            return super().forward_backward(cat, num, labels, *args)

    score = federated.validation_auc

    def spy(fed, val):
        scored.append((val.cat[1], val.num[1], val.labels))
        return score(fed, val)

    monkeypatch.setattr(sup_pretrain, "Federation", Spy)
    monkeypatch.setattr(federated, "validation_auc", spy)
    view, labels, seed = tiny_bundle.train.parties[1], tiny_bundle.train.labels, 6
    pretrain_active(view, labels, _spec(), SupConfig(epochs=2, batch_size=64), seed)

    cat_rows = _spec().build(stream(0, "any")).resolve(view.cat)  # the weights do not matter
    perm = stream(seed, "sup", "val-split").permutation(view.n)
    n_val = int(round(0.1 * view.n))
    val_rows, train_rows = perm[:n_val], perm[n_val:]
    expected = []
    for epoch in (1, 2):
        shuffled = train_rows[stream(seed, "sup", "shuffle", epoch).permutation(train_rows.size)]
        expected += [shuffled[i : i + 64] for i in range(0, shuffled.size, 64)]
    assert [rows.size for rows in expected] == [64] * 5 + [40] + [64] * 5 + [40]
    assert len(steps) == len(expected)
    for (cat, num, y), rows in zip(steps, expected):
        assert type(cat) is BlockRows
        assert cat.tobytes() == cat_rows[rows].tobytes()
        assert num.tobytes() == view.num[rows].tobytes()
        assert y.tobytes() == labels[rows].tobytes()
    assert len(scored) == 2
    for cat, num, y in scored:
        assert (cat.tobytes(), num.tobytes(), y.tobytes()) == (
            cat_rows[val_rows].tobytes(), view.num[val_rows].tobytes(),
            labels[val_rows].tobytes())


def test_pretrain_active_rejects_passive_party(tiny_bundle):
    view = tiny_bundle.train.parties[2]
    with pytest.raises(ConfigError):
        pretrain_active(view, np.zeros(view.n), _spec(), SupConfig(epochs=1), seed=0)


def reference_step(net, optimizer, lr, cat, num, y) -> float:
    """pretrain_active's training step as it was written out by hand, over a
    ModelSet of the encoder ("enc") and its head: the oracle for the shared
    step that the local model now takes as a one-party Federation."""
    encoder, head = net.models["enc"], net.models["head"]
    rep, enc_tape = encoder.forward(cat, num)
    logits, head_tape = head.forward(rep)
    loss, dlogits = bce_with_logits(logits[:, 0], y)
    _, drep = head.backward(head_tape, dlogits[:, None])
    encoder.backward(enc_tape, drep)
    optimizer.step(net.theta, net.grad, lr, net.layout)
    return loss


# the presets' local steps (SGD at batch 8, Adam at batch 256), and the batches
# on both sides of the embedding backward's switch to np.bincount
@pytest.mark.parametrize("optimizer, batch, steps", [
    ("sgd", 8, 1_050), ("adam", 256, 36),
    ("sgd", BINCOUNT_ROWS - 1, 40), ("adam", BINCOUNT_ROWS, 40),
])
def test_a_one_party_federation_steps_as_the_reference_step(tiny_bundle, optimizer,
                                                            batch, steps):
    view, labels = tiny_bundle.train.parties[1], tiny_bundle.train.labels
    spec = _spec()
    assert len(spec.cat_fields) == 1  # a batch of n rows looks up n embedding rows
    lr = 5e-2 if optimizer == "sgd" else 1e-2
    encoder = spec.build(stream(4, "oracle", "encoder"))
    head = Mlp.init(stream(4, "oracle", "head"), [spec.rep_dim, 1])
    net = ModelSet({"enc": encoder, "head": head})
    fed = Federation({1: encoder}, head, 0.0, lr, lr, optimizer)
    ref_optimizer = make_optimizer(optimizer)
    cat_rows = encoder.resolve(view.cat)
    pick = stream(4, "oracle", "rows")
    for step in range(steps):
        rows = pick.choice(view.n, batch, replace=False)
        cat, num, y = cat_rows[rows], view.num[rows], labels[rows]
        ref_loss = reference_step(net, ref_optimizer, lr, cat, num, y)
        loss = fed.forward_backward({1: cat}, {1: num}, y)
        assert loss == ref_loss, step
        for mine, ref in ((fed.encoders[1], net.models["enc"]), (fed.head, net.models["head"])):
            assert mine.grad.tobytes() == ref.grad.tobytes(), step
        fed.optimizer.step(fed.theta, fed.grad, fed.lr, fed.layout)
        for mine, ref in ((fed.encoders[1], net.models["enc"]), (fed.head, net.models["head"])):
            assert mine.theta.tobytes() == ref.theta.tobytes(), step
    # the run moved the weights, the embedding block included
    assert fed.encoders[1].embed.block.tobytes() != encoder.embed.block.tobytes()
