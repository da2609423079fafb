"""Exact call budgets for the units of work the training loops repeat.

Wall time on a shared host drifts too much to see a few added calls, but a
call count is exact. Each test counts, with `sys.setprofile`, the
Python-level calls (profile "call" events) and C-level calls ("c_call"
events: builtins and C functions and methods, such as `len`, `list.append`
and most of numpy's functions) that one unit of work makes, and holds each count to a budget
set at today's value. The unit's own call is not counted.

`sys.setprofile` does not see numpy's operators (`a * b`, `a[rows]`), its
ufunc calls (`np.exp(x)`) or the calling of a type (`zip(...)`), so a count
undercounts the array work; it catches an added call on the per-batch path,
not an added operation. The counts are those of numpy 2.4; another numpy
version may call its own Python helpers a different number of times.
"""
import sys

import numpy as np
import pytest

from vflhlp.data import sample_aligned_batches
from vflhlp.federated import (
    DownstreamConfig, Federation, TrainMode, TransportLog, run_round, train_downstream,
)
from vflhlp.nn import Mlp
from vflhlp.rng import stream
from vflhlp.ssl_pretrain import SslConfig, contrastive_batch, pretrain_passive
from vflhlp.sup_pretrain import SupConfig, pretrain_active

from conftest import anchor_model, build_federation, small_spec

# (Python-level calls, C-level calls) at most, per unit
BUDGETS = {
    "round vflhlp b8": (45, 95),
    "round vanilla_vfl b8": (42, 90),
    "supervised step sgd b8": (14, 28),
    "supervised step adam b256": (16, 29),
    "contrastive batch b256": (6, 10),
    "contrastive epoch b64": (694, 1430),
    "aligned batches epoch b8": (22, 0),
    "local epoch sgd b8": (1006, 1719),
    "downstream epoch vanilla_vfl b8": (715, 1225),
}


def count_calls(fn, *args) -> tuple[int, int]:
    """The Python-level and C-level calls that fn(*args) makes."""
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return counts["call"] - 1, counts["c_call"] - 1  # fn's own call, setprofile(None)


def _spec():
    return small_spec(n_cat=1, n_num=3, cardinality=6, embed_dim=3, hidden=(8, 4))


def _within_budget(unit: str, fn, *args) -> None:
    fn(*args)  # once first: a first call may set up what later calls reuse
    py, c = count_calls(fn, *args)
    budget_py, budget_c = BUDGETS[unit]
    assert py <= budget_py and c <= budget_c, (unit, (py, c), BUDGETS[unit])


@pytest.mark.parametrize("mode", [TrainMode.VFLHLP, TrainMode.VANILLA_VFL])
def test_a_round_keeps_its_call_budget(tiny_bundle, mode):
    # the Federation holds anchors exactly in a constrained mode, as in a cell
    train = tiny_bundle.train
    specs = {k: _spec() for k in (1, 2, 3)}
    anchor = None
    if mode.uses_constraint:
        anchor = anchor_model(specs[1], stream(3, "anchor"), head=np.zeros(5))
    fed = build_federation(train, specs, beta=0.5, seed=3, optimizer="sgd", anchor=anchor)
    pool = train.gather(train.aligned_ids(40))
    pool.cat = {k: fed.encoders[k].resolve(cat) for k, cat in pool.cat.items()}
    (batch, _), *_ = sample_aligned_batches(pool, 8, stream(3, "aligned-batches", 1))
    _within_budget(f"round {mode.value} b8", run_round, fed, batch, 0, TransportLog())


@pytest.mark.parametrize("optimizer, batch", [("sgd", 8), ("adam", 256)])
def test_a_supervised_step_keeps_its_call_budget(tiny_bundle, optimizer, batch):
    view, labels = tiny_bundle.train.parties[1], tiny_bundle.train.labels
    spec = _spec()
    fed = Federation({1: spec.build(stream(3, "encoder"))},
                     Mlp.init(stream(3, "head"), [spec.rep_dim, 1]), 0.0, 1e-3, 1e-3,
                     optimizer)
    rows = np.arange(batch)
    cat, num, y = fed.encoders[1].resolve(view.cat)[rows], view.num[rows], labels[rows]

    def step():  # pretrain_active's step
        fed.forward_backward({1: cat}, {1: num}, y)
        fed.optimizer.step(fed.theta, fed.grad, fed.lr, fed.layout)

    _within_budget(f"supervised step {optimizer} b{batch}", step)


def test_a_contrastive_batch_keeps_its_call_budget():
    rng = stream(3, "views")
    z, z_tilde = rng.normal(size=(256, 4)), rng.normal(size=(256, 4))
    _within_budget("contrastive batch b256", contrastive_batch, z, z_tilde, 1.0)


def test_an_epoch_of_contrastive_training_keeps_its_call_budget(tiny_bundle):
    # pretrain_passive whole, one epoch: 400 rows make 7 batches, and the probe's 7
    cfg = SslConfig(epochs=1, batch_size=64)
    _within_budget("contrastive epoch b64", pretrain_passive, tiny_bundle.train.parties[2],
                   _spec(), cfg, 3)


def test_an_epoch_of_aligned_batches_keeps_its_call_budget(tiny_bundle):
    train = tiny_bundle.train
    pool = train.gather(train.aligned_ids(120))
    _within_budget("aligned batches epoch b8", sample_aligned_batches, pool, 8,
                   stream(3, "aligned-batches", 1))


def test_an_epoch_of_local_training_keeps_its_call_budget(tiny_bundle):
    # pretrain_active whole, one epoch: 360 training rows make 45 steps
    view, labels = tiny_bundle.train.parties[1], tiny_bundle.train.labels
    cfg = SupConfig(epochs=1, batch_size=8, optimizer="sgd")
    _within_budget("local epoch sgd b8", pretrain_active, view, labels, _spec(), cfg, 3)


def test_an_epoch_of_downstream_training_keeps_its_call_budget(tiny_bundle):
    # train_downstream whole, one epoch: 36 of 40 aligned rows make 5 rounds
    specs = {k: _spec() for k in (1, 2, 3)}
    cfg = DownstreamConfig(beta=0.0, epochs=1, batch_size=8, optimizer="sgd")
    _within_budget("downstream epoch vanilla_vfl b8", train_downstream, tiny_bundle.train,
                   specs, TrainMode.VANILLA_VFL, None, cfg, 3, 40)
