"""Contrastive pre-training tests.

The InfoNCE implementation is checked against a literal double-loop
oracle, two hand-derivable pinned values, and finite differences through
the full cosine-similarity path.
"""
import math

import numpy as np
import pytest

from vflhlp.errors import ConfigError, SchemaError
from vflhlp.rng import stream
from vflhlp.ssl_pretrain import (
    CorruptionModel,
    SslConfig,
    contrastive_batch,
    corrupt,
    cosine_similarity_matrix,
    info_nce,
    pretrain_passive,
)

from conftest import small_spec
from gradcheck import max_relative_error, numeric_grads


# ----------------------------------------------------------------- oracles

def naive_info_nce(s: np.ndarray, tau: float) -> tuple[float, np.ndarray]:
    """Literal definition, one row at a time, no vectorization tricks."""
    n = s.shape[0]
    total = 0.0
    for i in range(n):
        mean_exp = sum(math.exp(s[i, j] / tau) for j in range(n)) / n
        total += -s[i, i] / tau + math.log(mean_exp)
    loss = total / n
    grad = np.zeros_like(s)
    for i in range(n):
        denom = sum(math.exp(s[i, j] / tau) for j in range(n))
        for j in range(n):
            p = math.exp(s[i, j] / tau) / denom
            grad[i, j] = (p - (1.0 if i == j else 0.0)) / (n * tau)
    return loss, grad


@pytest.mark.parametrize("n,tau", [(2, 1.0), (5, 1.0), (8, 0.3), (16, 2.5)])
def test_info_nce_matches_naive_oracle(n, tau):
    rng = stream(200, "nce", n)
    s = rng.uniform(-1.0, 1.0, size=(n, n))
    loss, grad = info_nce(s, tau)
    oracle_loss, oracle_grad = naive_info_nce(s, tau)
    assert abs(loss - oracle_loss) < 1e-10
    assert np.abs(grad - oracle_grad).max() < 1e-10


def test_info_nce_all_equal_matrix_scores_zero():
    for c in (0.0, 0.37, -5.0):
        loss, grad = info_nce(np.full((6, 6), c), temperature=0.7)
        assert loss == pytest.approx(0.0, abs=1e-14)
        # uniform softmax minus identity
        np.testing.assert_allclose(
            grad, (np.full((6, 6), 1 / 6) - np.eye(6)) / (6 * 0.7), atol=1e-14
        )


def test_info_nce_identity_pair_pinned_value():
    # N=2, S=I, tau=1: loss = log((e+1)/2) - 1
    loss, _ = info_nce(np.eye(2), temperature=1.0)
    assert loss == pytest.approx(math.log((math.e + 1.0) / 2.0) - 1.0, abs=1e-12)


def test_info_nce_gradient_matches_fd():
    rng = stream(201, "nce-fd")
    s = rng.uniform(-1.0, 1.0, size=(6, 6))
    params = {"s": s}
    numeric = numeric_grads(lambda: info_nce(s, 0.8)[0], params)
    analytic = {"s": info_nce(s, 0.8)[1]}
    assert max_relative_error(analytic, numeric) < 1e-8


def test_info_nce_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        info_nce(np.eye(3), temperature=0.0)
    with pytest.raises(ConfigError):
        info_nce(np.eye(3), temperature=-1.0)
    with pytest.raises(SchemaError):
        info_nce(np.zeros((3, 4)), temperature=1.0)
    with pytest.raises(SchemaError):
        info_nce(np.zeros((0, 0)), temperature=1.0)


def test_info_nce_stable_at_large_similarity_scale():
    # max-shifted logsumexp must survive tiny temperatures
    s = np.eye(4)
    loss, grad = info_nce(s, temperature=1e-3)
    assert np.isfinite(loss)
    assert np.all(np.isfinite(grad))
    # diagonal dominates completely: loss -> -log 4
    assert loss == pytest.approx(-math.log(4), abs=1e-6)


# ----------------------------------------------------------------- cosine

def test_cosine_matrix_matches_naive():
    rng = stream(202, "cos")
    z = rng.standard_normal((5, 3))
    t = rng.standard_normal((5, 3))
    s = cosine_similarity_matrix(z, t)
    for i in range(5):
        for j in range(5):
            expected = z[i] @ t[j] / (np.linalg.norm(z[i]) * np.linalg.norm(t[j]))
            assert s[i, j] == pytest.approx(expected, abs=1e-12)
    assert np.abs(s).max() <= 1.0 + 1e-12


def test_cosine_matrix_zero_row_is_clamped_not_nan():
    z = np.array([[0.0, 0.0], [1.0, 0.0]])
    t = np.array([[1.0, 1.0], [0.0, 2.0]])
    s = cosine_similarity_matrix(z, t)
    assert np.all(np.isfinite(s))
    np.testing.assert_array_equal(s[0], [0.0, 0.0])


def test_contrastive_batch_grads_match_fd():
    rng = stream(203, "cb-fd")
    z = rng.standard_normal((5, 4)) + 0.5
    zt = rng.standard_normal((5, 4)) - 0.2
    params = {"z": z, "zt": zt}

    def loss_fn():
        return contrastive_batch(z, zt, 0.9).loss

    numeric = numeric_grads(loss_fn, params)
    result = contrastive_batch(z, zt, 0.9)
    analytic = {"z": result.grad_z, "zt": result.grad_z_tilde}
    assert max_relative_error(analytic, numeric) < 1e-6


def test_contrastive_batch_zero_row_uses_clamped_jacobian():
    # below the norm clamp the map is x / eps, so the pullback is ds @ t_hat / eps
    z = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, -1.0]])
    zt = np.array([[0.5, -0.5, 1.0], [2.0, 0.0, 0.3]])
    res = contrastive_batch(z, zt, 1.0)
    tn = np.linalg.norm(zt, axis=1, keepdims=True)
    th = zt / tn
    _, ds = info_nce(res.similarities, 1.0)
    expected_row0 = (ds @ th)[0] / 1e-12
    np.testing.assert_allclose(res.grad_z[0], expected_row0, rtol=1e-12)
    assert np.all(np.isfinite(res.grad_z))


# ----------------------------------------------------------------- corruption

def _fake_view(n=50, n_cat=2, n_num=3, seed=4):
    from vflhlp.data import PartyView

    rng = stream(seed, "fake-view")
    ids = np.arange(n, dtype=np.int64)
    cat = rng.integers(1, 6, size=(n, n_cat)).astype(np.int64)
    num = rng.uniform(size=(n, n_num))
    cat_fields = tuple((f"c{j}", 6) for j in range(n_cat))
    num_fields = tuple(f"n{j}" for j in range(n_num))
    return PartyView(party_id=2, ids=ids, cat=cat, num=num,
                     cat_fields=cat_fields, num_fields=num_fields)


@pytest.mark.parametrize("rate,expected", [(0.0, 0), (0.2, 1), (0.5, 3),
                                           (0.6, 3), (0.61, 4), (1.0, 5)])
def test_corrupt_marks_exactly_ceil_rate_d_positions(rate, expected):
    view = _fake_view()
    model = CorruptionModel.fit(view, rate)
    cat, num, mask = corrupt(view.cat, view.num, model, stream(1, "c"))
    assert mask.shape == (view.n, 5)
    np.testing.assert_array_equal(mask.sum(axis=1), expected)


def test_corrupt_rate_zero_returns_unchanged_copies():
    view = _fake_view()
    model = CorruptionModel.fit(view, 0.0)
    cat, num, mask = corrupt(view.cat, view.num, model, stream(2, "c"))
    np.testing.assert_array_equal(cat, view.cat)
    np.testing.assert_array_equal(num, view.num)
    assert cat is not view.cat and num is not view.num
    assert not mask.any()


def test_corrupt_only_touches_masked_positions():
    view = _fake_view()
    model = CorruptionModel.fit(view, 0.5)
    cat, num, mask = corrupt(view.cat, view.num, model, stream(3, "c"))
    n_cat = view.cat.shape[1]
    same_cat = cat == view.cat
    same_num = num == view.num
    assert np.all(same_cat[~mask[:, :n_cat]])
    assert np.all(same_num[~mask[:, n_cat:]])


def test_corrupt_replacements_come_from_observed_marginals():
    view = _fake_view(n=30)
    model = CorruptionModel.fit(view, 1.0)
    cat, num, mask = corrupt(view.cat, view.num, model, stream(5, "c"))
    for j in range(view.cat.shape[1]):
        assert np.isin(cat[:, j], np.unique(view.cat[:, j])).all()
    for j in range(view.num.shape[1]):
        assert np.isin(num[:, j], view.num[:, j]).all()


def test_corrupt_is_deterministic_given_stream():
    view = _fake_view()
    model = CorruptionModel.fit(view, 0.6)
    a = corrupt(view.cat, view.num, model, stream(7, "c"))
    b = corrupt(view.cat, view.num, model, stream(7, "c"))
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_corruption_model_rejects_bad_rate():
    view = _fake_view()
    with pytest.raises(ConfigError):
        CorruptionModel.fit(view, -0.1)
    with pytest.raises(ConfigError):
        CorruptionModel.fit(view, 1.5)


def test_corrupt_rejects_mismatched_batch():
    view = _fake_view()
    model = CorruptionModel.fit(view, 0.5)
    with pytest.raises(SchemaError):
        corrupt(view.cat[:, :1], view.num, model, stream(8, "c"))


# ----------------------------------------------------------------- training

def test_pretrain_passive_is_deterministic(tiny_bundle):
    view = tiny_bundle.train.parties[2]
    spec = small_spec(n_cat=1, n_num=3, cardinality=6, embed_dim=3, hidden=(8, 4))
    cfg = SslConfig(epochs=2, batch_size=128, learning_rate=1e-3)
    enc_a, trace_a = pretrain_passive(view, spec, cfg, seed=3)
    enc_b, trace_b = pretrain_passive(view, spec, cfg, seed=3)
    assert trace_a == trace_b
    for name, arr in enc_a.params().items():
        np.testing.assert_array_equal(arr, enc_b.params()[name])
    _, trace_c = pretrain_passive(view, spec, cfg, seed=4)
    assert trace_a != trace_c


def test_pretrain_passive_trace_starts_with_no_update_probe(tiny_bundle):
    view = tiny_bundle.train.parties[3]
    spec = small_spec(n_cat=1, n_num=3, cardinality=6, embed_dim=3, hidden=(8, 4))
    cfg0 = SslConfig(epochs=0, batch_size=128, learning_rate=1e-3)
    cfg3 = SslConfig(epochs=3, batch_size=128, learning_rate=1e-3)
    enc0, trace0 = pretrain_passive(view, spec, cfg0, seed=9)
    _, trace3 = pretrain_passive(view, spec, cfg3, seed=9)
    assert len(trace0) == 1
    assert len(trace3) == 4
    assert trace3[0] == trace0[0]
    # epochs=0 must leave the init weights untouched
    fresh = spec.build(stream(9, "ssl", 3, "init-encoder"))
    for name, arr in enc0.params().items():
        np.testing.assert_array_equal(arr, fresh.params()[name])


def test_pretrain_passive_learns_on_tiny_data(tiny_bundle):
    view = tiny_bundle.train.parties[2]
    spec = small_spec(n_cat=1, n_num=3, cardinality=6, embed_dim=3, hidden=(16, 8))
    cfg = SslConfig(epochs=6, batch_size=128, learning_rate=5e-3)
    _, trace = pretrain_passive(view, spec, cfg, seed=1)
    assert trace[-1] < trace[0]


def test_pretrain_passive_rejects_active_party(tiny_bundle):
    view = tiny_bundle.train.parties[1]
    spec = small_spec(n_cat=1, n_num=3, cardinality=6)
    with pytest.raises(ConfigError):
        pretrain_passive(view, spec, SslConfig(epochs=1), seed=0)
