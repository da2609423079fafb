"""Contrastive pre-training tests.

InfoNCE and the contrastive batch are checked against literal loop
oracles for the cosine similarities, the loss and both views' gradients,
two hand-derivable pinned values, and finite differences through the full
cosine-similarity path.
"""
import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest

from vflhlp import ssl_pretrain
from vflhlp.config import parse_config
from vflhlp.data import PartyView, synth_generate
from vflhlp.errors import ConfigError, SchemaError, TrainingError
from vflhlp.evaluation import pretrain_for_seed
from vflhlp.federated import DownstreamConfig, TrainMode, train_downstream
from vflhlp.nn.layers import BlockRows, EmbeddingTable
from vflhlp.rng import stream
from vflhlp.ssl_pretrain import (
    CorruptionModel,
    SslConfig,
    _cosine_backward,
    _unit_rows,
    contrastive_batch,
    corrupt,
    info_nce,
    pretrain_passive,
)
from vflhlp.sup_pretrain import SupConfig, pretrain_active

from conftest import small_spec, tiny_synth_config
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


def _clamped_norm(x: np.ndarray) -> float:
    return max(math.sqrt(sum(v * v for v in x)), ssl_pretrain.EPS_NORM)


def naive_cosine(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """S_ij = z_i . t_j / (max(|z_i|, eps) max(|t_j|, eps)), one entry at a time."""
    n = z.shape[0]
    s = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            s[i, j] = sum(a * b for a, b in zip(z[i], t[j])) / (
                _clamped_norm(z[i]) * _clamped_norm(t[j]))
    return s


def naive_contrastive(z: np.ndarray, t: np.ndarray, tau: float):
    """InfoNCE of the cosine similarities and its gradient w.r.t. both views,
    by the chain rule one entry at a time: dS_ij/dz_i is
    t_j / (c_i d_j) - S_ij z_i / c_i**2, with no second term where the norm
    c_i is clamped (and likewise for t_j)."""
    s = naive_cosine(z, t)
    loss, ds = naive_info_nce(s, tau)
    grad_z, grad_t = np.zeros_like(z), np.zeros_like(t)
    for i in range(z.shape[0]):
        ci = _clamped_norm(z[i])
        for j in range(t.shape[0]):
            dj = _clamped_norm(t[j])
            grad_z[i] += ds[i, j] * t[j] / (ci * dj)
            grad_t[j] += ds[i, j] * z[i] / (ci * dj)
            if ci > ssl_pretrain.EPS_NORM:
                grad_z[i] -= ds[i, j] * s[i, j] * z[i] / ci**2
            if dj > ssl_pretrain.EPS_NORM:
                grad_t[j] -= ds[i, j] * s[i, j] * t[j] / dj**2
    return loss, grad_z, grad_t


def assert_matches_naive(z: np.ndarray, t: np.ndarray, tau: float):
    result = contrastive_batch(z, t, tau)
    loss, grad_z, grad_t = naive_contrastive(z, t, tau)
    assert abs(result.loss - loss) < 1e-10
    np.testing.assert_allclose(result.grad_z, grad_z, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(result.grad_z_tilde, grad_t, rtol=1e-10, atol=1e-10)
    return result


@pytest.mark.parametrize("n,tau", [(2, 1.0), (5, 1.0), (8, 0.3), (16, 2.5)])
def test_info_nce_matches_naive_oracle(n, tau):
    rng = stream(200, "nce", n)
    s = rng.uniform(-1.0, 1.0, size=(n, n))
    loss, grad = info_nce(s.copy(), tau)
    oracle_loss, oracle_grad = naive_info_nce(s, tau)
    assert abs(loss - oracle_loss) < 1e-10
    assert np.abs(grad - oracle_grad).max() < 1e-10
    # and through the cosine similarities of two views, with both views' gradients
    assert_matches_naive(rng.standard_normal((n, 4)), rng.standard_normal((n, 4)), tau)


def test_info_nce_all_equal_matrix_scores_zero():
    for c in (0.0, 0.37, -5.0):
        loss, grad = info_nce(np.full((6, 6), c), temperature=0.7)
        assert loss == pytest.approx(0.0, abs=1e-14)
        # uniform softmax minus identity
        np.testing.assert_allclose(
            grad, (np.full((6, 6), 1 / 6) - np.eye(6)) / (6 * 0.7), atol=1e-14
        )
        # equal rows in each view: every similarity is equal (0 for zero rows),
        # and each row of dL/dS sums to 0, so neither view gets a gradient
        result = assert_matches_naive(np.full((6, 3), c), np.full((6, 3), c), 0.7)
        assert result.loss == pytest.approx(0.0, abs=1e-14)
        np.testing.assert_allclose(result.grad_z, 0.0, atol=1e-14)
        np.testing.assert_allclose(result.grad_z_tilde, 0.0, atol=1e-14)


def test_info_nce_identity_pair_pinned_value():
    # N=2, S=I, tau=1: loss = log((e+1)/2) - 1
    want = math.log((math.e + 1.0) / 2.0) - 1.0
    loss, _ = info_nce(np.eye(2), temperature=1.0)
    assert loss == pytest.approx(want, abs=1e-12)
    assert contrastive_batch(np.eye(2), 3.0 * np.eye(2), 1.0).loss == pytest.approx(want, abs=1e-12)


def test_info_nce_gradient_matches_fd():
    rng = stream(201, "nce-fd")
    s = rng.uniform(-1.0, 1.0, size=(6, 6))
    params = {"s": s}
    numeric = numeric_grads(lambda: info_nce(s.copy(), 0.8)[0], params)
    analytic = {"s": info_nce(s.copy(), 0.8)[1]}
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
    nce_loss, nce_grad = info_nce(np.eye(4), temperature=1e-3)
    result = contrastive_batch(np.eye(4), np.eye(4), 1e-3)
    for loss, grads in ((nce_loss, [nce_grad]),
                        (result.loss, [result.grad_z, result.grad_z_tilde])):
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grads))
        # diagonal dominates completely: loss -> -log 4
        assert loss == pytest.approx(-math.log(4), abs=1e-6)


def formula_info_nce(s: np.ndarray, tau: float) -> tuple[float, np.ndarray]:
    """(softmax(A) - I) / (N tau) as written, one fresh array per step."""
    n = s.shape[0]
    a = s / tau
    shift = a.max(axis=1, keepdims=True)
    e = np.exp(a - shift)
    sum_e = e.sum(axis=1, keepdims=True)
    lse = np.log(sum_e[:, 0]) + shift[:, 0]
    loss = float(np.mean(-np.diagonal(a) + lse - np.log(n)))
    return loss, (e / sum_e - np.eye(n)) / (n * tau)


@pytest.mark.parametrize("tau", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("n", [1, 2, 37, 256])
def test_info_nce_is_bitwise_the_formula_and_leaves_its_input(n, tau):
    # info_nce turns the matrix it is given into dL/dS; contrastive_batch,
    # which gives it the batch's similarity matrix, leaves its views alone
    rng = stream(204, "nce-bits", n)
    s = rng.uniform(-1.0, 1.0, size=(n, n))
    work = s.copy()
    loss, grad = info_nce(work, tau)
    want_loss, want_grad = formula_info_nce(s, tau)
    assert grad is work
    assert loss == want_loss
    assert np.array_equal(grad, want_grad)
    z, zt = rng.standard_normal((n, 4)), rng.standard_normal((n, 4))
    z_in, zt_in = z.copy(), zt.copy()
    contrastive_batch(z, zt, tau)
    assert z.tobytes() == z_in.tobytes() and zt.tobytes() == zt_in.tobytes()


@pytest.mark.parametrize("n", [1, 2, 37, 256])
def test_contrastive_batch_is_bitwise_info_nce_then_cosine_backward(n):
    rng = stream(205, "cb-bits", n)
    z = rng.standard_normal((n, 8))
    zt = rng.standard_normal((n, 8))
    z[0] = 0.0  # one clamped row
    z_in, zt_in = z.copy(), zt.copy()
    result = contrastive_batch(z, zt, 0.7)
    z_rows, t_rows = _unit_rows(z, zt)
    loss, ds = formula_info_nce(z_rows[0] @ t_rows[0].T, 0.7)
    grad_z, grad_zt = _cosine_backward(z_rows, t_rows, ds)
    np.testing.assert_array_equal(z, z_in)
    np.testing.assert_array_equal(zt, zt_in)
    assert result.loss == loss
    assert np.array_equal(result.grad_z, grad_z)
    assert np.array_equal(result.grad_z_tilde, grad_zt)


def test_contrastive_batch_rejects_bad_inputs():
    z = np.ones((3, 2))
    for tau in (0.0, -1.0):
        with pytest.raises(ConfigError):
            contrastive_batch(z, z, temperature=tau)
    with pytest.raises(SchemaError):
        contrastive_batch(z, np.ones((3, 3)), temperature=1.0)
    with pytest.raises(SchemaError):
        contrastive_batch(z, np.ones((4, 2)), temperature=1.0)
    with pytest.raises(SchemaError):
        contrastive_batch(np.ones((0, 2)), np.ones((0, 2)), temperature=1.0)


# ----------------------------------------------------------------- cosine

def test_cosine_matrix_matches_naive():
    # the similarities enter the loss and the backward pass as cosines
    rng = stream(202, "cos")
    z = rng.standard_normal((5, 3))
    t = rng.standard_normal((5, 3))
    s = naive_cosine(z, t)
    for i in range(5):
        for j in range(5):
            expected = z[i] @ t[j] / (np.linalg.norm(z[i]) * np.linalg.norm(t[j]))
            assert s[i, j] == pytest.approx(expected, abs=1e-12)
    assert np.abs(s).max() <= 1.0 + 1e-12
    for tau in (0.2, 1.0):
        assert_matches_naive(z, t, tau)
        assert_matches_naive(3.0 * z, t / 7.0, tau)  # cosines do not see the norms


def test_cosine_matrix_zero_row_is_clamped_not_nan():
    z = np.array([[0.0, 0.0], [1.0, 0.0]])
    t = np.array([[1.0, 1.0], [0.0, 2.0]])
    np.testing.assert_array_equal(naive_cosine(z, t)[0], [0.0, 0.0])
    result = assert_matches_naive(z, t, 1.0)  # the zero row's gradient is about 1e11
    assert np.isfinite(result.loss)
    assert np.all(np.isfinite(result.grad_z)) and np.all(np.isfinite(result.grad_z_tilde))


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
    # below the norm clamp the map is x / eps, so the pullback is ds @ t_hat / eps,
    # with no projection term, for a zero row and for a tiny nonzero one alike
    z = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, -1.0], [1e-13, 0.0, 0.0]])
    zt = np.array([[0.5, -0.5, 1.0], [2.0, 0.0, 0.3], [0.1, 1.0, -0.4]])
    res = contrastive_batch(z, zt, 1.0)
    tn = np.linalg.norm(zt, axis=1, keepdims=True)
    th = zt / tn
    _, ds = naive_info_nce(naive_cosine(z, zt), 1.0)
    for row in (0, 2):
        np.testing.assert_allclose(res.grad_z[row], (ds @ th)[row] / 1e-12, rtol=1e-12)
    assert np.all(np.isfinite(res.grad_z))


# ----------------------------------------------------------------- corruption

def _fake_view(n=50, n_cat=2, n_num=3, seed=4):
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
    model = CorruptionModel.fit(view.cat, view.num, rate)
    cat, num, mask = corrupt(view.cat, view.num, model, stream(1, "c"))
    assert mask.shape == (view.n, 5)
    np.testing.assert_array_equal(mask.sum(axis=1), expected)


def test_corrupt_rate_zero_returns_unchanged_copies():
    view = _fake_view()
    model = CorruptionModel.fit(view.cat, view.num, 0.0)
    cat, num, mask = corrupt(view.cat, view.num, model, stream(2, "c"))
    np.testing.assert_array_equal(cat, view.cat)
    np.testing.assert_array_equal(num, view.num)
    assert cat is not view.cat and num is not view.num
    assert not mask.any()


def test_corrupt_only_touches_masked_positions():
    view = _fake_view()
    model = CorruptionModel.fit(view.cat, view.num, 0.5)
    cat, num, mask = corrupt(view.cat, view.num, model, stream(3, "c"))
    n_cat = view.cat.shape[1]
    same_cat = cat == view.cat
    same_num = num == view.num
    assert np.all(same_cat[~mask[:, :n_cat]])
    assert np.all(same_num[~mask[:, n_cat:]])


def test_corrupt_replacements_come_from_observed_marginals():
    view = _fake_view(n=30)
    model = CorruptionModel.fit(view.cat, view.num, 1.0)
    cat, num, mask = corrupt(view.cat, view.num, model, stream(5, "c"))
    for j in range(view.cat.shape[1]):
        assert np.isin(cat[:, j], np.unique(view.cat[:, j])).all()
    for j in range(view.num.shape[1]):
        assert np.isin(num[:, j], view.num[:, j]).all()


def test_corrupt_is_deterministic_given_stream():
    view = _fake_view()
    model = CorruptionModel.fit(view.cat, view.num, 0.6)
    a = corrupt(view.cat, view.num, model, stream(7, "c"))
    b = corrupt(view.cat, view.num, model, stream(7, "c"))
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_corruption_model_rejects_bad_rate():
    view = _fake_view()
    with pytest.raises(ConfigError):
        CorruptionModel.fit(view.cat, view.num, -0.1)
    with pytest.raises(ConfigError):
        CorruptionModel.fit(view.cat, view.num, 1.5)


def test_corrupt_rejects_mismatched_batch():
    view = _fake_view()
    model = CorruptionModel.fit(view.cat, view.num, 0.5)
    with pytest.raises(SchemaError):
        corrupt(view.cat[:, :1], view.num, model, stream(8, "c"))


def _skewed_view(n=300, n_cat=3, n_num=4):
    # uneven categorical frequencies, and numerical values rounded so they repeat
    rng = stream(31, "skewed-view")
    cat = np.floor(rng.random((n, n_cat)) ** 2 * 7).astype(np.int64)
    num = np.round(rng.standard_normal((n, n_num)), 2)
    return PartyView(party_id=2, ids=np.arange(n, dtype=np.int64), cat=cat, num=num,
                     cat_fields=tuple((f"c{j}", 7) for j in range(n_cat)),
                     num_fields=tuple(f"n{j}" for j in range(n_num)))


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# sha256 of (cat, num, mask) for a full batch of 256 rows and then a short one
# of 44 from one stream, and of the stream's next rng.random(4) and
# rng.integers(0, 1000, 3), which covers the generator's state; recorded from
# the implementation that called rng.choice and rng.integers once per column
CORRUPT_PINS = {
    0.3: ("11ec220573fde851040e8bbbbf5a1d4aadb2eb1020502b5f3a9ab93c4dbad99b",
          "be1b49a7bcc7fd045b2036b8b89fbd8f3666dfe0e8d672933760a98347ad8f8d",
          "88101ce113ceb9a51128b0cf9904d99dca35b82e9396103f9d694922827a7488"),
    0.6: ("114236c29cfd93b0f6b9f5bae727e7325f5b6564c08e32adfe5be48935624b81",
          "0783bbf7538cae4d474a7173dfd5c1eb1e2f4504a3bcf8dd20afcc7c9f5e6496",
          "4ec416487abae3983ea32da7c7724b0531fafac2918e50aa777384e41f03a13b"),
    1.0: ("3d9fd87e424952f7f7474a985f0d9289ecf9b839443cac816b7a8c77d7d06bfd",
          "18a92b1b26808f64f0bca57add70d6afa05d44a6c370f0934b2914fc34da0162",
          "05a010f10c44d767fa52baf4e6de615a8f2099810d31afb418cfde516e857d07"),
}


@pytest.mark.parametrize("rate", sorted(CORRUPT_PINS))
def test_corrupt_bytes_and_stream_are_pinned(rate):
    view = _skewed_view()
    model = CorruptionModel.fit(view.cat, view.num, rate)
    rng = stream(32, "corrupt-pin", int(rate * 10))
    rows = stream(33, "corrupt-rows").permutation(view.n)
    got = [_sha(*corrupt(view.cat[b], view.num[b], model, rng))
           for b in (rows[:256], rows[256:])]
    got.append(_sha(rng.random(4), rng.integers(0, 1000, size=3)))
    assert tuple(got) == CORRUPT_PINS[rate]


def per_column_corrupt(view, rows, rate, rng):
    """corrupt as a loop: one rng.choice per categorical column and one
    rng.integers per numerical column, over marginals refit on every call."""
    cat, num = view.cat[rows].copy(), view.num[rows].copy()
    n, n_cat = cat.shape
    d = n_cat + num.shape[1]
    m = math.ceil(rate * d)
    mask = np.zeros((n, d), dtype=bool)
    if m == 0:
        return cat, num, mask
    picked = np.argsort(rng.random((n, d)), axis=1, kind="stable")[:, :m]
    np.put_along_axis(mask, picked, True, axis=1)
    for j in range(d):
        hit = np.nonzero(mask[:, j])[0]
        if not hit.size:
            continue
        if j < n_cat:
            values, counts = np.unique(view.cat[:, j], return_counts=True)
            cat[hit, j] = rng.choice(values, size=hit.size, p=counts / counts.sum())
        else:
            column = np.sort(view.num[:, j - n_cat])
            num[hit, j - n_cat] = column[rng.integers(0, column.size, size=hit.size)]
    return cat, num, mask


@pytest.mark.parametrize("n_cat,n_num", [(0, 8), (3, 0), (2, 5)])
@pytest.mark.parametrize("rate", [0.1, 0.5, 1.0])
def test_corrupt_is_bitwise_the_per_column_loop(n_cat, n_num, rate):
    view = _skewed_view(n=301, n_cat=n_cat, n_num=n_num)
    model = CorruptionModel.fit(view.cat, view.num, rate)
    rng, ref_rng = stream(35, "loop", n_cat, n_num), stream(35, "loop", n_cat, n_num)
    perm = stream(36, "loop-rows").permutation(view.n)
    for rows in (perm[:128], perm[128:256], perm[256:]):  # two full batches, one odd
        got = corrupt(view.cat[rows], view.num[rows], model, rng)
        want = per_column_corrupt(view, rows, rate, ref_rng)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
    assert np.array_equal(rng.random(3), ref_rng.random(3))
    assert np.array_equal(rng.integers(0, 1000, 5), ref_rng.integers(0, 1000, 5))


@pytest.mark.parametrize("n_cat,n_num,one_value", [(0, 8, False), (3, 0, False), (2, 5, False),
                                                   (3, 0, True), (2, 5, True)])
@pytest.mark.parametrize("rate", [0.1, 0.5, 1.0])
def test_corrupting_block_rows_is_resolving_the_corrupted_values(n_cat, n_num, one_value, rate):
    # marginals fit on a table's embedding rows are its raw marginals shifted by
    # the field offsets, with the same counts, so they draw the same cells
    view = _skewed_view(n=301, n_cat=n_cat, n_num=n_num)
    if one_value:
        view.cat[:, 1] = 4
    encoder = small_spec(n_cat=n_cat, n_num=n_num, cardinality=7).build(stream(37, "enc"))
    table = encoder.resolve(view.cat)
    rows_model = CorruptionModel.fit(table, view.num, rate)
    raw_model = CorruptionModel.fit(view.cat, view.num, rate)
    rng, ref_rng = stream(38, "block", n_cat, n_num), stream(38, "block", n_cat, n_num)
    perm = stream(39, "block-rows").permutation(view.n)
    for rows in (perm[:128], perm[128:256], perm[256:]):
        cat, num, mask = corrupt(table[rows], view.num[rows], rows_model, rng)
        raw_cat, raw_num, raw_mask = corrupt(view.cat[rows], view.num[rows], raw_model, ref_rng)
        assert type(cat) is (BlockRows if n_cat else np.ndarray) and cat.dtype == table.dtype
        assert np.array_equal(cat, encoder.resolve(raw_cat))
        assert np.array_equal(num, raw_num) and np.array_equal(mask, raw_mask)
    assert rng.random() == ref_rng.random()


class _TiedScores:
    """A generator whose first `random` call returns the given scores."""

    def __init__(self, scores, rng):
        self.scores, self.rng = scores, rng

    def random(self, size=None):
        if self.scores is None:
            return self.rng.random(size)
        scores, self.scores = self.scores, None
        assert scores.shape == size
        return scores

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_corrupt_ties_go_to_the_lower_column():
    # every row marks exactly ceil(rate * d) cells; a threshold on the m-th
    # smallest score would mark every tied cell
    view = _skewed_view(n=4)
    scores = np.array([[0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5],
                       [0.2, 0.5, 0.5, 0.5, 0.1, 0.5, 0.9],
                       [0.9, 0.3, 0.3, 0.9, 0.3, 0.3, 0.3],
                       [0.0, 0.0, 0.7, 0.0, 0.0, 0.0, 0.0]])
    rng = _TiedScores(scores, stream(34, "ties"))
    _, _, mask = corrupt(view.cat, view.num, CorruptionModel.fit(view.cat, view.num, 0.4), rng)
    want = np.zeros((4, 7), dtype=bool)
    want[0, [0, 1, 2]] = want[1, [0, 1, 4]] = want[2, [1, 2, 4]] = want[3, [0, 1, 3]] = True
    np.testing.assert_array_equal(mask, want)


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


def _parties(bundle, *keep):
    """The bundle with only the parties in `keep`, for pretrain_for_seed."""
    train = dataclasses.replace(bundle.train, parties={k: bundle.train.parties[k] for k in keep})
    return dataclasses.replace(bundle, train=train)


def _ssl_config(**ssl):
    """A run config whose encoders are small_spec(1, 3, 6, 3, (8, 4)) on tiny_bundle."""
    return parse_config({"preset": "fixture", "ssl": ssl,
                         "model": {"embed_dim": 3, "encoder_hidden": [8, 4]}})


def test_pretrain_passive_stops_at_a_non_finite_epoch_loss(tiny_bundle, monkeypatch):
    # one batch an epoch: the probe's, epoch 1's, then epoch 2's, which reports inf
    real, results = ssl_pretrain.contrastive_batch, []

    def poisoned(*args):
        results.append(real(*args))
        if len(results) == 3:
            return dataclasses.replace(results[-1], loss=np.inf)
        return results[-1]

    monkeypatch.setattr(ssl_pretrain, "contrastive_batch", poisoned)
    view = tiny_bundle.train.parties[2]
    spec = small_spec(n_cat=1, n_num=3, cardinality=6, embed_dim=3, hidden=(8, 4))
    cfg = SslConfig(epochs=3, batch_size=view.n, learning_rate=1e-3)
    with pytest.raises(TrainingError, match="^training loss non-finite at epoch 2$"):
        pretrain_passive(view, spec, cfg, seed=5)
    assert len(results) == 3  # epoch 3 never ran
    # the seed's pre-training names the party, party 2's stage running first
    results.clear()
    with pytest.raises(TrainingError, match="^party 2: training loss non-finite at epoch 2$"):
        pretrain_for_seed(_ssl_config(epochs=3, batch_size=view.n), tiny_bundle, 5,
                          need_active=False, need_passive=True)
    assert len(results) == 3


@pytest.mark.parametrize("k", [2, 3])
def test_a_diverging_pretrain_passive_names_its_party_and_warns_nothing(tiny_bundle, capfd, k):
    # the first step blows the weights up, the next forward pass overflows,
    # and the optimizer refuses the gradient that comes out of it. Called
    # alone, pretrain_passive raises the optimizer's words; the seed's
    # pre-training, here over party 1 and party k, prefixes the party
    spec = small_spec(n_cat=1, n_num=3, cardinality=6, embed_dim=3, hidden=(8, 4))
    cfg = SslConfig(epochs=2, batch_size=64, learning_rate=1e300)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TrainingError, match="^non-finite gradient for "):
            pretrain_passive(tiny_bundle.train.parties[k], spec, cfg, seed=1)
        with pytest.raises(TrainingError, match=rf"^party {k}: non-finite gradient for "):
            pretrain_for_seed(_ssl_config(epochs=2, batch_size=64, learning_rate=1e300),
                              _parties(tiny_bundle, 1, k), 1,
                              need_active=True, need_passive=True)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "Warning" not in "".join(capfd.readouterr())


def test_pretrain_passive_bytes_are_pinned(tiny_bundle):
    # seven batches of 64 rows per epoch, the last one short; digests of the
    # weights and the loss trace as little-endian float64
    view = tiny_bundle.train.parties[2]
    spec = small_spec(n_cat=1, n_num=3, cardinality=6, embed_dim=3, hidden=(8, 4))
    cfg = SslConfig(epochs=3, batch_size=64, learning_rate=5e-3)
    encoder, trace = pretrain_passive(view, spec, cfg, seed=11)

    def digest(values) -> str:
        return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()

    assert digest(encoder.theta) == (
        "29c25ba9053454072c623f27a11fb412f45e3a0c6d2d75fa1d6142ab7d785abf")
    assert digest(trace) == (
        "333f452403d538eefe3f965a76dd9686785caeaf79a3e6a00200e524ae38bdcb")


def test_pretrain_passive_bytes_are_pinned_over_two_categorical_fields():
    # the second field's block rows start at 6, so a corrupted view drawn from
    # marginals that missed the offsets would look up the first field's rows;
    # recorded from the implementation that resolved each corrupted batch
    bundle = synth_generate(tiny_synth_config(cat_fields_per_party=(1, 2, 2)), seed=7)
    view = bundle.train.parties[2]
    spec = small_spec(n_cat=2, n_num=3, cardinality=6, embed_dim=3, hidden=(8, 4))
    cfg = SslConfig(epochs=2, batch_size=64, learning_rate=5e-3)
    encoder, trace = pretrain_passive(view, spec, cfg, seed=11)

    def digest(values) -> str:
        return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()

    assert digest(encoder.theta) == (
        "aed5f529ac883eaed6fd45a972508c2eb77e1a0b5451406c5ab08744bcbf8ca5")
    assert digest(trace) == (
        "970de36efb5d8aec900a0e6ed1ac93b2c9a59b5e398ee9f395ddae60ab2726aa")


def test_pretrain_passive_corrupts_and_contrasts_once_per_batch(tiny_bundle, monkeypatch):
    # through the module's globals, the probe epoch included: the benchmark's
    # traced run counts these calls as its contrastive batches
    calls = {"corrupt": 0, "contrastive_batch": 0}
    for name in calls:
        def counted(*args, _fn=getattr(ssl_pretrain, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(ssl_pretrain, name, counted)
    view = tiny_bundle.train.parties[2]
    spec = small_spec(n_cat=1, n_num=3, cardinality=6, embed_dim=3, hidden=(8, 4))
    cfg = SslConfig(epochs=2, batch_size=64, learning_rate=1e-3)
    pretrain_passive(view, spec, cfg, seed=5)
    batches = (cfg.epochs + 1) * math.ceil(view.n / cfg.batch_size)
    assert calls == {"corrupt": batches, "contrastive_batch": batches}


@pytest.mark.parametrize("trainer", ["pretrain_passive", "pretrain_active", "train_downstream"])
def test_each_trainer_resolves_its_categories_once_a_run(tiny_bundle, monkeypatch, trainer):
    # once per party with embeddings, where the run starts: every batch's
    # lookups, the corrupted view's included, take rows of that one table
    calls, resolve = [], EmbeddingTable.resolve

    def counted(table, cat):
        calls.append(cat.shape)
        return resolve(table, cat)

    monkeypatch.setattr(EmbeddingTable, "resolve", counted)
    train, spec = tiny_bundle.train, small_spec(n_cat=1, n_num=3, hidden=(8, 4))
    if trainer == "pretrain_passive":
        pretrain_passive(train.parties[2], spec, SslConfig(epochs=2, batch_size=64), seed=5)
        assert calls == [(train.parties[2].n, 1)]
    elif trainer == "pretrain_active":
        pretrain_active(train.parties[1], train.labels, spec,
                        SupConfig(epochs=2, batch_size=64), seed=5)
        assert calls == [(train.parties[1].n, 1)]
    else:
        cfg = DownstreamConfig(beta=0.0, epochs=2, batch_size=8, optimizer="sgd")
        train_downstream(train, {k: spec for k in (1, 2, 3)}, TrainMode.VANILLA_VFL,
                         None, cfg, 5, 40)
        assert calls == [(40, 1)] * 3


def test_pretrain_passive_rejects_active_party(tiny_bundle):
    view = tiny_bundle.train.parties[1]
    spec = small_spec(n_cat=1, n_num=3, cardinality=6)
    with pytest.raises(ConfigError):
        pretrain_passive(view, spec, SslConfig(epochs=1), seed=0)
