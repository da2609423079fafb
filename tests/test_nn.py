"""Engine-level tests: layers, losses, optimizers, checkpoints.

Gradient correctness is established against central finite differences;
optimizer steps against hand-unrolled update formulas. Nothing here
trusts the implementation to check itself.
"""
import copy
import hashlib
import pickle

import numpy as np
import pytest

from vflhlp.errors import DataError, SchemaError, TrainingError
from vflhlp.nn import (
    AdamOptimizer,
    EmbeddingTable,
    EncoderSpec,
    Mlp,
    SgdOptimizer,
    TabularEncoder,
    bce_with_logits,
    glorot_uniform,
    load_checkpoint,
    make_optimizer,
    save_checkpoint,
    sigmoid,
)
from vflhlp.rng import stream

from conftest import (
    draw_encoder_inputs,
    encoder_away_from_kinks,
    mlp_away_from_kinks,
    small_spec,
)
from gradcheck import grad_check, max_relative_error


# ---------------------------------------------------------------- dense / mlp

def _mlp_with(dims, *layers) -> Mlp:
    """An Mlp whose layers hold the given (weight, bias) pairs."""
    mlp = Mlp(dims)
    params = mlp.params()
    for i, (w, b) in enumerate(layers):
        params[f"{i}.weight"][...] = w
        params[f"{i}.bias"][...] = b
    return mlp


def test_dense_identity_forward_is_affine():
    w = np.array([[1.0, 2.0], [0.5, -1.0]])
    b = np.array([0.25, -0.5])
    mlp = _mlp_with([2, 2], (w, b))
    x = np.array([[1.0, 1.0], [2.0, 0.0]])
    y, (_, preacts) = mlp.forward(x)
    assert np.array_equal(y, x @ w.T + b)
    assert np.array_equal(y, preacts[0])


def test_dense_relu_clips_negative_preacts():
    b = np.array([0.0, -10.0])
    mlp = _mlp_with([2, 2, 2], (np.eye(2), b), (np.eye(2), np.zeros(2)))
    _, (inputs, preacts) = mlp.forward(np.array([[3.0, 4.0]]))
    assert np.array_equal(preacts[0], [[3.0, -6.0]])
    assert np.array_equal(inputs[1], [[3.0, 0.0]])  # the hidden layer's output


def test_dense_backward_matches_fd():
    rng = stream(11, "dense-fd")
    x = rng.standard_normal((5, 4))
    mlp = _mlp_with([4, 3], (glorot_uniform(rng, 3, 4), rng.standard_normal(3) * 0.1))
    target = rng.standard_normal((5, 3))

    def loss_fn():
        y, _ = mlp.forward(x)
        return float(0.5 * np.sum((y - target) ** 2))

    def grads_fn():
        y, tape = mlp.forward(x)
        grad, _ = mlp.backward(tape, y - target)
        return mlp.grads_dict(grad)

    err = grad_check(loss_fn, grads_fn, mlp.params())
    assert err < 1e-7


def test_mlp_backward_matches_fd_through_relu():
    rng = stream(12, "mlp-fd")
    x = rng.standard_normal((6, 4))
    mlp = mlp_away_from_kinks([4, 8, 3], x, seed=12)
    target = rng.standard_normal((6, 3))

    def loss_fn():
        y, _ = mlp.forward(x)
        return float(0.5 * np.sum((y - target) ** 2))

    def grads_fn():
        y, tape = mlp.forward(x)
        layer_grads, _ = mlp.backward(tape, y - target)
        return mlp.grads_dict(layer_grads)

    err = grad_check(loss_fn, grads_fn, mlp.params())
    assert err < 1e-6


def test_mlp_input_gradient_matches_fd():
    rng = stream(13, "mlp-input-fd")
    x = rng.standard_normal((4, 3))
    mlp = mlp_away_from_kinks([3, 6, 2], x, seed=13)
    target = rng.standard_normal((4, 2))

    def loss_fn():
        y, _ = mlp.forward(x)
        return float(0.5 * np.sum((y - target) ** 2))

    def grads_fn():
        y, tape = mlp.forward(x)
        _, dx = mlp.backward(tape, y - target)
        return {"x": dx}

    err = grad_check(loss_fn, grads_fn, {"x": x})
    assert err < 1e-6


def test_backward_is_linear_in_upstream():
    # J^T(a*u + b*v) == a*J^T u + b*J^T v for the whole parameter pullback
    rng = stream(14, "linearity")
    x = rng.standard_normal((3, 4))
    mlp = Mlp.init(stream(14, "net"), [4, 5, 2])
    _, tape = mlp.forward(x)
    u = rng.standard_normal((3, 2))
    v = rng.standard_normal((3, 2))
    a, b = 0.7, -2.25

    def pullback(up):
        layer_grads, dx = mlp.backward(tape, up)
        flat = mlp.grads_dict(layer_grads)
        flat["__input__"] = dx
        return flat

    combo = pullback(a * u + b * v)
    left = pullback(u)
    right = pullback(v)
    for name in combo:
        np.testing.assert_allclose(
            combo[name], a * left[name] + b * right[name], rtol=0, atol=1e-12
        )


def test_mlp_param_names_and_shapes():
    mlp = Mlp.init(stream(0, "names"), [4, 8, 2])
    params = mlp.params()
    assert set(params) == {"0.weight", "0.bias", "1.weight", "1.bias"}
    assert params["0.weight"].shape == (8, 4)
    assert params["1.weight"].shape == (2, 8)


def test_glorot_bounds():
    w = glorot_uniform(stream(1, "glorot"), 50, 30)
    limit = np.sqrt(6.0 / 80.0)
    assert w.shape == (50, 30)
    assert np.abs(w).max() <= limit
    # draws should actually use the range, not collapse near zero
    assert np.abs(w).max() > 0.5 * limit


# ------------------------------------------------------------------ embedding

def test_embedding_row0_reserved_and_out_of_range_mapped():
    table = EmbeddingTable.init(stream(2, "emb"), [("f", 5)], embed_dim=4)
    vecs, _ = table.lookup(np.array([[0], [1], [4], [5], [-1], [99]], dtype=np.int64))
    row0 = table.tables["f"][0]
    assert np.array_equal(vecs[0, :4], row0)
    assert np.array_equal(vecs[3, :4], row0)  # == cardinality
    assert np.array_equal(vecs[4, :4], row0)  # negative
    assert np.array_equal(vecs[5, :4], row0)  # way out
    assert not np.array_equal(vecs[1, :4], row0)


def test_embedding_backward_matches_onehot_matmul():
    # scatter-add backward == dense one-hot formulation
    rng = stream(3, "emb-fd")
    table = EmbeddingTable.init(rng, [("a", 4), ("b", 3)], embed_dim=2)
    cat = np.array([[1, 2], [3, 0], [1, 1]], dtype=np.int64)
    up = rng.standard_normal((3, 4))
    _, rows = table.lookup(cat)
    block = table.backward(rows, up)
    grads = {"a": block[:4], "b": block[4:]}
    onehot_a = np.zeros((3, 4))
    onehot_a[np.arange(3), cat[:, 0]] = 1.0
    onehot_b = np.zeros((3, 3))
    onehot_b[np.arange(3), cat[:, 1]] = 1.0
    np.testing.assert_array_equal(grads["a"], onehot_a.T @ up[:, :2])
    np.testing.assert_array_equal(grads["b"], onehot_b.T @ up[:, 2:])


def test_embedding_init_range():
    table = EmbeddingTable.init(stream(4, "emb-range"), [("f", 100)], embed_dim=8)
    t = table.tables["f"]
    assert np.abs(t).max() <= 0.05
    assert t.shape == (100, 8)


def test_fused_embedding_matches_per_field_reference():
    # the fused block gathers and scatter-adds exactly like one table per field
    rng = stream(16, "emb-fused")
    cards = [("a", 4), ("b", 1), ("c", 6)]
    table = EmbeddingTable.init(rng, cards, embed_dim=3)
    per_field = {name: table.tables[name].copy() for name, _ in cards}
    # negative, == cardinality, far out of range, and repeated indices
    cat = np.array(
        [[1, 0, 5], [-3, 2, 5], [3, -1, 6], [1, 0, 99], [4, 0, 0], [1, 7, 5]],
        dtype=np.int64,
    )
    up = rng.standard_normal((cat.shape[0], 9))

    ref_vecs, ref_grads = [], {}
    for j, (name, card) in enumerate(cards):
        col = cat[:, j].copy()
        col[(col < 0) | (col >= card)] = 0
        ref_vecs.append(per_field[name][col])
        g = np.zeros((card, 3))
        for i, row in enumerate(col):
            g[row] += up[i, 3 * j : 3 * j + 3]
        ref_grads[name] = g

    vecs, rows = table.lookup(cat)
    np.testing.assert_array_equal(vecs, np.concatenate(ref_vecs, axis=1))
    block = table.backward(rows, up)
    assert block.shape == (11, 3)
    np.testing.assert_array_equal(block[:4], ref_grads["a"])
    np.testing.assert_array_equal(block[4:5], ref_grads["b"])
    np.testing.assert_array_equal(block[5:], ref_grads["c"])
    # duplicates accumulate: field a's row 1 is hit three times
    np.testing.assert_array_equal(block[1], up[0, :3] + up[3, :3] + up[5, :3])


# -------------------------------------------------------------------- encoder

def test_encoder_forward_concats_embeddings_then_numericals():
    spec = small_spec(n_cat=1, n_num=2, embed_dim=3)
    enc = spec.build(stream(5, "enc"))
    cat = np.array([[2]], dtype=np.int64)
    num = np.array([[0.3, 0.9]])
    rep, (_, (inputs, _)) = enc.forward(cat, num)
    expected_in = np.concatenate([enc.embed.tables["c0"][2], [0.3, 0.9]])
    np.testing.assert_array_equal(inputs[0][0], expected_in)
    assert rep.shape == (1, spec.rep_dim)


def test_encoder_grad_matches_fd_params_and_inputs():
    spec = small_spec(n_cat=2, n_num=3, cardinality=5, embed_dim=2, hidden=(8,))
    rng = stream(6, "enc-fd")
    cat, num = draw_encoder_inputs(rng, spec, n_rows=6)
    enc = encoder_away_from_kinks(spec, cat, num, seed=6)
    target = rng.standard_normal((6, spec.rep_dim))

    def loss_fn():
        rep, _ = enc.forward(cat, num)
        return float(0.5 * np.sum((rep - target) ** 2))

    def grads_fn():
        rep, tape = enc.forward(cat, num)
        return enc.grads_dict(enc.backward(tape, rep - target))

    err = grad_check(loss_fn, grads_fn, enc.params())
    assert err < 1e-6


def test_encoder_set_params_rejects_bad_names_and_shapes():
    spec = small_spec()
    enc = spec.build(stream(7, "enc-set"))
    good = enc.params_copy()
    bad_name = dict(good)
    bad_name["nope"] = bad_name.pop(sorted(bad_name)[0])
    with pytest.raises(SchemaError):
        enc.set_params(bad_name)
    bad_shape = {k: (v.copy() if k != "mlp.0.bias" else np.zeros(v.size + 1))
                 for k, v in good.items()}
    with pytest.raises(SchemaError):
        enc.set_params(bad_shape)


def test_build_empty_then_set_params_reproduces_encoder():
    spec = small_spec(n_cat=1, n_num=2)
    enc = spec.build(stream(8, "enc-copy"))
    clone = spec.build_empty()
    clone.set_params(enc.params_copy())
    cat, num = draw_encoder_inputs(stream(8, "inputs"), spec, 5)
    a, _ = enc.forward(cat, num)
    b, _ = clone.forward(cat, num)
    assert np.array_equal(a, b)


# ----------------------------------------------------------- flat parameters

def _all_views(enc: TabularEncoder) -> dict[str, np.ndarray]:
    """Every named array an encoder exposes, keyed by its params() name."""
    views = {f"embed.{n}": t for n, t in enc.embed.tables.items()}
    views.update({f"mlp.{n}": a for n, a in enc.mlp.params().items()})
    return views


def test_flat_theta_writes_show_through_every_view():
    spec = small_spec(n_cat=2, n_num=2, cardinality=5, embed_dim=3, hidden=(6, 4))
    enc = spec.build(stream(30, "flat"))
    params = enc.params()
    assert set(params) == set(_all_views(enc))
    assert sum(p.size for p in params.values()) == enc.theta.size
    for name, arr in list(params.items()) + list(_all_views(enc).items()):
        assert np.shares_memory(arr, enc.theta), name

    # set_params writes through
    values = {n: np.full(p.shape, i + 1.0) for i, (n, p) in enumerate(params.items())}
    enc.set_params(values)
    for source in (enc.params(), _all_views(enc)):
        for name, arr in source.items():
            np.testing.assert_array_equal(arr, values[name])
    np.testing.assert_array_equal(enc.theta, enc.layout.flatten(values))

    # an optimizer step on the flat entry writes through
    grad = stream(30, "grad").standard_normal(enc.theta.size)
    expected = {n: v - 0.5 * g for (n, v), g in
                zip(values.items(), enc.grads_dict(grad).values())}
    SgdOptimizer().step({"encoder": enc.theta}, {"encoder": grad}, lr=0.5)
    for source in (enc.params(), _all_views(enc)):
        for name, arr in source.items():
            np.testing.assert_array_equal(arr, expected[name])
    cat, num = draw_encoder_inputs(stream(30, "in"), spec, 4)
    clone = spec.build_empty()
    clone.set_params(expected)
    np.testing.assert_array_equal(enc.forward(cat, num)[0], clone.forward(cat, num)[0])


def test_mlp_inside_encoder_shares_the_encoder_theta():
    enc = small_spec().build(stream(31, "flat-mlp"))
    assert np.shares_memory(enc.mlp.theta, enc.theta)
    enc.mlp.theta[:] = 2.0
    assert (enc.theta[enc.embed_size:] == 2.0).all()


def _digest(vec: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(vec, dtype="<f8").tobytes()).hexdigest()


def test_init_draws_are_pinned():
    # digests recorded when models still copied per-layer arrays into theta:
    # any change in what is drawn, or in which order, fails here
    with_cat = EncoderSpec(cat_fields=(("a", 5), ("b", 3)), num_fields=2,
                           embed_dim=3, hidden=(6, 4))
    num_only = EncoderSpec(cat_fields=(), num_fields=4, embed_dim=0, hidden=(8, 2))
    got = {
        "encoder with categoricals":
            _digest(with_cat.build(stream(41, "pin", "encoder")).theta),
        "encoder without categoricals":
            _digest(num_only.build(stream(42, "pin", "encoder")).theta),
        "mlp": _digest(Mlp.init(stream(43, "pin", "mlp"), [5, 7, 3]).theta),
        "embedding table": _digest(EmbeddingTable.init(
            stream(44, "pin", "embed"), [("a", 4), ("b", 6)], 3).block),
    }
    assert got == {
        "encoder with categoricals":
            "e9c0ad9f589d87e19d5fac5fb0105901af0f0bd574dba41e0dfbbb42490c1d27",
        "encoder without categoricals":
            "dcddfd140f5c105ee2cb56ee26a7728acc250d978c148eeb2551913ab0ed1558",
        "mlp": "61e50e961d74dc498dce795ddb68b6fe6b6506016cea585681a81165b76e38ab",
        "embedding table":
            "523c96857f22eae1b444f402d64d0769b476e79dc075d0a2083fb76780f09736",
    }


def _every_view(model) -> list[np.ndarray]:
    """Every array a model exposes that must lie in its theta."""
    mlp = model.mlp if isinstance(model, TabularEncoder) else model
    views = list(model.params().values()) + list(mlp.params().values()) + [mlp.theta]
    views += [a for wb in mlp._layers for a in wb]  # what forward reads
    if isinstance(model, TabularEncoder):
        views += [model.embed.block, *model.embed.tables.values()]
    return views


@pytest.mark.parametrize("clone", [lambda m: pickle.loads(pickle.dumps(m)),
                                   copy.deepcopy], ids=["pickle", "deepcopy"])
def test_pickled_and_copied_models_keep_their_views(clone):
    spec = small_spec(n_cat=2, n_num=2, cardinality=5, embed_dim=3, hidden=(6, 4))
    enc = spec.build(stream(34, "clone"))
    head = Mlp.init(stream(34, "clone-head"), [4, 1])
    cat, num = draw_encoder_inputs(stream(34, "in"), spec, 5)
    for model, run in ((enc, lambda m: m.forward(cat, num)[0]),
                       (head, lambda m: m.forward(num @ np.ones((2, 4)))[0])):
        twin = clone(model)
        assert twin.theta.tobytes() == model.theta.tobytes()
        assert not np.shares_memory(twin.theta, model.theta)
        np.testing.assert_array_equal(run(twin), run(model))
        for arr in _every_view(twin):
            assert np.shares_memory(arr, twin.theta)
        twin.theta[:] = 0.5
        for arr in _every_view(twin):
            assert (arr == 0.5).all()


def test_models_lie_over_the_vector_they_are_given():
    spec = small_spec(n_cat=1, n_num=2, hidden=(5, 3))
    fresh = spec.build(stream(35, "rows"))
    assert not TabularEncoder(spec).theta.any()
    rows = np.zeros((2, fresh.theta.size))  # one model per row
    replica = TabularEncoder(spec, rows[1])
    replica.set_params(fresh.params())
    assert not rows[0].any()
    np.testing.assert_array_equal(rows[1], fresh.theta)
    cat, num = draw_encoder_inputs(stream(35, "in"), spec, 4)
    np.testing.assert_array_equal(replica.forward(cat, num)[0], fresh.forward(cat, num)[0])
    head = Mlp.init(stream(35, "head"), [3, 1], theta=np.full(4, np.nan))
    assert np.isfinite(head.theta).all() and not head.params()["0.bias"].any()
    for bad in (np.zeros(5), np.zeros(4, dtype=np.float32), np.zeros((1, 4))):
        with pytest.raises(SchemaError, match="theta"):
            Mlp([3, 1], bad)
    with pytest.raises(SchemaError, match="theta"):
        TabularEncoder(spec, np.zeros(fresh.theta.size + 1))


@pytest.mark.parametrize("make", [SgdOptimizer, AdamOptimizer])
def test_flat_step_is_bitwise_equal_to_per_tensor_steps(make):
    mlp = Mlp.init(stream(32, "flat-opt"), [5, 7, 3])
    theta0 = mlp.theta.copy()
    reference = {n: p.copy() for n, p in mlp.params().items()}
    flat_opt, ref_opt = make(), make()
    rng = stream(32, "grads")
    for _ in range(3):
        grad = rng.standard_normal(mlp.theta.size) * 10.0 ** rng.integers(-6, 3)
        flat_opt.step({"m": mlp.theta}, {"m": grad}, lr=0.01)
        ref_opt.step(reference, mlp.grads_dict(grad), lr=0.01)
    assert not np.array_equal(mlp.theta, theta0)
    for name, arr in mlp.params().items():
        assert arr.tobytes() == reference[name].tobytes(), name


def test_non_finite_flat_gradient_names_the_tensor():
    enc = small_spec(n_cat=1, n_num=2, hidden=(8,)).build(stream(33, "nan"))
    for opt in (SgdOptimizer(), AdamOptimizer()):
        for bad in ("mlp.0.weight", "embed.c0"):
            grad = np.zeros(enc.theta.size)
            enc.grads_dict(grad)[bad].flat[1] = np.nan
            with pytest.raises(TrainingError, match=rf"'encoder\.{bad}'"):
                opt.step({"encoder": enc.theta}, {"encoder": grad}, 0.1,
                         {"encoder": enc.layout})
    # without a layout the flat entry is still named
    with pytest.raises(TrainingError, match="'encoder'"):
        SgdOptimizer().step({"encoder": enc.theta},
                            {"encoder": np.full(enc.theta.size, np.inf)}, 0.1)


# --------------------------------------------------------------------- losses

def test_sigmoid_matches_reference_and_is_stable():
    x = np.array([-800.0, -30.0, -1.0, 0.0, 1.0, 30.0, 800.0])
    s = sigmoid(x)
    assert np.all(np.isfinite(s))
    assert s[3] == 0.5
    moderate = x[1:-1]
    np.testing.assert_allclose(sigmoid(moderate), 1.0 / (1.0 + np.exp(-moderate)),
                               rtol=0, atol=1e-15)
    assert s[0] >= 0.0 and s[-1] <= 1.0


def test_bce_matches_naive_formula_on_moderate_logits():
    rng = stream(9, "bce")
    logits = rng.standard_normal(40) * 3
    labels = (rng.uniform(size=40) < 0.5).astype(np.float64)
    loss, _ = bce_with_logits(logits, labels)
    p = 1.0 / (1.0 + np.exp(-logits))
    naive = float(np.mean(-labels * np.log(p) - (1 - labels) * np.log(1 - p)))
    assert abs(loss - naive) < 1e-12


def test_bce_finite_at_extreme_logits():
    logits = np.array([-1e4, 1e4, -1e4, 1e4])
    labels = np.array([0.0, 1.0, 1.0, 0.0])
    loss, grad = bce_with_logits(logits, labels)
    assert np.isfinite(loss)
    assert np.all(np.isfinite(grad))
    # confident and right ~ 0 loss; confident and wrong ~ |logit|/n each
    assert loss == pytest.approx(2e4 / 4, rel=1e-12)


def test_bce_gradient_matches_fd():
    rng = stream(10, "bce-fd")
    logits = rng.standard_normal(12)
    labels = (rng.uniform(size=12) < 0.5).astype(np.float64)
    params = {"logits": logits}

    def loss_fn():
        return bce_with_logits(logits, labels)[0]

    def grads_fn():
        return {"logits": bce_with_logits(logits, labels)[1]}

    assert grad_check(loss_fn, grads_fn, params) < 1e-8


def test_bce_mean_is_permutation_invariant():
    rng = stream(15, "bce-perm")
    logits = rng.standard_normal(33)
    labels = (rng.uniform(size=33) < 0.4).astype(np.float64)
    perm = rng.permutation(33)
    a, _ = bce_with_logits(logits, labels)
    b, _ = bce_with_logits(logits[perm], labels[perm])
    assert a == pytest.approx(b, abs=1e-12)


def test_bce_rejects_bad_inputs():
    with pytest.raises(SchemaError):
        bce_with_logits(np.zeros(0), np.zeros(0))
    with pytest.raises(SchemaError):
        bce_with_logits(np.zeros(3), np.array([0.0, 0.5, 1.0]))
    with pytest.raises(SchemaError):
        bce_with_logits(np.zeros((3, 1)), np.zeros(3))


# ----------------------------------------------------------------- optimizers

def test_sgd_step_is_exact():
    p = np.array([1.0, -2.0])
    SgdOptimizer().step({"p": p}, {"p": np.array([0.5, 0.25])}, lr=0.1)
    np.testing.assert_array_equal(p, [1.0 - 0.05, -2.0 - 0.025])


def test_adam_first_step_hand_computed():
    # m_hat = g, v_hat = g^2 after bias correction at t=1, so the first
    # step is lr * g / (|g| + eps) regardless of magnitude
    p = np.array([1.0])
    opt = AdamOptimizer()
    opt.step({"p": p}, {"p": np.array([0.5])}, lr=0.01)
    expected = 1.0 - 0.01 * 0.5 / (0.5 + 1e-8)
    assert p[0] == pytest.approx(expected, abs=1e-15)
    assert opt.t == 1


def test_adam_second_step_hand_unrolled():
    p = np.array([1.0])
    opt = AdamOptimizer()
    g1, g2, lr = 0.5, -0.25, 0.01
    opt.step({"p": p}, {"p": np.array([g1])}, lr=lr)
    opt.step({"p": p}, {"p": np.array([g2])}, lr=lr)
    m = 0.9 * (0.1 * g1) + 0.1 * g2
    v = 0.999 * (0.001 * g1 * g1) + 0.001 * g2 * g2
    mhat = m / (1 - 0.9**2)
    vhat = v / (1 - 0.999**2)
    step1 = lr * (0.1 * g1 / (1 - 0.9)) / (np.sqrt(0.001 * g1 * g1 / (1 - 0.999)) + 1e-8)
    expected = 1.0 - step1 - lr * mhat / (np.sqrt(vhat) + 1e-8)
    assert p[0] == pytest.approx(expected, abs=1e-12)


def test_adam_zero_grad_leaves_params_and_advances_time():
    p = np.array([3.0, -4.0])
    opt = AdamOptimizer()
    opt.step({"p": p}, {"p": np.zeros(2)}, lr=0.5)
    np.testing.assert_array_equal(p, [3.0, -4.0])
    assert opt.t == 1


def test_adam_state_is_per_parameter_name():
    pa, pb = np.array([0.0]), np.array([0.0])
    opt = AdamOptimizer()
    opt.step({"a": pa}, {"a": np.array([1.0])}, lr=0.1)
    opt.step({"a": pa, "b": pb}, {"a": np.array([1.0]), "b": np.array([1.0])}, lr=0.1)
    # b's first update uses fresh state even though t is 2 globally
    assert "b" in opt.m and opt.m["b"][0] == pytest.approx(0.1)


def test_adam_state_arrays_are_allocated_once():
    p = np.array([1.0, -2.0])
    opt = AdamOptimizer()
    opt.step({"p": p}, {"p": np.array([0.5, 0.25])}, lr=0.1)
    m, v = opt.m["p"], opt.v["p"]
    opt.step({"p": p}, {"p": np.array([-0.5, 1.0])}, lr=0.1)
    assert opt.m["p"] is m and opt.v["p"] is v
    np.testing.assert_allclose(m, [0.9 * 0.05 - 0.05, 0.9 * 0.025 + 0.1], rtol=1e-12)


def test_optimizers_reject_non_finite_grads():
    p = np.array([1.0])
    with pytest.raises(TrainingError):
        SgdOptimizer().step({"p": p}, {"p": np.array([np.nan])}, lr=0.1)
    with pytest.raises(TrainingError):
        AdamOptimizer().step({"p": p}, {"p": np.array([np.inf])}, lr=0.1)


def test_make_optimizer_names():
    assert isinstance(make_optimizer("sgd"), SgdOptimizer)
    assert isinstance(make_optimizer("adam"), AdamOptimizer)
    with pytest.raises(ValueError):
        make_optimizer("momentum")


def test_max_relative_error_is_scale_normalized():
    a = {"p": np.array([1000.0, 0.0])}
    n = {"p": np.array([1000.0, 1e-6])}
    # absolute gap 1e-6 against scale 1000
    assert max_relative_error(a, n) == pytest.approx(1e-9)


# ---------------------------------------------------------------- checkpoints

def test_checkpoint_roundtrip_and_byte_determinism(tmp_path):
    rng = stream(20, "ckpt")
    tensors = {
        "b.weights": rng.standard_normal((3, 4)),
        "a.ids": np.array([5, 1, 9], dtype=np.int64),
    }
    meta = {"stage": "test", "seed": 3, "nested": {"x": [1, 2]}}
    p1 = tmp_path / "one.ckpt"
    p2 = tmp_path / "two.ckpt"
    save_checkpoint(p1, tensors, meta)
    loaded, loaded_meta = load_checkpoint(p1)
    assert loaded_meta == meta
    assert set(loaded) == set(tensors)
    for k in tensors:
        np.testing.assert_array_equal(loaded[k], tensors[k])
        assert loaded[k].dtype == tensors[k].dtype
    save_checkpoint(p2, loaded, loaded_meta)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_name_order_does_not_matter(tmp_path):
    t1 = {"a": np.zeros(2), "b": np.ones(3)}
    t2 = {"b": np.ones(3), "a": np.zeros(2)}
    pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(pa, t1, {})
    save_checkpoint(pb, t2, {})
    assert pa.read_bytes() == pb.read_bytes()


def test_checkpoint_rejects_bad_magic_and_trailing_bytes(tmp_path):
    p = tmp_path / "x.ckpt"
    save_checkpoint(p, {"a": np.zeros(2)}, {})
    raw = p.read_bytes()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"XXXXXXXX" + raw[8:])
    with pytest.raises(Exception):
        load_checkpoint(bad)
    trailing = tmp_path / "trail.ckpt"
    trailing.write_bytes(raw + b"\x00")
    with pytest.raises(Exception):
        load_checkpoint(trailing)


def test_checkpoint_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(Exception):
        save_checkpoint(tmp_path / "f32.ckpt",
                        {"a": np.zeros(2, dtype=np.float32)}, {})


def test_checkpoint_corruption_is_always_a_data_error(tmp_path):
    # every truncation and a seeded sample of single-byte flips either loads
    # or raises DataError naming the file; nothing else escapes
    p = tmp_path / "small.ckpt"
    save_checkpoint(
        p,
        {"w": np.arange(6.0).reshape(2, 3), "ids": np.array([3, 1], dtype=np.int64)},
        {"stage": "fuzz", "seed": 1},
    )
    raw = p.read_bytes()
    bad = tmp_path / "bad.ckpt"
    for cut in range(len(raw)):
        bad.write_bytes(raw[:cut])
        with pytest.raises(DataError, match="bad.ckpt"):
            load_checkpoint(bad)
    rng = stream(34, "ckpt-fuzz")
    for _ in range(400):
        flipped = bytearray(raw)
        at = int(rng.integers(len(raw)))
        flipped[at] ^= int(rng.integers(1, 256))
        bad.write_bytes(bytes(flipped))
        try:
            load_checkpoint(bad)
        except DataError as exc:
            assert "bad.ckpt" in str(exc)
