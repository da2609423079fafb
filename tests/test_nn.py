"""Engine-level tests: layers, losses, optimizers, checkpoints.

Gradient correctness is established against central finite differences;
optimizer steps against hand-unrolled update formulas. Nothing here
trusts the implementation to check itself.
"""
import copy
import errno
import hashlib
import os
import pickle
import signal
from pathlib import Path

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
from vflhlp.nn.layers import BINCOUNT_ROWS, BlockRows, ModelSet
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
        return mlp.layout.views(grad)

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
        return mlp.layout.views(layer_grads)

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
        flat = mlp.layout.views(layer_grads.copy())  # the next call overwrites mlp.grad
        flat["__input__"] = dx
        return flat

    combo = pullback(a * u + b * v)
    left = pullback(u)
    right = pullback(v)
    for name in combo:
        np.testing.assert_allclose(
            combo[name], a * left[name] + b * right[name], rtol=0, atol=1e-12
        )


# upstream gradients as the callers pass them: a C-contiguous block, a column
# slice of the server's [n, sum of rep dims] gradient, and the head's
# dlogits[:, None], a 1-d vector viewed as a column with a zero stride
MLP_BITS = [(dims, n, upstream) for n in (8, 256)
            for dims, ups in (([13, 16, 8], ("contiguous", "column-slice")),
                              ([8, 16, 8], ("contiguous", "column-slice")),
                              ([24, 1], ("contiguous", "column-slice", "vector-column")))
            for upstream in ups]


@pytest.mark.parametrize("dims, n, upstream", MLP_BITS)
def test_mlp_passes_are_bitwise_equal_to_the_matmul_and_sum_formulas(dims, n, upstream):
    # the passes call ndarray.dot and ufunc.reduce, numpy's cheapest entry
    # points at batch 8; this fails if an edit, numpy or the BLAS changes a bit
    rng = np.random.default_rng(n + dims[0])
    mlp = Mlp.init(rng, dims)
    x = rng.standard_normal((n, dims[0]))
    wide = rng.standard_normal((n, dims[-1] + 16))
    up = {"contiguous": np.ascontiguousarray(wide[:, : dims[-1]]),
          "column-slice": wide[:, 8 : 8 + dims[-1]],
          "vector-column": wide[:, 0].copy()[:, None]}[upstream]
    out, tape = mlp.forward(x)
    grad, dx = mlp.backward(tape, up)

    p, st, last = mlp.params(), mlp.layout.starts, len(dims) - 2
    inputs, preacts, h = [], [], x
    for i in range(last + 1):
        inputs.append(h)
        preacts.append(h @ p[f"{i}.weight"].T + p[f"{i}.bias"])
        h = preacts[i] if i == last else np.maximum(preacts[i], 0.0)
    ref, d = np.empty_like(grad), up
    for i in range(last, -1, -1):
        dz = d if i == last else d * (preacts[i] > 0.0)
        ref[st[2 * i] : st[2 * i + 1]] = (dz.T @ inputs[i]).ravel()
        ref[st[2 * i + 1] : st[2 * i + 2]] = dz.sum(axis=0)
        d = dz @ p[f"{i}.weight"]
    assert np.array_equal(out, h)
    assert np.array_equal(grad, ref)
    assert np.array_equal(dx, d)
    # without the first layer's input gradient the parameter gradient is the same
    grad = grad.copy()  # the next call overwrites mlp.grad
    mlp.grad.fill(np.nan)
    skipped, none = mlp.backward(tape, up, input_grad=False)
    assert skipped.tobytes() == grad.tobytes() and none is None


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
    table = EmbeddingTable.init(stream(2, "emb"), [("f", 5)], 4, np.zeros(20))
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
    table = EmbeddingTable.init(rng, [("a", 4), ("b", 3)], 2, np.zeros(14))
    cat = np.array([[1, 2], [3, 0], [1, 1]], dtype=np.int64)
    up = rng.standard_normal((3, 4))
    _, rows = table.lookup(cat)
    block = table.backward(rows, up, np.empty_like(table.block))
    grads = {"a": block[:4], "b": block[4:]}
    onehot_a = np.zeros((3, 4))
    onehot_a[np.arange(3), cat[:, 0]] = 1.0
    onehot_b = np.zeros((3, 3))
    onehot_b[np.arange(3), cat[:, 1]] = 1.0
    np.testing.assert_array_equal(grads["a"], onehot_a.T @ up[:, :2])
    np.testing.assert_array_equal(grads["b"], onehot_b.T @ up[:, 2:])


@pytest.mark.parametrize("n", [1, 5, 21, 22, 40], ids=lambda n: f"{3 * n} rows")
def test_embedding_backward_is_bitwise_the_per_row_loop(n, monkeypatch):
    # np.add.at below BINCOUNT_ROWS block rows, one np.bincount from it on;
    # both add each row's upstream in row order, as this loop does
    assert (3 * n < BINCOUNT_ROWS) == (n <= 21)
    bincounts, bincount = [], np.bincount
    monkeypatch.setattr(np, "bincount", lambda *a, **k: bincounts.append(1) or bincount(*a, **k))
    rng = stream(18, "emb-scatter", n)
    cards = [("a", 3), ("b", 1), ("c", 5)]
    table = EmbeddingTable.init(rng, cards, 4, np.zeros(36))
    # duplicates, the unseen bucket (0, negative, past the cardinality)
    cat = rng.integers(-2, 8, size=(n, 3))
    cat[0] = [1, 0, 9]
    _, rows = table.lookup(cat)
    wide = rng.standard_normal((n, 15))
    up = wide[:, 2:14]  # a column slice, as an encoder's input gradient is
    ref = np.zeros(table.block.shape)
    for i in range(n):
        for j in range(3):
            ref[rows[i, j]] += up[i, 4 * j : 4 * j + 4]
    out = np.full(table.block.shape, np.nan)
    assert table.backward(rows, up, out) is out
    assert out.tobytes() == ref.tobytes()
    assert table.backward(rows, up, out) is out  # overwritten, not added to
    assert out.tobytes() == ref.tobytes()
    assert len(bincounts) == (0 if n <= 21 else 2)  # the branch follows the row count
    with pytest.raises(SchemaError, match=r"embedding upstream must be \[n, 12\]"):
        table.backward(rows, up[:, :-1], out)


def test_encoder_and_mlp_passes_check_their_inputs():
    spec = small_spec(n_cat=2, n_num=2, cardinality=5, embed_dim=3, hidden=(6, 4))
    enc = spec.build(stream(19, "checks"))
    cat, num = draw_encoder_inputs(stream(19, "in"), spec, 5)
    with pytest.raises(SchemaError, match="no categorical batch"):
        enc.forward(None, num)
    with pytest.raises(SchemaError, match="expects numerical features"):
        enc.forward(cat, None)
    with pytest.raises(SchemaError, match=r"numerical batch must be \[n, 2\]"):
        enc.forward(cat, num[:, :1])
    with pytest.raises(SchemaError, match=r"numerical batch must be \[n, 2\]"):
        enc.forward(cat, num[:, 0])
    with pytest.raises(SchemaError, match="row counts differ"):
        enc.forward(cat, num[:4])
    # the encoder's checks are the ones its dense layers get: an Mlp checks
    # nothing, and every caller gives it an input of its width
    rep, (_, (inputs, _)) = enc.forward(cat, num)
    assert rep.shape == (5, 4) and inputs[0].shape == (5, enc.mlp.dims[0])


def test_a_model_set_model_backpropagates_into_its_slice_of_grad():
    # each model's `grad` is its slice of the set's; a backward pass writes
    # all of it and returns it, with the bits of a standalone twin's
    spec = small_spec(n_cat=2, n_num=2, cardinality=5, embed_dim=3, hidden=(6, 4))
    net = ModelSet({"enc": spec.build(stream(20, "laid")),
                    "head": Mlp.init(stream(20, "laid-head"), [4, 1])})
    enc, head = net.models["enc"], net.models["head"]
    net.grad[...] = np.arange(net.grad.size)
    for name, m in net.models.items():
        assert m.grad.base is net.grad
        assert m.grad.tobytes() == net.grad[net.spans[name]].tobytes()
    assert enc.mlp.grad.base is net.grad
    assert enc.mlp.grad.tobytes() == enc.grad[enc.layout.size - enc.mlp.layout.size:].tobytes()
    cat, num = draw_encoder_inputs(stream(20, "in"), spec, 6)
    rep, tape = enc.forward(cat, num)
    logits, head_tape = head.forward(rep)
    up = stream(20, "up").standard_normal(logits.shape)
    net.grad.fill(np.nan)
    got, drep = head.backward(head_tape, up)
    assert got is head.grad
    assert enc.backward(tape, drep) is enc.grad
    assert not np.isnan(net.grad).any()
    kept = net.grad.copy()
    # a copy is not in the set: it gets a gradient vector of its own
    for twin_of in (copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))):
        twin_enc, twin_head = twin_of(enc), twin_of(head)
        for twin in (twin_enc, twin_enc.mlp, twin_head):
            assert not np.shares_memory(twin.grad, net.grad)
        assert np.shares_memory(twin_enc.mlp.grad, twin_enc.grad)
        twin_enc.grad.fill(np.nan)
        twin_grad, twin_drep = twin_head.backward(head_tape, up)
        assert twin_grad is twin_head.grad
        assert twin_grad.tobytes() == kept[net.spans["head"]].tobytes()
        assert twin_drep.tobytes() == drep.tobytes()
        assert twin_enc.backward(tape, drep).tobytes() == kept[net.spans["enc"]].tobytes()
        assert net.grad.tobytes() == kept.tobytes()
    # a stale caller that passes `out` fails instead of writing elsewhere
    with pytest.raises(TypeError):
        head.backward(head_tape, up, np.empty(head.layout.size))
    with pytest.raises(TypeError):
        enc.backward(tape, drep, out=np.empty(enc.layout.size))


def _gradient_owners():
    spec = small_spec(n_cat=2, n_num=2, cardinality=5, embed_dim=3, hidden=(6, 4))
    return {"mlp": lambda theta, grad: Mlp([4, 6, 1], theta, grad),
            "encoder": lambda theta, grad: TabularEncoder(spec, theta, grad)}


@pytest.mark.parametrize("kind", ["mlp", "encoder"])
def test_a_model_writes_into_the_gradient_vector_it_is_given(kind):
    make = _gradient_owners()[kind]
    size = make(None, None).layout.size
    theta = stream(21, "given", kind).standard_normal(size)
    grad = np.full(size, np.nan)
    model = make(theta, grad)
    assert model.theta is theta and model.grad is grad
    assert not make(None, None).grad.any()  # without one, a new zero vector
    batch = 5
    if kind == "mlp":
        rep, tape = model.forward(stream(21, "x").standard_normal((batch, 4)))
        out, _ = model.backward(tape, np.ones_like(rep))
    else:
        rep, tape = model.forward(*draw_encoder_inputs(stream(21, "x"), model.spec, batch))
        out = model.backward(tape, np.ones_like(rep))
    assert out is grad and not np.isnan(grad).any()


@pytest.mark.parametrize("bad", ["short", "long", "2-d", "float32", "int64"])
@pytest.mark.parametrize("kind", ["mlp", "encoder"])
def test_a_model_rejects_a_gradient_vector_of_the_wrong_shape_or_dtype(kind, bad):
    make = _gradient_owners()[kind]
    size = make(None, None).layout.size
    grad = {"short": np.zeros(size - 1), "long": np.zeros(size + 1),
            "2-d": np.zeros((1, size)), "float32": np.zeros(size, np.float32),
            "int64": np.zeros(size, np.int64)}[bad]
    with pytest.raises(SchemaError, match=rf"grad must be float64 of shape \({size},\)"):
        make(None, grad)
    with pytest.raises(SchemaError, match=rf"theta must be float64 of shape \({size},\)"):
        make(grad, None)


def test_embedding_init_range():
    table = EmbeddingTable.init(stream(4, "emb-range"), [("f", 100)], 8, np.zeros(800))
    t = table.tables["f"]
    assert np.abs(t).max() <= 0.05
    assert t.shape == (100, 8)


def test_fused_embedding_matches_per_field_reference():
    # the fused block gathers and scatter-adds exactly like one table per field
    rng = stream(16, "emb-fused")
    cards = [("a", 4), ("b", 1), ("c", 6)]
    table = EmbeddingTable.init(rng, cards, 3, np.zeros(33))
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
    block = table.backward(rows, up, np.empty_like(table.block))
    assert block.shape == (11, 3)
    np.testing.assert_array_equal(block[:4], ref_grads["a"])
    np.testing.assert_array_equal(block[4:5], ref_grads["b"])
    np.testing.assert_array_equal(block[5:], ref_grads["c"])
    # duplicates accumulate: field a's row 1 is hit three times
    np.testing.assert_array_equal(block[1], up[0, :3] + up[3, :3] + up[5, :3])


def test_resolved_rows_give_the_bits_of_raw_categories():
    # rows resolved once and then indexed per batch gather and scatter-add
    # exactly as raw values do, negative and out-of-range ones included
    spec = EncoderSpec(cat_fields=(("a", 4), ("b", 1), ("c", 6)), num_fields=2,
                       embed_dim=3, hidden=(5, 2))
    enc = spec.build(stream(17, "resolved"))
    rng = stream(17, "resolved-in")
    cat, num = rng.integers(-3, 9, size=(40, 3)), rng.standard_normal((40, 2))
    table = enc.resolve(cat)
    assert type(table) is BlockRows and ((cat < 0) | (cat >= [4, 1, 6])).any(axis=0).all()
    for rows in (slice(0, 8), rng.permutation(40)[:8], slice(32, 40)):
        assert type(table[rows]) is BlockRows
        raw_rep, raw_tape = enc.forward(cat[rows], num[rows])
        rep, tape = enc.forward(table[rows], num[rows])
        up = rng.standard_normal(rep.shape)
        assert rep.tobytes() == raw_rep.tobytes()
        assert enc.backward(tape, up).tobytes() == enc.backward(raw_tape, up).tobytes()
    num_only = EncoderSpec(cat_fields=(), num_fields=2, embed_dim=0, hidden=(2,))
    assert num_only.build(stream(17, "num")).resolve(cat) is cat


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
        return enc.layout.views(enc.backward(tape, rep - target))

    err = grad_check(loss_fn, grads_fn, enc.params())
    assert err < 1e-6


def test_an_encoder_with_one_wide_embeddings_passes_the_gradient_check():
    spec = small_spec(n_cat=2, n_num=1, cardinality=4, embed_dim=1, hidden=(5, 3))
    assert spec.input_dim == 3
    rng = stream(9, "enc-fd-dim1")
    cat, num = draw_encoder_inputs(rng, spec, n_rows=6)
    enc = encoder_away_from_kinks(spec, cat, num, seed=9)
    assert enc.embed.block.shape == (8, 1)
    target = rng.standard_normal((6, spec.rep_dim))

    def loss_fn():
        rep, _ = enc.forward(cat, num)
        return float(0.5 * np.sum((rep - target) ** 2))

    def grads_fn():
        rep, tape = enc.forward(cat, num)
        return enc.layout.views(enc.backward(tape, rep - target))

    assert grad_check(loss_fn, grads_fn, enc.params()) < 1e-6
    with pytest.raises(SchemaError, match="embed_dim"):
        small_spec(n_cat=2, n_num=1, embed_dim=0)


def test_encoder_set_params_rejects_bad_names_and_shapes():
    spec = small_spec()
    enc = spec.build(stream(7, "enc-set"))
    good = enc.layout.views(enc.theta.copy())
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
    clone.set_params(enc.params())
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
                zip(values.items(), enc.layout.views(grad).values())}
    SgdOptimizer().step(enc.theta, grad, lr=0.5)
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
    assert (enc.theta[enc.layout.starts[len(enc.spec.cat_fields)]:] == 2.0).all()


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
            stream(44, "pin", "embed"), [("a", 4), ("b", 6)], 3, np.zeros(30)).block),
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
    flat_opt, ref_opts = make(), {n: make() for n in reference}
    rng = stream(32, "grads")
    for _ in range(3):
        grad = rng.standard_normal(mlp.theta.size) * 10.0 ** rng.integers(-6, 3)
        flat_opt.step(mlp.theta, grad, lr=0.01)
        for name, g in mlp.layout.views(grad).items():
            ref_opts[name].step(reference[name], g, lr=0.01)
    assert not np.array_equal(mlp.theta, theta0)
    for name, arr in mlp.params().items():
        assert arr.tobytes() == reference[name].tobytes(), name


def test_non_finite_flat_gradient_names_the_tensor():
    net = ModelSet({"encoder": small_spec(n_cat=1, n_num=2, hidden=(8,)).build(
        stream(33, "nan"))})
    enc = net.models["encoder"]
    for opt in (SgdOptimizer(), AdamOptimizer()):
        for bad in ("mlp.0.weight", "embed.c0"):
            grad = np.zeros(enc.theta.size)
            enc.layout.views(grad)[bad].flat[1] = np.nan
            with pytest.raises(TrainingError, match=rf"'encoder\.{bad}'"):
                opt.step(net.theta, grad, 0.1, net.layout)
    # without a layout the flat entry is still named
    with pytest.raises(TrainingError, match="entry 0"):
        SgdOptimizer().step(enc.theta, np.full(enc.theta.size, np.inf), 0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_finite_check_flags_each_non_finite_value_by_tensor(bad):
    net = ModelSet({"encoder": small_spec(n_cat=1, n_num=2, hidden=(8,)).build(
        stream(34, "nan"))})
    enc = net.models["encoder"]
    for opt in (SgdOptimizer(), AdamOptimizer()):
        grad = np.zeros(enc.theta.size)
        enc.layout.views(grad)["mlp.0.bias"].flat[-1] = bad
        before = enc.theta.copy()
        with pytest.raises(TrainingError, match=r"'encoder\.mlp\.0\.bias'"):
            opt.step(net.theta, grad, 0.1, net.layout)
        np.testing.assert_array_equal(enc.theta, before)  # raised before stepping


@pytest.mark.parametrize("huge", [1e300, 1e308])
def test_finite_check_passes_huge_finite_gradients(huge):
    # 50 entries of 1e308 sum past the float64 range, so a check on the sum
    # of the entries would misfire
    p = np.zeros(50)
    SgdOptimizer().step(p, np.full(50, huge), 1.0 / huge)
    np.testing.assert_allclose(p, -1.0, rtol=1e-12)


def test_adam_raises_when_a_finite_gradient_squares_past_float64():
    # Adam's first step divides by sqrt(g**2): 1e300**2 overflows, 1e150**2 does not
    net = ModelSet({
        "small": Mlp([2, 1]),
        "encoder": small_spec(n_cat=1, n_num=2, hidden=(8,)).build(stream(36, "huge")),
    })
    net.grad[...] = 1.0
    net.models["encoder"].layout.views(net.models["encoder"].grad)["mlp.0.weight"][...] = 1e300
    before = net.theta.copy()
    with np.errstate(over="ignore"), pytest.raises(
        TrainingError, match=r"gradient square .* 'encoder\.mlp\.0\.weight'"
    ):
        AdamOptimizer().step(net.theta, net.grad, 0.1, net.layout)
    np.testing.assert_array_equal(net.theta, before)
    assert not net.models["small"].theta.any()  # raised before any parameter moved
    p = np.zeros(50)
    AdamOptimizer().step(p, np.full(50, 1e150), lr=0.01)
    np.testing.assert_allclose(p, -0.01, rtol=1e-12)


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


@pytest.mark.parametrize("n", [8, 256])
def test_bce_is_bitwise_equal_to_the_sigmoid_formula(n):
    # exp(-|l|) is computed once for the loss and both sigmoid branches
    rng = np.random.default_rng(n)
    logits = rng.standard_normal(n) * 30.0
    logits[:5] = [0.0, 1e-300, -1e-300, 1000.0, -1000.0]
    labels = (rng.uniform(size=n) < 0.5).astype(np.float64)
    loss, grad = bce_with_logits(logits, labels)
    per = np.maximum(logits, 0.0) - logits * labels + np.log1p(np.exp(-np.abs(logits)))
    assert loss == float(per.sum() / n)
    assert np.array_equal(grad, (sigmoid(logits) - labels) / n)


# ----------------------------------------------------------------- optimizers

def test_sgd_step_is_exact():
    p = np.array([1.0, -2.0])
    SgdOptimizer().step(p, np.array([0.5, 0.25]), lr=0.1)
    np.testing.assert_array_equal(p, [1.0 - 0.05, -2.0 - 0.025])


def test_adam_first_step_hand_computed():
    # m_hat = g, v_hat = g^2 after bias correction at t=1, so the first
    # step is lr * g / (|g| + eps) regardless of magnitude
    p = np.array([1.0])
    opt = AdamOptimizer()
    opt.step(p, np.array([0.5]), lr=0.01)
    expected = 1.0 - 0.01 * 0.5 / (0.5 + 1e-8)
    assert p[0] == pytest.approx(expected, abs=1e-15)
    assert opt.t == 1


def test_adam_second_step_hand_unrolled():
    p = np.array([1.0])
    opt = AdamOptimizer()
    g1, g2, lr = 0.5, -0.25, 0.01
    opt.step(p, np.array([g1]), lr=lr)
    opt.step(p, np.array([g2]), lr=lr)
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
    opt.step(p, np.zeros(2), lr=0.5)
    np.testing.assert_array_equal(p, [3.0, -4.0])
    assert opt.t == 1


def test_one_step_over_a_model_set_equals_per_model_steps():
    # a per-entry lr, one rate per model as in a round, steps every model
    # exactly as its own optimizer would
    for make in (SgdOptimizer, AdamOptimizer):
        models = {
            "head": Mlp.init(stream(37, "set", "head"), [4, 1]),
            "enc": small_spec(n_cat=2, n_num=2, hidden=(6, 4)).build(stream(37, "enc")),
        }
        rates = {"head": 3e-3, "enc": 1e-2}
        net = ModelSet(models)
        alone = {name: (m.theta.copy(), make()) for name, m in models.items()}
        lr = np.empty(net.theta.size)
        for name, span in net.spans.items():
            assert np.shares_memory(net.models[name].theta, net.theta[span])
            assert net.models[name].theta.tobytes() == models[name].theta.tobytes()
            lr[span] = rates[name]
        one, rng = make(), stream(37, "set", "grads")
        for _ in range(3):
            net.grad[...] = rng.standard_normal(net.grad.size) * 10.0 ** rng.integers(-6, 3)
            one.step(net.theta, net.grad, lr, net.layout)
            for name, (theta, opt) in alone.items():
                opt.step(theta, net.grad[net.spans[name]], rates[name])
        for name, (theta, opt) in alone.items():
            assert net.models[name].theta.tobytes() == theta.tobytes(), name
            assert theta.tobytes() != models[name].theta.tobytes()
            if make is AdamOptimizer:
                span = net.spans[name]
                assert one.m[span].tobytes() == opt.m.tobytes()
                assert one.v[span].tobytes() == opt.v.tobytes()


def test_adam_state_arrays_are_allocated_once():
    p = np.array([1.0, -2.0])
    opt = AdamOptimizer()
    opt.step(p, np.array([0.5, 0.25]), lr=0.1)
    m, v = opt.m, opt.v
    opt.step(p, np.array([-0.5, 1.0]), lr=0.1)
    assert opt.m is m and opt.v is v
    np.testing.assert_allclose(m, [0.9 * 0.05 - 0.05, 0.9 * 0.025 + 0.1], rtol=1e-12)


def test_optimizers_reject_non_finite_grads():
    p = np.array([1.0])
    with pytest.raises(TrainingError):
        SgdOptimizer().step(p, np.array([np.nan]), lr=0.1)
    with pytest.raises(TrainingError):
        AdamOptimizer().step(p, np.array([np.inf]), lr=0.1)


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


def test_a_cut_write_leaves_the_previous_file_whole(tmp_path, monkeypatch):
    p = tmp_path / "x.ckpt"
    save_checkpoint(p, {"a": np.zeros(2)}, {"n": 1})
    before = p.read_bytes()
    write_bytes = Path.write_bytes

    def cut(self, data):  # the disk fills halfway through the write
        write_bytes(self, data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_bytes", cut)
    with pytest.raises(DataError, match="x.ckpt: cannot write: No space left on device"):
        save_checkpoint(p, {"a": np.ones(4)}, {"n": 2})
    monkeypatch.undo()
    assert p.read_bytes() == before
    assert os.listdir(tmp_path) == ["x.ckpt"]  # no temporary file remains
    # a directory where the file should go: refused, and again nothing left over
    (tmp_path / "d.ckpt").mkdir()
    with pytest.raises(DataError, match="d.ckpt: cannot write"):
        save_checkpoint(tmp_path / "d.ckpt", {"a": np.ones(4)}, {})
    assert sorted(os.listdir(tmp_path)) == ["d.ckpt", "x.ckpt"]
    save_checkpoint(p, {"a": np.ones(4)}, {"n": 2})  # the happy path replaces it whole
    assert load_checkpoint(p)[1] == {"n": 2}
    assert sorted(os.listdir(tmp_path)) == ["d.ckpt", "x.ckpt"]


def test_a_sigint_during_a_write_is_raised_once_the_file_is_whole(tmp_path, monkeypatch,
                                                                  sigint_raises):
    p, whole = tmp_path / "a.ckpt", tmp_path / "whole" / "a.ckpt"
    save_checkpoint(p, {"a": np.zeros(2)}, {"n": 1})
    save_checkpoint(whole, {"a": np.ones(4)}, {"n": 2})
    write_bytes, written = Path.write_bytes, []

    def interrupted(self, data):  # Ctrl-C halfway through the write
        write_bytes(self, data[: len(data) // 2])
        signal.raise_signal(signal.SIGINT)
        with open(self, "ab") as fh:
            fh.write(data[len(data) // 2:])
        written.append(self.name)

    monkeypatch.setattr(Path, "write_bytes", interrupted)
    with pytest.raises(KeyboardInterrupt):
        save_checkpoint(p, {"a": np.ones(4)}, {"n": 2})
    monkeypatch.undo()
    # the write and its os.replace ran to the end before the interrupt came
    assert written == [f".a.ckpt.{os.getpid()}.tmp"]
    assert p.read_bytes() == whole.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["a.ckpt", "whole"]  # no temporary file


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
