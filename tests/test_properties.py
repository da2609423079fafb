"""Property tests against exact references, with Hypothesis (profile in conftest.py)."""
import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hypothesis.extra.numpy import arrays  # noqa: E402

from vflhlp.config import canonical_json, config_hash, parse_config, to_dict  # noqa: E402
from vflhlp.data import Field, FeatureSchema, _min_max, read_csv  # noqa: E402
from vflhlp import federated  # noqa: E402
from vflhlp.errors import DataError  # noqa: E402
from vflhlp.federated import (  # noqa: E402
    Federation, GradientMsg, RepresentationMsg, TrainMode, TransportLog, audit_transport,
    run_round,
)
from vflhlp.metrics import auc  # noqa: E402
from vflhlp.nn import (  # noqa: E402
    EncoderSpec, Mlp, bce_with_logits, load_checkpoint, save_checkpoint, sigmoid,
)
from vflhlp.nn.layers import BINCOUNT_ROWS, EmbeddingTable, ModelSet, ParamLayout  # noqa: E402
from vflhlp.nn.optim import OPTIMIZERS  # noqa: E402
from vflhlp.ssl_pretrain import CorruptionModel, corrupt, info_nce  # noqa: E402

from conftest import anchor_model, draw_encoder_inputs  # noqa: E402
from test_federated import Monolith, reference_audit  # noqa: E402
from test_metrics import pairwise_auc  # noqa: E402

SCHEMA = FeatureSchema((Field("x", "numerical", party=1),))
INT64 = st.integers(-(2**63), 2**63 - 1)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
ROWS = st.lists(st.tuples(INT64, FINITE, st.sampled_from([0, 1])), min_size=1, max_size=12,
                unique_by=lambda row: row[0])
TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126, exclude_characters=',"'),
               max_size=6)


def _parses(parse, cell: str) -> bool:
    try:
        parse(cell)
    except ValueError:
        return False
    return True


COLUMNS = ("id", "x", "label")  # the order of a ROWS tuple
BAD_CELLS = {  # column: cells that fail to parse or fall outside the column's range
    "id": st.integers(min_value=2**63).map(str) | st.integers(max_value=-(2**63) - 1).map(str)
    | TEXT.filter(lambda c: not (_parses(int, c) and -(2**63) <= int(c) < 2**63)),
    "x": st.sampled_from(["nan", "inf", "-Infinity", "1e999"])
    | TEXT.filter(lambda c: not (_parses(float, c) and math.isfinite(float(c)))),
    "label": st.sampled_from(["2", "0.5", "-1", "nan"])
    | TEXT.filter(lambda c: not (_parses(float, c) and float(c) in (0.0, 1.0))),
}


def _write(path, rows) -> None:
    path.write_text("id,label,x\n" + "".join(f"{i},{y},{x}\n" for i, x, y in rows))


@settings(max_examples=300)
@given(rows=ROWS)
def test_ids_and_finite_numbers_come_back_bit_for_bit(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    _write(path, rows)  # a float's str is its repr, which reads back to the same bits
    ids = np.array([i for i, _, _ in rows], dtype=np.int64)
    xs = np.array([x for _, x, _ in rows])
    with np.errstate(over="ignore"):
        wide = not np.isfinite(xs.max() - xs.min())
    if wide:  # such a range would scale the column to 0 and nan
        with pytest.raises(DataError) as raised:
            read_csv(path, SCHEMA, "id", "label")
        assert str(raised.value).startswith(f"{path}: field 'x': range ")
        return
    table, encoder = read_csv(path, SCHEMA, "id", "label")
    assert table.ids.tobytes() == ids.tobytes()
    assert np.array(encoder.num_stats["x"]).tobytes() == np.array([xs.min(), xs.max()]).tobytes()
    np.testing.assert_array_equal(table.num[:, 0], _min_max(xs, xs.min(), xs.max()))
    assert table.labels.tolist() == [float(y) for _, _, y in rows]


@st.composite
def one_bad_cell(draw):
    rows = [list(row) for row in draw(ROWS)]
    row, column = draw(st.integers(0, len(rows) - 1)), draw(st.sampled_from(COLUMNS))
    rows[row][COLUMNS.index(column)] = draw(BAD_CELLS[column])
    return rows, row


@settings(max_examples=300)
@given(case=one_bad_cell())
def test_an_unparsable_or_out_of_range_cell_is_a_data_error_naming_its_line(
        tmp_path_factory, case):
    rows, row = case
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    _write(path, rows)
    with pytest.raises(DataError) as raised:
        read_csv(path, SCHEMA, "id", "label")
    assert str(raised.value).startswith(f"{path}:{row + 2}: "), rows[row]


@st.composite
def labelled_scores(draw):
    """Both classes, in any order; scores with ties, -0.0 beside 0.0 among them."""
    scores = FINITE | st.sampled_from([-0.0, 0.0, 1.0])
    pos = draw(st.lists(scores, min_size=1, max_size=20))
    neg = draw(st.lists(scores, min_size=1, max_size=20))
    order = draw(st.permutations(range(len(pos) + len(neg))))
    return np.array([1.0] * len(pos) + [0.0] * len(neg))[order], np.array(pos + neg)[order]


@settings(max_examples=300)
@given(case=labelled_scores())
def test_auc_is_pair_counting(case):
    labels, scores = case
    assert auc(labels, scores) == pairwise_auc(labels, scores)


@st.composite
def scatter_case(draw):
    """A table, block rows resolved from values in and out of each field's range,
    and an upstream gradient with signed zeros; rows.size falls on both sides
    of BINCOUNT_ROWS."""
    cards = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(0, 2 * BINCOUNT_ROWS // len(cards)))
    cat = np.array([[draw(st.integers(-1, card)) for card in cards] for _ in range(n)],
                   dtype=np.int64).reshape(n, len(cards))
    table = EmbeddingTable([(f"f{i}", c) for i, c in enumerate(cards)], dim,
                           np.zeros(sum(cards) * dim))
    grads = st.floats(-1e3, 1e3) | st.sampled_from([-0.0, 0.0])
    upstream = draw(arrays(np.float64, (n, table.out_dim), elements=grads))
    return table, table.resolve(cat), upstream


@settings(max_examples=150)
@given(case=scatter_case())
def test_embedding_backward_is_a_row_loop_bit_for_bit(case):
    table, rows, upstream = case
    expected = np.zeros(table.block.shape)
    for i in range(rows.shape[0]):  # rows in order, each field's slice added to its row
        for j, row in enumerate(rows[i]):
            expected[row] += upstream[i, j * table.embed_dim:(j + 1) * table.embed_dim]
    out = np.full(table.block.shape, np.nan)  # overwritten, not added to
    assert table.backward(rows, upstream, out) is out
    assert out.tobytes() == expected.tobytes()


SHAPES = st.lists(st.integers(0, 3), max_size=3).map(tuple)  # 0-sized and 1-wide among them
ANY_FLOAT = st.floats(width=64)  # nan and inf too: every bit pattern must survive


@settings(max_examples=150)
@given(shapes=st.dictionaries(st.text(max_size=4), SHAPES, min_size=1, max_size=5),
       data=st.data())
def test_param_layout_flatten_inverts_views(shapes, data):
    layout = ParamLayout(shapes)
    vec = data.draw(arrays(np.float64, layout.size, elements=ANY_FLOAT))
    views = layout.views(vec)
    assert list(views) == list(shapes) and all(v.shape == shapes[k] for k, v in views.items())
    assert layout.flatten(views).tobytes() == vec.tobytes()
    values = {name: data.draw(arrays(np.float64, shape, elements=ANY_FLOAT))
              for name, shape in shapes.items()}
    back = layout.views(layout.flatten(values))
    assert all(back[name].tobytes() == values[name].tobytes() for name in shapes)


@st.composite
def model(draw):
    """An Mlp or a TabularEncoder of random shape, holding arbitrary bits."""
    widths = st.lists(st.integers(1, 3), min_size=1, max_size=3)
    if draw(st.booleans()):
        net = Mlp(draw(widths) + [draw(st.integers(1, 3))])
    else:
        cat = draw(st.lists(st.integers(1, 4), max_size=2))
        spec = EncoderSpec(tuple((f"c{i}", c) for i, c in enumerate(cat)),
                           draw(st.integers(0 if cat else 1, 2)), draw(st.integers(1, 2)),
                           tuple(draw(widths)))
        net = spec.build_empty()
    net.theta[...] = draw(arrays(np.float64, net.theta.shape, elements=ANY_FLOAT))
    return net


@settings(max_examples=150)
@given(models=st.dictionaries(st.sampled_from(["a", "b", "head", "party1.encoder"]), model(),
                              min_size=1))
def test_a_model_set_gives_each_model_back_its_bits(models):
    net = ModelSet(models)
    named = net.layout.views(net.theta)
    for name, m in models.items():
        got = net.models[name]
        assert type(got) is type(m) and got.layout.shapes == m.layout.shapes
        assert got.theta.tobytes() == m.theta.tobytes()
        assert np.shares_memory(got.theta, net.theta) and np.shares_memory(got.grad, net.grad)
        assert net.theta[net.spans[name]].tobytes() == m.theta.tobytes()
        for t, value in m.params().items():
            assert named[f"{name}.{t}"].tobytes() == value.tobytes()


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
TENSORS = st.dictionaries(
    st.text(max_size=8),
    st.one_of(arrays(np.float64, SHAPES, elements=ANY_FLOAT),
              arrays(np.int64, SHAPES, elements=st.integers(-(2**63), 2**63 - 1))),
    max_size=4,
)


@settings(max_examples=100)
@given(tensors=TENSORS, meta=st.dictionaries(st.text(), JSON, max_size=4))
def test_a_checkpoint_reads_back_equal_and_rewrites_to_the_same_bytes(
        tmp_path_factory, tensors, meta):
    where = tmp_path_factory.mktemp("ckpt")
    save_checkpoint(where / "a.ckpt", tensors, meta)
    read, read_meta = load_checkpoint(where / "a.ckpt")
    assert read_meta == meta and sorted(read) == sorted(tensors)
    for name, value in tensors.items():
        assert read[name].dtype == value.dtype and read[name].shape == value.shape
        assert read[name].tobytes() == value.tobytes()
    save_checkpoint(where / "b.ckpt", read, read_meta)
    # equal tensors and metadata give the same bytes, whatever their order
    save_checkpoint(where / "c.ckpt", dict(reversed(tensors.items())), meta)
    for other in ("b.ckpt", "c.ckpt"):
        assert (where / other).read_bytes() == (where / "a.ckpt").read_bytes()


@st.composite
def corruption_case(draw):
    """A table to fit the marginals on (categorical-only, numerical-only or
    mixed, with repeated values), a batch of its rows, a rate and a seed."""
    kind = draw(st.sampled_from(["categorical", "numerical", "mixed"]))
    n_cat = 0 if kind == "numerical" else draw(st.integers(1, 3))
    n_num = 0 if kind == "categorical" else draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    cat = draw(arrays(np.int64, (n, n_cat), elements=st.integers(0, 4)))
    # +0.0 turns -0.0 into 0.0: the two compare equal, so a sort may put either first
    values = st.sampled_from([-1.5, 0.0, 2.0]) | st.floats(-1e6, 1e6).map(lambda x: x + 0.0)
    num = draw(arrays(np.float64, (n, n_num), elements=values))
    size = draw(st.sampled_from([4, 1, 0, 6]))  # Hypothesis leans to the first choice
    rows = np.array(draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size)),
                    dtype=np.intp)
    rate = draw(st.floats(0.0, 1.0, exclude_min=True) | st.sampled_from([0.0, 1.0]))
    return cat, num, rows, rate, draw(st.integers(0, 2**32 - 1))


def corrupt_by_cell(cat, num, rows, rate, rng):
    """corrupt(cat[rows], num[rows]) over the marginals of (cat, num), one row
    and one cell at a time, each draw a scalar draw of `rng`."""
    out_cat, out_num = cat[rows], num[rows]
    n, n_cat, d = rows.size, cat.shape[1], cat.shape[1] + num.shape[1]
    m = math.ceil(rate * d)
    mask = np.zeros((n, d), dtype=bool)
    if m == 0 or n == 0:
        return out_cat, out_num, mask
    scores = [[rng.random() for _ in range(d)] for _ in range(n)]
    for r in range(n):  # a row's m lowest scores, a tie to the lower column
        for c in sorted(range(d), key=lambda c: (scores[r][c], c))[:m]:
            mask[r, c] = True
    cells = [(r, c) for c in range(d) for r in range(n) if mask[r, c]]  # column by column
    for r, c in (cell for cell in cells if cell[1] < n_cat):
        values, counts = np.unique(cat[:, c], return_counts=True)
        cdf = (counts / counts.sum()).cumsum()  # as Generator.choice builds it
        cdf /= cdf[-1]
        u = rng.random()
        out_cat[r, c] = values[next(i for i, edge in enumerate(cdf) if edge > u)]
    for r, c in (cell for cell in cells if cell[1] >= n_cat):
        column = sorted(num[:, c - n_cat])
        out_num[r, c - n_cat] = column[rng.integers(0, len(column))]
    return out_cat, out_num, mask


@settings(max_examples=100)
@given(case=corruption_case())
def test_corrupt_is_a_cell_by_cell_loop_bit_for_bit(case):
    cat, num, rows, rate, seed = case
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = corrupt(cat[rows], num[rows], CorruptionModel.fit(cat, num, rate), rng)
    for g, w in zip(got, corrupt_by_cell(cat, num, rows, rate, ref_rng), strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


RATES = st.integers(0, 10) | st.floats(0.0, 1e6)  # an int passes for a float
SCHEDULE = {
    "learning_rate": RATES, "epochs": st.integers(0, 200), "batch_size": st.integers(1, 4096),
    "optimizer": st.sampled_from(sorted(OPTIMIZERS)),
}
FRACTIONS = st.floats(0.0, 1.0, exclude_max=True)
OVERRIDES = {  # the path of a preset's entry: its valid values
    **{("ssl", key): value for key, value in SCHEDULE.items()},
    **{("supervised", key): value for key, value in SCHEDULE.items()},
    ("ssl", "corruption_rate"): st.floats(0.0, 1.0),
    ("ssl", "temperature"): st.floats(1e-6, 1e6),
    ("ssl", "projection_hidden"): st.lists(st.integers(1, 64), max_size=3),
    ("supervised", "val_fraction"): FRACTIONS,
    **{("downstream", key): SCHEDULE[key] for key in ("epochs", "batch_size", "optimizer")},
    **{("downstream", key): RATES for key in ("beta", "eta1", "eta2")},
    ("downstream", "val_fraction"): FRACTIONS,
    ("downstream", "warm_start_active"): st.booleans(),
    ("model", "embed_dim"): st.integers(1, 32),
    ("model", "encoder_hidden"): st.lists(st.integers(1, 64), min_size=1, max_size=4),
    ("data", "synth", "n_test"): st.integers(1, 5000),
    ("data", "synth", "cardinality"): st.integers(2, 100),
    ("data", "synth", "feature_noise"): st.floats(0.0, 10.0),
    ("data", "synth", "label_noise"): st.floats(1e-3, 10.0),
    ("grid", "modes"): st.lists(st.sampled_from([m.value for m in TrainMode]), min_size=1,
                                unique=True),
    ("grid", "aligned_counts"): st.lists(st.integers(1, 800), min_size=1, max_size=5,
                                         unique=True),
    ("grid", "seeds"): st.lists(st.integers(0, 2**40), min_size=1, max_size=5, unique=True),
    ("grid", "beta_sweep"): st.lists(RATES, max_size=3, unique_by=lambda b: f"{b:g}"),
    ("grid", "include_oracle"): st.booleans(),
    ("output_dir",): st.text(),
}


@st.composite
def run_config(draw):
    """A preset's name and a random valid subset of overrides of its entries."""
    raw = {"preset": draw(st.sampled_from(["fixture", "avazu-like", "criteo-like"]))}
    for path in draw(st.lists(st.sampled_from(list(OVERRIDES)), unique=True)):
        *sections, key = path
        where = raw
        for section in sections:
            where = where.setdefault(section, {})
        where[key] = draw(OVERRIDES[path])
    return raw


@settings(max_examples=100)
@given(raw=run_config())
def test_a_config_reads_back_from_its_dict_and_json_with_the_same_hash(raw):
    cfg = parse_config(raw)
    again = parse_config(to_dict(cfg))
    assert again == cfg and to_dict(again) == to_dict(cfg)
    text = canonical_json(cfg)
    from_json = parse_config(json.loads(text))
    assert from_json == cfg and canonical_json(from_json) == text
    assert config_hash(again) == config_hash(from_json) == config_hash(cfg)
    moved = parse_config({**json.loads(text), "output_dir": cfg.output_dir + "/elsewhere"})
    assert config_hash(moved) == config_hash(cfg)


def info_nce_by_division(s: np.ndarray, temperature: float) -> tuple[float, np.ndarray]:
    """info_nce with both of its N x N divisions written as np.divide."""
    n = s.shape[0]
    a = np.divide(s, temperature, out=s)
    neg_diag = -a.diagonal()
    shift = np.maximum.reduce(a, axis=1, keepdims=True)
    a -= shift
    e = np.exp(a, out=a)
    sum_e = np.add.reduce(e, axis=1, keepdims=True)
    lse = np.log(sum_e[:, 0]) + shift[:, 0]
    loss = float(np.add.reduce(neg_diag + lse - np.log(n)) / n)
    p = np.divide(e, sum_e, out=e)
    p.flat[:: n + 1] -= 1.0
    return loss, np.divide(p, n * temperature, out=p)


# zeros of both signs, subnormals, the edge of the normals, overflow to inf, nan
EXTREMES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
                            700.0, -700.0, 1e308, -1e308, math.inf, -math.inf, math.nan])


@st.composite
def similarity_case(draw):
    """tau a power of two on both sides of the exact reciprocals' range or any
    positive float; an N x N matrix of uniforms in [-1, 1], a few of them
    extreme, N from 1 to 300."""
    tau = draw(st.integers(-70, 70).map(lambda k: 2.0**k)
               | st.floats(min_value=0.0, exclude_min=True))
    n = draw(st.sampled_from([256, 136, 1, 2, 128]) | st.integers(1, 300))
    s = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 1.0, (n, n))
    for _ in range(draw(st.integers(0, 3))):
        s[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(EXTREMES)
    return s, tau


@settings(max_examples=100)
@given(case=similarity_case())
def test_info_nce_is_the_divisions_bit_for_bit(case):
    s, tau = case
    with np.errstate(all="ignore"):
        loss, grad = info_nce(s.copy(), tau)
        want_loss, want_grad = info_nce_by_division(s, tau)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert grad.tobytes() == want_grad.tobytes()


# the presets' tau and common ones, each of which the draws above may miss
@pytest.mark.parametrize("tau", [0.5, 1.0, 0.1, 0.07, 0.2, 0.3, 3.0, 10.0, 1e-3])
def test_info_nce_is_the_divisions_bit_for_bit_at_common_temperatures(tau):
    for n in (256, 136):  # a full fixture batch and its short last one
        s = np.random.default_rng(n).uniform(-1.0, 1.0, (n, n))
        loss, grad = info_nce(s.copy(), tau)
        want_loss, want_grad = info_nce_by_division(s, tau)
        assert loss == want_loss and grad.tobytes() == want_grad.tobytes()


LOGITS = st.floats(width=64) | st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1000.0, -1000.0])


@settings(max_examples=200)
@given(case=st.lists(st.tuples(LOGITS, st.sampled_from([0.0, 1.0])), min_size=1, max_size=40))
def test_bce_with_logits_is_the_where_formula_bit_for_bit(case):
    # and sigmoid, which writes the logistic as bce_with_logits does
    logits, labels = (np.array(column) for column in zip(*case))
    n = logits.size
    with np.errstate(all="ignore"):
        loss, grad = bce_with_logits(logits, labels)
        probabilities = sigmoid(logits)
        e = np.exp(-np.abs(logits))
        per = np.maximum(logits, 0.0) - logits * labels + np.log1p(e)
        want_grad = (np.where(logits >= 0, 1.0, e) / (1.0 + e) - labels) / n
        want_probabilities = np.where(logits >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    assert np.float64(loss).tobytes() == (np.add.reduce(per) / n).tobytes()
    assert grad.tobytes() == want_grad.tobytes()
    assert probabilities.tobytes() == want_probabilities.tobytes()


@st.composite
def transport_case(draw):
    """Logged messages as (up, round, party, leak): K = 3 balanced rounds whose
    indices repeat or skip far, then messages dropped, added or flipped in
    direction, some payloads replaced by a leak (an index into the test's
    leaks, or None), in any order; and (message, forbidden digest) pairs whose
    message digest becomes the forbidden one's first 8 bytes and 24 zeros."""
    rounds = draw(st.lists(st.integers(0, 12) | st.integers(0, 2**32 - 1), max_size=5))
    messages = [[up, r, k, None] for r in rounds for up in (True, False) for k in (1, 2, 3)]
    for _ in range(draw(st.integers(0, 3))):
        what = draw(st.sampled_from(["add", "drop", "flip"]))
        if what == "add" or not messages:
            messages.append([draw(st.booleans()), draw(st.integers(0, 12)),
                             draw(st.integers(1, 3)), None])
            continue
        i = draw(st.integers(0, len(messages) - 1))
        if what == "drop":
            del messages[i]
        else:
            messages[i][0] = not messages[i][0]
    for _ in range(draw(st.integers(0, 2)) if messages else 0):
        messages[draw(st.integers(0, len(messages) - 1))][3] = draw(st.integers(0, 2))
    order = draw(st.permutations(range(len(messages))))
    near = draw(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=2))
    return [messages[i] for i in order], near


@settings(max_examples=100)
@given(case=transport_case())
def test_audit_transport_is_the_reference_audit(tiny_bundle, case):
    messages, near_misses = case
    train = tiny_bundle.train
    leaks = [train.labels, train.parties[2].num[:, 0],
             train.parties[3].cat[:, 0].astype(np.float64)]
    log = TransportLog()
    for up, r, k, leak in messages:
        values = np.full((1, 2), r + 0.5 * k) if leak is None else leaks[leak].reshape(-1, 1)
        log.record((RepresentationMsg if up else GradientMsg)(r, k, values))
    forbidden = sorted(federated._raw_column_digests(train))
    for i, j in near_misses if messages else ():
        i %= len(messages)
        log.digests[32 * i:32 * i + 32] = forbidden[j % len(forbidden)][:8] + bytes(24)
    assert audit_transport(log, train) == reference_audit(log, train)


@st.composite
def federation_case(draw):
    """K parties of random encoder specs, beta (0 among them), SGD rates kept
    below eta * beta = 0.5, so that the anchored entries do not blow up, the
    batch size and a seed for the weights, anchors and batches."""
    specs = {}
    for k in range(1, draw(st.integers(2, 4)) + 1):
        cards = draw(st.lists(st.integers(1, 5), max_size=2))
        specs[k] = EncoderSpec(tuple((f"c{i}", c) for i, c in enumerate(cards)),
                               draw(st.integers(0 if cards else 1, 3)), draw(st.integers(1, 3)),
                               tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=2))))
    beta = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 5.0))
    eta1, eta2 = draw(st.floats(1e-3, 0.1)), draw(st.floats(1e-3, 0.1))
    return specs, beta, eta1, eta2, draw(st.integers(1, 8)), draw(st.integers(0, 2**32 - 1))


def constrained_step(mono: Monolith, anchor, beta: float, cat, num, labels) -> float:
    """Monolith.step with Federation's constraint: beta * (theta - anchor) added
    to the gradient of party 1's encoder and of the head's weight columns over
    party 1's block and its bias, and beta * 0.5 * sum((theta - anchor)^2) to
    the loss; mono.encoders[1] comes first in the head's input."""
    order = sorted(mono.encoders)
    reps, tapes = zip(*[mono.encoders[k].forward(cat[k], num[k]) for k in order])
    logits, head_tape = mono.head.forward(np.concatenate(reps, axis=1))
    loss, dlogits = bce_with_logits(logits[:, 0], labels)
    head_grad, dh = mono.head.backward(head_tape, dlogits[:, None])
    ends = np.cumsum([mono.encoders[k].rep_dim for k in order])
    grads = [mono.encoders[k].backward(tape, dh[:, end - mono.encoders[k].rep_dim:end])
             for k, tape, end in zip(order, tapes, ends)]
    d1 = mono.encoders[1].rep_dim
    head, pulled = mono.head.params(), anchor.head.params()
    diffs = [mono.encoders[1].theta - anchor.encoder.theta,
             head["0.weight"][:, :d1] - pulled["0.weight"], head["0.bias"] - pulled["0.bias"]]
    head_grads = mono.head.layout.views(head_grad)
    grads[0] += beta * diffs[0]
    head_grads["0.weight"][:, :d1] += beta * diffs[1]
    head_grads["0.bias"] += beta * diffs[2]
    mono.opt.step(mono.head.theta, head_grad, mono.eta1)
    for k, grad in zip(order, grads):
        mono.opt.step(mono.encoders[k].theta, grad, mono.eta2)
    return loss + beta * 0.5 * sum(float((d * d).sum()) for d in diffs)


@settings(max_examples=60)
@given(case=federation_case())
def test_run_round_is_the_constrained_centralized_model(case):
    specs, beta, eta1, eta2, n, seed = case
    rng = np.random.default_rng(seed)
    encoders = {k: spec.build(rng) for k, spec in specs.items()}
    head = Mlp.init(rng, [sum(spec.rep_dim for spec in specs.values()), 1])
    anchor = anchor_model(specs[1], rng)
    fed = Federation(encoders, head, beta, eta1, eta2, "sgd", anchor)  # trains copies
    mono = Monolith(encoders, head, eta1, eta2)
    for r in range(3):
        cat, num = zip(*[draw_encoder_inputs(rng, specs[k], n) for k in sorted(specs)])
        cat, num = dict(zip(sorted(specs), cat)), dict(zip(sorted(specs), num))
        labels = rng.integers(0, 2, n).astype(np.float64)
        stats = run_round(fed, (cat, num, labels), r, TransportLog())
        assert abs(stats.loss - constrained_step(mono, anchor, beta, cat, num, labels)) <= 1e-10
        for k in specs:
            assert np.abs(fed.encoders[k].theta - mono.encoders[k].theta).max() <= 1e-10
        assert np.abs(fed.head.theta - mono.head.theta).max() <= 1e-10
