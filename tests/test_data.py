"""Data layer tests: synthetic generator, CSV ingestion, partitioning, cache."""
import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest

import vflhlp
from vflhlp import data
from vflhlp.config import load_config
from vflhlp.data import (
    Field,
    FeatureSchema,
    PartyView,
    hold_out,
    load_bundle,
    read_csv,
    sample_aligned_batches,
    save_bundle,
    split_from_table,
    synth_generate,
    vertical_partition,
)
from vflhlp.errors import ConfigError, DataError
from vflhlp.evaluation import build_bundle
from vflhlp.metrics import auc
from vflhlp.nn import load_checkpoint, save_checkpoint
from vflhlp.nn.layers import BlockRows
from vflhlp.rng import stream

from conftest import splice_metadata, tiny_synth_config
from test_cli import CSV_ROWS, _csv_config


# ----------------------------------------------------------------- synthetic

def test_synth_party_id_intersection_is_exactly_the_pool(tiny_bundle):
    train = tiny_bundle.train
    common = set(train.parties[1].ids.tolist())
    for k in (2, 3):
        common &= set(train.parties[k].ids.tolist())
    assert common == set(train.aligned_pool.tolist())
    for k in (1, 2, 3):
        assert train.parties[k].n == 400


def test_synth_unaligned_ids_are_private_to_each_party(tiny_bundle):
    train = tiny_bundle.train
    pools = [set(np.setdiff1d(train.parties[k].ids, train.aligned_pool).tolist())
             for k in (1, 2, 3)]
    for i in range(3):
        assert not pools[i] & set(train.aligned_pool.tolist())
        for j in range(i + 1, 3):
            assert not pools[i] & pools[j]


def test_synth_feature_ranges(tiny_bundle):
    for k, view in tiny_bundle.train.parties.items():
        assert view.num.min() >= 0.0 and view.num.max() <= 1.0
        assert view.cat.min() >= 1  # index 0 is the reserved unseen bucket
        assert view.cat.max() <= 5  # cardinality 6 in the tiny config
    labels = tiny_bundle.train.labels
    assert set(np.unique(labels).tolist()) <= {0.0, 1.0}


def test_synth_aligned_prefixes_are_nested(tiny_bundle):
    train = tiny_bundle.train
    small, large = train.aligned_ids(30), train.aligned_ids(90)
    np.testing.assert_array_equal(small, large[:30])
    np.testing.assert_array_equal(large, train.aligned_pool[:90])
    with pytest.raises(DataError):
        train.aligned_ids(train.aligned_pool.shape[0] + 1)


def test_synth_is_deterministic():
    cfg = tiny_synth_config()
    a = synth_generate(cfg, seed=3)
    b = synth_generate(cfg, seed=3)
    c = synth_generate(cfg, seed=4)
    np.testing.assert_array_equal(a.train.parties[2].num, b.train.parties[2].num)
    np.testing.assert_array_equal(a.train.aligned_pool, b.train.aligned_pool)
    np.testing.assert_array_equal(a.test.labels, b.test.labels)
    assert not np.array_equal(a.test.labels, c.test.labels)


def test_synth_label_noise_extremes():
    noisy = synth_generate(tiny_synth_config(label_noise=1e9, n_test=2000), seed=1)
    assert abs(auc(noisy.test.labels.astype(int), noisy.test.bayes_scores) - 0.5) < 0.06
    clean = synth_generate(tiny_synth_config(label_noise=0.2, n_test=2000), seed=1)
    assert auc(clean.test.labels.astype(int), clean.test.bayes_scores) > 0.9


def test_synth_gather_preserves_requested_order(tiny_bundle):
    train = tiny_bundle.train
    ids = train.aligned_ids(8)[::-1].copy()
    batch = train.gather(ids)
    np.testing.assert_array_equal(batch.ids, ids)
    np.testing.assert_array_equal(batch.labels, train.labels[train.parties[1].rows_for(ids)])
    one = train.gather(ids[:1])
    np.testing.assert_array_equal(one.num[2][0], batch.num[2][0])


def test_rows_for_missing_id_raises(tiny_bundle):
    view = tiny_bundle.train.parties[2]
    bogus = np.array([view.ids.max() + 1000], dtype=np.int64)
    with pytest.raises(DataError, match="party 2"):
        view.rows_for(bogus)


def test_synth_config_validation():
    with pytest.raises(ConfigError):
        tiny_synth_config(aligned_pool=500)  # pool larger than n_local
    with pytest.raises(ConfigError):
        tiny_synth_config(k_parties=2)  # per-party tuples keep length 3
    with pytest.raises(ConfigError):
        tiny_synth_config(cardinality=1)
    with pytest.raises(ConfigError):
        tiny_synth_config(label_noise=0.0)


# ----------------------------------------------------------------- batching

def _pool(ds, count):
    return ds.gather(ds.aligned_ids(count))


def _tagged_pool(ds, count):
    """A pool whose labels are its IDs, so a batch's labels name its rows."""
    pool = _pool(ds, count)
    pool.labels = pool.ids.astype(np.float64)
    return pool


def test_sample_aligned_batches_cover_each_row_once(tiny_bundle):
    train = tiny_bundle.train
    batches = sample_aligned_batches(_tagged_pool(train, 50), batch_size=16,
                                     rng=stream(5, "aligned-batches", 2))
    sizes = [rows for _, rows in batches]
    assert sizes == [16, 16, 16, 2] == [labels.size for (_, _, labels), _ in batches]
    seen = np.concatenate([labels for (_, _, labels), _ in batches])
    assert sorted(seen.tolist()) == sorted(train.aligned_ids(50).tolist())


def test_sample_aligned_batches_depend_on_epoch_not_call_order(tiny_bundle):
    pool = _tagged_pool(tiny_bundle.train, 50)
    a = sample_aligned_batches(pool, 16, stream(5, "aligned-batches", 1))
    b = sample_aligned_batches(pool, 16, stream(5, "aligned-batches", 1))
    c = sample_aligned_batches(pool, 16, stream(5, "aligned-batches", 2))
    np.testing.assert_array_equal(a[0][0][2], b[0][0][2])
    assert not np.array_equal(a[0][0][2], c[0][0][2])


@pytest.mark.parametrize("seed", [1, 5, 29])
def test_batches_of_the_gathered_pool_equal_per_batch_gathers(tiny_bundle, seed):
    # 50 rows in batches of 16, so each epoch ends on a short batch of 2
    train = tiny_bundle.train
    for epoch in (1, 2, 7):
        ids = train.aligned_ids(50)
        shuffled = ids[stream(seed, "aligned-batches", epoch).permutation(ids.size)]
        expected = [train.gather(shuffled[i : i + 16]) for i in range(0, ids.size, 16)]
        batches = sample_aligned_batches(_pool(train, 50), 16,
                                         stream(seed, "aligned-batches", epoch))
        assert [rows for _, rows in batches] == [16, 16, 16, 2]
        for ((cat, num, labels), _), want in zip(batches, expected):
            np.testing.assert_array_equal(labels, want.labels)
            for k in train.parties:
                np.testing.assert_array_equal(cat[k], want.cat[k])
                np.testing.assert_array_equal(num[k], want.num[k])
                assert num[k].dtype == want.num[k].dtype
                assert num[k].flags.c_contiguous


@pytest.mark.parametrize("count, batch_size", [(48, 16), (10, 16), (7, 1), (50, 16)])
def test_sample_aligned_batches_are_row_slices_of_the_shuffled_pool(
    tiny_bundle, count, batch_size
):
    # the reference is one slice per batch of the epoch's shuffled pool; the
    # embedding rows a cell resolves once keep their type in every batch
    train = tiny_bundle.train
    pool = _tagged_pool(train, count)
    pool.cat[1] = pool.cat[1].view(BlockRows)
    shuffled = pool.take(stream(3, "aligned-batches", 4).permutation(count))
    expected = [shuffled.take(slice(i, i + batch_size)) for i in range(0, count, batch_size)]
    batches = sample_aligned_batches(pool, batch_size, stream(3, "aligned-batches", 4))
    assert len(batches) == len(expected) == -(-count // batch_size)
    for ((cat, num, labels), rows), want in zip(batches, expected):
        assert rows == want.n
        assert labels.tobytes() == want.labels.tobytes() == want.ids.astype(float).tobytes()
        assert list(cat) == list(num) == list(train.parties)
        for k in train.parties:
            for a, b in ((cat[k], want.cat[k]), (num[k], want.num[k])):
                assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())
                assert type(a) is type(b) and a.flags.c_contiguous
        assert type(cat[1]) is BlockRows


def test_sample_aligned_batches_rejects_bad_input(tiny_bundle):
    with pytest.raises(ConfigError):
        sample_aligned_batches(_pool(tiny_bundle.train, 120), 0, stream(1, "batches"))
    empty = tiny_bundle.train.gather(tiny_bundle.train.aligned_pool[:0])
    with pytest.raises(DataError):
        sample_aligned_batches(empty, 8, stream(1, "batches"))


@pytest.mark.parametrize("count, fraction, n_val", [(50, 0.1, 5), (7, 0.0, 0), (4, 0.7, 3)])
def test_hold_out_splits_one_permutation(tiny_bundle, count, fraction, n_val):
    pool = _tagged_pool(tiny_bundle.train, count)
    perm = stream(2, "val-split").permutation(count)
    train, val = hold_out(pool, fraction, stream(2, "val-split"))
    assert train.ids.tolist() == pool.ids[perm[n_val:]].tolist()
    assert train.labels.tolist() == train.ids.tolist()
    for k in pool.cat:
        assert train.cat[k].tobytes() == pool.cat[k][perm[n_val:]].tobytes()
        assert train.num[k].tobytes() == pool.num[k][perm[n_val:]].tobytes()
    if n_val:
        assert val.ids.tolist() == pool.ids[perm[:n_val]].tolist()
        assert val.num[2].tobytes() == pool.num[2][perm[:n_val]].tobytes()
    else:
        assert val is None


# ----------------------------------------------------------------- CSV

def _schema():
    return FeatureSchema((
        Field("color", "categorical", party=1, cardinality=5),
        Field("x1", "numerical", party=1),
        Field("shape", "categorical", party=2, cardinality=4),
        Field("x2", "numerical", party=2),
    ))


def _write_csv(path, rows, header="id,label,color,x1,shape,x2"):
    path.write_text("\n".join([header] + rows) + "\n")


def _sample_rows(n=24):
    rows = []
    colors = ["red", "green", "blue", "red"]
    shapes = ["tri", "box", "tri"]
    for i in range(n):
        rows.append(f"{i},{i % 2},{colors[i % 4]},{i / 10.0},{shapes[i % 3]},{-i}")
    return rows


def test_load_csv_roundtrip(tmp_path):
    p = tmp_path / "train.csv"
    _write_csv(p, _sample_rows())
    table, enc = read_csv(p, _schema(), id_column="id", label_column="label")
    assert table.n == 24
    # vocab in sorted value order starting at 1
    assert enc.vocab["color"] == {"blue": 1, "green": 2, "red": 3}
    assert enc.vocab["shape"] == {"box": 1, "tri": 2}
    # min-max scaling to [0, 1]
    assert table.num[:, 0].min() == 0.0 and table.num[:, 0].max() == 1.0
    np.testing.assert_array_equal(np.unique(table.labels), [0.0, 1.0])
    assert len(enc.vocab["color"]) + 1 == 4  # plus the unseen bucket


def test_load_csv_error_messages_carry_line_numbers(tmp_path):
    good = tmp_path / "good.csv"
    _write_csv(good, _sample_rows())
    _, enc = read_csv(good, _schema(), "id", "label")
    dup = tmp_path / "dup.csv"
    _write_csv(dup, ["1,0,red,0.5,tri,1.0", "1,1,blue,0.25,box,2.0"])
    with pytest.raises(DataError, match=r":3: duplicate"):
        read_csv(dup, _schema(), "id", "label")

    bad_num = tmp_path / "badnum.csv"
    _write_csv(bad_num, ["1,0,red,0.5,tri,1.0", "2,1,blue,oops,box,2.0"])
    with pytest.raises(DataError, match=r":3:.*x1"):
        read_csv(bad_num, _schema(), "id", "label")

    for raw in ("nan", "inf", "-Infinity"):
        non_finite = tmp_path / "nonfinite.csv"
        _write_csv(non_finite, ["1,0,red,0.5,tri,1.0", f"2,1,blue,{raw},box,2.0"])
        with pytest.raises(DataError, match=r":3:.*x1.*not a finite number"):
            read_csv(non_finite, _schema(), "id", "label")
        with pytest.raises(DataError, match=r":3:.*x1.*not a finite number"):
            read_csv(non_finite, _schema(), "id", "label", enc)[0]

    bad_label = tmp_path / "badlabel.csv"
    _write_csv(bad_label, ["1,0,red,0.5,tri,1.0", "2,7,blue,0.2,box,2.0"])
    with pytest.raises(DataError, match=r":3:"):
        read_csv(bad_label, _schema(), "id", "label")

    missing = tmp_path / "missing.csv"
    missing.write_text("id,label,color,x1,x2\n1,0,red,0.5,1.0\n")
    with pytest.raises(DataError, match="shape"):
        read_csv(missing, _schema(), "id", "label")


def test_a_header_naming_a_read_column_twice_is_a_data_error(tmp_path):
    # csv.DictReader keeps the last of two equal names: x1 was read from the
    # second column, 7.0 and 9.0, with no word about the first
    twice = tmp_path / "twice.csv"
    _write_csv(twice, ["1,0,red,0.1,tri,1.0,7.0", "2,1,blue,0.5,box,2.0,9.0"],
               header="id,label,color,x1,shape,x2,x1")
    with pytest.raises(DataError, match=rf"^{re.escape(str(twice))}: the header names "
                                        r"columns \['x1'\] more than once$"):
        read_csv(twice, _schema(), "id", "label")
    # a repeated column that the run does not read is no fault
    unread = tmp_path / "unread.csv"
    _write_csv(unread, ["1,0,red,0.1,tri,1.0,a,b", "2,1,blue,0.5,box,2.0,c,d"],
               header="id,label,color,x1,shape,x2,note,note")
    assert read_csv(unread, _schema(), "id", "label")[0].num[:, 0].tolist() == [0.0, 1.0]


@pytest.mark.parametrize("raw", ["12345678901234567890", "-12345678901234567890"])
def test_an_id_outside_int64_is_a_data_error_naming_its_line(tmp_path, raw):
    path = tmp_path / "wide-id.csv"
    _write_csv(path, ["1,0,red,0.5,tri,1.0", f"{raw},1,blue,0.25,box,2.0"])
    with pytest.raises(DataError, match=rf":3: ID '{raw}' is not a 64-bit integer"):
        read_csv(path, _schema(), "id", "label")


@pytest.mark.parametrize("column, rows, message", [
    ("id", ["1,0,red,0.5,tri,1.0", "1,1,blue,0.25,box,2.0", "x,0,red,0.1,tri,3.0"],
     ":4: ID 'x' is not a 64-bit integer"),
    ("label", ["1,7,red,0.5,tri,1.0", "2,y,blue,0.25,box,2.0"],
     ":3: label 'y' is not a number"),
], ids=["id", "label"])
def test_within_a_column_an_unparsable_cell_is_reported_before_a_bad_value(
        tmp_path, column, rows, message):
    # the duplicate ID (line 3) and the label 7 (line 2) come first in the file
    path = tmp_path / f"{column}.csv"
    _write_csv(path, rows)
    with pytest.raises(DataError, match=message):
        read_csv(path, _schema(), "id", "label")


def test_load_csv_checks_declared_cardinality(tmp_path):
    p = tmp_path / "wide.csv"
    # shape declares cardinality 4 = 3 observed + unseen; give it 4 observed
    rows = [f"{i},0,red,0.1,s{i % 4},1.0" for i in range(8)]
    _write_csv(p, rows)
    with pytest.raises(DataError, match="shape"):
        read_csv(p, _schema(), "id", "label")


def test_csv_faults_are_reported_in_a_fixed_order(tmp_path):
    # IDs, then categorical vocabularies (training file only), then numbers,
    # then labels: a file with several faults names the earliest stage's
    good = tmp_path / "good.csv"
    _write_csv(good, _sample_rows())
    _, enc = read_csv(good, _schema(), "id", "label")
    rows = ["1,0,red,0.5,s1,1.0", "5,1,blue,0.1,s2,1.0", "6,0,red,0.3,s3,1.0"]
    faults = [  # (row, message, whether a fitted encoder also reports it)
        ("1,0,red,0.2,s1,2.0", "duplicate ID", True),
        ("4,0,red,0.2,s4,2.0", "observed 4 values", False),  # unseen maps to 0
        ("3,0,red,oops,s1,2.0", "'oops' is not a number", True),
        ("2,7,red,0.2,s1,2.0", "label must be 0 or 1", True),
    ]
    path = tmp_path / "faults.csv"
    for i, (_, message, also_transform) in enumerate(faults):
        _write_csv(path, rows + [row for row, _, _ in reversed(faults[i:])])
        with pytest.raises(DataError, match=message):
            read_csv(path, _schema(), "id", "label")
        if also_transform:
            with pytest.raises(DataError, match=message):
                read_csv(path, _schema(), "id", "label", enc)[0]


def test_a_number_range_past_the_largest_float_is_a_data_error_after_every_cell(tmp_path):
    # x1's max - min is 2e308: min-max scaled, the column read 0 and its maximum nan
    path = tmp_path / "wide.csv"
    rows = ["1,0,red,-1e308,tri,1.0", "2,1,blue,1e308,box,2.0"]
    _write_csv(path, rows)
    with pytest.raises(DataError, match=r"wide\.csv: field 'x1': range -1e\+308 to 1e\+308 "):
        read_csv(path, _schema(), "id", "label")
    _write_csv(path, rows + ["3,7,red,0.5,tri,3.0"])  # a bad cell is named before the range
    with pytest.raises(DataError, match=":4: label must be 0 or 1"):
        read_csv(path, _schema(), "id", "label")
    # a fitted encoder clamps such values like any other
    train = tmp_path / "train.csv"
    _write_csv(train, _sample_rows())
    _, enc = read_csv(train, _schema(), "id", "label")
    _write_csv(path, rows)
    assert read_csv(path, _schema(), "id", "label", enc)[0].num[:, 0].tolist() == [0.0, 1.0]


def test_transform_csv_maps_unseen_and_clamps(tmp_path):
    train = tmp_path / "train.csv"
    _write_csv(train, _sample_rows())
    _, enc = read_csv(train, _schema(), "id", "label")
    test = tmp_path / "test.csv"
    _write_csv(test, ["100,1,purple,99.0,tri,0.5"])
    table = read_csv(test, _schema(), "id", "label", enc)[0]
    assert table.cat[0, 0] == 0      # unseen color -> reserved bucket
    assert table.num[0, 0] == 1.0    # out-of-range clamps to the train max
    assert table.cat[0, 1] == enc.vocab["shape"]["tri"]


def test_transform_constant_column_maps_to_zero(tmp_path):
    train = tmp_path / "train.csv"
    _write_csv(train, [f"{i},0,red,3.5,tri,{i}" for i in range(6)])
    _, enc = read_csv(train, _schema(), "id", "label")
    test = tmp_path / "t.csv"
    _write_csv(test, ["50,1,red,7.0,tri,2.0"])
    table = read_csv(test, _schema(), "id", "label", enc)[0]
    assert table.num[0, 0] == 0.0


# ----------------------------------------------------------------- partition

def _assert_partitioned(ds, table):
    """The invariants of any partitioned dataset, CSV or synthetic: the pool
    is exactly the parties' ID intersection, every other row is private to
    one party, and the labels follow party 1's IDs."""
    pool = set(ds.aligned_pool.tolist())
    assert len(pool) == ds.aligned_pool.size
    ids = [set(view.ids.tolist()) for view in ds.parties.values()]
    assert set.intersection(*ids) == pool
    private = [local - pool for local in ids]
    assert sum(map(len, private)) == len(set.union(*private))
    assert set.union(*ids) <= set(table.ids.tolist())
    label_of = dict(zip(table.ids.tolist(), table.labels.tolist()))
    assert ds.labels.tolist() == [label_of[i] for i in ds.parties[1].ids.tolist()]


def test_vertical_partition_invariants(tmp_path):
    p = tmp_path / "train.csv"
    _write_csv(p, _sample_rows(30))
    table, _ = read_csv(p, _schema(), "id", "label")
    ds = vertical_partition(table, _schema(), k_parties=2, aligned_count=10,
                            order=stream(9, "partition").permutation(table.n))
    _assert_partitioned(ds, table)
    assert len(ds.aligned_pool) == 10
    ids1 = set(ds.parties[1].ids.tolist())
    ids2 = set(ds.parties[2].ids.tolist())
    assert ids1 | ids2 == set(table.ids.tolist())
    # labels follow party 1's rows
    batch = ds.gather(ds.aligned_ids(4))
    for i, sample_id in enumerate(batch.ids):
        row = int(np.where(table.ids == sample_id)[0][0])
        assert batch.labels[i] == table.labels[row]
        np.testing.assert_array_equal(batch.num[1][i, 0], table.num[row, 0])
        np.testing.assert_array_equal(batch.num[2][i, 0], table.num[row, 1])


@pytest.mark.parametrize("overrides", [
    {},
    dict(k_parties=2, num_fields_per_party=(2, 0), cat_fields_per_party=(0, 2),
         party_signal=(1.0, 0.8)),
], ids=["three-parties", "two-parties-one-without-numbers"])
def test_synth_bundles_keep_the_partition_invariants(monkeypatch, overrides):
    tables = []

    def partition(table, *args):
        tables.append(table)
        return vertical_partition(table, *args)

    monkeypatch.setattr(data, "vertical_partition", partition)
    cfg = tiny_synth_config(**overrides)
    ds = synth_generate(cfg, seed=5).train
    assert len(tables) == 1  # synthetic data goes through the one partition path
    _assert_partitioned(ds, tables[0])
    for view in ds.parties.values():
        assert view.n == cfg.n_local
        # each party scales by its own local rows, so every column spans [0, 1]
        np.testing.assert_array_equal(view.num.min(axis=0), np.zeros(view.num.shape[1]))
        np.testing.assert_array_equal(view.num.max(axis=0), np.ones(view.num.shape[1]))


# where the package may build a PartyView: the one partition path, and the
# cache reader that restores the views it built
PARTY_VIEW_BUILDERS = {("data.py", "vertical_partition"), ("data.py", "_bundle_from_cache")}


def test_party_views_are_built_only_by_the_partition_and_the_cache_reader():
    package = Path(vflhlp.__file__).parent
    found = set()
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).as_posix()
        tree = ast.parse(path.read_text(), str(path))
        parent = {child: node for node in ast.walk(tree)
                  for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) != "PartyView":
                continue
            scope = node
            while scope in parent and not isinstance(scope, ast.FunctionDef):
                scope = parent[scope]
            found.add((module, getattr(scope, "name", "<module>")))
    assert found == PARTY_VIEW_BUILDERS


def test_vertical_partition_labels_follow_ids_not_rows(tmp_path):
    p = tmp_path / "train.csv"
    _write_csv(p, _sample_rows(30)[::-1])  # IDs descend down the file
    table, _ = read_csv(p, _schema(), "id", "label")
    ds = vertical_partition(table, _schema(), k_parties=2, aligned_count=10,
                            order=stream(9, "partition").permutation(table.n))
    label_of = dict(zip(table.ids.tolist(), table.labels.tolist()))
    assert ds.labels.tolist() == [label_of[i] for i in ds.parties[1].ids.tolist()]


def test_vertical_partition_is_seeded(tmp_path):
    (tmp_path / "train.csv").write_text(CSV_ROWS)
    (tmp_path / "test.csv").write_text(CSV_ROWS)
    cfg = load_config(_csv_config(tmp_path))
    a, b, c = (build_bundle(cfg, seed).train for seed in (1, 1, 2))
    np.testing.assert_array_equal(a.aligned_pool, b.aligned_pool)
    assert not np.array_equal(a.aligned_pool, c.aligned_pool)


def test_vertical_partition_validates(tmp_path):
    p = tmp_path / "train.csv"
    _write_csv(p, _sample_rows(12))
    table, _ = read_csv(p, _schema(), "id", "label")
    order = stream(1, "partition").permutation(table.n)
    with pytest.raises(DataError):
        vertical_partition(table, _schema(), 2, 0, order)
    with pytest.raises(DataError):
        vertical_partition(table, _schema(), 2, 13, order)
    schema3 = FeatureSchema(_schema().fields + (
        Field("x3", "numerical", party=3),))
    with pytest.raises(ConfigError, match="party"):
        vertical_partition(table, schema3, 2, 4, order)


def test_split_from_table_keeps_all_rows(tmp_path):
    p = tmp_path / "eval.csv"
    _write_csv(p, _sample_rows(12))
    table, _ = read_csv(p, _schema(), "id", "label")
    split = split_from_table(table, _schema(), 2, np.arange(12))
    assert split.n == 12
    np.testing.assert_array_equal(split.cat[1][:, 0], table.cat[:, 0])
    np.testing.assert_array_equal(split.num[2][:, 0], table.num[:, 1])


# ----------------------------------------------------------------- cache

def test_bundle_cache_roundtrip(tmp_path, tiny_bundle):
    d = tmp_path / "cache"
    save_bundle(d, tiny_bundle, meta={"config_hash": "abc", "seed": 7})
    loaded, manifest = load_bundle(d)
    assert manifest["meta"] == {"config_hash": "abc", "seed": 7}
    assert manifest["k_parties"] == 3
    lt, ot = loaded.train, tiny_bundle.train
    assert manifest["aligned_count"] == ot.aligned_pool.size
    np.testing.assert_array_equal(lt.aligned_pool, ot.aligned_pool)
    np.testing.assert_array_equal(lt.labels, ot.labels)
    assert lt.schema == ot.schema
    for k in (1, 2, 3):
        np.testing.assert_array_equal(lt.parties[k].ids, ot.parties[k].ids)
        np.testing.assert_array_equal(lt.parties[k].cat, ot.parties[k].cat)
        np.testing.assert_array_equal(lt.parties[k].num, ot.parties[k].num)
    np.testing.assert_array_equal(loaded.test.labels, tiny_bundle.test.labels)
    np.testing.assert_array_equal(loaded.test.bayes_scores,
                                  tiny_bundle.test.bayes_scores)


def test_bundle_cache_is_byte_deterministic(tmp_path, tiny_bundle):
    d1, d2 = tmp_path / "c1", tmp_path / "c2"
    save_bundle(d1, tiny_bundle, meta={"seed": 7})
    save_bundle(d2, tiny_bundle, meta={"seed": 7})
    files1 = sorted(f.name for f in d1.iterdir())
    files2 = sorted(f.name for f in d2.iterdir())
    assert files1 == files2
    for name in files1:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def _rewrite_metadata(path, **changes) -> None:
    """Rewrite a cache's metadata; a None value deletes the key."""
    tensors, metadata = load_checkpoint(path)
    for key, value in changes.items():
        if value is None:
            del metadata[key]
        else:
            metadata[key] = value
    save_checkpoint(path, tensors, metadata)


def test_bundle_cache_rejects_unknown_format(tmp_path, tiny_bundle):
    d = tmp_path / "cache"
    save_bundle(d, tiny_bundle)
    _rewrite_metadata(d / "dataset.ckpt", format_version=99)
    with pytest.raises(DataError, match="dataset.ckpt"):
        load_bundle(d)
    with pytest.raises(DataError, match="dataset.ckpt"):
        load_bundle(tmp_path / "nowhere")


def test_bundle_cache_is_one_checkpoint_file(tmp_path, tiny_bundle):
    d = tmp_path / "cache"
    save_bundle(d, tiny_bundle, meta={"seed": 7})
    assert [f.name for f in d.iterdir()] == ["dataset.ckpt"]
    tensors, metadata = load_checkpoint(d / "dataset.ckpt")
    assert sorted(metadata) == ["aligned_count", "format_version", "k_parties", "meta",
                                "schema"]
    assert metadata["format_version"] == 2
    assert metadata["schema"][0] == {"name": "p1_c0", "kind": "categorical", "party": 1,
                                     "cardinality": 6}
    assert "party1_num" in tensors and "test_bayes" in tensors


def test_bundle_cache_corruption_is_a_data_error_naming_the_file(tmp_path, tiny_bundle):
    d = tmp_path / "cache"
    save_bundle(d, tiny_bundle)
    path = d / "dataset.ckpt"
    raw = path.read_bytes()
    text = json.dumps(load_checkpoint(path)[1])
    for cut in (len(raw) // 2, 40, 0):  # in the data, in the header, empty
        path.write_bytes(raw[:cut])
        with pytest.raises(DataError, match="dataset.ckpt"):
            load_bundle(d)
    path.unlink()
    with pytest.raises(DataError, match="dataset.ckpt"):
        load_bundle(d)

    deep = b"[" * 100_000  # deeper than the JSON decoder recurses
    for garbled in (text[: len(text) // 2].encode(), b"[1, 2]", b"\xff\xfe", deep):
        path.write_bytes(raw)
        splice_metadata(path, garbled)
        with pytest.raises(DataError, match="dataset.ckpt"):
            load_bundle(d)
    for key in ("schema", "k_parties", "aligned_count"):
        path.write_bytes(raw)
        _rewrite_metadata(path, **{key: None})
        with pytest.raises(DataError, match="dataset.ckpt"):
            load_bundle(d)
    path.write_bytes(raw)
    _rewrite_metadata(path, aligned_count=119)  # not the pool of 120
    with pytest.raises(DataError, match="dataset.ckpt.*aligned_count.*pool size 120"):
        load_bundle(d)
    path.write_bytes(raw)
    tensors, metadata = load_checkpoint(path)
    del tensors["labels"]
    save_checkpoint(path, tensors, metadata)
    with pytest.raises(DataError, match="dataset.ckpt.*labels"):
        load_bundle(d)
    path.write_bytes(raw)
    schema = metadata["schema"]
    schema[0]["kind"] = "ordinal"  # a ConfigError from Field
    _rewrite_metadata(path, schema=schema)
    with pytest.raises(DataError, match="dataset.ckpt"):
        load_bundle(d)


@pytest.mark.parametrize("tensor, edit, message", [
    ("labels", lambda a: np.where(np.arange(a.size) == 0, 2.0, a), "labels must be 0 or 1"),
    ("test_labels", lambda a: np.where(np.arange(a.size) == 0, 0.5, a),
     "labels must be 0 or 1"),
    ("test_ids", lambda a: a[:-1], r"test_labels has shape \(\d+,\), not"),
    ("test_party2_num", lambda a: a[:-1], "test_party2_num has shape"),
    ("test_party1_cat", lambda a: np.hstack([a, a]), "test_party1_cat has shape"),
], ids=["train-label", "test-label", "test-ids-short", "num-short", "cat-wide"])
def test_a_cache_with_bad_labels_or_a_misshapen_test_split_is_a_data_error(
        tmp_path, tiny_bundle, tensor, edit, message):
    d = tmp_path / "cache"
    save_bundle(d, tiny_bundle)
    path = d / "dataset.ckpt"
    tensors, metadata = load_checkpoint(path)
    tensors[tensor] = edit(tensors[tensor])
    save_checkpoint(path, tensors, metadata)
    with pytest.raises(DataError, match=rf"dataset.ckpt.*{message}"):
        load_bundle(d)


def test_a_cache_cut_at_any_offset_is_a_data_error(tmp_path):
    small = synth_generate(tiny_synth_config(
        n_local=12, aligned_pool=4, n_validation=2, n_test=4,
        num_fields_per_party=(1, 1, 1), cat_fields_per_party=(1, 0, 0)), seed=3)
    d = tmp_path / "cache"
    save_bundle(d, small, meta={"seed": 3})
    path = d / "dataset.ckpt"
    raw = path.read_bytes()
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(DataError, match="dataset.ckpt"):
            load_bundle(d)
    path.write_bytes(raw)
    np.testing.assert_array_equal(load_bundle(d)[0].train.labels, small.train.labels)


def test_schema_validation():
    with pytest.raises(ConfigError, match="duplicate"):
        FeatureSchema((Field("a", "numerical", 1), Field("a", "numerical", 2)))
    with pytest.raises(ConfigError):
        Field("a", "ordinal", 1)
    with pytest.raises(ConfigError):
        Field("a", "categorical", 1, cardinality=0)
    schema = FeatureSchema((Field("a", "numerical", 1),))
    with pytest.raises(ConfigError, match="without any fields"):
        schema.validate_parties(2)


def test_party_view_validates_sorted_unique_ids():
    f = (Field("x", "numerical", 1),)
    with pytest.raises(DataError):
        PartyView(party_id=1, ids=np.array([3, 1, 2], dtype=np.int64),
                  cat=np.zeros((3, 0), np.int64), num=np.zeros((3, 1)),
                  cat_fields=(), num_fields=f)
    with pytest.raises(DataError):
        PartyView(party_id=1, ids=np.array([1, 1, 2], dtype=np.int64),
                  cat=np.zeros((3, 0), np.int64), num=np.zeros((3, 1)),
                  cat_fields=(), num_fields=f)
