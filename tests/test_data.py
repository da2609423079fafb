"""Data layer tests: synthetic generator, CSV ingestion, partitioning, cache."""
import json

import numpy as np
import pytest

from vflhlp.data import (
    Field,
    FeatureSchema,
    PartyView,
    load_bundle,
    load_csv,
    sample_aligned_batches,
    save_bundle,
    split_from_table,
    synth_generate,
    transform_csv,
    vertical_partition,
)
from vflhlp.errors import ConfigError, DataError
from vflhlp.metrics import auc

from conftest import tiny_synth_config


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
    pools = [set(train.unaligned_ids(k).tolist()) for k in (1, 2, 3)]
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
    small = train.with_aligned_count(30)
    large = train.with_aligned_count(90)
    np.testing.assert_array_equal(small.aligned_ids(), large.aligned_ids()[:30])
    np.testing.assert_array_equal(large.aligned_ids(), train.aligned_pool[:90])
    with pytest.raises(DataError):
        train.with_aligned_count(train.aligned_pool.shape[0] + 1)


def test_synth_is_deterministic():
    cfg = tiny_synth_config()
    a = synth_generate(cfg, seed=3)
    b = synth_generate(cfg, seed=3)
    c = synth_generate(cfg, seed=4)
    np.testing.assert_array_equal(a.train.parties[2].num, b.train.parties[2].num)
    np.testing.assert_array_equal(a.train.aligned_pool, b.train.aligned_pool)
    np.testing.assert_array_equal(a.test.labels, b.test.labels)
    assert not np.array_equal(a.test.labels, c.test.labels)


def test_synth_oracle_scores_match_logit_parts(tiny_bundle):
    parts = tiny_bundle.test_logit_parts
    total = sum(parts[k] for k in parts)
    scores = 1.0 / (1.0 + np.exp(-total))
    np.testing.assert_allclose(scores, tiny_bundle.test.bayes_scores, atol=1e-12)


def test_synth_label_noise_extremes():
    noisy = synth_generate(tiny_synth_config(label_noise=1e9, n_test=2000), seed=1)
    assert abs(auc(noisy.test.labels.astype(int), noisy.test.bayes_scores) - 0.5) < 0.06
    clean = synth_generate(tiny_synth_config(label_noise=0.2, n_test=2000), seed=1)
    assert auc(clean.test.labels.astype(int), clean.test.bayes_scores) > 0.9


def test_synth_gather_preserves_requested_order(tiny_bundle):
    train = tiny_bundle.train
    ids = train.aligned_ids()[:8][::-1].copy()
    batch = train.gather(ids)
    np.testing.assert_array_equal(batch.ids, ids)
    np.testing.assert_array_equal(batch.labels, train.labels_for(ids))
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

def test_sample_aligned_batches_cover_each_row_once(tiny_bundle):
    train = tiny_bundle.train.with_aligned_count(50)
    batches = sample_aligned_batches(train, batch_size=16, seed=5, epoch=2)
    sizes = [b.n for b in batches]
    assert sizes == [16, 16, 16, 2]
    seen = np.concatenate([b.ids for b in batches])
    assert sorted(seen.tolist()) == sorted(train.aligned_ids().tolist())


def test_sample_aligned_batches_depend_on_epoch_not_call_order(tiny_bundle):
    train = tiny_bundle.train.with_aligned_count(50)
    a = sample_aligned_batches(train, 16, seed=5, epoch=1)
    b = sample_aligned_batches(train, 16, seed=5, epoch=1)
    c = sample_aligned_batches(train, 16, seed=5, epoch=2)
    np.testing.assert_array_equal(a[0].ids, b[0].ids)
    assert not np.array_equal(a[0].ids, c[0].ids)


def test_sample_aligned_batches_rejects_bad_input(tiny_bundle):
    with pytest.raises(ConfigError):
        sample_aligned_batches(tiny_bundle.train, 0, seed=1, epoch=0)
    empty = tiny_bundle.train.with_aligned_count(0)
    with pytest.raises(DataError):
        sample_aligned_batches(empty, 8, seed=1, epoch=0)


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
    table, enc = load_csv(p, _schema(), id_column="id", label_column="label")
    assert table.n == 24
    # vocab in sorted value order starting at 1
    assert enc.vocab["color"] == {"blue": 1, "green": 2, "red": 3}
    assert enc.vocab["shape"] == {"box": 1, "tri": 2}
    # min-max scaling to [0, 1]
    assert table.num[:, 0].min() == 0.0 and table.num[:, 0].max() == 1.0
    np.testing.assert_array_equal(np.unique(table.labels), [0.0, 1.0])
    assert enc.cardinality("color") == 4


def test_load_csv_error_messages_carry_line_numbers(tmp_path):
    good = tmp_path / "good.csv"
    _write_csv(good, _sample_rows())
    _, enc = load_csv(good, _schema(), "id", "label")
    dup = tmp_path / "dup.csv"
    _write_csv(dup, ["1,0,red,0.5,tri,1.0", "1,1,blue,0.25,box,2.0"])
    with pytest.raises(DataError, match=r":3: duplicate"):
        load_csv(dup, _schema(), "id", "label")

    bad_num = tmp_path / "badnum.csv"
    _write_csv(bad_num, ["1,0,red,0.5,tri,1.0", "2,1,blue,oops,box,2.0"])
    with pytest.raises(DataError, match=r":3:.*x1"):
        load_csv(bad_num, _schema(), "id", "label")

    for raw in ("nan", "inf", "-Infinity"):
        non_finite = tmp_path / "nonfinite.csv"
        _write_csv(non_finite, ["1,0,red,0.5,tri,1.0", f"2,1,blue,{raw},box,2.0"])
        with pytest.raises(DataError, match=r":3:.*x1.*not a finite number"):
            load_csv(non_finite, _schema(), "id", "label")
        with pytest.raises(DataError, match=r":3:.*x1.*not a finite number"):
            transform_csv(non_finite, _schema(), enc, "id", "label")

    bad_label = tmp_path / "badlabel.csv"
    _write_csv(bad_label, ["1,0,red,0.5,tri,1.0", "2,7,blue,0.2,box,2.0"])
    with pytest.raises(DataError, match=r":3:"):
        load_csv(bad_label, _schema(), "id", "label")

    missing = tmp_path / "missing.csv"
    missing.write_text("id,label,color,x1,x2\n1,0,red,0.5,1.0\n")
    with pytest.raises(DataError, match="shape"):
        load_csv(missing, _schema(), "id", "label")


def test_load_csv_checks_declared_cardinality(tmp_path):
    p = tmp_path / "wide.csv"
    # shape declares cardinality 4 = 3 observed + unseen; give it 4 observed
    rows = [f"{i},0,red,0.1,s{i % 4},1.0" for i in range(8)]
    _write_csv(p, rows)
    with pytest.raises(DataError, match="shape"):
        load_csv(p, _schema(), "id", "label")


def test_transform_csv_maps_unseen_and_clamps(tmp_path):
    train = tmp_path / "train.csv"
    _write_csv(train, _sample_rows())
    _, enc = load_csv(train, _schema(), "id", "label")
    test = tmp_path / "test.csv"
    _write_csv(test, ["100,1,purple,99.0,tri,0.5"])
    table = transform_csv(test, _schema(), enc, "id", "label")
    assert table.cat[0, 0] == 0      # unseen color -> reserved bucket
    assert table.num[0, 0] == 1.0    # out-of-range clamps to the train max
    assert table.cat[0, 1] == enc.vocab["shape"]["tri"]


def test_transform_constant_column_maps_to_zero(tmp_path):
    train = tmp_path / "train.csv"
    _write_csv(train, [f"{i},0,red,3.5,tri,{i}" for i in range(6)])
    _, enc = load_csv(train, _schema(), "id", "label")
    test = tmp_path / "t.csv"
    _write_csv(test, ["50,1,red,7.0,tri,2.0"])
    table = transform_csv(test, _schema(), enc, "id", "label")
    assert table.num[0, 0] == 0.0


# ----------------------------------------------------------------- partition

def test_vertical_partition_invariants(tmp_path):
    p = tmp_path / "train.csv"
    _write_csv(p, _sample_rows(30))
    table, _ = load_csv(p, _schema(), "id", "label")
    ds = vertical_partition(table, _schema(), k_parties=2, aligned_count=10, seed=9)
    pool = set(ds.aligned_pool.tolist())
    assert len(pool) == 10
    ids1 = set(ds.parties[1].ids.tolist())
    ids2 = set(ds.parties[2].ids.tolist())
    assert ids1 & ids2 == pool
    assert ids1 | ids2 == set(table.ids.tolist())
    # labels follow party 1's rows
    batch = ds.gather(ds.aligned_ids()[:4])
    for i, sample_id in enumerate(batch.ids):
        row = int(np.where(table.ids == sample_id)[0][0])
        assert batch.labels[i] == table.labels[row]
        np.testing.assert_array_equal(batch.num[1][i, 0], table.num[row, 0])
        np.testing.assert_array_equal(batch.num[2][i, 0], table.num[row, 1])


def test_vertical_partition_is_seeded(tmp_path):
    p = tmp_path / "train.csv"
    _write_csv(p, _sample_rows(30))
    table, _ = load_csv(p, _schema(), "id", "label")
    a = vertical_partition(table, _schema(), 2, 10, seed=1)
    b = vertical_partition(table, _schema(), 2, 10, seed=1)
    c = vertical_partition(table, _schema(), 2, 10, seed=2)
    np.testing.assert_array_equal(a.aligned_pool, b.aligned_pool)
    assert not np.array_equal(a.aligned_pool, c.aligned_pool)


def test_vertical_partition_validates(tmp_path):
    p = tmp_path / "train.csv"
    _write_csv(p, _sample_rows(12))
    table, _ = load_csv(p, _schema(), "id", "label")
    with pytest.raises(DataError):
        vertical_partition(table, _schema(), 2, 0, seed=1)
    with pytest.raises(DataError):
        vertical_partition(table, _schema(), 2, 13, seed=1)
    schema3 = FeatureSchema(_schema().fields + (
        Field("x3", "numerical", party=3),))
    with pytest.raises(ConfigError, match="party"):
        vertical_partition(table, schema3, 2, 4, seed=1)


def test_split_from_table_keeps_all_rows(tmp_path):
    p = tmp_path / "eval.csv"
    _write_csv(p, _sample_rows(12))
    table, _ = load_csv(p, _schema(), "id", "label")
    split = split_from_table(table, _schema(), 2)
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
    assert lt.aligned_count == ot.aligned_count
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
    np.testing.assert_array_equal(loaded.validation.num[2],
                                  tiny_bundle.validation.num[2])
    for k in (1, 2, 3):
        np.testing.assert_array_equal(loaded.test_logit_parts[k],
                                      tiny_bundle.test_logit_parts[k])


def test_bundle_cache_is_byte_deterministic(tmp_path, tiny_bundle):
    d1, d2 = tmp_path / "c1", tmp_path / "c2"
    save_bundle(d1, tiny_bundle, meta={"seed": 7})
    save_bundle(d2, tiny_bundle, meta={"seed": 7})
    files1 = sorted(f.name for f in d1.iterdir())
    files2 = sorted(f.name for f in d2.iterdir())
    assert files1 == files2
    for name in files1:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_bundle_cache_rejects_unknown_format(tmp_path, tiny_bundle):
    d = tmp_path / "cache"
    save_bundle(d, tiny_bundle)
    manifest = json.loads((d / "manifest.json").read_text())
    manifest["format_version"] = 99
    (d / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DataError):
        load_bundle(d)
    with pytest.raises(DataError):
        load_bundle(tmp_path / "nowhere")


def test_bundle_cache_corruption_is_a_data_error_naming_the_file(tmp_path, tiny_bundle):
    d = tmp_path / "cache"
    save_bundle(d, tiny_bundle)
    num = d / "party1_num.npy"
    raw = num.read_bytes()
    for cut in (len(raw) // 2, 40, 0):  # in the data, in the header, empty
        num.write_bytes(raw[:cut])
        with pytest.raises(DataError, match="party1_num.npy"):
            load_bundle(d)
    num.unlink()
    with pytest.raises(DataError, match="party1_num.npy"):
        load_bundle(d)
    num.write_bytes(raw)

    manifest_path = d / "manifest.json"
    text = manifest_path.read_text()
    for garbled in (text[: len(text) // 2], "[1, 2]", "\xff\xfe"):
        manifest_path.write_text(garbled)
        with pytest.raises(DataError, match="manifest.json"):
            load_bundle(d)
    for key in ("arrays", "schema", "k_parties", "aligned_count", "has_oracle"):
        manifest = json.loads(text)
        del manifest[key]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="manifest.json"):
            load_bundle(d)
    manifest = json.loads(text)
    manifest["arrays"].remove("labels")
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(DataError, match="labels"):
        load_bundle(d)
    manifest["schema"][0]["kind"] = "ordinal"  # a ConfigError from Field
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(DataError, match="manifest.json"):
        load_bundle(d)


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
