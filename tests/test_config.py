"""Config parsing: strictness, presets, canonical form, hashing."""
import copy
import dataclasses
import json
import math
import os
import re
import resource
import subprocess
import sys
import types
import typing

import pytest

from vflhlp.config import (
    CsvDataConfig,
    DataConfig,
    GridConfig,
    ModelConfig,
    RunConfig,
    canonical_json,
    config_hash,
    deep_merge,
    encoder_specs,
    load_config,
    parse_config,
    preset,
    to_dict,
)
from vflhlp.data import Field, synth_generate
from vflhlp.errors import ConfigError

from conftest import PINNED_CSV_CONFIG, tiny_synth_config

PRESETS = ("fixture", "avazu-like", "criteo-like")


def fixture_cfg(**top_level_overrides):
    raw = {"preset": "fixture", **top_level_overrides}
    return parse_config(raw)


# ------------------------------------------------------------------ parsing


@pytest.mark.parametrize("name", PRESETS)
def test_presets_parse_and_round_trip(name):
    cfg = parse_config({"preset": name})
    again = parse_config(to_dict(cfg))
    assert again == cfg


def test_round_trip_survives_json_serialization():
    cfg = fixture_cfg()
    again = parse_config(json.loads(canonical_json(cfg)))
    assert again == cfg


def test_unknown_preset_is_an_error():
    with pytest.raises(ConfigError, match="unknown preset"):
        preset("fixtures")


def test_preset_override_merges_deeply():
    cfg = fixture_cfg(downstream={"beta": 1.5})
    base = parse_config({"preset": "fixture"})
    assert cfg.downstream.beta == 1.5
    # untouched siblings keep their preset values
    assert cfg.downstream.eta1 == base.downstream.eta1
    assert cfg.downstream.optimizer == base.downstream.optimizer
    assert cfg.data == base.data


def test_deep_merge_replaces_non_dict_values():
    out = deep_merge({"a": {"b": 1, "c": 2}, "d": [1]}, {"a": {"b": 9}, "d": [2]})
    assert out == {"a": {"b": 9, "c": 2}, "d": [2]}


@pytest.mark.parametrize(
    "raw, fragment",
    [
        ({"bogus": 1}, "unknown top-level keys"),
        ({}, "needs a data section"),
        ({"data": {"kind": "synth"}, "model": {"width": 3}}, "unknown keys"),
        ({"data": {"kind": "synth"}, "output_dir": 7}, "output_dir"),
        ({"data": {"kind": "maria-db"}}, "must be 'synth' or 'csv'"),
        ({"data": {"kind": "csv"}}, "no csv section"),
        ({"data": {"kind": "synth", "extra": {}}}, "unknown keys"),
        ({"data": {"kind": "synth"}, "downstream": {"seed": 3}}, "unknown keys"),
        ({"data": {"kind": "synth"}, "grid": {"modes": []}}, "grid needs"),
        ({"data": {"kind": "synth"}, "downstream": {"beta": -1.0}},
         "downstream: beta must be >= 0, got -1.0"),
        ({"data": {"kind": "synth"}, "grid": {"beta_sweep": [-0.5, 0.1]}},
         r"grid: beta_sweep values must be >= 0, got \[-0.5, 0.1\]"),
        ({"data": {"kind": "synth"}, "grid": {"beta_sweep": [0.5, 1.0, 1.0000001]}},
         r"grid beta_sweep values 1\.0 and 1\.0000001 both print as 1,"),
    ],
)
def test_strict_parsing_rejects(raw, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(raw)


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        ({"downstream": {"epochs": "ten"}}, "downstream.epochs: expected int, got str"),
        ({"downstream": {"epochs": 2.0}}, "downstream.epochs: expected int"),
        ({"supervised": {"batch_size": True}}, "supervised.batch_size: expected int"),
        ({"ssl": {"temperature": False}}, "ssl.temperature: expected float"),
        ({"grid": {"include_oracle": 1}}, "grid.include_oracle: expected bool"),
        ({"grid": {"seeds": 3}}, "grid.seeds: expected tuple"),
        ({"data": {"synth": {"cardinality": "8"}}}, "data.synth.cardinality"),
        ({"supervised": {"optimizer": "rmsprop"}}, "supervised.optimizer: unknown"),
        ({"ssl": {"optimizer": "momentum"}}, "ssl.optimizer: unknown"),
        ({"downstream": {"optimizer": 3}}, "downstream.optimizer: expected str"),
    ],
    ids=["str-for-int", "float-for-int", "bool-for-int", "bool-for-float",
         "int-for-bool", "int-for-tuple", "str-for-int-in-synth",
         "unknown-sup-optimizer", "unknown-ssl-optimizer", "int-for-str"],
)
def test_values_must_have_the_type_of_the_default(overrides, fragment):
    with pytest.raises(ConfigError, match=fragment):
        fixture_cfg(**overrides)


def test_an_int_passes_for_a_float_and_is_kept_as_given():
    cfg = fixture_cfg(downstream={"beta": 10, "eta1": 1})
    assert cfg.downstream.beta == 10 and type(cfg.downstream.beta) is int
    # not coerced, so the hash of an existing config does not move
    assert '"beta":10,' in canonical_json(cfg)
    assert config_hash(cfg) != config_hash(fixture_cfg(downstream={"beta": 10.0, "eta1": 1}))


def test_non_dict_config_rejected():
    with pytest.raises(ConfigError, match="JSON object"):
        parse_config(["not", "a", "dict"])


def test_csv_fields_parse_and_validate():
    raw = {
        "data": {
            "kind": "csv",
            "csv": {
                "train_path": "train.csv",
                "test_path": "test.csv",
                "k_parties": 2,
                "fields": [
                    {"name": "a", "kind": "numerical", "party": 1},
                    {"name": "b", "kind": "categorical", "party": 2, "cardinality": 4},
                ],
            },
        },
        "grid": {"aligned_counts": [20, 60]},
    }
    cfg = parse_config(raw)
    assert cfg.data.kind == "csv"
    assert cfg.data.csv.k_parties == 2
    assert cfg.data.csv.fields[1].cardinality == 4
    assert parse_config(to_dict(cfg)) == cfg


@pytest.mark.parametrize(
    "fields, fragment",
    [
        ([{"name": "a", "kind": "numerical", "party": 1, "rate": 2}], "unknown keys"),
        ([{"name": "a", "party": 1}], "missing key"),
        ("a,b", "data.csv.fields: expected tuple"),
        ([["a"]], "data.csv.fields[0]: expected an object"),
    ],
)
def test_csv_field_list_is_strict(fields, fragment):
    raw = {
        "data": {
            "kind": "csv",
            "csv": {"train_path": "t.csv", "test_path": "e.csv", "fields": fields},
        }
    }
    with pytest.raises(ConfigError, match=re.escape(fragment)):
        parse_config(raw)


def _csv_config(fields=None, **csv):
    fields = fields or [
        {"name": "a", "kind": "numerical", "party": 1},
        {"name": "b", "kind": "categorical", "party": 2, "cardinality": 4},
    ]
    return {
        "data": {
            "kind": "csv",
            "csv": {"train_path": "t.csv", "test_path": "e.csv", "k_parties": 2,
                    "fields": fields, **csv},
        },
        "grid": {"aligned_counts": [20]},
    }


def _with_field(key, value):
    fields = _csv_config()["data"]["csv"]["fields"]
    fields[1][key] = value
    return _csv_config(fields)


@pytest.mark.parametrize("raw, fragment", [
    ({"preset": [1]}, "unknown preset"),
    ({"preset": {"name": "fixture"}}, "unknown preset"),
    ({"data": {"kind": "csv", "csv": 1}}, "data.csv: expected an object, got int"),
    ({"data": {"kind": "csv", "csv": "x"}}, "data.csv: expected an object, got str"),
    ({"data": {"kind": "csv", "csv": [["k_parties", 2]]}}, "expected an object, got list"),
    (_with_field("cardinality", "4"), r"fields\[1\]\.cardinality: expected int"),
    (_with_field("cardinality", 4.5), r"fields\[1\]\.cardinality: expected int"),
    (_with_field("cardinality", None), r"fields\[1\]\.cardinality: expected int"),
    (_with_field("party", "2"), r"fields\[1\]\.party: expected int"),
    (_with_field("party", True), r"fields\[1\]\.party: expected int"),
    (_with_field("name", ["b"]), r"fields\[1\]\.name: expected str"),
    (_with_field("kind", 1), r"fields\[1\]\.kind: expected str"),
], ids=["preset-list", "preset-object", "csv-int", "csv-str", "csv-pairs",
        "cardinality-str", "cardinality-float", "cardinality-null", "party-str",
        "party-bool", "name-list", "kind-int"])
def test_wrong_typed_structure_is_a_config_error(raw, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(raw)


def test_a_field_of_the_right_types_still_parses():
    assert parse_config(_csv_config()).data.csv.fields[1].cardinality == 4


def _unwrapped(hint):
    """X for a field of type X, `X | None` or `tuple[X, ...]`."""
    if isinstance(hint, types.UnionType) or typing.get_origin(hint) is tuple:
        return _unwrapped(typing.get_args(hint)[0])
    return hint


def _parsed(hint) -> bool:
    """Whether the parser checks a field of type `hint`: str, int, float, bool,
    tuple[T, ...], a config dataclass, or X | None, of any of those."""
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):
        return len(args) == 2 and args[1] is type(None) and _parsed(args[0])
    if typing.get_origin(hint) is tuple:
        return len(args) == 2 and args[1] is Ellipsis and _parsed(args[0])
    return hint in (str, int, float, bool) or dataclasses.is_dataclass(hint)


def _sections(cls, prefix=""):
    """(dotted path, dataclass) of each section under `cls`; a tuple's item is
    walked as its first, `fields[0]`."""
    for name, hint in typing.get_type_hints(cls).items():
        section = _unwrapped(hint)
        if dataclasses.is_dataclass(section):
            path = prefix + name + ("[0]" if typing.get_origin(hint) is tuple else "")
            yield path, section
            yield from _sections(section, path + ".")


SECTIONS = dict(_sections(RunConfig))


def _bad_section_cases():
    for path, cls in SECTIONS.items():
        yield f"{path}-not-an-object", path, lambda section: [], f"{path}: expected an object"
        yield (f"{path}-unknown-key", path, lambda section: {**section, "bogus": 1},
               f"{path}: unknown keys ['bogus']")
        hints = typing.get_type_hints(cls)
        for field in dataclasses.fields(cls):
            name = field.name
            wrong = 7 if hints[name] is str else "x"  # a JSON type no other hint takes
            yield (f"{path}.{name}-wrong-type", path,
                   lambda section, name=name, wrong=wrong: {**section, name: wrong},
                   f"{path}.{name}: expected ")
            if _unwrapped(hints[name]) is float:
                item = "[0]" if typing.get_origin(hints[name]) is tuple else ""
                for label, bad in (("nan", math.nan), ("inf", math.inf), ("huge", 10**400)):
                    value = [bad] if item else bad
                    yield (f"{path}.{name}-{label}", path,
                           lambda section, name=name, value=value: {**section, name: value},
                           f"{path}.{name}{item}: expected a finite float, got ")
            if field.default is dataclasses.MISSING:
                yield (f"{path}.{name}-missing", path,
                       lambda section, name=name: {k: v for k, v in section.items()
                                                   if k != name},
                       f"{path}: missing keys ['{name}']")


BAD_SECTIONS = list(_bad_section_cases())


def test_the_walk_reaches_every_section():
    assert list(SECTIONS) == ["data", "data.synth", "data.csv", "data.csv.fields[0]",
                              "model", "ssl", "supervised", "downstream", "grid"]


def test_every_field_has_a_type_the_parser_checks():
    unparsed = [f"{path}.{name}: {hint}"
                for path, cls in [("<top>", RunConfig), *SECTIONS.items()]
                for name, hint in typing.get_type_hints(cls).items() if not _parsed(hint)]
    assert unparsed == []


@pytest.mark.parametrize("path, damage, prefix", [case[1:] for case in BAD_SECTIONS],
                         ids=[case[0] for case in BAD_SECTIONS])
def test_every_section_is_parsed_strictly(path, damage, prefix):
    # the pinned CSV config merged over the fixture preset holds every section
    raw = deep_merge(preset("fixture"), copy.deepcopy(PINNED_CSV_CONFIG))
    del raw["preset"]
    parse_config(raw)  # parses undamaged
    keys = [int(k) if k.isdigit() else k for k in path.replace("[0]", ".0").split(".")]
    parent = raw
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = damage(parent[keys[-1]])
    with pytest.raises(ConfigError) as caught:
        parse_config(raw)
    assert str(caught.value).startswith(prefix)


def _cap_memory():
    cap = 2 << 30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def test_a_huge_k_parties_is_a_config_error_within_a_second():
    # in a child process capped at 2 GiB of address space, so that code which
    # builds a set over range(1, K + 1) fails there instead of filling memory
    code = (
        "import json, sys, time\n"
        "from vflhlp.config import parse_config\n"
        "from vflhlp.errors import ConfigError\n"
        "raw = json.loads(sys.argv[1])\n"
        "start = time.perf_counter()\n"
        "try:\n"
        "    parse_config(raw)\n"
        "except ConfigError as exc:\n"
        "    print(time.perf_counter() - start, exc, sep='\\n')\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
           "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(_csv_config(k_parties=10**30))],
        capture_output=True, text=True, timeout=120, env=env, preexec_fn=_cap_memory,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    seconds, message = proc.stdout.splitlines()
    assert float(seconds) < 1.0
    assert message.startswith("data.csv: parties without any fields: [3, 4, 5, 6, 7] and ")
    assert message.endswith(f" and {10**30 - 7} more")


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"preset": "fixture"}))
    assert load_config(path) == fixture_cfg()
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{preset: fixture}")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(bad)


# ------------------------------------------------------------------ sections


def test_model_config_validation():
    with pytest.raises(ConfigError, match="at least one width"):
        ModelConfig(encoder_hidden=())
    with pytest.raises(ConfigError, match="positive"):
        ModelConfig(encoder_hidden=(8, 0))
    with pytest.raises(ConfigError, match="embed_dim"):
        ModelConfig(embed_dim=0)


def test_grid_config_validation():
    with pytest.raises(ConfigError, match="unknown mode"):
        GridConfig(modes=("vflhlp", "vfl_hlp"))
    with pytest.raises(ConfigError, match="duplicates"):
        GridConfig(modes=("vflhlp", "vflhlp"))
    with pytest.raises(ConfigError, match="positive"):
        GridConfig(aligned_counts=(0, 50))
    with pytest.raises(ConfigError, match="duplicates"):
        GridConfig(seeds=(1, 1))
    # a repeated count or beta would run each of its cells twice and count both
    with pytest.raises(ConfigError, match="aligned_counts contain duplicates"):
        GridConfig(aligned_counts=(20, 20))
    with pytest.raises(ConfigError, match="beta_sweep contain duplicates"):
        GridConfig(beta_sweep=(0.1, 1.0, 0.1))
    with pytest.raises(ConfigError, match="non-negative"):
        GridConfig(seeds=(-1,))


def test_csv_data_config_validation():
    field = Field(name="a", kind="numerical", party=1)
    with pytest.raises(ConfigError, match="train_path and test_path"):
        CsvDataConfig(train_path="", test_path="t.csv", fields=(field,))
    with pytest.raises(ConfigError, match="fields list"):
        CsvDataConfig(train_path="a.csv", test_path="t.csv", fields=())
    with pytest.raises(ConfigError, match="without any fields"):
        CsvDataConfig(
            train_path="a.csv", test_path="t.csv", k_parties=2, fields=(field,)
        )
    # a field named as the ID or label column would read that column as a feature
    for name, role in (("id", "id_column"), ("label", "label_column")):
        with pytest.raises(ConfigError, match=f"^field '{name}' is also the {role}$"):
            CsvDataConfig(train_path="a.csv", test_path="t.csv", k_parties=1,
                          fields=(Field(name=name, kind="numerical", party=1),))


def test_synth_defaults_fill_in():
    assert DataConfig(kind="synth").synth is not None


def test_aligned_counts_must_fit_the_pool():
    with pytest.raises(ConfigError, match="exceed the aligned pool"):
        fixture_cfg(grid={"aligned_counts": [50, 2000]})


# ------------------------------------------------------------------ hashing


def test_canonical_json_is_stable_and_sorted():
    cfg = fixture_cfg()
    text = canonical_json(cfg)
    assert text == canonical_json(fixture_cfg())
    parsed = json.loads(text)
    assert list(parsed) == sorted(parsed)
    assert " " not in text.split('"output_dir"')[0][:40]  # compact separators


def test_config_hash_tracks_content():
    base = fixture_cfg()
    assert len(config_hash(base)) == 64
    assert config_hash(base) == config_hash(fixture_cfg())
    changed = fixture_cfg(downstream={"beta": 9.5})
    assert config_hash(changed) != config_hash(base)
    # where the outputs go is not what computes them
    moved = dataclasses.replace(base, output_dir="elsewhere")
    assert canonical_json(moved) != canonical_json(base)
    assert config_hash(moved) == config_hash(base)


# the hash stamps each checkpoint, result.json and results.json, so a change
# to its canonical form changes those outputs; nothing reads the stamp back,
# and dataset caches are keyed by data_hash instead
PINNED_HASHES = {
    "fixture": "2dabd57fd60e950e6af30f98b4baf5634568435279f7d527555ab5f5b331cfdb",
    "avazu-like": "b5796bf4be1ff6ff02560a510edc09af067361e407710b5645a1074f15e4e1ec",
    "criteo-like": "3ad2fe9749609eb752aa7442a06076616ad33d5c870ce56bbe3c2ae0d2824a1e",
    "csv": "b47f3cb9015903fcc2eb4d7c61c75e24ce60c97c83ddf8705a5c8beed8ea7498",
}


@pytest.mark.parametrize("name", sorted(PINNED_HASHES))
def test_config_hashes_are_pinned(name):
    raw = PINNED_CSV_CONFIG if name == "csv" else {"preset": name}
    assert config_hash(parse_config(raw)) == PINNED_HASHES[name]


# ------------------------------------------------------------------ fixture pins

# The acceptance suite depends on these exact values; a drive-by "tuning"
# change should fail loudly here first.


def test_fixture_preset_pins_the_benchmark():
    cfg = fixture_cfg()
    synth = cfg.data.synth
    assert synth.k_parties == 3
    assert synth.n_local == 5000
    assert synth.aligned_pool == 800
    assert synth.num_fields_per_party == (1, 8, 8)
    assert synth.cat_fields_per_party == (3, 0, 0)
    assert synth.cardinality == 80
    assert synth.party_signal == (1.0, 0.6, 0.6)
    assert cfg.model.embed_dim == 4
    assert cfg.model.encoder_hidden == (16, 8)
    assert cfg.downstream.optimizer == "sgd"
    assert cfg.downstream.beta == 10.0
    assert cfg.downstream.eta1 == 0.1
    assert cfg.downstream.eta2 == 1e-3
    assert cfg.downstream.epochs == 120
    assert cfg.downstream.batch_size == 8
    assert cfg.downstream.warm_start_active is False
    assert cfg.grid.aligned_counts == (50, 100, 200, 400, 800)
    assert cfg.grid.seeds == (1, 2, 3, 4, 5)


def test_other_presets_change_geometry_not_plumbing():
    avazu = parse_config({"preset": "avazu-like"})
    criteo = parse_config({"preset": "criteo-like"})
    assert avazu.data.synth.num_fields_per_party == (0, 0, 0)
    assert criteo.data.synth.k_parties == 2
    assert criteo.data.synth.num_fields_per_party == (13, 0)
    assert criteo.data.synth.cat_fields_per_party == (0, 26)
    assert {avazu.output_dir, criteo.output_dir, fixture_cfg().output_dir} == {
        "runs/avazu-like",
        "runs/criteo-like",
        "runs/fixture",
    }


# ------------------------------------------------------------------ glue


def test_encoder_specs_mirror_party_schemas():
    ds = synth_generate(tiny_synth_config(), seed=3).train
    specs = encoder_specs(ds, ModelConfig(embed_dim=4, encoder_hidden=(8, 4)))
    assert sorted(specs) == sorted(ds.parties)
    for k, view in ds.parties.items():
        spec = specs[k]
        assert spec.num_fields == view.num.shape[1]
        assert [name for name, _ in spec.cat_fields] == [
            f.name for f in view.cat_fields
        ]
        assert all(card == f.cardinality
                   for (_, card), f in zip(spec.cat_fields, view.cat_fields))
        assert spec.embed_dim == 4
        assert spec.hidden == (8, 4)
        assert spec.rep_dim == 4
