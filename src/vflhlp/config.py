"""Declarative run configuration.

One JSON file drives every stage. A file may name a preset and override
any subset of keys; parsing is strict, unknown keys are errors. The config
hash, the sha256 of the canonical serialized form without `output_dir`,
stamps each checkpoint and result file with what computed it; a dataset
cache is keyed by the hash of the `data` section.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import types
import typing
from dataclasses import dataclass

from .data import (
    CATEGORICAL, Field, FeatureSchema, SynthConfig, VerticalDataset, read_json_object,
)
from .errors import ConfigError
from .federated import DownstreamConfig, TrainMode
from .nn.layers import EncoderSpec
from .nn.optim import OPTIMIZERS
from .ssl_pretrain import SslConfig
from .sup_pretrain import SupConfig


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int = 8
    encoder_hidden: tuple[int, ...] = (64, 64, 16)

    def __post_init__(self):
        if not self.encoder_hidden:
            raise ConfigError("encoder_hidden must list at least one width")
        if any(w < 1 for w in self.encoder_hidden):
            raise ConfigError("encoder widths must be positive")
        if self.embed_dim < 1:
            raise ConfigError("embed_dim must be >= 1")


@dataclass(frozen=True)
class CsvDataConfig:
    train_path: str = ""
    test_path: str = ""
    id_column: str = "id"
    label_column: str = "label"
    k_parties: int = 2
    aligned_pool: int = 100
    fields: tuple[Field, ...] = ()

    def __post_init__(self):
        if not self.train_path or not self.test_path:
            raise ConfigError("csv data needs train_path and test_path")
        if not self.fields:
            raise ConfigError("csv data needs a fields list")
        roles = {self.id_column: "id_column", self.label_column: "label_column"}
        for f in self.fields:  # else the IDs or the labels would be a feature too
            if f.name in roles:
                raise ConfigError(f"field {f.name!r} is also the {roles[f.name]}")
        FeatureSchema(self.fields).validate_parties(self.k_parties)

    def schema(self) -> FeatureSchema:
        return FeatureSchema(self.fields)


@dataclass(frozen=True)
class DataConfig:
    kind: str = "synth"
    synth: SynthConfig | None = None
    csv: CsvDataConfig | None = None

    def __post_init__(self):
        if self.kind == "synth":
            if self.synth is None:
                object.__setattr__(self, "synth", SynthConfig())
        elif self.kind == "csv":
            if self.csv is None:
                raise ConfigError("data.kind is 'csv' but no csv section given")
        else:
            raise ConfigError(f"data.kind must be 'synth' or 'csv', got {self.kind!r}")

    @property
    def aligned_pool(self) -> int:
        return (
            self.synth.aligned_pool if self.kind == "synth" else self.csv.aligned_pool
        )


@dataclass(frozen=True)
class GridConfig:
    modes: tuple[str, ...] = ("vanilla_vfl", "vflhlp")
    aligned_counts: tuple[int, ...] = (50, 100, 200, 400, 800)
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    beta_sweep: tuple[float, ...] = ()
    include_oracle: bool = True

    def __post_init__(self):
        if not self.modes or not self.aligned_counts or not self.seeds:
            raise ConfigError("grid needs modes, aligned_counts and seeds")
        for m in self.modes:
            TrainMode.parse(m)
        for name in ("modes", "aligned_counts", "seeds", "beta_sweep"):
            values = getattr(self, name)
            if len(set(values)) != len(values):  # a repeated value repeats its cells
                raise ConfigError(f"grid {name} contain duplicates")
        if any(c < 1 for c in self.aligned_counts):
            raise ConfigError("aligned_counts must be positive")
        if any(s < 0 for s in self.seeds):
            raise ConfigError("seeds must be non-negative")
        if not all(b >= 0 for b in self.beta_sweep):  # a NaN fails too
            raise ConfigError(f"beta_sweep values must be >= 0, got {list(self.beta_sweep)}")
        printed = {}  # every output, log and file names a sweep value by f"{b:g}"
        for b in self.beta_sweep:
            if (first := printed.setdefault(f"{b:g}", b)) != b:
                raise ConfigError(f"grid beta_sweep values {first!r} and {b!r} both print "
                                  f"as {b:g}, so their cells' outputs would share a name")


@dataclass(frozen=True)
class RunConfig:
    data: DataConfig
    model: ModelConfig
    ssl: SslConfig
    supervised: SupConfig
    downstream: DownstreamConfig
    grid: GridConfig
    output_dir: str = "runs"

    def __post_init__(self):
        pool = self.data.aligned_pool
        too_big = [c for c in self.grid.aligned_counts if c > pool]
        if too_big:
            raise ConfigError(
                f"aligned_counts {too_big} exceed the aligned pool of {pool}"
            )


# ---------------------------------------------------------------------------
# parsing


def _build(cls, data: dict, section: str):
    """An instance of the config dataclass `cls` from the parsed JSON `data`;
    ConfigError naming `section`, the dotted path of `data` in the config."""
    if not isinstance(data, dict):
        raise ConfigError(f"{section}: expected an object, got {type(data).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ConfigError(f"{section}: unknown keys {unknown}")
    missing = [
        name for name, f in fields.items()
        if name not in data
        and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise ConfigError(f"{section}: missing keys {missing}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in data.items():
        value = _checked(value, hints[key], f"{section}.{key}")
        if key == "optimizer" and value not in OPTIMIZERS:
            raise ConfigError(
                f"{section}.optimizer: unknown optimizer {value!r}; "
                f"expected one of {list(OPTIMIZERS)}"
            )
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{section}: {exc}") from None


def _checked(value, hint, name: str):
    """`value` if it has the declared type `hint`, else ConfigError naming it.

    An int passes for a float, and a float field takes only a value within
    the finite float range; a bool passes only for a bool. An `X | None`
    field parses as X, a config dataclass is built by `_build`, and for a
    tuple[T, ...] field a JSON list becomes a tuple, checked item by item.
    """
    if isinstance(hint, types.UnionType):  # X | None
        hint = typing.get_args(hint)[0]
    if dataclasses.is_dataclass(hint):
        return _build(hint, value, name)
    if typing.get_origin(hint) is tuple:
        if isinstance(value, (list, tuple)):
            item = typing.get_args(hint)[0]
            return tuple(_checked(v, item, f"{name}[{i}]") for i, v in enumerate(value))
        hint = tuple
    if hint is bool or isinstance(value, bool):
        ok = type(value) is hint
    else:
        ok = isinstance(value, (int, float) if hint is float else hint)
    if not ok:
        raise ConfigError(
            f"{name}: expected {hint.__name__}, got {type(value).__name__} {value!r}"
        )
    if hint is float and not abs(value) <= sys.float_info.max:  # NaN fails too
        raise ConfigError(f"{name}: expected a finite float, got {value!r}")
    return value


def deep_merge(base: dict, override: dict) -> dict:
    """Nested dict merge; non-dict values in override replace base values."""
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    raw = dict(raw)
    preset_name = raw.pop("preset", None)
    if preset_name is not None:
        raw = deep_merge(preset(preset_name), raw)
    sections = {"data", "model", "ssl", "supervised", "downstream", "grid", "output_dir"}
    unknown = sorted(set(raw) - sections)
    if unknown:
        raise ConfigError(f"unknown top-level keys {unknown}")
    if "data" not in raw:
        raise ConfigError("config needs a data section (or a preset)")
    output_dir = raw.get("output_dir", "runs")
    if not isinstance(output_dir, str):
        raise ConfigError("output_dir must be a string")
    return RunConfig(
        data=_build(DataConfig, raw["data"], "data"),
        model=_build(ModelConfig, raw.get("model", {}), "model"),
        ssl=_build(SslConfig, raw.get("ssl", {}), "ssl"),
        supervised=_build(SupConfig, raw.get("supervised", {}), "supervised"),
        downstream=_build(DownstreamConfig, raw.get("downstream", {}), "downstream"),
        grid=_build(GridConfig, raw.get("grid", {}), "grid"),
        output_dir=output_dir,
    )


def load_config(path) -> RunConfig:
    return parse_config(read_json_object(path, ConfigError))


# ---------------------------------------------------------------------------
# serialization


def to_dict(cfg: RunConfig) -> dict:
    """Canonical plain-dict form; parse(to_dict(cfg)) == cfg.

    Tuples stay tuples, which JSON writes as lists.
    """
    out = dataclasses.asdict(cfg)
    data = out["data"]
    del data["csv" if cfg.data.kind == "synth" else "synth"]
    if cfg.data.kind == "csv":  # no cardinality on a numerical field
        data["csv"]["fields"] = [
            {k: v for k, v in f.items() if k != "cardinality" or f["kind"] == CATEGORICAL}
            for f in data["csv"]["fields"]
        ]
    return out


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def canonical_json(cfg: RunConfig) -> str:
    return _canonical(to_dict(cfg))


def config_hash(cfg: RunConfig) -> str:
    """sha256 of the canonical JSON but output_dir: where outputs go is not what makes them."""
    body = to_dict(cfg)
    del body["output_dir"]
    return hashlib.sha256(_canonical(body).encode("utf-8")).hexdigest()


def data_hash(cfg: RunConfig) -> str:
    """sha256 of the data section's canonical JSON; with the seed, a dataset's cache key."""
    return hashlib.sha256(_canonical(to_dict(cfg)["data"]).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# presets


def preset(name: str) -> dict:
    presets = {
        "fixture": _fixture_preset,
        "avazu-like": _avazu_preset,
        "criteo-like": _criteo_preset,
    }
    if not isinstance(name, str) or name not in presets:
        raise ConfigError(
            f"unknown preset {name!r}; available: {sorted(presets)}"
        )
    return presets[name]()


def _fixture_preset() -> dict:
    """Desk-scale K=3 synthetic benchmark used by the acceptance suite.

    Calibrated so the few-overlap story is visible in minutes on a laptop:
    the active party's signal rides mostly on high-cardinality categorical
    fields (slow to fit from dozens of aligned rows, easy from thousands of
    local ones), passive parties carry redundant noisy numerical views of
    their latent factor, and downstream training runs plain SGD with a fast
    head and slow encoders so warm starts survive the fitting phase.
    """
    return {
        "data": {
            "kind": "synth",
            "synth": {
                "k_parties": 3,
                "n_local": 5000,
                "aligned_pool": 800,
                "n_validation": 500,
                "n_test": 2000,
                "num_fields_per_party": [1, 8, 8],
                "cat_fields_per_party": [3, 0, 0],
                "cardinality": 80,
                "party_signal": [1.0, 0.6, 0.6],
                "feature_noise": 1.2,
                "label_noise": 0.4,
            },
        },
        "model": {"embed_dim": 4, "encoder_hidden": [16, 8]},
        "ssl": {
            "corruption_rate": 0.6,
            "temperature": 0.5,
            "learning_rate": 3e-3,
            "epochs": 30,
            "batch_size": 256,
            "optimizer": "adam",
            "projection_hidden": [16],
        },
        "supervised": {
            "epochs": 25,
            "batch_size": 256,
            "learning_rate": 1e-3,
            "optimizer": "adam",
            "val_fraction": 0.1,
        },
        "downstream": {
            "beta": 10.0,
            "eta1": 0.1,
            "eta2": 1e-3,
            "epochs": 120,
            "batch_size": 8,
            "optimizer": "sgd",
            "val_fraction": 0.1,
            "warm_start_active": False,
        },
        "grid": {
            "modes": ["local_a", "vanilla_vfl", "vflhlp", "vflhlp_a", "vflhlp_p"],
            "aligned_counts": [50, 100, 200, 400, 800],
            "seeds": [1, 2, 3, 4, 5],
            "beta_sweep": [],
            "include_oracle": True,
        },
        "output_dir": "runs/fixture",
    }


def _avazu_preset() -> dict:
    """Three all-categorical parties, 7 | 7 | 8 fields, embeddings of 8."""
    cfg = _fixture_preset()
    cfg["data"]["synth"] = {
        "k_parties": 3,
        "n_local": 4000,
        "aligned_pool": 800,
        "n_validation": 1000,
        "n_test": 2000,
        "num_fields_per_party": [0, 0, 0],
        "cat_fields_per_party": [7, 7, 8],
        "cardinality": 40,
        "party_signal": [1.0, 0.8, 0.8],
        "feature_noise": 0.35,
        "label_noise": 0.45,
    }
    cfg["model"] = {"embed_dim": 8, "encoder_hidden": [64, 64, 16]}
    cfg["output_dir"] = "runs/avazu-like"
    return cfg


def _criteo_preset() -> dict:
    """Two parties: 13 numerical fields vs 26 categorical with embeddings of 16."""
    cfg = _fixture_preset()
    cfg["data"]["synth"] = {
        "k_parties": 2,
        "n_local": 4000,
        "aligned_pool": 800,
        "n_validation": 1000,
        "n_test": 2000,
        "num_fields_per_party": [13, 0],
        "cat_fields_per_party": [0, 26],
        "cardinality": 40,
        "party_signal": [1.0, 0.8],
        "feature_noise": 0.35,
        "label_noise": 0.45,
    }
    cfg["model"] = {"embed_dim": 16, "encoder_hidden": [256, 128, 64, 16]}
    cfg["output_dir"] = "runs/criteo-like"
    return cfg


# ---------------------------------------------------------------------------
# glue


def encoder_specs(ds: VerticalDataset, model: ModelConfig) -> dict[int, EncoderSpec]:
    """Per-party encoder architectures for a dataset under one model config."""
    out = {}
    for k, view in ds.parties.items():
        out[k] = EncoderSpec(
            cat_fields=tuple((f.name, f.cardinality) for f in view.cat_fields),
            num_fields=len(view.num_fields),
            embed_dim=model.embed_dim,
            hidden=tuple(model.encoder_hidden),
        )
    return out
