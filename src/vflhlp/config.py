"""Declarative run configuration.

One JSON file drives every stage. A file may name a preset and override
any subset of keys; parsing is strict, unknown keys are errors. The config
hash is the sha256 of the canonical serialized form and is stamped into
caches, checkpoints and result files so artifacts can be traced back to
the exact configuration that produced them.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .data import Field, FeatureSchema, SynthConfig, VerticalDataset
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
    def k_parties(self) -> int:
        return self.synth.k_parties if self.kind == "synth" else self.csv.k_parties

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
        if len(set(self.modes)) != len(self.modes):
            raise ConfigError("grid modes contain duplicates")
        if any(c < 1 for c in self.aligned_counts):
            raise ConfigError("aligned_counts must be positive")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("grid seeds contain duplicates")
        if any(s < 0 for s in self.seeds):
            raise ConfigError("seeds must be non-negative")


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


def _build(cls, data: dict, section: str, tuple_keys: tuple[str, ...] = (),
           drop: tuple[str, ...] = ()):
    if not isinstance(data, dict):
        raise ConfigError(f"{section}: expected an object, got {type(data).__name__}")
    allowed = {f.name for f in dataclasses.fields(cls)} - set(drop)
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"{section}: unknown keys {unknown}")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key in tuple_keys and isinstance(value, list):
            value = tuple(value)
        if not _type_ok(value, defaults[key]):
            raise ConfigError(
                f"{section}.{key}: expected {type(defaults[key]).__name__}, "
                f"got {type(value).__name__} {value!r}"
            )
        if key == "optimizer" and value not in OPTIMIZERS:
            raise ConfigError(
                f"{section}.optimizer: unknown optimizer {value!r}; "
                f"expected one of {list(OPTIMIZERS)}"
            )
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{section}: {exc}") from None


def _type_ok(value, default) -> bool:
    """Is `value` of the type of a field's default? An int passes for a float;
    a bool passes only for a bool."""
    if isinstance(default, bool) or isinstance(value, bool):
        return type(value) is type(default)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def _parse_fields(raw: list, section: str) -> tuple[Field, ...]:
    if not isinstance(raw, list):
        raise ConfigError(f"{section}: fields must be a list")
    fields = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise ConfigError(f"{section}: fields[{i}] must be an object")
        unknown = sorted(set(item) - {"name", "kind", "party", "cardinality"})
        if unknown:
            raise ConfigError(f"{section}: fields[{i}] unknown keys {unknown}")
        try:
            fields.append(
                Field(
                    name=item["name"],
                    kind=item["kind"],
                    party=item["party"],
                    cardinality=item.get("cardinality", 0),
                )
            )
        except KeyError as exc:
            raise ConfigError(f"{section}: fields[{i}] missing key {exc}") from None
    return tuple(fields)


def _parse_data(raw: dict) -> DataConfig:
    if not isinstance(raw, dict):
        raise ConfigError("data: expected an object")
    unknown = sorted(set(raw) - {"kind", "synth", "csv"})
    if unknown:
        raise ConfigError(f"data: unknown keys {unknown}")
    kind = raw.get("kind", "synth")
    synth = None
    csv_cfg = None
    if "synth" in raw:
        synth = _build(
            SynthConfig,
            raw["synth"],
            "data.synth",
            tuple_keys=("num_fields_per_party", "cat_fields_per_party", "party_signal"),
        )
    if "csv" in raw:
        csv_raw = dict(raw["csv"])
        fields = _parse_fields(csv_raw.pop("fields", []), "data.csv")
        csv_cfg = _build(CsvDataConfig, {**csv_raw, "fields": fields}, "data.csv")
    return DataConfig(kind=kind, synth=synth, csv=csv_cfg)


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
        data=_parse_data(raw["data"]),
        model=_build(ModelConfig, raw.get("model", {}), "model",
                     tuple_keys=("encoder_hidden",)),
        ssl=_build(SslConfig, raw.get("ssl", {}), "ssl",
                   tuple_keys=("projection_hidden",)),
        supervised=_build(SupConfig, raw.get("supervised", {}), "supervised"),
        downstream=_build(DownstreamConfig, raw.get("downstream", {}), "downstream",
                          drop=("seed",)),
        grid=_build(GridConfig, raw.get("grid", {}), "grid",
                    tuple_keys=("modes", "aligned_counts", "seeds", "beta_sweep")),
        output_dir=output_dir,
    )


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{path}: config file not found")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from None
    return parse_config(raw)


# ---------------------------------------------------------------------------
# serialization


def _field_to_dict(f: Field) -> dict:
    out = {"name": f.name, "kind": f.kind, "party": f.party}
    if f.kind == "categorical":
        out["cardinality"] = f.cardinality
    return out


def to_dict(cfg: RunConfig) -> dict:
    """Canonical plain-dict form; parse(to_dict(cfg)) == cfg."""
    data: dict = {"kind": cfg.data.kind}
    if cfg.data.kind == "synth":
        data["synth"] = {
            k: (list(v) if isinstance(v, tuple) else v)
            for k, v in dataclasses.asdict(cfg.data.synth).items()
        }
    else:
        csv_d = dataclasses.asdict(cfg.data.csv)
        csv_d["fields"] = [_field_to_dict(f) for f in cfg.data.csv.fields]
        data["csv"] = csv_d
    downstream = dataclasses.asdict(cfg.downstream)
    downstream.pop("seed")  # per-run value, never part of the declared config
    return {
        "data": data,
        "model": {
            "embed_dim": cfg.model.embed_dim,
            "encoder_hidden": list(cfg.model.encoder_hidden),
        },
        "ssl": {
            **dataclasses.asdict(cfg.ssl),
            "projection_hidden": list(cfg.ssl.projection_hidden),
        },
        "supervised": dataclasses.asdict(cfg.supervised),
        "downstream": downstream,
        "grid": {
            "modes": list(cfg.grid.modes),
            "aligned_counts": list(cfg.grid.aligned_counts),
            "seeds": list(cfg.grid.seeds),
            "beta_sweep": list(cfg.grid.beta_sweep),
            "include_oracle": cfg.grid.include_oracle,
        },
        "output_dir": cfg.output_dir,
    }


def canonical_json(cfg: RunConfig) -> str:
    return json.dumps(to_dict(cfg), sort_keys=True, separators=(",", ":"))


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(canonical_json(cfg).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# presets


def preset(name: str) -> dict:
    presets = {
        "fixture": _fixture_preset,
        "avazu-like": _avazu_preset,
        "criteo-like": _criteo_preset,
    }
    if name not in presets:
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
