"""Vertically partitioned tabular data.

A vertical dataset is K parties holding disjoint feature columns over
overlapping sample IDs. Party 1 (the active party) also holds the labels.
The aligned pool is the ID intersection of all parties in a seeded random
order; experiments take prefixes of it, so smaller aligned sets are nested
inside larger ones for the same seed.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .rng import stream

CATEGORICAL = "categorical"
NUMERICAL = "numerical"


# ---------------------------------------------------------------------------
# schema


@dataclass(frozen=True)
class Field:
    """One feature column: name, kind, owning party, cardinality if categorical.

    Categorical cardinality counts the reserved unseen bucket at index 0,
    so a column with V observed values has cardinality V + 1.
    """

    name: str
    kind: str
    party: int
    cardinality: int = 0

    def __post_init__(self):
        if self.kind not in (CATEGORICAL, NUMERICAL):
            raise ConfigError(f"field {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == CATEGORICAL and self.cardinality < 1:
            raise ConfigError(
                f"field {self.name!r}: categorical cardinality must be >= 1"
            )


@dataclass(frozen=True)
class FeatureSchema:
    fields: tuple[Field, ...]

    def __post_init__(self):
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ConfigError(f"duplicate field names: {dupes}")
        if not self.fields:
            raise ConfigError("schema has no fields")

    def validate_parties(self, k_parties: int) -> None:
        """Every field must belong to a party in 1..K and no party may be empty."""
        for f in self.fields:
            if not 1 <= f.party <= k_parties:
                raise ConfigError(
                    f"field {f.name!r} assigned to party {f.party}, "
                    f"but k_parties is {k_parties}"
                )
        held = {f.party for f in self.fields}
        empty = sorted(set(range(1, k_parties + 1)) - held)
        if empty:
            raise ConfigError(f"parties without any fields: {empty}")

    def party_fields(self, party: int) -> tuple[tuple[Field, ...], tuple[Field, ...]]:
        """(categorical fields, numerical fields) of one party, in schema order."""
        cat = tuple(f for f in self.fields if f.party == party and f.kind == CATEGORICAL)
        num = tuple(f for f in self.fields if f.party == party and f.kind == NUMERICAL)
        return cat, num


# ---------------------------------------------------------------------------
# core containers


@dataclass
class PartyView:
    """One party's local table: sorted IDs plus its feature columns."""

    party_id: int
    ids: np.ndarray  # int64, sorted ascending
    cat: np.ndarray  # int64 [n, n_cat_fields]
    num: np.ndarray  # float64 [n, n_num_fields]
    cat_fields: tuple[Field, ...]
    num_fields: tuple[Field, ...]

    def __post_init__(self):
        if np.any(self.ids[1:] <= self.ids[:-1]):
            raise DataError(f"party {self.party_id}: IDs must be sorted and unique")
        n = self.ids.shape[0]
        if self.cat.shape != (n, len(self.cat_fields)):
            raise DataError(f"party {self.party_id}: bad categorical shape {self.cat.shape}")
        if self.num.shape != (n, len(self.num_fields)):
            raise DataError(f"party {self.party_id}: bad numerical shape {self.num.shape}")

    @property
    def n(self) -> int:
        return int(self.ids.shape[0])

    def rows_for(self, ids: np.ndarray) -> np.ndarray:
        """Row indices of the given IDs; DataError if any ID is missing."""
        ids = np.asarray(ids, dtype=np.int64)
        pos = np.searchsorted(self.ids, ids)
        ok = (pos < self.n) & (self.ids[np.minimum(pos, self.n - 1)] == ids)
        if not ok.all():
            missing = ids[~ok][:5].tolist()
            raise DataError(
                f"party {self.party_id}: IDs not in local set, e.g. {missing}"
            )
        return pos


@dataclass
class AlignedSplit:
    """Fully aligned evaluation rows: every party's features plus labels."""

    ids: np.ndarray
    cat: dict[int, np.ndarray]
    num: dict[int, np.ndarray]
    labels: np.ndarray
    bayes_scores: np.ndarray | None = None  # generator's posterior, synthetic only

    @property
    def n(self) -> int:
        return int(self.ids.shape[0])


@dataclass
class VerticalDataset:
    """Training-side view: per-party local tables, labels, aligned pool."""

    schema: FeatureSchema
    parties: dict[int, PartyView]
    labels: np.ndarray  # aligned with parties[1].ids
    aligned_pool: np.ndarray  # int64, seeded order; the full ID intersection
    aligned_count: int

    def __post_init__(self):
        if 1 not in self.parties:
            raise DataError("party 1 (active) is required")
        if self.labels.shape != self.parties[1].ids.shape:
            raise DataError("labels must cover exactly party 1's local IDs")
        if not 0 <= self.aligned_count <= self.aligned_pool.shape[0]:
            raise DataError(
                f"aligned_count {self.aligned_count} out of range for pool of "
                f"{self.aligned_pool.shape[0]}"
            )

    @property
    def k_parties(self) -> int:
        return len(self.parties)

    def aligned_ids(self) -> np.ndarray:
        return self.aligned_pool[: self.aligned_count]

    def with_aligned_count(self, count: int) -> "VerticalDataset":
        """Shallow view with a different active prefix of the aligned pool."""
        if count > self.aligned_pool.shape[0]:
            raise DataError(
                f"requested {count} aligned samples, pool has "
                f"{self.aligned_pool.shape[0]}"
            )
        return replace(self, aligned_count=count)

    def with_aligned_ids(self, ids: np.ndarray) -> "VerticalDataset":
        ids = np.asarray(ids, dtype=np.int64)
        return replace(self, aligned_pool=ids, aligned_count=int(ids.shape[0]))

    def labels_for(self, ids: np.ndarray) -> np.ndarray:
        rows = self.parties[1].rows_for(ids)
        return self.labels[rows]

    def gather(self, ids: np.ndarray) -> "AlignedBatch":
        """Per-party feature rows for the given aligned IDs, in the given order."""
        ids = np.asarray(ids, dtype=np.int64)
        cat, num = {}, {}
        for k, view in self.parties.items():
            rows = view.rows_for(ids)
            cat[k] = view.cat[rows]
            num[k] = view.num[rows]
        return AlignedBatch(ids=ids, cat=cat, num=num, labels=self.labels_for(ids))


@dataclass
class AlignedBatch:
    ids: np.ndarray
    cat: dict[int, np.ndarray]
    num: dict[int, np.ndarray]
    labels: np.ndarray

    @property
    def n(self) -> int:
        return int(self.ids.shape[0])


@dataclass
class DatasetBundle:
    """A training dataset plus a fully aligned test split."""

    train: VerticalDataset
    test: AlignedSplit


def sample_aligned_batches(
    ds: VerticalDataset, batch_size: int, seed: int, epoch: int
) -> list[AlignedBatch]:
    """Shuffled mini-batches over the active aligned set for one epoch.

    The permutation depends only on (seed, epoch). The final short batch is
    kept, so every aligned sample appears exactly once per epoch.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    ids = ds.aligned_ids()
    if ids.shape[0] == 0:
        raise DataError("aligned set is empty")
    perm = stream(seed, "aligned-batches", epoch).permutation(ids.shape[0])
    shuffled = ids[perm]
    return [
        ds.gather(shuffled[i : i + batch_size])
        for i in range(0, shuffled.shape[0], batch_size)
    ]


# ---------------------------------------------------------------------------
# CSV ingestion


@dataclass
class Table:
    """A centralized table holding every schema column, pre-partition."""

    ids: np.ndarray
    cat: np.ndarray  # columns follow schema's categorical fields in order
    num: np.ndarray  # columns follow schema's numerical fields in order
    labels: np.ndarray | None
    cat_fields: tuple[Field, ...]
    num_fields: tuple[Field, ...]

    @property
    def n(self) -> int:
        return int(self.ids.shape[0])


@dataclass
class TableEncoder:
    """Vocabulary and scaling statistics fitted on the training CSV.

    Categorical: observed value -> index in 1..V, with 0 for anything unseen.
    Numerical: min-max to [0, 1]; transform clamps, a constant column maps to 0.
    """

    vocab: dict[str, dict[str, int]]
    num_stats: dict[str, tuple[float, float]]

    def encode_cat(self, field_name: str, values: list[str]) -> np.ndarray:
        v = self.vocab[field_name]
        return np.array([v.get(x, 0) for x in values], dtype=np.int64)

    def scale_num(self, field_name: str, values: np.ndarray) -> np.ndarray:
        lo, hi = self.num_stats[field_name]
        if hi == lo:
            return np.zeros_like(values)
        return np.clip((values - lo) / (hi - lo), 0.0, 1.0)

    def cardinality(self, field_name: str) -> int:
        return len(self.vocab[field_name]) + 1  # plus the unseen bucket


def _read_rows(path, needed: list[str]) -> list[dict[str, str]]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"{path}: file not found")
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise DataError(f"{path}: empty file, no header")
            missing = [c for c in needed if c not in reader.fieldnames]
            if missing:
                raise DataError(f"{path}: missing columns {missing}")
            rows = []
            for line, row in enumerate(reader, start=2):
                if None in row.values() or None in row:
                    raise DataError(f"{path}:{line}: wrong number of cells")
                rows.append(row)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: cannot read CSV: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    return rows


def _parse_ids(path, rows: list[dict[str, str]], id_column: str) -> np.ndarray:
    ids = np.empty(len(rows), dtype=np.int64)
    seen: set[int] = set()
    for i, row in enumerate(rows):
        raw = row[id_column]
        try:
            val = int(raw)
        except ValueError:
            raise DataError(f"{path}:{i + 2}: ID {raw!r} is not an integer") from None
        if val in seen:
            raise DataError(f"{path}:{i + 2}: duplicate ID {val}")
        seen.add(val)
        ids[i] = val
    return ids


def _parse_num_column(path, rows, name: str) -> np.ndarray:
    out = np.empty(len(rows), dtype=np.float64)
    for i, row in enumerate(rows):
        try:
            out[i] = float(row[name])
        except ValueError:
            raise DataError(
                f"{path}:{i + 2}: field {name!r}: {row[name]!r} is not a number"
            ) from None
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        # one nan or inf would turn the whole min-max scaled column to nan
        i = int(bad[0])
        raise DataError(
            f"{path}:{i + 2}: field {name!r}: {rows[i][name]!r} is not a finite number"
        )
    return out


def _parse_labels(path, rows, label_column: str) -> np.ndarray:
    out = np.empty(len(rows), dtype=np.float64)
    for i, row in enumerate(rows):
        raw = row[label_column]
        try:
            val = float(raw)
        except ValueError:
            raise DataError(f"{path}:{i + 2}: label {raw!r} is not a number") from None
        if val not in (0.0, 1.0):
            raise DataError(f"{path}:{i + 2}: label must be 0 or 1, got {raw!r}")
        out[i] = val
    return out


def load_csv(
    path, schema: FeatureSchema, id_column: str, label_column: str | None
) -> tuple[Table, TableEncoder]:
    """Read a training CSV and fit the encoder on it.

    Vocabularies index observed values in sorted order starting at 1; the
    schema's declared cardinalities are checked against the observed counts.
    """
    cat_fields = tuple(f for f in schema.fields if f.kind == CATEGORICAL)
    num_fields = tuple(f for f in schema.fields if f.kind == NUMERICAL)
    needed = [id_column] + [f.name for f in schema.fields]
    if label_column is not None:
        needed.append(label_column)
    rows = _read_rows(path, needed)
    ids = _parse_ids(path, rows, id_column)

    vocab: dict[str, dict[str, int]] = {}
    cat_cols = []
    for f in cat_fields:
        values = [row[f.name] for row in rows]
        mapping = {v: i + 1 for i, v in enumerate(sorted(set(values)))}
        if len(mapping) + 1 > f.cardinality:
            raise DataError(
                f"field {f.name!r}: observed {len(mapping)} values, which needs "
                f"cardinality {len(mapping) + 1} but schema declares {f.cardinality}"
            )
        vocab[f.name] = mapping
        cat_cols.append(np.array([mapping[v] for v in values], dtype=np.int64))

    num_stats: dict[str, tuple[float, float]] = {}
    num_cols = []
    for f in num_fields:
        raw = _parse_num_column(path, rows, f.name)
        lo, hi = float(raw.min()), float(raw.max())
        num_stats[f.name] = (lo, hi)
        num_cols.append(np.zeros_like(raw) if hi == lo else (raw - lo) / (hi - lo))

    labels = _parse_labels(path, rows, label_column) if label_column else None
    table = Table(
        ids=ids,
        cat=np.stack(cat_cols, axis=1) if cat_cols else np.zeros((len(rows), 0), np.int64),
        num=np.stack(num_cols, axis=1) if num_cols else np.zeros((len(rows), 0)),
        labels=labels,
        cat_fields=cat_fields,
        num_fields=num_fields,
    )
    return table, TableEncoder(vocab=vocab, num_stats=num_stats)


def transform_csv(
    path,
    schema: FeatureSchema,
    encoder: TableEncoder,
    id_column: str,
    label_column: str | None,
) -> Table:
    """Read an evaluation CSV with a fitted encoder; unseen categories map to 0."""
    cat_fields = tuple(f for f in schema.fields if f.kind == CATEGORICAL)
    num_fields = tuple(f for f in schema.fields if f.kind == NUMERICAL)
    needed = [id_column] + [f.name for f in schema.fields]
    if label_column is not None:
        needed.append(label_column)
    rows = _read_rows(path, needed)
    ids = _parse_ids(path, rows, id_column)
    cat_cols = [
        encoder.encode_cat(f.name, [row[f.name] for row in rows]) for f in cat_fields
    ]
    num_cols = [
        encoder.scale_num(f.name, _parse_num_column(path, rows, f.name))
        for f in num_fields
    ]
    labels = _parse_labels(path, rows, label_column) if label_column else None
    return Table(
        ids=ids,
        cat=np.stack(cat_cols, axis=1) if cat_cols else np.zeros((len(rows), 0), np.int64),
        num=np.stack(num_cols, axis=1) if num_cols else np.zeros((len(rows), 0)),
        labels=labels,
        cat_fields=cat_fields,
        num_fields=num_fields,
    )


# ---------------------------------------------------------------------------
# partitioning


def _party_columns(
    table: Table, schema: FeatureSchema, party: int, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple[Field, ...], tuple[Field, ...]]:
    cat_fields, num_fields = schema.party_fields(party)
    cat_idx = [table.cat_fields.index(f) for f in cat_fields]
    num_idx = [table.num_fields.index(f) for f in num_fields]
    cat = table.cat[np.ix_(rows, cat_idx)] if cat_idx else np.zeros((rows.size, 0), np.int64)
    num = table.num[np.ix_(rows, num_idx)] if num_idx else np.zeros((rows.size, 0))
    return cat, num, cat_fields, num_fields


def vertical_partition(
    table: Table,
    schema: FeatureSchema,
    k_parties: int,
    aligned_count: int,
    seed: int,
) -> VerticalDataset:
    """Split a centralized table into K party views.

    A seeded permutation picks the aligned pool; the remaining IDs are dealt
    out disjointly across parties as their private unaligned samples, so the
    ID intersection of all parties is exactly the aligned pool.
    """
    schema.validate_parties(k_parties)
    if table.labels is None:
        raise DataError("partitioning requires labels in the table")
    n = table.n
    if not 0 < aligned_count <= n:
        raise DataError(f"aligned_count {aligned_count} out of range for {n} rows")
    perm = stream(seed, "partition").permutation(n)
    pool_rows = perm[:aligned_count]
    rest = perm[aligned_count:]
    chunks = np.array_split(rest, k_parties)

    row_of_id = {int(i): r for r, i in enumerate(table.ids)}
    parties = {}
    for k in range(1, k_parties + 1):
        local_rows = np.sort(np.concatenate([pool_rows, chunks[k - 1]]))
        local_ids = table.ids[local_rows]
        order = np.argsort(local_ids, kind="stable")
        local_rows = local_rows[order]
        cat, num, cf, nf = _party_columns(table, schema, k, local_rows)
        parties[k] = PartyView(
            party_id=k,
            ids=table.ids[local_rows],
            cat=cat,
            num=num,
            cat_fields=cf,
            num_fields=nf,
        )
    labels = table.labels[
        np.array([row_of_id[int(i)] for i in parties[1].ids], dtype=np.int64)
    ]
    return VerticalDataset(
        schema=schema,
        parties=parties,
        labels=labels,
        aligned_pool=table.ids[pool_rows],
        aligned_count=aligned_count,
    )


def split_from_table(table: Table, schema: FeatureSchema, k_parties: int) -> AlignedSplit:
    """Treat a full table as an aligned evaluation split."""
    if table.labels is None:
        raise DataError("evaluation split requires labels")
    rows = np.arange(table.n)
    cat, num = {}, {}
    for k in range(1, k_parties + 1):
        c, m, _, _ = _party_columns(table, schema, k, rows)
        cat[k] = c
        num[k] = m
    return AlignedSplit(ids=table.ids.copy(), cat=cat, num=num, labels=table.labels.copy())


# ---------------------------------------------------------------------------
# synthetic data


@dataclass(frozen=True)
class SynthConfig:
    """Generator for a K-party dataset with tunable cross-party signal.

    Each party observes noisy views of its own latent factor; the label
    mixes all latents with per-party weights. label_noise scales down the
    label logit, so label_noise -> infinity drives the Bayes AUC to 0.5.
    """

    k_parties: int = 3
    n_local: int = 5000
    aligned_pool: int = 800
    n_validation: int = 1000  # rows drawn and set aside, so the test rows stay put
    n_test: int = 2000
    num_fields_per_party: tuple[int, ...] = (5, 5, 5)
    cat_fields_per_party: tuple[int, ...] = (2, 2, 2)
    cardinality: int = 12
    party_signal: tuple[float, ...] = (1.0, 0.8, 0.8)
    feature_noise: float = 0.35
    label_noise: float = 0.45

    def __post_init__(self):
        k = self.k_parties
        if k < 2:
            raise ConfigError("need at least 2 parties")
        for name in ("num_fields_per_party", "cat_fields_per_party", "party_signal"):
            if len(getattr(self, name)) != k:
                raise ConfigError(f"{name} must have {k} entries")
        if self.aligned_pool > self.n_local:
            raise ConfigError("aligned_pool cannot exceed n_local")
        if self.aligned_pool < 1:
            raise ConfigError("aligned_pool must be >= 1")
        if self.cardinality < 2:
            raise ConfigError("cardinality must be >= 2")
        if self.label_noise <= 0:
            raise ConfigError("label_noise must be positive")
        for k_ in range(k):
            if self.num_fields_per_party[k_] + self.cat_fields_per_party[k_] == 0:
                raise ConfigError(f"party {k_ + 1} has no fields")

    def schema(self) -> FeatureSchema:
        fields = []
        for k in range(1, self.k_parties + 1):
            for j in range(self.cat_fields_per_party[k - 1]):
                fields.append(
                    Field(f"p{k}_c{j}", CATEGORICAL, k, cardinality=self.cardinality)
                )
            for j in range(self.num_fields_per_party[k - 1]):
                fields.append(Field(f"p{k}_n{j}", NUMERICAL, k))
        return FeatureSchema(tuple(fields))


def _quantile_buckets(values: np.ndarray, buckets: int) -> np.ndarray:
    """Rank-based bucketing into 1..buckets (0 stays reserved for unseen)."""
    ranks = np.argsort(np.argsort(values, kind="stable"), kind="stable")
    idx = (ranks * buckets) // values.shape[0]
    return idx.astype(np.int64) + 1


def synth_generate(cfg: SynthConfig, seed: int) -> DatasetBundle:
    """Generate a DatasetBundle; pure function of (cfg, seed)."""
    K = cfg.k_parties
    per_party_extra = cfg.n_local - cfg.aligned_pool
    n_total = cfg.aligned_pool + K * per_party_extra + cfg.n_validation + cfg.n_test
    rng = stream(seed, "synth")

    latents = rng.standard_normal((n_total, K))
    raw_num: dict[int, np.ndarray] = {}
    raw_cat: dict[int, np.ndarray] = {}
    for k in range(1, K + 1):
        u = latents[:, k - 1]
        n_num = cfg.num_fields_per_party[k - 1]
        n_cat = cfg.cat_fields_per_party[k - 1]
        num = np.empty((n_total, n_num))
        for j in range(n_num):
            num[:, j] = u + cfg.feature_noise * rng.standard_normal(n_total)
        cat = np.empty((n_total, n_cat), dtype=np.int64)
        for j in range(n_cat):
            noisy = u + cfg.feature_noise * rng.standard_normal(n_total)
            cat[:, j] = _quantile_buckets(noisy, cfg.cardinality - 1)
        raw_num[k] = num
        raw_cat[k] = cat

    v = np.asarray(cfg.party_signal, dtype=np.float64)
    norm = np.linalg.norm(v)
    if norm == 0:
        logit_parts = np.zeros((n_total, K))
    else:
        logit_parts = latents * (v / norm) / cfg.label_noise
    logits = logit_parts.sum(axis=1)
    posterior = 1.0 / (1.0 + np.exp(-logits))
    labels = (rng.uniform(size=n_total) < posterior).astype(np.float64)

    assign = stream(seed, "synth", "assign").permutation(n_total)
    off = 0
    pool = assign[off : off + cfg.aligned_pool]
    off += cfg.aligned_pool
    extra = {}
    for k in range(1, K + 1):
        extra[k] = assign[off : off + per_party_extra]
        off += per_party_extra
    off += cfg.n_validation  # reserved rows: drawn, never used
    test_rows = assign[off : off + cfg.n_test]

    schema = cfg.schema()
    parties = {}
    scaled_num: dict[int, np.ndarray] = {}
    for k in range(1, K + 1):
        local = np.sort(np.concatenate([pool, extra[k]]))
        # min-max stats come from the party's local training rows only
        num = raw_num[k]
        scaled = np.zeros_like(num)
        for j in range(num.shape[1]):
            lo = num[local, j].min()
            hi = num[local, j].max()
            if hi > lo:
                scaled[:, j] = np.clip((num[:, j] - lo) / (hi - lo), 0.0, 1.0)
        scaled_num[k] = scaled
        cf, nf = schema.party_fields(k)
        parties[k] = PartyView(
            party_id=k,
            ids=local.astype(np.int64),
            cat=raw_cat[k][local],
            num=scaled[local],
            cat_fields=cf,
            num_fields=nf,
        )

    def make_split(rows: np.ndarray) -> AlignedSplit:
        order = np.sort(rows)
        return AlignedSplit(
            ids=order.astype(np.int64),
            cat={k: raw_cat[k][order] for k in range(1, K + 1)},
            num={k: scaled_num[k][order] for k in range(1, K + 1)},
            labels=labels[order],
            bayes_scores=posterior[order],
        )

    train = VerticalDataset(
        schema=schema,
        parties=parties,
        labels=labels[parties[1].ids],
        aligned_pool=pool.astype(np.int64),
        aligned_count=cfg.aligned_pool,
    )
    return DatasetBundle(train=train, test=make_split(test_rows))


# ---------------------------------------------------------------------------
# dataset cache

_CACHE_VERSION = 1


def save_bundle(cache_dir, bundle: DatasetBundle, meta: dict | None = None) -> None:
    """Write one .npy per array plus a JSON manifest; byte-deterministic."""
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    train = bundle.train
    arrays: dict[str, np.ndarray] = {
        "aligned_pool": train.aligned_pool,
        "labels": train.labels,
    }
    for k, view in train.parties.items():
        arrays[f"party{k}_ids"] = view.ids
        arrays[f"party{k}_cat"] = view.cat
        arrays[f"party{k}_num"] = view.num
    test = bundle.test
    arrays["test_ids"] = test.ids
    arrays["test_labels"] = test.labels
    for k in range(1, train.k_parties + 1):
        arrays[f"test_party{k}_cat"] = test.cat[k]
        arrays[f"test_party{k}_num"] = test.num[k]
    if test.bayes_scores is not None:
        arrays["test_bayes"] = test.bayes_scores
    for name, arr in sorted(arrays.items()):
        np.save(cache_dir / f"{name}.npy", arr, allow_pickle=False)
    manifest = {
        "format_version": _CACHE_VERSION,
        "k_parties": train.k_parties,
        "aligned_count": train.aligned_count,
        "arrays": sorted(arrays),
        "schema": [
            {
                "name": f.name,
                "kind": f.kind,
                "party": f.party,
                "cardinality": f.cardinality,
            }
            for f in train.schema.fields
        ],
        "party_dims": {
            str(k): {
                "categorical": len(v.cat_fields),
                "numerical": len(v.num_fields),
                "rows": v.n,
            }
            for k, v in train.parties.items()
        },
        "meta": meta or {},
    }
    (cache_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def read_json_object(path) -> dict:
    """Parse a JSON object from a file; DataError naming the file if it is not one."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: unreadable JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise DataError(f"{path}: not a JSON object")
    return obj


def _load_array(path: Path) -> np.ndarray:
    try:
        return np.load(path, allow_pickle=False)
    except (OSError, ValueError, EOFError) as exc:
        raise DataError(f"{path}: unreadable array: {exc}") from None


def load_bundle(cache_dir) -> tuple[DatasetBundle, dict]:
    """Load a cached bundle; returns (bundle, manifest).

    A missing, truncated or corrupt file, or a manifest without the keys
    and arrays it should list, raises DataError naming the file.
    """
    cache_dir = Path(cache_dir)
    manifest_path = cache_dir / "manifest.json"
    if not manifest_path.exists():
        raise DataError(f"{cache_dir}: no manifest.json, not a dataset cache")
    manifest = read_json_object(manifest_path)
    if manifest.get("format_version") != _CACHE_VERSION:
        raise DataError(
            f"{cache_dir}: cache format {manifest.get('format_version')!r} "
            f"is not supported"
        )
    try:
        return _bundle_from_cache(cache_dir, manifest), manifest
    except DataError:
        raise
    except (KeyError, TypeError, ValueError) as exc:  # ConfigError is a ValueError
        raise DataError(
            f"{manifest_path}: malformed manifest: {type(exc).__name__}: {exc}"
        ) from None


def _bundle_from_cache(cache_dir: Path, manifest: dict) -> DatasetBundle:
    listed = set(manifest["arrays"])

    def load(name: str) -> np.ndarray:
        # only what the bundle is built from; an older cache lists more
        if name not in listed:
            raise KeyError(name)
        return _load_array(cache_dir / f"{name}.npy")

    schema = FeatureSchema(
        tuple(
            Field(f["name"], f["kind"], f["party"], cardinality=f["cardinality"])
            for f in manifest["schema"]
        )
    )
    k_parties = manifest["k_parties"]
    parties = {}
    for k in range(1, k_parties + 1):
        cf, nf = schema.party_fields(k)
        parties[k] = PartyView(
            party_id=k,
            ids=load(f"party{k}_ids"),
            cat=load(f"party{k}_cat"),
            num=load(f"party{k}_num"),
            cat_fields=cf,
            num_fields=nf,
        )
    train = VerticalDataset(
        schema=schema,
        parties=parties,
        labels=load("labels"),
        aligned_pool=load("aligned_pool"),
        aligned_count=manifest["aligned_count"],
    )
    test = AlignedSplit(
        ids=load("test_ids"),
        cat={k: load(f"test_party{k}_cat") for k in range(1, k_parties + 1)},
        num={k: load(f"test_party{k}_num") for k in range(1, k_parties + 1)},
        labels=load("test_labels"),
        bayes_scores=load("test_bayes") if "test_bayes" in listed else None,
    )
    return DatasetBundle(train=train, test=test)
