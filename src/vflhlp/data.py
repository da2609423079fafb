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
from dataclasses import asdict, dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .nn import check_labels, load_checkpoint, save_checkpoint
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
        if len(held) < k_parties:
            # held lies in 1..K, so the first five empty parties (or all) are
            # within 1..len(held) + 5; no set over the whole range is needed
            empty = [k for k in range(1, min(k_parties, len(held) + 5) + 1) if k not in held]
            more = k_parties - len(held) - len(empty)
            raise ConfigError(
                f"parties without any fields: {empty}" + (f" and {more} more" if more else "")
            )

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
class AlignedBatch:
    """Fully aligned rows, every party's features plus labels: a training
    batch, a cell's gathered rows, or the test split."""

    ids: np.ndarray
    cat: dict[int, np.ndarray]
    num: dict[int, np.ndarray]
    labels: np.ndarray
    bayes_scores: np.ndarray | None = None  # generator's posterior, synthetic only

    @property
    def n(self) -> int:
        return int(self.ids.shape[0])

    def take(self, rows) -> "AlignedBatch":
        """The given rows (index array or slice), in order; bayes_scores is dropped."""
        return AlignedBatch(
            ids=self.ids[rows],
            cat={k: self.cat[k][rows] for k in self.cat},
            num={k: self.num[k][rows] for k in self.num},
            labels=self.labels[rows],
        )


@dataclass
class VerticalDataset:
    """Training-side view: per-party local tables, labels, aligned pool."""

    schema: FeatureSchema
    parties: dict[int, PartyView]
    labels: np.ndarray  # aligned with parties[1].ids
    aligned_pool: np.ndarray  # int64, seeded order; the full ID intersection

    def __post_init__(self):
        if 1 not in self.parties:
            raise DataError("party 1 (active) is required")
        if self.labels.shape != self.parties[1].ids.shape:
            raise DataError("labels must cover exactly party 1's local IDs")

    @property
    def k_parties(self) -> int:
        return len(self.parties)

    def aligned_ids(self, count: int) -> np.ndarray:
        """The first `count` IDs of the aligned pool: one cell's aligned set."""
        if not 0 < count <= self.aligned_pool.shape[0]:
            raise DataError(
                f"aligned count {count} out of range for a pool of "
                f"{self.aligned_pool.shape[0]}"
            )
        return self.aligned_pool[:count]

    def gather(self, ids: np.ndarray) -> "AlignedBatch":
        """Per-party feature rows and the labels of the given aligned IDs, in the given order."""
        ids = np.asarray(ids, dtype=np.int64)
        rows = {k: view.rows_for(ids) for k, view in self.parties.items()}
        return AlignedBatch(ids, {k: view.cat[rows[k]] for k, view in self.parties.items()},
                            {k: view.num[rows[k]] for k, view in self.parties.items()},
                            self.labels[rows[1]])


@dataclass
class DatasetBundle:
    """A training dataset plus a fully aligned test split."""

    train: VerticalDataset
    test: AlignedBatch


def hold_out(
    pool: AlignedBatch, fraction: float, rng: np.random.Generator
) -> tuple[AlignedBatch, AlignedBatch | None]:
    """(train, val): the pool's rows in the order of one `rng` permutation, the
    first round(fraction * n) held out for validation (val None when that is
    no row). DataError when no training row is left."""
    n_val = int(round(fraction * pool.n))
    perm = rng.permutation(pool.n)
    if n_val == pool.n:
        raise DataError(f"no training rows left after holding out {n_val} of {pool.n} rows "
                        f"(val_fraction {fraction})")
    return pool.take(perm[n_val:]), pool.take(perm[:n_val]) if n_val else None


def sample_aligned_batches(
    pool: AlignedBatch, batch_size: int, rng: np.random.Generator
) -> list[tuple[tuple[dict, dict, np.ndarray], int]]:
    """One epoch of shuffled mini-batches over a trainer's rows, gathered once:
    ((cat, num, labels), rows) pairs, the triple as `forward_backward` takes it.

    The epoch is one fancy index of each of the pool's arrays by one `rng`
    permutation, and its batches are row slices of that. The final short batch
    is kept, so every row appears exactly once per epoch.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if pool.n == 0:
        raise DataError("aligned set is empty")
    perm = rng.permutation(pool.n)

    def cut(arr: np.ndarray) -> list[np.ndarray]:
        arr = arr[perm]
        return [arr[i : i + batch_size] for i in range(0, perm.size, batch_size)]

    def per_batch(blocks: dict) -> map:
        # each batch's {party: rows} dict, built by zip and map in C: no call per batch
        return map(dict, zip(*[zip(repeat(k), cut(blocks[k])) for k in blocks]))

    labels = cut(pool.labels)
    return list(zip(zip(per_batch(pool.cat), per_batch(pool.num), labels), map(len, labels)))


# ---------------------------------------------------------------------------
# CSV ingestion


@dataclass
class Table:
    """A centralized table holding every schema column, pre-partition."""

    ids: np.ndarray
    cat: np.ndarray  # columns follow schema's categorical fields in order
    num: np.ndarray  # columns follow schema's numerical fields in order
    labels: np.ndarray  # float64, each 0 or 1
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


def _min_max(values: np.ndarray, lo, hi) -> np.ndarray:
    """`values` min-max scaled by `lo` and `hi` (scalars or per-column arrays)
    into [0, 1]; outside values clamp, and a column with hi == lo maps to 0."""
    out = np.divide(values - lo, hi - lo, out=np.zeros_like(values), where=hi > lo)
    return np.clip(out, 0.0, 1.0, out=out)


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
            twice = [c for c in needed if reader.fieldnames.count(c) > 1]
            if twice:  # DictReader would keep the last of them
                raise DataError(f"{path}: the header names columns {twice} more than once")
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


def _parse_column(path, rows, column: str, dtype, what: str) -> np.ndarray:
    """One CSV column in `dtype` (int64 by `int`, float64 by `float`), parsed
    cell by cell; DataError naming the line and cell of the first cell that
    does not parse or does not fit, `what` naming the column in the message."""
    parse, kind = (int, "a 64-bit integer") if dtype == np.int64 else (float, "a number")
    out = np.empty(len(rows), dtype)
    for i, row in enumerate(rows):
        try:
            out[i] = parse(row[column])
        except (ValueError, OverflowError):  # an int outside int64 overflows
            raise DataError(f"{path}:{i + 2}: {what} {row[column]!r} is not {kind}") from None
    return out


def _first_flagged(path, rows, column: str, flagged: np.ndarray, describe) -> None:
    """DataError at the line of the first row that the vectorized check
    `flagged` marks, `describe(cell)` saying what is wrong with its cell."""
    bad = np.flatnonzero(flagged)
    if bad.size:
        i = int(bad[0])
        raise DataError(f"{path}:{i + 2}: {describe(rows[i][column])}")


def read_csv(
    path, schema: FeatureSchema, id_column: str, label_column: str,
    encoder: TableEncoder | None = None,
) -> tuple[Table, TableEncoder]:
    """The one CSV reader: parse, fit an encoder if none is given, then encode.

    A training CSV comes in without an encoder and fits one: vocabularies index
    observed values in sorted order starting at 1, and the schema's declared
    cardinalities are checked against the observed counts. An evaluation CSV
    comes in with the training file's encoder, and its unseen categories map to
    0. On the rows it was fitted on, min-max scaling is in [0, 1] and never clamps.

    A file's first fault is reported, by stage (IDs, vocabularies, numbers, labels,
    a number column's range) and, within a column, an unparsable cell first."""
    cat_fields = tuple(f for f in schema.fields if f.kind == CATEGORICAL)
    num_fields = tuple(f for f in schema.fields if f.kind == NUMERICAL)
    rows = _read_rows(path, [id_column] + [f.name for f in schema.fields] + [label_column])
    ids = _parse_column(path, rows, id_column, np.int64, "ID")
    repeated = np.ones(len(rows), bool)
    repeated[np.unique(ids, return_index=True)[1]] = False  # each ID's first row
    _first_flagged(path, rows, id_column, repeated, lambda cell: f"duplicate ID {cell}")
    cat_values = [[row[f.name] for row in rows] for f in cat_fields]
    if encoder is None:
        vocab = {}
        for f, values in zip(cat_fields, cat_values):
            mapping = {v: i + 1 for i, v in enumerate(sorted(set(values)))}
            if len(mapping) + 1 > f.cardinality:
                raise DataError(
                    f"{path}: field {f.name!r}: observed {len(mapping)} values, which needs "
                    f"cardinality {len(mapping) + 1} but schema declares {f.cardinality}"
                )
            vocab[f.name] = mapping
    raw_num = []
    for f in num_fields:
        raw_num.append(_parse_column(path, rows, f.name, np.float64, f"field {f.name!r}:"))
        # one nan or inf would turn the whole min-max scaled column to nan
        _first_flagged(path, rows, f.name, ~np.isfinite(raw_num[-1]),
                       lambda cell: f"field {f.name!r}: {cell!r} is not a finite number")
    labels = _parse_column(path, rows, label_column, np.float64, "label")
    _first_flagged(path, rows, label_column, (labels != 0.0) & (labels != 1.0),
                   lambda cell: f"label must be 0 or 1, got {cell!r}")
    if encoder is None:
        stats = {f.name: (float(r.min()), float(r.max())) for f, r in zip(num_fields, raw_num)}
        for name, (lo, hi) in stats.items():  # an inf range scales a column to 0 and nan
            if np.isinf(hi - lo):
                raise DataError(f"{path}: field {name!r}: range {lo!r} to {hi!r} overflows")
        encoder = TableEncoder(vocab=vocab, num_stats=stats)
    vocabs = [encoder.vocab[f.name] for f in cat_fields]
    cat_cols = [np.array([v.get(x, 0) for x in values], dtype=np.int64)
                for v, values in zip(vocabs, cat_values)]
    num_cols = [_min_max(r, *encoder.num_stats[f.name]) for f, r in zip(num_fields, raw_num)]
    table = Table(
        ids=ids,
        cat=np.stack(cat_cols, axis=1) if cat_cols else np.zeros((len(rows), 0), np.int64),
        num=np.stack(num_cols, axis=1) if num_cols else np.zeros((len(rows), 0)),
        labels=labels,
        cat_fields=cat_fields,
        num_fields=num_fields,
    )
    return table, encoder


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
    order: np.ndarray,
) -> VerticalDataset:
    """Split a centralized table into K party views.

    `order` holds the table rows to use, in their seeded order. Its first
    aligned_count rows are the aligned pool; the rest are dealt out
    disjointly across parties as their private unaligned samples, so the ID
    intersection of all parties is exactly the aligned pool.
    """
    schema.validate_parties(k_parties)
    n = order.shape[0]
    if not 0 < aligned_count <= n:
        raise DataError(f"aligned_count {aligned_count} out of range for {n} rows")
    pool_rows = order[:aligned_count]
    chunks = np.array_split(order[aligned_count:], k_parties)

    parties = {}
    for k in range(1, k_parties + 1):
        local_rows = np.concatenate([pool_rows, chunks[k - 1]])
        local_rows = local_rows[np.argsort(table.ids[local_rows], kind="stable")]
        if k == 1:
            labels = table.labels[local_rows]  # aligned with party 1's sorted IDs
        cat, num, cf, nf = _party_columns(table, schema, k, local_rows)
        parties[k] = PartyView(
            party_id=k,
            ids=table.ids[local_rows],
            cat=cat,
            num=num,
            cat_fields=cf,
            num_fields=nf,
        )
    return VerticalDataset(
        schema=schema,
        parties=parties,
        labels=labels,
        aligned_pool=table.ids[pool_rows],
    )


def split_from_table(
    table: Table, schema: FeatureSchema, k_parties: int, rows: np.ndarray
) -> AlignedBatch:
    """The given table rows, in order, as a fully aligned evaluation split."""
    cat, num = {}, {}
    for k in range(1, k_parties + 1):
        cat[k], num[k], _, _ = _party_columns(table, schema, k, rows)
    return AlignedBatch(ids=table.ids[rows], cat=cat, num=num, labels=table.labels[rows])


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
        for name in ("num_fields_per_party", "cat_fields_per_party"):
            if min(getattr(self, name)) < 0:
                raise ConfigError(f"{name} entries must be >= 0")
        if self.aligned_pool > self.n_local:
            raise ConfigError("aligned_pool cannot exceed n_local")
        if self.aligned_pool < 1:
            raise ConfigError("aligned_pool must be >= 1")
        if self.n_validation < 0:
            raise ConfigError("n_validation must be >= 0")
        if self.n_test < 1:
            raise ConfigError("n_test must be >= 1")
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
    """Generate a DatasetBundle; pure function of (cfg, seed).

    All rows are drawn as one table and split by `vertical_partition`. Each
    party's numerical columns are then min-max scaled by the range of its
    local training rows, in its view and in the test split alike.
    """
    K = cfg.k_parties
    n_train = cfg.aligned_pool + K * (cfg.n_local - cfg.aligned_pool)
    n_total = n_train + cfg.n_validation + cfg.n_test
    schema = cfg.schema()
    cat_fields = tuple(f for f in schema.fields if f.kind == CATEGORICAL)
    num_fields = tuple(f for f in schema.fields if f.kind == NUMERICAL)
    try:
        cat = np.empty((n_total, len(cat_fields)), dtype=np.int64)
        num = np.empty((n_total, len(num_fields)))
        rng = stream(seed, "synth")

        latents = rng.standard_normal((n_total, K))
        c = m = 0  # next categorical and numerical column
        for k in range(K):
            u = latents[:, k]
            for _ in range(cfg.num_fields_per_party[k]):
                num[:, m] = u + cfg.feature_noise * rng.standard_normal(n_total)
                m += 1
            for _ in range(cfg.cat_fields_per_party[k]):
                noisy = u + cfg.feature_noise * rng.standard_normal(n_total)
                cat[:, c] = _quantile_buckets(noisy, cfg.cardinality - 1)
                c += 1

        v = np.asarray(cfg.party_signal, dtype=np.float64)
        norm = np.linalg.norm(v)
        if norm == 0:
            logit_parts = np.zeros((n_total, K))
        else:
            logit_parts = latents * (v / norm) / cfg.label_noise
        logits = logit_parts.sum(axis=1)
        posterior = 1.0 / (1.0 + np.exp(-logits))
        labels = (rng.uniform(size=n_total) < posterior).astype(np.float64)

        table = Table(
            ids=np.arange(n_total, dtype=np.int64),
            cat=cat,
            num=num,
            labels=labels,
            cat_fields=cat_fields,
            num_fields=num_fields,
        )
    except MemoryError:
        raise ConfigError(
            f"data.synth: not enough memory to draw its table of {n_total} rows x "
            f"{len(cat_fields) + len(num_fields)} columns"
        ) from None
    # the n_validation rows after the training rows are drawn and never used
    order = stream(seed, "synth", "assign").permutation(n_total)
    train = vertical_partition(table, schema, K, cfg.aligned_pool, order[:n_train])
    test = split_from_table(table, schema, K, np.sort(order[n_train + cfg.n_validation :]))
    test.bayes_scores = posterior[test.ids]
    for k, view in train.parties.items():
        lo, hi = view.num.min(axis=0), view.num.max(axis=0)
        view.num = _min_max(view.num, lo, hi)
        test.num[k] = _min_max(test.num[k], lo, hi)
    return DatasetBundle(train=train, test=test)


# ---------------------------------------------------------------------------
# dataset cache

CACHE_FILE = "dataset.ckpt"
_CACHE_VERSION = 2


def save_bundle(cache_dir, bundle: DatasetBundle, meta: dict | None = None) -> None:
    """Write the bundle as one checkpoint, cache_dir/dataset.ckpt; byte-deterministic."""
    train, test = bundle.train, bundle.test
    tensors: dict[str, np.ndarray] = {
        "aligned_pool": train.aligned_pool,
        "labels": train.labels,
        "test_ids": test.ids,
        "test_labels": test.labels,
    }
    for k, view in train.parties.items():
        tensors[f"party{k}_ids"] = view.ids
        tensors[f"party{k}_cat"] = view.cat
        tensors[f"party{k}_num"] = view.num
        tensors[f"test_party{k}_cat"] = test.cat[k]
        tensors[f"test_party{k}_num"] = test.num[k]
    if test.bayes_scores is not None:
        tensors["test_bayes"] = test.bayes_scores
    metadata = {
        "format_version": _CACHE_VERSION,
        "k_parties": train.k_parties,
        "aligned_count": train.aligned_pool.size,  # checked on load
        "schema": [asdict(f) for f in train.schema.fields],
        "meta": meta or {},
    }
    save_checkpoint(Path(cache_dir) / CACHE_FILE, tensors, metadata)


def read_json_object(path, error: type[Exception] = DataError) -> dict:
    """The JSON object in a file; `error` naming the file if it is missing or
    unreadable, not UTF-8, not JSON (or nested past the decoder) or no object."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise error(f"{path}: file not found") from None
    except OSError as exc:
        raise error(f"{path}: cannot read: {exc.strerror or exc}") from None
    except (ValueError, RecursionError) as exc:  # JSON and UTF-8 errors are ValueErrors
        raise error(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise error(f"{path}: not a JSON object")
    return obj


def load_bundle(cache_dir) -> tuple[DatasetBundle, dict]:
    """Load what save_bundle wrote; returns (bundle, checkpoint metadata).

    A missing, truncated or corrupt file, or one without the tensors and
    metadata keys a bundle is built from, raises DataError naming the file.
    """
    path = Path(cache_dir) / CACHE_FILE
    tensors, metadata = load_checkpoint(path)
    if metadata.get("format_version") != _CACHE_VERSION:
        raise DataError(
            f"{path}: cache format {metadata.get('format_version')!r} is not supported"
        )
    try:
        return _bundle_from_cache(tensors, metadata), metadata
    except (KeyError, TypeError, ValueError) as exc:  # DataError and ConfigError too
        raise DataError(
            f"{path}: malformed dataset cache: {type(exc).__name__}: {exc}"
        ) from None


def _bundle_from_cache(tensors: dict[str, np.ndarray], metadata: dict) -> DatasetBundle:
    schema = FeatureSchema(tuple(Field(**f) for f in metadata["schema"]))
    k_parties = metadata["k_parties"]
    parties = {}
    for k in range(1, k_parties + 1):
        cf, nf = schema.party_fields(k)
        parties[k] = PartyView(
            party_id=k,
            ids=tensors[f"party{k}_ids"],
            cat=tensors[f"party{k}_cat"],
            num=tensors[f"party{k}_num"],
            cat_fields=cf,
            num_fields=nf,
        )
    train = VerticalDataset(
        schema=schema,
        parties=parties,
        labels=check_labels(tensors["labels"]),
        aligned_pool=tensors["aligned_pool"],
    )
    if metadata["aligned_count"] != train.aligned_pool.size:
        raise DataError(f"aligned_count is not the pool size {train.aligned_pool.size}")
    test = AlignedBatch(
        ids=tensors["test_ids"],
        cat={k: tensors[f"test_party{k}_cat"] for k in range(1, k_parties + 1)},
        num={k: tensors[f"test_party{k}_num"] for k in range(1, k_parties + 1)},
        labels=check_labels(tensors["test_labels"]),
        bayes_scores=tensors.get("test_bayes"),
    )
    blocks = {"test_labels": (test.labels, (test.n,))}
    for k, view in parties.items():
        blocks[f"test_party{k}_cat"] = (test.cat[k], (test.n, len(view.cat_fields)))
        blocks[f"test_party{k}_num"] = (test.num[k], (test.n, len(view.num_fields)))
    for name, (block, shape) in blocks.items():
        if block.shape != shape:
            raise DataError(f"{name} has shape {block.shape}, not {shape}: one row per test ID")
    return DatasetBundle(train=train, test=test)
