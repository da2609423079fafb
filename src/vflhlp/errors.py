"""Exception types shared across the package.

The CLI maps these to exit codes: ConfigError -> 2, DataError -> 3,
TrainingError -> 4, and a MemoryError (a config too large for the
process) -> 2 as well; an interrupt (SIGINT) exits 130. Everything else
is a bug and escapes as-is.
"""


class ConfigError(ValueError):
    """Bad or inconsistent run configuration."""


class DataError(ValueError):
    """Problem with input data: files, schemas, IDs, labels."""


class SchemaError(DataError):
    """Shape or field mismatch between data and a model."""


class TrainingError(RuntimeError):
    """Training failed: divergence, non-finite values, missing weights."""


class UndefinedMetricError(DataError):
    """Metric has no defined value, e.g. AUC on single-class labels: the
    split cannot be scored, so it is a data error."""
