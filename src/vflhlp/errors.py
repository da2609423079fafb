"""Exception types shared across the package.

The CLI maps these to exit codes: ConfigError -> 2, DataError -> 3,
TrainingError -> 4, and a MemoryError (a config too large for the
process) -> 2 as well; an interrupt (SIGINT) exits 130. Everything else
is a bug and escapes as-is.
"""
import contextlib
import signal
import threading


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


@contextlib.contextmanager
def sigint_held():
    """Hold SIGINT back in the block and raise one that came meanwhile once it
    ends (POSIX). The calling thread blocks it, so a process spawned in the
    block keeps it blocked for life; in the main thread a stand-in handler
    records one that the kernel hands to another thread (OpenBLAS's, say)."""
    handler, caught = signal.getsignal(signal.SIGINT), []
    swap = callable(handler) and threading.current_thread() is threading.main_thread()
    if swap:
        signal.signal(signal.SIGINT, lambda *args: caught.append(args))
    blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        yield
    finally:  # unmasked first, so that a SIGINT pending here is recorded too
        signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
        if swap:
            signal.signal(signal.SIGINT, handler)
        if caught:
            handler(*caught[0])  # a KeyboardInterrupt, for Python's own handler
