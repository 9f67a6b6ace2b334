"""Exception types shared across the simulator; ``naming``, the one place that puts
an input file's path into an error message; and ``within``, the one place that puts
the dc, row, line, task or section an error arose in before its message."""

import csv
from contextlib import contextmanager


class SimulationError(Exception):
    """Base class for all simulator-specific errors."""


class DataFormatError(SimulationError):
    """A file does not match its documented structure (missing columns, bad JSON shape)."""


class DataError(SimulationError):
    """A file parsed but its contents violate an invariant (bad values, gaps, duplicates)."""


class CoverageError(SimulationError):
    """A time-series query fell outside the loaded window."""


class ConfigError(SimulationError):
    """Invalid or inconsistent configuration."""


class ProtocolError(SimulationError):
    """The caller violated the step/reset interface contract."""


@contextmanager
def naming(path):
    """Put ``path: `` before the message of a simulator error raised inside, keeping
    its type. Bytes that are no text, and a CSV the csv module cannot split, are a
    ``DataFormatError`` naming the file."""
    try:
        yield
    except SimulationError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


class within:
    """Re-raise a ``ValueError``, ``TypeError``, ``OverflowError``,
    ``ZeroDivisionError`` or simulator error raised inside as one ``kind`` error
    reading ``context: <message>``, or the message alone when ``context`` is ``None``.
    A ``KeyError`` and any other exception pass unchanged. A class, as a generator
    context manager costs about three times as much to enter, and set-up enters this
    one for each site, series and table row."""

    def __init__(self, context, kind=ConfigError):
        self.context, self.kind = context, kind

    def __enter__(self):
        return self

    def __exit__(self, _type, exc, _traceback):
        if isinstance(exc, (ValueError, TypeError, OverflowError, ZeroDivisionError,
                            SimulationError)):
            message = str(exc) if self.context is None else f"{self.context}: {exc}"
            raise self.kind(message) from exc
