"""Exception types shared across the simulator, and ``naming``, the one place that
puts an input file's path into an error message."""

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
