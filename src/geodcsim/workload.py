"""Task records, trace ingestion, origin assignment, and synthetic trace generation.

The canonical trace format is line-delimited JSON, one task per line. In memory a
trace is a ``Trace``: one column per ``TaskSpec`` field, its rows in arrival order;
each task's ``arrival_us`` is the step it arrives at. Resource demands are absolute
units (cores, GPU units, GB). Tasks shorter than 15 minutes are rejected because the
simulation cannot resolve them.

A task holds its instants (arrival, deadline, start, completion) as integer
microseconds since the Unix epoch in UTC, so that the step loop compares and adds
ints; ``to_us`` and ``from_us`` convert at the edges that read or write a
``datetime``. A float of minutes becomes microseconds as ``timedelta(minutes=x)``
rounds it: ``minutes_to_us`` is that rule over an array.
"""

from __future__ import annotations

import json
import math
import numbers
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from datetime import datetime, timedelta, timezone
from enum import Enum
from functools import partial
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, naming, within
from .floats import checked, parsed

STEP = timedelta(minutes=15)  # the simulation's one time grid
MIN_DURATION_MIN = STEP / timedelta(minutes=1)  # one step: shorter tasks cannot be resolved

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_US = timedelta(microseconds=1)
STEP_US = STEP // _US
US_PER_MIN = timedelta(minutes=1) // _US


def to_us(dt: datetime) -> int:
    """Aware ``dt`` as integer microseconds since the Unix epoch (UTC)."""
    return (dt - _EPOCH) // _US


def from_us(us: int) -> datetime:
    """The UTC ``datetime`` ``us`` microseconds after the Unix epoch."""
    return _EPOCH + timedelta(microseconds=us)


# The first and last instants a datetime holds, 0001-01-01 and 9999-12-31T23:59:59.999999
# in UTC, and the most minutes between them: an offset past that overflows any date.
MIN_US = to_us(datetime.min.replace(tzinfo=timezone.utc))
MAX_US = to_us(datetime.max.replace(tzinfo=timezone.utc))
MAX_OFFSET_MIN = (MAX_US - MIN_US) / US_PER_MIN

DEFAULT_SLA_MULTIPLIER = 1.5

# Largest data volume of one task (1 PB): its transfer over the slowest link a delay
# table may hold (network.MIN_THROUGHPUT_MBPS) still takes a finite time.
MAX_BANDWIDTH_GB = 1e6

BUSINESS_HOURS = range(8, 20)
OFF_HOURS_ACTIVITY = 0.3


class TaskStatus(Enum):
    PENDING = "pending"
    IN_TRANSIT = "in_transit"
    RUNNING = "running"
    COMPLETED = "completed"


# Each member bound once, as reading one off the Enum class costs about 0.1 µs, and
# its allowed successors a tuple on the member itself: a dict or a set keyed by a
# status would call Enum's Python-level __hash__ at every transition.
PENDING, IN_TRANSIT, RUNNING, COMPLETED = TaskStatus
PENDING.successors = (IN_TRANSIT, RUNNING)
IN_TRANSIT.successors = (PENDING,)
RUNNING.successors = (COMPLETED,)
COMPLETED.successors = ()


def _require_utc(dt: datetime, what: str) -> datetime:
    if dt.tzinfo is None:
        raise ValueError(f"{what} must be timezone-aware UTC")
    return dt.astimezone(timezone.utc)


def _packed(typecode: str, values: np.ndarray) -> array:
    """A numpy column copied, as bytes, into an ``array`` of ``typecode``."""
    return array(typecode, values.tobytes())


def _floats(values):
    """A column of a float field: an ``array('d')`` when each value is a float, and
    otherwise a list, so that each keeps its type."""
    return array("d", values) if all(type(v) is float for v in values) else list(values)


_ints = partial(array, "q")


def _traced(column, domain=None, **kwargs):
    """A ``Task`` field that a trace holds: ``column`` makes its trace column from its
    values, and a number's ``domain`` is its (floor, ceiling)."""
    return field(metadata={"column": column, "domain": domain}, **kwargs)


@dataclass(slots=True)
class Task:
    """One schedulable job: resource demands, origin, SLA state, lifecycle status. Its
    first eleven fields, declared ``_traced``, are what a trace holds of it."""

    job_id: str = _traced(list)
    arrival_us: int = _traced(_ints)  # each instant in integer µs since the Unix epoch (UTC)
    duration_min: float = _traced(_floats, (MIN_DURATION_MIN, math.inf))
    cores_req: float = _traced(_floats, (0.0, math.inf))
    gpu_req: float = _traced(_floats, (0.0, math.inf))
    mem_req: float = _traced(_floats, (0.0, math.inf))
    bandwidth_gb: float = _traced(_floats, (0.0, MAX_BANDWIDTH_GB))
    sla_multiplier: float = _traced(_floats, (1.0, math.inf), default=DEFAULT_SLA_MULTIPLIER)
    origin_dc_id: int | None = _traced(list, default=None)
    deadline_us: int = _traced(_ints, init=False)
    duration_us: int = _traced(_ints, init=False)  # duration_min in microseconds
    dest_dc_id: int | None = None
    status: TaskStatus = PENDING
    start_us: int | None = None
    completion_us: int | None = None

    def __post_init__(self):
        with within(f"task {self.job_id}", ValueError):
            self.arrival_us = checked(self.arrival_us, "arrival_us", MIN_US, MAX_US, kind=int)
        if self.arrival_us % STEP_US:
            raise ValueError(
                f"task {self.job_id}: arrival_time {from_us(self.arrival_us).isoformat()} "
                "is not aligned to the 15-minute grid"
            )
        for name, (floor, ceiling) in _DOMAINS.items():
            try:
                value = checked(getattr(self, name), name, floor)
            except ValueError:  # one wording, whatever is wrong with the number
                raise ValueError(f"task {self.job_id}: {name} must be >= {floor:g} and finite") from None
            if value > ceiling:
                raise ValueError(f"task {self.job_id}: {name} must be <= {ceiling:g}")
        try:
            self.deadline_us = compute_sla_deadline(self.arrival_us, self.duration_min,
                                                    self.sla_multiplier)
        except OverflowError as exc:
            raise ValueError(f"task {self.job_id}: duration_min {self.duration_min} "
                             "times sla_multiplier overflows the deadline") from exc
        # no overflow: sla_multiplier >= 1, so the duration is at most the deadline's offset
        self.duration_us = timedelta(minutes=self.duration_min) // _US

    def spec(self) -> TaskSpec:
        """This task's first eleven fields, as a trace holds them."""
        return TaskSpec._make(_columns(self))

    def set_status(self, new: TaskStatus) -> None:
        if new not in self.status.successors:
            raise ValueError(
                f"task {self.job_id}: illegal status transition "
                f"{self.status.value} -> {new.value}"
            )
        self.status = new


def _pending_task(row) -> Task:
    """A pending ``Task`` of a spec's eleven fields, in ``TaskSpec``'s order, built
    without the checks they passed."""
    task = object.__new__(Task)
    (task.job_id, task.arrival_us, task.duration_min, task.cores_req, task.gpu_req,
     task.mem_req, task.bandwidth_gb, task.sla_multiplier, task.origin_dc_id,
     task.deadline_us, task.duration_us) = row
    task.dest_dc_id = None
    task.status = PENDING
    task.start_us = None
    task.completion_us = None
    return task


_TRACED = [f for f in fields(Task) if "column" in f.metadata]
# a task's numbers, in the order of a trace record and of ResourceRanges, and the
# (floor, ceiling) of each
_DOMAINS = {f.name: f.metadata["domain"] for f in _TRACED if f.metadata["domain"]}


class TaskSpec(NamedTuple("TaskSpec", [(f.name, f.type) for f in _TRACED])):
    """A trace's entry: a checked task's first eleven fields, immutable. Each episode
    injects a new ``Task`` built from it (``TaskSpec.task``)."""

    __slots__ = ()
    task = _pending_task


_columns = attrgetter(*TaskSpec._fields)


class Trace(Sequence):
    """A trace stored as columns: one per ``TaskSpec`` field and named after it, each
    in arrival order, and file order within one arrival. Indexing or iterating gives
    ``TaskSpec`` rows; ``tasks`` builds an episode's ``Task``s from a slice of them.

    The instants are ``array('q')`` columns and the float fields ``array('d')`` ones,
    so that an item reads back as an ``int`` or a ``float``, never a numpy scalar; a
    float field holding an int, a synthetic trace's constant range, ``job_id`` and
    ``origin_dc_id`` are lists. A trace has no method that changes it, and an
    environment keeps the one it is given."""

    __slots__ = TaskSpec._fields

    def __init__(self, *columns):
        """A trace of eleven equally long columns in ``TaskSpec``'s field order, whose
        arrivals never decrease; ``from_specs`` builds one from rows."""
        for name, column in zip(TaskSpec._fields, columns, strict=True):
            setattr(self, name, column)
        if len({len(column) for column in columns}) > 1:
            raise ValueError("trace columns must be equally long")
        if (np.diff(np.frombuffer(self.arrival_us, dtype=np.int64)) < 0).any():
            raise ValueError("a trace's arrivals must be in order")

    @classmethod
    def from_specs(cls, specs) -> Trace:
        """The trace of an iterable of ``TaskSpec``s, sorted by arrival: stable, so their
        order is kept among those sharing one."""
        rows = sorted(specs, key=attrgetter("arrival_us"))
        columns = list(zip(*rows)) or [()] * len(TaskSpec._fields)
        return cls(*(f.metadata["column"](column) for f, column in zip(_TRACED, columns)))

    def __len__(self) -> int:
        return len(self.arrival_us)

    def __getitem__(self, index):
        """Row ``index`` as a ``TaskSpec``, or the trace of a slice's rows."""
        if isinstance(index, slice):
            return Trace(*(column[index] for column in _columns(self)))
        return TaskSpec._make(column[index] for column in _columns(self))

    def __iter__(self):
        return map(TaskSpec, *_columns(self))

    def __eq__(self, other):
        """Row by row, against a trace or a list of specs."""
        if isinstance(other, (Trace, list)):
            return list(self) == list(other)
        return NotImplemented

    def step_rows(self, start_us: int, steps: int) -> list[tuple[int, int]]:
        """The rows of each of ``steps`` steps from ``start_us`` on, ``(lo, hi)``: those
        whose arrival is the step's instant."""
        instants = start_us + STEP_US * np.arange(steps, dtype=np.int64)
        arrivals = np.frombuffer(self.arrival_us, dtype=np.int64)
        return list(zip(np.searchsorted(arrivals, instants, "left").tolist(),
                        np.searchsorted(arrivals, instants, "right").tolist()))

    def tasks(self, lo: int, hi: int) -> list[Task]:
        """A new pending ``Task`` for each row of ``lo:hi``, in trace order."""
        if lo == hi:  # a step without arrivals: slicing eleven empty columns costs µs
            return []
        return list(map(_pending_task, zip(*[column[lo:hi] for column in _columns(self)])))


def compute_sla_deadline(arrival_us: int, duration_min: float, sla_multiplier: float) -> int:
    """Deadline rule: arrival + sla_multiplier * duration, in microseconds; an
    ``OverflowError`` past the last date, as ``datetime`` addition raises."""
    deadline_us = arrival_us + timedelta(minutes=sla_multiplier * duration_min) // _US
    if deadline_us > MAX_US:
        raise OverflowError("date value out of range")
    return deadline_us


def minutes_to_us(minutes: np.ndarray) -> np.ndarray:
    """Each float of ``minutes`` as int64 microseconds, rounded as ``timedelta(minutes=x)``
    rounds it (CPython's ``delta_new``): ``modf`` splits off the whole minutes, which
    convert exactly; ``modf`` splits ``60000000.0 * fraction`` again, and its leftover,
    below one microsecond, rounds half away from zero, or at exactly one half to the
    even total. An ``OverflowError`` when a value is not finite or past
    ``MAX_OFFSET_MIN``, where int64 could overflow and no date fits."""
    if not (np.abs(minutes) <= MAX_OFFSET_MIN).all():
        raise OverflowError("date value out of range")
    whole = np.trunc(minutes)
    scaled = (minutes - whole) * float(US_PER_MIN)
    part = np.trunc(scaled)
    leftover = scaled - part
    us = whole.astype(np.int64) * US_PER_MIN + part.astype(np.int64)
    size = np.abs(leftover)
    away = np.where(size < 0.5, 0, np.sign(leftover)).astype(np.int64)
    half = size == 0.5
    away[half] *= us[half] & 1
    return us + away


def _trace_number(job_id: str, key: str, value) -> float:
    """A trace field as a float: a JSON number or numeric text; ``Task`` checks its range."""
    if isinstance(value, float):
        return value
    try:
        return (parsed if isinstance(value, str) else checked)(value, key)
    except ValueError:
        raise ValueError(f"task {job_id}: {key} must be a number, got {json.dumps(value)}") from None


def _trace_arrival(job_id: str, value) -> int:
    """A trace arrival time, an ISO 8601 date-time string with an offset, in microseconds."""
    if isinstance(value, str):
        try:
            arrival = datetime.fromisoformat(value)
        except ValueError:
            pass
        else:
            with within(f"task {job_id}", ValueError):  # UTC before year 1 overflows
                return to_us(_require_utc(arrival, "arrival_time"))
    raise ValueError(
        f"task {job_id}: arrival_time must be an ISO 8601 date-time, got {json.dumps(value)}")


def _trace_origin(job_id: str, value) -> int | None:
    """A trace origin: a JSON integer or null, so that ``true`` cannot match dc 1."""
    if value is None or (isinstance(value, int) and not isinstance(value, bool)):
        return value
    raise ValueError(
        f"task {job_id}: origin_dc_id must be an integer or null, got {json.dumps(value)}")


def _trace_job_id(value) -> str:
    """A trace job id: a JSON string, or an integer read as its decimal text."""
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    raise ValueError(f"job_id must be a string or an integer, got {json.dumps(value)}")


def load_trace(path) -> Trace:
    """Load a JSONL trace as the ``Trace`` of its tasks sorted by arrival, in file order
    within one; each task passes ``Task``'s checks."""
    specs = []
    with naming(path), open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"line {lineno}: invalid JSON") from exc
            except ValueError as exc:  # an integer past Python's int digit limit
                raise DataError(f"line {lineno}: unreadable value: {exc}") from exc
            if not isinstance(rec, dict):
                raise DataError(f"line {lineno}: a task must be a JSON object, "
                                f"got {json.dumps(rec)}")
            try:
                with within(f"line {lineno}", DataError):
                    job_id = _trace_job_id(rec["job_id"])
                    rec.setdefault("sla_multiplier", DEFAULT_SLA_MULTIPLIER)
                    task = Task(
                        job_id=job_id,
                        arrival_us=_trace_arrival(job_id, rec["arrival_time"]),
                        **{key: _trace_number(job_id, key, rec[key]) for key in _DOMAINS},
                        origin_dc_id=_trace_origin(job_id, rec.get("origin_dc_id")),
                    )
            except KeyError as exc:
                raise DataError(f"line {lineno}: missing field {exc.args[0]!r}") from exc
            specs.append(task.spec())
    return Trace.from_specs(specs)


def first_unknown_origin(trace: Trace, dc_ids) -> TaskSpec | None:
    """The first task of ``trace``, in trace order, whose explicit origin is not in ``dc_ids``."""
    index = next((i for i, origin in enumerate(trace.origin_dc_id)
                  if origin is not None and origin not in dc_ids), None)
    return None if index is None else trace[index]


def save_trace(tasks, path) -> None:
    """Write tasks or specs back to the JSONL trace format (lifecycle state excluded)."""
    with open(path, "w") as fh:
        for t in tasks:
            rec = {"job_id": t.job_id, "arrival_time": from_us(t.arrival_us).isoformat()}
            rec.update((k, getattr(t, k)) for k in (*_DOMAINS, "origin_dc_id"))
            fh.write(json.dumps(rec) + "\n")


def origin_probabilities(dcs, utc_now: datetime) -> np.ndarray:
    """Normalized origin-sampling distribution over data centers.

    ``dcs`` is a sequence of (dc_id, timezone_shift_h, population_weight > 0). Each
    site's score is its population weight scaled by an activity factor of 1.0
    during local business hours (08-20) and 0.3 otherwise. Scores whose sum is not
    a positive float (weights summing past the largest float) are a ``ConfigError``.
    """
    if not dcs:
        raise ValueError("at least one data center is required")
    utc_now = _require_utc(utc_now, "utc_now")
    scores = []
    for _, shift_h, weight in dcs:
        local_hour = (utc_now + timedelta(hours=shift_h)).hour
        activity = 1.0 if local_hour in BUSINESS_HOURS else OFF_HOURS_ACTIVITY
        scores.append(weight * activity)
    scores = np.asarray(scores, dtype=np.float64)
    total = scores.sum()
    if not 0.0 < total < math.inf:
        raise ConfigError(f"population weights: their activity-scaled sum is {total}, "
                          "not a positive finite float")
    return scores / total


def origin_table(dcs, utc_now: datetime) -> tuple[list[int], list[float]]:
    """The site ids of ``dcs`` and their cumulative origin distribution at ``utc_now``,
    built as ``Generator.choice(p=...)`` builds it: the running sum of
    ``origin_probabilities``, divided by its last element."""
    cdf = origin_probabilities(dcs, utc_now).cumsum()
    cdf /= cdf[-1]
    return [int(dc[0]) for dc in dcs], cdf.tolist()


def assign_task_origins(tasks, ids, cdf, rng: np.random.Generator) -> None:
    """Give each task an origin from ``origin_table``'s ``ids`` and ``cdf``: one
    ``rng.random()`` draw per task, placed in the table where ``Generator.choice``
    places it (``searchsorted(side="right")``). The origins and the stream after them
    are those of ``Generator.choice(ids, size=len(tasks), p=probabilities)``."""
    for task, u in zip(tasks, rng.random(len(tasks)).tolist()):
        task.origin_dc_id = ids[bisect_right(cdf, u)]


@dataclass(frozen=True)
class ResourceRanges:
    """Uniform sampling ranges for synthetic task generation (inclusive bounds),
    one per ``Task`` field of the same name, drawn in field order."""

    duration_min: tuple[float, float] = (15.0, 180.0)
    cores_req: tuple[float, float] = (1.0, 32.0)
    gpu_req: tuple[float, float] = (0.0, 4.0)
    mem_req: tuple[float, float] = (2.0, 64.0)
    bandwidth_gb: tuple[float, float] = (0.05, 2.0)
    sla_multiplier: tuple[float, float] = (DEFAULT_SLA_MULTIPLIER, DEFAULT_SLA_MULTIPLIER)

    def __post_init__(self):
        for f in fields(self):
            lo, hi = getattr(self, f.name)
            if isinstance(lo, bool) or isinstance(hi, bool):
                raise ValueError(f"{f.name}: bounds must be numbers, not true or false")
            if not (isinstance(lo, numbers.Real) and isinstance(hi, numbers.Real)):
                raise ValueError(f"{f.name}: bounds must be numbers")
            try:
                checked(lo, f.name)
                checked(hi, f.name)
            except ValueError:  # NaN, an infinity or an int too large for a float
                raise ValueError(f"{f.name}: bounds must be finite") from None
            if lo > hi:
                raise ValueError(f"{f.name}: lower bound {lo} exceeds upper bound {hi}")
            floor, ceiling = _DOMAINS[f.name]
            if lo < floor:
                raise ValueError(f"{f.name} range must start at >= {floor:g}")
            if hi > ceiling:  # the synthetic trace's rows skip Task's checks
                raise ValueError(f"{f.name} range must end at <= {ceiling:g}")


def generate_synthetic_trace(
    start: datetime,
    num_intervals: int,
    mean_tasks_per_interval: float,
    ranges: ResourceRanges,
    seed: int,
) -> Trace:
    """Seeded synthetic trace in arrival order: Poisson arrivals per step, uniform draws.

    Origins are left unassigned (``origin_dc_id=None``) so the environment can
    apply its probabilistic origin model. ``mean_tasks_per_interval`` must be
    >= 0; ``SimConfig`` checks the configured one.
    """
    start_us = to_us(_require_utc(start, "start"))
    if start_us % STEP_US:
        raise ValueError("start must be aligned to the 15-minute grid")
    rng = np.random.default_rng(seed)
    bounds = {f.name: getattr(ranges, f.name) for f in fields(ranges)}
    drawn = [(name, float(lo), float(hi) - float(lo))
             for name, (lo, hi) in bounds.items() if lo != hi]
    k = len(drawn)
    # One row-major (tasks, drawn ranges) draw per busy step reads the stream task by
    # task, each task's non-constant ranges in field order, as ``uniform`` over that
    # shape does; constant ranges draw nothing.
    counts, draws = [], []
    for _ in range(num_intervals):
        count = int(rng.poisson(mean_tasks_per_interval)) if mean_tasks_per_interval > 0 else 0
        counts.append(count)
        if count:
            draws.append(rng.random(count * k))
    n = sum(counts)
    u = np.concatenate(draws).reshape(n, k) if draws else np.empty((0, k))
    arrivals = np.repeat(start_us + STEP_US * np.arange(num_intervals, dtype=np.int64), counts)
    arrays = {name: lo + span * u[:, j] for j, (name, lo, span) in enumerate(drawn)}
    # a constant column is a list of its bound, an int too, as a task drawn one by one
    # would keep it: each row and each injected task shares the one number
    numbers = [_packed("d", arrays[name]) if name in arrays else [bounds[name][0]] * n
               for name in _DOMAINS]  # in Task's field order
    duration = (arrays["duration_min"] if "duration_min" in arrays
                else np.full(n, bounds["duration_min"][0], dtype=np.float64))
    with np.errstate(over="ignore"):  # an infinite offset overflows in minutes_to_us
        offset = arrays.get("sla_multiplier", bounds["sla_multiplier"][0]) * duration
    job_ids = ["job-%06d" % i for i in range(1, n + 1)]  # "%" is faster than an f-string
    # every arrival is UTC and on the grid, and ResourceRanges bounds every draw: only
    # the deadline is left to check
    try:
        deadline_us = arrivals + minutes_to_us(offset)
        if n and deadline_us.max() > MAX_US:
            raise OverflowError("date value out of range")
    except OverflowError:  # the constructor names the first task it overflows for
        for row in zip(job_ids, arrivals.tolist(), *numbers):
            Task(*row)
        raise
    return Trace(job_ids, _packed("q", arrivals), *numbers, [None] * n,
                 _packed("q", deadline_us), _packed("q", minutes_to_us(duration)))
