"""Task records, trace ingestion, origin assignment, and synthetic trace generation.

The canonical trace format is line-delimited JSON, one task per line. A trace is
the list of its tasks in arrival order; each task's ``arrival_time`` is the step
it arrives at. Resource demands are absolute units (cores, GPU units, GB). Tasks
shorter than 15 minutes are rejected because the simulation cannot resolve them.
"""

from __future__ import annotations

import json
import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from datetime import datetime, timedelta, timezone
from enum import Enum
from operator import attrgetter

import numpy as np

from .errors import ConfigError, DataError, naming
from .floats import checked

STEP = timedelta(minutes=15)  # the simulation's one time grid
MIN_DURATION_MIN = STEP / timedelta(minutes=1)  # one step: shorter tasks cannot be resolved
DEFAULT_SLA_MULTIPLIER = 1.5

# Largest data volume of one task (1 PB): its transfer over the slowest link a delay
# table may hold (network.MIN_THROUGHPUT_MBPS) still takes a finite time.
MAX_BANDWIDTH_GB = 1e6
# a task's numbers, in the order of a trace record and of ResourceRanges, and the
# (floor, ceiling) of each
_DOMAINS = {"duration_min": (MIN_DURATION_MIN, math.inf), "cores_req": (0.0, math.inf),
            "gpu_req": (0.0, math.inf), "mem_req": (0.0, math.inf),
            "bandwidth_gb": (0.0, MAX_BANDWIDTH_GB), "sla_multiplier": (1.0, math.inf)}

BUSINESS_HOURS = range(8, 20)
OFF_HOURS_ACTIVITY = 0.3


class TaskStatus(Enum):
    PENDING = "pending"
    DEFERRED = "deferred"
    IN_TRANSIT = "in_transit"
    RUNNING = "running"
    COMPLETED = "completed"


_ALLOWED_TRANSITIONS = {
    TaskStatus.PENDING: {TaskStatus.DEFERRED, TaskStatus.IN_TRANSIT, TaskStatus.RUNNING},
    TaskStatus.DEFERRED: {TaskStatus.PENDING},
    TaskStatus.IN_TRANSIT: {TaskStatus.PENDING},
    TaskStatus.RUNNING: {TaskStatus.COMPLETED},
    TaskStatus.COMPLETED: set(),
}


def _require_utc(dt: datetime, what: str) -> datetime:
    if dt.tzinfo is None:
        raise ValueError(f"{what} must be timezone-aware UTC")
    return dt.astimezone(timezone.utc)


def _on_grid(dt: datetime) -> bool:
    """Whether ``dt`` falls on a step boundary; ``STEP`` divides the hour."""
    return not ((dt.minute * 60 + dt.second) % STEP.seconds or dt.microsecond)


@dataclass(slots=True)
class Task:
    """One schedulable job: resource demands, origin, SLA state, lifecycle status."""

    job_id: str
    arrival_time: datetime
    duration_min: float
    cores_req: float
    gpu_req: float
    mem_req: float
    bandwidth_gb: float
    sla_multiplier: float = DEFAULT_SLA_MULTIPLIER
    origin_dc_id: int | None = None
    sla_deadline: datetime = field(init=False)
    dest_dc_id: int | None = None
    status: TaskStatus = TaskStatus.PENDING
    start_exec_time: datetime | None = None
    completion_time: datetime | None = None

    def __post_init__(self):
        try:
            self.arrival_time = _require_utc(self.arrival_time, "arrival_time")
        except ValueError as exc:
            raise ValueError(f"task {self.job_id}: {exc}") from exc
        if not _on_grid(self.arrival_time):
            raise ValueError(
                f"task {self.job_id}: arrival_time {self.arrival_time.isoformat()} "
                "is not aligned to the 15-minute grid"
            )
        for name, (floor, ceiling) in _DOMAINS.items():
            try:
                value = checked(getattr(self, name), name, floor)
            except ValueError:  # one wording, whatever is wrong with the number
                raise ValueError(f"task {self.job_id}: {name} must be >= {floor:g} and finite") from None
            if value > ceiling:
                raise ValueError(f"task {self.job_id}: {name} must be <= {ceiling:g}")
        self._set_deadline()

    def _set_deadline(self) -> None:
        try:
            self.sla_deadline = compute_sla_deadline(self)
        except OverflowError as exc:
            raise ValueError(f"task {self.job_id}: duration_min {self.duration_min} "
                             "times sla_multiplier overflows the deadline") from exc

    def __copy__(self) -> Task:
        # Every field is immutable, so assigning each one is a full clone. Naming the
        # fields is several times faster than a getattr/setattr loop over __slots__;
        # a test checks that the slots are these fields and that a clone keeps each.
        clone = object.__new__(Task)
        clone.job_id = self.job_id
        clone.arrival_time = self.arrival_time
        clone.duration_min = self.duration_min
        clone.cores_req = self.cores_req
        clone.gpu_req = self.gpu_req
        clone.mem_req = self.mem_req
        clone.bandwidth_gb = self.bandwidth_gb
        clone.sla_multiplier = self.sla_multiplier
        clone.origin_dc_id = self.origin_dc_id
        clone.sla_deadline = self.sla_deadline
        clone.dest_dc_id = self.dest_dc_id
        clone.status = self.status
        clone.start_exec_time = self.start_exec_time
        clone.completion_time = self.completion_time
        return clone

    def set_status(self, new: TaskStatus) -> None:
        if new not in _ALLOWED_TRANSITIONS[self.status]:
            raise ValueError(
                f"task {self.job_id}: illegal status transition "
                f"{self.status.value} -> {new.value}"
            )
        self.status = new


def compute_sla_deadline(task: Task) -> datetime:
    """Deadline rule: arrival + sla_multiplier * duration."""
    return task.arrival_time + timedelta(minutes=task.sla_multiplier * task.duration_min)


_TRACE_FIELDS = ("job_id", "arrival_time", *_DOMAINS, "origin_dc_id")


def _trace_number(job_id: str, key: str, value) -> float:
    """A trace field as a float: a JSON number or numeric text; ``Task`` checks its range."""
    if isinstance(value, float):
        return value
    try:
        return checked(value, key)
    except ValueError:
        raise ValueError(f"task {job_id}: {key} must be a number, got {json.dumps(value)}") from None


def _trace_arrival(job_id: str, value) -> datetime:
    """A trace arrival time: an ISO 8601 date-time string."""
    if isinstance(value, str):
        try:
            return datetime.fromisoformat(value)
        except ValueError:
            pass
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


def load_trace(path) -> list[Task]:
    """Load a JSONL trace as its tasks sorted by arrival, in file order within one."""
    tasks = []
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
                job_id = _trace_job_id(rec["job_id"])
                rec.setdefault("sla_multiplier", DEFAULT_SLA_MULTIPLIER)
                task = Task(
                    job_id=job_id,
                    arrival_time=_trace_arrival(job_id, rec["arrival_time"]),
                    **{key: _trace_number(job_id, key, rec[key]) for key in _DOMAINS},
                    origin_dc_id=_trace_origin(job_id, rec.get("origin_dc_id")),
                )
            except KeyError as exc:
                raise DataError(f"line {lineno}: missing field {exc.args[0]!r}") from exc
            except ValueError as exc:
                raise DataError(f"line {lineno}: {exc}") from exc
            tasks.append(task)
    return sorted(tasks, key=attrgetter("arrival_time"))  # stable: file order kept


def first_unknown_origin(tasks, dc_ids) -> Task | None:
    """The first task, in trace order, whose explicit origin is not in ``dc_ids``."""
    return next((t for t in tasks
                 if t.origin_dc_id is not None and t.origin_dc_id not in dc_ids), None)


def save_trace(tasks, path) -> None:
    """Write tasks back to the JSONL trace format (lifecycle state excluded)."""
    with open(path, "w") as fh:
        for t in tasks:
            rec = {k: getattr(t, k) for k in _TRACE_FIELDS}
            rec["arrival_time"] = t.arrival_time.isoformat()
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
            if hi > ceiling:  # the synthetic trace's clones skip Task's checks
                raise ValueError(f"{f.name} range must end at <= {ceiling:g}")


def generate_synthetic_trace(
    start: datetime,
    num_intervals: int,
    mean_tasks_per_interval: float,
    ranges: ResourceRanges,
    seed: int,
) -> list[Task]:
    """Seeded synthetic trace in arrival order: Poisson arrivals per step, uniform draws.

    Origins are left unassigned (``origin_dc_id=None``) so the environment can
    apply its probabilistic origin model. ``mean_tasks_per_interval`` must be
    >= 0; ``SimConfig`` checks the configured one.
    """
    start = _require_utc(start, "start")
    if not _on_grid(start):
        raise ValueError("start must be aligned to the 15-minute grid")
    rng = np.random.default_rng(seed)
    # One row-major (tasks, columns) draw per interval reads the stream task by
    # task, each task's non-constant ranges in field order; constant ones draw nothing.
    bounds = {f.name: getattr(ranges, f.name) for f in fields(ranges)}
    fixed = {name: lo for name, (lo, hi) in bounds.items() if lo == hi}
    drawn = [name for name in bounds if name not in fixed]
    lows = [bounds[name][0] for name in drawn]
    highs = [bounds[name][1] for name in drawn]
    tasks = []
    job_counter = 0
    template = None  # the first task, built and checked by the constructor
    for i in range(num_intervals):
        t0 = start + i * STEP
        count = int(rng.poisson(mean_tasks_per_interval)) if mean_tasks_per_interval > 0 else 0
        for row in rng.uniform(lows, highs, size=(count, len(drawn))).tolist():
            job_counter += 1
            job_id = f"job-{job_counter:06d}"
            if template is None:
                task = template = Task(job_id, t0, **fixed, **dict(zip(drawn, row)))
            else:
                # start is UTC and on the grid, so is every t0, and ResourceRanges
                # bounds every draw: only the deadline is left to compute.
                task = template.__copy__()
                task.job_id = job_id
                task.arrival_time = t0
                for name, value in zip(drawn, row):
                    setattr(task, name, value)
                task._set_deadline()
            tasks.append(task)
    return tasks
