"""Cluster state machine: per-DC queues, transit, resource allocation, accounting.

One logical cluster is advanced step by step by a single driver. Each step routes
fresh assignments (charging transmission penalties for remote ones), delivers
in-transit tasks whose delay elapsed, schedules local queues FIFO first-fit,
runs the site physics at the resulting utilization, and returns an accounting
record consumed by rewards and logs.

Each site keeps the sums of its running demands: starting a task adds to them
and a release recomputes them from the running set, both as one left fold in
running order, so the bookkeeping identity
``available + sum(running demands) == total`` holds exactly.

A site's queue is a ``PendingQueue``: its tasks in FIFO order, cut into blocks
of at most ``BLOCK`` tasks that each record their tasks' least cores, GPUs and
memory. The first-fit scan skips a block whose least demand of any resource
exceeds what is free of it. That is exact: ``fits`` compares with ``<=``, so
such a block holds no task that fits, and availability only falls during a
scan, so no skipped task could have started later in it either. A scanned
block keeps the tasks left in it with their least demands recomputed, and
neighbouring blocks that fit in one are merged, so starts do not fragment the
queue into one block per task.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from datetime import datetime
from operator import attrgetter

from . import network
from .dcphysics import (DcPhysicsParams, DcStepResult, HvacAction, hvac_plant, hvac_weather,
                        it_power_and_return_temp, recovered_heat_w, step_setpoint)
from .envdata import TimeSeries, on_grid, wet_bulb
from .errors import ConfigError, ProtocolError, within
from .floats import checked, left_sum
from .workload import COMPLETED, IN_TRANSIT, PENDING, RUNNING, Task, to_us

logger = logging.getLogger(__name__)

BLOCK = 32  # most tasks in one PendingQueue block
MAX_SHIFT_H = 24.0  # largest time zone shift, either way, in hours


class _Block:
    """Up to ``BLOCK`` queued tasks in FIFO order and their least demands, named
    as a task's so that ``DatacenterNode.fits`` tests a block as it tests a task."""

    __slots__ = ("tasks", "cores_req", "gpu_req", "mem_req")

    def __init__(self, tasks):
        self.tasks = tasks
        cores, gpus, mem = tasks[0].cores_req, tasks[0].gpu_req, tasks[0].mem_req
        for t in tasks:  # one pass: three min() calls over generators cost about 3x
            if t.cores_req < cores:
                cores = t.cores_req
            if t.gpu_req < gpus:
                gpus = t.gpu_req
            if t.mem_req < mem:
                mem = t.mem_req
        self.cores_req, self.gpu_req, self.mem_req = cores, gpus, mem

    def add(self, tasks, least):
        """Append ``tasks``; ``least`` is a task or block holding their least demands."""
        self.tasks += tasks
        if least.cores_req < self.cores_req:  # as __init__: three min() calls cost more
            self.cores_req = least.cores_req
        if least.gpu_req < self.gpu_req:
            self.gpu_req = least.gpu_req
        if least.mem_req < self.mem_req:
            self.mem_req = least.mem_req


class PendingQueue:
    """A site's queued tasks in FIFO order, kept in blocks so that the first-fit
    scan can skip every block in which no task fits."""

    __slots__ = ("blocks", "count")

    def __init__(self):
        self.blocks: list[_Block] = []
        self.count = 0

    def append(self, task: Task) -> None:
        blocks = self.blocks
        if blocks and len(blocks[-1].tasks) < BLOCK:
            blocks[-1].add((task,), task)
        else:
            blocks.append(_Block([task]))
        self.count += 1

    def __iter__(self):
        for block in self.blocks:
            yield from block.tasks

    def __len__(self) -> int:
        return self.count


def check_site(dc_id: int, capacities, timezone_shift_h, population_weight, deadband):
    """Check a site's numbers, each finite: capacities ``>= 0``, a time zone shift in
    ``[-24, 24]`` hours, a population weight ``> 0`` and a deadband, unless ``None``, of
    two numbers ``lo < hi``, which it returns."""
    with within(f"dc {dc_id}"):
        checked(dc_id, "dc_id")  # observations carry it as a float
        # a local hour needs no more, and a shift of 1e9 h overflows the local date
        checked(timezone_shift_h, "timezone_shift_h", -MAX_SHIFT_H, MAX_SHIFT_H)
        checked(population_weight, "population_weight", 0.0, lo_open=True)
    try:
        for capacity in capacities:
            checked(capacity, "capacities", 0.0)
    except ValueError:  # one wording for the three
        raise ConfigError(f"dc {dc_id}: capacities must be >= 0 and finite") from None
    if deadband is None:
        return None
    try:
        lo, hi = (checked(b, "deadband") for b in deadband)
        if lo < hi:
            return lo, hi
    except (TypeError, ValueError):  # not two numbers
        pass
    raise ConfigError(f"dc {dc_id}: deadband must be two numbers lo < hi, got {deadband}")


def _used_frac(total, avail):
    return (total - avail) / total if total > 0 else 0.0


@dataclass
class DatacenterNode:
    """One site: capacities, queues, setpoint state, and its exogenous series.

    ``deadband`` is the (lo, hi) CRAC return-temperature band the setpoint is
    nudged to keep; ``None`` holds the setpoint where it starts. ``columns`` holds
    the four series read at each step of a window, which ``Cluster.attach_columns``
    hands the site.
    """

    dc_id: int
    location_code: str
    timezone_shift_h: float
    population_weight: float
    total_cores: float
    total_gpus: float
    total_mem_gb: float
    physics: DcPhysicsParams
    price: TimeSeries
    carbon: TimeSeries
    drybulb: TimeSeries
    humidity: TimeSeries
    hru_enabled: bool = False
    setpoint_c: float = 22.0
    deadband: tuple | None = None
    pending: PendingQueue = field(default_factory=PendingQueue)
    running: list = field(default_factory=list)  # started tasks, completion_us set
    used_cores: float = field(init=False)
    used_gpus: float = field(init=False)
    used_mem_gb: float = field(init=False)
    available_cores: float = field(init=False)
    available_gpus: float = field(init=False)
    available_mem_gb: float = field(init=False)
    last_return_temp_c: float | None = field(default=None, init=False)
    columns: tuple | None = field(default=None, init=False, repr=False)
    _thermal: tuple = field(default=(None, None), init=False, repr=False)
    _plant: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.deadband = check_site(
            self.dc_id, (self.total_cores, self.total_gpus, self.total_mem_gb),
            self.timezone_shift_h, self.population_weight, self.deadband)
        lo, hi = self.physics.setpoint_range_c
        if not lo <= self.setpoint_c <= hi:
            raise ConfigError(
                f"dc {self.dc_id}: setpoint {self.setpoint_c} outside its SETPOINT_RANGE [{lo}, {hi}]"
            )
        self._recompute_available()

    def _recompute_available(self):
        self.used_cores = self.used_gpus = self.used_mem_gb = 0
        self._add_used(self.running)

    def _add_used(self, tasks):
        """Fold ``tasks``' demands into the used sums left to right, as ``sum()``
        does before Python 3.12, and derive availability from them."""
        for t in tasks:
            self.used_cores += t.cores_req
            self.used_gpus += t.gpu_req
            self.used_mem_gb += t.mem_req
        self.available_cores = self.total_cores - self.used_cores
        self.available_gpus = self.total_gpus - self.used_gpus
        self.available_mem_gb = self.total_mem_gb - self.used_mem_gb

    def enqueue(self, task: Task) -> None:
        """Queue ``task`` here, warning if it can never fit this site; a task enters
        a site's queue once, so it is warned about once per site."""
        if self.exceeds_capacity(task):
            logger.warning(
                "task %s demands more than dc %d total capacity; it will wait forever",
                task.job_id, self.dc_id,
            )
        self.pending.append(task)

    def conditions(self, step: int) -> tuple[float, float, float, float]:
        """Price, carbon intensity, dry-bulb and relative humidity at step ``step`` of
        the window whose columns this site holds: four reads by index, which the
        cluster checks against its window once per step."""
        price, carbon, drybulb, humidity = self.columns
        return price[step], carbon[step], drybulb[step], humidity[step]

    def physics_step(self, action: HvacAction | None, u_cpu: float, u_gpu: float,
                     mem_used_gb: float, drybulb_c: float, wetbulb_c: float) -> DcStepResult:
        """``dc_physics_step`` at this site's setpoint, which it then moves to the
        result's, also keeping the return temperature.

        The step's weather-independent physics is kept with its inputs and reused
        while they repeat, as idle sites do: the IT power and CRAC return
        temperature, and ``hvac_plant``'s cooling terms. A repeat then runs only
        ``hvac_weather``, the chiller's COP and the water draw. With heat recovery
        on, the recovered heat depends on the dry-bulb too, so the cooling terms are
        rebuilt every step. The key compares with ``==``, so a ``-0.0`` utilization
        or memory hits a ``0.0`` entry. Both give the same result: they only change
        the sign of a zero term in a rack's power, which also adds a GPU term that
        is never ``-0.0``. A ``-0.0`` setpoint hits a ``0.0`` entry too. The kept
        cooling terms take the setpoint only through the return temperature less
        it, and a return temperature, a left fold from the int 0, is never
        ``-0.0``, so they are the same; the record carries the step's own setpoint.
        """
        params = self.physics
        setpoint = step_setpoint(params, self.setpoint_c, u_cpu, u_gpu, mem_used_gb, action)
        key = (setpoint, u_cpu, u_gpu, mem_used_gb)
        if self._thermal[0] != key:
            self._thermal = (key, it_power_and_return_temp(params, *key))
            self._plant = None
        it_power, t_return = self._thermal[1]
        plant = self._plant
        if plant is None or self.hru_enabled:
            recovered = recovered_heat_w(params, it_power, drybulb_c) if self.hru_enabled else 0.0
            plant = self._plant = hvac_plant(params, it_power, t_return, setpoint, recovered)
        result = hvac_weather(params, plant, setpoint, drybulb_c, wetbulb_c)
        self.setpoint_c = setpoint
        self.last_return_temp_c = t_return
        return result

    def hvac_action(self) -> HvacAction | None:
        """The setpoint nudge for this step: ``None`` without a deadband, else HOLD
        until the first return-temperature reading, DOWN above ``hi``, UP below ``lo``."""
        if self.deadband is None:
            return None
        t_return = self.last_return_temp_c
        if t_return is None:
            return HvacAction.HOLD
        lo, hi = self.deadband
        if t_return > hi:
            return HvacAction.DOWN_1C
        if t_return < lo:
            return HvacAction.UP_1C
        return HvacAction.HOLD

    def fits(self, task: Task) -> bool:
        """Whether ``task``'s demands, or a queue block's least ones, are all free here."""
        return (
            task.cores_req <= self.available_cores
            and task.gpu_req <= self.available_gpus
            and task.mem_req <= self.available_mem_gb
        )

    def exceeds_capacity(self, task: Task) -> bool:
        return (
            task.cores_req > self.total_cores
            or task.gpu_req > self.total_gpus
            or task.mem_req > self.total_mem_gb
        )

    def free_fractions(self) -> tuple[float, float, float]:
        """Free share of cores, GPUs and memory, 0 where the site has none."""
        return (
            self.available_cores / self.total_cores if self.total_cores else 0.0,
            self.available_gpus / self.total_gpus if self.total_gpus else 0.0,
            self.available_mem_gb / self.total_mem_gb if self.total_mem_gb else 0.0,
        )

    def utilization_fractions(self) -> tuple[float, float, float]:
        return (
            _used_frac(self.total_cores, self.available_cores),
            _used_frac(self.total_gpus, self.available_gpus),
            _used_frac(self.total_mem_gb, self.available_mem_gb),
        )

    def mem_used_gb(self) -> float:
        return self.total_mem_gb - self.available_mem_gb


@dataclass
class InTransit:
    task: Task  # its dest_dc_id says where it is bound
    ready_step: int


def _logged(default, column=None):
    """A step-record field that the v1 step log writes, under ``column`` if not its name."""
    return field(default=default, metadata={"column": column})


@dataclass(slots=True)
class DcStepInfo:
    """Per-site accounting for one step."""

    energy_consumption_kwh: float = _logged(0.0, "energy_kwh")
    energy_cost_usd: float = _logged(0.0, "cost_usd")
    carbon_emissions_kg: float = _logged(0.0, "carbon_kg")
    water_l: float = _logged(0.0)
    sla_met: int = _logged(0)
    sla_violated: int = _logged(0)
    cpu_util_pct: float = _logged(0.0)
    gpu_util_pct: float = _logged(0.0)
    mem_util_pct: float = _logged(0.0)
    running_count: int = _logged(0, "running")
    pending_count: int = _logged(0, "pending")


@dataclass
class ClusterInfo:
    """Step accounting record: one entry per site plus cluster-wide totals.

    ``Cluster.step`` fills in the transmission totals and the sites, and the
    environment the deferred count; ``cost_usd``, ``energy_kwh`` and
    ``emissions_kg`` add sites and transmission.
    """

    datacenters: dict = field(default_factory=dict)
    transmission_cost_total_usd: float = _logged(0.0, "tx_cost_usd")
    transmission_energy_total_kwh: float = _logged(0.0, "tx_energy_kwh")
    transmission_emissions_total_kg: float = _logged(0.0, "tx_emissions_kg")
    tasks_deferred_count: int = _logged(0, "tasks_deferred")

    def total(self, attr: str) -> float:
        return left_sum(map(attrgetter(attr), self.datacenters.values()))

    def cost_usd(self) -> float:
        return self.total("energy_cost_usd") + self.transmission_cost_total_usd

    def energy_kwh(self) -> float:
        return self.total("energy_consumption_kwh") + self.transmission_energy_total_kwh

    def emissions_kg(self) -> float:
        return self.total("carbon_emissions_kg") + self.transmission_emissions_total_kg


class Cluster:
    """Owns the datacenter nodes, the in-transit pool, and per-step accounting."""

    def __init__(self, nodes, cost_matrix, delay_table, region_map):
        if not nodes:
            raise ValueError("a cluster needs at least one datacenter")
        ids = [n.dc_id for n in nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("dc_id values must be unique")
        self.nodes = list(nodes)
        self.by_id = {n.dc_id: n for n in self.nodes}
        self.cost_matrix = cost_matrix
        self.delay_table = delay_table
        self.region_map = region_map
        self.in_transit: list[InTransit] = []
        self.completed = 0  # tasks released so far
        self.rows = 0  # the rows of each site's columns, which attach_columns sets

    def attach_columns(self, start: datetime, steps: int) -> None:
        """Hand each node its four series as ``on_grid`` columns over the ``steps``
        steps from ``start``, built for every site in one call."""
        series = [s for n in self.nodes for s in (n.price, n.carbon, n.drybulb, n.humidity)]
        columns = on_grid(series, start, steps)
        for i, node in enumerate(self.nodes):
            node.columns = tuple(columns[4 * i:4 * i + 4])
        self.rows = steps

    def check_step(self, step: int) -> None:
        """Refuse a step the columns do not hold: past their rows an index runs off, and
        a negative one would wrap to the window's end and read its last row."""
        if not 0 <= step < self.rows:
            if not self.rows:
                raise ProtocolError("the cluster has no columns: "
                                    "Cluster.attach_columns hands them out")
            raise ProtocolError(f"step {step} is outside the {self.rows} rows of the "
                                "cluster's columns")

    def route_assignments(self, decisions, step: int) -> ClusterInfo:
        """Apply (task, dest_dc_id) decisions; remote ones pay cost/energy/CO2/delay.
        Returns the step's accounting record with those transmission totals. A step
        outside the columns is refused before anything is routed."""
        self.check_step(step)
        info = ClusterInfo()
        for task, dest_id in decisions:
            if dest_id not in self.by_id:
                raise ProtocolError(f"unknown destination dc_id {dest_id}")
            if task.origin_dc_id not in self.by_id:
                raise ProtocolError(f"task {task.job_id} has unmapped origin {task.origin_dc_id}")
            task.dest_dc_id = dest_id
            if dest_id == task.origin_dc_id:
                self.by_id[dest_id].enqueue(task)
                continue
            origin = self.by_id[task.origin_dc_id]
            dest = self.by_id[dest_id]
            cost = network.transmission_cost(
                self.cost_matrix, self.region_map, task.bandwidth_gb,
                origin.location_code, dest.location_code,
            )
            energy = network.transmission_energy_kwh(task.bandwidth_gb)
            emissions = network.transmission_emissions_kg(energy, origin.conditions(step)[1])
            delay = network.transmission_delay_s(
                self.delay_table, self.region_map, task.bandwidth_gb,
                origin.location_code, dest.location_code,
            )
            info.transmission_cost_total_usd += cost
            info.transmission_energy_total_kwh += energy
            info.transmission_emissions_total_kg += emissions
            task.set_status(IN_TRANSIT)
            self.in_transit.append(InTransit(task, step + network.delay_steps(delay)))
        return info

    def advance_transit(self, step: int) -> None:
        """Deliver every transfer whose delay elapsed, preserving dispatch order."""
        still = []
        for item in self.in_transit:
            if item.ready_step <= step:
                item.task.set_status(PENDING)
                self.by_id[item.task.dest_dc_id].enqueue(item.task)
            else:
                still.append(item)
        self.in_transit = still

    def step(self, step: int, now: datetime, decisions=()) -> ClusterInfo:
        """Advance one 15-minute interval, step ``step`` of the window, which starts at
        ``now``: route ``decisions``, deliver transit, then release, schedule and run
        each site's physics at the step's conditions; returns the step's record. A step
        outside the columns is refused, by ``route_assignments``, before any of that."""
        info = self.route_assignments(decisions, step)
        self.advance_transit(step)
        now_us = to_us(now)
        for node in self.nodes:
            released = release_completed(node, now_us)
            met = 0
            if released:
                self.completed += len(released)
                met = sum(1 for _, ok in released if ok)
            schedule_fifo_first_fit(node, now_us)
            u_cpu, u_gpu, u_mem = node.utilization_fractions()
            price, ci, drybulb, rh = node.conditions(step)
            result = node.physics_step(node.hvac_action(), u_cpu, u_gpu, node.mem_used_gb(),
                                       drybulb, wet_bulb(drybulb, rh))
            energy = result.energy_kwh
            # positional, in DcStepInfo's field order
            info.datacenters[node.dc_id] = DcStepInfo(
                energy, energy * price / 1000.0, energy * ci / 1000.0, result.water_l_15min,
                met, len(released) - met, 100.0 * u_cpu, 100.0 * u_gpu, 100.0 * u_mem,
                len(node.running), len(node.pending))
        return info

    def census(self) -> dict:
        """Task counts by lifecycle stage, for conservation checks."""
        return {
            "pending": sum(len(n.pending) for n in self.nodes),
            "running": sum(len(n.running) for n in self.nodes),
            "in_transit": len(self.in_transit),
            "completed": self.completed,
        }


def schedule_fifo_first_fit(dc: DatacenterNode, now_us: int) -> list[Task]:
    """Start every queued task that fits at ``now_us`` (microseconds since the epoch),
    scanning FIFO; blocked tasks do not bar later ones.

    Blocks in which no task fits are kept whole without looking at their tasks;
    a scanned block keeps the tasks left in it, and neighbouring blocks that
    fit in one are merged.
    """
    queue = dc.pending
    if not queue.count:
        return []
    started = []
    kept: list[_Block] = []
    for block in queue.blocks:
        if dc.fits(block):
            left = []
            for task in block.tasks:
                if dc.fits(task):
                    task.set_status(RUNNING)
                    task.start_us = now_us
                    task.completion_us = now_us + task.duration_us
                    dc.running.append(task)
                    dc._add_used((task,))
                    started.append(task)
                else:
                    left.append(task)
            if not left:
                continue
            if len(left) < len(block.tasks):
                block = _Block(left)
        if kept and len(kept[-1].tasks) + len(block.tasks) <= BLOCK:
            kept[-1].add(block.tasks, block)
        else:
            kept.append(block)
    queue.blocks = kept
    queue.count -= len(started)
    return started


def release_completed(dc: DatacenterNode, now_us: int) -> list[tuple[Task, bool]]:
    """Finish tasks whose completion time is ``now_us`` or earlier (microseconds since
    the epoch); returns (task, sla_met) pairs.

    A task meeting its deadline exactly counts as met.
    """
    done = []
    still = []
    for task in dc.running:
        if task.completion_us <= now_us:
            task.set_status(COMPLETED)
            done.append((task, task.completion_us <= task.deadline_us))
        else:
            still.append(task)
    if done:
        dc.running = still
        dc._recompute_available()
    return done
