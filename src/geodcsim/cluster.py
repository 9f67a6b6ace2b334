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
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from datetime import datetime, timedelta

from . import network
from .dcphysics import DcPhysicsParams, HvacAction, WeatherSample, dc_physics_step
from .envdata import TimeSeries, value_at, wet_bulb
from .errors import ConfigError, ProtocolError
from .workload import Task, TaskStatus

logger = logging.getLogger(__name__)


@dataclass
class DatacenterNode:
    """One site: capacities, queues, setpoint state, and its exogenous series.

    ``deadband`` is the (lo, hi) CRAC return-temperature band the setpoint is
    nudged to keep; ``None`` holds the setpoint where it starts.
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
    pending: deque = field(default_factory=deque)
    running: list = field(default_factory=list)  # started tasks, completion_time set
    used_cores: float = field(init=False)
    used_gpus: float = field(init=False)
    used_mem_gb: float = field(init=False)
    available_cores: float = field(init=False)
    available_gpus: float = field(init=False)
    available_mem_gb: float = field(init=False)
    last_return_temp_c: float | None = field(default=None, init=False)

    def __post_init__(self):
        if self.total_cores < 0 or self.total_gpus < 0 or self.total_mem_gb < 0:
            raise ConfigError(f"dc {self.dc_id}: capacities must be >= 0")
        if self.population_weight <= 0:
            raise ConfigError(f"dc {self.dc_id}: population_weight must be > 0")
        lo, hi = self.physics.setpoint_range_c
        if not lo <= self.setpoint_c <= hi:
            raise ConfigError(
                f"dc {self.dc_id}: setpoint {self.setpoint_c} outside its SETPOINT_RANGE [{lo}, {hi}]"
            )
        band = self.deadband
        if band is not None and not (
            len(band) == 2 and all(isinstance(b, (int, float)) for b in band) and band[0] < band[1]
        ):
            raise ConfigError(f"dc {self.dc_id}: deadband must be two numbers lo < hi, got {band}")
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

    def utilization_fractions(self) -> tuple[float, float, float]:
        def used_frac(total, avail):
            return (total - avail) / total if total > 0 else 0.0

        return (
            used_frac(self.total_cores, self.available_cores),
            used_frac(self.total_gpus, self.available_gpus),
            used_frac(self.total_mem_gb, self.available_mem_gb),
        )

    def mem_used_gb(self) -> float:
        return self.total_mem_gb - self.available_mem_gb


@dataclass
class InTransit:
    task: Task
    dest_dc_id: int
    ready_step: int


@dataclass
class DcStepInfo:
    """Per-site accounting for one step."""

    energy_consumption_kwh: float = 0.0
    energy_cost_usd: float = 0.0
    carbon_emissions_kg: float = 0.0
    water_l: float = 0.0
    sla_met: int = 0
    sla_violated: int = 0
    cpu_util_pct: float = 0.0
    gpu_util_pct: float = 0.0
    mem_util_pct: float = 0.0
    running_count: int = 0
    pending_count: int = 0


@dataclass
class ClusterInfo:
    """Step accounting record: one entry per site plus cluster-wide totals."""

    datacenters: dict
    transmission_cost_total_usd: float = 0.0
    transmission_energy_total_kwh: float = 0.0
    transmission_emissions_total_kg: float = 0.0
    tasks_deferred_count: int = 0

    def total(self, attr: str) -> float:
        return sum(getattr(d, attr) for d in self.datacenters.values())


@dataclass
class TransmissionTotals:
    cost_usd: float = 0.0
    energy_kwh: float = 0.0
    emissions_kg: float = 0.0

    def add(self, cost, energy, emissions):
        self.cost_usd += cost
        self.energy_kwh += energy
        self.emissions_kg += emissions


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
        self.completed: list[Task] = []
        self.injected_count = 0

    def route_assignments(self, decisions, step: int, now: datetime) -> TransmissionTotals:
        """Apply (task, dest_dc_id) decisions; remote ones pay cost/energy/CO2/delay."""
        totals = TransmissionTotals()
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
            ci_origin = value_at(origin.carbon, now)
            emissions = network.transmission_emissions_kg(energy, ci_origin)
            delay = network.transmission_delay_s(
                self.delay_table, self.region_map, task.bandwidth_gb,
                origin.location_code, dest.location_code,
            )
            totals.add(cost, energy, emissions)
            task.set_status(TaskStatus.IN_TRANSIT)
            self.in_transit.append(InTransit(task, dest_id, step + network.delay_steps(delay)))
        return totals

    def advance_transit(self, step: int) -> None:
        """Deliver every transfer whose delay elapsed, preserving dispatch order."""
        still = []
        for item in self.in_transit:
            if item.ready_step <= step:
                item.task.set_status(TaskStatus.PENDING)
                self.by_id[item.dest_dc_id].enqueue(item.task)
            else:
                still.append(item)
        self.in_transit = still

    def step(self, step: int, now: datetime, tx: TransmissionTotals | None = None,
             deferred_count: int = 0) -> ClusterInfo:
        """Advance every site by one 15-minute interval and collect accounting."""
        tx = tx or TransmissionTotals()
        self.advance_transit(step)
        infos = {}
        for node in self.nodes:
            released = release_completed(node, now)
            self.completed.extend(t for t, _ in released)
            schedule_fifo_first_fit(node, now)
            u_cpu, u_gpu, u_mem = node.utilization_fractions()
            drybulb = value_at(node.drybulb, now)
            rh = value_at(node.humidity, now)
            weather = WeatherSample(drybulb, wet_bulb(drybulb, rh))
            result = dc_physics_step(
                node.physics, node.setpoint_c, u_cpu, u_gpu, node.mem_used_gb(),
                weather, setpoint_action=node.hvac_action(), hru_enabled=node.hru_enabled,
            )
            node.setpoint_c = result.setpoint_c
            node.last_return_temp_c = result.crac_return_temp_c
            price = value_at(node.price, now)
            ci = value_at(node.carbon, now)
            met = sum(1 for _, ok in released if ok)
            violated = len(released) - met
            infos[node.dc_id] = DcStepInfo(
                energy_consumption_kwh=result.energy_kwh,
                energy_cost_usd=result.energy_kwh * price / 1000.0,
                carbon_emissions_kg=result.energy_kwh * ci / 1000.0,
                water_l=result.water_l_15min,
                sla_met=met,
                sla_violated=violated,
                cpu_util_pct=100.0 * u_cpu,
                gpu_util_pct=100.0 * u_gpu,
                mem_util_pct=100.0 * u_mem,
                running_count=len(node.running),
                pending_count=len(node.pending),
            )
        return ClusterInfo(
            datacenters=infos,
            transmission_cost_total_usd=tx.cost_usd,
            transmission_energy_total_kwh=tx.energy_kwh,
            transmission_emissions_total_kg=tx.emissions_kg,
            tasks_deferred_count=deferred_count,
        )

    def census(self) -> dict:
        """Task counts by lifecycle stage, for conservation checks."""
        return {
            "pending": sum(len(n.pending) for n in self.nodes),
            "running": sum(len(n.running) for n in self.nodes),
            "in_transit": len(self.in_transit),
            "completed": len(self.completed),
        }


def schedule_fifo_first_fit(dc: DatacenterNode, now: datetime) -> list[Task]:
    """Start every queued task that fits, scanning FIFO; blocked tasks do not bar later ones."""
    started = []
    remaining = deque()
    for task in dc.pending:
        if dc.fits(task):
            task.set_status(TaskStatus.RUNNING)
            task.start_exec_time = now
            task.completion_time = now + timedelta(minutes=task.duration_min)
            dc.running.append(task)
            dc._add_used((task,))
            started.append(task)
        else:
            remaining.append(task)
    dc.pending = remaining
    return started


def release_completed(dc: DatacenterNode, now: datetime) -> list[tuple[Task, bool]]:
    """Finish tasks whose completion time passed; returns (task, sla_met) pairs.

    A task meeting its deadline exactly counts as met.
    """
    done = []
    still = []
    for task in dc.running:
        if task.completion_time <= now:
            task.set_status(TaskStatus.COMPLETED)
            done.append((task, task.completion_time <= task.sla_deadline))
        else:
            still.append(task)
    if done:
        dc.running = still
        dc._recompute_available()
    return done
