"""Discrete-time scheduling environment: observations, actions, rewards and KPIs.

Each 15-minute step the environment presents the pending decision tasks
(yesterday's deferrals first, then fresh arrivals), accepts one integer decision
per task (0 = defer, j = assign to the j-th datacenter), applies the overdue-task
override, advances the cluster, scores the outcome with the configured reward
and adds it to the episode's KPIs. An aggregated single-action mode collapses
the per-task interface into one fixed-size vector and one global action.

Episodes are fully deterministic given the configuration and seed: one root
generator drives datacenter shuffling and task-origin sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import chain

import numpy as np

from .cluster import Cluster, ClusterInfo
from .errors import ConfigError, ProtocolError
from .floats import left_sum
from .rewards import CompositeReward, RewardBreakdown
from .workload import (STEP, TaskStatus, assign_task_origins, first_unknown_origin,
                       origin_table)

STEPS_PER_DAY = timedelta(days=1) // STEP

TIME_FEATURES = 4
TASK_FEATURES = 5
DC_FEATURES = 5

KPI_KEYS = ("total_cost_usd", "total_co2_t", "total_energy_mwh", "total_water_m3",
            "sla_violation_pct", "avg_cpu_util_pct", "avg_gpu_util_pct", "tx_cost_usd",
            "tasks_deferred")


def observation_dim(num_dcs: int) -> int:
    return TIME_FEATURES + TASK_FEATURES + DC_FEATURES * num_dcs


def _time_features(now: datetime) -> list[float]:
    day_of_year = now.timetuple().tm_yday
    hour = now.hour + now.minute / 60.0
    return [
        math.sin(2.0 * math.pi * day_of_year / 365.0),
        math.cos(2.0 * math.pi * day_of_year / 365.0),
        math.sin(2.0 * math.pi * hour / 24.0),
        math.cos(2.0 * math.pi * hour / 24.0),
    ]


def _dc_features(cluster: Cluster, now: datetime) -> list[float]:
    feats = []
    for node in cluster.nodes:
        price, ci, _, _ = node.conditions(now)
        feats.extend([*node.free_fractions(), ci / 1000.0, price / 100.0])
    return feats


def _minutes_to_deadline(task, now: datetime) -> float:
    return max(0.0, (task.sla_deadline - now).total_seconds() / 60.0)


def build_observation(cluster: Cluster, pending_tasks, now: datetime) -> list[np.ndarray]:
    """One vector per pending task: time features, task features, then all DC states."""
    time_feats = _time_features(now)
    dc_feats = _dc_features(cluster, now)
    obs = []
    for task in pending_tasks:
        vec = time_feats + [
            float(task.origin_dc_id),
            task.cores_req,
            task.gpu_req,
            task.duration_min,
            _minutes_to_deadline(task, now),
        ] + dc_feats
        obs.append(np.asarray(vec, dtype=np.float32))
    return obs


def build_agg_observation(cluster: Cluster, pending_tasks, now: datetime,
                          horizon_minutes: float) -> np.ndarray:
    """Fixed-size summary vector for single-action mode.

    With no pending tasks the aggregate features are zeros and the minimum
    time-to-deadline takes the episode horizon as a sentinel.
    """
    time_feats = _time_features(now)
    if pending_tasks:
        k = float(len(pending_tasks))
        agg = [
            k,
            left_sum(t.cores_req for t in pending_tasks) / k,
            left_sum(t.gpu_req for t in pending_tasks) / k,
            left_sum(t.duration_min for t in pending_tasks) / k,
            min(_minutes_to_deadline(t, now) for t in pending_tasks),
        ]
    else:
        agg = [0.0, 0.0, 0.0, 0.0, horizon_minutes]
    return np.asarray(time_feats + agg + _dc_features(cluster, now), dtype=np.float32)


def check_coverage(site_series, start: datetime, end: datetime) -> None:
    """Refuse, in one ``ConfigError``, every ``(dc_id, series)`` pair of ``site_series``
    whose series does not cover ``[start, end]``."""
    missing = [f"dc {dc_id} {series.kind.value} covers "
               f"[{series.start.isoformat()}, {series.end.isoformat()}]"
               for dc_id, series in site_series if not series.covers(start, end)]
    if missing:
        raise ConfigError("series do not cover the simulation window "
                          f"[{start.isoformat()}, {end.isoformat()}]: " + "; ".join(missing))


def _check_action(action, lo: int, hi: int) -> int:
    """``action`` as an int if it is a whole number in ``lo..hi``, else a ``ProtocolError``."""
    try:
        if action == int(action) and lo <= action <= hi:
            return int(action)
    except (TypeError, ValueError, OverflowError):  # int() of text, NaN or an infinity
        pass
    raise ProtocolError(f"action {action!r} outside {lo}..{hi}")


@dataclass
class StepOutcome:
    """Bundle returned alongside each observation."""

    cluster_info: ClusterInfo
    reward_breakdown: RewardBreakdown


class SchedulingEnv:
    """step/reset decision interface over a cluster and a workload trace.

    Instances are single-threaded; independent instances may run concurrently.
    ``cluster_factory`` must return a fresh cluster each call so reset() starts
    from pristine state.
    """

    def __init__(
        self,
        cluster_factory,
        trace,
        start: datetime,
        duration_days: int,
        reward_fn: CompositeReward,
        seed: int = 0,
        single_action_mode: bool = False,
        disable_defer_action: bool = False,
        shuffle_datacenters: bool = False,
    ):
        if duration_days < 1:
            raise ConfigError("duration_days must be >= 1")
        self._cluster_factory = cluster_factory
        self._arrivals = {}  # arrival_time -> that step's tasks, in trace order
        for task in trace:  # one pass: tasks sharing an arrival need not be adjacent
            self._arrivals.setdefault(task.arrival_time, []).append(task)
        self.start = start
        self.duration_days = duration_days
        self.horizon_steps = duration_days * STEPS_PER_DAY
        self.end = start + self.horizon_steps * STEP  # the first instant past the episode
        self.reward_fn = reward_fn
        self.seed = seed
        self.single_action_mode = single_action_mode
        self.disable_defer_action = disable_defer_action
        self.shuffle_datacenters = shuffle_datacenters
        self.cluster: Cluster | None = None
        self.current_tasks: list = []
        self.now: datetime = start
        self.step_index = 0
        self._rng: np.random.Generator | None = None
        self._origin_sites: list = []  # (dc_id, timezone_shift_h, population_weight) per site
        self._origin_tables: dict = {}  # UTC time of day -> origin_table of _origin_sites
        self._done = True
        # The episode's KPI ledger, which step() adds to and kpis() reads (the avg_
        # keys hold sums until then), and the count of tasks injected.
        self._sums = dict.fromkeys(KPI_KEYS, 0.0)
        self._met = self._violated = self._site_steps = self._injected = 0

    @property
    def num_dcs(self) -> int:
        return len(self.cluster.nodes)

    def tasks_never_injected(self) -> int:
        """How many of the trace's tasks arrive at no step of the episode, so never run."""
        steps = {self.start + k * STEP for k in range(self.horizon_steps)}
        return sum(len(tasks) for at, tasks in self._arrivals.items() if at not in steps)

    def _check_coverage(self):
        check_coverage([(node.dc_id, series) for node in self.cluster.nodes
                        for series in (node.price, node.carbon, node.drybulb, node.humidity)],
                       self.start, self.end)

    def reset(self, seed: int | None = None):
        """Build a fresh episode and return the first observation."""
        if seed is not None:
            self.seed = seed
        self._rng = np.random.default_rng(self.seed)
        self.cluster = self._cluster_factory()
        if self.shuffle_datacenters:
            order = self._rng.permutation(len(self.cluster.nodes))
            self.cluster.nodes = [self.cluster.nodes[i] for i in order]
        self._check_coverage()
        bad = first_unknown_origin(chain.from_iterable(self._arrivals.values()), self.cluster.by_id)
        if bad is not None:
            raise ConfigError(f"task {bad.job_id} origin {bad.origin_dc_id} is not a configured dc")
        self._origin_sites = [
            (n.dc_id, n.timezone_shift_h, n.population_weight) for n in self.cluster.nodes
        ]
        self._origin_tables = {}
        self.now = self.start
        self.step_index = 0
        self._done = False
        self._sums = dict.fromkeys(KPI_KEYS, 0.0)
        self._met = self._violated = self._site_steps = self._injected = 0
        self.current_tasks = self._inject_arrivals(self.now)
        return self._observe()

    def _inject_arrivals(self, now: datetime) -> list:
        tasks = [t.__copy__() for t in self._arrivals.get(now, ())]
        unassigned = [t for t in tasks if t.origin_dc_id is None]
        if unassigned:
            # A site's local hour, and so the table, depends only on the UTC time of day.
            key = now.time()
            table = self._origin_tables.get(key)
            if table is None:
                table = self._origin_tables[key] = origin_table(self._origin_sites, now)
            assign_task_origins(unassigned, *table, self._rng)
        self._injected += len(tasks)
        return tasks

    def _observe(self):
        if self.single_action_mode:
            return build_agg_observation(
                self.cluster, self.current_tasks, self.now,
                horizon_minutes=self.horizon_steps * STEP / timedelta(minutes=1),
            )
        return build_observation(self.cluster, self.current_tasks, self.now)

    def step(self, actions):
        """Apply one decision per pending task; returns (obs, reward, done, outcome):
        ``advance`` followed by the next observation."""
        reward, done, outcome = self.advance(actions)
        return self._observe(), reward, done, outcome

    def advance(self, actions):
        """``step`` without building the next observation, for callers that do not
        read it; returns (reward, done, outcome). Every action and the action count
        are checked before any state changes; action 0 (defer) is valid only while
        deferral is enabled."""
        if self._done:
            raise ProtocolError("episode is done; call reset()")
        try:
            actions = iter(actions)
        except TypeError:
            raise ProtocolError(f"actions must be a sequence, got {actions!r}") from None
        lo = int(self.disable_defer_action)
        actions = [_check_action(a, lo, self.num_dcs) for a in actions]
        if len(actions) != len(self.current_tasks):
            raise ProtocolError(f"expected {len(self.current_tasks)} actions, got {len(actions)}")
        deferred = []
        decisions = []
        for task, action in zip(self.current_tasks, actions):
            if self.now > task.sla_deadline:
                # Overdue tasks are forced to their origin site regardless of the action.
                decisions.append((task, task.origin_dc_id))
            elif action == 0:
                task.set_status(TaskStatus.DEFERRED)
                deferred.append(task)
            else:
                decisions.append((task, self.cluster.nodes[action - 1].dc_id))
        self.current_tasks = []

        info = self.cluster.route_assignments(decisions, self.step_index, self.now)
        info.tasks_deferred_count = len(deferred)
        self.cluster.step(self.step_index, self.now, info)
        breakdown = self.reward_fn(info)
        self._fold(info)

        self.step_index += 1
        self.now = self.now + STEP
        self._done = self.step_index >= self.horizon_steps

        for task in deferred:
            task.set_status(TaskStatus.PENDING)
        self.current_tasks = deferred + (
            [] if self._done else self._inject_arrivals(self.now)
        )
        return breakdown.total, self._done, StepOutcome(info, breakdown)

    def _fold(self, info: ClusterInfo) -> None:
        """Add one step's accounting to the ledger, each sum a left fold over steps."""
        sums = self._sums
        sums["total_cost_usd"] += info.cost_usd()
        sums["total_co2_t"] += info.emissions_kg() / 1000.0
        sums["total_energy_mwh"] += info.energy_kwh() / 1000.0
        sums["total_water_m3"] += info.total("water_l") / 1000.0
        sums["tx_cost_usd"] += info.transmission_cost_total_usd
        sums["tasks_deferred"] += info.tasks_deferred_count
        self._met += info.total("sla_met")
        self._violated += info.total("sla_violated")
        for d in info.datacenters.values():
            sums["avg_cpu_util_pct"] += d.cpu_util_pct
            sums["avg_gpu_util_pct"] += d.gpu_util_pct
        self._site_steps += len(info.datacenters)

    def kpis(self) -> dict:
        """The episode's KPIs so far, keyed by ``KPI_KEYS``: totals over steps,
        ``sla_violation_pct`` over the tasks judged (met or violated) and the
        utilization means over site-steps, each 0 while there are none."""
        kpis = dict(self._sums)
        judged = self._met + self._violated
        kpis["sla_violation_pct"] = 100.0 * self._violated / judged if judged else 0.0
        for key in ("avg_cpu_util_pct", "avg_gpu_util_pct"):
            kpis[key] = kpis[key] / self._site_steps if self._site_steps else 0.0
        return kpis

    def step_single_action(self, action):
        """Apply one global action to every pending task (aggregated mode): ``0..N``, 0
        deferring, or ``0..N-1`` onto datacenters ``1..N`` when deferral is disabled."""
        if self._done:
            raise ProtocolError("episode is done; call reset()")
        shift = int(self.disable_defer_action)
        action = _check_action(action, 0, self.num_dcs - shift)
        return self.step([action + shift] * len(self.current_tasks))

    def task_census(self) -> dict:
        """Lifecycle counts including tasks currently awaiting a decision."""
        counts = self.cluster.census()
        counts["awaiting_decision"] = len(self.current_tasks)
        counts["injected"] = self._injected
        return counts
