"""Discrete-time scheduling environment: observations, action processing, rewards.

Each 15-minute step the environment presents the pending decision tasks
(yesterday's deferrals first, then fresh arrivals), accepts one integer decision
per task (0 = defer, j = assign to the j-th datacenter), applies the overdue-task
override, advances the cluster, and scores the outcome with the configured
reward. An aggregated single-action mode collapses the per-task interface into
one fixed-size vector and one global action.

Episodes are fully deterministic given the configuration and seed: one root
generator drives datacenter shuffling and task-origin sampling.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from .cluster import Cluster, ClusterInfo
from .envdata import value_at
from .errors import ConfigError, ProtocolError
from .rewards import CompositeReward, RewardBreakdown
from .workload import STEP, TaskStatus, TraceInterval, assign_task_origins

STEPS_PER_DAY = timedelta(days=1) // STEP

TIME_FEATURES = 4
TASK_FEATURES = 5
DC_FEATURES = 5


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
        cores_frac = node.available_cores / node.total_cores if node.total_cores else 0.0
        gpu_frac = node.available_gpus / node.total_gpus if node.total_gpus else 0.0
        mem_frac = node.available_mem_gb / node.total_mem_gb if node.total_mem_gb else 0.0
        ci = value_at(node.carbon, now) / 1000.0
        price = value_at(node.price, now) / 100.0
        feats.extend([cores_frac, gpu_frac, mem_frac, ci, price])
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
            sum(t.cores_req for t in pending_tasks) / k,
            sum(t.gpu_req for t in pending_tasks) / k,
            sum(t.duration_min for t in pending_tasks) / k,
            min(_minutes_to_deadline(t, now) for t in pending_tasks),
        ]
    else:
        agg = [0.0, 0.0, 0.0, 0.0, horizon_minutes]
    return np.asarray(time_feats + agg + _dc_features(cluster, now), dtype=np.float32)


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
        trace: list[TraceInterval],
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
        self._intervals = {iv.interval_start: iv for iv in trace}
        self.start = start
        self.duration_days = duration_days
        self.horizon_steps = duration_days * STEPS_PER_DAY
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
        self._done = True

    @property
    def num_dcs(self) -> int:
        return len(self.cluster.nodes)

    def _check_coverage(self):
        end = self.start + self.horizon_steps * STEP
        missing = []
        for node in self.cluster.nodes:
            for series in (node.price, node.carbon, node.drybulb, node.humidity):
                if not series.covers(self.start, end):
                    missing.append(
                        f"dc {node.dc_id} {series.kind.value} covers "
                        f"[{series.start.isoformat()}, {series.end.isoformat()}]"
                    )
        if missing:
            raise ConfigError(
                "series do not cover the simulation window "
                f"[{self.start.isoformat()}, {end.isoformat()}]: " + "; ".join(missing)
            )

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
        self.now = self.start
        self.step_index = 0
        self._done = False
        self.current_tasks = self._inject_arrivals(self.now)
        return self._observe()

    def _inject_arrivals(self, now: datetime) -> list:
        interval = self._intervals.get(now)
        if interval is None:
            return []
        # Every Task field is immutable, so a shallow copy is a full clone.
        tasks = [copy.copy(t) for t in interval.tasks]
        unassigned = [t for t in tasks if t.origin_dc_id is None]
        if unassigned:
            dcs = [
                (n.dc_id, n.timezone_shift_h, n.population_weight)
                for n in self.cluster.nodes
            ]
            assign_task_origins(unassigned, dcs, now, self._rng)
        valid = set(self.cluster.by_id)
        for t in tasks:
            if t.origin_dc_id not in valid:
                raise ConfigError(
                    f"task {t.job_id} origin {t.origin_dc_id} is not a configured dc"
                )
        self.cluster.injected_count += len(tasks)
        return tasks

    def _observe(self):
        if self.single_action_mode:
            return build_agg_observation(
                self.cluster, self.current_tasks, self.now,
                horizon_minutes=self.horizon_steps * STEP / timedelta(minutes=1),
            )
        return build_observation(self.cluster, self.current_tasks, self.now)

    def _action_index_of(self, dc_id: int) -> int:
        for i, node in enumerate(self.cluster.nodes):
            if node.dc_id == dc_id:
                return i + 1
        raise ProtocolError(f"dc_id {dc_id} not in cluster")

    def step(self, actions):
        """Apply one decision per pending task; returns (obs, reward, done, outcome)."""
        if self._done:
            raise ProtocolError("episode is done; call reset()")
        actions = list(actions)
        if len(actions) != len(self.current_tasks):
            raise ProtocolError(
                f"expected {len(self.current_tasks)} actions, got {len(actions)}"
            )
        n = self.num_dcs
        for a in actions:
            if int(a) != a or not 0 <= int(a) <= n:
                raise ProtocolError(f"action {a!r} outside 0..{n}")
        return self._advance([int(a) for a in actions])

    def step_single_action(self, action: int):
        """Apply one global action to every pending task (aggregated mode)."""
        if self._done:
            raise ProtocolError("episode is done; call reset()")
        n = self.num_dcs
        action = int(action)
        if self.disable_defer_action:
            if not 0 <= action <= n - 1:
                raise ProtocolError(f"action {action} outside 0..{n - 1}")
            per_task = action + 1  # 0..N-1 maps onto datacenters 1..N
        else:
            if not 0 <= action <= n:
                raise ProtocolError(f"action {action} outside 0..{n}")
            per_task = action
        return self._advance([per_task] * len(self.current_tasks))

    def _advance(self, actions: list[int]):
        deferred = []
        decisions = []
        for task, action in zip(self.current_tasks, actions):
            if self.now > task.sla_deadline:
                # Overdue tasks are forced to their origin site regardless of the action.
                action = self._action_index_of(task.origin_dc_id)
            if action == 0:
                task.set_status(TaskStatus.DEFERRED)
                deferred.append(task)
            else:
                decisions.append((task, self.cluster.nodes[action - 1].dc_id))
        self.current_tasks = []

        tx = self.cluster.route_assignments(decisions, self.step_index, self.now)
        info = self.cluster.step(self.step_index, self.now, tx, deferred_count=len(deferred))
        breakdown = self.reward_fn(info)

        self.step_index += 1
        self.now = self.now + STEP
        self._done = self.step_index >= self.horizon_steps

        for task in deferred:
            task.set_status(TaskStatus.PENDING)
        self.current_tasks = deferred + (
            [] if self._done else self._inject_arrivals(self.now)
        )
        return self._observe(), breakdown.total, self._done, StepOutcome(info, breakdown)

    def task_census(self) -> dict:
        """Lifecycle counts including tasks currently awaiting a decision."""
        counts = self.cluster.census()
        counts["awaiting_decision"] = len(self.current_tasks)
        counts["injected"] = self.cluster.injected_count
        return counts
