"""Benchmark workloads for geodcsim, built in code from the shipped config triple.

Each workload loads ``configs/{sim,datacenters,reward}.yaml``, applies a few
overrides and runs through the simulator's public entry points. The workload
seed selects one of ``REFERENCE_SEEDS`` scenarios (``seed % REFERENCE_SEEDS``),
and ``references.json`` stores the SHA-256 of every step log and KPI dict each
of them produces, so every benchmark run checks that the simulated outputs are
byte-identical to the recorded ones.

Why each workload exists:

- ``light``: the shipped 3 sites at 2 tasks/interval, a two-seed ``run_sweep``
  with step logs. Per-site fixed costs dominate (wet-bulb, physics, series
  lookups, task cloning, log formatting). The only multi-seed workload.
- ``saturated``: the same sites at 40 tasks/interval. GPUs stay saturated and
  the backlog grows, so the FIFO first-fit rescan dominates; per-site physics
  is a small share.
- ``wide``: 48 sites at 2 tasks/interval. Queues stay empty; wet-bulb and
  physics dominate and each step-log row is 48 sites wide.
- ``agent``: the shipped 3 sites driven through ``SchedulingEnv`` by a seeded
  random policy that reads every observation and picks actions in ``0..N``.
  The only workload that defers tasks, forces overdue ones home and keeps the
  transit pool busy.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np

from geodcsim import network, runner

WORKLOADS = ("light", "saturated", "wide", "agent")
REFERENCE_SEEDS = 32

# Simulated days per episode; fixed so that every run of a workload simulates
# the same time span.
DAYS = {"light": 7, "saturated": 4, "wide": 2, "agent": 7}
TASKS_PER_INTERVAL = {"light": 2.0, "saturated": 40.0, "wide": 2.0, "agent": 2.0}
WIDE_SITES = 48
STRATEGY = "lowest_carbon"
# Separates the agent policy's random stream from the simulator's own streams.
AGENT_POLICY_STREAM = 0x6167

# Per-site fields hashed for each agent step: the same fields the v1 step log
# writes, so the agent digest covers what the CLI's log would.
AGENT_SITE_FIELDS = (
    "energy_consumption_kwh", "energy_cost_usd", "carbon_emissions_kg", "water_l",
    "sla_met", "sla_violated", "cpu_util_pct", "gpu_util_pct", "mem_util_pct",
    "running_count", "pending_count",
)


@dataclasses.dataclass
class Scenario:
    """One workload instance: the config triple after overrides, plus its seeds."""

    name: str
    sim: runner.SimConfig
    fleet: list
    reward_doc: dict
    sim_seeds: list

    @property
    def steps(self) -> int:
        """Simulated steps across all seeds of one run of the workload."""
        per_day = 24 * 60 // self.sim.timestep_minutes
        return self.sim.duration_days * per_day * len(self.sim_seeds)


@dataclasses.dataclass
class Episode:
    """Digests of one simulated episode's outputs."""

    key: str
    steps_sha256: str
    kpi_sha256: str
    kpis: dict

    @property
    def finite(self) -> bool:
        return all(math.isfinite(v) for v in self.kpis.values())

    def digests(self) -> dict:
        return {"steps": self.steps_sha256, "kpi": self.kpi_sha256}


def wide_fleet(templates: list) -> list:
    """WIDE_SITES sites cycling the site templates over the packaged locations."""
    locations = list(network.default_region_map().mapping)
    return [
        dataclasses.replace(
            templates[i % len(templates)], dc_id=i + 1, location=locations[i % len(locations)]
        )
        for i in range(WIDE_SITES)
    ]


def load_scenario(root, name: str, seed: int, days: int | None = None) -> Scenario:
    """Load the config triple under ``root/configs`` and apply the workload's overrides."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    configs = Path(root) / "configs"
    sim = runner.load_sim_config(configs / "sim.yaml")
    fleet = runner.load_dc_fleet(configs / "datacenters.yaml")
    reward_doc = runner.load_reward_config(configs / "reward.yaml")
    sim.duration_days = days or DAYS[name]
    sim.strategy = STRATEGY
    sim.mean_tasks_per_interval = TASKS_PER_INTERVAL[name]
    if name == "wide":
        fleet = wide_fleet(fleet)
    ref = seed % REFERENCE_SEEDS
    sim_seeds = [2 * ref, 2 * ref + 1] if name == "light" else [ref]
    return Scenario(name, sim, fleet, reward_doc, sim_seeds)


def setup(root, name: str, seed: int, days: int | None = None):
    """Load, override, build and reset; returns (host seconds, scenario, env)."""
    t0 = time.perf_counter()
    scn = load_scenario(root, name, seed, days)
    env = runner.build_env(scn.sim, scn.fleet, scn.reward_doc, scn.sim_seeds[0])
    env.reset()
    return time.perf_counter() - t0, scn, env


def _sha256_json(doc) -> str:
    # json writes floats with repr, so equal digests mean bit-identical values
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _read_episode(out_dir: Path, seed: int) -> Episode:
    steps = (out_dir / f"steps_seed{seed}.csv").read_bytes()
    kpis = json.loads((out_dir / f"kpi_seed{seed}.json").read_text())
    return Episode(f"seed{seed}", hashlib.sha256(steps).hexdigest(), _sha256_json(kpis), kpis)


def run_sweep(scn: Scenario, out_dir: Path):
    """Time one ``runner.run_sweep`` call with step logs; returns (seconds, episodes)."""
    t0 = time.perf_counter()
    runner.run_sweep(scn.sim, scn.fleet, scn.reward_doc, scn.sim_seeds, out_dir=out_dir)
    elapsed = time.perf_counter() - t0
    return elapsed, [_read_episode(out_dir, s) for s in scn.sim_seeds]


def run_agent(scn: Scenario, env, seed: int):
    """Time one episode of the seeded random policy; returns (seconds, [episode]).

    The policy sums every observation vector, then draws one action per task
    in ``0..N`` (0 defers). The reset before the loop is set-up, not timed.
    """
    rng = np.random.default_rng([seed % REFERENCE_SEEDS, AGENT_POLICY_STREAM])
    n_actions = len(scn.fleet) + 1
    obs = env.reset()
    obs_sum = 0.0
    obs_vectors = 0
    outcomes = []
    done = False
    t0 = time.perf_counter()
    while not done:
        for vec in obs:
            obs_sum += float(vec.sum())
        obs_vectors += len(obs)
        actions = rng.integers(0, n_actions, size=len(obs))
        obs, reward, done, outcome = env.step(actions)
        outcomes.append((reward, outcome.cluster_info))
    elapsed = time.perf_counter() - t0
    return elapsed, [_agent_episode(outcomes, obs_sum, obs_vectors)]


def _agent_episode(outcomes, obs_sum: float, obs_vectors: int) -> Episode:
    log = hashlib.sha256()
    kpis = {"reward": 0.0, "energy_kwh": 0.0, "cost_usd": 0.0, "water_l": 0.0,
            "sla_met": 0, "sla_violated": 0, "tx_cost_usd": 0.0, "tasks_deferred": 0}
    for step, (reward, info) in enumerate(outcomes):
        sites = [
            tuple(getattr(info.datacenters[dc_id], f) for f in AGENT_SITE_FIELDS)
            for dc_id in sorted(info.datacenters)
        ]
        row = (step, reward, sites, info.transmission_cost_total_usd,
               info.transmission_energy_total_kwh, info.transmission_emissions_total_kg,
               info.tasks_deferred_count)
        log.update(repr(row).encode())
        kpis["reward"] += reward
        kpis["energy_kwh"] += info.total("energy_consumption_kwh")
        kpis["cost_usd"] += info.total("energy_cost_usd")
        kpis["water_l"] += info.total("water_l")
        kpis["sla_met"] += info.total("sla_met")
        kpis["sla_violated"] += info.total("sla_violated")
        kpis["tx_cost_usd"] += info.transmission_cost_total_usd
        kpis["tasks_deferred"] += info.tasks_deferred_count
    kpis["obs_sum"] = obs_sum
    kpis["obs_vectors"] = obs_vectors
    return Episode("agent", log.hexdigest(), _sha256_json(kpis), kpis)


def run_once(scn: Scenario, env, seed: int, out_dir: Path):
    """One timed run of the workload's main call; returns (seconds, episodes)."""
    if scn.name == "agent":
        return run_agent(scn, env, seed)
    return run_sweep(scn, out_dir)


def check(episodes, expected: dict | None) -> int:
    """Number of episodes whose KPIs are non-finite or whose digests differ from ``expected``."""
    failed = 0
    for ep in episodes:
        if not ep.finite or expected is None or expected.get(ep.key) != ep.digests():
            failed += 1
    return failed
