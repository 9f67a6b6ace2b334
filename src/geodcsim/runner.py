"""CLI runner: load configs, drive episodes, write step logs and KPI summaries.

A run is specified by three YAML files (simulation window and strategy, the
datacenter fleet, the reward composition) plus optional per-site physics JSON.
Every stochastic substream (synthetic data, origin sampling, shuffling) derives
from the single --seed value, so one number reproduces a whole run. Step logs
are versioned CSV; KPIs aggregate per the episode metric definitions, and
sweeps report population mean/std across seeds.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import sys
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import yaml

from . import envdata, network
from .cluster import Cluster, DatacenterNode
from .controllers import RbcStrategy, RuleBasedController, snapshot_cluster
from .dcphysics import desk_scale_params, load_dc_config
from .envdata import SeriesKind, synth_series
from .errors import ConfigError, SimulationError
from .rewards import CompositeReward
from .schedenv import STEPS_PER_DAY, SchedulingEnv
from .workload import STEP, ResourceRanges, generate_synthetic_trace, load_trace

logger = logging.getLogger(__name__)

STEP_LOG_SCHEMA = "geodcsim-steplog-v1"

KPI_KEYS = (
    "total_cost_usd",
    "total_co2_t",
    "total_energy_mwh",
    "total_water_m3",
    "sla_violation_pct",
    "avg_cpu_util_pct",
    "avg_gpu_util_pct",
    "tx_cost_usd",
    "tasks_deferred",
)

_DC_LOG_FIELDS = (
    ("energy_kwh", "energy_consumption_kwh"),
    ("cost_usd", "energy_cost_usd"),
    ("carbon_kg", "carbon_emissions_kg"),
    ("water_l", "water_l"),
    ("sla_met", "sla_met"),
    ("sla_violated", "sla_violated"),
    ("cpu_util_pct", "cpu_util_pct"),
    ("gpu_util_pct", "gpu_util_pct"),
    ("mem_util_pct", "mem_util_pct"),
    ("running", "running_count"),
    ("pending", "pending_count"),
)


@dataclass
class SyntheticSeriesSpec:
    base: float
    daily_amplitude: float = 0.0
    noise_sd: float = 0.0


@dataclass
class SyntheticWeatherSpec:
    base_temp_c: float = 18.0
    daily_amplitude: float = 0.0
    noise_sd: float = 0.0
    rel_humidity_pct: float = 50.0


@dataclass
class DcSpec:
    dc_id: int
    location: str
    timezone_shift: float
    population_weight: float
    total_cores: float
    total_gpus: float
    total_mem_gb: float
    dc_config_file: str | None = None
    hru_enabled: bool = False
    hvac_policy: str = "fixed"
    hvac_setpoint_c: float = 22.0
    hvac_deadband: tuple = (24.0, 26.0)
    price_csv: str | None = None
    carbon_csv: str | None = None
    weather_json: str | None = None
    synth_price: SyntheticSeriesSpec = field(default_factory=lambda: SyntheticSeriesSpec(80.0, 30.0))
    synth_carbon: SyntheticSeriesSpec = field(default_factory=lambda: SyntheticSeriesSpec(300.0, 100.0))
    synth_weather: SyntheticWeatherSpec = field(default_factory=SyntheticWeatherSpec)


@dataclass
class SimConfig:
    year: int
    month: int
    init_day: int
    init_hour: int
    duration_days: int
    timestep_minutes: int = 15
    workload_path: str | None = None
    cost_matrix_path: str | None = None
    delay_params_path: str | None = None
    region_map_path: str | None = None
    shuffle_datacenters: bool = False
    strategy: str = "local_only"
    single_action_mode: bool = False
    disable_defer_action: bool = False
    mean_tasks_per_interval: float = 2.0
    resource_ranges: ResourceRanges = field(default_factory=ResourceRanges)

    def __post_init__(self):
        if timedelta(minutes=self.timestep_minutes) != STEP:
            raise ConfigError(f"timestep_minutes must be {STEP // timedelta(minutes=1)}")
        if self.duration_days < 1:
            raise ConfigError("duration_days must be >= 1")
        try:
            self.start = datetime(
                self.year, self.month, self.init_day, self.init_hour, tzinfo=timezone.utc
            )
        except ValueError as exc:
            raise ConfigError(f"invalid start date: {exc}") from exc


def _cast(doc: dict, key: str, kind, default=None, where: str = ""):
    """``kind(doc[key])``, or ``kind(default)`` when one is given and ``key`` is
    absent; a failed cast names ``where`` + ``key``."""
    value = doc[key] if default is None else doc.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}{key}: {exc}") from exc


def _with_doc(base, doc: dict, names=None, prefix: str = "", where: str = ""):
    """Copy of dataclass ``base`` with the fields in ``names`` (default: those named
    ``prefix`` + key) that ``doc`` sets, each cast to the type of the value it replaces;
    ``where`` is the path of ``doc``'s section, for naming a key whose cast fails."""
    if names is None:
        names = [f.name for f in fields(base) if f.name.startswith(prefix)]
    changes = {}
    for name in names:
        key = name.removeprefix(prefix)
        if key in doc:
            old = getattr(base, name)
            changes[name] = doc[key] if old is None else _cast(doc, key, type(old), where=where)
    return replace(base, **changes)


def load_sim_config(path) -> SimConfig:
    with open(path) as fh:
        doc = yaml.safe_load(fh) or {}
    sim = doc.get("simulation")
    if sim is None:
        raise ConfigError(f"{path}: missing top-level 'simulation' section")
    ranges_doc = sim.get("synthetic_workload") or {}
    try:
        ranges = _with_doc(ResourceRanges(), ranges_doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad synthetic_workload ranges: {exc}") from exc
    try:
        base = SimConfig(
            year=_cast(sim, "year", int),
            month=_cast(sim, "month", int),
            init_day=_cast(sim, "init_day", int),
            init_hour=_cast(sim, "init_hour", int, 0),
            duration_days=_cast(sim, "duration_days", int),
            resource_ranges=ranges,
        )
        base = _with_doc(base, ranges_doc, ["mean_tasks_per_interval"],
                         where="synthetic_workload.")
        return _with_doc(base, sim, [
            "timestep_minutes", "workload_path", "cost_matrix_path", "delay_params_path",
            "region_map_path", "shuffle_datacenters", "strategy", "single_action_mode",
            "disable_defer_action",
        ])
    except KeyError as exc:
        raise ConfigError(f"{path}: missing simulation field {exc.args[0]!r}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: simulation: {exc}") from exc


def load_dc_fleet(path) -> list[DcSpec]:
    with open(path) as fh:
        doc = yaml.safe_load(fh) or {}
    entries = doc.get("datacenters")
    if not entries:
        raise ConfigError(f"{path}: missing or empty 'datacenters' list")
    specs = []
    for i, entry in enumerate(entries):
        try:
            spec = DcSpec(
                dc_id=_cast(entry, "dc_id", int),
                location=str(entry["location"]),
                timezone_shift=_cast(entry, "timezone_shift", float, 0),
                population_weight=_cast(entry, "population_weight", float, 1.0),
                total_cores=_cast(entry, "total_cores", float),
                total_gpus=_cast(entry, "total_gpus", float),
                total_mem_gb=_cast(entry, "total_mem_gb", float),
            )
            spec = _with_doc(spec, entry, ["dc_config_file", "hru_enabled"])
            spec = _with_doc(spec, entry.get("hvac") or {}, prefix="hvac_", where="hvac.")
            spec = _with_doc(
                spec, entry.get("data") or {}, ["price_csv", "carbon_csv", "weather_json"]
            )
            synth = entry.get("synthetic") or {}
            spec.synth_price = _with_doc(spec.synth_price, synth.get("price") or {},
                                         where="synthetic.price.")
            spec.synth_carbon = _with_doc(spec.synth_carbon, synth.get("carbon") or {},
                                          where="synthetic.carbon.")
            spec.synth_weather = _with_doc(spec.synth_weather, synth.get("weather") or {},
                                           where="synthetic.weather.")
        except KeyError as exc:
            raise ConfigError(f"{path}: datacenter {i}: missing field {exc.args[0]!r}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: datacenter {i}: {exc}") from exc
        specs.append(spec)
    ids = [s.dc_id for s in specs]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"{path}: dc_id values must be unique")
    return specs


def load_reward_config(path) -> dict:
    with open(path) as fh:
        doc = yaml.safe_load(fh) or {}
    if "reward" not in doc:
        raise ConfigError(f"{path}: missing top-level 'reward' section")
    return doc


def _seed_ints(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _build_series(spec: DcSpec, sim: SimConfig, seeds: list[int]):
    hours = sim.duration_days * 24 + 1
    if spec.price_csv:
        price = envdata.load_price_csv(spec.price_csv, spec.location)
    else:
        p = spec.synth_price
        price = synth_series(SeriesKind.PRICE, p.base, p.daily_amplitude, p.noise_sd,
                             sim.start, hours, seeds[0], spec.location)
    if spec.carbon_csv:
        carbon = envdata.load_carbon_csv(spec.carbon_csv, spec.location)
    else:
        c = spec.synth_carbon
        carbon = synth_series(SeriesKind.CARBON_INTENSITY, c.base, c.daily_amplitude,
                              c.noise_sd, sim.start, hours, seeds[1], spec.location)
    if spec.weather_json:
        drybulb, humidity = envdata.load_weather_json(spec.weather_json, spec.location)
    else:
        w = spec.synth_weather
        drybulb = synth_series(SeriesKind.DRY_BULB_TEMP_C, w.base_temp_c, w.daily_amplitude,
                               w.noise_sd, sim.start, hours, seeds[2], spec.location)
        humidity = synth_series(SeriesKind.REL_HUMIDITY_PCT, w.rel_humidity_pct, 0.0, 0.0,
                                sim.start, hours, seeds[2], spec.location)
    return price, carbon, drybulb, humidity


def build_env(sim: SimConfig, fleet: list[DcSpec], reward_doc: dict, seed: int) -> SchedulingEnv:
    """Assemble the environment for one seeded episode."""
    seeds = _seed_ints(seed, 2 + 3 * len(fleet))
    workload_seed, env_seed = seeds[0], seeds[1]

    cost_matrix = (
        network.CostMatrix.from_csv(sim.cost_matrix_path)
        if sim.cost_matrix_path else network.default_cost_matrix()
    )
    delay_table = (
        network.DelayTable.from_csv(sim.delay_params_path)
        if sim.delay_params_path else network.default_delay_table()
    )
    region_map = (
        network.RegionMap.from_csv(sim.region_map_path)
        if sim.region_map_path else network.default_region_map()
    )
    for spec in fleet:
        region_map.region_of(spec.location)  # fail before step 0 on unmapped locations

    site_data = []
    for i, spec in enumerate(fleet):
        try:
            series = _build_series(spec, sim, seeds[2 + 3 * i: 5 + 3 * i])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"dc {spec.dc_id}: {exc}") from exc
        params = load_dc_config(spec.dc_config_file) if spec.dc_config_file else desk_scale_params()
        if spec.hvac_policy not in ("fixed", "deadband"):
            raise ConfigError(f"dc {spec.dc_id}: unknown hvac policy {spec.hvac_policy!r}")
        site_data.append((spec, params, series))

    def cluster_factory() -> Cluster:
        nodes = [
            DatacenterNode(
                dc_id=spec.dc_id,
                location_code=spec.location,
                timezone_shift_h=spec.timezone_shift,
                population_weight=spec.population_weight,
                total_cores=spec.total_cores,
                total_gpus=spec.total_gpus,
                total_mem_gb=spec.total_mem_gb,
                physics=params,
                price=series[0],
                carbon=series[1],
                drybulb=series[2],
                humidity=series[3],
                hru_enabled=spec.hru_enabled,
                setpoint_c=spec.hvac_setpoint_c,
                deadband=spec.hvac_deadband if spec.hvac_policy == "deadband" else None,
            )
            for spec, params, series in site_data
        ]
        return Cluster(nodes, cost_matrix, delay_table, region_map)

    if sim.workload_path:
        trace = load_trace(sim.workload_path)
    else:
        trace = generate_synthetic_trace(
            sim.start, sim.duration_days * STEPS_PER_DAY,
            sim.mean_tasks_per_interval, sim.resource_ranges, workload_seed,
        )

    reward_fn = CompositeReward.from_config(reward_doc)
    return SchedulingEnv(
        cluster_factory=cluster_factory,
        trace=trace,
        start=sim.start,
        duration_days=sim.duration_days,
        reward_fn=reward_fn,
        seed=env_seed,
        single_action_mode=sim.single_action_mode,
        disable_defer_action=sim.disable_defer_action,
        shuffle_datacenters=sim.shuffle_datacenters,
    )


def _log_header(dc_ids) -> list[str]:
    cols = ["step", "time_utc"]
    for dc_id in dc_ids:
        cols.extend(f"dc{dc_id}_{short}" for short, _ in _DC_LOG_FIELDS)
    cols.extend(["tx_cost_usd", "tx_energy_kwh", "tx_emissions_kg", "tasks_deferred", "reward"])
    return cols


def _fmt(value) -> str:
    # repr gives the shortest round-trip decimal for IEEE-754 doubles
    return repr(float(value)) if isinstance(value, float) else str(value)


def _log_row(step_idx, time_utc, info, reward, dc_ids) -> list[str]:
    row = [str(step_idx), time_utc.isoformat()]
    for dc_id in dc_ids:
        d = info.datacenters[dc_id]
        row.extend(_fmt(getattr(d, attr)) for _, attr in _DC_LOG_FIELDS)
    row.extend([
        _fmt(info.transmission_cost_total_usd),
        _fmt(info.transmission_energy_total_kwh),
        _fmt(info.transmission_emissions_total_kg),
        str(info.tasks_deferred_count),
        _fmt(reward),
    ])
    return row


def run_episode(sim: SimConfig, fleet, reward_doc, seed: int, out_dir=None):
    """Drive one seeded episode; returns (log rows, KPI dict) and optionally writes files."""
    if sim.single_action_mode:
        raise ConfigError(
            "single_action_mode drives the programmatic step_single_action interface; "
            "the CLI strategies decide per task"
        )
    try:
        strategy = RbcStrategy(sim.strategy)
    except ValueError as exc:
        valid = ", ".join(s.value for s in RbcStrategy)
        raise ConfigError(f"unknown strategy {sim.strategy!r}; expected one of: {valid}") from exc

    env = build_env(sim, fleet, reward_doc, seed)
    controller = RuleBasedController(strategy)
    obs = env.reset()
    dc_ids = sorted(spec.dc_id for spec in fleet)
    rows = []
    totals = {key: 0.0 for key in KPI_KEYS}
    cpu_samples = []
    gpu_samples = []
    met_total = 0
    violated_total = 0
    done = False
    while not done:
        step_idx = env.step_index
        now = env.now
        snapshots = snapshot_cluster(env.cluster, now)
        actions = controller.decide(snapshots, env.current_tasks)
        obs, reward, done, outcome = env.step(actions)
        info = outcome.cluster_info
        rows.append(_log_row(step_idx, now, info, reward, dc_ids))
        totals["total_cost_usd"] += info.total("energy_cost_usd") + info.transmission_cost_total_usd
        totals["total_co2_t"] += (
            info.total("carbon_emissions_kg") + info.transmission_emissions_total_kg
        ) / 1000.0
        totals["total_energy_mwh"] += (
            info.total("energy_consumption_kwh") + info.transmission_energy_total_kwh
        ) / 1000.0
        totals["total_water_m3"] += info.total("water_l") / 1000.0
        totals["tx_cost_usd"] += info.transmission_cost_total_usd
        totals["tasks_deferred"] += info.tasks_deferred_count
        met_total += info.total("sla_met")
        violated_total += info.total("sla_violated")
        for d in info.datacenters.values():
            cpu_samples.append(d.cpu_util_pct)
            gpu_samples.append(d.gpu_util_pct)

    judged = met_total + violated_total
    totals["sla_violation_pct"] = 100.0 * violated_total / judged if judged else 0.0
    totals["avg_cpu_util_pct"] = sum(cpu_samples) / len(cpu_samples) if cpu_samples else 0.0
    totals["avg_gpu_util_pct"] = sum(gpu_samples) / len(gpu_samples) if gpu_samples else 0.0

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_step_log(out_dir / f"steps_seed{seed}.csv", dc_ids, rows)
        with open(out_dir / f"kpi_seed{seed}.json", "w") as fh:
            json.dump(totals, fh, indent=2)
    return rows, totals


def write_step_log(path, dc_ids, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {STEP_LOG_SCHEMA}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_log_header(dc_ids))
        writer.writerows(rows)


def summarize_kpis(kpi_rows: list[dict]) -> dict:
    """Population mean/std per KPI across seeds (std 0 for a single seed)."""
    if not kpi_rows:
        raise ValueError("at least one KPI row is required")
    summary = {}
    for key in KPI_KEYS:
        vals = [row[key] for row in kpi_rows]
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / len(vals)
        summary[key] = {"mean": mean, "std": math.sqrt(var)}
    return summary


def run_sweep(sim: SimConfig, fleet, reward_doc, seeds, out_dir=None) -> dict:
    """Run one episode per seed and aggregate KPIs; any failed seed aborts."""
    if not seeds:
        raise ConfigError("at least one seed is required")
    kpi_rows = []
    for seed in seeds:
        _, kpis = run_episode(sim, fleet, reward_doc, seed, out_dir=out_dir)
        kpi_rows.append(kpis)
    summary = summarize_kpis(kpi_rows)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "summary.json", "w") as fh:
            json.dump(summary, fh, indent=2)
        with open(out_dir / "summary.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["kpi", "mean", "std"])
            for key in KPI_KEYS:
                writer.writerow([key, repr(summary[key]["mean"]), repr(summary[key]["std"])])
    return summary


def _parse_seeds(args) -> list[int]:
    if args.seeds:
        try:
            return [int(s) for s in args.seeds.split(",") if s.strip() != ""]
        except ValueError as exc:
            raise ConfigError(f"bad --seeds value {args.seeds!r}") from exc
    return [args.seed]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="geodcsim",
        description="Run geo-distributed datacenter scheduling episodes and KPI sweeps.",
    )
    parser.add_argument("--sim-config", required=True, help="simulation YAML")
    parser.add_argument("--dc-config", required=True, help="datacenter fleet YAML")
    parser.add_argument("--reward-config", required=True, help="reward composition YAML")
    parser.add_argument("--strategy", help="override the configured scheduling strategy")
    parser.add_argument("--seed", type=int, default=0, help="single seed (default 0)")
    parser.add_argument("--seeds", help="comma-separated seed list, e.g. 0,1,2")
    parser.add_argument("--days", type=int, help="override simulation duration in days")
    parser.add_argument("--out", default="runs", help="output directory (default ./runs)")
    args = parser.parse_args(argv)

    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        sim = load_sim_config(args.sim_config)
        fleet = load_dc_fleet(args.dc_config)
        reward_doc = load_reward_config(args.reward_config)
        sim = replace(
            sim,
            strategy=args.strategy or sim.strategy,
            duration_days=sim.duration_days if args.days is None else args.days,
        )
        seeds = _parse_seeds(args)
        summary = run_sweep(sim, fleet, reward_doc, seeds, out_dir=args.out)
    except (SimulationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"strategy={sim.strategy} days={sim.duration_days} seeds={seeds}")
    for key in KPI_KEYS:
        stats = summary[key]
        print(f"  {key:>20}: {stats['mean']:.4f} +/- {stats['std']:.4f}")
    print(f"outputs written to {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
