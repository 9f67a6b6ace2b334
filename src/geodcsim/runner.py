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
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, is_dataclass, replace
from datetime import datetime, timedelta, timezone
from itertools import permutations
from operator import attrgetter
from pathlib import Path

import numpy as np
import yaml

from . import envdata, network
from .cluster import Cluster, ClusterInfo, DatacenterNode, DcStepInfo, check_site
from .controllers import RuleBasedController, snapshot_cluster
from .dcphysics import DcPhysicsParams, check_envelope, desk_scale_params, load_dc_config
from .envdata import SeriesKind, check_coverage, synth_series
from .errors import ConfigError, SimulationError, naming, within
from .floats import checked, left_sum
from .rewards import CompositeReward
from .schedenv import (KPI_KEYS, STEPS_PER_DAY, SchedulingEnv,  # KPI_KEYS: re-exported
                       check_seed, check_window)
from .workload import (OFF_HOURS_ACTIVITY, STEP, ResourceRanges, first_unknown_origin,
                       generate_synthetic_trace, load_trace)

logger = logging.getLogger(__name__)

STEP_LOG_SCHEMA = "geodcsim-steplog-v1"

# libyaml's scanner and parser under PyYAML's own safe constructor and resolver, so
# the documents are SafeLoader's; SafeLoader where PyYAML was built without libyaml
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _log_columns(record):
    """The v1 step-log columns that ``record``'s fields declare, in field order, a getter
    of their values and the format that writes them: "%s" is str, for a float its repr."""
    declared = [f for f in fields(record) if "column" in f.metadata]
    return ([f.metadata["column"] or f.name for f in declared],
            attrgetter(*(f.name for f in declared)), ",".join(["%s"] * len(declared)))


_SITE_COLUMNS, _site_values, _SITE_FORMAT = _log_columns(DcStepInfo)
_TAIL_COLUMNS, _tail_values, _TAIL_FORMAT = _log_columns(ClusterInfo)  # then the reward


@dataclass
class SyntheticSeriesSpec:  # synth_series checks it, and what it draws
    base: float
    daily_amplitude: float = 0.0
    noise_sd: float = 0.0


@dataclass
class SyntheticWeatherSpec:
    base_temp_c: float = 18.0
    daily_amplitude: float = 0.0
    noise_sd: float = 0.0
    rel_humidity_pct: float = envdata.DEFAULT_REL_HUMIDITY_PCT

    def __post_init__(self):
        if not 0.0 <= self.rel_humidity_pct <= 100.0:  # synth_series would clip it
            raise ValueError(f"rel_humidity_pct: must lie in [0, 100], got {self.rel_humidity_pct}")


@dataclass
class DcSpec:
    dc_id: int
    location: str
    total_cores: float
    total_gpus: float
    total_mem_gb: float
    timezone_shift: float = 0.0
    population_weight: float = 1.0
    dc_config_file: str | None = None
    hru_enabled: bool = False
    hvac_policy: str = "fixed"
    hvac_setpoint_c: float = DatacenterNode.setpoint_c
    hvac_deadband: tuple = (24.0, 26.0)
    price_csv: str | None = None
    carbon_csv: str | None = None
    weather_json: str | None = None
    synth_price: SyntheticSeriesSpec = field(default_factory=lambda: SyntheticSeriesSpec(80.0, 30.0))
    synth_carbon: SyntheticSeriesSpec = field(default_factory=lambda: SyntheticSeriesSpec(300.0, 100.0))
    synth_weather: SyntheticWeatherSpec = field(default_factory=SyntheticWeatherSpec)
    # the block of dc_config_file that load_dc_fleet read; None: build_env reads it
    physics: DcPhysicsParams | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        _cast(vars(self), "dc_id", float)  # observations carry it as a float
        if self.hvac_policy not in ("fixed", "deadband"):  # read from the hvac section
            raise ValueError(f"policy: must be 'fixed' or 'deadband', got {self.hvac_policy!r}")
        self.hvac_deadband = check_site(
            self.dc_id, (self.total_cores, self.total_gpus, self.total_mem_gb),
            self.timezone_shift, self.population_weight,
            self.hvac_deadband)  # a fixed site's deadband too


@dataclass
class SimConfig:
    year: int
    month: int
    init_day: int
    duration_days: int
    init_hour: int = 0
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
        if self.timestep_minutes != STEP // timedelta(minutes=1):
            raise ConfigError(f"timestep_minutes must be {STEP // timedelta(minutes=1)}")
        RuleBasedController(self.strategy)  # its owner refuses an unknown strategy
        with within(None):
            checked(self.mean_tasks_per_interval, "synthetic_workload.mean_tasks_per_interval", 0.0)
        with within("invalid start date (year, month, init_day, init_hour)"):
            self.start = datetime(  # a huge year overflows a C int
                self.year, self.month, self.init_day, self.init_hour, tzinfo=timezone.utc
            )
        self.duration_days = check_window(self.start, self.duration_days)


def _read_section(path, name: str, kind: type):
    """The top-level ``name`` section of YAML file ``path``, a non-empty ``kind`` (dict
    or list); each failure is one ``ConfigError`` line, which the caller names."""
    try:  # PyYAML decodes, so bad bytes raise a YAMLError
        with open(path, "rb") as fh, within("unreadable value"):  # e.g. a bad date, or an
            doc = yaml.load(fh, Loader=_YAML_LOADER)  # integer past Python's int digit limit
    except yaml.YAMLError as exc:  # its message spans lines: keep only the line number
        line = f" at line {exc.problem_mark.line + 1}" if getattr(exc, "problem_mark", None) else ""
        raise ConfigError(f"invalid YAML{line}") from exc
    section = doc.get(name) if isinstance(doc, dict) else None
    if not (section and isinstance(section, kind)):
        what = "list" if kind is list else "mapping"
        raise ConfigError(f"needs a non-empty top-level {name!r} {what}")
    return section


def _section(doc: dict, key: str, where: str = "") -> dict:
    """Sub-section ``doc[key]``, empty when absent or null; ``where`` is the path of
    ``doc``'s own section, for naming a value that is not a mapping."""
    value = doc.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValueError(f"{where}{key}: must be a mapping")
    return value


def _cast(doc: dict, key: str, kind, where: str = ""):
    """``doc[key]`` as ``kind``: a bool takes only a YAML boolean, an int or float is
    read by ``checked``, a path (kind ``NoneType``, from a ``None`` default) takes only
    a string or null, and any other kind casts with ``kind(value)``. A failure reads
    ``<where><key>: <problem>``."""
    value, name = doc[key], f"{where}{key}"
    if kind is bool and not isinstance(value, bool):
        raise ValueError(f"{name}: must be true or false")
    if kind is type(None):
        if value is None or isinstance(value, str):
            return value
        raise ValueError(f"{name}: must be a string or null")
    try:
        return checked(value, name, kind=kind) if kind in (int, float) else kind(value)
    except (TypeError, ValueError) as exc:  # checked's "<name> must ..." gains the colon too
        raise ValueError(f"{name}: {str(exc).removeprefix(name).lstrip(': ')}") from exc


def _with_doc(base, doc: dict, names=None, prefix: str = "", where: str = "", also=()):
    """Copy of dataclass ``base`` with the fields in ``names`` (default: those named
    ``prefix`` + key) that ``doc`` sets, each cast to the type of the value it replaces
    or, where that value is a dataclass, read from its own sub-section. Any other key
    of ``doc`` not in ``also`` (the keys read elsewhere) is an error; ``where`` is the
    path of ``doc``'s section, for naming a key."""
    if names is None:
        names = [f.name for f in fields(base) if f.name.startswith(prefix)]
    keys = [name.removeprefix(prefix) for name in names]
    for key in doc:
        if key not in keys and key not in also:
            raise ValueError(f"{where}{key}: unknown key")
    changes = {}
    for name, key in zip(names, keys):
        value = getattr(base, name)
        if key in doc and is_dataclass(value):
            changes[name] = _with_doc(value, _section(doc, key, where), where=f"{where}{key}.")
        elif key in doc:
            changes[name] = _cast(doc, key, type(value), where)
    try:
        return replace(base, **changes)
    except ValueError as exc:  # a field the dataclass's own check rejects
        raise ValueError(f"{where}{exc}") from exc


def load_sim_config(path) -> SimConfig:
    with naming(path):
        sim = _read_section(path, "simulation", dict)
        rate = ["mean_tasks_per_interval"]  # read from synthetic_workload, with the ranges
        names = [f.name for f in fields(SimConfig) if f.name not in (*rate, "resource_ranges")]
        try:
            with within("simulation"):
                ranges_doc = _section(sim, "synthetic_workload")
                with within("bad synthetic_workload ranges"):
                    ranges = _with_doc(ResourceRanges(), ranges_doc, also=rate)
                base = SimConfig(**{key: _cast(sim, key, int)
                                    for key in ("year", "month", "init_day", "duration_days")},
                                 resource_ranges=ranges)
                base = _with_doc(base, ranges_doc, rate, where="synthetic_workload.",
                                 also=ranges_doc)  # the ranges read checked its keys
                return _with_doc(base, sim, names, also=["synthetic_workload"])
        except KeyError as exc:
            raise ConfigError(f"missing simulation field {exc.args[0]!r}") from exc


def load_dc_fleet(path) -> list[DcSpec]:
    with naming(path):
        data = ["price_csv", "carbon_csv", "weather_json"]  # read from the data section
        top = [f.name for f in fields(DcSpec) if f.init
               and f.name not in data and not f.name.startswith(("hvac_", "synth_"))]
        specs = []
        for i, entry in enumerate(_read_section(path, "datacenters", list)):
            try:
                with within(f"datacenter {i}"):
                    spec = DcSpec(dc_id=_cast(entry, "dc_id", int),
                                  location=str(entry["location"]),
                                  **{key: _cast(entry, key, float)
                                     for key in ("total_cores", "total_gpus", "total_mem_gb")})
                    spec = _with_doc(spec, entry, top, also=["hvac", "data", "synthetic"])
                    spec = _with_doc(spec, _section(entry, "hvac"), prefix="hvac_", where="hvac.")
                    spec = _with_doc(spec, _section(entry, "data"), data, where="data.")
                    spec = _with_doc(spec, _section(entry, "synthetic"), prefix="synth_",
                                     where="synthetic.")
            except KeyError as exc:
                raise ConfigError(f"datacenter {i}: missing field {exc.args[0]!r}") from exc
            specs.append(spec)
        ids = [s.dc_id for s in specs]
        if len(set(ids)) != len(ids):
            raise ConfigError("dc_id values must be unique")
        with within(None):  # origin sampling divides each activity-scaled weight by their sum
            checked(left_sum(s.population_weight for s in specs), "the sum of population_weight")
            checked(left_sum(s.population_weight * OFF_HOURS_ACTIVITY for s in specs),
                    f"the sum of population_weight * {OFF_HOURS_ACTIVITY} (off hours)",
                    0.0, lo_open=True)
    for i, (spec, params) in enumerate(zip(specs, _physics_blocks(specs))):
        spec.physics = params
        lo, hi = params.setpoint_range_c
        if not lo <= spec.hvac_setpoint_c <= hi:
            with naming(path):
                raise ConfigError(f"datacenter {i}: hvac.setpoint_c: {spec.hvac_setpoint_c} "
                                  f"outside its physics SETPOINT_RANGE [{lo}, {hi}]")
    return specs


def _physics_blocks(specs) -> list:
    """Each spec's physics block: the one it holds, else the one read from its
    ``dc_config_file`` (once per file), else the desk-scale block. Each distinct
    block and site memory runs the envelope check at that memory, as a block checks
    itself with none; a refusal names the site's ``dc_config_file``."""
    read = {}
    for spec in specs:
        file = spec.dc_config_file
        if spec.physics is None and file not in read:
            read[file] = load_dc_config(file) if file else desk_scale_params()
    blocks = [read[spec.dc_config_file] if spec.physics is None else spec.physics
              for spec in specs]
    seen = set()
    for spec, params in zip(specs, blocks):
        if (id(params), spec.total_mem_gb) not in seen:
            seen.add((id(params), spec.total_mem_gb))
            with (naming(spec.dc_config_file) if spec.dc_config_file else nullcontext(),
                  within(f"dc {spec.dc_id}: at total_mem_gb {spec.total_mem_gb:g}")):
                check_envelope(params, spec.total_mem_gb)
    return blocks


def load_reward_config(path) -> dict:
    """``{"reward": …}``, checked by building the composite once, so that a bad
    component stops the run naming the file before any episode starts."""
    with naming(path):
        doc = {"reward": _read_section(path, "reward", dict)}
        CompositeReward.from_config(doc)
    return doc


def _seed_ints(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _build_series(spec: DcSpec, sim: SimConfig, seeds: list[int]):
    """The site's four series, each read from its file or drawn; a failed draw names the dc."""
    hours = sim.duration_days * 24 + 1

    def draw(kind, base, amplitude, noise_sd, seed):
        with within(f"dc {spec.dc_id}"):  # a DataError too: a value off its domain
            return synth_series(kind, base, amplitude, noise_sd, sim.start, hours, seed,
                                spec.location)

    p, c, w = spec.synth_price, spec.synth_carbon, spec.synth_weather
    price = (envdata.load_price_csv(spec.price_csv, spec.location) if spec.price_csv
             else draw(SeriesKind.PRICE, p.base, p.daily_amplitude, p.noise_sd, seeds[0]))
    carbon = (envdata.load_carbon_csv(spec.carbon_csv, spec.location) if spec.carbon_csv else
              draw(SeriesKind.CARBON_INTENSITY, c.base, c.daily_amplitude, c.noise_sd, seeds[1]))
    if spec.weather_json:
        return price, carbon, *envdata.load_weather_json(spec.weather_json, spec.location)
    return (price, carbon,
            draw(SeriesKind.DRY_BULB_TEMP_C, w.base_temp_c, w.daily_amplitude, w.noise_sd, seeds[2]),
            draw(SeriesKind.REL_HUMIDITY_PCT, w.rel_humidity_pct, 0.0, 0.0, seeds[2]))


def _check_trace_window(env: SchedulingEnv, path, n_tasks: int) -> None:
    """Refuse a trace file none of whose tasks the environment will inject, and warn
    once with the count when only some of them arrive at no step of its window."""
    missed = env.tasks_never_injected()
    if not missed:
        return
    window = f"[{env.start.isoformat()}, {env.end.isoformat()})"
    if missed == n_tasks:
        raise ConfigError(f"none of its {missed} tasks arrives at a "
                          f"step of the simulation window {window}")
    logger.warning("%s: %d of %d tasks arrive at no step of the simulation window %s "
                   "and never run", path, missed, n_tasks, window)


def build_env(sim: SimConfig, fleet: list[DcSpec], reward_doc: dict, seed: int) -> SchedulingEnv:
    """Assemble the environment for one seeded episode; ``seed`` is an int >= 0. Each
    cross-file check runs here, before any episode, naming the file at fault."""
    check_seed(seed)
    seeds = _seed_ints(seed, 2 + 3 * len(fleet))
    workload_seed, env_seed = seeds[0], seeds[1]

    cost_path = sim.cost_matrix_path or network.packaged_table("cost_matrix.csv")
    delay_path = sim.delay_params_path or network.packaged_table("delay_params.csv")
    region_path = sim.region_map_path or network.packaged_table("region_map.csv")
    cost_matrix = network.CostMatrix.from_csv(cost_path)
    delay_table = network.DelayTable.from_csv(delay_path)
    region_map = network.RegionMap.from_csv(region_path)
    # The fleet against the tables, one lookup per distinct region and cluster pair.
    with naming(region_path):
        sites = dict.fromkeys((region_map.region_of(spec.location),
                               region_map.cluster_of(spec.location)) for spec in fleet)
    with naming(cost_path), naming(region_path):  # the two tables disagree: name both
        for region, _ in sites:
            cost_matrix.rate(region, region)
    with naming(delay_path):
        for pair in permutations(dict.fromkeys(cluster for _, cluster in sites), 2):
            delay_table.lookup(*pair)

    site_data = [(spec, params, _build_series(spec, sim, seeds[2 + 3 * i: 5 + 3 * i]))
                 for i, (spec, params) in enumerate(zip(fleet, _physics_blocks(fleet)))]

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
        bad = first_unknown_origin(trace, {spec.dc_id for spec in fleet})
        if bad is not None:  # before any episode; reset() checks envs built otherwise
            with naming(sim.workload_path):
                raise ConfigError(f"task {bad.job_id}: origin {bad.origin_dc_id} "
                                  "is not a configured dc")
    else:
        with within("synthetic_workload"):  # e.g. a drawn task whose deadline overflows a date
            trace = generate_synthetic_trace(
                sim.start, sim.duration_days * STEPS_PER_DAY,
                sim.mean_tasks_per_interval, sim.resource_ranges, workload_seed,
            )

    reward_fn = CompositeReward.from_config(reward_doc)
    env = SchedulingEnv(
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
    if sim.workload_path:
        with naming(sim.workload_path):
            _check_trace_window(env, sim.workload_path, len(trace))
    for spec, _, series in site_data:  # a drawn series covers the window by construction
        files = (spec.price_csv, spec.carbon_csv, spec.weather_json, spec.weather_json)
        for path, one in zip(files, series):
            if path:
                with naming(path):
                    check_coverage([(spec.dc_id, one)], env.start, env.end)
    return env


def _log_header(dc_ids) -> list[str]:
    cols = ["step", "time_utc"]
    for dc_id in dc_ids:
        cols.extend(f"dc{dc_id}_{column}" for column in _SITE_COLUMNS)
    return [*cols, *_TAIL_COLUMNS, "reward"]


def _log_row(step_idx, time_utc, info, reward, dc_ids) -> str:
    """One step-log data line, without its newline. Every value cell is ``%s``, which
    is ``repr`` for a float. No value holds a comma, a quote or a line break, so
    joining with "," gives the bytes ``csv.writer`` would."""
    sites = info.datacenters
    return ",".join([
        str(step_idx),
        time_utc.isoformat(),
        *[_SITE_FORMAT % _site_values(sites[dc_id]) for dc_id in dc_ids],
        _TAIL_FORMAT % _tail_values(info),
        str(reward),
    ])


def run_episode(sim: SimConfig, fleet, reward_doc, seed: int, out_dir=None):
    """Drive one seeded episode; returns (the step log's data lines, each a ``str``
    without its newline, and ``env.kpis()``) and optionally writes them."""
    if sim.single_action_mode:
        raise ConfigError(
            "single_action_mode drives the programmatic step_single_action interface; "
            "the CLI strategies decide per task"
        )
    controller = RuleBasedController(sim.strategy)
    env = build_env(sim, fleet, reward_doc, seed)
    env.reset()
    dc_ids = sorted(spec.dc_id for spec in fleet)
    lines = []
    done = False
    while not done:
        step_idx = env.step_index
        now = env.now
        snapshots = snapshot_cluster(env.cluster, step_idx)
        actions = controller.decide(snapshots, env.current_tasks)
        reward, done, outcome = env.advance(actions)
        lines.append(_log_row(step_idx, now, outcome.cluster_info, reward, dc_ids))
    kpis = env.kpis()
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_step_log(out_dir / f"steps_seed{seed}.csv", dc_ids, lines)
        with open(out_dir / f"kpi_seed{seed}.json", "w") as fh:
            json.dump(kpis, fh, indent=2)
    return lines, kpis


def write_step_log(path, dc_ids, lines) -> None:
    """The schema line, the CSV header and each of ``_log_row``'s data ``lines``."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {STEP_LOG_SCHEMA}\n")
        csv.writer(fh, lineterminator="\n").writerow(_log_header(dc_ids))
        fh.writelines(line + "\n" for line in lines)


def summarize_kpis(kpi_rows: list[dict]) -> dict:
    """Population mean/std per KPI across seeds (std 0 for a single seed)."""
    if not kpi_rows:
        raise ValueError("at least one KPI row is required")
    summary = {}
    for key in KPI_KEYS:
        vals = [row[key] for row in kpi_rows]
        mean = left_sum(vals) / len(vals)
        var = left_sum((v - mean) ** 2 for v in vals) / len(vals)
        summary[key] = {"mean": mean, "std": math.sqrt(var)}
    return summary


def run_sweep(sim: SimConfig, fleet, reward_doc, seeds, out_dir=None) -> dict:
    """Run one episode per seed and aggregate KPIs; any failed seed aborts, and every
    seed is checked before the first episode runs."""
    if not seeds:
        raise ConfigError("at least one seed is required")
    for seed in seeds:
        check_seed(seed)
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
