import csv
import io
import json
import logging
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from geodcsim import cluster, envdata, network, runner, schedenv
from geodcsim.cluster import ClusterInfo, DcStepInfo
from geodcsim.controllers import RuleBasedController, snapshot_cluster
from geodcsim.dcphysics import desk_scale_params, save_dc_config
from geodcsim.envdata import (
    SeriesKind,
    load_price_csv,
    save_series_csv,
    save_weather_json,
    synth_series,
)
from geodcsim.errors import ConfigError
from geodcsim.runner import (
    KPI_KEYS,
    DcSpec,
    SimConfig,
    SyntheticSeriesSpec,
    build_env,
    load_dc_fleet,
    load_reward_config,
    load_sim_config,
    main,
    run_episode,
    run_sweep,
    summarize_kpis,
)
from geodcsim.workload import ResourceRanges, generate_synthetic_trace, save_trace

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def small_sim(**overrides):
    base = dict(year=2024, month=3, init_day=1, init_hour=0, duration_days=1,
                strategy="local_only", mean_tasks_per_interval=1.0,
                resource_ranges=ResourceRanges(cores_req=(1, 8), gpu_req=(0, 1),
                                               mem_req=(2, 16), bandwidth_gb=(0.1, 0.5)))
    base.update(overrides)
    return SimConfig(**base)


def small_fleet(n=2):
    locations = ["US-CAL-CISO", "DE-LU", "SG"]
    return [
        DcSpec(
            dc_id=i + 1, location=locations[i], timezone_shift=0.0,
            population_weight=1.0, total_cores=2000, total_gpus=40, total_mem_gb=8000,
            synth_price=SyntheticSeriesSpec(base=80.0 + 10 * i, daily_amplitude=20.0, noise_sd=2.0),
        )
        for i in range(n)
    ]


REWARD = {"reward": {"components": {"energy_price": {"weight": 1.0}}}}
_CONFIG_FLAGS = {"sim": "--sim-config", "datacenters": "--dc-config", "reward": "--reward-config"}
# The loader that parses the configs, and PyYAML's pure-Python one it must agree with
_LOADERS = pytest.mark.parametrize("loader", [yaml.SafeLoader, runner._YAML_LOADER],
                                   ids=["SafeLoader", "bound"])
# A config file that cannot be used at all, and the error that names it
_UNUSABLE_YAML = pytest.mark.parametrize("config, text, expected", [
    ("sim", b"simulation: [\n  year: 1\n", "invalid YAML at line 3"),
    ("sim", b"simulation:\n  year: \xc3\x28\n", "invalid YAML"),
    ("sim", b"- simulation\n", "needs a non-empty top-level 'simulation' mapping"),
    ("sim", b"simulation: 5\n", "needs a non-empty top-level 'simulation' mapping"),
    ("datacenters", b"datacenters: {dc_id: 1}\n",
     "needs a non-empty top-level 'datacenters' list"),
    ("datacenters", b"datacenters: []\n", "needs a non-empty top-level 'datacenters' list"),
    ("reward", b"reward: [1]\n", "needs a non-empty top-level 'reward' mapping"),
], ids=["sim_unclosed_list", "sim_bad_utf8", "sim_top_level_list", "sim_section_scalar",
        "fleet_section_mapping", "fleet_section_empty", "reward_section_list"])
# An edit of a shipped config whose value YAML parses but cannot build
_UNREADABLE_YAML = pytest.mark.parametrize("config, edit", [
    ("datacenters", lambda text: text.replace("total_cores: 2000", "total_cores: " + "9" * 5001)),
    ("sim", lambda text: text.replace("simulation:\n", "simulation:\n  when: 2024-13-01\n")),
], ids=["fleet_integer_past_the_digit_limit", "sim_impossible_date"])


class TestConfigLoading:
    def test_example_configs_parse(self):
        sim = load_sim_config(CONFIG_DIR / "sim.yaml")
        fleet = load_dc_fleet(CONFIG_DIR / "datacenters.yaml")
        reward = load_reward_config(CONFIG_DIR / "reward.yaml")
        assert sim.duration_days == 2
        assert [spec.dc_id for spec in fleet] == [1, 2, 3]
        assert "energy_price" in reward["reward"]["components"]

    def test_configs_parse_with_libyaml_where_pyyaml_has_it(self):
        """A PyYAML built with libyaml parses the configs in C, never the pure-Python
        parser, which takes about eight times as long."""
        assert runner._YAML_LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__
                                       else yaml.SafeLoader)

    def test_each_config_parses_through_the_bound_loader(self, monkeypatch):
        parsed = []

        class Recording(yaml.SafeLoader):
            def __init__(self, stream):
                parsed.append(stream.name)
                super().__init__(stream)

        monkeypatch.setattr(runner, "_YAML_LOADER", Recording)
        names = [CONFIG_DIR / f"{config}.yaml" for config in _CONFIG_FLAGS]
        for load, name in zip([load_sim_config, load_dc_fleet, load_reward_config], names):
            load(name)
        assert parsed == [str(name) for name in names]

    @_LOADERS
    def test_shipped_configs_load_alike_under_each_loader(self, monkeypatch, loader):
        """The shipped triple gives the same config, fleet and reward under libyaml's
        parser as under the pure-Python one."""
        def shipped():
            return (load_sim_config(CONFIG_DIR / "sim.yaml"),
                    load_dc_fleet(CONFIG_DIR / "datacenters.yaml"),
                    load_reward_config(CONFIG_DIR / "reward.yaml"))

        monkeypatch.setattr(runner, "_YAML_LOADER", yaml.SafeLoader)
        expected = shipped()
        monkeypatch.setattr(runner, "_YAML_LOADER", loader)
        assert shipped() == expected

    def test_timestep_must_be_fifteen(self):
        with pytest.raises(ConfigError, match="timestep"):
            small_sim(timestep_minutes=5)

    def test_missing_simulation_section(self, tmp_path):
        p = tmp_path / "sim.yaml"
        p.write_text("nothing: here\n")
        with pytest.raises(ConfigError):
            load_sim_config(p)

    def test_duplicate_dc_ids(self, tmp_path):
        doc = {"datacenters": [
            {"dc_id": 1, "location": "SG", "total_cores": 1, "total_gpus": 1, "total_mem_gb": 1},
            {"dc_id": 1, "location": "FR", "total_cores": 1, "total_gpus": 1, "total_mem_gb": 1},
        ]}
        p = tmp_path / "dc.yaml"
        p.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigError, match="unique"):
            load_dc_fleet(p)

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError, match="unknown strategy"):
            run_episode(small_sim(strategy="optimal"), small_fleet(), REWARD, seed=0)

    def test_single_action_mode_rejected_for_cli_strategies(self):
        with pytest.raises(ConfigError, match="single_action_mode"):
            run_episode(small_sim(single_action_mode=True), small_fleet(), REWARD, seed=0)

    def test_unmapped_location_fails_early(self):
        fleet = small_fleet()
        fleet[0].location = "ATLANTIS"
        with pytest.raises(ConfigError):
            build_env(small_sim(), fleet, REWARD, seed=0)


class TestRunEpisode:
    def test_one_day_has_96_rows(self, tmp_path):
        rows, kpis = run_episode(small_sim(), small_fleet(), REWARD, seed=1, out_dir=tmp_path)
        assert len(rows) == 96
        assert (tmp_path / "steps_seed1.csv").exists()
        assert (tmp_path / "kpi_seed1.json").exists()
        assert set(kpis) == set(KPI_KEYS)

    def test_returned_lines_are_the_logs_data_lines(self, tmp_path):
        lines, _ = run_episode(small_sim(strategy="round_robin"), small_fleet(3), REWARD,
                               seed=1, out_dir=tmp_path)
        written = (tmp_path / "steps_seed1.csv").read_text().split("\n")
        assert all(type(line) is str for line in lines)
        assert written[2:] == [*lines, ""]  # the schema line, the header, then one per step

    def test_builds_no_observation_after_reset(self, monkeypatch):
        """The CLI reads no observation, so stepping builds none."""
        calls = []
        original = schedenv.build_observation

        def counted(*args):
            calls.append(args[2])  # the instant, now
            return original(*args)

        monkeypatch.setattr(schedenv, "build_observation", counted)
        rows, _ = run_episode(small_sim(), small_fleet(), REWARD, seed=1)
        assert len(rows) == 96
        assert calls == [small_sim().start]  # the one reset() returns

    def test_same_seed_byte_identical_logs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_episode(small_sim(), small_fleet(), REWARD, seed=3, out_dir=a)
        run_episode(small_sim(), small_fleet(), REWARD, seed=3, out_dir=b)
        assert (a / "steps_seed3.csv").read_bytes() == (b / "steps_seed3.csv").read_bytes()

    def test_saved_synthetic_trace_runs_byte_for_byte_as_the_synthetic_one(self, tmp_path):
        """The synthetic trace builds its specs from its draws and a trace file runs
        the constructor per task: both must give the same episode."""
        sim = small_sim(strategy="round_robin", mean_tasks_per_interval=4.0)
        fleet = small_fleet(3)
        env = build_env(sim, fleet, REWARD, seed=4)
        trace = tmp_path / "trace.jsonl"
        save_trace(env.trace, trace)
        assert len(trace.read_text().splitlines()) > 300
        run_episode(sim, fleet, REWARD, seed=4, out_dir=tmp_path / "synthetic")
        run_episode(replace(sim, workload_path=str(trace)), fleet, REWARD, seed=4,
                    out_dir=tmp_path / "file")
        for name in ("steps_seed4.csv", "kpi_seed4.json"):
            assert ((tmp_path / "file" / name).read_bytes()
                    == (tmp_path / "synthetic" / name).read_bytes()), name

    @staticmethod
    def _episode(env, sim, fleet):
        """``run_episode``'s loop over ``env``'s next episode: its log lines and KPIs."""
        controller = RuleBasedController(sim.strategy)
        dc_ids = sorted(spec.dc_id for spec in fleet)
        env.reset()
        lines, done = [], False
        while not done:
            step_idx, now = env.step_index, env.now
            actions = controller.decide(snapshot_cluster(env.cluster, step_idx), env.current_tasks)
            reward, done, outcome = env.advance(actions)
            lines.append(runner._log_row(step_idx, now, outcome.cluster_info, reward, dc_ids))
        return lines, json.dumps(env.kpis())

    def test_later_episodes_of_one_env_repeat_a_fresh_envs_first(self):
        """Each reset injects new tasks from the same specs, so episodes 2 and 3 of one
        env log the bytes, and give the KPIs, of a fresh env's first episode."""
        sim = small_sim(strategy="round_robin", mean_tasks_per_interval=6.0)
        fleet = small_fleet(3)
        lines, kpis = run_episode(sim, fleet, REWARD, seed=4)
        env = build_env(sim, fleet, REWARD, seed=4)
        episodes = [self._episode(env, sim, fleet) for _ in range(3)]
        assert episodes[0] == episodes[1] == episodes[2] == (lines, json.dumps(kpis))
        assert env.task_census()["injected"] > 500

    def test_local_only_tx_columns_zero(self, tmp_path):
        run_episode(small_sim(strategy="local_only"), small_fleet(), REWARD,
                    seed=2, out_dir=tmp_path)
        lines = (tmp_path / "steps_seed2.csv").read_text().splitlines()
        assert lines[0].startswith("# schema:")
        header = lines[1].split(",")
        tx_idx = header.index("tx_cost_usd")
        for line in lines[2:]:
            assert float(line.split(",")[tx_idx]) == 0.0

    def test_kpi_totals_match_column_sums(self, tmp_path):
        rows, kpis = run_episode(small_sim(strategy="round_robin"), small_fleet(),
                                 REWARD, seed=5, out_dir=tmp_path)
        lines = (tmp_path / "steps_seed5.csv").read_text().splitlines()
        header = lines[1].split(",")

        def col_sum(name):
            idx = header.index(name)
            return sum(float(line.split(",")[idx]) for line in lines[2:])

        energy_cols = [c for c in header if c.endswith("_energy_kwh") and c.startswith("dc")]
        energy_total = sum(col_sum(c) for c in energy_cols) + col_sum("tx_energy_kwh")
        assert kpis["total_energy_mwh"] == pytest.approx(energy_total / 1000.0, rel=1e-12)
        cost_cols = [c for c in header if c.endswith("_cost_usd") and c.startswith("dc")]
        cost_total = sum(col_sum(c) for c in cost_cols) + col_sum("tx_cost_usd")
        assert kpis["total_cost_usd"] == pytest.approx(cost_total, rel=1e-12)
        assert kpis["tx_cost_usd"] == pytest.approx(col_sum("tx_cost_usd"), rel=1e-12)
        assert kpis["tasks_deferred"] == col_sum("tasks_deferred")


# (column, field) of a site's v1 step-log cells, written out here so that the
# reference does not read the declaration it checks
_SITE_LOG_FIELDS = (
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


def reference_log_row(step_idx, time_utc, info, reward, dc_ids) -> str:
    """A step-log line as ``csv.writer`` writes the list of cells that each value's
    ``repr(float(v))`` (for a float) or ``str(v)`` makes."""
    def fmt(value):
        return repr(float(value)) if isinstance(value, float) else str(value)

    row = [str(step_idx), time_utc.isoformat()]
    for dc_id in dc_ids:
        site = info.datacenters[dc_id]
        row.extend(fmt(getattr(site, attr)) for _, attr in _SITE_LOG_FIELDS)
    row.extend([fmt(info.transmission_cost_total_usd), fmt(info.transmission_energy_total_kwh),
                fmt(info.transmission_emissions_total_kg), str(info.tasks_deferred_count),
                fmt(reward)])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(row)
    return buf.getvalue().removesuffix("\n")


_LOG_FLOATS = st.one_of(
    st.floats(),  # NaN and both infinities included
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5, 1e15]),
)
_LOG_VALUES = st.one_of(_LOG_FLOATS, st.integers(), _LOG_FLOATS.map(np.float64))


@st.composite
def step_infos(draw):
    """A ``ClusterInfo`` of 1 or 48 sites with random values, and its sorted dc ids."""
    n = draw(st.sampled_from([1, 48]))
    dc_ids = sorted(draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n,
                                  unique=True)))
    sites = {dc_id: DcStepInfo(*draw(st.tuples(*[_LOG_VALUES] * len(_SITE_LOG_FIELDS))))
             for dc_id in dc_ids}
    info = ClusterInfo(sites, draw(_LOG_VALUES), draw(_LOG_VALUES), draw(_LOG_VALUES),
                       draw(st.integers(0, 10**6)))
    return info, dc_ids


class TestLogRow:
    @settings(max_examples=60)
    @given(step_infos(), _LOG_VALUES, st.integers(0, 10**6),
           st.datetimes(timezones=st.just(timezone.utc)))
    def test_one_line_is_the_csv_writer_row(self, info_ids, reward, step_idx, now):
        info, dc_ids = info_ids
        line = runner._log_row(step_idx, now, info, reward, dc_ids)
        assert line == reference_log_row(step_idx, now, info, reward, dc_ids)

    def test_special_values_of_every_type(self):
        specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 7, -3]
        specials += [np.float64(v) for v in specials[:6]]
        for value in specials:
            info = ClusterInfo({1: DcStepInfo(*[value] * len(_SITE_LOG_FIELDS))},
                               value, value, value, 0)
            now = datetime(2024, 3, 1, tzinfo=timezone.utc)
            line = runner._log_row(5, now, info, value, [1])
            assert line == reference_log_row(5, now, info, value, [1]), repr(value)

    def test_header_is_the_declared_columns_in_field_order(self):
        """Each record field names its own column; ``datacenters`` names none."""
        def declared(record):
            return [f.metadata["column"] or f.name for f in fields(record)
                    if "column" in f.metadata]

        assert declared(DcStepInfo) == [column for column, _ in _SITE_LOG_FIELDS]
        assert declared(ClusterInfo) == ["tx_cost_usd", "tx_energy_kwh", "tx_emissions_kg",
                                         "tasks_deferred"]
        assert runner._log_header([1, 2]) == [
            "step", "time_utc",
            *(f"dc{dc_id}_{column}" for dc_id in (1, 2) for column in declared(DcStepInfo)),
            *declared(ClusterInfo), "reward"]


class TestKpiLedger:
    """``SchedulingEnv`` keeps the episode's KPIs; ``run_episode`` writes what it reads."""

    @staticmethod
    def _drive(env, strategy):
        """One episode of the rule-based ``strategy``, driven by hand; returns ``env.kpis()``."""
        controller = RuleBasedController(strategy)
        env.reset()
        done = False
        while not done:
            actions = controller.decide(snapshot_cluster(env.cluster, env.step_index),
                                        env.current_tasks)
            _, _, done, _ = env.step(actions)
        return env.kpis()

    @pytest.mark.parametrize("seed, shuffle", [(1, False), (6, False), (6, True)],
                             ids=["seed1", "seed6", "seed6_shuffled"])
    def test_env_kpis_are_run_episodes_bit_for_bit(self, seed, shuffle):
        sim = small_sim(strategy="lowest_carbon", shuffle_datacenters=shuffle,
                        mean_tasks_per_interval=4.0)
        _, expected = run_episode(sim, small_fleet(3), REWARD, seed)
        kpis = self._drive(build_env(sim, small_fleet(3), REWARD, seed), sim.strategy)
        assert KPI_KEYS is schedenv.KPI_KEYS
        assert list(kpis) == list(expected) == list(KPI_KEYS)
        assert {k: float.hex(v) for k, v in kpis.items()} == {
            k: float.hex(v) for k, v in expected.items()}
        assert kpis["total_cost_usd"] > 0.0 and kpis["avg_cpu_util_pct"] > 0.0

    def test_second_reset_starts_from_zeros(self):
        env = build_env(small_sim(), small_fleet(), REWARD, seed=2)
        first = self._drive(env, "round_robin")
        env.kpis()["total_cost_usd"] = -1.0  # each call returns a new dict
        assert env.kpis() == first and first["total_cost_usd"] > 0.0
        env.reset()
        assert env.kpis() == dict.fromkeys(KPI_KEYS, 0.0)
        assert env.task_census()["injected"] == len(env.current_tasks)
        assert self._drive(env, "round_robin") == first

    def test_tasks_deferred_counts_every_deferral(self):
        env = build_env(small_sim(mean_tasks_per_interval=3.0), small_fleet(), REWARD, seed=4)
        rng = np.random.default_rng(0)
        env.reset()
        done, deferred = False, 0
        while not done:
            actions = rng.integers(0, env.num_dcs + 1, len(env.current_tasks))
            _, _, done, outcome = env.step(actions)
            deferred += outcome.cluster_info.tasks_deferred_count
        assert deferred > 0
        assert env.kpis()["tasks_deferred"] == deferred


class TestSeriesReads:
    """Each site's four series are read as columns that ``on_grid`` builds once per
    reset; stepping reads them by index and interpolates nothing."""

    @pytest.fixture
    def value_at_calls(self, monkeypatch):
        """Every ``value_at`` call, through each ``geodcsim`` module that binds it."""
        calls = []
        original = envdata.value_at

        def counted(series, t):
            calls.append(t)
            return original(series, t)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "geodcsim" and getattr(module, "value_at", None) is original:
                monkeypatch.setattr(module, "value_at", counted)
        return calls

    def _shipped(self):
        sim = replace(load_sim_config(CONFIG_DIR / "sim.yaml"), duration_days=1)
        return sim, load_dc_fleet(CONFIG_DIR / "datacenters.yaml"), load_reward_config(
            CONFIG_DIR / "reward.yaml")

    @staticmethod
    def _agent_episode(env, rng):
        env.reset()
        done = False
        while not done:
            _, _, done, _ = env.step(rng.integers(0, env.num_dcs + 1, len(env.current_tasks)))

    def test_run_episode(self, value_at_calls):
        rows, _ = run_episode(*self._shipped(), seed=0)
        assert len(rows) == 96 and value_at_calls == []

    def test_agent_loop(self, value_at_calls):
        env = build_env(*self._shipped(), seed=0)
        self._agent_episode(env, np.random.default_rng(0))
        assert env.step_index == 96 and value_at_calls == []

    def test_columns_are_built_once_per_reset(self, monkeypatch):
        built = []
        original = cluster.on_grid

        def counted(series, start, steps):
            built.append((list(series), start, steps))
            return original(series, start, steps)

        monkeypatch.setattr(cluster, "on_grid", counted)
        env = build_env(*self._shipped(), seed=0)
        rng = np.random.default_rng(0)
        for _ in range(3):
            self._agent_episode(env, rng)
        nodes = sorted(env.cluster.nodes, key=lambda n: n.dc_id)
        want = [s for n in nodes for s in (n.price, n.carbon, n.drybulb, n.humidity)]
        assert len(built) == 3
        for series, start, steps in built:
            assert [id(s) for s in series] == [id(s) for s in want]
            assert (start, steps) == (env.start, env.horizon_steps + 1)


class TestSweep:
    def test_single_seed_std_zero(self, tmp_path):
        summary = run_sweep(small_sim(), small_fleet(), REWARD, [4], out_dir=tmp_path)
        for key in KPI_KEYS:
            assert summary[key]["std"] == 0.0
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / "summary.csv").exists()

    def test_mean_matches_hand_average(self, tmp_path):
        summary = run_sweep(small_sim(), small_fleet(), REWARD, [1, 2], out_dir=tmp_path)
        kpi1 = json.loads((tmp_path / "kpi_seed1.json").read_text())
        kpi2 = json.loads((tmp_path / "kpi_seed2.json").read_text())
        for key in KPI_KEYS:
            assert summary[key]["mean"] == pytest.approx((kpi1[key] + kpi2[key]) / 2.0, rel=1e-12)

    def test_summary_recomputable_from_kpi_files(self, tmp_path):
        seeds = [7, 8, 9]
        summary = run_sweep(small_sim(), small_fleet(), REWARD, seeds, out_dir=tmp_path)
        rows = [json.loads((tmp_path / f"kpi_seed{s}.json").read_text()) for s in seeds]
        recomputed = summarize_kpis(rows)
        for key in KPI_KEYS:
            assert summary[key]["mean"] == recomputed[key]["mean"]
            assert summary[key]["std"] == recomputed[key]["std"]

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ConfigError):
            run_sweep(small_sim(), small_fleet(), REWARD, [])

    @pytest.mark.parametrize("seed, expected", [
        (-1, "seed must be >= 0, got -1"), (1.5, "seed must be an integer, got 1.5"),
        ("3", "seed must be an integer, got '3'"), (True, "seed must be an integer, got True"),
    ], ids=["negative", "float", "text", "bool"])
    def test_a_bad_seed_is_refused_before_any_episode(self, tmp_path, seed, expected):
        with pytest.raises(ConfigError, match=f"^{re.escape(expected)}$"):
            build_env(small_sim(), small_fleet(), REWARD, seed)
        with pytest.raises(ConfigError, match=f"^{re.escape(expected)}$"):
            run_sweep(small_sim(), small_fleet(), REWARD, [0, seed], out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []


class TestCli:
    def _args(self, tmp_path, extra=()):
        return [
            "--sim-config", str(CONFIG_DIR / "sim.yaml"),
            "--dc-config", str(CONFIG_DIR / "datacenters.yaml"),
            "--reward-config", str(CONFIG_DIR / "reward.yaml"),
            "--days", "1",
            "--out", str(tmp_path / "out"),
            *extra,
        ]

    def test_cli_happy_path(self, tmp_path, capsys):
        code = main(self._args(tmp_path, ["--seed", "0", "--strategy", "local_only"]))
        assert code == 0
        out_dir = tmp_path / "out"
        assert (out_dir / "steps_seed0.csv").exists()
        assert (out_dir / "summary.json").exists()
        assert "local_only" in capsys.readouterr().out

    def test_cli_multi_seed(self, tmp_path, capsys):
        code = main(self._args(tmp_path, ["--seeds", "0,1"]))
        assert code == 0
        out_dir = tmp_path / "out"
        assert (out_dir / "steps_seed0.csv").exists()
        assert (out_dir / "steps_seed1.csv").exists()

    def test_cli_bad_config_exits_nonzero(self, tmp_path, capsys):
        code = main([
            "--sim-config", "does/not/exist.yaml",
            "--dc-config", str(CONFIG_DIR / "datacenters.yaml"),
            "--reward-config", str(CONFIG_DIR / "reward.yaml"),
            "--out", str(tmp_path),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_cli_bad_strategy_exits_nonzero(self, tmp_path, capsys):
        code = main(self._args(tmp_path, ["--strategy", "wishful_thinking"]))
        assert code == 1

    def test_cli_days_must_be_positive(self, tmp_path, capsys):
        for days in ("0", "-1"):
            code = main(self._args(tmp_path, ["--days", days]))
            assert code == 1
            assert capsys.readouterr().err == "error: duration_days must be >= 1\n"

    @pytest.mark.parametrize("key", ["year", "timestep_minutes"])
    def test_cli_bad_sim_value(self, tmp_path, capsys, key):
        doc = yaml.safe_load((CONFIG_DIR / "sim.yaml").read_text())
        doc["simulation"][key] = "abc"
        sim = tmp_path / "sim.yaml"
        sim.write_text(yaml.safe_dump(doc))
        args = self._args(tmp_path)
        args[args.index("--sim-config") + 1] = str(sim)
        assert main(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {sim}: simulation: {key}: must be a number, not text"]

    def test_cli_window_past_the_last_date_names_the_sim_file(self, tmp_path, capsys):
        """A window that runs past 9999-12-31 ended as ``error: dc 1: date value out of
        range``, which named neither the sim file nor the window."""
        doc = yaml.safe_load((CONFIG_DIR / "sim.yaml").read_text())
        doc["simulation"].update(year=9999, month=12, init_day=31, duration_days=1)
        sim = tmp_path / "sim.yaml"
        sim.write_text(yaml.safe_dump(doc))
        args = self._args(tmp_path)
        args[args.index("--sim-config") + 1] = str(sim)
        assert main(args) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {sim}: simulation: the 1-day window from 9999-12-31T00:00:00+00:00 "
            "runs past 9999-12-31"]
        assert not (tmp_path / "out").exists()

    def test_cli_unknown_strategy_names_the_sim_file(self, tmp_path, capsys):
        """An unknown strategy loaded, and the run ended as ``error: unknown strategy
        'bogus'; …``, which named neither the sim file nor its section."""
        text = (CONFIG_DIR / "sim.yaml").read_text()
        sim = tmp_path / "sim.yaml"
        sim.write_text(text.replace("strategy: lowest_carbon", "strategy: bogus"))
        assert "strategy: bogus" in sim.read_text()
        with pytest.raises(ConfigError, match=f"^{re.escape(str(sim))}: simulation: "
                                              "unknown strategy 'bogus'; expected one of: "):
            load_sim_config(sim)
        args = self._args(tmp_path)
        args[args.index("--sim-config") + 1] = str(sim)
        assert main(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            f"error: {sim}: simulation: unknown strategy 'bogus'; expected one of: local_only")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["duration_days", "init_day"])
    def test_cli_fractional_sim_count(self, tmp_path, capsys, key):
        """``int()`` ran a ``duration_days`` of 2.9 for 2 days."""
        doc = yaml.safe_load((CONFIG_DIR / "sim.yaml").read_text())
        doc["simulation"][key] = 2.9
        sim = tmp_path / "sim.yaml"
        sim.write_text(yaml.safe_dump(doc))
        args = self._args(tmp_path)
        args[args.index("--sim-config") + 1] = str(sim)
        assert main(args) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {sim}: simulation: {key}: must be a whole number"]

    @pytest.mark.parametrize("value, expected", [
        (-1, "synthetic_workload.mean_tasks_per_interval must be >= 0"),
        (float("nan"), "synthetic_workload.mean_tasks_per_interval: must be finite"),
    ], ids=["negative", "nan"])
    def test_cli_bad_mean_tasks_per_interval(self, tmp_path, capsys, value, expected):
        doc = yaml.safe_load((CONFIG_DIR / "sim.yaml").read_text())
        doc["simulation"]["synthetic_workload"]["mean_tasks_per_interval"] = value
        sim = tmp_path / "sim.yaml"
        sim.write_text(yaml.safe_dump(doc))
        args = self._args(tmp_path)
        args[args.index("--sim-config") + 1] = str(sim)
        assert main(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {sim}: simulation: {expected}"]

    def _edited_args(self, tmp_path, config, keys, value):
        """CLI args whose ``config`` file is the shipped one with its ``keys`` path set
        to ``value``; returns them and the edited file."""
        doc = yaml.safe_load((CONFIG_DIR / f"{config}.yaml").read_text())
        section = doc
        for key in keys[:-1]:
            section = section[key]
        section[keys[-1]] = value
        path = tmp_path / f"{config}.yaml"
        path.write_text(yaml.safe_dump(doc))
        args = self._args(tmp_path)
        args[args.index(_CONFIG_FLAGS[config]) + 1] = str(path)
        return args, path

    def _edited_fleet_args(self, tmp_path, keys, value):
        """CLI args whose fleet is the shipped one with dc 1's ``keys`` path set to ``value``."""
        return self._edited_args(tmp_path, "datacenters", ["datacenters", 0, *keys], value)

    def test_cli_short_region_map_row(self, tmp_path, capsys):
        region_map = tmp_path / "regions.csv"
        region_map.write_text("location_code,cloud_region,macro_cluster\nUS-CAL-CISO,us-west-1\n")
        args, _ = self._edited_args(tmp_path, "sim", ["simulation", "region_map_path"],
                                    str(region_map))
        assert main(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {region_map}: row 2: ")

    def test_cli_truncated_delay_table_names_it_before_step_0(self, tmp_path, capsys):
        """Without its EU,US row the table failed mid-episode, naming no file."""
        delays = tmp_path / "delay_params.csv"
        lines = network.packaged_table("delay_params.csv").read_text().splitlines()
        delays.write_text("\n".join(line for line in lines if not line.startswith("EU,US,")) + "\n")
        args, _ = self._edited_args(tmp_path, "sim", ["simulation", "delay_params_path"],
                                    str(delays))
        assert main(args) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {delays}: no delay parameters for EU->US"]
        assert not (tmp_path / "out").exists()

    def test_cli_malformed_physics_json(self, tmp_path, capsys):
        bad = tmp_path / "dc.json"
        bad.write_text("{not json")
        args, _ = self._edited_fleet_args(tmp_path, ["dc_config_file"], str(bad))
        assert main(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: invalid JSON")

    def _fleet_args(self, tmp_path, edit):
        """CLI args whose fleet is the shipped one after ``edit(datacenters)``; returns
        them and the edited file."""
        doc = yaml.safe_load((CONFIG_DIR / "datacenters.yaml").read_text())
        edit(doc["datacenters"])
        path = tmp_path / "datacenters.yaml"
        path.write_text(yaml.safe_dump(doc))
        args = self._args(tmp_path)
        args[args.index("--dc-config") + 1] = str(path)
        return args, path

    def test_cli_population_weights_whose_sum_overflows(self, tmp_path, capsys):
        """Two weights of 1e308 each load, and ``rng.choice`` refused their
        probabilities mid-episode in a traceback; the fleet load refuses their sum."""
        def edit(dcs):
            dcs[0]["population_weight"] = dcs[1]["population_weight"] = 1.0e308

        args, path = self._fleet_args(tmp_path, edit)
        assert main(args) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: the sum of population_weight must be finite"]
        assert not (tmp_path / "out").exists()

    def test_cli_population_weights_whose_off_hours_scores_are_zero(self, tmp_path, capsys):
        """A lone site weighted by the smallest subnormal scores 0 off hours, and the run
        stopped at its first off-hours step, naming no file; the fleet load refuses it."""
        def edit(dcs):
            dcs[:] = dcs[1:2]
            dcs[0]["population_weight"] = 5.0e-324

        args, path = self._fleet_args(tmp_path, edit)
        assert main(args) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: the sum of population_weight * 0.3 (off hours) must be > 0"]
        assert not (tmp_path / "out").exists()

    def test_cli_timezone_shift_past_a_day_names_the_fleet(self, tmp_path, capsys):
        """A shift of 1e9 h loaded, and the first origin table overflowed a date in a
        traceback naming no file; the fleet load refuses any shift past a day."""
        def edit(dcs):
            dcs[0]["timezone_shift"] = 1.0e9

        args, path = self._fleet_args(tmp_path, edit)
        assert main(args) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: datacenter 0: dc 1: timezone_shift_h must lie in [-24, 24]"]
        assert not (tmp_path / "out").exists()

    def test_cli_setpoint_outside_the_desk_scale_range_names_the_fleet(self, tmp_path, capsys):
        """The node's own check named neither the file nor the datacenter's index."""
        args, path = self._edited_fleet_args(tmp_path, ["hvac", "setpoint_c"], 40.0)
        assert main(args) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: datacenter 0: hvac.setpoint_c: 40.0 outside its physics "
            "SETPOINT_RANGE [18.0, 27.0]"]

    def test_cli_setpoint_outside_a_physics_file_range(self, tmp_path, capsys, monkeypatch):
        """The range comes from the physics file, which the load reads once for the
        three sites that share it and which ``build_env`` does not read again."""
        physics = tmp_path / "dc.json"
        physics.write_text(json.dumps({"hvac_configuration": {"SETPOINT_RANGE": [18.0, 23.0]}}))
        calls = []
        load = runner.load_dc_config
        monkeypatch.setattr(runner, "load_dc_config", lambda p: calls.append(p) or load(p))

        def edit(dcs, setpoint):
            for dc in dcs:
                dc["dc_config_file"] = str(physics)
            dcs[2]["hvac"]["setpoint_c"] = setpoint

        args, path = self._fleet_args(tmp_path, lambda dcs: edit(dcs, 23.5))
        assert main(args) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: datacenter 2: hvac.setpoint_c: 23.5 outside its physics "
            "SETPOINT_RANGE [18.0, 23.0]"]
        assert calls == [str(physics)]
        calls.clear()
        args, _ = self._fleet_args(tmp_path, lambda dcs: edit(dcs, 23.0))
        assert main([*args, "--seeds", "0,1"]) == 0
        assert calls == [str(physics)]

    @pytest.mark.parametrize("section, values, expected", [
        ("hvac_configuration", {"CW_PRESSURE_DROP": -3e5}, "cw_pressure_drop_pa must be >= 0"),
        ("hvac_configuration", {"WATER_DRIFT_RATE": -2}, "water_drift_rate must be >= 0"),
        ("server_characteristics", {"NVIDIA_V100": [-2000, 250]}, "gpu_idle_w must be >= 0"),
        ("server_characteristics", {"CPU_POWER_RATIO_LB": [-5, -4]},
         "cpu_power_ratio_lb must be two numbers >= 0"),
        ("server_characteristics", {"ITFAN_REF_V_RATIO": 0}, "fan_ref_ratio must be > 0"),
        ("hvac_configuration", {"CHILLER_COP_MIN": 0, "CHILLER_COP_NOMINAL": 0},
         "chiller_cop_min must be > 0"),
        # each server's fan draw is finite, but a rack of them overflows to an infinity
        ("server_characteristics", {"ITFAN_REF_V_RATIO": 1e-306},
         "the step at inlet 16 degC and load 1: IT power must be finite"),
        # sound with no memory, but the site's 8000 GB overflow a rack's power
        ("server_characteristics", {"MEM_POWER_PER_GB": 1e306},
         "dc 1: at total_mem_gb 8000: the step at inlet 16 degC and load 0: "
         "IT power must be finite"),
        ("data_center_configuration", {"NUM_RACKS": 4.7},
         "data_center_configuration: NUM_RACKS must be a whole number"),
        ("data_center_configuration", {"CPUS_PER_RACK": 0.999},
         "data_center_configuration: CPUS_PER_RACK must be a whole number"),
        ("server_characteristics", {"CPU_POWER_RATIO_LB": "0.5"},
         "server_characteristics: CPU_POWER_RATIO_LB: expected a list of numbers, got '0.5'"),
        ("server_characteristics", {"CPU_POWER_RATIO_LB": "01"},
         "server_characteristics: CPU_POWER_RATIO_LB: expected a list of numbers, got '01'"),
    ], ids=["cw_pressure_drop_negative", "water_drift_negative", "gpu_idle_negative",
            "cpu_ratio_negative", "fan_ref_ratio_zero", "chiller_cop_zero",
            "fan_ref_ratio_tiny", "mem_power_huge", "racks_fraction", "cpus_fraction",
            "ratio_pair_string", "ratio_pair_digit_string"])
    def test_cli_bad_physics_value(self, tmp_path, capsys, section, values, expected):
        """Values the step chain would fail on stop the run at load, naming the file."""
        physics = tmp_path / "dc.json"
        physics.write_text(json.dumps({section: values}))
        args, _ = self._edited_fleet_args(tmp_path, ["dc_config_file"], str(physics))
        assert main(args) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {physics}: {expected}"]

    @pytest.mark.parametrize("keys, value, expected", [
        (["total_cores"], "abc", "{fleet}: datacenter 0: total_cores: must be a number, not text"),
        (["dc_id"], 1.5, "{fleet}: datacenter 0: dc_id: must be a whole number"),
        (["total_cores"], -5, "dc 1: capacities must be >= 0"),
        (["synthetic", "price", "base"], "abc",
         "{fleet}: datacenter 0: synthetic.price.base: must be a number, not text"),
        (["synthetic", "carbon", "daily_amplitude"], 300.0, "dc 1: carbon intensity requires"),
        (["synthetic", "price", "noise_sd"], -1, "dc 1: daily_amplitude and noise_sd"),
        (["population_weight"], 0, "dc 1: population_weight must be > 0"),
        (["population_weight"], float("nan"),
         "{fleet}: datacenter 0: population_weight: must be finite"),
        (["total_cores"], float("nan"), "{fleet}: datacenter 0: total_cores: must be finite"),
        (["hvac"], {"policy": "deadband", "deadband": [24.0, 25.0, 26.0]},
         "dc 1: deadband must be two numbers lo < hi"),
        (["hvac"], {"policy": "deadband", "deadband": ["a", "b"]},
         "dc 1: deadband must be two numbers lo < hi"),
        (["hvac"], {"policy": "deadband", "deadband": [26.0, 24.0]},
         "dc 1: deadband must be two numbers lo < hi"),
        (["hvac"], {"policy": "fixed", "deadband": ["a", "b", "c"]},
         "dc 1: deadband must be two numbers lo < hi"),
        (["hvac"], {"policy": "deadband", "deadband": [24.0, math.inf]},
         "{fleet}: datacenter 0: dc 1: deadband must be two numbers lo < hi"),
        (["hvac"], {"policy": "deadband", "deadband": [-math.inf, 25.0]},
         "{fleet}: datacenter 0: dc 1: deadband must be two numbers lo < hi"),
        (["hvac"], {"policy": "deadband", "deadband": [True, 2]},
         "{fleet}: datacenter 0: dc 1: deadband must be two numbers lo < hi"),
        (["hvac"], {"policy": "fixed", "deadband": [24.0, math.nan]},
         "{fleet}: datacenter 0: dc 1: deadband must be two numbers lo < hi"),
    ], ids=["cores_not_a_number", "dc_id_fraction", "cores_negative", "price_base_not_a_number",
            "carbon_amplitude_over_base", "noise_sd_negative", "population_weight_zero",
            "population_weight_nan", "cores_nan",
            "deadband_three_values", "deadband_not_numbers", "deadband_reversed",
            "deadband_under_fixed", "deadband_upper_infinite", "deadband_lower_infinite",
            "deadband_bool", "deadband_nan_under_fixed"])
    def test_cli_bad_fleet_value(self, tmp_path, capsys, keys, value, expected):
        args, fleet = self._edited_fleet_args(tmp_path, keys, value)
        assert main(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and expected.format(fleet=fleet) in err[0]

    @pytest.mark.parametrize("keys, value, expected", [
        (["total_cores"], -5, "dc 1: capacities must be >= 0 and finite"),
        (["total_mem_gb"], -1.5, "dc 1: capacities must be >= 0 and finite"),
        (["population_weight"], 0, "dc 1: population_weight must be > 0"),
        (["synthetic"], {"weather": {"rel_humidity_pct": 150.0}},
         "synthetic.weather.rel_humidity_pct: must lie in [0, 100], got 150.0"),
        (["synthetic"], {"weather": {"rel_humidity_pct": -0.5}},
         "synthetic.weather.rel_humidity_pct: must lie in [0, 100], got -0.5"),
    ], ids=["cores_negative", "mem_negative", "population_weight_zero", "humidity_over_100",
            "humidity_negative"])
    def test_cli_bad_site_number_names_the_fleet(self, tmp_path, capsys, keys, value, expected):
        """A site number the node would refuse stops the fleet load, naming the file."""
        args, fleet = self._edited_fleet_args(tmp_path, keys, value)
        assert main(args) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {fleet}: datacenter 0: {expected}"]

    def _error_lines(self, tmp_path, capsys, config, data):
        """The stderr lines of a CLI run whose ``config`` file holds bytes ``data``."""
        path = tmp_path / f"{config}.yaml"
        path.write_bytes(data)
        args = self._args(tmp_path)
        args[args.index(_CONFIG_FLAGS[config]) + 1] = str(path)
        assert main(args) == 1
        return capsys.readouterr().err.splitlines()

    @_UNUSABLE_YAML
    def test_cli_unusable_yaml(self, tmp_path, capsys, config, text, expected):
        """Every file-level failure of a YAML config is one line naming the file."""
        assert self._error_lines(tmp_path, capsys, config, text) == [
            f"error: {tmp_path / config}.yaml: {expected}"]

    @_UNREADABLE_YAML
    def test_cli_unreadable_yaml_value_names_the_file(self, tmp_path, capsys, config, edit):
        """A YAML value that cannot be built (an integer longer than Python converts, a
        date with month 13) ends as one line naming the file, whatever its wording."""
        path = tmp_path / f"{config}.yaml"
        path.write_text(edit((CONFIG_DIR / f"{config}.yaml").read_text()))
        args = self._args(tmp_path)
        args[args.index(_CONFIG_FLAGS[config]) + 1] = str(path)
        assert main(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}: ")

    @_UNUSABLE_YAML
    @_LOADERS
    def test_cli_unusable_yaml_under_each_loader(self, tmp_path, capsys, monkeypatch,
                                                 loader, config, text, expected):
        """libyaml's parser and the pure-Python one end a broken file with one line,
        the same: a parse error keeps its line number, bad UTF-8 has none under both."""
        monkeypatch.setattr(runner, "_YAML_LOADER", loader)
        assert self._error_lines(tmp_path, capsys, config, text) == [
            f"error: {tmp_path / config}.yaml: {expected}"]

    @_UNREADABLE_YAML
    def test_cli_unreadable_yaml_value_is_one_line_alike_under_each_loader(
            self, tmp_path, capsys, monkeypatch, config, edit):
        """A value PyYAML's constructor cannot build ends as the same one line, whichever
        parser fed it: both loaders share that constructor."""
        data = edit((CONFIG_DIR / f"{config}.yaml").read_text()).encode()
        lines = []
        for loader in (yaml.SafeLoader, runner._YAML_LOADER):
            monkeypatch.setattr(runner, "_YAML_LOADER", loader)
            lines.append(self._error_lines(tmp_path, capsys, config, data))
        assert len(lines[0]) == 1 and lines[0][0].startswith(f"error: {tmp_path / config}.yaml: ")
        assert lines[1] == lines[0]

    @pytest.mark.parametrize("keys, value, expected", [
        (["simulation", "shuffle_datacenters"], "no",
         "simulation: shuffle_datacenters: must be true or false"),
        (["simulation", "single_action_mode"], 1,
         "simulation: single_action_mode: must be true or false"),
        (["simulation", "workload_path"], 5, "simulation: workload_path: must be a string or null"),
        (["simulation", "workload_path"], True,
         "simulation: workload_path: must be a string or null"),
        (["simulation", "cost_matrix_path"], [1],
         "simulation: cost_matrix_path: must be a string or null"),
        (["simulation", "delay_params_path"], 5,
         "simulation: delay_params_path: must be a string or null"),
        (["simulation", "region_map_path"], {"a": 1},
         "simulation: region_map_path: must be a string or null"),
        (["simulation", "synthetic_workload"], [1],
         "simulation: synthetic_workload: must be a mapping"),
        (["simulation", "synthetic_workload", "duration_min"], [15, "abc"],
         "simulation: bad synthetic_workload ranges: duration_min: bounds must be numbers"),
    ], ids=["shuffle_string", "single_action_int", "workload_path_int", "workload_path_true",
            "cost_matrix_list", "delay_params_int", "region_map_mapping",
            "synthetic_workload_list", "range_bound_string"])
    def test_cli_sim_value_of_wrong_kind(self, tmp_path, capsys, keys, value, expected):
        """A bool takes only a boolean, a path a string or null, a section a mapping."""
        args, sim = self._edited_args(tmp_path, "sim", keys, value)
        assert main(args) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {sim}: {expected}"]

    @pytest.mark.parametrize("keys, value, expected", [
        (["hru_enabled"], "false", "hru_enabled: must be true or false"),
        (["dc_config_file"], 5, "dc_config_file: must be a string or null"),
        (["data"], {"price_csv": 5}, "data.price_csv: must be a string or null"),
        (["data"], {"carbon_csv": True}, "data.carbon_csv: must be a string or null"),
        (["data"], {"weather_json": [1]}, "data.weather_json: must be a string or null"),
        (["data"], 5, "data: must be a mapping"),
        (["hvac"], [1], "hvac: must be a mapping"),
        (["synthetic"], [1], "synthetic: must be a mapping"),
        (["synthetic"], {"price": [1, 2]}, "synthetic.price: must be a mapping"),
        (["synthetic", "carbon"], 5, "synthetic.carbon: must be a mapping"),
        (["synthetic", "weather"], "x", "synthetic.weather: must be a mapping"),
    ], ids=["hru_string", "dc_config_file_int", "price_csv_int", "carbon_csv_true",
            "weather_json_list", "data_int", "hvac_list", "synthetic_list",
            "synthetic_price_list", "synthetic_carbon_int", "synthetic_weather_string"])
    def test_cli_fleet_value_of_wrong_kind(self, tmp_path, capsys, keys, value, expected):
        """A bool takes only a boolean, a path a string or null, a section a mapping."""
        args, fleet = self._edited_fleet_args(tmp_path, keys, value)
        assert main(args) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {fleet}: datacenter 0: {expected}"]

    def test_cli_bad_reward_weight(self, tmp_path, capsys):
        args, reward = self._edited_args(
            tmp_path, "reward", ["reward", "components", "energy_price", "weight"], "x")
        assert main(args) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {reward}: component 'energy_price': weight must be a finite number"]

    @pytest.mark.parametrize("section, values, expected", [
        ("hvac_configuration", {"CW_PRESSURE_DROP": math.inf},
         "hvac_configuration: CW_PRESSURE_DROP must be finite"),
        ("data_center_configuration", {"RACK_SUPPLY_APPROACH_TEMP_LIST": [math.nan] * 4},
         "supply_approach_temps_c must be finite"),
        ("server_characteristics", {"THERMAL_COEFFS": [1, 1, 1, math.nan, 0]},
         "thermal_coeffs must be finite"),
        ("data_center_configuration", {"RACK_SUPPLY_APPROACH_TEMP_LIST": ["a", "b", "c", "d"]},
         "supply_approach_temps_c: must be a number, not text"),
        ("server_characteristics", {"THERMAL_COEFFS": [1, 1, 1, "x", 0]},
         "thermal_coeffs: must be a number, not text"),
        ("hvac_configuration", {"CW_PRESSURE_DROP": True},
         "hvac_configuration: CW_PRESSURE_DROP: must be a number, not true or false"),
        ("server_characteristics", {"THERMAL_COEFFS": [1, 1, 1, False, 0]},
         "server_characteristics: THERMAL_COEFFS: must be a number, not true or false"),
    ], ids=["cw_pressure_drop_infinity", "supply_approach_nan", "thermal_f_nan",
            "supply_approach_strings", "thermal_coeff_string", "cw_pressure_drop_true",
            "thermal_coeff_false"])
    def test_cli_physics_value_not_a_finite_number(self, tmp_path, capsys, section, values,
                                                   expected):
        """Each physics value is a finite number, each list element too, checked at load."""
        physics = tmp_path / "dc.json"
        physics.write_text(json.dumps({section: values}))  # writes Infinity and NaN
        args, _ = self._edited_fleet_args(tmp_path, ["dc_config_file"], str(physics))
        assert main(args) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {physics}: {expected}"]

    @pytest.mark.parametrize("config, keys, value, expected", [
        ("sim", ["simulation", "synthetic_workload", "mean_tasks_per_interval"], math.inf,
         "simulation: synthetic_workload.mean_tasks_per_interval: must be finite"),
        ("sim", ["simulation", "synthetic_workload", "cores_req"], [1, math.nan],
         "simulation: bad synthetic_workload ranges: cores_req: bounds must be finite"),
        ("sim", ["simulation", "synthetic_workload", "cores_req"], [1, 10**400],
         "simulation: bad synthetic_workload ranges: cores_req: bounds must be finite"),
        ("sim", ["simulation", "year"], 10**400,
         "simulation: invalid start date (year, month, init_day, init_hour): "),
        ("sim", ["simulation", "timestep_minutes"], 10**400,
         "simulation: timestep_minutes must be 15"),
        ("reward", ["reward", "components", "energy_price", "weight"], 10**400,
         "component 'energy_price': weight must be a finite number"),
        ("reward", ["reward", "components", "energy_price", "args", "normalize_factor"], 10**400,
         "component 'energy_price': normalize_factor must be > 0 and finite"),
        ("reward", ["reward", "components", "sla_penalty", "args", "penalty_per_violation"],
         10**400, "component 'sla_penalty': penalty_per_violation must be >= 0 and finite"),
        ("datacenters", ["datacenters", 0, "total_cores"], math.inf,
         "datacenter 0: total_cores: must be finite"),
        ("datacenters", ["datacenters", 0, "synthetic", "price", "base"], math.nan,
         "datacenter 0: synthetic.price.base: must be finite"),
        ("datacenters", ["datacenters", 0, "dc_id"], 10**400, "datacenter 0: dc_id: must fit a float"),
        ("datacenters", ["datacenters", 0, "timezone_shift"], math.nan,
         "datacenter 0: timezone_shift: must be finite"),
        ("datacenters", ["datacenters", 0, "hvac", "setpoint_c"], math.nan,
         "datacenter 0: hvac.setpoint_c: must be finite"),
    ], ids=["mean_rate_infinity", "range_bound_nan", "range_bound_huge", "year_huge",
            "timestep_huge", "reward_weight_huge", "normalize_factor_huge",
            "penalty_per_violation_huge", "cores_infinity", "price_base_nan", "dc_id_huge",
            "timezone_shift_nan", "setpoint_nan"])
    def test_cli_number_not_finite(self, tmp_path, capsys, config, keys, value, expected):
        """A configured number must be finite; the one error line names the file and field."""
        args, path = self._edited_args(tmp_path, config, keys, value)
        assert main(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}: {expected}")

    @pytest.mark.parametrize("config, keys, value, expected", [
        ("sim", ["simulation", "init_hr"], 6, "simulation: init_hr: unknown key"),
        ("sim", ["simulation", "synthetic_workload", "cores_rq"], [1, 8],
         "simulation: bad synthetic_workload ranges: cores_rq: unknown key"),
        ("datacenters", ["datacenters", 0, "totl_gpus"], 5, "datacenter 0: totl_gpus: unknown key"),
        ("datacenters", ["datacenters", 2, "hvac", "deadbnd"], [20, 21],
         "datacenter 2: hvac.deadbnd: unknown key"),
        ("datacenters", ["datacenters", 0, "data"], {"price_cvs": "price.csv"},
         "datacenter 0: data.price_cvs: unknown key"),
        ("datacenters", ["datacenters", 0, "synthetic", "prices"], {"base": 90.0},
         "datacenter 0: synthetic.prices: unknown key"),
        ("datacenters", ["datacenters", 0, "synthetic", "weather", "base_temp"], 20.0,
         "datacenter 0: synthetic.weather.base_temp: unknown key"),
        ("reward", ["reward", "normalise"], True, "reward: normalise: unknown key"),
        ("reward", ["reward", "components", "energy_price", "wieght"], 5.0,
         "component 'energy_price': wieght: unknown key"),
    ], ids=["sim", "synthetic_workload", "fleet", "hvac", "data", "synthetic",
            "synthetic_weather", "reward", "reward_component"])
    def test_cli_unknown_key(self, tmp_path, capsys, config, keys, value, expected):
        """A misspelt key stops the run, naming the file and the key, instead of being
        dropped unread."""
        args, path = self._edited_args(tmp_path, config, keys, value)
        assert main(args) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {path}: {expected}"]

    @pytest.mark.parametrize("config, keys, value, expected", [
        ("datacenters", ["datacenters", 0, "total_cores"], True,
         "datacenter 0: total_cores: must be a number, not true or false"),
        ("datacenters", ["datacenters", 0, "dc_id"], True,
         "datacenter 0: dc_id: must be a number, not true or false"),
        ("sim", ["simulation", "init_hour"], False,
         "simulation: init_hour: must be a number, not true or false"),
        ("sim", ["simulation", "synthetic_workload", "cores_req"], [True, 16],
         "simulation: bad synthetic_workload ranges: cores_req: "
         "bounds must be numbers, not true or false"),
        ("reward", ["reward", "components", "energy_price", "weight"], True,
         "component 'energy_price': weight must be a finite number"),
        ("reward", ["reward", "components", "energy_price", "args", "normalize_factor"], True,
         "component 'energy_price': normalize_factor must be > 0 and finite"),
        ("reward", ["reward", "components", "sla_penalty", "args", "penalty_per_violation"],
         True, "component 'sla_penalty': penalty_per_violation must be >= 0 and finite"),
    ], ids=["total_cores", "dc_id", "init_hour", "cores_req", "reward_weight",
            "normalize_factor", "penalty_per_violation"])
    def test_cli_boolean_is_not_a_number(self, tmp_path, capsys, config, keys, value, expected):
        """A YAML true or false where a number belongs stops the run instead of reading
        as 1 or 0; the one error line names the file and the field."""
        args, path = self._edited_args(tmp_path, config, keys, value)
        assert main(args) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {path}: {expected}"]

    def test_cli_unknown_hvac_policy(self, tmp_path, capsys):
        args, fleet = self._edited_fleet_args(tmp_path, ["hvac", "policy"], "magic")
        assert main(args) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {fleet}: datacenter 0: hvac.policy: must be 'fixed' or 'deadband', "
            "got 'magic'"]

    @pytest.mark.parametrize("flags", [["--seed", "-1"], ["--seeds", "0,-2"]],
                             ids=["seed", "seeds"])
    def test_cli_negative_seed(self, tmp_path, capsys, flags):
        """Every seed is checked before the first episode, so none leaves output."""
        assert main(self._args(tmp_path, flags)) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: seed must be >= 0, got {flags[1].split(',')[-1]}"]
        assert not (tmp_path / "out").exists()

    def test_cli_synthetic_deadline_overflow(self, tmp_path, capsys):
        """A drawn duration whose deadline overflows a date ends as one error line."""
        args, _ = self._edited_args(
            tmp_path, "sim", ["simulation", "synthetic_workload", "duration_min"], [15, 1.0e300])
        assert main(args) == 1
        [err] = capsys.readouterr().err.splitlines()
        assert re.fullmatch(r"error: synthetic_workload: task job-\d{6}: duration_min \S+ "
                            "times sla_multiplier overflows the deadline", err)

    def test_cli_seeds_that_are_not_integers(self, tmp_path, capsys):
        assert main(self._args(tmp_path, ["--seeds", "0,x"])) == 1
        assert capsys.readouterr().err.splitlines() == ["error: bad --seeds value '0,x'"]

    @pytest.mark.parametrize("config, keys, expected", [
        ("sim", ["simulation", "year"], "missing simulation field 'year'"),
        ("datacenters", ["datacenters", 0, "location"], "datacenter 0: missing field 'location'"),
    ], ids=["sim_year", "fleet_location"])
    def test_cli_missing_field(self, tmp_path, capsys, config, keys, expected):
        doc = yaml.safe_load((CONFIG_DIR / f"{config}.yaml").read_text())
        section = doc
        for key in keys[:-1]:
            section = section[key]
        del section[keys[-1]]
        path = tmp_path / f"{config}.yaml"
        path.write_text(yaml.safe_dump(doc))
        args = self._args(tmp_path)
        args[args.index(_CONFIG_FLAGS[config]) + 1] = str(path)
        assert main(args) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {path}: {expected}"]

    @pytest.mark.parametrize("record, expected", [
        ({"arrival_time": "0001-01-01T00:00:00+01:00"}, "task a: date value out of range"),
        ({}, "missing field 'arrival_time'"),
    ], ids=["arrival_before_year_one_in_utc", "arrival_missing"])
    def test_cli_bad_trace_line(self, tmp_path, capsys, record, expected):
        """An arrival that converts to UTC before year 1 overflows a date, which the CLI
        printed as an OverflowError traceback; each is now one line naming the trace."""
        trace = tmp_path / "trace.jsonl"
        trace.write_text(json.dumps({"job_id": "a", **record, "duration_min": 15, "cores_req": 1,
                                     "gpu_req": 0, "mem_req": 1, "bandwidth_gb": 0.1}) + "\n")
        args, _ = self._edited_args(tmp_path, "sim", ["simulation", "workload_path"], str(trace))
        assert main(args) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {trace}: line 1: {expected}"]

    @pytest.mark.parametrize("text", ["1_6", "\u0661\u0666"], ids=["underscore", "arabic_indic"])
    def test_cli_trace_text_that_is_no_decimal_number(self, tmp_path, capsys, text):
        """``float()`` read a ``cores_req`` of ``"1_6"`` or ``"١٦"`` as 16 cores."""
        trace = tmp_path / "trace.jsonl"
        trace.write_text(json.dumps({"job_id": "a", "arrival_time": "2024-03-01T00:00:00+00:00",
                                     "duration_min": 15, "cores_req": text, "gpu_req": 0,
                                     "mem_req": 1, "bandwidth_gb": 0.1}) + "\n")
        args, _ = self._edited_args(tmp_path, "sim", ["simulation", "workload_path"], str(trace))
        assert main(args) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {trace}: line 1: task a: cores_req must be a number, got {json.dumps(text)}"]

    @pytest.mark.parametrize("text", ["3_00.0", "\u0663\u0660\u0660"],
                             ids=["underscore", "arabic_indic"])
    def test_cli_delay_cell_that_is_no_decimal_number(self, tmp_path, capsys, text):
        """``float()`` read a throughput cell of ``3_00.0`` or ``٣٠٠`` as 300 Mbps."""
        delays = tmp_path / "delay_params.csv"
        table = network.packaged_table("delay_params.csv").read_text()
        assert "\nUS,EU,300.0," in table
        delays.write_text(table.replace("\nUS,EU,300.0,", f"\nUS,EU,{text},", 1))
        args, _ = self._edited_args(tmp_path, "sim", ["simulation", "delay_params_path"],
                                    str(delays))
        assert main(args) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {delays}: bad row 2: throughput_mbps: not a decimal number: {text!r}"]


class TestFileInputs:
    """A run whose dc 1 reads its series from files and whose tasks come from a trace."""

    def _args(self, tmp_path, origin=None, trace_start=None):
        start = datetime(2024, 3, 1, tzinfo=timezone.utc)
        hours = 25  # covers the one-day window, end included
        price = synth_series(SeriesKind.PRICE, 90.0, 35.0, 4.0, start, hours, 1)
        carbon = synth_series(SeriesKind.CARBON_INTENSITY, 250.0, 120.0, 10.0, start, hours, 2)
        drybulb = synth_series(SeriesKind.DRY_BULB_TEMP_C, 20.0, 8.0, 1.0, start, hours, 3)
        humidity = synth_series(SeriesKind.REL_HUMIDITY_PCT, 45.0, 10.0, 2.0, start, hours, 4)
        save_series_csv(price, tmp_path / "price.csv")
        save_series_csv(carbon, tmp_path / "carbon.csv")
        save_weather_json(drybulb, humidity, tmp_path / "weather.json")
        trace = generate_synthetic_trace(trace_start or start, 96, 2.0, ResourceRanges(), seed=5)
        trace = [spec._replace(origin_dc_id=origin) for spec in trace]
        save_trace(trace, tmp_path / "trace.jsonl")

        fleet = yaml.safe_load((CONFIG_DIR / "datacenters.yaml").read_text())
        fleet["datacenters"][0]["data"] = {
            "price_csv": str(tmp_path / "price.csv"),
            "carbon_csv": str(tmp_path / "carbon.csv"),
            "weather_json": str(tmp_path / "weather.json"),
        }
        (tmp_path / "fleet.yaml").write_text(yaml.safe_dump(fleet))
        sim = yaml.safe_load((CONFIG_DIR / "sim.yaml").read_text())
        sim["simulation"]["workload_path"] = str(tmp_path / "trace.jsonl")
        (tmp_path / "sim.yaml").write_text(yaml.safe_dump(sim))
        return [
            "--sim-config", str(tmp_path / "sim.yaml"),
            "--dc-config", str(tmp_path / "fleet.yaml"),
            "--reward-config", str(CONFIG_DIR / "reward.yaml"),
            "--days", "1",
        ]

    def test_cli_runs_on_file_inputs(self, tmp_path, capsys):
        args = self._args(tmp_path)
        assert main([*args, "--out", str(tmp_path / "a")]) == 0
        assert main([*args, "--out", str(tmp_path / "b")]) == 0
        log = (tmp_path / "a" / "steps_seed0.csv").read_bytes()
        assert log == (tmp_path / "b" / "steps_seed0.csv").read_bytes()

        prices = load_price_csv(tmp_path / "price.csv", "US-CAL-CISO").values
        rows = list(csv.DictReader(log.decode().splitlines()[1:]))
        assert len(rows) == 96
        row = rows[12]  # 03:00, on the hour: the step reads the CSV's own point
        assert row["time_utc"].startswith("2024-03-01T03:00")
        assert float(row["dc1_energy_kwh"]) > 0.0
        assert float(row["dc1_cost_usd"]) == float(row["dc1_energy_kwh"]) * prices[3] / 1000.0
        assert sum(int(r["dc1_sla_met"]) + int(r["dc1_sla_violated"]) for r in rows) > 0

    @pytest.mark.parametrize("name, edit, expected", [
        ("price.csv", lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0] + ",oops"] + lines[3:],
         "row 3: unparsable value 'oops'"),
        ("carbon.csv", lambda lines: lines[:1] + [lines[1] + ",99"] + lines[2:],
         "row 2: 1 cells past the 2 columns"),
    ], ids=["price_unparsable", "carbon_extra_cell"])
    def test_cli_bad_series_row_names_the_file(self, tmp_path, capsys, name, edit, expected):
        args = self._args(tmp_path)
        path = tmp_path / name
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        assert main([*args, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {path}: {expected}"]

    def test_cli_trace_infinite_bandwidth(self, tmp_path, capsys):
        """A remote transfer of an infinite size has no delay: the trace is refused."""
        args = self._args(tmp_path, origin=3)
        trace = tmp_path / "trace.jsonl"
        lines = trace.read_text().splitlines()
        task = json.loads(lines[1])
        task["bandwidth_gb"] = math.inf
        lines[1] = json.dumps(task)
        trace.write_text("\n".join(lines) + "\n")
        assert main([*args, "--strategy", "round_robin", "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {trace}: line 2: task {task['job_id']}: "
                       "bandwidth_gb must be >= 0 and finite"]

    def test_cli_trace_bandwidth_above_its_ceiling(self, tmp_path, capsys):
        """A 1e306 GB transfer overflowed its delay in ``delay_steps``: it is refused."""
        args = self._args(tmp_path, origin=3)
        trace = tmp_path / "trace.jsonl"
        lines = trace.read_text().splitlines()
        task = json.loads(lines[1])
        task["bandwidth_gb"] = 1e306
        lines[1] = json.dumps(task)
        trace.write_text("\n".join(lines) + "\n")
        assert main([*args, "--strategy", "round_robin", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {trace}: line 2: task {task['job_id']}: bandwidth_gb must be <= 1e+06"]

    def test_cli_trace_origin_must_be_a_configured_dc(self, tmp_path, capsys):
        """The trace is checked against the fleet before any episode runs."""
        args = self._args(tmp_path, origin=9)
        assert main([*args, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {tmp_path / 'trace.jsonl'}: task job-000001: "
                       "origin 9 is not a configured dc"]

    def test_cli_trace_outside_the_window(self, tmp_path, capsys):
        """A trace of 2023 under a 2024 window would run no task: it is refused."""
        args = self._args(tmp_path, trace_start=datetime(2023, 3, 1, tzinfo=timezone.utc))
        assert main([*args, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {tmp_path / 'trace.jsonl'}: none of ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, edit, expected", [
        ("sim.yaml", lambda doc: doc["simulation"].update(duration_days="3"),
         "simulation: duration_days: must be a number, not text"),
        ("fleet.yaml", lambda doc: doc["datacenters"][0].update(total_cores="2000"),
         "datacenter 0: total_cores: must be a number, not text"),
        ("reward.yaml",
         lambda doc: doc["reward"]["components"]["energy_price"].update(weight="0.4"),
         "component 'energy_price': weight must be a finite number"),
        ("physics.json", lambda doc: doc["data_center_configuration"].update(NUM_RACKS="7"),
         "data_center_configuration: NUM_RACKS: must be a number, not text"),
        ("physics.json", lambda doc: doc["hvac_configuration"].update(C_AIR="1006"),
         "hvac_configuration: C_AIR: must be a number, not text"),
        ("physics.json", lambda doc: doc["data_center_configuration"].update(NUM_RACK=99),
         "data_center_configuration: NUM_RACK: unknown key"),
        ("weather.json", lambda doc: doc["hourly"]["temperature_2m"].__setitem__(0, "21.5"),
         "row 1: unparsable value '21.5'"),
    ], ids=["sim_days_text", "fleet_cores_text", "reward_weight_text", "physics_racks_text",
            "physics_c_air_text", "physics_misspelled_key", "weather_temperature_text"])
    def test_cli_number_as_text_or_unknown_physics_key_names_the_file(self, tmp_path, capsys,
                                                                      name, edit, expected):
        """A number loads as its file writes it: text only in a CSV cell or a trace. A
        physics key that no field declares is refused, as every YAML key is."""
        args = self._args(tmp_path)
        (tmp_path / "reward.yaml").write_text((CONFIG_DIR / "reward.yaml").read_text())
        args[args.index("--reward-config") + 1] = str(tmp_path / "reward.yaml")
        save_dc_config(desk_scale_params(), tmp_path / "physics.json")
        fleet = yaml.safe_load((tmp_path / "fleet.yaml").read_text())
        fleet["datacenters"][0]["dc_config_file"] = str(tmp_path / "physics.json")
        (tmp_path / "fleet.yaml").write_text(yaml.safe_dump(fleet))
        path = tmp_path / name
        load, dump = (json.loads, json.dumps) if name.endswith(".json") else (yaml.safe_load,
                                                                               yaml.safe_dump)
        doc = load(path.read_text())
        edit(doc)
        path.write_text(dump(doc))
        assert main([*args, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {path}: {expected}"]
        assert not (tmp_path / "out").exists()

    def test_cli_weather_time_that_is_no_text_names_the_file(self, tmp_path, capsys):
        """A ``time`` element 0 raised AttributeError, printed as a traceback."""
        args = self._args(tmp_path)
        path = tmp_path / "weather.json"
        doc = json.loads(path.read_text())
        doc["hourly"]["time"][0] = 0
        path.write_text(json.dumps(doc))
        assert main([*args, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: row 1: unparsable timestamp 0"]


class TestTraceWindow:
    """``build_env`` counts a trace file's tasks that arrive at no step of the window."""

    WINDOW = "[2024-03-01T00:00:00+00:00, 2024-03-02T00:00:00+00:00)"

    def _sim(self, tmp_path, tasks):
        path = tmp_path / "trace.jsonl"
        save_trace(tasks, path)
        return small_sim(workload_path=str(path)), path

    def _trace(self, start, steps=96):
        return generate_synthetic_trace(start, steps, 2.0, ResourceRanges(), seed=5)

    def test_every_task_outside_is_an_error(self, tmp_path):
        sim, path = self._sim(tmp_path, self._trace(datetime(2023, 3, 1, tzinfo=timezone.utc)))
        with pytest.raises(ConfigError, match=re.escape(f"{path}: none of its ")) as info:
            build_env(sim, small_fleet(), REWARD, seed=0)
        assert str(info.value).endswith(f"window {self.WINDOW}")

    def test_some_tasks_outside_warn_once_with_the_count(self, tmp_path, caplog):
        start = datetime(2024, 3, 1, tzinfo=timezone.utc)
        inside = self._trace(start)
        late = self._trace(start + timedelta(days=1), steps=4)  # the end is not a step
        early = self._trace(start - timedelta(minutes=60), steps=4)
        missed = len(late) + len(early)
        assert min(len(late), len(early)) > 0
        sim, path = self._sim(tmp_path, [*inside, *late, *early])
        with caplog.at_level(logging.WARNING, logger="geodcsim.runner"):
            env = build_env(sim, small_fleet(), REWARD, seed=0)
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}: {missed} of {len(inside) + missed} tasks arrive at no step of the "
            f"simulation window {self.WINDOW} and never run"]
        env.reset()
        done = False
        while not done:
            _, _, done, _ = env.step([1] * len(env.current_tasks))
        assert env._injected == len(inside)

    def test_a_trace_inside_the_window_is_silent(self, tmp_path, caplog):
        sim, _ = self._sim(tmp_path, self._trace(datetime(2024, 3, 1, tzinfo=timezone.utc)))
        with caplog.at_level(logging.WARNING):
            build_env(sim, small_fleet(), REWARD, seed=0)
        assert caplog.records == []

    def test_an_empty_trace_still_runs(self, tmp_path):
        sim, _ = self._sim(tmp_path, [])
        rows, kpis = run_episode(sim, small_fleet(), REWARD, seed=0)
        assert len(rows) == 96 and kpis["avg_cpu_util_pct"] == 0.0


class TestNumberDomains:
    """Numbers the fleet or the code gives a site, checked by ``floats.checked``."""

    def test_cli_dry_bulb_outside_its_range_exits_with_one_line(self, tmp_path):
        """A synthetic base temperature of -100000 degC hung the run in the wet-bulb
        solve. The CLI runs in a child process with a timeout, so a hang fails."""
        doc = yaml.safe_load((CONFIG_DIR / "datacenters.yaml").read_text())
        doc["datacenters"][0]["synthetic"]["weather"]["base_temp_c"] = -100000.0
        fleet = tmp_path / "datacenters.yaml"
        fleet.write_text(yaml.safe_dump(doc))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run(
            [sys.executable, "-m", "geodcsim.runner", "--sim-config", str(CONFIG_DIR / "sim.yaml"),
             "--dc-config", str(fleet), "--reward-config", str(CONFIG_DIR / "reward.yaml"),
             "--days", "1", "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=60, env=env)
        assert done.returncode == 1
        assert done.stderr.splitlines() == [
            "error: dc 1: dry-bulb temperature must lie in [-90, 70]"]

    @pytest.mark.parametrize("value, expected", [
        (math.inf, "synthetic_workload.mean_tasks_per_interval must be finite"),
        (-1.0, "synthetic_workload.mean_tasks_per_interval must be >= 0"),
    ], ids=["inf", "negative"])
    def test_code_built_task_rate_must_be_finite(self, value, expected):
        """An infinite rate built in code passed the ``>= 0`` test."""
        with pytest.raises(ConfigError, match=f"^{re.escape(expected)}$"):
            small_sim(mean_tasks_per_interval=value)

    def test_infinite_population_weight_is_refused_by_the_spec(self):
        with pytest.raises(ConfigError, match="^dc 1: population_weight must be finite$"):
            replace(small_fleet(1)[0], population_weight=math.inf)

    def test_code_built_synthetic_spec_that_is_not_finite_names_the_dc(self):
        """``SyntheticSeriesSpec`` keeps no check of its own: the series it draws is
        checked against its kind's domain when the environment is built."""
        fleet = small_fleet()
        fleet[1] = replace(fleet[1], synth_price=SyntheticSeriesSpec(base=math.nan))
        with pytest.raises(ConfigError, match="^dc 2: price must be finite$"):
            build_env(small_sim(), fleet, REWARD, seed=0)

    def test_one_parameter_block_per_physics_file(self, tmp_path, monkeypatch):
        """Sites that name the same physics file share the block read from it once."""
        physics = tmp_path / "dc.json"
        save_dc_config(desk_scale_params(), physics)
        calls = []
        load = runner.load_dc_config
        monkeypatch.setattr(runner, "load_dc_config", lambda path: calls.append(path) or load(path))
        fleet = [replace(spec, dc_config_file=str(physics)) for spec in small_fleet(3)]
        env = build_env(small_sim(), fleet, REWARD, seed=0)
        env.reset()
        nodes = env.cluster.nodes
        assert calls == [str(physics)] and nodes[0].physics is nodes[2].physics


class TestCrossFileChecks:
    """``build_env`` checks the fleet against the network tables and the series files
    against the window once, before any episode, naming the file at fault."""

    PACKAGED = {name: network.packaged_table(name)
                for name in ("cost_matrix.csv", "delay_params.csv", "region_map.csv")}

    def _copy(self, tmp_path, name, keep):
        """A copy of packaged table ``name`` holding the lines for which ``keep`` holds."""
        path = tmp_path / name
        lines = self.PACKAGED[name].read_text().splitlines()
        path.write_text("\n".join(line for line in lines if keep(line)) + "\n")
        return path

    def test_location_the_region_map_lacks(self, tmp_path):
        regions = self._copy(tmp_path, "region_map.csv", lambda line: not line.startswith("SG,"))
        with pytest.raises(ConfigError, match=f"^{re.escape(str(regions))}: location 'SG' "
                                              "has no region mapping$"):
            build_env(small_sim(region_map_path=str(regions)), small_fleet(3), REWARD, seed=0)

    def test_a_packaged_table_is_named_by_its_packaged_path(self):
        fleet = small_fleet()
        fleet[0].location = "ATLANTIS"
        with pytest.raises(ConfigError, match=f"^{re.escape(str(self.PACKAGED['region_map.csv']))}"
                                              ": location 'ATLANTIS' has no region mapping$"):
            build_env(small_sim(), fleet, REWARD, seed=0)

    def test_region_the_cost_matrix_lacks_names_both_tables(self, tmp_path):
        costs = tmp_path / "cost_matrix.csv"
        costs.write_text("region,us-west-1,eu-central-1\nus-west-1,0,1\neu-central-1,1,0\n")
        with pytest.raises(ConfigError, match=(
                f"^{re.escape(str(costs))}: {re.escape(str(self.PACKAGED['region_map.csv']))}: "
                "region 'ap-southeast-1' not in cost matrix$")):
            build_env(small_sim(cost_matrix_path=str(costs)), small_fleet(3), REWARD, seed=0)

    def test_cluster_pair_the_delay_table_lacks(self, tmp_path):
        """A local-only run never looks the pair up: it ran to the end before."""
        delays = self._copy(tmp_path, "delay_params.csv", lambda line: not line.startswith("EU,US,"))
        with pytest.raises(ConfigError, match=f"^{re.escape(str(delays))}: "
                                              "no delay parameters for EU->US$"):
            run_episode(small_sim(delay_params_path=str(delays)), small_fleet(3), REWARD, seed=0)

    def test_series_file_short_of_the_window(self, tmp_path):
        start = datetime(2024, 3, 1, tzinfo=timezone.utc)
        price = tmp_path / "price.csv"
        save_series_csv(synth_series(SeriesKind.PRICE, 90.0, 0.0, 0.0, start, 12, 1), price)
        fleet = small_fleet()
        fleet[1] = replace(fleet[1], price_csv=str(price))
        with pytest.raises(ConfigError, match=(
                f"^{re.escape(str(price))}: series do not cover the simulation window "
                r"\[2024-03-01T00:00:00\+00:00, 2024-03-02T00:00:00\+00:00\]: dc 2 price "
                r"covers \[2024-03-01T00:00:00\+00:00, 2024-03-01T11:00:00\+00:00\]$")):
            build_env(small_sim(), fleet, REWARD, seed=0)

    def test_each_block_is_checked_once_at_each_site_memory(self, monkeypatch):
        """A block checks itself with no memory; ``build_env`` checks it again at each
        distinct site memory, so a block built in code is refused there too."""
        mems = []
        check = runner.check_envelope
        monkeypatch.setattr(runner, "check_envelope",
                            lambda params, mem_gb: mems.append(mem_gb) or check(params, mem_gb))
        fleet = [replace(spec, dc_id=spec.dc_id + 3 * k)
                 for k in range(16) for spec in small_fleet(3)]
        fleet[5] = replace(fleet[5], total_mem_gb=6000)
        build_env(small_sim(), fleet, REWARD, seed=0)
        assert sorted(mems) == [6000, 8000]
        heavy = desk_scale_params(mem_w_per_gb=1e306)
        for spec in fleet:
            spec.physics = heavy
        with pytest.raises(ConfigError, match="^dc 1: at total_mem_gb 8000: the step at "
                                              "inlet 16 degC and load 0: IT power must be finite$"):
            build_env(small_sim(), fleet, REWARD, seed=0)

    def test_one_lookup_per_distinct_region_and_cluster_pair(self, monkeypatch):
        """48 sites at 3 locations: 3 regions and 6 ordered cluster pairs, not 48**2."""
        calls = []
        for kind, name in ((network.CostMatrix, "rate"), (network.DelayTable, "lookup")):
            method = getattr(kind, name)
            monkeypatch.setattr(kind, name, lambda self, *args, method=method, name=name:
                                calls.append(name) or method(self, *args))
        fleet = [replace(spec, dc_id=spec.dc_id + 3 * k)
                 for k in range(16) for spec in small_fleet(3)]
        build_env(small_sim(), fleet, REWARD, seed=0)
        assert sorted(calls) == ["lookup"] * 6 + ["rate"] * 3
