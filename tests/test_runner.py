import json
from pathlib import Path

import pytest
import yaml

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
from geodcsim.workload import ResourceRanges

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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


class TestConfigLoading:
    def test_example_configs_parse(self):
        sim = load_sim_config(CONFIG_DIR / "sim.yaml")
        fleet = load_dc_fleet(CONFIG_DIR / "datacenters.yaml")
        reward = load_reward_config(CONFIG_DIR / "reward.yaml")
        assert sim.duration_days == 2
        assert [spec.dc_id for spec in fleet] == [1, 2, 3]
        assert "energy_price" in reward["reward"]["components"]

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

    def test_same_seed_byte_identical_logs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_episode(small_sim(), small_fleet(), REWARD, seed=3, out_dir=a)
        run_episode(small_sim(), small_fleet(), REWARD, seed=3, out_dir=b)
        assert (a / "steps_seed3.csv").read_bytes() == (b / "steps_seed3.csv").read_bytes()

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
        assert err == [f"error: {sim}: simulation: {key}: invalid literal for int() "
                       "with base 10: 'abc'"]

    def _edited_fleet_args(self, tmp_path, keys, value):
        """CLI args whose fleet is the shipped one with dc 1's ``keys`` path set to ``value``."""
        doc = yaml.safe_load((CONFIG_DIR / "datacenters.yaml").read_text())
        section = doc["datacenters"][0]
        for key in keys[:-1]:
            section = section[key]
        section[keys[-1]] = value
        fleet = tmp_path / "fleet.yaml"
        fleet.write_text(yaml.safe_dump(doc))
        args = self._args(tmp_path)
        args[args.index("--dc-config") + 1] = str(fleet)
        return args, fleet

    def test_cli_malformed_physics_json(self, tmp_path, capsys):
        bad = tmp_path / "dc.json"
        bad.write_text("{not json")
        args, _ = self._edited_fleet_args(tmp_path, ["dc_config_file"], str(bad))
        assert main(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: invalid JSON")

    @pytest.mark.parametrize("keys, value, expected", [
        (["total_cores"], "abc", "{fleet}: datacenter 0: total_cores: could not convert"),
        (["total_cores"], -5, "dc 1: capacities must be >= 0"),
        (["synthetic", "price", "base"], "abc",
         "{fleet}: datacenter 0: synthetic.price.base: could not convert"),
        (["synthetic", "carbon", "daily_amplitude"], 300.0, "dc 1: carbon intensity requires"),
        (["synthetic", "price", "noise_sd"], -1, "dc 1: daily_amplitude and noise_sd"),
        (["population_weight"], 0, "dc 1: population_weight must be > 0"),
        (["hvac"], {"policy": "deadband", "deadband": [24.0, 25.0, 26.0]},
         "dc 1: deadband must be two numbers lo < hi"),
        (["hvac"], {"policy": "deadband", "deadband": ["a", "b"]},
         "dc 1: deadband must be two numbers lo < hi"),
        (["hvac"], {"policy": "deadband", "deadband": [26.0, 24.0]},
         "dc 1: deadband must be two numbers lo < hi"),
    ], ids=["cores_not_a_number", "cores_negative", "price_base_not_a_number",
            "carbon_amplitude_over_base", "noise_sd_negative", "population_weight_zero",
            "deadband_three_values", "deadband_not_numbers", "deadband_reversed"])
    def test_cli_bad_fleet_value(self, tmp_path, capsys, keys, value, expected):
        args, fleet = self._edited_fleet_args(tmp_path, keys, value)
        assert main(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and expected.format(fleet=fleet) in err[0]
