"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
Criteria 7-8 drive full two-day, three-site episodes on synthetic data; the
golden log under tests/data/ pins byte-level determinism of the step logs.
"""

import json
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest

from geodcsim.controllers import RbcStrategy, RuleBasedController, snapshot_cluster
from geodcsim.dcphysics import (
    DcPhysicsParams,
    WeatherSample,
    dc_physics_step,
    desk_scale_params,
    gpu_power,
    heat_recovery_w,
    hvac_step,
    memory_power_per_rack,
    pump_power,
    total_it_power,
    water_to_15min_liters,
    water_usage_rate,
)
from geodcsim.errors import ProtocolError
from geodcsim.network import transmission_energy_kwh
from geodcsim.rewards import CompositeReward, get_component
from geodcsim.runner import (
    KPI_KEYS,
    DcSpec,
    SimConfig,
    SyntheticSeriesSpec,
    SyntheticWeatherSpec,
    build_env,
    run_episode,
    run_sweep,
    summarize_kpis,
)
from geodcsim.schedenv import observation_dim
from geodcsim.workload import ResourceRanges, origin_probabilities

from conftest import T0, make_cluster, make_env, make_task, tiny_network
from test_network import transmission_delay_s
from test_rewards import info as reward_info
from test_schedenv import trace_of

GOLDEN_LOG = Path(__file__).resolve().parent / "data" / "golden_steps.csv"


def _report(criterion: int, text: str):
    print(f"[PASS] criterion {criterion}: {text}")


# Shared synthetic scenario: 2 days, 3 sites, flat weather, ample capacity.
def scenario(strategy, price=(100.0, 100.0, 100.0), carbon=(300.0, 300.0, 300.0), seed=0):
    sim = SimConfig(
        year=2024, month=3, init_day=1, init_hour=0, duration_days=2,
        strategy=strategy, mean_tasks_per_interval=2.0,
        resource_ranges=ResourceRanges(
            duration_min=(30.0, 120.0), cores_req=(4.0, 32.0), gpu_req=(0.0, 2.0),
            mem_req=(4.0, 32.0), bandwidth_gb=(0.05, 0.2),
        ),
    )
    locations = ["US-CAL-CISO", "DE-LU", "SG"]
    fleet = [
        DcSpec(
            dc_id=i + 1, location=locations[i], timezone_shift=0.0, population_weight=1.0,
            total_cores=4000, total_gpus=100, total_mem_gb=16000,
            synth_price=SyntheticSeriesSpec(base=price[i]),
            synth_carbon=SyntheticSeriesSpec(base=carbon[i]),
            synth_weather=SyntheticWeatherSpec(base_temp_c=20.0, rel_humidity_pct=50.0),
        )
        for i in range(3)
    ]
    reward = {"reward": {"components": {"energy_price": {"weight": 1.0}}}}
    return sim, fleet, reward


def test_criterion_1_formula_exact_units():
    p = DcPhysicsParams()
    assert gpu_power(p, 0.0) == pytest.approx(25.0, abs=1e-9)
    assert gpu_power(p, 1.0) == pytest.approx(250.0, abs=1e-9)

    from geodcsim.dcphysics import cpu_power
    assert cpu_power(p, 16.0, 0.0) / p.cpu_full_w == pytest.approx(0.01, abs=1e-12)
    assert cpu_power(p, 28.0, 1.0) / p.cpu_full_w == pytest.approx(1.02, abs=1e-12)

    one_rack = DcPhysicsParams(num_racks=1)
    assert memory_power_per_rack(one_rack, 1000.0) == pytest.approx(70.0, abs=1e-12)
    twenty_racks = DcPhysicsParams(num_racks=20)
    assert memory_power_per_rack(twenty_racks, 80000.0) == pytest.approx(280.0, abs=1e-9)

    assert pump_power(3.0e5, 0.0011, 0.87) == pytest.approx(379.31, abs=0.01)

    assert transmission_energy_kwh(1.0) == pytest.approx(0.06, abs=1e-15)
    assert transmission_energy_kwh(10.0) == pytest.approx(0.6, abs=1e-12)

    _, delay_table, region_map = tiny_network()
    d = transmission_delay_s(delay_table, region_map, 1.0, "US-CAL-CISO", "US-NY-NYIS")
    assert d == pytest.approx(8.01, abs=1e-9)

    for rate in (0.0, 0.2, 1.0, 4.0):
        assert water_to_15min_liters(rate) == pytest.approx(rate * 250.0, abs=1e-12)

    assert 0.3528 * 5.0 + 0.101 == pytest.approx(1.865, abs=1e-9)
    assert water_usage_rate(5.0, 20.0) == pytest.approx(2.745, abs=1e-9)

    rng = np.random.default_rng(314)
    for _ in range(100):
        it_power = float(rng.uniform(0.0, 2e6))
        ambient = float(rng.uniform(-25.0, 45.0))
        t_return = float(rng.uniform(18.0, 50.0))
        potential = heat_recovery_w(p, ambient)
        hv = hvac_step(p, it_power, t_return, 20.0, ambient, 10.0, hru_enabled=True)
        assert hv.hru_recovered_w == pytest.approx(min(potential, 0.25 * it_power), rel=1e-12)
    _report(1, "component formulas exact at stated tolerances")


def test_criterion_2_conservation_and_bounds():
    # 10^4 random scheduling events with exact bookkeeping and a task census
    rng = np.random.default_rng(77)
    cluster = make_cluster(hours=300 * 24)
    injected = 0
    now = T0
    events = 0
    step = 0
    while events < 10_000:
        k = int(rng.poisson(25))
        decisions = []
        for i in range(k):
            decisions.append((
                make_task(
                    f"e{step}-{i}", arrival=now,
                    duration=float(rng.uniform(15, 180)),
                    cores=float(rng.uniform(0.5, 64)),
                    gpu=float(rng.uniform(0, 4)),
                    mem=float(rng.uniform(1, 128)),
                    bandwidth=float(rng.uniform(0.01, 5)),
                    origin=int(rng.integers(1, 4)),
                ),
                int(rng.integers(1, 4)),
            ))
        injected += k
        events += k
        cluster.injected_count += k
        tx = cluster.route_assignments(decisions, step, now)
        cluster.step(step, now, tx)
        for node in cluster.nodes:
            assert node.available_cores == node.total_cores - sum(
                t.cores_req for t in node.running)
            assert node.available_gpus == node.total_gpus - sum(
                t.gpu_req for t in node.running)
            assert node.available_mem_gb == node.total_mem_gb - sum(
                t.mem_req for t in node.running)
            assert 0.0 <= node.available_cores <= node.total_cores
        census = cluster.census()
        assert (census["pending"] + census["running"] + census["in_transit"]
                + census["completed"]) == injected
        now += timedelta(minutes=15)
        step += 1

    # heat-to-CRAC identity under default thermal coefficients and zero approaches
    params = desk_scale_params()
    for u in np.linspace(0.0, 1.0, 11):
        r = dc_physics_step(params, 22.0, float(u), float(u), 4000.0,
                            WeatherSample(25.0, 18.0))
        m_dot = params.crac_supply_flow_pu * r.it_power_w
        q = m_dot * params.c_air * (r.crac_return_temp_c - 22.0)
        assert abs(q - r.it_power_w) <= 1e-6 * r.it_power_w

    # 10^4 randomized physics draws: every power nonnegative, HRU never overshoots
    fuzz = np.random.default_rng(2718)
    for _ in range(10_000):
        r = dc_physics_step(
            params,
            float(fuzz.uniform(18, 27)),
            float(fuzz.uniform(0, 1)),
            float(fuzz.uniform(0, 1)),
            float(fuzz.uniform(0, 16000)),
            WeatherSample(float(fuzz.uniform(-25, 45)), float(fuzz.uniform(-30, 35))),
            hru_enabled=bool(fuzz.integers(0, 2)),
        )
        assert r.it_power_w >= 0 and r.crac_fan_w >= 0 and r.chiller_w >= 0
        assert r.ct_fan_w >= 0 and r.pump_w >= 0 and r.water_l_15min >= 0
        assert r.hru_recovered_w <= 0.25 * r.it_power_w + 1e-9
        assert r.energy_kwh == pytest.approx(r.total_power_w * 0.25 / 1000.0, rel=1e-9)
    _report(2, "bookkeeping exact, census conserved, heat identity and bounds hold")


def test_criterion_3_monotonicity():
    params = desk_scale_params()
    mild = WeatherSample(20.0, 15.0)
    grid = np.linspace(0.0, 1.0, 33)

    cpu_curve = [dc_physics_step(params, 22.0, float(u), 0.4, 2000.0, mild).it_power_w
                 for u in grid]
    gpu_curve = [dc_physics_step(params, 22.0, 0.4, float(u), 2000.0, mild).it_power_w
                 for u in grid]
    assert all(b >= a - 1e-9 for a, b in zip(cpu_curve, cpu_curve[1:]))
    assert all(b >= a - 1e-9 for a, b in zip(gpu_curve, gpu_curve[1:]))

    inlet_grid = np.linspace(16.0, 28.0, 33)
    inlet_curve = [
        total_it_power(params, [float(t)] * params.num_racks, 0.5, 0.5, 2000.0)[0]
        for t in inlet_grid
    ]
    assert all(b >= a - 1e-9 for a, b in zip(inlet_curve, inlet_curve[1:]))

    loads = np.linspace(0.0, 2.0e5, 33)
    ct_curve = [hvac_step(params, float(q) / 0.5, 35.0, 20.0, 20.0, 15.0).ct_fan_w
                for q in loads]
    assert all(b >= a - 1e-9 for a, b in zip(ct_curve, ct_curve[1:]))
    _report(3, "IT power monotone in u_cpu/u_gpu/inlet temp; CT fan monotone in load")


def test_criterion_4_mdp_contract():
    for n in (1, 3, 5):
        env = make_env(trace_of([make_task()]), n_dcs=n)
        obs = env.reset()
        assert obs[0].shape == (observation_dim(n),) == (4 + 5 + 5 * n,)

    env = make_env(trace_of([]), duration_days=1)
    env.reset()
    steps = 0
    done = False
    while not done:
        _, _, done, _ = env.step([0] * len(env.current_tasks))
        steps += 1
    assert steps == 96

    tasks = [make_task("a"), make_task("b"), make_task("c")]
    env = make_env(trace_of(tasks, [make_task("d")]))
    env.reset()
    env.step([0, 0, 0])
    assert [t.job_id for t in env.current_tasks] == ["a", "b", "c", "d"]

    # constructed expired task: defer actions get overridden to the origin site
    late = make_task("late", duration=15.0, multiplier=1.0, origin=2)
    env = make_env(trace_of([late], [], [], []))
    env.reset()
    env.step([0])
    env.step([0])
    env.step([0])
    assert env.current_tasks == []
    census = env.task_census()
    assert census["pending"] + census["running"] + census["completed"] == 1

    env = make_env(trace_of([make_task("a"), make_task("b")]))
    env.reset()
    with pytest.raises(ProtocolError):
        env.step([1])

    env = make_env(trace_of([make_task("a", origin=2), make_task("b", origin=2),
                             make_task("c", origin=2)]),
                   single_action_mode=True)
    env.reset()
    env.step_single_action(2)
    assert len(env.cluster.by_id[2].pending) + len(env.cluster.by_id[2].running) == 3

    env = make_env(trace_of([make_task("a", origin=3)]), single_action_mode=True,
                   disable_defer_action=True)
    env.reset()
    env.step_single_action(0)  # maps onto datacenter 1 when deferral is disabled
    assert env.cluster.in_transit[0].dest_dc_id == 1
    with pytest.raises(ProtocolError):
        env.step_single_action(3)
    _report(4, "observation dims, horizon, deferral order, override, protocol errors")


def test_criterion_5_reward_contract():
    assert get_component("energy_price").normalize_factor == 1000.0
    assert get_component("carbon_emissions").normalize_factor == 100.0
    assert get_component("energy_consumption").normalize_factor == 1000.0
    assert get_component("transmission_cost").normalize_factor == 10.0
    assert get_component("transmission_emissions").normalize_factor == 10.0
    assert get_component("sla_penalty").penalty_per_violation == 1.0

    names = ("energy_price", "carbon_emissions", "energy_consumption",
             "transmission_cost", "transmission_emissions", "sla_penalty")
    rng = np.random.default_rng(555)
    for _ in range(1000):
        weights = rng.normal(size=len(names))
        comp = CompositeReward({n: {"weight": float(w)} for n, w in zip(names, weights)})
        out = comp(reward_info(
            cost=float(rng.uniform(0, 1e5)),
            carbon=float(rng.uniform(0, 1e4)),
            energy=float(rng.uniform(0, 1e5)),
            tx_cost=float(rng.uniform(0, 200)),
            tx_energy=float(rng.uniform(0, 50)),
            tx_emissions=float(rng.uniform(0, 20)),
            violated=int(rng.integers(0, 100)),
        ))
        raws = np.array([out.per_component_raw[n] for n in names])
        assert abs(out.total - float(np.dot(weights, raws))) <= 1e-12 * max(1.0, abs(out.total))

    comp = CompositeReward({
        "energy_price": {"weight": 1.0},
        "sla_penalty": {"weight": 0.0, "args": {"penalty_per_violation": 1e9}},
    })
    out = comp(reward_info(cost=1000.0, violated=7))
    assert out.total == pytest.approx(-1.0)
    _report(5, "composite linear to 1e-12; component defaults and isolation verified")


def test_criterion_6_origin_statistics():
    now = T0.replace(hour=12)
    dcs = [(1, 0, 0.5), (2, 14, 0.5)]  # locals 12:00 and 02:00
    probs = origin_probabilities(dcs, now)
    assert probs == pytest.approx([0.7692, 0.2308], abs=1e-4)

    rng = np.random.default_rng(424242)
    draws = rng.choice([1, 2], size=100_000, p=probs)
    freq1 = float(np.mean(draws == 1))
    assert abs(freq1 - 0.7692) <= 0.01
    assert abs((1.0 - freq1) - 0.2308) <= 0.01
    _report(6, "origin sampling matches computed probabilities within +/-0.01")


def test_criterion_7_behavioral_reproduction(tmp_path):
    # (a) local-only routing never pays transmission, step by step
    sim, fleet, reward = scenario("local_only")
    run_episode(sim, fleet, reward, seed=11, out_dir=tmp_path)
    lines = (tmp_path / "steps_seed11.csv").read_text().splitlines()
    header = lines[1].split(",")
    tx_idx = header.index("tx_cost_usd")
    assert all(float(line.split(",")[tx_idx]) == 0.0 for line in lines[2:])
    deferred_idx = header.index("tasks_deferred")

    # (b) with one strictly cheapest site, price chasing beats round robin on cost
    cheap = (200.0, 10.0, 200.0)
    sim_lp, fleet_lp, reward_lp = scenario("lowest_price", price=cheap)
    _, kpi_lp = run_episode(sim_lp, fleet_lp, reward_lp, seed=11)
    sim_rr, fleet_rr, reward_rr = scenario("round_robin", price=cheap)
    _, kpi_rr = run_episode(sim_rr, fleet_rr, reward_rr, seed=11)
    assert kpi_lp["total_cost_usd"] <= kpi_rr["total_cost_usd"]

    # (c) with one strictly greenest site, carbon chasing beats local-only on CO2
    green = (100.0, 500.0, 500.0)
    sim_lc, fleet_lc, reward_lc = scenario("lowest_carbon", carbon=green)
    _, kpi_lc = run_episode(sim_lc, fleet_lc, reward_lc, seed=11)
    sim_lo, fleet_lo, reward_lo = scenario("local_only", carbon=green)
    _, kpi_lo = run_episode(sim_lo, fleet_lo, reward_lo, seed=11)
    assert kpi_lc["total_co2_t"] <= kpi_lo["total_co2_t"]

    # (d) round robin emits the exact periodic sequence over the whole episode
    sim_d, fleet_d, reward_d = scenario("round_robin")
    env = build_env(sim_d, fleet_d, reward_d, seed=11)
    controller = RuleBasedController(RbcStrategy.ROUND_ROBIN)
    env.reset()
    emitted = []
    done = False
    while not done:
        actions = controller.decide(snapshot_cluster(env.cluster, env.now), env.current_tasks)
        emitted.extend(actions)
        _, _, done, _ = env.step(actions)
    assert len(emitted) > 0
    expected = [(i % 3) + 1 for i in range(len(emitted))]
    assert emitted == expected

    # (e) no rule-based strategy ever defers
    for strategy in ("local_only", "lowest_carbon", "lowest_price",
                     "most_available", "round_robin"):
        sim_e, fleet_e, reward_e = scenario(strategy)
        _, kpi = run_episode(sim_e, fleet_e, reward_e, seed=11)
        assert kpi["tasks_deferred"] == 0
    assert all(float(line.split(",")[deferred_idx]) == 0.0 for line in lines[2:])
    _report(7, "local-only zero TX, price/carbon dominance, RR periodicity, no deferrals")


def golden_scenario():
    sim = SimConfig(
        year=2024, month=3, init_day=1, init_hour=0, duration_days=1,
        strategy="lowest_carbon", mean_tasks_per_interval=2.0,
        resource_ranges=ResourceRanges(
            duration_min=(15.0, 90.0), cores_req=(1.0, 16.0), gpu_req=(0.0, 2.0),
            mem_req=(2.0, 32.0), bandwidth_gb=(0.05, 0.5),
        ),
    )
    fleet = [
        DcSpec(dc_id=1, location="US-CAL-CISO", timezone_shift=-7, population_weight=0.4,
               total_cores=2000, total_gpus=40, total_mem_gb=8000,
               synth_price=SyntheticSeriesSpec(90.0, 35.0, 4.0),
               synth_carbon=SyntheticSeriesSpec(250.0, 120.0, 10.0),
               synth_weather=SyntheticWeatherSpec(20.0, 8.0, 1.0, 45.0)),
        DcSpec(dc_id=2, location="DE-LU", timezone_shift=1, population_weight=0.35,
               total_cores=2500, total_gpus=30, total_mem_gb=8000,
               synth_price=SyntheticSeriesSpec(110.0, 40.0, 6.0),
               synth_carbon=SyntheticSeriesSpec(380.0, 150.0, 12.0),
               synth_weather=SyntheticWeatherSpec(12.0, 6.0, 1.0, 65.0)),
        DcSpec(dc_id=3, location="SG", timezone_shift=8, population_weight=0.25,
               total_cores=1500, total_gpus=50, total_mem_gb=6000,
               synth_price=SyntheticSeriesSpec(95.0, 15.0, 3.0),
               synth_carbon=SyntheticSeriesSpec(480.0, 40.0, 8.0),
               synth_weather=SyntheticWeatherSpec(29.0, 3.0, 0.5, 80.0)),
    ]
    reward = {"reward": {"components": {
        "energy_price": {"weight": 0.4, "args": {"normalize_factor": 10.0}},
        "carbon_emissions": {"weight": 0.3, "args": {"normalize_factor": 10.0}},
        "sla_penalty": {"weight": 0.2, "args": {"penalty_per_violation": 5.0}},
        "transmission_cost": {"weight": 0.1, "args": {"normalize_factor": 10.0}},
    }}}
    return sim, fleet, reward


def test_criterion_8_determinism_golden(tmp_path):
    sim, fleet, reward = golden_scenario()
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_episode(sim, fleet, reward, seed=1234, out_dir=a)
    run_episode(sim, fleet, reward, seed=1234, out_dir=b)
    log_a = (a / "steps_seed1234.csv").read_bytes()
    log_b = (b / "steps_seed1234.csv").read_bytes()
    assert log_a == log_b

    golden = GOLDEN_LOG.read_bytes()
    assert log_a == golden, (
        "step log diverged from the checked-in golden log; see README for the "
        "floating-point policy and regeneration instructions"
    )
    _report(8, "episodes byte-identical; golden log matched bit-for-bit")


def test_criterion_9_sweep_aggregation(tmp_path):
    sim, fleet, reward = scenario("round_robin")
    sim.duration_days = 1

    single = run_sweep(sim, fleet, reward, [3], out_dir=tmp_path / "one")
    for key in KPI_KEYS:
        assert single[key]["std"] == 0.0

    seeds = [1, 2, 3]
    summary = run_sweep(sim, fleet, reward, seeds, out_dir=tmp_path / "many")
    rows = [
        json.loads((tmp_path / "many" / f"kpi_seed{s}.json").read_text()) for s in seeds
    ]
    recomputed = summarize_kpis(rows)
    for key in KPI_KEYS:
        assert summary[key]["mean"] == recomputed[key]["mean"]
        assert summary[key]["std"] == recomputed[key]["std"]
        hand_mean = sum(r[key] for r in rows) / len(rows)
        assert recomputed[key]["mean"] == pytest.approx(hand_mean, rel=1e-15)
    _report(9, "sweep mean/std recomputable from per-seed files; single-seed std 0")
