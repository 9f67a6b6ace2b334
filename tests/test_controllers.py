import json

import pytest

from geodcsim.controllers import (
    DcSnapshot,
    RbcStrategy,
    RuleBasedController,
    snapshot_cluster,
)
from geodcsim.dcphysics import HvacAction
from geodcsim.errors import ConfigError
from geodcsim.runner import DcSpec, SimConfig, build_env

from conftest import T0, make_cluster, make_node, make_task

REWARD = {"reward": {"components": {"energy_price": {"weight": 1.0}}}}


def hvac_env(tmp_path, setpoints, setpoint_range=None):
    """Environment over synthetic sites running the ``fixed`` HVAC policy."""
    config_file = None
    if setpoint_range is not None:
        config_file = tmp_path / "dc.json"
        config_file.write_text(json.dumps(
            {"hvac_configuration": {"SETPOINT_RANGE": list(setpoint_range)}}))
    sim = SimConfig(year=2024, month=3, init_day=1, init_hour=0, duration_days=1,
                    mean_tasks_per_interval=2.0)
    fleet = [
        DcSpec(dc_id=i + 1, location=loc, timezone_shift=0.0, population_weight=1.0,
               total_cores=2000, total_gpus=40, total_mem_gb=8000,
               dc_config_file=config_file, hvac_policy="fixed", hvac_setpoint_c=sp)
        for i, (loc, sp) in enumerate(zip(["US-CAL-CISO", "DE-LU", "SG"], setpoints))
    ]
    return build_env(sim, fleet, REWARD, seed=0)


def step_local(env):
    controller = RuleBasedController(RbcStrategy.LOCAL_ONLY)
    return env.step(controller.decide(snapshot_cluster(env.cluster, env.now), env.current_tasks))


def snap(idx, dc_id=None, ci=100.0, price=50.0, cores=1000.0, total=1000.0,
         gpus=50.0, mem=1000.0):
    return DcSnapshot(
        action_index=idx,
        dc_id=dc_id if dc_id is not None else idx,
        ci_g_per_kwh=ci,
        price_usd_per_mwh=price,
        available_cores=cores,
        available_gpus=gpus,
        available_mem_gb=mem,
        total_cores=total,
    )


class TestStrategies:
    def test_local_only(self):
        snaps = [snap(1), snap(2), snap(3)]
        ctrl = RuleBasedController(RbcStrategy.LOCAL_ONLY)
        tasks = [make_task("a", origin=3), make_task("b", origin=1)]
        assert ctrl.decide(snaps, tasks) == [3, 1]

    def test_lowest_carbon_argmin(self):
        snaps = [snap(1, ci=200.0), snap(2, ci=112.0), snap(3, ci=120.0)]
        ctrl = RuleBasedController(RbcStrategy.LOWEST_CARBON)
        assert ctrl.decide(snaps, [make_task()]) == [2]

    def test_lowest_carbon_skips_full_dc(self):
        snaps = [snap(1, ci=200.0), snap(2, ci=112.0, cores=0.5), snap(3, ci=120.0)]
        ctrl = RuleBasedController(RbcStrategy.LOWEST_CARBON)
        # cheapest site cannot fit a 4-core task, next-lowest CI wins
        assert ctrl.decide(snaps, [make_task(cores=4.0)]) == [3]

    def test_lowest_carbon_falls_back_to_origin(self):
        snaps = [snap(1, cores=0.0), snap(2, cores=0.0), snap(3, cores=0.0)]
        ctrl = RuleBasedController(RbcStrategy.LOWEST_CARBON)
        assert ctrl.decide(snaps, [make_task(origin=2, cores=4.0)]) == [2]

    def test_lowest_price(self):
        snaps = [snap(1, price=80.0), snap(2, price=20.0), snap(3, price=30.0)]
        ctrl = RuleBasedController(RbcStrategy.LOWEST_PRICE)
        assert ctrl.decide(snaps, [make_task()]) == [2]

    def test_most_available_core_fraction(self):
        snaps = [snap(1, cores=500.0), snap(2, cores=900.0), snap(3, cores=100.0)]
        ctrl = RuleBasedController(RbcStrategy.MOST_AVAILABLE)
        assert ctrl.decide(snaps, [make_task()]) == [2]

    def test_round_robin_periodic(self):
        snaps = [snap(1), snap(2), snap(3)]
        ctrl = RuleBasedController(RbcStrategy.ROUND_ROBIN)
        tasks = [make_task(f"t{i}") for i in range(4)]
        assert ctrl.decide(snaps, tasks) == [1, 2, 3, 1]
        # cursor persists across calls
        assert ctrl.decide(snaps, [make_task("t5")]) == [2]

    def test_ties_break_to_lowest_dc_id(self):
        snaps = [snap(1, ci=100.0), snap(2, ci=100.0), snap(3, ci=100.0)]
        ctrl = RuleBasedController(RbcStrategy.LOWEST_CARBON)
        assert ctrl.decide(snaps, [make_task()]) == [1]

    def test_no_strategy_defers(self):
        snaps = [snap(1), snap(2), snap(3)]
        tasks = [make_task(f"t{i}", origin=(i % 3) + 1) for i in range(10)]
        for strategy in RbcStrategy:
            ctrl = RuleBasedController(strategy)
            actions = ctrl.decide(snaps, tasks)
            assert len(actions) == len(tasks)
            assert all(a != 0 for a in actions)

    def test_strategy_from_string(self):
        ctrl = RuleBasedController("lowest_price")
        assert ctrl.strategy is RbcStrategy.LOWEST_PRICE


class TestSnapshot:
    def test_snapshot_reads_cluster_state(self):
        cluster = make_cluster()
        snaps = snapshot_cluster(cluster, T0)
        assert [s.dc_id for s in snaps] == [1, 2, 3]
        assert [s.action_index for s in snaps] == [1, 2, 3]
        assert snaps[0].price_usd_per_mwh == 100.0
        assert snaps[0].ci_g_per_kwh == 300.0
        assert snaps[0].available_core_fraction == 1.0

    def test_snapshot_tracks_node_order(self):
        cluster = make_cluster()
        cluster.nodes = [cluster.nodes[2], cluster.nodes[0], cluster.nodes[1]]
        snaps = snapshot_cluster(cluster, T0)
        assert [s.dc_id for s in snaps] == [3, 1, 2]
        assert [s.action_index for s in snaps] == [1, 2, 3]


class TestHvacPolicies:
    def test_fixed_always_holds(self, tmp_path):
        env = hvac_env(tmp_path, [18.0, 22.0, 27.0])
        env.reset()
        done = False
        while not done:
            _, _, done, _ = step_local(env)
            assert [n.setpoint_c for n in env.cluster.nodes] == [18.0, 22.0, 27.0]

    def test_fixed_range_check(self, tmp_path):
        for setpoint in (19.0, 26.0):
            env = hvac_env(tmp_path, [22.0, setpoint], setpoint_range=(20, 25))
            with pytest.raises(ConfigError, match=rf"dc 2: setpoint {setpoint} .*\[20.0, 25.0\]"):
                env.reset()

    def test_fixed_range_is_the_sites_own(self, tmp_path):
        env = hvac_env(tmp_path, [28.0, 16.0], setpoint_range=(16, 30))
        env.reset()
        step_local(env)
        assert [n.setpoint_c for n in env.cluster.nodes] == [28.0, 16.0]

    def test_deadband_rule(self):
        node = make_cluster(deadband=(24.0, 26.0)).by_id[1]
        for t_return, expected in ((27.0, HvacAction.DOWN_1C), (26.0, HvacAction.HOLD),
                                   (25.0, HvacAction.HOLD), (24.0, HvacAction.HOLD),
                                   (20.0, HvacAction.UP_1C)):
            node.last_return_temp_c = t_return
            assert node.hvac_action() is expected

    def test_deadband_bounds_validated(self):
        with pytest.raises(ConfigError):
            make_node(deadband=(26.0, 24.0))
        with pytest.raises(ConfigError):
            make_node(deadband=(24.0, 24.0))

    def test_deadband_policy_uses_last_return_temp(self):
        node = make_cluster(deadband=(24.0, 26.0)).by_id[1]
        assert node.hvac_action() is HvacAction.HOLD  # no reading yet
        node.last_return_temp_c = 30.0
        assert node.hvac_action() is HvacAction.DOWN_1C
        node.last_return_temp_c = 20.0
        assert node.hvac_action() is HvacAction.UP_1C
