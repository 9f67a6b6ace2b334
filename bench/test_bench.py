"""Self-tests of the benchmark: workload determinism, fleet shape, agent policy, tracing."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import scenarios  # noqa: E402
import spans  # noqa: E402
import yardstick  # noqa: E402
from geodcsim import network  # noqa: E402


def _output_digests(workload, seed, out_dir):
    _, scn, env = scenarios.setup(ROOT, workload, seed, days=1)
    _, episodes = scenarios.run_once(scn, env, seed, out_dir)
    assert all(ep.finite for ep in episodes)
    return [ep.digests() for ep in episodes]


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_outputs_are_deterministic_in_the_workload_seed(workload, tmp_path):
    first = _output_digests(workload, 0, tmp_path / "a")
    assert _output_digests(workload, 0, tmp_path / "b") == first
    assert _output_digests(workload, 1, tmp_path / "c") != first


def test_seed_selects_a_reference_scenario():
    base = scenarios.load_scenario(ROOT, "light", 3)
    wrapped = scenarios.load_scenario(ROOT, "light", 3 + scenarios.REFERENCE_SEEDS)
    assert wrapped.sim_seeds == base.sim_seeds == [6, 7]


def test_wide_has_unique_mapped_sites_over_every_location():
    scn = scenarios.load_scenario(ROOT, "wide", 0)
    ids = [spec.dc_id for spec in scn.fleet]
    assert len(ids) == len(set(ids)) == scenarios.WIDE_SITES == 48
    region_map = network.default_region_map()
    for spec in scn.fleet:
        region_map.region_of(spec.location)
    assert {spec.location for spec in scn.fleet} == set(region_map.mapping)


def test_agent_defers_tasks_and_reads_every_observation():
    _, scn, env = scenarios.setup(ROOT, "agent", 0, days=1)
    presented = []
    step = env.step

    def counting_step(actions):
        presented.append(len(env.current_tasks))
        return step(actions)

    env.step = counting_step
    _, [episode] = scenarios.run_agent(scn, env, 0)
    assert episode.kpis["tasks_deferred"] > 0
    assert episode.kpis["obs_vectors"] == sum(presented) > 0


def _bindings():
    found = {}
    for mod in spans._geodcsim_modules():
        for key, value in vars(mod).items():
            found[(mod.__name__, key)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    found[(mod.__name__, key, attr)] = member
    return found


def test_traced_run_times_every_binding_and_restores_them(tmp_path):
    scenarios.setup(ROOT, "light", 0, days=1)
    before = _bindings()
    with spans.Tracer() as tracer:
        assert spans.leaked_wrappers()
        _, scn, env = scenarios.setup(ROOT, "light", 0, days=1)
        scenarios.run_once(scn, env, 0, tmp_path)
    assert spans.leaked_wrappers() == []
    after = _bindings()
    assert all(after.get(key) is value for key, value in before.items())

    assert tracer.missing == []
    calls, self_s, durations = tracer.layer_totals()
    # cluster.step calls wet_bulb through its own import, once per site and step
    assert calls["envdata.wet_bulb"] == scn.steps * len(scn.fleet)
    assert calls["runner.run_episode"] == len(scn.sim_seeds)
    # self times partition the root spans: set-up's build_env and reset, then run_sweep
    roots = (durations["runner.build_env"][0] + durations["schedenv.reset"][0]
             + durations["runner.run_sweep"][0])
    assert sum(self_s.values()) == pytest.approx(roots)


def test_yardstick_rescales_each_time_by_the_samples_around_it():
    p = yardstick.PASS_S
    assert yardstick.rescale([2.0, 4.0], [p, 3 * p, p]) == pytest.approx([1.0, 2.0])
