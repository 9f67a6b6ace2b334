import json
import math
import re
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from geodcsim import runner
from geodcsim.cluster import Cluster
from geodcsim.errors import ConfigError, ProtocolError
from geodcsim.floats import left_sum
from geodcsim.schedenv import (STEPS_PER_DAY, SchedulingEnv, _minutes_to_deadline,
                               build_observation, observation_dim)
from geodcsim.workload import (MAX_US, MIN_US, ResourceRanges, Task, TaskSpec, TaskStatus,
                               Trace, first_unknown_origin, from_us,
                               generate_synthetic_trace, load_trace, origin_probabilities,
                               save_trace, to_us)

from conftest import (T0, default_reward, make_cluster, make_env, make_node, make_task,
                      tiny_network)

STEP = timedelta(minutes=15)
US = timedelta(microseconds=1)


def trace_of(*task_lists):
    """One trace of specs whose i-th list of tasks arrives at T0 + i steps."""
    trace = []
    for i, tasks in enumerate(task_lists):
        start_us = to_us(T0 + i * STEP)
        for t in tasks:
            t.arrival_us = start_us
            t.deadline_us = start_us + timedelta(minutes=t.sla_multiplier * t.duration_min) // US
            trace.append(t.spec())
    return trace


class TestReset:
    def test_empty_first_interval(self):
        env = make_env(trace_of([]))
        assert env.reset() == []

    def test_observation_dimension(self):
        for n in (1, 3, 5):
            env = make_env(trace_of([make_task()]), n_dcs=n)
            obs = env.reset()
            assert len(obs) == 1
            assert obs[0].shape == (observation_dim(n),)
            assert obs[0].shape == (4 + 5 + 5 * n,)

    def test_same_seed_same_first_observation(self):
        def first_obs():
            env = make_env(trace_of([make_task(origin=None)]), seed=11)
            return env.reset()

        a, b = first_obs(), first_obs()
        assert len(a) == len(b) == 1
        assert np.array_equal(a[0], b[0])

    def test_coverage_gap_fails_before_step_zero(self):
        env = make_env(trace_of([]), duration_days=2, hours=12)  # series too short
        with pytest.raises(ConfigError, match="cover"):
            env.reset()

    def test_trace_origin_outside_the_fleet_fails_before_step_zero(self):
        env = make_env(trace_of([make_task("a")], [make_task("b", origin=9)]))
        with pytest.raises(ConfigError, match="^task b origin 9 is not a configured dc$"):
            env.reset()


_BAD_SEEDS = pytest.mark.parametrize("seed, expected", [
    (-1, "seed must be >= 0, got -1"), (1.5, "seed must be an integer, got 1.5"),
    ("3", "seed must be an integer, got '3'"), (True, "seed must be an integer, got True"),
], ids=["negative", "float", "text", "bool"])


class TestDuration:
    """The environment reads its window as ``SimConfig`` does, before any state changes
    or allocation: ``duration_days`` a whole number ``>= 1``, and no bool, from an aware
    start, ending by 9999-12-31."""

    @pytest.mark.parametrize("days, expected", [
        (0, "duration_days must be >= 1"), (1.5, "duration_days must be a whole number"),
        (True, "duration_days: must be a number, not true or false"),
    ], ids=["zero", "fraction", "bool"])
    def test_the_constructor_refuses_a_bad_duration(self, days, expected):
        with pytest.raises(ConfigError, match=f"^{re.escape(expected)}$"):
            make_env(trace_of([]), duration_days=days)

    @pytest.mark.parametrize("start, days, expected", [
        (datetime(9999, 12, 1, tzinfo=timezone.utc), 100,
         "the 100-day window from 9999-12-01T00:00:00+00:00 runs past 9999-12-31"),
        (datetime(9999, 12, 31, tzinfo=timezone.utc), 1,
         "the 1-day window from 9999-12-31T00:00:00+00:00 runs past 9999-12-31"),
        (datetime(2024, 1, 1), 1, "start must be timezone-aware UTC"),
    ], ids=["past_the_last_date", "ending_after_the_last_day", "naive_start"])
    def test_the_constructor_refuses_a_window_it_cannot_run(self, monkeypatch, start, days,
                                                             expected):
        """A window past year 9999 raised a bare ``OverflowError`` after building its
        step rows, and a naive start a bare ``TypeError``."""
        def no_rows(*args):
            raise AssertionError("the trace was sliced before the window was checked")

        monkeypatch.setattr(Trace, "step_rows", no_rows)
        with pytest.raises(ConfigError, match=f"^{re.escape(expected)}$"):
            SchedulingEnv(make_cluster, [], start, days, default_reward())

    def test_a_window_ending_on_the_last_day_runs(self):
        start = datetime(9999, 12, 30, tzinfo=timezone.utc)
        env = SchedulingEnv(make_cluster, [], start, 1, default_reward())
        assert env.end == datetime(9999, 12, 31, tzinfo=timezone.utc)

    def test_a_whole_float_duration_is_that_many_days(self):
        env = make_env(trace_of([]), duration_days=1.0)
        assert type(env.duration_days) is int
        assert env.horizon_steps == STEPS_PER_DAY


class TestSeed:
    """The environment refuses a bool, a non-integer or a negative seed as a
    ``ConfigError``, before any state changes; NumPy integers pass."""

    @_BAD_SEEDS
    def test_the_constructor_refuses_a_bad_seed(self, seed, expected):
        with pytest.raises(ConfigError, match=f"^{re.escape(expected)}$"):
            make_env(trace_of([]), seed=seed)

    @_BAD_SEEDS
    def test_a_refused_reset_leaves_the_episode_as_it_was(self, seed, expected):
        env = make_env(trace_of([make_task("a", origin=None)], [make_task("b", origin=None)],
                                [make_task("c", origin=None)]), seed=4)
        env.reset()
        env.step([0])  # "a" is deferred, so the next step shows it beside "b"
        before = (env.seed, env.step_index, list(env.current_tasks))
        with pytest.raises(ConfigError, match=f"^{re.escape(expected)}$"):
            env.reset(seed=seed)
        assert (env.seed, env.step_index, env.current_tasks) == before
        assert [t.job_id for t in env.current_tasks] == ["a", "b"]
        env.step([1, 1])
        assert env.step_index == 2

    @pytest.mark.parametrize("seed", [np.int64(3), np.uint32(3)], ids=["int64", "uint32"])
    def test_a_numpy_integer_seed_is_that_seed(self, seed):
        trace = trace_of(*[[make_task(f"t{i}", origin=None)] for i in range(8)])

        def origins(env, reset_seed=None):
            env.reset(reset_seed)
            drawn = []
            for _ in range(8):
                drawn.extend(t.origin_dc_id for t in env.current_tasks)
                env.advance([1] * len(env.current_tasks))
            return drawn

        assert (origins(make_env(trace, seed=seed)) == origins(make_env(trace), seed)
                == origins(make_env(trace, seed=3)) != origins(make_env(trace, seed=4)))


class TestObservationFeatures:
    def test_time_features_jan1_midnight(self):
        jan1 = datetime(2024, 1, 1, 0, 0, tzinfo=timezone.utc)
        cluster = make_cluster(start=jan1)
        task = make_task(arrival=jan1)
        obs = build_observation(cluster, [task], jan1, 0)[0]
        assert obs[0] == pytest.approx(math.sin(2 * math.pi / 365.0))
        assert obs[1] == pytest.approx(math.cos(2 * math.pi / 365.0))
        assert obs[2] == pytest.approx(0.0, abs=1e-7)
        assert obs[3] == pytest.approx(1.0)

    def test_idle_dc_fractions_are_one(self):
        cluster = make_cluster()
        obs = build_observation(cluster, [make_task()], T0, 0)[0]
        for j in range(3):
            base = 9 + 5 * j
            assert obs[base] == 1.0  # cores
            assert obs[base + 1] == 1.0  # gpus
            assert obs[base + 2] == 1.0  # memory
            assert obs[base + 3] == pytest.approx(0.3)  # 300 g/kWh / 1000
            assert obs[base + 4] == pytest.approx(1.0)  # 100 USD/MWh / 100

    def test_task_features_order(self):
        cluster = make_cluster()
        task = make_task(cores=8.0, gpu=2.0, duration=120.0, origin=2)
        obs = build_observation(cluster, [task], T0, 0)[0]
        assert obs[4] == 2.0
        assert obs[5] == 8.0
        assert obs[6] == 2.0
        assert obs[7] == 120.0
        assert obs[8] == pytest.approx(180.0)  # 1.5 * 120 minutes to deadline

    def test_deadline_feature_clipped_at_zero(self):
        cluster = make_cluster()
        task = make_task()
        late = from_us(task.deadline_us) + timedelta(hours=2)
        obs = build_observation(cluster, [task], late, 0)[0]
        assert obs[8] == 0.0

    @settings(max_examples=300)
    @given(deadline_us=st.integers(MIN_US, MAX_US),
           gap_us=st.one_of(st.integers(-10**9, 10**9),
                            st.integers(MIN_US - MAX_US, MAX_US - MIN_US)))
    def test_minutes_to_deadline_is_the_timedelta_form_property(self, deadline_us, gap_us):
        """The int gap's true division equals ``total_seconds() / 60`` of the datetimes."""
        now_us = min(max(deadline_us - gap_us, MIN_US), MAX_US)
        task = make_task()
        task.deadline_us = deadline_us
        want = max(0.0, (from_us(deadline_us) - from_us(now_us)).total_seconds() / 60.0)
        assert _minutes_to_deadline(task, now_us) == want

    def test_dtype_float32(self):
        cluster = make_cluster()
        obs = build_observation(cluster, [make_task()], T0, 0)
        assert obs[0].dtype == np.float32


class TestOrigins:
    SITES = ((-7.0, 0.4, "US-CAL-CISO"), (1.0, 0.3, "DE-LU"), (8.0, 0.2, "SG"),
             (5.5, 0.1, "US-CAL-CISO"))  # (timezone shift, population weight, location)

    @classmethod
    def _cluster(cls):
        return Cluster([make_node(dc_id=i + 1, location=loc, hours=50, timezone_shift_h=shift,
                                  population_weight=weight)
                        for i, (shift, weight, loc) in enumerate(cls.SITES)], *tiny_network())

    def _origins(self, env, seed):
        """Every injected task's (job id, origin) over one episode run with ``seed``."""
        env.reset(seed)
        origins, done = [], False
        while not done:
            origins.extend((t.job_id, t.origin_dc_id) for t in env.current_tasks)
            _, done, _ = env.advance([1] * len(env.current_tasks))
        return origins

    def _choice_origins(self, trace, seed):
        """The same episode's origins from ``Generator.choice`` over the shuffled sites."""
        rng = np.random.default_rng(seed)
        sites = [(i + 1, shift, weight) for i, (shift, weight, _) in enumerate(self.SITES)]
        sites = [sites[i] for i in rng.permutation(len(sites))]
        origins = []
        for k in range(2 * STEPS_PER_DAY):
            now = T0 + k * STEP
            tasks = [t for t in trace if t.arrival_us == to_us(now)]
            if tasks:
                draws = rng.choice([dc_id for dc_id, _, _ in sites], size=len(tasks),
                                   p=origin_probabilities(sites, now))
                origins.extend(zip((t.job_id for t in tasks), draws.tolist()))
        return origins

    def test_shuffled_origins_repeat_over_resets_and_are_generator_choice(self):
        """One seed gives one set of origins, those of ``Generator.choice`` over that
        seed's site order, however many resets, with other seeds, come between: each
        reset builds its own origin tables, and a table serves both days."""
        trace = generate_synthetic_trace(T0, 2 * STEPS_PER_DAY, 2.0, ResourceRanges(), seed=4)
        env = SchedulingEnv(self._cluster, trace, T0, 2, default_reward(),
                            shuffle_datacenters=True)
        first, other, again = (self._origins(env, seed) for seed in (5, 6, 5))
        assert first == again == self._choice_origins(trace, 5)
        assert other == self._choice_origins(trace, 6) != first
        assert [n.dc_id for n in env.cluster.nodes] != [1, 2, 3, 4]  # the sites are shuffled


class TestStep:
    def test_wrong_action_length(self):
        env = make_env(trace_of([make_task("a"), make_task("b")]))
        env.reset()
        with pytest.raises(ProtocolError, match="expected 2"):
            env.step([1])

    def test_out_of_range_action(self):
        env = make_env(trace_of([make_task()]))
        env.reset()
        with pytest.raises(ProtocolError):
            env.step([4])
        with pytest.raises(ProtocolError):
            env.step([-1])

    def test_empty_step_is_valid(self):
        env = make_env(trace_of([]))
        env.reset()
        obs, reward, done, outcome = env.step([])
        assert not done
        # idle plant still burns energy, so the price penalty is negative
        assert reward < 0.0
        assert outcome.cluster_info.tasks_deferred_count == 0

    def test_a_step_without_arrivals_injects_nothing_then_the_next_its_tasks(self):
        env = make_env(trace_of([make_task("a")], [], [make_task("b"), make_task("c")]))
        env.reset()
        assert [t.job_id for t in env.current_tasks] == ["a"]
        env.step([1])
        assert env.current_tasks == []
        env.step([])
        assert [t.job_id for t in env.current_tasks] == ["b", "c"]
        assert [t.spec() for t in env.current_tasks] == list(env.trace[1:])

    def test_defer_reappears_first(self):
        t1, t2, t3 = make_task("a"), make_task("b"), make_task("c")
        fresh = make_task("d")
        env = make_env(trace_of([t1, t2, t3], [fresh]))
        env.reset()
        obs, _, _, outcome = env.step([0, 0, 0])
        assert outcome.cluster_info.tasks_deferred_count == 3
        assert [t.job_id for t in env.current_tasks] == ["a", "b", "c", "d"]
        assert len(obs) == 4

    def test_overdue_task_forced_to_origin_on_defer(self):
        # deadline = T0 + 15 min; at T0+30 the task is strictly overdue
        task = make_task("late", duration=15.0, multiplier=1.0, origin=2)
        env = make_env(trace_of([task], [], [], []))
        env.reset()
        env.step([0])  # T0: before the deadline, defer sticks
        env.step([0])  # T0+15 == deadline: not yet past it, defer sticks
        assert [t.job_id for t in env.current_tasks] == ["late"]
        env.step([0])  # T0+30 > deadline: the defer is overridden
        assert env.current_tasks == []
        assert env.cluster.by_id[2].running or env.cluster.completed

    def test_overdue_task_forced_to_origin_on_remote_assign(self):
        task = make_task("late", duration=15.0, multiplier=1.0, origin=1)
        env = make_env(trace_of([task], [], [], []))
        env.reset()
        env.step([0])
        env.step([0])
        [late] = env.current_tasks
        _, _, _, outcome = env.step([3])  # remote action overridden to origin
        assert outcome.cluster_info.transmission_cost_total_usd == 0.0
        assert late.status in (TaskStatus.RUNNING, TaskStatus.COMPLETED)
        assert late.dest_dc_id == 1

    def test_assignment_goes_to_chosen_dc(self):
        task = make_task("a", origin=1)
        env = make_env(trace_of([task]))
        env.reset()
        env.step([2])
        assert task not in env.current_tasks
        assert len(env.cluster.in_transit) == 1

    def test_episode_length_exact(self):
        env = make_env(trace_of([]), duration_days=1)
        env.reset()
        done = False
        steps = 0
        while not done:
            _, _, done, _ = env.step([0] * len(env.current_tasks))
            steps += 1
        assert steps == STEPS_PER_DAY
        with pytest.raises(ProtocolError):
            env.step([])

    def test_census_conserved(self):
        tasks = [[make_task(f"t{i}-{j}") for j in range(3)] for i in range(6)]
        env = make_env(trace_of(*tasks))
        env.reset()
        rng = np.random.default_rng(0)
        for _ in range(20):
            actions = [int(rng.integers(0, 4)) for _ in env.current_tasks]
            env.step(actions)
            census = env.task_census()
            total = (census["awaiting_decision"] + census["pending"] + census["running"]
                     + census["in_transit"] + census["completed"])
            assert total == census["injected"]
        assert env.task_census()["injected"] == 18

    def test_trajectory_determinism(self):
        def run():
            tasks = [[make_task(f"t{i}-{j}", origin=None) for j in range(2)] for i in range(4)]
            env = make_env(trace_of(*tasks), seed=3, shuffle_datacenters=True)
            env.reset()
            rewards = []
            obs_hash = []
            rng = np.random.default_rng(1)
            for _ in range(12):
                actions = [int(rng.integers(0, 4)) for _ in env.current_tasks]
                obs, r, done, _ = env.step(actions)
                rewards.append(r)
                obs_hash.append(tuple(float(x) for vec in obs for x in vec))
            return rewards, obs_hash

        assert run() == run()

    def test_advance_is_step_without_the_observation(self):
        """Under a random deferring policy ``advance`` and ``step`` give bit-equal
        rewards and step accounting, and present the same tasks next."""
        trace = generate_synthetic_trace(T0, 96, 3.0, ResourceRanges(), seed=4)
        by_step, by_advance = make_env(trace, duration_days=1), make_env(trace, duration_days=1)
        by_step.reset()
        by_advance.reset()
        rng = np.random.default_rng(2)
        done, deferred = False, 0
        while not done:
            actions = rng.integers(0, by_step.num_dcs + 1, len(by_step.current_tasks))
            obs, reward, done, outcome = by_step.step(actions)
            assert len(obs) == len(by_step.current_tasks)
            got = by_advance.advance(actions)
            assert (float.hex(got[0]), got[1]) == (float.hex(reward), done)
            assert repr(got[2].cluster_info) == repr(outcome.cluster_info)
            assert got[2].reward_breakdown == outcome.reward_breakdown
            assert ([t.job_id for t in by_advance.current_tasks]
                    == [t.job_id for t in by_step.current_tasks])
            deferred += outcome.cluster_info.tasks_deferred_count
        assert deferred > 0
        assert by_advance.kpis() == by_step.kpis()
        with pytest.raises(ProtocolError, match="episode is done"):
            by_advance.advance([])

    def test_episode_leaves_trace_tasks_untouched(self):
        drawn = generate_synthetic_trace(T0, 96, 3.0, ResourceRanges(), seed=4)
        trace = Trace.from_specs([drawn[0]._replace(origin_dc_id=2), *drawn[1:]])
        before = list(trace)
        env = make_env(trace, duration_days=1)
        obs, done = env.reset(), False
        while not done:
            obs, _, done, _ = env.step([(i % 4) for i in range(len(obs))])
        assert env.cluster.census()["completed"] > 100
        # a spec has no lifecycle fields, and is a tuple no episode can change
        assert trace == before and all(type(spec) is TaskSpec for spec in trace)
        assert trace[0].origin_dc_id == 2
        assert all(t.origin_dc_id is None for t in trace[1:])

    def test_each_reset_injects_new_tasks_and_leaves_the_specs(self):
        trace = trace_of([make_task("a"), make_task("b", origin=None)], [make_task("c")])
        before = list(trace)
        env = make_env(trace, seed=2)
        env.reset()
        first = list(env.current_tasks)
        env.step([1, 0])  # a starts at dc 1 and b is deferred
        assert [t.status for t in first] == [TaskStatus.RUNNING, TaskStatus.PENDING]
        assert first[0].dest_dc_id == 1 and first[0].start_us == to_us(T0)
        env.reset()
        second = list(env.current_tasks)
        assert [t.job_id for t in first] == [t.job_id for t in second] == ["a", "b"]
        assert all(type(t) is Task for t in second)
        assert not any(old is new for old in first for new in second)
        assert all(t.status is TaskStatus.PENDING and t.dest_dc_id is None
                   and t.start_us is None and t.completion_us is None for t in second)
        assert second[1].origin_dc_id == first[1].origin_dc_id  # one seed, one origin
        assert trace == before and all(type(spec) is TaskSpec for spec in trace)
        assert trace[1].origin_dc_id is None

    def test_reset_restores_pristine_state(self):
        tasks = [[make_task("a"), make_task("b")]]
        env = make_env(trace_of(*tasks), seed=5)
        first = env.reset()
        env.step([1, 2])
        again = env.reset()
        assert len(again) == len(first) == 2
        assert np.array_equal(first[0], again[0])
        assert env.cluster.census()["running"] == 0

    def test_second_reset_starts_with_an_empty_physics_memo(self):
        env = make_env(trace_of([make_task("a")]))
        env.reset()
        env.step([1])
        used = env.cluster.nodes
        assert all(node._thermal[0] is not None for node in used)
        env.reset()
        assert all(node._thermal == (None, None) for node in env.cluster.nodes)
        assert not any(node is old for node in env.cluster.nodes for old in used)


class TestSingleActionMode:
    def _env(self, *task_lists, **kwargs):
        return make_env(trace_of(*task_lists), single_action_mode=True, **kwargs)

    def test_agg_observation_dimension(self):
        env = self._env([make_task()])
        obs = env.reset()
        assert obs.shape == (4 + 5 + 5 * 3,)

    def test_agg_features(self):
        t1 = make_task("a", cores=2.0, gpu=1.0, duration=30.0)
        t2 = make_task("b", cores=6.0, gpu=3.0, duration=90.0)
        env = self._env([t1, t2])
        obs = env.reset()
        assert obs[4] == 2.0          # count
        assert obs[5] == pytest.approx(4.0)   # mean cores
        assert obs[6] == pytest.approx(2.0)   # mean gpus
        assert obs[7] == pytest.approx(60.0)  # mean duration
        assert obs[8] == pytest.approx(45.0)  # min deadline: 1.5*30

    def test_empty_uses_sentinel(self):
        env = self._env([])
        obs = env.reset()
        assert obs[4] == 0.0
        assert obs[8] == pytest.approx(env.horizon_steps * 15.0)

    def test_defer_all(self):
        env = self._env([make_task("a"), make_task("b"), make_task("c"),
                         make_task("d"), make_task("e")], [])
        env.reset()
        _, _, _, outcome = env.step_single_action(0)
        assert outcome.cluster_info.tasks_deferred_count == 5
        assert len(env.current_tasks) == 5

    def test_assign_all_to_one_dc(self):
        env = self._env([make_task("a", origin=2), make_task("b", origin=3)])
        env.reset()
        env.step_single_action(2)
        node = env.cluster.by_id[2]
        # origin-2 task lands locally; origin-3 task goes in transit to dc 2
        assert len(node.pending) + len(node.running) == 1
        assert len(env.cluster.in_transit) == 1

    def test_disable_defer_maps_zero_to_first_dc(self):
        env = self._env([make_task("a", origin=3)], disable_defer_action=True)
        env.reset()
        env.step_single_action(0)  # maps onto datacenter 1
        assert len(env.cluster.in_transit) == 1
        assert env.cluster.in_transit[0].task.dest_dc_id == 1

    def test_disable_defer_range(self):
        env = self._env([make_task()], disable_defer_action=True)
        env.reset()
        with pytest.raises(ProtocolError):
            env.step_single_action(3)  # only 0..2 valid for 3 DCs

    def test_range_with_defer(self):
        env = self._env([make_task()])
        env.reset()
        with pytest.raises(ProtocolError):
            env.step_single_action(4)

    def test_empty_step_any_action_noop(self):
        env = self._env([])
        env.reset()
        obs, _, done, outcome = env.step_single_action(2)
        assert not done
        assert outcome.cluster_info.tasks_deferred_count == 0

    def test_sla_override_precedes_uniform_action(self):
        task = make_task("late", duration=15.0, multiplier=1.0, origin=1)
        env = self._env([task], [], [])
        env.reset()
        env.step_single_action(0)  # deferred
        env.step_single_action(0)  # at the deadline, still deferrable
        env.step_single_action(0)  # overdue now: forced to origin despite defer-all
        assert env.current_tasks == []
        census = env.task_census()
        assert census["pending"] + census["running"] + census["completed"] == 1


def _eighths(top):
    return st.integers(0, 8 * top).map(lambda k: k / 8)  # sums of these are exact floats


# Sites hold 8 cores, 2 GPUs and 16 GB, so the larger demands never fit one; a
# 15-minute task with multiplier 1 is overdue two steps after it arrives.
_TASK = st.tuples(_eighths(10), _eighths(3), _eighths(20), st.sampled_from([15.0, 30.0, 90.0]),
                  st.sampled_from([1.0, 1.5, 4.0]), st.one_of(st.none(), st.integers(1, 3)))

# The episode-length properties below run every phase but shrinking (and explaining,
# which follows it): shrinking a failing episode took minutes before it reported.
_NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)


@settings(max_examples=40, phases=_NO_SHRINK)
@given(intervals=st.lists(st.lists(_TASK, max_size=6), min_size=1, max_size=12),
       shuffle=st.booleans(), steps=st.integers(1, 24), data=st.data())
def test_census_and_resource_books_hold_after_every_step_property(intervals, shuffle, steps,
                                                                  data):
    """Random traces and random actions, deferral included: every injected task is
    in exactly one stage, every finished task was judged at its site, and every
    site's books balance exactly."""
    trace = trace_of(*[
        [make_task(f"t{i}-{j}", cores=c, gpu=g, mem=m, duration=d, multiplier=k, origin=o)
         for j, (c, g, m, d, k, o) in enumerate(tasks)]
        for i, tasks in enumerate(intervals)
    ])
    env = SchedulingEnv(lambda: make_cluster(cores=8.0, gpus=2.0, mem=16.0), trace, T0, 1,
                        default_reward(), seed=0, shuffle_datacenters=shuffle)
    env.reset()
    judged = 0
    for _ in range(steps):
        n = len(env.current_tasks)
        _, _, _, outcome = env.step(data.draw(st.lists(st.integers(0, 3), min_size=n,
                                                       max_size=n)))
        judged += sum(d.sla_met + d.sla_violated
                      for d in outcome.cluster_info.datacenters.values())
        census = env.task_census()
        assert census["completed"] == judged
        assert census.pop("injected") == sum(census.values())
        for node in env.cluster.nodes:
            assert node.available_cores + left_sum(t.cores_req for t in node.running) == node.total_cores
            assert node.available_gpus + left_sum(t.gpu_req for t in node.running) == node.total_gpus
            assert node.available_mem_gb + left_sum(t.mem_req for t in node.running) == node.total_mem_gb


def _fold(terms):
    """``terms`` added in order to 0.0."""
    total = 0.0
    for term in terms:
        total += term
    return total


@settings(max_examples=25, deadline=None, phases=_NO_SHRINK)
@given(intervals=st.lists(st.lists(_TASK, max_size=6), min_size=1, max_size=12),
       shuffle=st.booleans(), data=st.data())
def test_kpi_totals_are_left_folds_of_the_step_records_property(intervals, shuffle, data):
    """Random traces and random actions, deferral included, run to the end: each KPI
    total is the left fold, in step order, of each step's sites plus its transmission."""
    trace = trace_of(*[
        [make_task(f"t{i}-{j}", cores=c, gpu=g, mem=m, duration=d, multiplier=k, origin=o)
         for j, (c, g, m, d, k, o) in enumerate(tasks)]
        for i, tasks in enumerate(intervals)
    ])
    env = SchedulingEnv(lambda: make_cluster(cores=8.0, gpus=2.0, mem=16.0), trace, T0, 1,
                        default_reward(), seed=0, shuffle_datacenters=shuffle)
    env.reset()
    infos, done = [], False
    while not done:
        n = len(env.current_tasks)
        _, _, done, outcome = env.step(data.draw(st.lists(st.integers(0, 3), min_size=n,
                                                          max_size=n)))
        infos.append(outcome.cluster_info)
    assert len(infos) == env.horizon_steps

    def sites(info, attr):
        return left_sum(getattr(d, attr) for d in info.datacenters.values())

    kpis = env.kpis()
    assert kpis["total_energy_mwh"] == _fold(
        (sites(i, "energy_consumption_kwh") + i.transmission_energy_total_kwh) / 1000.0
        for i in infos)
    assert kpis["total_cost_usd"] == _fold(
        sites(i, "energy_cost_usd") + i.transmission_cost_total_usd for i in infos)
    assert kpis["total_co2_t"] == _fold(
        (sites(i, "carbon_emissions_kg") + i.transmission_emissions_total_kg) / 1000.0
        for i in infos)
    assert kpis["total_water_m3"] == _fold(sites(i, "water_l") / 1000.0 for i in infos)
    assert kpis["tx_cost_usd"] == _fold(i.transmission_cost_total_usd for i in infos)
    assert kpis["tasks_deferred"] == _fold(i.tasks_deferred_count for i in infos)


@settings(max_examples=30)
@given(offsets=st.lists(st.one_of(st.integers(-2, 2), st.integers(-2, 99)), max_size=30),
       data=st.data())
def test_flat_trace_injects_each_task_once_at_its_arrival_property(offsets, data):
    """A shuffled trace with repeated arrivals, some before the first step and some
    after the last (step 95): each task whose arrival is a step is injected once, at
    that step, in trace order among the tasks sharing it; no other task is, and
    ``tasks_never_injected`` counts those."""
    tasks = [make_task(f"t{i}", arrival=T0 + k * STEP, origin=1 + i % 3).spec()
             for i, k in enumerate(offsets)]
    trace = data.draw(st.permutations(tasks))
    env = make_env(trace)
    steps = [T0 + k * STEP for k in range(env.horizon_steps)]
    expected = {now: [t.job_id for t in trace if t.arrival_us == to_us(now)] for now in steps}
    injected = {}
    env.reset()
    for now in steps:
        assert all(t.arrival_us == to_us(now) for t in env.current_tasks)
        injected[now] = [t.job_id for t in env.current_tasks]
        env.advance([1] * len(env.current_tasks))  # no deferral: only arrivals are shown
    assert injected == expected
    assert env.task_census()["injected"] == sum(map(len, expected.values()))
    assert env.tasks_never_injected() == len(trace) - env.task_census()["injected"]

    in_order = sorted(trace, key=lambda t: t.arrival_us)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        save_trace(trace, path)
        assert load_trace(path) == in_order
        save_trace(in_order, path)
        assert load_trace(path) == in_order


# One random spec: its step offset from T0 (before, inside and after the 96-step
# window), cores as an int or a float, and an explicit origin or none.
_SPEC = st.tuples(st.one_of(st.integers(-3, 3), st.integers(-3, 99)),
                  st.one_of(st.integers(1, 8), _eighths(8)),
                  st.sampled_from([15.0, 45.5, 120.0]), st.one_of(st.none(), st.integers(1, 3)))


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(_SPEC, max_size=40), unknown=st.one_of(st.none(), st.integers(0, 39)),
       seed=st.integers(0, 2**32 - 1))
def test_columnar_trace_matches_a_brute_force_reference_property(rows, unknown, seed):
    """Random specs, equal arrivals apart from each other in the list: the trace is
    their stable arrival sort, each step injects its own tasks, the census of tasks
    never injected and the first unknown origin are the brute-force ones, and an env
    given the trace and one given its rows as a list log the same bytes and KPIs."""
    specs = [make_task(f"t{i}", arrival=T0 + k * STEP, cores=c, duration=d, origin=o).spec()
             for i, (k, c, d, o) in enumerate(rows)]
    if unknown is not None and unknown < len(specs):
        specs[unknown] = specs[unknown]._replace(origin_dc_id=7)
    trace = Trace.from_specs(specs)
    in_order = [spec for _, spec in sorted(enumerate(specs),
                                           key=lambda item: (item[1].arrival_us, item[0]))]
    assert list(trace) == in_order
    assert [list(map(type, row)) for row in trace] == [list(map(type, s)) for s in in_order]

    env = make_env(trace)
    steps = [to_us(T0 + k * STEP) for k in range(env.horizon_steps)]
    assert env.tasks_never_injected() == sum(s.arrival_us not in steps for s in specs)
    bad = next((s for s in in_order if s.origin_dc_id not in (None, 1, 2, 3)), None)
    assert first_unknown_origin(trace, {1, 2, 3}) == bad
    if bad is not None:
        with pytest.raises(ConfigError, match=f"^task {bad.job_id} origin 7 "):
            env.reset()
        return

    logs = []
    for one in (env, make_env(list(trace))):
        one.reset()
        policy = np.random.default_rng(seed)  # defers, so a step shows earlier arrivals too
        lines, injected = [], []
        for now in steps:
            injected.append([t.job_id for t in one.current_tasks if t.arrival_us == now])
            actions = policy.integers(0, 4, len(one.current_tasks))
            step_idx, at = one.step_index, one.now
            reward, _, outcome = one.advance(actions)
            lines.append(runner._log_row(step_idx, at, outcome.cluster_info, reward, [1, 2, 3]))
        assert injected == [[s.job_id for s in in_order if s.arrival_us == now] for now in steps]
        logs.append(("\n".join(lines).encode(), json.dumps(one.kpis())))
    assert logs[0] == logs[1]


class TestActionContract:
    """Both interfaces accept a whole number in range and reject anything else, as a
    ``ProtocolError`` that leaves the episode as it was."""

    INVALID = [math.nan, np.float32("nan"), math.inf, -math.inf, 1.5, -0.5, "1", 4]
    INVALID_IDS = ["nan", "float32_nan", "inf", "minus_inf", "fraction", "negative_fraction",
                   "text", "out_of_range"]

    @staticmethod
    def _env(single):
        tasks = [make_task("a", origin=2), make_task("b", origin=3)]
        return make_env(trace_of(tasks, [make_task("c")]), single_action_mode=single)

    @staticmethod
    def _state(env):
        return (env.step_index, [(t.job_id, t.status) for t in env.current_tasks],
                env.task_census())

    @staticmethod
    def _step(env, single, action):
        return env.step_single_action(action) if single else env.step([1, action])

    @pytest.mark.parametrize("single", [False, True], ids=["per_task", "single_action"])
    @pytest.mark.parametrize("action", INVALID, ids=INVALID_IDS)
    def test_invalid_action_is_rejected_and_changes_nothing(self, single, action):
        env = self._env(single)
        env.reset()
        before = self._state(env)
        with pytest.raises(ProtocolError, match=r"^action .* outside 0\.\.3$"):
            self._step(env, single, action)
        assert self._state(env) == before
        self._step(env, single, 1)  # a valid step then succeeds
        assert env.step_index == 1
        assert [t.job_id for t in env.current_tasks] == ["c"]

    @pytest.mark.parametrize("single", [False, True], ids=["per_task", "single_action"])
    @pytest.mark.parametrize("action", [np.int64(2), 2.0], ids=["int64", "whole_float"])
    def test_whole_number_action_is_accepted(self, single, action):
        env = self._env(single)
        env.reset()
        _, _, _, outcome = (env.step_single_action(action) if single
                            else env.step([action, action]))
        assert outcome.cluster_info.tasks_deferred_count == 0
        node = env.cluster.by_id[2]
        # the origin-2 task starts locally; the origin-3 task is in transit to dc 2
        assert len(node.pending) + len(node.running) == 1
        assert [t.task.dest_dc_id for t in env.cluster.in_transit] == [2]

    @pytest.mark.parametrize("actions", [5, None], ids=["int", "none"])
    def test_non_iterable_actions_are_rejected_and_change_nothing(self, actions):
        env = self._env(single=False)
        env.reset()
        before = self._state(env)
        with pytest.raises(ProtocolError, match=r"^actions must be a sequence, got "):
            env.step(actions)
        assert self._state(env) == before
        env.step([1, 1])
        assert env.step_index == 1

    def test_disabled_deferral_bounds_per_task_actions_at_one(self):
        env = make_env(trace_of([make_task("a"), make_task("b")]), disable_defer_action=True)
        env.reset()
        before = self._state(env)
        for actions in ([0, 1], [1, 0]):
            with pytest.raises(ProtocolError, match=r"^action 0 outside 1\.\.3$"):
                env.step(actions)
            assert self._state(env) == before
        _, _, _, outcome = env.step([1, 3])
        assert outcome.cluster_info.tasks_deferred_count == 0
        assert [t.task.dest_dc_id for t in env.cluster.in_transit] == [3]

    def test_disabled_deferral_bounds_single_actions_at_n_minus_one(self):
        env = make_env(trace_of([make_task()]), single_action_mode=True,
                       disable_defer_action=True)
        env.reset()
        for action in (3, 2.5, math.nan):
            with pytest.raises(ProtocolError, match=r"outside 0\.\.2$"):
                env.step_single_action(action)
        assert env.step_index == 0
        env.step_single_action(np.int64(2))  # onto datacenter 3
        assert [t.task.dest_dc_id for t in env.cluster.in_transit] == [3]
