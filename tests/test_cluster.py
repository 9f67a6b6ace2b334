import logging
import math
from collections import deque
from dataclasses import astuple, fields
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodcsim import cluster as cluster_module
from geodcsim.cluster import (BLOCK, Cluster, DcStepInfo, check_site, release_completed,
                              schedule_fifo_first_fit)
from geodcsim.controllers import snapshot_cluster
from geodcsim.dcphysics import (HvacAction, WeatherSample, dc_physics_step, desk_scale_params,
                                hvac_plant)
from geodcsim.envdata import wet_bulb
from geodcsim.errors import ConfigError, ProtocolError
from geodcsim.floats import left_sum
from geodcsim.workload import TaskStatus, to_us

from conftest import T0, make_cluster, make_node, make_task, tiny_network

STEP = timedelta(minutes=15)


def assert_bookkeeping(node):
    assert node.available_cores == node.total_cores - left_sum(t.cores_req for t in node.running)
    assert node.available_gpus == node.total_gpus - left_sum(t.gpu_req for t in node.running)
    assert node.available_mem_gb == node.total_mem_gb - left_sum(t.mem_req for t in node.running)
    assert 0 <= node.available_cores <= node.total_cores
    assert 0 <= node.available_gpus <= node.total_gpus
    assert 0 <= node.available_mem_gb <= node.total_mem_gb


def reference_recompute(node):
    node.available_cores = node.total_cores - left_sum(t.cores_req for t in node.running)
    node.available_gpus = node.total_gpus - left_sum(t.gpu_req for t in node.running)
    node.available_mem_gb = node.total_mem_gb - left_sum(t.mem_req for t in node.running)


def reference_first_fit(node, now):
    """Full FIFO scan that recomputes availability from the running set per start."""
    started = []
    remaining = deque()
    for task in node.pending:
        if node.fits(task):
            task.set_status(TaskStatus.RUNNING)
            task.start_us = to_us(now)
            task.completion_us = to_us(now + timedelta(minutes=task.duration_min))
            node.running.append(task)
            reference_recompute(node)
            started.append(task)
        else:
            remaining.append(task)
    node.pending = remaining
    return started


def reference_release(node, now):
    done = [t for t in node.running if t.completion_us <= to_us(now)]
    if done:
        node.running = [t for t in node.running if t.completion_us > to_us(now)]
        reference_recompute(node)
    return [t.job_id for t in done]


def availability(node):
    return (node.available_cores, node.available_gpus, node.available_mem_gb)


def assert_queue_shape(queue):
    """Blocks hold 1..BLOCK tasks and their exact least demands, and no two
    neighbouring blocks would fit in one."""
    sizes = [len(b.tasks) for b in queue.blocks]
    assert all(1 <= n <= BLOCK for n in sizes) and sum(sizes) == len(queue)
    assert all(a + b > BLOCK for a, b in zip(sizes, sizes[1:]))
    for b in queue.blocks:
        assert b.cores_req == min(t.cores_req for t in b.tasks)
        assert b.gpu_req == min(t.gpu_req for t in b.tasks)
        assert b.mem_req == min(t.mem_req for t in b.tasks)


def oversize_warnings(caplog):
    return [r.getMessage() for r in caplog.records if "wait forever" in r.getMessage()]


class TestNodeChecks:
    def test_nonpositive_weight(self):
        for weight in (0.0, -1.0):
            with pytest.raises(ConfigError, match="population_weight must be > 0"):
                make_node(population_weight=weight)

    @pytest.mark.parametrize("kwargs, match", [
        ({"cores": math.inf}, "capacities must be >= 0 and finite"),
        ({"gpus": 10**400}, "capacities must be >= 0 and finite"),
        ({"timezone_shift_h": math.nan}, "timezone_shift_h must be finite"),
        ({"dc_id": 10**400}, "dc_id must fit a float"),
    ], ids=["cores_infinite", "gpus_huge", "timezone_nan", "dc_id_huge"])
    def test_non_finite_site_number(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            make_node(**kwargs)

    @pytest.mark.parametrize("weight, match", [
        (math.inf, "dc 1: population_weight must be finite"),
        (10**400, "dc 1: population_weight must fit a float"),
    ], ids=["inf", "huge"])
    def test_population_weight_must_be_finite(self, weight, match):
        """An infinite weight was accepted, and ``origin_probabilities`` then returned
        ``[nan, 0.]``."""
        with pytest.raises(ConfigError, match=match):
            check_site(1, (1.0, 1.0, 1.0), 0.0, weight, None)
        with pytest.raises(ConfigError, match=match):
            make_node(population_weight=weight)

    @pytest.mark.parametrize("shift", [-24.0, 0.0, 5.5, 24])
    def test_timezone_shift_within_a_day_either_way_is_kept(self, shift):
        assert make_node(timezone_shift_h=shift).timezone_shift_h == shift

    @pytest.mark.parametrize("shift", [-24.5, 25.0, 1.0e9, -1.0e9])
    def test_timezone_shift_past_a_day_is_refused(self, shift):
        """A shift of 1e9 h passed, and ``origin_probabilities`` overflowed a date."""
        with pytest.raises(ConfigError, match=r"^dc 1: timezone_shift_h must lie in \[-24, 24\]$"):
            make_node(timezone_shift_h=shift)

    def test_check_site_returns_the_deadband_as_floats(self):
        assert check_site(1, (1.0, 1.0, 1.0), 0.0, 1.0, None) is None
        band = check_site(1, (1.0, 1.0, 1.0), 0.0, 1.0, [24, 26.5])
        assert band == (24.0, 26.5) and all(type(b) is float for b in band)
        for bad in (5, [24.0], ["a", 26.0], [24, "26.5"], [26.0, 24.0]):
            with pytest.raises(ConfigError, match="deadband must be two numbers lo < hi"):
                check_site(1, (1.0, 1.0, 1.0), 0.0, 1.0, bad)


class TestScheduling:
    def test_fitting_task_starts_and_deducts(self):
        node = make_node()
        task = make_task(cores=8.0, gpu=2.0, mem=16.0)
        node.pending.append(task)
        started = schedule_fifo_first_fit(node, to_us(T0))
        assert started == [task]
        assert task.status is TaskStatus.RUNNING
        assert node.available_cores == node.total_cores - 8.0
        assert node.available_gpus == node.total_gpus - 2.0
        assert_bookkeeping(node)

    def test_oversized_task_stays_pending(self):
        node = make_node(cores=10.0)
        task = make_task(cores=50.0)
        node.pending.append(task)
        assert schedule_fifo_first_fit(node, to_us(T0)) == []
        assert list(node.pending) == [task]
        assert task.status is TaskStatus.PENDING

    def test_first_fit_skips_blocked_head(self):
        node = make_node(cores=10.0)
        big = make_task("big", cores=9.0)
        small = make_task("small", cores=2.0)
        for task in (big, small):
            node.pending.append(task)
        busy = make_task("busy", cores=5.0)
        busy.completion_us = to_us(T0 + STEP)
        node.running.append(busy)
        node._recompute_available()  # 5 cores free: big blocked, small fits
        started = schedule_fifo_first_fit(node, to_us(T0))
        assert [t.job_id for t in started] == ["small"]
        assert [t.job_id for t in node.pending] == ["big"]

    def test_fifo_order_preserved(self):
        node = make_node()
        tasks = [make_task(f"t{i}", cores=1.0) for i in range(5)]
        for task in tasks:
            node.pending.append(task)
        started = schedule_fifo_first_fit(node, to_us(T0))
        assert [t.job_id for t in started] == [f"t{i}" for i in range(5)]

    def test_matches_reference_on_random_storm(self):
        rng = np.random.default_rng(77)
        pairs = [
            (make_node(dc_id=i, cores=200.0, gpus=8.0, mem=800.0),
             make_node(dc_id=i, cores=200.0, gpus=8.0, mem=800.0))
            for i in (1, 2, 3)
        ]
        now = T0
        starts = oversize = 0
        for step in range(250):
            for node, ref in pairs:
                done = release_completed(node, to_us(now))
                assert [t.job_id for t, _ in done] == reference_release(ref, now)
                for i in range(int(rng.poisson(2.0))):
                    big = rng.random() < 0.05
                    demands = dict(
                        job_id=f"s{step}-{node.dc_id}-{i}", arrival=now,
                        duration=float(rng.uniform(15, 120)),
                        cores=float(rng.uniform(201, 300) if big else rng.uniform(0.5, 64)),
                        gpu=float(rng.uniform(0, 4)), mem=float(rng.uniform(1, 128)),
                    )
                    oversize += big
                    node.enqueue(make_task(**demands))
                    ref.pending.append(make_task(**demands))
                started = schedule_fifo_first_fit(node, to_us(now))
                want = reference_first_fit(ref, now)
                assert [t.job_id for t in started] == [t.job_id for t in want]
                assert [t.job_id for t in node.pending] == [t.job_id for t in ref.pending]
                assert availability(node) == availability(ref)
                starts += len(started)
            now += STEP
        assert starts > 500 and oversize > 20

    def test_running_demands_are_folded_in_order(self):
        node = make_node(cores=1.0)
        for i, cores in enumerate([0.1, 0.2, 0.3]):
            node.enqueue(make_task(f"t{i}", cores=cores))
        schedule_fifo_first_fit(node, to_us(T0))
        assert node.used_cores == (0.1 + 0.2) + 0.3
        assert node.available_cores == 1.0 - ((0.1 + 0.2) + 0.3)


class TestBlockQueue:
    @pytest.mark.parametrize("binding, scarce", [
        ("cores", {"cores": 64.0}), ("gpu", {"gpus": 8.0}), ("mem", {"mem": 256.0}),
    ], ids=["cores", "gpu", "mem"])
    def test_matches_reference_when_one_resource_binds(self, binding, scarce):
        """A storm in which one resource runs out while the others stay ample, with
        oversize tasks mixed in and a backlog of many blocks."""
        caps = {"cores": 1000.0, "gpus": 200.0, "mem": 4000.0, **scarce}
        tops = {"cores": 16.0, "gpu": 2.0, "mem": 64.0}
        rng = np.random.default_rng(77)
        node, ref = make_node(**caps), make_node(**caps)
        now = T0
        starts = oversize = skippable = partial = merges = peak = 0
        for step in range(300):
            released = release_completed(node, to_us(now))
            assert [t.job_id for t, _ in released] == reference_release(ref, now)
            for i in range(int(rng.poisson(3.0))):
                demands = {r: float(rng.uniform(0.0, top)) for r, top in tops.items()}
                if rng.random() < 0.05:
                    demands[binding] = 1e4  # more than the site has
                    oversize += 1
                kwargs = dict(job_id=f"s{step}-{i}", arrival=now,
                              duration=float(rng.uniform(15, 120)), **demands)
                node.enqueue(make_task(**kwargs))
                ref.pending.append(make_task(**kwargs))
            queue = node.pending
            skippable += sum(not node.fits(b) for b in queue.blocks)
            before = [{t.job_id for t in b.tasks} for b in queue.blocks]
            started = schedule_fifo_first_fit(node, to_us(now))
            want = reference_first_fit(ref, now)
            assert [t.job_id for t in started] == [t.job_id for t in want]
            assert [t.job_id for t in node.pending] == [t.job_id for t in ref.pending]
            assert availability(node) == availability(ref)
            assert_queue_shape(queue)
            ids = {t.job_id for t in started}
            emptied = sum(ids >= b for b in before)
            partial += sum(0 < len(ids & b) < len(b) for b in before)
            merges += len(before) - emptied - len(queue.blocks)
            starts += len(started)
            peak = max(peak, len(queue))
            now += STEP
        assert starts > 300 and oversize > 20 and peak > 4 * BLOCK
        assert skippable > 0 and partial > 0 and merges > 0


_DYADIC = st.integers(0, 32).map(lambda k: k / 8)  # sums of these are exact floats


@settings(max_examples=100)
@given(
    caps=st.tuples(*(st.integers(0, 512).map(lambda k: k / 8) for _ in range(3))),
    ops=st.lists(st.one_of(
        st.lists(st.tuples(_DYADIC, _DYADIC, _DYADIC, st.integers(15, 90)), max_size=2 * BLOCK),
        st.sampled_from(["release", "scan"]),
    ), max_size=60),
)
def test_block_queue_matches_full_scan_property(caps, ops):
    """Random enqueues, releases and scans leave the block queue where the full
    scan leaves the reference, with exact resource books."""
    cores, gpus, mem = caps
    node, ref = (make_node(cores=cores, gpus=gpus, mem=mem) for _ in range(2))
    now, n = T0, 0
    for op in ops:
        if op == "release":
            now += STEP
            released = release_completed(node, to_us(now))
            assert [t.job_id for t, _ in released] == reference_release(ref, now)
        elif op == "scan":
            started = schedule_fifo_first_fit(node, to_us(now))
            assert [t.job_id for t in started] == [t.job_id for t in reference_first_fit(ref, now)]
        else:
            for c, g, m, minutes in op:
                kwargs = dict(job_id=f"t{n}", arrival=now, duration=float(minutes),
                              cores=c, gpu=g, mem=m)
                node.pending.append(make_task(**kwargs))
                ref.pending.append(make_task(**kwargs))
                n += 1
        assert [t.job_id for t in node.pending] == [t.job_id for t in ref.pending]
        assert availability(node) == availability(ref)
        assert_queue_shape(node.pending)
        assert node.available_cores + left_sum(t.cores_req for t in node.running) == node.total_cores
        assert node.available_gpus + left_sum(t.gpu_req for t in node.running) == node.total_gpus
        assert node.available_mem_gb + left_sum(t.mem_req for t in node.running) == node.total_mem_gb


class TestOversizeWarning:
    @pytest.mark.parametrize("dest", [1, 2], ids=["local", "transit"])
    def test_warns_once_on_entering_the_queue(self, caplog, dest):
        cluster = make_cluster()
        big = make_task("big", cores=1e6, origin=1, bandwidth=10.0)
        with caplog.at_level(logging.WARNING, logger="geodcsim.cluster"):
            cluster.route_assignments([(big, dest)], 0)
            for step in range(10):
                cluster.step(step, T0 + step * STEP)
        assert oversize_warnings(caplog) == [
            f"task big demands more than dc {dest} total capacity; it will wait forever"
        ]
        assert list(cluster.by_id[dest].pending) == [big]


class TestRelease:
    def test_completion_exactly_at_deadline_met(self):
        node = make_node()
        # duration 60, multiplier 1.0: deadline == completion when started at arrival
        task = make_task(duration=60.0, multiplier=1.0)
        node.pending.append(task)
        schedule_fifo_first_fit(node, to_us(T0))
        done = release_completed(node, to_us(T0 + timedelta(minutes=60)))
        assert done == [(task, True)]
        assert task.status is TaskStatus.COMPLETED

    def test_late_start_violates(self):
        node = make_node()
        task = make_task(duration=60.0, multiplier=1.0)
        node.pending.append(task)
        schedule_fifo_first_fit(node, to_us(T0 + STEP))  # starts one step late
        done = release_completed(node, to_us(T0 + timedelta(minutes=75)))
        assert done == [(task, False)]

    def test_resources_restored_exactly(self):
        node = make_node()
        before = (node.available_cores, node.available_gpus, node.available_mem_gb)
        task = make_task(cores=7.0, gpu=3.0, mem=11.5, duration=15.0)
        node.pending.append(task)
        schedule_fifo_first_fit(node, to_us(T0))
        release_completed(node, to_us(T0 + STEP))
        after = (node.available_cores, node.available_gpus, node.available_mem_gb)
        assert after == before

    def test_not_due_stays_running(self):
        node = make_node()
        task = make_task(duration=60.0)
        node.pending.append(task)
        schedule_fifo_first_fit(node, to_us(T0))
        assert release_completed(node, to_us(T0 + STEP)) == []
        assert len(node.running) == 1


class TestRouting:
    def test_local_assignment_immediate(self):
        cluster = make_cluster()
        task = make_task(origin=1)
        totals = cluster.route_assignments([(task, 1)], step=0)
        assert totals.transmission_cost_total_usd == 0.0
        assert totals.transmission_energy_total_kwh == 0.0
        assert list(cluster.by_id[1].pending) == [task]
        assert task.status is TaskStatus.PENDING

    def test_remote_assignment_charges_and_delays(self):
        cluster = make_cluster()
        task = make_task(origin=1, bandwidth=10.0)
        totals = cluster.route_assignments([(task, 2)], step=0)
        assert totals.transmission_cost_total_usd == pytest.approx(10.0 * 0.05)
        assert totals.transmission_energy_total_kwh == pytest.approx(0.6)
        # constant 300 g/kWh at the origin grid
        assert totals.transmission_emissions_total_kg == pytest.approx(0.6 * 300.0 / 1000.0)
        assert task.status is TaskStatus.IN_TRANSIT
        assert len(cluster.in_transit) == 1
        # 10 GB at 200 Mbps + 120 ms = 400.12 s -> one step
        assert cluster.in_transit[0].ready_step == 1

    def test_two_remote_tasks_add_up(self):
        cluster = make_cluster()
        t1 = make_task("a", origin=1, bandwidth=10.0)
        t2 = make_task("b", origin=1, bandwidth=10.0)
        totals = cluster.route_assignments([(t1, 2), (t2, 2)], step=0)
        assert totals.transmission_cost_total_usd == pytest.approx(1.0)
        assert totals.transmission_energy_total_kwh == pytest.approx(1.2)

    def test_invalid_destination(self):
        cluster = make_cluster()
        with pytest.raises(ProtocolError):
            cluster.route_assignments([(make_task(), 99)], step=0)

    def test_transit_delivery_timing(self):
        cluster = make_cluster()
        task = make_task(origin=1, bandwidth=10.0)
        cluster.route_assignments([(task, 2)], step=0)
        cluster.advance_transit(0)
        assert len(cluster.in_transit) == 1  # ready at step 1, still in flight
        cluster.advance_transit(1)
        assert not cluster.in_transit
        assert list(cluster.by_id[2].pending) == [task]
        assert task.status is TaskStatus.PENDING

    def test_same_ready_step_keeps_dispatch_order(self):
        cluster = make_cluster()
        t1 = make_task("first", origin=1, bandwidth=1.0)
        t2 = make_task("second", origin=1, bandwidth=1.0)
        cluster.route_assignments([(t1, 2), (t2, 2)], step=0)
        cluster.advance_transit(1)
        assert [t.job_id for t in cluster.by_id[2].pending] == ["first", "second"]


class TestClusterStep:
    def test_idle_step_consumes_energy(self):
        cluster = make_cluster()
        info = cluster.step(0, T0)
        for dc_info in info.datacenters.values():
            assert dc_info.energy_consumption_kwh > 0.0
            assert dc_info.cpu_util_pct == 0.0
            assert dc_info.sla_met == 0 and dc_info.sla_violated == 0
        assert info.transmission_cost_total_usd == 0.0

    def test_energy_cost_unit_chain(self):
        # constant price 100 USD/MWh: cost per kWh is 0.1 USD
        cluster = make_cluster()
        info = cluster.step(0, T0)
        d = info.datacenters[1]
        assert d.energy_cost_usd == pytest.approx(d.energy_consumption_kwh * 100.0 / 1000.0)
        assert d.carbon_emissions_kg == pytest.approx(d.energy_consumption_kwh * 300.0 / 1000.0)

    def test_utilization_reflects_running(self):
        cluster = make_cluster()
        node = cluster.by_id[1]
        node.pending.append(make_task(cores=node.total_cores / 2))
        info = cluster.step(0, T0)
        assert info.datacenters[1].cpu_util_pct == pytest.approx(50.0)

    def test_info_totals_additive(self):
        cluster = make_cluster()
        info = cluster.step(0, T0)
        total = sum(d.energy_consumption_kwh for d in info.datacenters.values())
        assert info.total("energy_consumption_kwh") == pytest.approx(total)

    def test_setpoint_action_persists(self):
        cluster = make_cluster()
        node = cluster.by_id[1]
        node.deadband, node.last_return_temp_c = (24.0, 26.0), 30.0  # 30 > hi: one DOWN_1C
        cluster.step(0, T0)
        assert cluster.by_id[1].setpoint_c == 21.0
        node.deadband = None
        cluster.step(1, T0 + STEP)
        assert cluster.by_id[1].setpoint_c == 21.0


class TestStepRecords:
    @staticmethod
    def loaded_cluster():
        """Three sites with a deadband; at T0 + STEP dc 1 releases one met and one
        violated task and keeps one running and one pending, dc 2 runs a GPU task."""
        cluster = make_cluster(temp=30.0, deadband=(24.0, 26.0))
        late = T0 - timedelta(hours=1)
        for task in (make_task("met", duration=15.0),
                     make_task("late", arrival=late, duration=15.0, multiplier=1.0),
                     make_task("long", duration=120.0, mem=100.0),
                     make_task("wait", cores=1997.0)):
            cluster.by_id[1].enqueue(task)
        cluster.by_id[2].enqueue(make_task("gpu", gpu=8.0, origin=2, duration=120.0))
        cluster.step(0, T0)
        return cluster

    def test_site_record_fields_by_name(self):
        """Each ``DcStepInfo`` field, read by name, is the value of that name worked
        out from the site's own physics step and readings."""
        cluster, twin = self.loaded_cluster(), self.loaded_cluster()
        now = T0 + STEP
        info = cluster.step(1, now)
        for node in twin.nodes:
            released = release_completed(node, to_us(now))
            schedule_fifo_first_fit(node, to_us(now))
            u_cpu, u_gpu, u_mem = node.utilization_fractions()
            price, ci, drybulb, rh = node.conditions(1)
            result = node.physics_step(node.hvac_action(), u_cpu, u_gpu, node.mem_used_gb(),
                                       drybulb, wet_bulb(drybulb, rh))
            met = sum(1 for _, ok in released if ok)
            expected = {
                "energy_consumption_kwh": result.energy_kwh,
                "energy_cost_usd": result.energy_kwh * price / 1000.0,
                "carbon_emissions_kg": result.energy_kwh * ci / 1000.0,
                "water_l": result.water_l_15min,
                "sla_met": met,
                "sla_violated": len(released) - met,
                "cpu_util_pct": 100.0 * u_cpu,
                "gpu_util_pct": 100.0 * u_gpu,
                "mem_util_pct": 100.0 * u_mem,
                "running_count": len(node.running),
                "pending_count": len(node.pending),
            }
            assert list(expected) == [f.name for f in fields(DcStepInfo)]
            got = info.datacenters[node.dc_id]
            for name, value in expected.items():
                assert type(getattr(got, name)) is type(value), name
                assert getattr(got, name) == value, name
        site = info.datacenters[1]
        assert (site.sla_met, site.sla_violated) == (1, 1)
        assert (site.running_count, site.pending_count) == (1, 1)
        assert info.datacenters[2].gpu_util_pct == 20.0

    def test_records_have_no_instance_dict(self):
        cluster = self.loaded_cluster()
        info = cluster.step(1, T0 + STEP)
        node = cluster.nodes[0]
        records = (info.datacenters[1], snapshot_cluster(cluster, 1)[0],
                   node.physics_step(None, 0.5, 0.0, 10.0, 20.0, 15.0))
        for record in records:
            assert not hasattr(record, "__dict__"), type(record).__name__


# racks at different approach temperatures, so that high setpoints clamp some inlets
_STAGGERED = desk_scale_params(supply_approach_temps_c=(0.0, 2.0, 4.0, 8.0),
                               return_approach_temps_c=(0.0, 0.5, 1.0, 1.5))
# every rack at approach 0.0, as in the shipped block
_EQUAL = desk_scale_params()
_UTIL = st.sampled_from([0.0, -0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
_MEM = st.sampled_from([0.0, -0.0, 4000.0]) | st.floats(0.0, 8000.0)
# dry-bulbs either side of the office guide temperature: no recovered heat, some, or
# heat capped at its fraction of the IT load
_GUIDE = _EQUAL.hru_office_guide_temp_c
_WEATHER = st.sampled_from([(20.0, 15.0), (35.0, 24.0)]) | st.tuples(
    st.floats(-30.0, 45.0), st.floats(-35.0, 35.0)) | st.tuples(
    st.sampled_from([_GUIDE + d for d in (-30.0, -0.5, -0.01, 0.0, 0.01, 5.0)]),
    st.floats(-35.0, 15.0))
_PHYSICS_INPUT = st.tuples(st.sampled_from([None, *HvacAction]), _UTIL, _UTIL, _MEM, _WEATHER)


def result_bits(result):
    return [float(v).hex() for v in astuple(result)]


@settings(max_examples=200)
@given(
    physics=st.sampled_from([_STAGGERED, _EQUAL]),
    hru=st.booleans(),
    setpoint=st.integers(18, 27).map(float),
    # a bare weather pair repeats the last inputs in that weather
    inputs=st.lists(_PHYSICS_INPUT | st.just("repeat") | _WEATHER, max_size=40),
)
def test_physics_memo_matches_dc_physics_step_property(physics, hru, setpoint, inputs):
    """A node's memoized step is bit-equal to a direct ``dc_physics_step`` call at
    the node's setpoint, through repeated inputs, signed zeros, setpoint moves and
    recovered heat that comes and goes, on staggered racks and on equal ones."""
    node = make_node(physics=physics, hru_enabled=hru, setpoint_c=setpoint)
    last = None
    for step in inputs:
        if step == "repeat" or len(step) == 2:
            if last is None:
                continue
            step = last if step == "repeat" else (*last[:4], step)
        action, u_cpu, u_gpu, mem, (drybulb, wetbulb) = last = step
        expected = dc_physics_step(node.physics, node.setpoint_c, u_cpu, u_gpu, mem,
                                   WeatherSample(drybulb, wetbulb), action, hru)
        result = node.physics_step(action, u_cpu, u_gpu, mem, drybulb, wetbulb)
        assert result_bits(result) == result_bits(expected)
        assert node.setpoint_c == expected.setpoint_c
        assert node.last_return_temp_c == expected.crac_return_temp_c


class TestPhysicsMemo:
    def test_inlet_clamp_warns_once_per_new_thermal_input(self, caplog):
        cluster = make_cluster(n_dcs=1, physics=desk_scale_params(
            supply_approach_temps_c=(0.0, 0.0, 0.0, 8.0)))
        with caplog.at_level(logging.WARNING, logger="geodcsim.dcphysics"):
            for step in range(2):  # idle twice: the same setpoint and utilization
                cluster.step(step, T0 + step * STEP)
            assert len(caplog.records) == 1
            cluster.by_id[1].pending.append(make_task(cores=100.0))
            cluster.step(2, T0 + 2 * STEP)
        assert [r.getMessage() for r in caplog.records] == [
            "inlet temperature 30.00 degC clamped to [16.0, 28.0]"] * 2

    @staticmethod
    def spy_plant(monkeypatch):
        """The recovered heat of each plant the node builds, in order."""
        built = []
        monkeypatch.setattr(cluster_module, "hvac_plant",
                            lambda *args: built.append(args[-1]) or hvac_plant(*args))
        return built

    def test_the_plant_is_built_once_per_thermal_key_without_heat_recovery(self, monkeypatch):
        built = self.spy_plant(monkeypatch)
        node = make_node()
        for u_cpu in (0.5, 0.5, 0.5, 0.7, 0.7, 0.5):
            for drybulb, wetbulb in ((20.0, 15.0), (35.0, 24.0), (-10.0, -12.0)):
                node.physics_step(None, u_cpu, 0.5, 100.0, drybulb, wetbulb)
        assert built == [0.0] * 3  # keys at 0.5, 0.7, then 0.5 again

    def test_heat_recovery_rebuilds_the_plant_every_step(self, monkeypatch):
        """Warm air recovers no heat, slightly cool air some, cold air the cap; the
        recovered heat follows the dry-bulb, so the plant is rebuilt at every step."""
        built = self.spy_plant(monkeypatch)
        node = make_node(hru_enabled=True)
        for drybulb in (25.0, 30.0, 20.99, 20.99, -10.0, -20.0, 25.0):
            result = node.physics_step(None, 0.5, 0.5, 100.0, drybulb, drybulb - 5.0)
        assert len(built) == 7
        assert built[0] == built[1] == built[6] == 0.0
        assert 0.0 < built[2] == built[3] < built[4] == built[5]
        assert built[4] == node.physics.hru_it_load_cap_fraction * result.it_power_w

    def test_inputs_are_checked_before_the_kept_half_is_reused(self):
        node = make_node(setpoint_c=27.0)
        node.physics_step(None, 0.5, 0.5, 100.0, 20.0, 15.0)
        node.setpoint_c = 40.0  # DOWN_1C would clamp it back to the kept 27.0
        with pytest.raises(ValueError, match="setpoint 40.0 outside"):
            node.physics_step(HvacAction.DOWN_1C, 0.5, 0.5, 100.0, 20.0, 15.0)
        node.setpoint_c = 27.0
        for args, match in [((1.5, 0.5, 100.0), "u_cpu"), ((0.5, 0.5, -1.0), "mem_used_gb")]:
            with pytest.raises(ValueError, match=match):
                node.physics_step(None, *args, 20.0, 15.0)


class TestConservationProperties:
    def test_random_event_storm_keeps_books_exact(self):
        rng = np.random.default_rng(2024)
        cluster = make_cluster(hours=200 * 24)
        injected = 0
        now = T0
        for step in range(400):
            # random arrivals routed to random destinations
            k = int(rng.poisson(25))
            decisions = []
            for i in range(k):
                task = make_task(
                    f"s{step}-{i}",
                    arrival=now,
                    duration=float(rng.uniform(15, 120)),
                    cores=float(rng.uniform(0.5, 64)),
                    gpu=float(rng.uniform(0, 4)),
                    mem=float(rng.uniform(1, 128)),
                    bandwidth=float(rng.uniform(0.01, 5)),
                    origin=int(rng.integers(1, 4)),
                )
                decisions.append((task, int(rng.integers(1, 4))))
            injected += k
            info = cluster.step(step, now, decisions)
            assert info.transmission_cost_total_usd >= 0.0
            for node in cluster.nodes:
                assert_bookkeeping(node)
            census = cluster.census()
            total = census["pending"] + census["running"] + census["in_transit"] + census["completed"]
            assert total == injected
            now += STEP

    def test_no_task_lost_after_drain(self):
        cluster = make_cluster(hours=30 * 24)
        tasks = [make_task(f"t{i}", cores=1.0, duration=15.0, origin=1) for i in range(20)]
        cluster.route_assignments([(t, (i % 3) + 1) for i, t in enumerate(tasks)], 0)
        now = T0
        for step in range(50):
            cluster.step(step, now)
            now += STEP
        census = cluster.census()
        assert census["completed"] == len(tasks)
        assert census["pending"] == census["running"] == census["in_transit"] == 0

    def test_determinism_bitwise(self):
        def run():
            cluster = make_cluster()
            tasks = [make_task(f"t{i}", cores=float(i + 1), origin=1) for i in range(6)]
            cluster.route_assignments([(t, (i % 3) + 1) for i, t in enumerate(tasks)], 0)
            infos = [cluster.step(s, T0 + s * STEP) for s in range(8)]
            return [
                (d.energy_consumption_kwh, d.energy_cost_usd, d.carbon_emissions_kg, d.water_l)
                for info in infos for d in info.datacenters.values()
            ]

        assert run() == run()


class TestClusterGuards:
    def test_a_cluster_needs_a_datacenter(self):
        matrix, delay, region_map = tiny_network()
        with pytest.raises(ValueError, match="^a cluster needs at least one datacenter$"):
            Cluster([], matrix, delay, region_map)

    def test_dc_ids_are_unique(self):
        matrix, delay, region_map = tiny_network()
        nodes = [make_node(dc_id=1), make_node(dc_id=2, location="DE-LU"), make_node(dc_id=1)]
        with pytest.raises(ValueError, match="^dc_id values must be unique$"):
            Cluster(nodes, matrix, delay, region_map)

    def test_a_cluster_without_columns_is_refused_at_its_first_step(self):
        cluster = Cluster([make_node(dc_id=1)], *tiny_network())
        with pytest.raises(ProtocolError, match=(
                r"^the cluster has no columns: Cluster.attach_columns hands them out$")):
            cluster.step(0, T0)

    @pytest.mark.parametrize("step", [-1, 97, 10**9])
    def test_a_step_outside_the_columns_is_refused(self, step):
        """Columns hold 97 rows; -1 would wrap to the last row and 97 run off it."""
        cluster = make_cluster(hours=25)
        task = make_task(origin=1)
        expected = f"^step {step} is outside the 97 rows of the cluster's columns$"
        with pytest.raises(ProtocolError, match=expected):
            cluster.step(step, T0, [(task, 2)])
        with pytest.raises(ProtocolError, match=expected):
            snapshot_cluster(cluster, step)
        assert task.dest_dc_id is None and not cluster.in_transit
        assert len(snapshot_cluster(cluster, 96)) == 3  # the last row is read

    @pytest.mark.parametrize("origin, dest, expected", [
        (1, 4, "unknown destination dc_id 4"),
        (7, 2, "task t1 has unmapped origin 7"),
    ], ids=["unknown_destination", "unmapped_origin"])
    def test_a_decision_off_the_cluster_is_refused_before_it_routes(self, origin, dest,
                                                                    expected):
        cluster = make_cluster()
        task = make_task(origin=origin)
        with pytest.raises(ProtocolError, match=f"^{expected}$"):
            cluster.route_assignments([(task, dest)], step=0)
        assert task.dest_dc_id is None and task.status is TaskStatus.PENDING
        assert not cluster.in_transit and not any(n.pending for n in cluster.nodes)
