import logging
from collections import deque
from datetime import timedelta

import numpy as np
import pytest

from geodcsim.cluster import release_completed, schedule_fifo_first_fit
from geodcsim.errors import ProtocolError
from geodcsim.workload import TaskStatus

from conftest import T0, make_cluster, make_node, make_task

STEP = timedelta(minutes=15)


def assert_bookkeeping(node):
    assert node.available_cores == node.total_cores - sum(t.cores_req for t in node.running)
    assert node.available_gpus == node.total_gpus - sum(t.gpu_req for t in node.running)
    assert node.available_mem_gb == node.total_mem_gb - sum(t.mem_req for t in node.running)
    assert 0 <= node.available_cores <= node.total_cores
    assert 0 <= node.available_gpus <= node.total_gpus
    assert 0 <= node.available_mem_gb <= node.total_mem_gb


def reference_recompute(node):
    node.available_cores = node.total_cores - sum(t.cores_req for t in node.running)
    node.available_gpus = node.total_gpus - sum(t.gpu_req for t in node.running)
    node.available_mem_gb = node.total_mem_gb - sum(t.mem_req for t in node.running)


def reference_first_fit(node, now):
    """Full FIFO scan that recomputes availability from the running set per start."""
    started = []
    remaining = deque()
    for task in node.pending:
        if node.fits(task):
            task.set_status(TaskStatus.RUNNING)
            task.start_exec_time = now
            task.completion_time = now + timedelta(minutes=task.duration_min)
            node.running.append(task)
            reference_recompute(node)
            started.append(task)
        else:
            remaining.append(task)
    node.pending = remaining
    return started


def reference_release(node, now):
    done = [t for t in node.running if t.completion_time <= now]
    if done:
        node.running = [t for t in node.running if t.completion_time > now]
        reference_recompute(node)
    return [t.job_id for t in done]


def availability(node):
    return (node.available_cores, node.available_gpus, node.available_mem_gb)


def oversize_warnings(caplog):
    return [r.getMessage() for r in caplog.records if "wait forever" in r.getMessage()]


class TestScheduling:
    def test_fitting_task_starts_and_deducts(self):
        node = make_node()
        task = make_task(cores=8.0, gpu=2.0, mem=16.0)
        node.pending.append(task)
        started = schedule_fifo_first_fit(node, T0)
        assert started == [task]
        assert task.status is TaskStatus.RUNNING
        assert node.available_cores == node.total_cores - 8.0
        assert node.available_gpus == node.total_gpus - 2.0
        assert_bookkeeping(node)

    def test_oversized_task_stays_pending(self):
        node = make_node(cores=10.0)
        task = make_task(cores=50.0)
        node.pending.append(task)
        assert schedule_fifo_first_fit(node, T0) == []
        assert list(node.pending) == [task]
        assert task.status is TaskStatus.PENDING

    def test_first_fit_skips_blocked_head(self):
        node = make_node(cores=10.0)
        big = make_task("big", cores=9.0)
        small = make_task("small", cores=2.0)
        node.pending.extend([big, small])
        busy = make_task("busy", cores=5.0)
        busy.completion_time = T0 + STEP
        node.running.append(busy)
        node._recompute_available()  # 5 cores free: big blocked, small fits
        started = schedule_fifo_first_fit(node, T0)
        assert [t.job_id for t in started] == ["small"]
        assert [t.job_id for t in node.pending] == ["big"]

    def test_fifo_order_preserved(self):
        node = make_node()
        tasks = [make_task(f"t{i}", cores=1.0) for i in range(5)]
        node.pending.extend(tasks)
        started = schedule_fifo_first_fit(node, T0)
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
                done = release_completed(node, now)
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
                started = schedule_fifo_first_fit(node, now)
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
        schedule_fifo_first_fit(node, T0)
        assert node.used_cores == (0.1 + 0.2) + 0.3
        assert node.available_cores == 1.0 - ((0.1 + 0.2) + 0.3)


class TestOversizeWarning:
    @pytest.mark.parametrize("dest", [1, 2], ids=["local", "transit"])
    def test_warns_once_on_entering_the_queue(self, caplog, dest):
        cluster = make_cluster()
        big = make_task("big", cores=1e6, origin=1, bandwidth=10.0)
        with caplog.at_level(logging.WARNING, logger="geodcsim.cluster"):
            cluster.route_assignments([(big, dest)], 0, T0)
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
        schedule_fifo_first_fit(node, T0)
        done = release_completed(node, T0 + timedelta(minutes=60))
        assert done == [(task, True)]
        assert task.status is TaskStatus.COMPLETED

    def test_late_start_violates(self):
        node = make_node()
        task = make_task(duration=60.0, multiplier=1.0)
        node.pending.append(task)
        schedule_fifo_first_fit(node, T0 + STEP)  # starts one step late
        done = release_completed(node, T0 + timedelta(minutes=75))
        assert done == [(task, False)]

    def test_resources_restored_exactly(self):
        node = make_node()
        before = (node.available_cores, node.available_gpus, node.available_mem_gb)
        task = make_task(cores=7.0, gpu=3.0, mem=11.5, duration=15.0)
        node.pending.append(task)
        schedule_fifo_first_fit(node, T0)
        release_completed(node, T0 + STEP)
        after = (node.available_cores, node.available_gpus, node.available_mem_gb)
        assert after == before

    def test_not_due_stays_running(self):
        node = make_node()
        task = make_task(duration=60.0)
        node.pending.append(task)
        schedule_fifo_first_fit(node, T0)
        assert release_completed(node, T0 + STEP) == []
        assert len(node.running) == 1


class TestRouting:
    def test_local_assignment_immediate(self):
        cluster = make_cluster()
        task = make_task(origin=1)
        totals = cluster.route_assignments([(task, 1)], step=0, now=T0)
        assert totals.cost_usd == 0.0
        assert totals.energy_kwh == 0.0
        assert list(cluster.by_id[1].pending) == [task]
        assert task.status is TaskStatus.PENDING

    def test_remote_assignment_charges_and_delays(self):
        cluster = make_cluster()
        task = make_task(origin=1, bandwidth=10.0)
        totals = cluster.route_assignments([(task, 2)], step=0, now=T0)
        assert totals.cost_usd == pytest.approx(10.0 * 0.05)
        assert totals.energy_kwh == pytest.approx(0.6)
        # constant 300 g/kWh at the origin grid
        assert totals.emissions_kg == pytest.approx(0.6 * 300.0 / 1000.0)
        assert task.status is TaskStatus.IN_TRANSIT
        assert len(cluster.in_transit) == 1
        # 10 GB at 200 Mbps + 120 ms = 400.12 s -> one step
        assert cluster.in_transit[0].ready_step == 1

    def test_two_remote_tasks_add_up(self):
        cluster = make_cluster()
        t1 = make_task("a", origin=1, bandwidth=10.0)
        t2 = make_task("b", origin=1, bandwidth=10.0)
        totals = cluster.route_assignments([(t1, 2), (t2, 2)], step=0, now=T0)
        assert totals.cost_usd == pytest.approx(1.0)
        assert totals.energy_kwh == pytest.approx(1.2)

    def test_invalid_destination(self):
        cluster = make_cluster()
        with pytest.raises(ProtocolError):
            cluster.route_assignments([(make_task(), 99)], step=0, now=T0)

    def test_transit_delivery_timing(self):
        cluster = make_cluster()
        task = make_task(origin=1, bandwidth=10.0)
        cluster.route_assignments([(task, 2)], step=0, now=T0)
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
        cluster.route_assignments([(t1, 2), (t2, 2)], step=0, now=T0)
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
            cluster.injected_count += k
            tx = cluster.route_assignments(decisions, step, now)
            assert tx.cost_usd >= 0.0
            cluster.step(step, now, tx)
            for node in cluster.nodes:
                assert_bookkeeping(node)
            census = cluster.census()
            total = census["pending"] + census["running"] + census["in_transit"] + census["completed"]
            assert total == injected
            now += STEP

    def test_no_task_lost_after_drain(self):
        cluster = make_cluster(hours=30 * 24)
        tasks = [make_task(f"t{i}", cores=1.0, duration=15.0, origin=1) for i in range(20)]
        cluster.injected_count = len(tasks)
        cluster.route_assignments([(t, (i % 3) + 1) for i, t in enumerate(tasks)], 0, T0)
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
            cluster.route_assignments([(t, (i % 3) + 1) for i, t in enumerate(tasks)], 0, T0)
            infos = [cluster.step(s, T0 + s * STEP) for s in range(8)]
            return [
                (d.energy_consumption_kwh, d.energy_cost_usd, d.carbon_emissions_kg, d.water_l)
                for info in infos for d in info.datacenters.values()
            ]

        assert run() == run()
