"""Shared fixtures: small clusters, constant series, quick env builders and a deadline."""

import signal
from contextlib import contextmanager
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import settings

from geodcsim.cluster import Cluster, DatacenterNode
from geodcsim.dcphysics import desk_scale_params
from geodcsim.envdata import HOUR, SeriesKind, TimeSeries
from geodcsim.network import CostMatrix, DelayTable, MacroCluster, RegionMap
from geodcsim.rewards import CompositeReward
from geodcsim.schedenv import SchedulingEnv
from geodcsim.workload import STEP, Task, to_us

T0 = datetime(2024, 3, 1, 0, 0, tzinfo=timezone.utc)

# Every property test draws the same examples on every run and keeps no example
# database; each sets its own max_examples.
settings.register_profile("geodcsim", derandomize=True, database=None, deadline=None)
settings.load_profile("geodcsim")


@contextmanager
def deadline(seconds: float):
    """Raise ``TimeoutError`` in the test once ``seconds`` of wall time have passed, so
    that a hang fails the test instead of stalling the run (main thread, POSIX only)."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def constant_series(kind, value, hours=None, start=T0, location="SYN"):
    n = hours if hours is not None else 26
    return TimeSeries(location, kind, start, np.full(n, float(value)))


def make_node(dc_id=1, location="US-CAL-CISO", price=100.0, ci=300.0, temp=18.0,
              cores=2000.0, gpus=40.0, mem=8000.0, hours=26, start=T0, **kwargs):
    return DatacenterNode(
        dc_id=dc_id,
        location_code=location,
        timezone_shift_h=kwargs.pop("timezone_shift_h", 0.0),
        population_weight=kwargs.pop("population_weight", 1.0),
        total_cores=cores,
        total_gpus=gpus,
        total_mem_gb=mem,
        physics=kwargs.pop("physics", desk_scale_params()),
        price=constant_series(SeriesKind.PRICE, price, hours, start, location),
        carbon=constant_series(SeriesKind.CARBON_INTENSITY, ci, hours, start, location),
        drybulb=constant_series(SeriesKind.DRY_BULB_TEMP_C, temp, hours, start, location),
        humidity=constant_series(SeriesKind.REL_HUMIDITY_PCT, 50.0, hours, start, location),
        **kwargs,
    )


def tiny_network(locations=("US-CAL-CISO", "DE-LU", "SG")):
    region_map = RegionMap({
        "US-CAL-CISO": ("us-west-1", MacroCluster.US),
        "DE-LU": ("eu-central-1", MacroCluster.EU),
        "SG": ("ap-southeast-1", MacroCluster.AP),
        "US-NY-NYIS": ("us-east-1", MacroCluster.US),
    })
    regions = ("us-west-1", "us-east-1", "eu-central-1", "ap-southeast-1")
    cost = np.array([
        [0.00, 0.02, 0.05, 0.08],
        [0.02, 0.00, 0.05, 0.08],
        [0.05, 0.05, 0.00, 0.09],
        [0.08, 0.08, 0.09, 0.00],
    ])
    matrix = CostMatrix(regions, cost)
    pairs = {}
    rtts = {}
    for a in MacroCluster:
        for b in MacroCluster:
            if a is not b:
                pairs[(a, b)] = 200.0
                rtts[(a, b)] = 120.0
    delay = DelayTable(pairs, rtts)
    return matrix, delay, region_map


def _sites(n_dcs=3, hours=26, start=T0, **node_kwargs):
    locations = ["US-CAL-CISO", "DE-LU", "SG"]
    matrix, delay, region_map = tiny_network()
    nodes = [
        make_node(dc_id=i + 1, location=locations[i % 3], hours=hours, start=start, **node_kwargs)
        for i in range(n_dcs)
    ]
    return Cluster(nodes, matrix, delay, region_map)


def make_cluster(n_dcs=3, hours=26, start=T0, **node_kwargs):
    """A cluster to step without an env: its columns cover each step of its series'
    ``hours``, as an env's reset would hand them over its window."""
    cluster = _sites(n_dcs, hours, start, **node_kwargs)
    cluster.attach_columns(start, (hours - 1) * (HOUR // STEP) + 1)
    return cluster


def make_task(job_id="t1", arrival=T0, duration=60.0, cores=4.0, gpu=0.0, mem=8.0,
              bandwidth=1.0, origin=1, multiplier=1.5):
    return Task(
        job_id=job_id,
        arrival_us=to_us(arrival),
        duration_min=duration,
        cores_req=cores,
        gpu_req=gpu,
        mem_req=mem,
        bandwidth_gb=bandwidth,
        sla_multiplier=multiplier,
        origin_dc_id=origin,
    )


def default_reward():
    return CompositeReward({"energy_price": {"weight": 1.0}})


def make_env(trace, n_dcs=3, duration_days=1, seed=0, hours=26, **env_kwargs):
    def factory():
        return _sites(n_dcs=n_dcs, hours=hours)

    return SchedulingEnv(
        cluster_factory=factory,
        trace=trace,
        start=T0,
        duration_days=duration_days,
        reward_fn=env_kwargs.pop("reward_fn", default_reward()),
        seed=seed,
        **env_kwargs,
    )


@pytest.fixture
def t0():
    return T0
