"""geodcsim: deterministic geo-distributed data-center cluster simulator."""

__version__ = "0.1.0"

from .cluster import Cluster, ClusterInfo, DatacenterNode
from .controllers import RbcStrategy, RuleBasedController
from .dcphysics import DcPhysicsParams, DcStepResult, HvacAction, dc_physics_step
from .envdata import SeriesKind, TimeSeries, value_at, wet_bulb
from .rewards import CompositeReward, RewardBreakdown
from .schedenv import SchedulingEnv, build_agg_observation, build_observation
from .workload import Task, TaskStatus

__all__ = [
    "Cluster",
    "ClusterInfo",
    "CompositeReward",
    "DatacenterNode",
    "DcPhysicsParams",
    "DcStepResult",
    "HvacAction",
    "RbcStrategy",
    "RewardBreakdown",
    "RuleBasedController",
    "SchedulingEnv",
    "SeriesKind",
    "Task",
    "TaskStatus",
    "TimeSeries",
    "build_agg_observation",
    "build_observation",
    "dc_physics_step",
    "value_at",
    "wet_bulb",
]
