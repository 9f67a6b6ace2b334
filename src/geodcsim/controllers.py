"""Rule-based schedulers.

The five task-placement heuristics decide immediately and never defer. They
read each site through a ``DcSnapshot``: the site's node, which owns its
capacities, free resources and ``fits`` test, plus its grid price and carbon
intensity at the step of decision. The price/carbon strategies only consider
sites that can fit the task right now, falling back to the task's origin when
none can. Ties break toward the lowest dc_id so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import attrgetter

from .cluster import Cluster, DatacenterNode
from .errors import ConfigError


class RbcStrategy(Enum):
    LOCAL_ONLY = "local_only"
    LOWEST_CARBON = "lowest_carbon"
    LOWEST_PRICE = "lowest_price"
    MOST_AVAILABLE = "most_available"
    ROUND_ROBIN = "round_robin"


@dataclass(slots=True)
class DcSnapshot:
    """A site as a controller sees it at one step: the node itself, which holds
    its capacities and free resources, and its price and carbon intensity then."""

    node: DatacenterNode
    price_usd_per_mwh: float
    ci_g_per_kwh: float


def snapshot_cluster(cluster: Cluster, step: int) -> list[DcSnapshot]:
    """One snapshot per node in cluster order, at step ``step`` of the window; a
    snapshot's position, counted from 1, is its site's index in the environment's
    action space. A step outside the cluster's columns is refused."""
    cluster.check_step(step)
    return [DcSnapshot(node, *node.conditions(step)[:2]) for node in cluster.nodes]


class RuleBasedController:
    """Per-task assignment policy; holds only the round-robin cursor."""

    def __init__(self, strategy: RbcStrategy | str):
        try:
            self.strategy = RbcStrategy(strategy)
        except ValueError as exc:
            valid = ", ".join(s.value for s in RbcStrategy)
            raise ConfigError(f"unknown strategy {strategy!r}; expected one of: {valid}") from exc
        self._cursor = 0

    def decide(self, snapshots: list[DcSnapshot], tasks) -> list[int]:
        """One action index per task, never the deferral action."""
        index = {s.node.dc_id: i for i, s in enumerate(snapshots, 1)}
        strategy = self.strategy
        if strategy is RbcStrategy.LOCAL_ONLY:
            return [index[task.origin_dc_id] for task in tasks]
        if strategy is RbcStrategy.MOST_AVAILABLE:  # the same site for every task
            best = min(snapshots, key=lambda s: (-s.node.free_fractions()[0], s.node.dc_id))
            return [index[best.node.dc_id]] * len(tasks)
        if strategy is RbcStrategy.ROUND_ROBIN:
            actions = [(self._cursor + k) % len(snapshots) + 1 for k in range(len(tasks))]
            self._cursor += len(tasks)
            return actions
        key = attrgetter("ci_g_per_kwh" if strategy is RbcStrategy.LOWEST_CARBON
                         else "price_usd_per_mwh")
        actions = []
        for task in tasks:
            feasible = [s for s in snapshots if s.node.fits(task)]
            if feasible:
                best = min(feasible, key=lambda s: (key(s), s.node.dc_id))
                actions.append(index[best.node.dc_id])
            else:
                actions.append(index[task.origin_dc_id])
        return actions
