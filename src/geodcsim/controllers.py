"""Rule-based schedulers.

The five task-placement heuristics decide immediately and never defer. The
price/carbon strategies only consider sites that can fit the task right now,
falling back to the task's origin when none can. Ties break toward the lowest
dc_id so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from enum import Enum

from .cluster import Cluster, DatacenterNode
from .envdata import value_at


class RbcStrategy(Enum):
    LOCAL_ONLY = "local_only"
    LOWEST_CARBON = "lowest_carbon"
    LOWEST_PRICE = "lowest_price"
    MOST_AVAILABLE = "most_available"
    ROUND_ROBIN = "round_robin"


@dataclass(frozen=True)
class DcSnapshot:
    """Instantaneous per-site view a controller decides against."""

    action_index: int  # position in the environment's action space (1-based)
    dc_id: int
    ci_g_per_kwh: float
    price_usd_per_mwh: float
    available_cores: float
    available_gpus: float
    available_mem_gb: float
    total_cores: float

    @property
    def available_core_fraction(self) -> float:
        return self.available_cores / self.total_cores if self.total_cores else 0.0

    fits = DatacenterNode.fits  # reads the available_* fields, named alike on both classes


def snapshot_cluster(cluster: Cluster, now: datetime) -> list[DcSnapshot]:
    snaps = []
    for i, node in enumerate(cluster.nodes):
        snaps.append(
            DcSnapshot(
                action_index=i + 1,
                dc_id=node.dc_id,
                ci_g_per_kwh=value_at(node.carbon, now),
                price_usd_per_mwh=value_at(node.price, now),
                available_cores=node.available_cores,
                available_gpus=node.available_gpus,
                available_mem_gb=node.available_mem_gb,
                total_cores=node.total_cores,
            )
        )
    return snaps


class RuleBasedController:
    """Per-task assignment policy; holds only the round-robin cursor."""

    def __init__(self, strategy: RbcStrategy):
        self.strategy = RbcStrategy(strategy)
        self._cursor = 0

    def decide(self, snapshots: list[DcSnapshot], tasks) -> list[int]:
        """One action index per task, never the deferral action."""
        by_id = {s.dc_id: s for s in snapshots}
        actions = []
        for task in tasks:
            if self.strategy is RbcStrategy.LOCAL_ONLY:
                actions.append(by_id[task.origin_dc_id].action_index)
            elif self.strategy is RbcStrategy.LOWEST_CARBON:
                actions.append(self._cheapest(snapshots, task, by_id, lambda s: s.ci_g_per_kwh))
            elif self.strategy is RbcStrategy.LOWEST_PRICE:
                actions.append(self._cheapest(snapshots, task, by_id, lambda s: s.price_usd_per_mwh))
            elif self.strategy is RbcStrategy.MOST_AVAILABLE:
                best = min(snapshots, key=lambda s: (-s.available_core_fraction, s.dc_id))
                actions.append(best.action_index)
            else:  # ROUND_ROBIN
                actions.append(self._cursor % len(snapshots) + 1)
                self._cursor += 1
        return actions

    @staticmethod
    def _cheapest(snapshots, task, by_id, key) -> int:
        feasible = [s for s in snapshots if s.fits(task)]
        if not feasible:
            return by_id[task.origin_dc_id].action_index
        best = min(feasible, key=lambda s: (key(s), s.dc_id))
        return best.action_index

