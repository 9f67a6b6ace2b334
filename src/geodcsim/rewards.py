"""Modular reward system: named components, a registry, and a weighted composite.

Components are small callables over the per-step cluster accounting record.
Penalty components return nonpositive values for nonnegative inputs; efficiency
is nonnegative. The composite resolves component names against the registry at
construction time so configuration mistakes fail before an episode starts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .cluster import ClusterInfo
from .errors import ConfigError

_REGISTRY: dict = {}


def register_component(name: str, factory=None):
    """Register a reward component under ``name``; usable as a decorator."""

    def _register(fac):
        if name in _REGISTRY:
            raise ConfigError(f"reward component {name!r} already registered")
        _REGISTRY[name] = fac
        return fac

    if factory is None:
        return _register
    return _register(factory)


def get_component(name: str, **args):
    try:
        factory = _REGISTRY[name]
    except KeyError as exc:
        raise ConfigError(f"unknown reward component {name!r}") from exc
    return factory(**args)


def registered_components() -> tuple:
    return tuple(sorted(_REGISTRY))


def _require_positive(value, what):
    if value <= 0:
        raise ConfigError(f"{what} must be > 0")
    return float(value)


class PenaltyReward:
    """Penalizes one per-step quantity, scaled down by ``normalize_factor``."""

    def __init__(self, quantity, normalize_factor: float):
        self.quantity = quantity
        self.normalize_factor = _require_positive(normalize_factor, "normalize_factor")

    def __call__(self, info: ClusterInfo) -> float:
        return -self.quantity(info) / self.normalize_factor


# (name, default normalize_factor, quantity penalized)
_PENALTIES = (
    ("energy_price", 1000.0, lambda info: info.total("energy_cost_usd")),
    ("carbon_emissions", 100.0,
     lambda info: info.total("carbon_emissions_kg") + info.transmission_emissions_total_kg),
    ("energy_consumption", 1000.0,
     lambda info: info.total("energy_consumption_kwh") + info.transmission_energy_total_kwh),
    ("transmission_cost", 10.0, lambda info: info.transmission_cost_total_usd),
    ("transmission_emissions", 10.0, lambda info: info.transmission_emissions_total_kg),
)
for _name, _factor, _quantity in _PENALTIES:
    register_component(_name, functools.partial(PenaltyReward, _quantity, normalize_factor=_factor))


@register_component("sla_penalty")
class SlaPenaltyReward:
    def __init__(self, penalty_per_violation: float = 1.0):
        if penalty_per_violation < 0:
            raise ConfigError("penalty_per_violation must be >= 0")
        self.penalty_per_violation = float(penalty_per_violation)

    def __call__(self, info: ClusterInfo) -> float:
        return -info.total("sla_violated") * self.penalty_per_violation


@register_component("efficiency")
class EfficiencyReward:
    """Rewards completed-within-SLA tasks per unit of energy consumed."""

    def __init__(self, epsilon: float = 1e-6):
        self.epsilon = _require_positive(epsilon, "epsilon")

    def __call__(self, info: ClusterInfo) -> float:
        completed = info.total("sla_met")
        energy = info.total("energy_consumption_kwh") + info.transmission_energy_total_kwh
        return completed / (energy + self.epsilon)


class _RunningStats:
    """Welford mean/variance; normalization floors the std at 1e-8."""

    __slots__ = ("count", "mean", "_m2")

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def update(self, x: float) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)

    @property
    def std(self) -> float:
        if self.count < 1:
            return 0.0
        return math.sqrt(self._m2 / self.count)

    def normalize(self, x: float) -> float:
        return (x - self.mean) / max(self.std, 1e-8)


@dataclass
class RewardBreakdown:
    total: float
    per_component_raw: dict = field(default_factory=dict)
    per_component_weighted: dict = field(default_factory=dict)


class CompositeReward:
    """Weighted sum of registered components, with optional running normalization.

    ``components`` maps a registered name to ``{"weight": w, "args": {...}}``.
    Unknown names fail here, not mid-episode. Instances carrying running
    statistics are stateful and belong to a single environment.
    """

    def __init__(self, components: dict, normalize: bool = False):
        if not components:
            raise ConfigError("composite reward needs at least one component")
        self.normalize = bool(normalize)
        self._parts = []
        self._stats = {}
        for name, cfg in components.items():
            cfg = cfg or {}
            weight = float(cfg.get("weight", 1.0))
            if not math.isfinite(weight):
                raise ConfigError(f"component {name!r}: weight must be finite")
            args = cfg.get("args", {}) or {}
            try:
                fn = get_component(name, **args)
            except TypeError as exc:
                raise ConfigError(f"component {name!r}: bad args {args}") from exc
            self._parts.append((name, weight, fn))
            if self.normalize:
                self._stats[name] = _RunningStats()

    @classmethod
    def from_config(cls, cfg: dict) -> "CompositeReward":
        """Build from the ``reward:`` section of a reward-config document."""
        reward = cfg.get("reward", cfg)
        components = reward.get("components")
        if not components:
            raise ConfigError("reward config must define reward.components")
        return cls(components, normalize=reward.get("normalize", False))

    def __call__(self, info: ClusterInfo) -> RewardBreakdown:
        raw, weighted = {}, {}
        total = 0.0
        for name, weight, fn in self._parts:
            value = fn(info)
            raw[name] = value
            if self.normalize:
                stats = self._stats[name]
                stats.update(value)
                value = stats.normalize(value)
            contrib = weight * value
            weighted[name] = contrib
            total += contrib
        return RewardBreakdown(total=total, per_component_raw=raw,
                               per_component_weighted=weighted)
