"""Span tracing of geodcsim's layers, installed from outside the program.

``Tracer.install`` replaces each target function with a timing wrapper on
every binding that refers to it: the defining module and every other
``geodcsim.*`` module that imported the name (``envdata.wet_bulb`` and
``cluster.wet_bulb`` alike), or the class attribute for methods. A call site
that moves to another module is therefore still timed. Spans (name, start,
end, parent) are kept in compact in-memory arrays; ``restore`` puts every
original binding back, so a traced run never leaks into an untraced one.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

ORIGINAL_ATTR = "__bench_original__"


def _len_pending(args, kwargs) -> int:
    return len(args[0].pending)


# (span name, module, attribute path, entry counter, exit counter). An entry
# counter is (name, fn(args, kwargs) -> int) taken before the call; an exit
# counter is (name, fn(result) -> int) taken after it.
TARGETS = (
    ("envdata.wet_bulb", "geodcsim.envdata", "wet_bulb", None, None),
    ("envdata.value_at", "geodcsim.envdata", "value_at", None, None),
    ("envdata.synth_series", "geodcsim.envdata", "synth_series", None, None),
    ("dcphysics.dc_physics_step", "geodcsim.dcphysics", "dc_physics_step", None, None),
    ("workload.generate_synthetic_trace", "geodcsim.workload", "generate_synthetic_trace",
     None, None),
    ("workload.assign_task_origins", "geodcsim.workload", "assign_task_origins", None, None),
    ("schedenv.step", "geodcsim.schedenv", "SchedulingEnv.step", None, None),
    ("schedenv.inject_arrivals", "geodcsim.schedenv", "SchedulingEnv._inject_arrivals",
     None, ("schedenv.tasks_injected", len)),
    ("schedenv.build_observation", "geodcsim.schedenv", "build_observation",
     None, ("schedenv.obs_vectors", len)),
    ("schedenv.reset", "geodcsim.schedenv", "SchedulingEnv.reset", None, None),
    ("cluster.step", "geodcsim.cluster", "Cluster.step", None, None),
    ("cluster.release_completed", "geodcsim.cluster", "release_completed", None, None),
    ("cluster.advance_transit", "geodcsim.cluster", "Cluster.advance_transit", None, None),
    ("cluster.schedule_fifo_first_fit", "geodcsim.cluster", "schedule_fifo_first_fit",
     ("cluster.fifo.tasks_scanned", _len_pending), ("cluster.fifo.tasks_started", len)),
    ("cluster.route_assignments", "geodcsim.cluster", "Cluster.route_assignments", None, None),
    ("network.transmission_cost", "geodcsim.network", "transmission_cost", None, None),
    ("network.transmission_energy_kwh", "geodcsim.network", "transmission_energy_kwh",
     None, None),
    ("network.transmission_emissions_kg", "geodcsim.network", "transmission_emissions_kg",
     None, None),
    ("network.transmission_delay_s", "geodcsim.network", "transmission_delay_s", None, None),
    ("network.delay_steps", "geodcsim.network", "delay_steps", None, None),
    ("rewards.composite", "geodcsim.rewards", "CompositeReward.__call__", None, None),
    ("controllers.snapshot_cluster", "geodcsim.controllers", "snapshot_cluster", None, None),
    ("controllers.decide", "geodcsim.controllers", "RuleBasedController.decide", None, None),
    ("runner.run_episode", "geodcsim.runner", "run_episode", None, None),
    ("runner.write_step_log", "geodcsim.runner", "write_step_log", None, None),
    ("runner.build_env", "geodcsim.runner", "build_env", None, None),
    ("runner.run_sweep", "geodcsim.runner", "run_sweep", None, None),
)


def _geodcsim_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "geodcsim" or n.startswith("geodcsim."))]


def leaked_wrappers() -> list[str]:
    """Every module or class attribute under ``geodcsim`` that is still a tracing wrapper."""
    leaks = []
    for mod in _geodcsim_modules():
        for key, value in vars(mod).items():
            if hasattr(value, ORIGINAL_ATTR):
                leaks.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__.startswith("geodcsim"):
                leaks.extend(f"{mod.__name__}.{key}.{attr}" for attr, member in vars(value).items()
                             if hasattr(member, ORIGINAL_ATTR))
    return leaks


class Tracer:
    """Spans and counters of one traced run; use as a context manager."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._patches = []

    def _wrap(self, name_id: int, fn, entry, exit_):
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        counters = self.counters
        clock = time.perf_counter
        for counter in (entry, exit_):
            if counter is not None:
                counters.setdefault(counter[0], 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if entry is not None:
                counters[entry[0]] += entry[1](args, kwargs)
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if exit_ is not None:
                counters[exit_[0]] += exit_[1](result)
            return result

        setattr(wrapper, ORIGINAL_ATTR, fn)
        return wrapper

    def _patch(self, owner, key, original, wrapper):
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    def install(self) -> None:
        for _, modname, *_ in TARGETS:
            importlib.import_module(modname)
        modules = _geodcsim_modules()
        for name_id, (name, modname, path, entry, exit_) in enumerate(TARGETS):
            mod = sys.modules[modname]
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name, None)
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    self.missing.append(name)
                    continue
                self._patch(owner, attr, original, self._wrap(name_id, original, entry, exit_))
                continue
            original = getattr(mod, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name_id, original, entry, exit_)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, original, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def layer_totals(self):
        """Per span name: (calls, self seconds, inclusive durations of each span).

        Self time is a span's duration minus the durations of its direct children.
        """
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        calls = np.bincount(a["name"], minlength=n_names)
        self_s = np.bincount(a["name"], weights=self_time, minlength=n_names)
        return (
            {n: int(calls[i]) for i, n in enumerate(self.names)},
            {n: float(self_s[i]) for i, n in enumerate(self.names)},
            {n: dur[a["name"] == i] for i, n in enumerate(self.names)},
        )


def save_spans(path, tracers: list[Tracer]) -> None:
    """Write the spans of several traced runs to one ``.npz`` (``rep`` tells them apart)."""
    parts = {"rep": [], "name": [], "parent": [], "start": [], "end": []}
    offset = 0
    for rep, tracer in enumerate(tracers):
        a = tracer.arrays()
        parts["rep"].append(np.full(len(a["name"]), rep, dtype=np.int32))
        parts["parent"].append(np.where(a["parent"] >= 0, a["parent"] + offset, -1))
        for key in ("name", "start", "end"):
            parts[key].append(a[key])
        offset += len(a["name"])
    np.savez_compressed(path, names=np.array(tracers[0].names),
                        **{key: np.concatenate(value) for key, value in parts.items()})
