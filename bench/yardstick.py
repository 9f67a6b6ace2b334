"""Host-speed yardstick: rescales benchmark times for a shared host's drifting speed.

On a shared host the speed of identical code drifts by 20 % and more over tens
of seconds, and a median over one run cannot remove a drift that lasts the
whole run. The benchmark therefore times this fixed loop right before and right
after each timed repetition and rescales the repetition to the seconds it would
take on a host where one pass takes ``PASS_S``.

The loop does the kinds of work the simulator does (small dataclass objects,
``copy``, ``math``, dict lookups over a table larger than the first-level
caches, sorting, small numpy calls and CSV formatting), so it slows down with
the host as the simulator does. It imports nothing from geodcsim: a change to
the simulator cannot change the yardstick.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import io
import math
import time

import numpy as np

ITEMS = 3000
ROUNDS = 15
# Seconds of one pass on the host the benchmark's times are rescaled to.
PASS_S = 0.015
# Each yardstick sample covers at least this share of the repetition it follows.
SHARE = 0.5


@dataclasses.dataclass
class _Item:
    key: int
    size: float
    done: bool = False


def one_pass() -> float:
    """Host seconds of one pass of the yardstick loop."""
    t0 = time.perf_counter()
    items = [_Item(i, (i * 37 % 101) / 7.0) for i in range(ITEMS)]
    table = {i * 7919 % 100003: item for i, item in enumerate(items)}
    keys = list(table)
    vec = np.linspace(0.0, 1.0, 64)
    writer = csv.writer(io.StringIO())
    acc = 0.0
    for rnd in range(ROUNDS):
        pending = [copy.copy(item) for item in items[rnd % 10::10]]
        for item in pending:
            other = table[keys[(item.key * 13 + rnd) % len(keys)]]
            acc += math.exp(-item.size / 50.0) * other.size
            item.done = acc > item.size
        pending.sort(key=lambda item: item.size)
        for _ in range(8):
            acc += float(np.dot(vec, vec * (acc % 3.0)))
        writer.writerow([rnd, f"{acc:.6f}", len(pending), sum(item.done for item in pending)])
    return time.perf_counter() - t0


def sample(repetition_s: float) -> float:
    """Mean host seconds per pass, over passes filling ``SHARE`` of ``repetition_s``."""
    total = one_pass()
    passes = 1
    while total < SHARE * repetition_s:
        total += one_pass()
        passes += 1
    return total / passes


def rescale(times, samples) -> list:
    """Rescale ``times[i]`` by the mean of ``samples[i]`` and ``samples[i + 1]``, taken around it."""
    return [t * 2.0 * PASS_S / (before + after)
            for t, before, after in zip(times, samples, samples[1:])]
