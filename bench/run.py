"""geodcsim benchmark: host time and memory of fixed workloads, with output checks.

Usage, from the root of a checkout:

    python3 bench/run.py --workload light --seed 0 --seconds 25 --trace 0
    python3 bench/run.py                       # every workload, one table
    python3 bench/run.py --write-references    # re-record output digests

Every run is a closed loop with one caller in one process. A run sets up the
workload and runs its main call once untimed to warm up, then repeats set-up
and main call until ``--seconds`` have passed, timing the yardstick loop of
``yardstick.py`` after each one. ``setup_s`` and ``step_us`` are medians over
those repetitions, each rescaled by the yardstick timed around it to the host
time it would take on a reference host (see ``yardstick.py``), because a shared
host's speed drifts by tens of percent over a run. The unscaled medians are
printed as ungated figures. Each repetition's step logs and KPIs
are checked against ``references.json``; a mismatch or a non-finite KPI counts
as a failed operation. With ``--trace 1`` the run alternates untraced
and traced repetitions and reports per-layer metrics instead (medians over
traced repetitions, each one set-up plus one main call), and writes the spans
to ``.bench_out/spans-<workload>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The ``src/`` line count
is printed above it as an ungated figure.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
REFERENCES = BENCH / "references.json"
OUT = ROOT / ".bench_out"

MIN_REPS = 3
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10


def _require_checkout() -> None:
    """Exit unless ``ROOT`` holds the simulator sources and configs, then import from them."""
    needed = [ROOT / "src" / "geodcsim" / "__init__.py"] + [
        ROOT / "configs" / f"{n}.yaml" for n in ("sim", "datacenters", "reward")
    ]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.exit(f"error: checkout is missing {', '.join(missing)}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import geodcsim

    if Path(geodcsim.__file__).resolve().parent != ROOT / "src" / "geodcsim":
        sys.exit(f"error: imported geodcsim from {geodcsim.__file__}, not from this checkout")


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children count so a worker pool cannot hide memory
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


class _CountHandler(logging.Handler):
    def __init__(self):
        super().__init__()
        self.count = 0

    def emit(self, record):
        self.count += 1


def _tail(durations_ms) -> tuple[float, float]:
    """Highest percentile of TAIL_PERCENTILES with at least TAIL_MIN_BEYOND samples beyond it."""
    n = len(durations_ms)
    best = TAIL_PERCENTILES[0]
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND:
            best = p
    return best, float(np.percentile(durations_ms, best)) if n else 0.0


def layer_metrics(tracer, warnings: int) -> dict:
    """Per-layer figures of one traced repetition, as {name: (value, unit)}."""
    calls, self_s, durations = tracer.layer_totals()
    c = tracer.counters
    m = {}
    for name in ("envdata.wet_bulb", "envdata.value_at", "dcphysics.dc_physics_step",
                 "workload.assign_task_origins", "schedenv.step", "schedenv.build_observation",
                 "cluster.schedule_fifo_first_fit"):
        m[f"{name}.calls"] = (calls[name], "count")
    for name in ("envdata.wet_bulb", "envdata.value_at", "envdata.synth_series",
                 "dcphysics.dc_physics_step", "workload.generate_synthetic_trace",
                 "workload.assign_task_origins", "schedenv.step", "schedenv.inject_arrivals",
                 "schedenv.build_observation", "schedenv.reset", "cluster.step",
                 "cluster.release_completed", "cluster.advance_transit",
                 "cluster.schedule_fifo_first_fit", "cluster.route_assignments",
                 "rewards.composite", "controllers.snapshot_cluster", "controllers.decide",
                 "runner.run_episode", "runner.write_step_log", "runner.build_env",
                 "runner.run_sweep"):
        m[f"{name}.self_s"] = (self_s[name], "s")
    step_ms = durations["schedenv.step"] * 1000.0
    tail_pct, tail_ms = _tail(step_ms)
    m["schedenv.step_ms.p50"] = (statistics.median(step_ms) if len(step_ms) else 0.0, "ms")
    m["schedenv.step_ms.tail"] = (tail_ms, "ms")
    m["schedenv.step_ms.tail_pct"] = (tail_pct, "%")
    m["schedenv.step_ms.samples"] = (len(step_ms), "count")
    m["schedenv.tasks_injected"] = (c.get("schedenv.tasks_injected", 0), "count")
    m["schedenv.obs_vectors"] = (c.get("schedenv.obs_vectors", 0), "count")
    scanned = c.get("cluster.fifo.tasks_scanned", 0)
    started = c.get("cluster.fifo.tasks_started", 0)
    m["cluster.fifo.tasks_scanned"] = (scanned, "count")
    m["cluster.fifo.tasks_started"] = (started, "count")
    m["cluster.fifo.start_ratio"] = (started / scanned if scanned else 0.0, "ratio")
    m["network.remote_transfers"] = (calls["network.transmission_delay_s"], "count")
    m["network.self_s"] = (sum(v for k, v in self_s.items() if k.startswith("network.")), "s")
    m["runner.log_warnings"] = (warnings, "count")
    return m


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import scenarios
    import spans
    import yardstick

    references = json.loads(REFERENCES.read_text())
    expected = references.get(workload, {}).get(str(seed % scenarios.REFERENCE_SEEDS))

    OUT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    attempted = failed = steps = 0
    setup_times, untraced_us, traced_us, layer_reps, tracers = [], [], [], [], []
    yard = []  # a yardstick sample before and after each timed repetition
    geodcsim_logger = logging.getLogger("geodcsim")
    try:
        def run(traced: bool) -> None:
            nonlocal attempted, failed, steps
            gc.collect()
            if not traced:
                dt, scn, env = scenarios.setup(ROOT, workload, seed)
                setup_times.append(dt)
                gc.collect()
                elapsed, episodes = scenarios.run_once(scn, env, seed, out_dir)
                untraced_us.append(elapsed / scn.steps * 1e6)
                if not trace:
                    yard.append(yardstick.sample(dt + elapsed))
            else:
                handler = _CountHandler()
                geodcsim_logger.addHandler(handler)
                try:
                    with spans.Tracer() as tracer:
                        _, scn, env = scenarios.setup(ROOT, workload, seed)
                        elapsed, episodes = scenarios.run_once(scn, env, seed, out_dir)
                finally:
                    geodcsim_logger.removeHandler(handler)
                traced_us.append(elapsed / scn.steps * 1e6)
                tracers.append(tracer)
                layer_reps.append(layer_metrics(tracer, handler.count))
            steps = scn.steps
            attempted += len(episodes)
            failed += scenarios.check(episodes, expected)

        # warm-up: checked, not timed, so lazy imports and first-call costs stay out
        run(traced=False)
        setup_times.clear()
        untraced_us.clear()
        del yard[:-1]
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(untraced_us) < MIN_REPS or (
                trace and len(traced_us) < MIN_REPS):
            run(traced=False)
            if trace:
                run(traced=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    leaks = spans.leaked_wrappers()
    if leaks:
        print(f"error: tracing wrappers left installed: {leaks}", file=sys.stderr)
    missing = tracers[0].missing if tracers else []
    if missing:
        print(f"warning: traced functions not found: {missing}", file=sys.stderr)

    if trace:
        spans.save_spans(OUT / f"spans-{workload}.npz", tracers)
        metrics = {
            name: {"value": statistics.median(rep[name][0] for rep in layer_reps),
                   "unit": unit}
            for name, (_, unit) in layer_reps[0].items()
        }
        overhead = 100.0 * (statistics.median(traced_us) / statistics.median(untraced_us) - 1.0)
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(yardstick.rescale(setup_times, yard)),
                        "unit": "s"},
            "step_us": {"value": statistics.median(yardstick.rescale(untraced_us, yard)),
                        "unit": "us"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
        print(f"  unscaled host time: setup {statistics.median(setup_times):.6g} s, "
              f"step {statistics.median(untraced_us):.6g} us; yardstick pass "
              f"{statistics.median(yard):.6g} s (ungated)")
    print(f"workload {workload} seed {seed}: {len(untraced_us)} timed repetitions"
          + (f", {len(traced_us)} traced" if trace else "")
          + f", {steps} simulated steps each")
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  failure share {failed}/{attempted} episodes")
    print(f"  src_lines {src_lines()} (ungated)")
    return {"correct": failed == 0 and not leaks, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args, workloads) -> dict:
    """Run each workload in its own process, so peak RSS is per workload."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: workload {workload} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        child = json.loads(lines[-1])
        result["correct"] = result["correct"] and child["correct"]
        result["attempted"] += child["attempted"]
        result["failed"] += child["failed"]
        for name, metric in child["metrics"].items():
            result["metrics"][f"{workload}.{name}"] = metric
    print(f"all workloads: failure share {result['failed']}/{result['attempted']} episodes")
    return result


def write_references() -> None:
    """Record the output digests of every workload for every reference seed."""
    import scenarios

    OUT.mkdir(exist_ok=True)
    refs = {}
    for workload in scenarios.WORKLOADS:
        refs[workload] = {}
        for ref in range(scenarios.REFERENCE_SEEDS):
            out_dir = Path(tempfile.mkdtemp(prefix=f"ref-{workload}-", dir=OUT))
            try:
                _, scn, env = scenarios.setup(ROOT, workload, ref)
                _, episodes = scenarios.run_once(scn, env, ref, out_dir)
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
            if not all(ep.finite for ep in episodes):
                sys.exit(f"error: {workload} seed {ref} produced a non-finite KPI")
            refs[workload][str(ref)] = {ep.key: ep.digests() for ep in episodes}
            print(f"{workload} seed {ref}: {len(episodes)} episodes", flush=True)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="light, saturated, wide, agent, or all (default)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time per workload (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports per-layer metrics from a traced run")
    parser.add_argument("--write-references", action="store_true",
                        help="re-record references.json and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    _require_checkout()
    import scenarios

    if args.write_references:
        write_references()
        return 0
    if args.workload == "all":
        result = run_all(args, scenarios.WORKLOADS)
    elif args.workload in scenarios.WORKLOADS:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        parser.error(f"unknown workload {args.workload!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
