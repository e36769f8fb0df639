"""Layered benchmark of the SCC collectives reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig9_sim --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload untraced in this process, in several
passes scaled by a host-speed probe, and prints the end-to-end metrics
(set-up is timed in fresh interpreters); ``--trace 1`` prints the per-layer
metrics instead, from three child runs of the same work: one untraced
(wall time, simulated values, kernel counters) and two traced (spans,
self times, counts), which must agree with each other and with the
untraced run exactly.  The last line of standard output is always one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

See ``perfbench/README.md`` for the workloads, the metrics and the
reasons behind them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Hooks  # noqa: E402  (needs the path)

#: Fresh-interpreter set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 9
#: Where the traced run writes its spans (listed in .gitignore).
TRACE_DIR = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "point_ms_p50": "ms",
    "point_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> unit (see README.md for which end-to-end metric
#: each one should move, and on which workload).
PER_LAYER_UNITS = {
    "sim.events": "count", "sim.host_ns_per_event": "ns", "sim.self_s": "s",
    "hw.flag_writes": "count", "hw.flag_waits": "count",
    "hw.flag_self_s": "s", "hw.mpb_accesses": "count", "hw.mpb_bytes": "B",
    "hw.latency_calls": "count", "hw.latency_self_s": "s",
    "hw.consume_calls": "count", "hw.sim_wait_frac": "ratio",
    "hw.sim_overhead_frac": "ratio",
    "p2p.messages": "count", "p2p.bytes": "B", "p2p.put_get_calls": "count",
    "p2p.self_s": "s",
    "core.collective_calls": "count", "core.self_s": "s",
    "core.native_calls": "count", "core.sched_calls": "count",
    "sched.build_calls": "count", "sched.build_misses": "count",
    "sched.build_self_s": "s", "sched.cost_calls": "count",
    "sched.cost_self_s": "s", "sched.select_calls": "count",
    "sched.select_self_s": "s", "sched.run_self_s": "s",
    "analytic.priced": "count", "analytic.declined": "count",
    "analytic.self_s": "s",
    "analysis.hook_calls": "count", "analysis.self_s": "s",
    "analysis.candidates": "count",
    "gcmc.physics_self_s": "s",
    "obs.span_calls": "count",
    "trace.overhead_x": "x", "trace.spans": "count",
    "tuned_sim_us_geomean": "us", "app_sim_ms": "ms",
    "price_error_pct": "%", "price_error_max_pct": "%",
    "priced_frac": "ratio", "failed_frac": "ratio",
}

#: Host-speed probe (see host_slowdown): its fastest time on the 2-CPU host
#: the benchmark was sized on, and the least host time between probes.
PROBE_REF_S = 0.0068
PROBE_EVERY_S = 0.2
#: Set-up probe (see bare_interpreter_s): its fastest time on that host.
SETUP_PROBE_REF_S = 0.11

#: Untraced-run totals that must equal the traced run's bit for bit.
KERNEL_TOTALS = ("events", "mpb_accesses", "mpb_bytes", "wait_ps",
                 "overhead_ps", "accounted_ps")


def host_record() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}


def _probe_kernel() -> int:
    """A fixed pure-Python loop.  None of it is code of the program under
    test, so a faster program cannot make the probe faster."""
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return total


def host_slowdown() -> float:
    """How much slower than the reference the host runs right now: the
    probe's fastest of three timings over PROBE_REF_S."""
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        _probe_kernel()
        best = min(best, perf_counter() - t0)
    return best / PROBE_REF_S


class ProbeHooks(Hooks):
    """Untraced hooks that probe the host's speed between points."""

    def __init__(self):
        #: (index of the first point after the probe, slowdown)
        self.probes: list[tuple[int, float]] = []
        self._last = -math.inf

    def point(self, i):
        if perf_counter() - self._last >= PROBE_EVERY_S:
            self.probes.append((i, host_slowdown()))
            self._last = perf_counter()

    def scale(self, results: list) -> None:
        """Scale each point to the reference host speed by the mean of the
        probes just before and just after the stretch of points it is in,
        probing once more at the end of the pass."""
        self.probes.append((len(results), host_slowdown()))
        for (start, before), (end, after) in zip(self.probes,
                                                 self.probes[1:]):
            for result in results[start:end]:
                result.host_s /= (before + after) / 2


# ---------------------------------------------------------------------- #
# One in-process run
# ---------------------------------------------------------------------- #
def run_detail(args) -> dict:
    """Run the workload here (traced or not) and summarise it."""
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    workload.prepare()
    hooks = Hooks()
    trace = None
    if args.role == "traced":
        from layers import LayerTrace

        trace = LayerTrace().install()
        hooks = TracedHooks(trace)
    # The end-to-end run makes several passes and keeps each point's
    # fastest time (host noise only ever slows a point down); the
    # per-layer children make one.
    passes = workload.passes() if args.role is None else 1
    t0 = perf_counter()
    runs = []
    try:
        for _ in range(passes):
            if args.role is None:
                hooks = ProbeHooks()
            runs.append(workload.run(hooks))
            if args.role is None:
                hooks.scale(runs[-1])
    finally:
        wall_s = (perf_counter() - t0) / passes
        if trace is not None:
            trace.uninstall()
    results, errors = runs[0], []
    for later in runs[1:]:
        if [r.value for r in later] != [r.value for r in results]:
            errors.append("simulated values vary between passes")
        for first, again in zip(results, later):
            first.host_s = min(first.host_s, again.host_s)
            first.failure = first.failure or again.failure
    failures = [f"{r.label}: {r.failure}" for r in results if r.failure]
    detail = {
        "wall_s": wall_s,
        "host_s": [r.host_s for r in results],
        "values": [r.value for r in results],
        "failures": failures,
        "errors": errors,
        "passes": passes,
        "outcome": workload.outcome(results),
        "totals": {k: sum(getattr(r, k) for r in results)
                   for k in KERNEL_TOTALS},
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace is not None:
        detail["counts"] = trace.layer_counts()
        detail["self_s"] = trace.self_seconds()
        detail["fired"] = sorted(trace.fired())
        TRACE_DIR.mkdir(exist_ok=True)
        trace.save(TRACE_DIR / f"spans_{args.workload}_{args.seed}.npz")
    return detail


class TracedHooks(Hooks):
    """Tags spans with the point they serve."""

    def __init__(self, trace):
        self.trace = trace
        self.program = trace.wrap_program

    def point(self, i):
        self.trace.point = i


def child(args, role: str) -> dict:
    """Run ``role`` in a fresh interpreter; returns its detail record."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--role", role]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} child failed "
                           f"({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bare_interpreter_s() -> float:
    """Wall time of a fresh interpreter that imports numpy and nothing of
    the program: the set-up probe.  Set-up is mostly interpreter start-up
    and imports, which host load slows differently from the simulator,
    so set-ups are scaled by this probe rather than host_slowdown."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT,
                   check=True, timeout=CHILD_TIMEOUT_S)
    return perf_counter() - t0


def time_setups(args) -> list[float]:
    """Wall time of a fresh interpreter importing the program and building
    the workload's inputs, repeated.  Each set-up is scaled to the
    reference speed by the mean of the set-up probes just before and
    after it, so a burst of host load scales only the set-ups it
    overlapped."""
    times, probes = [], [bare_interpreter_s()]
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        child(args, "setup")
        elapsed = perf_counter() - t0
        probes.append(bare_interpreter_s())
        times.append(elapsed * SETUP_PROBE_REF_S
                     / statistics.fmean(probes[-2:]))
    return times


# ---------------------------------------------------------------------- #
# Command-line modes
# ---------------------------------------------------------------------- #
def end_to_end(args) -> dict:
    setups = time_setups(args)
    detail = run_detail(args)
    times = detail["host_s"]
    ms = sorted(1e3 * t for t in times)
    # "inclusive" keeps every decile within the measured range; the
    # default extrapolates past the slowest point on small samples.
    deciles = (statistics.quantiles(ms, n=10, method="inclusive")
               if len(ms) > 1 else ms * 9)
    metrics = {
        "setup_s": statistics.median(setups),
        "points_per_s": len(times) / sum(times),
        "point_ms_p50": statistics.median(ms),
        "point_ms_p90": deciles[-1],
        "peak_rss_mb": detail["peak_rss_mb"],
    }
    print(f"samples: {len(times)} points, each the fastest of "
          f"{detail['passes']} passes; {len(setups)} set-ups; points beyond "
          f"p90: {sum(m > deciles[-1] for m in ms)}")
    return summarise(metrics, END_TO_END_UNITS, len(times),
                     detail["failures"], detail["errors"])


def per_layer(args) -> dict:
    bare = child(args, "untraced")
    traced = child(args, "traced")
    again = child(args, "traced")
    errors = bare["errors"] + traced["errors"] + again["errors"]
    if traced["values"] != bare["values"]:
        errors.append("traced simulated values differ from the untraced run")
    if traced["totals"] != bare["totals"]:
        errors.append(f"traced kernel totals {traced['totals']} differ from "
                      f"untraced {bare['totals']}")
    for key, value in traced["counts"].items():
        if again["counts"][key] != value:
            errors.append(f"count {key} varies between runs of one seed: "
                          f"{value} vs {again['counts'][key]}")
    totals, counts, self_s = bare["totals"], traced["counts"], \
        traced["self_s"]
    attempted = len(bare["host_s"])
    failures = sorted(set(bare["failures"]) | set(traced["failures"]))
    metrics = {
        "sim.events": totals["events"],
        "sim.host_ns_per_event": (1e9 * bare["wall_s"] / totals["events"]
                                  if totals["events"] else 0.0),
        "hw.mpb_accesses": totals["mpb_accesses"],
        "hw.mpb_bytes": totals["mpb_bytes"],
        "hw.sim_wait_frac": _ratio(totals["wait_ps"], totals["accounted_ps"]),
        "hw.sim_overhead_frac": _ratio(totals["overhead_ps"],
                                       totals["accounted_ps"]),
        "trace.overhead_x": traced["wall_s"] / bare["wall_s"],
        "trace.spans": counts.pop("spans"),
        "failed_frac": len(bare["failures"]) / attempted,
        "tuned_sim_us_geomean": 0.0, "app_sim_ms": 0.0,
        "price_error_pct": 0.0, "price_error_max_pct": 0.0,
        "priced_frac": 0.0, "analysis.candidates": 0,
    }
    metrics.update(counts)
    for key, seconds in self_s.items():
        metrics[f"{key}_self_s" if "." in key else f"{key}.self_s"] = seconds
    metrics.update(bare["outcome"])
    print("wrappers fired: " + " ".join(traced["fired"]))
    return summarise(metrics, PER_LAYER_UNITS, attempted, failures, errors)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def summarise(metrics: dict, units: dict, attempted: int,
              failures: list[str], errors: list[str]) -> dict:
    missing = set(units) - set(metrics)
    if missing:
        raise KeyError(f"metrics not produced: {sorted(missing)}")
    for line in failures:
        print(f"FAILED {line}")
    for line in errors:
        print(f"ERROR {line}")
    for name, unit in units.items():
        print(f"{name:24s} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({"host": host_record()}))
    return {
        "correct": not failures and not errors and all(
            math.isfinite(v) for v in metrics.values()),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "untraced", "traced"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    missing = [p for p in (ROOT / "src" / "repro",
                           ROOT / "benchmarks" / "results")
               if not p.is_dir()]
    if missing:
        print(f"perfbench: run from a checkout of the repository; missing "
              f"{', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    if args.role == "setup":
        WORKLOADS[args.workload](args.seed, args.seconds)
        print("{}")
        return 0
    if args.role is not None:
        print(json.dumps(run_detail(args)))
        return 0
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace}))
    result = per_layer(args) if args.trace else end_to_end(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
