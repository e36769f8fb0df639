"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each workload is cut down to a few units so the whole file takes about a
minute on a 2-CPU host.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402  (puts src/ on the path)
from layers import LayerTrace  # noqa: E402
from workloads import (  # noqa: E402
    Fig9Sim, GcmcApp, Hooks, PriceGrid, RaceGate)


def traced(workload, limit=None):
    trace = LayerTrace().install()
    try:
        results = workload.run(run.TracedHooks(trace), limit)
    finally:
        trace.uninstall()
    return trace, results


def fig9_subset():
    """One point per stack, plus the MPB-direct allreduce."""
    workload = Fig9Sim(seed=3, seconds=1)
    picked = {}
    for point in workload.points:
        key = point.stack if point.stack != "mpb" else point.kind
        if point.stack == "mpb" and point.kind != "allreduce":
            continue
        picked.setdefault(key, point)
    workload.points = list(picked.values())
    return workload


def price_subset():
    workload = PriceGrid(seed=3, seconds=1)
    keep = [i for i, p in enumerate(workload.points)
            if p.kind == "bcast" and p.size in (552, 600)]
    workload.points = [workload.points[i] for i in keep]
    workload.goldens = [workload.goldens[i] for i in keep
                        if i < len(workload.goldens)]
    return workload


def gcmc_small():
    workload = GcmcApp(seed=3, seconds=1)
    workload.configs = [cfg.copy(initial_particles=48, capacity=96)
                        for cfg in workload.configs]
    workload.prepare()
    return workload


@pytest.fixture(scope="module")
def fig9_runs():
    workload = fig9_subset()
    untraced = workload.run(Hooks())
    trace, results = traced(workload)
    return workload, untraced, trace, results


#: Counters, self-time keys and span functions each workload must fire.
EXPECTED = {
    "fig9_sim": (
        ("hw.flag_writes", "hw.flag_waits", "hw.latency_calls",
         "hw.consume_calls", "p2p.messages", "p2p.bytes",
         "p2p.put_get_calls", "core.collective_calls", "core.native_calls",
         "core.sched_calls", "sched.build_calls", "sched.select_calls",
         "obs.span_calls"),
        ("sim", "hw.flag", "hw.latency", "p2p", "core", "sched.run",
         "sched.select"),
        ("sim:Simulator.run_until_processes", "hw:Flag.set_by",
         "hw:Flag.wait_set", "p2p:RCCE.send", "p2p:RCCE.recv",
         "p2p:IRCCE.isend", "p2p:NonBlockingLayer.isend",
         "p2p:NonBlockingLayer._send_proc", "p2p:RCKMPIP2P._send_proc",
         "core:Communicator.allreduce", "core:mpb_allreduce",
         "sched:run_schedule", "sched:TunedCommunicator.pick_algo")),
    "price_grid": (
        ("analytic.priced", "analytic.declined", "sched.build_calls",
         "sched.build_misses", "sched.cost_calls", "sched.select_calls",
         "hw.latency_calls"),
        ("analytic", "sched.build", "sched.cost", "sched.select"),
        ("bench.analytic:analytic_latency_us", "sched:build_schedule",
         "sched:estimate_schedule_cost", "sched:schedule_for")),
    "race_gate": (
        ("analysis.hook_calls", "hw.flag_writes", "core.collective_calls"),
        ("analysis", "sim", "p2p"),
        ("sim:Simulator.run_until_processes",)),
    "gcmc_app": (
        ("core.collective_calls", "sched.select_calls", "hw.flag_writes",
         "p2p.messages"),
        ("gcmc.physics", "sim", "core", "sched.select"),
        ("apps.gcmc:gcmc_program", "core:Communicator.allreduce",
         "core:Communicator.bcast")),
}


def assert_fired(name, trace):
    counters, self_keys, functions = EXPECTED[name]
    counts = trace.layer_counts()
    silent = [c for c in counters if counts[c] == 0]
    assert not silent, f"{name}: counters never fired: {silent}"
    idle = [k for k in self_keys if trace.self_ns.get(k, 0) <= 0]
    assert not idle, f"{name}: no self time in {idle}"
    missing = set(functions) - trace.fired()
    assert not missing, f"{name}: no spans of {sorted(missing)}"


def test_fig9_wrappers_fire(fig9_runs):
    _workload, _untraced, trace, results = fig9_runs
    assert_fired("fig9_sim", trace)
    assert trace.layer_counts()["analytic.priced"] == 0
    assert not [r.failure for r in results if r.failure]


def test_fig9_traced_equals_untraced(fig9_runs):
    _workload, untraced, _trace, results = fig9_runs
    assert [r.value for r in results] == [r.value for r in untraced]
    for key in run.KERNEL_TOTALS:
        assert ([getattr(r, key) for r in results]
                == [getattr(r, key) for r in untraced]), key


def test_price_grid_wrappers_fire_without_simulating():
    trace, results = traced(price_subset())
    assert_fired("price_grid", trace)
    assert sum(r.events for r in results) == 0
    assert trace.self_ns.get("sim", 0) == 0


def test_race_gate_wrappers_fire_and_counts_repeat():
    workload = RaceGate(seed=3, seconds=1)
    workload.prepare()
    first, results = traced(workload, limit=1)
    assert_fired("race_gate", first)
    assert not results[0].failure
    second, again = traced(workload, limit=1)
    assert second.layer_counts() == first.layer_counts()
    assert again[0].value == results[0].value


def test_gcmc_wrappers_fire_and_match_untraced():
    workload = gcmc_small()
    untraced = workload.run(Hooks())
    trace, results = traced(workload)
    assert_fired("gcmc_app", trace)
    assert [r.value for r in results] == [r.value for r in untraced]
    assert [r.events for r in results] == [r.events for r in untraced]
    assert not [r.failure for r in results if r.failure]


def test_uninstall_restores_the_program():
    from repro.hw.flags import Flag
    from repro.sched import builders, engine

    before = (Flag.set_by, builders.build_schedule, engine.build_schedule)
    trace = LayerTrace().install()
    assert Flag.set_by is not before[0]
    assert engine.build_schedule is builders.build_schedule
    trace.uninstall()
    assert (Flag.set_by, builders.build_schedule,
            engine.build_schedule) == before


def test_generator_wrapper_forwards_send_throw_and_return():
    trace = LayerTrace()

    def body():
        got = yield "first"
        try:
            yield got
        except KeyError as err:
            yield f"caught {err.args[0]}"
        return "done"

    gen = trace.span(body, "test", "test")()
    assert next(gen) == "first"
    assert gen.send("x") == "x"
    assert gen.throw(KeyError("k")) == "caught k"
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "done"
    assert trace.spans[0][5] >= trace.spans[0][4] > 0


def test_refuses_to_run_outside_a_checkout(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.parent.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "fig9_sim",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
