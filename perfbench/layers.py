"""Per-layer tracing for the traced benchmark run.

:class:`LayerTrace` wraps the public entry points of each ``repro`` layer
from the outside: nothing in ``src/`` knows about it.  Every wrapper
takes one of three forms:

* **span**: records a span (layer, function, start, end, parent span and
  the point it served) and accumulates the layer's self time;
* **leaf**: accumulates self time and a count but records no span (hot
  calls such as ``LatencyModel`` lookups);
* **count**: only counts calls and adds no timer (``Core.consume``, the
  MPB transfer helpers, ``obs.span``).

Collective and point-to-point APIs are generators, so a span wrapper
times every *resumption* of the generator and forwards ``send``,
``throw``, ``close`` and the return value; timing only the call would
measure generator creation.  Self time is a resumption's duration minus
the part its nested wrapped resumptions cover, summed per layer key.

Patching replaces the wrapped object on its class or defining module and
in every loaded module that imported the name (``from repro.sched.builders
import build_schedule``), and :meth:`LayerTrace.uninstall` restores the
originals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns
from types import GeneratorType, ModuleType
from typing import Any, Callable, Optional

import numpy as np

#: Communicator methods that are collective entry points.
COLLECTIVES = ("barrier", "bcast", "reduce", "allreduce", "scan", "exscan",
               "reduce_scatter", "allgather", "alltoall", "scatter",
               "gather", "scatterv", "gatherv", "split")

#: Modules of the native collective implementations the communicator
#: dispatches to when no schedule runs.
NATIVE_MODULES = ("allgather", "allreduce", "alltoall", "alt_algorithms",
                  "barrier", "bcast", "exchange", "mpb_allreduce", "reduce",
                  "reduce_scatter", "scan")

GCMC_PHYSICS_MODULES = ("kvectors", "longrange", "moves", "shortrange")

RACE_HOOKS = ("on_span_enter", "on_span_exit", "on_oob", "on_write",
              "on_read", "on_alloc", "on_reset_alloc", "on_clear",
              "on_corrupt", "on_flag_write", "on_flag_observed",
              "on_flag_force")

#: Self-time keys reported as ``<key>_self_s`` / ``<key>.self_s``.
SELF_KEYS = ("sim", "hw.flag", "hw.latency", "p2p", "core", "sched.build",
             "sched.cost", "sched.select", "sched.run", "analytic",
             "analysis", "gcmc.physics")

#: Counters that must repeat exactly between runs of one seed.
COUNT_KEYS = ("hw.flag_writes", "hw.flag_waits", "hw.latency_calls",
              "hw.consume_calls", "p2p.messages", "p2p.bytes",
              "p2p.put_get_calls", "core.collective_calls",
              "core.native_calls", "core.sched_calls", "sched.build_calls",
              "sched.build_misses", "sched.cost_calls", "sched.select_calls",
              "analytic.priced", "analytic.declined", "analysis.hook_calls",
              "obs.span_calls", "spans")

#: lru-cached schedule builders whose misses are ``sched.build_misses``.
BUILD_CACHES = (("repro.sched.builders", "_build_cached"),
                ("repro.sched.synth", "_build_synth_cached"),
                ("repro.sched.hier", "_build_hier_cached"))


class LayerTrace:
    """Spans and per-layer counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.self_ns: defaultdict = defaultdict(int)
        #: One row per span: [parent, layer, function, point, start, end].
        self.spans: list[list] = []
        #: The point (collective, MC cycle or priced point) being served.
        self.point = -1
        self._child_ns: list[int] = []     # per open resumption
        self._active: list[int] = [-1]     # span ids of open resumptions
        self._top_collectives: set[int] = set()
        self._collectives: set[int] = set()
        self._scheduled: set[int] = set()
        self._patches: list[tuple[Any, str, Any]] = []
        self._misses0 = 0

    # ------------------------------------------------------------------ #
    # Timing core
    # ------------------------------------------------------------------ #
    def _open_span(self, layer: str, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([self._active[-1], layer, name, self.point,
                           perf_counter_ns(), 0])
        self.counts["spans"] += 1
        return sid

    def _enter(self, sid: Optional[int]) -> int:
        self._child_ns.append(0)
        if sid is not None:
            self._active.append(sid)
        return perf_counter_ns()

    def _leave(self, key: str, t0: int, sid: Optional[int]) -> None:
        dur = perf_counter_ns() - t0
        self.self_ns[key] += dur - self._child_ns.pop()
        if self._child_ns:
            self._child_ns[-1] += dur
        if sid is not None:
            self._active.pop()

    def _close_span(self, sid: int) -> None:
        self.spans[sid][5] = perf_counter_ns()

    def _resumptions(self, gen: GeneratorType, key: str, sid: int,
                     done: Callable[[int, Any], None]):
        """Drive ``gen``, timing each resumption (send/throw/close and the
        return value are forwarded unchanged)."""
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            t0 = self._enter(sid)
            try:
                yielded = (gen.send(value) if error is None
                           else gen.throw(error))
            except StopIteration as stop:
                self._leave(key, t0, sid)
                self._close_span(sid)
                done(sid, stop.value)
                return stop.value
            except BaseException:
                self._leave(key, t0, sid)
                self._close_span(sid)
                raise
            self._leave(key, t0, sid)
            value = error = None
            try:
                value = yield yielded
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # thrown in: forward to gen
                error = exc

    # ------------------------------------------------------------------ #
    # Wrapper factories
    # ------------------------------------------------------------------ #
    def span(self, fn: Callable, layer: str, key: str,
             counter: Optional[str] = None,
             done: Optional[Callable[[int, Any], None]] = None,
             start: Optional[Callable[[int], None]] = None) -> Callable:
        """Span wrapper: ``counter`` counts calls, ``start(sid)`` runs at
        the call and ``done(sid, result)`` when the call (or generator)
        finishes."""
        name = fn.__qualname__
        finish = done or (lambda sid, result: None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                self.counts[counter] += 1
            sid = self._open_span(layer, name)
            if start is not None:
                start(sid)
            t0 = self._enter(sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._leave(key, t0, sid)
                self._close_span(sid)
                raise
            self._leave(key, t0, sid)
            if isinstance(result, GeneratorType):
                return self._resumptions(result, key, sid, finish)
            self._close_span(sid)
            finish(sid, result)
            return result

        return wrapper

    def leaf(self, fn: Callable, key: str, counter: str) -> Callable:
        """Timed and counted, no span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            t0 = self._enter(None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(key, t0, None)

        return wrapper

    def count(self, fn: Callable, counter: str,
              extra: Optional[Callable[..., None]] = None) -> Callable:
        """Counted only; ``extra(*args)`` may add further counts."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            if extra is not None:
                extra(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def _patch_attr(self, owner: Any, attr: str, new: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch_method(self, cls: type, attr: str,
                     make: Callable[[Callable], Callable]) -> None:
        """Wrap ``cls.attr`` if ``cls`` itself defines it."""
        if attr in cls.__dict__:
            self._patch_attr(cls, attr, make(cls.__dict__[attr]))

    def patch_function(self, module: ModuleType, attr: str,
                       make: Callable[[Callable], Callable]) -> None:
        """Wrap a module-level function everywhere it is bound."""
        original = getattr(module, attr)
        wrapped = make(original)
        for mod in list(sys.modules.values()):
            if mod is None or not mod.__name__.startswith("repro"):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patch_attr(mod, name, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Collective bookkeeping
    # ------------------------------------------------------------------ #
    def _collective_start(self, sid: int) -> None:
        if self.spans[sid][0] not in self._collectives:
            self._top_collectives.add(sid)
        self._collectives.add(sid)

    def _collective_done(self, sid: int, _result: Any) -> None:
        if sid in self._top_collectives:
            self.counts["core.collective_calls"] += 1
            if sid in self._scheduled:
                self.counts["core.sched_calls"] += 1
            else:
                self.counts["core.native_calls"] += 1

    def _schedule_start(self, sid: int) -> None:
        self._scheduled.add(self.spans[sid][0])

    def _priced(self, _sid: int, result: Any) -> None:
        self.counts["analytic.declined" if result is None
                    else "analytic.priced"] += 1

    def _message(self, _machine, _src, _dst, nbytes) -> None:
        self.counts["p2p.bytes"] += int(nbytes)

    # ------------------------------------------------------------------ #
    # What is wrapped
    # ------------------------------------------------------------------ #
    def install(self) -> "LayerTrace":
        """Wrap every layer's entry points.  Call before any Machine is
        built, so no method bound earlier escapes the wrappers."""
        mod = importlib.import_module
        for name in ("repro.core.registry", "repro.bench.analytic",
                     "repro.bench.runner", "repro.analysis.races",
                     "repro.apps.gcmc.driver", "repro.apps.gcmc.serial",
                     "repro.sched.hier", "repro.sched.synth",
                     "repro.rckmpi.api", "repro.ircce.api",
                     "repro.lwnb.api", "repro.rcce.gory"):
            mod(name)
        from repro.analysis.races import RaceDetector
        from repro.apps.gcmc.particles import ParticleSystem
        from repro.core.comm import Communicator
        from repro.hw.flags import Flag
        from repro.hw.machine import Core
        from repro.hw.timing import LatencyModel
        from repro.ircce.api import IRCCE
        from repro.ircce.requests import NonBlockingLayer
        from repro.rcce.api import RCCE
        from repro.rckmpi.channel import RCKMPIP2P
        from repro.sched.select import TunedCommunicator
        from repro.sim.engine import Simulator

        span, leaf, count = self.span, self.leaf, self.count

        # sim: the kernel loop; process bodies resumed from it are the
        # wrapped generators below, so its self time is the kernel's own.
        for attr in ("run", "run_until_processes"):
            self.patch_method(Simulator, attr,
                              lambda f: span(f, "sim", "sim"))

        # hw
        for attr, counter in (("set_by", "hw.flag_writes"),
                              ("clear_by", "hw.flag_writes"),
                              ("wait_set", "hw.flag_waits"),
                              ("wait_clear", "hw.flag_waits")):
            self.patch_method(Flag, attr, lambda f, c=counter: span(
                f, "hw", "hw.flag", c))
        for attr, value in list(vars(LatencyModel).items()):
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and attr != "invalidate"):
                self.patch_method(LatencyModel, attr, lambda f: leaf(
                    f, "hw.latency", "hw.latency_calls"))
        self.patch_method(Core, "consume",
                          lambda f: count(f, "hw.consume_calls"))

        # p2p (rcce / ircce / lwnb / rckmpi); the request bodies run as
        # their own sim processes, so they are wrapped too.
        p2p = lambda f: span(f, "p2p", "p2p")  # noqa: E731
        for attr in ("send", "recv", "barrier"):
            self.patch_method(RCCE, attr, p2p)
        for cls in (NonBlockingLayer, IRCCE, RCKMPIP2P):
            for attr in ("isend", "irecv", "wait", "wait_all", "test",
                         "cancel", "_send_proc", "_recv_proc", "_drain"):
                self.patch_method(cls, attr, p2p)
        self.patch_function(mod("repro.rcce.api"), "record_message",
                            lambda f: count(f, "p2p.messages",
                                            self._message))
        transfer = mod("repro.rcce.transfer")
        for attr in ("put_bytes", "get_bytes"):
            self.patch_function(transfer, attr,
                                lambda f: count(f, "p2p.put_get_calls"))

        # core: communicator entry points and the native implementations
        for attr in COLLECTIVES:
            self.patch_method(Communicator, attr, lambda f: span(
                f, "core", "core", start=self._collective_start,
                done=self._collective_done))
        for name in NATIVE_MODULES:
            module = mod(f"repro.core.{name}")
            for attr, value in list(vars(module).items()):
                if (inspect.isgeneratorfunction(value)
                        and value.__module__ == module.__name__
                        and not attr.startswith("_")):
                    self.patch_function(module, attr,
                                        lambda f: span(f, "core", "core"))

        # sched
        builders = mod("repro.sched.builders")
        self.patch_function(builders, "build_schedule", lambda f: span(
            f, "sched", "sched.build", "sched.build_calls"))
        self.patch_function(mod("repro.sched.engine"), "schedule_for",
                            lambda f: span(f, "sched", "sched.build"))
        self.patch_function(mod("repro.sched.cost"), "estimate_schedule_cost",
                            lambda f: span(f, "sched", "sched.cost",
                                           "sched.cost_calls"))
        self.patch_function(mod("repro.sched.select"), "select_algo",
                            lambda f: span(f, "sched", "sched.select",
                                           "sched.select_calls"))
        self.patch_method(TunedCommunicator, "pick_algo", lambda f: span(
            f, "sched", "sched.select", "sched.select_calls"))
        self.patch_function(mod("repro.sched.engine"), "run_schedule",
                            lambda f: span(f, "sched", "sched.run",
                                           start=self._schedule_start))
        self._misses0 = _build_misses()

        # bench.analytic
        self.patch_function(mod("repro.bench.analytic"),
                            "analytic_latency_us", lambda f: span(
                                f, "bench.analytic", "analytic",
                                done=self._priced))

        # analysis: the race detector's hook methods
        for attr in RACE_HOOKS:
            self.patch_method(RaceDetector, attr, lambda f: leaf(
                f, "analysis", "analysis.hook_calls"))

        # apps.gcmc: the application program and its physics kernels
        self.patch_function(mod("repro.apps.gcmc.driver"), "gcmc_program",
                            lambda f: span(f, "apps.gcmc", "gcmc.app"))
        for name in GCMC_PHYSICS_MODULES:
            module = mod(f"repro.apps.gcmc.{name}")
            for attr, value in list(vars(module).items()):
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    self.patch_function(module, attr, lambda f: leaf(
                        f, "gcmc.physics", "gcmc.physics_calls"))
        for attr, value in list(vars(ParticleSystem).items()):
            if inspect.isfunction(value) and not attr.startswith("_"):
                self.patch_method(ParticleSystem, attr, lambda f: leaf(
                    f, "gcmc.physics", "gcmc.physics_calls"))

        # obs
        self.patch_function(mod("repro.obs.spans"), "span",
                            lambda f: count(f, "obs.span_calls"))
        return self

    def wrap_program(self, program: Callable) -> Callable:
        """Wrap an SPMD program built by the benchmark itself (layer
        ``bench``)."""
        return self.span(program, "bench", "bench")

    # ------------------------------------------------------------------ #
    def layer_counts(self) -> dict[str, int]:
        """The deterministic counters so far."""
        self.counts["sched.build_misses"] = _build_misses() - self._misses0
        return {key: int(self.counts.get(key, 0)) for key in COUNT_KEYS}

    def self_seconds(self) -> dict[str, float]:
        return {key: self.self_ns.get(key, 0) / 1e9 for key in SELF_KEYS}

    def fired(self) -> set[str]:
        """Every ``layer:function`` that recorded at least one span."""
        return {f"{row[1]}:{row[2]}" for row in self.spans}

    def save(self, path) -> None:
        """Write the spans as columns (``.npz``)."""
        layers = sorted({row[1] for row in self.spans})
        names = sorted({row[2] for row in self.spans})
        lid = {v: i for i, v in enumerate(layers)}
        nid = {v: i for i, v in enumerate(names)}
        rows = self.spans
        np.savez(path,
                 parent=np.array([r[0] for r in rows], dtype=np.int64),
                 layer=np.array([lid[r[1]] for r in rows], dtype=np.int16),
                 function=np.array([nid[r[2]] for r in rows],
                                   dtype=np.int16),
                 point=np.array([r[3] for r in rows], dtype=np.int32),
                 start_ns=np.array([r[4] for r in rows], dtype=np.int64),
                 end_ns=np.array([r[5] for r in rows], dtype=np.int64),
                 layer_names=np.array(layers),
                 function_names=np.array(names))


def _build_misses() -> int:
    total = 0
    for module, attr in BUILD_CACHES:
        total += getattr(importlib.import_module(module),
                         attr).cache_info().misses
    return total
