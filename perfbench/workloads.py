"""The benchmark's four workloads.

Each workload is built from ``(seed, seconds)`` alone: the seed picks the
input vectors, the GCMC ``cfg.seed`` and the pricing size band;
``seconds`` sets how many passes over the workload one run makes
(``price_grid`` always makes one cold pass).  The program under test
only ever sees the generated inputs.

Which points are simulated is fixed, not drawn from the seed: on a
shared 2-CPU host a seed-drawn Fig.-9 sample moved the host-time metrics
by 14-29% (interquartile range over five seeds) through its mix of
cheap and costly points alone, more than the benchmark's bounds allow.

A workload runs as

1. ``__init__``: set-up (import the program, parse the committed
   goldens, generate inputs) -- what ``setup_s`` times;
2. :meth:`prepare`: compute the references the outputs are checked
   against (the serial GCMC oracle, bare runs without the race
   detector); untimed;
3. :meth:`run`: the timed operations, one :class:`PointResult` each;
   every check runs after the point's timer stops.

A *point* is one timed operation (a collective, an MC cycle, a priced
point, a race-checked scenario); a *unit* is one separate simulation or
pricing call, after which no state of the previous unit is in flight, so
a run limited to its first k units repeats a full run's first k units
exactly.
"""

from __future__ import annotations

import importlib
import math
import re
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "benchmarks" / "results"

#: Ranks of every point (the SCC's 48 cores).
P = 48

#: ROADMAP regret points where the ``tuned`` stack is simulated.
TUNED_POINTS = (("allreduce", 16), ("allreduce", 552), ("allreduce", 2048),
                ("reduce", 128), ("reduce", 552), ("bcast", 552))

#: The committed golden points ``fig9_sim`` simulates: every panel twice
#: and every paper stack at least once, at sizes spread over the grids
#: (the 573..576 sawtooth edge, period-4 spikes, the high-resolution
#: panels' ends).
FIG9_POINTS = (
    ("allgather", "rckmpi", 552), ("allgather", "lightweight", 575),
    ("alltoall", "blocking", 576), ("alltoall", "ircce", 553),
    ("reduce_scatter", "lightweight_balanced", 554),
    ("reduce_scatter", "rckmpi", 568),
    ("bcast", "blocking", 560), ("bcast", "lightweight_balanced", 573),
    ("reduce", "ircce", 541), ("reduce", "lightweight", 600),
    ("allreduce", "mpb", 552), ("allreduce", "lightweight_balanced", 590),
)

#: MC cycles per application run.
GCMC_CYCLES = 5

#: Integer-valued inputs keep every sum exact in any reduction order.
_INPUT_RANGE = 1 << 20
#: Alltoall row offset: row j of rank r's send matrix is input_r + j*OFF.
_ROW_OFFSET = float(1 << 22)


@dataclass
class PointResult:
    """One timed operation and what it produced."""

    label: str
    host_s: float
    failure: Optional[str] = None
    #: Simulated (or priced) value that must repeat bit for bit.
    value: Optional[float] = None
    events: int = 0
    mpb_accesses: int = 0
    mpb_bytes: int = 0
    wait_ps: int = 0
    overhead_ps: int = 0
    accounted_ps: int = 0
    #: Race candidates the detector reported (race_gate only).
    candidates: int = 0


def load_goldens() -> dict[tuple[str, str, int], str]:
    """``{(kind, stack, n): printed latency}`` from the Fig.-9 tables."""
    goldens: dict[tuple[str, str, int], str] = {}
    paths = sorted(RESULTS.glob("fig9*.txt"))
    if not paths:
        raise FileNotFoundError(f"no Fig.-9 goldens under {RESULTS}")
    for path in paths:
        lines = path.read_text().splitlines()
        kind = re.match(r"=== Fig\. 9\w: (\w+) latency", lines[0]).group(1)
        stacks = lines[2].split()[1:]
        for line in lines[4:]:
            fields = line.split()
            if not fields:
                break
            n = int(fields[0])
            for stack, text in zip(stacks, fields[1:], strict=True):
                if goldens.setdefault((kind, stack, n), text) != text:
                    raise ValueError(
                        f"{path.name}: conflicting golden for "
                        f"{kind}/{stack} n={n}")
    return goldens


def _machine_stats(result: PointResult, machine, accounts) -> PointResult:
    result.events = machine.sim.events_processed
    result.mpb_accesses = sum(m.io_reads + m.io_writes for m in machine.mpbs)
    result.mpb_bytes = sum(m.io_read_bytes + m.io_write_bytes
                           for m in machine.mpbs)
    for account in accounts:
        states = account.states
        result.wait_ps += sum(v for k, v in states.items()
                              if k.startswith("wait"))
        result.overhead_ps += states.get("overhead", 0)
        result.accounted_ps += sum(states.values())
    return result


class Hooks:
    """Callbacks a run makes; the traced run overrides them."""

    def point(self, i: int) -> None:
        """Point ``i`` is being served from now on."""

    def program(self, program: Callable) -> Callable:
        """Wrap an SPMD program the benchmark itself builds."""
        return program


class Workload:
    """Common shape; see the module docstring."""

    name = ""
    #: Host seconds of one pass on a 2-CPU host: a run makes
    #: ``seconds / pass_s`` passes and keeps each point's fastest time.
    #: None means one pass only, because later passes would be warm.
    pass_s: Optional[float] = None

    #: The program's modules this workload drives; importing them is part
    #: of set-up, as it is for a CLI user.
    modules: tuple[str, ...] = ()

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.seconds = seconds
        for module in self.modules:
            importlib.import_module(module)

    def prepare(self) -> None:
        """Compute check references (untimed)."""

    def passes(self) -> int:
        if self.pass_s is None:
            return 1
        return max(1, round(self.seconds / self.pass_s))

    def run(self, hooks: "Hooks",
            limit: Optional[int] = None) -> list[PointResult]:
        """One pass over the first ``limit`` units (all by default)."""
        raise NotImplementedError

    def outcome(self, results: list[PointResult]) -> dict[str, float]:
        """Workload-specific outcome metrics (simulated or priced)."""
        return {}


# ---------------------------------------------------------------------- #
# fig9_sim
# ---------------------------------------------------------------------- #
@dataclass
class SimPoint:
    kind: str
    stack: str
    n: int
    inputs: np.ndarray = field(repr=False)
    golden: Optional[str] = None

    def describe(self, seed: int) -> str:
        return f"{self.kind}/{self.stack} n={self.n} p={P} seed={seed}"


def collective_program(kind: str, comm, inputs: np.ndarray) -> Callable:
    """SPMD program timing one collective on rank 0 after a barrier (as
    ``repro.bench.runner.program_for`` does) and returning the output."""
    from repro.core.ops import SUM

    offsets = np.arange(P, dtype=float)[:, None] * _ROW_OFFSET

    def program(env):
        x = inputs[env.rank]
        yield from comm.barrier(env)
        start = env.now
        if kind == "allreduce":
            out = yield from comm.allreduce(env, x, SUM)
        elif kind == "reduce":
            out = yield from comm.reduce(env, x, SUM, 0)
        elif kind == "reduce_scatter":
            out = yield from comm.reduce_scatter(env, x, SUM)
        elif kind == "allgather":
            out = yield from comm.allgather(env, x)
        elif kind == "alltoall":
            out = yield from comm.alltoall(env, x + offsets)
        elif kind == "bcast":
            buf = x.copy() if env.rank == 0 else np.empty_like(x)
            out = yield from comm.bcast(env, buf, 0)
        else:
            raise KeyError(f"unknown collective kind {kind!r}")
        return env.now - start, out

    return program


def check_outputs(kind: str, inputs: np.ndarray, outputs: list) -> bool:
    """Exact comparison against a numpy reference (inputs are integers)."""
    total = inputs.sum(axis=0)
    for rank, out in enumerate(outputs):
        if kind == "allreduce":
            ok = np.array_equal(out, total)
        elif kind == "reduce":
            ok = np.array_equal(out, total) if rank == 0 else out is None
        elif kind == "reduce_scatter":
            block, part = out
            ok = np.array_equal(block, total[part.slice_of(rank)])
        elif kind == "allgather":
            ok = np.array_equal(out, inputs)
        elif kind == "alltoall":
            ok = np.array_equal(out, inputs + rank * _ROW_OFFSET)
        else:  # bcast
            ok = np.array_equal(out, inputs[0])
        if not ok:
            return False
    return True


class Fig9Sim(Workload):
    """Simulate committed Fig.-9 golden points (:data:`FIG9_POINTS`) plus
    the ``tuned`` stack at the ROADMAP regret points."""

    name = "fig9_sim"
    pass_s = 6.5
    modules = ("repro.core.registry", "repro.hw.machine", "repro.sim.clock")

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds)
        goldens = load_goldens()
        rng = np.random.default_rng(seed)

        def inputs(n: int) -> np.ndarray:
            return rng.integers(-_INPUT_RANGE, _INPUT_RANGE,
                                size=(P, n)).astype(float)

        self.points = [SimPoint(kind, stack, n, inputs(n),
                                goldens[(kind, stack, n)])
                       for kind, stack, n in FIG9_POINTS]
        self.points += [SimPoint(kind, "tuned", n, inputs(n))
                        for kind, n in TUNED_POINTS]

    def run(self, hooks, limit=None):
        from repro.core.registry import make_communicator
        from repro.hw.machine import Machine
        from repro.sim.clock import ps_to_us

        results = []
        for i, point in enumerate(self.points[:limit]):
            hooks.point(i)
            t0 = perf_counter()
            machine = Machine()
            comm = make_communicator(machine, point.stack)
            program = hooks.program(collective_program(point.kind, comm,
                                                       point.inputs))
            spmd = machine.run_spmd(program)
            host_s = perf_counter() - t0
            latency_ps = spmd.values[0][0]
            result = _machine_stats(
                PointResult(point.describe(self.seed), host_s,
                            value=latency_ps),
                machine, spmd.accounts)
            us = ps_to_us(latency_ps)
            if point.golden is not None and f"{us:.1f}" != point.golden:
                result.failure = (f"latency {us:.3f} us does not print as "
                                  f"the golden {point.golden} us")
            elif not check_outputs(point.kind, point.inputs,
                                   [v[1] for v in spmd.values]):
                result.failure = "output differs from the numpy reference"
            results.append(result)
        return results

    def outcome(self, results):
        tuned = [r.value / 1e6 for point, r in zip(self.points, results)
                 if point.stack == "tuned"]
        return {"tuned_sim_us_geomean":
                statistics.geometric_mean(tuned) if tuned else 0.0}


# ---------------------------------------------------------------------- #
# gcmc_app
# ---------------------------------------------------------------------- #
class _CycleClock:
    """Pass-through communicator that notes when rank 0 finishes an MC
    cycle's closing ``BroadcastUpdate`` (the only 2-element bcast the
    application issues)."""

    def __init__(self, comm, on_cycle: Callable[[], None]):
        self._comm = comm
        self._on_cycle = on_cycle

    def __getattr__(self, name):
        return getattr(self._comm, name)

    def bcast(self, env, buf, root=0, algo=None):
        result = yield from self._comm.bcast(env, buf, root, algo)
        if env.rank == 0 and buf.size == 2:
            self._on_cycle()
        return result


class GcmcApp(Workload):
    """The Fig.-10 GCMC application (default config, 48 ranks, ``tuned``
    stack): independent application runs of a fixed number of MC cycles,
    each checked against the serial oracle.  A point is one MC cycle (the
    first one of a run includes the initial energy); a unit is one run."""

    name = "gcmc_app"
    pass_s = 9.0
    modules = ("repro.apps.gcmc.config", "repro.apps.gcmc.driver",
               "repro.apps.gcmc.serial", "repro.core.registry",
               "repro.hw.machine")

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds)
        from repro.apps.gcmc.config import GCMCConfig

        rng = np.random.default_rng(seed)
        self.configs = [GCMCConfig(seed=int(rng.integers(1 << 31)))]
        self.references: list = []

    def describe(self, cfg) -> str:
        return (f"gcmc_app/tuned cycles={GCMC_CYCLES} p={P} "
                f"seed={self.seed} cfg.seed={cfg.seed}")

    def prepare(self):
        from repro.apps.gcmc.serial import run_gcmc_serial

        self.references = [run_gcmc_serial(cfg, GCMC_CYCLES, nranks=P)
                           for cfg in self.configs]

    def run(self, hooks, limit=None):
        results = []
        for k, cfg in enumerate(self.configs[:limit]):
            results += self._run_app(cfg, self.references[k], hooks,
                                     first=len(results))
        return results

    def _run_app(self, cfg, ref, hooks, first: int) -> list[PointResult]:
        from repro.apps.gcmc.driver import run_gcmc
        from repro.core.registry import make_communicator
        from repro.hw.machine import Machine

        # Cycle i runs from starts[i] to ends[i]; the hook call between
        # two cycles is excluded from both.
        starts: list[float] = []
        ends: list[float] = []

        def on_cycle():
            ends.append(perf_counter())
            if len(ends) < GCMC_CYCLES:
                hooks.point(first + len(ends))
                starts.append(perf_counter())

        hooks.point(first)
        starts.append(perf_counter())
        machine = Machine()
        comm = _CycleClock(make_communicator(machine, "tuned"), on_cycle)
        result = run_gcmc(machine, comm, cfg, GCMC_CYCLES)
        ends[-1] = perf_counter()
        label = self.describe(cfg)
        if len(ends) != GCMC_CYCLES:
            raise RuntimeError(f"{label}: saw {len(ends)} cycle ends")
        results = [PointResult(f"{label} cycle={i}", ends[i] - starts[i])
                   for i in range(GCMC_CYCLES)]
        last = results[-1]
        last.value = result.elapsed_ps
        _machine_stats(last, machine, result.accounts)
        if (result.final_particles != ref.final_particles
                or not math.isclose(result.final_energy, ref.final_energy,
                                    rel_tol=1e-9)
                or result.observables.by_action != ref.observables.by_action):
            last.failure = (
                f"E={result.final_energy!r} N={result.final_particles} "
                f"differ from run_gcmc_serial E={ref.final_energy!r} "
                f"N={ref.final_particles}")
        return results

    def outcome(self, results):
        runs = [r.value for r in results if r.value is not None]
        return {"app_sim_ms": sum(runs) / len(runs) / 1e9}


# ---------------------------------------------------------------------- #
# price_grid
# ---------------------------------------------------------------------- #
#: (low, high) per-rank sizes of the short and long pricing bands.
PRICE_BANDS = ((2, 64), (512, 4096))
PRICE_CORES = (8, 48)
PRICE_KINDS = ("allreduce", "reduce", "reduce_scatter", "allgather",
               "alltoall", "bcast")


class PriceGrid(Workload):
    """Price every committed Fig.-9 golden point, ``tuned`` at those
    points, and a seed-drawn short/long size band with ``bench.analytic``;
    nothing is simulated."""

    name = "price_grid"
    modules = ("repro.bench.analytic", "repro.bench.executor",
               "repro.core.registry")

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds)
        from repro.bench.executor import SweepPoint
        from repro.core.registry import STACKS

        goldens = load_goldens()
        self.points = [SweepPoint(kind, stack, n, P)
                       for kind, stack, n in sorted(goldens)]
        self.goldens = [float(goldens[key]) for key in sorted(goldens)]
        self.points += [SweepPoint(kind, "tuned", n, P) for kind, n in
                        sorted({(k, n) for k, _s, n in goldens})]
        rng = np.random.default_rng(seed)
        for p in PRICE_CORES:
            for kind in PRICE_KINDS:
                for stack in STACKS + ("tuned",):
                    for low, high in PRICE_BANDS:
                        n = int(rng.integers(low, high))
                        self.points.append(SweepPoint(kind, stack, n, p))

    def run(self, hooks, limit=None):
        from repro.bench.analytic import DEFAULT_DRIFT_TOL, analytic_latency_us

        results = []
        for i, point in enumerate(self.points[:limit]):
            hooks.point(i)
            t0 = perf_counter()
            us = analytic_latency_us(point)
            result = PointResult(f"{point.describe()} engine=analytic",
                                 perf_counter() - t0, value=us)
            if us is not None and not (math.isfinite(us) and us > 0):
                result.failure = f"priced {us!r} us"
            elif us is not None and i < len(self.goldens):
                drift = abs(us - self.goldens[i]) / self.goldens[i]
                if drift > DEFAULT_DRIFT_TOL:
                    result.failure = (
                        f"priced {us:.1f} us is {drift:.0%} from the golden "
                        f"{self.goldens[i]} us (tolerance "
                        f"{DEFAULT_DRIFT_TOL:.0%})")
            results.append(result)
        return results

    def outcome(self, results):
        errors = [abs(r.value - g) / g
                  for r, g in zip(results, self.goldens)
                  if r.value is not None]
        priced = sum(r.value is not None for r in results)
        return {
            "price_error_pct": 100 * sum(errors) / len(errors)
            if errors else 0.0,
            "price_error_max_pct": 100 * max(errors, default=0.0),
            "priced_frac": priced / len(results) if results else 0.0,
        }


# ---------------------------------------------------------------------- #
# race_gate
# ---------------------------------------------------------------------- #
#: Paper stacks the gate slice covers, and the per-rank size (the
#: ``race --gate`` default).
RACE_STACKS = ("lightweight_balanced", "blocking")
RACE_SIZE = 96
#: Synthesized winners included: those won at 16 or more ranks.
RACE_SYNTH_MIN_RANKS = 16

_SCENARIO_NAME = re.compile(
    r"(\w+)/(\w+)\[(sched:[^\]]+)\] p=(\d+) n=(\d+)$")


class RaceGate(Workload):
    """A fixed slice of ``race --gate`` under the happens-before detector:
    every kind on two stacks at p=48, plus the large synthesized winners."""

    name = "race_gate"
    pass_s = 8.0
    modules = ("repro.analysis.races", "repro.bench.runner",
               "repro.hw.machine")

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds)
        from repro.analysis.races import (collective_scenario,
                                          synth_winner_scenarios)
        from repro.bench.runner import KINDS

        rng = np.random.default_rng(seed)
        scenarios = [collective_scenario(kind, stack, P, RACE_SIZE,
                                         seed=int(rng.integers(1 << 31)))
                     for kind in KINDS for stack in RACE_STACKS]
        for winner in synth_winner_scenarios():
            if winner.ranks < RACE_SYNTH_MIN_RANKS:
                continue
            kind, stack, algo, p, n = _SCENARIO_NAME.match(
                winner.name).groups()
            scenarios.append(collective_scenario(
                kind, stack, int(p), int(n), algo=algo,
                seed=int(rng.integers(1 << 31))))
        self.scenarios = scenarios
        self.bare: list = []

    def _run(self, scenario, detector=None, hooks=Hooks()):
        from repro.hw.machine import Machine

        machine = Machine()
        if detector is not None:
            detector.install(machine)
        program = hooks.program(scenario.build(machine))
        spmd = machine.run_spmd(program, ranks=list(range(scenario.ranks)))
        return machine, spmd

    def prepare(self):
        self.bare = []
        for scenario in self.scenarios:
            _machine, spmd = self._run(scenario)
            self.bare.append((spmd.elapsed_ps, spmd.values))

    def run(self, hooks, limit=None):
        from repro.analysis.races import RaceDetector, explore

        results = []
        for i, scenario in enumerate(self.scenarios[:limit]):
            hooks.point(i)
            t0 = perf_counter()
            detector = RaceDetector()
            machine, spmd = self._run(scenario, detector, hooks)
            candidates = detector.candidates()
            confirmed = []
            if candidates:
                confirmed = explore(scenario, baseline=detector).confirmed
            host_s = perf_counter() - t0
            result = _machine_stats(
                PointResult(f"{scenario.name} seed={self.seed}", host_s,
                            value=spmd.elapsed_ps),
                machine, spmd.accounts)
            result.candidates = len(candidates)
            if confirmed:
                result.failure = f"confirmed race: {confirmed[0]}"
            elif (spmd.elapsed_ps, spmd.values) != self.bare[i]:
                result.failure = ("virtual time under the detector differs "
                                  "from the bare run")
            results.append(result)
        return results

    def outcome(self, results):
        return {"analysis.candidates": sum(r.candidates for r in results)}


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Fig9Sim, GcmcApp, PriceGrid, RaceGate)}
