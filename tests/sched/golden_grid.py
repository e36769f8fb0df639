"""The exact pricing and schedule-structure golden grid.

Shared by ``test_pricing_golden.py`` and by regeneration::

    PYTHONPATH=src python -m tests.sched.golden_grid

which rewrites ``tests/sched/data/pricing_golden.json``.  Regenerate only
when a change is *meant* to move what the builders emit or what the cost
model charges, and say so in the change log: the point of the file is
that a pure refactor of the builders or the pricing path reproduces
every entry exactly.

Per schedule (every hand builder, a chunked transform of each ring,
pairwise and scatter builder, a pipelined chain per pipelinable kind and
``hier/g2`` per hierarchical kind, at every ``p`` x ``n`` x partitioner
of the grid) the file records:

* ``sha256`` of ``repr(schedule.plans)`` — an oracle for the builders
  that is independent of the schedule verifier;
* ``estimate_schedule_cost`` picoseconds under the hardware-only regime
  (``overhead=None``, non-blocking and blocking) and under the blocking
  and non-blocking :func:`~repro.bench.analytic.stack_overhead` regimes.

It also records :func:`~repro.bench.analytic.analytic_latency_us` over a
sample of sweep points that includes the ``tuned`` stack.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

from repro.bench.analytic import analytic_latency_us, stack_overhead
from repro.bench.executor import SweepPoint
from repro.core.blocks import PARTITIONERS
from repro.core.registry import STACKS, make_communicator
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine
from repro.sched.builders import BUILDERS, build_schedule, builder_names
from repro.sched.cost import estimate_schedule_cost

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "pricing_golden.json"

PS = (2, 47, 48)
SIZES = (1, 16, 47, 552, 575, 2048)

#: Extra synthesized/hierarchical names priced alongside the hand
#: builders: (kind, name).
EXTRA_NAMES = (
    ("allreduce", "synth/rsag+c2"),
    ("reduce", "synth/rsg+c2"),
    ("bcast", "synth/scatter_allgather+c2"),
    ("allgather", "synth/ring+c2"),
    ("reduce_scatter", "synth/ring+c2"),
    ("alltoall", "synth/pairwise+c2"),
    ("allreduce", "synth/pipeline_c4"),
    ("reduce", "synth/pipeline_c4"),
    ("bcast", "synth/pipeline_c4"),
    ("scan", "synth/pipeline_c4"),
    ("allreduce", "hier/g2"),
    ("reduce", "hier/g2"),
    ("bcast", "hier/g2"),
)

#: Pricing regimes: label -> (stack whose overhead applies or None,
#: blocking flag).
REGIMES = {
    "hw": (None, False),
    "hw_blocking": (None, True),
    "blocking": ("blocking", True),
    "nonblocking": ("lightweight_balanced", False),
}

#: Analytic sample: every kind the engine prices, on every stack plus
#: ``tuned``, at a short and a long vector.
ANALYTIC_KINDS = ("allreduce", "reduce", "reduce_scatter", "allgather",
                  "alltoall", "bcast", "scan", "barrier")
ANALYTIC_SIZES = (16, 552)


def schedule_names() -> list[tuple[str, str]]:
    names = [(kind, name) for kind in BUILDERS
             for name in builder_names(kind)]
    return names + list(EXTRA_NAMES)


def schedule_key(kind: str, name: str, p: int, n: int,
                 partitioner: str) -> str:
    return f"{kind}:{name} p={p} n={n} part={partitioner}"


def overheads(machine: Machine) -> dict:
    model = machine.latency
    out = {}
    for label, (stack, blocking) in REGIMES.items():
        overhead = (None if stack is None else
                    stack_overhead(make_communicator(machine, stack), model))
        out[label] = (overhead, blocking)
    return out


def schedule_entry(kind: str, name: str, p: int, n: int, partitioner: str,
                   machine: Machine, regimes: dict) -> dict:
    """Structure hash and every regime's price of one grid schedule."""
    part = PARTITIONERS[partitioner](n, p)
    sched = build_schedule(kind, name, p, n, part=part)
    digest = hashlib.sha256(repr(sched.plans).encode()).hexdigest()
    cost = {label: estimate_schedule_cost(sched, machine.latency,
                                          blocking=blocking,
                                          overhead=overhead)
            for label, (overhead, blocking) in regimes.items()}
    return {"sha256": digest, "cost": cost}


def analytic_points() -> list[SweepPoint]:
    return [SweepPoint(kind, stack, n, p)
            for kind in ANALYTIC_KINDS
            for stack in STACKS + ("tuned",)
            for n in ANALYTIC_SIZES
            for p in PS]


def compute() -> dict:
    machine = Machine(SCCConfig())
    regimes = overheads(machine)
    schedules = {}
    for kind, name in schedule_names():
        for p in PS:
            for n in SIZES:
                for partitioner in sorted(PARTITIONERS):
                    schedules[schedule_key(kind, name, p, n, partitioner)] = \
                        schedule_entry(kind, name, p, n, partitioner,
                                       machine, regimes)
    analytic = {point.describe(): analytic_latency_us(point)
                for point in analytic_points()}
    return {"schedules": schedules, "analytic": analytic}


def load() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def dumps(golden: dict) -> str:
    """JSON with one line per entry, so a regeneration diffs readably."""
    sections = []
    for section, entries in golden.items():
        rows = ",\n".join(f"{json.dumps(key)}: {json.dumps(value)}"
                           for key, value in sorted(entries.items()))
        sections.append(f"{json.dumps(section)}: {{\n{rows}\n}}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


def main() -> None:
    golden = compute()
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(dumps(golden))
    print(f"wrote {len(golden['schedules'])} schedules and "
          f"{len(golden['analytic'])} analytic points to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
