"""Analytic schedule pricing for the algorithm selector.

The simulator gives exact virtual times, but pricing every candidate
schedule through a full SPMD run per ``(kind, p, n)`` point would make
tuning as expensive as the benchmark sweeps themselves.  Instead the
selector uses a BSP-style estimate over the builder's round tags:

* every message is priced through the *real* memoized
  :class:`~repro.hw.timing.LatencyModel` (MPB write + flag handshake +
  MPB read, at the actual core-to-core distances of the rank placement);
* within a round each rank's step costs add up; the round costs the
  **maximum** over ranks (the tightly coupled algorithms synchronize
  every round, so the slowest rank paces it);
* rounds add up along the schedule, plus the untagged prologue steps
  (operand staging) and epilogue steps (Bruck's rotation).

This deliberately ignores cross-round pipelining skew — it is a *ranking
heuristic*, not the simulator, and ``tests/sched/test_select.py`` holds
it only to ordering the repertoire sensibly (trees beat rings for short
vectors, reduce-scatter pipelines beat trees for long ones), never to
matching simulated latencies.

The analytic benchmark engine (:mod:`repro.bench.analytic`) reuses the
same estimator but additionally charges the per-call *software* costs the
simulator models — the calibrated library-call cycles that differentiate
the blocking, iRCCE and lightweight stacks on identical hardware.  Those
enter through the optional :class:`SoftwareOverhead` parameter; with the
default ``overhead=None`` every function below behaves exactly as before
(the selection tables and the ``tuned`` stack are unaffected).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional

from repro.hw.timing import LatencyModel
from repro.sched.ir import (
    CopyBlock,
    Exchange,
    Recv,
    ReduceRecv,
    Rotate,
    Schedule,
    Send,
)

#: The paper's element type: IEEE doubles.
ELEMENT_BYTES = 8


@dataclass(frozen=True)
class SoftwareOverhead:
    """Per-call software costs (picoseconds) of one point-to-point stack.

    ``send_ps``/``recv_ps`` are charged per :class:`~repro.sched.ir.Send`
    and :class:`~repro.sched.ir.Recv` side of a step — for the blocking
    stack these are the RCCE send/recv call cycles, for the non-blocking
    stacks the issue + completion cycles of one request.  ``call_ps`` is
    the collective-layer entry cost, charged once per schedule by
    :func:`estimate_schedule_cost`.

    The selector passes ``overhead=None`` (all-zero, the historical
    behavior); the analytic benchmark engine builds one instance per
    stack from the machine's :class:`~repro.hw.config.SCCConfig` — see
    :func:`repro.bench.analytic.stack_overhead`.
    """

    send_ps: int = 0
    recv_ps: int = 0
    call_ps: int = 0


#: The all-zero overhead used when ``overhead=None`` is passed.
_NO_OVERHEAD = SoftwareOverhead()

#: Phase keys of untagged steps before / after a rank's tagged rounds.
_PROLOGUE = object()
_EPILOGUE = object()


def message_cost(model: LatencyModel, src: int, dst: int,
                 nels: int) -> int:
    """Price one ``src -> dst`` vector transfer (picoseconds).

    One hop through the sender's MPB: the sender stages the payload into
    its own buffer and raises the receiver's flag; the receiver notices
    and pulls the payload across the mesh.  Zero-length vectors still
    pay the flag handshake — the protocol runs regardless, which is why
    the seed's empty-block ring steps are not free.

    The composed cost is memoized in the model's own per-erratum-level
    table (like every primitive it is built from), so ``invalidate()``
    and the fault injector's erratum toggle stay correct: pricing a full
    pairwise-alltoall schedule touches thousands of (src, dst) pairs and
    the four-primitive recomputation dominates the analytic engine's
    wall-clock otherwise.
    """
    memo = (model._memo[model.config.erratum_enabled]
            if model._cache_enabled else None)
    if memo is not None:
        key = ("msgcost", src, dst, nels)
        value = memo.get(key)
        if value is not None:
            return value
    nbytes = nels * ELEMENT_BYTES
    value = (model.mpb_write_bytes(src, src, nbytes)
             + model.flag_write(src, dst)
             + model.flag_notify(dst, src)
             + model.mpb_read_bytes(dst, src, nbytes))
    if memo is not None:
        memo[key] = value
    return value


def handshake_cost(model: LatencyModel, src: int, dst: int) -> int:
    """The back-channel half of the Fig.-3 flag protocol (picoseconds).

    :func:`message_cost` prices the *forward* path only (payload staging,
    sent-flag raise, the receiver's successful poll, payload drain) —
    enough to rank schedules.  The simulated protocol additionally
    clears the sent flag (receiver, local MPB), raises the ready flag
    (receiver -> sender's MPB), polls it (sender, local) and clears it
    (sender, local).  The analytic engine adds these four flag
    operations per message so its estimates track simulated latencies
    instead of merely ordering them.
    """
    memo = (model._memo[model.config.erratum_enabled]
            if model._cache_enabled else None)
    if memo is not None:
        key = ("hscost", src, dst)
        value = memo.get(key)
        if value is not None:
            return value
    value = (model.flag_write(dst, dst)       # sent.clear
             + model.flag_write(dst, src)     # ready.set
             + model.flag_notify(src, src)    # ready poll
             + model.flag_write(src, src))    # ready.clear
    if memo is not None:
        memo[key] = value
    return value


def _copy_pair_cost(model: LatencyModel, src: int, dst: int,
                    nels: int) -> int:
    """MPB write (at ``src``) + mesh read (by ``dst``) of one payload."""
    memo = (model._memo[model.config.erratum_enabled]
            if model._cache_enabled else None)
    if memo is not None:
        key = ("cpcost", src, dst, nels)
        value = memo.get(key)
        if value is not None:
            return value
    nbytes = nels * ELEMENT_BYTES
    value = (model.mpb_write_bytes(src, src, nbytes)
             + model.mpb_read_bytes(dst, src, nbytes))
    if memo is not None:
        memo[key] = value
    return value


def step_cost(model: LatencyModel, step, rank: int, *,
              blocking: bool = False,
              buffers: Optional[dict] = None,
              overhead: Optional[SoftwareOverhead] = None) -> int:
    """Price one IR step as seen by ``rank`` (picoseconds).

    ``buffers`` (the schedule's name -> element-count mapping) is needed
    only to price :class:`~repro.sched.ir.Rotate`, whose operand is a
    whole buffer rather than an interval.

    ``overhead`` switches between the two pricing regimes:

    * ``None`` (the selector) — hardware forward-path costs only, with
      non-blocking exchanges overlapping (``max``).  This is the
      historical ranking heuristic, bit-for-bit.
    * a :class:`SoftwareOverhead` (the analytic engine) — adds the
      stack's per-call software cycles and the full flag handshake
      (:func:`handshake_cost`), and prices exchanges by stack: blocking
      rendezvous drains the two directions serially (both copies, both
      partners' call overheads); the non-blocking stacks pay both
      directions' flag traffic but only one direction's copy pair — each
      endpoint's CPU performs just its own write and read while the
      partner copies concurrently.
    """
    if overhead is None:
        return _step_cost_hw(model, step, rank, blocking=blocking,
                             buffers=buffers)
    ov = overhead
    if isinstance(step, Send):
        return (ov.send_ps
                + message_cost(model, rank, step.peer, step.data.nels)
                + handshake_cost(model, rank, step.peer))
    if isinstance(step, Recv):
        return (ov.recv_ps
                + message_cost(model, step.peer, rank, step.data.nels)
                + handshake_cost(model, step.peer, rank))
    if isinstance(step, ReduceRecv):
        return (ov.recv_ps
                + message_cost(model, step.peer, rank, step.data.nels)
                + handshake_cost(model, step.peer, rank)
                + model.reduce_doubles(step.data.nels))
    if isinstance(step, Exchange):
        cost = 0
        copies = []
        # On the blocking stack the exchange is a rendezvous in lockstep
        # with the partner's complementary recv/send pair, so *both*
        # endpoints' call overheads sit on each direction's critical
        # path; the non-blocking stacks overlap the partner's call work
        # with the transfer waits.
        coupling = ov.send_ps + ov.recv_ps if blocking else 0
        if step.send_peer is not None:
            copies.append(_copy_pair_cost(model, rank, step.send_peer,
                                          step.send.nels))
            cost += (ov.send_ps + coupling
                     + message_cost(model, rank, step.send_peer, 0)
                     + handshake_cost(model, rank, step.send_peer))
        if step.recv_peer is not None:
            copies.append(_copy_pair_cost(model, step.recv_peer, rank,
                                          step.recv.nels))
            cost += (ov.recv_ps
                     + message_cost(model, step.recv_peer, rank, 0)
                     + handshake_cost(model, step.recv_peer, rank))
        # Copy time: the blocking rendezvous drains each direction fully
        # before the next starts (sum); on the non-blocking stacks each
        # endpoint's CPU performs only its *own* write and read — the
        # partner's copies run concurrently on the partner's core — so a
        # symmetric exchange pays for one direction's copy pair (the max
        # covers asymmetric block sizes).
        if copies:
            cost += sum(copies) if blocking else max(copies)
        if step.reduce and step.recv.nels:
            cost += model.reduce_doubles(step.recv.nels)
        return cost
    if isinstance(step, CopyBlock):
        if step.charged:
            return model.private_copy_bytes(step.src.nels * ELEMENT_BYTES)
        return 0
    if isinstance(step, Rotate):
        nels = buffers[step.buf] if buffers is not None else 0
        return model.private_copy_bytes(nels * ELEMENT_BYTES)
    raise TypeError(f"unknown schedule step {step!r}")


def _step_cost_hw(model: LatencyModel, step, rank: int, *,
                  blocking: bool = False,
                  buffers: Optional[dict] = None) -> int:
    """The hardware-only regime (the selector's historical behavior)."""
    if isinstance(step, Send):
        return message_cost(model, rank, step.peer, step.data.nels)
    if isinstance(step, Recv):
        return message_cost(model, step.peer, rank, step.data.nels)
    if isinstance(step, ReduceRecv):
        return (message_cost(model, step.peer, rank, step.data.nels)
                + model.reduce_doubles(step.data.nels))
    if isinstance(step, Exchange):
        out = (message_cost(model, rank, step.send_peer, step.send.nels)
               if step.send_peer is not None else 0)
        inn = (message_cost(model, step.recv_peer, rank, step.recv.nels)
               if step.recv_peer is not None else 0)
        cost = out + inn if blocking else max(out, inn)
        if step.reduce and step.recv.nels:
            cost += model.reduce_doubles(step.recv.nels)
        return cost
    if isinstance(step, CopyBlock):
        if step.charged:
            return model.private_copy_bytes(step.src.nels * ELEMENT_BYTES)
        return 0
    if isinstance(step, Rotate):
        # One private-memory pass over the whole buffer.
        nels = buffers[step.buf] if buffers is not None else 0
        return model.private_copy_bytes(nels * ELEMENT_BYTES)
    raise TypeError(f"unknown schedule step {step!r}")


def schedule_cost_key(sched: Schedule, *, blocking: bool,
                      overhead: Optional[SoftwareOverhead]) -> tuple:
    """Memo key for one whole-schedule estimate.

    The schedule enters by **identity** (``id(sched)``), next to the
    pricing regime.  Distinct live schedules never share an identity, so
    a chunked variant, a differently partitioned build or a hand-mutated
    copy (the verifier's broken fixtures) can never be served another
    schedule's estimate.  :func:`estimate_schedule_cost` ties every entry
    to its schedule's lifetime (a :func:`weakref.finalize` drops it when
    the schedule is collected), so an identity that a later object
    reuses never finds a stale estimate, and the memo holds entries only
    for live schedules.  Builders return cached instances
    (:func:`repro.sched.builders.build_schedule`), so repeated pricing of
    one schedule still hits.  The key costs O(1), where hashing the plans
    would walk every step of the schedule on every call.
    """
    return ("schedcost", id(sched), blocking, overhead)


def _forget_schedule_cost(model_ref: "weakref.ref[LatencyModel]",
                          key: tuple) -> None:
    """Finalizer: drop a collected schedule's estimate from its model."""
    model = model_ref()
    if model is not None:
        for memo in model._memo:
            memo.pop(key, None)


def invalidate_schedule_costs(model: LatencyModel) -> int:
    """Drop every memoized whole-schedule estimate from ``model``.

    The mirror of :meth:`~repro.hw.timing.LatencyModel.invalidate` for
    the schedule level: the estimates live inside the model's own
    per-erratum-level memo, so a full ``model.invalidate()`` (config
    mutation) already clears them — this narrower hook is for when the
    *schedule* side changes (a transform under development, a rebuilt
    repertoire) while the hardware latencies are still good.  Returns
    the number of entries dropped (both erratum levels).
    """
    dropped = 0
    for memo in model._memo:
        stale = [key for key in memo
                 if isinstance(key, tuple) and key
                 and key[0] == "schedcost"]
        for key in stale:
            del memo[key]
        dropped += len(stale)
    return dropped


def estimate_schedule_cost(sched: Schedule, model: LatencyModel, *,
                           blocking: bool = False,
                           overhead: Optional[SoftwareOverhead] = None) -> int:
    """BSP estimate of the schedule makespan (picoseconds).

    Sums, over the ordered sequence of round tags, the maximum per-rank
    cost of that round.  Untagged steps are grouped by their position
    relative to the tagged rounds (prologue before, epilogue after).
    With ``overhead`` set, every message side additionally pays the
    stack's per-call software cost and the total includes one
    collective-layer entry charge (``overhead.call_ps``).

    Whole-schedule results are memoized in the model's per-erratum
    table under :func:`schedule_cost_key` — the synthesizer prices the
    same candidates across repeated searches and the tuned stack's
    fallback prices per call site, so the second look-up of any
    ``(schedule, regime)`` pair is a dict hit.  Each entry lives as long
    as its schedule does.
    """
    sched_memo = (model._memo[model.config.erratum_enabled]
                  if model._cache_enabled else None)
    cache_key = None
    if sched_memo is not None:
        cache_key = schedule_cost_key(sched, blocking=blocking,
                                      overhead=overhead)
        cached = sched_memo.get(cache_key)
        if cached is not None:
            return cached
    # phase -> the largest single-rank cost of that phase so far.  A
    # phase is a round tag, or a rank's untagged steps before (prologue)
    # or after (epilogue) its first tagged one.  The total sums integers,
    # so the order the phases appear in does not matter.
    phase_max: dict[object, int] = {}
    buffers = dict(sched.buffers)
    # Per-call step-cost memo (overhead regime only, where the analytic
    # engine prices thousands of steps per schedule).  Every overhead
    # cost is a pure function of the step *shape* and the mesh hop
    # distance to the peer — hops are symmetric and all MPB/flag
    # latencies depend on the core pair only through them — so steps
    # collapse onto a handful of (shape, hops, nels) keys even for
    # pairwise alltoall's p*(p-1) distinct core pairs.
    step_memo: dict = {}
    hop_table = None
    if overhead is not None:
        # Hop lookups happen once per step; the coordinate arithmetic in
        # Topology.hops costs more than the pricing it keys, so build the
        # full pairwise table once per model (stashed alongside the
        # model's other memoized latencies).
        memo = (model._memo[model.config.erratum_enabled]
                if model._cache_enabled else None)
        hop_table = memo.get("hoptbl") if memo is not None else None
        if hop_table is None:
            topo = model.topology
            n = topo.num_cores
            if topo.chips > 1:
                # Hops alone no longer determine the latency: the
                # inter-chip tier depends on the crossing count, so the
                # memo key must carry both.
                hop_table = [[(topo.hops(a, b), topo.chip_crossings(a, b))
                              for b in range(n)] for a in range(n)]
            else:
                hop_table = [[topo.hops(a, b) for b in range(n)]
                             for a in range(n)]
            if memo is not None:
                memo["hoptbl"] = hop_table
    for rank, plan in enumerate(sched.plans):
        rank_cost: dict[object, int] = {}
        seen_round = False
        for step in plan:
            key: object = step.round
            if key is not None:
                seen_round = True
            else:
                key = _EPILOGUE if seen_round else _PROLOGUE
            if overhead is None:
                cost = step_cost(model, step, rank, blocking=blocking,
                                 buffers=buffers, overhead=None)
            else:
                cls = step.__class__
                row = hop_table[rank]
                if cls is Exchange:
                    sp, rp = step.send_peer, step.recv_peer
                    memo_key = (
                        1,
                        row[sp] if sp is not None else -1,
                        step.send.nels if sp is not None else -1,
                        row[rp] if rp is not None else -1,
                        step.recv.nels if rp is not None else -1,
                        step.reduce)
                elif cls is Send:
                    memo_key = (2, row[step.peer], step.data.nels)
                elif cls is Recv:
                    memo_key = (3, row[step.peer], step.data.nels)
                elif cls is ReduceRecv:
                    memo_key = (4, row[step.peer], step.data.nels)
                elif cls is CopyBlock:
                    memo_key = (5, step.src.nels if step.charged else -1)
                elif cls is Rotate:
                    memo_key = (6, step.buf)
                else:
                    memo_key = None
                cost = (step_memo.get(memo_key)
                        if memo_key is not None else None)
                if cost is None:
                    cost = step_cost(model, step, rank, blocking=blocking,
                                     buffers=buffers, overhead=overhead)
                    if memo_key is not None:
                        step_memo[memo_key] = cost
            rank_cost[key] = rank_cost.get(key, 0) + cost
        for key, cost in rank_cost.items():
            if cost > phase_max.get(key, -1):
                phase_max[key] = cost
    total = sum(phase_max.values())
    if overhead is not None:
        total += overhead.call_ps
    if cache_key is not None:
        sched_memo[cache_key] = total
        weakref.finalize(sched, _forget_schedule_cost, weakref.ref(model),
                         cache_key).atexit = False
    return total
