"""Chunked and pipelined schedule transforms (the synthesis levers).

Two ways to grow the repertoire beyond the 13 hand-ported builders
(:mod:`repro.sched.builders`), both following SCCL's playbook
(PAPERS.md): treat an algorithm as data and rewrite it.

* :func:`chunk_schedule` — a *transform*: split every transfer of an
  existing schedule into ``c`` independently communicated sub-messages.
  Under the BSP cost model this only adds per-message constants (the
  sub-messages stay inside their original round), but under the
  *simulator* it changes rendezvous granularity: a blocking ring stalls
  in units of ``n/c`` instead of ``n`` wherever the odd-even ordering
  leaves a serialized link (odd ring sizes), so chunked rings win real
  simulated time there — see ``docs/schedules.md``.
* ``build_pipeline_*`` — *builders*: chain (linear-pipeline) algorithms
  whose round structure genuinely pipelines the chunks, the classic
  bandwidth lever the SCC paper never had.  A chunked chain moves a
  vector in ``p + c - 2`` rounds of ``n/c``-element messages, so for
  large ``n`` its critical path approaches ``n`` transferred bytes where
  the binomial trees pay ``log2(p) * n`` — the synthesizer's bread and
  butter wins.

Both emit schedules whose names carry the chunk count (``<base>+c<c>``
for transforms, ``pipeline_c<c>`` for chains); the ``synth/`` registry
prefix and name parsing live in :mod:`repro.sched.synth`.
"""

from __future__ import annotations

import dataclasses

from repro.core.blocks import Partition
from repro.sched.ir import (
    CopyBlock,
    Exchange,
    Interval,
    Recv,
    ReduceRecv,
    Rotate,
    Schedule,
    Send,
    Step,
)

from repro.sched.builders import _init_copy


def chunk_bounds(lo: int, hi: int, c: int) -> list[tuple[int, int]]:
    """Split ``[lo, hi)`` into ``min(c, nels)`` balanced sub-ranges.

    The leading ranges take the remainder elements (like
    :func:`repro.core.blocks.standard_partition`).  Both endpoints of a
    matched transfer split their (equal-length) intervals with this one
    function, so sub-message ``k`` has the same size on both sides —
    the property the FIFO matching of chunked schedules relies on.
    Empty ranges never appear: a zero-length interval yields one
    zero-length sub-range (the step is kept whole).
    """
    nels = hi - lo
    parts = max(1, min(c, nels))
    base, extra = divmod(nels, parts)
    bounds = []
    cur = lo
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        bounds.append((cur, cur + size))
        cur += size
    return bounds


def _split_iv(iv: Interval, c: int) -> list[Interval]:
    return [Interval(iv.buf, lo, hi)
            for lo, hi in chunk_bounds(iv.lo, iv.hi, c)]


def _chunk_step(step: Step, c: int) -> list[Step]:
    """Rewrite one step into its per-chunk sub-steps.

    Communication steps split into up to ``c`` sub-transfers carrying
    the original round tag (the BSP phase structure is preserved; only
    the message granularity changes).  An exchange whose two sides have
    different lengths (uneven partitions, Bruck) pairs sub-intervals
    index-wise and lets the shorter side run out — the tail sub-steps
    go one-sided, exactly mirroring the partner's split of the equal-
    length interval.  Local steps (copies, rotations) stay whole: they
    pay an affine per-call cost, so splitting them only adds startup.
    """
    if isinstance(step, (Send, Recv, ReduceRecv)):
        ivs = _split_iv(step.data, c)
        if len(ivs) == 1:
            return [step]
        return [dataclasses.replace(step, data=iv) for iv in ivs]
    if isinstance(step, Exchange):
        sends = _split_iv(step.send, c) if step.send is not None else []
        recvs = _split_iv(step.recv, c) if step.recv is not None else []
        parts = max(len(sends), len(recvs))
        if parts == 1:
            return [step]
        out: list[Step] = []
        for k in range(parts):
            s = sends[k] if k < len(sends) else None
            r = recvs[k] if k < len(recvs) else None
            out.append(Exchange(
                send_peer=step.send_peer if s is not None else None,
                send=s,
                recv_peer=step.recv_peer if r is not None else None,
                recv=r,
                send_first=step.send_first,
                reduce=step.reduce and r is not None,
                reversed_fold=step.reversed_fold and r is not None,
                round=step.round))
        return out
    if isinstance(step, (CopyBlock, Rotate)):
        return [step]
    raise TypeError(f"unknown schedule step {step!r}")


def chunk_schedule(sched: Schedule, c: int) -> Schedule:
    """Split every transfer of ``sched`` into ``c`` sub-messages.

    ``c <= 1`` returns the schedule unchanged.  The result is renamed
    ``<name>+c<c>`` and records the chunk layout in ``meta``.
    """
    if c <= 1:
        return sched
    plans = tuple(
        tuple(sub for step in plan for sub in _chunk_step(step, c))
        for plan in sched.plans)
    meta = dict(sched.meta)
    meta["chunks"] = c
    meta["base"] = sched.name
    return Schedule(sched.kind, f"{sched.name}+c{c}", sched.p, sched.n,
                    dict(sched.buffers), plans, meta)


# --------------------------------------------------------------------- #
# Pipelined chain builders
# --------------------------------------------------------------------- #
def _chain_meta(root: int, c: int) -> dict:
    return {"root": root, "chunks": c}


def build_pipeline_bcast(p: int, n: int, part: Partition, root: int,
                         c: int) -> Schedule:
    """Chunked linear-pipeline broadcast along the rank chain.

    Chunk ``k`` crosses the hop from chain position ``d`` to ``d + 1``
    in round ``d + k``; every interior rank forwards chunk ``k - 1``
    while receiving chunk ``k`` in one full-duplex exchange, so the
    whole vector reaches the last rank after ``p + c - 2`` rounds of
    ``n/c``-element messages.
    """
    bounds = chunk_bounds(0, n, c)
    parts = len(bounds)

    def iv(k: int) -> Interval:
        return Interval("work", bounds[k][0], bounds[k][1])

    plans = []
    for me in range(p):
        d = (me - root) % p
        steps: list[Step] = []
        if me == root:
            steps.append(_init_copy(me, n))
            if p > 1:
                nxt = (me + 1) % p
                for k in range(parts):
                    steps.append(Send(nxt, iv(k), round=k))
        elif d == p - 1:
            prev = (me - 1) % p
            for k in range(parts):
                steps.append(Recv(prev, iv(k), round=d - 1 + k))
        else:
            prev, nxt = (me - 1) % p, (me + 1) % p
            steps.append(Recv(prev, iv(0), round=d - 1))
            for k in range(1, parts):
                steps.append(Exchange(
                    send_peer=nxt, send=iv(k - 1),
                    recv_peer=prev, recv=iv(k),
                    send_first=True, round=d - 1 + k))
            steps.append(Send(nxt, iv(parts - 1), round=d - 1 + parts))
        plans.append(tuple(steps))
    return Schedule("bcast", f"pipeline_c{c}", p, n, {"in": n, "work": n},
                    tuple(plans), _chain_meta(root, c))


def build_pipeline_reduce(p: int, n: int, part: Partition, root: int,
                          c: int) -> Schedule:
    """Chunked linear-pipeline reduction down the rank chain to ``root``.

    The mirror image of :func:`build_pipeline_bcast`: partial sums flow
    from the far end of the chain toward the root, each interior rank
    folding chunk ``k`` while forwarding the already-folded chunk
    ``k - 1``.
    """
    bounds = chunk_bounds(0, n, c)
    parts = len(bounds)

    def iv(k: int) -> Interval:
        return Interval("work", bounds[k][0], bounds[k][1])

    plans = []
    for me in range(p):
        d = (me - root) % p
        steps: list[Step] = [_init_copy(me, n)]
        if p > 1:
            if d == p - 1:
                down = (me - 1) % p
                for k in range(parts):
                    steps.append(Send(down, iv(k), round=k))
            elif d == 0:
                up = (me + 1) % p
                for k in range(parts):
                    steps.append(ReduceRecv(up, iv(k),
                                            round=p - 2 + k))
            else:
                up, down = (me + 1) % p, (me - 1) % p
                base = p - 2 - d
                steps.append(ReduceRecv(up, iv(0), round=base))
                for k in range(1, parts):
                    steps.append(Exchange(
                        send_peer=down, send=iv(k - 1),
                        recv_peer=up, recv=iv(k),
                        send_first=True, reduce=True,
                        round=base + k))
                steps.append(Send(down, iv(parts - 1),
                                  round=base + parts))
        plans.append(tuple(steps))
    return Schedule("reduce", f"pipeline_c{c}", p, n, {"in": n, "work": n},
                    tuple(plans), _chain_meta(root, c))


def build_pipeline_scan(p: int, n: int, part: Partition, root: int,
                        c: int) -> Schedule:
    """Chunked linear-pipeline inclusive prefix scan.

    Rank ``me`` folds the incoming prefix of ranks ``0..me-1`` into its
    operand chunk by chunk (``op(received, local)``, the scan
    convention) and forwards the completed prefix downstream — ``p + c``
    rounds of ``n/c`` messages against recursive doubling's
    ``log2(p)`` rounds of whole vectors.
    """
    bounds = chunk_bounds(0, n, c)
    parts = len(bounds)

    def iv(k: int) -> Interval:
        return Interval("work", bounds[k][0], bounds[k][1])

    plans = []
    for me in range(p):
        steps: list[Step] = [_init_copy(me, n)]
        if p > 1:
            if me == 0:
                for k in range(parts):
                    steps.append(Send(me + 1, iv(k), round=k))
            else:
                fold = dict(reduce=True, reversed_fold=True)
                steps.append(Exchange(
                    send_peer=None, send=None,
                    recv_peer=me - 1, recv=iv(0),
                    send_first=False, round=me - 1, **fold))
                for k in range(1, parts):
                    if me < p - 1:
                        steps.append(Exchange(
                            send_peer=me + 1, send=iv(k - 1),
                            recv_peer=me - 1, recv=iv(k),
                            send_first=True, round=me - 1 + k, **fold))
                    else:
                        steps.append(Exchange(
                            send_peer=None, send=None,
                            recv_peer=me - 1, recv=iv(k),
                            send_first=False, round=me - 1 + k, **fold))
                if me < p - 1:
                    steps.append(Send(me + 1, iv(parts - 1),
                                      round=me - 1 + parts))
        plans.append(tuple(steps))
    return Schedule("scan", f"pipeline_c{c}", p, n, {"in": n, "work": n},
                    tuple(plans), _chain_meta(0, c))


def build_pipeline_allreduce(p: int, n: int, part: Partition, root: int,
                             c: int) -> Schedule:
    """Pipelined chain reduce to rank 0 chained into a pipelined bcast.

    Included for search-space breadth: the ring reduce-scatter +
    allgather already moves only ``2n`` bytes per rank, so this wins
    rarely — but the synthesizer prices it like any other candidate
    instead of us deciding by hand.
    """
    red = build_pipeline_reduce(p, n, part, 0, c)
    bc = build_pipeline_bcast(p, n, part, 0, c)
    parts = len(chunk_bounds(0, n, c))
    offset = p + parts - 1  # first free round index after the reduce
    plans = []
    for me in range(p):
        steps = list(red.plans[me])
        for step in bc.plans[me]:
            if isinstance(step, CopyBlock):
                continue  # the reduce phase already staged "work"
            steps.append(dataclasses.replace(
                step, round=step.round + offset))
        plans.append(tuple(steps))
    return Schedule("allreduce", f"pipeline_c{c}", p, n,
                    {"in": n, "work": n}, tuple(plans), _chain_meta(0, c))


#: kind -> chain-pipeline builder (parameterized over the chunk count).
PIPELINE_BUILDERS = {
    "bcast": build_pipeline_bcast,
    "reduce": build_pipeline_reduce,
    "scan": build_pipeline_scan,
    "allreduce": build_pipeline_allreduce,
}
