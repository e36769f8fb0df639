"""Lifetime of the identity-keyed whole-schedule cost memo.

``estimate_schedule_cost`` keys its memo by the schedule object's
identity and drops the entry when the schedule is collected.  These
tests pin both halves: no estimate outlives its schedule, and a new
schedule that reuses a dead one's identity is priced afresh.  The
key-shape and invalidation tests live in ``test_synth.py``.
"""

import dataclasses
import gc

from repro.core.blocks import balanced_partition
from repro.hw.config import SCCConfig
from repro.hw.machine import Machine
from repro.sched.builders import BUILDERS
from repro.sched.cost import estimate_schedule_cost

P, N = 8, 64


def fresh_model():
    return Machine(SCCConfig()).latency


def fresh_ring():
    """A new, uncached ring-allgather schedule object."""
    return BUILDERS["allgather"]["ring"](P, N, balanced_partition(N, P), 0)


def schedcost_keys(model):
    return [key for memo in model._memo for key in memo
            if isinstance(key, tuple) and key and key[0] == "schedcost"]


def staging_plans(sched):
    """Plans that keep every rank's staging copy and drop the ring."""
    return tuple(plan[:1] for plan in sched.plans)


def test_entries_die_with_their_schedule():
    model = fresh_model()
    sched = fresh_ring()
    estimate_schedule_cost(sched, model)
    estimate_schedule_cost(sched, model, blocking=True)
    assert len(schedcost_keys(model)) == 2
    del sched
    gc.collect()
    assert schedcost_keys(model) == []


def test_memo_does_not_grow_with_rebuilt_schedules():
    model = fresh_model()
    costs = {estimate_schedule_cost(fresh_ring(), model) for _ in range(50)}
    gc.collect()
    assert len(costs) == 1
    assert schedcost_keys(model) == []


def test_mutant_built_after_original_died_is_priced_afresh():
    model = fresh_model()
    template = fresh_ring()
    staged = staging_plans(template)
    ring_cost = estimate_schedule_cost(fresh_ring(), fresh_model())
    staged_cost = estimate_schedule_cost(
        dataclasses.replace(template, plans=staged), fresh_model())
    assert staged_cost != ring_cost

    reused = 0
    for _ in range(20):
        # A rebuilt copy of the ring: it owns only its Schedule object, so
        # dropping it frees exactly the memory the next Schedule takes.
        original = dataclasses.replace(template)
        dead_id = id(original)
        assert estimate_schedule_cost(original, model) == ring_cost
        del original  # refcount drop: freed (and finalized) right here
        assert all(key[1] != dead_id for key in schedcost_keys(model))
        mutant = dataclasses.replace(template, plans=staged)
        reused += id(mutant) == dead_id
        assert estimate_schedule_cost(mutant, model) == staged_cost
        del mutant
    # CPython hands a freed object's memory to the next allocation of the
    # same size, so mutants did take over dead originals' identities: the
    # case an identity key must not get wrong.
    assert reused


def test_live_mutant_never_shares_an_entry():
    model = fresh_model()
    original = fresh_ring()
    mutant = dataclasses.replace(original, plans=staging_plans(original))
    ring_cost = estimate_schedule_cost(original, model)
    assert estimate_schedule_cost(mutant, model) != ring_cost
    assert estimate_schedule_cost(original, model) == ring_cost
