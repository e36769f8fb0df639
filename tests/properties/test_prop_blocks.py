"""Property-based tests for block partitioning (optimization C)."""

from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import (
    PARTITIONERS,
    Partition,
    balanced_partition,
    standard_partition,
)
from repro.sched.builders import block_intervals
from repro.sched.ir import Interval

counts = st.integers(min_value=0, max_value=5000)
ranks = st.integers(min_value=1, max_value=128)


@given(n=counts, p=ranks)
def test_standard_covers_exactly(n, p):
    part = standard_partition(n, p)
    assert sum(part.sizes) == n
    assert part.p == p


@given(n=counts, p=ranks)
def test_balanced_covers_exactly(n, p):
    part = balanced_partition(n, p)
    assert sum(part.sizes) == n
    assert part.p == p


@given(n=counts, p=ranks)
def test_slices_are_disjoint_and_ordered(n, p):
    for maker in (standard_partition, balanced_partition):
        part = maker(n, p)
        prev_stop = 0
        for b in range(p):
            s = part.slice_of(b)
            assert s.start == prev_stop
            assert s.stop - s.start == part.size(b)
            prev_stop = s.stop
        assert prev_stop == n


@given(n=counts, p=ranks)
def test_balanced_max_min_gap_at_most_one(n, p):
    part = balanced_partition(n, p)
    assert part.max_size() - part.min_size() <= 1


@given(n=counts, p=ranks)
def test_balanced_never_worse_than_standard(n, p):
    std = standard_partition(n, p)
    bal = balanced_partition(n, p)
    assert bal.max_size() <= std.max_size()
    assert bal.imbalance_ratio() <= std.imbalance_ratio() or (
        std.imbalance_ratio() == bal.imbalance_ratio() == 1.0)


@given(n=counts, p=ranks)
def test_standard_first_block_absorbs_remainder(n, p):
    part = standard_partition(n, p)
    assert part.size(0) == n // p + n % p
    for b in range(1, p):
        assert part.size(b) == n // p


@given(n=counts, p=ranks)
def test_balanced_sizes_monotonically_nonincreasing(n, p):
    part = balanced_partition(n, p)
    sizes = list(part.sizes)
    assert sizes == sorted(sizes, reverse=True)


@settings(max_examples=30)
@given(n=st.integers(min_value=1, max_value=2000),
       p=st.integers(min_value=1, max_value=64))
def test_offsets_match_cumulative_sums(n, p):
    part = balanced_partition(n, p)
    acc = 0
    for b in range(p):
        assert part.offset(b) == acc
        acc += part.size(b)


# --------------------------------------------------------------------- #
# Edge cases the ring algorithms must tolerate: fewer elements than
# ranks (n < p), empty vectors (n == 0), and the off-by-one boundary
# n == p - 1.
# --------------------------------------------------------------------- #

@given(p=ranks, n=st.integers(min_value=0, max_value=127))
def test_fewer_elements_than_ranks(n, p):
    if n >= p:
        n = n % p  # force the n < p regime
    std = standard_partition(n, p)
    bal = balanced_partition(n, p)
    # Standard splitting degenerates: block 0 absorbs everything.
    assert std.size(0) == n
    assert all(std.size(b) == 0 for b in range(1, p))
    # Balanced splitting caps every block at one element (gap <= 1).
    assert bal.max_size() <= 1
    assert bal.max_size() - bal.min_size() <= 1
    assert sum(1 for s in bal.sizes if s == 1) == n


@given(p=ranks)
def test_empty_vector_is_trivially_balanced(p):
    for maker in (standard_partition, balanced_partition):
        part = maker(0, p)
        assert part.sizes == (0,) * p
        assert part.imbalance_ratio() == 1.0


@given(p=st.integers(min_value=2, max_value=128))
def test_one_less_element_than_ranks(p):
    n = p - 1
    std = standard_partition(n, p)
    bal = balanced_partition(n, p)
    # Standard: the whole vector lands on rank 0, imbalance unbounded.
    assert std.size(0) == n
    assert std.imbalance_ratio() == float("inf")
    # Balanced: exactly one empty block, all others one element.
    assert bal.sizes == (1,) * (p - 1) + (0,)
    assert bal.max_size() - bal.min_size() <= 1


# --------------------------------------------------------------------- #
# Prefix offsets and the builders' shared block intervals, over arbitrary
# block-size tuples (zero-size blocks included) and both partitioners
# (n < p included).
# --------------------------------------------------------------------- #

@st.composite
def partitions(draw):
    if draw(st.booleans()):
        sizes = tuple(draw(st.lists(st.integers(min_value=0, max_value=40),
                                    min_size=1, max_size=64)))
        return Partition(sum(sizes), sizes)
    maker = PARTITIONERS[draw(st.sampled_from(sorted(PARTITIONERS)))]
    p = draw(ranks)
    return maker(draw(st.integers(min_value=0, max_value=3 * p)), p)


@given(partitions())
def test_offsets_are_prefix_sums(part):
    for b in range(part.p + 1):
        assert part.offset(b) == sum(part.sizes[:b])


@given(partitions())
def test_slice_of_tiles_the_vector(part):
    covered = 0
    for b in range(part.p):
        s = part.slice_of(b)
        assert (s.start, s.stop) == (covered, covered + part.size(b))
        covered = s.stop
    assert covered == part.n


@given(partitions())
def test_shared_block_intervals_match_offsets(part):
    assert block_intervals(part) == tuple(
        Interval("work", part.offset(b), part.offset(b) + part.size(b))
        for b in range(part.p))


@given(partitions())
def test_offsets_stay_out_of_fields_equality_and_repr(part):
    twin = Partition(part.n, tuple(part.sizes))
    assert twin == part and hash(twin) == hash(part)
    assert repr(part) == f"Partition(n={part.n}, sizes={part.sizes!r})"
    assert [f.name for f in fields(part)] == ["n", "sizes"]
