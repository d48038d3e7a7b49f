"""Property-based tests for the free pool."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PoolExhaustedError
from repro.netbase.prefix import IPv4Prefix
from repro.registry.pool import FreePool
from tests.registry.pool_oracle import FreePool as OracleFreePool

INITIAL = IPv4Prefix.parse("10.0.0.0/12")

#: Sequences of allocation requests (prefix lengths 13..26).
request_lists = st.lists(st.integers(min_value=13, max_value=26),
                         max_size=60)


class TestPoolInvariants:
    @settings(max_examples=60)
    @given(request_lists)
    def test_accounting_is_exact(self, lengths):
        pool = FreePool([INITIAL])
        outstanding = []
        for length in lengths:
            try:
                outstanding.append(pool.allocate(length))
            except PoolExhaustedError:
                pass
        allocated = sum(b.num_addresses for b in outstanding)
        assert pool.available_addresses() == (
            INITIAL.num_addresses - allocated
        )

    @settings(max_examples=60)
    @given(request_lists)
    def test_allocations_are_disjoint_and_in_bounds(self, lengths):
        pool = FreePool([INITIAL])
        outstanding = []
        for length in lengths:
            try:
                outstanding.append(pool.allocate(length))
            except PoolExhaustedError:
                pass
        ordered = sorted(outstanding)
        for block in ordered:
            assert INITIAL.covers(block)
        for left, right in zip(ordered, ordered[1:]):
            assert not left.overlaps(right)

    @settings(max_examples=60)
    @given(request_lists)
    def test_full_return_restores_pool(self, lengths):
        pool = FreePool([INITIAL])
        outstanding = []
        for length in lengths:
            try:
                outstanding.append(pool.allocate(length))
            except PoolExhaustedError:
                pass
        for block in outstanding:
            pool.add(block)
        assert list(pool.blocks()) == [INITIAL]

    @settings(max_examples=40)
    @given(request_lists, st.randoms(use_true_random=False))
    def test_interleaved_alloc_free(self, lengths, rng):
        pool = FreePool([INITIAL])
        outstanding = []
        for length in lengths:
            if outstanding and rng.random() < 0.4:
                pool.add(outstanding.pop(rng.randrange(len(outstanding))))
            try:
                outstanding.append(pool.allocate(length))
            except PoolExhaustedError:
                pass
            allocated = sum(b.num_addresses for b in outstanding)
            assert pool.available_addresses() == (
                INITIAL.num_addresses - allocated
            )


#: Space the differential runs carve from: two disjoint starting blocks
#: of different sizes, so best fit has a choice of source lengths.
DIFF_INITIAL = (
    IPv4Prefix.parse("10.0.0.0/12"),
    IPv4Prefix.parse("10.32.0.0/14"),
)
DIFF_BASE = DIFF_INITIAL[0].network

#: One step of a random operation sequence: an operation code, a prefix
#: length and an offset into the 10.0.0.0/10 window (so drawn prefixes
#: land inside, across and outside the starting blocks).
operations = st.lists(
    st.tuples(
        st.sampled_from(
            ["allocate", "allocate", "allocate", "specific", "return",
             "add", "probe"]
        ),
        st.integers(min_value=9, max_value=28),
        st.integers(min_value=0, max_value=(1 << 22) - 1),
    ),
    max_size=80,
)


def _outcome(call):
    """The call's value, or the type of the error it raised."""
    try:
        return call()
    except (PoolExhaustedError, ValueError) as exc:
        return type(exc)


def _state(pool):
    return (
        list(pool.blocks()),
        len(pool),
        bool(pool),
        pool.available_addresses(),
        pool.aggregated(),
    )


class TestAgainstOracle:
    """The packed pool answers every call as the prefix-bucket oracle."""

    @settings(max_examples=150, deadline=None)
    @given(operations)
    def test_random_operation_sequences(self, steps):
        pool = FreePool(list(DIFF_INITIAL))
        oracle = OracleFreePool(list(DIFF_INITIAL))
        outstanding = []
        for op, length, offset in steps:
            drawn = IPv4Prefix(DIFF_BASE + offset, length, strict=False)
            if op == "allocate":
                got = _outcome(lambda: pool.allocate(length))
                assert got == _outcome(lambda: oracle.allocate(length))
                if isinstance(got, IPv4Prefix):
                    outstanding.append(got)
            elif op == "specific":
                if outstanding and offset % 3 == 0:
                    # A block just handed out: no longer free.
                    drawn = outstanding[offset % len(outstanding)]
                got = _outcome(lambda: pool.allocate_specific(drawn))
                assert got == _outcome(
                    lambda: oracle.allocate_specific(drawn))
                if isinstance(got, IPv4Prefix):
                    outstanding.append(got)
            elif op == "return" and outstanding:
                block = outstanding.pop(offset % len(outstanding))
                assert _outcome(lambda: pool.add(block)) == _outcome(
                    lambda: oracle.add(block))
            elif op == "add":
                # Arbitrary space: may duplicate, overlap or merge.
                assert _outcome(lambda: pool.add(drawn)) == _outcome(
                    lambda: oracle.add(drawn))
            assert pool.can_allocate(length) == oracle.can_allocate(length)
            assert (drawn in pool) == (drawn in oracle)
            assert _state(pool) == _state(oracle)

    @settings(max_examples=60, deadline=None)
    @given(operations)
    def test_copy_is_independent(self, steps):
        pool = FreePool(list(DIFF_INITIAL))
        for _op, length, _offset in steps[: len(steps) // 2]:
            _outcome(lambda: pool.allocate(length))
        before = _state(pool)
        twin = pool.copy()
        assert _state(twin) == before
        for _op, length, _offset in steps[len(steps) // 2:]:
            _outcome(lambda: twin.allocate(length))
        assert _state(pool) == before
