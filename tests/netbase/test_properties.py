"""Property-based tests for the netbase data structures."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netbase.prefix import MAX_ADDRESS, IPv4Prefix, format_address, parse_address
from repro.netbase.prefixset import PrefixSet, address_count, aggregate
from repro.netbase.trie import PrefixTrie

addresses = st.integers(min_value=0, max_value=MAX_ADDRESS)
lengths = st.integers(min_value=0, max_value=32)


@st.composite
def prefixes(draw):
    return IPv4Prefix(draw(addresses), draw(lengths), strict=False)


prefix_lists = st.lists(prefixes(), max_size=60)


@st.composite
def clustered_prefix_lists(draw):
    """Lists whose blocks overlap on purpose: each new block is a fresh
    random one, a duplicate, a block nested in an earlier one, a cover
    of an earlier one, an earlier one's sibling, or a /0 or /32."""
    blocks = []
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        kind = draw(st.sampled_from(
            ["fresh", "duplicate", "nested", "cover", "sibling", "edge"]
        ))
        if kind == "fresh" or not blocks:
            blocks.append(draw(prefixes()))
            continue
        member = draw(st.sampled_from(blocks))
        if kind == "duplicate":
            blocks.append(member)
        elif kind == "nested":
            offset = draw(st.integers(0, member.num_addresses - 1))
            length = draw(st.integers(member.length, 32))
            blocks.append(
                IPv4Prefix(member.network + offset, length, strict=False)
            )
        elif kind == "cover":
            blocks.append(member.supernet(
                draw(st.integers(0, member.length))
            ))
        elif kind == "sibling":
            if member.length > 0:
                blocks.append(member.sibling())
        else:
            blocks.append(IPv4Prefix(
                draw(addresses), draw(st.sampled_from([0, 32])), strict=False
            ))
    return blocks


class TestPrefixProperties:
    @given(addresses)
    def test_address_round_trip(self, value):
        assert parse_address(format_address(value)) == value

    @given(prefixes())
    def test_str_round_trip(self, prefix):
        assert IPv4Prefix.parse(str(prefix)) == prefix

    @given(prefixes())
    def test_network_within_block(self, prefix):
        assert prefix.contains_address(prefix.network)
        assert prefix.contains_address(prefix.broadcast)
        assert prefix.broadcast - prefix.network + 1 == prefix.num_addresses

    @given(prefixes())
    def test_supernet_covers(self, prefix):
        if prefix.length > 0:
            parent = prefix.supernet()
            assert parent.covers(prefix)
            assert prefix.is_subnet_of(parent)

    @given(prefixes())
    def test_halves_partition(self, prefix):
        if prefix.length < 32:
            low, high = prefix.halves()
            assert low.network == prefix.network
            assert high.broadcast == prefix.broadcast
            assert low.broadcast + 1 == high.network
            assert not low.overlaps(high)

    @given(prefixes(), prefixes())
    def test_cover_antisymmetry(self, a, b):
        if a.covers(b) and b.covers(a):
            assert a == b

    @given(prefixes(), prefixes())
    def test_overlap_symmetric(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)

    @given(addresses, addresses)
    def test_from_range_covers_exactly(self, x, y):
        first, last = min(x, y), max(x, y)
        blocks = IPv4Prefix.from_range(first, last)
        assert sum(b.num_addresses for b in blocks) == last - first + 1
        assert blocks[0].network == first
        assert blocks[-1].broadcast == last
        for left, right in zip(blocks, blocks[1:]):
            assert left.broadcast + 1 == right.network


class TestAggregateProperties:
    @given(prefix_lists)
    def test_aggregate_preserves_address_set(self, blocks):
        merged = aggregate(blocks)
        # Same covered-address count...
        raw = set()
        for b in blocks:
            if b.length >= 24:
                raw.update(range(b.network, b.broadcast + 1))
        if all(b.length >= 24 for b in blocks):
            agg_addresses = set()
            for b in merged:
                agg_addresses.update(range(b.network, b.broadcast + 1))
            assert agg_addresses == raw

    @given(prefix_lists)
    def test_aggregate_is_minimal_and_sorted(self, blocks):
        merged = aggregate(blocks)
        assert merged == sorted(merged)
        # No member covers another; no mergeable sibling pair remains.
        for i, a in enumerate(merged):
            for b in merged[i + 1:]:
                assert not a.covers(b) and not b.covers(a)
        siblings = {(m.network, m.length) for m in merged}
        for m in merged:
            if m.length > 0:
                s = m.sibling()
                assert (s.network, s.length) not in siblings

    @given(prefix_lists)
    def test_aggregate_idempotent(self, blocks):
        once = aggregate(blocks)
        assert aggregate(once) == once

    @given(prefix_lists)
    def test_address_count_matches_aggregate(self, blocks):
        assert address_count(blocks) == sum(
            b.num_addresses for b in aggregate(blocks)
        )

    @settings(max_examples=300)
    @given(clustered_prefix_lists())
    def test_address_count_sweep_matches_aggregate_oracle(self, blocks):
        # The aggregate-based sum is what address_count computed before
        # the packed-key sweep; it stays here as the oracle.
        oracle = sum(b.num_addresses for b in aggregate(blocks))
        assert address_count(blocks) == oracle
        assert address_count(iter(blocks)) == oracle
        assert address_count(reversed(blocks)) == oracle


class TestTrieProperties:
    @settings(max_examples=50)
    @given(st.lists(st.tuples(prefixes(), st.integers()), max_size=80))
    def test_trie_behaves_like_dict(self, entries):
        trie = PrefixTrie()
        model = {}
        for prefix, value in entries:
            trie[prefix] = value
            model[prefix] = value
        assert len(trie) == len(model)
        for prefix, value in model.items():
            assert trie[prefix] == value
        assert dict(trie.items()) == model
        keys = [k for k, _ in trie.items()]
        assert keys == sorted(keys)

    @settings(max_examples=50)
    @given(st.lists(prefixes(), max_size=60), prefixes())
    def test_longest_match_is_most_specific_cover(self, stored, probe):
        trie = PrefixTrie()
        for prefix in stored:
            trie[prefix] = True
        match = trie.longest_match(probe)
        covers = [s for s in set(stored) if s.covers(probe)]
        if not covers:
            assert match is None
        else:
            expected = max(covers, key=lambda s: s.length)
            assert match is not None
            assert match[0] == expected

    @settings(max_examples=50)
    @given(st.lists(prefixes(), max_size=60), prefixes())
    def test_covered_matches_filter(self, stored, probe):
        trie = PrefixTrie()
        for prefix in stored:
            trie[prefix] = True
        got = [k for k, _ in trie.covered(probe)]
        expected = sorted(s for s in set(stored) if probe.covers(s))
        assert got == expected

    @settings(max_examples=50)
    @given(st.lists(prefixes(), max_size=40))
    def test_delete_everything(self, stored):
        trie = PrefixTrie()
        for prefix in stored:
            trie[prefix] = 1
        for prefix in set(stored):
            assert trie.delete(prefix)
        assert len(trie) == 0
        assert list(trie.items()) == []


class TestPrefixSetProperties:
    @settings(max_examples=50)
    @given(prefix_lists, prefixes())
    def test_covers_matches_bruteforce(self, members, probe):
        ps = PrefixSet(members)
        assert ps.covers(probe) == any(m.covers(probe) for m in members)

    @settings(max_examples=50)
    @given(prefix_lists, prefixes())
    def test_overlap_addresses_bounded(self, members, probe):
        ps = PrefixSet(members)
        overlap = ps.overlap_addresses(probe)
        assert 0 <= overlap <= probe.num_addresses
        if ps.covers(probe):
            assert overlap == probe.num_addresses
