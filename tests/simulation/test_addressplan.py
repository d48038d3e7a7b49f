"""Tests for the per-RIR address plan."""

import pytest

from repro.errors import SimulationError
from repro.netbase.bogons import is_bogon
from repro.netbase.prefix import IPv4Prefix
from repro.registry.rir import RIR
from repro.simulation.addressplan import REGION_SLASH8S, AddressPlan


class TestAddressPlan:
    def test_blocks_come_from_the_right_region(self):
        plan = AddressPlan()
        for rir in RIR:
            block = plan.take(rir, 16)
            assert plan.region_of(block) is rir

    def test_blocks_never_overlap(self):
        plan = AddressPlan()
        blocks = [plan.take(RIR.RIPE, 16) for _ in range(50)]
        blocks += [plan.take(RIR.ARIN, 20) for _ in range(50)]
        ordered = sorted(blocks)
        for left, right in zip(ordered, ordered[1:]):
            assert not left.overlaps(right)

    def test_no_bogon_space_in_plan(self):
        for slash8s in REGION_SLASH8S.values():
            for text in slash8s:
                assert not is_bogon(IPv4Prefix.parse(text))

    def test_regions_disjoint(self):
        seen = set()
        for slash8s in REGION_SLASH8S.values():
            for text in slash8s:
                assert text not in seen
                seen.add(text)

    def test_exhaustion_raises(self):
        plan = AddressPlan()
        with pytest.raises(SimulationError):
            # AFRINIC has three /8s; a fourth /8 cannot fit.
            for _ in range(4):
                plan.take(RIR.AFRINIC, 8)

    def test_region_of_unplanned_space(self):
        plan = AddressPlan()
        with pytest.raises(SimulationError):
            plan.region_of(IPv4Prefix.parse("11.0.0.0/8"))
