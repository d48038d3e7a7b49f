"""Per-RIR address space for the world generator.

Each RIR draws from /8s that really belong to its region, so generated
prefixes look right and never collide across regions (or with bogon
space).  The plan is just a :class:`~repro.registry.pool.FreePool` per
RIR plus convenience allocation helpers.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.errors import SimulationError
from repro.netbase.prefix import IPv4Prefix
from repro.registry.pool import FreePool
from repro.registry.rir import RIR

#: Representative /8s per region (abridged but genuine).
REGION_SLASH8S: Dict[RIR, tuple] = {
    RIR.AFRINIC: ("41.0.0.0/8", "102.0.0.0/8", "105.0.0.0/8"),
    RIR.APNIC: ("1.0.0.0/8", "27.0.0.0/8", "36.0.0.0/8", "101.0.0.0/8",
                "103.0.0.0/8", "110.0.0.0/8"),
    RIR.ARIN: ("8.0.0.0/8", "23.0.0.0/8", "50.0.0.0/8", "63.0.0.0/8",
               "64.0.0.0/8", "66.0.0.0/8", "96.0.0.0/8"),
    RIR.LACNIC: ("177.0.0.0/8", "179.0.0.0/8", "181.0.0.0/8",
                 "186.0.0.0/8", "200.0.0.0/8"),
    RIR.RIPE: ("185.0.0.0/8", "193.0.0.0/8", "194.0.0.0/8",
               "195.0.0.0/8", "151.0.0.0/8", "62.0.0.0/8"),
}


class AddressPlan:
    """Non-overlapping block allocation across the five regions."""

    def __init__(self) -> None:
        self._pools: Dict[RIR, FreePool] = {
            rir: FreePool([IPv4Prefix.parse(text) for text in slash8s])
            for rir, slash8s in REGION_SLASH8S.items()
        }

    def pool(self, rir: RIR) -> FreePool:
        return self._pools[rir]

    def take(self, rir: RIR, length: int) -> IPv4Prefix:
        """Allocate one block of ``length`` from the region's space."""
        try:
            return self._pools[rir].allocate(length)
        except Exception as exc:
            raise SimulationError(
                f"{rir.display_name} address plan exhausted at /{length}"
            ) from exc

    def region_of(self, prefix: IPv4Prefix) -> RIR:
        """The region whose /8 space contains ``prefix``."""
        for rir, slash8s in REGION_SLASH8S.items():
            for text in slash8s:
                if IPv4Prefix.parse(text).covers(prefix):
                    return rir
        raise SimulationError(f"{prefix} is outside every planned region")
