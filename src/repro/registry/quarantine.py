"""The quarantine period applied to recovered address space.

"Upon recovering IP address space [...] most RIRs put the blocks into a
six month quarantine period before redistributing it again" (§2).  The
queue holds (block, release-date) pairs and releases matured blocks back
to the free pool on each tick.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import List, Tuple

from repro.netbase.prefix import IPv4Prefix


@dataclass(frozen=True)
class QuarantinedBlock:
    """One block sitting in quarantine."""

    block: IPv4Prefix
    recovered_on: datetime.date
    release_on: datetime.date


class QuarantineQueue:
    """Time-ordered queue of recovered blocks awaiting release."""

    def __init__(self, holding_days: int = 183):
        if holding_days < 0:
            raise ValueError("holding_days must be non-negative")
        self._holding_days = holding_days
        self._entries: List[QuarantinedBlock] = []

    @property
    def holding_days(self) -> int:
        return self._holding_days

    def admit(self, block: IPv4Prefix, date: datetime.date) -> QuarantinedBlock:
        """Put a recovered block into quarantine starting ``date``."""
        entry = QuarantinedBlock(
            block=block,
            recovered_on=date,
            release_on=date + datetime.timedelta(days=self._holding_days),
        )
        self._entries.append(entry)
        self._entries.sort(key=lambda e: (e.release_on, e.block))
        return entry

    def release_due(self, date: datetime.date) -> List[IPv4Prefix]:
        """Pop and return every block whose quarantine ended by ``date``."""
        released: List[IPv4Prefix] = []
        remaining: List[QuarantinedBlock] = []
        for entry in self._entries:
            if entry.release_on <= date:
                released.append(entry.block)
            else:
                remaining.append(entry)
        self._entries = remaining
        return released

    def pending(self) -> Tuple[QuarantinedBlock, ...]:
        """Blocks currently in quarantine, soonest release first."""
        return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)
