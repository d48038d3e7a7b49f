"""Waiting lists for approved-but-unfulfilled allocation requests.

After exhaustion, ARIN/LACNIC/RIPE queue approved requests and fulfill
them first-come-first-served from recovered space (§2: ARIN's list held
up to 202 requests with 130+-day waits; LACNIC 275; RIPE fulfilled all
110 after November 2019).
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class WaitingRequest:
    """One approved request sitting on the waiting list."""

    org_id: str
    requested_length: int
    approved_on: datetime.date
    fulfilled_on: Optional[datetime.date] = None

    @property
    def pending(self) -> bool:
        return self.fulfilled_on is None


@dataclass
class WaitingList:
    """FIFO waiting list of one RIR."""

    requests: List[WaitingRequest] = field(default_factory=list)

    def enqueue(
        self, org_id: str, requested_length: int, date: datetime.date
    ) -> WaitingRequest:
        """Append an approved request; returns the queued entry."""
        request = WaitingRequest(
            org_id=org_id,
            requested_length=requested_length,
            approved_on=date,
        )
        self.requests.append(request)
        return request

    def pending(self) -> List[WaitingRequest]:
        """Pending requests in queue order."""
        return [r for r in self.requests if r.pending]

    def next_pending(self) -> Optional[WaitingRequest]:
        """Head of the queue, or None."""
        for request in self.requests:
            if request.pending:
                return request
        return None

    def fulfill_next(self, date: datetime.date) -> Optional[WaitingRequest]:
        """Mark the head request fulfilled on ``date``; return it."""
        request = self.next_pending()
        if request is not None:
            request.fulfilled_on = date
        return request

    def __len__(self) -> int:
        return len(self.pending())

    def __bool__(self) -> bool:
        return bool(self.pending())
