"""Unit tests for waiting lists and quarantine queues."""

import datetime

import pytest

from repro.netbase.prefix import IPv4Prefix
from repro.registry.quarantine import QuarantineQueue
from repro.registry.waitlist import WaitingList


def d(text):
    return datetime.date.fromisoformat(text)


def p(text):
    return IPv4Prefix.parse(text)


class TestWaitingList:
    def test_fifo_order(self):
        wl = WaitingList()
        wl.enqueue("org-a", 24, d("2020-01-01"))
        wl.enqueue("org-b", 24, d("2020-01-02"))
        first = wl.fulfill_next(d("2020-02-01"))
        assert first is not None and first.org_id == "org-a"
        assert len(wl) == 1
        assert wl.next_pending().org_id == "org-b"

    def test_fulfill_empty(self):
        assert WaitingList().fulfill_next(d("2020-01-01")) is None

    def test_bool(self):
        wl = WaitingList()
        assert not wl
        wl.enqueue("org-a", 24, d("2020-01-01"))
        assert wl


class TestQuarantine:
    def test_release_after_holding_period(self):
        q = QuarantineQueue(holding_days=183)
        q.admit(p("10.0.0.0/22"), d("2020-01-01"))
        assert q.release_due(d("2020-06-30")) == []
        assert q.release_due(d("2020-07-02")) == [p("10.0.0.0/22")]
        assert len(q) == 0

    def test_release_is_ordered_and_partial(self):
        q = QuarantineQueue(holding_days=10)
        q.admit(p("10.0.1.0/24"), d("2020-01-05"))
        q.admit(p("10.0.0.0/24"), d("2020-01-01"))
        released = q.release_due(d("2020-01-11"))
        assert released == [p("10.0.0.0/24")]
        assert len(q) == 1

    def test_zero_holding(self):
        q = QuarantineQueue(holding_days=0)
        q.admit(p("10.0.0.0/24"), d("2020-01-01"))
        assert q.release_due(d("2020-01-01")) == [p("10.0.0.0/24")]

    def test_negative_holding_rejected(self):
        with pytest.raises(ValueError):
            QuarantineQueue(holding_days=-1)

    def test_pending_sorted_by_release(self):
        q = QuarantineQueue(holding_days=30)
        q.admit(p("10.0.1.0/24"), d("2020-02-01"))
        q.admit(p("10.0.0.0/24"), d("2020-01-01"))
        releases = [e.release_on for e in q.pending()]
        assert releases == sorted(releases)
