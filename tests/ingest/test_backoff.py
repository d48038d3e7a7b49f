"""Units for the shared capped backoff policy and the RDAP client cap."""

import pytest

from repro.errors import RdapError
from repro.ingest import BackoffPolicy
from repro.netbase.prefix import IPv4Prefix, parse_address
from repro.rdap.client import RdapClient, VirtualClock
from repro.rdap.server import RdapServer
from repro.whois.database import WhoisDatabase
from repro.whois.inetnum import InetnumObject, InetnumStatus


class TestBackoffPolicy:
    def test_exponential_then_capped(self):
        policy = BackoffPolicy(
            initial_seconds=1.0, multiplier=2.0, max_backoff_seconds=5.0
        )
        assert policy.delay(0) == 1.0
        assert policy.delay(1) == 2.0
        assert policy.delay(2) == 4.0
        assert policy.delay(3) == 5.0   # capped, not 8
        assert policy.delay(10) == 5.0  # stays capped forever

    def test_schedule(self):
        policy = BackoffPolicy(
            initial_seconds=0.5, max_backoff_seconds=2.0
        )
        assert policy.schedule(4) == [0.5, 1.0, 2.0, 2.0]

    def test_jitter_deterministic_and_bounded(self):
        policy = BackoffPolicy(
            initial_seconds=1.0,
            max_backoff_seconds=8.0,
            jitter_fraction=0.5,
            seed=7,
        )
        first = policy.delay(2, key="193.0.4.0/24")
        second = policy.delay(2, key="193.0.4.0/24")
        assert first == second                       # deterministic
        assert 2.0 <= first <= 4.0                   # within jitter band
        other = policy.delay(2, key="10.0.0.0/24")
        assert other != first                        # key-dependent

    def test_jitter_never_exceeds_cap(self):
        policy = BackoffPolicy(
            initial_seconds=1.0,
            max_backoff_seconds=4.0,
            jitter_fraction=0.9,
            seed=3,
        )
        for attempt in range(12):
            assert policy.delay(attempt, key="k") <= 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BackoffPolicy(initial_seconds=-1.0)
        with pytest.raises(ValueError):
            BackoffPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            BackoffPolicy(initial_seconds=5.0, max_backoff_seconds=1.0)
        with pytest.raises(ValueError):
            BackoffPolicy(jitter_fraction=1.0)
        with pytest.raises(ValueError):
            BackoffPolicy().delay(-1)


def _throttling_client(max_retries, **kwargs):
    db = WhoisDatabase()
    db.add_inetnum(
        InetnumObject(
            first=parse_address("193.0.0.0"),
            last=parse_address("193.0.0.255"),
            netname="NET",
            status=InetnumStatus.ASSIGNED_PA,
            org_handle="ORG-A",
            admin_handle="AC-1",
        )
    )
    # Refill so slow that every retry throttles again.
    server = RdapServer(db, rate_limit_per_second=1e-9, burst=1)
    clock = VirtualClock()
    return (
        RdapClient(
            server, pace_seconds=0.0, max_retries=max_retries,
            clock=clock, **kwargs,
        ),
        clock,
    )


class TestClientBackoffCap:
    def test_capped_backoff_at_max_retries_boundary(self):
        """At ``max_retries`` the clock advances by the capped schedule,
        not the unbounded doubling (which would be 0.5+1+2+4+8+16+32).

        The near-zero refill rate makes the server's structured
        ``retry_after_seconds`` hint astronomical, so every honored
        delay lands exactly on the 4s cap — never beyond it.
        """
        client, clock = _throttling_client(
            7, backoff_seconds=0.5, max_backoff_seconds=4.0
        )
        prefix = IPv4Prefix.parse("193.0.0.0/24")
        assert client.lookup_ip(prefix) is not None  # drains the bucket
        with pytest.raises(RdapError):
            client.lookup_ip(prefix)
        # Delays slept: 4 x 7 (the last attempt does not sleep); the
        # uncapped hint alone would have slept for ~31 years.
        assert clock.now() == pytest.approx(28.0)
        assert client.throttle_events == 8

    def test_custom_policy_object(self):
        policy = BackoffPolicy(
            initial_seconds=1.0, max_backoff_seconds=1.0
        )
        client, clock = _throttling_client(2, backoff=policy)
        prefix = IPv4Prefix.parse("193.0.0.0/24")
        assert client.lookup_ip(prefix) is not None
        with pytest.raises(RdapError):
            client.lookup_ip(prefix)
        assert clock.now() == pytest.approx(2.0)  # two flat 1s delays

    def test_default_cap_preserves_short_schedules(self):
        """A server hint beyond the cap is honored only up to the cap:
        the default 30s ceiling bounds all five waits."""
        client, clock = _throttling_client(5)
        prefix = IPv4Prefix.parse("193.0.0.0/24")
        assert client.lookup_ip(prefix) is not None
        with pytest.raises(RdapError):
            client.lookup_ip(prefix)
        assert clock.now() == pytest.approx(30.0 * 5)
