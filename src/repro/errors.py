"""Exception hierarchy for the :mod:`repro` package.

Every exception raised by this library derives from :class:`ReproError`,
so callers can catch the whole family with a single ``except`` clause while
still being able to distinguish subsystem-specific failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class PrefixError(ReproError, ValueError):
    """An IPv4 address or prefix is malformed or out of range."""


class ASNumberError(ReproError, ValueError):
    """An autonomous-system number is malformed or out of range."""


class ASPathError(ReproError, ValueError):
    """An AS path string or segment sequence cannot be parsed."""


class RegistryError(ReproError):
    """Base class for RIR registry errors."""


class PolicyError(RegistryError):
    """A registry request violates the active allocation policy."""


class PoolExhaustedError(RegistryError):
    """The registry's free pool cannot satisfy the requested size."""


class TransferError(RegistryError):
    """An address transfer is invalid (unknown holder, bad direction, ...)."""


class MembershipError(RegistryError):
    """An operation requires an active LIR membership that is missing."""


class WhoisError(ReproError):
    """Base class for WHOIS database errors."""


class ObjectNotFoundError(WhoisError, KeyError):
    """A WHOIS/RDAP object lookup found no matching object."""


class RdapError(ReproError):
    """Base class for RDAP protocol errors."""


class RdapRateLimitError(RdapError):
    """The RDAP server rejected a query because of rate limiting (HTTP 429).

    ``retry_after_seconds`` carries the server's retry hint as a number
    so callers (client backoff, the HTTP ``Retry-After`` header) never
    have to parse it back out of the message text.
    """

    def __init__(
        self,
        message: str = "rate limit exceeded",
        *,
        retry_after_seconds: "float | None" = None,
    ):
        super().__init__(message)
        self.retry_after_seconds = retry_after_seconds


class RdapNotFoundError(RdapError):
    """The RDAP server has no object for the queried resource (HTTP 404)."""


class RdapTimeoutError(RdapError):
    """An RDAP query timed out before the server answered."""


class BgpError(ReproError):
    """Base class for BGP data-plane and collector errors."""


class CollectorDataError(BgpError):
    """A collector archive is missing, truncated, or inconsistent."""


class RpkiError(ReproError):
    """Base class for RPKI database errors."""


class MarketError(ReproError):
    """Base class for transfer/leasing market errors."""


class SimulationError(ReproError):
    """The world simulator was asked to do something inconsistent."""


class ScenarioError(SimulationError, ValueError):
    """A scenario configuration is invalid."""


class DatasetError(ReproError):
    """A dataset file cannot be parsed or written."""


class TelemetryError(ReproError):
    """Telemetry output (Prometheus exposition) is malformed."""
