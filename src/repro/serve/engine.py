"""The shared query core behind both serving frontends.

The paper's measurement plane talks to live registry interfaces; the
serving layer turns our in-memory reproductions of those interfaces
into a long-running system.  One :class:`QueryEngine` loads everything
a query can touch — the WHOIS database, the RDAP view over it, the
inferred delegation set (as a :class:`~repro.netbase.lpm.SortedPrefixMap`
for longest-prefix lookups), the transfer ledger, and the market
statistics — and both frontends (the port-43-style line protocol and
the HTTP/JSON API) answer *through* it.

Byte-identical answers are the design invariant: the engine does not
reimplement query semantics, it *wraps* the exact
:class:`~repro.whois.server.WhoisServer` and
:class:`~repro.rdap.server.RdapServer` instances the batch pipeline
uses, so a response served over a socket equals the response computed
in memory, byte for byte.
"""

from __future__ import annotations

import datetime
import time
from typing import Dict, List, Optional, Tuple

from repro.delegation.model import DailyDelegations, iter_quads
from repro.netbase.lpm import SortedPrefixMap
from repro.netbase.prefix import IPv4Prefix, parse_address
from repro.obs.metrics import NULL, MetricsRegistry
from repro.rdap.server import RdapServer
from repro.registry.rir import RIR
from repro.registry.transfers import TransferLedger, TransferRecord
from repro.whois.server import WhoisServer


def parse_prefix_text(text: str) -> IPv4Prefix:
    """Parse a query target: ``a.b.c.d`` or ``a.b.c.d/len``.

    Bare addresses become /32s, mirroring the WHOIS query parser; host
    bits below the mask are tolerated like real registry endpoints do.
    """
    if "/" in text:
        return IPv4Prefix.parse(text, strict=False)
    return IPv4Prefix(parse_address(text), 32)


class DelegationIndex:
    """The inferred delegation set, indexed for serving.

    Holds two read-optimized views of one
    :class:`~repro.delegation.model.DailyDelegations`:

    - a :class:`~repro.netbase.lpm.SortedPrefixMap` of the most recent
      observation day (the "current" delegation table) for
      longest-prefix and cover queries,
    - a per-AS history fold of the full timeline, answering "which
      delegations has AS N ever taken part in, and when".
    """

    def __init__(self, daily: Optional[DailyDelegations] = None):
        daily = daily or DailyDelegations()
        dates = daily.dates()
        self.snapshot_date: Optional[datetime.date] = (
            dates[-1] if dates else None
        )
        # Columns are in key order, so each prefix's (S, T) pairs come
        # out sorted and the prefixes arrive in the map's order.
        by_prefix: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        if self.snapshot_date is not None:
            for network, length, delegator, delegatee in iter_quads(
                daily.column(self.snapshot_date)
            ):
                by_prefix.setdefault((network, length), []).append(
                    (delegator, delegatee)
                )
        self._map: SortedPrefixMap = SortedPrefixMap(
            (IPv4Prefix(network, length), tuple(pairs))
            for (network, length), pairs in by_prefix.items()
        )
        self._by_asn: Dict[int, List[dict]] = {}
        for (network, length, delegator, delegatee), seen in sorted(
            daily.sightings().items()
        ):
            record = {
                "prefix": str(IPv4Prefix(network, length)),
                "delegatorAsn": delegator,
                "delegateeAsn": delegatee,
                "firstSeen": seen[0].isoformat(),
                "lastSeen": seen[-1].isoformat(),
                "daysSeen": len(seen),
                "active": seen[-1] == self.snapshot_date,
            }
            for asn, role in (
                (delegator, "delegator"), (delegatee, "delegatee")
            ):
                self._by_asn.setdefault(asn, []).append(
                    dict(record, role=role)
                )

    def __len__(self) -> int:
        return len(self._map)

    @staticmethod
    def _entry(prefix: IPv4Prefix, pairs: Tuple[Tuple[int, int], ...]) -> dict:
        return {
            "prefix": str(prefix),
            "delegations": [
                {"delegatorAsn": s, "delegateeAsn": t} for s, t in pairs
            ],
        }

    def lookup(self, prefix: IPv4Prefix) -> dict:
        """Covering delegations for ``prefix``, most-specific flagged.

        ``covering`` lists every delegated prefix on the snapshot day
        that contains the query (shortest first, like a registry
        hierarchy walk); ``longestMatch`` is the last of them.
        """
        covering = [
            self._entry(stored, pairs)
            for stored, pairs in self._map.covering(prefix)
        ]
        return {
            "query": str(prefix),
            "snapshotDate": (
                self.snapshot_date.isoformat()
                if self.snapshot_date else None
            ),
            "covering": covering,
            "longestMatch": covering[-1] if covering else None,
        }

    def as_history(self, asn: int) -> dict:
        """Every delegation AS ``asn`` ever appeared in, with dates."""
        history = self._by_asn.get(asn, [])
        return {
            "asn": asn,
            "snapshotDate": (
                self.snapshot_date.isoformat()
                if self.snapshot_date else None
            ),
            "count": len(history),
            "delegations": history,
        }


class TransferIndex:
    """The transfer ledger, indexed by prefix for serving."""

    def __init__(self, ledger: Optional[TransferLedger] = None):
        self._records: List[TransferRecord] = (
            ledger.records() if ledger is not None else []
        )
        by_prefix: Dict[IPv4Prefix, List[int]] = {}
        for index, record in enumerate(self._records):
            for prefix in record.prefixes:
                by_prefix.setdefault(prefix, []).append(index)
        self._map: SortedPrefixMap = SortedPrefixMap(
            (prefix, tuple(indices))
            for prefix, indices in by_prefix.items()
        )

    def __len__(self) -> int:
        return len(self._records)

    @staticmethod
    def record_json(record: TransferRecord) -> dict:
        published = record.published_type()
        return {
            "transferId": record.transfer_id,
            "date": record.date.isoformat(),
            "prefixes": [str(p) for p in record.prefixes],
            "addresses": record.addresses,
            "sourceOrg": record.source_org,
            "recipientOrg": record.recipient_org,
            "sourceRir": record.source_rir.value,
            "recipientRir": record.recipient_rir.value,
            "type": published.value if published else None,
            "pricePerAddress": record.price_per_address,
        }

    def _collect(self, indices) -> List[dict]:
        seen: List[int] = []
        for bucket in indices:
            for index in bucket:
                if index not in seen:
                    seen.append(index)
        return [self.record_json(self._records[i]) for i in sorted(seen)]

    def lookup(self, prefix: IPv4Prefix) -> dict:
        """Transfers that moved blocks covering or inside ``prefix``."""
        covering = self._collect(
            pairs for _stored, pairs in self._map.covering(prefix)
        )
        within = self._collect(
            pairs for _stored, pairs in self._map.covered(prefix)
        )
        return {
            "query": str(prefix),
            "covering": covering,
            "within": within,
        }


def build_market_summary(
    priced, ledger: TransferLedger, scrape_log
) -> dict:
    """Fold the market statistics the report CLI prints into one JSON
    document served at ``/market/summary``."""
    from repro.analysis.leasing_prices import summarize_leasing_prices
    from repro.analysis.prices import (
        consolidation_quarter,
        doubling_factor,
        mean_price_per_ip,
        regional_price_difference,
    )
    from repro.analysis.transfers import market_start_dates, transfer_counts
    from repro.market.leasing import FIRST_SCRAPE, SECOND_WAVE

    mean_2020 = mean_price_per_ip(
        priced, datetime.date(2020, 1, 1), datetime.date(2020, 6, 25)
    )
    _h, p_value = regional_price_difference(priced)
    quarter = consolidation_quarter(priced)
    starts = market_start_dates(ledger)
    counts = transfer_counts(ledger)
    leasing = summarize_leasing_prices(
        scrape_log, FIRST_SCRAPE, SECOND_WAVE
    )
    per_rir = {}
    for rir in RIR:
        start = starts[rir]
        per_rir[rir.value] = {
            "transfers": sum(c for _d, c in counts[rir]),
            "marketStart": start.isoformat() if start else None,
        }
    return {
        "pricedTransactions": len(priced),
        "meanPrice2020PerIp": round(mean_2020, 4),
        "doublingSince2016": round(doubling_factor(priced), 4),
        "regionalDifferencePValue": round(p_value, 6),
        "consolidationQuarter": (
            {"year": quarter[0], "quarter": quarter[1]} if quarter else None
        ),
        "leasing": {
            "providers": leasing.provider_count,
            "minPricePerIpMonth": round(leasing.min_price, 4),
            "maxPricePerIpMonth": round(leasing.max_price, 4),
        },
        "perRir": per_rir,
    }


class QueryEngine:
    """One in-memory query core shared by every serving frontend.

    All methods are synchronous and cheap (index lookups over data
    loaded at startup); the asyncio server calls straight into them
    from connection handlers.  Rate limiting lives here too — both
    frontends charge the *same* per-client token buckets via
    :meth:`check_rate`, so a client cannot dodge the limit by
    switching protocols.
    """

    def __init__(
        self,
        *,
        whois: WhoisServer,
        rdap: RdapServer,
        delegations: Optional[DelegationIndex] = None,
        transfers: Optional[TransferIndex] = None,
        market: Optional[dict] = None,
        metrics: MetricsRegistry = NULL,
    ):
        self.whois = whois
        self.rdap = rdap
        self.delegations = delegations or DelegationIndex()
        self.transfers = transfers or TransferIndex()
        self.market = market or {}
        self.metrics = metrics
        rdap.set_metrics(metrics)

    # -- construction ---------------------------------------------------

    @classmethod
    def from_world(
        cls,
        world,
        *,
        include_inference: bool = True,
        step_days: int = 1,
        jobs: Optional[int] = None,
        store_dir: Optional[str] = None,
        rate_limit_per_second: float = 50.0,
        burst: int = 100,
        max_clients: int = 4096,
        metrics: MetricsRegistry = NULL,
    ) -> "QueryEngine":
        """Load every serveable dataset from a simulated world.

        The expensive part is the delegation inference sweep; it honors
        the same ``jobs``/``store_dir`` knobs as the batch CLI
        (``--no-infer`` on the CLI maps to ``include_inference=False``
        for an instant, delegation-less start).  With ``store_dir`` the
        sweep reads its per-day inputs from the memory-mapped shard
        store, so a warm server start never regenerates the world's BGP
        view.
        """
        from repro.delegation import (
            InferenceConfig,
            WorldStreamFactory,
            run_inference,
        )

        with metrics.span("serve.load.whois"):
            database = world.whois()
        delegations = None
        if include_inference:
            with metrics.span("serve.load.infer"):
                result = run_inference(
                    WorldStreamFactory(world.config),
                    world.config.bgp_start,
                    world.config.bgp_end,
                    InferenceConfig.extended(),
                    as2org=world.as2org(),
                    step_days=step_days,
                    jobs=jobs,
                    metrics=metrics,
                    store_dir=store_dir,
                )
            delegations = DelegationIndex(result.daily)
        with metrics.span("serve.load.transfers"):
            transfers = TransferIndex(world.transfer_ledger())
        with metrics.span("serve.load.market"):
            market = build_market_summary(
                world.priced_transactions(),
                world.transfer_ledger(),
                world.scrape_log(),
            )
        return cls(
            whois=WhoisServer(database),
            rdap=RdapServer(
                database,
                rate_limit_per_second=rate_limit_per_second,
                burst=burst,
                max_clients=max_clients,
            ),
            delegations=delegations,
            transfers=transfers,
            market=market,
            metrics=metrics,
        )

    # -- rate limiting --------------------------------------------------

    def check_rate(self, client_id: str, now: float) -> None:
        """Charge one query to ``client_id``; raises on throttle.

        Delegates to the RDAP server's (eviction-bounded) limiter
        table so whois-line and HTTP traffic share the same buckets.
        """
        self.rdap.check_rate(client_id, now)

    # -- queries --------------------------------------------------------

    def _timed(self, kind: str, started: float) -> None:
        """Record one ``engine.query.<kind>`` observation.

        Pure lookup time — no socket write, no rate-limit charge — so
        the serve-side ``serve.*.request`` histograms can be compared
        against these to isolate protocol overhead.  Under the
        :data:`~repro.obs.metrics.NULL` default this is one no-op call.
        """
        self.metrics.observe(
            f"engine.query.{kind}", time.perf_counter() - started
        )

    def whois_query(self, line: str) -> str:
        """Answer one WHOIS query line — byte-identical to
        :meth:`repro.whois.server.WhoisServer.query`."""
        started = time.perf_counter()
        try:
            return self.whois.query(line)
        finally:
            self._timed("whois", started)

    def rdap_ip(self, prefix: IPv4Prefix) -> Dict[str, object]:
        """RDAP ``/ip`` lookup minus rate limiting (the frontends
        charge :meth:`check_rate` once per request themselves)."""
        started = time.perf_counter()
        try:
            return self.rdap.lookup_object(prefix)
        finally:
            self._timed("rdap_ip", started)

    def delegations_lookup(self, prefix: IPv4Prefix) -> dict:
        started = time.perf_counter()
        try:
            return self.delegations.lookup(prefix)
        finally:
            self._timed("delegations", started)

    def as_history(self, asn: int) -> dict:
        started = time.perf_counter()
        try:
            return self.delegations.as_history(asn)
        finally:
            self._timed("as_history", started)

    def transfers_lookup(self, prefix: IPv4Prefix) -> dict:
        started = time.perf_counter()
        try:
            return self.transfers.lookup(prefix)
        finally:
            self._timed("transfers", started)

    def market_summary(self) -> dict:
        started = time.perf_counter()
        try:
            return self.market
        finally:
            self._timed("market", started)

    def loaded_summary(self) -> dict:
        """Dataset sizes for ``/health`` and the startup banner."""
        return {
            "inetnums": len(self.rdap.database),
            "delegations": len(self.delegations),
            "transfers": len(self.transfers),
            "marketStats": len(self.market),
        }

    def __repr__(self) -> str:
        loaded = self.loaded_summary()
        return (
            f"<QueryEngine {loaded['inetnums']} inetnums, "
            f"{loaded['delegations']} delegations, "
            f"{loaded['transfers']} transfers>"
        )
