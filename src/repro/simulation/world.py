"""The :class:`World`: one seed → every data feed.

Components are built lazily and cached; each draws from its own
deterministic RNG stream (seed, component-name), so generating the
WHOIS database never perturbs the market history and vice versa.
Builders that carve address space from the LIR holdings (the WHOIS
database and the ROA snapshots) each carve from their own copy of the
pools as the delegation plan left them, so neither sees the other's
allocations and every component is the same whatever order the world
is built in.
"""

from __future__ import annotations

import datetime
import random
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.asorg.as2org import As2OrgDataset, As2OrgSnapshot, Organization
from repro.bgp.collector import Collector, CollectorSystem
from repro.bgp.propagation import PropagationModel
from repro.bgp.stream import RouteStream
from repro.bgp.topology import ASTopology
from repro.errors import SimulationError
from repro.market.leasing import LeasingProvider, ScrapeLog, default_leasing_providers
from repro.market.pricing import PriceModel
from repro.market.transactions import TransactionDataset
from repro.netbase.prefix import IPv4Prefix
from repro.rdap.client import RdapClient
from repro.rdap.server import RdapServer
from repro.registry.pool import FreePool
from repro.registry.rir import RIR
from repro.registry.transfers import TransferLedger
from repro.rpki.database import RoaDatabase
from repro.simulation.addressplan import AddressPlan
from repro.simulation.announce import AnnouncementSource
from repro.simulation.delegation_plan import (
    DelegationPlan,
    build_delegation_plan,
)
from repro.simulation.market_history import (
    generate_priced_transactions,
    generate_transfer_ledger,
)
from repro.simulation.orgs import SimOrg, generate_orgs
from repro.simulation.rpki_gen import build_rpki_database
from repro.simulation.scenario import ScenarioConfig
from repro.simulation.whois_gen import WhoisBuildReport, build_whois_database
from repro.whois.database import WhoisDatabase


class World:
    """Deterministic synthetic internet for one scenario.

    Every component is a function of the scenario alone: building some
    or all of them, in any order, gives the same data.
    """

    def __init__(self, config: ScenarioConfig):
        config.validate()
        self._config = config
        self._plan = AddressPlan()
        # Lazy caches.
        self._topology: Optional[ASTopology] = None
        self._propagation: Optional[PropagationModel] = None
        self._collector_system: Optional[CollectorSystem] = None
        self._orgs: Optional[Tuple[List[SimOrg], List[SimOrg]]] = None
        self._carve_pools: Optional[Dict[str, FreePool]] = None
        self._delegation_plan: Optional[DelegationPlan] = None
        self._announcement_source: Optional[AnnouncementSource] = None
        self._whois: Optional[Tuple[WhoisDatabase, WhoisBuildReport]] = None
        self._rpki: Optional[RoaDatabase] = None
        self._as2org: Optional[As2OrgDataset] = None
        self._ledger: Optional[TransferLedger] = None
        self._priced: Optional[TransactionDataset] = None
        self._price_model = PriceModel()

    @property
    def config(self) -> ScenarioConfig:
        return self._config

    @property
    def price_model(self) -> PriceModel:
        return self._price_model

    def _rng(self, component: str) -> random.Random:
        return random.Random(f"{self._config.seed}:{component}")

    # -- topology and collectors -----------------------------------------

    def topology(self) -> ASTopology:
        if self._topology is None:
            self._topology = ASTopology.generate(self._config.topology)
        return self._topology

    def propagation(self) -> PropagationModel:
        if self._propagation is None:
            self._propagation = PropagationModel(self.topology())
        return self._propagation

    def collector_system(self) -> CollectorSystem:
        if self._collector_system is None:
            config = self._config
            total = (
                len(config.collector_names) * config.monitors_per_collector
            )
            monitor_asns = self.topology().well_connected_asns(
                total, seed=config.seed
            )
            collectors = []
            for i, name in enumerate(config.collector_names):
                share = monitor_asns[
                    i * config.monitors_per_collector:
                    (i + 1) * config.monitors_per_collector
                ]
                collectors.append(Collector(name, share))
            self._collector_system = CollectorSystem(
                collectors, self.propagation()
            )
        return self._collector_system

    def monitors(self) -> FrozenSet[int]:
        return self.collector_system().all_monitors()

    # -- organizations ---------------------------------------------------------

    def orgs(self) -> Tuple[List[SimOrg], List[SimOrg]]:
        """(lirs, customers), with ASes and holdings wired in."""
        if self._orgs is None:
            config = self._config
            topology = self.topology()
            rng = self._rng("orgs")
            mids = topology.tier_members(2)
            stubs = topology.tier_members(3)
            spare_needed = max(
                0,
                round(config.lir_count * config.second_as_fraction)
                - max(0, len(mids) - config.lir_count),
            )
            lir_asns = mids + stubs[:spare_needed]
            customer_asns = stubs[spare_needed:]
            lirs, customers = generate_orgs(
                rng,
                config.lir_count,
                config.customer_count,
                lir_asns,
                customer_asns,
                config.second_as_fraction,
            )
            for org in lirs:
                org.holdings.append(
                    self._plan.take(RIR.RIPE, config.lir_holding_length)
                )
            self._orgs = (lirs, customers)
        return self._orgs

    def lirs(self) -> List[SimOrg]:
        return self.orgs()[0]

    def customers(self) -> List[SimOrg]:
        return self.orgs()[1]

    def carve_pools(self) -> Dict[str, FreePool]:
        """Per-LIR pools over their holdings, as the delegation plan
        carves them."""
        if self._carve_pools is None:
            self._carve_pools = {
                org.org_id: FreePool(list(org.holdings))
                for org in self.lirs()
            }
        return self._carve_pools

    def _pools_after_plan(self) -> Dict[str, FreePool]:
        """A private copy of every carve pool after the delegation plan
        took its blocks: one per builder that carves further."""
        self.delegation_plan()
        return {
            org_id: pool.copy()
            for org_id, pool in self.carve_pools().items()
        }

    # -- delegations ------------------------------------------------------------

    def delegation_plan(self) -> DelegationPlan:
        if self._delegation_plan is None:
            config = self._config
            self._delegation_plan = build_delegation_plan(
                self._rng("delegations"),
                config.delegations,
                self.lirs(),
                self.customers(),
                config.bgp_start,
                config.bgp_end,
                onoff_fraction=config.onoff_fraction,
                intra_org_fraction=config.intra_org_fraction,
                rdap_overlap_fraction=config.rdap_overlap_fraction,
                carve_pools=self.carve_pools(),
                vpn_rotation_chains=config.vpn_rotation_chains,
                vpn_rotation_period_days=config.vpn_rotation_period_days,
            )
        return self._delegation_plan

    def announcement_source(self) -> AnnouncementSource:
        if self._announcement_source is None:
            config = self._config
            self._announcement_source = AnnouncementSource(
                config.seed,
                self.lirs(),
                self.customers(),
                self.delegation_plan(),
                self.monitors(),
                hijack_rate=config.hijack_rate,
                as_set_rate=config.as_set_rate,
            )
        return self._announcement_source

    def stream(self) -> RouteStream:
        """The BGPStream-like view of the world's routing data."""
        return RouteStream(
            self.collector_system(), source=self.announcement_source()
        )

    def true_delegated_prefixes_on(
        self, date: datetime.date
    ) -> List[IPv4Prefix]:
        """Ground truth: cross-org delegated prefixes active on a day."""
        return [
            spec.prefix
            for spec in self.delegation_plan().cross_org()
            if spec.active_on(date)
        ]

    # -- registration data ---------------------------------------------------------

    def whois(self) -> WhoisDatabase:
        return self._whois_built()[0]

    def whois_report(self) -> WhoisBuildReport:
        return self._whois_built()[1]

    def _whois_built(self) -> Tuple[WhoisDatabase, WhoisBuildReport]:
        if self._whois is None:
            self._whois = build_whois_database(
                self._rng("whois"),
                self._config,
                self.lirs(),
                self.customers(),
                self.delegation_plan(),
                self._pools_after_plan(),
            )
        return self._whois

    def rdap_server(self) -> RdapServer:
        """A fresh RDAP server over the WHOIS database."""
        return RdapServer(
            self.whois(), rate_limit_per_second=50.0, burst=100
        )

    def rdap_client(self, server: Optional[RdapServer] = None) -> RdapClient:
        return RdapClient(
            server or self.rdap_server(),
            pace_seconds=0.02,
        )

    def as2org(self) -> As2OrgDataset:
        """Quarterly AS-to-organization snapshots over the BGP window."""
        if self._as2org is None:
            dataset = As2OrgDataset()
            date = datetime.date(
                self._config.bgp_start.year,
                ((self._config.bgp_start.month - 1) // 3) * 3 + 1,
                1,
            )
            while date <= self._config.bgp_end + datetime.timedelta(days=92):
                snapshot = As2OrgSnapshot(date)
                for org in self.lirs() + self.customers():
                    snapshot.add_organization(
                        Organization(org.whois_org_handle, org.name)
                    )
                    for asn in org.asns:
                        snapshot.assign(asn, org.whois_org_handle)
                dataset.add_snapshot(snapshot)
                year, month = date.year, date.month + 3
                if month > 12:
                    year, month = year + 1, month - 12
                date = datetime.date(year, month, 1)
            self._as2org = dataset
        return self._as2org

    def rpki(self) -> RoaDatabase:
        if self._rpki is None:
            self._rpki = build_rpki_database(
                self._rng("rpki"),
                self._config,
                self.lirs(),
                self.customers(),
                self._pools_after_plan(),
                plan=self.delegation_plan(),
            )
        return self._rpki

    # -- markets -------------------------------------------------------------------

    def transfer_ledger(self) -> TransferLedger:
        """The 2009–2020 transfer history (Fig. 2 / Fig. 3 input).

        The ledger draws from its *own* address plan: at the world's
        1:100 scale, a decade of transfers would otherwise exhaust the
        region space the LIR holdings need (and the two populations
        are never cross-referenced).  This also keeps world
        construction order-independent.
        """
        if self._ledger is None:
            self._ledger = generate_transfer_ledger(
                self._rng("transfers"), self._config, AddressPlan()
            )
        return self._ledger

    def priced_transactions(self) -> TransactionDataset:
        if self._priced is None:
            self._priced = generate_priced_transactions(
                self._rng("pricing"), self._config, self._price_model
            )
        return self._priced

    def leasing_providers(self) -> List[LeasingProvider]:
        return default_leasing_providers()

    def scrape_log(self) -> ScrapeLog:
        return ScrapeLog(self.leasing_providers())

    def __repr__(self) -> str:
        return f"<World seed={self._config.seed}>"
