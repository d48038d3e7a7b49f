"""AS-level topology with business relationships.

Routes only propagate along *valley-free* paths, which requires knowing
who is whose customer, provider, or peer.  The generator builds a
three-tier hierarchy (a tier-1 clique, mid-tier transit providers,
stub/edge networks) with configurable multi-homing — structurally the
shape real topologies have, which is what matters for which monitors
see which routes.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.errors import BgpError
from repro.netbase.asnum import validate_asn


class ASRelationship(enum.Enum):
    """Relationship of an edge, read as "left is <relationship> right"."""

    CUSTOMER_OF = "customer-of"
    PEER_WITH = "peer-with"


@dataclass(frozen=True)
class TopologyConfig:
    """Parameters for the hierarchical topology generator."""

    tier1_count: int = 8
    mid_count: int = 60
    stub_count: int = 400
    mid_provider_choices: Tuple[int, int] = (2, 4)
    stub_provider_choices: Tuple[int, int] = (1, 3)
    mid_peering_probability: float = 0.08
    first_asn: int = 1000
    seed: int = 7

    def validate(self) -> None:
        if self.tier1_count < 2:
            raise BgpError("need at least two tier-1 ASes")
        if self.mid_count < 1 or self.stub_count < 0:
            raise BgpError("invalid tier sizes")
        if not 0.0 <= self.mid_peering_probability <= 1.0:
            raise BgpError("peering probability must be in [0, 1]")


class ASTopology:
    """A set of ASes plus customer/provider and peer relationships."""

    def __init__(self) -> None:
        self._asns: Set[int] = set()
        self._providers: Dict[int, Set[int]] = {}
        self._customers: Dict[int, Set[int]] = {}
        self._peers: Dict[int, Set[int]] = {}
        self._tier: Dict[int, int] = {}

    # -- construction ------------------------------------------------------

    def add_as(self, asn: int, tier: int = 3) -> None:
        validate_asn(asn)
        if asn in self._asns:
            raise BgpError(f"AS{asn} already exists")
        self._asns.add(asn)
        self._providers[asn] = set()
        self._customers[asn] = set()
        self._peers[asn] = set()
        self._tier[asn] = tier

    def add_customer_provider(self, customer: int, provider: int) -> None:
        """Record that ``customer`` buys transit from ``provider``."""
        self._require(customer)
        self._require(provider)
        if customer == provider:
            raise BgpError("an AS cannot be its own provider")
        if provider in self._peers[customer]:
            raise BgpError(f"AS{customer}/AS{provider} already peer")
        self._providers[customer].add(provider)
        self._customers[provider].add(customer)

    def add_peering(self, left: int, right: int) -> None:
        """Record a settlement-free peering between two ASes."""
        self._require(left)
        self._require(right)
        if left == right:
            raise BgpError("an AS cannot peer with itself")
        if right in self._providers[left] or left in self._providers[right]:
            raise BgpError(
                f"AS{left}/AS{right} already have a transit relationship"
            )
        self._peers[left].add(right)
        self._peers[right].add(left)

    def _require(self, asn: int) -> None:
        if asn not in self._asns:
            raise BgpError(f"unknown AS{asn}")

    # -- accessors -----------------------------------------------------------

    @property
    def asns(self) -> FrozenSet[int]:
        return frozenset(self._asns)

    def providers_of(self, asn: int) -> FrozenSet[int]:
        self._require(asn)
        return frozenset(self._providers[asn])

    def customers_of(self, asn: int) -> FrozenSet[int]:
        self._require(asn)
        return frozenset(self._customers[asn])

    def peers_of(self, asn: int) -> FrozenSet[int]:
        self._require(asn)
        return frozenset(self._peers[asn])

    def tier_members(self, tier: int) -> List[int]:
        return sorted(a for a, t in self._tier.items() if t == tier)

    def edge_count(self) -> int:
        transit = sum(len(p) for p in self._providers.values())
        peering = sum(len(p) for p in self._peers.values()) // 2
        return transit + peering

    def __len__(self) -> int:
        return len(self._asns)

    def __contains__(self, asn: int) -> bool:
        return asn in self._asns

    def __repr__(self) -> str:
        return (
            f"<ASTopology {len(self)} ASes, {self.edge_count()} edges>"
        )

    # -- generation ------------------------------------------------------------

    @classmethod
    def generate(cls, config: TopologyConfig) -> "ASTopology":
        """Generate a deterministic three-tier topology.

        Tier 1 is a full peering clique; every mid-tier AS buys transit
        from 2–4 tier-1/mid providers (plus occasional mid–mid
        peering); every stub buys transit from 1–3 mid providers.
        """
        config.validate()
        rng = random.Random(config.seed)
        topology = cls()
        next_asn = config.first_asn

        tier1: List[int] = []
        for _ in range(config.tier1_count):
            topology.add_as(next_asn, tier=1)
            tier1.append(next_asn)
            next_asn += 1
        for i, left in enumerate(tier1):
            for right in tier1[i + 1:]:
                topology.add_peering(left, right)

        mids: List[int] = []
        for _ in range(config.mid_count):
            topology.add_as(next_asn, tier=2)
            mids.append(next_asn)
            next_asn += 1
        for mid in mids:
            count = rng.randint(*config.mid_provider_choices)
            # Mid-tier providers come from tier 1 and earlier mids.
            candidates = tier1 + [m for m in mids if m < mid]
            providers = rng.sample(candidates, min(count, len(candidates)))
            for provider in providers:
                topology.add_customer_provider(mid, provider)
        for i, left in enumerate(mids):
            for right in mids[i + 1:]:
                if left in topology.providers_of(right):
                    continue
                if right in topology.providers_of(left):
                    continue
                if rng.random() < config.mid_peering_probability:
                    topology.add_peering(left, right)

        for _ in range(config.stub_count):
            topology.add_as(next_asn, tier=3)
            count = rng.randint(*config.stub_provider_choices)
            providers = rng.sample(mids, min(count, len(mids)))
            for provider in providers:
                topology.add_customer_provider(next_asn, provider)
            next_asn += 1

        return topology

    def well_connected_asns(self, count: int, seed: int = 0) -> List[int]:
        """Pick ``count`` ASes suitable as collector monitors.

        Collector peers are overwhelmingly tier-1/tier-2 networks; the
        pick is deterministic for a given seed.
        """
        rng = random.Random(seed)
        candidates = self.tier_members(1) + self.tier_members(2)
        if count > len(candidates):
            candidates = candidates + self.tier_members(3)
        if count > len(candidates):
            raise BgpError(
                f"cannot pick {count} monitors from {len(candidates)} ASes"
            )
        return sorted(rng.sample(candidates, count))
