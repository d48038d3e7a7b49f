"""Organizations with the business models of §6.

The discussion section profiles how different businesses engage with
the markets: ISPs buy big and lease out, long-term customers buy small,
young businesses lease then buy, VPN providers rotate leases, spammers
churn short-lived leases, hosters bundle leases with infrastructure.
These models drive the world's leasing behaviour and make examples
meaningful.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.netbase.prefix import IPv4Prefix
from repro.registry.rir import RIR


class BusinessModel(enum.Enum):
    """§6 business archetypes."""

    ISP = "isp"
    HOSTER = "hoster"
    LONG_TERM_CUSTOMER = "long-term-customer"
    YOUNG_BUSINESS = "young-business"
    VPN_PROVIDER = "vpn-provider"
    SPAMMER = "spammer"

    @property
    def leases_out(self) -> bool:
        """Does this kind of org delegate space to others?"""
        return self in (BusinessModel.ISP, BusinessModel.HOSTER)


@dataclass
class SimOrg:
    """One organization in the world."""

    org_id: str
    name: str
    model: BusinessModel
    region: RIR
    asns: List[int] = field(default_factory=list)
    holdings: List[IPv4Prefix] = field(default_factory=list)
    whois_org_handle: str = ""
    admin_handle: str = ""

    def __post_init__(self) -> None:
        if not self.whois_org_handle:
            self.whois_org_handle = f"ORG-{self.org_id.upper()}"
        if not self.admin_handle:
            self.admin_handle = f"AC-{self.org_id.upper()}"

    @property
    def primary_asn(self) -> int:
        if not self.asns:
            raise SimulationError(f"{self.org_id} has no AS")
        return self.asns[0]


#: Model mix for LIR-type orgs (delegators) and customer-type orgs.
_LIR_MODEL_WEIGHTS: Sequence[Tuple[BusinessModel, float]] = (
    (BusinessModel.ISP, 0.6),
    (BusinessModel.HOSTER, 0.4),
)
_CUSTOMER_MODEL_WEIGHTS: Sequence[Tuple[BusinessModel, float]] = (
    (BusinessModel.LONG_TERM_CUSTOMER, 0.35),
    (BusinessModel.YOUNG_BUSINESS, 0.35),
    (BusinessModel.VPN_PROVIDER, 0.18),
    (BusinessModel.SPAMMER, 0.12),
)


def _pick_model(
    rng: random.Random, weights: Sequence[Tuple[BusinessModel, float]]
) -> BusinessModel:
    total = sum(weight for _model, weight in weights)
    point = rng.random() * total
    for model, weight in weights:
        point -= weight
        if point <= 0:
            return model
    return weights[-1][0]  # pragma: no cover - float edge


def generate_orgs(
    rng: random.Random,
    lir_count: int,
    customer_count: int,
    lir_asns: Sequence[int],
    customer_asns: Sequence[int],
    second_as_fraction: float,
    region: RIR = RIR.RIPE,
) -> Tuple[List[SimOrg], List[SimOrg]]:
    """Generate (lirs, customers) with ASes wired in.

    LIRs that lease out space sit in the RIPE region (the paper's RDAP
    analysis is RIPE-only); they take mid-tier ASes.  Customers take
    stub ASes.  A configurable fraction of LIRs gets a second AS so
    intra-organization delegations exist for extension (iv) to remove.
    """
    if lir_count > len(lir_asns):
        raise SimulationError(
            f"need {lir_count} LIR ASes, have {len(lir_asns)}"
        )
    lirs: List[SimOrg] = []
    asn_iter = iter(lir_asns)
    spare_asns = list(lir_asns[lir_count:])
    rng.shuffle(spare_asns)
    for i in range(lir_count):
        org = SimOrg(
            org_id=f"lir-{i:04d}",
            name=f"LIR {i} Networks",
            model=_pick_model(rng, _LIR_MODEL_WEIGHTS),
            region=region,
            asns=[next(asn_iter)],
        )
        if spare_asns and rng.random() < second_as_fraction:
            org.asns.append(spare_asns.pop())
        lirs.append(org)

    needed = customer_count
    if needed > len(customer_asns):
        raise SimulationError(
            f"need {needed} customer ASes, have {len(customer_asns)}"
        )
    customers = [
        SimOrg(
            org_id=f"cust-{i:04d}",
            name=f"Customer {i}",
            model=_pick_model(rng, _CUSTOMER_MODEL_WEIGHTS),
            region=region,
            asns=[customer_asns[i]],
        )
        for i in range(customer_count)
    ]
    return lirs, customers
