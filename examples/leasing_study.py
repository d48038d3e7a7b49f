#!/usr/bin/env python3
"""The §4 leasing study: BGP vs RDAP delegations, end to end.

Reproduces the paper's core methodological point — neither routing
data nor registration data alone sees the whole leasing market — on a
small world, exercising the real pipelines: route collectors →
inference; WHOIS snapshot → RDAP queries → delegation extraction; then
the mutual-coverage comparison and the combined market-size estimate.

Run with::

    python examples/leasing_study.py
"""

import datetime

from repro.analysis.market_size import estimate_market_size
from repro.delegation import (
    DelegationInference,
    InferenceConfig,
    RdapExtractionStats,
    extract_rdap_delegations,
)
from repro.simulation import World, small_scenario


def main() -> None:
    world = World(small_scenario())
    config = world.config
    comparison_date = config.bgp_end - datetime.timedelta(days=1)

    # --- the routing view -------------------------------------------
    inference = DelegationInference(
        InferenceConfig.extended(), world.as2org()
    )
    result = inference.infer_range(
        world.stream(), config.bgp_start, config.bgp_end
    )
    bgp_prefixes = sorted(result.daily.prefixes_on(comparison_date))
    print(f"BGP view ({comparison_date}): "
          f"{len(bgp_prefixes)} delegated prefixes")
    print(f"  dropped as bogons: {result.pairs_dropped_bogon}")
    print(f"  dropped for visibility: {result.pairs_dropped_visibility}, "
          f"for AS_SET/MOAS: {result.pairs_dropped_origin}, "
          f"same-org: {result.delegations_dropped_same_org}")

    # --- the registration view ------------------------------------------
    server = world.rdap_server()
    client = world.rdap_client(server)
    stats = RdapExtractionStats()
    rdap_delegations = extract_rdap_delegations(
        world.whois().inetnums(), client, stats=stats
    )
    print(f"\nRDAP view: {len(rdap_delegations)} registered delegations")
    print(f"  snapshot: {stats.assigned_total} ASSIGNED PA "
          f"({stats.assigned_smaller_than_24_fraction:.1%} smaller than /24), "
          f"{stats.sub_allocated_total} SUB-ALLOCATED PA")
    print(f"  RDAP queries sent: {client.queries_sent} "
          f"(throttled {client.throttle_events} times), intra-org "
          f"filtered: {stats.intra_org}")

    # --- neither alone is enough -------------------------------------------
    estimate = estimate_market_size(bgp_prefixes, rdap_delegations)
    print()
    for line in estimate.summary_lines():
        print(line)


if __name__ == "__main__":
    main()
