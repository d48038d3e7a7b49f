#!/usr/bin/env python3
"""Three-source fusion: the paper's §7 future work, implemented.

"We argue that future research efforts should combine routing
information, RPKI data, as well as the RDAP databases to obtain a
better picture of the leasing ecosystem" — this example does exactly
that: it runs the BGP inference, reads the RPKI delegations, extracts
the RDAP delegations, fuses all three, and interprets the provenance
combinations.

Run with::

    python examples/fusion_study.py
"""

import datetime

from repro.delegation import (
    DelegationInference,
    InferenceConfig,
    Source,
    extract_rdap_delegations,
    fuse_delegations,
)
from repro.simulation import World, small_scenario


def main() -> None:
    world = World(small_scenario())
    date = world.config.bgp_end - datetime.timedelta(days=1)

    # Source 1: routing (BGP collectors -> inference pipeline).
    inference = DelegationInference(
        InferenceConfig.extended(), world.as2org()
    )
    stream = world.stream()
    bgp = inference.infer_day_from_table(
        stream.pair_table_on(date), stream.monitor_count(), date
    )

    # Source 2: RPKI (ROA-implied delegations on the last snapshot).
    rpki = world.rpki().delegations_on(world.rpki().dates()[-1])

    # Source 3: registration (WHOIS snapshot -> RDAP queries).
    rdap = extract_rdap_delegations(
        world.whois().inetnums(), world.rdap_client()
    )

    report = fuse_delegations(bgp, rpki, rdap)
    print(f"sources on {date}: BGP={len(bgp)}, RPKI={len(rpki)}, "
          f"RDAP={len(rdap)}")
    print()
    for line in report.summary_lines():
        print(line)

    # Interpret the provenance classes.
    unrouted = [f for f in report.fused if f.registered_but_unrouted]
    unregistered = [f for f in report.fused if f.routed_but_unregistered]
    corroborated = [f for f in report.fused if f.corroboration >= 2]
    print()
    print(f"registered but unrouted (reserved for future customers): "
          f"{len(unrouted)}")
    print(f"routed but unregistered (no WHOIS entry required): "
          f"{len(unregistered)}")
    print(f"corroborated by 2+ sources: {len(corroborated)}")

    rpki_backed = [
        f for f in report.fused
        if Source.RPKI in f.sources and Source.BGP in f.sources
    ]
    print(f"routed with ROA continuity (operationally serious): "
          f"{len(rpki_backed)}")


if __name__ == "__main__":
    main()
