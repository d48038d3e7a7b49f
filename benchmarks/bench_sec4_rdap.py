"""§4: RDAP-delegation statistics and the BGP-vs-RDAP comparison.

Asserted shapes (all at the 1:100 scale of DESIGN.md):

- SUB-ALLOCATED:ASSIGNED object ratio ≈ 4.5k : 3.96M,
- 91.4 % of ASSIGNED PA entries are smaller than /24,
- after the ≥/24 and intra-org filters, ≈1.8k (→ "181k") RDAP
  delegations remain,
- BGP delegations cover ≈1.85 % of RDAP-delegated IPs while RDAP
  delegations cover ≈65.7 % of BGP-delegated IPs.
"""

import datetime

from repro.analysis.market_size import estimate_market_size
from repro.analysis.report import render_comparison
from repro.delegation import (
    DelegationInference,
    InferenceConfig,
    RdapExtractionStats,
    compare_delegations,
    extract_rdap_delegations,
)


def test_sec4_rdap_pipeline(benchmark, world, record_result):
    config = world.config

    def run_pipeline():
        server = world.rdap_server()
        client = world.rdap_client(server)
        stats = RdapExtractionStats()
        delegations = extract_rdap_delegations(
            world.whois().inetnums(), client, stats=stats
        )
        return delegations, stats, client

    rdap_delegations, stats, client = benchmark.pedantic(
        run_pipeline, rounds=1, iterations=1
    )

    # §4 snapshot statistics (1:100 scale).
    assert 30 <= stats.sub_allocated_total <= 60            # "~4.5k"/100
    assert 30_000 <= stats.assigned_total <= 50_000         # "~3.96M"/100
    assert abs(stats.assigned_smaller_than_24_fraction - 0.914) < 0.01
    assert 1_500 <= stats.delegations + stats.intra_org <= 4_500
    assert 1_400 <= len(rdap_delegations) <= 2_400          # "181k"/100
    assert stats.intra_org > 0                              # filter bites
    assert client.queries_sent >= stats.queried             # RDAP exercised

    # BGP delegations on the comparison date (end of the window).
    comparison_date = config.bgp_end - datetime.timedelta(days=1)
    inference = DelegationInference(InferenceConfig.extended(), world.as2org())
    stream = world.stream()
    bgp = inference.infer_day_from_table(
        stream.pair_table_on(comparison_date), stream.monitor_count(),
        comparison_date,
    )
    bgp_prefixes = [d.prefix for d in bgp]
    report = compare_delegations(bgp_prefixes, rdap_delegations)

    assert 0.01 <= report.bgp_over_rdap <= 0.035   # "~1.85 %"
    assert 0.55 <= report.rdap_over_bgp <= 0.75    # "~65.7 %"

    estimate = estimate_market_size(bgp_prefixes, rdap_delegations)
    assert estimate.combined_addresses > report.bgp_addresses * 10

    record_result(
        "sec4_rdap",
        render_comparison(
            "§4 — RDAP delegations and BGP/RDAP coverage (1:100 scale)",
            [
                ["SUB-ALLOCATED PA objects", "~4.5k/100",
                 stats.sub_allocated_total],
                ["ASSIGNED PA objects", "~3.96M/100", stats.assigned_total],
                ["ASSIGNED PA smaller than /24", "91.4%",
                 f"{stats.assigned_smaller_than_24_fraction:.1%}"],
                ["RDAP delegations after filters", "181k/100",
                 len(rdap_delegations)],
                ["BGP covers of RDAP IPs", "~1.85%",
                 f"{report.bgp_over_rdap:.2%}"],
                ["RDAP covers of BGP IPs", "~65.7%",
                 f"{report.rdap_over_bgp:.1%}"],
                ["combined vs BGP-only market size", ">> 1x",
                 f"{estimate.bgp_alone_underestimates_by:.1f}x"],
            ],
        ),
    )
