"""Extension X1: BGP + RPKI + RDAP fusion (the paper's future work).

§7 proposes combining routing information, RPKI data, and the RDAP
databases "to obtain a better picture of the leasing ecosystem".
This benchmark runs all three pipelines on the paper-scale world and
fuses them, asserting the structural claims §4 makes about the
sources' complementarity.
"""

import datetime

from repro.analysis.report import render_comparison
from repro.delegation import (
    DelegationInference,
    InferenceConfig,
    Source,
    extract_rdap_delegations,
    fuse_delegations,
)


def test_x1_three_source_fusion(benchmark, world, record_result):
    config = world.config
    date = config.bgp_end - datetime.timedelta(days=1)

    def run_fusion():
        inference = DelegationInference(
            InferenceConfig.extended(), world.as2org()
        )
        stream = world.stream()
        bgp = inference.infer_day_from_table(
            stream.pair_table_on(date), stream.monitor_count(), date
        )
        rpki_date = world.rpki().dates()[-1]
        rpki = world.rpki().delegations_on(rpki_date)
        client = world.rdap_client()
        rdap = extract_rdap_delegations(world.whois().inetnums(), client)
        return fuse_delegations(bgp, rpki, rdap), bgp, rpki, rdap

    report, bgp, rpki, rdap = benchmark.pedantic(
        run_fusion, rounds=1, iterations=1
    )

    by_source = report.addresses_by_source
    # RDAP dominates by addresses (the administrative record sees the
    # reserved majority); RPKI is an order of magnitude below BGP
    # (paper appendix: "an order of magnitude less delegations").
    assert by_source[Source.RDAP] > 10 * by_source[Source.BGP]
    assert len(rpki) < len(bgp) / 5  # "an order of magnitude less"
    # The combined picture strictly exceeds every single source.
    for addresses in by_source.values():
        assert report.combined_addresses >= addresses
    # Corroboration exists at every level.
    corroboration = report.count_by_corroboration()
    assert corroboration.get(1, 0) > 0
    assert corroboration.get(2, 0) > 0

    record_result(
        "x1_fusion",
        render_comparison(
            "X1 — three-source delegation fusion (future work of §7)",
            [
                ["BGP delegations", "-", len(bgp)],
                ["RPKI delegations", "~10x fewer than BGP", len(rpki)],
                ["RDAP delegations", "-", len(rdap)],
                ["BGP addresses", "-", by_source[Source.BGP]],
                ["RDAP addresses", ">> BGP addresses",
                 by_source[Source.RDAP]],
                ["combined addresses", "the full ecosystem",
                 report.combined_addresses],
                ["corroboration levels",
                 "singly- and multi-source delegations",
                 str(dict(sorted(corroboration.items())))],
            ],
        ),
    )
