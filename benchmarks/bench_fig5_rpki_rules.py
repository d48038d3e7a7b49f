"""Fig. 5: consistency-rule validation on RPKI delegations.

Asserted shapes (appendix A): fail rate below 5 % at (M=10, N=0) — the
rule the paper adopts; the fail rate never reaches 30 % even at
M=100; at M=90 roughly 90 % of delegations are visible except for at
most 3 days; fail rates grow with M and shrink with N.
"""

from repro.analysis.report import render_comparison
from repro.delegation.rpki_eval import evaluate_rules_on_rpki, fail_rate_curves

SPAN_VALUES = (2, 5, 10, 15, 20, 30, 40, 50, 60, 70, 80, 90, 100)


def test_fig5_consistency_rules(benchmark, world, record_result):
    database = world.rpki()
    evaluations = benchmark.pedantic(
        evaluate_rules_on_rpki,
        args=(database, SPAN_VALUES, (0, 1, 2, 3)),
        rounds=1, iterations=1,
    )
    curves = fail_rate_curves(evaluations)

    by_key = {
        (e.max_span_days, e.allowed_missing): e.fail_rate
        for e in evaluations
    }
    assert by_key[(10, 0)] < 0.05            # the adopted rule
    assert max(by_key.values()) < 0.30       # never reaches 30 %
    assert 1.0 - by_key[(90, 3)] > 0.80      # ~90 % visible at 90 days
    # Monotone: fail rate grows with M, shrinks with N.
    for n, series in curves.items():
        rates = [rate for _m, rate in series]
        assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))
    for m in SPAN_VALUES:
        by_n = [by_key[(m, n)] for n in (0, 1, 2, 3)]
        assert by_n == sorted(by_n, reverse=True)

    record_result(
        "fig5_rpki_rules",
        render_comparison(
            "Fig. 5 — (M, N) consistency-rule fail rates on RPKI",
            [
                ["fail rate at (M=10, N=0)", "~5% (below 5%)",
                 f"{by_key[(10, 0)]:.3f}"],
                ["max fail rate (any M<=100)", "< 30%",
                 f"{max(by_key.values()):.3f}"],
                ["visible at M=90 within N=3", "~90%",
                 f"{1.0 - by_key[(90, 3)]:.1%}"],
                ["monotone in M and N", "yes", "yes"],
            ],
        ),
    )
