"""Fig. 5: consistency-rule validation on RPKI delegations.

The appendix evaluates the (M, N) rule family against delegations
inferred from RPKI snapshots, where ROA continuity makes presence
observable day by day.  Expected shape (paper):

- fail rate < 5 % at (M=10, N=0) — the rule the paper adopts,
- the fail rate never reaches 30 % even at M=100,
- at M=90, ~90 % of delegations are visible except for ≤ 3 days
  (N=3 fail rate ≈ 10 %).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.delegation.consistency import RuleEvaluation, evaluate_rules
from repro.rpki.database import RoaDatabase

__all__ = ["RuleEvaluation", "evaluate_rules_on_rpki", "fail_rate_curves"]


def evaluate_rules_on_rpki(
    database: RoaDatabase,
    span_values: Sequence[int],
    missing_values: Sequence[int] = (0, 1, 2, 3),
    *,
    jobs: Optional[int] = None,
) -> List[RuleEvaluation]:
    """Evaluate every distinct (M, N) combination on the database's
    delegations (see :func:`~repro.delegation.consistency.evaluate_rules`).

    Returns one :class:`RuleEvaluation` per combination, ordered by
    (M, N) — the Fig. 5 data: fail rate on the y-axis against M on the
    x-axis, one curve per N.

    ``jobs`` is accepted and ignored: the sweep runs in-process, as a
    worker pool cannot pay for its start-up on a sub-second sweep.  It
    stays only because the e2ebench harness still passes it.
    """
    return evaluate_rules(
        database.delegation_timeline(), database.dates(),
        span_values, missing_values,
    )


def fail_rate_curves(
    evaluations: Sequence[RuleEvaluation],
) -> Dict[int, List[Tuple[int, float]]]:
    """Group evaluations into N → [(M, fail_rate), ...] plot series."""
    curves: Dict[int, List[Tuple[int, float]]] = {}
    for evaluation in evaluations:
        curves.setdefault(evaluation.allowed_missing, []).append(
            (evaluation.max_span_days, evaluation.fail_rate)
        )
    for series in curves.values():
        series.sort()
    return curves
