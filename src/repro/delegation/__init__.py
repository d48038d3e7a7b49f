"""The paper's core contribution: delegation inference (§4 + appendix).

- :mod:`~repro.delegation.model` — delegation record types,
- :mod:`~repro.delegation.inference` — the Krenc–Feldmann base
  algorithm plus the paper's extensions (same-organization filter and
  consistency-rule gap filling), all independently toggleable, over
  one columnar per-day kernel (packed arrays, sorted-array covers),
- :mod:`~repro.delegation.consistency` — the "(M, N)" consistency-rule
  family, gap filling, and fail-rate evaluation,
- :mod:`~repro.delegation.runner` — parallel whole-day fan-out with a
  zero-copy shared-memory fan-in and content-addressed result shards
  in the ``--store`` shard store,
- :mod:`~repro.delegation.rpki_eval` — Fig. 5: rule validation against
  RPKI delegation timelines,
- :mod:`~repro.delegation.rdap_extract` — the RDAP pipeline (§4),
- :mod:`~repro.delegation.compare` — BGP-vs-RDAP coverage statistics.
"""

from repro.delegation.compare import CoverageReport, compare_delegations
from repro.delegation.fusion import (
    FusedDelegation,
    FusionReport,
    Source,
    fuse_delegations,
)
from repro.delegation.consistency import (
    ConsistencyRule,
    evaluate_rule,
    fill_gaps,
)
from repro.delegation.io import (
    read_daily_delegations,
    write_daily_delegations,
)
from repro.delegation.inference import (
    DelegationInference,
    InferenceConfig,
    InferenceResult,
)
from repro.delegation.model import BgpDelegation, DailyDelegations, RdapDelegation
from repro.delegation.rdap_extract import RdapExtractionStats, extract_rdap_delegations
from repro.delegation.rpki_eval import RuleEvaluation, evaluate_rules_on_rpki
from repro.delegation.runner import (
    ArchiveStreamFactory,
    RunnerStats,
    WorldStreamFactory,
    run_inference,
)

__all__ = [
    "ArchiveStreamFactory",
    "BgpDelegation",
    "ConsistencyRule",
    "CoverageReport",
    "DailyDelegations",
    "DelegationInference",
    "FusedDelegation",
    "FusionReport",
    "InferenceConfig",
    "InferenceResult",
    "Source",
    "fuse_delegations",
    "RdapDelegation",
    "RdapExtractionStats",
    "RuleEvaluation",
    "RunnerStats",
    "WorldStreamFactory",
    "compare_delegations",
    "evaluate_rule",
    "evaluate_rules_on_rpki",
    "extract_rdap_delegations",
    "fill_gaps",
    "read_daily_delegations",
    "run_inference",
    "write_daily_delegations",
]
