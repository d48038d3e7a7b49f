"""BGP delegation inference: Krenc–Feldmann plus the paper's extensions.

The per-day pipeline (§4):

(i)    obtain all prefix-origin pairs from the collectors,
(ii)   drop pairs seen by fewer than half of all BGP monitors
       (*visibility threshold*, configurable — footnote 2 sweeps it),
(iii)  drop pairs whose prefix is originated by an AS_SET or by
       multiple ASes (MOAS),
(iv)+  drop delegations between ASes of the same organization, judged
       against the *next available* as2org snapshot,
(v)+   compensate for on-off announcement patterns with the (M=10,
       N=0) consistency rule (applied across days, after (i)–(iv)).

Steps marked ``+`` are the paper's extensions; both are independently
toggleable so Fig. 6's base-vs-extended comparison and the A1 ablation
fall out of one implementation.
"""

from __future__ import annotations

import datetime
import logging
import math
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.asorg.as2org import As2OrgDataset
from repro.bgp.message import RouteRecord
from repro.bgp.rib import PairTable
from repro.bgp.sanitize import SanitizeStats, sanitize_records
from repro.bgp.stream import RouteStream, prefix_origin_pairs
from repro.delegation.consistency import ConsistencyRule, fill_gaps
from repro.delegation.model import (
    BgpDelegation,
    DailyDelegations,
    DelegationKey,
)
from repro.errors import ReproError
from repro.netbase.bogons import BOGON_PREFIXES
from repro.netbase.lpm import _HOST_BITS, nearest_strict_covers
from repro.netbase.prefix import IPv4Prefix
from repro.obs.metrics import NULL, MetricsRegistry

logger = logging.getLogger(__name__)

#: The bogon list as sorted, disjoint ``(first, last)`` address
#: intervals — the batch bogon filter's two-pointer partner.  Overlap
#: with any interval is exactly :func:`~repro.netbase.bogons.is_bogon`
#: (covering either direction is an interval overlap).
_BOGON_INTERVALS: Tuple[Tuple[int, int], ...] = tuple(
    sorted((p.network, p.broadcast) for p in BOGON_PREFIXES)
)


def record_pipeline_counters(
    metrics: MetricsRegistry,
    result: "InferenceResult",
    delegations_total: int,
) -> None:
    """Bulk-record the pipeline's per-filter attrition into ``metrics``.

    Shared by the sequential :meth:`DelegationInference.infer_range`
    and the parallel :func:`repro.delegation.runner.run_inference`
    fan-in, so both report identical counts under identical names —
    the counters feed the run manifest's stage table.  Recording
    happens once per run (not per pair), so the hot per-day loops pay
    nothing for the instrumentation.
    """
    metrics.inc("pipeline.pairs_seen", result.pairs_seen)
    metrics.inc(
        "pipeline.dropped.bogon", result.sanitize_stats.bogon_prefix
    )
    metrics.inc(
        "pipeline.dropped.visibility", result.pairs_dropped_visibility
    )
    metrics.inc("pipeline.dropped.origin", result.pairs_dropped_origin)
    metrics.inc(
        "pipeline.dropped.same_org", result.delegations_dropped_same_org
    )
    metrics.inc("pipeline.delegations", delegations_total)


@dataclass(frozen=True)
class InferenceConfig:
    """Which steps of the pipeline run, and with which parameters.

    Visibility semantics (step (ii)): a prefix-origin pair is **kept**
    iff it was seen by *at least* ``visibility_threshold`` of all BGP
    monitors — the paper drops pairs "seen by fewer than half of all
    BGP monitors", so a pair seen by exactly half survives.  The
    boundary is evaluated in integer space (see
    :meth:`required_monitors`), so the same ``>=`` semantics hold
    everywhere the threshold is applied: the per-day pipeline, the
    parallel runner, and the A2 ablation sweep.
    """

    visibility_threshold: float = 0.5
    drop_non_unique_origins: bool = True
    same_org_filter: bool = True                 # extension (iv)
    consistency_rule: Optional[ConsistencyRule] = ConsistencyRule(10, 0)
    sanitize: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.visibility_threshold <= 1.0:
            raise ReproError("visibility threshold must be in [0, 1]")

    def required_monitors(self, total_monitors: int) -> int:
        """Minimum monitor count a pair needs to survive step (ii).

        ``ceil(threshold * total)``, with a tolerance so binary float
        rounding cannot flip the boundary: ``0.1 * 30`` evaluates to
        ``3.0000000000000004``, which a naive ``count < threshold *
        total`` comparison would wrongly round *up* — dropping a pair
        seen by exactly the threshold share of monitors.
        """
        exact = self.visibility_threshold * total_monitors
        return max(0, math.ceil(exact - 1e-9))

    @classmethod
    def baseline(cls) -> "InferenceConfig":
        """The previously proposed algorithm (steps (i)–(iii) only)."""
        return cls(same_org_filter=False, consistency_rule=None)

    @classmethod
    def extended(cls) -> "InferenceConfig":
        """The paper's full pipeline."""
        return cls()


@dataclass
class InferenceResult:
    """Delegations over a time window plus bookkeeping counters."""

    daily: DailyDelegations
    config: InferenceConfig
    observation_dates: List[datetime.date] = field(default_factory=list)
    pairs_seen: int = 0
    pairs_dropped_visibility: int = 0
    pairs_dropped_origin: int = 0
    delegations_dropped_same_org: int = 0
    sanitize_stats: SanitizeStats = field(default_factory=SanitizeStats)
    #: Populated by :mod:`repro.delegation.runner` (a
    #: :class:`~repro.delegation.runner.RunnerStats`); ``None`` for
    #: plain sequential runs.
    runner_stats: Optional[object] = None

    def counts_series(self) -> List[Tuple[datetime.date, int]]:
        """(date, #delegations) — the Fig. 6 top series."""
        return [
            (date, self.daily.count_on(date))
            for date in self.observation_dates
        ]

    def addresses_series(self) -> List[Tuple[datetime.date, int]]:
        """(date, delegated addresses) — the Fig. 6 bottom series."""
        return [
            (date, self.daily.addresses_on(date))
            for date in self.observation_dates
        ]


class DelegationInference:
    """The inference pipeline bound to a configuration."""

    def __init__(
        self,
        config: Optional[InferenceConfig] = None,
        as2org: Optional[As2OrgDataset] = None,
    ):
        self._config = config or InferenceConfig()
        if self._config.same_org_filter and as2org is None:
            raise ReproError(
                "same_org_filter requires an as2org dataset"
            )
        self._as2org = as2org
        # Packed key → IPv4Prefix, shared across days: consecutive days
        # delegate almost the same prefixes, so the columnar drivers
        # materialize each distinct prefix exactly once per run.
        self._prefix_cache: Dict[int, IPv4Prefix] = {}

    @property
    def config(self) -> InferenceConfig:
        return self._config

    # -- single-day pipeline ------------------------------------------------

    def infer_day(
        self,
        records: Iterable[RouteRecord],
        total_monitors: int,
        date: datetime.date,
        result: Optional[InferenceResult] = None,
    ) -> List[BgpDelegation]:
        """Run steps (i)–(iv) on one day of route records."""
        config = self._config
        if config.sanitize:
            stats = result.sanitize_stats if result is not None else None
            records = sanitize_records(records, stats)
        pairs = prefix_origin_pairs(records)
        return self.infer_day_from_pairs(
            pairs, total_monitors, date, result, pre_sanitized=True
        )

    def infer_day_from_pairs(
        self,
        pairs: Dict[IPv4Prefix, tuple],
        total_monitors: int,
        date: datetime.date,
        result: Optional[InferenceResult] = None,
        *,
        pre_sanitized: bool = False,
    ) -> List[BgpDelegation]:
        """Run steps (ii)–(iv) on pre-aggregated prefix-origin pairs.

        ``pairs`` maps prefix → (OriginSet, monitor count) — the fast
        path produced by
        :meth:`repro.bgp.collector.CollectorSystem.pair_counts_for_day`.
        When the pairs did not pass through record-level sanitization,
        the bogon rule is applied here (the AS-path rules have no
        equivalent at pair granularity).  The dict is converted to a
        :class:`~repro.bgp.rib.PairTable` and handed to
        :meth:`infer_day_from_table`.
        """
        return self.infer_day_from_table(
            PairTable.from_pairs(pairs), total_monitors, date,
            result, pre_sanitized=pre_sanitized,
        )

    def infer_day_from_table(
        self,
        table: PairTable,
        total_monitors: int,
        date: datetime.date,
        result: Optional[InferenceResult] = None,
        *,
        pre_sanitized: bool = False,
        metrics: MetricsRegistry = NULL,
    ) -> List[BgpDelegation]:
        """Steps (ii)–(iv) on a columnar day — the per-day kernel.

        Everything runs over the table's flat integer columns
        (differential tests pin byte-identical output and counter
        parity against the original trie/dict implementation, kept as
        the test oracle ``tests/delegation/reference_kernel.py``):

        - one fused pass applies bogon (two-pointer against the sorted
          interval list), visibility and unique-origin filters, with
          the same per-filter counting as the reference,
        - the Krenc–Feldmann core — each survivor's most-specific
          *strictly* covering survivor — is one O(n) stack pass over
          the already-sorted keys
          (:func:`~repro.netbase.lpm.nearest_strict_covers`) instead
          of n trie walks,
        - the as2org snapshot for ``date`` is resolved once, not per
          candidate delegation.

        ``IPv4Prefix`` objects are materialized only for the surviving
        delegations.  ``metrics`` receives the two kernel stage timers
        (``kernel.columnar.filter`` / ``kernel.columnar.cover``).
        """
        rows = self._table_delegation_rows(
            table, total_monitors, date, result,
            pre_sanitized=pre_sanitized, metrics=metrics,
        )
        return [
            BgpDelegation(
                prefix=IPv4Prefix(key >> 6, key & 0x3F),
                delegator_asn=delegator,
                delegatee_asn=delegatee,
                covering_prefix=IPv4Prefix(
                    cover_key >> 6, cover_key & 0x3F
                ),
            )
            for key, delegator, delegatee, cover_key in rows
        ]

    def _table_delegation_rows(
        self,
        table: PairTable,
        total_monitors: int,
        date: datetime.date,
        result: Optional[InferenceResult] = None,
        *,
        pre_sanitized: bool = False,
        metrics: MetricsRegistry = NULL,
    ) -> List[Tuple[int, int, int, int]]:
        """The columnar kernel proper, staying in integer space.

        Returns one ``(packed_key, delegator, delegatee,
        cover_packed_key)`` row per inferred delegation, sorted by
        packed key.  :meth:`infer_day_from_table` wraps rows into
        :class:`BgpDelegation` objects; the multi-day drivers consume
        them directly so hot paths never build per-record objects.
        """
        if total_monitors <= 0:
            raise ReproError("total_monitors must be positive")
        config = self._config
        keys = table.keys
        flags = table.flags
        monitor_counts = table.monitor_counts

        with metrics.span("kernel.columnar.filter"):
            needed = config.required_monitors(total_monitors)
            check_bogon = config.sanitize and not pre_sanitized
            intervals = _BOGON_INTERVALS
            interval_count = len(intervals)
            host_bits = _HOST_BITS
            origins = table.origins
            bogon_dropped = visibility_dropped = origin_dropped = 0
            surviving_keys = array("Q")
            surviving_origins: List[int] = []
            keep_key = surviving_keys.append
            keep_origin = surviving_origins.append
            j = 0
            for i, key in enumerate(keys):
                if check_bogon:
                    network = key >> 6
                    # Entry networks ascend with the sorted keys, so
                    # the interval cursor only ever moves forward.
                    while j < interval_count and intervals[j][1] < network:
                        j += 1
                    if j < interval_count and intervals[j][0] <= (
                        network | host_bits[key & 0x3F]
                    ):
                        bogon_dropped += 1
                        continue
                if monitor_counts[i] < needed:
                    visibility_dropped += 1
                    continue
                if not flags[i]:
                    # Non-unique origins (AS_SET or MOAS) never appear
                    # on either side of a delegation, so — matching the
                    # reference — they are dropped and counted under
                    # both settings of ``drop_non_unique_origins``.
                    origin_dropped += 1
                    continue
                keep_key(key)
                keep_origin(origins[i])
            if result is not None:
                result.sanitize_stats.bogon_prefix += bogon_dropped
                result.pairs_seen += len(keys) - bogon_dropped
                result.pairs_dropped_visibility += visibility_dropped
                result.pairs_dropped_origin += origin_dropped

        with metrics.span("kernel.columnar.cover"):
            covers = nearest_strict_covers(surviving_keys)
            same_org = None
            if config.same_org_filter:
                assert self._as2org is not None
                same_org = self._as2org.snapshot_for(date).same_org
            rows: List[Tuple[int, int, int, int]] = []
            same_org_dropped = 0
            for i, cover_index in enumerate(covers):
                if cover_index < 0:
                    continue
                delegator = surviving_origins[cover_index]
                delegatee = surviving_origins[i]
                if delegator == delegatee:
                    continue
                # (iv)+ same-organization filter.
                if same_org is not None and same_org(delegator, delegatee):
                    same_org_dropped += 1
                    continue
                rows.append(
                    (
                        surviving_keys[i], delegator, delegatee,
                        surviving_keys[cover_index],
                    )
                )
            if result is not None:
                result.delegations_dropped_same_org += same_org_dropped
        return rows

    # -- multi-day pipeline ----------------------------------------------------

    def infer_range(
        self,
        stream: RouteStream,
        start: datetime.date,
        end: datetime.date,
        step_days: int = 1,
        *,
        metrics: MetricsRegistry = NULL,
    ) -> InferenceResult:
        """Run the full pipeline over ``[start, end)``.

        Step (v) — consistency-rule gap filling — runs after the per-day
        passes, over the whole window.  ``metrics`` (when not the no-op
        default) receives per-day timings plus the per-filter attrition
        counters the run manifest reports.
        """
        from repro.bgp.stream import date_range

        result = InferenceResult(
            daily=DailyDelegations(), config=self._config
        )
        total_monitors = stream.monitor_count()
        delegations_total = 0
        prefix_cache = self._prefix_cache
        for date in date_range(start, end, step_days):
            result.observation_dates.append(date)
            with metrics.span("pipeline.day"):
                rows = self._table_delegation_rows(
                    stream.pair_table_on(date), total_monitors,
                    date, result, metrics=metrics,
                )
                keys = []
                for key, delegator, delegatee, _cover in rows:
                    prefix = prefix_cache.get(key)
                    if prefix is None:
                        prefix = IPv4Prefix(key >> 6, key & 0x3F)
                        prefix_cache[key] = prefix
                    keys.append((prefix, delegator, delegatee))
                day_count = len(rows)
                result.daily.record(date, keys)
            delegations_total += day_count
            if len(result.observation_dates) % 100 == 0:
                logger.debug(
                    "inference at %s: %d delegations",
                    date, day_count,
                )
        logger.info(
            "inferred delegations for %d days (%d pairs seen)",
            len(result.observation_dates), result.pairs_seen,
        )
        if self._config.consistency_rule is not None:
            with metrics.span("pipeline.consistency"):
                result.daily = fill_gaps(
                    result.daily,
                    self._config.consistency_rule,
                    result.observation_dates,
                    metrics=metrics,
                )
        record_pipeline_counters(metrics, result, delegations_total)
        return result
