"""BGP delegation inference: Krenc–Feldmann plus the paper's extensions.

The per-day pipeline (§4):

(i)    obtain all prefix-origin pairs from the collectors, without
       bogon prefixes, reserved ASNs or AS-path loops,
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
from itertools import repeat
from operator import and_, itemgetter, rshift
from typing import List, Optional, Sequence, Tuple

from repro.asorg.as2org import As2OrgDataset
from repro.bgp.rib import PairTable
from repro.bgp.stream import RouteStream
from repro.delegation.consistency import ConsistencyRule, fill_gaps
from repro.delegation.model import BgpDelegation, DailyDelegations
from repro.errors import ReproError
from repro.netbase.bogons import BOGON_PREFIXES
from repro.netbase.lpm import _HOST_BITS
from repro.netbase.prefix import IPv4Prefix
from repro.obs.metrics import NULL, MetricsRegistry

logger = logging.getLogger(__name__)

#: The bogon list as sorted, disjoint ``(first, last)`` address
#: intervals — the kernel's interval cursor walks it alongside the
#: sorted keys.  Overlap with any interval is exactly
#: :func:`~repro.netbase.bogons.is_bogon` (covering either direction is
#: an interval overlap).  The last interval is a sentinel past every
#: address: no key reaches it, and the cursor never runs off the end.
_BOGON_INTERVALS: Tuple[Tuple[int, int], ...] = tuple(
    sorted((p.network, p.broadcast) for p in BOGON_PREFIXES)
) + ((1 << 32, 1 << 32),)

#: The bottom of the kernel's nesting chain: it ends past every
#: address, so it is never popped, and its key of -1 means "no cover".
_NO_COVER = (1 << 32, -1, -1)


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
    metrics.inc("pipeline.dropped.bogon", result.pairs_dropped_bogon)
    metrics.inc(
        "pipeline.dropped.visibility", result.pairs_dropped_visibility
    )
    metrics.inc("pipeline.dropped.origin", result.pairs_dropped_origin)
    metrics.inc(
        "pipeline.dropped.same_org", result.delegations_dropped_same_org
    )
    metrics.inc("pipeline.delegations", delegations_total)


def rows_column(rows: Sequence[Tuple[int, int, int, int]]) -> array:
    """One day's packed delegation column from the kernel's rows.

    Rows come key-ascending with one row per key, so the quads
    ``(network, length, delegator, delegatee)`` come out sorted and
    free of duplicates, as :class:`DailyDelegations` keeps them.  Each
    word of the quad is one strided slice assignment.
    """
    column = array("I", bytes(16 * len(rows)))
    keys = list(map(itemgetter(0), rows))
    column[0::4] = array("I", map(rshift, keys, repeat(6)))
    column[1::4] = array("I", map(and_, keys, repeat(0x3F)))
    column[2::4] = array("I", map(itemgetter(1), rows))
    column[3::4] = array("I", map(itemgetter(2), rows))
    return column


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
    same_org_filter: bool = True                 # extension (iv)
    consistency_rule: Optional[ConsistencyRule] = ConsistencyRule(10, 0)

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
    pairs_dropped_bogon: int = 0
    pairs_dropped_visibility: int = 0
    pairs_dropped_origin: int = 0
    delegations_dropped_same_org: int = 0
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

    @property
    def config(self) -> InferenceConfig:
        return self._config

    # -- single-day pipeline ------------------------------------------------

    def infer_day_from_table(
        self,
        table: PairTable,
        total_monitors: int,
        date: datetime.date,
        result: Optional[InferenceResult] = None,
        *,
        metrics: MetricsRegistry = NULL,
    ) -> List[BgpDelegation]:
        """Steps (ii)–(iv) on a columnar day — the per-day kernel.

        This is the one way into a day: ``table`` comes from
        :meth:`~repro.bgp.stream.RouteStream.pair_table_on` (or
        :meth:`~repro.bgp.rib.PairTable.from_pairs` over
        :func:`~repro.bgp.stream.prefix_origin_pairs` for a day of
        records).  Of step (i)'s cleaning rules, the bogon rule runs
        here, per pair; the two AS-path rules need routes, so the
        stream applies them before aggregating.

        Everything runs in one pass over the table's flat integer
        columns (differential tests pin byte-identical output and
        counter parity against the original trie/dict implementation,
        kept as the test oracle ``tests/delegation/reference_kernel.py``):

        - each pair meets the bogon (an interval cursor over the sorted
          bogon intervals), visibility and unique-origin filters in
          turn, with the same per-filter counting as the reference,
        - each survivor's most-specific *strictly* covering survivor —
          the Krenc–Feldmann core — is the top of a stack holding the
          open nesting chain of the already-sorted keys, instead of n
          trie walks,
        - the as2org snapshot for ``date`` is resolved once, not per
          candidate delegation.

        ``IPv4Prefix`` objects are materialized only for the surviving
        delegations.  ``metrics`` receives the pass's one stage timer,
        ``kernel.columnar``.
        """
        rows = self._table_delegation_rows(
            table, total_monitors, date, result, metrics=metrics,
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
        same_org = None
        if config.same_org_filter:
            assert self._as2org is not None
            same_org = self._as2org.snapshot_for(date).same_org

        with metrics.span("kernel.columnar"):
            needed = config.required_monitors(total_monitors)
            host_bits = _HOST_BITS
            bogon_dropped = visibility_dropped = origin_dropped = 0
            same_org_dropped = 0
            rows: List[Tuple[int, int, int, int]] = []
            emit = rows.append
            # The current bogon interval lives in locals; entry networks
            # ascend with the sorted keys, so the cursor only ever moves
            # forward, and the sentinel past every address stops it.
            intervals = iter(_BOGON_INTERVALS)
            low, high = next(intervals)
            # The open nesting chain of survivors as ``(broadcast, key,
            # origin)``: CIDR blocks nest or are disjoint and covering
            # keys sort first, so once the entries that end before a
            # survivor are popped, the top is its nearest strict cover.
            # The bottom entry reaches past every address and is never
            # popped; its key of -1 marks "no cover".
            chain = [_NO_COVER]
            pop = chain.pop
            push = chain.append
            cover_end, cover_key, delegator = _NO_COVER
            for key, origin, flag, seen in zip(
                keys, table.origins, table.flags, table.monitor_counts
            ):
                network = key >> 6
                while high < network:
                    low, high = next(intervals)
                broadcast = network | host_bits[key & 0x3F]
                if low <= broadcast:
                    bogon_dropped += 1
                    continue
                if seen < needed:
                    visibility_dropped += 1
                    continue
                if not flag:
                    # Step (iii): non-unique origins (AS_SET or MOAS)
                    # never appear on either side of a delegation.
                    origin_dropped += 1
                    continue
                if cover_end < network:
                    pop()
                    while chain[-1][0] < network:
                        pop()
                    cover_end, cover_key, delegator = chain[-1]
                if cover_key >= 0 and delegator != origin:
                    # (iv)+ same-organization filter.
                    if same_org is not None and same_org(delegator, origin):
                        same_org_dropped += 1
                    else:
                        emit((key, delegator, origin, cover_key))
                push((broadcast, key, origin))
                cover_end, cover_key, delegator = broadcast, key, origin
            if result is not None:
                result.pairs_dropped_bogon += bogon_dropped
                result.pairs_seen += len(keys) - bogon_dropped
                result.pairs_dropped_visibility += visibility_dropped
                result.pairs_dropped_origin += origin_dropped
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
        for date in date_range(start, end, step_days):
            result.observation_dates.append(date)
            with metrics.span("pipeline.day"):
                rows = self._table_delegation_rows(
                    stream.pair_table_on(date), total_monitors,
                    date, result, metrics=metrics,
                )
                day_count = len(rows)
                result.daily.record_quads(date, rows_column(rows))
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
