"""The original trie/dict per-day kernel, kept as a test oracle.

Steps (ii)–(iv) of the delegation inference once ran over dicts of
``IPv4Prefix`` / ``OriginSet`` objects and probed a
:class:`~repro.netbase.trie.PrefixTrie` for every candidate.  The
library now has exactly one per-day kernel — the columnar pass in
:class:`~repro.delegation.inference.DelegationInference` — and this
module keeps the trie implementation as the independent reference
the differential tests compare the columnar kernel against.  It
always drops bogon prefixes and non-unique origins, as the kernel
does.
"""

import datetime
from typing import Dict, List, Optional, Tuple

from repro.bgp.stream import RouteStream, date_range, prefix_origin_pairs
from repro.delegation.consistency import fill_gaps
from repro.delegation.inference import DelegationInference, InferenceResult
from repro.delegation.model import BgpDelegation, DailyDelegations
from repro.errors import ReproError
from repro.netbase.bogons import is_bogon
from repro.netbase.prefix import IPv4Prefix
from repro.netbase.trie import PrefixTrie


class ReferenceInference(DelegationInference):
    """:class:`DelegationInference` with the trie kernel per day."""

    def infer_day_from_pairs(
        self,
        pairs: Dict[IPv4Prefix, tuple],
        total_monitors: int,
        date: datetime.date,
        result: Optional[InferenceResult] = None,
    ) -> List[BgpDelegation]:
        """Steps (ii)–(iv) on one day's prefix → (OriginSet, count).

        Bogon prefixes are dropped (and counted) first, like the
        kernel's fused pass.
        """
        if total_monitors <= 0:
            raise ReproError("total_monitors must be positive")
        config = self._config
        filtered = {}
        for prefix, value in pairs.items():
            if is_bogon(prefix):
                if result is not None:
                    result.pairs_dropped_bogon += 1
                continue
            filtered[prefix] = value
        pairs = filtered
        if result is not None:
            result.pairs_seen += len(pairs)

        # (ii) global-visibility filter.
        needed = config.required_monitors(total_monitors)
        visible: Dict[IPv4Prefix, object] = {}
        for prefix, (origin_set, monitor_count) in pairs.items():
            if monitor_count < needed:
                if result is not None:
                    result.pairs_dropped_visibility += 1
                continue
            visible[prefix] = origin_set

        # (iii) unique-origin filter.
        origin_of: Dict[IPv4Prefix, int] = {}
        for prefix, origin_set in visible.items():
            if not origin_set.is_unique:
                if result is not None:
                    result.pairs_dropped_origin += 1
                continue
            origin_of[prefix] = origin_set.sole_origin()

        # Core Krenc–Feldmann step: P' delegated iff its most-specific
        # strict cover P has a different origin.
        trie: PrefixTrie[int] = PrefixTrie()
        for prefix, origin in origin_of.items():
            trie.insert(prefix, origin)
        delegations: List[BgpDelegation] = []
        for prefix, delegatee in origin_of.items():
            cover: Optional[Tuple[IPv4Prefix, int]] = None
            for covering_prefix, origin in trie.covering(prefix):
                if covering_prefix.length < prefix.length:
                    cover = (covering_prefix, origin)
            if cover is None:
                continue
            covering_prefix, delegator = cover
            if delegator == delegatee:
                continue
            # (iv)+ same-organization filter.
            if config.same_org_filter:
                assert self._as2org is not None
                if self._as2org.same_org(delegator, delegatee, date):
                    if result is not None:
                        result.delegations_dropped_same_org += 1
                    continue
            delegations.append(
                BgpDelegation(
                    prefix=prefix,
                    delegator_asn=delegator,
                    delegatee_asn=delegatee,
                    covering_prefix=covering_prefix,
                )
            )
        return delegations

    def infer_range(
        self,
        stream: RouteStream,
        start: datetime.date,
        end: datetime.date,
        step_days: int = 1,
    ) -> InferenceResult:
        """The full pipeline over ``[start, end)`` via the trie kernel.

        Reads each day's route records and aggregates them with
        :func:`~repro.bgp.stream.prefix_origin_pairs`, so neither the
        packed day aggregation nor the kernel is shared with the code
        under test; then applies extension (v) once over the window.
        """
        result = InferenceResult(
            daily=DailyDelegations(), config=self._config
        )
        total_monitors = stream.monitor_count()
        for date in date_range(start, end, step_days):
            result.observation_dates.append(date)
            delegations = self.infer_day_from_pairs(
                prefix_origin_pairs(stream.records_on(date)),
                total_monitors, date, result,
            )
            result.daily.record(date, [d.key() for d in delegations])
        if self._config.consistency_rule is not None:
            result.daily = fill_gaps(
                result.daily,
                self._config.consistency_rule,
                result.observation_dates,
            )
        return result
