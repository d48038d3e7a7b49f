"""Transfer-ledger sanity over seeds (Figs. 2-3 input).

Golden digests pin two paper-scale ledgers byte for byte; these
invariants hold for every seed, so they also cover worlds nobody
recorded:

- no address is transferred twice: ledger prefixes are pairwise
  disjoint;
- every prefix lies in its source RIR's /8s
  (:meth:`AddressPlan.region_of`);
- an inter-RIR record is published in both endpoints' feeds, an
  intra-RIR record in its own feed only;
- the cumulative Fig. 2 series per region and the cumulative Fig. 3
  series are monotone and end at the number of records they count.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.interrir import inter_rir_trend
from repro.analysis.transfers import is_market_transfer, transfer_counts
from repro.registry.rir import RIR
from repro.simulation import World, small_scenario
from repro.simulation.addressplan import AddressPlan

#: Seeds that once failed; none so far.
REGRESSION_SEEDS = []


def _cumulative(values):
    total, out = 0, []
    for value in values:
        total += value
        out.append(total)
    return out


def _nondecreasing(values):
    return all(a <= b for a, b in zip(values, values[1:]))


def check_ledger(seed, mna_fraction=None):
    config = small_scenario(seed=seed)
    if mna_fraction is not None:
        config = dataclasses.replace(config, mna_fraction=mna_fraction)
    ledger = World(config).transfer_ledger()
    records = ledger.records()
    assert records

    prefixes = sorted(p for record in records for p in record.prefixes)
    for left, right in zip(prefixes, prefixes[1:]):
        assert not left.overlaps(right), (left, right)

    plan = AddressPlan()
    for record in records:
        for prefix in record.prefixes:
            assert plan.region_of(prefix) is record.source_rir

    published = {
        rir: {t["transfer_id"] for t in ledger.feed_for(rir)["transfers"]}
        for rir in RIR
    }
    for record in records:
        expected = {record.source_rir, record.recipient_rir}
        feeds = {rir for rir in RIR if record.transfer_id in published[rir]}
        assert feeds == expected, record.transfer_id

    # Fig. 2: per-region bins, oldest first, each a positive count.
    series = transfer_counts(ledger)
    for rir, bins in series.items():
        starts = [start for start, _count in bins]
        assert starts == sorted(set(starts))
        counts = [count for _start, count in bins]
        assert all(count > 0 for count in counts)
        running = _cumulative(counts)
        assert _nondecreasing(running)
        expected = sum(
            1 for r in records
            if r.source_rir is rir and not r.is_inter_rir
            and is_market_transfer(r)
        )
        assert (running[-1] if running else 0) == expected

    # Fig. 3: yearly inter-RIR counts and addresses.
    trend = inter_rir_trend(ledger)
    years = [year.year for year in trend]
    assert years == sorted(set(years))
    inter = ledger.inter_rir()
    for field, expected in (
        ("count", len(inter)),
        ("addresses", sum(r.addresses for r in inter)),
    ):
        running = _cumulative(getattr(year, field) for year in trend)
        assert all(getattr(year, field) > 0 for year in trend)
        assert _nondecreasing(running)
        assert (running[-1] if running else 0) == expected


class TestLedgerInvariants:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=0.6)),
    )
    def test_random_seeds(self, seed, mna_fraction):
        check_ledger(seed, mna_fraction)

    def test_regression_seeds(self):
        for seed in REGRESSION_SEEDS:
            check_ledger(seed)
