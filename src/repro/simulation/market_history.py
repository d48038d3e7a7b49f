"""Market history generation: transfer ledger and priced transactions.

Reproduces the three market shapes the paper reports:

- **Fig. 2** — regional transfer markets start when their RIR reaches
  its last /8, then fluctuate; RIPE shows year-end peaks; AFRINIC and
  LACNIC stay negligible.
- **Fig. 3** — inter-RIR transfers (APNIC/ARIN/RIPE only) grow in
  count while block sizes shrink; ARIN is the dominant source.
- **Fig. 1** — the priced transaction dataset: per-quarter counts in
  the paper's ranges (APNIC 8–23, ARIN 83–196, RIPE 12–19, ≈2.9k
  total), prices from the calibrated
  :class:`~repro.market.pricing.PriceModel`.
"""

from __future__ import annotations

import datetime
import random
from typing import Dict, Iterator, List, Tuple

from repro.market.broker import default_brokers
from repro.market.pricing import PriceModel
from repro.market.transactions import Transaction, TransactionDataset
from repro.registry.rir import RIR, profile_for
from repro.registry.transfers import TransferLedger, TransferType
from repro.simulation.addressplan import AddressPlan
from repro.simulation.scenario import ScenarioConfig

#: Inter-RIR flows and their rough share of all inter-RIR transfers.
#: ARIN is the big source (§3: "Most transfers move address space away
#: from ARIN and either to APNIC or RIPE").
_INTER_RIR_FLOWS: Tuple[Tuple[RIR, RIR, float], ...] = (
    (RIR.ARIN, RIR.APNIC, 0.38),
    (RIR.ARIN, RIR.RIPE, 0.34),
    (RIR.APNIC, RIR.ARIN, 0.07),
    (RIR.APNIC, RIR.RIPE, 0.06),
    (RIR.RIPE, RIR.ARIN, 0.08),
    (RIR.RIPE, RIR.APNIC, 0.07),
)

#: The inter-RIR policy became usable in late 2012.
_INTER_RIR_START_YEAR = 2012


def quarters(
    start: datetime.date, end: datetime.date
) -> Iterator[Tuple[datetime.date, datetime.date]]:
    """Yield (first_day, first_day_of_next) quarter windows."""
    year, quarter = start.year, (start.month - 1) // 3
    while True:
        first = datetime.date(year, quarter * 3 + 1, 1)
        if quarter == 3:
            nxt = datetime.date(year + 1, 1, 1)
        else:
            nxt = datetime.date(year, quarter * 3 + 4, 1)
        if first >= end:
            return
        yield max(first, start), min(nxt, end)
        year, quarter = (year + 1, 0) if quarter == 3 else (year, quarter + 1)


def _market_intensity(
    rir: RIR, date: datetime.date, config: ScenarioConfig
) -> float:
    """Relative market activity of ``rir`` on ``date`` (0 = closed).

    Zero before the RIR's last-/8 date (no market without scarcity),
    then a saturating ramp over ~three years, with RIPE's Q4 seasonal
    factor on top.
    """
    profile = profile_for(rir)
    if date < profile.last_slash8_date:
        return 0.0
    ramp_days = (date - profile.last_slash8_date).days
    level = min(1.0, ramp_days / (3 * 365))
    if rir is RIR.RIPE and date.month in (10, 11, 12):
        level *= config.ripe_q4_factor
    return level


def _transfer_length(rng: random.Random) -> int:
    """Block size of one transfer (mostly /24..//22, some larger)."""
    roll = rng.random()
    if roll < 0.45:
        return 24
    if roll < 0.65:
        return 23
    if roll < 0.80:
        return 22
    if roll < 0.90:
        return 21
    if roll < 0.96:
        return 20
    return rng.choice([19, 18, 17, 16])


def generate_transfer_ledger(
    rng: random.Random,
    config: ScenarioConfig,
    plan: AddressPlan,
) -> TransferLedger:
    """Generate the full 2009–2020 transfer ledger (Fig. 2 + Fig. 3)."""
    ledger = TransferLedger()
    org_counter = 0

    def next_orgs() -> Tuple[str, str]:
        nonlocal org_counter
        org_counter += 1
        return (f"seller-{org_counter:05d}", f"buyer-{org_counter:05d}")

    # -- intra-RIR transfers quarter by quarter -----------------------------
    for first, nxt in quarters(config.market_start, config.market_end):
        mid = first + (nxt - first) / 2
        for rir in RIR:
            base = config.transfers_per_quarter.get(rir.value, 0)
            intensity = _market_intensity(rir, mid, config)
            expected = base * intensity
            if expected <= 0:
                continue
            count = max(0, round(rng.gauss(expected, expected * 0.18)))
            span = max(1, (nxt - first).days)
            for _ in range(count):
                date = first + datetime.timedelta(days=rng.randrange(span))
                seller, buyer = next_orgs()
                is_mna = rng.random() < config.mna_fraction
                if is_mna:
                    # M&A moves a whole company's holdings at once:
                    # several blocks in a single transfer record.
                    blocks = [
                        plan.take(rir, _transfer_length(rng))
                        for _ in range(rng.randint(2, 4))
                    ]
                else:
                    # Market sales are almost always single blocks; a
                    # small tail of two-block deals keeps any
                    # count-based M&A heuristic honestly imperfect.
                    block_count = 2 if rng.random() < 0.07 else 1
                    blocks = [
                        plan.take(rir, _transfer_length(rng))
                        for _ in range(block_count)
                    ]
                ledger.record(
                    date=date,
                    prefixes=blocks,
                    source_org=seller,
                    recipient_org=buyer,
                    source_rir=rir,
                    recipient_rir=rir,
                    true_type=(
                        TransferType.MERGER_ACQUISITION
                        if is_mna
                        else TransferType.MARKET
                    ),
                )

    # -- inter-RIR transfers year by year -------------------------------------
    for year in range(_INTER_RIR_START_YEAR, config.market_end.year + 1):
        years_in = year - _INTER_RIR_START_YEAR
        # Counts grow steadily (paper: "continuously increases").
        yearly_total = 6 + 9 * years_in
        # Sizes shrink: average length moves from ~/18 to ~/22.
        mean_length = min(22.0, 18.0 + 0.55 * years_in)
        for source, dest, share in _INTER_RIR_FLOWS:
            flow_count = max(0, round(
                rng.gauss(yearly_total * share, 1.0)
            ))
            for _ in range(flow_count):
                day_of_year = rng.randrange(1, 360)
                date = (
                    datetime.date(year, 1, 1)
                    + datetime.timedelta(days=day_of_year)
                )
                if not (config.market_start <= date < config.market_end):
                    continue
                length = int(
                    min(24, max(16, round(rng.gauss(mean_length, 1.2))))
                )
                block = plan.take(source, length)
                seller, buyer = next_orgs()
                ledger.record(
                    date=date,
                    prefixes=[block],
                    source_org=seller,
                    recipient_org=buyer,
                    source_rir=source,
                    recipient_rir=dest,
                )
    return ledger


def generate_priced_transactions(
    rng: random.Random,
    config: ScenarioConfig,
    price_model: PriceModel,
) -> TransactionDataset:
    """Generate the broker pricing dataset (Fig. 1's input)."""
    brokers = default_brokers()
    broker_names = [b.name for b in brokers]
    transactions: List[Transaction] = []
    for first, nxt in quarters(config.pricing_start, config.market_end):
        span = max(1, (nxt - first).days)
        for region_value, (low, high) in config.priced_per_quarter.items():
            rir = RIR(region_value)
            count = rng.randint(low, high)
            for _ in range(count):
                date = first + datetime.timedelta(days=rng.randrange(span))
                length = _transfer_length(rng)
                transactions.append(
                    Transaction(
                        date=date,
                        region=rir,
                        block_length=length,
                        price_per_address=price_model.sample_price(
                            rng, date, length, rir
                        ),
                        broker=rng.choice(broker_names),
                    )
                )
    # The handful of AFRINIC/LACNIC transactions (excluded from Fig. 1).
    window_days = (config.market_end - config.pricing_start).days
    for _ in range(config.priced_minor_regions_total):
        rir = rng.choice([RIR.AFRINIC, RIR.LACNIC])
        date = config.pricing_start + datetime.timedelta(
            days=rng.randrange(window_days)
        )
        length = _transfer_length(rng)
        transactions.append(
            Transaction(
                date=date,
                region=rir,
                block_length=length,
                price_per_address=price_model.sample_price(
                    rng, date, length, rir
                ),
                broker=rng.choice(broker_names),
            )
        )
    # One stable sort: the same order as sorting after every append.
    return TransactionDataset(transactions)
