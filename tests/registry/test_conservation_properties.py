"""Address-space conservation through the registry lifecycle.

A :class:`RegistrySystem` never creates or loses space: after every
membership open or close, allocation, quarantine release on ``tick``,
intra-RIR transfer and inter-RIR transfer, the free pools, the
registered holdings and the quarantined blocks of all five registries
tile the initial blocks exactly — pairwise disjoint, inside the initial
space, and summing to it.  Each seed drives one random lifecycle from
2005 to 2021, so every RIR passes through its normal, soft-landing and
(where it has one) exhausted phase (Table 1).  The pools are small, so
requests also hit exhaustion and the waiting lists.
"""

import datetime
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    MembershipError,
    PolicyError,
    PoolExhaustedError,
    TransferError,
)
from repro.netbase.prefix import IPv4Prefix
from repro.registry.registry import RegistrySystem
from repro.registry.rir import RIR, profile_for

#: Two small blocks per region, a /19 and a /21 from its real /8s, so
#: normal-phase allocations drain them before soft landing ends.
INITIAL = {
    RIR.AFRINIC: ("41.0.0.0/19", "102.0.0.0/21"),
    RIR.APNIC: ("1.0.0.0/19", "27.0.0.0/21"),
    RIR.ARIN: ("8.0.0.0/19", "23.0.0.0/21"),
    RIR.LACNIC: ("177.0.0.0/19", "179.0.0.0/21"),
    RIR.RIPE: ("185.0.0.0/19", "193.0.0.0/21"),
}
INTER_RIR = [rir for rir in RIR if profile_for(rir).inter_rir_enabled]
START = datetime.date(2005, 1, 1)
END = datetime.date(2021, 1, 1)


def _initial_blocks():
    return {
        rir: [IPv4Prefix.parse(text) for text in texts]
        for rir, texts in INITIAL.items()
    }


def _assert_conserved(system, initial):
    blocks = []
    for rir in RIR:
        registry = system[rir]
        blocks.extend(registry.pool.blocks())
        blocks.extend(registry.holdings())
        blocks.extend(entry.block for entry in registry.quarantine.pending())
        # Holdings agree with the member accounts.
        held = sorted(
            block
            for account in registry.members.active_accounts()
            for block in account.holdings
        )
        assert held == sorted(registry.holdings())
    blocks.sort()
    for left, right in zip(blocks, blocks[1:]):
        assert not left.overlaps(right), (left, right)
    space = [block for blocks_of in initial.values() for block in blocks_of]
    for block in blocks:
        assert any(outer.covers(block) for outer in space), block
    assert sum(b.num_addresses for b in blocks) == sum(
        b.num_addresses for b in space
    )


def _members(system, rir):
    return [a for a in system[rir].members.active_accounts()]


def run_lifecycle(seed, steps=200):
    """Drive one random lifecycle, checking conservation at each step.

    Returns the set of mechanisms the lifecycle reached.
    """
    reached = set()
    rng = random.Random(seed)
    initial = _initial_blocks()
    system = RegistrySystem(initial)
    _assert_conserved(system, initial)
    date = START
    serial = 0
    for _ in range(steps):
        date = min(END, date + datetime.timedelta(days=rng.randrange(60)))
        rir = rng.choice(list(RIR))
        registry = system[rir]
        members = _members(system, rir)
        op = rng.choice(
            ["open", "open", "allocate", "allocate", "allocate", "close",
             "recover", "tick", "transfer", "inter"]
        )
        try:
            if op == "open" or not members:
                serial += 1
                registry.open_membership(f"org-{serial}", date)
            elif op == "allocate":
                length = rng.choice([None, 20, 22, 23, 24, 24])
                decision, _block = registry.request_allocation(
                    rng.choice(members).org_id, date, length
                )
                if decision.waitlisted:
                    reached.add("waitlist")
            elif op == "close":
                if registry.close_membership(
                    rng.choice(members).org_id, date
                ):
                    reached.add("close")
            elif op == "recover":
                holders = [a for a in members if a.holdings]
                if holders:
                    account = rng.choice(holders)
                    registry.recover(
                        account.org_id, rng.choice(account.holdings), date
                    )
            elif op == "tick":
                quarantined = sum(
                    len(system[r].quarantine) for r in RIR
                )
                system.tick(date)
                if sum(len(system[r].quarantine) for r in RIR) < quarantined:
                    reached.add("release")
            elif op == "transfer":
                holders = [a for a in members if a.holdings]
                if holders and len(members) > 1:
                    source = rng.choice(holders)
                    recipient = rng.choice(
                        [a for a in members if a is not source]
                    )
                    registry.transfer(
                        date, [rng.choice(source.holdings)],
                        source.org_id, recipient.org_id,
                    )
                    reached.add("intra")
            elif op == "inter":
                source_rir, dest_rir = rng.sample(INTER_RIR, 2)
                holders = [
                    a for a in _members(system, source_rir) if a.holdings
                ]
                recipients = _members(system, dest_rir)
                if holders and recipients:
                    source = rng.choice(holders)
                    system.inter_rir_transfer(
                        date, [rng.choice(source.holdings)],
                        source.org_id, source_rir,
                        rng.choice(recipients).org_id, dest_rir,
                    )
                    reached.add("inter")
        except PoolExhaustedError:
            # A refused request must leave the books as they were.
            reached.add("exhausted")
        except (PolicyError, TransferError, MembershipError):
            pass
        _assert_conserved(system, initial)
    return reached


#: Seeds that once failed; none so far.
REGRESSION_SEEDS = []


class TestConservation:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_lifecycles_conserve_space(self, seed):
        run_lifecycle(seed)

    def test_regression_seeds(self):
        for seed in REGRESSION_SEEDS:
            run_lifecycle(seed)

    def test_lifecycles_reach_every_mechanism(self):
        # The lifecycle runner is only a net if its lifecycles exercise the
        # mechanisms it claims to cover.
        reached = set()
        for seed in range(8):
            reached |= run_lifecycle(seed)
        assert reached == {
            "waitlist", "close", "release", "intra", "inter", "exhausted",
        }
