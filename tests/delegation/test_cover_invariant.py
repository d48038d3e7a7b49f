"""Every inferred delegation is covered on its day (§4).

On unfilled ``run_inference`` output at ``small`` scale, each
``(P', S, T)`` recorded on day d must have P' originated by T and a
strictly covering P originated by S in that day's pair table, both
seen by enough monitors to pass the visibility filter.  Unlike
the runner ≡ ``infer_range`` suites, this reads the pair tables
directly, so it catches a network/length or delegator/delegatee
mix-up in the packed day columns that both paths would share.
"""

import dataclasses

import pytest

from repro.bgp.rib import UNIQUE_ORIGIN
from repro.delegation import InferenceConfig, WorldStreamFactory, run_inference
from repro.delegation.model import iter_quads
from repro.netbase.lpm import _HOST_BITS, pack
from repro.simulation import World, small_scenario


@pytest.mark.parametrize("seed", (3, 7, 42))
def test_every_delegation_has_its_cover(seed):
    scenario = small_scenario(seed)
    world = World(scenario)
    config = dataclasses.replace(
        InferenceConfig.extended(), consistency_rule=None
    )
    result = run_inference(
        WorldStreamFactory(scenario), scenario.bgp_start, scenario.bgp_end,
        config, as2org=world.as2org(), jobs=1,
    )
    stream = world.stream()
    needed = config.required_monitors(stream.monitor_count())
    checked = 0
    for date in result.daily.dates():
        table = stream.pair_table_on(date)
        # Visible, unique-origin pairs: packed key -> origin.
        origin = {
            key: table.origins[i]
            for i, key in enumerate(table.keys)
            if table.flags[i] & UNIQUE_ORIGIN
            and table.monitor_counts[i] >= needed
        }
        for network, length, delegator, delegatee in iter_quads(
            result.daily.column(date)
        ):
            assert origin.get(pack(network, length)) == delegatee
            assert any(
                origin.get(pack(network & ~_HOST_BITS[cover], cover))
                == delegator
                for cover in range(length)
            ), (date, network, length, delegator, delegatee)
            checked += 1
    assert checked > 0
