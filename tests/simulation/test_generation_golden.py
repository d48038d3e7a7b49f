"""Cross-commit anchors for the day generator and the day store.

The figure and pair-table digests below were recorded with the
object-based generator (one ``Announcement`` per route, aggregated by a
per-prefix slot loop); the daily JSONL digests with the set-based
``DailyDelegations`` (one set of ``(IPv4Prefix, S, T)`` keys per day).
The packed generator and the columnar store must reproduce them byte
for byte.  The differential suites compare the runner against
``infer_range``, but both read days through the same generator and
build days with the same column code, so a bug they share would not
show there; these fixed digests would.  The whois and transfer-ledger
digests were recorded with the prefix-bucket ``FreePool`` and the
trie-indexed ``WhoisDatabase``; the packed pool and the dict-indexed
whois must reproduce them too.
"""

import hashlib

import pytest

from repro.bgp.stream import date_range
from repro.cli import main
from repro.delegation import (
    DelegationInference,
    InferenceConfig,
    WorldStreamFactory,
    run_inference,
)
from repro.delegation.io import write_daily_delegations
from repro.simulation import World, paper_scenario, small_scenario
from tests.simulation.world_digests import ledger_digest, whois_digest

#: sha256 of each figure CSV from
#: ``repro --scale small --seed 42 figures DIR --jobs 1``.
#: ``fig6_runner.csv`` is left out: it carries wall-clock seconds.
FIGURES_SMALL_SEED_42 = {
    "fig1.csv": (
        "a6017290dc50bb04419675314e70ef08"
        "84c8149fae2ad0aa655e34ee3459be25"
    ),
    "fig2.csv": (
        "dea25bc620d35bd6b2821746d3f7a1ce"
        "ee14400bf34ad1cc3e4295a4daec2f8d"
    ),
    "fig4.csv": (
        "67550e82602e2421d82f051ec8320a59"
        "ddafa28b1a56cd484545363902243dbd"
    ),
    "fig5.csv": (
        "74af084b2f25ee5a9ebf0295ee1041da"
        "cdf4d264b82c4e4821dc3c70bab52d89"
    ),
    "fig6.csv": (
        "1c9a8c49f929dcae65988fe9a7738671"
        "c46915557b596e39bb2cc4900ba117a1"
    ),
}

#: sha256 of the concatenated ``PairTable.to_bytes()`` of every 30th
#: day of the paper-scale BGP window, per seed.
PAPER_PAIR_TABLES = {
    3: (
        "dcc800a63c52b7b8ea283dcc0753092c"
        "991750d9cfff2c258cfbf7e6fea79196"
    ),
    42: (
        "49c28fe078cc4e8667fc030b640f6a91"
        "8c037a15d6714328fb1745515fd2d88b"
    ),
}

#: Days between sampled paper-scale days.
PAPER_STEP_DAYS = 30

#: sha256 of the ``write_daily_delegations`` JSONL of the small seed-42
#: world, per configuration; ``run_inference(jobs=2)`` and
#: ``infer_range`` both write exactly these bytes.
DAILY_SMALL_SEED_42 = {
    "extended": (
        "5efe96e92928d75ef71df2f49658348e"
        "382cc456023887a049aa46725dc266e6"
    ),
    "baseline": (
        "5679345545a4a0fba62d6b9145aa2879"
        "213701f7f1f522d6eaad22126ac1fc42"
    ),
}

#: ``world_digests.whois_digest`` and ``ledger_digest`` of a fresh
#: paper-scale world, per seed.
PAPER_WHOIS = {
    3: (
        "c7386f4be7451a9d77d7e0654749b1b4"
        "afb4cc367dd67dc143c34ddc757dac8c"
    ),
    42: (
        "65ced65c715ce4e3f1d84ef3b4d3af46"
        "72c317e1eae2998cb9e6e1c4cc26d611"
    ),
}
PAPER_LEDGER = {
    3: (
        "f2148da5273f87dae1f25a1e1f674342"
        "d154c8dfa6077bb5721d096a929fda8e"
    ),
    42: (
        "b762fe39b7106a671b2759060663b56c"
        "665651c1162492084f0d2a775a623dd2"
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_small_figures_are_unchanged(tmp_path, capsys):
    assert main([
        "--scale", "small", "--seed", "42",
        "figures", str(tmp_path), "--jobs", "1",
    ]) == 0
    capsys.readouterr()
    digests = {
        name: _sha256((tmp_path / name).read_bytes())
        for name in FIGURES_SMALL_SEED_42
    }
    assert digests == FIGURES_SMALL_SEED_42


@pytest.mark.parametrize("seed", sorted(PAPER_PAIR_TABLES))
def test_paper_pair_tables_are_unchanged(seed):
    world = World(paper_scenario(seed=seed))
    config = world.config
    stream = world.stream()
    digest = hashlib.sha256()
    for date in date_range(config.bgp_start, config.bgp_end, PAPER_STEP_DAYS):
        digest.update(stream.pair_table_on(date).to_bytes())
    assert digest.hexdigest() == PAPER_PAIR_TABLES[seed]


@pytest.mark.parametrize("name", sorted(DAILY_SMALL_SEED_42))
def test_small_daily_delegations_are_unchanged(tmp_path, name):
    scenario = small_scenario(seed=42)
    world = World(scenario)
    config = getattr(InferenceConfig, name)()
    window = (scenario.bgp_start, scenario.bgp_end)
    results = {
        "runner": run_inference(
            WorldStreamFactory(scenario), *window, config,
            as2org=world.as2org(), jobs=2,
        ),
        "infer_range": DelegationInference(
            config, world.as2org()
        ).infer_range(world.stream(), *window),
    }
    digests = {}
    for label, result in results.items():
        path = tmp_path / f"{label}.jsonl"
        write_daily_delegations(result.daily, path)
        digests[label] = _sha256(path.read_bytes())
    expected = DAILY_SMALL_SEED_42[name]
    assert digests == {"runner": expected, "infer_range": expected}


@pytest.mark.parametrize("seed", sorted(PAPER_WHOIS))
def test_paper_whois_and_ledger_are_unchanged(seed):
    world = World(paper_scenario(seed=seed))
    assert whois_digest(world.whois()) == PAPER_WHOIS[seed]
    assert ledger_digest(world.transfer_ledger()) == PAPER_LEDGER[seed]
