"""The batch workloads: figures-paper and sweep-internet.

Both call the program only through interfaces ROADMAP keeps: ``World``,
``run_inference(..., step_days, jobs, store_dir, metrics)`` and the
figure exports.  Correctness is checked outside the timed region
against the sequential ``DelegationInference.infer_range`` reference.
"""

from __future__ import annotations

import concurrent.futures
import gc
import multiprocessing
import os
import shutil
import statistics
import subprocess
import sys
import time

import layers

perf_counter = time.perf_counter

#: Batch runs fan out over both cores of the reference machine.
JOBS = 2

#: sweep-internet samples the 2018-2020 window every N days.
SWEEP_STEP_DAYS = 60

#: Fewest timed repetitions per run (figures passes, cold sweeps), and
#: warm sweeps after each cold one.  A run keeps repeating until
#: ``--seconds`` is used up.
MIN_PASSES = 2
MIN_COLD = 4
WARM_PER_COLD = 3

#: The Fig. 5 (M, N) grid ``repro figures`` evaluates.
FIG5_SPANS = (2, 5, 10, 20, 30, 50, 70, 90)
FIG5_MISSING = (0, 1, 2, 3)

_SETUP_CODE = (
    "import sys\n"
    "from repro import simulation\n"
    "scenario = getattr(simulation, sys.argv[1] + '_scenario')\n"
    "simulation.World(scenario(seed=int(sys.argv[2]))).as2org()\n"
    "print('ready', flush=True)\n"
)


def measure_setup(ctx, scale: str, repeats: int = 9) -> list:
    """Process start until ``World`` and its as2org are ready.

    Each sample is a fresh interpreter, timed from spawn until it
    reports ready; the median of several is reported.
    """
    samples = []
    for _ in range(repeats):
        ctx.clock.start()
        started = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", _SETUP_CODE, scale, str(ctx.seed)],
            env=ctx.env, stdout=subprocess.PIPE,
        )
        line = proc.stdout.readline()
        elapsed = perf_counter() - started
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError("set-up probe failed")
        samples.append(ctx.clock.scale(elapsed))
    return samples


def day_digests(result, inject: bool = False) -> dict:
    """date -> (size, order-free hash) of that day's delegation set.

    Hashes are only compared within one process, so Python's own
    ``hash`` of a frozenset is a sound, linear-time digest.
    """
    digests = {}
    for date in result.observation_dates:
        keys = frozenset(result.daily.on(date))
        if inject:
            # Self-test hook: drop one delegation from the first day.
            keys, inject = keys - {next(iter(keys))}, False
        digests[date] = (len(keys), hash(keys))
    return digests


def compare(digests: dict, reference: dict) -> tuple:
    """(attempted, failed) day results against the reference."""
    attempted = max(len(digests), len(reference))
    failed = sum(
        1 for date in set(digests) | set(reference)
        if digests.get(date) != reference.get(date)
    )
    return attempted, failed


def reference_digests(scenario, config, step_days: int = 1) -> dict:
    """Day digests of the sequential ``infer_range`` reference."""
    from repro.delegation import DelegationInference
    from repro.simulation import World

    world = World(scenario)
    result = DelegationInference(config, world.as2org()).infer_range(
        world.stream(), scenario.bgp_start, scenario.bgp_end,
        step_days=step_days,
    )
    return day_digests(result)


def reference_set(scenario, configs) -> list:
    """References for several configs, each in its own process.

    They run after the timed region; digests hash only integers, so
    they compare equal across processes.
    """
    context = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(
        len(configs), mp_context=context
    ) as pool:
        futures = [
            pool.submit(reference_digests, scenario, config)
            for config in configs
        ]
        return [future.result() for future in futures]


def settle(clock) -> None:
    """Collect garbage left by earlier steps, then probe the speed."""
    gc.collect()
    clock.start()


def peak_rss_mb() -> float:
    """Max RSS of this process and its reaped children, from getrusage."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Checks:
    """Counts every checked operation and every wrong or failed one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"{what}: {failed} of {attempted} wrong")

    def expect(self, ok: bool, what: str) -> None:
        self.add(1, 0 if ok else 1, what)


# -- figures-paper ----------------------------------------------------------


def figures_pass(world, out_dir, jobs: int = JOBS):
    """What ``repro figures DIR --jobs 2`` computes, with no store.

    Names are looked up on their modules at call time, like the CLI's
    call-time imports, so the traced run's wrappers see every call.
    """
    import repro.analysis.fig_data as fig_data
    import repro.delegation as delegation
    from repro.market.leasing import FIRST_SCRAPE, SECOND_WAVE

    out_dir.mkdir(parents=True, exist_ok=True)
    written = [
        fig_data.export_fig1_prices(
            world.priced_transactions(), out_dir / "fig1.csv"
        ),
        fig_data.export_fig2_transfers(
            world.transfer_ledger(), out_dir / "fig2.csv"
        ),
        fig_data.export_fig4_leasing(
            world.scrape_log(), FIRST_SCRAPE, SECOND_WAVE,
            out_dir / "fig4.csv",
        ),
        fig_data.export_fig5_rules(
            delegation.evaluate_rules_on_rpki(
                world.rpki(), FIG5_SPANS, FIG5_MISSING, jobs=jobs
            ),
            out_dir / "fig5.csv",
        ),
    ]
    config = world.config
    factory = delegation.WorldStreamFactory(config)
    results = {}
    started = perf_counter()
    for name, inference_config in (
        ("extended", delegation.InferenceConfig.extended()),
        ("baseline", delegation.InferenceConfig.baseline()),
    ):
        results[name] = delegation.run_inference(
            factory, config.bgp_start, config.bgp_end, inference_config,
            as2org=world.as2org(), jobs=jobs,
        )
    infer_s = perf_counter() - started
    written.append(fig_data.export_fig6_series(
        results["extended"], results["baseline"], out_dir / "fig6.csv"
    ))
    written.append(fig_data.export_fig6_runner_stats(
        results, out_dir / "fig6_runner.csv"
    ))
    return results, written, infer_s


#: The Fig. 6 shape bounds ``bench_fig6_delegations`` asserts on the
#: default paper seed (42): roughness ratio, growth, address change,
#: and the first/last-day /24 and /20 shares.
FIG6_BOUNDS = {
    "rough_ratio": (0.0, 0.5),
    "growth": (1.04, 1.10),
    "address_change": (0.90, 1.10),
    "first_24": (0.62, 0.70),
    "last_24": (0.68, 0.76),
    "first_20": (0.05, 0.09),
    "last_20": (0.01, 0.05),
}

#: Other seeds draw other worlds.  Over seeds 0-12 the roughness ratio
#: reached 0.54, growth 1.033, the address change 0.874 and the
#: first-day /24 share 0.690, so those four bounds are wider there;
#: the rest are unchanged (see NOTES.md).
FIG6_BOUNDS_ANY_SEED = dict(
    FIG6_BOUNDS,
    rough_ratio=(0.0, 0.7),
    growth=(1.01, 1.12),
    address_change=(0.80, 1.15),
    first_24=(0.62, 0.72),
)


def fig6_shape(extended, baseline, seed: int, checks: Checks) -> None:
    """The Fig. 6 shape: fewer, steadier delegations; /24s up, /20s down."""

    def series(result):
        counts = [c for _d, c in result.counts_series()]
        deltas = [abs(b - a) for a, b in zip(counts, counts[1:])]
        return counts, (sum(deltas) / len(deltas)) / statistics.mean(counts)

    ext_counts, ext_rough = series(extended)
    base_counts, base_rough = series(baseline)
    checks.expect(
        statistics.mean(ext_counts) < 0.85 * statistics.mean(base_counts),
        "fig6: extensions reduce the delegation count",
    )
    addresses = [a for _d, a in extended.addresses_series()]
    first = extended.daily.length_distribution(extended.observation_dates[0])
    last = extended.daily.length_distribution(extended.observation_dates[-1])
    measured = {
        "rough_ratio": ext_rough / base_rough,
        "growth": ext_counts[-1] / ext_counts[0],
        "address_change": addresses[-1] / addresses[0],
        "first_24": first.get(24, 0.0),
        "last_24": last.get(24, 0.0),
        "first_20": first.get(20, 0.0),
        "last_20": last.get(20, 0.0),
    }
    bounds = FIG6_BOUNDS if seed == 42 else FIG6_BOUNDS_ANY_SEED
    for name, value in measured.items():
        low, high = bounds[name]
        checks.expect(low <= value <= high, f"fig6: {name} {value:.3f}")


def figures_paper(ctx) -> dict:
    from repro.delegation import InferenceConfig
    from repro.simulation import World

    scenario = ctx.scenario("paper")
    out = {}
    checks = Checks()
    passes = []  # per pass: config name -> day digests

    def account(pass_output):
        # Outside the timed region: digest the days, check the files
        # and (on the first pass) the Fig. 6 shape.
        results, written, _infer_s = pass_output
        checks.expect(
            all(os.path.getsize(path) > 0 for path in written),
            "figure CSVs written",
        )
        if not passes and ctx.scale_name("paper") == "paper":
            # The bounds describe the paper-scale world only.
            fig6_shape(
                results["extended"], results["baseline"], ctx.seed, checks
            )
        passes.append({
            name: day_digests(result, ctx.inject and not passes)
            for name, result in results.items()
        })

    if not ctx.trace:
        out["setup_s"] = measure_setup(ctx, ctx.scale_name("paper"))
        passes_s, infer_s, walls = [], [], []
        deadline = perf_counter() + ctx.seconds
        while len(passes_s) < MIN_PASSES or perf_counter() < deadline:
            world = World(scenario)
            settle(ctx.clock)
            started = perf_counter()
            output = figures_pass(world, ctx.work / "figs")
            walls.append(perf_counter() - started)
            passes_s.append(ctx.clock.scale(walls[-1]))
            infer_s.append(output[2] * ctx.clock.factor)
            account(output)
            del world, output
        out["batch_s"] = passes_s
        out["batch_s.wall"] = walls
        out["core_s"] = infer_s
        out["peak_rss_mb"] = [peak_rss_mb()]
    else:
        world = World(scenario)
        settle(ctx.clock)
        started = perf_counter()
        output = figures_pass(world, ctx.work / "figs-untraced")
        untraced = ctx.clock.scale(perf_counter() - started)
        account(output)
        del world, output
        inst = layers.install(ctx.spool)
        try:
            world = World(scenario)
            settle(ctx.clock)
            root = layers.RECORDER.begin(layers.ROOT, "figures")
            started = perf_counter()
            output = figures_pass(world, ctx.work / "figs-traced")
            traced = perf_counter() - started
            layers.RECORDER.end(root)
        finally:
            layers.uninstall(inst)
        traced = ctx.clock.scale(traced)
        account(output)
        out["trace.overhead_frac"] = [(traced - untraced) / untraced]

    names = ("extended", "baseline")
    references = reference_set(scenario, [
        InferenceConfig.extended(), InferenceConfig.baseline(),
    ])
    for name, reference in zip(names, references):
        for digests in passes:
            checks.add(*compare(digests[name], reference),
                       f"{name} daily delegations vs infer_range")
    return {"metrics": out, "checks": checks}


# -- sweep-internet ---------------------------------------------------------


def sweep_internet(ctx) -> dict:
    import repro.delegation as delegation
    from repro.obs import TracingRegistry
    from repro.simulation import World

    scenario = ctx.scenario("internet")
    config = delegation.InferenceConfig.extended()
    out = {}
    checks = Checks()
    sweeps = []  # (label, digests) of every sweep, checked below

    world = World(scenario)
    as2org = world.as2org()
    factory = delegation.WorldStreamFactory(scenario)
    stores = ctx.work / "stores"
    walls = {}  # label -> raw wall-clock seconds, printed alongside

    def sweep(label, store, warm, metrics=None, root=False):
        """One timed sweep in calibrated seconds; its result is
        checked, digested and freed.  ``root`` wraps just the sweep in
        the traced run's root span."""
        kwargs = {} if metrics is None else {"metrics": metrics}
        settle(ctx.clock)
        if root:
            span = layers.RECORDER.begin(layers.ROOT, label)
        started = perf_counter()
        # Looked up at call time, so the traced run's wrapper is seen.
        result = delegation.run_inference(
            factory, scenario.bgp_start, scenario.bgp_end, config,
            as2org=as2org, step_days=SWEEP_STEP_DAYS, jobs=JOBS,
            store_dir=store, **kwargs,
        )
        elapsed = perf_counter() - started
        if root:
            layers.RECORDER.end(span)
        walls.setdefault(label, []).append(elapsed)
        elapsed = ctx.clock.scale(elapsed)
        sweeps.append((label, day_digests(result, ctx.inject and not sweeps)))
        stats = result.runner_stats
        if warm:
            checks.expect(
                stats.days_computed == 0
                and stats.days_from_cache == stats.days_total,
                f"{label}: every day served from the store",
            )
        return elapsed

    def fresh_store(tag):
        store = stores / tag
        shutil.rmtree(store, ignore_errors=True)
        return store

    if not ctx.trace:
        out["setup_s"] = measure_setup(ctx, ctx.scale_name("internet"))
        cold, warm = [], []
        deadline = perf_counter() + ctx.seconds
        # Warm sweeps follow each cold one, so both kinds of sample
        # are spread over the whole run rather than bunched.
        while len(cold) < MIN_COLD or perf_counter() < deadline:
            store = fresh_store(f"cold-{len(cold)}")
            cold.append(sweep("cold sweep", store, warm=False))
            if len(cold) > 1:
                shutil.rmtree(stores / f"cold-{len(cold) - 2}")
            for _ in range(WARM_PER_COLD):
                warm.append(sweep("warm sweep", store, warm=True))
        out["batch_s"] = cold
        out["batch_s.wall"] = walls["cold sweep"]
        out["core_s"] = warm
        out["core_s.wall"] = walls["warm sweep"]
        out["peak_rss_mb"] = [peak_rss_mb()]
    else:
        # The first sweep of a process pays one-off costs; the second
        # cold sweep is the untraced baseline.
        for tag in ("first", "untraced"):
            store = fresh_store(tag)
            untraced_cold = sweep("cold sweep", store, warm=False)
        # Plain warm sweeps alternate with sweeps under the program's
        # own tracing (the ``--trace-out`` registry): the traced-warm
        # anomaly ROADMAP records.
        plain, program = [], []
        for _ in range(3):
            plain.append(sweep("warm sweep", store, warm=True))
            program.append(sweep(
                "program-traced warm sweep", store, warm=True,
                metrics=TracingRegistry(lane="main"),
            ))
        out["obs.traced_warm_s"] = program
        out["obs.traced_warm_ratio"] = [
            statistics.median(program) / statistics.median(plain)
        ]
        store = fresh_store("traced")
        inst = layers.install(ctx.spool)
        try:
            traced_cold = sweep(
                "traced cold sweep", store, warm=False, root=True
            )
            traced_warm = sweep(
                "traced warm sweep", store, warm=True, root=True
            )
        finally:
            layers.uninstall(inst)
        untraced = untraced_cold + statistics.median(plain)
        out["trace.overhead_frac"] = [
            (traced_cold + traced_warm - untraced) / untraced
        ]

    reference = reference_digests(
        scenario, config, step_days=SWEEP_STEP_DAYS
    )
    for label, digests in sweeps:
        checks.add(*compare(digests, reference), f"{label} vs infer_range")
    return {"metrics": out, "checks": checks}
