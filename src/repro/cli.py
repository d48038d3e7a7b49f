"""Command-line interface.

The subcommands cover the library's main entry points::

    python -m repro generate DIR     # materialize every data feed
    python -m repro ingest DIR       # load the feeds back (fault-tolerant)
    python -m repro infer            # run the delegation pipeline
    python -m repro market           # the market report (Figs. 1-4)
    python -m repro figures DIR      # every figure's data as CSV
    python -m repro advise 24 3      # buy-or-lease for a /24, 3 years
    python -m repro manifest m.json  # pretty-print a run manifest

All commands accept ``--seed`` and ``--scale
{small,paper,internet}``; output is plain text on stdout.  ``infer``,
``figures``, ``market``, and ``ingest`` additionally accept the
observability flags:

- ``--metrics-out PATH`` — write a run manifest (config hash, input
  fingerprints, per-stage attrition, cache and timing accounting),
- ``--trace-out PATH`` — write a Chrome trace-event timeline (open in
  Perfetto / ``chrome://tracing``, or summarize with
  ``repro trace summarize PATH``),
- ``--prom-out PATH`` — write the same registry in Prometheus text
  exposition format (counters, gauges, latency histograms),
- ``--profile-mem`` — add per-stage ``tracemalloc`` peak gauges
  (``profile.*`` in the manifest), workers included.

``repro history record/list/diff/check`` turns recorded manifests
into an append-only regression history; ``check`` exits 1 when a
stage timing (mean *or* p99) regresses past ``--max-regress``.
``repro obs top URL`` polls a running ``repro serve`` instance's
``/health`` + ``/metrics`` into a live latency dashboard.

Errors deriving from :class:`~repro.errors.ReproError` (bad flags,
unwritable paths, broken inputs) exit with status 2 and a one-line
message instead of a traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import math
import os
import pathlib
import sys
from typing import List, Optional

from repro.analysis.leasing_prices import summarize_leasing_prices
from repro.analysis.prices import (
    consolidation_quarter,
    doubling_factor,
    mean_price_per_ip,
    regional_price_difference,
)
from repro.analysis.report import render_table
from repro.analysis.transfers import market_start_dates, transfer_counts
from repro.delegation import InferenceConfig
from repro.errors import ReproError
from repro.market.amortization import AmortizationScenario
from repro.market.leasing import FIRST_SCRAPE, SECOND_WAVE
from repro.obs import (
    DEFAULT_HISTORY_PATH,
    NULL,
    MetricsRegistry,
    RunHistory,
    RunManifest,
    TracingRegistry,
    config_hash,
    load_manifest,
    load_trace,
    parse_percent,
    render_diff,
    render_list,
    render_manifest,
    summarize_trace,
)
from repro.obs.history import DEFAULT_MIN_PEAK_KB, DEFAULT_MIN_SECONDS
from repro.registry.rir import RIR
from repro.simulation import (
    World,
    internet_scenario,
    paper_scenario,
    small_scenario,
)


def _build_world(args: argparse.Namespace) -> World:
    if args.scale == "paper":
        return World(paper_scenario(seed=args.seed))
    if args.scale == "internet":
        return World(internet_scenario(seed=args.seed))
    return World(small_scenario(seed=args.seed))


# -- flag validation ------------------------------------------------------


def _check_runner_flags(args: argparse.Namespace) -> None:
    """Fail fast (one line, no traceback) on unusable runner flags."""
    jobs = getattr(args, "jobs", None)
    if jobs is not None and jobs < 1:
        raise ReproError(f"--jobs must be at least 1 (got {jobs})")
    step_days = getattr(args, "step_days", None)
    if step_days is not None and step_days < 1:
        raise ReproError(
            f"--step-days must be at least 1 (got {step_days})"
        )
    store = getattr(args, "store", None)
    if store is not None:
        path = pathlib.Path(store)
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ReproError(
                f"--store: cannot create {path}: {exc}"
            ) from exc
        if not os.access(path, os.W_OK):
            raise ReproError(f"--store: {path} is not writable")
    _check_obs_flags(args)


def _check_out_path(target: Optional[str], flag: str) -> None:
    """Fail fast on an unusable output-file path for ``flag``.

    One validator for every artifact-writing flag (``--metrics-out``,
    ``--trace-out``): directory targets, missing or unwritable
    parents all exit 2 with a one-line message before any work runs.
    """
    if target is None:
        return
    path = pathlib.Path(target)
    if path.is_dir():
        raise ReproError(f"{flag}: {path} is a directory")
    parent = path.parent if str(path.parent) else pathlib.Path(".")
    if not parent.is_dir():
        raise ReproError(f"{flag}: directory {parent} does not exist")
    if not os.access(parent, os.W_OK):
        raise ReproError(f"{flag}: {parent} is not writable")


def _check_obs_flags(args: argparse.Namespace) -> None:
    _check_out_path(getattr(args, "metrics_out", None), "--metrics-out")
    _check_out_path(getattr(args, "trace_out", None), "--trace-out")
    _check_out_path(getattr(args, "prom_out", None), "--prom-out")


def _registry_for(args: argparse.Namespace) -> MetricsRegistry:
    """The registry matching the run's observability flags.

    - no flags → the shared no-op :data:`NULL` registry (byte-identical
      output, ~zero overhead),
    - ``--metrics-out`` / ``--prom-out`` / ``--profile-mem`` → a real
      registry,
    - ``--trace-out`` → a :class:`TracingRegistry` on the ``main``
      lane (worker lanes fan in through the runner),
    - ``--profile-mem`` additionally turns on per-span peak gauges;
      :func:`main` turns them off again when the command returns or
      raises, so an in-process run never leaves tracemalloc on.
    """
    wants_trace = getattr(args, "trace_out", None) is not None
    wants_profile = getattr(args, "profile_mem", False)
    wants_metrics = (
        getattr(args, "metrics_out", None) is not None
        or getattr(args, "prom_out", None) is not None
    )
    if wants_trace:
        registry: MetricsRegistry = TracingRegistry(lane="main")
    elif wants_metrics or wants_profile:
        registry = MetricsRegistry()
    else:
        return NULL
    if wants_profile:
        registry.enable_memory_profile()
        args.profiled_registry = registry
    return registry


def _write_trace(args: argparse.Namespace, metrics: MetricsRegistry) -> None:
    """Write the ``--trace-out`` artifact when the flag was given."""
    target = getattr(args, "trace_out", None)
    if target is not None:
        metrics.trace.write(target)


def _write_prom(args: argparse.Namespace, metrics: MetricsRegistry) -> None:
    """Write the ``--prom-out`` artifact when the flag was given."""
    target = getattr(args, "prom_out", None)
    if target is not None:
        from repro.obs.telemetry import write_prometheus

        write_prometheus(metrics, target)


# -- manifest assembly ----------------------------------------------------


def _pipeline_stage_table(
    manifest: RunManifest, metrics: MetricsRegistry
) -> None:
    """The §4 filter chain as attrition rows, from pipeline counters.

    Counts are the deterministic per-filter totals both the sequential
    path and the parallel fan-in record under the same names, so
    ``--jobs N`` never changes this table.
    """
    pairs_seen = metrics.counter("pipeline.pairs_seen")
    bogon = metrics.counter("pipeline.dropped.bogon")
    visibility = metrics.counter("pipeline.dropped.visibility")
    origin = metrics.counter("pipeline.dropped.origin")
    same_org = metrics.counter("pipeline.dropped.same_org")
    delegations = metrics.counter("pipeline.delegations")
    fills = metrics.counter("pipeline.consistency.fills")
    conflicts = metrics.counter("pipeline.consistency.conflicts")
    manifest.add_stage(
        "(i) sanitize", pairs_seen + bogon, pairs_seen,
        dropped={"bogon_prefix": bogon},
    )
    manifest.add_stage(
        "(ii) visibility", pairs_seen, pairs_seen - visibility,
        dropped={"below_threshold": visibility},
    )
    manifest.add_stage(
        "(iii) unique-origin", pairs_seen - visibility,
        pairs_seen - visibility - origin,
        dropped={"moas_or_as_set": origin},
    )
    manifest.add_stage(
        "(iv) same-org", delegations + same_org, delegations,
        dropped={"same_org": same_org},
    )
    manifest.add_stage(
        "(v) consistency", delegations, delegations + fills,
        dropped={"conflicting_gaps": conflicts},
        seconds=(
            metrics.timer("runner.consistency").total_seconds
            or metrics.timer("pipeline.consistency").total_seconds
            or None
        ),
    )


def _write_infer_manifest(
    args: argparse.Namespace,
    command: str,
    config: InferenceConfig,
    factory,
    world: World,
    results,
    metrics: MetricsRegistry,
) -> None:
    manifest = RunManifest(
        command=command,
        config=dataclasses.asdict(config),
        config_digest=config_hash(config),
        metrics=metrics,
    )
    manifest.add_input("stream", factory.fingerprint())
    if config.same_org_filter:
        manifest.add_input("as2org", world.as2org().fingerprint())
    _pipeline_stage_table(manifest, metrics)
    hits = misses = 0
    for result in results:
        stats = result.runner_stats
        if stats is not None:
            hits += stats.days_from_cache
            misses += stats.days_computed
    manifest.cache = {"hits": hits, "misses": misses}
    manifest.extra["scale"] = args.scale
    manifest.extra["seed"] = args.seed
    manifest.write(args.metrics_out)


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.datasets import generate_all

    world = _build_world(args)
    manifest = generate_all(
        world,
        args.directory,
        collector_days=args.collector_days,
        include_rpki=not args.no_rpki,
    )
    print(manifest.to_json())
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    """Load a generated dataset directory back, fault-tolerantly.

    ``--error-policy quarantine`` turns one-bad-record aborts into
    quarantine-and-continue loading; the exact drop accounting lands
    in the report table and, with ``--metrics-out``, in the manifest's
    ``degradation`` section.
    """
    from repro.datasets.loaders import (
        load_leasing_scrapes,
        load_transfer_ledger,
        load_whois_snapshot,
    )
    from repro.ingest import ErrorPolicy, QuarantineReport

    _check_obs_flags(args)
    policy = ErrorPolicy.parse(args.error_policy)
    metrics = _registry_for(args)
    report = QuarantineReport(metrics=metrics)
    base = pathlib.Path(args.directory)
    if not base.is_dir():
        raise ReproError(f"no dataset directory at {base}")

    with metrics.span("ingest.transfers"):
        ledger = load_transfer_ledger(
            base / "transfers", policy=policy, report=report
        )
    with metrics.span("ingest.scrapes"):
        scrapes = load_leasing_scrapes(
            base / "leasing" / "scrapes.csv", policy=policy, report=report
        )
    with metrics.span("ingest.whois"):
        whois = load_whois_snapshot(
            base / "whois" / "ripe.db.inetnum", policy=policy, report=report
        )
    loaded = {
        "transfers": (len(ledger), "transfers"),
        "leasing scrapes": (len(scrapes), "scrapes"),
        "whois inetnums": (len(whois), "rpsl"),
    }
    if metrics.enabled:
        for name, (count, _kind) in loaded.items():
            metrics.inc(f"ingest.loaded.{name.replace(' ', '_')}", count)
    if args.metrics_out is not None:
        manifest = RunManifest(command="ingest", metrics=metrics)
        manifest.extra["directory"] = str(base)
        manifest.extra["error_policy"] = policy.value
        manifest.attach_degradation(report)
        for name, (count, kind) in loaded.items():
            dropped = report.kind_count(kind)
            manifest.add_stage(
                name, count + dropped, count,
                dropped={"quarantined": dropped} if dropped else None,
            )
        manifest.write(args.metrics_out)
    _write_trace(args, metrics)
    _write_prom(args, metrics)
    rows = [[name, count] for name, (count, _kind) in loaded.items()]
    rows.append(["quarantined records", report.count()])
    print(render_table(
        ["source", "records"],
        rows,
        title=f"Ingestion report ({policy.value} mode)",
    ))
    if report:
        detail = [
            [r.source, r.index, r.reason[:60]]
            for r in report.records()[:20]
        ]
        print(render_table(
            ["source", "index", "reason"],
            detail,
            title="quarantined (first 20)",
        ))
    return 0


def _cmd_infer(args: argparse.Namespace) -> int:
    from repro.delegation import WorldStreamFactory, run_inference

    _check_runner_flags(args)
    world = _build_world(args)
    config = (
        InferenceConfig.baseline()
        if args.baseline
        else InferenceConfig.extended()
    )
    as2org = world.as2org() if config.same_org_filter else None
    metrics = _registry_for(args)
    factory = WorldStreamFactory(world.config)
    result = run_inference(
        factory,
        world.config.bgp_start,
        world.config.bgp_end,
        config,
        as2org=as2org,
        step_days=args.step_days,
        jobs=args.jobs,
        metrics=metrics,
        store_dir=args.store,
    )
    if args.metrics_out is not None:
        _write_infer_manifest(
            args, "infer", config, factory, world, [result], metrics
        )
    _write_trace(args, metrics)
    _write_prom(args, metrics)
    rows = [
        [date, count, result.daily.addresses_on(date)]
        for date, count in result.counts_series()
    ]
    if args.tail:
        rows = rows[-args.tail:]
    print(render_table(
        ["date", "delegations", "addresses"],
        rows,
        title=(
            "BGP delegations "
            f"({'baseline' if args.baseline else 'extended'} algorithm)"
        ),
    ))
    return 0


def _cmd_market(args: argparse.Namespace) -> int:
    _check_obs_flags(args)
    world = _build_world(args)
    metrics = _registry_for(args)
    with metrics.span("market.prices"):
        dataset = world.priced_transactions()
        mean_2020 = mean_price_per_ip(
            dataset, datetime.date(2020, 1, 1), datetime.date(2020, 6, 25)
        )
        _h, p_value = regional_price_difference(dataset)
        quarter = consolidation_quarter(dataset)
    with metrics.span("market.transfers"):
        starts = market_start_dates(world.transfer_ledger())
        counts = transfer_counts(world.transfer_ledger())
    with metrics.span("market.leasing"):
        leasing = summarize_leasing_prices(
            world.scrape_log(), FIRST_SCRAPE, SECOND_WAVE
        )
    if metrics.enabled:
        metrics.inc("market.priced_transactions", len(dataset))
        metrics.inc("market.leasing_providers", leasing.provider_count)
    if args.metrics_out is not None:
        manifest = RunManifest(
            command="market",
            config_digest=config_hash(world.config),
            metrics=metrics,
        )
        manifest.add_stage(
            "priced transactions", len(dataset), len(dataset)
        )
        manifest.extra["scale"] = args.scale
        manifest.extra["seed"] = args.seed
        manifest.write(args.metrics_out)
    _write_trace(args, metrics)
    _write_prom(args, metrics)
    rows = [
        ["priced transactions", len(dataset)],
        ["mean 2020 price ($/IP)", f"{mean_2020:.2f}"],
        ["doubling since 2016", f"{doubling_factor(dataset):.2f}x"],
        ["regional difference p-value", f"{p_value:.3f}"],
        ["consolidation starts",
         f"{quarter[0]} Q{quarter[1]}" if quarter else "not detected"],
        ["leasing providers", leasing.provider_count],
        ["leasing range ($/IP/month)",
         f"{leasing.min_price:.2f} - {leasing.max_price:.2f}"],
    ]
    for rir in RIR:
        total = sum(c for _d, c in counts[rir])
        start = starts[rir]
        rows.append([
            f"{rir.display_name} market",
            f"{total} transfers since {start}" if start else "negligible",
        ])
    print(render_table(["metric", "value"], rows, title="Market report"))
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    world = _build_world(args)
    today = datetime.date(2020, 6, 1)
    buy_price = mean_price_per_ip(
        world.priced_transactions(),
        datetime.date(2020, 1, 1),
        datetime.date(2020, 6, 25),
    )
    rows = []
    for provider in world.leasing_providers():
        lease = provider.advertised_price(today)
        if lease is None:
            continue
        scenario = AmortizationScenario(
            rir=RIR.RIPE,
            block_length=args.prefix_length,
            buy_price_per_ip=buy_price,
            lease_price_per_ip_month=lease,
        )
        months = scenario.months()
        verdict = (
            "buy"
            if math.isfinite(months) and months <= args.horizon_years * 12
            else "lease"
        )
        rows.append([
            provider.name,
            f"{lease:.2f}",
            "never" if math.isinf(months) else f"{months / 12:.1f}y",
            verdict,
        ])
    rows.sort(key=lambda r: float(r[1]))
    print(render_table(
        ["provider", "$/IP/mo", "break-even", "verdict"],
        rows,
        title=(
            f"Buy (${buy_price:.2f}/IP) or lease a /{args.prefix_length} "
            f"over {args.horizon_years:g} years?"
        ),
    ))
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.analysis.fig_data import (
        export_fig1_prices,
        export_fig2_transfers,
        export_fig4_leasing,
        export_fig5_rules,
        export_fig6_runner_stats,
        export_fig6_series,
    )
    from repro.delegation import (
        WorldStreamFactory,
        evaluate_rules_on_rpki,
        run_inference,
    )

    _check_runner_flags(args)
    world = _build_world(args)
    metrics = _registry_for(args)
    base = pathlib.Path(args.directory)
    written = [
        export_fig1_prices(
            world.priced_transactions(), base / "fig1.csv",
            metrics=metrics,
        ),
        export_fig2_transfers(
            world.transfer_ledger(), base / "fig2.csv", metrics=metrics
        ),
        export_fig4_leasing(
            world.scrape_log(), FIRST_SCRAPE, SECOND_WAVE,
            base / "fig4.csv", metrics=metrics,
        ),
        export_fig5_rules(
            evaluate_rules_on_rpki(
                world.rpki(), (2, 5, 10, 20, 30, 50, 70, 90), (0, 1, 2, 3),
                jobs=args.jobs or 0,
            ),
            base / "fig5.csv", metrics=metrics,
        ),
    ]
    results = []
    if not args.skip_fig6:
        factory = WorldStreamFactory(world.config)
        extended = run_inference(
            factory, world.config.bgp_start, world.config.bgp_end,
            InferenceConfig.extended(), as2org=world.as2org(),
            jobs=args.jobs, metrics=metrics, store_dir=args.store,
        )
        baseline = run_inference(
            factory, world.config.bgp_start, world.config.bgp_end,
            InferenceConfig.baseline(),
            jobs=args.jobs, metrics=metrics, store_dir=args.store,
        )
        results = [extended, baseline]
        written.append(
            export_fig6_series(
                extended, baseline, base / "fig6.csv", metrics=metrics
            )
        )
        written.append(
            export_fig6_runner_stats(
                {"extended": extended, "baseline": baseline},
                base / "fig6_runner.csv", metrics=metrics,
            )
        )
    if args.metrics_out is not None:
        # One registry audits the whole export: the pipeline counters
        # sum the extended and baseline inference runs.
        manifest = RunManifest(
            command="figures",
            config_digest=config_hash(world.config),
            metrics=metrics,
        )
        manifest.add_input(
            "stream", WorldStreamFactory(world.config).fingerprint()
        )
        hits = misses = 0
        for result in results:
            stats = result.runner_stats
            if stats is not None:
                hits += stats.days_from_cache
                misses += stats.days_computed
        manifest.cache = {"hits": hits, "misses": misses}
        manifest.extra["scale"] = args.scale
        manifest.extra["seed"] = args.seed
        manifest.extra["files_written"] = written
        manifest.write(args.metrics_out)
    _write_trace(args, metrics)
    _write_prom(args, metrics)
    for path in written:
        print(path)
    return 0


def _check_serve_flags(args: argparse.Namespace) -> None:
    """Fail fast (exit 2, one line) on unusable serving flags."""
    _check_runner_flags(args)
    _check_out_path(getattr(args, "ready_file", None), "--ready-file")
    for flag, value in (
        ("--whois-port", args.whois_port), ("--http-port", args.http_port)
    ):
        if not 0 <= value <= 65535:
            raise ReproError(f"{flag}: {value} is not a valid port")
    if args.rate_limit <= 0:
        raise ReproError(
            f"--rate-limit must be positive (got {args.rate_limit:g})"
        )
    if args.burst < 1:
        raise ReproError(f"--burst must be at least 1 (got {args.burst})")
    if args.max_clients < 1:
        raise ReproError(
            f"--max-clients must be at least 1 (got {args.max_clients})"
        )
    if args.serve_seconds is not None and args.serve_seconds < 0:
        raise ReproError(
            f"--serve-seconds must be non-negative "
            f"(got {args.serve_seconds:g})"
        )
    if args.drain_grace < 0:
        raise ReproError(
            f"--drain-grace must be non-negative (got {args.drain_grace:g})"
        )


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve`` — the always-on query serving layer.

    Loads the WHOIS database, the inferred delegation set, the
    transfer ledger, and the market statistics into memory, then
    serves them over the WHOIS line protocol and the HTTP/JSON API
    until SIGINT/SIGTERM (or ``--serve-seconds``) triggers a graceful
    drain.
    """
    from repro.serve import QueryEngine, ReproServeServer, run_server

    _check_serve_flags(args)
    world = _build_world(args)
    metrics = _registry_for(args)
    if not metrics.enabled:
        # A server always keeps real metrics even without --metrics-out:
        # /metrics, the /health window, and `repro obs top` would be
        # empty otherwise, and the differential guarantee only concerns
        # batch artifacts, not a long-running server.
        metrics = MetricsRegistry()
    with metrics.span("serve.load"):
        engine = QueryEngine.from_world(
            world,
            include_inference=not args.no_infer,
            step_days=args.step_days,
            jobs=args.jobs,
            store_dir=args.store,
            rate_limit_per_second=args.rate_limit,
            burst=args.burst,
            max_clients=args.max_clients,
            metrics=metrics,
        )
    server = ReproServeServer(
        engine,
        host=args.host,
        whois_port=args.whois_port,
        http_port=args.http_port,
        drain_grace=args.drain_grace,
    )

    def _banner(ready: ReproServeServer) -> None:
        loaded = engine.loaded_summary()
        print(render_table(
            ["frontend", "endpoint"],
            [
                ["whois", f"{ready.host}:{ready.whois_port}"],
                ["http", f"http://{ready.host}:{ready.http_port}"],
            ],
            title=(
                f"repro serve — {loaded['inetnums']} inetnums, "
                f"{loaded['delegations']} delegations, "
                f"{loaded['transfers']} transfers loaded"
            ),
        ), flush=True)

    run_server(
        server,
        serve_seconds=args.serve_seconds,
        ready_path=args.ready_file,
        on_ready=_banner,
    )
    if args.metrics_out is not None:
        manifest = RunManifest(
            command="serve",
            config_digest=config_hash(world.config),
            metrics=metrics,
        )
        manifest.extra["scale"] = args.scale
        manifest.extra["seed"] = args.seed
        manifest.extra["serve"] = server.health()
        manifest.write(args.metrics_out)
    _write_trace(args, metrics)
    _write_prom(args, metrics)
    health = server.health()
    print(render_table(
        ["metric", "value"],
        [
            ["uptime", f"{health['uptimeSeconds']:.1f}s"],
            ["connections", health["connections"]["total"]],
            ["whois queries", health["queries"]["whois"]],
            ["http requests", health["queries"]["http"]],
            ["throttled", health["queries"]["throttled"]],
            ["limiters evicted", health["limiters"]["evicted"]],
        ],
        title="Serving session summary",
    ))
    return 0


def _cmd_manifest(args: argparse.Namespace) -> int:
    print(render_manifest(load_manifest(args.path)))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace summarize PATH`` — offline trace analysis."""
    if args.trace_command == "summarize":
        print(summarize_trace(load_trace(args.path), top=args.top))
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """``repro obs top URL`` — live dashboard over a running server."""
    from repro.obs.top import run_top

    if args.obs_command == "top":
        return run_top(
            args.target,
            interval=args.interval,
            count=args.count,
            clear=not args.no_clear,
        )
    return 2  # pragma: no cover - argparse enforces the choices


def _cmd_history(args: argparse.Namespace) -> int:
    """``repro history record/list/diff/check`` — cross-run tracking."""
    sub = args.history_command
    if sub == "record":
        # The only subcommand that writes the store: validate the
        # target like every other artifact-writing flag.
        _check_out_path(args.history, "--history")
    history = RunHistory(args.history)
    if sub == "record":
        entry = history.record(load_manifest(args.manifest))
        digest = (entry.get("config_hash") or "")[:12] or "-"
        print(
            f"recorded run {entry['id']} "
            f"({entry['command']}, config {digest}) in {history.path}"
        )
        return 0
    if sub == "list":
        print(render_list(history.entries()))
        return 0
    if sub == "diff":
        print(history.diff(args.baseline, args.candidate))
        return 0
    # check: exit 1 when the candidate regressed past --max-regress.
    regressions = history.check(
        args.baseline,
        args.candidate,
        max_regress=parse_percent(args.max_regress),
        min_seconds=args.min_seconds,
        min_peak_kb=args.min_peak_kb,
    )
    if not regressions:
        print("history check: no regressions")
        return 0
    print(f"history check: {len(regressions)} regression(s)")
    for line in regressions:
        print(f"  - {line}")
    return 1


def _add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    """Shared flags for commands that run the inference pipeline."""
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="inference worker processes (default: one per CPU core)",
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="keep per-day pair tables and inference results as "
             "memory-mapped shard files under DIR; re-runs with an "
             "unchanged configuration map every day's result back, "
             "and other configs reuse the pair tables",
    )
    _add_obs_arguments(parser)


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """The observability flag trio, shared by every pipeline command."""
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write a run manifest (config hash, input fingerprints, "
             "per-stage attrition, cache and timing accounting) as "
             "JSON to PATH; inspect it with `repro manifest PATH`",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Chrome trace-event timeline (all spans, worker "
             "lanes included) to PATH; open in Perfetto or summarize "
             "with `repro trace summarize PATH`",
    )
    parser.add_argument(
        "--prom-out", default=None, metavar="PATH",
        help="write the metrics registry (counters, gauges, latency "
             "histograms) as Prometheus text exposition to PATH",
    )
    parser.add_argument(
        "--profile-mem", action="store_true",
        help="track tracemalloc peak memory per stage; peaks appear "
             "as profile.* gauges in the --metrics-out manifest",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'When Wells Run Dry: the 2020 IPv4 "
            "address market' (CoNEXT 2020)"
        ),
    )
    parser.add_argument("--seed", type=int, default=42,
                        help="world seed (default 42)")
    parser.add_argument("--scale", choices=("small", "paper", "internet"),
                        default="small",
                        help="scenario preset (default small); "
                             "'internet' scales the paper's prefix "
                             "counts ~15x for out-of-core runs")
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="materialize every data feed into a directory"
    )
    generate.add_argument("directory")
    generate.add_argument("--collector-days", type=int, default=3)
    generate.add_argument("--no-rpki", action="store_true",
                          help="skip the (large) daily ROA snapshots")
    generate.set_defaults(handler=_cmd_generate)

    ingest = commands.add_parser(
        "ingest",
        help="load a generated dataset directory back "
             "(quarantine-and-continue with --error-policy quarantine)",
    )
    ingest.add_argument("directory")
    ingest.add_argument(
        "--error-policy", choices=("strict", "quarantine"),
        default="strict",
        help="strict: first malformed record aborts (default); "
             "quarantine: set bad records aside and keep loading",
    )
    _add_obs_arguments(ingest)
    ingest.set_defaults(handler=_cmd_ingest)

    infer = commands.add_parser(
        "infer", help="run the delegation-inference pipeline"
    )
    infer.add_argument("--baseline", action="store_true",
                       help="previously proposed algorithm (no extensions)")
    infer.add_argument("--step-days", type=int, default=1)
    infer.add_argument("--tail", type=int, default=10,
                       help="show only the last N days (default 10)")
    _add_runner_arguments(infer)
    infer.set_defaults(handler=_cmd_infer)

    market = commands.add_parser("market", help="print the market report")
    _add_obs_arguments(market)
    market.set_defaults(handler=_cmd_market)

    manifest = commands.add_parser(
        "manifest", help="pretty-print a --metrics-out run manifest"
    )
    manifest.add_argument("path")
    manifest.set_defaults(handler=_cmd_manifest)

    figures = commands.add_parser(
        "figures", help="export every figure's data series as CSV"
    )
    figures.add_argument("directory")
    figures.add_argument("--skip-fig6", action="store_true",
                         help="skip the (slow) full inference run")
    _add_runner_arguments(figures)
    figures.set_defaults(handler=_cmd_figures)

    serve = commands.add_parser(
        "serve",
        help="always-on query server: whois line protocol + "
             "HTTP/JSON API over the loaded delegation/transfer state",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument(
        "--whois-port", type=int, default=4343, metavar="PORT",
        help="whois line-protocol port; 0 picks an ephemeral port "
             "(default 4343)",
    )
    serve.add_argument(
        "--http-port", type=int, default=8080, metavar="PORT",
        help="HTTP/JSON API port; 0 picks an ephemeral port "
             "(default 8080)",
    )
    serve.add_argument(
        "--rate-limit", type=float, default=50.0, metavar="QPS",
        help="per-client sustained query rate (default 50/s)",
    )
    serve.add_argument(
        "--burst", type=int, default=100, metavar="N",
        help="per-client token-bucket burst capacity (default 100)",
    )
    serve.add_argument(
        "--max-clients", type=int, default=4096, metavar="N",
        help="rate-limiter table bound; least-recently-seen idle "
             "clients are evicted past this (default 4096)",
    )
    serve.add_argument(
        "--no-infer", action="store_true",
        help="serve the whois database only; skip delegation "
             "inference (faster startup, /delegations answers empty)",
    )
    serve.add_argument(
        "--step-days", type=int, default=1,
        help="inference snapshot stride in days (default 1)",
    )
    serve.add_argument(
        "--serve-seconds", type=float, default=None, metavar="S",
        help="shut down gracefully after S seconds (default: run "
             "until SIGINT/SIGTERM)",
    )
    serve.add_argument(
        "--drain-grace", type=float, default=5.0, metavar="S",
        help="seconds to wait for in-flight queries on shutdown "
             "before cancelling them (default 5)",
    )
    serve.add_argument(
        "--ready-file", default=None, metavar="PATH",
        help="write '<host> <whois_port> <http_port>' to PATH once "
             "both listeners are bound (for scripts and CI)",
    )
    _add_runner_arguments(serve)
    serve.set_defaults(handler=_cmd_serve)

    advise = commands.add_parser(
        "advise", help="buy-or-lease comparison for a block size"
    )
    advise.add_argument("prefix_length", type=int, nargs="?", default=24)
    advise.add_argument("horizon_years", type=float, nargs="?", default=3.0)
    advise.set_defaults(handler=_cmd_advise)

    trace = commands.add_parser(
        "trace", help="analyze a --trace-out timeline offline"
    )
    trace_commands = trace.add_subparsers(
        dest="trace_command", required=True
    )
    summarize = trace_commands.add_parser(
        "summarize",
        help="critical path, per-lane utilization, slowest spans",
    )
    summarize.add_argument("path")
    summarize.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="how many slowest spans to show (default 10)",
    )
    trace.set_defaults(handler=_cmd_trace)

    obs = commands.add_parser(
        "obs", help="live observability tools for a running server"
    )
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)
    top = obs_commands.add_parser(
        "top",
        help="poll /health and /metrics into a live latency dashboard",
    )
    top.add_argument(
        "target",
        help="the server's HTTP endpoint: host:port or http://host:port",
    )
    top.add_argument(
        "--interval", type=float, default=2.0, metavar="S",
        help="seconds between polls (default 2)",
    )
    top.add_argument(
        "--count", type=int, default=None, metavar="N",
        help="render N frames then exit (default: poll until Ctrl-C)",
    )
    top.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of clearing the screen (for logs)",
    )
    obs.set_defaults(handler=_cmd_obs)

    history = commands.add_parser(
        "history",
        help="record manifests into an append-only run history and "
             "diff / regression-check runs against each other",
    )
    history.add_argument(
        "--history", default=DEFAULT_HISTORY_PATH, metavar="PATH",
        help=f"history store (default {DEFAULT_HISTORY_PATH})",
    )
    history_commands = history.add_subparsers(
        dest="history_command", required=True
    )
    record = history_commands.add_parser(
        "record", help="append one --metrics-out manifest as a run"
    )
    record.add_argument("manifest", help="manifest JSON to record")
    history_commands.add_parser(
        "list", help="show every recorded run"
    )
    diff = history_commands.add_parser(
        "diff", help="compare two recorded runs"
    )
    diff.add_argument("baseline", type=int, help="baseline run id")
    diff.add_argument("candidate", type=int, help="candidate run id")
    check = history_commands.add_parser(
        "check",
        help="exit 1 if the candidate regressed past --max-regress",
    )
    check.add_argument(
        "--baseline", type=int, required=True, metavar="ID",
        help="baseline run id",
    )
    check.add_argument(
        "--candidate", type=int, default=None, metavar="ID",
        help="candidate run id (default: the latest run)",
    )
    check.add_argument(
        "--max-regress", default="20%", metavar="PCT",
        help="tolerated timing slowdown, e.g. '20%%' or 0.2 "
             "(default 20%%)",
    )
    check.add_argument(
        "--min-seconds", type=float, default=DEFAULT_MIN_SECONDS,
        metavar="S",
        help="ignore timers faster than S seconds in the baseline "
             f"(default {DEFAULT_MIN_SECONDS})",
    )
    check.add_argument(
        "--min-peak-kb", type=float, default=DEFAULT_MIN_PEAK_KB,
        metavar="KB",
        help="ignore profile.*.peak_kb gauges below KB in the "
             f"baseline (default {DEFAULT_MIN_PEAK_KB:.0f})",
    )
    history.set_defaults(handler=_cmd_history)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed stdout (e.g. `repro market | head`): die
        # quietly like a well-behaved filter. Point stdout at devnull
        # so interpreter shutdown doesn't raise while flushing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except OSError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    finally:
        profiled = getattr(args, "profiled_registry", None)
        if profiled is not None:
            profiled.disable_memory_profile()


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
