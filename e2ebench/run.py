"""The repo's end-to-end benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload figures-paper --seed 1 \\
        --seconds 8 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the
workload once untraced and once with the benchmark's layer spans and
prints the per-layer metrics.  Every metric is printed by name with its
unit and sample count; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Workloads,
metric meanings and the layer -> metric map are in ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import procs  # noqa: E402
import speed  # noqa: E402

#: End-to-end metrics, printed with ``--trace 0``: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "batch_s": "s",
    "core_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics, printed with ``--trace 1``: name -> unit.  A layer
#: the workload does not run reads 0.
PER_LAYER = {
    "simulation.world.self_s": "s",
    "simulation.world.builds": "count",
    "simulation.announce.self_s": "s",
    "simulation.announce.calls": "count",
    "bgp.aggregate.self_s": "s",
    "bgp.aggregate.pairs": "count",
    "bgp.propagation.self_s": "s",
    "bgp.propagation.calls": "count",
    "delegation.kernel.self_s": "s",
    "delegation.kernel.days": "count",
    "delegation.kernel.pairs_in": "count",
    "delegation.kernel.rows_out": "count",
    "delegation.runner.self_s": "s",
    "delegation.consistency.self_s": "s",
    "delegation.rpki_eval.self_s": "s",
    "store.read.self_s": "s",
    "store.reads": "count",
    "store.hit_ratio": "ratio",
    "store.write.self_s": "s",
    "store.bytes_written": "B",
    "analysis.export.self_s": "s",
    "serve.load.self_s": "s",
    "serve.engine.query_us.ip": "us",
    "serve.engine.query_us.delegations": "us",
    "serve.engine.query_us.as": "us",
    "serve.engine.query_us.transfers": "us",
    "serve.engine.query_us.market": "us",
    "serve.engine.query_us.whois": "us",
    "serve.frontend_us": "us",
    "serve.gen_late_ms": "ms",
    "serve.p50_ms": "ms",
    "serve.p99_ms": "ms",
    "serve.max_qps": "1/s",
    "obs.traced_warm_s": "s",
    "obs.traced_warm_ratio": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
    "trace.spans": "count",
}

#: The attribution check: layer self times must cover all but this
#: share of the traced root span.
MAX_UNATTRIBUTED = 0.05

#: What each generic end-to-end metric is on each workload.
ALIASES = {
    "figures-paper": {"batch_s": "figures_s", "core_s": "fig6_infer_s"},
    "sweep-internet": {"batch_s": "sweep_cold_s", "core_s": "sweep_warm_s"},
    "serve-paper": {"batch_s": "serve_load_s", "core_s": "serve_replay_s"},
}


class Context:
    """Everything a workload needs, derived from the arguments."""

    def __init__(self, args: argparse.Namespace, root: pathlib.Path) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.inject = args.inject_wrong
        self.scale = args.scale
        self.root = root
        self.work = BENCH_DIR / "out" / f"run-{os.getpid()}"
        self.spool = self.work / "spool"
        self.clock = speed.Clock()
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(
            os.environ, PYTHONPATH=src + (os.pathsep + path if path else "")
        )

    def scale_name(self, default: str) -> str:
        return self.scale or default

    def scenario(self, default: str):
        from repro import simulation

        factory = getattr(simulation, f"{self.scale_name(default)}_scenario")
        return factory(seed=self.seed)

    def log(self, line: str) -> None:
        print(line, flush=True)


def layer_metrics(ctx: Context, provided: dict, checks) -> dict:
    """Per-layer values (and sample counts) from the traced run."""
    import layers
    from repro.obs import load_trace

    batches = layers.collect(ctx.spool)
    summary = layers.summarize(batches)
    trace_path = BENCH_DIR / "out" / "traces" / (
        f"{ctx.workload}-seed{ctx.seed}.trace.json"
    )
    layers.write_chrome_trace(batches, trace_path)
    ctx.log(f"trace written to {trace_path.relative_to(ctx.root)}")
    events = load_trace(trace_path)["traceEvents"]
    checks.expect(
        summary["spans"] > 0 and summary["spans"] == sum(
            1 for event in events if event.get("ph") == "X"
        ),
        "trace file round-trips through repro.obs.load_trace",
    )
    checks.expect(
        summary["unattributed_frac"] <= MAX_UNATTRIBUTED,
        f"traced self times within {MAX_UNATTRIBUTED:.0%} of the traced "
        f"wall clock (unattributed {summary['unattributed_frac']:.3f})",
    )
    self_s, calls = summary["self_s"], summary["calls"]
    counters = summary["counters"]
    values = {}

    def put(name, value, samples):
        values[name] = (value, samples)

    for layer in (
        "simulation.world", "simulation.announce", "bgp.aggregate",
        "bgp.propagation", "delegation.kernel", "delegation.runner",
        "delegation.consistency", "delegation.rpki_eval", "store.read",
        "store.write", "analysis.export", "serve.load",
    ):
        put(f"{layer}.self_s", self_s.get(layer, 0.0), calls.get(layer, 0))
    for name in (
        "simulation.world.builds", "bgp.aggregate.pairs",
        "delegation.kernel.pairs_in", "delegation.kernel.rows_out",
        "store.bytes_written",
    ):
        put(name, counters.get(name, 0), 1)
    for layer, name in (
        ("simulation.announce", "simulation.announce.calls"),
        ("bgp.propagation", "bgp.propagation.calls"),
        ("delegation.kernel", "delegation.kernel.days"),
    ):
        put(name, calls.get(layer, 0), 1)
    reads = counters.get("store.reads", 0)
    put("store.reads", reads, 1)
    put("store.hit_ratio",
        counters.get("store.hits", 0) / reads if reads else 0.0, reads)
    engine_all = []
    for route in ("ip", "delegations", "as", "transfers", "market", "whois"):
        samples = summary["route_us"].get(route, [])
        engine_all.extend(samples)
        put(f"serve.engine.query_us.{route}",
            layers.median_or_zero(samples), len(samples))
    client_us = provided.pop("serve.client_us", None)
    if client_us and engine_all:
        put("serve.frontend_us",
            client_us[0] - statistics.median(engine_all), len(engine_all))
    put("trace.unattributed_frac", summary["unattributed_frac"], 1)
    put("trace.spans", summary["spans"], 1)
    for name, samples in provided.items():
        put(name, statistics.median(samples), len(samples))
    for name in PER_LAYER:
        values.setdefault(name, (0, 0))
    return values


def run(ctx: Context) -> dict:
    import batch
    import serving

    workload = {
        "figures-paper": batch.figures_paper,
        "sweep-internet": batch.sweep_internet,
        "serve-paper": serving.serve_paper,
    }[ctx.workload]
    outcome = workload(ctx)
    provided = outcome["metrics"]
    checks = outcome["checks"]
    if ctx.trace:
        wanted = PER_LAYER
        values = layer_metrics(ctx, provided, checks)
    else:
        wanted = END_TO_END
        values = {
            name: (statistics.median(samples), len(samples))
            for name, samples in provided.items()
        }
    aliases = ALIASES[ctx.workload]
    for name, unit in wanted.items():
        value, samples = values[name]
        alias = f"  [{aliases[name]}]" if name in aliases else ""
        ctx.log(f"{name:36s} {value:14.6f} {unit:5s} (n={samples}){alias}")
    for name, (value, samples) in sorted(values.items()):
        if name not in wanted:
            ctx.log(f"{name:36s} {value:14.6f}       (n={samples})")
    for note in checks.notes:
        ctx.log(f"CHECK FAILED: {note}")
    failed_frac = checks.failed / checks.attempted if checks.attempted else 1
    ctx.log(
        f"{'failed_frac':36s} {failed_frac:14.6f} ratio "
        f"(n={checks.attempted})"
    )
    return {
        "correct": checks.attempted > 0 and checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": values[name][0], "unit": unit}
            for name, unit in wanted.items()
        },
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(ALIASES)
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs: a seconds-fast scale, and one wrong answer.
    parser.add_argument(
        "--scale", choices=("small", "paper", "internet"), default=None,
        help=argparse.SUPPRESS,
    )
    parser.add_argument(
        "--inject-wrong", action="store_true", help=argparse.SUPPRESS
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = pathlib.Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "e2ebench: run from the root of a checkout (no src/repro here)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))
    procs.exit_on_sigterm()
    procs.adopt_orphans()
    ctx = Context(args, root)
    ctx.work.mkdir(parents=True, exist_ok=True)
    try:
        result = run(ctx)
    finally:
        # Every path out: no helper or server outlives the run.
        procs.stop_all()
        shutil.rmtree(ctx.work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
