"""Outside-in layer tracing for the end-to-end benchmark.

The benchmark never edits the program.  Instead it wraps the public
entry points of each layer (``simulation``, ``bgp``, ``delegation``,
``store``, ``analysis``, ``serve``) with spans it records itself.  A
span is ``(layer, detail, start, end, parent)`` plus the pid of the
process that recorded it; spans live in memory and are written out once
the traced run ends.

Wrappers are installed in the benchmark process before any pool forks,
so forked workers inherit them.  A worker starts with an empty buffer
(the first span after a fork resets it) and appends its spans to a
per-pid spool file at the end of every runner chunk, which is how the
spans of pool workers reach the trace file.

A layer's self time is a span's duration minus its children's
durations; children nest strictly (one thread per process), so that is
the duration minus the union of the children.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import pickle
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional

perf_counter = time.perf_counter

#: Name of the span the benchmark opens around a traced workload body.
ROOT = "bench.root"


class Recorder:
    """Span buffer of the current process."""

    def __init__(self) -> None:
        self.active = False
        self.spool: Optional[pathlib.Path] = None
        self._reset(os.getpid())

    def _reset(self, pid: int) -> None:
        self.pid = pid
        self.spans: List[Optional[tuple]] = []
        self.stack: List[int] = []
        self.counters: Dict[str, int] = {}

    def _owned(self) -> None:
        pid = os.getpid()
        if pid != self.pid:
            # A forked child: the parent's spans (and its open stack)
            # belong to the parent, not to this process.
            self._reset(pid)

    def begin(self, layer: str, detail: str = "") -> int:
        self._owned()
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append((layer, detail, perf_counter(), None, parent))
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        stop = perf_counter()
        self.stack.pop()
        layer, detail, start, _stop, parent = self.spans[index]
        self.spans[index] = (layer, detail, start, stop, parent)

    def count(self, name: str, amount: int = 1) -> None:
        self._owned()
        self.counters[name] = self.counters.get(name, 0) + amount

    def batch(self) -> dict:
        return {
            "pid": self.pid,
            "spans": [s for s in self.spans if s is not None],
            "counters": dict(self.counters),
        }

    def flush(self) -> None:
        """Append this process's finished spans to its spool file."""
        self._owned()
        if self.spool is None or self.stack:
            return
        if self.spans or self.counters:
            path = self.spool / f"{self.pid}.spans"
            with open(path, "ab") as handle:
                pickle.dump(self.batch(), handle)
        self._reset(self.pid)


#: The one recorder of this process.  It is module-level on purpose:
#: wrappers installed before a fork must find it in every worker.
RECORDER = Recorder()


def span(layer: str, fn: Callable, detail: str = "",
         after: Optional[Callable] = None) -> Callable:
    """Wrap ``fn`` in a ``layer`` span; ``after(args, result)`` counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = RECORDER
        if not rec.active:
            return fn(*args, **kwargs)
        index = rec.begin(layer, detail)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(index)
        if after is not None:
            after(args, result)
        return result

    return wrapper


# -- installation ---------------------------------------------------------


class Installation:
    """Every patched attribute, so the program can be restored."""

    def __init__(self) -> None:
        self.patched: List[tuple] = []

    def set(self, owner, name: str, value) -> None:
        self.patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def function(self, module_name: str, name: str, layer: str,
                 detail: str = "", after=None) -> None:
        """Wrap a module-level function everywhere it was imported.

        Callers that did ``from x import f`` hold their own binding, so
        every loaded ``repro`` module whose attribute is the original
        function object gets the wrapper too.
        """
        module = sys.modules[module_name]
        original = getattr(module, name)
        wrapped = span(layer, original, detail or name, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            if mod.__dict__.get(name) is original:
                self.set(mod, name, wrapped)

    def method(self, cls, name: str, layer: str, detail: str = "",
               after=None) -> None:
        original = cls.__dict__[name]
        if isinstance(original, classmethod):
            self.set(cls, name, classmethod(
                span(layer, original.__func__, detail or name, after)
            ))
        else:
            self.set(cls, name, span(layer, original, detail or name, after))

    def memoized(self, cls, name: str, attr: str, layer: str) -> None:
        """Wrap a lazy builder; only calls that actually build get a span."""
        original = cls.__dict__[name]
        wrapped = span(layer, original, name)

        @functools.wraps(original)
        def builder(self_, *args, **kwargs):
            if getattr(self_, attr) is not None:
                return original(self_, *args, **kwargs)
            return wrapped(self_, *args, **kwargs)

        self.set(cls, name, builder)

    def restore(self) -> None:
        for owner, name, original in reversed(self.patched):
            setattr(owner, name, original)
        self.patched.clear()


#: World's lazy component builders and the attribute each one fills.
WORLD_BUILDERS = {
    "topology": "_topology",
    "propagation": "_propagation",
    "collector_system": "_collector_system",
    "orgs": "_orgs",
    "carve_pools": "_carve_pools",
    "delegation_plan": "_delegation_plan",
    "announcement_source": "_announcement_source",
    "_whois_built": "_whois",
    "as2org": "_as2org",
    "rpki": "_rpki",
    "transfer_ledger": "_ledger",
    "priced_transactions": "_priced",
}

#: QueryEngine query methods and the route each serves.
ENGINE_ROUTES = {
    "rdap_ip": "ip",
    "delegations_lookup": "delegations",
    "as_history": "as",
    "transfers_lookup": "transfers",
    "market_summary": "market",
    "whois_query": "whois",
}


def install(spool: pathlib.Path) -> Installation:
    """Wrap every layer entry point and start recording."""
    import repro.analysis.fig_data as fig_data
    import repro.delegation  # noqa: F401 - binds every re-export
    import repro.delegation.runner as runner
    from repro.bgp.collector import CollectorSystem
    from repro.bgp.propagation import PropagationModel
    from repro.delegation.inference import DelegationInference
    from repro.serve.engine import QueryEngine
    from repro.simulation.announce import AnnouncementSource
    from repro.simulation.world import World
    from repro.store.shard import ShardStore

    rec = RECORDER
    count = rec.count
    inst = Installation()

    world_init = World.__dict__["__init__"]

    @functools.wraps(world_init)
    def counted_init(self_, *args, **kwargs):
        if rec.active:
            count("simulation.world.builds")
        world_init(self_, *args, **kwargs)

    inst.set(World, "__init__", counted_init)
    for name, attr in WORLD_BUILDERS.items():
        inst.memoized(World, name, attr, "simulation.world")

    inst.method(AnnouncementSource, "__call__", "simulation.announce")
    inst.method(PropagationModel, "receivers", "bgp.propagation")
    inst.method(
        CollectorSystem, "pair_table_for_day", "bgp.aggregate",
        after=lambda a, r: count("bgp.aggregate.pairs", len(r)),
    )

    def kernel_counts(args, rows):
        count("delegation.kernel.pairs_in", len(args[1]))
        count("delegation.kernel.rows_out", len(rows))

    inst.method(
        DelegationInference, "_table_delegation_rows", "delegation.kernel",
        detail="day", after=kernel_counts,
    )
    inst.function(
        "repro.delegation.runner", "run_inference", "delegation.runner"
    )
    inst.function(
        "repro.delegation.consistency", "fill_gaps",
        "delegation.consistency",
    )
    inst.function(
        "repro.delegation.rpki_eval", "evaluate_rules_on_rpki",
        "delegation.rpki_eval",
    )

    # The worker-side unit of the runner: flushing after each chunk is
    # what carries pool workers' spans into the trace.
    chunk = span("delegation.runner", runner._worker_run_chunk, "chunk")

    @functools.wraps(runner._worker_run_chunk)
    def chunk_and_flush(tasks):
        try:
            return chunk(tasks)
        finally:
            if rec.active:
                rec.flush()

    inst.set(runner, "_worker_run_chunk", chunk_and_flush)

    def read_counts(args, result):
        count("store.reads")
        if result is not None:
            count("store.hits")

    inst.method(ShardStore, "load", "store.read", after=read_counts)
    inst.method(ShardStore, "load_result", "store.read", after=read_counts)
    inst.method(
        ShardStore, "write", "store.write",
        after=lambda a, path: count("store.bytes_written",
                                    path.stat().st_size),
    )
    inst.method(
        ShardStore, "write_result", "store.write",
        after=lambda a, path: count("store.bytes_written", len(a[2])),
    )

    for name in (
        "export_fig1_prices", "export_fig2_transfers", "export_fig4_leasing",
        "export_fig5_rules", "export_fig6_series", "export_fig6_runner_stats",
    ):
        inst.function(fig_data.__name__, name, "analysis.export")

    inst.method(QueryEngine, "from_world", "serve.load")
    for name, route in ENGINE_ROUTES.items():
        inst.method(QueryEngine, name, "serve.engine", detail=route)

    spool.mkdir(parents=True, exist_ok=True)
    rec.spool = spool
    rec._reset(os.getpid())
    rec.active = True
    return inst


def uninstall(inst: Installation) -> None:
    RECORDER.active = False
    inst.restore()


# -- analysis -------------------------------------------------------------


def collect(spool: pathlib.Path) -> List[dict]:
    """This process's spans plus every batch spooled by other processes."""
    batches = []
    mine = RECORDER.batch()
    if mine["spans"] or mine["counters"]:
        batches.append(mine)
    for path in sorted(spool.glob("*.spans")):
        with open(path, "rb") as handle:
            while True:
                try:
                    batches.append(pickle.load(handle))
                except EOFError:
                    break
    return batches


def self_times(spans: List[tuple]) -> List[float]:
    """Each span's duration minus its (strictly nested) children's."""
    own = [end - start for _l, _d, start, end, _p in spans]
    for layer, _d, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(batches: List[dict]) -> dict:
    """Per-layer self time, call counts, counters and attribution."""
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    counters: Dict[str, int] = {}
    route_us: Dict[str, List[float]] = {}
    root_wall = root_self = 0.0
    spans_total = 0
    for batch in batches:
        spans = batch["spans"]
        spans_total += len(spans)
        for (layer, detail, start, end, _p), own in zip(
            spans, self_times(spans)
        ):
            if layer == ROOT:
                root_wall += end - start
                root_self += own
                continue
            self_s[layer] = self_s.get(layer, 0.0) + own
            calls[layer] = calls.get(layer, 0) + 1
            if layer == "serve.engine":
                route_us.setdefault(detail, []).append((end - start) * 1e6)
        for name, value in batch["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return {
        "self_s": self_s,
        "calls": calls,
        "counters": counters,
        "route_us": route_us,
        "root_wall_s": root_wall,
        "unattributed_frac": root_self / root_wall if root_wall else 0.0,
        "spans": spans_total,
    }


def write_chrome_trace(batches: List[dict], path: pathlib.Path) -> None:
    """Chrome trace-event JSON, as ``repro trace summarize`` reads it."""
    starts = [s[2] for b in batches for s in b["spans"]]
    base = min(starts) if starts else 0.0
    events: List[dict] = []
    for batch in batches:
        pid = batch["pid"]
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": f"pid-{pid}"},
        })
        spans = batch["spans"]
        for index, ((layer, detail, start, end, parent), own) in enumerate(
            zip(spans, self_times(spans))
        ):
            events.append({
                "name": f"{layer}:{detail}" if detail else layer,
                "cat": layer,
                "ph": "X",
                "ts": round((start - base) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": pid,
                "tid": 1,
                "args": {
                    "lane": f"pid-{pid}",
                    "index": index,
                    "parent": parent,
                    "self_us": round(own * 1e6, 3),
                },
            })
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}) + "\n",
        encoding="utf-8",
    )


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
