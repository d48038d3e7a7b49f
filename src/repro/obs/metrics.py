"""Zero-dependency metrics: counters, gauges, timers, stage spans.

The measurement pipeline fans out across processes (see
:mod:`repro.delegation.runner`), so the central type here — the
:class:`MetricsRegistry` — is **picklable** and **mergeable**: every
worker records into its own registry, ships it back with its results,
and the parent folds them together with :meth:`MetricsRegistry.merge`.

Merging is associative and commutative (counters add, gauges keep the
maximum, timers — one :class:`~repro.obs.telemetry.HistogramStats`
each — merge exactly), so the merged view is independent of worker
scheduling: merging N worker registries in any order equals one
registry that saw every observation sequentially.  The property tests
in ``tests/obs/test_merge_properties.py`` pin this down.

Instrumented code paths default to the module-level :data:`NULL`
registry, whose methods do nothing: a run that never asks for metrics
pays (almost) nothing and produces byte-identical output.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional

from repro.obs.telemetry import HistogramStats


class Span:
    """A wall-clock stage timing, nestable via the owning registry.

    Entering pushes the span's name onto the registry's stack, so a
    span opened inside another records under the dotted path of its
    ancestors (``runner.compute`` inside ``runner``).  Exiting records
    one observation into the registry's timer of that full name.
    """

    __slots__ = ("_registry", "_name", "_full_name", "_started")

    def __init__(self, registry: "MetricsRegistry", name: str):
        self._registry = registry
        self._name = name
        self._full_name = name
        self._started = 0.0

    def __enter__(self) -> "Span":
        registry = self._registry
        stack = registry._span_stack
        self._full_name = (
            f"{stack[-1]}.{self._name}" if stack else self._name
        )
        stack.append(self._full_name)
        if registry._mem_profiler is not None:
            registry._mem_profiler.enter_span()
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        elapsed = time.perf_counter() - self._started
        registry = self._registry
        stack = registry._span_stack
        if stack and stack[-1] == self._full_name:
            stack.pop()
        else:
            # Corrupted nesting (an overlapping or re-entered span):
            # skipping the pop keeps the stack from losing an
            # ancestor, but must never be silent — manifests and
            # `history check` gate on this counter.
            registry.inc("spans.mismatched")
        registry.observe(self._full_name, elapsed)
        if exc_type is not None:
            # The timing above still records (a degraded stage took
            # real wall-clock), but a crashed stage must be
            # distinguishable from a successful one in manifests.
            registry.inc(f"{self._full_name}.failed")
        if registry._mem_profiler is not None:
            peak_bytes = registry._mem_profiler.exit_span()
            registry.set_gauge(
                f"profile.{self._full_name}.peak_kb",
                peak_bytes / 1024.0,
            )


class _NullSpan:
    """Reusable do-nothing span for the :class:`NullRegistry`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_SPAN = _NullSpan()


class MetricsRegistry:
    """Counters, gauges, and timers under dotted string names.

    Plain-dict state keeps the registry picklable; the span stack is
    process-local bookkeeping and is dropped on pickling (a registry
    should never cross processes with spans still open).
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._timers: Dict[str, HistogramStats] = {}
        self._span_stack: List[str] = []
        #: Set by :meth:`enable_memory_profile`; spans then record
        #: ``profile.<name>.peak_kb`` gauges on exit.
        self._mem_profiler = None

    # -- recording ------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (creating it at zero)."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Record a point-in-time level; merges keep the maximum."""
        current = self._gauges.get(name)
        if current is None or value > current:
            self._gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
        """Record one timing observation into timer ``name``.

        A timer is a latency histogram (fixed log-scale buckets, see
        :mod:`repro.obs.telemetry`) with exact count, sum, min and
        max, so any instrumented call site — spans included — gets
        p50/p90/p99/p999 for free.
        """
        stats = self._timers.get(name)
        if stats is None:
            stats = self._timers[name] = HistogramStats()
        stats.observe(seconds)

    def span(self, name: str) -> Span:
        """Context manager timing a pipeline stage; spans nest."""
        return Span(self, name)

    def enable_memory_profile(self) -> None:
        """Record per-span peak-memory gauges (``profile.*.peak_kb``).

        Starts :mod:`tracemalloc` in this process if needed; every
        span closed afterwards records the peak traced allocation
        observed during its lifetime.  Gauges merge by maximum, so the
        fan-in of worker registries reports the worst per-stage peak
        across the pool.
        """
        from repro.obs.profile import MemoryProfiler

        if self._mem_profiler is None:
            self._mem_profiler = MemoryProfiler()
            self._mem_profiler.start()

    def disable_memory_profile(self) -> None:
        """Stop recording peak-memory gauges; gauges already recorded
        stay.

        Stops :mod:`tracemalloc` if :meth:`enable_memory_profile`
        started it, so a profiled run does not leave allocation
        tracing on for the rest of the process and every process it
        forks later.
        """
        if self._mem_profiler is not None:
            self._mem_profiler.stop()
            self._mem_profiler = None

    @property
    def memory_profiling(self) -> bool:
        return self._mem_profiler is not None

    # -- reading --------------------------------------------------------

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def gauge(self, name: str) -> Optional[float]:
        return self._gauges.get(name)

    def timer(self, name: str) -> HistogramStats:
        return self._timers.get(name, HistogramStats())

    def counters(self) -> Dict[str, int]:
        return dict(self._counters)

    def gauges(self) -> Dict[str, float]:
        return dict(self._gauges)

    def timers(self) -> Dict[str, HistogramStats]:
        return dict(self._timers)

    def names(self) -> Iterator[str]:
        yield from sorted(
            set(self._counters) | set(self._gauges) | set(self._timers)
        )

    # -- merging / serialization ---------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry; returns ``self``.

        Counters add, gauges keep the maximum, timers merge exactly,
        so merging is associative and commutative with the empty
        registry as identity.
        """
        for name, value in other._counters.items():
            self._counters[name] = self._counters.get(name, 0) + value
        for name, value in other._gauges.items():
            self.set_gauge(name, value)
        for name, stats in other._timers.items():
            mine = self._timers.get(name)
            if mine is None:
                mine = self._timers[name] = HistogramStats()
            mine.merge(stats)
        return self

    def to_json(self) -> dict:
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "timers": {
                name: stats.to_json()
                for name, stats in sorted(self._timers.items())
            },
        }

    def __getstate__(self) -> dict:
        return {
            "counters": self._counters,
            "gauges": self._gauges,
            "timers": self._timers,
        }

    def __setstate__(self, state: dict) -> None:
        self._counters = state["counters"]
        self._gauges = state["gauges"]
        self._timers = state["timers"]
        self._span_stack = []
        # Profiling is process-local (it wraps this interpreter's
        # tracemalloc); a shipped registry keeps its gauges only.
        self._mem_profiler = None

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry {len(self._counters)} counters, "
            f"{len(self._gauges)} gauges, {len(self._timers)} timers>"
        )


class NullRegistry(MetricsRegistry):
    """A registry that records nothing.

    Every instrumented code path defaults to :data:`NULL`, so the
    uninstrumented pipeline's only cost is a method call that returns
    immediately — no dict writes, no timing syscalls.
    """

    enabled = False

    def inc(self, name: str, amount: int = 1) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, seconds: float) -> None:
        pass

    def span(self, name: str) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def enable_memory_profile(self) -> None:
        # Never start tracemalloc on behalf of an uninstrumented run.
        pass

    def merge(self, other: MetricsRegistry) -> "NullRegistry":
        return self

    def __repr__(self) -> str:
        return "<NullRegistry>"


#: Shared no-op registry; the default everywhere instrumentation hooks in.
NULL = NullRegistry()
