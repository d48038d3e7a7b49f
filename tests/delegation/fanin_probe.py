"""A probe for fan-in buffers that outlive their chunk.

Installed through pytest's ``monkeypatch``, it wraps
``runner.fill_gaps`` to record, as rule (v) starts, the fan-in
segments this process still maps and its traced heap, and wraps
``SharedMemory.close`` to record the outcome of every close in this
process.  Shared by ``tests/delegation/test_fanin.py`` and
``benchmarks/bench_outofcore.py``.
"""

import pathlib
import tracemalloc
from multiprocessing import shared_memory

from repro.delegation import runner

MAPS = pathlib.Path("/proc/self/maps")


def fanin_mappings():
    """The fan-in (``rpfi``) segments this process maps."""
    if not MAPS.exists():
        return []
    return [line for line in MAPS.read_text().splitlines() if "rpfi" in line]


class FanInProbe:
    """What the parent still holds at rule (v), and every close."""

    def __init__(self, monkeypatch):
        #: ``maps`` and ``heap_kb`` (tracemalloc's current heap, 0 when
        #: not tracing) at the latest ``fill_gaps`` entry.
        self.at_rule_v = {}
        #: ``"ok"`` or the raised exception's name, one per close.
        self.closes = []
        fill_gaps = runner.fill_gaps
        close = shared_memory.SharedMemory.close

        def probing_fill_gaps(*args, **kwargs):
            self.at_rule_v = {
                "maps": fanin_mappings(),
                "heap_kb": tracemalloc.get_traced_memory()[0] / 1024,
            }
            return fill_gaps(*args, **kwargs)

        def counting_close(segment):
            try:
                close(segment)
            except BaseException as exc:
                self.closes.append(type(exc).__name__)
                raise
            self.closes.append("ok")

        monkeypatch.setattr(runner, "fill_gaps", probing_fill_gaps)
        monkeypatch.setattr(
            shared_memory.SharedMemory, "close", counting_close
        )

    def failed_closes(self):
        return [outcome for outcome in self.closes if outcome != "ok"]
