"""The out-of-core storage engine.

Per-day memory-mapped shard files whose on-disk layout *is* the
columnar :class:`~repro.bgp.rib.PairTable` layout, so loads are
zero-copy: the runner and the serving layer both read internet-scale days without materializing them in RAM
(see :mod:`repro.store.shard` for the format and invariants).
"""

from repro.store.shard import (
    SHARD_SCHEMA,
    ShardStore,
    atomic_write_bytes,
    sweep_stale_temporaries,
)

__all__ = [
    "SHARD_SCHEMA",
    "ShardStore",
    "atomic_write_bytes",
    "sweep_stale_temporaries",
]
