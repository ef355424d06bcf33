"""Durable event-sourced streaming interference engine.

The paper's robustness theorem (a join changes any receiver's
interference by at most +1) gives every membership event a small, bounded
delta — exactly what an event-sourced engine needs. This package turns
that into a crash-safe streaming subsystem:

- :mod:`repro.stream.events`   — typed ``join``/``leave``/``move`` events
  and seeded workload generators;
- :mod:`repro.stream.engine`   — :class:`StreamEngine`, the in-memory
  incremental engine (spatial hash, O(neighbourhood) per event, the
  shared coverage predicate with bit-identical per-event and bulk paths);
- :mod:`repro.stream.wal`      — the segmented length+SHA-256 framed
  write-ahead log (:class:`SegmentedWal`, rotated ``wal-<seq>.jsonl``
  segments, the :class:`LogStore` storage protocol), with explicit
  torn-tail vs corruption semantics;
- :mod:`repro.stream.snapshot` — atomic checksummed full-state snapshots;
- :mod:`repro.stream.durable`  — :class:`DurableStreamEngine`: log-backed
  engine with snapshot + bounded tail-replay recovery and a compactor
  that deletes snapshot-covered segments;
- :mod:`repro.stream.verify`   — recovered-state == recomputed-state
  verification (``repro stream verify``);
- :mod:`repro.stream.chaos`    — the seeded kill/recover/resume harness.
"""

from repro.stream.chaos import (
    ChaosRunResult,
    chaos_run,
    chaos_suite,
    render_chaos_results,
)
from repro.stream.config import StreamConfig
from repro.stream.durable import DurableStreamEngine, RecoveryInfo
from repro.stream.engine import AppliedEvent, StreamEngine, StreamStateError
from repro.stream.events import (
    EVENT_FAMILIES,
    EVENT_KINDS,
    StreamEvent,
    random_stream_events,
)
from repro.stream.snapshot import latest_snapshot, list_snapshots, write_snapshot
from repro.stream.verify import (
    VerifyReport,
    render_verify_report,
    verify_stream_dir,
)
from repro.stream.wal import (
    LogStore,
    SegmentInfo,
    SegmentedWal,
    StoreScan,
    WalCorruption,
    WalScan,
    WriteAheadLog,
    list_segments,
    scan_store,
    scan_wal,
    store_bytes,
)

__all__ = [
    "AppliedEvent",
    "ChaosRunResult",
    "DurableStreamEngine",
    "EVENT_FAMILIES",
    "EVENT_KINDS",
    "LogStore",
    "RecoveryInfo",
    "SegmentInfo",
    "SegmentedWal",
    "StoreScan",
    "StreamConfig",
    "StreamEngine",
    "StreamEvent",
    "StreamStateError",
    "VerifyReport",
    "WalCorruption",
    "WalScan",
    "WriteAheadLog",
    "chaos_run",
    "chaos_suite",
    "latest_snapshot",
    "list_segments",
    "list_snapshots",
    "random_stream_events",
    "render_chaos_results",
    "render_verify_report",
    "scan_store",
    "scan_wal",
    "store_bytes",
    "verify_stream_dir",
    "write_snapshot",
]
