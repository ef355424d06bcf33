"""Bulk vs scalar ``StreamEngine.apply_many`` across active densities.

Measures the crossover table in docs/PERFORMANCE.md: capacity 40 000,
20 000 active nodes, ``r_max = 1``, churn batches (half moves, occupancy
held at 20 000) from the benchmark's seeded generator. Both tiers get the
same batches, two untimed warm-up batches first, then the median of five
(fifteen below 4096 events) timed ones, and must end digest-identical.

"nodes/bucket" is the density gate's own measure, read after the timed
batches: active nodes over ``len(engine._grid)``, the buckets of the
3*r_max hash ever occupied (a leave or move leaves its bucket behind).

Run from the repo root::

    PYTHONPATH=src python benchmarks/stream_crossover.py [BATCH] [D1,D2,...]
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from churn import ChurnGenerator  # noqa: E402

from repro.stream import StreamConfig, StreamEngine  # noqa: E402

CAPACITY, ACTIVE, R_MAX = 40_000, 20_000, 1.0
DENSITIES = (0.03, 0.05, 0.1, 0.2, 0.4, 0.8, 3.2, 12.9, 51.4)


def measure(density: float, batch: int) -> tuple[float, float, float]:
    """``(nodes per bucket, bulk s, scalar s)`` at one active density."""
    config = StreamConfig(capacity=CAPACITY, r_max=R_MAX)
    gen = ChurnGenerator(
        1, capacity=CAPACITY, side=(ACTIVE / density) ** 0.5, r_max=R_MAX
    )
    bulk = StreamEngine(config)
    for _ in range(0, ACTIVE, 5000):
        assert bulk._apply_many_bulk(gen.joins(5000)) is not None
    scalar = StreamEngine.from_state(config, bulk.state_jsonable())
    timed_b, timed_s = [], []
    for i in range(2 + (5 if batch >= 4096 else 15)):
        events = gen.churn(batch)
        t0 = time.perf_counter()
        assert bulk._apply_many_bulk(events) is not None
        t1 = time.perf_counter()
        scalar._apply_many_scalar(events)
        t2 = time.perf_counter()
        if i >= 2:
            timed_b.append(t1 - t0)
            timed_s.append(t2 - t1)
    assert bulk.state_digest() == scalar.state_digest()
    per_bucket = bulk.n_active / max(len(bulk._grid), 1)
    return per_bucket, statistics.median(timed_b), statistics.median(timed_s)


def main(argv: list[str]) -> None:
    batch = int(argv[0]) if argv else 8192
    densities = [float(d) for d in argv[1].split(",")] if len(argv) > 1 else DENSITIES
    for density in densities:
        per_bucket, tb, ts = measure(density, batch)
        print(
            f"density {density:6.2f}  nodes/bucket {per_bucket:7.2f}  "
            f"bulk {1e3 * tb:8.1f} ms  scalar {1e3 * ts:8.1f} ms  "
            f"bulk vs scalar {ts / tb:5.2f}x",
            flush=True,
        )


if __name__ == "__main__":
    main(sys.argv[1:])
