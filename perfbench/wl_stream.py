"""``stream_dense``: durable ingest in a closed loop.

One unit of work is one ``DurableStreamEngine.apply_batch`` followed by
``READS_PER_BATCH`` ``region_read`` calls. The universe is filled to its
steady occupancy before timing starts, so per-batch cost does not climb
through the run. The run restarts the durable engine ``reopens`` times,
spread over the timed region, the last one after it. A restart takes a
snapshot, seals the log segment, applies a fixed tail of events untimed,
closes the engine and times reopening it, so every reopen reads one
snapshot and replays the same amount of log. The timed batches continue
on the reopened engine.

Output checks: the live ``state_digest`` must equal the digest after
every reopen and the digest of an in-memory ``StreamEngine`` fed the same
events, which are regenerated from the seed.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

from churn import ChurnGenerator
from measure import busy_s, median, peak_rss_mb, tail

R_MAX = 1.0
#: grid cell edge of the engine's spatial hash (``StreamEngine`` uses 3 r_max)
CELL = 3.0 * R_MAX
READS_PER_BATCH = 4
FILL = 0.8
#: events per ``apply_many`` call of the replay check
REPLAY_CHUNK = 50_000

#: ~10 nodes per unit area, ~89 per occupied grid cell; batches of
#: capacity/4 always reach the engine's bulk tier (perfbench/NOTES.md says
#: why this is the one stream workload)
PROFILE = dict(
    capacity=4_000, side=17.9, batch=1000, snapshot_every=100_000,
    recovery_tail=4_000, reopens=12,
)


def _sizes(total: int, batch: int) -> list[int]:
    """``total`` split into batches of at most ``batch``."""
    return [min(batch, total - lo) for lo in range(0, total, batch)]


class Workload:
    def __init__(self, name: str, root, workdir, seed: int, trace: bool):
        self.p = PROFILE
        self.workdir = workdir
        self.seed = seed
        self.trace = trace
        self.durable = None

    def setup(self) -> None:
        from repro.api import DurableStreamEngine, StreamConfig

        p = self.p
        self.config = StreamConfig(
            capacity=p["capacity"],
            r_max=R_MAX,
            snapshot_every=p["snapshot_every"],
            fsync=False,
            # >= the batch, so a batch reaches apply_many in one chunk
            fsync_every=4096,
        )
        self.dir = self.workdir / "stream"
        self.durable = DurableStreamEngine.create(self.dir, self.config)

    def close(self) -> None:
        if self.durable is not None:
            self.durable.close()
            self.durable = None

    def _generator(self) -> ChurnGenerator:
        p = self.p
        return ChurnGenerator(
            self.seed, capacity=p["capacity"], side=p["side"], r_max=R_MAX
        )

    def _restart(self, gen, drawn: list, recover: list, shadow) -> bool:
        """Restart the durable engine, timing the reopen; True if the
        reopened state equals the live one. A snapshot, then a fresh
        segment holding only the fixed tail: every reopen reads one
        snapshot and replays the same amount of log."""
        from repro import obs
        from repro.api import DurableStreamEngine

        p = self.p
        durable = self.durable
        durable.snapshot_now()
        durable.store.seal()
        for k in _sizes(p["recovery_tail"], p["batch"]):
            self._untimed(gen, k, drawn, shadow)
        live = durable.engine.state_digest()
        durable.close()
        # nothing may hold the old engine: the reopened one replaces it
        self.durable = durable = None
        gc.collect()  # as in a restarted process, no garbage to collect
        t0 = time.perf_counter()
        with obs.span("stream.recover"):
            self.durable = DurableStreamEngine.open(self.dir)
        recover.append(time.perf_counter() - t0)
        return self.durable.engine.state_digest() == live

    def _untimed(self, gen, k: int, drawn: list, shadow) -> None:
        """Apply ``k`` churn events outside the timed region."""
        evs = gen.churn(k)
        drawn.append(k)
        self.durable.apply_batch(evs)
        if shadow is not None:
            shadow.apply_many(evs)

    def run(self, seconds: float) -> dict:
        from repro import obs
        from repro.api import StreamEngine
        from repro.stream import StreamStateError

        p = self.p
        batch, side = p["batch"], p["side"]
        gen = self._generator()
        fill = int(FILL * p["capacity"])
        for k in _sizes(fill, batch):
            self.durable.apply_batch(gen.joins(k))

        read_rng = np.random.default_rng([self.seed, 1])
        shadow = StreamEngine(self.config) if self.trace else None
        if shadow is not None:
            shadow.apply_many(self._generator().joins(fill))
        units: list[float] = []
        recover: list[float] = []
        #: churn sizes in the order drawn, for the replay check
        drawn: list[int] = []
        failed = 0
        events = 0
        n_batches = 0
        rejected = 0
        elapsed = 0.0
        # The restarts are spread over the timed region, so recovery_s
        # samples the host's speed over the run as the batches do; the
        # last one follows the timed region.
        restart_every = seconds / p["reopens"]
        while elapsed < seconds:
            if elapsed >= restart_every * (len(recover) + 1):
                failed += not self._restart(gen, drawn, recover, shadow)
                # one untimed batch, so no timed batch is a restart's first
                self._untimed(gen, batch, drawn, shadow)
            durable = self.durable
            evs = gen.churn(batch)
            drawn.append(batch)
            corners = (read_rng.random((READS_PER_BATCH, 2)) * (side - CELL)).tolist()
            t0 = time.perf_counter()
            with obs.span("stream.unit"):
                with obs.span("stream.durable_apply"):
                    try:
                        durable.apply_batch(evs)
                    except StreamStateError:
                        rejected += 1
                with obs.span("stream.read"):
                    for x, y in corners:
                        durable.engine.region_read(x, y, x + CELL, y + CELL)
            dt = time.perf_counter() - t0
            del durable
            if shadow is not None:
                seq0 = shadow.seq
                with obs.span("stream.engine_apply"):
                    shadow.apply_many(evs)
                with obs.span("stream.encode"):
                    for j, ev in enumerate(evs, seq0 + 1):
                        ev.wal_payload(j)
            units.append(dt)
            elapsed += dt
            events += len(evs)
            n_batches += 1
        rss = peak_rss_mb()
        while len(recover) < p["reopens"]:
            failed += not self._restart(gen, drawn, recover, shadow)

        engine = self.durable.engine
        live = engine.state_digest()
        nodes = engine.state_jsonable()["nodes"]
        occupied = {(int(x / CELL), int(y / CELL)) for _, x, y, _, _ in nodes}
        n_active = engine.n_active
        del engine
        self.durable.close()
        self.durable = None
        failed += rejected

        replay = StreamEngine(self.config)
        again = self._generator()
        for k in _sizes(fill, batch):
            replay.apply_many(again.joins(k))
        # Chunks far larger than a batch: the final state does not depend
        # on how the events are split, and a chunk costs the bulk tier
        # about a tenth as much per event as a batch does.
        pending: list = []
        for k in drawn:
            pending.extend(again.churn(k))
            if len(pending) >= REPLAY_CHUNK:
                replay.apply_many(pending)
                pending = []
        replay.apply_many(pending)
        replay_ok = replay.state_digest() == live
        if not replay_ok:
            failed += 1

        lat = tail([u * 1e3 for u in units])
        details = {
            "batches": n_batches,
            "events": events,
            "n_active": n_active,
            "latency_tail": lat,
            "live_digest": live,
            "replay_digest_match": replay_ok,
            "rejected_batches": rejected,
            "recovery_samples_s": recover,
        }
        metrics = {
            "throughput_per_s": events / elapsed,
            "latency_p50_ms": median(units) * 1e3,
            "latency_tail_ms": lat["value"],
            "peak_rss_mb": rss,
            # the mean: reopens fall into the host's fast and slow spells,
            # and the median of a two-mode sample jumps between the modes
            "recovery_s": statistics.fmean(recover),
        }
        if self.trace:
            snap = obs.snapshot()
            roots = snap.spans
            metrics.update({
                "trace.unit_p50_ms": median(
                    s.duration_s for s in roots if s.name == "stream.unit"
                ) * 1e3,
                "stream.durable_apply_busy_s": busy_s(roots, "stream.durable_apply"),
                "stream.engine_apply_busy_s": busy_s(roots, "stream.engine_apply"),
                "stream.encode_busy_s": busy_s(roots, "stream.encode"),
                "stream.snapshot_busy_s": busy_s(roots, "stream.snapshot"),
                "stream.read_busy_s": busy_s(roots, "stream.read"),
                "stream.recover_busy_s": busy_s(roots, "stream.recover"),
                "stream.events": events,
                "stream.rejected": rejected,
                "stream.wal.fsyncs": snap.counters.get("stream.wal.fsyncs", 0),
                "stream.nodes_per_cell": n_active / max(len(occupied), 1),
            })
        return {
            "attempted": n_batches + len(recover) + 1,
            "failed": failed,
            "metrics": metrics,
            "details": details,
        }
