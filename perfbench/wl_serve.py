"""``serve_open``: the interference service under open-loop Poisson load.

Set-up spawns ``repro serve --workers 1 --executor process`` (one pool
worker: with the server and this client that is already more busy
processes than a 2-CPU host has cores), connects one pipelined
``ServeClient``, initialises an in-memory stream lane and warms both
lanes up.

The load generator here is independent of ``repro.serve.loadgen``.
Every request is due at a Poisson arrival time drawn from the seed (the
count is fixed at rate x seconds) and is timed from its due time, so a
stalled server or a late generator shows as latency. How late the
generator sent each request is reported on its own.

Mix: 80 % ``interference`` with positions on the wire (n stratified over
``N_LARGE`` for ``LARGE_REQUESTS`` of them, over ``N_SMALL`` for the
rest), 10 % ``stream_apply`` (ack=applied), 10 % ``stream_read``, in a
seeded order. Output checks: each interference result equals in-process
``node_interference`` on the same positions; after the run, a whole-area
``stream_read`` equals an in-process ``StreamEngine`` fed the same
events; no error responses.

``recovery_s`` kills the pool worker and times until the server answers
an interference request correctly again (the server replaces a broken
pool by itself): the mean of ``KILLS`` kills, half just before the timed
region and half just after it.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

from churn import ChurnGenerator
from measure import TAIL_BEYOND, busy_s, child_pids, median, peak_rss_mb, tail

#: Poisson arrival rate: 250 requests in a 25 s run
RATE_PER_S = 10.0
P_INTERFERENCE, P_APPLY = 0.8, 0.1
#: Interference sizes: ``LARGE_REQUESTS`` are large, the rest small. The
#: tail is the 11th-slowest request, so with 21 large ones it is their
#: median: a statistic of a group whose service times lie close together,
#: which the few requests a stall or a burst slows down move by a rank or
#: two at most. With one size range it sat on those few requests, and with
#: a fixed share of large ones it moved up their distribution as runs got
#: longer; either way its run-to-run spread passed the bound (NOTES.md)
N_SMALL, N_LARGE = (150, 300), (1000, 1100)
LARGE_REQUESTS = 2 * TAIL_BEYOND + 1
DENSITY = 6.0
APPLY_EVENTS = 8
STREAM = dict(capacity=20_000, side=100.0, r_max=1.0)
STREAM_FILL = 4_000
READ_EDGE = 10.0
KILLS = 9
WARMUP = 20


def _positions(rng, n: int | None = None) -> list:
    if n is None:
        n = int(rng.integers(N_SMALL[0], N_SMALL[1] + 1))
    side = (n / DENSITY) ** 0.5
    return np.round(rng.uniform(0.0, side, size=(n, 2)), 6).tolist()


def _stratified(rng, k: int, lo: int, hi: int) -> np.ndarray:
    """``k`` sizes, one drawn uniformly in each of ``k`` equal slices of
    ``[lo, hi)``, so every seed gets the same spread of sizes."""
    return lo + (np.arange(k) + rng.random(k)) * (hi - lo) / k


def _expected(positions) -> list:
    from repro import api, obs

    topo = api.unit_disk_graph(np.asarray(positions, dtype=np.float64), unit=1.0)
    with obs.span("interference.kernel"):
        return api.node_interference(topo).tolist()


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class Workload:
    def __init__(self, name: str, root, workdir, seed: int, trace: bool):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.trace = trace
        self.server = None
        self.client = None
        self.loop = asyncio.new_event_loop()
        self.stats_path = workdir / "serve_stats.json"

    # -- lifecycle ---------------------------------------------------------

    def setup(self) -> None:
        root = self.root
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", "1", "--executor", "process",
             "--stats-json", str(self.stats_path)],
            stdout=subprocess.PIPE, text=True, env=env, cwd=root,
        )
        banner = self.server.stdout.readline()
        if "listening on" not in banner:
            raise RuntimeError(f"server did not start: {banner!r}")
        self.port = int(banner.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
        self.loop.run_until_complete(self._connect_and_warm())

    async def _connect_and_warm(self) -> None:
        from repro.api import ServeClient

        self.client = await ServeClient.connect(port=self.port)
        await self.client.stream_init(
            capacity=STREAM["capacity"], r_max=STREAM["r_max"]
        )
        await self._warm()
        env = await self.client.request_raw("stream_read", {"region": [0, 0, 1, 1]})
        if not env.get("ok"):
            raise RuntimeError(f"warm-up read failed: {env}")

    async def _warm(self) -> None:
        """Pay the pool worker's first-call costs with untimed requests."""
        rng = np.random.default_rng(999)
        for _ in range(WARMUP):
            env = await self.client.request_raw(
                "interference",
                {"positions": _positions(rng), "unit": 1.0, "measure": "node"},
            )
            if not env.get("ok"):
                raise RuntimeError(f"warm-up request failed: {env}")

    def close(self) -> None:
        if self.client is not None:
            self.loop.run_until_complete(self.client.close())
            self.client = None
        self._stop_server()
        self.loop.close()

    def _stop_server(self) -> None:
        """Drain the server with SIGINT (it then writes its stats file)."""
        if self.server is None:
            return
        if self.server.poll() is None:
            self.server.send_signal(signal.SIGINT)
            try:
                self.server.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.communicate()
        self.server = None

    # -- run ---------------------------------------------------------------

    def run(self, seconds: float) -> dict:
        return self.loop.run_until_complete(self._run(seconds))

    async def _run(self, seconds: float) -> dict:
        from repro import obs
        from repro.api import StreamEngine, StreamConfig

        client = self.client
        rng = np.random.default_rng(self.seed)
        churn = ChurnGenerator(
            self.seed, capacity=STREAM["capacity"], side=STREAM["side"],
            r_max=STREAM["r_max"],
        )
        applied_events = churn.joins(STREAM_FILL)
        for lo in range(0, STREAM_FILL, 1000):
            env = await client.request_raw("stream_apply", {
                "events": [e.to_jsonable() for e in applied_events[lo:lo + 1000]],
                "ack": "applied",
            })
            if not env.get("ok") or env["result"]["rejected"]:
                raise RuntimeError(f"stream fill failed: {env}")

        # the schedule: due offsets, kinds and payloads, all from the seed.
        # Arrivals are a Poisson process conditioned on its count (sorted
        # uniform offsets), so every run offers the same number of requests.
        # The mix is exact and the sizes are stratified, both in seeded
        # order, so the slowest requests, which set the tail, do not change
        # from seed to seed.
        count = int(RATE_PER_S * seconds)
        n_interference = round(count * P_INTERFERENCE)
        n_apply = round(count * P_APPLY)
        kinds = rng.permutation(
            ["interference"] * n_interference + ["stream_apply"] * n_apply
            + ["stream_read"] * (count - n_interference - n_apply)
        ).tolist()
        n_large = min(LARGE_REQUESTS, n_interference)
        sizes = iter(rng.permutation(np.round(np.concatenate([
            _stratified(rng, n_interference - n_large, *N_SMALL),
            _stratified(rng, n_large, *N_LARGE),
        ])).astype(int)).tolist())
        schedule = []
        offsets = np.sort(rng.uniform(0.0, seconds, count))
        for t, kind in zip(offsets.tolist(), kinds):
            if kind == "interference":
                params = {"positions": _positions(rng, next(sizes)), "unit": 1.0,
                          "measure": "node"}
                schedule.append((t, "interference", params))
            elif kind == "stream_apply":
                events = churn.churn(APPLY_EVENTS)
                applied_events.extend(events)
                params = {"events": [e.to_jsonable() for e in events], "ack": "applied"}
                schedule.append((t, "stream_apply", params))
            else:
                x, y = (rng.random(2) * (STREAM["side"] - READ_EDGE)).tolist()
                params = {"region": [x, y, x + READ_EDGE, y + READ_EDGE]}
                schedule.append((t, "stream_read", params))

        loop = asyncio.get_running_loop()
        records: list[tuple] = [None] * len(schedule)

        async def fire(i: int, due: float, kind: str, params: dict) -> None:
            sent = loop.time()
            try:
                env = await client.request_raw(kind, params)
            except (ConnectionError, OSError) as exc:
                env = {"ok": False, "error": {"code": "connection", "message": repr(exc)}}
            records[i] = (kind, due, sent, loop.time(), env)

        # Half the kills come before the timed region and half after it, so
        # recovery_s reads the host's speed at two moments a run apart
        # instead of one; the respawned worker is warmed before timing.
        recover = [await self._kill_worker_and_recover() for _ in range(KILLS // 2)]
        await self._warm()

        # The generator must not stall: a full collection over the schedule
        # and the imported program takes tens of milliseconds, so the heap
        # built so far is frozen and collection is off until the last reply.
        gc.collect()
        gc.freeze()
        gc.disable()
        tasks = []
        start = loop.time() + 0.05
        for i, (offset, kind, params) in enumerate(schedule):
            due = start + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(fire(i, due, kind, params)))
        await asyncio.gather(*tasks)
        gc.enable()
        gc.unfreeze()
        wall = max(r[3] for r in records) - start
        rss = self._service_rss()

        # output checks, after the timed region
        failed = 0
        lat_ms: list[float] = []
        by_kind: dict[str, list[float]] = {}
        server_ms: list[float] = []
        overhead_ms: list[float] = []
        lag_ms: list[float] = []
        kernel_nodes = 0
        for (kind, due, sent, done, env), (_, _, params) in zip(records, schedule):
            latency = (done - due) * 1e3
            lat_ms.append(latency)
            by_kind.setdefault(kind, []).append(latency)
            lag_ms.append((sent - due) * 1e3)
            if not env.get("ok"):
                failed += 1
                continue
            server_ms.append(env["ms"])
            overhead_ms.append((done - sent) * 1e3 - env["ms"])
            result = env["result"]
            if kind == "interference":
                kernel_nodes += len(params["positions"])
                if result["value"] != _expected(params["positions"]):
                    failed += 1
            elif kind == "stream_apply" and result["rejected"]:
                failed += 1

        side = STREAM["side"]
        env = await client.request_raw("stream_read", {"region": [-1, -1, side + 1, side + 1]})
        replay = StreamEngine(StreamConfig(capacity=STREAM["capacity"], r_max=STREAM["r_max"]))
        replay.apply_many(applied_events)
        expected_nodes = [list(p) for p in replay.region_read(-1, -1, side + 1, side + 1)]
        stream_ok = env.get("ok") and env["result"]["nodes"] == expected_nodes
        if not stream_ok:
            failed += 1

        recover += [
            await self._kill_worker_and_recover() for _ in range(KILLS - KILLS // 2)
        ]
        await client.close()
        self.client = None
        self._stop_server()
        stats = json.loads(self.stats_path.read_text())

        lat = tail(lat_ms)
        metrics = {
            "throughput_per_s": len(records) / wall,
            "latency_p50_ms": median(lat_ms),
            "latency_tail_ms": lat["value"],
            "peak_rss_mb": rss,
            # the mean: the median of two groups of samples taken at two
            # moments jumps between them when the host's speed differs
            "recovery_s": statistics.fmean(recover),
        }
        lag = tail(lag_ms)
        details = {
            "requests": len(records),
            "by_kind": {k: len(v) for k, v in by_kind.items()},
            "latency_tail": lat,
            "gen_lag_tail_ms": lag,
            "gen_lag_p99_ms": float(np.percentile(lag_ms, 99)),
            "stream_read_matches_replay": bool(stream_ok),
            "recovery_samples_s": recover,
            "server_stats": stats,
        }
        if self.trace:
            roots = obs.snapshot().spans
            metrics.update({
                "trace.unit_p50_ms": median(lat_ms),
                "interference.kernel_busy_s": busy_s(roots, "interference.kernel"),
                "interference.nodes": kernel_nodes,
                "serve.server_ms_p50": median(server_ms),
                "serve.client_overhead_ms_p50": median(overhead_ms),
                "serve.interference_p50_ms": median(by_kind.get("interference", [])),
                "serve.stream_apply_p50_ms": median(by_kind.get("stream_apply", [])),
                "serve.stream_read_p50_ms": median(by_kind.get("stream_read", [])),
                "serve.requests_per_batch": stats["batched_requests"] / max(stats["batches"], 1),
                "serve.shed": stats["rejected_overloaded"],
                "serve.gen_lag_p99_ms": float(np.percentile(lag_ms, 99)),
            })
        return {
            "attempted": len(records) + 1 + KILLS,
            "failed": failed,
            "metrics": metrics,
            "details": details,
        }

    def _service_rss(self) -> float:
        """Peak RSS of the server process plus its pool worker(s)."""
        pids = [self.server.pid] + [
            pid for pid in child_pids(self.server.pid) if _alive(pid)
        ]
        return sum(peak_rss_mb(pid) for pid in pids)

    async def _kill_worker_and_recover(self) -> float:
        probe = _positions(np.random.default_rng(7))
        expected = _expected(probe)
        params = {"positions": probe, "unit": 1.0, "measure": "node"}
        workers = [pid for pid in child_pids(self.server.pid) if _alive(pid)]
        if not workers:
            raise RuntimeError("server has no pool worker to kill")
        t0 = time.perf_counter()
        for pid in workers:
            os.kill(pid, signal.SIGKILL)
        while time.perf_counter() - t0 < 60.0:
            env = await self.client.request_raw("interference", params)
            if env.get("ok") and env["result"]["value"] == expected:
                return time.perf_counter() - t0
            await asyncio.sleep(0.002)
        raise RuntimeError("server did not recover within 60 s")
