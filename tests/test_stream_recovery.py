"""Durable engine recovery: snapshot + tail replay, bit-identical."""

import json
import os

import numpy as np
import pytest

from repro.stream import (
    EVENT_FAMILIES,
    DurableStreamEngine,
    StreamConfig,
    StreamEngine,
    StreamEvent,
    WalCorruption,
    latest_snapshot,
    list_segments,
    list_snapshots,
    random_stream_events,
    scan_store,
    verify_stream_dir,
    write_snapshot,
)
from repro.stream.snapshot import load_snapshot


def config(**overrides) -> StreamConfig:
    base = dict(
        capacity=128, r_max=1.0, snapshot_every=60, fsync_every=8, fsync=False
    )
    base.update(overrides)
    return StreamConfig(**base)


def workload(n=300, *, seed=0, family="uniform", capacity=128):
    return random_stream_events(
        n, capacity=capacity, side=6.0, r_max=1.0, seed=seed, family=family
    )


def newest_segment(directory):
    """The active log segment's path (the default segment size keeps these
    small workloads in a single segment)."""
    return list_segments(directory)[-1].path


class TestCleanRecovery:
    @pytest.mark.parametrize("family", EVENT_FAMILIES)
    def test_replay_equals_recompute_randomized(self, tmp_path, family):
        # the acceptance property: recovery replays to a state that is
        # bit-identical to a from-scratch recompute, per topology family
        for seed in range(3):
            d = tmp_path / f"{family}-{seed}"
            events = workload(seed=seed, family=family)
            durable = DurableStreamEngine.create(d, config())
            durable.apply_batch(events)
            digest = durable.engine.state_digest()
            durable.close()

            recovered = DurableStreamEngine.open(d)
            assert recovered.engine.state_digest() == digest
            reference = StreamEngine(config())
            reference.apply_batch(events)
            assert recovered.engine.state_digest() == reference.state_digest()
            np.testing.assert_array_equal(
                recovered.engine.node_interference(),
                recovered.engine.recompute_counts(),
            )
            recovered.close()

    def test_recovery_uses_snapshot_and_replays_only_the_tail(self, tmp_path):
        durable = DurableStreamEngine.create(tmp_path / "s", config())
        durable.apply_batch(workload(200))
        durable.close()
        assert list_snapshots(tmp_path / "s")  # snapshot_every=60 fired

        recovered = DurableStreamEngine.open(tmp_path / "s")
        info = recovered.recovery
        assert info.snapshot_seq == 180  # last multiple of 60
        assert info.replayed_from == 181 and info.replayed_to == 200
        assert info.wal_records == 200
        assert not info.torn_tail and not info.snapshot_newer_than_log
        recovered.close()

    def test_resume_after_recovery_matches_uninterrupted_run(self, tmp_path):
        events = workload(400, family="mobile")
        durable = DurableStreamEngine.create(tmp_path / "s", config())
        durable.apply_batch(events[:250])
        durable.close()

        recovered = DurableStreamEngine.open(tmp_path / "s")
        recovered.apply_batch(events[250:])
        reference = StreamEngine(config())
        reference.apply_batch(events)
        assert recovered.engine.state_digest() == reference.state_digest()
        recovered.close()

    def test_verify_stream_dir_passes_and_reports_range(self, tmp_path):
        durable = DurableStreamEngine.create(tmp_path / "s", config())
        durable.apply_batch(workload(150, family="clustered"))
        durable.close()
        report = verify_stream_dir(tmp_path / "s")
        assert report.ok and report.replay_identical and report.counts_exact
        assert report.last_seq == 150
        assert report.recovered_digest == report.replay_digest


class TestCrashRecovery:
    def test_abort_recovers_the_durable_prefix(self, tmp_path):
        events = workload(200)
        durable = DurableStreamEngine.create(
            tmp_path / "s", config(fsync_every=16)
        )
        durable.apply_batch(events)
        durable.abort()  # drops up to fsync_every-1 buffered records

        recovered = DurableStreamEngine.open(tmp_path / "s")
        survived = recovered.engine.seq
        assert 200 - 16 <= survived <= 200
        reference = StreamEngine(config())
        reference.apply_batch(events[:survived])
        assert recovered.engine.state_digest() == reference.state_digest()
        recovered.close()

    def test_torn_tail_is_truncated_and_appends_resume(self, tmp_path):
        events = workload(120)
        # snapshots off: a snapshot newer than the torn record would
        # (correctly) preserve it; here we want pure tail-replay
        durable = DurableStreamEngine.create(
            tmp_path / "s", config(snapshot_every=0)
        )
        durable.apply_batch(events)
        durable.close()
        wal = newest_segment(tmp_path / "s")
        os.truncate(wal, wal.stat().st_size - 11)  # mid-record

        recovered = DurableStreamEngine.open(tmp_path / "s")
        assert recovered.recovery.torn_tail
        assert recovered.engine.seq == 119
        # the torn frame was physically dropped, so the appender resumes
        # on a clean boundary
        recovered.apply_batch(events[119:])
        recovered.close()
        reference = StreamEngine(config())
        reference.apply_batch(events)
        final = DurableStreamEngine.open(tmp_path / "s")
        assert final.engine.state_digest() == reference.state_digest()
        final.close()

    def test_interior_corruption_refuses_to_open(self, tmp_path):
        durable = DurableStreamEngine.create(tmp_path / "s", config())
        durable.apply_batch(workload(80))
        durable.close()
        wal = newest_segment(tmp_path / "s")
        lines = wal.read_bytes().splitlines(keepends=True)
        bad = bytearray(lines[40])
        bad[-3] ^= 0x02
        wal.write_bytes(b"".join(lines[:40]) + bytes(bad) + b"".join(lines[41:]))
        with pytest.raises(WalCorruption) as info:
            DurableStreamEngine.open(tmp_path / "s")
        assert info.value.seq == 41
        # verification reports the same failure rather than a divergence
        with pytest.raises(WalCorruption):
            verify_stream_dir(tmp_path / "s")

    def test_snapshot_newer_than_log_is_tolerated_and_flagged(self, tmp_path):
        durable = DurableStreamEngine.create(tmp_path / "s", config())
        durable.apply_batch(workload(150))
        durable.close()
        snap_seq, snap_state = latest_snapshot(tmp_path / "s")
        assert snap_seq == 120
        # externally truncate the WAL to before the snapshot (the engine
        # itself can never produce this: the WAL is fsynced pre-snapshot)
        wal = newest_segment(tmp_path / "s")
        lines = wal.read_bytes().splitlines(keepends=True)
        wal.write_bytes(b"".join(lines[:100]))

        recovered = DurableStreamEngine.open(tmp_path / "s")
        assert recovered.recovery.snapshot_newer_than_log
        assert recovered.engine.seq == snap_seq
        snap_engine = StreamEngine.from_state(config(), json.loads(snap_state))
        assert recovered.engine.state_digest() == snap_engine.state_digest()
        recovered.close()

    def test_crash_mid_snapshot_falls_back_to_previous(self, tmp_path):
        durable = DurableStreamEngine.create(tmp_path / "s", config())
        durable.apply_batch(workload(150))
        durable.close()
        snaps = list_snapshots(tmp_path / "s")
        assert len(snaps) >= 2  # keep_snapshots >= 2 by config contract
        newest = snaps[-1][1]
        newest.write_text(newest.read_text()[: 40])  # half-written snapshot

        recovered = DurableStreamEngine.open(tmp_path / "s")
        # the older snapshot plus WAL tail still recovers the full state
        assert recovered.engine.seq == 150
        reference = StreamEngine(config())
        reference.apply_batch(workload(150))
        assert recovered.engine.state_digest() == reference.state_digest()
        recovered.close()

    def test_create_refuses_an_existing_stream_dir(self, tmp_path):
        DurableStreamEngine.create(tmp_path / "s", config()).close()
        with pytest.raises(FileExistsError):
            DurableStreamEngine.create(tmp_path / "s", config())
        with pytest.raises(FileNotFoundError):
            DurableStreamEngine.open(tmp_path / "missing")


class TestMetaFormat:
    def set_meta(self, d, fmt):
        meta = json.loads((d / "meta.json").read_text())
        assert meta["format"] == 3  # what create writes
        meta["format"] = fmt
        (d / "meta.json").write_text(json.dumps(meta))

    @pytest.mark.parametrize("fmt", [0, 4, 99, "3", 3.0, None, True])
    def test_unknown_format_is_refused_with_file_and_value(self, tmp_path, fmt):
        d = tmp_path / "s"
        DurableStreamEngine.create(d, config()).close()
        self.set_meta(d, fmt)
        with pytest.raises(ValueError, match="meta.json") as err:
            DurableStreamEngine.open(d)
        assert repr(fmt) in str(err.value)

    def test_format_2_snapshot_counts_are_recounted(self, tmp_path):
        """Counts made under an older predicate are derived data: opening
        a format-2 directory recounts every snapshot, keeps positions,
        radii, seq and the log, and reaches the digest of a fresh replay
        of its log."""
        d = tmp_path / "s"
        events = workload(400)
        durable = DurableStreamEngine.create(d, config(compact="manual"))
        durable.apply_batch(events)
        durable.close()
        snaps = list_snapshots(d)
        assert len(snaps) >= 2
        for _, path in snaps:
            state = json.loads(load_snapshot(path))
            for node in state["nodes"]:
                node[4] += 1  # stale: not what the shared predicate counts
            write_snapshot(d, state["seq"], json.dumps(state), fsync=False)
        log_bytes = {s.path.name: s.path.read_bytes() for s in list_segments(d)}
        self.set_meta(d, 2)

        recovered = DurableStreamEngine.open(d)
        fresh = StreamEngine(config())
        for rec in scan_store(d, from_seq=1).records:
            fresh.apply(StreamEvent.from_wal_record(rec)[1], collect=False)
        assert recovered.engine.state_digest() == fresh.state_digest()
        recovered.close()
        assert json.loads((d / "meta.json").read_text())["format"] == 3
        assert {s.path.name: s.path.read_bytes() for s in list_segments(d)} == log_bytes
        for _, path in list_snapshots(d):
            reopened = StreamEngine.from_state(
                config(), json.loads(load_snapshot(path))
            )
            np.testing.assert_array_equal(
                reopened.node_interference(), reopened.recompute_counts()
            )
        assert verify_stream_dir(d).ok

    def test_format_1_and_2_open_without_snapshots(self, tmp_path):
        for fmt in (1, 2):
            d = tmp_path / f"s{fmt}"
            events = workload(50)
            durable = DurableStreamEngine.create(d, config(snapshot_every=0))
            durable.apply_batch(events)
            digest = durable.engine.state_digest()
            durable.close()
            self.set_meta(d, fmt)
            with DurableStreamEngine.open(d) as recovered:
                assert recovered.engine.state_digest() == digest
