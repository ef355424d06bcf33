"""Differential tests for the stream engine's vectorized bulk-apply.

:meth:`StreamEngine.apply_many` takes a fused array path for large,
dense batches. The contract is strict: *digest-identical* state versus
the per-event scalar loop — same counts, same snapshot bytes, same
``StreamStateError`` rejections with the same applied prefix.
"""

import numpy as np
import pytest

from repro import obs
from repro.interference.coverage import RTOL, covered_counts
from repro.stream import StreamConfig, StreamEngine, StreamEvent
from repro.stream.engine import _BULK_MIN_EVENTS, StreamStateError
from repro.stream.events import random_stream_events

#: Dense-regime parameters: enough nodes per grid cell that apply_many
#: actually dispatches to the bulk path (see the density gate).
DENSE = dict(capacity=2000, side=20.0, r_max=1.0)


def _config(**over):
    params = dict(DENSE)
    params.update(over)
    side = params.pop("side")
    del side  # side parameterizes the event stream, not the engine
    return StreamConfig(capacity=params["capacity"], r_max=params["r_max"])


def _events(n, seed, family="uniform", **over):
    params = dict(DENSE)
    params.update(over)
    return random_stream_events(
        n,
        capacity=params["capacity"],
        side=params["side"],
        r_max=params["r_max"],
        seed=seed,
        family=family,
    )


def _scalar_reference(config, events):
    engine = StreamEngine(config)
    for event in events:
        engine.apply(event)
    return engine


def _apply_chunks(engine, events, chunk=_BULK_MIN_EVENTS):
    """``apply_many`` over ``chunk``-sized slices; returns the value the
    last call returned and the obs counters recorded meanwhile."""
    seq = None
    with obs.capture() as registry:
        for lo in range(0, len(events), chunk):
            seq = engine.apply_many(events[lo : lo + chunk])
    return seq, dict(registry.counters)


def _tiers(counters):
    """``(bulk batches, scalar fallbacks)`` from recorded obs counters."""
    return (
        counters.get("stream.bulk.batches", 0),
        counters.get("stream.bulk.fallbacks", 0),
    )


# The bulk tier's density gate never admits a batch into an empty engine,
# so these tests apply a prefix one event at a time before ``apply_many``.


class TestBulkEqualsScalar:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("family", ["uniform", "clustered", "mobile"])
    def test_digest_identical(self, seed, family):
        config = _config()
        events = _events(4 * _BULK_MIN_EVENTS, seed, family=family)
        want = _scalar_reference(config, events)

        warm = 2 * _BULK_MIN_EVENTS
        bulk = _scalar_reference(config, events[:warm])
        seq, counters = _apply_chunks(bulk, events[warm:])
        assert _tiers(counters) == (2, 0)
        assert seq == len(events) == bulk.seq
        assert bulk.state_digest() == want.state_digest()
        assert bulk.state_json() == want.state_json()
        np.testing.assert_array_equal(
            bulk.node_interference(), want.node_interference()
        )

    def test_chunked_dispatch_digest_identical(self):
        config = _config()
        events = _events(6 * _BULK_MIN_EVENTS, 11)
        want = _scalar_reference(config, events)

        bulk = StreamEngine(config)
        seq, counters = _apply_chunks(bulk, events)
        batches, fallbacks = _tiers(counters)
        # the first chunks are too sparse for the density gate
        assert batches >= 3 and fallbacks == 0
        assert seq == len(events) == bulk.seq
        assert bulk.state_digest() == want.state_digest()

    def test_bulk_after_scalar_warmup(self):
        """Scalar ops must invalidate the float64 mirror the bulk path
        caches — interleave them and require identical digests."""
        config = _config()
        events = _events(5 * _BULK_MIN_EVENTS, 23)
        want = _scalar_reference(config, events)

        cut = 2 * _BULK_MIN_EVENTS
        mixed = _scalar_reference(config, events[:cut])  # scalar prefix
        seq, counters = _apply_chunks(  # bulk middle
            mixed, events[cut : 4 * _BULK_MIN_EVENTS], chunk=cut
        )
        assert _tiers(counters) == (1, 0)
        assert seq == 4 * _BULK_MIN_EVENTS == mixed.seq
        for event in events[4 * _BULK_MIN_EVENTS :]:  # scalar suffix
            mixed.apply(event)
        assert mixed.state_digest() == want.state_digest()

    def test_recompute_counts_agrees(self):
        config = _config()
        events = _events(3 * _BULK_MIN_EVENTS, 5)
        engine = _scalar_reference(config, events[: 2 * _BULK_MIN_EVENTS])
        seq, counters = _apply_chunks(engine, events[2 * _BULK_MIN_EVENTS :])
        assert _tiers(counters) == (1, 0)
        assert seq == len(events) == engine.seq
        np.testing.assert_array_equal(
            engine.node_interference(), engine.recompute_counts()
        )


class TestBulkRejections:
    def test_identical_error_and_prefix(self):
        config = _config()
        events = _events(3 * _BULK_MIN_EVENTS, 3)
        # corrupt one event inside the bulk batch: leave of a node that
        # was never joined
        warm = 2 * _BULK_MIN_EVENTS
        bad = warm + 37
        events[bad] = StreamEvent("leave", config.capacity - 1)

        want = StreamEngine(config)
        with pytest.raises(StreamStateError) as scalar_err:
            for event in events:
                want.apply(event)

        bulk = _scalar_reference(config, events[:warm])
        with obs.capture() as registry:
            with pytest.raises(StreamStateError) as bulk_err:
                bulk.apply_many(events[warm:])
        # the bulk tier refused the batch; the scalar loop raised
        assert _tiers(registry.counters) == (0, 1)
        assert str(bulk_err.value) == str(scalar_err.value)
        # the applied prefix stands, identically
        assert bulk.seq == want.seq == bad
        assert bulk.state_digest() == want.state_digest()

    def test_out_of_range_node_rejected(self):
        config = _config()
        events = _events(3 * _BULK_MIN_EVENTS, 4)
        warm = 2 * _BULK_MIN_EVENTS
        engine = _scalar_reference(config, events[:warm])
        batch = events[warm:] + [
            StreamEvent("join", config.capacity, 1.0, 1.0, 0.5)
        ]
        with obs.capture() as registry:
            with pytest.raises(StreamStateError):
                engine.apply_many(batch)
        assert _tiers(registry.counters) == (0, 1)
        assert engine.seq == len(events)

    def test_nonfinite_coordinates_rejected_at_construction(self):
        # non-finite coordinates never reach either apply path: the event
        # type itself rejects them, so the bulk kernel's finite-state
        # guard is pure defence in depth
        with pytest.raises(ValueError, match="finite"):
            StreamEvent("join", 0, float("nan"), 1.0, 0.5)
        with pytest.raises(ValueError, match="finite"):
            StreamEvent("move", 0, 1.0, float("inf"))

    def test_unindexable_spread_falls_back(self):
        """Coordinates too far apart for int64 grid cell ids: the bulk
        kernel hands the batch back and the scalar loop applies it."""
        config = StreamConfig(capacity=8, r_max=1.0)
        events = [
            StreamEvent("join", 0, 0.0, 0.0, 1.0),
            StreamEvent("join", 1, 1e300, 0.0, 1.0),
            StreamEvent("join", 2, 0.5, 0.0, 1.0),
        ]
        engine = StreamEngine(config)
        assert engine._apply_many_bulk(events) is None
        assert engine.seq == 0
        assert engine.apply_many(events) == len(events) == engine.seq
        want = _scalar_reference(config, events)
        assert engine.state_digest() == want.state_digest()


class TestBulkEdgeCases:
    """Boundary cases through the fused final-set pass, driven into the
    bulk kernel directly (small batches never pass the density gate)."""

    def _force_bulk(self, config, events, prefix=()):
        """Apply ``prefix`` one by one, then ``events`` as one bulk batch;
        the obs counters prove the bulk kernel committed it."""
        engine = _scalar_reference(config, prefix)
        with obs.capture() as registry:
            seq = engine._apply_many_bulk(events)
        assert seq is not None, "bulk path refused a valid batch"
        assert registry.counters.get("stream.bulk.batches", 0) == 1
        want = _scalar_reference(config, [*prefix, *events])
        assert engine.state_digest() == want.state_digest()
        return engine

    def _assert_kernel_counts(self, engine):
        np.testing.assert_array_equal(
            engine.node_interference(), engine.recompute_counts()
        )

    def test_join_leave_join_same_node(self):
        config = StreamConfig(capacity=16, r_max=2.0)
        events = [
            StreamEvent("join", 1, 0.0, 0.0, 1.0),
            StreamEvent("join", 2, 0.5, 0.0, 1.0),
            StreamEvent("leave", 1),
            StreamEvent("join", 1, 3.0, 3.0, 0.5),
            StreamEvent("move", 2, 3.2, 3.0, None),
            StreamEvent("leave", 2),
            StreamEvent("join", 3, 3.1, 3.0, 0.25),
        ]
        self._force_bulk(config, events)

    def test_coincident_zero_radius_joins(self):
        config = StreamConfig(capacity=8, r_max=1.0)
        events = [StreamEvent("join", i, 2.0, 2.0, 0.0) for i in range(3)]
        events.append(StreamEvent("join", 5, 4.0, 4.0, 0.0))
        got = self._force_bulk(config, events)
        assert [got.interference_of(i) for i in (0, 1, 2, 5)] == [2, 2, 2, 0]

    def test_move_chain_keeps_radius(self):
        config = StreamConfig(capacity=8, r_max=2.0)
        events = [
            StreamEvent("join", 0, 0.0, 0.0, 1.5),
            StreamEvent("join", 1, 1.0, 0.0, 0.5),
            StreamEvent("move", 0, 0.5, 0.5, None),
            StreamEvent("move", 0, 1.0, 1.0, None),
            StreamEvent("move", 1, 1.0, 0.9, 0.75),
        ]
        self._force_bulk(config, events)

    def test_moves_within_and_across_cells(self):
        """A move that stays in its grid cell and one that crosses into
        another, over a populated neighbourhood: both retract the old disk
        in the initial-set pass and re-add it in the final-set pass."""
        config = StreamConfig(capacity=64, r_max=1.0)
        rng = np.random.default_rng(7)
        xy = np.round(rng.uniform(4.0, 8.0, size=(40, 2)), 6).tolist()
        rr = np.round(rng.uniform(0.2, 1.0, size=40), 6).tolist()
        prefix = [
            StreamEvent("join", i, x, y, r)
            for i, ((x, y), r) in enumerate(zip(xy, rr))
        ]
        (x0, y0), (x1, y1) = xy[0], xy[1]
        inv = StreamEngine(config)._inv
        near = (x0 + 1e-3, y0 - 1e-3)
        far = (x1 + 3.7, y1 - 2.9)
        assert int(near[0] * inv) == int(x0 * inv)
        assert int(near[1] * inv) == int(y0 * inv)
        assert int(far[0] * inv) != int(x1 * inv)
        events = [
            StreamEvent("move", 0, *near, None),
            StreamEvent("move", 1, *far, 0.9),
            StreamEvent("move", 2, x1, y1, None),  # onto 1's old spot
        ]
        self._assert_kernel_counts(self._force_bulk(config, events, prefix))

    def test_zero_and_tiny_final_radii(self):
        """Final radii of 0 and below 2**-500, where the squares underflow
        and the predicate takes its rescaled branch (the SQ_GUARD key)."""
        tiny = 2.0**-560  # its square, and 2 * tiny's, underflow to 0
        config = StreamConfig(capacity=16, r_max=1.0)
        prefix = [
            StreamEvent("join", 0, 1.0, 1.0, 0.5),
            StreamEvent("join", 1, 1.2, 1.0, 0.5),
            StreamEvent("join", 2, 0.0, 0.0, 0.5),
            # a tiny initial disk the batch retracts, beside a node
            # just out of its reach
            StreamEvent("join", 6, 0.0, 5.0, tiny),
            StreamEvent("join", 7, 2 * tiny, 5.0, 0.0),
        ]
        events = [
            # node 3 a tiny gap from node 2; node 2 shrinks to reach it
            StreamEvent("join", 3, tiny / 2, 0.0, tiny),
            StreamEvent("move", 2, 0.0, 0.0, tiny),
            # node 4 just beyond both tiny radii, and radius 0 itself
            StreamEvent("join", 4, -2 * tiny, 0.0, 0.0),
            # zero radii: cover a coincident node only
            StreamEvent("move", 0, 1.2, 1.0, 0.0),
            StreamEvent("move", 1, 1.2, 1.0, 0.0),
            StreamEvent("join", 5, 1.2, 1.0000000001, 0.0),
            StreamEvent("move", 6, 0.0, 6.0, None),
        ]
        got = self._force_bulk(config, events, prefix)
        assert [got.interference_of(i) for i in range(8)] == [1, 1, 1, 1, 0, 0, 0, 0]
        self._assert_kernel_counts(got)

    def test_radius_equal_to_neighbour_distance(self):
        """Every final radius is exactly the distance to the node's nearest
        neighbour (the closed-disk boundary Definition 3.1 puts on every
        defining neighbour)."""
        n = 12
        config = StreamConfig(capacity=32, r_max=2.0)
        rng = np.random.default_rng(3)
        xy = np.round(rng.uniform(0.0, 2.0, size=(n, 2)), 6)
        prefix = [
            StreamEvent("join", i, x, y, 0.3)
            for i, (x, y) in enumerate(xy.tolist())
        ]
        # untouched neighbours just inside and just outside the tolerance
        # band of a disk the batch adds: at r * (1 + RTOL / 2) covered, at
        # r * (1 + 2 * RTOL) not
        prefix += [
            StreamEvent("join", 21, 10.0 + 0.5 * (1 + RTOL / 2), 10.0, 0.0),
            StreamEvent("join", 22, 10.0, 10.0 - 0.5 * (1 + 2 * RTOL), 0.0),
        ]
        d = np.hypot(xy[:, None, 0] - xy[None, :, 0], xy[:, None, 1] - xy[None, :, 1])
        np.fill_diagonal(d, np.inf)
        events = [
            StreamEvent("move", i, x, y, r)
            for i, ((x, y), r) in enumerate(zip(xy.tolist(), d.min(axis=1).tolist()))
        ]
        events.append(StreamEvent("join", 20, 10.0, 10.0, 0.5))
        got = self._force_bulk(config, events, prefix)
        assert [got.interference_of(i) for i in (20, 21, 22)] == [0, 1, 0]
        # each disk covers at least the neighbour on its boundary
        assert sum(got.interference_of(i) for i in range(n)) >= n
        self._assert_kernel_counts(got)

    def test_moves_onto_coincident_positions(self):
        config = StreamConfig(capacity=16, r_max=1.0)
        prefix = [
            StreamEvent("join", i, 1.0 + 0.3 * i, 2.0, 0.4) for i in range(6)
        ]
        events = [
            StreamEvent("move", 1, 1.0, 2.0, None),
            StreamEvent("move", 2, 1.0, 2.0, 0.0),
            StreamEvent("join", 7, 1.0, 2.0, 0.25),
            StreamEvent("move", 5, 1.9, 2.0, 0.0),  # onto node 3
        ]
        got = self._force_bulk(config, events, prefix)
        self._assert_kernel_counts(got)

    def test_small_sparse_batch_uses_scalar_path(self):
        """The density gate must keep tiny batches off the bulk path."""
        config = _config()
        engine = StreamEngine(config)
        seq, counters = _apply_chunks(engine, _events(64, 9))
        assert _tiers(counters) == (0, 0)
        assert seq == 64 == engine.seq
