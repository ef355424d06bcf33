"""Event-sourced incremental interference engine over a node universe.

The paper's robustness theorem (one join changes any receiver's
interference by at most +1, Fig. 1) is the contract that makes an
event-sourced engine viable: every event induces a *small, bounded,
incrementally applicable* delta. :class:`StreamEngine` maintains the
receiver-centric coverage counts ``I(v)`` under ``join``/``leave``/
``move`` events in O(neighbourhood) per event:

- positions, radii and counts live in flat per-node arrays over a
  pre-allocated universe of ``config.capacity`` ids;
- a uniform spatial hash with cell size ``3 * config.r_max`` indexes
  the active nodes. Because every radius is bounded by ``r_max``, both
  directions of an event's delta (who the node now covers, who covers
  the node) are confined to the cells overlapping a ``±r_max`` window
  around it — at this cell size a 1x1 or 2x2 block, which cuts the
  per-event probe count (cell lookups) to roughly a third of the
  classic cell-size-``r_max`` 3x3 scan while probing the same area.
  This is the O(1)-neighbourhood argument of Korman's bounded-radius
  formulation. The bulk path's array index uses cells of the window's
  own size instead (a 3x3 block), which enumerates fewer candidates;
- coverage is the one predicate of :mod:`repro.interference.coverage`,
  in its squared form: ``dx*dx + dy*dy <= effective_radius(r)**2``, with
  an exact power-of-two rescale where the squares would underflow. The
  scalar loop and the bulk path perform the same IEEE operations, so
  per-event and bulk apply reach bit-identical states — recovery must
  replay to the same digest. Scan windows reach one more tolerance step,
  ``effective_radius(effective_radius(r))``, which absorbs the rounding
  of the coordinate differences. :meth:`StreamEngine.recompute_counts`
  recounts with the static kernels' :func:`covered_counts`, so it checks
  the incremental arithmetic against the kernels' predicate rather than
  against itself.

The engine is deliberately free of any I/O; durability (WAL, snapshots,
recovery) wraps it in :mod:`repro.stream.durable`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.interference.coverage import (
    SQ_GUARD,
    covered_counts,
    covers_squared,
    covers_squared_array,
    effective_radius,
    squared_key,
)
from repro.stream.config import StreamConfig
from repro.stream.events import StreamEvent

__all__ = ["AppliedEvent", "StreamEngine", "StreamStateError"]


class StreamStateError(ValueError):
    """An event that is invalid against the current engine state
    (join of an active node, leave/move of an inactive one, id out of
    range, radius above ``r_max``)."""


@dataclass(frozen=True, slots=True)
class AppliedEvent:
    """Result of applying one event.

    ``changed`` lists ``(node, new_count)`` for every *active* node whose
    interference changed (for a join this includes the joining node's own
    fresh count; a departed node is not listed — it no longer has an
    interference value). ``None`` when the engine was asked not to
    collect deltas (the hot-ingest path).
    """

    seq: int
    event: StreamEvent
    changed: tuple[tuple[int, int], ...] | None


_GRID_STRIDE = 1 << 32

#: Below this many events per :meth:`StreamEngine.apply_many` call the
#: inlined scalar loop wins; at or above it (and when the batch is large
#: relative to the active set) the vectorized bulk path amortizes its
#: fixed numpy costs (state mirror, two grid builds) over the batch.
_BULK_MIN_EVENTS = 512
#: Cells per axis above which a bulk batch falls back to the scalar loop.
_BULK_MAX_CELLS = 2.0**31


def _cell_keys(x: float, y: float, reach: float, inv: float) -> tuple:
    """Hash keys of the grid cells overlapping ``[x - reach, x + reach] x
    [y - reach, y + reach]``.

    A window narrower than a cell (every engine window: ``2 * reach`` is
    just over ``2 * r_max``, the cell ``3 * r_max``) spans one or two
    cells per axis; literal tuples there are ~6x cheaper than the
    generator expression (no generator frame per event).
    """
    S = _GRID_STRIDE
    cx0 = int((x - reach) * inv)
    cx1 = int((x + reach) * inv)
    cy0 = int((y - reach) * inv)
    cy1 = int((y + reach) * inv)
    if cx1 - cx0 > 1 or cy1 - cy0 > 1:
        return tuple(
            cx * S + cy
            for cx in range(cx0, cx1 + 1)
            for cy in range(cy0, cy1 + 1)
        )
    b0 = cx0 * S
    if cx1 == cx0:
        return (b0 + cy0,) if cy1 == cy0 else (b0 + cy0, b0 + cy1)
    b1 = b0 + S
    if cy1 == cy0:
        return (b0 + cy0, b1 + cy0)
    return (b0 + cy0, b0 + cy1, b1 + cy0, b1 + cy1)


def _indexable(coords, cell):
    """Whether a :class:`~repro.geometry.spatial.GridIndex` with cell edge
    ``cell`` can take one axis of coordinates: finite, spanning fewer than
    :data:`_BULK_MAX_CELLS` cells, so flat cell ids fit int64. The scalar
    loop needs neither."""
    # False on NaN or inf: the comparison fails
    return coords.size == 0 or bool(
        coords.max() - coords.min() < _BULK_MAX_CELLS * cell
    )


def _candidate_pairs(index, centers, reach):
    """All ``(query, point)`` candidate pairs whose grid cells overlap each
    query's ``±reach`` window — *no* distance predicate applied (the bulk
    path applies the engine's squared form itself, which is why it cannot
    use :meth:`GridIndex._batch_hits`'s ``hypot`` form)."""
    m = centers.shape[0]
    if m == 0 or len(index) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    lo_x, hi_x, lo_y, hi_y = index._query_windows(centers, reach)
    qids, cells = index._expand_cells(
        np.arange(m, dtype=np.int64), lo_x, hi_x, lo_y, hi_y
    )
    qq, cand = index._cell_candidates(qids, cells)
    obs.count("stream.bulk.pairs", qq.size)
    return qq, cand


class StreamEngine:
    """Incremental receiver-centric interference over a mutable node set."""

    def __init__(self, config: StreamConfig):
        self.config = config
        cap = config.capacity
        self.xs = [0.0] * cap
        self.ys = [0.0] * cap
        self.rs = [0.0] * cap
        #: per-node :func:`~repro.interference.coverage.squared_key` of
        #: the effective radius (meaningful for active nodes only)
        self.ks = [0.0] * cap
        self.active = bytearray(cap)
        self.counts = [0] * cap
        self.n_active = 0
        self.seq = 0
        self._cell = 3.0 * float(config.r_max)
        # keys come from int(coord * _inv): one multiply instead of a
        # float floor-division per axis. int() truncates while // floors,
        # but the key function only has to be monotone and consistent —
        # a truncation-merged pair of cells is just a merged bucket.
        self._inv = 1.0 / self._cell
        # a join's window: both delta directions are bounded by the
        # effective radius of r_max, plus one tolerance step for rounding
        self._reach = effective_radius(effective_radius(float(config.r_max)))
        # cell (cx, cy) -> node list, keyed by cx * _GRID_STRIDE + cy:
        # one int hash instead of a tuple allocation per probe. A |cy| >=
        # _GRID_STRIDE/2 collision merely merges buckets — every
        # membership decision re-checks coordinates, so correctness never
        # depends on key uniqueness.
        self._grid: dict[int, list[int]] = {}
        # cached float64 mirror of (xs, ys, rs) for the bulk-apply path;
        # any scalar mutation invalidates it (set to None)
        self._np: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # -- queries -----------------------------------------------------------

    def interference_of(self, node: int) -> int:
        if not (0 <= node < self.config.capacity) or not self.active[node]:
            raise StreamStateError(f"node {node} is not active")
        return self.counts[node]

    def active_nodes(self) -> list[int]:
        return [i for i in range(self.config.capacity) if self.active[i]]

    def node_interference(self) -> np.ndarray:
        """Counts over the whole universe (inactive entries are 0)."""
        return np.asarray(self.counts, dtype=np.int64)

    def max_interference(self) -> int:
        act = self.active
        return max(
            (c for i, c in enumerate(self.counts) if act[i]), default=0
        )

    def region_read(
        self, xmin: float, ymin: float, xmax: float, ymax: float
    ) -> list[tuple[int, int]]:
        """``(node, count)`` for active nodes inside the closed rectangle,
        in node-id order; touches only the overlapping grid cells."""
        inv = self._inv
        out: list[tuple[int, int]] = []
        grid = self._grid
        xs, ys, counts = self.xs, self.ys, self.counts
        for cx in range(int(xmin * inv), int(xmax * inv) + 1):
            base = cx * _GRID_STRIDE
            for cy in range(int(ymin * inv), int(ymax * inv) + 1):
                for v in grid.get(base + cy, ()):
                    if xmin <= xs[v] <= xmax and ymin <= ys[v] <= ymax:
                        out.append((v, counts[v]))
        out.sort()
        return out

    # -- event application -------------------------------------------------

    def apply(
        self, event: StreamEvent, *, seq: int | None = None, collect: bool = True
    ) -> AppliedEvent:
        """Apply one event; returns its :class:`AppliedEvent`.

        ``seq`` (when given, e.g. during WAL replay) must be exactly
        ``self.seq + 1`` — replay is contiguous by construction, and a
        gap means the log lost records.
        """
        if seq is not None and seq != self.seq + 1:
            raise StreamStateError(
                f"non-contiguous seq {seq} (engine at {self.seq})"
            )
        if not collect:
            return AppliedEvent(self._apply_many_scalar((event,)), event, None)
        kind = event.kind
        if kind == "join":
            changed = self._apply_join(event.node, event.x, event.y, event.r)
        elif kind == "leave":
            changed = self._apply_leave(event.node)
        else:
            changed = self._apply_move(event.node, event.x, event.y, event.r)
        self.seq += 1
        return AppliedEvent(self.seq, event, tuple(changed))

    def apply_fast(self, event: StreamEvent) -> int:
        """Apply one event with no delta collection or result object;
        returns the event's seqno — ``self.apply(event,
        collect=False).seq``."""
        return self._apply_many_scalar((event,))

    def apply_batch(
        self, events, *, collect: bool = False
    ) -> list[AppliedEvent]:
        """Apply events in order (the hot path: deltas off by default)."""
        out = [self.apply(e, collect=collect) for e in events]
        obs.count("stream.events", len(out))
        return out

    def apply_many(self, events) -> int:
        """Bulk-apply; returns the final seqno.

        Semantically ``for e in events: self.apply(e, collect=False)`` —
        bit-identical state (same digests), same
        :class:`StreamStateError` rejections — but substantially faster,
        which is what lets the durable ingest path hold its throughput
        floor (``benchmarks/bench_stream.py``). On a rejection the
        applied prefix stands, ``self.seq`` included.

        Two tiers: batches that are large (>= ``_BULK_MIN_EVENTS``, and
        not small relative to the active set) over a *dense* active set
        (>= 4 active nodes per bucket of the grid hash, counting every
        bucket ever occupied: leaves and moves do not drop emptied ones)
        take a vectorized path: final counts are a pure function of the
        final active set, so the batch collapses to a membership
        simulation plus two fused candidate passes (see
        :meth:`_apply_many_bulk`). Everything else runs the inlined
        scalar loop, which wins where the active set is sparsest
        (measured with ``r_max = 1``: bulk is 11-13x at 12.9 nodes/unit^2
        and ~0.9-1.1x at 0.5-0.6 nodes per bucket — see
        docs/PERFORMANCE.md).
        """
        if not isinstance(events, (list, tuple)):
            events = list(events)
        if (
            len(events) >= _BULK_MIN_EVENTS
            and 4 * len(events) >= self.n_active
            and self.n_active >= 4 * max(len(self._grid), 1)
        ):
            seq = self._apply_many_bulk(events)
            if seq is not None:
                return seq
            obs.count("stream.bulk.fallbacks")
        return self._apply_many_scalar(events)

    def _apply_many_scalar(self, events) -> int:
        """The inlined per-event loop (zero per-event allocation).

        Coverage is ``d2 <= key and (key != SQ_GUARD or
        covers_squared(...))``: the squared form with its prefilter key,
        where the second operand only runs on tiny radii.
        """
        self._np = None
        xs, ys, rs, ks = self.xs, self.ys, self.rs, self.ks
        counts, active, grid = self.counts, self.active, self._grid
        get = grid.get
        inv = self._inv
        cap = self.config.capacity
        r_max = self.config.r_max
        reach = self._reach
        S = _GRID_STRIDE
        G = SQ_GUARD
        eff, key_of, covers, cell_keys = (
            effective_radius, squared_key, covers_squared, _cell_keys
        )
        seq = self.seq
        n_active = self.n_active
        try:
            for event in events:
                kind = event.kind
                node = event.node
                if not 0 <= node < cap:
                    raise StreamStateError(
                        f"node {node} outside universe [0, {cap})"
                    )
                if kind == "join":
                    x, y, r = event.x, event.y, event.r
                    if r < 0 or r > r_max:
                        raise StreamStateError(
                            f"radius {r} outside [0, r_max={r_max}]"
                        )
                    if active[node]:
                        raise StreamStateError(
                            f"join of already-active node {node}"
                        )
                else:  # leave, or move == atomic leave + join
                    if not active[node]:
                        raise StreamStateError(f"{kind} of inactive node {node}")
                    if kind == "move":
                        x, y, r = event.x, event.y, event.r
                        if r is None:
                            r = rs[node]
                        if r < 0 or r > r_max:
                            raise StreamStateError(
                                f"radius {r} outside [0, r_max={r_max}]"
                            )
                    # retract the old disk's coverage; its own window
                    # (usually tighter than r_max) bounds the scan
                    ox, oy = xs[node], ys[node]
                    ore = eff(rs[node])
                    ok = ks[node]
                    grid[int(ox * inv) * S + int(oy * inv)].remove(node)
                    for ck in cell_keys(ox, oy, eff(ore), inv):
                        bucket = get(ck)
                        if bucket:
                            for v in bucket:
                                dx = xs[v] - ox
                                dy = ys[v] - oy
                                if dx * dx + dy * dy <= ok and (
                                    ok != G or covers(dx, dy, ore)
                                ):
                                    counts[v] -= 1
                    active[node] = 0
                    n_active -= 1
                    if kind == "leave":
                        counts[node] = 0
                        rs[node] = 0.0
                        seq += 1
                        continue
                # join (for both "join" and the second half of "move"):
                # node is not in any bucket here, so the scan never sees
                # it. Both delta directions are bounded by r_max, so the
                # window is the same whatever the joining radius.
                re = eff(r)
                k = key_of(re)
                own = 0
                for ck in cell_keys(x, y, reach, inv):
                    bucket = get(ck)
                    if bucket:
                        for v in bucket:
                            dx = xs[v] - x
                            dy = ys[v] - y
                            d2 = dx * dx + dy * dy
                            if d2 <= k and (k != G or covers(dx, dy, re)):
                                counts[v] += 1
                            kv = ks[v]
                            if d2 <= kv and (
                                kv != G or covers(dx, dy, eff(rs[v]))
                            ):
                                own += 1
                xs[node] = x
                ys[node] = y
                rs[node] = r
                ks[node] = k
                counts[node] = own
                active[node] = 1
                n_active += 1
                key = int(x * inv) * S + int(y * inv)
                bucket = get(key)
                if bucket is None:
                    grid[key] = [node]
                else:
                    bucket.append(node)
                seq += 1
        finally:
            self.seq = seq
            self.n_active = n_active
        return seq

    def _apply_many_bulk(self, events) -> int | None:
        """Vectorized whole-batch apply; ``None`` means "use the scalar
        path instead" (invalid batch, or state the fast path can't take).

        Final counts are a pure function of the *final* active set, so a
        valid batch needs no per-event coverage updates at all:

        1. simulate membership over the touched nodes only (pure dict
           ops) to validate every event exactly as the scalar loop would
           — any rejection falls back to the scalar loop, which applies
           the same prefix and raises the identical error;
        2. two candidate passes, each one fused enumeration over a
           :class:`~repro.geometry.spatial.GridIndex` with cell edge
           ``reach`` (a 3x3 block per window), tested with the scalar
           loop's squared-form predicate:

           a. retract the initial disks of touched nodes from the initial
              active set;
           b. enumerate every touched survivor's ``reach`` window over the
              final active set once, and on the same ``dx``/``dy`` arrays
              test both directions: its final disk covering the candidate
              (the delta) and the candidate's final disk covering it (its
              fresh own count). A window at least as wide as a disk only
              adds candidates the exact test rejects;
        3. commit: deltas onto untouched victims, overwrite the touched
           nodes' state (Python floats, so snapshots and digests stay
           byte-identical to the scalar path), splice grid buckets.

        ``obs`` counters: ``stream.bulk.batches`` per committed batch,
        ``stream.bulk.pairs`` per candidate pair enumerated, and (in
        :meth:`apply_many`) ``stream.bulk.fallbacks`` per batch handed
        back to the scalar loop.
        """
        from repro.geometry.spatial import GridIndex

        cap = self.config.capacity
        r_max = self.config.r_max
        xs, ys, rs, ks = self.xs, self.ys, self.rs, self.ks
        counts, active, grid = self.counts, self.active, self._grid

        # -- 1: validate by membership simulation (no mutation) ------------
        st: dict[int, tuple | None] = {}
        for event in events:
            node = event.node
            if not 0 <= node < cap:
                return None
            if node in st:
                cur = st[node]
            elif active[node]:
                cur = (xs[node], ys[node], rs[node])
            else:
                cur = None
            kind = event.kind
            if kind == "join":
                r = event.r
                if r < 0 or r > r_max or cur is not None:
                    return None
                st[node] = (event.x, event.y, r)
            elif kind == "leave":
                if cur is None:
                    return None
                st[node] = None
            else:
                if cur is None:
                    return None
                r = event.r
                if r is None:
                    r = cur[2]
                if r < 0 or r > r_max:
                    return None
                st[node] = (event.x, event.y, r)

        # -- mirror + index inputs -----------------------------------------
        mirror = self._np
        if mirror is None:
            mirror = (
                np.asarray(xs, dtype=np.float64),
                np.asarray(ys, dtype=np.float64),
                np.asarray(rs, dtype=np.float64),
            )
        mx, my, mr = mirror
        ids0 = np.flatnonzero(
            np.frombuffer(bytes(active), dtype=np.uint8)
        )
        t_init = [t for t in st if active[t]]
        t_fin = [t for t in st if st[t] is not None]
        fin_mask = np.zeros(cap, dtype=bool)
        fin_mask[ids0] = True
        for t, fin in st.items():
            fin_mask[t] = fin is not None
        ids_f = np.flatnonzero(fin_mask)

        x0, y0 = mx[ids0], my[ids0]
        fx = np.array([st[t][0] for t in t_fin], dtype=np.float64)
        fy = np.array([st[t][1] for t in t_fin], dtype=np.float64)
        fr = np.array([st[t][2] for t in t_fin], dtype=np.float64)
        xf, yf, r_f = mx[ids_f], my[ids_f], mr[ids_f]
        if t_fin:
            where = np.searchsorted(ids_f, np.asarray(t_fin, dtype=np.int64))
            xf[where] = fx
            yf[where] = fy
            r_f[where] = fr
        reach = self._reach
        if not all(_indexable(c, reach) for c in (x0, y0, xf, yf)):
            return None

        delta = np.zeros(cap, dtype=np.int64)

        # -- 2a: retract initial touched disks from the initial set --------
        if t_init and ids0.size:
            ti = np.asarray(t_init, dtype=np.int64)
            index0 = GridIndex(np.column_stack((x0, y0)), cell_size=reach)
            tx, ty = mx[ti], my[ti]
            re = effective_radius(mr[ti])
            qq, cand = _candidate_pairs(
                index0, np.column_stack((tx, ty)), effective_radius(re)
            )
            if qq.size:
                dx = x0[cand] - tx[qq]
                dy = y0[cand] - ty[qq]
                keep = covers_squared_array(dx, dy, re, qq)
                delta -= np.bincount(ids0[cand[keep]], minlength=cap)

        # -- 2b: final touched disks over the final set, both directions ---
        own = []
        if t_fin:
            index_f = GridIndex(np.column_stack((xf, yf)), cell_size=reach)
            qq, cand = _candidate_pairs(
                index_f, np.column_stack((fx, fy)), np.full(len(t_fin), reach)
            )
            dx = xf[cand] - fx[qq]
            dy = yf[cand] - fy[qq]
            # the touched node's final disk covers the candidate ...
            keep = covers_squared_array(dx, dy, effective_radius(fr), qq)
            delta += np.bincount(ids_f[cand[keep]], minlength=cap)
            # ... and the candidate's final disk covers the touched node
            # (its fresh own count; its own disk covering itself is the -1)
            keep = covers_squared_array(dx, dy, effective_radius(r_f), cand)
            own = (np.bincount(qq[keep], minlength=len(t_fin)) - 1).tolist()

        # -- 3: commit ------------------------------------------------------
        inv = self._inv
        S = _GRID_STRIDE
        n_active = self.n_active
        nz = np.flatnonzero(delta)
        for v, d in zip(nz.tolist(), delta[nz].tolist()):
            counts[v] += d
        get = grid.get
        for t, c in zip(t_fin, own):
            st[t] = (*st[t], c)
        for t, fin in st.items():
            if active[t]:
                grid[int(xs[t] * inv) * S + int(ys[t] * inv)].remove(t)
                n_active -= 1
                active[t] = 0
            if fin is None:
                rs[t] = 0.0
                mr[t] = 0.0
                counts[t] = 0
            else:
                x, y, r, c = fin
                xs[t] = x
                ys[t] = y
                rs[t] = r
                ks[t] = squared_key(effective_radius(r))
                mx[t] = x
                my[t] = y
                mr[t] = r
                counts[t] = c
                active[t] = 1
                n_active += 1
                key = int(x * inv) * S + int(y * inv)
                bucket = get(key)
                if bucket is None:
                    grid[key] = [t]
                else:
                    bucket.append(t)
        self.n_active = n_active
        self.seq += len(events)
        self._np = mirror
        obs.count("stream.bulk.batches")
        return self.seq

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.config.capacity:
            raise StreamStateError(
                f"node {node} outside universe [0, {self.config.capacity})"
            )

    def _check_radius(self, r: float) -> None:
        if r < 0 or r > self.config.r_max:
            raise StreamStateError(
                f"radius {r} outside [0, r_max={self.config.r_max}]"
            )

    # -- the delta-collecting path (``apply(..., collect=True)``) ----------

    def _apply_join(self, node, x, y, r):
        self._check_node(node)
        self._check_radius(r)
        if self.active[node]:
            raise StreamStateError(f"join of already-active node {node}")
        self._np = None
        xs, ys, rs, ks, counts = self.xs, self.ys, self.rs, self.ks, self.counts
        inv = self._inv
        grid = self._grid
        get = grid.get
        re = effective_radius(r)
        k = squared_key(re)
        own = 0
        changed = []
        # both delta directions are bounded by r_max: scan the join window
        for ck in _cell_keys(x, y, self._reach, inv):
            for v in get(ck, ()):
                dx = xs[v] - x
                dy = ys[v] - y
                d2 = dx * dx + dy * dy
                if d2 <= k and (k != SQ_GUARD or covers_squared(dx, dy, re)):
                    counts[v] += 1
                    changed.append((v, counts[v]))
                kv = ks[v]
                if d2 <= kv and (
                    kv != SQ_GUARD or covers_squared(dx, dy, effective_radius(rs[v]))
                ):
                    own += 1
        xs[node] = x
        ys[node] = y
        rs[node] = r
        ks[node] = k
        counts[node] = own
        self.active[node] = 1
        self.n_active += 1
        grid.setdefault(int(x * inv) * _GRID_STRIDE + int(y * inv), []).append(node)
        changed.append((node, own))
        return changed

    def _apply_leave(self, node):
        self._check_node(node)
        if not self.active[node]:
            raise StreamStateError(f"leave of inactive node {node}")
        self._np = None
        xs, ys, counts = self.xs, self.ys, self.counts
        x, y = xs[node], ys[node]
        re = effective_radius(self.rs[node])
        k = self.ks[node]
        inv = self._inv
        grid = self._grid
        get = grid.get
        grid[int(x * inv) * _GRID_STRIDE + int(y * inv)].remove(node)
        changed = []
        # a leave only retracts the node's *own* coverage: the window is
        # its own reach, usually tighter than r_max
        for ck in _cell_keys(x, y, effective_radius(re), inv):
            for v in get(ck, ()):
                dx = xs[v] - x
                dy = ys[v] - y
                if dx * dx + dy * dy <= k and (
                    k != SQ_GUARD or covers_squared(dx, dy, re)
                ):
                    counts[v] -= 1
                    changed.append((v, counts[v]))
        counts[node] = 0
        self.rs[node] = 0.0
        self.active[node] = 0
        self.n_active -= 1
        return changed

    def _apply_move(self, node, x, y, r):
        self._check_node(node)
        if not self.active[node]:
            raise StreamStateError(f"move of inactive node {node}")
        if r is None:
            r = self.rs[node]
        self._check_radius(r)
        counts = self.counts
        # pre-move values of every node either half touches; leave/join
        # changed lists carry post-op values, so reconstruct by +-1
        pre = {node: counts[node]}
        for v, c in self._apply_leave(node):
            pre.setdefault(v, c + 1)
        for v, c in self._apply_join(node, x, y, r):
            if v != node:
                pre.setdefault(v, c - 1)
        return [
            (v, counts[v]) for v in sorted(pre) if v == node or counts[v] != pre[v]
        ]

    # -- from-scratch verification ----------------------------------------

    def recompute_counts(self, *, chunk: int = 512) -> np.ndarray:
        """Independent from-scratch recount over the whole universe.

        :func:`~repro.interference.coverage.covered_counts` over the
        active set: the static kernels' ``hypot`` form of the shared
        predicate, not the engine's own squared-form arithmetic, so
        agreement checks the engine against the kernels. ``chunk`` is
        accepted for compatibility; the kernel picks its own blocking.
        Verification-path only.
        """
        idx = np.flatnonzero(np.frombuffer(bytes(self.active), dtype=np.uint8))
        out = np.zeros(self.config.capacity, dtype=np.int64)
        if idx.size:
            pos = np.column_stack((
                np.asarray(self.xs, dtype=np.float64)[idx],
                np.asarray(self.ys, dtype=np.float64)[idx],
            ))
            out[idx] = covered_counts(pos, np.asarray(self.rs, dtype=np.float64)[idx])
        return out

    def state_digest(self) -> str:
        """SHA-256 over the canonical active-node state (order, exact
        float reprs, counts, seq) — two engines are bit-identical iff
        their digests match."""
        import hashlib

        h = hashlib.sha256()
        h.update(f"seq={self.seq};n={self.n_active};".encode())
        xs, ys, rs, counts = self.xs, self.ys, self.rs, self.counts
        for i in range(self.config.capacity):
            if self.active[i]:
                h.update(
                    f"{i}:{xs[i]!r},{ys[i]!r},{rs[i]!r},{counts[i]};".encode()
                )
        return h.hexdigest()

    # -- snapshot support --------------------------------------------------

    def state_jsonable(self) -> dict:
        """Sparse full state (active nodes only), JSON round-trip exact."""
        nodes = [
            [i, self.xs[i], self.ys[i], self.rs[i], self.counts[i]]
            for i in range(self.config.capacity)
            if self.active[i]
        ]
        return {"seq": self.seq, "nodes": nodes}

    def state_json(self) -> str:
        """Compact snapshot JSON, byte-identical to
        ``json.dumps(self.state_jsonable(), separators=(",", ":"))`` but
        built directly — snapshot serialization is the main cost of a
        snapshot at large ``n_active``, and this halves it."""
        xs, ys, rs, counts = self.xs, self.ys, self.rs, self.counts
        nodes = ",".join(
            f"[{i},{xs[i]!r},{ys[i]!r},{rs[i]!r},{counts[i]}]"
            for i in range(self.config.capacity)
            if self.active[i]
        )
        return f'{{"seq":{self.seq},"nodes":[{nodes}]}}'

    @classmethod
    def from_state(cls, config: StreamConfig, state: dict) -> "StreamEngine":
        engine = cls(config)
        grid = engine._grid
        inv = engine._inv
        for i, x, y, r, c in state["nodes"]:
            i = int(i)
            engine.xs[i] = x
            engine.ys[i] = y
            engine.rs[i] = r
            engine.ks[i] = squared_key(effective_radius(r))
            engine.counts[i] = int(c)
            engine.active[i] = 1
            grid.setdefault(
                int(x * inv) * _GRID_STRIDE + int(y * inv), []
            ).append(i)
        engine.n_active = sum(engine.active)
        engine.seq = int(state["seq"])
        return engine
