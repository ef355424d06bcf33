"""Churn engine: node joins/leaves over a built topology with local repair.

The engine turns the paper's static Figure 1 argument into a dynamic one.
It applies a :class:`repro.faults.ChurnSchedule` to a topology event by
event:

- **join** — the new node attaches to its ``attach_k`` nearest alive nodes
  (nearest-neighbour attachment, the natural greedy a deployed node would
  use); attachment nodes grow their radii as needed.
- **leave** — the node and its edges vanish; former neighbours shrink their
  radii. If the survivors disconnect, the engine *repairs locally*: removal
  of one node can only split the network into components each containing a
  former neighbour of the departed node, so re-patching the nearest pair of
  former neighbours across components restores connectivity. (A global
  nearest-pair fallback covers topologies that were already disconnected —
  connectivity of survivors is restored, never silently lost.)

Interference is maintained incrementally through
:class:`repro.interference.InterferenceTracker` over the *universe* of
nodes (initial + every scheduled join), with dead/not-yet-joined nodes
deactivated; every event yields a
:class:`repro.interference.robustness.StabilityRecord` with the
receiver-centric delta split into the provably-bounded own-disk part and
the attachment-growth part, plus the sender-centric jump — the empirical
Figure 1 separation under randomized churn.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro.faults.plan import ChurnEvent, ChurnSchedule
from repro.interference.incremental import InterferenceTracker
from repro.interference.coverage import ATOL, RTOL, disk_covers
from repro.interference.robustness import (
    StabilityRecord,
    StabilitySummary,
    stability_summary,
)
from repro.interference.sender import sender_interference
from repro.model.topology import Topology


class ChurnEngine:
    """Apply churn events to a topology, tracking interference stability.

    Parameters
    ----------
    initial:
        Starting topology (should be connected for the repair guarantee to
        be purely local).
    schedule:
        The churn events to apply; join positions are pre-allocated into
        the tracker's point universe, so the whole run is O(n) per radius
        update instead of O(n^2) rebuilds.
    attach_k:
        Number of nearest alive nodes a joining node connects to.
    min_alive:
        Leaves that would drop the alive count below this are skipped
        (recorded in :attr:`skipped`).
    """

    def __init__(
        self,
        initial: Topology,
        schedule: ChurnSchedule,
        *,
        attach_k: int = 1,
        min_alive: int = 2,
        rtol: float = RTOL,
        atol: float = ATOL,
    ):
        if attach_k < 1:
            raise ValueError("attach_k must be >= 1")
        if min_alive < 2:
            raise ValueError("min_alive must be >= 2")
        self.schedule = schedule
        self.attach_k = int(attach_k)
        self.min_alive = int(min_alive)
        self._rtol = float(rtol)
        self._atol = float(atol)

        join_pos = schedule.join_positions
        self.n_initial = initial.n
        self.positions = np.concatenate([initial.positions, join_pos], axis=0)
        self.n_universe = self.positions.shape[0]
        self.alive = np.zeros(self.n_universe, dtype=bool)
        self.alive[: initial.n] = True
        self._adj: list[set[int]] = [set() for _ in range(self.n_universe)]
        for u, v in initial.edges:
            self._adj[int(u)].add(int(v))
            self._adj[int(v)].add(int(u))
        self.tracker = InterferenceTracker(self.positions, rtol=rtol, atol=atol)
        for u in range(initial.n):
            if self._adj[u]:
                self.tracker.set_radius(u, self._radius_of(u))
        self._next_join = initial.n
        self.records: list[StabilityRecord] = []
        #: indices (into the schedule) of events skipped by the guard rails
        self.skipped: list[int] = []
        self._applied = 0

    # -- geometry helpers --------------------------------------------------
    def _dist(self, u: int, v: int) -> float:
        du = self.positions[u] - self.positions[v]
        return float(math.hypot(du[0], du[1]))

    def _radius_of(self, u: int) -> float:
        return max((self._dist(u, v) for v in self._adj[u]), default=0.0)

    def _refresh_radius(self, u: int) -> None:
        if self._adj[u]:
            self.tracker.set_radius(u, self._radius_of(u))
        else:
            self.tracker.deactivate(u)

    def _add_edge(self, u: int, v: int) -> None:
        self._adj[u].add(v)
        self._adj[v].add(u)
        # grow_to both grows active radii and activates edge-less nodes
        # (whose only edge is now this one, so its length is the radius)
        d = self._dist(u, v)
        self.tracker.grow_to(u, d)
        self.tracker.grow_to(v, d)

    # -- state views -------------------------------------------------------
    @property
    def alive_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.alive)

    def current_topology(self) -> Topology:
        """Survivor topology in compact numbering (universe order kept)."""
        alive_idx = self.alive_nodes
        remap = -np.ones(self.n_universe, dtype=np.int64)
        remap[alive_idx] = np.arange(alive_idx.size)
        edges = [
            (int(remap[u]), int(remap[v]))
            for u in alive_idx
            for v in self._adj[u]
            if u < v
        ]
        return Topology(
            self.positions[alive_idx],
            np.array(edges, dtype=np.int64).reshape(-1, 2),
        )

    def is_connected(self) -> bool:
        alive_idx = self.alive_nodes
        if alive_idx.size <= 1:
            return True
        seen = {int(alive_idx[0])}
        frontier = deque(seen)
        while frontier:
            u = frontier.popleft()
            for v in self._adj[u]:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return len(seen) == alive_idx.size

    def _components(self) -> list[set[int]]:
        comps: list[set[int]] = []
        seen: set[int] = set()
        for start in map(int, self.alive_nodes):
            if start in seen:
                continue
            comp = {start}
            frontier = deque([start])
            while frontier:
                u = frontier.popleft()
                for v in self._adj[u]:
                    if v not in comp:
                        comp.add(v)
                        frontier.append(v)
            seen |= comp
            comps.append(comp)
        return comps

    # -- event application -------------------------------------------------
    def run(self) -> StabilitySummary:
        """Apply every scheduled event; returns the aggregate summary."""
        for event in self.schedule:
            self.apply(event)
        return self.summary()

    def summary(self) -> StabilitySummary:
        return stability_summary(self.records)

    def apply(self, event: ChurnEvent) -> StabilityRecord | None:
        """Apply one event; returns its record (None if guarded/skipped)."""
        index = self._applied
        self._applied += 1
        if event.kind == "join":
            record = self._apply_join(index, event)
        else:
            record = self._apply_leave(index, event)
        if record is None:
            self.skipped.append(index)
        else:
            self.records.append(record)
        return record

    def _snapshot(self):
        counts = self.tracker.node_interference()
        sender = sender_interference(
            self.current_topology(), rtol=self._rtol, atol=self._atol
        )
        return counts, sender, self.alive.copy()

    def _record(
        self,
        index: int,
        kind: str,
        node: int,
        before,
        *,
        own_disk: np.ndarray | None = None,
        repaired: tuple = (),
        straggler: bool = False,
    ) -> StabilityRecord:
        counts_before, sender_before, alive_before = before
        counts_after = self.tracker.node_interference()
        victims = alive_before & self.alive
        victims[node] = False
        delta = counts_after[victims] - counts_before[victims]
        delta_max = int(delta.max()) if delta.size else 0
        own_vec = (
            own_disk[victims]
            if own_disk is not None
            else np.zeros(int(victims.sum()), dtype=np.int64)
        )
        own = int(own_vec.max()) if own_vec.size else 0
        growth = delta - own_vec
        return StabilityRecord(
            index=index,
            kind=kind,
            node=int(node),
            receiver_delta_max=delta_max,
            own_disk_delta_max=own,
            growth_delta_max=int(growth.max()) if growth.size else 0,
            sender_before=float(sender_before),
            sender_after=float(
                sender_interference(
                    self.current_topology(), rtol=self._rtol, atol=self._atol
                )
            ),
            connected=self.is_connected(),
            n_alive=int(self.alive.sum()),
            repaired_edges=repaired,
            straggler=straggler,
        )

    def _apply_join(self, index: int, event: ChurnEvent) -> StabilityRecord:
        if self._next_join >= self.n_universe:
            raise RuntimeError("more join events than pre-allocated positions")
        j = self._next_join
        self._next_join += 1
        before = self._snapshot()
        alive_idx = self.alive_nodes
        d = np.hypot(*(self.positions[alive_idx] - self.positions[j]).T)
        order = np.argsort(d, kind="stable")
        anchors = [int(alive_idx[i]) for i in order[: self.attach_k]]
        self.alive[j] = True
        for a in anchors:
            self._add_edge(j, a)
        # the new node's own-disk coverage over the universe (paper: <= 1
        # per victim by construction — it is one disk)
        r_j = self._radius_of(j)
        own_disk = disk_covers(
            self.positions, self.positions[j], r_j, rtol=self._rtol, atol=self._atol
        ).astype(np.int64)
        own_disk[j] = 0
        return self._record(
            index, "join", j, before, own_disk=own_disk, straggler=event.straggler
        )

    def _apply_leave(self, index: int, event: ChurnEvent) -> StabilityRecord | None:
        alive_idx = self.alive_nodes
        if alive_idx.size <= self.min_alive:
            return None
        victim = int(alive_idx[event.salt % alive_idx.size])
        before = self._snapshot()
        was_connected = self.is_connected()
        former = sorted(self._adj[victim])
        for nb in former:
            self._adj[nb].discard(victim)
        self._adj[victim].clear()
        self.alive[victim] = False
        self.tracker.deactivate(victim)
        for nb in former:
            self._refresh_radius(nb)
        repaired = self._repair(former)
        if was_connected and not self.is_connected():  # pragma: no cover
            raise RuntimeError("repair failed to restore survivor connectivity")
        return self._record(index, "leave", victim, before, repaired=tuple(repaired))

    def _repair(self, former: list[int]) -> list[tuple[int, int]]:
        """Re-patch survivors into one component; returns the added edges.

        Prefers pairs among ``former`` (the departed node's neighbours —
        every component split off by the removal contains at least one),
        falling back to all alive nodes only if the graph was disconnected
        for some other reason.
        """
        added: list[tuple[int, int]] = []
        while True:
            comps = self._components()
            if len(comps) <= 1:
                return added
            pair = self._nearest_cross_pair(comps, [u for u in former if self.alive[u]])
            if pair is None:
                pair = self._nearest_cross_pair(comps, list(map(int, self.alive_nodes)))
            if pair is None:  # pragma: no cover — single-node components only
                return added
            u, v = pair
            self._add_edge(u, v)
            added.append((min(u, v), max(u, v)))

    def _nearest_cross_pair(self, comps, candidates) -> tuple[int, int] | None:
        comp_of = {}
        for i, comp in enumerate(comps):
            for u in comp:
                comp_of[u] = i
        best = None
        best_d = math.inf
        cands = [u for u in candidates if u in comp_of]
        for i, u in enumerate(cands):
            for v in cands[i + 1 :]:
                if comp_of[u] == comp_of[v]:
                    continue
                d = self._dist(u, v)
                if d < best_d:
                    best_d = d
                    best = (u, v)
        return best
