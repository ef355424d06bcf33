"""Slotted-ALOHA MAC over disk interference.

Time is slotted. In every slot each node (independently, with probability
``p``) transmits one packet to a uniformly chosen topology neighbour, using
exactly its topology radius ``r_u``. A reception at ``v`` succeeds iff

- ``v`` is not itself transmitting (half-duplex), and
- exactly one transmitter's disk covers ``v`` in that slot.

The second condition is precisely what the receiver-centric measure counts
in the worst case: ``I(v)`` is the number of *potential* co-coverers of
``v``, so collision probability at ``v`` grows monotonically with ``I(v)``
— the correlation the model-validation experiment (E10) measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.interference.coverage import covers_matrix
from repro.model.topology import Topology
from repro.utils import as_generator


@dataclass(frozen=True)
class SlottedResult:
    """Per-node tallies of one slotted-ALOHA run."""

    n_slots: int
    #: transmissions attempted by each node
    attempts: np.ndarray
    #: successful receptions addressed to each node
    rx_ok: np.ndarray
    #: failed receptions addressed to each node, by cause
    rx_collision: np.ndarray
    rx_half_duplex: np.ndarray
    #: successful deliveries originated by each node
    tx_ok: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def collision_rate(self) -> np.ndarray:
        """Per receiver: fraction of addressed receptions lost to collisions.

        Half-duplex losses are excluded from the denominator — they are a
        property of the MAC, not of interference. NaN where a node was
        never addressed.
        """
        addressed = self.rx_ok + self.rx_collision
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(addressed > 0, self.rx_collision / addressed, np.nan)

    @property
    def delivery_rate(self) -> np.ndarray:
        """Per sender: fraction of attempts that were received successfully."""
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(self.attempts > 0, self.tx_ok / self.attempts, np.nan)


class SlottedAlohaSimulator:
    """Simulate slotted ALOHA over a fixed topology.

    Parameters
    ----------
    topology:
        The communication topology; transmissions use its derived radii.
    p:
        Per-slot transmit probability — scalar or per-node vector.
    """

    def __init__(self, topology: Topology, *, p: float | np.ndarray = 0.1):
        self.topology = topology
        n = topology.n
        p_arr = np.broadcast_to(np.asarray(p, dtype=np.float64), (n,)).copy()
        if np.any((p_arr < 0) | (p_arr > 1)):
            raise ValueError("p must lie in [0, 1]")
        # nodes without neighbours have nobody to talk to
        p_arr[topology.degrees == 0] = 0.0
        self.p = p_arr
        self._neighbors = [
            np.array(sorted(topology.neighbors(u)), dtype=np.int64)
            for u in range(n)
        ]
        self._covers = covers_matrix(topology.positions, topology.radii)

    def run(self, n_slots: int, *, seed=None) -> SlottedResult:
        """Run ``n_slots`` slots; all randomness comes from ``seed``."""
        if n_slots < 0:
            raise ValueError("n_slots must be >= 0")
        rng = as_generator(seed)
        n = self.topology.n
        attempts = np.zeros(n, dtype=np.int64)
        rx_ok = np.zeros(n, dtype=np.int64)
        rx_collision = np.zeros(n, dtype=np.int64)
        rx_half = np.zeros(n, dtype=np.int64)
        tx_ok = np.zeros(n, dtype=np.int64)
        for _ in range(n_slots):
            tx_mask = rng.random(n) < self.p
            senders = np.nonzero(tx_mask)[0]
            if senders.size == 0:
                continue
            attempts[senders] += 1
            # how many transmitter disks cover each node this slot
            cover_count = self._covers[senders].sum(axis=0)
            for u in senders:
                nbrs = self._neighbors[u]
                v = int(nbrs[rng.integers(nbrs.size)])
                if tx_mask[v]:
                    rx_half[v] += 1
                elif cover_count[v] == 1:  # only u covers v (u always does)
                    rx_ok[v] += 1
                    tx_ok[u] += 1
                else:
                    rx_collision[v] += 1
        return SlottedResult(
            n_slots=n_slots,
            attempts=attempts,
            rx_ok=rx_ok,
            rx_collision=rx_collision,
            rx_half_duplex=rx_half,
            tx_ok=tx_ok,
            meta={"p": self.p.copy()},
        )


class GatherSimulator:
    """Data gathering to a sink over a routing tree with slotted ALOHA.

    Every node periodically sources a packet; packets are forwarded hop by
    hop toward the sink along ``parent`` pointers. A node with a non-empty
    queue transmits its head-of-line packet with probability ``p`` per slot;
    the packet advances only when the slotted-ALOHA reception (same rules
    as :class:`SlottedAlohaSimulator`) succeeds, otherwise it stays queued —
    interference thus shows up directly as retransmissions and delay, the
    energy story of the paper's introduction.
    """

    def __init__(
        self,
        topology: Topology,
        parent: np.ndarray,
        *,
        p: float = 0.2,
        source_period: int = 50,
    ):
        if source_period < 1:
            raise ValueError("source_period must be >= 1")
        self.topology = topology
        self.parent = np.asarray(parent, dtype=np.int64)
        if self.parent.shape != (topology.n,):
            raise ValueError("parent must have one entry per node")
        self.p = float(p)
        self.source_period = int(source_period)
        self._covers = covers_matrix(topology.positions, topology.radii)

    def run(self, n_slots: int, *, seed=None) -> dict:
        rng = as_generator(seed)
        n = self.topology.n
        sink_mask = self.parent < 0
        queues = np.zeros(n, dtype=np.int64)
        attempts = np.zeros(n, dtype=np.int64)
        successes = np.zeros(n, dtype=np.int64)
        delivered = 0
        sourced = 0
        for slot in range(n_slots):
            if slot % self.source_period == 0:
                queues[~sink_mask] += 1
                sourced += int((~sink_mask).sum())
            backlog = (queues > 0) & ~sink_mask
            tx_mask = backlog & (rng.random(n) < self.p)
            senders = np.nonzero(tx_mask)[0]
            if senders.size == 0:
                continue
            attempts[senders] += 1
            cover_count = self._covers[senders].sum(axis=0)
            for u in senders:
                v = int(self.parent[u])
                if tx_mask[v] or cover_count[v] != 1:
                    continue  # head-of-line packet stays queued
                successes[u] += 1
                queues[u] -= 1
                if sink_mask[v]:
                    delivered += 1
                else:
                    queues[v] += 1
        return {
            "attempts": attempts,
            "successes": successes,
            "delivered": delivered,
            "sourced": sourced,
            "backlog": queues,
            "retransmission_overhead": float(
                attempts.sum() / max(successes.sum(), 1)
            ),
        }
