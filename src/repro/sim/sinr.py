"""SINR physical-layer reception model.

The disk model (Section 3) is a protocol-level abstraction; real receivers
decode when the signal-to-interference-plus-noise ratio clears a threshold
beta. This module re-runs the slotted-ALOHA experiment under SINR physics:

- node ``u`` transmits with the *minimum* power reaching its topology
  radius at the threshold, ``P_u = beta * noise * r_u**alpha`` (so its
  intended links just close in the absence of interference);
- a reception at ``v`` from ``u`` succeeds iff
  ``P_u d(u,v)^-alpha / (N + sum_w P_w d(w,v)^-alpha) >= beta``.

The paper's measure counts *potential* disturbers under the disk
abstraction; the SINR experiment (``sim_collisions`` companion) shows that
this count still predicts physical-layer loss — the abstraction is sound
for ranking topologies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.points import distance_matrix
from repro.model.topology import Topology
from repro.utils import as_generator


@dataclass(frozen=True)
class SinrResult:
    n_slots: int
    attempts: np.ndarray
    rx_ok: np.ndarray
    rx_failed: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def loss_rate(self) -> np.ndarray:
        total = self.rx_ok + self.rx_failed
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(total > 0, self.rx_failed / total, np.nan)


class SinrSlottedSimulator:
    """Slotted ALOHA under SINR reception.

    Parameters
    ----------
    topology:
        Transmission radii come from the topology as usual.
    alpha:
        Path-loss exponent (2–6; default 3).
    beta:
        SINR decoding threshold (default 1.5).
    noise:
        Ambient noise floor (default 1.0; powers are scaled to it).
    margin:
        Link-budget margin: transmit power is ``margin`` times the bare
        minimum closing the farthest link (default 2.0). ``margin = 1``
        models exact minimum-power operation, where any concurrent
        transmission anywhere kills a reception at the cell edge.
    p:
        Per-slot transmit probability.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        alpha: float = 3.0,
        beta: float = 1.5,
        noise: float = 1.0,
        margin: float = 2.0,
        p: float = 0.1,
    ):
        if alpha <= 0 or beta <= 0 or noise <= 0:
            raise ValueError("alpha, beta and noise must be positive")
        if margin < 1:
            raise ValueError("margin must be >= 1")
        if not 0 <= p <= 1:
            raise ValueError("p must lie in [0, 1]")
        self.topology = topology
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.noise = float(noise)
        n = topology.n
        self.p = np.full(n, float(p))
        self.p[topology.degrees == 0] = 0.0
        self._neighbors = [
            np.array(sorted(topology.neighbors(u)), dtype=np.int64)
            for u in range(n)
        ]
        # power closing the farthest intended link at threshold beta, plus
        # the configured link-budget margin
        self.margin = float(margin)
        self._power = (
            self.margin
            * self.beta
            * self.noise
            * np.maximum(topology.radii, 1e-300) ** self.alpha
        )
        self._power[topology.degrees == 0] = 0.0
        d = distance_matrix(topology.positions)
        np.fill_diagonal(d, np.inf)  # no self-reception; avoids 0**-alpha
        self._gain = d**-self.alpha  # gain[u, v]: path gain u -> v

    def run(self, n_slots: int, *, seed=None) -> SinrResult:
        if n_slots < 0:
            raise ValueError("n_slots must be >= 0")
        rng = as_generator(seed)
        n = self.topology.n
        attempts = np.zeros(n, dtype=np.int64)
        rx_ok = np.zeros(n, dtype=np.int64)
        rx_failed = np.zeros(n, dtype=np.int64)
        for _ in range(n_slots):
            tx_mask = rng.random(n) < self.p
            senders = np.nonzero(tx_mask)[0]
            if senders.size == 0:
                continue
            attempts[senders] += 1
            # total received power from all transmitters, at every node
            rx_power = self._power[senders] @ self._gain[senders]
            for u in senders:
                nbrs = self._neighbors[u]
                v = int(nbrs[rng.integers(nbrs.size)])
                if tx_mask[v]:
                    rx_failed[v] += 1  # half-duplex
                    continue
                signal = self._power[u] * self._gain[u, v]
                interference = rx_power[v] - signal
                sinr = signal / (self.noise + interference)
                if sinr >= self.beta:
                    rx_ok[v] += 1
                else:
                    rx_failed[v] += 1
        return SinrResult(
            n_slots=n_slots,
            attempts=attempts,
            rx_ok=rx_ok,
            rx_failed=rx_failed,
            meta={"alpha": self.alpha, "beta": self.beta, "noise": self.noise},
        )
