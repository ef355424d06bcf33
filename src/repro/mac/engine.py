"""Slotted contention engine: traffic, queues, backoff, capture, acks.

The dynamic-workload counterpart of the static receiver-centric measure:
time is slotted, each node runs an open-loop traffic source into a
bounded FIFO queue, and the head-of-line packet contends for the channel
under a pluggable backoff policy (:data:`repro.mac.BACKOFF_POLICIES`).
Reception is resolved per slot under one of two physical models:

- ``capture="disk"`` — a reception at ``v`` fails iff a second
  concurrent transmitter's disk covers ``v`` (exactly what the paper's
  ``I(v)`` counts in the worst case), or ``v`` is itself transmitting;
- ``capture="sinr"`` — the SINR-threshold capture effect: a reception
  survives concurrent transmitters as long as
  ``P_u g(u,v) / (N + sum_w P_w g(w,v)) >= beta``, with the same
  power/path-loss conventions as :mod:`repro.sim.sinr` (minimum power
  closing the farthest link at threshold, times a link-budget margin).

With ``mode="csma"`` a node senses before transmitting and defers
(counted, with a fresh backoff draw) while any *audible* transmission
started in an earlier slot is still on the air — carrier sensing is
receiver-blind, so hidden-terminal collisions persist exactly where the
receiver-centric measure predicts contention. Sensing needs
``tx_slots >= 2`` to observe anything: with single-slot packets every
transmission starts and ends inside one slot and ``csma`` degenerates to
slotted ALOHA.

Delay accounting is coordinated-omission-free: the per-packet delay is
measured from source *arrival* (the open-loop source enqueues on its own
schedule, regardless of queue state) to delivery, so a congested queue
cannot hide latency by slowing its own measurement clock. Percentiles
over these delays use the same nearest-rank methodology as
:mod:`repro.serve.loadgen`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.geometry.points import distance_matrix
from repro.interference.coverage import covers_matrix
from repro.mac.policies import BackoffPolicy, BackoffState, make_policy
from repro.model.topology import Topology
from repro.sim.engine import Simulator  # noqa: F401  (re-exported substrate)
from repro.utils import as_generator

from repro.mac.saturated import BUSY_EWMA_ALPHA

TRAFFIC_KINDS = ("bernoulli", "poisson", "saturated")
CAPTURE_KINDS = ("disk", "sinr")
MAC_MODES = ("aloha", "csma")


@dataclass(frozen=True, kw_only=True)
class MacConfig:
    """Frozen engine configuration (everything except topology + policy).

    ``load`` is the per-node offered load in *packets per slot*: the
    Bernoulli per-slot probability, or the Poisson mean of arrivals per
    slot (``traffic="poisson"`` may deliver several arrivals in one
    slot). ``traffic="saturated"`` ignores ``load`` and keeps every node
    permanently backlogged. ``duty_cycle`` caps airtime LoRa-style: after
    every transmission the node stays silent for
    ``ceil(tx_slots * (1/duty_cycle - 1))`` slots. ``ack=True`` models
    instantaneous out-of-band acknowledgements — the sender learns each
    outcome and retransmits up to ``max_retries`` failures before
    dropping; ``ack=False`` is fire-and-forget (one attempt per packet,
    loss shows up only at receivers).
    """

    traffic: str = "poisson"
    load: float = 0.05
    queue_limit: int = 8
    mode: str = "aloha"
    tx_slots: int = 1
    duty_cycle: float = 1.0
    ack: bool = True
    max_retries: int = 7
    capture: str = "disk"
    alpha: float = 3.0
    beta: float = 1.5
    noise: float = 1.0
    margin: float = 2.0

    def __post_init__(self):
        if self.traffic not in TRAFFIC_KINDS:
            raise ValueError(f"traffic must be one of {TRAFFIC_KINDS}")
        if self.mode not in MAC_MODES:
            raise ValueError(f"mode must be one of {MAC_MODES}")
        if self.capture not in CAPTURE_KINDS:
            raise ValueError(f"capture must be one of {CAPTURE_KINDS}")
        if self.load < 0:
            raise ValueError("load must be non-negative")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.tx_slots < 1:
            raise ValueError("tx_slots must be >= 1")
        if not 0 < self.duty_cycle <= 1:
            raise ValueError("duty_cycle must lie in (0, 1]")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.alpha <= 0 or self.beta <= 0 or self.noise <= 0:
            raise ValueError("alpha, beta and noise must be positive")
        if self.margin < 1:
            raise ValueError("margin must be >= 1")

    @property
    def silence_slots(self) -> int:
        """Post-transmission hold-off implied by the duty cycle."""
        return int(math.ceil(self.tx_slots * (1.0 / self.duty_cycle - 1.0)))


@dataclass(frozen=True)
class MacResult:
    """Per-node tallies and delays of one contention run.

    Offered-load conservation holds exactly for every node::

        arrivals == delivered + dropped_queue + dropped_retry + lost
                    + queued_end

    (``queued_end`` includes the head-of-line packet still in service at
    the horizon; ``lost`` is only nonzero in fire-and-forget mode,
    ``ack=False``, where a corrupted packet is simply gone).
    """

    n_slots: int
    #: packets generated by each node's source (including ones dropped at
    #: a full queue)
    arrivals: np.ndarray
    #: packets delivered end-to-end (acknowledged receptions)
    delivered: np.ndarray
    #: packets dropped on arrival at a full queue
    dropped_queue: np.ndarray
    #: packets dropped after exceeding the retry cap
    dropped_retry: np.ndarray
    #: fire-and-forget (``ack=False``) packets transmitted but corrupted
    lost: np.ndarray
    #: transmissions started
    attempts: np.ndarray
    #: attempts beyond the first per delivered packet
    retransmissions: np.ndarray
    #: carrier-sense deferrals (csma mode)
    deferrals: np.ndarray
    #: receptions addressed to each node, by outcome
    rx_ok: np.ndarray
    rx_collision: np.ndarray
    rx_busy: np.ndarray
    #: packets still queued (head included) at the horizon
    queued_end: np.ndarray
    #: per node: delays (slots, arrival -> delivery inclusive) of its
    #: delivered packets, in delivery order
    delays: tuple = ()
    meta: dict = field(default_factory=dict)

    @property
    def throughput(self) -> np.ndarray:
        """Per node: delivered packets per slot."""
        return self.delivered / max(self.n_slots, 1)

    @property
    def offered(self) -> np.ndarray:
        """Per node: generated packets per slot."""
        return self.arrivals / max(self.n_slots, 1)

    @property
    def collision_rate(self) -> np.ndarray:
        """Per receiver: fraction of addressed receptions lost to
        interference. Half-duplex (receiver-busy) losses are excluded
        from the denominator — they are a MAC property, not an
        interference one. NaN where never addressed."""
        addressed = self.rx_ok + self.rx_collision
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(addressed > 0, self.rx_collision / addressed, np.nan)

    @property
    def conservation_ok(self) -> bool:
        """Exact per-node offered-load conservation (see class docs)."""
        accounted = (
            self.delivered
            + self.dropped_queue
            + self.dropped_retry
            + self.lost
            + self.queued_end
        )
        return bool(np.array_equal(self.arrivals, accounted))

    def pooled_delays(self) -> np.ndarray:
        """All delivered-packet delays, pooled across nodes (unsorted)."""
        if not self.delays:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate([np.asarray(d, dtype=np.int64) for d in self.delays])

    def delay_percentiles(self, qs=(50, 95, 99)) -> dict[str, float]:
        """Nearest-rank percentiles of the pooled delay distribution,
        same methodology as ``repro.serve.loadgen`` (NaN when nothing
        was delivered)."""
        from repro.serve.loadgen import percentile

        pooled = sorted(self.pooled_delays().tolist())
        return {f"p{q:g}": float(percentile(pooled, q)) for q in qs}


class MacSimulator:
    """Slotted contention engine over a fixed topology.

    Parameters
    ----------
    topology:
        Communication topology; transmissions use its derived radii.
    policy:
        Backoff-policy name from :data:`repro.mac.BACKOFF_POLICIES` or a
        configured instance (``policy_kwargs`` configure a named policy).
    config:
        Engine options; see :class:`MacConfig`.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        policy: str | BackoffPolicy = "beb",
        config: MacConfig | None = None,
        **policy_kwargs,
    ):
        self.topology = topology
        self.policy = make_policy(policy, **policy_kwargs)
        self.config = config if config is not None else MacConfig()
        if not isinstance(self.config, MacConfig):
            raise TypeError("config must be a MacConfig")
        n = topology.n
        self._neighbors = [
            np.array(sorted(topology.neighbors(u)), dtype=np.int64)
            for u in range(n)
        ]
        self._covers = covers_matrix(topology.positions, topology.radii)
        if self.config.capture == "sinr":
            cfg = self.config
            self._power = (
                cfg.margin
                * cfg.beta
                * cfg.noise
                * np.maximum(topology.radii, 1e-300) ** cfg.alpha
            )
            self._power[topology.degrees == 0] = 0.0
            d_inf = distance_matrix(topology.positions)
            np.fill_diagonal(d_inf, np.inf)
            self._gain = d_inf**-cfg.alpha

    def run(self, n_slots: int, *, seed=None) -> MacResult:
        if n_slots < 0:
            raise ValueError("n_slots must be >= 0")
        cfg = self.config
        policy = self.policy
        rng = as_generator(seed)
        n = self.topology.n
        active = self.topology.degrees > 0

        queues: list[list[int]] = [[] for _ in range(n)]
        window = np.full(n, policy.initial_window(), dtype=np.int64)
        wait = np.zeros(n, dtype=np.int64)
        streak = np.zeros(n, dtype=np.int64)  # consecutive head failures
        silence = np.zeros(n, dtype=np.int64)
        busy = np.zeros(n, dtype=np.float64)
        tx_left = np.zeros(n, dtype=np.int64)
        tx_recv = np.full(n, -1, dtype=np.int64)
        tx_interf = np.zeros(n, dtype=bool)
        tx_busy_rx = np.zeros(n, dtype=bool)

        arrivals = np.zeros(n, dtype=np.int64)
        delivered = np.zeros(n, dtype=np.int64)
        dropped_queue = np.zeros(n, dtype=np.int64)
        dropped_retry = np.zeros(n, dtype=np.int64)
        lost = np.zeros(n, dtype=np.int64)
        attempts = np.zeros(n, dtype=np.int64)
        retransmissions = np.zeros(n, dtype=np.int64)
        deferrals = np.zeros(n, dtype=np.int64)
        rx_ok = np.zeros(n, dtype=np.int64)
        rx_collision = np.zeros(n, dtype=np.int64)
        rx_busy = np.zeros(n, dtype=np.int64)
        delays: list[list[int]] = [[] for _ in range(n)]

        for u in range(n):
            if active[u]:
                wait[u] = rng.integers(window[u])

        with obs.span(
            "mac.run",
            policy=policy.name,
            mode=cfg.mode,
            traffic=cfg.traffic,
            capture=cfg.capture,
            n=n,
            slots=n_slots,
        ) as sp:
            for t in range(n_slots):
                # -- 1. arrivals (open loop: sources never look at queues)
                if cfg.traffic == "bernoulli":
                    fresh = (rng.random(n) < cfg.load).astype(np.int64)
                elif cfg.traffic == "poisson":
                    fresh = rng.poisson(cfg.load, n)
                else:  # saturated: refill empty queues
                    fresh = np.zeros(n, dtype=np.int64)
                    for u in range(n):
                        if active[u] and not queues[u]:
                            fresh[u] = 1
                fresh[~active] = 0
                for u in np.nonzero(fresh)[0]:
                    k = int(fresh[u])
                    arrivals[u] += k
                    room = cfg.queue_limit - len(queues[u])
                    take = min(k, max(room, 0))
                    queues[u].extend([t] * take)
                    dropped_queue[u] += k - take

                # -- 2. carrier sense + transmission starts
                ongoing = tx_left > 0
                if cfg.mode == "csma" and ongoing.any():
                    audible = self._covers[ongoing].any(axis=0)
                else:
                    audible = None
                for u in range(n):
                    if not active[u] or tx_left[u] > 0 or not queues[u]:
                        continue
                    if silence[u] > 0:
                        silence[u] -= 1
                        continue
                    if wait[u] > 0:
                        wait[u] -= 1
                        continue
                    if audible is not None and audible[u]:
                        deferrals[u] += 1
                        wait[u] = 1 + rng.integers(window[u])
                        continue
                    nbrs = self._neighbors[u]
                    v = int(nbrs[rng.integers(nbrs.size)])
                    attempts[u] += 1
                    tx_left[u] = cfg.tx_slots
                    tx_recv[u] = v
                    tx_interf[u] = False
                    tx_busy_rx[u] = False

                # -- 3. per-slot interference resolution
                senders = np.nonzero(tx_left > 0)[0]
                if senders.size:
                    tx_mask = tx_left > 0
                    if cfg.capture == "disk":
                        cover_count = self._covers[senders].sum(axis=0)
                        for u in senders:
                            v = tx_recv[u]
                            if tx_mask[v]:
                                tx_busy_rx[u] = True
                            hit = cover_count[v] - (1 if self._covers[u, v] else 0)
                            if hit > 0:
                                tx_interf[u] = True
                    else:  # sinr capture
                        rx_power = self._power[senders] @ self._gain[senders]
                        for u in senders:
                            v = tx_recv[u]
                            if tx_mask[v]:
                                tx_busy_rx[u] = True
                                continue
                            signal = self._power[u] * self._gain[u, v]
                            interference = rx_power[v] - signal
                            sinr = signal / (cfg.noise + interference)
                            if sinr < cfg.beta:
                                tx_interf[u] = True
                        cover_count = self._covers[senders].sum(axis=0)
                    busy += BUSY_EWMA_ALPHA * ((cover_count > 0) - busy)
                else:
                    busy *= 1.0 - BUSY_EWMA_ALPHA

                # -- 4. transmission ends: acks, retries, window updates
                for u in senders:
                    tx_left[u] -= 1
                    if tx_left[u] > 0:
                        continue
                    v = int(tx_recv[u])
                    tx_recv[u] = -1
                    corrupted = tx_interf[u] or tx_busy_rx[u]
                    if tx_busy_rx[u]:
                        rx_busy[v] += 1
                    elif tx_interf[u]:
                        rx_collision[v] += 1
                    else:
                        rx_ok[v] += 1
                    silence[u] = cfg.silence_slots
                    state = BackoffState(
                        window=int(window[u]), busy=float(busy[u])
                    )
                    if not cfg.ack:
                        # fire-and-forget: one attempt per packet, the
                        # sender never learns the outcome
                        if not corrupted:
                            delivered[u] += 1
                            delays[u].append(t - queues[u][0] + 1)
                        else:
                            lost[u] += 1
                        queues[u].pop(0)
                        window[u] = policy.next_window(0, state)
                    elif not corrupted:
                        delivered[u] += 1
                        retransmissions[u] += int(streak[u])
                        delays[u].append(t - queues[u][0] + 1)
                        queues[u].pop(0)
                        streak[u] = 0
                        window[u] = policy.next_window(0, state)
                    else:
                        streak[u] += 1
                        window[u] = policy.next_window(int(streak[u]), state)
                        if streak[u] > cfg.max_retries:
                            dropped_retry[u] += 1
                            queues[u].pop(0)
                            streak[u] = 0
                    if queues[u]:
                        wait[u] = rng.integers(window[u])

            queued_end = np.array(
                [len(q) for q in queues], dtype=np.int64
            )
            obs.count("mac.slots", n_slots)
            obs.count("mac.attempts", int(attempts.sum()))
            obs.count("mac.delivered", int(delivered.sum()))
            obs.count("mac.collisions", int(rx_collision.sum()))
            obs.count(
                "mac.drops", int(dropped_queue.sum() + dropped_retry.sum())
            )
            if deferrals.any():
                obs.count("mac.deferrals", int(deferrals.sum()))
            sp.set(
                attempts=int(attempts.sum()),
                delivered=int(delivered.sum()),
                collisions=int(rx_collision.sum()),
            )

        return MacResult(
            n_slots=n_slots,
            arrivals=arrivals,
            delivered=delivered,
            dropped_queue=dropped_queue,
            dropped_retry=dropped_retry,
            lost=lost,
            attempts=attempts,
            retransmissions=retransmissions,
            deferrals=deferrals,
            rx_ok=rx_ok,
            rx_collision=rx_collision,
            rx_busy=rx_busy,
            queued_end=queued_end,
            delays=tuple(np.array(d, dtype=np.int64) for d in delays),
            meta={
                "policy": policy.name,
                "mode": cfg.mode,
                "traffic": cfg.traffic,
                "capture": cfg.capture,
                "load": cfg.load,
            },
        )
