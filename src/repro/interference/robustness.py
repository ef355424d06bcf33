"""Robustness of interference measures under node addition/removal (Fig. 1).

The paper's second argument for the receiver-centric measure: one added
node is one added packet source, so it should raise interference at existing
nodes by at most its own disk (+1) — plus whatever the topology adaptation
(attachment nodes growing their radii) contributes. The sender-centric
measure has no such bound: a single long attachment edge can cover the whole
network and jump the measure from O(1) to n.

:func:`addition_report` quantifies both effects for one insertion, splitting
the receiver-centric delta into the new node's own-disk contribution
(provably <= 1 per victim) and the radius-growth contribution of the
attachment nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.interference.coverage import ATOL, RTOL, disk_covers
from repro.interference.receiver import node_interference
from repro.interference.sender import sender_interference
from repro.model.topology import Topology


@dataclass(frozen=True)
class AdditionReport:
    """Effect of inserting one node into an existing topology.

    All per-node arrays are over the *existing* nodes (length ``n`` of the
    original topology), so before/after values are directly comparable.
    """

    before: Topology
    after: Topology
    #: receiver-centric I(v) on existing nodes, before insertion
    receiver_before: np.ndarray
    #: receiver-centric I(v) on existing nodes, after insertion
    receiver_after: np.ndarray
    #: 0/1 per existing node: covered by the new node's disk
    new_node_contribution: np.ndarray
    #: per existing node: extra coverage due to attachment radii growing
    radius_growth_contribution: np.ndarray
    sender_before: float
    sender_after: float
    meta: dict = field(default_factory=dict)

    @property
    def receiver_delta(self) -> np.ndarray:
        return self.receiver_after - self.receiver_before

    @property
    def max_receiver_delta(self) -> int:
        return int(self.receiver_delta.max()) if self.receiver_delta.size else 0

    @property
    def sender_delta(self) -> float:
        return self.sender_after - self.sender_before


def addition_report(
    topology: Topology,
    new_position,
    attach_to,
    *,
    rtol: float = RTOL,
    atol: float = ATOL,
) -> AdditionReport:
    """Insert one node, connect it to ``attach_to``, report both measures."""
    after = topology.add_node(new_position, attach_to)
    n = topology.n
    rec_before = node_interference(topology, rtol=rtol, atol=atol)
    rec_after_full = node_interference(after, rtol=rtol, atol=atol)
    rec_after = rec_after_full[:n]

    pos = after.positions
    new_r = after.radii[n]
    tol = {"rtol": rtol, "atol": atol}
    new_contrib = disk_covers(pos[:n], pos[n], new_r, **tol).astype(np.int64)

    growth = np.zeros(n, dtype=np.int64)
    r_old = topology.radii
    r_new = after.radii[:n]
    for u in np.nonzero(r_new > r_old)[0]:
        was = disk_covers(pos[:n], pos[u], r_old[u], **tol)
        newly = disk_covers(pos[:n], pos[u], r_new[u], **tol) & ~was
        newly[u] = False
        growth += newly.astype(np.int64)

    return AdditionReport(
        before=topology,
        after=after,
        receiver_before=rec_before,
        receiver_after=rec_after,
        new_node_contribution=new_contrib,
        radius_growth_contribution=growth,
        sender_before=sender_interference(topology, rtol=rtol, atol=atol),
        sender_after=sender_interference(after, rtol=rtol, atol=atol),
        meta={"attach_to": list(map(int, attach_to))},
    )


@dataclass(frozen=True)
class StabilityRecord:
    """Interference deltas of one churn event, under both measures.

    Produced per event by :class:`repro.faults.ChurnEngine`. All deltas are
    over the *victims* — nodes alive both before and after the event — so
    the record isolates what the event did to the pre-existing network.
    """

    index: int
    kind: str  # "join" | "leave"
    node: int  # universe id of the joining / leaving node
    #: max over victims of the total receiver-centric I(v) change
    receiver_delta_max: int
    #: joins only: max over victims of the new node's own-disk coverage
    #: (the paper's provably-<=-1 contribution; 0 for leaves)
    own_disk_delta_max: int
    #: max over victims of the attachment/repair radius-growth contribution
    growth_delta_max: int
    sender_before: float
    sender_after: float
    #: survivors connected after the event (post-repair for leaves)
    connected: bool
    #: alive node count after the event
    n_alive: int
    #: repair edges added by the engine (leaves; empty for joins)
    repaired_edges: tuple = ()
    #: whether this join was a straggler (far outside the deployment area)
    straggler: bool = False

    @property
    def sender_delta(self) -> float:
        return self.sender_after - self.sender_before


@dataclass(frozen=True)
class StabilitySummary:
    """Aggregate of a churn run's :class:`StabilityRecord` sequence.

    The empirical form of the Figure 1 separation: across every join the
    new node's own disk raises any victim's interference by at most one
    (``max_join_own_disk_delta <= 1``), while a single straggler join can
    push the sender-centric measure to the order of the network size
    (``max_sender_delta`` ~ n).
    """

    n_events: int
    n_joins: int
    n_leaves: int
    max_join_own_disk_delta: int
    max_join_receiver_delta: int
    max_leave_receiver_delta: int
    max_sender_delta: float
    max_sender_delta_relative: float  # max over events of delta / n_alive
    always_connected: bool
    n_repaired_edges: int

    @property
    def own_disk_bound_holds(self) -> bool:
        """The paper's robustness property: one new disk adds at most 1."""
        return self.max_join_own_disk_delta <= 1


def stability_summary(records) -> StabilitySummary:
    """Fold per-event :class:`StabilityRecord` into a :class:`StabilitySummary`."""
    records = list(records)
    joins = [r for r in records if r.kind == "join"]
    leaves = [r for r in records if r.kind == "leave"]
    rel = [
        r.sender_delta / r.n_alive for r in records if r.n_alive > 0
    ]
    return StabilitySummary(
        n_events=len(records),
        n_joins=len(joins),
        n_leaves=len(leaves),
        max_join_own_disk_delta=max((r.own_disk_delta_max for r in joins), default=0),
        max_join_receiver_delta=max((r.receiver_delta_max for r in joins), default=0),
        max_leave_receiver_delta=max(
            (r.receiver_delta_max for r in leaves), default=0
        ),
        max_sender_delta=max((r.sender_delta for r in records), default=0.0),
        max_sender_delta_relative=max(rel, default=0.0),
        always_connected=all(r.connected for r in records),
        n_repaired_edges=sum(len(r.repaired_edges) for r in records),
    )


def removal_report(
    topology: Topology, index: int, *, rtol: float = RTOL, atol: float = ATOL
) -> dict:
    """Remove a node; report interference of survivors under both measures.

    Note that removal may disconnect the topology — the report includes a
    ``connected_after`` flag so callers can decide whether to repair.
    Survivor arrays are indexed in the *new* (compacted) numbering.
    """
    after = topology.remove_node(index)
    before_vec = node_interference(topology, rtol=rtol, atol=atol)
    keep = np.ones(topology.n, dtype=bool)
    keep[index] = False
    return {
        "receiver_before": before_vec[keep],
        "receiver_after": node_interference(after, rtol=rtol, atol=atol),
        "sender_before": sender_interference(topology, rtol=rtol, atol=atol),
        "sender_after": sender_interference(after, rtol=rtol, atol=atol),
        "connected_after": after.is_connected(),
        "after": after,
    }
