"""Algorithm A_exp (Section 5.1) — scan-line hub construction.

Nodes are processed left to right. The leftmost node starts as the current
hub; each subsequent node is connected to the current hub, and whenever an
insertion raises the topology interference ``I(G_exp)``, the just-connected
node takes over as hub. On the exponential node chain every hub ends up
serving one more node than its predecessor, giving ``I(G_exp) = O(sqrt(n))``
(Theorem 5.1) — an exponential improvement over the linearly connected
chain's ``n - 2``.

The interference bookkeeping is incremental: connecting ``v`` to hub ``h``
only *grows* radii (``h``'s to ``|h, v|``, ``v``'s from 0), so per-node
coverage counts are updated with two vectorized passes per insertion,
O(n^2) overall instead of O(n^3) for recompute-from-scratch.
"""

from __future__ import annotations

import numpy as np

from repro.highway.linear import highway_order
from repro.interference.coverage import ATOL, RTOL, effective_radius
from repro.model.topology import Topology
from repro.utils import check_positions


def a_exp(
    positions, *, rtol: float = RTOL, atol: float = ATOL
) -> Topology:
    """Run A_exp over the nodes in highway order; returns the topology.

    Designed for (and analysed on) the exponential node chain, but runs on
    any instance; the O(sqrt(n)) guarantee only holds for the exponential
    chain. The result is always connected (it is a spanning tree of hub
    stars).
    """
    pos = check_positions(positions)
    n = pos.shape[0]
    if n <= 1:
        return Topology(pos, ())
    order = highway_order(pos)
    x = pos[order]  # scan in sorted geometry, map back at the end

    counts = np.zeros(n, dtype=np.int64)  # I(v) under current radii
    radii = np.zeros(n, dtype=np.float64)
    has_edge = np.zeros(n, dtype=bool)  # radius-0 nodes cover nobody
    edges_sorted: list[tuple[int, int]] = []

    def grow(u: int, new_radius: float) -> None:
        """Raise u's radius; count nodes newly entering u's disk.

        Radii only ever grow, so the set of nodes covered by ``u`` is
        exactly those with ``d <= r_eff`` — the newly covered ones lie in
        the half-open annulus between the old and new effective radius.
        """
        d = np.hypot(x[:, 0] - x[u, 0], x[:, 1] - x[u, 1])
        newly = d <= effective_radius(new_radius, rtol=rtol, atol=atol)
        if has_edge[u]:
            newly &= d > effective_radius(radii[u], rtol=rtol, atol=atol)
        newly[u] = False
        counts[newly] += 1
        radii[u] = new_radius
        has_edge[u] = True

    hub = 0
    current_interference = 0
    for v in range(1, n):
        d_hv = float(np.hypot(*(x[v] - x[hub])))
        edges_sorted.append((hub, v))
        if d_hv > radii[hub]:
            grow(hub, d_hv)
        grow(v, d_hv)
        new_interference = int(counts.max())
        if new_interference > current_interference:
            current_interference = new_interference
            hub = v

    edges = [(int(order[a]), int(order[b])) for a, b in edges_sorted]
    return Topology(pos, np.array(edges, dtype=np.int64).reshape(-1, 2))
