"""Sender-centric edge-coverage interference (Burkhart et al. [2]).

The baseline measure the paper argues against. The coverage of an edge
``e = {u, v}`` is the number of nodes lying in ``D(u, |uv|) or D(v, |uv|)``
— the nodes affected when ``u`` and ``v`` communicate over ``e``. The
interference of a topology is an aggregate (max by default) of edge
coverages.

Endpoints themselves are always inside both disks; by default they are
*excluded* from the count so an isolated short edge in an empty region has
coverage 0 (set ``include_endpoints=True`` for the convention that counts
them, which shifts every coverage by exactly 2).
"""

from __future__ import annotations

import numpy as np

from repro.interference.coverage import ATOL, RTOL, disk_covers
from repro.model.topology import Topology


def edge_coverage(
    topology: Topology,
    *,
    include_endpoints: bool = False,
    rtol: float = RTOL,
    atol: float = ATOL,
) -> np.ndarray:
    """Coverage ``Cov(e)`` of every edge, aligned with ``topology.edges``."""
    pos = topology.positions
    edges = topology.edges
    m = edges.shape[0]
    out = np.zeros(m, dtype=np.int64)
    if m == 0:
        return out
    lengths = topology.edge_lengths
    for k in range(m):
        u, v = edges[k]
        covered = disk_covers(pos, pos[u], lengths[k], rtol=rtol, atol=atol)
        covered |= disk_covers(pos, pos[v], lengths[k], rtol=rtol, atol=atol)
        if not include_endpoints:
            covered[u] = False
            covered[v] = False
        out[k] = int(covered.sum())
    return out


def sender_interference(
    topology: Topology,
    *,
    agg: str = "max",
    include_endpoints: bool = False,
    rtol: float = RTOL,
    atol: float = ATOL,
) -> float:
    """Aggregate sender-centric interference of a topology.

    ``agg`` is ``"max"`` (the measure of [2]), ``"mean"`` or ``"sum"``.
    Returns 0 for an edge-free topology.
    """
    cov = edge_coverage(
        topology, include_endpoints=include_endpoints, rtol=rtol, atol=atol
    )
    if cov.size == 0:
        return 0.0
    if agg == "max":
        return float(cov.max())
    if agg == "mean":
        return float(cov.mean())
    if agg == "sum":
        return float(cov.sum())
    raise ValueError(f"unknown agg {agg!r}")
