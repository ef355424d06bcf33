"""Traffic-weighted interference in the spirit of Meyer auf de Heide et al. [11].

[11] defines interference relative to current network traffic: a node
suffers in proportion to how much traffic the nodes covering it emit. The
paper deliberately moves to a traffic-*independent* measure; we keep this
weighted variant as a bridge between the static measure and the packet
simulator — with unit weights it reduces exactly to Definition 3.1.
"""

from __future__ import annotations

import numpy as np

from repro.interference.coverage import ATOL, RTOL, disk_covers
from repro.model.topology import Topology


def traffic_interference(
    topology: Topology,
    loads,
    *,
    rtol: float = RTOL,
    atol: float = ATOL,
) -> np.ndarray:
    """Per-node interference weighted by per-node transmit loads.

    ``loads`` is a length-``n`` non-negative vector (e.g. packets per slot
    each node sources). Node ``v`` accumulates ``loads[u]`` for every other
    node ``u`` whose disk covers ``v``. With ``loads = 1`` this equals
    :func:`repro.interference.node_interference`.
    """
    loads = np.asarray(loads, dtype=np.float64)
    if loads.shape != (topology.n,):
        raise ValueError(f"loads must have shape ({topology.n},)")
    if np.any(loads < 0):
        raise ValueError("loads must be non-negative")
    pos = topology.positions
    radii = topology.radii
    out = np.zeros(topology.n, dtype=np.float64)
    for u in range(topology.n):
        if loads[u] == 0:
            continue
        covered = disk_covers(pos, pos[u], radii[u], rtol=rtol, atol=atol)
        covered[u] = False
        out[covered] += loads[u]
    return out
