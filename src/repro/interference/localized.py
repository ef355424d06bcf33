"""Localized (distributed-style) computation of the interference measure.

A practically important property of the receiver-centric measure that the
paper leaves implicit: **every interferer is a UDG neighbour**. In any
subtopology of the unit disk graph, radii never exceed the unit range, so
a node ``u`` covering ``v`` satisfies ``|u, v| <= r_u <= unit`` — i.e.
``u`` is within ``v``'s own transmission range. A node can therefore
compute its exact interference from one-hop information: the positions of
its UDG neighbours plus each neighbour's chosen radius (two-hop topology
knowledge, the same information XTC-class algorithms already exchange).

:func:`localized_interference` implements exactly that message-passing
view — each node sees only its UDG adjacency list — and is tested to agree
with the global kernel on every UDG subtopology.
"""

from __future__ import annotations

import numpy as np

from repro.interference.coverage import ATOL, RTOL, effective_radius
from repro.model.topology import Topology


def localized_interference(
    udg: Topology,
    topology: Topology,
    *,
    rtol: float = RTOL,
    atol: float = ATOL,
) -> np.ndarray:
    """Per-node interference computed from one-hop UDG neighbourhoods only.

    Parameters
    ----------
    udg:
        The unit disk graph (defines who can possibly hear whom).
    topology:
        The chosen subtopology (must be a subgraph of ``udg``); its derived
        radii are the "advertised transmission powers".

    Raises ``ValueError`` if ``topology`` is not a UDG subgraph — then the
    one-hop locality argument does not apply.
    """
    if topology.n != udg.n or not np.array_equal(topology.positions, udg.positions):
        raise ValueError("topology and udg must share the node set")
    if not topology.is_subgraph_of(udg):
        raise ValueError(
            "topology is not a subgraph of the UDG; interferers may then be "
            "out of one-hop range and the localized computation is unsound"
        )
    pos = udg.positions
    radii = topology.radii
    counts = np.zeros(udg.n, dtype=np.int64)
    for v in range(udg.n):
        # node v interrogates only its own UDG neighbourhood
        for u in udg.neighbors(v):
            d = float(np.hypot(*(pos[u] - pos[v])))
            if d <= effective_radius(radii[u], rtol=rtol, atol=atol):
                counts[v] += 1
    return counts


def message_rounds_required() -> int:
    """Communication rounds for every node to know its exact interference.

    Round 1: each node learns its chosen radius (local). Round 2: nodes
    broadcast (position, radius) to UDG neighbours. The count is then a
    local computation — 2 rounds, independent of network size.
    """
    return 2
