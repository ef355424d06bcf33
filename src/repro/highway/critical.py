"""Critical node sets and gamma (Definition 5.2 / Lemma 5.5).

The critical nodes of ``v`` are the nodes that interfere with ``v`` when
the highway is connected linearly: ``u`` is critical for ``v`` iff some
linear-chain edge ``{u, w}`` is at least as long as ``|u, v|`` (that edge
sets ``r_u >= |u, v|``, so ``u``'s disk covers ``v``). The maximum critical
set size gamma both drives the A_apx case split and lower-bounds the
optimal interference by Omega(sqrt(gamma)).
"""

from __future__ import annotations

import numpy as np

from repro.highway.linear import linear_chain
from repro.interference.coverage import ATOL, RTOL, effective_radius
from repro.interference.receiver import node_interference
from repro.model.topology import Topology
from repro.utils import check_positions


def critical_set(
    positions, v: int, *, unit: float | None = None, rtol: float = RTOL, atol: float = ATOL
) -> np.ndarray:
    """The critical node set ``C_v`` (Definition 5.2), literal form.

    Returns the sorted indices of all ``u != v`` that have a linear-chain
    edge ``{u, w}`` with ``|u, w| >= |u, v|``.
    """
    pos = check_positions(positions)
    chain = linear_chain(pos, unit=unit)
    out = []
    for u in range(pos.shape[0]):
        if u == v:
            continue
        duv = float(np.hypot(*(pos[u] - pos[v])))
        for w in chain.neighbors(u):
            duw = float(np.hypot(*(pos[u] - pos[w])))
            if effective_radius(duw, rtol=rtol, atol=atol) >= duv:
                out.append(u)
                break
    return np.array(sorted(out), dtype=np.int64)


def gamma(positions, *, unit: float | None = None) -> int:
    """``gamma = max_v |C_v|`` — equivalently the interference of ``G_lin``.

    A node is critical for ``v`` exactly when its linear-chain disk covers
    ``v``, so gamma equals the receiver-centric interference of the linear
    chain; we compute it with the vectorized kernel (the literal
    Definition 5.2 form is :func:`critical_set`, cross-checked in tests).
    """
    chain = linear_chain(positions, unit=unit)
    vec = node_interference(chain)
    return int(vec.max()) if vec.size else 0


def gamma_of_chain(chain: Topology) -> int:
    """gamma given an already-built linear chain (avoids rebuilding)."""
    vec = node_interference(chain)
    return int(vec.max()) if vec.size else 0
