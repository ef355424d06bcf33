"""Spanning-tree local search for minimum interference (2-D heuristic).

Starts from any connected subtopology of the UDG (default: the Euclidean
MST), then repeatedly tries *edge swaps*: insert a non-tree UDG edge,
remove an edge of the created cycle, keep the swap if it lowers the
lexicographic objective ``(I(G), sum of I(v))``. The secondary sum term
lets the search traverse plateaus of equal maximum interference, which is
where most of the improvement on random instances comes from.

Candidate evaluation uses :class:`repro.interference.incremental.
InterferenceTracker` so one swap trial costs O(k * n) for a cycle of
length k instead of an O(n^2) recompute.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.interference.incremental import InterferenceTracker
from repro.model.topology import Topology
from repro.utils import as_generator


def tree_path(adj: list[set[int]], a: int, b: int) -> list[int]:
    """Unique a-b path in a tree given its adjacency sets.

    Shared with the simulated-annealing heuristic of
    :mod:`repro.opt.heuristic`, which proposes the same edge-swap moves.
    """
    parent = {a: -1}
    q = deque([a])
    while q:
        u = q.popleft()
        if u == b:
            break
        for v in adj[u]:
            if v not in parent:
                parent[v] = u
                q.append(v)
    path = [b]
    while parent[path[-1]] != -1:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def node_radius(adj: list[set[int]], pos: np.ndarray, u: int) -> float:
    """Distance from ``u`` to its farthest neighbour in ``adj`` (0 if none)."""
    if not adj[u]:
        return 0.0
    return max(float(np.hypot(*(pos[u] - pos[v]))) for v in adj[u])


def reduce_interference(
    udg: Topology,
    start: Topology | None = None,
    *,
    max_rounds: int = 30,
    seed=None,
) -> Topology:
    """Hill-climb edge swaps over spanning trees of ``udg``.

    Parameters
    ----------
    udg:
        The unit disk graph (candidate edge pool).
    start:
        Connected spanning subtopology to improve; defaults to the
        Euclidean MST of ``udg``. Non-tree starts are first pruned to a
        spanning tree (extra edges only ever add interference).
    max_rounds:
        Full passes over the candidate edges without improvement before
        stopping.

    Returns a topology with ``I(G)`` no worse than the start's.
    """
    from repro.graphs.mst import euclidean_mst_edges

    pos = udg.positions
    n = udg.n
    if start is None:
        tree_edges = euclidean_mst_edges(pos, candidate_edges=udg.edges)
    else:
        if not start.is_subgraph_of(udg):
            raise ValueError("start must be a subtopology of the UDG")
        if not start.is_connected():
            raise ValueError("start must be connected")
        tree_edges = euclidean_mst_edges(pos, candidate_edges=start.edges)
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in tree_edges:
        adj[u].add(int(v))
        adj[v].add(int(u))

    tracker = InterferenceTracker.from_topology(Topology(pos, tree_edges))
    rng = as_generator(seed)
    candidates = [tuple(map(int, e)) for e in udg.edges]

    def objective() -> tuple[int, int]:
        counts = tracker.node_interference()
        return int(counts.max()), int(counts.sum())

    def apply_edge_change(u, v, *, add: bool):
        if add:
            adj[u].add(v)
            adj[v].add(u)
        else:
            adj[u].discard(v)
            adj[v].discard(u)
        for w in (u, v):
            tracker.set_radius(w, node_radius(adj, pos, w))

    best = objective()
    stale = 0
    while stale < max_rounds:
        improved = False
        order = rng.permutation(len(candidates))
        for idx in order:
            a, b = candidates[idx]
            if b in adj[a]:
                continue
            path = tree_path(adj, a, b)
            apply_edge_change(a, b, add=True)
            swap_done = False
            for x, y in zip(path, path[1:]):
                apply_edge_change(x, y, add=False)
                cand = objective()
                if cand < best:
                    best = cand
                    swap_done = True
                    break
                apply_edge_change(x, y, add=True)
            if not swap_done:
                apply_edge_change(a, b, add=False)
            else:
                improved = True
        stale = 0 if improved else stale + 1
        if not improved:
            break

    edges = sorted(
        (min(u, v), max(u, v)) for u in range(n) for v in adj[u] if u < v
    )
    return Topology(pos, np.array(edges, dtype=np.int64).reshape(-1, 2))
