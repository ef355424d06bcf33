"""Receiver-centric interference (Definitions 3.1 and 3.2).

Given a topology ``G' = (V, E')`` with derived radii ``r_u`` (distance to
the farthest neighbour), the interference of node ``v`` is::

    I(v) = |{ u in V \\ {v} : v in D(u, r_u) }|

i.e. the number of *other* nodes whose transmission disk covers ``v`` —
"by how many other nodes can v be disturbed". The graph interference is
``I(G') = max_v I(v)``.

Coverage is decided by the one predicate of
:mod:`repro.interference.coverage` (``hypot(d) <= r_u * (1 + RTOL) +
ATOL``); this module only counts with it.

Kernels follow the HPC guides: ``method="brute"`` is a blocked, fully
vectorized O(n^2) pass; ``method="grid"`` probes the spatial index one
node at a time; ``method="batch"`` (:mod:`repro.interference.batch`)
answers every disk query in fused array passes over the grid's CSR
layout — the default above :data:`AUTO_BATCH_MIN_N` nodes;
``node_interference_naive`` is the pure-Python reference used in tests
and performance benchmarks. All kernels use that predicate and agree
bit-for-bit on every instance family (the property and parity suites
assert it), including degenerate ones: a zero-radius node still covers
nodes at distance exactly zero, in every kernel.
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.geometry.spatial import GridIndex
from repro.interference.batch import batch_covered_counts
from repro.interference.coverage import ATOL, RTOL, cover_blocks, effective_radius
from repro.model.topology import Topology

#: ``method="auto"`` switches from the vectorized O(n^2) kernel to the
#: fused batch kernel above this node count. Calibrated on the
#: constant-density instances of ``benchmarks/bench_batch_kernels.py``
#: (EMST over ``random_udg_connected``, Linux/x86-64, numpy 2.x): the
#: kernels tie at n ~ 128 and batch wins beyond — 2x at n = 256, 64x at
#: n = 4096 (see docs/PERFORMANCE.md for the measured table). Density
#: pathologies above the threshold are handled inside the batch kernel,
#: which falls back to brute when the grid cannot prune (see
#: ``GRID_COVERAGE_FALLBACK``).
AUTO_BATCH_MIN_N = 192

#: The scalar-grid / brute crossover (``method="grid"`` is still the
#: right tier for incremental one-disk-at-a-time workloads; ``auto`` now
#: prefers the batch tier, which is faster than scalar grid at every n).
#: Kept calibrated for callers that pick ``method="grid"`` explicitly.
AUTO_GRID_MIN_N = 1024

#: The grid/batch kernels clamp their cell size so each axis has at most
#: ``GRID_CELLS_PER_AXIS_SCALE * sqrt(n)`` cells (~16n cells total):
#: radii spanning many orders of magnitude (exponential chains) otherwise
#: pick a median-radius cell so small that a single span-scale query
#: enumerates astronomically many cells.
GRID_CELLS_PER_AXIS_SCALE = 4.0

#: Fall back to the brute kernel when the average query disk's bounding
#: box covers more than this fraction of the instance extent — the grid
#: cannot prune such workloads and only adds per-cell overhead on top of
#: the same point scans.
GRID_COVERAGE_FALLBACK = 0.25


def node_interference(
    topology: Topology,
    *,
    method: str = "auto",
    rtol: float = RTOL,
    atol: float = ATOL,
) -> np.ndarray:
    """Per-node receiver-centric interference vector ``I(v)`` (int64).

    ``method`` is ``"brute"`` (vectorized O(n^2), blocked), ``"grid"``
    (spatial index, scalar per-node queries), ``"batch"`` (fused
    array-at-a-time queries over the grid CSR layout, optional numba
    backend) or ``"auto"`` (brute below ``AUTO_BATCH_MIN_N`` nodes, batch
    above; the grid-backed kernels degrade gracefully to brute on
    instances they cannot prune).
    """
    return _counts(topology.positions, topology.radii, method, rtol, atol)


def _counts(
    pos: np.ndarray, radii: np.ndarray, method: str, rtol: float, atol: float
) -> np.ndarray:
    """The kernel dispatch behind :func:`node_interference` and
    :func:`repro.interference.coverage.covered_counts`."""
    n = pos.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if method == "auto":
        method = "batch" if n > AUTO_BATCH_MIN_N else "brute"
    if method not in ("brute", "grid", "batch"):
        raise ValueError(f"unknown method {method!r}")
    with obs.span("interference.node", n=n, method=method):
        obs.count(f"interference.method.{method}")
        r_eff = effective_radius(radii, rtol=rtol, atol=atol)
        if method != "brute":
            cell = _grid_cell_size(
                pos, radii, r_eff, n, counter_prefix=f"interference.{method}"
            )
            if cell is not None:
                index = GridIndex(pos, cell_size=cell)
                if method == "batch":
                    return batch_covered_counts(index, r_eff)
                counts = np.zeros(n, dtype=np.int64)
                for u in range(n):
                    # zero-radius nodes still cover nodes at distance 0
                    counts[index.query_point(u, float(r_eff[u]))] += 1
                return counts
        return _brute_counts(pos, r_eff)


def _brute_counts(pos: np.ndarray, r_eff: np.ndarray) -> np.ndarray:
    """Blocked O(n^2) pass: column sums of the covers relation."""
    counts = np.zeros(pos.shape[0], dtype=np.int64)
    for _, cols, block in cover_blocks(pos, r_eff):
        counts[cols] += block.sum(axis=0)
    return counts


def _grid_cell_size(
    pos: np.ndarray,
    radii: np.ndarray,
    r_eff: np.ndarray,
    n: int,
    *,
    counter_prefix: str = "interference.grid",
) -> float | None:
    """Cell size for the grid-backed kernels, or ``None`` when the grid
    cannot prune the instance and the caller should use brute instead.

    Shared by the scalar grid kernel, the batch kernel and the fused
    multi-instance kernel so every tier makes identical fallback choices.
    """
    positive = radii[radii > 0]
    spans = pos.max(axis=0) - pos.min(axis=0)
    span = float(spans.max())
    if positive.size == 0 or span <= 0.0:
        # no transmitters, or all points coincident: nothing for a grid to
        # prune — the vectorized pass is both correct and cheapest
        obs.count(f"{counter_prefix}.fallback_degenerate")
        return None
    # Median positive radius is a good cell size for homogeneous radii, but
    # degenerates when radii span many orders of magnitude (exponential
    # chains): clamp the implied cell count so a span-scale query can never
    # enumerate more than O(n) cells.
    cell = float(np.median(positive))
    min_cell = span / max(GRID_CELLS_PER_AXIS_SCALE * math.sqrt(n), 1.0)
    cell = min(max(cell, min_cell), span)
    # If the average query disk's bounding box covers a large fraction of
    # the instance, every query scans nearly all points regardless of cell
    # size; the brute kernel does the same scans vectorized.
    frac = np.ones(n, dtype=np.float64)
    for axis in range(2):
        if spans[axis] > 0.0:
            frac *= np.minimum(2.0 * r_eff / spans[axis], 1.0)
    if float(frac.mean()) > GRID_COVERAGE_FALLBACK:
        obs.count(f"{counter_prefix}.fallback_coverage")
        return None
    return cell


def node_interference_naive(
    topology: Topology, *, rtol: float = RTOL, atol: float = ATOL
) -> np.ndarray:
    """Pure-Python O(n^2) reference implementation (oracle/benchmark)."""
    pos = topology.positions
    radii = topology.radii
    n = topology.n
    counts = np.zeros(n, dtype=np.int64)
    for v in range(n):
        c = 0
        for u in range(n):
            if u == v:
                continue
            d = math.hypot(pos[u, 0] - pos[v, 0], pos[u, 1] - pos[v, 1])
            if d <= radii[u] * (1.0 + rtol) + atol:
                c += 1
        counts[v] = c
    return counts


def graph_interference(
    topology: Topology,
    *,
    method: str = "auto",
    rtol: float = RTOL,
    atol: float = ATOL,
) -> int:
    """``I(G') = max_v I(v)`` (Definition 3.2); 0 for the empty network.

    All options are keyword-only and validated here (a typo such as
    ``rtoll=`` raises ``TypeError`` instead of being silently swallowed
    by a ``**kwargs`` passthrough).
    """
    vec = node_interference(topology, method=method, rtol=rtol, atol=atol)
    return int(vec.max()) if vec.size else 0


def average_interference(
    topology: Topology,
    *,
    method: str = "auto",
    rtol: float = RTOL,
    atol: float = ATOL,
) -> float:
    """Mean of ``I(v)`` over all nodes — the average-case companion measure.

    The paper optimizes the maximum (Definition 3.2); the literature also
    studies the average, which by the double-counting identity equals the
    average *footprint* (nodes covered per disk). 0.0 for the empty
    network. Options are keyword-only and validated (see
    :func:`graph_interference`).
    """
    vec = node_interference(topology, method=method, rtol=rtol, atol=atol)
    return float(vec.mean()) if vec.size else 0.0


def coverage_counts(topology: Topology, *, rtol: float = RTOL, atol: float = ATOL):
    """Pairs ``(interferers, covered)``: for each node, how many others it
    is disturbed by (``I(v)``) and how many others its own disk covers.

    The second vector is the node's "footprint" — useful for diagnosing
    which nodes dominate interference (hubs in the highway constructions).
    """
    r_eff = effective_radius(topology.radii, rtol=rtol, atol=atol)
    interferers = np.zeros(topology.n, dtype=np.int64)
    covered = np.zeros(topology.n, dtype=np.int64)
    for rows, cols, block in cover_blocks(topology.positions, r_eff):
        interferers[cols] += block.sum(axis=0)
        covered[rows] += block.sum(axis=1)
    return interferers, covered
