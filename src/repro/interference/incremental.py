"""Incrementally maintained receiver-centric interference.

Recomputing ``I(v)`` from scratch costs O(n^2); topology-search algorithms
(A_exp's scan line, the 2-D local search of :mod:`repro.extensions`) change
one radius at a time, which only moves coverage inside a single annulus.
:class:`InterferenceTracker` maintains per-node coverage counts under
radius changes in O(n) per update, in both directions (growth *and*
shrinkage, unlike the one-shot bookkeeping inside ``a_exp``).

The tracker is deliberately radius-centric: interference depends on the
edge set only through each node's farthest-neighbour radius, and coverage
is the one predicate of :mod:`repro.interference.coverage`.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.interference.coverage import ATOL, RTOL, disk_covers
from repro.model.topology import Topology
from repro.utils import check_positions, check_radii


class InterferenceTracker:
    """Coverage counts over a fixed point set with mutable radii.

    Parameters
    ----------
    positions:
        ``(n, 2)`` node coordinates (fixed for the tracker's lifetime).
    radii:
        Optional initial radius vector (defaults to all zeros).
    """

    def __init__(self, positions, radii=None, *, rtol: float = RTOL, atol: float = ATOL):
        self.positions = check_positions(positions)
        self.n = self.positions.shape[0]
        self._rtol = float(rtol)
        self._atol = float(atol)
        self._radii = np.zeros(self.n, dtype=np.float64)
        self._counts = np.zeros(self.n, dtype=np.int64)
        #: alive nodes. An active node covers by its radius, so at radius 0
        #: it still covers a coincident node, as in the static kernels; an
        #: inactive one (departed, or not yet joined) covers nobody
        self._active = np.zeros(self.n, dtype=bool)
        if radii is not None:
            self.load_radii(radii)

    # -- queries ---------------------------------------------------------
    @property
    def radii(self) -> np.ndarray:
        return self._radii.copy()

    def node_interference(self) -> np.ndarray:
        """Current per-node interference vector (a copy)."""
        return self._counts.copy()

    def graph_interference(self) -> int:
        return int(self._counts.max()) if self.n else 0

    def interference_of(self, v: int) -> int:
        return int(self._counts[v])

    # -- updates -----------------------------------------------------------
    def _covered_by(self, u: int, radius: float, active: bool) -> np.ndarray:
        if not active:
            return np.zeros(self.n, dtype=bool)
        mask = disk_covers(
            self.positions, self.positions[u], radius,
            rtol=self._rtol, atol=self._atol,
        )
        mask[u] = False
        return mask

    def set_radius(self, u: int, radius: float) -> None:
        """Set ``r_u`` to an arbitrary non-negative value; O(n)."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        obs.count("tracker.updates")
        old = self._covered_by(u, self._radii[u], self._active[u])
        new = self._covered_by(u, radius, True)
        self._counts[new & ~old] += 1
        self._counts[old & ~new] -= 1
        self._radii[u] = radius
        self._active[u] = True

    def deactivate(self, u: int) -> None:
        """Remove ``u`` (a departed node): it covers nobody."""
        obs.count("tracker.updates")
        old = self._covered_by(u, self._radii[u], self._active[u])
        self._counts[old] -= 1
        self._radii[u] = 0.0
        self._active[u] = False

    def grow_to(self, u: int, radius: float) -> None:
        """Raise ``r_u`` to ``radius`` if larger (no-op otherwise)."""
        if not self._active[u] or radius > self._radii[u]:
            self.set_radius(u, radius)

    def peek_max_after(self, changes) -> int:
        """Hypothetical ``I(G)`` after applying ``changes`` without mutating.

        ``changes`` is an iterable of ``(node, new_radius)`` pairs (later
        entries override earlier ones for the same node). O(n) per change.
        """
        obs.count("tracker.peeks")
        counts = self._counts.copy()
        pending: dict[int, float] = {}
        for u, r in changes:
            if r < 0:
                raise ValueError("radius must be non-negative")
            pending[int(u)] = float(r)
        for u, r in pending.items():
            old = self._covered_by(u, self._radii[u], self._active[u])
            new = self._covered_by(u, r, True)
            counts[new & ~old] += 1
            counts[old & ~new] -= 1
        return int(counts.max()) if counts.size else 0

    # -- bulk -----------------------------------------------------------------
    @classmethod
    def from_topology(cls, topology: Topology, **kwargs) -> "InterferenceTracker":
        """Every node active at its radius (0 for a degree-0 node)."""
        return cls(topology.positions, topology.radii, **kwargs)

    def load_radii(self, radii, active=None) -> None:
        """Replace the whole radius vector (O(n^2) total); ``active``
        (default: every node) marks the alive nodes, the rest are
        deactivated."""
        radii = check_radii(radii, self.n)
        for u in range(self.n):
            if active is None or active[u]:
                self.set_radius(u, float(radii[u]))
            else:
                self.deactivate(u)

    def copy(self) -> "InterferenceTracker":
        out = InterferenceTracker.__new__(InterferenceTracker)
        out.positions = self.positions
        out.n = self.n
        out._rtol = self._rtol
        out._atol = self._atol
        out._radii = self._radii.copy()
        out._counts = self._counts.copy()
        out._active = self._active.copy()
        return out
