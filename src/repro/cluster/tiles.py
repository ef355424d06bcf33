"""Plane tiling for the shard cluster: ownership, ghosts, region routing.

A :class:`TileGrid` partitions the plane into ``nx * ny`` rectangular
tiles along two sorted cut arrays — the same row-major flat keying as
:class:`repro.geometry.spatial.GridIndex` cells (``tile = ty * nx + tx``),
generalized to non-uniform cuts so a clustered instance can be balanced
by coordinate quantiles.

Ownership is a *total partition*: interior boundaries are half-open
(``[cut, next_cut)``) and edge tiles extend to infinity, so every point
in the plane is owned by exactly one tile — no node is ever dropped or
double-counted regardless of where instances land relative to the cuts.

Ghost regions
-------------
A shard owning tile ``T`` additionally replicates every node within
``ghost`` of ``T`` (closed-rectangle distance). The exactness invariant
(proved in ``docs/SHARDING.md``): with per-node radii bounded by the UDG
``unit``, any node whose disk can cover an owned node lies within
``r_cov = unit * (1 + rtol) + atol`` of the tile, and *its* radius is
determined by neighbors within a further ``unit`` — so

    ``ghost >= unit * (1 + rtol) + atol + unit``

guarantees the shard-local interference counts of owned nodes are
bit-identical to the global computation. Routers fall back to
single-shard execution for requests whose ``unit`` would violate this
bound, so a too-small ghost margin costs parallelism, never correctness.
"""

from __future__ import annotations

import numpy as np


def required_ghost(unit: float, *, rtol: float | None = None,
                   atol: float | None = None) -> float:
    """The exactness bound: ghost >= cover reach + one more UDG hop.

    ``unit * (1 + rtol) + atol`` is the farthest any node's disk can
    reach (radii are bounded by the UDG unit); one more ``unit`` covers
    the reaching node's own neighborhood, so its radius is computed from
    the full (global) neighbor set.
    """
    from repro.interference.coverage import ATOL, RTOL, effective_radius

    return effective_radius(
        unit,
        rtol=RTOL if rtol is None else rtol,
        atol=ATOL if atol is None else atol,
    ) + unit


def factor_tiles(k: int) -> tuple[int, int]:
    """Near-square ``(nx, ny)`` with ``nx * ny == k`` and ``nx >= ny``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ny = int(np.sqrt(k))
    while ny > 1 and k % ny:
        ny -= 1
    return k // ny, ny


class TileGrid:
    """Rectangular tiling of the plane (see the module docstring).

    Parameters
    ----------
    xs, ys:
        Sorted cut arrays of ``nx + 1`` / ``ny + 1`` finite coordinates.
        Interior cuts split ownership half-open; the outermost cuts are
        nominal (edge tiles own everything beyond them).
    ghost:
        Ghost-margin width replicated around each tile (>= 0).
    """

    def __init__(self, xs, ys, *, ghost: float):
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.ndim != 1 or ys.ndim != 1 or xs.size < 2 or ys.size < 2:
            raise ValueError("xs and ys must be 1-D cut arrays of >= 2 cuts")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("cuts must be finite")
        if np.any(np.diff(xs) < 0) or np.any(np.diff(ys) < 0):
            raise ValueError("cuts must be sorted ascending")
        if not np.isfinite(ghost) or ghost < 0:
            raise ValueError("ghost must be a finite non-negative number")
        self.xs = xs
        self.ys = ys
        self.ghost = float(ghost)

    @property
    def nx(self) -> int:
        return self.xs.size - 1

    @property
    def ny(self) -> int:
        return self.ys.size - 1

    @property
    def k(self) -> int:
        """Total tile (= shard) count."""
        return self.nx * self.ny

    @classmethod
    def uniform(cls, bounds, k: int, *, ghost: float) -> "TileGrid":
        """Evenly cut ``bounds = (x0, y0, x1, y1)`` into ``k`` tiles
        (near-square ``nx x ny`` factorization)."""
        x0, y0, x1, y1 = (float(b) for b in bounds)
        if not (x0 < x1 and y0 < y1):
            raise ValueError("bounds must satisfy x0 < x1 and y0 < y1")
        nx, ny = factor_tiles(k)
        return cls(
            np.linspace(x0, x1, nx + 1),
            np.linspace(y0, y1, ny + 1),
            ghost=ghost,
        )

    @classmethod
    def balanced(cls, positions, k: int, *, ghost: float) -> "TileGrid":
        """Cut at marginal coordinate quantiles, so clustered instances
        spread roughly evenly across tiles."""
        pos = np.asarray(positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] == 0:
            raise ValueError("positions must be a non-empty (n, 2) array")
        nx, ny = factor_tiles(k)
        return cls(
            np.quantile(pos[:, 0], np.linspace(0.0, 1.0, nx + 1)),
            np.quantile(pos[:, 1], np.linspace(0.0, 1.0, ny + 1)),
            ghost=ghost,
        )

    # -- ownership ----------------------------------------------------------

    def _axis_of(self, coords: np.ndarray, cuts: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(cuts, coords, side="right") - 1
        return np.clip(idx, 0, cuts.size - 2)

    def tile_of(self, positions) -> np.ndarray:
        """Owning tile index per point (int64; total partition)."""
        pos = np.asarray(positions, dtype=np.float64)
        tx = self._axis_of(pos[:, 0], self.xs)
        ty = self._axis_of(pos[:, 1], self.ys)
        return ty * self.nx + tx

    def tile_bounds(self, tile: int) -> tuple[float, float, float, float]:
        """Owned region of ``tile`` as ``(x0, y0, x1, y1)``; edge tiles
        extend to +-inf (ownership is a partition of the whole plane)."""
        if not 0 <= tile < self.k:
            raise ValueError(f"tile must lie in [0, {self.k})")
        tx, ty = tile % self.nx, tile // self.nx
        x0 = -np.inf if tx == 0 else float(self.xs[tx])
        x1 = np.inf if tx == self.nx - 1 else float(self.xs[tx + 1])
        y0 = -np.inf if ty == 0 else float(self.ys[ty])
        y1 = np.inf if ty == self.ny - 1 else float(self.ys[ty + 1])
        return x0, y0, x1, y1

    def tile_distance(self, positions, tile: int) -> np.ndarray:
        """Euclidean distance from each point to ``tile``'s owned region
        (closed rectangle; 0 inside). Inclusive closure only ever *adds*
        ghost nodes, which never hurts exactness."""
        pos = np.asarray(positions, dtype=np.float64)
        x0, y0, x1, y1 = self.tile_bounds(tile)
        dx = np.maximum(np.maximum(x0 - pos[:, 0], pos[:, 0] - x1), 0.0)
        dy = np.maximum(np.maximum(y0 - pos[:, 1], pos[:, 1] - y1), 0.0)
        return np.hypot(dx, dy)

    def ghost_mask(self, positions, tile: int) -> np.ndarray:
        """Mask of points a shard of ``tile`` must replicate: owned nodes
        plus everything within ``ghost`` of the tile (inclusive)."""
        return self.tile_distance(positions, tile) <= self.ghost

    def tiles_overlapping(self, region) -> tuple[int, ...]:
        """Tiles whose owned area intersects the closed rectangle
        ``region = (x0, y0, x1, y1)`` — the owner set a region query must
        scatter to."""
        x0, y0, x1, y1 = (float(b) for b in region)
        if not (x0 <= x1 and y0 <= y1):
            raise ValueError("region must satisfy x0 <= x1 and y0 <= y1")
        tx0 = int(self._axis_of(np.array([x0]), self.xs)[0])
        tx1 = int(self._axis_of(np.array([x1]), self.xs)[0])
        ty0 = int(self._axis_of(np.array([y0]), self.ys)[0])
        ty1 = int(self._axis_of(np.array([y1]), self.ys)[0])
        return tuple(
            ty * self.nx + tx
            for ty in range(ty0, ty1 + 1)
            for tx in range(tx0, tx1 + 1)
        )

    # -- wire form ----------------------------------------------------------

    def to_jsonable(self) -> dict:
        return {
            "xs": [float(x) for x in self.xs],
            "ys": [float(y) for y in self.ys],
            "ghost": self.ghost,
        }

    @classmethod
    def from_jsonable(cls, payload: dict) -> "TileGrid":
        if not isinstance(payload, dict):
            raise ValueError("tile grid spec must be an object")
        try:
            return cls(payload["xs"], payload["ys"], ghost=payload["ghost"])
        except KeyError as exc:
            raise ValueError(f"tile grid spec missing {exc.args[0]!r}") from exc

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TileGrid)
            and np.array_equal(self.xs, other.xs)
            and np.array_equal(self.ys, other.ys)
            and self.ghost == other.ghost
        )

    def __repr__(self) -> str:
        return (
            f"TileGrid(nx={self.nx}, ny={self.ny}, ghost={self.ghost}, "
            f"x=[{self.xs[0]:g}..{self.xs[-1]:g}], "
            f"y=[{self.ys[0]:g}..{self.ys[-1]:g}])"
        )
