"""Seeded churn-event generator for the stream workloads.

The benchmark makes its own inputs so the program sees only generated
events. The stream is a pure function of the seed and of the sequence of
calls, so the output checks regenerate it instead of holding every event
in memory while the run is measured.
"""

from __future__ import annotations

import numpy as np


class ChurnGenerator:
    """Valid join/leave/move events over a fixed node universe.

    ``joins`` fills the universe and sets the target occupancy. ``churn``
    draws half moves; the other half are leaves while occupancy is above
    the target and joins otherwise, so occupancy stays at the target
    instead of random-walking away from it and dragging per-event cost
    with it. Nodes and positions are uniform; coordinates and radii carry
    six decimals, like the program's own generator.
    """

    def __init__(self, seed: int, *, capacity: int, side: float, r_max: float):
        from repro.api import StreamEvent

        self._event = StreamEvent
        self._rng = np.random.default_rng(seed)
        self.side = side
        self.r_max = r_max
        self._free = list(range(capacity - 1, -1, -1))
        self._alive: list[int] = []
        self._target = 0

    def joins(self, k: int) -> list:
        out = self._draw(k, fill=True)
        self._target = len(self._alive)
        return out

    def churn(self, k: int) -> list:
        return self._draw(k, fill=False)

    def _draw(self, k: int, *, fill: bool) -> list:
        rng = self._rng
        move = (rng.random(k) < 0.5).tolist()
        xy = np.round(rng.uniform(0.0, self.side, size=(k, 2)), 6).tolist()
        rr = np.round(rng.uniform(0.2, 1.0, size=k) * self.r_max, 6).tolist()
        pick = rng.random(k).tolist()
        free, alive, target = self._free, self._alive, self._target
        Event = self._event
        out = []
        append = out.append
        for i in range(k):
            n_alive = len(alive)
            if n_alive and (not free or not fill and (move[i] or n_alive > target)):
                j = int(pick[i] * n_alive)
                node = alive[j]
                if fill or move[i]:
                    x, y = xy[i]
                    append(Event("move", node, x=x, y=y))
                else:
                    alive[j] = alive[-1]
                    alive.pop()
                    free.append(node)
                    append(Event("leave", node))
            else:
                node = free.pop()
                alive.append(node)
                x, y = xy[i]
                append(Event("join", node, x=x, y=y, r=rr[i]))
        return out
