"""The coverage predicate of Definition 3.1 — its one definition.

Node ``u`` counts in ``I(v)`` when ``v`` lies in the *closed* disk
``D(u, r_u)``. Because ``r_u`` is the distance to ``u``'s farthest
neighbour, that neighbour sits exactly on the boundary, so every layer has
to make the same boundary decision. It is made here::

    u covers v  <=>  u != v  and  hypot(x_v - x_u, y_v - y_u) <= effective_radius(r_u)
    effective_radius(r) = r * (1 + RTOL) + ATOL

The relative tolerance puts the defining neighbour strictly inside the
disk whatever rounding its distance took. It is a fixed constant, so the
decision is deterministic and a replayed stream reproduces it bit for
bit. A zero-radius node still covers nodes at distance exactly zero.

Two arithmetic forms of the one predicate live here:

- the ``hypot`` form — :func:`disk_covers`, :func:`cover_blocks`,
  :func:`covers_matrix`, :func:`covered_counts` and every static kernel.
  ``hypot`` never underflows, so denormal gaps (normalised exponential
  chains) are classified correctly;
- the squared form — :func:`squared_key`, :func:`covers_squared` and
  :func:`covers_squared_array`, used by :class:`repro.stream.StreamEngine`.
  It compares ``dx*dx + dy*dy`` against ``effective_radius**2`` with the
  same IEEE operations on Python floats and in numpy, so the engine's
  per-event and bulk paths agree bit for bit by construction. Where
  ``effective_radius**2 < 2**-1000`` the squares would underflow, so the
  test is redone after an exact power-of-two rescale.

The two forms differ only for a pair whose distance lies within a few
ulps of ``effective_radius``; the tolerance keeps every constructed
boundary (a radius equal to a neighbour distance) a billionth away from
that, and ``tests/test_coverage_parity.py`` asserts identical ``I(v)``
vectors from every layer.
"""

from __future__ import annotations

import numpy as np

#: Relative tolerance of the coverage test.
RTOL = 1e-9
#: Absolute tolerance of the coverage test. Zero on purpose: the
#: adversarial instances (normalised exponential chains) have inter-node
#: gaps far below any fixed absolute epsilon, and radii and distances come
#: from the same hypot kernel, so exact-equality cases match bitwise.
ATOL = 0.0

#: Row/column block edge of the O(n^2) passes. Blocking both axes keeps
#: the transient at two float64 blocks plus one bool block (~17 MB)
#: whatever n is.
_CHUNK = 1024

#: Squared form: below this ``effective_radius**2`` the squares may have
#: underflowed, and the test is redone rescaled.
_SQ_TINY = 2.0**-1000
#: Exact power-of-two rescale: lifts a radius below ``2**-500`` into
#: ``[2**-474, 2**100)``, where squaring is exact to rounding.
_SQ_SCALE = 2.0**600
#: Squared key of a radius whose square is below :data:`_SQ_TINY`. Any
#: pair the rescaled test accepts has ``dx*dx + dy*dy`` far below it, so
#: ``d2 <= key`` stays a valid prefilter; a hit on it is decided by
#: :func:`covers_squared`.
SQ_GUARD = 2.0**-990


def effective_radius(r, *, rtol: float = RTOL, atol: float = ATOL):
    """The distance up to which a disk of radius ``r`` covers (scalar or
    array): ``r * (1 + rtol) + atol``."""
    return r * (1.0 + rtol) + atol


def disk_covers(
    positions: np.ndarray, center, radius, *, rtol: float = RTOL, atol: float = ATOL
) -> np.ndarray:
    """Bool mask of the ``positions`` inside the closed disk
    ``D(center, radius)``. When ``center`` is one of ``positions``, its
    own entry is True; clearing it is the caller's choice."""
    d = np.hypot(positions[:, 0] - center[0], positions[:, 1] - center[1])
    return d <= effective_radius(radius, rtol=rtol, atol=atol)


def cover_blocks(positions: np.ndarray, r_eff: np.ndarray):
    """Yield ``(rows, cols, block)`` over the whole ``n x n`` relation:
    ``block[i, j]`` is whether node ``rows.start + i`` covers node
    ``cols.start + j`` under effective radii ``r_eff`` (self excluded).

    Both axes are blocked by :data:`_CHUNK`, so the transient stays at a
    block's size however large n is.
    """
    n = positions.shape[0]
    x = np.ascontiguousarray(positions[:, 0])
    y = np.ascontiguousarray(positions[:, 1])
    for rs in range(0, n, _CHUNK):
        rows = slice(rs, min(rs + _CHUNK, n))
        for cs in range(0, n, _CHUNK):
            cols = slice(cs, min(cs + _CHUNK, n))
            # per-axis deltas (never a 3-D diff); hypot in place
            d = x[rows, None] - x[None, cols]
            np.hypot(d, y[rows, None] - y[None, cols], out=d)
            block = d <= r_eff[rows, None]
            if rs == cs:
                np.fill_diagonal(block, False)
            yield rows, cols, block


def covers_matrix(
    positions, radii, *, rtol: float = RTOL, atol: float = ATOL
) -> np.ndarray:
    """Dense ``(n, n)`` bool matrix: ``[u, v]`` is True iff ``u``'s disk
    covers ``v``; the diagonal is False.

    Built block by block into the 1-byte-per-pair result, so the peak is
    ``n**2`` bytes plus one block's transient.
    """
    pos = np.asarray(positions, dtype=np.float64)
    r_eff = effective_radius(np.asarray(radii, dtype=np.float64), rtol=rtol, atol=atol)
    n = pos.shape[0]
    out = np.empty((n, n), dtype=bool)
    for rows, cols, block in cover_blocks(pos, r_eff):
        out[rows, cols] = block
    return out


def covered_counts(
    positions, radii, *, rtol: float = RTOL, atol: float = ATOL
) -> np.ndarray:
    """``I(v)`` (int64) for explicit positions and per-node radii, through
    the same brute/batch dispatch as
    :func:`repro.interference.node_interference` (``method="auto"``)."""
    from repro.interference.receiver import _counts

    pos = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
    return _counts(pos, np.asarray(radii, dtype=np.float64), "auto", rtol, atol)


# -- squared form (the stream engine's arithmetic) ---------------------------


def squared_key(re: float) -> float:
    """Per-disk prefilter key for effective radius ``re``: ``d2 <= key``
    is the whole test unless ``key == SQ_GUARD``, in which case a hit is
    decided by :func:`covers_squared`."""
    e2 = re * re
    return e2 if e2 >= _SQ_TINY else SQ_GUARD


def covers_squared(dx: float, dy: float, re: float) -> bool:
    """Scalar squared-form test ``dx*dx + dy*dy <= re*re``, rescaled by an
    exact power of two when ``re*re`` is below ``2**-1000``."""
    e2 = re * re
    if e2 < _SQ_TINY:
        dx *= _SQ_SCALE
        dy *= _SQ_SCALE
        re *= _SQ_SCALE
        e2 = re * re
    return dx * dx + dy * dy <= e2


def covers_squared_array(
    dx: np.ndarray, dy: np.ndarray, re: np.ndarray, which: np.ndarray
) -> np.ndarray:
    """Elementwise :func:`covers_squared` with the same IEEE operations:
    pair ``k`` tests ``(dx[k], dy[k])`` against the disk of effective
    radius ``re[which[k]]`` (one radius per disk, gathered per pair)."""
    e2_disk = re * re
    e2 = e2_disk[which]
    d2 = dx * dx
    d2 += dy * dy
    hit = d2 <= e2
    if e2_disk.size and e2_disk.min() < _SQ_TINY:
        tiny = np.flatnonzero(e2 < _SQ_TINY)
        sx = dx[tiny] * _SQ_SCALE
        sy = dy[tiny] * _SQ_SCALE
        sr = re[which[tiny]] * _SQ_SCALE
        # a far pair's rescaled square overflows to inf: correctly False
        with np.errstate(over="ignore"):
            hit[tiny] = sx * sx + sy * sy <= sr * sr
    return hit
