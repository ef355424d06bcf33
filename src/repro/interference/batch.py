"""Fused batch interference kernel — the ``method="batch"`` tier.

The scalar grid kernel answers one disk query per Python iteration; at
n >= 10^4 the per-query interpreter overhead (dict probes, per-node array
slicing) dominates the arithmetic. This module answers *all* queries of an
instance — or of a whole micro-batch of instances — in fused structured-
array passes over the CSR cell layout of
:class:`repro.geometry.spatial.GridIndex` (float64 SoA positions, cell
buckets derived from one ``argsort``): window enumeration, candidate
expansion and the ``hypot`` coverage predicate are each a single
vectorized operation over every (query, candidate) pair at once.

Equivalence contract: the predicate is byte-for-byte the brute kernel's,
the ``hypot`` form of :mod:`repro.interference.coverage`, so ``batch ==
grid == brute == naive`` bit-for-bit on every instance family (asserted
by the property and parity suites).

Backends
--------
The default backend is pure numpy (zero new dependencies). When `numba`
is importable, an optional JIT backend replaces the per-chunk expansion
with one compiled loop nest over the same CSR arrays — same IEEE
arithmetic, bit-identical counts. Selection:

- ``REPRO_BATCH_BACKEND=numpy`` forces the numpy path;
- ``REPRO_BATCH_BACKEND=numba`` requires numba (raises if missing);
- unset/``auto``: numba when importable, else numpy. A numba backend
  that fails to import or compile degrades to numpy and bumps the
  ``interference.batch.numba_fallback`` counter — the zero-dependency
  contract holds either way.
"""

from __future__ import annotations

import os

import numpy as np

from repro import obs
from repro.geometry.spatial import BatchQuery, GridIndex

__all__ = [
    "HAVE_NUMBA",
    "active_backend",
    "batch_covered_counts",
    "node_interference_many",
]


def _probe_numba() -> bool:
    try:  # pragma: no cover - exercised only where numba is installed
        import numba  # noqa: F401
    except Exception:
        return False
    return True


#: Whether the optional numba backend is importable in this environment.
HAVE_NUMBA = _probe_numba()

_NUMBA_KERNEL = None


def active_backend() -> str:
    """The backend the batch kernel will use: ``"numpy"`` or ``"numba"``.

    Resolution order: ``$REPRO_BATCH_BACKEND`` (``numpy`` / ``numba`` /
    ``auto``), then autodetection.
    """
    forced = os.environ.get("REPRO_BATCH_BACKEND", "auto").lower()
    if forced == "numpy":
        return "numpy"
    if forced == "numba":
        if not HAVE_NUMBA:
            raise RuntimeError(
                "REPRO_BATCH_BACKEND=numba but numba is not importable"
            )
        return "numba"
    if forced not in ("", "auto"):
        raise ValueError(
            f"unknown REPRO_BATCH_BACKEND {forced!r}; "
            "use numpy, numba or auto"
        )
    return "numba" if HAVE_NUMBA else "numpy"


def _numba_kernel():  # pragma: no cover - requires numba installed
    """Compile (once) and return the JIT covered-counts kernel."""
    global _NUMBA_KERNEL
    if _NUMBA_KERNEL is None:
        from numba import njit

        @njit(cache=True)
        def kernel(
            px, py, order, cell_ids, lo_x, hi_x, lo_y, hi_y, ncols, r_eff
        ):
            n = px.shape[0]
            counts = np.zeros(n, dtype=np.int64)
            for u in range(n):
                r = r_eff[u]
                x = px[u]
                y = py[u]
                for cy in range(lo_y[u], hi_y[u] + 1):
                    base = cy * ncols
                    for cx in range(lo_x[u], hi_x[u] + 1):
                        cell = base + cx
                        s = np.searchsorted(cell_ids, cell, side="left")
                        e = np.searchsorted(cell_ids, cell, side="right")
                        for t in range(s, e):
                            v = order[t]
                            if v == u:
                                continue
                            d = np.hypot(px[v] - x, py[v] - y)
                            if d <= r:
                                counts[v] += 1
            return counts

        _NUMBA_KERNEL = kernel
    return _NUMBA_KERNEL


def batch_covered_counts(index: BatchQuery, r_eff: np.ndarray) -> np.ndarray:
    """``counts[v] = |{u != v : d(u, v) <= r_eff[u]}|`` in one fused pass.

    ``index`` is any :class:`repro.geometry.spatial.BatchQuery` holding
    the instance's positions; ``r_eff`` is the per-node effective disk
    radius (tolerances already applied). This is the receiver-centric
    interference vector of the indexed point set. :class:`GridIndex`
    gets the fast CSR/numba internals; other ``BatchQuery``
    implementations run through their public ``query_pairs``, with
    identical results (the predicate is the contract).
    """
    n = len(index)
    counts = np.zeros(n, dtype=np.int64)
    if n == 0:
        return counts
    if not isinstance(index, GridIndex):
        qq, hits = index.query_pairs(index.positions, r_eff)
        keep = qq != hits
        counts += np.bincount(hits[keep], minlength=n)
        return counts
    backend = active_backend()
    if backend == "numba":  # pragma: no cover - requires numba installed
        try:
            lo_x, hi_x, lo_y, hi_y = index._query_windows(
                index.positions, r_eff
            )
            return _numba_kernel()(
                np.ascontiguousarray(index.positions[:, 0]),
                np.ascontiguousarray(index.positions[:, 1]),
                index._order,
                index._cell_ids,
                lo_x, hi_x, lo_y, hi_y,
                np.int64(index._ncols),
                np.asarray(r_eff, dtype=np.float64),
            )
        except Exception:
            obs.count("interference.batch.numba_fallback")
    for qq, hits in index._batch_hits(index.positions, r_eff):
        keep = qq != hits
        counts += np.bincount(hits[keep], minlength=n)
    return counts


def _fused_windows(pos, r_eff, origin, cell, base, ncols, max_cx, max_cy):
    """Per-point clamped windows in a *namespaced* flat-cell space."""
    span = r_eff[:, None]
    lo = np.floor((pos - span - origin) / cell)
    hi = np.floor((pos + span - origin) / cell)
    lo_x = np.maximum(lo[:, 0].astype(np.int64), 0)
    lo_y = np.maximum(lo[:, 1].astype(np.int64), 0)
    hi_x = np.minimum(hi[:, 0].astype(np.int64), max_cx)
    hi_y = np.minimum(hi[:, 1].astype(np.int64), max_cy)
    return lo_x, hi_x, lo_y, hi_y


def node_interference_many(
    topologies, *, rtol: float | None = None, atol: float | None = None
) -> list[np.ndarray]:
    """Per-node interference vectors for many instances, fused.

    The instances of one serve micro-batch are concatenated into a single
    float64 SoA with per-instance namespaced cell ids (one global argsort,
    one candidate expansion, one ``hypot`` pass, one segmented bincount),
    so a whole coalesced batch costs one array pass instead of a Python
    loop over scalar kernel calls. Results are bit-identical to calling
    :func:`repro.interference.receiver.node_interference` per instance
    (any method — the kernels agree bit-for-bit by contract).

    Instances the grid cannot prune (degenerate or high-coverage, the
    same tests the grid kernel applies) are computed with the chunked
    brute kernel instead, still inside this one call.
    """
    from repro.interference import receiver
    from repro.interference.coverage import ATOL, RTOL, effective_radius

    if rtol is None:
        rtol = RTOL
    if atol is None:
        atol = ATOL
    topologies = list(topologies)
    results: list[np.ndarray | None] = [None] * len(topologies)
    fused: list[int] = []
    preps: dict[int, tuple[float, np.ndarray]] = {}
    total_n = 0
    for i, topo in enumerate(topologies):
        if topo.n == 0:
            results[i] = np.empty(0, dtype=np.int64)
            continue
        r_eff = effective_radius(topo.radii, rtol=rtol, atol=atol)
        cell = receiver._grid_cell_size(
            topo.positions,
            topo.radii,
            r_eff,
            topo.n,
            counter_prefix="interference.batch_many",
        )
        if cell is None:
            results[i] = receiver._brute_counts(topo.positions, r_eff)
            continue
        preps[i] = (cell, r_eff)
        fused.append(i)
        total_n += topo.n
    if not fused:
        return [r for r in results]  # type: ignore[misc]

    with obs.span(
        "interference.node_many", instances=len(fused), n=total_n
    ):
        obs.count("interference.method.batch_many")
        # build the namespaced SoA: per instance an own origin/cell/ncols,
        # flat ids offset into disjoint ranges so candidates never cross
        # instances, then ONE argsort + CSR over the whole micro-batch
        pos_parts, reff_parts = [], []
        flat_parts, win_parts = [], []
        offsets = [0]
        base = 0
        for i in fused:
            topo = topologies[i]
            pos = topo.positions
            cell, r_eff = preps[i]
            origin = pos.min(axis=0)
            cells = np.floor((pos - origin) / cell).astype(np.int64)
            max_cx = int(cells[:, 0].max())
            max_cy = int(cells[:, 1].max())
            ncols = max_cx + 2
            flat_parts.append(base + cells[:, 1] * ncols + cells[:, 0])
            lo_x, hi_x, lo_y, hi_y = _fused_windows(
                pos, r_eff, origin, cell, base, ncols, max_cx, max_cy
            )
            win_parts.append((base, ncols, lo_x, hi_x, lo_y, hi_y))
            pos_parts.append(pos)
            reff_parts.append(r_eff)
            base += ncols * (max_cy + 2)
            offsets.append(offsets[-1] + topo.n)
        allpos = np.concatenate(pos_parts, axis=0)
        allreff = np.concatenate(reff_parts)
        allflat = np.concatenate(flat_parts)
        order = np.argsort(allflat, kind="stable")
        sorted_ids = allflat[order]

        # expand (query, cell) pairs across every instance at once
        lo_x = np.concatenate([w[2] for w in win_parts])
        hi_x = np.concatenate([w[3] for w in win_parts])
        lo_y = np.concatenate([w[4] for w in win_parts])
        hi_y = np.concatenate([w[5] for w in win_parts])
        bases = np.concatenate(
            [np.full(topologies[i].n, w[0], dtype=np.int64)
             for i, w in zip(fused, win_parts)]
        )
        strides = np.concatenate(
            [np.full(topologies[i].n, w[1], dtype=np.int64)
             for i, w in zip(fused, win_parts)]
        )
        wx = np.maximum(hi_x - lo_x + 1, 0)
        wy = np.maximum(hi_y - lo_y + 1, 0)
        area = wx * wy
        total = int(area.sum())
        counts = np.zeros(allpos.shape[0], dtype=np.int64)
        if total:
            reps = np.repeat(np.arange(area.size), area)
            k = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(area) - area, area
            )
            wyq = wy[reps]
            cells = (
                bases[reps]
                + (lo_y[reps] + k % wyq) * strides[reps]
                + (lo_x[reps] + k // wyq)
            )
            if base <= max(64 * total_n, 1 << 20):
                # dense per-cell lookup (same trick as GridIndex._dense_spans)
                ccnt = np.bincount(allflat, minlength=base)
                cstart = np.cumsum(ccnt) - ccnt
                s = cstart[cells]
                cnt = ccnt[cells]
            else:
                s = np.searchsorted(sorted_ids, cells, side="left")
                e = np.searchsorted(sorted_ids, cells, side="right")
                cnt = e - s
            nz = cnt > 0
            s, cnt, reps = s[nz], cnt[nz], reps[nz]
            ctotal = int(cnt.sum())
            if ctotal:
                qq = np.repeat(reps, cnt)
                t = np.arange(ctotal, dtype=np.int64) + np.repeat(
                    s - (np.cumsum(cnt) - cnt), cnt
                )
                cand = order[t]
                d = np.hypot(
                    allpos[cand, 0] - allpos[qq, 0],
                    allpos[cand, 1] - allpos[qq, 1],
                )
                keep = (d <= allreff[qq]) & (qq != cand)
                counts = np.bincount(
                    cand[keep], minlength=allpos.shape[0]
                )
        for j, i in enumerate(fused):
            results[i] = counts[offsets[j] : offsets[j + 1]]
    return [r for r in results]  # type: ignore[misc]
