"""The coverage module itself: its squared form, the covers matrix's
memory bound, and an analytic anchor independent of every kernel."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from repro.interference.coverage import (
    SQ_GUARD,
    covers_matrix,
    covers_squared,
    covers_squared_array,
    effective_radius,
    squared_key,
)
from repro.model import unit_disk_graph
from repro.sim.slotted import SlottedAlohaSimulator

# magnitudes from the normal range down into the denormals, where an
# unscaled dx*dx underflows to 0
_mag = st.integers(-1074, 4).flatmap(
    lambda e: st.floats(0.5, 1.0).map(lambda m: math.ldexp(m, e))
)
_signed = st.tuples(_mag, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


@given(dx=_signed, dy=_signed, r=st.one_of(_mag, st.just(0.0)))
@settings(derandomize=True, database=None, max_examples=500)
def test_squared_form_matches_hypot_and_its_prefilter(dx, dy, r):
    re = effective_radius(r)
    got = covers_squared(dx, dy, re)
    # the engine's inlined fast path is the same decision
    key = squared_key(re)
    d2 = dx * dx + dy * dy
    assert (d2 <= key and (key != SQ_GUARD or covers_squared(dx, dy, re))) == got
    # the numpy form performs the same operations
    arr = covers_squared_array(
        np.array([dx]), np.array([dy]), np.array([1.0, re]), np.array([1])
    )
    assert bool(arr[0]) == got
    # and away from the boundary the squared form is the hypot form
    d = math.hypot(dx, dy)
    if abs(d - re) > 1e-12 * max(d, re):
        assert got == (d <= re)


def test_squared_form_rescales_denormal_gaps():
    gap = 2.0**-1060  # its square underflows to 0
    re = effective_radius(gap / 2)
    assert gap * gap == 0.0
    assert not covers_squared(gap, 0.0, re)
    assert covers_squared(gap / 2, 0.0, re)
    assert covers_squared(0.0, 0.0, effective_radius(0.0))
    assert not covers_squared(2.0**-1074, 0.0, effective_radius(0.0))


def test_covers_matrix_memory_is_bounded():
    """The 1-byte-per-pair result plus one block's transient — not the
    ~25 bytes per pair of a dense float64 distance matrix."""
    n, block = 4000, 1024
    rng = np.random.default_rng(0)
    pos = rng.uniform(0.0, 50.0, size=(n, 2))
    radii = rng.uniform(0.0, 1.0, size=n)
    tracemalloc.start()
    try:
        covers = covers_matrix(pos, radii)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert covers.shape == (n, n) and covers.dtype == bool
    bound = n * n + 3 * 8 * block * block
    assert peak <= bound, f"peak {peak / 1e6:.1f} MB > {bound / 1e6:.1f} MB"


@pytest.mark.parametrize("n", [5, 20])
@pytest.mark.parametrize("p", [0.05, 0.2])
def test_slotted_aloha_matches_closed_form_on_one_collision_domain(n, p):
    """n nodes on a small circle: the UDG is complete and every disk
    covers every node, so a slot delivers iff exactly one node sends —
    p-persistent slotted ALOHA, S = n p (1-p)^(n-1) per slot."""
    angles = 2.0 * math.pi * np.arange(n) / n
    pos = 0.1 * np.column_stack((np.cos(angles), np.sin(angles)))
    topo = unit_disk_graph(pos, unit=1.0)
    assert covers_matrix(topo.positions, topo.radii).sum() == n * (n - 1)
    slots = 20_000
    result = SlottedAlohaSimulator(topo, p=p).run(slots, seed=n * 100 + int(p * 100))
    s = n * p * (1 - p) ** (n - 1)
    lo, hi = binom.interval(0.99, slots, s)
    assert lo <= int(result.tx_ok.sum()) <= hi
