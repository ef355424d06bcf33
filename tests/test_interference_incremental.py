"""Tests for the incremental interference tracker."""

import numpy as np
import pytest

from repro.geometry.generators import exponential_chain, random_udg_connected
from repro.highway.linear import linear_chain
from repro.interference.incremental import InterferenceTracker
from repro.interference.receiver import node_interference
from repro.model.topology import Topology
from repro.model.udg import unit_disk_graph
from repro.topologies import build


class TestAgainstRecompute:
    def test_from_topology_matches(self, connected_udg):
        for name in ("emst", "rng", "lmst"):
            t = build(name, connected_udg)
            tr = InterferenceTracker.from_topology(t)
            np.testing.assert_array_equal(tr.node_interference(), node_interference(t))
            assert tr.graph_interference() == int(node_interference(t).max())

    def test_exponential_chain(self):
        t = linear_chain(exponential_chain(30))
        tr = InterferenceTracker.from_topology(t)
        np.testing.assert_array_equal(tr.node_interference(), node_interference(t))

    def test_incremental_growth_sequence(self):
        """Grow radii step by step; every intermediate state must match a
        from-scratch recompute with the same radii."""
        pos = random_udg_connected(25, side=2.0, seed=3)
        rng = np.random.default_rng(0)
        tr = InterferenceTracker(pos)
        radii = np.zeros(25)
        for _ in range(60):
            u = int(rng.integers(25))
            r = float(rng.uniform(0, 2.0))
            tr.set_radius(u, r)
            radii[u] = r
            ref = _reference_counts(pos, radii, active=np.ones(25, bool))
            np.testing.assert_array_equal(tr.node_interference(), ref)

    def test_shrinkage(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        tr = InterferenceTracker(pos)
        tr.set_radius(0, 2.0)
        assert tr.node_interference().tolist() == [0, 1, 1]
        tr.set_radius(0, 1.0)
        assert tr.node_interference().tolist() == [0, 1, 0]
        tr.set_radius(0, 0.5)
        assert tr.node_interference().tolist() == [0, 0, 0]

    def test_deactivate(self):
        pos = np.array([[0.0, 0.0], [0.5, 0.0]])
        tr = InterferenceTracker(pos)
        tr.set_radius(0, 1.0)
        assert tr.interference_of(1) == 1
        tr.deactivate(0)
        assert tr.interference_of(1) == 0
        assert tr.radii[0] == 0.0

    def test_radius_zero_active_covers_coincident(self):
        """An active node with radius 0 covers coincident nodes — matching
        the Topology semantics of an edge between coincident points."""
        pos = np.array([[0.0, 0.0], [0.0, 0.0]])
        tr = InterferenceTracker(pos)
        tr.set_radius(0, 0.0)
        assert tr.interference_of(1) == 1


class TestInterleavedProperty:
    """Randomized property: any interleaving of grows, shrinks, grow_to and
    deactivations leaves the tracker equal to a from-scratch receiver-style
    recomputation — the invariant the churn engine depends on."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_interleaved_ops_match_recompute(self, seed):
        n = 20
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0.0, 3.0, size=(n, 2))
        tr = InterferenceTracker(pos)
        radii = np.zeros(n)
        active = np.zeros(n, dtype=bool)
        for step in range(120):
            u = int(rng.integers(n))
            op = rng.random()
            if op < 0.4:  # grow or shrink to an arbitrary radius
                r = float(rng.uniform(0.0, 3.5))
                tr.set_radius(u, r)
                radii[u], active[u] = r, True
            elif op < 0.7:  # monotone grow (the a_exp/churn fast path)
                r = float(rng.uniform(0.0, 3.5))
                tr.grow_to(u, r)
                if not active[u] or r > radii[u]:
                    radii[u], active[u] = r, True
            else:  # node drops all edges
                tr.deactivate(u)
                radii[u], active[u] = 0.0, False
            if step % 10 == 0 or step == 119:
                ref = _reference_counts(pos, radii, active)
                np.testing.assert_array_equal(tr.node_interference(), ref)
                assert tr.graph_interference() == int(ref.max())
        # final full check plus peek_max_after must not have mutated state
        before = tr.node_interference()
        tr.peek_max_after([(0, 1.0), (1, 0.0)])
        np.testing.assert_array_equal(tr.node_interference(), before)

    @pytest.mark.parametrize("seed", [10, 11])
    def test_matches_receiver_on_reconstructed_topology(self, seed):
        """When the tracked radii are realisable by an edge set (distances
        to farthest chosen neighbours), the tracker agrees with
        node_interference on that Topology exactly."""
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0.0, 2.5, size=(15, 2))
        edges = set()
        for u in range(15):
            v = int(rng.integers(15))
            if v != u:
                edges.add((min(u, v), max(u, v)))
        t = Topology(pos, np.array(sorted(edges), dtype=np.int64))
        tr = InterferenceTracker(pos)
        order = rng.permutation(15)
        for u in map(int, order):
            if t.degrees[u] > 0:
                tr.set_radius(u, float(t.radii[u]))
        np.testing.assert_array_equal(tr.node_interference(), node_interference(t))


def _reference_counts(pos, radii, active):
    t = Topology(pos, ())
    counts = np.zeros(len(pos), dtype=np.int64)
    for u in range(len(pos)):
        if not active[u]:
            continue
        d = np.hypot(*(pos - pos[u]).T)
        mask = d <= radii[u] * (1 + 1e-9)
        mask[u] = False
        counts[mask] += 1
    return counts


class TestApi:
    def test_grow_to_monotone(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        tr = InterferenceTracker(pos)
        tr.grow_to(0, 1.0)
        tr.grow_to(0, 0.5)  # no-op
        assert tr.radii[0] == 1.0
        tr.grow_to(0, 3.0)
        assert tr.node_interference().tolist() == [0, 1, 1]

    def test_initial_radii_argument(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        tr = InterferenceTracker(pos, radii=[1.0, 1.0])
        assert tr.graph_interference() == 1

    def test_load_radii(self, connected_udg):
        t = build("emst", connected_udg)
        tr = InterferenceTracker(t.positions)
        tr.load_radii(t.radii, active=t.degrees > 0)
        np.testing.assert_array_equal(tr.node_interference(), node_interference(t))

    def test_load_radii_default_keeps_zero_radius_active(self):
        """Every node is alive unless ``active`` says otherwise: radius 0
        still covers a coincident node, as in ``node_interference``."""
        pos = np.array([[0.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
        tr = InterferenceTracker(pos)
        tr.load_radii([0.0, 0.0, 0.0])
        assert tr.node_interference().tolist() == [1, 1, 0]
        tr.load_radii([0.0, 0.0, 0.0], active=[True, False, True])
        assert tr.node_interference().tolist() == [0, 1, 0]
        isolated = Topology(pos, np.empty((0, 2), dtype=np.int64))
        np.testing.assert_array_equal(
            InterferenceTracker.from_topology(isolated).node_interference(),
            node_interference(isolated),
        )

    def test_copy_independent(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        a = InterferenceTracker(pos)
        a.set_radius(0, 1.0)
        b = a.copy()
        b.set_radius(1, 1.0)
        assert a.interference_of(0) == 0
        assert b.interference_of(0) == 1

    def test_negative_radius_rejected(self):
        tr = InterferenceTracker(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            tr.set_radius(0, -1.0)
