"""Cross-layer parity of the coverage predicate (Definition 3.1).

Every path that computes the receiver-centric interference ``I(v)`` must
return the identical int64 vector on the same instance:

- the static kernels, every ``method``, and ``node_interference_many``;
- ``coverage_counts`` and the ``covers_matrix`` column sums;
- ``InterferenceTracker.from_topology`` and ``ChurnEngine``'s initial
  counts;
- ``StreamEngine`` fed ``join`` events with radius = farthest-neighbour
  distance, through per-event ``apply`` and through the bulk tier of
  ``apply_many``;
- single-process serve and an in-process ``ShardCluster``, k in {1, 4}.

The instances are the cases where agreement breaks: every node's radius
equals a neighbour distance by construction, lattices add ties with
non-neighbours, coincident nodes sit at distance zero, and normalised
exponential chains reach denormal gaps (the squares underflow there).
"""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import ChurnEngine, ChurnSchedule
from repro.geometry.generators import (
    exponential_chain,
    grid_points,
    random_udg_connected,
    two_exponential_chains,
)
from repro.highway import a_exp, linear_chain
from repro.interference import (
    InterferenceTracker,
    coverage_counts,
    node_interference,
    node_interference_many,
)
from repro.interference.coverage import covers_matrix
from repro.model import unit_disk_graph
from repro.serve import InterferenceServer, ServeConfig
from repro.serve.client import ServeClient
from repro.serve.shard import ClusterConfig, ShardCluster
from repro.stream import StreamConfig, StreamEngine, StreamEvent
from repro.topologies import build

ALGORITHMS = ("nnf", "emst", "gabriel", "xtc")
PARITY = settings(derandomize=True, database=None, deadline=None, max_examples=20)


def _joins(topo):
    return [
        StreamEvent("join", i, x=x, y=y, r=r)
        for i, ((x, y), r) in enumerate(
            zip(topo.positions.tolist(), topo.radii.tolist())
        )
    ]


def _stream_engines(topo):
    """The same joins through per-event ``apply`` and through the bulk
    tier (called directly: its density gate would send small batches to
    the scalar loop)."""
    config = StreamConfig(
        capacity=topo.n, r_max=max(float(topo.radii.max()), 1e-9)
    )
    events = _joins(topo)
    per_event = StreamEngine(config)
    for event in events:
        per_event.apply(event)
    bulk = StreamEngine(config)
    bulk.apply(events[0])
    assert bulk._apply_many_bulk(events[1:]) is not None
    return per_event, bulk


def interference_paths(topo) -> dict[str, np.ndarray]:
    out = {
        f"node_interference[{m}]": node_interference(topo, method=m)
        for m in ("auto", "brute", "grid", "batch")
    }
    out["node_interference_many"] = node_interference_many([topo, topo])[1]
    out["coverage_counts"] = coverage_counts(topo)[0]
    out["covers_matrix"] = covers_matrix(topo.positions, topo.radii).sum(axis=0)
    out["tracker"] = InterferenceTracker.from_topology(topo).node_interference()
    churn = ChurnEngine(topo, ChurnSchedule(events=()))
    out["churn"] = churn.tracker.node_interference()
    per_event, bulk = _stream_engines(topo)
    assert per_event.state_digest() == bulk.state_digest()
    out["stream.apply"] = per_event.node_interference()
    out["stream.apply_many"] = bulk.node_interference()
    out["stream.recompute_counts"] = bulk.recompute_counts()
    return out


def assert_parity(topo) -> None:
    paths = interference_paths(topo)
    want = paths.pop("node_interference[brute]")
    assert want.dtype == np.int64
    for name, got in paths.items():
        got = np.asarray(got)
        diff = np.flatnonzero(got != want)
        assert diff.size == 0, (
            f"{name} differs from the brute kernel on {diff.size} of "
            f"{topo.n} nodes (first {diff[:5].tolist()})"
        )


def _random_udg(n, seed):
    return random_udg_connected(n, side=(n / 6.0) ** 0.5, seed=seed)


@given(
    n=st.integers(2, 80),
    seed=st.integers(0, 2**16),
    algorithm=st.sampled_from(ALGORITHMS),
)
@PARITY
def test_registry_topologies_on_random_udgs(n, seed, algorithm):
    udg = unit_disk_graph(_random_udg(n, seed), unit=1.0)
    assert_parity(build(algorithm, udg))


@given(
    n=st.integers(2, 40),
    copies=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    algorithm=st.sampled_from(("nnf", "emst", "xtc")),
)
@PARITY
def test_coincident_nodes(n, copies, seed, algorithm):
    """Zero-length edges: a node whose only neighbour is its twin has
    radius 0 and still covers that twin. (Gabriel is left out: it drops
    every edge at a coincident pair, and the tracker treats a degree-0
    node as silent where the radius-only layers let radius 0 cover
    distance 0.)"""
    pos = _random_udg(n, seed)
    rng = np.random.default_rng(seed)
    dup = pos[rng.integers(0, n, size=copies)]
    udg = unit_disk_graph(np.concatenate([pos, dup]), unit=1.0)
    topo = build(algorithm, udg)
    assert topo.degrees.min() > 0
    assert_parity(topo)


@given(
    rows=st.integers(1, 8),
    cols=st.integers(2, 8),
    unit=st.sampled_from([1.0, 1.5, 2.0, 2.5]),
    algorithm=st.sampled_from(ALGORITHMS),
)
@PARITY
def test_lattice_radius_equal_to_a_distance(rows, cols, unit, algorithm):
    """Integer lattices: many non-neighbours sit at exactly a node's
    radius, the closed-disk boundary every layer must include."""
    udg = unit_disk_graph(grid_points(rows, cols), unit=unit)
    assert_parity(build(algorithm, udg))


@given(m=st.integers(2, 14), algorithm=st.sampled_from(ALGORITHMS))
@PARITY
def test_two_exponential_chains(m, algorithm):
    pos, _ = two_exponential_chains(m)
    span = float(np.ptp(pos, axis=0).max())
    udg = unit_disk_graph(pos, unit=2.0 * span)
    assert_parity(build(algorithm, udg))


@pytest.mark.parametrize("n", [2, 64, 500, 600, 1024])
@pytest.mark.parametrize("construction", [a_exp, linear_chain])
def test_normalised_exponential_chains(n, construction):
    """Gaps shrink to denormals near n = 1024, where dx*dx underflows to 0:
    an unscaled squared test in the stream engine gets 996 of the 2048
    nodes of A_exp + linear chain at n = 1024 wrong, per event and in
    bulk alike."""
    assert_parity(construction(exponential_chain(n)))


# -- serve and shard cluster --------------------------------------------------

SIDE = 8.0
UNIT = 1.0


def _serve_instances():
    rng = np.random.default_rng(3)
    uniform = rng.uniform(0.0, SIDE, size=(240, 2))
    coincident = np.concatenate([uniform[:120], uniform[:30]])
    lattice = grid_points(12, 12, spacing=0.5)
    # algorithm None is the bare UDG, which the k=4 cluster fans out
    udg_and_registry = (None, *ALGORITHMS)
    return {
        "uniform": (uniform, udg_and_registry),
        "coincident": (coincident, udg_and_registry),
        "lattice": (lattice, udg_and_registry),
        "exp_chain": (exponential_chain(600), ("a_exp", "linear_chain")),
    }


async def _answers(instances):
    """``{(instance, algorithm): {"single": vec, "k1": vec, "k4": vec}}``."""
    server = InterferenceServer(
        ServeConfig(executor="thread", workers=1, max_line_bytes=16_000_000)
    )
    await server.start()
    endpoints = {"single": server.port}
    clusters = []
    try:
        for k in (1, 4):
            cluster = ShardCluster(ClusterConfig(
                shards=k, worker_mode="inprocess",
                bounds=(0.0, 0.0, SIDE, SIDE), ghost=2.5,
            ))
            await cluster.start()
            clusters.append(cluster)
            endpoints[f"k{k}"] = cluster.port
        out = {}
        for label, port in endpoints.items():
            client = await ServeClient.connect(port=port, limit=16_000_000)
            try:
                for name, (pos, algorithms) in instances.items():
                    for algorithm in algorithms:
                        params = {
                            "positions": pos.tolist(), "unit": UNIT,
                            "measure": "node", "algorithm": algorithm,
                        }
                        result = await client.request("interference", params)
                        out.setdefault((name, algorithm), {})[label] = result["value"]
            finally:
                await client.close()
        return out
    finally:
        for cluster in clusters:
            await cluster.stop()
        await server.stop()


def test_serve_and_shard_cluster_parity():
    instances = _serve_instances()
    answers = asyncio.run(_answers(instances))
    for (name, algorithm), by_endpoint in answers.items():
        topo = unit_disk_graph(instances[name][0], unit=UNIT)
        if algorithm is not None:
            topo = build(algorithm, topo)
        want = node_interference(topo).tolist()
        assert set(by_endpoint) == {"single", "k1", "k4"}
        for label, got in by_endpoint.items():
            assert got == want, (name, algorithm, label)
