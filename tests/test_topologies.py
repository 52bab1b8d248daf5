"""Unit tests for the synthetic King matrix and GT-ITM topologies."""

import math
import random

import numpy as np
import pytest

from repro.analysis.stats import LookupStats
from repro.chord.columnar import ColumnarEngine
from repro.chord.config import OverlayConfig
from repro.chord.lookup import LookupStyle
from repro.ids.idspace import IdSpace
from repro.net import (
    GtItmConfig,
    MatrixBandwidth,
    MatrixLatency,
    gtitm_topology,
    king_matrix,
    transfer_delay,
)
from repro.net.king import KingCoordinates
from repro.net.network import Network
from repro.sim import RngRegistry, Simulator


# -- latency model basics ---------------------------------------------------------


def test_matrix_latency_validation():
    with pytest.raises(ValueError):
        MatrixLatency(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        MatrixLatency(np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_matrix_bandwidth_validation():
    with pytest.raises(ValueError):
        MatrixBandwidth(np.zeros((2, 2)))


def test_transfer_delay():
    assert transfer_delay(1000, 0.1, None) == pytest.approx(0.1)
    assert transfer_delay(1000, 0.1, 10000.0) == pytest.approx(0.2)


# -- King ----------------------------------------------------------------------------


def test_king_mean_rtt_calibrated():
    model = king_matrix(num_hosts=120, mean_rtt_s=0.198, seed=1)
    assert model.mean_rtt() == pytest.approx(0.198, rel=1e-6)


def test_king_zero_self_latency():
    model = king_matrix(num_hosts=50, seed=2)
    for i in range(50):
        assert model.latency(i, i) == 0.0


def test_king_latencies_positive_between_distinct_hosts():
    model = king_matrix(num_hosts=50, seed=3)
    m = model.matrix
    off_diag = m[~np.eye(50, dtype=bool)]
    assert (off_diag > 0).all()


def test_king_is_asymmetric_like_real_measurements():
    model = king_matrix(num_hosts=30, seed=4)
    m = model.matrix
    assert not np.allclose(m, m.T)


def test_king_deterministic_per_seed():
    a = king_matrix(num_hosts=20, seed=5).matrix
    b = king_matrix(num_hosts=20, seed=5).matrix
    c = king_matrix(num_hosts=20, seed=6).matrix
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_king_rejects_tiny_population():
    with pytest.raises(ValueError):
        king_matrix(num_hosts=1)


def _bits(values):
    return [float(v).hex() for v in values]


def _king_oracle(model, a, b):
    """One-way King delay ``a -> b`` as the model defines it: Euclidean
    distance summed in dimension order, times out[a] x in[b], floored,
    then scaled."""
    if a == b:
        return 0.0
    total = 0.0
    for x, y in zip(model._points[a], model._points[b]):
        total += (x - y) * (x - y)
    one_way = math.sqrt(total) * model._out[a] * model._in[b]
    return max(one_way, model.floor_s) * model._scale


@pytest.mark.parametrize(
    "kwargs",
    [
        {},  # the default five-dimensional geography
        {"dimensions": 3},
        {"floor_s": 0.8},  # over half the pairs clamped to the floor
    ],
)
def test_king_coordinates_pair_is_both_memoised_latencies(kwargs):
    """``pair(a, b)`` is ``(latency(a, b), latency(b, a))`` bit for bit,
    and both equal the model's formula computed per direction: on random
    pairs, on floor-clamped ones and on ``a == b``."""
    n = 300
    model = KingCoordinates(n, seed=7, **kwargs)
    reference = KingCoordinates(n, seed=7, **kwargs)  # its memo fills
    rng = random.Random(1)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(2000)]
    pairs += [(a, a) for a in range(0, n, 17)]
    for a, b in pairs:
        expected = _bits((_king_oracle(model, a, b), _king_oracle(model, b, a)))
        assert _bits(model.pair(a, b)) == expected, (a, b)
        assert _bits((reference.latency(a, b), reference.latency(b, a))) == expected, (a, b)
    assert not model._cache
    assert reference._cache
    clamped = sum(
        min(model.pair(a, b)) == model.floor_s * model._scale for a, b in pairs if a != b
    )
    if "floor_s" in kwargs:
        assert clamped > len(pairs) // 2
    assert model.pair(5, 5) == (0.0, 0.0)


def test_columnar_engine_leaves_the_king_memo_empty():
    """The columnar engine carries each hop's reverse latency instead of
    memoising pairs: after a run with lookups, churn and maintenance,
    the model's own memo (Network.send's) is still empty."""
    nodes = 64
    rngs = RngRegistry(5)
    sim = Simulator()
    model = KingCoordinates(nodes, seed=rngs.stream("king").randrange(2**31))
    engine = ColumnarEngine(sim, Network(sim, model), OverlayConfig(space=IdSpace(64)))
    engine.build(nodes, rngs)
    engine.start_churn(rngs.stream("churn"), 300.0)
    stats = LookupStats()
    engine.start_workload(rngs.stream("workload"), LookupStyle.RECURSIVE, 2.0, stats, 0.0)
    engine.run(240.0)
    assert stats.successes > 0 and engine.deaths > 0
    assert model._cache == {}


# -- GT-ITM ----------------------------------------------------------------------------


@pytest.fixture(scope="module")
def topo():
    return gtitm_topology(GtItmConfig(num_hosts=80, seed=7))


def test_gtitm_matrices_cover_hosts(topo):
    assert topo.latency.num_hosts == 80
    assert topo.bandwidth.num_hosts == 80


def test_gtitm_latency_symmetric_zero_diagonal(topo):
    m = topo.latency.matrix
    assert np.allclose(np.diag(m), 0.0)
    assert np.allclose(m, m.T)


def test_gtitm_connected(topo):
    m = topo.latency.matrix
    off_diag = m[~np.eye(m.shape[0], dtype=bool)]
    assert np.isfinite(off_diag).all()
    assert (off_diag > 0).all()


def test_gtitm_bandwidth_is_min_of_up_and_down(topo):
    for a, b in [(0, 1), (3, 40), (79, 2)]:
        expected = min(topo.host_up_bw[a], topo.host_down_bw[b])
        assert topo.bandwidth.bandwidth(a, b) == pytest.approx(expected)


def test_gtitm_bandwidth_asymmetric_links_exist(topo):
    bw = np.array(
        [[topo.bandwidth.bandwidth(a, b) for b in range(10)] for a in range(10)]
    )
    assert not np.allclose(bw, bw.T)


def test_gtitm_hosts_attach_to_stub_routers(topo):
    for router in topo.host_router:
        assert router[0] == "s"


def test_gtitm_router_count_matches_config(topo):
    cfg = topo.config
    transit = cfg.transit_domains * cfg.transit_nodes_per_domain
    assert len(topo.router_graph) == transit + cfg.num_stub_routers()


def test_gtitm_deterministic_per_seed():
    a = gtitm_topology(GtItmConfig(num_hosts=40, seed=9))
    b = gtitm_topology(GtItmConfig(num_hosts=40, seed=9))
    assert np.array_equal(a.latency.matrix, b.latency.matrix)
    assert np.array_equal(
        a._host_bandwidth_matrix(), b._host_bandwidth_matrix()
    )


def test_gtitm_intrastub_cheaper_than_interdomain(topo):
    """Two hosts on the same stub should be closer than hosts in
    different transit domains (the transit-stub hierarchy is real)."""
    same_stub = []
    cross_domain = []
    hosts = range(topo.latency.num_hosts)
    for a in hosts:
        for b in hosts:
            if a >= b:
                continue
            ra, rb = topo.host_router[a], topo.host_router[b]
            if ra[:4] == rb[:4]:  # same stub domain prefix ("s", d, i, s)
                same_stub.append(topo.latency.latency(a, b))
            elif ra[1] != rb[1]:  # different transit domain
                cross_domain.append(topo.latency.latency(a, b))
    assert same_stub and cross_domain
    assert np.mean(same_stub) < np.mean(cross_domain)


# -- router distances: numpy relaxation vs networkx Dijkstra -----------------------


def _dijkstra_matrix(graph):
    import networkx as nx

    routers = sorted(graph.nodes())
    index = {r: i for i, r in enumerate(routers)}
    dist = np.full((len(routers), len(routers)), np.inf)
    for src, lengths in nx.all_pairs_dijkstra_path_length(graph, weight="latency"):
        for dst, d in lengths.items():
            dist[index[src], index[dst]] = d
    return dist


@pytest.mark.parametrize(
    "config",
    [
        GtItmConfig(num_hosts=20, seed=0),
        GtItmConfig(num_hosts=20, seed=1),
        GtItmConfig(num_hosts=20, seed=12345),
        GtItmConfig(
            num_hosts=10, transit_domains=2, transit_nodes_per_domain=3,
            stubs_per_transit_node=2, stub_nodes_per_stub=3, seed=4,
        ),
        GtItmConfig(
            num_hosts=10, transit_domains=1, transit_nodes_per_domain=5,
            stubs_per_transit_node=1, stub_nodes_per_stub=11,
            latency_jitter=0.9, seed=5,
        ),
        GtItmConfig(
            num_hosts=10, transit_domains=7, transit_nodes_per_domain=2,
            stubs_per_transit_node=4, stub_nodes_per_stub=4, seed=6,
        ),
    ],
    ids=lambda c: f"seed{c.seed}-{c.transit_domains}x{c.transit_nodes_per_domain}",
)
def test_gtitm_router_distances_bit_identical_to_dijkstra(config):
    """fig6/7 goldens rest on this: the relaxation's float fixpoint is
    the matrix networkx's Dijkstra produced, bit for bit."""
    topo = gtitm_topology(config)
    assert np.array_equal(topo._router_dist, _dijkstra_matrix(topo.router_graph))


def test_shortest_path_matrix_without_edges():
    from repro.net.gtitm import shortest_path_matrix

    dist = shortest_path_matrix(3, [])
    assert np.array_equal(np.isinf(dist), ~np.eye(3, dtype=bool))


def test_gtitm_disconnected_router_graph_rejected():
    from repro.net.gtitm import GtItmTopology

    topo = gtitm_topology(GtItmConfig(num_hosts=8, seed=2))
    graph = topo.router_graph.copy()
    graph.remove_edges_from(list(graph.edges(("t", 0, 0))))
    with pytest.raises(ValueError, match="not connected"):
        GtItmTopology(
            topo.config, graph, topo.host_router, topo.host_down_bw, topo.host_up_bw
        )


def test_importing_repro_does_not_import_networkx():
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = "import sys, repro; sys.exit('networkx' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, check=False
    )
    assert done.returncode == 0
