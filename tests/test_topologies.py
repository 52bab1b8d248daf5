"""Unit tests for the synthetic King matrix and GT-ITM topologies."""

import numpy as np
import pytest

from repro.net import (
    GtItmConfig,
    MatrixBandwidth,
    MatrixLatency,
    gtitm_topology,
    king_matrix,
    transfer_delay,
)


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
