"""GT-ITM-style transit-stub topology generator.

Paper §7.2 switched to the GT-ITM model for the DHT experiments because
the King matrix has no bandwidth information.  GT-ITM itself is an old
C program; this module reproduces its *transit-stub* structure on
networkx:

* ``transit_domains`` fully meshed transit domains of
  ``transit_nodes_per_domain`` routers each, connected by inter-domain
  links,
* each transit router hangs ``stubs_per_transit_node`` stub domains of
  ``stub_nodes_per_stub`` routers (ring + chords inside a stub),
* hosts attach to stub routers via access links whose bandwidth is
  drawn from access classes (the only practical bottleneck, as in the
  DSL/cable era the paper's numbers come from).

Host-to-host one-way latency is the shortest-path latency through the
router graph plus both access links; host-to-host bandwidth is the
minimum of the two access-link bandwidths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from .latency import MatrixBandwidth, MatrixLatency

if TYPE_CHECKING:  # networkx is imported where the graph is built
    import networkx as nx

#: Head nodes relaxed per step of :func:`shortest_path_matrix`.
_RELAX_BLOCK_NODES = 64


def shortest_path_matrix(n: int, edges: List[Tuple[int, int, float]]) -> np.ndarray:
    """All-pairs shortest-path lengths of an undirected weighted graph
    on nodes ``0..n-1``: relax the edges against the whole ``(n, n)``
    matrix, in place, until nothing improves.  Each entry settles on
    the least float sum ``fl(D[s, u] + w)`` over paths, the same
    left-to-right accumulation from the source that Dijkstra performs,
    so the result is bit-identical to
    ``networkx.all_pairs_dijkstra_path_length`` (pinned in
    ``tests/test_topologies.py``).  Unreachable pairs stay ``inf``."""
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    if not edges:
        return dist
    # Both directions of every edge, grouped by head node, in blocks of
    # whole groups small enough that a block's candidates stay a
    # sub-megabyte temporary.
    tails = np.array([e[0] for e in edges] + [e[1] for e in edges], dtype=np.intp)
    heads = np.array([e[1] for e in edges] + [e[0] for e in edges], dtype=np.intp)
    weights = np.array([e[2] for e in edges] * 2, dtype=float)
    order = np.argsort(heads, kind="stable")
    tails, heads, weights = tails[order], heads[order], weights[order]
    starts = np.flatnonzero(np.r_[True, heads[1:] != heads[:-1]])
    bounds = np.r_[starts, len(heads)]
    blocks = []
    for lo in range(0, len(starts), _RELAX_BLOCK_NODES):
        hi = min(lo + _RELAX_BLOCK_NODES, len(starts))
        edge = slice(bounds[lo], bounds[hi])
        blocks.append(
            (tails[edge], weights[edge], starts[lo:hi] - bounds[lo], heads[starts[lo:hi]])
        )
    changed = True
    while changed:
        changed = False
        for block_tails, block_weights, block_starts, nodes in blocks:
            # via[s, e] = D[s, tail_e] + w_e; best[s, v] = min over edges into v
            best = np.minimum.reduceat(
                dist[:, block_tails] + block_weights, block_starts, axis=1
            )
            current = dist[:, nodes]
            if (best < current).any():
                dist[:, nodes] = np.minimum(current, best)
                changed = True
    return dist


class HostLatency:
    """Host-pair latency computed from O(routers^2) state.

    The dense host matrix costs ``hosts^2`` floats (800 MB at 10k
    hosts), but every entry is just ``router_dist + 2 * access``: the
    per-pair information lives entirely in the *router* distance matrix
    (a few hundred routers regardless of host count).  This model keeps
    the router matrix plus the host→router mapping and evaluates pairs
    on demand — bit-identical to the dense matrix (same float64 sum of
    the same two terms), with no ``row`` view (a row is the O(hosts)
    object this model exists to avoid).
    """

    def __init__(
        self,
        router_dist_rows: List[List[float]],
        host_router_index: List[int],
        access_latency_s: float,
    ) -> None:
        self._rows = router_dist_rows
        self._host_r = host_router_index
        # Matches the dense path's ``+ 2 * access`` term exactly.
        self._two_access = 2 * access_latency_s
        self.num_hosts = len(host_router_index)

    def latency(self, a: int, b: int) -> float:
        if a == b:
            return 0.0
        host_r = self._host_r
        return self._rows[host_r[a]][host_r[b]] + self._two_access


class HostBandwidth:
    """Host-pair bandwidth from per-host access links, O(hosts) state.

    A transfer from ``a`` to ``b`` is bottlenecked by ``a``'s uplink or
    ``b``'s downlink, whichever is slower — the same ``min`` the dense
    ``hosts^2`` matrix tabulates.
    """

    def __init__(self, host_up: List[float], host_down: List[float]) -> None:
        self._up = host_up
        self._down = host_down
        self.num_hosts = len(host_up)

    def bandwidth(self, a: int, b: int) -> float:
        up = self._up[a]
        down = self._down[b]
        return up if up < down else down


@dataclass(frozen=True)
class AccessClass:
    """One access-link class: down/up bandwidth (bytes/s) and weight.

    Residential access links of the paper's era are asymmetric — the
    uplink, not the downlink, bottlenecks peer-to-peer transfers — and
    that asymmetry is what makes per-hop data forwarding (Secure-VerDi)
    expensive in Fig. 6.
    """

    name: str
    down_bytes_per_second: float
    up_bytes_per_second: float
    weight: float


DEFAULT_ACCESS_CLASSES: Tuple[AccessClass, ...] = (
    AccessClass("dsl", 1.5e6 / 8, 128e3 / 8, 0.35),      # 1.5 Mbit down / 128 kbit up
    AccessClass("cable", 10e6 / 8, 384e3 / 8, 0.45),     # 10 Mbit down / 384 kbit up
    AccessClass("ethernet", 100e6 / 8, 100e6 / 8, 0.20),  # symmetric 100 Mbit
)


@dataclass(frozen=True)
class GtItmConfig:
    """Shape and link parameters of the transit-stub topology.

    Latencies are one-way seconds; jitter is a +/- uniform fraction.
    """

    num_hosts: int
    transit_domains: int = 4
    transit_nodes_per_domain: int = 4
    stubs_per_transit_node: int = 3
    stub_nodes_per_stub: int = 8
    interdomain_latency_s: float = 0.030
    intradomain_latency_s: float = 0.015
    transit_stub_latency_s: float = 0.008
    intrastub_latency_s: float = 0.004
    access_latency_s: float = 0.001
    latency_jitter: float = 0.2
    access_classes: Tuple[AccessClass, ...] = DEFAULT_ACCESS_CLASSES
    seed: int = 0

    def num_stub_routers(self) -> int:
        return (
            self.transit_domains
            * self.transit_nodes_per_domain
            * self.stubs_per_transit_node
            * self.stub_nodes_per_stub
        )


@dataclass
class GtItmTopology:
    """The generated topology plus the derived host-pair models.

    The scalar :attr:`host_latency` / :attr:`host_bandwidth` models are
    built eagerly from the O(routers^2) shortest-path matrix and are
    what the DHT experiments feed to the network — they scale to any
    host count.  The dense :attr:`latency` / :attr:`bandwidth` matrices
    are equivalent tabulations, built lazily (only topology tests and
    small analyses want a whole ``hosts^2`` matrix in memory).
    """

    config: GtItmConfig
    router_graph: nx.Graph
    host_router: np.ndarray          # router index per host
    host_down_bw: np.ndarray         # download bytes/s per host
    host_up_bw: np.ndarray           # upload bytes/s per host

    def __post_init__(self) -> None:
        routers = sorted(self.router_graph.nodes())
        index = {r: i for i, r in enumerate(routers)}
        dist = shortest_path_matrix(
            len(routers),
            [
                (index[a], index[b], w)
                for a, b, w in self.router_graph.edges(data="latency")
            ],
        )
        if np.isinf(dist).any():
            raise ValueError("router graph is not connected")
        self._router_dist = dist
        self._host_r: List[int] = [index[r] for r in self.host_router]
        self.host_latency = HostLatency(
            dist.tolist(), self._host_r, self.config.access_latency_s
        )
        self.host_bandwidth = HostBandwidth(
            self.host_up_bw.tolist(), self.host_down_bw.tolist()
        )
        self._latency: Optional[MatrixLatency] = None
        self._bandwidth: Optional[MatrixBandwidth] = None

    @property
    def latency(self) -> MatrixLatency:
        """Dense host-pair latency matrix (lazy; O(hosts^2) memory)."""
        if self._latency is None:
            self._latency = MatrixLatency(self._host_latency_matrix())
        return self._latency

    @property
    def bandwidth(self) -> MatrixBandwidth:
        """Dense host-pair bandwidth matrix (lazy; O(hosts^2) memory)."""
        if self._bandwidth is None:
            self._bandwidth = MatrixBandwidth(self._host_bandwidth_matrix())
        return self._bandwidth

    def _host_latency_matrix(self) -> np.ndarray:
        host_r = np.array(self._host_r)
        access = self.config.access_latency_s
        matrix = self._router_dist[np.ix_(host_r, host_r)] + 2 * access
        np.fill_diagonal(matrix, 0.0)
        return matrix

    def _host_bandwidth_matrix(self) -> np.ndarray:
        # A transfer from a to b is bottlenecked by a's uplink or b's
        # downlink, whichever is slower (the backbone is provisioned).
        return np.minimum(self.host_up_bw[:, None], self.host_down_bw[None, :])


def _jittered(rng: np.random.Generator, base: float, jitter: float) -> float:
    return base * (1.0 + jitter * (2.0 * rng.random() - 1.0))


def gtitm_topology(config: GtItmConfig) -> GtItmTopology:
    """Generate a transit-stub topology per ``config``.

    Router node labels are ``("t", domain, i)`` for transit routers and
    ``("s", domain, i, stub, j)`` for stub routers.
    """
    import networkx as nx  # here, not at module level: keeps it out of `import repro`

    rng = np.random.default_rng(config.seed)
    graph = nx.Graph()
    cfg = config

    transit_routers: List[List[tuple]] = []
    for d in range(cfg.transit_domains):
        domain = [("t", d, i) for i in range(cfg.transit_nodes_per_domain)]
        transit_routers.append(domain)
        graph.add_nodes_from(domain)
        # Full mesh inside a transit domain.
        for i in range(len(domain)):
            for j in range(i + 1, len(domain)):
                graph.add_edge(
                    domain[i],
                    domain[j],
                    latency=_jittered(rng, cfg.intradomain_latency_s, cfg.latency_jitter),
                )
    # Ring of transit domains plus one random chord per domain.
    for d in range(cfg.transit_domains):
        nxt = (d + 1) % cfg.transit_domains
        if nxt == d:
            continue
        a = transit_routers[d][int(rng.integers(cfg.transit_nodes_per_domain))]
        b = transit_routers[nxt][int(rng.integers(cfg.transit_nodes_per_domain))]
        graph.add_edge(
            a, b, latency=_jittered(rng, cfg.interdomain_latency_s, cfg.latency_jitter)
        )
    if cfg.transit_domains > 2:
        for d in range(cfg.transit_domains):
            other = int(rng.integers(cfg.transit_domains))
            if other == d:
                continue
            a = transit_routers[d][int(rng.integers(cfg.transit_nodes_per_domain))]
            b = transit_routers[other][int(rng.integers(cfg.transit_nodes_per_domain))]
            if not graph.has_edge(a, b):
                graph.add_edge(
                    a,
                    b,
                    latency=_jittered(
                        rng, cfg.interdomain_latency_s, cfg.latency_jitter
                    ),
                )

    stub_routers: List[tuple] = []
    for d in range(cfg.transit_domains):
        for i, transit in enumerate(transit_routers[d]):
            for s in range(cfg.stubs_per_transit_node):
                stub = [
                    ("s", d, i, s, j) for j in range(cfg.stub_nodes_per_stub)
                ]
                stub_routers.extend(stub)
                graph.add_nodes_from(stub)
                # Ring inside the stub domain ...
                for j in range(len(stub)):
                    graph.add_edge(
                        stub[j],
                        stub[(j + 1) % len(stub)],
                        latency=_jittered(
                            rng, cfg.intrastub_latency_s, cfg.latency_jitter
                        ),
                    )
                # ... plus one chord for redundancy.
                if len(stub) > 3:
                    a, b = stub[0], stub[len(stub) // 2]
                    if not graph.has_edge(a, b):
                        graph.add_edge(
                            a,
                            b,
                            latency=_jittered(
                                rng, cfg.intrastub_latency_s, cfg.latency_jitter
                            ),
                        )
                # Uplink: first stub router to the transit router.
                graph.add_edge(
                    stub[0],
                    transit,
                    latency=_jittered(
                        rng, cfg.transit_stub_latency_s, cfg.latency_jitter
                    ),
                )

    # Attach hosts to stub routers round-robin with a random offset.
    offset = int(rng.integers(len(stub_routers)))
    host_router = np.empty(cfg.num_hosts, dtype=object)
    for h in range(cfg.num_hosts):
        host_router[h] = stub_routers[(offset + h) % len(stub_routers)]

    weights = np.array([c.weight for c in cfg.access_classes], dtype=float)
    weights /= weights.sum()
    picks = rng.choice(len(cfg.access_classes), size=cfg.num_hosts, p=weights)
    host_down_bw = np.array(
        [cfg.access_classes[p].down_bytes_per_second for p in picks]
    )
    host_up_bw = np.array(
        [cfg.access_classes[p].up_bytes_per_second for p in picks]
    )
    return GtItmTopology(cfg, graph, host_router, host_down_bw, host_up_bw)
