"""Synthetic stand-in for the p2psim King latency data set.

The paper's Fig. 5 experiments used a 1740x1740 matrix of inter-node
latencies measured between DNS servers with the King method (mean RTT
198 ms).  That file is no longer distributed, so we synthesise a matrix
with the same qualitative properties:

* hosts embedded in a low-dimensional Euclidean space (geography),
* a per-pair multiplicative lognormal jitter, applied *asymmetrically*
  so forward and reverse one-way delays differ slightly (as real King
  measurements do, and as triangle-inequality violations require),
* a minimum per-hop floor, and
* calibration of the overall scale so the mean RTT matches the paper's
  198 ms (configurable).

Only the RTT *distribution* matters to the reproduced results; see
DESIGN.md §5 for the substitution argument.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from .latency import MatrixLatency

KING_NUM_HOSTS = 1740
KING_MEAN_RTT_S = 0.198


def king_matrix(
    num_hosts: int = KING_NUM_HOSTS,
    mean_rtt_s: float = KING_MEAN_RTT_S,
    seed: int = 0,
    dimensions: int = 5,
    jitter_sigma: float = 0.25,
    floor_s: float = 0.002,
) -> MatrixLatency:
    """Build a synthetic King-style one-way latency matrix.

    ``jitter_sigma`` is the sigma of the lognormal multiplicative noise;
    ``floor_s`` is the minimum one-way latency between distinct hosts.
    """
    if num_hosts < 2:
        raise ValueError("need at least two hosts")
    rng = np.random.default_rng(seed)
    points = rng.random((num_hosts, dimensions))
    # Pairwise Euclidean distances (symmetric base geography).
    diff = points[:, None, :] - points[None, :, :]
    base = np.sqrt((diff * diff).sum(axis=2))
    # Asymmetric lognormal jitter per directed pair.
    jitter = rng.lognormal(mean=0.0, sigma=jitter_sigma, size=(num_hosts, num_hosts))
    one_way = base * jitter
    np.fill_diagonal(one_way, 0.0)
    one_way = np.maximum(one_way, floor_s)
    np.fill_diagonal(one_way, 0.0)
    # Calibrate so the mean RTT over distinct pairs equals mean_rtt_s.
    n = num_hosts
    current_mean_rtt = (one_way.sum() + one_way.T.sum()) / (n * (n - 1))
    one_way *= mean_rtt_s / current_mean_rtt
    np.fill_diagonal(one_way, 0.0)
    return MatrixLatency(one_way)


class KingCoordinates:
    """O(n)-state King-style latency model for large host counts.

    :func:`king_matrix` materialises a dense ``(n, n)`` matrix — 800 MB
    of float64 at 10k hosts before counting the construction
    temporaries — which caps the lookup experiments near 2k hosts.
    This model keeps only per-host state (coordinates plus two jitter
    factors) and computes each directed pair's one-way delay on demand:

    * the same low-dimensional Euclidean geography as the matrix model,
    * per-host *outgoing* and *incoming* lognormal factors whose product
      plays the role of the matrix model's per-pair jitter (each drawn
      with ``sigma/sqrt(2)`` so the product of two independent factors
      has the same lognormal sigma as one per-pair draw),
    * the same latency floor, and
    * scale calibration from a fixed-size random sample of directed
      pairs (exact summation over 10k^2 pairs would defeat the point).

    :meth:`latency` memoises computed pairs in a plain dict keyed by
    ``a * num_hosts + b``, so the object engine's steady-state overlay
    traffic — each node talking to a bounded peer set — pays the
    arithmetic once per directed edge and a dict hit afterwards.
    :meth:`pair` memoises nothing: it computes both directions of a
    pair from one square root, for callers that carry the reverse
    delay to the reply themselves (the columnar engine).  There is
    deliberately no ``row`` view: materialising rows is exactly the
    O(n^2) cost this model exists to avoid, so
    :class:`~repro.net.network.Network` uses the scalar protocol path.
    """

    def __init__(
        self,
        num_hosts: int,
        mean_rtt_s: float = KING_MEAN_RTT_S,
        seed: int = 0,
        dimensions: int = 5,
        jitter_sigma: float = 0.25,
        floor_s: float = 0.002,
        calibration_pairs: int = 200_000,
    ) -> None:
        if num_hosts < 2:
            raise ValueError("need at least two hosts")
        rng = np.random.default_rng(seed)
        points = rng.random((num_hosts, dimensions))
        sigma = jitter_sigma / math.sqrt(2.0)
        out = rng.lognormal(mean=0.0, sigma=sigma, size=num_hosts)
        incoming = rng.lognormal(mean=0.0, sigma=sigma, size=num_hosts)
        self.num_hosts = num_hosts
        self.floor_s = floor_s
        # Calibrate the overall scale on a sample of directed pairs so
        # the mean RTT matches ``mean_rtt_s`` (in expectation; the
        # sample mean of >=2e5 pairs is well within a percent).
        m = min(calibration_pairs, num_hosts * (num_hosts - 1))
        a = rng.integers(0, num_hosts, size=m)
        b = rng.integers(0, num_hosts, size=m)
        distinct = a != b
        a, b = a[distinct], b[distinct]
        base = np.sqrt(((points[a] - points[b]) ** 2).sum(axis=1))
        fwd = np.maximum(base * out[a] * incoming[b], floor_s)
        rev = np.maximum(base * out[b] * incoming[a], floor_s)
        self._scale = float(mean_rtt_s / (fwd + rev).mean())
        # Plain-Python per-host state: the scalar path runs once per
        # uncached directed pair, in pure Python.
        self._points: List[List[float]] = points.tolist()
        self._out: List[float] = out.tolist()
        self._in: List[float] = incoming.tolist()
        self._cache: Dict[int, float] = {}

    def latency(self, a: int, b: int) -> float:
        """One-way delay from host ``a`` to host ``b`` in seconds
        (0 for ``a == b``), memoised per directed pair."""
        if a == b:
            return 0.0
        key = a * self.num_hosts + b
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = self.pair(a, b)[0]
        return value

    def pair(self, a: int, b: int) -> Tuple[float, float]:
        """``(latency(a, b), latency(b, a))`` from one square root,
        memoising nothing.

        :meth:`latency` computes its misses here, and the distance is
        symmetric bit for bit (``(x - y)**2 == (y - x)**2``), so the
        reverse value equals ``pair(b, a)[0]`` exactly.
        """
        if a == b:
            return 0.0, 0.0
        pa = self._points[a]
        pb = self._points[b]
        total = 0.0
        for x, y in zip(pa, pb):
            d = x - y
            total += d * d
        base = math.sqrt(total)
        floor_s = self.floor_s
        fwd = base * self._out[a] * self._in[b]
        if fwd < floor_s:
            fwd = floor_s
        rev = base * self._out[b] * self._in[a]
        if rev < floor_s:
            rev = floor_s
        scale = self._scale
        return fwd * scale, rev * scale


#: The latency models by config name (``Fig5Config.latency_model``).
KING_MODELS = {"king-matrix": king_matrix, "king-coords": KingCoordinates}


def king_model(name: str, num_hosts: int, mean_rtt_s: float, seed: int):
    """The :data:`KING_MODELS` model called ``name`` over ``num_hosts``
    hosts, calibrated to ``mean_rtt_s`` and drawn from ``seed``.

    Unknown names raise :class:`ValueError` listing the known ones.
    """
    if name not in KING_MODELS:
        raise ValueError(f"unknown latency model {name!r} (available: {', '.join(KING_MODELS)})")
    return KING_MODELS[name](num_hosts=num_hosts, mean_rtt_s=mean_rtt_s, seed=seed)
