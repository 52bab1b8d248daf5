"""Workload generation for the heavy-traffic serving experiments.

The paper evaluates under one stationary Poisson process with uniform
keys (§7.1.1); production DHT traffic is neither stationary nor
uniform.  This package supplies the missing models — Zipf / uniform /
trace key popularity, constant / spike / ramp / diurnal arrival shapes
for an open-loop client population — all deterministic per seed and driven
identically by the object-graph and columnar live engines.  See
``docs/serving.md`` for the full reference.
"""

from .arrivals import ConstantShape, DiurnalShape, RampShape, SpikeShape
from .generator import (
    OVERLOADS,
    RAMP_FACTOR,
    SPIKE_FACTOR,
    WORKLOADS,
    LookupGenerator,
    build_generator,
    overload_shape,
)
from .keys import TraceKeys, UniformKeys, ZipfKeys, rank_to_key
from .serving import ServingStats

__all__ = [
    "ConstantShape",
    "DiurnalShape",
    "RampShape",
    "SpikeShape",
    "OVERLOADS",
    "RAMP_FACTOR",
    "SPIKE_FACTOR",
    "WORKLOADS",
    "LookupGenerator",
    "build_generator",
    "overload_shape",
    "TraceKeys",
    "UniformKeys",
    "ZipfKeys",
    "rank_to_key",
    "ServingStats",
]
