"""The columnar engine holds no RNG state per node incarnation.

Each incarnation's jitter stream is drawn from exactly twice (its two
timer phases); the engine derives it unregistered and drops it, so a
churning ring's registry does not grow as hosts respawn.  Draw
equality with the object engine is held by the equivalence suites.
"""

from repro.chord.columnar import ColumnarEngine
from repro.chord.config import OverlayConfig
from repro.ids.idspace import IdSpace
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.sim import RngRegistry, Simulator


def test_registry_stream_count_does_not_grow_with_respawns():
    rngs = RngRegistry(5)
    sim = Simulator()
    engine = ColumnarEngine(
        sim, Network(sim, ConstantLatency(0.02)), OverlayConfig(space=IdSpace(64))
    )
    engine.build(40, rngs)
    engine.start_churn(rngs.stream("churn"), 10.0)
    streams_after_build = len(rngs._streams)
    sim.run(until=60.0)
    assert engine.joins > 20  # many incarnations came and went
    assert len(rngs._streams) == streams_after_build
