"""One capability table for the live engines, enforced row by row.

:data:`repro.experiments.builders.ENGINES` maps each live engine to the
features it does not support; the columnar engine's table is
:data:`repro.chord.columnar.UNSUPPORTED` and the object engine — the
reference semantics — refuses nothing.  For every row and both engines,
a ring built through :func:`build_live_ring` either takes the feature
and runs, or refuses it with that row's wording: at construction, at
``start_workload``, or when a driver reaches for its node factory.
"""

import random
import re
from dataclasses import replace

import pytest

from repro.chord.columnar import UNSUPPORTED
from repro.chord.config import OverlayConfig
from repro.chord.ring import ChurnDriver, ChurnEvent, ScriptedChurn
from repro.experiments.builders import ENGINES, build_live_ring
from repro.faults import FaultPlan, Partition
from repro.ids.idspace import IdSpace
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.obs import collecting
from repro.sim import RngRegistry, Simulator

CONFIG = OverlayConfig(space=IdSpace(32))
NODES = 8


def _ring(engine, config=CONFIG, **network):
    sim = Simulator()
    net = Network(sim, ConstantLatency(num_hosts=NODES + 4), **network)
    return sim, build_live_ring(engine, sim, net, config, NODES, RngRegistry(1))


def _faults(engine):
    partition = Partition.of([range(4), range(4, NODES + 4)], 30.0, 60.0)
    return _ring(engine, fault_plan=FaultPlan().add_partition(partition))


def _retransmits(engine):
    return _ring(engine, config=replace(CONFIG, rpc_max_retransmits=2))


def _node_handles(engine):
    sim, ring = _ring(engine)
    ChurnDriver(
        sim, ring.population, ring.factory, random.Random(0),
        mean_lifetime_s=120.0, lifetime_distribution="pareto",
    ).start()
    ScriptedChurn(
        sim, ring.population, ring.factory, random.Random(1),
        [ChurnEvent(20.0, 3, "leave"), ChurnEvent(40.0, NODES, "join")],
    ).start()
    return sim, ring


def _traced(engine):
    with collecting(metrics=False, trace=True):
        return _ring(engine)


def _metered(engine):
    with collecting(metrics=True):
        return _ring(engine)


#: How a run asks for each row's feature.
REQUESTS = {
    "fault plans": _faults,
    "rpc retransmits": _retransmits,
    "node handles": _node_handles,
    "trace spans": _traced,
    "metrics": _metered,
}


def test_every_table_row_has_a_request():
    assert list(REQUESTS) == [
        "fault plans", "rpc retransmits", "node handles", "trace spans", "metrics"
    ]
    assert set(REQUESTS) == set(UNSUPPORTED)
    assert all(set(table) <= set(UNSUPPORTED) for table in ENGINES.values())


@pytest.mark.parametrize("engine", list(ENGINES))
@pytest.mark.parametrize("row", list(UNSUPPORTED))
def test_engine_takes_or_refuses_each_row_by_its_table(row, engine):
    table = ENGINES[engine]
    if row in table:
        with pytest.raises(ValueError, match=re.escape(table[row])):
            REQUESTS[row](engine)
    else:
        sim, ring = REQUESTS[row](engine)
        assert ring.run(90.0) > 0
        assert sim.now == 90.0


def test_the_object_engine_is_the_reference_and_refuses_nothing():
    assert ENGINES["object"] == {}
    assert ENGINES["columnar"] is UNSUPPORTED
