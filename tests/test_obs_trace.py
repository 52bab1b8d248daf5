"""Trace recorder tests: format validity, the CLI validator, and the
identical-logical-trace contract between the columnar worm engine and
its oracle (the legacy per-event engine)."""

from __future__ import annotations

import json

from repro.obs import OBS, collecting, validate_trace_file, validate_trace_obj
from repro.obs.trace import LANES, TraceRecorder
from repro.obs.trace import main as trace_main
from repro.worm import SCENARIOS, WormScenarioConfig, run_scenario

#: Engine-independent worm events.  ``worm.tick`` (columnar-only, lane
#: "sim") is engine mechanics and deliberately excluded.
LOGICAL_WORM_EVENTS = frozenset({
    "worm.seed", "worm.activate", "worm.scan", "worm.idle",
    "worm.infection", "worm.harvest",
})


def test_recorder_emits_valid_trace_events():
    rec = TraceRecorder()
    rec.instant("rpc.call", 1.5, lane="rpc", args={"method": "ping"})
    rec.complete("lookup", 1.0, 0.25, lane="lookup", args={"hops": 3})
    rec.counter("infected", 2.0, {"count": 7}, lane="worm")
    assert len(rec) == 3
    obj = rec.to_obj()
    assert validate_trace_obj(obj) == []
    phases = [e["ph"] for e in obj["traceEvents"]]
    # Metadata (thread_name) rows precede the payload events.
    assert phases.count("M") == 3  # rpc, lookup, worm lanes were used
    assert {"i", "X", "C"} <= set(phases)
    ts = [e["ts"] for e in obj["traceEvents"] if e["ph"] == "i"]
    assert ts == [1.5e6]  # seconds -> microseconds


def test_unknown_lane_falls_back_to_experiment():
    rec = TraceRecorder()
    rec.instant("x", 0.0, lane="no-such-lane")
    assert rec.events[0]["tid"] == LANES["experiment"]


def test_validator_flags_malformed_events():
    assert validate_trace_obj([]) == ["top level must be a JSON object"]
    assert validate_trace_obj({}) == ["missing 'traceEvents' array"]
    bad = {
        "traceEvents": [
            {"name": "", "ph": "i", "ts": 0, "pid": 0, "tid": 0},
            {"name": "n", "ph": "Z", "ts": 0, "pid": 0, "tid": 0},
            {"name": "n", "ph": "X", "ts": 0, "pid": 0, "tid": 0},
            {"name": "n", "ph": "i", "ts": -1, "pid": 0, "tid": 0},
        ]
    }
    errors = validate_trace_obj(bad)
    assert any("missing/empty 'name'" in e for e in errors)
    assert any("bad phase 'Z'" in e for e in errors)
    assert any("bad 'dur'" in e for e in errors)
    assert any("bad 'ts'" in e for e in errors)


def test_validate_file_and_cli(tmp_path, capsys):
    rec = TraceRecorder()
    rec.instant("e", 0.0)
    good = rec.write(tmp_path / "good.trace.json")
    assert validate_trace_file(good) == []
    bad = tmp_path / "bad.trace.json"
    bad.write_text(json.dumps({"traceEvents": [{"ph": "?"}]}))
    assert validate_trace_file(bad)
    assert trace_main(["--validate", str(good)]) == 0
    assert "ok:" in capsys.readouterr().out
    assert trace_main(["--validate", str(good), str(bad)]) == 1


def test_byte_stable_rendering():
    def build():
        rec = TraceRecorder()
        rec.instant("a", 0.5, lane="worm", args={"node": 1})
        rec.complete("b", 0.0, 1.0, lane="sim")
        return rec.to_json()

    assert build() == build()


def _logical_worm_trace(scenario: str):
    config = WormScenarioConfig(num_nodes=300, num_sections=16, seed=42)
    with collecting(metrics=False, trace=True):
        result = run_scenario(scenario, config, until=120.0)
        events = [
            e for e in OBS.trace.events if e["name"] in LOGICAL_WORM_EVENTS
        ]
    return result, events


def test_engines_emit_identical_logical_traces(worm_oracle):
    """The tracing contract both engines share: same logical events, in
    the same order, with the same timestamps and args — on every
    scenario, impersonation harvests included."""
    for scenario in SCENARIOS:
        with worm_oracle():
            legacy_result, legacy = _logical_worm_trace(scenario)
        columnar_result, columnar = _logical_worm_trace(scenario)
        assert legacy, f"{scenario}: legacy produced no worm events"
        assert legacy == columnar, f"{scenario}: logical traces differ"
        assert legacy_result.final_infected == columnar_result.final_infected


def test_columnar_tick_spans_present_only_for_columnar(worm_oracle):
    config = WormScenarioConfig(num_nodes=300, num_sections=16, seed=42)
    with collecting(metrics=False, trace=True):
        run_scenario("chord", config, until=60.0)
        names = {e["name"] for e in OBS.trace.events}
    assert "worm.tick" in names
    with worm_oracle(), collecting(metrics=False, trace=True):
        run_scenario("chord", config, until=60.0)
        names = {e["name"] for e in OBS.trace.events}
    assert "worm.tick" not in names
