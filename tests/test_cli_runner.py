"""Smoke tests for the command-line experiment runner."""

import pytest

import repro.experiments.runner as runner_mod
from repro.experiments.runner import main


def test_fig8_smoke(capsys):
    assert main(["fig8", "--runs", "1"]) == 0
    out = capsys.readouterr().out
    assert "verme-compromise" in out
    assert "scenario" in out
    assert "[fig8 done" in out


def test_runner_rejects_unknown_figure():
    with pytest.raises(SystemExit):
        main(["fig9"])


def test_runner_requires_figure():
    with pytest.raises(SystemExit):
        main([])


def test_fig6_smoke(monkeypatch, capsys):
    """Shrink the config so the CLI path runs in seconds."""
    from repro.experiments.dht_ops import DhtExperimentConfig

    original = DhtExperimentConfig

    def tiny(num_nodes=400, num_sections=32, **kwargs):
        kwargs.setdefault("num_puts", 5)
        kwargs.setdefault("num_gets", 5)
        return original(num_nodes=100, num_sections=8, **kwargs)

    monkeypatch.setattr(runner_mod, "DhtExperimentConfig", tiny)
    assert main(["fig6"]) == 0
    out = capsys.readouterr().out
    assert "secure-verdi" in out
    assert "mean_lat_s" in out


def test_fig5_smoke(monkeypatch, capsys):
    from repro.experiments.fig5_lookup_latency import Fig5Config

    original = Fig5Config

    def tiny(**kwargs):
        return original(
            num_nodes=50, duration_s=240.0, warmup_s=30.0,
            mean_lifetimes_s=(3600.0,), **kwargs,
        )

    monkeypatch.setattr(runner_mod, "Fig5Config", tiny)
    assert main(["fig5"]) == 0
    out = capsys.readouterr().out
    assert "chord-transitive" in out
    assert "verme" in out


def _tiny_resilience(monkeypatch):
    from repro.experiments.resilience import ResilienceConfig

    original = ResilienceConfig

    def tiny(**kwargs):
        kwargs.setdefault("num_nodes", 24)
        kwargs.setdefault("partition_start_s", 120.0)
        kwargs.setdefault("partition_heal_s", 150.0)
        kwargs.setdefault("duration_s", 300.0)
        kwargs.setdefault("warmup_s", 30.0)
        return original(**kwargs)

    monkeypatch.setattr(runner_mod, "ResilienceConfig", tiny)


def test_invariants_flag_rejected_for_unsupported_figures():
    with pytest.raises(SystemExit):
        main(["fig8", "--invariants", "strict"])


def test_resilience_strict_invariants_smoke(
    monkeypatch, capsys, tmp_path
):
    """A clean partition-and-heal run exits 0 in strict mode and writes
    the JSON violation report."""
    _tiny_resilience(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert main(["resilience", "--invariants", "strict", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "invariants:" in out
    assert "0 errors" in out
    report_path = tmp_path / "invariants_resilience.json"
    assert report_path.exists()
    import json

    report = json.loads(report_path.read_text())
    assert report["schema"] == "repro.invariants/1"
    assert report["seed"] == 5
    assert report["checks"] > 0


def test_invariants_cleared_from_obs_after_run(monkeypatch, tmp_path):
    from repro.obs import OBS

    _tiny_resilience(monkeypatch)
    monkeypatch.chdir(tmp_path)
    main(["resilience", "--invariants", "sample"])
    assert OBS.invariants is None


def test_repro_command_line_includes_seed_and_strict_mode():
    import argparse

    args = argparse.Namespace(
        figure="resilience", paper_scale=False, preset=None, seed=7
    )
    line = runner_mod._repro_command(args)
    assert "repro.experiments.runner resilience" in line
    assert "--seed 7" in line
    assert "--invariants strict" in line


@pytest.mark.parametrize("figure", ["fig5", "fig6", "fig7", "overload"])
def test_trace_refuses_the_columnar_live_engine(figure, tmp_path, capsys):
    """Spans are object-engine-only for now: a columnar live run must not
    exit 0 with a near-empty trace."""
    out = tmp_path / "run.trace.json"
    with pytest.raises(SystemExit) as exc:
        main([figure, "--engine", "columnar", "--trace", str(out)])
    assert exc.value.code == 2
    assert "object engine only" in capsys.readouterr().err
    assert not out.exists()


def _tiny_fig5(monkeypatch):
    """Shrink fig5 and record which engine each run used."""
    from repro.experiments.fig5_lookup_latency import Fig5Config

    original = Fig5Config

    def tiny(**kwargs):
        return original(
            num_nodes=40, duration_s=200.0, warmup_s=30.0,
            mean_lifetimes_s=(3600.0,), **kwargs,
        )

    engines = []
    run = runner_mod.run_fig5_parallel

    def recording(cfg, workers):
        engines.append(cfg.engine)
        return run(cfg, workers=workers)

    monkeypatch.setattr(runner_mod, "Fig5Config", tiny)
    monkeypatch.setattr(runner_mod, "run_fig5_parallel", recording)
    return engines


def _table(out):
    """The figure's result table: the printed lines before the summary,
    minus the metrics-snapshot notice."""
    return [
        line for line in out.split("\n[fig5 done")[0].splitlines()
        if not line.startswith("metrics snapshot written")
    ]


def test_default_engine_is_the_first_the_flags_allow(monkeypatch, capsys, tmp_path):
    """fig5 alone runs columnar; --metrics needs the object engine's
    lookup/rpc families, so it runs object; the rows are identical."""
    engines = _tiny_fig5(monkeypatch)
    assert main(["fig5"]) == 0
    plain = _table(capsys.readouterr().out)
    metrics = tmp_path / "m.json"
    assert main(["fig5", "--metrics", str(metrics)]) == 0
    metered = _table(capsys.readouterr().out)
    assert engines == ["columnar", "object"]
    assert plain == metered
    assert "lookup.successes" in metrics.read_text()


@pytest.mark.parametrize("flag, row", [("--metrics", "metrics"), ("--trace", "trace spans")])
def test_columnar_with_an_object_only_flag_is_a_usage_error(flag, row, tmp_path, capsys):
    from repro.chord.columnar import UNSUPPORTED

    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(["fig5", "--engine", "columnar", flag, str(out)])
    assert exc.value.code == 2
    err = " ".join(capsys.readouterr().err.split())
    assert UNSUPPORTED[row] in err
    assert "--engine object" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", [
    ["--preset", "1k"], ["--engine", "columnar"], ["--paper-scale"], ["--seed", "3"],
    ["--csv", "out"],
])
def test_paper_rejects_scale_and_seed_flags(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["paper", *flag])
    assert exc.value.code == 2
    assert "paper" in capsys.readouterr().err


def test_paper_writes_the_record_and_regenerates_the_ledger_blocks(
    monkeypatch, tmp_path, capsys
):
    """The ``paper`` plumbing on the committed record: FIDELITY.json and
    EXPERIMENTS.md come out as committed; a claim that stops holding
    makes the exit code 1."""
    import copy
    import json
    from pathlib import Path

    from repro.experiments import fidelity

    root = Path(__file__).resolve().parents[1]
    committed = (root / "FIDELITY.json").read_text()
    docs = (root / "EXPERIMENTS.md").read_text()
    record = json.loads(committed)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "EXPERIMENTS.md").write_text(
        fidelity.splice(docs, {name: "" for name in fidelity.render(record)})
    )
    monkeypatch.setattr(runner_mod.fidelity, "run_ledger", lambda workers: record)
    assert main(["paper"]) == 0
    assert (tmp_path / "FIDELITY.json").read_text() == committed
    assert (tmp_path / "EXPERIMENTS.md").read_text() == docs
    assert "deviates  fig8.chord_sweep_time" in capsys.readouterr().out

    broken = copy.deepcopy(record)
    broken["claims"][0]["holds"] = False
    monkeypatch.setattr(runner_mod.fidelity, "run_ledger", lambda workers: broken)
    assert main(["paper"]) == 1
    assert "unexpected verdicts" in capsys.readouterr().out
