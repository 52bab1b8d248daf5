"""Command-line experiment runner.

Regenerate any paper figure (or the ablations) from the shell::

    python -m repro.experiments.runner fig5 [--paper-scale] [--workers N]
    python -m repro.experiments.runner fig6 [--workers N]
    python -m repro.experiments.runner fig7 [--workers N]
    python -m repro.experiments.runner fig8 [--runs 10] [--workers N]
    python -m repro.experiments.runner resilience
    python -m repro.experiments.runner ablations [--workers N]
    python -m repro.experiments.runner overload [--smoke]

Scaled-down parameters by default (seconds to minutes); ``--paper-scale``
switches to the paper's §7 configurations (minutes to an hour), and
``--preset`` picks a named population scale without changing anything
else (fig5: ``120``/``1k``/``10k``; fig8: ``1k``/``100k``/``1m``).

``--engine NAME`` selects the simulation engine: for fig5/fig6/fig7/
overload one of :data:`~repro.experiments.builders.ENGINES` (rows are
bit-identical on both), by default the first whose capability table —
printed by ``--help`` — admits the flags: columnar, unless ``--trace``
or ``--metrics`` needs the object engine; an engine lacking a row the
flags need is a usage error.  fig8 picks a worm engine, ``columnar``
(default) or ``legacy``.  Unknown names list the available ones.

``--workload NAME`` / ``--overload NAME`` (fig5 and overload) select
the key-popularity model (``poisson``, ``zipf``) and the arrival shape
(``none``, ``spike``, ``ramp``, ``diurnal``) of the lookup workload —
see :mod:`repro.workload` and ``docs/serving.md``.  The ``overload``
experiment compares admission policies (shed vs noshed) across the
shaped load and reports p99/p999 tail latency and goodput.

``--workers N`` fans the independent (system/scenario, seed) cells of
fig5/fig6/fig7/fig8/ablations across N processes (see
:mod:`repro.experiments.parallel`); the default of 1 runs everything
serially, in-process, and the output is bit-identical either way.

Observability (see :mod:`repro.obs` and ``docs/observability.md``):

* ``--metrics FILE`` collects the run's metrics registry and writes a
  snapshot (JSON, or CSV when FILE ends in ``.csv``).  Byte-identical
  at any ``--workers`` count.  Runs the live figures on the object
  engine (see ``--engine``).
* ``--trace FILE`` records a Chrome ``trace_event`` JSON viewable at
  https://ui.perfetto.dev.  Serial-only: forces ``--workers 1``.
  Runs the live figures on the object engine too (fig8's worm engines
  both trace).
* ``--profile`` runs under cProfile *and* prints a per-phase
  wall/CPU/event-rate report.

Correctness (see :mod:`repro.invariants` and ``docs/correctness.md``):

* ``--invariants sample`` (fig5 and resilience) samples the Zave ring
  invariants and the Verme containment invariant on the sim clock
  during the run and prints a violation summary.  Serial-only: forces
  ``--workers 1``.
* ``--invariants strict`` additionally writes
  ``invariants_<figure>.json`` (the structured violation report) and
  exits non-zero if any hard violation was recorded, printing a
  one-command repro line.
* ``--seed N`` overrides the experiment config's base seed, so a CI
  invariant failure reproduces locally with the printed command.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

from ..analysis.export import write_rows_csv, write_series_csv
from ..analysis.tables import format_table
from ..obs import OBS, disable as obs_disable, enable as obs_enable
from ..worm import ENGINES as WORM_ENGINES, WormScenarioConfig
from .builders import ENGINES as LIVE_ENGINES
from .dht_ops import DhtExperimentConfig
from .fig5_lookup_latency import Fig5Config
from .fig8_worm_propagation import Fig8Config, curve_series, summarise_fig8_runs
from .parallel import (
    fig8_curves,
    last_peak_rss_kib,
    last_worker_rss_kib,
    run_ablations_parallel,
    run_dht_parallel,
    run_fig5_parallel,
    run_fig8_cells,
)
from .resilience import ResilienceConfig, run_resilience


def _fig8_scaled(cfg: Fig8Config, num_nodes: int, num_sections: int) -> Fig8Config:
    return replace(
        cfg,
        scenario_config=replace(
            cfg.scenario_config,
            num_nodes=num_nodes,
            num_sections=num_sections,
        ),
    )


#: ``--preset`` tables: named population scales per figure.  The dense
#: King matrix is O(n^2) memory, hence king-coords at 1k nodes and up.
PRESETS = {
    "fig5": {
        "120": lambda cfg: cfg,
        "1k": lambda cfg: replace(
            cfg, num_nodes=1000, duration_s=600.0, latency_model="king-coords"
        ),
        "10k": lambda cfg: replace(
            cfg, num_nodes=10_000, duration_s=600.0, latency_model="king-coords"
        ),
    },
    "fig8": {
        "1k": lambda cfg: _fig8_scaled(cfg, 1000, 64),
        "100k": lambda cfg: _fig8_scaled(cfg, 100_000, 4096),
        "1m": lambda cfg: _fig8_scaled(cfg, 1_000_000, 4096),
    },
}


#: The figures that run the live protocol, on :data:`LIVE_ENGINES`.
LIVE_FIGURES = ("fig5", "fig6", "fig7", "overload")

#: ``--engine`` tables: the engines each figure can run on (live
#: figures: see :func:`_live_engine`; fig8: first entry = default).
ENGINE_CHOICES = {
    **{figure: tuple(LIVE_ENGINES) for figure in LIVE_FIGURES},
    "fig8": ("columnar",) + tuple(e for e in sorted(WORM_ENGINES) if e != "columnar"),
}

#: The flags that need a row of the live engines' capability tables.
FLAG_ROWS = {"trace": "trace spans", "metrics": "metrics"}


def _engine_table() -> str:
    """The live engines' capability tables, rendered for ``--help``."""
    lines = ["live engines (fig5/fig6/fig7/overload), in default order, and "
             "what each does not support:"]
    for name, table in LIVE_ENGINES.items():
        lines.append(f"  {name}:" + (" nothing" if not table else ""))
        lines.extend(f"    - {wording}" for wording in table.values())
    return "\n".join(lines)


def _live_engine(parser, args) -> str:
    """``--engine`` if given, else the first live engine whose table
    admits every row the flags need; a named engine that lacks one is a
    usage error quoting the row."""
    rows = [(flag, row) for flag, row in FLAG_ROWS.items() if getattr(args, flag)]
    for name in [args.engine] if args.engine else LIVE_ENGINES:
        lacking = [(flag, row) for flag, row in rows if row in LIVE_ENGINES[name]]
        if not lacking:
            return name
    flag, row = lacking[0]
    able = [engine for engine, table in LIVE_ENGINES.items() if row not in table]
    parser.error(
        f"--{flag}: {'/'.join(able)} engine only — the {name} engine does not support "
        f"{LIVE_ENGINES[name][row]}; use --engine {able[0]} or drop --{flag}"
    )


def _apply_preset(args, cfg):
    if args.preset is not None:
        cfg = PRESETS[args.figure][args.preset](cfg)
    return cfg


def _overrides(args, cfg):
    """``cfg`` with every given config-field flag (the parser admits a
    flag only for the figures whose configs have the field)."""
    flags = ("seed", "engine", "workload", "overload")
    return replace(cfg, **{f: getattr(args, f) for f in flags if getattr(args, f) is not None})


def _fig5(args) -> None:
    cfg = Fig5Config()
    if args.paper_scale:
        cfg = cfg.paper_scale()
    cfg = _overrides(args, _apply_preset(args, cfg))
    rows = run_fig5_parallel(cfg, workers=args.workers)
    if args.csv:
        print(f"wrote {write_rows_csv(Path(args.csv) / 'fig5.csv', rows)}")
    print(format_table(
        ["system", "lifetime_s", "mean_lat_s", "hops", "fail_rate",
         "lookups", "maint_B/node/s"],
        [[r.system, r.mean_lifetime_s, round(r.mean_latency_s, 4),
          round(r.mean_hops, 2), round(r.failure_rate, 4), r.lookups,
          round(r.maintenance_bytes_per_node_s, 1)] for r in rows],
    ))


def _fig67(args, which: str) -> None:
    cfg = DhtExperimentConfig(num_nodes=400, num_sections=32)
    if args.paper_scale:
        cfg = cfg.paper_scale()
    cfg = _overrides(args, cfg)
    results = run_dht_parallel(cfg, workers=args.workers)
    if args.csv:
        flat = [row for res in results for row in res.rows()]
        print(f"wrote {write_rows_csv(Path(args.csv) / (which + '.csv'), flat)}")
    rows = []
    for res in results:
        for row in res.rows():
            if which == "fig6":
                rows.append([row.system, row.operation,
                             round(row.mean_latency_s, 3),
                             round(row.median_latency_s, 3), row.operations])
            else:
                rows.append([row.system, row.operation,
                             round(row.mean_bytes / 1024, 1), row.operations])
    headers = (
        ["system", "op", "mean_lat_s", "median_lat_s", "ops"]
        if which == "fig6"
        else ["system", "op", "mean_KiB", "ops"]
    )
    print(format_table(headers, rows))


def _fig8(args) -> None:
    cfg = Fig8Config(runs=args.runs)
    if args.paper_scale:
        cfg = cfg.paper_scale()
    cfg = _apply_preset(args, cfg)
    cfg = replace(cfg, scenario_config=_overrides(args, cfg.scenario_config))
    grouped = run_fig8_cells(cfg, workers=args.workers)
    rows = [summarise_fig8_runs(s, results) for s, results in grouped.items()]
    if args.csv:
        print(f"wrote {write_rows_csv(Path(args.csv) / 'fig8.csv', rows)}")
        # Resample the curves already in hand instead of re-running.
        series = curve_series(fig8_curves(grouped), cfg.horizons)
        print(f"wrote {write_series_csv(Path(args.csv) / 'fig8_curves.csv', series)}")
        from ..analysis.asciiplot import strip_chart

        print(strip_chart(series))
    print(format_table(
        ["scenario", "population", "vulnerable", "final_infected",
         "t10%_s", "t50%_s", "t95%_s"],
        [[r.scenario, r.population, r.vulnerable, r.final_infected,
          _r(r.time_to_10pct_s), _r(r.time_to_50pct_s), _r(r.time_to_95pct_s)]
         for r in rows],
    ))


def _resilience(args) -> None:
    cfg = ResilienceConfig()
    if args.paper_scale:
        cfg = cfg.paper_scale()
    rows = run_resilience(_overrides(args, cfg))
    if args.csv:
        print(f"wrote {write_rows_csv(Path(args.csv) / 'resilience.csv', rows)}")
    print(format_table(
        ["system", "pre_ok", "part_ok", "post_ok", "min_coh", "repair_s",
         "lookups", "timeouts", "retransmits", "part_drops"],
        [[r.system, round(r.pre_success_rate, 3),
          round(r.partition_success_rate, 3), round(r.post_success_rate, 3),
          round(r.min_ring_coherence, 3), _r(r.repair_time_s), r.lookups,
          r.rpc_timeouts, r.rpc_retransmits, r.partition_drops]
         for r in rows],
    ))


def _ablations(args) -> None:
    cfg = _overrides(args, WormScenarioConfig(num_nodes=3000, num_sections=128, seed=9))
    out = run_ablations_parallel(cfg, until=200.0, workers=args.workers)
    nf = out["naive_finger"]
    print("finger displacement:")
    print(f"  displaced fingers : {nf.infected_with_displacement}/{nf.vulnerable} infected")
    print(f"  naive fingers     : {nf.infected_naive_fingers}/{nf.vulnerable} infected")
    av = out["availability"]
    print("replication vs type-wide outbreak:")
    print(f"  two sections   : {av.survivors_two_sections:.1%} keys readable")
    print(f"  single section : {av.survivors_single_section:.1%} keys readable")
    load = out["load"]
    print("ownership load (gini):"
          f" chord={load.chord.gini:.3f} verme={load.verme.gini:.3f}"
          f" (corner rule on {load.verme.predecessor_rule_fraction:.1%} of keys)")
    for mt in out["multitype"]:
        print(f"{mt.num_types} types: worm confined to "
              f"{mt.infected}/{mt.vulnerable} vulnerable nodes")


def _overload(args) -> None:
    from .overload import OverloadConfig, run_overload, smoke_config

    rows = run_overload(_overrides(args, smoke_config() if args.smoke else OverloadConfig()))
    if args.csv:
        print(f"wrote {write_rows_csv(Path(args.csv) / 'overload.csv', rows)}")
    print(format_table(
        ["policy", "lookups", "ok", "shed_rate", "shed_queue", "p50_s",
         "p99_s", "p999_s", "gp_pre/s", "gp_over/s", "gp_post/s"],
        [[r.policy, r.lookups, r.successes, r.shed_rate, r.shed_queue,
          round(r.p50_latency_s, 3), round(r.p99_latency_s, 3),
          round(r.p999_latency_s, 3), round(r.goodput_pre_per_s, 2),
          round(r.goodput_overload_per_s, 2), round(r.goodput_post_per_s, 2)]
         for r in rows],
    ))
    shed = next((r for r in rows if r.policy == "shed"), None)
    noshed = next((r for r in rows if r.policy == "noshed"), None)
    if shed is not None and noshed is not None and shed.goodput_pre_per_s > 0:
        held = shed.goodput_overload_per_s >= 0.8 * shed.goodput_pre_per_s
        degraded = (
            noshed.goodput_post_per_s < 0.8 * noshed.goodput_pre_per_s
            or noshed.goodput_overload_per_s < 0.8 * shed.goodput_overload_per_s
        )
        print(f"criterion: shed goodput held within 20% of pre-spike: "
              f"{'yes' if held else 'NO'}; noshed control degraded: "
              f"{'yes' if degraded else 'NO'}")


def _r(v):
    return None if v is None else round(v, 1)


def main(argv=None) -> int:
    """Run one figure driver from CLI arguments and return the exit code.

    Parses ``argv`` (defaults to ``sys.argv[1:]``), applies scale flags
    (``--paper-scale`` / ``--preset``), enables the requested
    observability instruments around the figure dispatch, and writes the
    ``--metrics`` / ``--trace`` outputs plus the run summary afterwards.
    Observability is always restored to disabled on exit, so repeated
    in-process calls (tests) do not leak instruments into each other.
    """
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner", description=__doc__,
        epilog=_engine_table(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "figure",
        choices=["fig5", "fig6", "fig7", "fig8", "resilience", "ablations",
                 "overload"],
    )
    parser.add_argument("--paper-scale", action="store_true")
    parser.add_argument(
        "--preset", metavar="NAME", default=None,
        help="named population scale (fig5: 120, 1k, 10k; fig8: 1k, "
             "100k, 1m)")
    parser.add_argument("--csv", metavar="DIR", default=None,
                        help="also export the figure's data as CSV into DIR")
    parser.add_argument("--runs", type=int, default=2, help="fig8 repetitions")
    parser.add_argument(
        "--engine", metavar="NAME", default=None,
        help=f"simulation engine ({'/'.join(LIVE_FIGURES)}: "
             f"{', '.join(LIVE_ENGINES)}, by default the first whose "
             f"table below supports the run's flags; fig8: "
             f"{', '.join(ENGINE_CHOICES['fig8'])}, default "
             f"{ENGINE_CHOICES['fig8'][0]}); both engines of a figure "
             "emit bit-identical rows")
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="processes for fig5/fig6/fig7/fig8/ablations cells (1 = "
             "serial, bit-identical output either way)")
    parser.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="collect a metrics snapshot and write it to FILE (JSON, "
             "or CSV when FILE ends in .csv); byte-identical at any "
             "--workers count")
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="record a Chrome trace_event JSON to FILE (view at "
             "https://ui.perfetto.dev); forces --workers 1")
    parser.add_argument(
        "--profile", action="store_true",
        help="run under cProfile, write profile_<figure>.pstats, and "
             "print a per-phase wall/CPU/event-rate report (profiles "
             "this process only; combine with --workers 1)")
    parser.add_argument(
        "--invariants", choices=["sample", "strict"], default=None,
        help="check ring/containment invariants on the sim clock during "
             "fig5/resilience runs (see docs/correctness.md); strict "
             "writes invariants_<figure>.json and exits non-zero on "
             "hard violations; forces --workers 1")
    parser.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="override the experiment config's base seed (reproduce CI "
             "invariant failures locally)")
    parser.add_argument(
        "--workload", metavar="NAME", default=None,
        help="key-popularity model for fig5/overload lookups: poisson "
             "(uniform keys, the default) or zipf (see docs/serving.md)")
    parser.add_argument(
        "--overload", metavar="NAME", default=None,
        help="arrival shape for fig5/overload lookups: none (default), "
             "spike, ramp, or diurnal (see docs/serving.md)")
    parser.add_argument(
        "--smoke", action="store_true",
        help="overload only: the seconds-scale CI cell instead of the "
             "default scale")
    args = parser.parse_args(argv)
    if args.preset is not None:
        table = PRESETS.get(args.figure)
        if table is None:
            parser.error(f"--preset is not supported for {args.figure}")
        if args.preset not in table:
            parser.error(f"unknown {args.figure} preset {args.preset!r} "
                         f"(choices: {', '.join(table)})")
        if args.paper_scale:
            parser.error("--preset and --paper-scale are mutually exclusive")
    if args.engine is not None:
        engines = ENGINE_CHOICES.get(args.figure)
        if engines is None:
            parser.error(f"--engine is not supported for {args.figure}")
        if args.engine not in engines:
            parser.error(f"unknown {args.figure} engine {args.engine!r} "
                         f"(available: {', '.join(engines)})")
    if args.workload is not None or args.overload is not None:
        if args.figure not in ("fig5", "overload"):
            parser.error(
                "--workload/--overload are only supported for fig5 and "
                "overload"
            )
        from ..workload import OVERLOADS, WORKLOADS

        if args.workload is not None and args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r} "
                         f"(choices: {', '.join(WORKLOADS)})")
        if args.overload is not None and args.overload not in OVERLOADS:
            parser.error(f"unknown overload {args.overload!r} "
                         f"(choices: {', '.join(OVERLOADS)})")
    if args.smoke and args.figure != "overload":
        parser.error("--smoke is only supported for overload")
    if args.figure in LIVE_FIGURES:
        args.engine = _live_engine(parser, args)
    if args.trace is not None and args.workers != 1:
        print("--trace is serial-only; forcing --workers 1", file=sys.stderr)
        args.workers = 1
    if args.invariants is not None:
        if args.figure not in ("fig5", "resilience", "overload"):
            parser.error(
                "--invariants is only supported for fig5, resilience and "
                "overload"
            )
        if args.workers != 1:
            print("--invariants is serial-only; forcing --workers 1",
                  file=sys.stderr)
            args.workers = 1
    started = time.time()
    dispatch = {
        "fig5": lambda: _fig5(args),
        "fig6": lambda: _fig67(args, "fig6"),
        "fig7": lambda: _fig67(args, "fig7"),
        "fig8": lambda: _fig8(args),
        "resilience": lambda: _resilience(args),
        "ablations": lambda: _ablations(args),
        "overload": lambda: _overload(args),
    }[args.figure]
    obs_on = (
        args.metrics is not None or args.trace is not None or args.profile
    )
    if obs_on:
        obs_enable(
            metrics=args.metrics is not None,
            trace=args.trace is not None,
            profile=args.profile,
        )
    checker = None
    if args.invariants is not None:
        from ..invariants import InvariantChecker

        checker = InvariantChecker(mode=args.invariants, seed=args.seed)
        OBS.invariants = checker
    try:
        if args.profile:
            import cProfile

            profiler = cProfile.Profile()
            profiler.enable()
            try:
                dispatch()
            finally:
                profiler.disable()
                pstats_path = f"profile_{args.figure}.pstats"
                profiler.dump_stats(pstats_path)
                print(f"\nprofile written to {pstats_path} "
                      f"(inspect: python -m pstats {pstats_path})")
        else:
            dispatch()
        if args.metrics is not None:
            path = Path(args.metrics)
            text = (
                OBS.metrics.to_csv()
                if path.suffix == ".csv"
                else OBS.metrics.to_json()
            )
            path.write_text(text)
            print(f"metrics snapshot written to {path}")
        if args.trace is not None:
            OBS.trace.write(args.trace)
            print(f"trace written to {args.trace} "
                  f"(open at https://ui.perfetto.dev)")
        if args.profile:
            print("phase profile:")
            print(OBS.profile.format_report())
    finally:
        if obs_on:
            obs_disable()
        OBS.invariants = None
    exit_code = 0
    if checker is not None:
        exit_code = _report_invariants(args, checker)
    summary = f"\n[{args.figure} done in {time.time() - started:.1f}s"
    peak = last_peak_rss_kib()
    if peak is not None:
        summary += (f", peak worker RSS {peak:,} KiB"
                    f" across {len(last_worker_rss_kib())} process(es)")
    print(summary + "]")
    return exit_code


def _repro_command(args) -> str:
    """The one-command line that reproduces an invariant failure."""
    parts = ["python -m repro.experiments.runner", args.figure]
    if args.paper_scale:
        parts.append("--paper-scale")
    if args.preset is not None:
        parts.append(f"--preset {args.preset}")
    seed = args.seed
    if seed is None:
        if args.figure == "overload":
            from .overload import OverloadConfig

            seed = OverloadConfig().seed
        else:
            seed = {
                "fig5": Fig5Config().seed,
                "resilience": ResilienceConfig().seed,
            }.get(args.figure, 0)
    parts.append(f"--seed {seed}")
    if args.figure in LIVE_FIGURES:
        parts.append(f"--engine {args.engine}")
    if getattr(args, "smoke", False):
        parts.append("--smoke")
    parts.append("--invariants strict")
    return " ".join(parts)


def _report_invariants(args, checker) -> int:
    """Print the checker summary; in strict mode write the JSON report
    and return 1 (with a repro line) on hard violations."""
    print("\n" + checker.summary())
    errors = checker.errors
    if args.invariants == "strict":
        import json

        path = Path(f"invariants_{args.figure}.json")
        path.write_text(json.dumps(checker.report(), indent=2) + "\n")
        print(f"invariant report written to {path}")
        if errors:
            for violation in errors[:10]:
                print(f"  {violation}")
            if len(errors) > 10:
                print(f"  ... {len(errors) - 10} more (see {path})")
            print("reproduce with:")
            print(f"  {_repro_command(args)}")
            return 1
    elif errors:
        for violation in errors[:10]:
            print(f"  {violation}")
        print("re-run with --invariants strict for the full JSON report")
    return 0


if __name__ == "__main__":
    sys.exit(main())
