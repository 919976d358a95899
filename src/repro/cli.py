"""Command-line interface: experiments, single solves, and benchmarks.

Installed as ``repro``; ``python -m repro`` works without installation.

Examples
--------
Regenerate a figure's data (fast mode trims sweeps)::

    repro experiment fig6
    repro experiment fig2 --fast

Solve one instance and print the placement summary::

    repro solve --grid 6 --chunks 5 --algorithm appx
    repro solve --nodes 60 --seed 7 --algorithm dist

Run the instrumented performance baseline and write it as JSON::

    repro bench --output BENCH_PR3.json
    repro bench --nodes 40 --repeats 1 -o quick.json

Gate a change against a committed baseline, and export an event trace::

    repro bench --quick --compare BENCH_PR3.json --threshold 25
    repro solve --nodes 20 --algorithm dist --trace trace.json

Record streaming telemetry (time series + histograms), export it as
OpenMetrics text, and tail a running solve/serve/sweep live::

    repro solve --grid 6 --series                 # writes SERIES.json
    repro serve --grid 6 --requests 200000 --series serve.json \\
        --openmetrics serve-metrics.txt
    repro monitor serve.json                      # in another terminal
    repro bench --quick --series --openmetrics bench-metrics.txt

Serve a request workload against a solved placement (accessing phase)::

    repro serve --grid 6 --requests 10000 --workload zipf
    repro serve --nodes 100 --requests 1000000 --workload zipf --seed 2017
    repro serve --grid 6 --requests 5000 --policy p2c --failure-rate 0.2

Fan a workload x policy x topology x seed grid across worker processes
and write the merged repro-sweep/1 artifact::

    repro sweep --topology grid:6 --workloads zipf,uniform \\
        --policies cheapest,p2c --seeds 1,2,3 -o SWEEP.json
    repro sweep --topology grid:4 --topology random:30 --workers 4

Run the closed-loop adaptive control plane against a drifting workload
(compares accumulated cost with the frozen one-shot placement)::

    repro adapt --grid 4 --chunks 4 --capacity 2 --epoch-requests 1200
    repro adapt --grid 4 --workload shift --churn 2:5 --churn 3:10
    repro adapt --grid 4 --workload zipf --adaptive-policy moves-only
    repro sweep --topology grid:4 --adaptive off,hybrid --epochs 4

Check the architecture/hygiene/determinism rules (and optionally types)::

    repro lint
    repro lint --types
    repro lint --types determinism,rngflow,parallel
    repro lint --format json --output lint-report.json

List everything available::

    repro list

Every subcommand is one ``_cmd_*`` handler bound with ``set_defaults``;
options several subcommands share are declared once, as parent parsers.
Every input error raises :class:`~repro.errors.ProblemError`, which
:func:`main` reports as one ``repro <command>: <message>`` line with
exit status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import (
    Any, Callable, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from repro.errors import ProblemError, ReproError
from repro.experiments import REGISTRY, run_algorithms, summarize
from repro.experiments.report import render_table
from repro.workloads import topology_problem

_ALGO_ALIASES = {
    "appx": "Appx",
    "dist": "Dist",
    "brtf": "Brtf",
    "hopc": "Hopc",
    "cont": "Cont",
    "greedy": "Greedy",
}

#: What ``bench --quick`` runs: the solver gate (small), the serving-
#: throughput gate (serve-scale, 200k batched requests), the fault-
#: injection gate (dist-faults: loss + churn + retx) and the control-
#: loop gate (adaptive-drift).
_QUICK_SCENARIOS = ("small", "serve-scale", "dist-faults", "adaptive-drift")


def _options(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """A parent parser: an option set several subcommands share."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fair caching for peer data sharing (ICDCS 2017 "
        "reproduction)",
    )
    parser.set_defaults(handler=None)
    sub = parser.add_subparsers(dest="command")

    def command(name: str, handler: Callable[[argparse.Namespace], int],
                help_text: str,
                *parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text, parents=list(parents))
        cmd.set_defaults(handler=handler)
        return cmd

    sizing = _options()
    sizing.add_argument("--chunks", type=int, default=5,
                        help="distinct data chunks (default 5)")
    sizing.add_argument("--capacity", type=int, default=5,
                        help="chunk slots per node (default 5)")
    topology = _options(sizing)
    group = topology.add_mutually_exclusive_group(required=True)
    group.add_argument("--grid", type=int, metavar="SIDE",
                       help="SIDE x SIDE grid network")
    group.add_argument("--nodes", type=int, metavar="N",
                       help="connected random network with N nodes")
    topology.add_argument(
        "--seed", type=int, default=2017,
        help="seed for the --nodes topology and, when serving, the "
        "workload stream and the engine (default 2017)",
    )
    algorithm = _options()
    algorithm.add_argument(
        "--algorithm", default="appx",
        choices=sorted(_ALGO_ALIASES) + sorted(_ALGO_ALIASES.values()),
        help="placement algorithm (default appx)",
    )
    load = _options()
    load.add_argument(
        "--rate", type=float, default=None, metavar="R",
        help="mean request arrivals per simulated second, network-wide "
        "(default: the workload's)",
    )
    load.add_argument(
        "--failure-rate", type=float, default=0.0, metavar="P",
        help="probability each cache node is dead during a replay "
        "(default 0; the producer never dies)",
    )
    replay = _options(load)
    replay.add_argument(
        "--policy", default="cheapest", metavar="NAME",
        help="replica-selection policy (see `repro list`; default cheapest)",
    )
    replay.add_argument(
        "--json", action="store_true",
        help="print the report as JSON instead of a table",
    )
    trace = _options()
    trace.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a structured event trace of the run and write it as "
        "Chrome trace-event JSON (open in Perfetto / chrome://tracing)",
    )
    telemetry = _options(trace)
    telemetry.add_argument(
        "--series", nargs="?", const="SERIES.json", default=None,
        metavar="PATH",
        help="record ring-buffered time series + streaming histograms of "
        "the run (parent process only for sweep) and write the "
        "repro-series/1 artifact to PATH (default SERIES.json); the file "
        "is rewritten atomically during the run, so `repro monitor PATH` "
        "can tail it live",
    )
    telemetry.add_argument(
        "--openmetrics", default=None, metavar="PATH",
        help="also write the final metrics (counters, timers, gauges, "
        "histograms) as OpenMetrics/Prometheus text exposition",
    )

    exp = command("experiment", _cmd_experiment,
                  "regenerate a paper figure/table")
    exp.add_argument(
        "id", choices=sorted(REGISTRY) + ["all"],
        help="experiment id, or 'all'",
    )
    exp.add_argument(
        "--fast", action="store_true",
        help="trimmed sweep sizes (what the benchmarks run)",
    )

    solve = command("solve", _cmd_solve, "solve one caching instance",
                    topology, algorithm, telemetry)
    solve.add_argument(
        "--show-map", action="store_true",
        help="print a per-node load map (grid topologies only)",
    )
    faults = solve.add_argument_group(
        "fault injection (dist only)",
        "radio faults for the distributed protocol; any non-default "
        "value other than --loss-rate engages the full fault plane "
        "(lossy floods, partial placements; see docs/FAULTS.md)",
    )
    faults.add_argument(
        "--loss-rate", type=float, default=0.0, metavar="P",
        help="per-delivery Bernoulli drop probability (default 0)",
    )
    faults.add_argument(
        "--jitter", type=float, default=0.0, metavar="S",
        help="uniform extra delivery latency in [0, S) simulated seconds "
        "(default 0; allows reordering)",
    )
    faults.add_argument(
        "--retx-timeout", type=float, default=0.0, metavar="S",
        help="ack + retransmission timeout with exponential backoff "
        "(default 0 = no retransmission)",
    )
    faults.add_argument(
        "--max-retries", type=int, default=3, metavar="N",
        help="retry budget per message when --retx-timeout is set "
        "(default 3)",
    )
    faults.add_argument(
        "--churn", action="append", default=None, metavar="T:NODE:KIND",
        help="scheduled membership change, e.g. 5.0:12:leave "
        "(repeatable; KIND is leave or join)",
    )
    faults.add_argument(
        "--fault-seed", type=int, default=0, metavar="S",
        help="fault-plane RNG seed (default 0)",
    )

    bench = command(
        "bench", _cmd_bench,
        "run the instrumented perf-baseline suite, write BENCH JSON",
        trace,
    )
    bench.add_argument(
        "--output", "-o", default="BENCH.json", metavar="PATH",
        help="where to write the repro-bench/1 JSON document",
    )
    bench.add_argument(
        "--scenario", action="append", metavar="NAME",
        help="run only the named suite scenario (small/medium/large/"
        "serve-scale/dist-faults/adaptive-drift; repeatable; default all)",
    )
    bench.add_argument(
        "--nodes", type=int, default=None, metavar="N",
        help="replace the suite with one custom N-node random scenario",
    )
    bench.add_argument("--seed", type=int, default=2017,
                       help="seed for --nodes scenarios")
    bench.add_argument(
        "--algorithms", default="appx,dist", metavar="A,B",
        help="comma-separated algorithms to benchmark (default appx,dist)",
    )
    bench.add_argument(
        "--repeats", type=int, default=None,
        help="runs per (scenario, algorithm); the fastest is kept "
        "(default 3, or 1 with --quick)",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: the small, serve-scale, dist-faults and "
        "adaptive-drift scenarios, one repeat",
    )
    bench.add_argument(
        "--max-full-rebuilds", type=int, default=None, metavar="N",
        help="fail (exit 3) if any run's costs.full_rebuilds counter "
        "exceeds N",
    )
    bench.add_argument(
        "--compare", default=None, metavar="BASELINE",
        help="diff this run against a baseline repro-bench JSON and fail "
        "(exit 4) on regressions",
    )
    bench.add_argument(
        "--threshold", type=float, default=25.0, metavar="PCT",
        help="regression threshold for --compare, in percent (default 25)",
    )
    bench.add_argument(
        "--min-abs-seconds", type=float, default=None, metavar="S",
        help="absolute wall/timer noise floor for --compare: deltas below "
        "this many seconds never regress on their own (default 0.01; "
        "counters stay exact regardless)",
    )
    bench.add_argument(
        "--series", action="store_true",
        help="record ring-buffered time series + streaming histograms "
        "per run and embed each entry's repro-series/1 artifact in the "
        "bench JSON (default off; off keeps baselines comparable)",
    )
    bench.add_argument(
        "--openmetrics", default=None, metavar="PATH",
        help="also write every entry's metrics as one OpenMetrics text "
        "exposition with scenario/algorithm labels",
    )

    serve = command("serve", _cmd_serve,
                    "replay a request workload against a solved placement",
                    topology, algorithm, replay, telemetry)
    serve.add_argument(
        "--requests", type=int, default=10_000, metavar="N",
        help="number of requests to replay (default 10000)",
    )
    serve.add_argument(
        "--workload", default="zipf", metavar="NAME",
        help="request workload generator (see `repro list`; default zipf)",
    )

    adapt = command(
        "adapt", _cmd_adapt,
        "run the closed-loop adaptive control plane against a drifting "
        "workload and compare it with the static placement",
        topology, replay, telemetry,
    )
    adapt.add_argument(
        "--workload", default="shift", metavar="NAME",
        help="request workload generator (see `repro list`; default "
        "shift — stationary workloads adapt to nothing by design)",
    )
    adapt.add_argument(
        "--adaptive-policy", default="hybrid", metavar="NAME",
        help="adaptive control policy: static, moves-only, resolve-only, "
        "or hybrid (default hybrid)",
    )
    adapt.add_argument(
        "--epochs", type=int, default=6, metavar="N",
        help="control epochs (default 6)",
    )
    adapt.add_argument(
        "--epoch-requests", type=int, default=1200, metavar="N",
        help="requests served per epoch (default 1200)",
    )
    adapt.add_argument(
        "--warmup", type=int, default=1, metavar="N",
        help="observation-only epochs before the demand reference is "
        "frozen (default 1)",
    )
    adapt.add_argument(
        "--alpha", type=float, default=0.5, metavar="A",
        help="EWMA smoothing of the demand estimator, in (0, 1] "
        "(default 0.5)",
    )
    adapt.add_argument(
        "--dirty-threshold", type=float, default=0.1, metavar="D",
        help="per-chunk drift at which local moves engage (default 0.1)",
    )
    adapt.add_argument(
        "--resolve-threshold", type=float, default=0.3, metavar="D",
        help="per-chunk drift at which a full re-solve engages "
        "(default 0.3)",
    )
    adapt.add_argument(
        "--max-moves", type=int, default=4, metavar="N",
        help="accepted local moves per epoch (default 4)",
    )
    adapt.add_argument(
        "--replacement", default="oldest-first", metavar="NAME",
        help="replacement policy when a re-solve needs room "
        "(default oldest-first; see `repro list`)",
    )
    adapt.add_argument(
        "--churn", action="append", default=None, metavar="EPOCH:NODE",
        help="wipe NODE's cache at the start of EPOCH, on both the "
        "adaptive and the static side (repeatable)",
    )
    adapt.add_argument(
        "--shift-period", type=float, default=None, metavar="S",
        help="popularity reshuffle period for the shift workload, in "
        "simulated seconds (default: epoch duration = epoch-requests / "
        "rate, one shift per epoch)",
    )
    adapt.add_argument(
        "--output", "-o", default=None, metavar="PATH",
        help="also write the repro-adaptive/1 JSON document to PATH",
    )

    sweep = command(
        "sweep", _cmd_sweep,
        "fan a serve grid across worker processes, write repro-sweep/1 JSON",
        sizing, algorithm, load, telemetry,
    )
    sweep.add_argument(
        "--topology", action="append", metavar="KIND:N", default=None,
        help="topology axis entry, e.g. grid:6 or random:30 "
        "(repeatable; default grid:6)",
    )
    sweep.add_argument(
        "--workloads", default="zipf", metavar="A,B",
        help="comma-separated workload axis (default zipf)",
    )
    sweep.add_argument(
        "--policies", default="cheapest", metavar="A,B",
        help="comma-separated selection-policy axis (default cheapest)",
    )
    sweep.add_argument(
        "--seeds", default="2017", metavar="S1,S2",
        help="comma-separated seed axis (default 2017)",
    )
    sweep.add_argument(
        "--requests", type=int, default=10_000, metavar="N",
        help="requests per cell (default 10000)",
    )
    sweep.add_argument(
        "--adaptive", default="off", metavar="A,B",
        help="comma-separated adaptive axis: off and/or adaptive control "
        "policies (static, moves-only, resolve-only, hybrid); adaptive "
        "cells run the closed loop over --epochs windows (default off)",
    )
    sweep.add_argument(
        "--epochs", type=int, default=4, metavar="N",
        help="control epochs per adaptive cell (default 4)",
    )
    sweep.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="worker processes; 0 = one per CPU, capped at the cell "
        "count (default 0)",
    )
    sweep.add_argument(
        "--output", "-o", default="SWEEP.json", metavar="PATH",
        help="where to write the repro-sweep/1 JSON document",
    )

    monitor = command(
        "monitor", _cmd_monitor,
        "tail a running solve/serve/sweep via its --series snapshot file "
        "and render a live convergence/throughput view",
    )
    monitor.add_argument(
        "path", metavar="PATH",
        help="the snapshot file another repro process writes via "
        "--series PATH",
    )
    monitor.add_argument(
        "--interval", type=float, default=0.5, metavar="S",
        help="polling interval in seconds (default 0.5)",
    )
    monitor.add_argument(
        "--once", action="store_true",
        help="render one frame and exit (what CI smoke uses)",
    )
    monitor.add_argument(
        "--max-wait", type=float, default=None, metavar="S",
        help="give up (exit 3) if the snapshot file has not appeared "
        "after S seconds (default: wait forever)",
    )

    lint = command(
        "lint", _cmd_lint,
        "check architecture layering, code hygiene, determinism "
        "contracts, and (optionally) types",
    )
    lint.add_argument(
        "--spec", default=None, metavar="PATH",
        help="layering spec (default: docs/layering.toml found by walking "
        "up from the package)",
    )
    lint.add_argument(
        "--det-spec", default=None, metavar="PATH",
        help="determinism contracts (default: docs/determinism.toml found "
        "by walking up from the package; determinism families are "
        "skipped with a note when absent)",
    )
    lint.add_argument(
        "--package", default=None, metavar="DIR",
        help="package directory to lint (default: the installed repro "
        "package)",
    )
    lint.add_argument(
        "--types", nargs="?", const="all,mypy", default=None,
        metavar="FAMILIES",
        help="comma-separated rule families to run: architecture, hygiene, "
        "determinism, rngflow, parallel, plus 'all' (every static family) "
        "and 'mypy' (strict typecheck of the typed core, skipped with a "
        "note if mypy is not installed).  Bare --types means 'all,mypy'; "
        "omitting the flag runs every static family without mypy",
    )
    lint.add_argument(
        "--format", dest="fmt", choices=("text", "json", "sarif"),
        default="text",
        help="report format (default text); json is the byte-stable "
        "repro-lint/1 schema, sarif is SARIF 2.1.0",
    )
    lint.add_argument(
        "--output", "-o", default=None, metavar="PATH",
        help="also write the formatted report to PATH (stdout is printed "
        "either way, so CI can tee the artifact without masking the "
        "exit code)",
    )

    command("list", _cmd_list, "list experiments and algorithms")
    return parser


def _lookup(registry: Mapping[str, Any], name: str, what: str) -> Any:
    """``registry[name]``, or a :class:`ProblemError` naming the choices."""
    if name not in registry:
        raise ProblemError(
            f"unknown {what} {name!r}; choose from {sorted(registry)}"
        )
    return registry[name]


def _split(text: str) -> Tuple[str, ...]:
    """The non-empty, stripped items of a comma-separated option."""
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _problem(args: argparse.Namespace) -> Tuple[Any, str]:
    """The ``--grid``/``--nodes`` problem and its report label."""
    if args.grid is not None:
        kind, size = "grid", args.grid
        label = f"{args.grid}x{args.grid} grid"
    else:
        kind, size = "random", args.nodes
        label = f"random network ({args.nodes} nodes, seed {args.seed})"
    problem = topology_problem(
        kind, size, args.seed, num_chunks=args.chunks, capacity=args.capacity
    )
    return problem, label


def _parse_churn(
    specs: Optional[Sequence[str]], form: str, fields: Sequence[Callable]
) -> Tuple[tuple, ...]:
    """Each repeatable ``--churn`` spec, split on ``:`` and converted
    field by field; ``form`` names the expected shape in the error."""
    entries = []
    for spec in specs or ():
        parts = spec.split(":")
        try:
            if len(parts) != len(fields):
                raise ValueError(spec)
            entries.append(tuple(f(part) for f, part in zip(fields, parts)))
        except ValueError:
            raise ProblemError(
                f"--churn expects {form}, got {spec!r}"
            ) from None
    return tuple(entries)


@contextlib.contextmanager
def _telemetry(
    trace_path: Optional[str],
    series_path: Optional[str] = None,
    metrics_path: Optional[str] = None,
) -> Iterator[None]:
    """Install the ``--trace`` tracer and the ``--series`` /
    ``--openmetrics`` recorder for the body; write their files when it
    exits normally.

    With every path ``None`` nothing is installed: tracing stays a
    NullTracer and the recorder a zero-cost NullRecorder.
    """
    from repro.obs import (
        SeriesConfig,
        SeriesRecorder,
        Tracer,
        use_recorder,
        use_tracer,
    )

    tracer = Tracer() if trace_path is not None else None
    recorder = None
    if series_path is not None or metrics_path is not None:
        recorder = SeriesRecorder(SeriesConfig(snapshot_path=series_path))
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(use_tracer(tracer))
        if recorder is not None:
            stack.enter_context(use_recorder(recorder))
        yield
    if tracer is not None:
        from repro.obs.manifest import build_manifest

        tracer.write(trace_path, manifest=build_manifest())
        suffix = ""
        if tracer.dropped:
            suffix = f" ({tracer.dropped} events dropped; ring buffer full)"
        print(f"wrote trace {trace_path}: {len(tracer.events)} events{suffix}")
    if recorder is None:
        return
    recorder.finalize()
    dump = recorder.dump()
    # Status lines go to stderr: `repro serve --json > report.json`
    # must stay machine-parseable even with --series/--openmetrics.
    if series_path is not None:
        print(f"wrote series {series_path}: {len(dump['series'])} series, "
              f"{len(dump['histograms'])} histograms "
              f"(tail live with `repro monitor {series_path}`)",
              file=sys.stderr)
    if metrics_path is not None:
        from repro.obs import write_openmetrics

        write_openmetrics(dump, metrics_path)
        print(f"wrote openmetrics {metrics_path}", file=sys.stderr)


def _cmd_experiment(args: argparse.Namespace) -> int:
    ids = sorted(REGISTRY) if args.id == "all" else [args.id]
    for index, experiment_id in enumerate(ids):
        if index:
            print()
        result = REGISTRY[experiment_id](fast=args.fast)
        print(result.to_text())
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    problem, label = _problem(args)
    name = _ALGO_ALIASES.get(args.algorithm, args.algorithm)
    fault_config = _parse_fault_config(args)
    if fault_config is not None and name != "Dist":
        raise ProblemError("fault-injection flags require --algorithm dist")
    outcome = None
    with _telemetry(args.trace, args.series, args.openmetrics):
        if fault_config is not None:
            from repro.distributed import solve_distributed
            from repro.errors import SimulationError

            try:
                outcome = solve_distributed(problem, fault_config)
            except SimulationError as exc:
                # Bad churn kind / unknown node / producer churn: user
                # input, not a solver bug.
                raise ProblemError(str(exc)) from exc
            placement = outcome.placement
        else:
            placement = run_algorithms(problem, [name])[name]
    s = summarize(name, placement)
    print(f"{name} on {label}: {problem.num_chunks} chunks, "
          f"capacity {args.capacity}")
    rows = [
        ["total contention cost", s.total_cost],
        ["  accessing phase", s.access_cost],
        ["  dissemination phase", s.dissemination_cost],
        ["Gini coefficient", s.gini],
        ["75-percentile fairness", s.p75_fairness],
        ["caching nodes used", s.nodes_used],
        ["total chunk copies", s.total_copies],
    ]
    print(render_table(["metric", "value"], rows))
    if outcome is not None and outcome.faults is not None:
        f = outcome.faults
        print()
        print(f"faults: {f.stats.total_drops()} drops, "
              f"{f.stats.total_retx()} retransmissions, "
              f"{f.stats.total_duplicates()} duplicates suppressed, "
              f"{f.stats.total_exhausted()} retry budgets exhausted, "
              f"{f.stats.leaves} leaves / {f.stats.joins} joins")
        if f.converged:
            print("all nodes served (converged)")
        else:
            print(f"PARTIAL placement: {f.total_unserved} node-chunk "
                  f"assignments fell back to the producer")
    print()
    for chunk in placement.chunks:
        print(f"chunk {chunk.chunk}: cached at "
              f"{sorted(chunk.caches, key=str)}")
    if args.show_map:
        if args.grid is None:
            print("\n--show-map requires a --grid topology")
        else:
            from repro.viz import render_grid_placement

            print("\nper-node load map (* = producer, . = empty):")
            print(render_grid_placement(placement, side=args.grid))
    return 0


def _parse_fault_config(args: argparse.Namespace):
    """Build a ``DistributedConfig`` from the solve fault flags.

    Returns None when every fault flag is at its default, so the plain
    (registry-driven) solve path stays untouched.
    """
    if not (args.loss_rate or args.jitter or args.retx_timeout or args.churn):
        return None
    from repro.distributed import DistributedConfig

    return DistributedConfig(
        loss_rate=args.loss_rate,
        jitter=args.jitter,
        retx_timeout=args.retx_timeout,
        max_retries=args.max_retries,
        churn_schedule=_parse_churn(
            args.churn, "T:NODE:KIND with a float time and integer node",
            (float, int, str),
        ),
        fault_seed=args.fault_seed,
    )


def _cmd_bench(args: argparse.Namespace) -> int:
    # Imported lazily: the bench module pulls in every solver layer.
    from repro.obs.bench import (
        SOLVERS,
        SUITE_BY_NAME,
        BenchScenario,
        full_rebuild_overruns,
        render_bench,
        run_bench,
        write_bench,
    )
    from repro.obs.compare import (
        DEFAULT_MIN_ABS_SECONDS,
        compare_bench,
        load_bench,
    )

    repeats = args.repeats
    if repeats is None:
        repeats = 1 if args.quick else 3
    if repeats < 1:
        raise ProblemError(f"--repeats must be >= 1, got {repeats}")
    if args.quick and (args.nodes is not None or args.scenario):
        raise ProblemError(
            "--quick and --nodes/--scenario are mutually exclusive"
        )
    if args.nodes is not None and args.scenario:
        raise ProblemError("--nodes and --scenario are mutually exclusive")
    if args.nodes is not None:
        scenarios = [BenchScenario(f"custom-{args.nodes}", args.nodes,
                                   seed=args.seed)]
    else:
        names = _QUICK_SCENARIOS if args.quick else (
            args.scenario or list(SUITE_BY_NAME)
        )
        scenarios = [_lookup(SUITE_BY_NAME, n, "scenario") for n in names]
    algorithms = [_ALGO_ALIASES.get(n, n) for n in _split(args.algorithms)]
    if not algorithms:
        raise ProblemError("no algorithms selected")
    for name in algorithms:
        _lookup(SOLVERS, name, "algorithm")
    baseline = None
    if args.compare is not None:
        try:
            baseline = load_bench(args.compare)
        except (OSError, ValueError, ReproError) as exc:
            raise ProblemError(
                f"cannot load baseline {args.compare}: {exc}"
            ) from exc
    with _telemetry(args.trace):
        result = run_bench(
            scenarios, algorithms, repeats=repeats, series=args.series
        )
    write_bench(result, args.output)
    print(render_bench(result))
    print(f"\nwrote {args.output}")
    if args.openmetrics is not None:
        from repro.obs.bench import bench_openmetrics

        with open(args.openmetrics, "w", encoding="utf-8") as handle:
            handle.write(bench_openmetrics(result))
        print(f"wrote openmetrics {args.openmetrics}")
    if args.max_full_rebuilds is not None:
        overruns = full_rebuild_overruns(result, args.max_full_rebuilds)
        if overruns:
            for scenario, name, count in overruns:
                print(
                    f"FAIL: {scenario}/{name} did {count:g} full cost "
                    f"rebuilds (budget {args.max_full_rebuilds})",
                    file=sys.stderr,
                )
            return 3
        print(f"full-rebuild budget OK (<= {args.max_full_rebuilds})")
    if baseline is not None:
        min_abs = (
            DEFAULT_MIN_ABS_SECONDS
            if args.min_abs_seconds is None
            else args.min_abs_seconds
        )
        comparison = compare_bench(
            baseline, result, threshold_pct=args.threshold,
            min_abs_seconds=min_abs,
        )
        print()
        print(comparison.render())
        if not comparison.ok:
            return 4
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported lazily: serve pulls in the solver + delay layers.
    from repro.serve import SELECTION_POLICIES, WORKLOADS, ServeConfig
    from repro.serve.engine import serve_placement

    workload_cls = _lookup(WORKLOADS, args.workload, "workload")
    _lookup(SELECTION_POLICIES, args.policy, "policy")
    if args.requests < 0:
        raise ProblemError(f"--requests must be >= 0, got {args.requests}")
    problem, label = _problem(args)
    if args.rate is not None:
        workload = workload_cls(seed=args.seed, rate=args.rate)
    else:
        workload = workload_cls(seed=args.seed)
    config = ServeConfig(failure_rate=args.failure_rate, seed=args.seed)
    name = _ALGO_ALIASES.get(args.algorithm, args.algorithm)
    with _telemetry(args.trace, args.series, args.openmetrics):
        placement = run_algorithms(problem, [name])[name]
        report = serve_placement(
            placement, workload, args.requests,
            policy=args.policy, config=config,
        )
    if args.json:
        print(report.to_json())
    else:
        print(f"{name} on {label}: {args.requests} requests, "
              f"workload {report.workload!r}, policy {report.policy!r}")
        print()
        print(report.render())
    return 0


def _cmd_adapt(args: argparse.Namespace) -> int:
    """``repro adapt``: the closed adaptive control loop, every knob."""
    from repro.adaptive import AdaptiveConfig, run_adaptive
    from repro.serve import SELECTION_POLICIES, WORKLOADS, ServeConfig

    workload_cls = _lookup(WORKLOADS, args.workload, "workload")
    _lookup(SELECTION_POLICIES, args.policy, "policy")
    if args.epoch_requests < 1:
        raise ProblemError(
            f"--epoch-requests must be >= 1, got {args.epoch_requests}"
        )
    problem, label = _problem(args)

    kwargs = {"seed": args.seed}
    if args.rate is not None:
        kwargs["rate"] = args.rate
    if args.workload == "shift":
        shift_period = args.shift_period
        if shift_period is None:
            # Default: the popularity reshuffles once per epoch — the
            # drift the controller is built to chase.
            rate = kwargs.get("rate", workload_cls(seed=args.seed).rate)
            shift_period = (
                args.epoch_requests / rate if rate > 0 else 60.0
            )
        kwargs["shift_period"] = shift_period
    elif args.shift_period is not None:
        raise ProblemError(
            "--shift-period only applies to the shift workload"
        )
    try:
        workload = workload_cls(**kwargs)
    except TypeError as exc:
        raise ProblemError(
            f"workload {args.workload!r} rejected its arguments: {exc}"
        ) from exc

    config = AdaptiveConfig(
        epochs=args.epochs,
        epoch_requests=args.epoch_requests,
        policy=args.adaptive_policy,
        warmup_epochs=args.warmup,
        ewma_alpha=args.alpha,
        dirty_threshold=args.dirty_threshold,
        resolve_threshold=args.resolve_threshold,
        max_moves_per_epoch=args.max_moves,
        selection_policy=args.policy,
        serve=ServeConfig(failure_rate=args.failure_rate, seed=args.seed),
        replacement=args.replacement,
        churn_schedule=_parse_churn(
            args.churn, "EPOCH:NODE with integers", (int, int)
        ),
    )
    with _telemetry(args.trace, args.series, args.openmetrics):
        report = run_adaptive(problem, workload, config)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
            handle.write("\n")
    if args.json:
        print(report.to_json())
    else:
        print(f"adaptive ({args.adaptive_policy}) on {label}: "
              f"{args.epochs} epochs x {args.epoch_requests} requests, "
              f"workload {report.workload!r}, "
              f"policy {report.selection_policy!r}")
        print()
        print(report.render())
        if args.output is not None:
            print(f"\nwrote {args.output}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    # Imported lazily: sweep pulls in serve plus the solver layers.
    from repro.sweep import (
        SweepGrid,
        render_sweep,
        resolve_workers,
        run_sweep,
        write_sweep,
    )

    try:
        seeds = tuple(int(s) for s in _split(args.seeds))
    except ValueError:
        raise ProblemError(
            f"--seeds must be comma-separated integers, got {args.seeds!r}"
        ) from None
    grid = SweepGrid(
        topologies=tuple(args.topology or ("grid:6",)),
        workloads=_split(args.workloads),
        policies=_split(args.policies),
        seeds=seeds,
        adaptive=_split(args.adaptive),
        epochs=args.epochs,
        algorithm=_ALGO_ALIASES.get(args.algorithm, args.algorithm),
        requests=args.requests,
        rate=args.rate,
        failure_rate=args.failure_rate,
        chunks=args.chunks,
        capacity=args.capacity,
    )
    workers = resolve_workers(args.workers, len(grid.cells()))
    with _telemetry(args.trace, args.series, args.openmetrics):
        document = run_sweep(grid, workers=workers)
    write_sweep(document, args.output)
    print(render_sweep(document))
    print(f"\nwrote {args.output} ({workers} worker"
          f"{'s' if workers != 1 else ''})")
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.obs.monitor import monitor_loop

    if args.interval <= 0:
        raise ProblemError(f"--interval must be > 0, got {args.interval}")
    try:
        return monitor_loop(
            args.path,
            interval_s=args.interval,
            once=args.once,
            max_wait_s=args.max_wait,
        )
    except KeyboardInterrupt:
        # Detaching from a live run is the normal way out of a tail.
        print()
        return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Imported lazily: the analysis package is only needed for this command.
    from pathlib import Path

    from repro.analysis import run_lint
    from repro.analysis.linter import FAMILIES
    from repro.analysis.typecheck import run_typecheck

    families, run_mypy = _parse_lint_types(args.types, FAMILIES)
    report = run_lint(
        package_dir=Path(args.package) if args.package else None,
        spec_path=Path(args.spec) if args.spec else None,
        families=families,
        det_spec_path=Path(args.det_spec) if args.det_spec else None,
    )
    rendered = report.render(args.fmt)
    if args.output:
        Path(args.output).write_text(rendered, encoding="utf-8")
    print(rendered.rstrip("\n"))
    status = 0 if report.ok else 2
    if run_mypy:
        src_root = Path(args.package).parent if args.package else None
        type_status, output = run_typecheck(src_root=src_root)
        print()
        print(output.rstrip() or "repro lint mypy: clean")
        status = status or type_status
    return status


def _parse_lint_types(
    value: Optional[str], known_families: Sequence[str]
) -> Tuple[List[str], bool]:
    """Resolve ``--types`` into (static families to run, run mypy?).

    ``None`` (flag omitted) runs every static family without mypy; a
    bare ``--types`` resolves to ``all,mypy`` for backward
    compatibility with the original boolean flag.
    """
    if value is None:
        return list(known_families), False
    families: List[str] = []
    run_mypy = False
    for token in (part.strip() for part in value.split(",")):
        if not token:
            continue
        if token == "mypy":
            run_mypy = True
        elif token == "all":
            families.extend(
                f for f in known_families if f not in families
            )
        elif token in known_families:
            if token not in families:
                families.append(token)
        else:
            raise ProblemError(
                f"unknown lint type {token!r}; expected one of "
                f"{', '.join([*known_families, 'all', 'mypy'])}"
            )
    return families, run_mypy


def _cmd_list(args: argparse.Namespace) -> int:
    # Imported lazily, like every serve touchpoint in this module.
    from repro.adaptive.policy import ADAPTIVE_POLICIES
    from repro.online.replacement import REPLACEMENT_POLICIES
    from repro.serve import SELECTION_POLICIES, WORKLOADS

    print("experiments:", ", ".join(sorted(REGISTRY)))
    print("algorithms:", ", ".join(sorted(_ALGO_ALIASES)))
    print("workloads:", ", ".join(sorted(WORKLOADS)))
    print("selection policies:", ", ".join(sorted(SELECTION_POLICIES)))
    print("replacement policies:", ", ".join(sorted(REPLACEMENT_POLICIES)))
    print("adaptive policies:", ", ".join(sorted(ADAPTIVE_POLICIES)))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command; exit 2 with a one-line message on bad input.

    Every input error — a negative rate, a 0x0 grid, an unknown
    workload, a malformed ``--churn`` ... — raises
    :class:`ProblemError`; it is reported here as
    ``repro <command>: <message>`` on stderr, never as a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.handler is None:
        parser.print_help()
        return 1
    try:
        return args.handler(args)
    except ProblemError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
