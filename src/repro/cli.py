"""Command-line interface.

Three subcommands cover the workflows a downstream user needs without writing
Python:

``run``
    One agreement execution: pick a protocol, an adversary, a size and a seed,
    get the outcome (decision, rounds, messages, corrupted nodes).

``trials``
    Repeat a configuration over many seeds and print the aggregate statistics
    (mean/median/max rounds, agreement and validity rates).  Dispatches via
    :func:`repro.engine.run_sweep`: the default ``--engine auto`` takes the
    batched vectorised fast path when the configuration has one, ``--engine
    object`` forces the faithful simulator and ``--workers`` fans sweeps out
    over processes (trial-range sharding for vectorised sweeps, seed-range
    fan-out for object sweeps).

``sweep``
    The orchestration layer (:mod:`repro.sweeps`): ``run`` brings every
    point of a declarative scenario spec (a library name or a
    ``.json``/``.toml`` file) to its trials — and, under a precision target
    (the spec's or ``--precision``), to its CI width — against the persistent
    results store, ``status`` reports cache coverage, ``expand`` prints the
    materialised grid, ``report`` renders the result table straight from the
    store and ``library`` lists the named scenario specs.  Runs are
    interrupt-safe and resumable: every computed batch is durable
    immediately, and a re-run executes only what the store lacks.

``experiment``
    Regenerate one of the E1–E10 experiment tables (quick sweep by default,
    ``--full`` for the EXPERIMENTS.md-scale sweep).

``engines``
    Print the engine-support tables: one row per protocol (which batched
    kernel implements it, which adversaries it vectorises) followed by the
    full protocol × adversary dispatch table used by ``--engine auto``,
    including whether each fast-path pair is bit-identical to the object
    simulator or statistically cross-validated.  ``--markdown`` emits the
    same tables as marked markdown blocks — the canonical content of the
    tables embedded in README.md and docs/, kept drift-free by
    ``tests/test_docs.py``.

``topologies``
    Print the communication-topology catalogue (the named generators behind
    ``--topology``) and the per-protocol off-clique support table: which
    protocols run off-clique/lossy configurations on the masked vectorised
    planes and how each is cross-validated.  ``--markdown`` emits the blocks
    embedded in ``docs/topologies.md``.

``trace``
    Inspect exported telemetry traces (:mod:`repro.observability`):
    ``report`` folds a ``<run_id>.jsonl`` trace into the per-stage wall-time
    breakdown plus counter totals, ``validate`` checks a file against the
    schema.  Traces are produced by ``--trace`` on ``run``/``trials``/
    ``sweep run`` (or ``REPRO_TRACE=1``) and land under
    ``benchmarks/results/traces/`` unless ``REPRO_TRACE_DIR`` redirects them.
    Tracing never changes results: outputs and store keys are bit-identical
    with tracing on or off.

``run``/``trials`` accept ``--topology`` (any catalogue name) and ``--loss``
(an i.i.d. per-edge drop probability); the defaults — the clique with no
loss — reproduce the historical reliable-broadcast behaviour bit-for-bit.

Examples::

    python -m repro run --n 64 --t 12 --adversary coin-attack --seed 7
    python -m repro trials --n 64 --t 12 --trials 20 --protocol chor-coan-las-vegas
    python -m repro trials --n 2000 --t 250 --trials 100 --engine vectorized
    python -m repro trials --n 48 --t 4 --adversary null --topology ring --loss 0.01
    python -m repro experiment E1 --full
    python -m repro engines
    python -m repro topologies
    python -m repro sweep run off-clique-ladder --workers 4
    python -m repro sweep status scale-ladder
    python -m repro sweep report e6-quick
    python -m repro trials --n 512 --trials 64 --trace
    python -m repro trace report benchmarks/results/traces/<run_id>.jsonl
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Sequence

from repro.core.runner import (
    ADVERSARIES,
    INPUT_PATTERNS,
    PROTOCOLS,
    AgreementExperiment,
    run_agreement,
)
from repro.engine import (
    ENGINES,
    dispatch_table,
    kernel_support_table,
    markdown_engine_tables,
    run_sweep,
)
from repro.metrics.collectors import collect_run_metrics, collect_trials_metrics
from repro.metrics.reporting import format_table
from repro.observability import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    activate,
    env_enabled,
    object_trace_events,
    trace_events,
    write_trace,
)
from repro.simulator.planes import (
    DEFAULT_BACKEND,
    ENV_VAR,
    available_backends,
)
from repro.topology import TOPOLOGIES


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=64, help="number of nodes (default 64)")
    parser.add_argument("--t", type=int, default=12,
                        help="Byzantine budget, must satisfy t < n/3 (default 12)")
    parser.add_argument("--protocol", choices=sorted(PROTOCOLS), default="committee-ba",
                        help="protocol to run (default committee-ba)")
    parser.add_argument("--adversary", choices=sorted(ADVERSARIES), default="coin-attack",
                        help="adversary strategy (default coin-attack)")
    parser.add_argument("--inputs", choices=list(INPUT_PATTERNS), default="split",
                        help="input pattern (default split)")
    parser.add_argument("--alpha", type=float, default=None,
                        help="committee-count constant alpha (default: protocol default)")
    parser.add_argument("--topology", choices=sorted(TOPOLOGIES), default="clique",
                        help="communication topology (default clique; see "
                             "`repro topologies`)")
    parser.add_argument("--loss", type=float, default=0.0,
                        help="i.i.d. per-edge message-loss probability in "
                             "[0, 1) (default 0)")
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Byzantine agreement under an adaptive adversary — reproduction toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run a single agreement execution")
    _add_common_arguments(run_parser)
    run_parser.add_argument("--trace", action="store_true",
                            help="print the adaptive corruption schedule and "
                                 "export the per-round object trace as a "
                                 "JSONL telemetry file (also: REPRO_TRACE=1)")

    trials_parser = subparsers.add_parser("trials", help="run many seeds and aggregate")
    _add_common_arguments(trials_parser)
    trials_parser.add_argument("--trials", type=int, default=10,
                               help="number of independent trials (default 10)")
    trials_parser.add_argument("--engine", choices=list(ENGINES), default="auto",
                               help="execution engine (default auto: the vectorized "
                                    "fast path when the configuration has one, the "
                                    "object simulator otherwise; --engine object "
                                    "forces the faithful simulator)")
    trials_parser.add_argument("--workers", type=int, default=None,
                               help="process count for multi-process sweeps; a value "
                                    "> 1 shards vectorized sweeps by trial range and "
                                    "fans object sweeps out by seed range")
    trials_parser.add_argument("--backend", choices=list(available_backends()),
                               default=None,
                               help="plane backend for the vectorized kernels "
                                    "(default: $REPRO_PLANE_BACKEND, then numpy); "
                                    "all backends are bit-identical")
    trials_parser.add_argument("--trace", action="store_true",
                               help="record a span/counter telemetry trace and "
                                    "export it as JSONL (also: REPRO_TRACE=1; "
                                    "results are bit-identical either way)")

    experiment_parser = subparsers.add_parser(
        "experiment", help="regenerate one of the E1-E10 experiment tables"
    )
    experiment_parser.add_argument("experiment_id", metavar="ID",
                                   help="experiment id, e.g. E1")
    experiment_parser.add_argument("--full", action="store_true",
                                   help="run the full sweep instead of the quick one")

    engines_parser = subparsers.add_parser(
        "engines", help="print the engine-dispatch table"
    )
    engines_parser.add_argument(
        "--markdown", action="store_true",
        help="emit the tables as marked markdown blocks (the exact content "
             "embedded in README.md and docs/, enforced by tests/test_docs.py)")

    topologies_parser = subparsers.add_parser(
        "topologies", help="print the topology catalogue and off-clique support"
    )
    topologies_parser.add_argument(
        "--markdown", action="store_true",
        help="emit the tables as marked markdown blocks (the exact content "
             "embedded in docs/topologies.md, enforced by tests/test_docs.py)")

    sweep_parser = subparsers.add_parser(
        "sweep", help="orchestrate declarative scenario sweeps (cached, resumable)"
    )
    sweep_subparsers = sweep_parser.add_subparsers(dest="sweep_command", required=True)

    def _add_spec_arguments(parser: argparse.ArgumentParser, *, store: bool) -> None:
        parser.add_argument("spec", metavar="SPEC",
                            help="library spec name (see `repro sweep library`) or a "
                                 ".json/.toml spec file")
        if store:
            # Engine choice only matters where the store is consulted (it
            # selects the result family points are cached under).
            parser.add_argument("--engine", choices=list(ENGINES), default=None,
                                help="engine override (default: the spec's own choice)")
            parser.add_argument("--store", metavar="DIR", default=None,
                                help="results store root (default "
                                     "$REPRO_SWEEP_STORE or benchmarks/results/store)")

    sweep_run = sweep_subparsers.add_parser(
        "run", help="execute the spec's pending points (cached points are skipped)"
    )
    _add_spec_arguments(sweep_run, store=True)
    sweep_run.add_argument("--workers", type=int, default=None,
                           help="process count; > 1 shards vectorized points by "
                                "trial range (bit-identical to single-process)")
    sweep_run.add_argument("--backend", choices=list(available_backends()),
                           default=None,
                           help="plane backend for the vectorized kernels; "
                                "bit-identical, so cached points computed under "
                                "any backend are reused")
    sweep_run.add_argument("--limit", type=int, default=None,
                           help="execute at most this many batches (a point "
                                "without a precision target is one batch), "
                                "leaving the rest for a later (resumed) "
                                "invocation")
    sweep_run.add_argument("--quiet", action="store_true",
                           help="suppress the per-point progress lines")
    sweep_run.add_argument("--precision", type=float, default=None,
                           help="target CI width (makes any spec adaptive): "
                                "batches keep running until "
                                "every point's agreement Wilson width AND "
                                "relative mean-rounds CI width are below this "
                                "(overrides the spec's own target)")
    sweep_run.add_argument("--max-trials", type=int, default=None,
                           dest="max_trials",
                           help="adaptive per-point trial ceiling (overrides "
                                "the spec)")
    sweep_run.add_argument("--batch", type=int, default=None,
                           help="adaptive batch size (overrides the spec; "
                                "default: the spec's initial trials)")
    sweep_run.add_argument("--trace", action="store_true",
                           help="record a span/counter telemetry trace and "
                                "export it as JSONL (also: REPRO_TRACE=1; "
                                "results and store keys are bit-identical "
                                "either way)")

    sweep_status = sweep_subparsers.add_parser(
        "status", help="report the spec's cache coverage without executing"
    )
    _add_spec_arguments(sweep_status, store=True)

    sweep_expand = sweep_subparsers.add_parser(
        "expand", help="print the spec's materialised point grid"
    )
    _add_spec_arguments(sweep_expand, store=False)
    sweep_expand.add_argument("--json", action="store_true", dest="as_json",
                              help="emit the canonical spec JSON instead of a table")

    sweep_report = sweep_subparsers.add_parser(
        "report", help="render the spec's result table from the store"
    )
    _add_spec_arguments(sweep_report, store=True)

    sweep_library = sweep_subparsers.add_parser(
        "library", help="list the named scenario specs"
    )
    sweep_library.add_argument(
        "--markdown", action="store_true",
        help="emit the library table as a marked markdown block (the exact "
             "content embedded in docs/sweeps.md, enforced by tests/test_docs.py)")

    trace_parser = subparsers.add_parser(
        "trace", help="inspect exported telemetry traces"
    )
    trace_subparsers = trace_parser.add_subparsers(dest="trace_command", required=True)
    trace_report = trace_subparsers.add_parser(
        "report", help="fold a trace into the per-stage wall-time breakdown"
    )
    trace_report.add_argument("file", metavar="FILE",
                              help="a <run_id>.jsonl trace file (written by "
                                   "--trace / REPRO_TRACE=1)")
    trace_validate = trace_subparsers.add_parser(
        "validate", help="check a trace file against the JSONL schema"
    )
    trace_validate.add_argument("file", metavar="FILE",
                                help="a <run_id>.jsonl trace file")
    return parser


def _cli_tracer(enabled: bool, command: str) -> Tracer | NullTracer:
    """A real tracer when ``--trace`` / ``$REPRO_TRACE`` asks for one."""
    if not (enabled or env_enabled()):
        return NULL_TRACER
    run_id = f"{command}-{time.strftime('%Y%m%d-%H%M%S')}-{os.getpid()}"
    return Tracer(run_id=run_id)


def _export_trace(tracer: Tracer | NullTracer) -> None:
    """Write an enabled tracer out and print the greppable path line."""
    if not tracer.enabled:
        return
    path = write_trace(tracer)
    print(f"trace written: {path} ({len(trace_events(tracer))} events)")


def _command_run(args: argparse.Namespace) -> int:
    tracing = args.trace or env_enabled()
    result = run_agreement(
        n=args.n, t=args.t, protocol=args.protocol, adversary=args.adversary,
        inputs=args.inputs, seed=args.seed, alpha=args.alpha,
        topology=args.topology, loss=args.loss, collect_trace=tracing,
    )
    print(format_table([collect_run_metrics(result)]))
    if tracing and result.trace is not None:
        schedule = result.trace.corruption_schedule()
        if schedule:
            print("\ncorruption schedule (round -> node):")
            for round_index, node_id in schedule:
                print(f"  {round_index:4d} -> {node_id}")
        else:
            print("\nno corruptions occurred")
        # The object simulator's per-round trace in the telemetry schema:
        # one object_round per RoundRecord plus the summary event.
        tracer = _cli_tracer(True, "run")
        for event in object_trace_events(result.trace):
            tracer.emit(event)
        _export_trace(tracer)
    return 0 if result.agreement and result.validity else 1


def _command_trials(args: argparse.Namespace) -> int:
    experiment = AgreementExperiment(
        n=args.n, t=args.t, protocol=args.protocol, adversary=args.adversary,
        inputs=args.inputs, alpha=args.alpha,
        topology=args.topology, loss=args.loss,
    )
    engine = args.engine
    if engine == "object" and args.workers is not None and args.workers > 1:
        # An explicit worker count is an explicit request for the pool.
        engine = "object-mp"
    tracer = _cli_tracer(args.trace, "trials")
    with activate(tracer):
        with tracer.span("cli.trials", protocol=args.protocol,
                         adversary=args.adversary, n=args.n,
                         trials=args.trials):
            trials = run_sweep(
                experiment=experiment, trials=args.trials, base_seed=args.seed,
                engine=engine, workers=args.workers, backend=args.backend,
            )
    row = {"engine": trials.engine, **collect_trials_metrics(trials)}
    print(format_table([row]))
    _export_trace(tracer)
    return 0 if trials.agreement_rate == 1.0 else 1


def _command_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import ALL_EXPERIMENTS

    experiment_id = args.experiment_id.upper()
    if experiment_id not in ALL_EXPERIMENTS:
        print(f"unknown experiment {args.experiment_id!r}; "
              f"available: {', '.join(sorted(ALL_EXPERIMENTS))}", file=sys.stderr)
        return 2
    report = ALL_EXPERIMENTS[experiment_id](quick=not args.full)
    print(report.render())
    return 0


def _command_engines(args: argparse.Namespace) -> int:
    if args.markdown:
        blocks = markdown_engine_tables()
        print(blocks["kernel-support"])
        print()
        print(blocks["dispatch"])
        return 0
    print("per-protocol engine support:")
    print(format_table(kernel_support_table()))
    print("\nprotocol x adversary dispatch (--engine auto):")
    print(format_table(dispatch_table()))
    print(f"\nplane backends available: {', '.join(available_backends())} "
          f"(default {DEFAULT_BACKEND}; select with --backend or ${ENV_VAR})")
    return 0


def _command_topologies(args: argparse.Namespace) -> int:
    from repro.engine import topology_support_table
    from repro.topology import markdown_topology_catalogue, topology_catalogue_table

    if args.markdown:
        print(markdown_topology_catalogue())
        print()
        print(markdown_engine_tables()["topology-support"])
        return 0
    print("topology catalogue:")
    print(format_table(topology_catalogue_table()))
    print("\nper-protocol off-clique support:")
    print(format_table(topology_support_table()))
    return 0


def _load_spec(reference: str):
    """Resolve a spec reference: a library name or a .json/.toml file path."""
    from repro.sweeps import SWEEP_LIBRARY, spec_from_file

    if reference in SWEEP_LIBRARY:
        return SWEEP_LIBRARY[reference]
    if reference.endswith((".json", ".toml")):
        return spec_from_file(reference)
    from repro.exceptions import ConfigurationError

    raise ConfigurationError(
        f"unknown sweep spec {reference!r}: not a library name "
        f"({', '.join(sorted(SWEEP_LIBRARY))}) and not a .json/.toml file"
    )


def _command_sweep(args: argparse.Namespace) -> int:
    from repro.exceptions import ConfigurationError
    from repro.sweeps import (
        ResultsStore,
        expand_rows,
        markdown_library_table,
        report_rows,
        run_spec,
        status_spec,
    )
    from repro.sweeps.library import library_table

    if args.sweep_command == "library":
        if args.markdown:
            print(markdown_library_table())
        else:
            print(format_table(library_table()))
        return 0

    try:
        spec = _load_spec(args.spec)
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.sweep_command == "expand":
        if args.as_json:
            print(spec.to_json())
        else:
            print(f"spec {spec.name}: {spec.description or '(no description)'}")
            print(format_table(expand_rows(spec.expand())))
        return 0

    store = ResultsStore(args.store)
    try:
        if args.sweep_command == "status":
            report = status_spec(spec, store=store, engine=args.engine)
            for outcome in report.outcomes:
                estimate = outcome.estimate
                if estimate is None:
                    print(f"  {outcome.status:8s} {outcome.point.label()}  "
                          f"[{outcome.key[:12]}]")
                else:
                    width = "-" if estimate.trials == 0 else f"{estimate.width:.4f}"
                    print(f"  {estimate.status:9s} {outcome.point.label()}  "
                          f"{estimate.trials:4d} trials, width {width}  "
                          f"[{outcome.key[:12]}]")
            print(report.summary_line())
            if report.targets is None:
                print(report.cache_line())
            return 0
        if args.sweep_command == "report":
            rows = report_rows(spec, store=store, engine=args.engine)
            print(f"spec {spec.name}: results from {store.root}")
            print(format_table(rows))
            missing = sum(1 for row in rows if row["status"] == "pending")
            if missing:
                print(f"({missing} of {len(rows)} points not in the store yet; "
                      f"run `repro sweep run {args.spec}`)")
            return 0
        if args.sweep_command == "run":
            tracer = _cli_tracer(args.trace, "sweep-run")

            def progress(outcome, index, total):
                if args.quiet:
                    return
                timing = f" ({outcome.seconds:.2f}s, {outcome.engine})" \
                    if outcome.status == "computed" else ""
                line = (f"  [{index + 1}/{total}] {outcome.status:8s} "
                        f"{outcome.point.label()}{timing}")
                if outcome.estimate is not None and outcome.trials:
                    state = "converged" if outcome.estimate.converged else "open"
                    line += (f" -> {outcome.trials} trials, width "
                             f"{outcome.estimate.width:.4f} ({state})")
                print(line, flush=True)

            with activate(tracer):
                with tracer.span("cli.sweep_run", spec=spec.name):
                    report = run_spec(
                        spec, store=store, engine=args.engine,
                        workers=args.workers, backend=args.backend,
                        limit=args.limit, progress=progress,
                        precision=args.precision, max_trials=args.max_trials,
                        batch_size=args.batch,
                    )
            print(report.summary_line())
            if report.targets is None:
                print(report.cache_line())
            _export_trace(tracer)
            return 0
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled sweep command {args.sweep_command!r}")


def _command_trace(args: argparse.Namespace) -> int:
    from repro.observability import read_trace, render_report

    try:
        events = read_trace(args.file)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.trace_command == "validate":
        print(f"{args.file}: valid trace "
              f"({len(events)} events, schema {events[0]['schema']})")
        return 0
    if args.trace_command == "report":
        print(render_report(events))
        return 0
    raise AssertionError(f"unhandled trace command {args.trace_command!r}")


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _command_run(args)
    if args.command == "trials":
        return _command_trials(args)
    if args.command == "experiment":
        return _command_experiment(args)
    if args.command == "engines":
        return _command_engines(args)
    if args.command == "topologies":
        return _command_topologies(args)
    if args.command == "sweep":
        return _command_sweep(args)
    if args.command == "trace":
        return _command_trace(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
