"""Argument parsing and subcommand implementations for ``repro``.

Each subcommand imports what only it runs (the HTTP client, the server, the
sweep views, the bench harness) inside its handler, so a command loads no
other command's code.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.api.scenario import Scenario, resolve_token
from repro.api.session import Session
from repro.cache.replacement.factory import available_policies
from repro.cache.replacement.spec import PolicySpec, describe_policies
from repro.cli.serialize import render_csv, to_jsonable
from repro.common.errors import ConfigurationError, WorkloadError
from repro.common.service import DEFAULT_PORT, URL_ENV_VAR
from repro.experiments.backends import backend_names
from repro.experiments.registry import (
    REGISTRY,
    ExperimentContext,
    experiment_names,
    get_experiment,
)
from repro.experiments.store import ResultStore
from repro.sim.config import BASELINE_POLICY, EVALUATED_POLICIES, NAMED_CONFIGS
from repro.workloads.capture import TraceArchive
from repro.workloads.families import describe_families
from repro.workloads.spec import (
    PROXY_BENCHMARKS,
    SYSTEM_COMPONENTS,
    tiny_spec,
)


# ------------------------------------------------------------------ arguments
def _add_cache_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("result store")
    group.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="result-store directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro)",
    )
    group.add_argument(
        "--store-backend",
        choices=backend_names(),
        default=None,
        help="result-store storage backend (default: $REPRO_STORE_BACKEND "
        "or dir).  Both hold byte-identical entries under the same keys",
    )
    group.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the result store entirely (neither read nor write)",
    )
    group.add_argument(
        "--refresh",
        action="store_true",
        help="ignore cached results but write fresh ones",
    )
    group.add_argument(
        "--trace-dir",
        metavar="DIR",
        default=None,
        help="capture generated traces into DIR and replay them on later "
        "runs instead of regenerating (see `repro workloads`)",
    )


def _add_run_options(
    parser: argparse.ArgumentParser, jobs_default: Optional[int], jobs_help: str
) -> None:
    parser.add_argument(
        "--config",
        choices=sorted(NAMED_CONFIGS),
        default="scaled",
        help="simulator configuration (default: scaled)",
    )
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="run on the miniature smoke-test workload instead of the paper "
        "benchmarks (seconds instead of minutes)",
    )
    parser.add_argument(
        "--spec",
        action="append",
        default=None,
        metavar="TOKEN",
        dest="spec",
        help="workload to run: a benchmark name (sqlite), a family token "
        "(zipf:alpha=1.2) or 'tiny'; repeatable, composes with --tiny.  "
        "One grammar for every workload axis — see `repro workloads`",
    )
    parser.add_argument(
        "--core",
        action="append",
        default=None,
        metavar="TOKEN",
        dest="core",
        help="multi-core experiments (interference): one workload per core "
        "(same tokens as --spec); repeat once per core",
    )
    parser.add_argument(
        "--interleave",
        metavar="N,M,...",
        default=None,
        help="round-robin quanta per core for --core runs, e.g. 2,1 "
        "(default: 1 per core)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=jobs_default,
        metavar="N",
        help=jobs_help,
    )
    parser.add_argument(
        "--policy",
        action="append",
        default=None,
        metavar="NAME[:P=V,...]",
        dest="policy",
        help="replacement policy to evaluate, with optional parameters "
        "(e.g. trrip-1 or ship:shct_bits=3); repeatable.  See `repro "
        "policies` for the catalog.  Experiments with a fixed policy list "
        "(figure6, table3, sweep) use these instead",
    )
    _add_cache_options(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the paper's figures and tables from one "
        "entry point, with cached, deterministic simulation runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_parser = sub.add_parser(
        "list", help="show registered experiments, benchmarks and policies"
    )
    list_parser.add_argument(
        "what",
        nargs="?",
        choices=("experiments", "benchmarks", "policies", "all"),
        default="all",
        help="which catalog to print (default: all)",
    )

    sub.add_parser(
        "policies",
        help="describe every replacement policy and its typed parameters",
    )

    sub.add_parser(
        "workloads",
        help="describe every workload family and its typed parameters",
    )

    run_parser = sub.add_parser(
        "run", help="regenerate one figure/table/ablation by name"
    )
    run_parser.add_argument(
        "experiment",
        metavar="EXPERIMENT",
        help="an experiment name from `repro list` (e.g. figure3, table3)",
    )
    _add_run_options(
        run_parser,
        jobs_default=0,
        jobs_help="worker processes (default: 0 = every usable CPU, capped by "
        "the tasks left to simulate; a fully stored plan never forks); 1 "
        "runs in-process",
    )

    sweep_parser = sub.add_parser(
        "sweep", help="run a (benchmark x policy) grid against the baseline"
    )
    sweep_parser.add_argument(
        "--policies",
        metavar="NAMES",
        default=None,
        help="comma-separated policy list (default: the paper's evaluated "
        "policies)",
    )
    _add_run_options(
        sweep_parser,
        jobs_default=0,
        jobs_help="supervised worker processes (default: 0 = every usable "
        "CPU, capped by the workloads left to simulate); every workload's "
        "pending points run as one lockstep task, in a worker even with 1",
    )
    fault_group = sweep_parser.add_argument_group(
        "fault tolerance",
        "every finished unit is durable in the result store, so re-running "
        "an interrupted sweep simulates only the units still missing; a "
        "workload's pending units fail, time out and retry as one task",
    )
    fault_group.add_argument(
        "--max-retries",
        type=int,
        default=1,
        metavar="N",
        help="retries per task after a worker error/crash/timeout, so each "
        "unit runs at most 1 + N times (default: 1)",
    )
    fault_group.add_argument(
        "--unit-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per unit; a task of k units gets k times "
        "it per attempt, and an overdue worker is killed and the task "
        "retried (default: unlimited)",
    )
    fault_group.add_argument(
        "--retry-backoff",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="base delay before the first retry, doubling per attempt with "
        "deterministic jitter (default: 0.25)",
    )
    fault_group.add_argument(
        "--keep-going",
        action="store_true",
        help="after a task exhausts its retries, finish the remaining tasks "
        "and report the partial failure (exit 1) instead of stopping",
    )

    bench_parser = sub.add_parser(
        "bench",
        help="measure engine speed (seed vs flat-array) and the lockstep "
        "multi-policy sweep, asserting the pinned BENCH_baseline.json floors",
    )
    bench_parser.add_argument(
        "--tiny",
        action="store_true",
        help="short shapes (seconds; used by the CI bench job)",
    )
    bench_parser.add_argument(
        "--rounds",
        type=int,
        default=None,
        metavar="N",
        help="best-of-N interleaved measurement rounds (default: 3)",
    )
    bench_parser.add_argument(
        "--no-sweep",
        action="store_true",
        help="skip the lockstep multi-policy sweep measurement",
    )
    bench_parser.add_argument(
        "--no-floors",
        action="store_true",
        help="report only; do not assert the pinned speedup floors",
    )
    bench_parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="also write the JSON report to FILE",
    )

    serve_parser = sub.add_parser(
        "serve",
        help="run the simulation service: an HTTP daemon with a job queue, "
        "in-flight dedup by content hash, backpressure and graceful drain",
    )
    serve_parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="address to bind (default: 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        metavar="PORT",
        help=f"port to bind; 0 = ephemeral (default: {DEFAULT_PORT})",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="worker threads executing jobs (default: 2)",
    )
    serve_parser.add_argument(
        "--queue-size",
        type=int,
        default=16,
        metavar="N",
        help="job-queue capacity; a full queue answers 429 with Retry-After "
        "(default: 16)",
    )
    serve_parser.add_argument(
        "--config",
        choices=sorted(NAMED_CONFIGS),
        default="scaled",
        help="default configuration for submissions that name none "
        "(default: scaled)",
    )
    serve_parser.add_argument(
        "--ready-file",
        metavar="FILE",
        default=None,
        help="write the bound URL to FILE once the service accepts requests "
        "(lets scripts/CI wait for startup without polling)",
    )
    serve_parser.add_argument(
        "--journal",
        metavar="FILE",
        default=None,
        help="submission journal path (default: "
        "<store>/serve/journal-<replica>.jsonl when a store is configured); "
        "accepted jobs are recorded before queueing and re-enqueued on "
        "restart",
    )
    serve_parser.add_argument(
        "--no-journal",
        action="store_true",
        help="disable the submission journal (accepted jobs die with the "
        "process)",
    )
    serve_parser.add_argument(
        "--replica-id",
        metavar="ID",
        default="r0",
        help="identity of this daemon for journal naming and store claim "
        "markers; every replica sharing a store MUST use a distinct id "
        "(default: r0)",
    )
    serve_parser.add_argument(
        "--claim-ttl",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="heartbeat TTL of store claim markers; another replica adopts "
        "a job whose claim has lapsed this long (default: 30)",
    )
    serve_parser.add_argument(
        "--verbose",
        action="store_true",
        help="log each HTTP request to stderr",
    )
    _add_cache_options(serve_parser)

    def _add_client_options(client_parser: argparse.ArgumentParser) -> None:
        client_parser.add_argument(
            "--url",
            default=None,
            metavar="URL",
            help=f"service URL (default: ${URL_ENV_VAR} or "
            f"http://127.0.0.1:{DEFAULT_PORT})",
        )
        client_parser.add_argument(
            "--timeout",
            type=float,
            default=60.0,
            metavar="SECONDS",
            help="per-request HTTP timeout (default: 60)",
        )
        client_parser.add_argument(
            "--retries",
            type=int,
            default=2,
            metavar="N",
            help="transport retries with exponential backoff when the "
            "server is unreachable — rides out a daemon restart "
            "(default: 2; 0 fails fast)",
        )

    submit_parser = sub.add_parser(
        "submit", help="submit a scenario to a running `repro serve` daemon"
    )
    submit_parser.add_argument(
        "--tiny",
        action="store_true",
        help="submit the miniature smoke-test workload",
    )
    submit_parser.add_argument(
        "--spec",
        action="append",
        default=None,
        metavar="TOKEN",
        dest="spec",
        help="workload to submit: a benchmark name, family token or 'tiny'; "
        "repeatable (same grammar as `repro run --spec`)",
    )
    submit_parser.add_argument(
        "--core",
        action="append",
        default=None,
        metavar="TOKEN",
        dest="core",
        help="multi-core submission: one workload per core; repeat once per "
        "core.  Mutually exclusive with --spec/--tiny",
    )
    submit_parser.add_argument(
        "--interleave",
        metavar="N,M,...",
        default=None,
        help="round-robin quanta per core for --core submissions, e.g. 2,1",
    )
    submit_parser.add_argument(
        "--policies",
        metavar="NAMES",
        default=None,
        help="comma-separated policy tokens (default: server baseline)",
    )
    submit_parser.add_argument(
        "--config",
        choices=sorted(NAMED_CONFIGS),
        default=None,
        help="named configuration (default: the server's default)",
    )
    submit_parser.add_argument(
        "--track-reuse",
        action="store_true",
        help="collect reuse-distance histograms per point",
    )
    submit_parser.add_argument(
        "--label", default=None, help="free-form tag echoed in job status"
    )
    submit_parser.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="read the submission payload from a JSON file ('-' = stdin) "
        "instead of building it from flags",
    )
    submit_parser.add_argument(
        "--wait",
        action="store_true",
        help="block until the job finishes and print its results",
    )
    submit_parser.add_argument(
        "--busy-retries",
        type=int,
        default=0,
        metavar="N",
        help="on 429, sleep for the server's Retry-After and retry up to N "
        "times (default: fail immediately)",
    )
    _add_client_options(submit_parser)

    status_parser = sub.add_parser(
        "status",
        help="show a served job's status, or the service metrics with no "
        "job id",
    )
    status_parser.add_argument(
        "job",
        nargs="?",
        default=None,
        metavar="JOB",
        help="job id from `repro submit` (omit for /metrics)",
    )
    status_parser.add_argument(
        "--jobs",
        action="store_true",
        help="list every job the daemon knows (queued, running, finished) "
        "instead of metrics",
    )
    _add_client_options(status_parser)

    result_parser = sub.add_parser(
        "result", help="fetch the results of a finished served job"
    )
    result_parser.add_argument(
        "job", metavar="JOB", help="job id from `repro submit`"
    )
    _add_client_options(result_parser)

    report_parser = sub.add_parser(
        "report", help="render the cached output of a previous run"
    )
    report_parser.add_argument("experiment", metavar="EXPERIMENT")
    report_parser.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format (default: text)",
    )
    report_parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="write to a file instead of stdout",
    )
    report_parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="result-store directory the run was saved to",
    )
    report_parser.add_argument(
        "--store-backend",
        choices=backend_names(),
        default=None,
        help="result-store storage backend the run was saved with "
        "(default: $REPRO_STORE_BACKEND or dir)",
    )
    return parser


# ------------------------------------------------------------------- helpers
def _parse_benchmarks(args) -> Optional[list]:
    """Workloads from ``--tiny`` / ``--spec``.

    Every token — benchmark name, family token, ``tiny`` — goes through
    :func:`repro.api.scenario.resolve_token`, the same resolution path
    scenario wire payloads use, so an unknown name or bad family parameter
    fails here, before any simulation, with the same message everywhere.
    """
    benchmarks: list = []
    if getattr(args, "tiny", False):
        benchmarks.append(tiny_spec())
    for token in getattr(args, "spec", None) or ():
        benchmarks.append(resolve_token(token))
    return benchmarks or None


def _parse_cores(args) -> Optional[list]:
    """Per-core workloads from repeated ``--core`` (same tokens as --spec)."""
    tokens = getattr(args, "core", None)
    if not tokens:
        return None
    return [resolve_token(token) for token in tokens]


def _parse_interleave(args) -> Optional[list]:
    """Round-robin quanta from ``--interleave N,M,...`` (requires --core)."""
    raw = getattr(args, "interleave", None)
    if raw is None:
        return None
    if not getattr(args, "core", None):
        raise ConfigurationError(
            "--interleave only applies to multi-core runs (add --core)"
        )
    try:
        quanta = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ConfigurationError(
            f"--interleave must be comma-separated integers, got {raw!r}"
        )
    if not quanta:
        raise ConfigurationError("--interleave named no quanta")
    return quanta


def _parse_policies(args) -> Optional[list]:
    """Structured policies from ``--policies`` tokens and ``--policy`` flags.

    Validated eagerly against the policy registry: an unknown name or
    parameter fails here with the offending token and the valid choices,
    before any simulation starts.
    """
    tokens: list[str] = []
    if getattr(args, "policies", None):
        tokens.extend(p.strip() for p in args.policies.split(",") if p.strip())
    if getattr(args, "policy", None):
        tokens.extend(args.policy)
    if not tokens:
        return None
    return [PolicySpec.of(token) for token in tokens]


def _make_store(args) -> Optional[ResultStore]:
    if args.no_cache:
        return None
    return ResultStore(
        root=args.store,
        refresh=args.refresh,
        backend=getattr(args, "store_backend", None),
    )


def _make_traces(args) -> Optional[TraceArchive]:
    trace_dir = getattr(args, "trace_dir", None)
    if trace_dir is None:
        return None
    return TraceArchive(trace_dir)


def _make_context(args) -> ExperimentContext:
    if args.jobs is not None and args.jobs < 0:
        raise ConfigurationError(
            f"--jobs must be >= 0 (0 = every usable CPU), got {args.jobs}"
        )
    config = NAMED_CONFIGS[args.config]()
    session = Session(
        config=config,
        store=_make_store(args),
        traces=_make_traces(args),
        jobs=args.jobs,
    )
    return ExperimentContext(
        config=config,
        session=session,
        benchmarks=_parse_benchmarks(args),
        policies=_parse_policies(args),
        cores=_parse_cores(args),
        interleave=_parse_interleave(args),
    )


def _cache_summary(ctx: ExperimentContext) -> str:
    store = ctx.store
    if store is None:
        # Every simulation flows through the session, so the count is exact
        # even for experiments that sweep configurations (figure9).
        summary = (
            f"# {ctx.session.simulations_run} simulation(s) run, cache disabled"
        )
    else:
        summary = (
            f"# {store.misses} simulation(s) run, {store.hits} served from "
            f"cache ({store.root})"
        )
        if store.corrupt:
            summary += (
                f"\n# store: {store.corrupt} corrupt entr"
                f"{'y' if store.corrupt == 1 else 'ies'} quarantined to "
                "*.corrupt and re-simulated"
            )
    traces = ctx.session.traces
    if traces is not None:
        summary += (
            f"\n# traces: {traces.hits} replayed, {traces.writes} captured "
            f"({traces.root})"
        )
        if traces.corrupt:
            summary += (
                f"\n# traces: {traces.corrupt} corrupt capture(s) "
                "quarantined to *.corrupt and regenerated"
            )
    return summary


def _save_report(ctx: ExperimentContext, name: str, text: str, data) -> None:
    store = ctx.store
    if store is None:
        return
    benchmarks = None
    if ctx.benchmarks is not None:
        benchmarks = [getattr(b, "name", b) for b in ctx.benchmarks]
    store.save_report(
        name,
        {
            "experiment": name,
            "config": ctx.config.name,
            "config_hash": ctx.config.content_hash(),
            "benchmarks": benchmarks,
            "text": text,
            "data": to_jsonable(data),
        },
    )


# --------------------------------------------------------------- subcommands
def _cmd_list(args) -> int:
    what = args.what
    if what in ("experiments", "all"):
        print("experiments:")
        for name in experiment_names():
            exp = REGISTRY[name]
            kind = "simulated" if exp.simulates else "static"
            print(f"  {name:22s} {exp.artifact:18s} [{kind}] {exp.description}")
    if what in ("benchmarks", "all"):
        print("proxy benchmarks (Table 2):")
        for name, spec in PROXY_BENCHMARKS.items():
            print(f"  {name:22s} {spec.description}")
        print("system components (Figure 1):")
        for name, spec in SYSTEM_COMPONENTS.items():
            print(f"  {name:22s} {spec.description}")
    if what in ("policies", "all"):
        print("replacement policies (see `repro policies` for parameters):")
        evaluated = set(EVALUATED_POLICIES)
        for name in available_policies():
            marks = []
            if name == BASELINE_POLICY:
                marks.append("baseline")
            if name in evaluated:
                marks.append("evaluated")
            suffix = f" ({', '.join(marks)})" if marks else ""
            print(f"  {name}{suffix}")
    return 0


def _cmd_policies(args) -> int:
    """Describe every registered policy: description, aliases, parameters."""
    print("replacement policies (policy syntax: name[:param=value,...]):")
    evaluated = set(EVALUATED_POLICIES)
    for info, params in describe_policies():
        marks = []
        if info.name == BASELINE_POLICY:
            marks.append("baseline")
        if info.name in evaluated:
            marks.append("evaluated")
        suffix = f" [{', '.join(marks)}]" if marks else ""
        print(f"  {info.name:10s} {info.description}{suffix}")
        if info.aliases:
            print(f"  {'':10s} aliases: {', '.join(info.aliases)}")
        if params:
            print(f"  {'':10s} params:  {params}")
    return 0


def _cmd_workloads(args) -> int:
    """Describe every workload family: description, aliases, parameters."""
    print("workload families (workload syntax: family[:param=value,...]):")
    for info, params in describe_families():
        print(f"  {info.name:14s} {info.description}")
        if info.aliases:
            print(f"  {'':14s} aliases: {', '.join(info.aliases)}")
        if params:
            print(f"  {'':14s} params:  {params}")
    print(
        "\nuse with `repro run EXPERIMENT --spec FAMILY[:param=value,...]`"
        " (repeatable), or\nprogrammatically via"
        " repro.workloads.WorkloadFamilySpec.parse(...).synthesize().\n"
        "add `--trace-dir DIR` to capture generated traces once and replay"
        " them on every\nlater run (see EXPERIMENTS.md for the archive"
        " layout)."
    )
    return 0


def _cmd_run(args) -> int:
    try:
        experiment = get_experiment(args.experiment)
    except KeyError as error:
        print(f"repro run: {error.args[0]}", file=sys.stderr)
        return 1
    ctx = _make_context(args)
    if ctx.policies and not experiment.supports_policies:
        print(
            f"repro run: note: {experiment.name} reproduces a fixed policy "
            "list; --policy ignored",
            file=sys.stderr,
        )
    if (
        experiment.single_benchmark
        and ctx.benchmarks is not None
        and len(ctx.benchmarks) > 1
    ):
        print(
            f"repro run: note: {experiment.name} sweeps a single workload; "
            f"using only {getattr(ctx.benchmarks[0], 'name', ctx.benchmarks[0])!r}",
            file=sys.stderr,
        )
    result = experiment.run(ctx)
    text = experiment.format(result)
    print(f"== {experiment.artifact}: {experiment.description}")
    print(text)
    if experiment.simulates:
        print(_cache_summary(ctx))
    _save_report(ctx, experiment.name, text, result)
    return 0


def _render_sweep(sweep) -> str:
    from repro.experiments.figure6 import format_figure6
    from repro.experiments.table3 import format_table3

    return (
        "== Speedup over SRRIP (Figure 6 view)\n"
        + format_figure6(sweep)
        + "\n\n== L2 MPKI (Table 3 view)\n"
        + format_table3(sweep)
    )


def _cmd_sweep(args) -> int:
    from repro.experiments.supervisor import SupervisionPolicy

    supervision = SupervisionPolicy(
        max_retries=args.max_retries,
        unit_timeout=args.unit_timeout,
        backoff_base=args.retry_backoff,
        keep_going=args.keep_going,
    )
    supervision.validate()
    ctx = _make_context(args)
    checkpointed = ctx.session.sweep_checkpointed(
        benchmarks=ctx.benchmarks,
        policies=ctx.policies,
        supervision=supervision,
    )
    report = checkpointed.report
    if report.complete:
        text = _render_sweep(checkpointed.sweep)
        print(text)
        print(report.summary_line())
        print(_cache_summary(ctx))
        _save_report(ctx, "sweep", text, checkpointed.sweep)
        return 0
    # Partial failure/interruption: no figure views (they would KeyError on
    # the missing cells).  Everything goes to stderr — stdout carries only
    # machine-readable experiment output, and a failed sweep has none, so a
    # consumer piping `repro sweep` sees an empty stream plus exit 1 instead
    # of diagnostics masquerading as data.
    print(report.summary_line(), file=sys.stderr)
    print(_cache_summary(ctx), file=sys.stderr)
    for failure in report.failures:
        print(f"repro sweep: {failure.describe()}", file=sys.stderr)
    missing = report.total - report.cached - report.succeeded
    reason = "was interrupted" if report.interrupted else "has failed units"
    print(
        f"repro sweep: sweep {reason}: {missing} of {report.total} unit(s) "
        "missing; re-run the same command to finish (units already in the "
        "result store are not simulated again)",
        file=sys.stderr,
    )
    return 1


def _cmd_bench(args) -> int:
    """Run the engine-speed shapes and the lockstep sweep; assert floors."""
    from repro.experiments.bench import (
        ROUNDS,
        check_floors,
        format_report,
        load_floors,
        run_engine_bench,
    )

    report = run_engine_bench(
        rounds=args.rounds or ROUNDS,
        tiny=args.tiny,
        sweep=not args.no_sweep,
    )
    print(format_report(report))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"# report written to {args.output}")
    if args.no_floors:
        return 0
    violations = check_floors(report, load_floors())
    if violations:
        for violation in violations:
            print(f"repro bench: FAIL: {violation}", file=sys.stderr)
        return 1
    print("# all pinned speedup floors hold (see BENCH_baseline.json)")
    return 0


def _cmd_serve(args) -> int:
    """Run the simulation service daemon in the foreground."""
    from repro.server import JobManager, ReproServer

    if args.workers < 1:
        raise ConfigurationError("repro serve needs at least one worker")
    config_name = args.config

    def session_factory() -> Session:
        # One private session per worker thread (sessions are not
        # thread-safe); each gets its own store/archive *instances* over the
        # shared on-disk roots, which both backends handle concurrently.
        return Session(
            config=NAMED_CONFIGS[config_name](),
            store=_make_store(args),
            traces=_make_traces(args),
        )

    # Durability wiring: the journal records accepted submissions for
    # restart recovery, and the claim markers (on the shared store's
    # backend) dedup across replicas.  Both need a store to anchor to; a
    # cacheless daemon (--no-cache) runs without them unless --journal
    # names an explicit path.
    from repro.server.journal import SubmissionJournal

    anchor_store = _make_store(args)
    journal = None
    claims = None
    if not args.no_journal:
        if args.journal is not None:
            journal = SubmissionJournal(args.journal)
        elif anchor_store is not None:
            journal = SubmissionJournal.for_store(
                anchor_store.root, args.replica_id
            )
    if anchor_store is not None:
        claims = anchor_store.backend

    manager = JobManager(
        session_factory=session_factory,
        workers=args.workers,
        queue_size=args.queue_size,
        journal=journal,
        claims=claims,
        replica_id=args.replica_id,
        claim_ttl=args.claim_ttl,
    )
    server = ReproServer(
        manager,
        host=args.host,
        port=args.port,
        default_config=config_name,
        verbose=args.verbose,
    )
    server.install_signal_handlers()
    durability = (
        f"journal {journal.path}" if journal is not None else "no journal"
    )
    print(
        f"repro serve: listening on {server.url} "
        f"({args.workers} worker(s), queue capacity {args.queue_size}, "
        f"config {config_name}, replica {args.replica_id}, {durability})",
        file=sys.stderr,
    )
    recovered = manager.recover()
    if recovered:
        print(
            f"repro serve: recovered {recovered} unfinished job(s) from "
            f"{journal.path}",
            file=sys.stderr,
        )
    if args.ready_file:
        # Written whole and then renamed, so a reader that sees the file
        # reads the URL, never an empty file.
        import os

        partial = f"{args.ready_file}.partial"
        with open(partial, "w", encoding="utf-8") as handle:
            handle.write(server.url + "\n")
        os.replace(partial, args.ready_file)
    server.serve_forever()
    print("repro serve: drained and stopped", file=sys.stderr)
    return 0


def _build_submission(args) -> dict:
    """A submission payload from ``repro submit`` flags (or ``--json``).

    Flag-built payloads go through :meth:`Scenario.to_dict` — the same
    serializer the server's ``Scenario.from_dict`` consumes — so the CLI
    validates every token locally (unknown workloads/policies fail before
    any HTTP) and the wire form cannot drift from the scenario schema.
    """
    if args.json is not None:
        if args.json == "-":
            raw = sys.stdin.read()
        else:
            with open(args.json, "r", encoding="utf-8") as handle:
                raw = handle.read()
        try:
            payload = json.loads(raw)
        except ValueError as error:
            raise ConfigurationError(f"--json payload is not valid JSON: {error}")
        if not isinstance(payload, dict):
            raise ConfigurationError("--json payload must be a JSON object")
        return payload
    benchmarks: list[str] = []
    if args.tiny:
        benchmarks.append("tiny")
    benchmarks.extend(args.spec or ())
    cores = list(args.core or ())
    if not benchmarks and not cores:
        raise ConfigurationError(
            "repro submit needs --tiny, --spec, --core or --json"
        )
    if benchmarks and cores:
        raise ConfigurationError(
            "--core (multi-core) and --spec/--tiny (single-core) "
            "are mutually exclusive"
        )
    policies = None
    if args.policies:
        policies = [
            token.strip() for token in args.policies.split(",") if token.strip()
        ]
    scenario = Scenario(
        benchmarks=[resolve_token(t) for t in benchmarks],
        cores=[resolve_token(t) for t in cores],
        interleave=_parse_interleave(args) or (),
        policies=policies or ("lru",),
        track_reuse=args.track_reuse,
        label=args.label or "",
    )
    submission = scenario.to_dict()
    # Fields the user did not set stay off the wire so the server applies
    # its own defaults (notably --config: the daemon's default, not ours).
    submission["config"] = args.config  # to_dict: None when we set no config
    if policies is None:
        del submission["policies"]
    for field in (
        "benchmarks",
        "cores",
        "interleave",
        "config",
        "warmup_instructions",
        "measure_instructions",
        "label",
    ):
        if not submission.get(field):
            del submission[field]
    if not args.track_reuse:
        del submission["track_reuse"]
    return submission


def _client_call(args, call) -> int:
    """Run one client interaction with uniform connection/error reporting.

    Stdout stays machine-readable (JSON only); every diagnostic goes to
    stderr with exit 1.
    """
    from repro.client import (
        ConnectionFailed,
        JobFailed,
        MalformedResponse,
        ReproClient,
        ServiceError,
    )

    client = ReproClient(
        args.url, timeout=args.timeout, retry=getattr(args, "retries", 0)
    )
    try:
        print(json.dumps(call(client), indent=1))
        return 0
    except JobFailed as error:
        print(
            f"repro: job {error.job} failed: "
            f"{error.error.get('type')}: {error.error.get('message')}",
            file=sys.stderr,
        )
        return 1
    except (ServiceError, ConnectionFailed, MalformedResponse) as error:
        print(f"repro: {error}", file=sys.stderr)
        return 1
    except TimeoutError as error:
        print(f"repro: {error}", file=sys.stderr)
        return 1
    finally:
        client.close()


def _cmd_submit(args) -> int:
    submission = _build_submission(args)

    def call(client):
        accepted = client.submit(submission, busy_retries=args.busy_retries)
        if not args.wait:
            return accepted
        client.wait(accepted["job"])
        return client.result(accepted["job"])

    return _client_call(args, call)


def _cmd_status(args) -> int:
    if args.jobs:
        if args.job is not None:
            raise ConfigurationError(
                "repro status --jobs lists every job; drop the job id"
            )
        return _client_call(args, lambda client: client.jobs())
    if args.job is None:
        return _client_call(args, lambda client: client.metrics())
    return _client_call(args, lambda client: client.status(args.job))


def _cmd_result(args) -> int:
    return _client_call(args, lambda client: client.result(args.job))


def _cmd_report(args) -> int:
    store = ResultStore(root=args.store, backend=args.store_backend)
    payload = store.load_report(args.experiment)
    if payload is None:
        print(
            f"repro report: no cached report for {args.experiment!r} in "
            f"{store.root} — run `repro run {args.experiment}` first",
            file=sys.stderr,
        )
        return 1
    # Provenance on stderr so piped CSV/JSON stays clean: the report is
    # whatever the *last* `repro run` wrote, which may have been a --tiny
    # smoke run or a benchmark subset.
    benchmarks = payload.get("benchmarks")
    scope = ",".join(benchmarks) if benchmarks else "default benchmark list"
    print(
        f"# report from `repro run {args.experiment}` "
        f"(config={payload.get('config')}, benchmarks={scope})",
        file=sys.stderr,
    )
    stats = store.stats()
    print(
        f"# store: {store.backend.describe()}; "
        f"{len(store.backend.keys('runs'))} cached run(s), "
        f"{stats['hits']} hit(s), {stats['corrupt']} corrupt this lookup",
        file=sys.stderr,
    )
    from repro.server.journal import summarize_journals

    journal_line = summarize_journals(store.root)
    if journal_line is not None:
        print(f"# {journal_line}", file=sys.stderr)
    if args.format == "text":
        rendered = payload["text"]
    elif args.format == "json":
        rendered = json.dumps(payload["data"], indent=1)
    else:
        rendered = render_csv(payload["data"])
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered if rendered.endswith("\n") else rendered + "\n")
    else:
        print(rendered.rstrip("\n"))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "policies":
            return _cmd_policies(args)
        if args.command == "workloads":
            return _cmd_workloads(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "status":
            return _cmd_status(args)
        if args.command == "result":
            return _cmd_result(args)
        if args.command == "report":
            return _cmd_report(args)
    except (ConfigurationError, WorkloadError) as error:
        print(f"repro: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output was piped into a consumer that exited early (e.g. `head`).
        sys.stderr.close()
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
