"""The :class:`Session` facade: plan, dedupe and execute simulation runs.

A session owns the execution context every run shares — default simulator
configuration, default pipeline options, an optional persistent
:class:`~repro.experiments.store.ResultStore`, a default worker count — and
turns declarative :class:`~repro.api.scenario.Scenario` objects into
results:

1. :meth:`Session.plan` expands scenarios into a deduplicated
   :class:`~repro.api.scenario.RunPlan` (free: no simulation happens);
2. :meth:`Session.execute` runs the plan's unique points through the
   store-aware :class:`~repro.experiments.runner.BenchmarkRunner` engine —
   in-process, or as workload-affine tasks on a supervised worker pool —
   and fans results back out to every requested point;
3. :meth:`Session.stream` / :meth:`Session.run` wrap both for the common
   call shapes.

Results come back as :class:`~repro.experiments.runner.RunArtifacts` in
deterministic plan order, bit-identical for every ``jobs`` value.  The
session keeps one engine runner per (configuration, pipeline-options) pair,
so prepared workloads and packed traces are shared across scenarios exactly
as they were across the old hand-written runner loops.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from repro.api.scenario import (
    Benchmark,
    RunPlan,
    RunRequest,
    Scenario,
    build_plan,
    resolve_benchmark,
)
from repro.cache.replacement.spec import PolicySpec
from repro.core.pipeline import PipelineOptions
from repro.sim.config import (
    BASELINE_POLICY,
    EVALUATED_POLICIES,
    SimulatorConfig,
)
from repro.workloads.capture import TraceArchive
from repro.workloads.spec import PROXY_BENCHMARK_NAMES

if TYPE_CHECKING:  # engine types; imported lazily at runtime (see below)
    from repro.experiments.runner import BenchmarkRunner, RunArtifacts
    from repro.experiments.store import ResultStore, StoredRun
    from repro.experiments.sweep import PolicySweepResult

# The engine lives in repro.experiments, whose experiment modules import
# this API package at module level; importing the engine lazily keeps the
# layering acyclic (api -> engine only at call time).


class Session:
    """Shared execution context for declarative simulation runs."""

    def __init__(
        self,
        config: Optional[SimulatorConfig] = None,
        store: Optional[ResultStore] = None,
        options: Optional[PipelineOptions] = None,
        jobs: Optional[int] = None,
        traces: "Optional[TraceArchive | str]" = None,
    ) -> None:
        self.config = config or SimulatorConfig.default()
        self.config.validate()
        self.store = store
        self.options = options or PipelineOptions()
        #: Default worker count for plan execution (``None``/1 = in-process,
        #: 0 = every usable CPU); per-call ``jobs`` arguments override it.
        self.jobs = jobs
        #: Optional trace capture/replay archive shared by every engine this
        #: session creates (a directory path is coerced to an archive).
        if traces is not None and not isinstance(traces, TraceArchive):
            traces = TraceArchive(traces)
        self.traces = traces
        self._runners: dict[tuple, BenchmarkRunner] = {}

    @classmethod
    def ensure(
        cls,
        session: "Optional[Session]" = None,
        *,
        runner: Optional[BenchmarkRunner] = None,
        config: Optional[SimulatorConfig] = None,
        store: Optional[ResultStore] = None,
        jobs: Optional[int] = None,
    ) -> "Session":
        """Coerce legacy call shapes into a session.

        Experiment entry points accept ``session=``, but also still accept
        the historical ``runner=``/``config=`` arguments; this adopts an
        existing engine runner (sharing its caches and store) or builds a
        fresh session around the given configuration.
        """
        if session is not None:
            return session
        if runner is not None:
            session = cls(
                config=runner.config,
                store=runner.store,
                options=runner.pipeline_options,
                jobs=jobs,
                traces=runner.trace_archive,
            )
            session._runners[
                session._runner_key(runner.config, runner.pipeline_options)
            ] = runner
            return session
        return cls(config=config, store=store, jobs=jobs)

    # ---------------------------------------------------------------- engines
    @staticmethod
    def _runner_key(config: SimulatorConfig, options: PipelineOptions) -> tuple:
        return (config.content_hash(), options.cache_key())

    def runner_for(
        self,
        config: Optional[SimulatorConfig] = None,
        options: Optional[PipelineOptions] = None,
    ) -> BenchmarkRunner:
        """The engine runner for a (config, options) pair, created on first
        use and cached so prepared workloads/traces are shared."""
        from repro.experiments.runner import BenchmarkRunner

        run_config = config or self.config
        run_options = options or self.options
        key = self._runner_key(run_config, run_options)
        runner = self._runners.get(key)
        if runner is None:
            runner = BenchmarkRunner(
                config=run_config,
                pipeline_options=run_options,
                store=self.store,
                trace_archive=self.traces,
            )
            self._runners[key] = runner
        return runner

    @property
    def runner(self) -> BenchmarkRunner:
        """The engine runner for the session's default config and options."""
        return self.runner_for()

    @property
    def simulations_run(self) -> int:
        """Simulations actually executed (store hits excluded), all engines."""
        return sum(runner.simulations_run for runner in self._runners.values())

    # ------------------------------------------------------------------ plans
    def plan(self, *scenarios: Scenario) -> RunPlan:
        """Expand scenarios into a deduplicated plan (no simulation)."""
        return build_plan(scenarios, config=self.config, options=self.options)

    def execute(
        self, plan: RunPlan, jobs: Optional[int] = None
    ) -> list[RunArtifacts]:
        """Execute a plan; results align 1:1 with ``plan.requests``.

        ``jobs`` (default: the session's) caps the worker processes; see
        :meth:`_execute_requests`.
        """
        from repro.experiments.runner import RunArtifacts

        runs = self._execute_requests(plan.unique, jobs)
        unique = [
            run
            if isinstance(run, RunArtifacts)
            # Re-prepare locally (cheap, deterministic, runner-cached) so
            # pooled artifacts look exactly like store-served ones.
            else RunArtifacts(
                result=run.result,
                prepared=self.runner_for(
                    request.config, request.options
                )._prepare_resolved(request.spec, request.options),
                reuse=run.reuse_tracker(),
            )
            for request, run in zip(plan.unique, runs)
        ]
        return [unique[index] for index in plan.indices]

    def run(
        self, *scenarios: Scenario, jobs: Optional[int] = None
    ) -> list[RunArtifacts]:
        """Plan and execute scenarios in one call."""
        return self.execute(self.plan(*scenarios), jobs=jobs)

    def stream(
        self, *scenarios: Scenario, jobs: Optional[int] = None
    ) -> Iterator[tuple[RunRequest, RunArtifacts]]:
        """Yield ``(request, artifacts)`` pairs in deterministic plan order.

        With ``jobs`` other than 1 the plan goes through :meth:`execute`
        and completes first; with one job, each point is yielded as soon as
        it (or its deduplicated original) finishes.
        """
        plan = self.plan(*scenarios)
        jobs = self.jobs if jobs is None else jobs
        if jobs is not None and jobs != 1:
            yield from zip(plan.requests, self.execute(plan, jobs=jobs))
            return
        done: dict[int, RunArtifacts] = {}
        for request, index in zip(plan.requests, plan.indices):
            if index not in done:
                done[index] = self._run_request(plan.unique[index])
            yield request, done[index]

    # -------------------------------------------------------------- execution
    def _run_request(self, request: RunRequest) -> RunArtifacts:
        runner = self.runner_for(request.config, request.options)
        if request.is_multicore:
            return runner.run_cores_resolved(
                request.cores,
                request.policy,
                options=request.options,
                interleave=request.interleave,
            )
        return runner.run_resolved(
            request.spec,
            request.policy,
            options=request.options,
            track_reuse=request.track_reuse,
        )

    def _execute_requests(
        self, requests: Sequence[RunRequest], jobs: Optional[int] = None
    ) -> list[RunArtifacts | StoredRun]:
        """Run resolved requests (no dedup), results in request order.

        The one executor behind :meth:`execute` (so :meth:`run`, and
        :meth:`stream` with more than one job) and :meth:`sweep` (through
        :meth:`~repro.experiments.runner.BenchmarkRunner.run_points`).
        Requests are split into units (:meth:`_units`); the units with a
        point missing from the store are merged into workload-affine tasks
        (:meth:`_tasks`) that run on a
        :class:`~repro.experiments.supervisor.SupervisedPool` through the
        same :meth:`_run_unit` code as the in-process path.  ``jobs``
        (default: the session's) is the worker count — ``None``/1 runs
        everything in-process, 0 uses every usable CPU — capped by the
        number of tasks; with fewer than two workers nothing forks, so a
        fully stored plan never does.  In-process points come back as
        ``RunArtifacts``, pooled ones as ``StoredRun``; both carry
        ``.result``, bit-identical for every ``jobs`` value.
        """
        from repro.experiments.supervisor import (
            SupervisedPool,
            SupervisionPolicy,
            worker_count,
        )

        jobs = self.jobs if jobs is None else jobs
        units = self._units(requests)
        tasks = []
        if jobs not in (None, 1) and len(units) > 1:
            tasks = self._tasks(requests, units)
        workers = worker_count(jobs, len(tasks))
        if workers < 2:
            tasks = []
        pooled = {position for task in tasks for position in task}
        runs: list = [None] * len(requests)
        for position, unit in enumerate(units):
            if position not in pooled:
                done = self._run_unit([requests[index] for index in unit])
                for index, run in zip(unit, done):
                    runs[index] = run
        if not tasks:
            return runs
        pool = SupervisedPool(
            _run_task,
            workers=workers,
            initializer=_init_task_worker,
            initargs=(self.config, self.store, self.options, self.traces),
            # All or nothing, like a bare Pool.map (no retries, stop on the
            # first failure), with supervised teardown: a crash or a
            # KeyboardInterrupt terminates and joins every child.
            policy=SupervisionPolicy(max_retries=0, keep_going=False),
        )
        payloads = [
            [[requests[index] for index in units[position]] for position in task]
            for task in tasks
        ]
        try:
            report = pool.run(payloads)
        finally:
            # Worker counters die with the pool; fold back every completed
            # task, even when the run was interrupted, so the store and
            # archive stats reflect the work that landed durably.
            for outcome in pool.outcomes:
                if outcome.status == "done":
                    self.runner.fold_worker_counters(*outcome.value[1:])
        report.raise_on_failure()
        for task, outcome in zip(tasks, report.outcomes):
            for position, done in zip(task, outcome.value[0]):
                for index, run in zip(units[position], done):
                    runs[index] = run
        return runs

    def _units(self, requests: Sequence[RunRequest]) -> list[list[int]]:
        """Request positions grouped into execution units.

        Requests that share (workload, config, pipeline options) and differ
        only in their L2 policy — the shape of every figure sweep — form
        one lockstep unit: the trace is decoded once and the N hierarchies
        advance together.  Reuse-tracking points (the L2 observer hooks one
        hierarchy at a time) and multi-core co-runs are units of their own.
        Results are bit-identical to point-by-point execution for any
        grouping.
        """
        units: dict[tuple, list[int]] = {}
        for index, request in enumerate(requests):
            if request.track_reuse or request.is_multicore:
                key = ("solo", index)
            else:
                key = (
                    request.spec,
                    request.config.content_hash(),
                    request.options.cache_key(),
                )
            units.setdefault(key, []).append(index)
        return list(units.values())

    def _tasks(
        self, requests: Sequence[RunRequest], units: list[list[int]]
    ) -> list[list[int]]:
        """Unit positions merged into workload-affine tasks.

        Only units with a point the store cannot serve are pending; a
        pending unit joins every task that touches one of its workloads
        (spec and pipeline options; all cores of a co-run), so one process
        prepares and traces each workload, whatever the scheduling.  Larger
        tasks go first.  The store probe counts neither hits nor misses:
        the unit's own run counts them once.
        """
        tasks: list[tuple[set, list[int]]] = []
        for position, unit in enumerate(units):
            if self.store is not None and all(
                self.store.holds(
                    requests[index].store_key(), requests[index].track_reuse
                )
                for index in unit
            ):
                continue
            first = requests[unit[0]]
            workloads = {
                (spec, first.options.cache_key())
                for spec in first.cores or (first.spec,)
            }
            touching = [task for task in tasks if task[0] & workloads]
            tasks = [task for task in tasks if not task[0] & workloads]
            workloads = workloads.union(*(touched for touched, _ in touching))
            members = sorted([position, *(m for _, ms in touching for m in ms)])
            tasks.append((workloads, members))
        return sorted(
            (members for _, members in tasks),
            key=lambda members: -sum(len(units[p]) for p in members),
        )

    def _run_unit(self, unit: Sequence[RunRequest]) -> list[RunArtifacts]:
        """Run one unit in this process: the in-process and worker path."""
        first = unit[0]
        if len(unit) == 1:
            return [self._run_request(first)]
        return self.runner_for(first.config, first.options).run_lockstep_resolved(
            first.spec,
            [request.policy for request in unit],
            options=first.options,
            config=first.config,
        )

    # ---------------------------------------------------------- conveniences
    def run_one(
        self,
        benchmark: Benchmark,
        policy: str | PolicySpec = BASELINE_POLICY,
        *,
        options: Optional[PipelineOptions] = None,
        config: Optional[SimulatorConfig] = None,
        track_reuse: bool = False,
    ) -> RunArtifacts:
        """Simulate a single (benchmark, policy) point."""
        run_config = config or self.config
        run_options = options or self.options
        request = RunRequest(
            spec=resolve_benchmark(benchmark, run_config),
            policy=PolicySpec.of(policy),
            config=run_config,
            options=run_options,
            track_reuse=track_reuse,
        )
        return self._run_request(request)

    def sweep(
        self,
        benchmarks: Optional[Sequence[Benchmark]] = None,
        policies: Optional[Iterable[str | PolicySpec]] = None,
        baseline: str | PolicySpec = BASELINE_POLICY,
        config: Optional[SimulatorConfig] = None,
        jobs: Optional[int] = None,
    ) -> PolicySweepResult:
        """Simulate a (benchmark x policy) grid against a baseline.

        The grid runs benchmark-major with the baseline first within each
        benchmark — the order (and therefore the exact result contents) of
        the historical serial sweep loop, for every ``jobs`` value.
        """
        from repro.experiments.sweep import PolicySweepResult

        run_config = config or self.config
        wanted_policies = tuple(
            PolicySpec.of(p) for p in (policies or EVALUATED_POLICIES)
        )
        baseline = PolicySpec.of(baseline)
        wanted_benchmarks = list(benchmarks or PROXY_BENCHMARK_NAMES)
        runner = self.runner_for(run_config)
        sweep = PolicySweepResult(
            benchmarks=tuple(
                resolve_benchmark(b, run_config).name for b in wanted_benchmarks
            ),
            policies=tuple(p.canonical() for p in wanted_policies),
            baseline_policy=baseline.canonical(),
        )
        ordered = [baseline] + [p for p in wanted_policies if p != baseline]
        grid = runner.run_grid(
            wanted_benchmarks,
            ordered,
            config=run_config,
            jobs=self.jobs if jobs is None else jobs,
        )
        for benchmark, policy, result in grid:
            sweep.results.setdefault(benchmark, {})[policy] = result
        return sweep

    def sweep_checkpointed(
        self,
        benchmarks: Optional[Sequence[Benchmark]] = None,
        policies: Optional[Iterable[str | PolicySpec]] = None,
        baseline: str | PolicySpec = BASELINE_POLICY,
        config: Optional[SimulatorConfig] = None,
        jobs: Optional[int] = None,
        supervision=None,
        resume: bool = False,
    ):
        """Fault-tolerant :meth:`sweep`: checkpointed, supervised, resumable.

        The grid is expanded into a hashed
        :class:`~repro.experiments.sweep.SweepManifest`; units already in
        the result store are served from it, the rest run in supervised
        worker processes with the given
        :class:`~repro.experiments.supervisor.SupervisionPolicy` (retries,
        timeouts, backoff), journalled to
        ``<store>/journals/<manifest>.jsonl``.  ``resume=True`` requires a
        prior journal for the same manifest and executes only the missing
        units.  Returns a
        :class:`~repro.experiments.sweep.CheckpointedSweep`; failures and
        interruptions are reported structurally, never raised mid-sweep.
        Unit order — hence store contents and sweep results — matches
        :meth:`sweep` exactly.
        """
        from repro.experiments.sweep import build_manifest, execute_checkpointed

        run_config = config or self.config
        manifest = build_manifest(
            benchmarks=list(benchmarks or PROXY_BENCHMARK_NAMES),
            policies=list(policies or EVALUATED_POLICIES),
            baseline=baseline,
            config=run_config,
            options=self.options,
        )
        return execute_checkpointed(
            self.runner_for(run_config),
            manifest,
            jobs=self.jobs if jobs is None else jobs,
            supervision=supervision,
            resume=resume,
        )


#: Per-worker-process session, built once by the pool initializer so a
#: worker running several tasks reuses its engines.
_TASK_SESSION: Optional[Session] = None


def _init_task_worker(config, store, options, traces) -> None:
    global _TASK_SESSION
    _TASK_SESSION = Session(
        config=config, store=store, options=options, traces=traces
    )


def _run_task(units: list[list[RunRequest]], attempt: int = 1) -> tuple:
    """(per-unit ``StoredRun`` lists, simulations executed, store counter
    deltas, trace-archive counter deltas) of one task in a pool worker."""
    from repro.experiments.runner import _counter_delta, _counter_state
    from repro.experiments.store import StoredRun

    session = _TASK_SESSION
    assert session is not None, "worker initializer did not run"
    store_before = _counter_state(session.store)
    trace_before = _counter_state(session.traces)
    simulated_before = session.simulations_run
    runs = [
        [
            StoredRun.from_tracker(run.result, run.reuse)
            for run in session._run_unit(unit)
        ]
        for unit in units
    ]
    return (
        runs,
        session.simulations_run - simulated_before,
        _counter_delta(store_before, _counter_state(session.store)),
        _counter_delta(trace_before, _counter_state(session.traces)),
    )
