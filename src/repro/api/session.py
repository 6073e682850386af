"""The :class:`Session` facade: plan, dedupe and execute simulation runs.

A session owns the execution context every run shares — default simulator
configuration, default pipeline options, an optional persistent
:class:`~repro.experiments.store.ResultStore`, a default worker count — and
turns declarative :class:`~repro.api.scenario.Scenario` objects into
results:

1. :meth:`Session.plan` expands scenarios into a deduplicated
   :class:`~repro.api.scenario.RunPlan` (free: no simulation happens);
2. :meth:`Session.execute` runs the plan's unique points through the one
   executor (:meth:`Session._execute_requests`) — in-process, or as
   workload-affine tasks on a supervised worker pool — and fans results
   back out to every requested point;
3. :meth:`Session.stream` / :meth:`Session.run` / :meth:`Session.run_one` /
   :meth:`Session.sweep` / :meth:`Session.sweep_checkpointed` wrap both for
   the common call shapes.

Results come back as :class:`~repro.experiments.runner.RunArtifacts` (a
result plus requested reuse histograms) in deterministic plan order,
bit-identical for every ``jobs`` value; :meth:`Session.prepare` hands out
the co-design pipeline's output for a request when a caller needs the
binary.  The session keeps one internal engine runner per (configuration,
pipeline-options) pair, so prepared workloads and packed traces are shared
across scenarios.
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
from repro.common.faults import fire_point
from repro.core.pipeline import PipelineOptions, PreparedWorkload
from repro.sim.config import (
    BASELINE_POLICY,
    EVALUATED_POLICIES,
    SimulatorConfig,
)
from repro.workloads.capture import TraceArchive
from repro.workloads.spec import PROXY_BENCHMARK_NAMES

if TYPE_CHECKING:  # engine types; imported lazily at runtime (see below)
    from repro.experiments.runner import BenchmarkRunner, RunArtifacts
    from repro.experiments.store import ResultStore
    from repro.experiments.policy_sweep import PolicySweepResult
    from repro.experiments.supervisor import PoolReport, SupervisionPolicy
    from repro.experiments.sweep import CheckpointedSweep

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
        config: Optional[SimulatorConfig] = None,
        store: Optional[ResultStore] = None,
    ) -> "Session":
        """The given session, or a fresh one around ``config``/``store``.

        Experiment entry points take an optional ``session=``; without one
        they build a session over the ``config=`` (and ``store=``) they were
        given.
        """
        if session is not None:
            return session
        return cls(config=config, store=store)

    def fresh(self) -> "Session":
        """This session's settings, store and archive, without its engine
        caches (prepared workloads, packed traces)."""
        return Session(self.config, self.store, self.options, self.jobs, self.traces)

    # ---------------------------------------------------------------- engines
    def runner_for(
        self,
        config: Optional[SimulatorConfig] = None,
        options: Optional[PipelineOptions] = None,
    ) -> BenchmarkRunner:
        """The engine runner for a (config, options) pair, created on first
        use and cached so prepared workloads/traces are shared."""
        run_config = config or self.config
        return self._runner(
            run_config, options or self.options, run_config.content_hash()
        )

    def _runner(
        self, config: SimulatorConfig, options: PipelineOptions, config_key: str
    ) -> BenchmarkRunner:
        """:meth:`runner_for` given the config's content hash."""
        from repro.experiments.runner import BenchmarkRunner

        key = (config_key, options.cache_key())
        runner = self._runners.get(key)
        if runner is None:
            runner = BenchmarkRunner(
                config=config,
                pipeline_options=options,
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
        unique, _, _ = self._execute_requests(plan.unique, jobs)
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

        The plan runs through :meth:`execute` — so same-workload points
        replay in lockstep for every ``jobs`` value — and completes before
        the first pair is yielded.
        """
        plan = self.plan(*scenarios)
        yield from zip(plan.requests, self.execute(plan, jobs=jobs))

    def prepare(self, request: RunRequest) -> PreparedWorkload:
        """The co-design pipeline's output for a request's workload.

        Runs are results only; figures that read the binary or the loaded
        image (hot-section ranges, page tagging) ask for it here.  Cached
        per engine runner, so the pipeline runs once per (workload, pipeline
        options) whatever the number of requests; for a co-run this is core
        0's workload.
        """
        runner = self._runner(request.config, request.options, request.config_key())
        return runner._prepare_resolved(request.spec, request.options)

    # -------------------------------------------------------------- execution
    def _execute_requests(
        self,
        requests: Sequence[RunRequest],
        jobs: Optional[int] = None,
        supervision: Optional[SupervisionPolicy] = None,
    ) -> tuple[list, list, Optional[PoolReport]]:
        """Run resolved requests (no dedup), results in request order.

        The one executor behind :meth:`execute` (so :meth:`run` and
        :meth:`stream`), :meth:`sweep` and :meth:`sweep_checkpointed`.
        Requests are split into units (:meth:`_units`); the points missing
        from the store are merged into workload-affine tasks
        (:meth:`_tasks`) that run on a
        :class:`~repro.experiments.supervisor.SupervisedPool` through the
        same :meth:`_run_unit` code as the in-process path, which runs
        every other point.  ``jobs`` (default: the session's) is the worker
        count — ``None``/1 one, 0 every usable CPU — capped by the number
        of tasks.  Pooled points come back from their worker as
        ``StoredRun``s and become ``RunArtifacts`` here, so every point is
        a ``RunArtifacts``, bit-identical for every ``jobs`` value.

        Returns ``(runs, outcomes, report)``: per request its run and the
        :class:`~repro.experiments.supervisor.UnitOutcome` of the task that
        ran it (``None`` for a point run in-process), and the pool's
        report (``None`` when nothing was pooled).

        Without ``supervision`` execution is all or nothing (no retries,
        the first failure raises) and runs in-process below two workers, so
        a fully stored plan never forks.  With a
        :class:`~repro.experiments.supervisor.SupervisionPolicy` every
        pending task runs in a worker, even with one, under the policy's
        retries, backoff and per-point timeout; the ``sweep.unit`` fault
        site fires in the worker for each point of a task (keyed by its
        request position) and ``sweep.completed`` in the parent for each
        completed point.  Failures and interruptions are then reported, not
        raised: the run of a point that did not finish is ``None``.
        """
        from repro.experiments.runner import RunArtifacts

        if supervision is not None:
            # Before any work: a fully stored plan never reaches the pool,
            # which would otherwise be the first to check the policy.
            supervision.validate()
        jobs = self.jobs if jobs is None else jobs
        units = self._units(requests)
        runs: list = [None] * len(requests)
        outcomes: list = [None] * len(requests)
        try:
            tasks = []
            if supervision is not None or (jobs not in (None, 1) and len(units) > 1):
                tasks = self._tasks(requests, units)
            if tasks:
                # A fully stored plan has no tasks, so it never loads the
                # pool machinery.
                from repro.experiments.supervisor import (
                    SupervisedPool,
                    SupervisionPolicy,
                    worker_count,
                )

                workers = worker_count(jobs, len(tasks))
                if workers < 2 and supervision is None:
                    tasks = []
            # The request positions of each task's points.
            points = [[index for unit in task for index in unit] for task in tasks]
            pooled = {index for task_points in points for index in task_points}
            for unit in units:
                local = [index for index in unit if index not in pooled]
                if local:
                    done = self._run_unit([requests[index] for index in local])
                    for index, run in zip(local, done):
                        runs[index] = run
            if not tasks:
                return runs, outcomes, None
            completed = 0

            def on_result(position: int, value: tuple) -> None:
                nonlocal completed
                # Fold the worker's counters back before the failure point
                # below: a completed point is durable and counted even when
                # the run is interrupted right after it.
                self.runner.fold_worker_counters(*value[1:])
                if supervision is not None:
                    for _ in points[position]:
                        completed += 1
                        fire_point("sweep.completed", completed)

            pool = SupervisedPool(
                _run_task,
                workers=workers,
                initializer=_init_task_worker,
                initargs=(self.config, self.store, self.options, self.traces),
                # Unsupervised: all or nothing, like a bare Pool.map (no
                # retries, stop on the first failure), with supervised
                # teardown — a crash or a KeyboardInterrupt terminates and
                # joins every child.
                policy=supervision or SupervisionPolicy(max_retries=0),
                on_result=on_result,
            )
            payloads = [
                (
                    task_points if supervision is not None else [],
                    [[requests[index] for index in unit] for unit in task],
                )
                for task, task_points in zip(tasks, points)
            ]
            report = pool.run(payloads, costs=[len(p) for p in points])
            if supervision is None:
                report.raise_on_failure()
            for task, task_points, outcome in zip(tasks, points, report.outcomes):
                done = outcome.value[0] if outcome.status == "done" else ()
                for unit, unit_runs in zip(task, done):
                    for index, run in zip(unit, unit_runs):
                        runs[index] = RunArtifacts(
                            result=run.result, reuse=run.reuse_tracker()
                        )
                for index in task_points:
                    outcomes[index] = outcome
            return runs, outcomes, report
        finally:
            # The probe in _tasks keeps the entries it read for the loads
            # that follow; drop those no load here took (an exception
            # leaves points unrun).
            if self.store is not None:
                self.store.forget_held()

    @staticmethod
    def _units(requests: Sequence[RunRequest]) -> list[list[int]]:
        """Request positions grouped into execution units.

        Requests that share (workload, config, pipeline options) and differ
        only in their L2 policy — the shape of every figure sweep — form
        one lockstep unit: the trace is decoded once and the N hierarchies
        advance together.  Reuse-tracking points (the L2 observer hooks one
        hierarchy at a time) and multi-core co-runs are units of their own.
        Results are bit-identical to point-by-point execution for any
        grouping.  Each distinct config object is hashed once, and every
        request keeps its config's key for the runner lookup of its unit.
        """
        units: dict[tuple, list[int]] = {}
        known: dict[int, str] = {}
        for index, request in enumerate(requests):
            config_key = request.config_key(known)
            if request.track_reuse or request.is_multicore:
                key = ("solo", index)
            else:
                key = (request.spec, config_key, request.options.cache_key())
            units.setdefault(key, []).append(index)
        return list(units.values())

    def _tasks(
        self, requests: Sequence[RunRequest], units: list[list[int]]
    ) -> list[list[list[int]]]:
        """The points the store cannot serve, as workload-affine tasks.

        Each task is a list of units, each unit the request positions of
        its pending points (a stored point is loaded in-process and never
        goes to a worker).  A pending unit joins every task that touches
        one of its workloads (spec and pipeline options; all cores of a
        co-run), so one process prepares and traces each workload,
        whatever the scheduling.  Larger tasks go first.  The store probe
        counts neither hits nor misses: the point's own run counts them
        once.
        """
        tasks: list[tuple[set, list[list[int]]]] = []
        for unit in units:
            if self.store is not None:
                unit = [
                    index
                    for index in unit
                    if not self.store.holds(
                        requests[index].store_key(), requests[index].track_reuse
                    )
                ]
                if not unit:
                    continue
            first = requests[unit[0]]
            workloads = {
                (spec, first.options.cache_key())
                for spec in first.cores or (first.spec,)
            }
            touching = [task for task in tasks if task[0] & workloads]
            tasks = [task for task in tasks if not task[0] & workloads]
            workloads = workloads.union(*(touched for touched, _ in touching))
            members = sorted([unit, *(m for _, ms in touching for m in ms)])
            tasks.append((workloads, members))
        return sorted(
            (members for _, members in tasks),
            key=lambda members: -sum(map(len, members)),
        )

    def _run_unit(self, unit: Sequence[RunRequest]) -> list[RunArtifacts]:
        """Run one unit in this process: the in-process and worker path."""
        first = unit[0]
        runner = self._runner(first.config, first.options, first.config_key())
        return runner.run_points(unit)

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
        request = RunRequest(
            spec=resolve_benchmark(benchmark, run_config),
            policy=PolicySpec.of(policy),
            config=run_config,
            options=options or self.options,
            track_reuse=track_reuse,
        )
        [run] = self._run_unit([request])
        return run

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
        sweep, requests = self._grid(benchmarks, policies, baseline, config)
        runs, _, _ = self._execute_requests(requests, jobs)
        sweep.add(requests, runs)
        return sweep

    def sweep_checkpointed(
        self,
        benchmarks: Optional[Sequence[Benchmark]] = None,
        policies: Optional[Iterable[str | PolicySpec]] = None,
        baseline: str | PolicySpec = BASELINE_POLICY,
        config: Optional[SimulatorConfig] = None,
        jobs: Optional[int] = None,
        supervision: Optional[SupervisionPolicy] = None,
    ) -> CheckpointedSweep:
        """Fault-tolerant :meth:`sweep`: supervised, reported, re-runnable.

        The grid of :meth:`sweep`, in the same order, runs through the
        executor with a
        :class:`~repro.experiments.supervisor.SupervisionPolicy` (default:
        one retry, no timeout, stop at the first exhausted task): points
        the result store holds are loaded, the rest run as one lockstep
        task per workload in supervised worker processes, retried, timed
        out and backed off by the policy.  Returns a
        :class:`~repro.experiments.sweep.CheckpointedSweep`; failures and
        interruptions are reported structurally, never raised mid-sweep.
        Every finished point is durable in the store, so calling this again
        with the same arguments is the resume: it simulates only the
        missing points.  The result lists the baseline first among its
        policies.
        """
        from repro.experiments.supervisor import SupervisionPolicy
        from repro.experiments.sweep import execute_checkpointed

        sweep, requests = self._grid(benchmarks, policies, baseline, config)
        baseline = sweep.baseline_policy
        sweep.policies = (baseline, *(p for p in sweep.policies if p != baseline))
        return execute_checkpointed(
            self, requests, sweep, jobs, supervision or SupervisionPolicy()
        )

    def _grid(
        self,
        benchmarks: Optional[Sequence[Benchmark]],
        policies: Optional[Iterable[str | PolicySpec]],
        baseline: str | PolicySpec,
        config: Optional[SimulatorConfig],
    ) -> tuple[PolicySweepResult, list[RunRequest]]:
        """An empty sweep result for a grid (default: the ten proxies and
        the evaluated policies), and its requests: benchmark-major, with
        the baseline first within each benchmark."""
        from repro.experiments.policy_sweep import PolicySweepResult

        run_config = config or self.config
        wanted_policies = tuple(
            PolicySpec.of(p) for p in (policies or EVALUATED_POLICIES)
        )
        baseline = PolicySpec.of(baseline)
        specs = [
            resolve_benchmark(b, run_config)
            for b in (benchmarks or PROXY_BENCHMARK_NAMES)
        ]
        sweep = PolicySweepResult(
            benchmarks=tuple(spec.name for spec in specs),
            policies=tuple(p.canonical() for p in wanted_policies),
            baseline_policy=baseline.canonical(),
        )
        ordered = [baseline] + [p for p in wanted_policies if p != baseline]
        requests = [
            RunRequest(spec=spec, policy=policy, config=run_config, options=self.options)
            for spec in specs
            for policy in ordered
        ]
        return sweep, requests


#: Per-worker-process session holding the worker's store and archive,
#: built once by the pool initializer; each task runs in a fresh copy.
_TASK_SESSION: Optional[Session] = None


def _init_task_worker(config, store, options, traces) -> None:
    global _TASK_SESSION
    _TASK_SESSION = Session(
        config=config, store=store, options=options, traces=traces
    )


def _run_task(
    task: tuple[list[int], list[list[RunRequest]]], attempt: int = 1
) -> tuple:
    """Run one task of the executor in a pool worker.

    ``task`` is (the request positions the ``sweep.unit`` fault site fires
    for — every point of a supervised task, none otherwise — and the
    task's units).  The site fires for each position before any work, so
    a fault on one point fails its whole task.  Returns (per-unit
    ``StoredRun`` lists, simulations executed, store counter deltas,
    trace-archive counter deltas).  The task runs in a fresh session over
    the worker's store and archive, so its prepared workloads and packed
    traces are freed when it returns; tasks are workload-affine, so no
    later task would have reused them.
    """
    from repro.experiments.runner import _counter_delta, _counter_state
    from repro.experiments.store import StoredRun

    points, units = task
    for index in points:
        fire_point("sweep.unit", index, attempt)
    assert _TASK_SESSION is not None, "worker initializer did not run"
    session = _TASK_SESSION.fresh()
    store_before = _counter_state(session.store)
    trace_before = _counter_state(session.traces)
    runs = [
        [
            StoredRun.from_tracker(run.result, run.reuse)
            for run in session._run_unit(unit)
        ]
        for unit in units
    ]
    return (
        runs,
        session.simulations_run,
        _counter_delta(store_before, _counter_state(session.store)),
        _counter_delta(trace_before, _counter_state(session.traces)),
    )
