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
   serially, or fanned out over worker processes when the plan is uniform —
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
    from repro.experiments.store import ResultStore
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
        lockstep: bool = True,
    ) -> None:
        self.config = config or SimulatorConfig.default()
        self.config.validate()
        self.store = store
        self.options = options or PipelineOptions()
        #: Default worker count for plan execution (``None``/1 = serial,
        #: 0 = all cores); per-call ``jobs`` arguments override it.
        self.jobs = jobs
        #: Optional trace capture/replay archive shared by every engine this
        #: session creates (a directory path is coerced to an archive).
        if traces is not None and not isinstance(traces, TraceArchive):
            traces = TraceArchive(traces)
        self.traces = traces
        #: When executing a plan serially, runs that share (workload, config,
        #: pipeline options) and differ only in their L2 policy advance
        #: through one lockstep replay instead of N independent ones
        #: (bit-identical results; see
        #: :meth:`~repro.experiments.runner.BenchmarkRunner.run_lockstep_resolved`).
        self.lockstep = lockstep
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
        """Execute a plan; results align 1:1 with ``plan.requests``."""
        unique = self._execute_unique(plan, jobs)
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

        With parallel execution the whole plan completes first; serially,
        each point is yielded as soon as it (or its deduplicated original)
        finishes.
        """
        plan = self.plan(*scenarios)
        jobs = self.jobs if jobs is None else jobs
        if jobs is not None and jobs != 1:  # 0 = all cores, like the engine
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

    def _execute_unique(
        self, plan: RunPlan, jobs: Optional[int]
    ) -> list[RunArtifacts]:
        unique = plan.unique
        jobs = self.jobs if jobs is None else jobs
        if jobs is not None and jobs != 1 and len(unique) > 1:
            uniform = (
                not any(request.track_reuse for request in unique)
                # Multi-core points run solo-serial: each one already owns
                # its cores' replay, and serial/pool parity is trivially
                # deterministic because the pool path never touches them.
                and not any(request.is_multicore for request in unique)
                and len(
                    {
                        self._runner_key(request.config, request.options)
                        for request in unique
                    }
                )
                == 1
            )
            if uniform:
                from repro.experiments.runner import RunArtifacts

                runner = self.runner_for(unique[0].config, unique[0].options)
                # Hand each worker a contiguous same-workload stretch so its
                # process-level prepare/trace caches amortise across points.
                chunk = 1
                while chunk < len(unique) and unique[chunk].spec == unique[0].spec:
                    chunk += 1
                results = runner.run_points(
                    [(request.spec, request.policy) for request in unique],
                    jobs=jobs,
                    chunksize=chunk,
                )
                # Re-prepare locally (cheap, deterministic, runner-cached) so
                # parallel artifacts look exactly like store-served ones.
                return [
                    RunArtifacts(
                        result=result,
                        prepared=runner._prepare_resolved(
                            request.spec, request.options
                        ),
                    )
                    for request, result in zip(unique, results)
                ]
        return self._execute_serial(unique)

    def _execute_serial(self, unique: list[RunRequest]) -> list[RunArtifacts]:
        """Serial plan execution with lockstep multi-policy grouping.

        Unique requests that share (workload, config, pipeline options) and
        differ only in their L2 policy — the shape of every figure sweep —
        are replayed in lockstep: the trace is decoded once and the N
        hierarchies advance together.  Reuse-tracking points always run
        solo (the L2 observer hooks one hierarchy at a time).  Results are
        bit-identical to point-by-point execution for any grouping.
        """
        if not self.lockstep:
            return [self._run_request(request) for request in unique]
        groups: dict[tuple, list[int]] = {}
        for index, request in enumerate(unique):
            if request.track_reuse or request.is_multicore:
                group_key = ("solo", index)
            else:
                group_key = (
                    "lockstep",
                    request.spec,
                    request.config.content_hash(),
                    request.options.cache_key(),
                )
            groups.setdefault(group_key, []).append(index)
        results: list[Optional[RunArtifacts]] = [None] * len(unique)
        for group_key, indices in groups.items():
            if group_key[0] == "solo" or len(indices) == 1:
                for index in indices:
                    results[index] = self._run_request(unique[index])
                continue
            first = unique[indices[0]]
            runner = self.runner_for(first.config, first.options)
            artifacts = runner.run_lockstep_resolved(
                first.spec,
                [unique[index].policy for index in indices],
                options=first.options,
                config=first.config,
            )
            for index, artifact in zip(indices, artifacts):
                results[index] = artifact
        return results

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
