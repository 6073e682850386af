"""Shared experiment runner.

Every table/figure module in :mod:`repro.experiments` needs the same loop:
prepare a benchmark through the co-design pipeline, materialise its trace
once, and replay it against several L2 replacement policies.  The
:class:`BenchmarkRunner` caches prepared workloads and traces so a full
figure (10 benchmarks x 9 policies) only pays for compilation and trace
generation once per benchmark.  Traces are materialised in the packed
column-oriented format and replayed through the fast engine; the results are
bit-identical to record-at-a-time replay (see ``tests/test_determinism.py``).

For multi-benchmark sweeps the runner can also spread the (benchmark ×
policy) grid over worker processes (:meth:`BenchmarkRunner.run_grid`, through
the session executor): every grid point is an independent deterministic
simulation, so the parallel run returns exactly the results — in exactly the
order — the serial loop would produce.

A runner may additionally be given a persistent
:class:`~repro.experiments.store.ResultStore`.  Because every run is fully
determined by (resolved spec, policy, simulator config, pipeline options),
a store hit skips the simulation entirely — only the (cheap, deterministic)
workload preparation is redone to populate :class:`RunArtifacts.prepared`.
The store is forwarded to pool workers, so parallel sweeps fill and reuse
the same cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.analysis.reuse import ReuseDistanceTracker
from repro.cache.replacement.spec import PolicySpec
from repro.common.trace import PackedTrace
from repro.core.pipeline import CoDesignPipeline, PipelineOptions, PreparedWorkload
from repro.experiments.store import (
    ResultStore,
    StoredRun,
    multicore_run_key,
    run_key,
)
from repro.common.errors import ConfigurationError
from repro.sim.config import BASELINE_POLICY, SimulatorConfig
from repro.sim.multicore import (
    MulticoreResult,
    MulticoreSimulator,
    normalize_interleave,
)
from repro.sim.results import SimulationResult
from repro.sim.simulator import SystemSimulator
from repro.workloads.capture import TraceArchive
from repro.workloads.spec import InputSet, WorkloadSpec
from repro.workloads.spec import resolve_spec as resolve_workload_spec


@dataclass
class RunArtifacts:
    """A simulation result plus optional analysis side-products.

    ``result`` is a :class:`~repro.sim.results.SimulationResult` for
    single-core points and a :class:`~repro.sim.multicore.MulticoreResult`
    for interleaved multi-core points (``prepared`` is then core 0's
    workload).
    """

    result: "SimulationResult | MulticoreResult"
    prepared: PreparedWorkload
    reuse: Optional[ReuseDistanceTracker] = None


@dataclass
class BenchmarkRunner:
    """Caches workload preparation and traces across policy runs."""

    config: SimulatorConfig = field(default_factory=SimulatorConfig.default)
    pipeline_options: PipelineOptions = field(default_factory=PipelineOptions)
    #: Optional persistent cache; a hit skips the simulation entirely.
    store: Optional[ResultStore] = None
    #: Optional persistent trace archive; a hit skips trace *generation*
    #: (the simulation still runs unless the result store also hits).
    trace_archive: Optional[TraceArchive] = None

    def __post_init__(self) -> None:
        self.config.validate()
        self._prepared: dict[tuple, PreparedWorkload] = {}
        self._packed: dict[tuple, tuple[PackedTrace, PackedTrace]] = {}
        #: Simulations actually executed by this runner (store hits excluded).
        self.simulations_run = 0

    # ----------------------------------------------------------- preparation
    def resolve_spec(self, benchmark: str | WorkloadSpec) -> WorkloadSpec:
        """Accept either a spec or a benchmark name, applying config scaling."""
        return resolve_workload_spec(benchmark, self.config.workload_scale)

    def prepare(
        self,
        benchmark: str | WorkloadSpec,
        options: PipelineOptions | None = None,
    ) -> PreparedWorkload:
        """Run the co-design pipeline for a benchmark (cached)."""
        return self._prepare_resolved(self.resolve_spec(benchmark), options)

    def _prepare_resolved(
        self, spec: WorkloadSpec, options: PipelineOptions | None = None
    ) -> PreparedWorkload:
        """Like :meth:`prepare` for a spec that is already config-scaled.

        Config scaling must be applied exactly once per spec; the multi-run
        entry points (:meth:`run_policies`, :meth:`run_grid`) resolve up
        front and come in through here so the scaling is not re-applied per
        grid point.
        """
        options = options or self.pipeline_options
        key = (spec, options.cache_key())
        if key not in self._prepared:
            pipeline = CoDesignPipeline(options)
            self._prepared[key] = pipeline.prepare(spec)
        return self._prepared[key]

    def packed_traces(
        self, prepared: PreparedWorkload
    ) -> tuple[PackedTrace, PackedTrace]:
        """(warm-up, measured) packed traces for a prepared workload (cached).

        Emitted directly from the generator's column stream, without
        allocating one ``TraceRecord`` per dynamic instruction.

        When the runner has a :class:`~repro.workloads.capture.TraceArchive`,
        the pair is replayed from disk on an archive hit — bit-identical to
        regeneration (``tests/test_capture.py``) — and captured on a miss so
        every later runner (including pool workers and other processes)
        replays instead of regenerating.
        """
        key = (prepared.spec, prepared.options.cache_key())
        if key not in self._packed:
            pair = None
            if self.trace_archive is not None:
                pair = self.trace_archive.load(prepared.spec, prepared.options)
            if pair is None:
                generator = prepared.trace_generator(InputSet.EVALUATION)
                warmup = generator.take_packed(prepared.spec.warmup_instructions)
                measured = generator.take_packed(prepared.spec.eval_instructions)
                pair = (warmup, measured)
                if self.trace_archive is not None:
                    self.trace_archive.save(
                        prepared.spec, prepared.options, warmup, measured
                    )
            self._packed[key] = pair
        return self._packed[key]

    # ------------------------------------------------------------------ runs
    def run(
        self,
        benchmark: str | WorkloadSpec,
        policy: str | PolicySpec = BASELINE_POLICY,
        options: PipelineOptions | None = None,
        track_reuse: bool = False,
        config: SimulatorConfig | None = None,
    ) -> RunArtifacts:
        """Simulate one benchmark under one L2 replacement policy."""
        return self.run_resolved(
            self.resolve_spec(benchmark),
            policy,
            options=options,
            track_reuse=track_reuse,
            config=config,
        )

    def run_resolved(
        self,
        spec: WorkloadSpec,
        policy: str | PolicySpec = BASELINE_POLICY,
        options: PipelineOptions | None = None,
        track_reuse: bool = False,
        config: SimulatorConfig | None = None,
    ) -> RunArtifacts:
        """Like :meth:`run` for a spec that is already config-scaled.

        Config scaling must be applied exactly once per spec, so every
        multi-run flow (figure modules, :meth:`run_policies`,
        :meth:`run_grid`) resolves up front and comes in through here.
        When the runner has a :class:`~repro.experiments.store.ResultStore`,
        this is also where cached runs are served from.
        """
        policy = PolicySpec.of(policy)
        effective_options = options or self.pipeline_options
        run_config = (config or self.config).with_l2_policy(policy)

        key: Optional[str] = None
        if self.store is not None:
            key = run_key(spec, policy, run_config, effective_options)
            cached = self.store.load_run(key, need_reuse=track_reuse)
            if cached is not None:
                # Re-prepare (cheap, deterministic, runner-cached) so callers
                # can still inspect the binary/loaded image; skip simulation.
                prepared = self._prepare_resolved(spec, effective_options)
                return RunArtifacts(
                    result=cached.result,
                    prepared=prepared,
                    # Only surface histograms the caller asked for, so cached
                    # and fresh runs return identical artifact shapes.
                    reuse=cached.reuse_tracker() if track_reuse else None,
                )

        artifacts = self._simulate(spec, effective_options, track_reuse, run_config)
        if self.store is not None and key is not None:
            self.store.save_run(
                key,
                StoredRun.from_tracker(artifacts.result, artifacts.reuse),
                spec=spec,
                policy=policy,
                config=run_config,
                options=effective_options,
            )
        return artifacts

    # Backwards-compatible private alias (pre-CLI callers and pool workers).
    _run_resolved = run_resolved

    def run_lockstep_resolved(
        self,
        spec: WorkloadSpec,
        policies: Sequence[str | PolicySpec],
        options: PipelineOptions | None = None,
        config: SimulatorConfig | None = None,
    ) -> list[RunArtifacts]:
        """Simulate one resolved spec under several L2 policies in lockstep.

        The trace pair is decoded once and the per-policy hierarchies advance
        together through one replay loop
        (:func:`repro.sim.simulator.run_lockstep`), eliminating the repeated
        front-of-pipe work N independent runs would pay; results are
        bit-identical to calling :meth:`run_resolved` per policy (pinned by
        ``tests/test_lockstep.py``).  Store hits are served individually and
        only the missing policies are simulated; fresh results are stored
        under the same keys solo runs use.
        """
        from repro.sim.simulator import run_lockstep

        wanted = [PolicySpec.of(policy) for policy in policies]
        effective_options = options or self.pipeline_options
        base_config = config or self.config

        artifacts: dict[int, RunArtifacts] = {}
        pending: list[tuple[int, PolicySpec, SimulatorConfig, Optional[str]]] = []
        for position, policy in enumerate(wanted):
            run_config = base_config.with_l2_policy(policy)
            key: Optional[str] = None
            if self.store is not None:
                key = run_key(spec, policy, run_config, effective_options)
                cached = self.store.load_run(key)
                if cached is not None:
                    artifacts[position] = RunArtifacts(
                        result=cached.result,
                        prepared=self._prepare_resolved(spec, effective_options),
                    )
                    continue
            pending.append((position, policy, run_config, key))

        if pending:
            prepared = self._prepare_resolved(spec, effective_options)
            warmup, measured = self.packed_traces(prepared)
            simulators = [
                SystemSimulator(
                    run_config,
                    translator=prepared.mmu(),
                    benchmark=prepared.spec.name,
                )
                for _, _, run_config, _ in pending
            ]
            results = run_lockstep(simulators, warmup, measured)
            self.simulations_run += len(pending)
            for (position, policy, run_config, key), result in zip(
                pending, results
            ):
                artifacts[position] = RunArtifacts(
                    result=result, prepared=prepared
                )
                if self.store is not None and key is not None:
                    self.store.save_run(
                        key,
                        StoredRun.from_tracker(result, None),
                        spec=spec,
                        policy=policy,
                        config=run_config,
                        options=effective_options,
                    )
        return [artifacts[position] for position in range(len(wanted))]

    def run_cores_resolved(
        self,
        specs: Sequence[WorkloadSpec],
        policy: str | PolicySpec = BASELINE_POLICY,
        options: PipelineOptions | None = None,
        interleave: Sequence[int] = (),
        config: SimulatorConfig | None = None,
    ) -> RunArtifacts:
        """Simulate N resolved per-core specs interleaved over one shared
        L2/SLC (:class:`~repro.sim.multicore.MulticoreSimulator`).

        Store-cached like :meth:`run_resolved`, under
        :func:`~repro.experiments.store.multicore_run_key` — the key space
        is disjoint from single-core entries.  The returned artifacts carry
        a :class:`~repro.sim.multicore.MulticoreResult` and core 0's
        prepared workload.
        """
        policy = PolicySpec.of(policy)
        specs = list(specs)
        if not specs:
            raise ConfigurationError("multi-core run needs at least one core")
        effective_options = options or self.pipeline_options
        run_config = (config or self.config).with_l2_policy(policy)
        ratio = normalize_interleave(interleave, len(specs))

        key: Optional[str] = None
        if self.store is not None:
            key = multicore_run_key(
                specs, policy, run_config, effective_options, ratio
            )
            cached = self.store.load_multicore(key)
            if cached is not None:
                prepared = self._prepare_resolved(specs[0], effective_options)
                return RunArtifacts(result=cached, prepared=prepared)

        prepared_cores = [
            self._prepare_resolved(spec, effective_options) for spec in specs
        ]
        pairs = [self.packed_traces(prepared) for prepared in prepared_cores]
        simulator = MulticoreSimulator(
            run_config,
            [prepared.mmu() for prepared in prepared_cores],
            [prepared.spec.name for prepared in prepared_cores],
            interleave=ratio,
        )
        simulator.warm_up([warmup for warmup, _ in pairs])
        result = simulator.run([measured for _, measured in pairs])
        self.simulations_run += 1
        if self.store is not None and key is not None:
            self.store.save_multicore(
                key,
                result,
                specs,
                policy=policy,
                config=run_config,
                options=effective_options,
            )
        return RunArtifacts(result=result, prepared=prepared_cores[0])

    def _simulate(
        self,
        spec: WorkloadSpec,
        options: PipelineOptions,
        track_reuse: bool,
        run_config: SimulatorConfig,
    ) -> RunArtifacts:
        """Actually execute one simulation (always counts as a fresh run)."""
        prepared = self._prepare_resolved(spec, options)
        warmup, measured = self.packed_traces(prepared)
        simulator = SystemSimulator(
            run_config,
            translator=prepared.mmu(),
            benchmark=prepared.spec.name,
        )

        tracker: Optional[ReuseDistanceTracker] = None
        if track_reuse:
            tracker = ReuseDistanceTracker(simulator.hierarchy.l2.num_sets)

        simulator.warm_up(warmup)
        if tracker is not None:
            # Only the measured window contributes to the reuse histograms.
            simulator.hierarchy.l2_access_observer = tracker.observe
        result = simulator.run(measured)
        self.simulations_run += 1
        return RunArtifacts(result=result, prepared=prepared, reuse=tracker)

    def run_policies(
        self,
        benchmark: str | WorkloadSpec,
        policies: Sequence[str | PolicySpec],
        baseline: str | PolicySpec = BASELINE_POLICY,
        options: PipelineOptions | None = None,
        config: SimulatorConfig | None = None,
    ) -> dict[str, SimulationResult]:
        """Run a benchmark under a baseline plus a list of policies.

        Results are keyed by each policy's canonical string form (for plain
        policies, the bare name).
        """
        spec = self.resolve_spec(benchmark)
        baseline = PolicySpec.of(baseline)
        results: dict[str, SimulationResult] = {}
        wanted = [baseline] + [
            s for s in (PolicySpec.of(p) for p in policies) if s != baseline
        ]
        for policy in wanted:
            results[policy.canonical()] = self.run_resolved(
                spec, policy, options=options, config=config
            ).result
        return results

    # ------------------------------------------------------------ parallel map
    def run_points(
        self,
        points: Sequence[tuple[WorkloadSpec, str | PolicySpec]],
        config: SimulatorConfig | None = None,
        jobs: int | None = None,
    ) -> list[SimulationResult]:
        """Simulate a list of (resolved spec, policy) points, returning
        results in input order.

        The points go through the session executor
        (:meth:`repro.api.session.Session.execute`) with this runner as its
        engine: same-workload points replay in lockstep, and ``jobs``
        (``None``/1 = in-process, 0 = every usable CPU, N = at most N
        workers) spreads workload-affine tasks over a supervised pool.  Each
        point is a fully deterministic simulation, so the returned list is
        identical regardless of ``jobs``.
        """
        from repro.api.scenario import RunRequest
        from repro.api.session import Session

        run_config = config or self.config
        requests = [
            RunRequest(
                spec=spec,
                policy=PolicySpec.of(policy),
                config=run_config,
                options=self.pipeline_options,
            )
            for spec, policy in points
        ]
        session = Session.ensure(runner=self)
        return [run.result for run in session._execute_requests(requests, jobs)]

    def fold_worker_counters(
        self,
        simulated: int,
        store_delta: tuple[int, int, int, int],
        trace_delta: tuple[int, int, int, int],
    ) -> None:
        """Fold one worker unit's counter deltas back into this runner.

        Worker processes mutate their *own* copies of the store/archive
        counter state; the parent folds the reported deltas back so CLI
        cache summaries stay accurate across process boundaries.
        """
        self.simulations_run += simulated
        if self.store is not None:
            hits, misses, writes, corrupt = store_delta
            self.store.hits += hits
            self.store.misses += misses
            self.store.writes += writes
            self.store.corrupt += corrupt
        if self.trace_archive is not None:
            hits, misses, writes, corrupt = trace_delta
            self.trace_archive.hits += hits
            self.trace_archive.misses += misses
            self.trace_archive.writes += writes
            self.trace_archive.corrupt += corrupt

    def run_grid(
        self,
        benchmarks: Sequence[str | WorkloadSpec],
        policies: Sequence[str | PolicySpec],
        config: SimulatorConfig | None = None,
        jobs: int | None = None,
    ) -> list[tuple[str, str, SimulationResult]]:
        """Simulate every (benchmark, policy) grid point, optionally in
        parallel worker processes.

        The returned list is ordered benchmark-major, exactly like the
        serial nested loop, for every ``jobs`` value (see
        :meth:`run_points`); policies are reported in canonical string form.
        """
        specs = [self.resolve_spec(benchmark) for benchmark in benchmarks]
        wanted = [PolicySpec.of(policy) for policy in policies]
        points = [(spec, policy) for spec in specs for policy in wanted]
        results = self.run_points(points, config=config, jobs=jobs)
        return [
            (spec.name, policy.canonical(), result)
            for (spec, policy), result in zip(points, results)
        ]


def _counter_state(tracker) -> tuple[int, int, int, int]:
    """(hits, misses, writes, corrupt) of a store/archive, ``(0,0,0,0)`` for
    ``None``."""
    if tracker is None:
        return (0, 0, 0, 0)
    return (tracker.hits, tracker.misses, tracker.writes, tracker.corrupt)


def _counter_delta(
    before: tuple[int, int, int, int], after: tuple[int, int, int, int]
) -> tuple[int, int, int, int]:
    return tuple(now - then for now, then in zip(after, before))
