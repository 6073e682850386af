"""Shared experiment runner: the in-process engine behind the session.

Every table/figure module in :mod:`repro.experiments` needs the same loop:
prepare a benchmark through the co-design pipeline, materialise its trace
once, and replay it against several L2 replacement policies.  The
:class:`BenchmarkRunner` caches prepared workloads and traces so a full
figure (10 benchmarks x 9 policies) only pays for compilation and trace
generation once per benchmark.  Traces are materialised in the packed
column-oriented format and replayed through the fast engine; the results are
bit-identical to record-at-a-time replay (see ``tests/test_determinism.py``).

The runner is internal: callers go through
:class:`~repro.api.session.Session`, whose executor hands it one unit at a
time (:meth:`BenchmarkRunner.run_points`) — in-process or in a pool worker.

A runner may additionally be given a persistent
:class:`~repro.experiments.store.ResultStore`.  Because every run is fully
determined by (resolved spec, policy, simulator config, pipeline options),
a store hit skips the simulation *and* the co-design pipeline: a run is its
result and its reuse histograms, nothing more.  The store is forwarded to
pool workers, so parallel sweeps fill and reuse the same cache.  The
pipeline's stages and the replay engine are imported only when a point has
to be simulated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

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
from repro.sim.config import BASELINE_POLICY, SimulatorConfig, normalize_interleave
from repro.sim.results import MulticoreResult, SimulationResult
from repro.workloads.capture import TraceArchive
from repro.workloads.spec import InputSet, WorkloadSpec

if TYPE_CHECKING:  # the api package imports this module at load time
    from repro.api.scenario import RunRequest


@dataclass
class RunArtifacts:
    """A simulation result plus its reuse histograms, when requested.

    ``result`` is a :class:`~repro.sim.results.SimulationResult` for
    single-core points and a :class:`~repro.sim.results.MulticoreResult`
    for interleaved multi-core points.  The prepared workload behind a run
    is not part of it: a store hit never prepares one, and callers that
    need the binary ask :meth:`repro.api.session.Session.prepare`.
    """

    result: "SimulationResult | MulticoreResult"
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
    def _prepare_resolved(
        self, spec: WorkloadSpec, options: PipelineOptions | None = None
    ) -> PreparedWorkload:
        """Run the co-design pipeline for a config-scaled spec (cached).

        Config scaling is applied exactly once, when a request is planned
        (:func:`repro.api.scenario.resolve_benchmark`); nothing here scales.
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
    def run_resolved(
        self,
        spec: WorkloadSpec,
        policy: str | PolicySpec = BASELINE_POLICY,
        options: PipelineOptions | None = None,
        track_reuse: bool = False,
        config: SimulatorConfig | None = None,
        key: Optional[str] = None,
    ) -> RunArtifacts:
        """Simulate one config-scaled spec under one L2 replacement policy.

        When the runner has a :class:`~repro.experiments.store.ResultStore`,
        this is also where cached runs are served from, under ``key`` (the
        point's :func:`~repro.experiments.store.run_key`, hashed here when
        the caller has not).
        """
        policy = PolicySpec.of(policy)
        effective_options = options or self.pipeline_options
        run_config = (config or self.config).with_l2_policy(policy)

        if self.store is not None:
            if key is None:
                key = run_key(spec, policy, run_config, effective_options)
            cached = self.store.load_run(key, need_reuse=track_reuse)
            if cached is not None:
                return RunArtifacts(
                    result=cached.result,
                    # Only surface histograms the caller asked for, so cached
                    # and fresh runs return identical artifact shapes.
                    reuse=cached.reuse_tracker() if track_reuse else None,
                )

        artifacts = self._simulate(spec, effective_options, track_reuse, run_config)
        if self.store is not None:
            self.store.save_run(
                key,
                StoredRun.from_tracker(artifacts.result, artifacts.reuse),
                spec=spec,
                policy=policy,
                config=run_config,
                options=effective_options,
            )
        return artifacts

    # Kept as an alias because the traced benchmark launcher wraps both names
    # (``perfbench/spans.py``); a missing attribute fails every traced run.
    _run_resolved = run_resolved

    def run_lockstep_resolved(
        self,
        spec: WorkloadSpec,
        policies: Sequence[str | PolicySpec],
        options: PipelineOptions | None = None,
        config: SimulatorConfig | None = None,
        keys: Optional[Sequence[str]] = None,
    ) -> list[RunArtifacts]:
        """Simulate one resolved spec under several L2 policies in lockstep.

        The trace pair is decoded once and the per-policy hierarchies advance
        together through one replay loop
        (:func:`repro.sim.simulator.run_lockstep`), eliminating the repeated
        front-of-pipe work N independent runs would pay; results are
        bit-identical to calling :meth:`run_resolved` per policy (pinned by
        ``tests/test_lockstep.py``).  Store hits are served individually and
        only the missing policies are simulated; fresh results are stored
        under the same keys solo runs use (``keys``, one per policy, when the
        caller has hashed them).
        """
        wanted = [PolicySpec.of(policy) for policy in policies]
        effective_options = options or self.pipeline_options
        base_config = config or self.config

        artifacts: dict[int, RunArtifacts] = {}
        pending: list[tuple[int, PolicySpec, SimulatorConfig, Optional[str]]] = []
        for position, policy in enumerate(wanted):
            run_config = base_config.with_l2_policy(policy)
            key: Optional[str] = None
            if self.store is not None:
                if keys is not None:
                    key = keys[position]
                else:
                    key = run_key(spec, policy, run_config, effective_options)
                cached = self.store.load_run(key)
                if cached is not None:
                    artifacts[position] = RunArtifacts(result=cached.result)
                    continue
            pending.append((position, policy, run_config, key))

        if pending:
            # Looked up at call time: the traced benchmark launcher wraps
            # the module attribute.
            from repro.sim import simulator

            prepared = self._prepare_resolved(spec, effective_options)
            warmup, measured = self.packed_traces(prepared)
            simulators = [
                simulator.SystemSimulator(
                    run_config,
                    translator=prepared.mmu(),
                    benchmark=prepared.spec.name,
                )
                for _, _, run_config, _ in pending
            ]
            results = simulator.run_lockstep(simulators, warmup, measured)
            self.simulations_run += len(pending)
            for (position, policy, run_config, key), result in zip(
                pending, results
            ):
                artifacts[position] = RunArtifacts(result=result)
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
        key: Optional[str] = None,
    ) -> RunArtifacts:
        """Simulate N resolved per-core specs interleaved over one shared
        L2/SLC (:class:`~repro.sim.multicore.MulticoreSimulator`).

        Store-cached like :meth:`run_resolved`, under
        :func:`~repro.experiments.store.multicore_run_key` — the key space
        is disjoint from single-core entries.  The returned artifacts carry
        a :class:`~repro.sim.results.MulticoreResult`.
        """
        policy = PolicySpec.of(policy)
        specs = list(specs)
        if not specs:
            raise ConfigurationError("multi-core run needs at least one core")
        effective_options = options or self.pipeline_options
        run_config = (config or self.config).with_l2_policy(policy)
        ratio = normalize_interleave(interleave, len(specs))

        if self.store is not None:
            if key is None:
                key = multicore_run_key(
                    specs, policy, run_config, effective_options, ratio
                )
            cached = self.store.load_multicore(key)
            if cached is not None:
                return RunArtifacts(result=cached)

        from repro.sim.multicore import MulticoreSimulator

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
        if self.store is not None:
            self.store.save_multicore(
                key,
                result,
                specs,
                policy=policy,
                config=run_config,
                options=effective_options,
            )
        return RunArtifacts(result=result)

    def _simulate(
        self,
        spec: WorkloadSpec,
        options: PipelineOptions,
        track_reuse: bool,
        run_config: SimulatorConfig,
    ) -> RunArtifacts:
        """Actually execute one simulation (always counts as a fresh run)."""
        from repro.sim.simulator import SystemSimulator

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
        return RunArtifacts(result=result, reuse=tracker)

    # ------------------------------------------------------------ executor unit
    def run_points(self, unit: Sequence[RunRequest]) -> list[RunArtifacts]:
        """Run one executor unit in this process, results in unit order.

        A unit (:meth:`repro.api.session.Session._units`) is a lockstep
        group — same workload, config and pipeline options, one point per
        L2 policy — or a single point: a solo run, a reuse-tracking run or a
        multi-core co-run.  Each point's store key is the one its request
        hashed (:meth:`~repro.api.scenario.RunRequest.store_key`).
        """
        first = unit[0]
        keys = None
        if self.store is not None:
            keys = [request.store_key() for request in unit]
        if len(unit) > 1:
            return self.run_lockstep_resolved(
                first.spec,
                [request.policy for request in unit],
                options=first.options,
                config=first.config,
                keys=keys,
            )
        key = keys[0] if keys else None
        if first.is_multicore:
            return [
                self.run_cores_resolved(
                    first.cores,
                    first.policy,
                    options=first.options,
                    interleave=first.interleave,
                    config=first.config,
                    key=key,
                )
            ]
        return [
            self.run_resolved(
                first.spec,
                first.policy,
                options=first.options,
                track_reuse=first.track_reuse,
                config=first.config,
                key=key,
            )
        ]

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
