"""Declarative simulation scenarios and their expansion into run plans.

A :class:`Scenario` says *what* to simulate — workloads, policies,
configuration, pipeline options, phase lengths, analysis side-products —
without saying how.  :meth:`Scenario.expand` turns it into concrete
:class:`RunRequest` points (benchmark-major, policy-minor: the order every
figure in the paper uses), and :func:`build_plan` folds any number of
scenarios into one :class:`RunPlan` whose duplicate points — the same
(workload, policy, config, options, analysis) coordinate reached from
different scenarios — are executed exactly once.

Everything here is plain data: expansion needs no session, no store and
no simulator, so plans can be built, inspected and counted for free (the
CLI and the tests do exactly that).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

from repro.cache.replacement.spec import PolicySpec
from repro.common.errors import ConfigurationError, ReproError
from repro.core.pipeline import PipelineOptions
from repro.sim.config import (
    BASELINE_POLICY,
    SimulatorConfig,
    named_config,
    normalize_interleave,
)
from repro.workloads.families import WorkloadFamilySpec, resolve_workload
from repro.workloads.spec import WorkloadSpec, resolve_spec, tiny_spec

#: Wire-format version understood by :meth:`Scenario.from_dict`.  Bump when
#: the payload shape changes incompatibly; consumers reject other versions.
SCENARIO_SCHEMA_VERSION = 1

#: Shorthand accepted anywhere a workload token is: a deterministic,
#: seconds-fast synthetic benchmark (CI smokes, protocol tests).
TINY_TOKEN = "tiny"

#: Every key :meth:`Scenario.from_dict` accepts; anything else is rejected so
#: typos fail loudly instead of silently simulating the default.
_SCENARIO_FIELDS = (
    "v",
    "benchmarks",
    "cores",
    "interleave",
    "policies",
    "config",
    "warmup_instructions",
    "measure_instructions",
    "track_reuse",
    "label",
)

#: Anything accepted as a workload: a catalog name, a workload-family token
#: (``"zipf:alpha=1.2"``), a family spec or a full workload spec.
Benchmark = Union[str, WorkloadSpec, WorkloadFamilySpec]


def resolve_benchmark(benchmark: Benchmark, config: SimulatorConfig) -> WorkloadSpec:
    """Resolve a benchmark name/family/spec and apply the config's scale.

    Family tokens and :class:`~repro.workloads.families.WorkloadFamilySpec`
    objects synthesize first (:func:`~repro.workloads.families.resolve_workload`),
    then delegate to :func:`repro.workloads.spec.resolve_spec` — the one
    implementation of the scale-exactly-once rule — so downstream execution
    always receives resolved specs.  The ``"tiny"`` shorthand resolves here
    too, so it works anywhere a workload token does.
    """
    if benchmark == TINY_TOKEN:
        benchmark = tiny_spec()
    return resolve_spec(resolve_workload(benchmark), config.workload_scale)


@dataclass(frozen=True, eq=False)
class RunRequest:
    """One fully-resolved simulation point of a plan.

    ``spec`` is already config-scaled and phase-adjusted; ``config`` is the
    *base* simulator configuration (the engine applies ``policy`` to its L2
    when the point executes).
    """

    spec: WorkloadSpec
    policy: PolicySpec
    config: SimulatorConfig
    options: PipelineOptions
    track_reuse: bool = False
    #: Multi-core mode: per-core resolved specs (``spec`` aliases core 0) and
    #: the interleave quanta, both empty for single-core points.
    cores: tuple[WorkloadSpec, ...] = ()
    interleave: tuple[int, ...] = ()

    @property
    def is_multicore(self) -> bool:
        return bool(self.cores)

    @property
    def benchmark(self) -> str:
        if self.cores:
            return "+".join(spec.name for spec in self.cores)
        return self.spec.name

    def store_key(self) -> str:
        """The result-store key this point is cached under.

        Hashed on first use and kept on the request (a pickled request
        carries it to its pool worker), so the executor's store probe, the
        runner's load and save, a sweep manifest and a served job's key list
        share one hash per point.  A request is a resolved value: its config
        and options are not mutated after planning.
        """
        key = self.__dict__.get("_store_key")
        if key is None:
            from repro.experiments.store import multicore_run_key, run_key

            config = self.config.with_l2_policy(self.policy)
            if self.cores:
                ratio = normalize_interleave(self.interleave, len(self.cores))
                key = multicore_run_key(
                    self.cores, self.policy, config, self.options, ratio
                )
            else:
                key = run_key(self.spec, self.policy, config, self.options)
            # Frozen dataclass: the memo bypasses the generated __setattr__.
            object.__setattr__(self, "_store_key", key)
        return key

    def key(self) -> tuple:
        """Hashable dedup/equality coordinate of this point.

        Two requests with equal keys are served by one simulation: the
        result is fully determined by (spec, policy, config, options) — plus
        the core list and interleave ratio in multi-core mode — and reuse
        tracking only adds a side product.
        """
        return (
            self.spec,
            self.policy,
            self.config.content_hash(),
            self.options.cache_key(),
            self.track_reuse,
            self.cores,
            self.interleave,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunRequest({self.benchmark!r}, {self.policy.canonical()!r}, "
            f"config={self.config.name!r})"
        )


def _as_tuple(value, scalar_types: tuple) -> tuple:
    if value is None:
        return ()
    if isinstance(value, scalar_types):
        return (value,)
    return tuple(value)


def _token_error(message: str, token: str) -> ConfigurationError:
    """A :class:`ConfigurationError` carrying the offending wire token.

    The server surfaces ``error.token`` in its HTTP 400 bodies so clients
    see *which* submitted token was rejected, not just a prose message.
    """
    error = ConfigurationError(message)
    error.token = token
    return error


def _token_list(payload: dict, name: str) -> tuple[str, ...]:
    """A wire field that must be a list of strings (absent/null = empty)."""
    value = payload.get(name)
    if value is None:
        return ()
    if isinstance(value, str):
        value = [value]
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, str) for item in value
    ):
        raise ConfigurationError(f"{name} must be a list of strings")
    return tuple(value)


def resolve_token(token: str) -> Benchmark:
    """Validate one wire workload token, returning the scenario-level form.

    Tokens stay tokens (expansion re-resolves them against the executing
    configuration's workload scale); only the ``"tiny"`` shorthand resolves
    to its concrete spec here, since it has no catalog entry.
    """
    if token == TINY_TOKEN:
        return tiny_spec()
    try:
        resolve_workload(token)
    except ReproError as error:
        raise _token_error(str(error), token) from error
    return token


def _resolve_policy_token(token: "str | PolicySpec") -> PolicySpec:
    """Validate one wire policy token, attaching it to rejection errors."""
    try:
        return PolicySpec.of(token)
    except ReproError as error:
        raise _token_error(str(error), str(token)) from error


def _workload_token(benchmark: Benchmark) -> str:
    """The wire token of one scenario workload (inverse of
    :func:`resolve_token`)."""
    if isinstance(benchmark, str):
        return benchmark
    if isinstance(benchmark, WorkloadFamilySpec):
        return benchmark.canonical()
    if isinstance(benchmark, WorkloadSpec):
        if benchmark.name == tiny_spec().name:
            return TINY_TOKEN
        from repro.workloads.spec import PROXY_BENCHMARKS, SYSTEM_COMPONENTS

        if benchmark.name in PROXY_BENCHMARKS or benchmark.name in SYSTEM_COMPONENTS:
            return benchmark.name
        raise ConfigurationError(
            f"workload spec {benchmark.name!r} has no token form; scenario "
            "wire payloads carry catalog names, family tokens or 'tiny'"
        )
    raise ConfigurationError(
        f"cannot serialise {benchmark!r} as a workload token"
    )


@dataclass(frozen=True, eq=False)
class Scenario:
    """A declarative description of a family of simulation runs.

    Parameters
    ----------
    benchmarks:
        One workload or a mix of them — catalog names (``"sqlite"``) and
        full :class:`~repro.workloads.spec.WorkloadSpec` objects can be
        freely combined.  Mutually exclusive with ``cores``.
    cores:
        Multi-core mode: one workload *per core* (same token forms as
        ``benchmarks``), replayed as N independent streams interleaved over
        one shared L2/SLC.  A one-entry core list normalises to the
        equivalent single-core scenario, so its store keys and results are
        byte-identical to the legacy path.
    interleave:
        Instructions each core advances per scheduler turn (one positive
        integer per core); empty means plain round-robin.  Only meaningful
        with ``cores``.
    policies:
        One or more replacement policies: names, CLI tokens
        (``"ship:shct_bits=3"``) or :class:`PolicySpec` objects.  Defaults
        to the SRRIP baseline.
    config:
        Simulator configuration for every point of this scenario; ``None``
        defers to the executing session's default.
    options:
        Compile/load-time :class:`~repro.core.pipeline.PipelineOptions`;
        ``None`` defers to the session default.
    warmup_instructions / measure_instructions:
        Phase-length overrides applied to each resolved workload spec
        (after config scaling); ``None`` keeps the spec's own windows.
    track_reuse:
        Collect reuse-distance histograms (Figure 3 analysis) per point.
    label:
        Free-form tag carried through for reporting.
    """

    benchmarks: Sequence[Benchmark] | Benchmark = ()
    policies: Sequence[str | PolicySpec] | str | PolicySpec = (BASELINE_POLICY,)
    config: Optional[SimulatorConfig] = None
    options: Optional[PipelineOptions] = None
    warmup_instructions: Optional[int] = None
    measure_instructions: Optional[int] = None
    track_reuse: bool = False
    label: str = ""
    cores: Sequence[Benchmark] | Benchmark = ()
    interleave: Sequence[int] = ()

    def __post_init__(self) -> None:
        benchmarks = _as_tuple(
            self.benchmarks, (str, WorkloadSpec, WorkloadFamilySpec)
        )
        cores = _as_tuple(self.cores, (str, WorkloadSpec, WorkloadFamilySpec))
        interleave = tuple(int(value) for value in _as_tuple(self.interleave, (int,)))
        if benchmarks and cores:
            raise ConfigurationError(
                "a Scenario takes either benchmarks (single-core) or cores "
                "(multi-core), not both"
            )
        if interleave and not cores:
            raise ConfigurationError(
                "interleave is only meaningful with cores"
            )
        if cores:
            if self.track_reuse:
                raise ConfigurationError(
                    "reuse tracking is a single-core analysis; it cannot be "
                    "combined with cores"
                )
            # Validates length and positivity; the normalised ratio is
            # recomputed at expansion so a one-core scenario can drop it.
            normalize_interleave(interleave, len(cores))
        if len(cores) == 1:
            # One core over the shared hierarchy is exactly the legacy
            # single-core run (pinned by tests), so normalise eagerly: the
            # scenario then expands, hashes and stores via the legacy path.
            benchmarks, cores, interleave = (cores[0],), (), ()
        if not benchmarks and not cores:
            raise ConfigurationError(
                "a Scenario needs at least one benchmark (the workload axis "
                "is empty)"
            )
        policies = tuple(
            PolicySpec.of(p) for p in _as_tuple(self.policies, (str, PolicySpec))
        )
        if not policies:
            raise ConfigurationError("a Scenario needs at least one policy")
        object.__setattr__(self, "benchmarks", benchmarks)
        object.__setattr__(self, "policies", policies)
        object.__setattr__(self, "cores", cores)
        object.__setattr__(self, "interleave", interleave)

    # ------------------------------------------------------------- expansion
    @property
    def is_multicore(self) -> bool:
        return bool(self.cores)

    @property
    def size(self) -> int:
        """Number of grid points this scenario expands to."""
        if self.cores:
            return len(self.policies)
        return len(self.benchmarks) * len(self.policies)

    def expand(
        self,
        config: Optional[SimulatorConfig] = None,
        options: Optional[PipelineOptions] = None,
    ) -> list[RunRequest]:
        """Concrete (benchmark-major, policy-minor) run requests.

        ``config``/``options`` fill in for fields the scenario left as
        ``None`` (the session passes its defaults here).  A multi-core
        scenario expands to one request per policy, carrying the resolved
        per-core specs and normalised interleave ratio.
        """
        run_config = self.config or config or SimulatorConfig.default()
        run_options = self.options or options or PipelineOptions()
        requests: list[RunRequest] = []
        if self.cores:
            specs = tuple(
                self._phase_adjusted(resolve_benchmark(core, run_config))
                for core in self.cores
            )
            ratio = normalize_interleave(self.interleave, len(specs))
            for policy in self.policies:
                requests.append(
                    RunRequest(
                        spec=specs[0],
                        policy=policy,
                        config=run_config,
                        options=run_options,
                        cores=specs,
                        interleave=ratio,
                    )
                )
            return requests
        for benchmark in self.benchmarks:
            spec = self._phase_adjusted(resolve_benchmark(benchmark, run_config))
            for policy in self.policies:
                requests.append(
                    RunRequest(
                        spec=spec,
                        policy=policy,
                        config=run_config,
                        options=run_options,
                        track_reuse=self.track_reuse,
                    )
                )
        return requests

    def _phase_adjusted(self, spec: WorkloadSpec) -> WorkloadSpec:
        """Apply the scenario's phase-length overrides to a resolved spec."""
        overrides = {}
        if self.warmup_instructions is not None:
            overrides["warmup_instructions"] = self.warmup_instructions
        if self.measure_instructions is not None:
            overrides["eval_instructions"] = self.measure_instructions
        if overrides:
            return dataclasses.replace(spec, **overrides)
        return spec

    # ---------------------------------------------------------- serialisation
    def to_dict(self) -> dict:
        """Versioned wire form, shared by the CLI, the server and tests.

        Workloads serialise as their token form (catalog name, family token
        or the ``"tiny"`` shorthand); a full custom
        :class:`~repro.workloads.spec.WorkloadSpec` has no token and is
        rejected.  ``config`` serialises as its *named* form (``"scaled"``,
        ``"paper"``) or ``None`` — anonymous configurations do not travel.
        """
        return {
            "v": SCENARIO_SCHEMA_VERSION,
            "benchmarks": [_workload_token(b) for b in self.benchmarks],
            "cores": [_workload_token(c) for c in self.cores],
            "interleave": list(self.interleave),
            "policies": [policy.canonical() for policy in self.policies],
            "config": self.config.name if self.config is not None else None,
            "warmup_instructions": self.warmup_instructions,
            "measure_instructions": self.measure_instructions,
            "track_reuse": self.track_reuse,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Scenario":
        """Rebuild a scenario from its wire form (one serializer, three
        consumers: the CLI, ``repro serve`` submissions and the tests).

        Unknown keys and unsupported ``v`` values are rejected.  Invalid
        workload/policy/core tokens raise
        :class:`~repro.common.errors.ConfigurationError` with the offending
        token attached as ``error.token`` (the server echoes it in HTTP 400
        bodies).
        """
        if not isinstance(payload, dict):
            raise ConfigurationError("a scenario payload must be an object")
        unknown = sorted(set(payload) - set(_SCENARIO_FIELDS))
        if unknown:
            raise ConfigurationError(
                f"unknown scenario field(s): {', '.join(unknown)}; "
                f"accepted fields: {', '.join(_SCENARIO_FIELDS)}"
            )
        version = payload.get("v", SCENARIO_SCHEMA_VERSION)
        if version != SCENARIO_SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported scenario schema v={version!r}; this build "
                f"speaks v={SCENARIO_SCHEMA_VERSION}"
            )
        benchmarks = tuple(
            resolve_token(token) for token in _token_list(payload, "benchmarks")
        )
        cores = tuple(
            resolve_token(token) for token in _token_list(payload, "cores")
        )
        interleave = payload.get("interleave") or ()
        if not isinstance(interleave, (list, tuple)) or not all(
            isinstance(value, int) and not isinstance(value, bool)
            for value in interleave
        ):
            raise ConfigurationError("interleave must be a list of integers")
        policies = _token_list(payload, "policies") or (BASELINE_POLICY,)
        policy_specs = tuple(_resolve_policy_token(token) for token in policies)
        config_name = payload.get("config")
        config = None
        if config_name is not None:
            if not isinstance(config_name, str):
                raise ConfigurationError("config must be a named configuration")
            config = named_config(config_name)
        for window in ("warmup_instructions", "measure_instructions"):
            value = payload.get(window)
            if value is not None and (
                not isinstance(value, int)
                or isinstance(value, bool)
                or value < 0
            ):
                raise ConfigurationError(f"{window} must be a non-negative integer")
        track_reuse = payload.get("track_reuse", False)
        if not isinstance(track_reuse, bool):
            raise ConfigurationError("track_reuse must be a boolean")
        label = payload.get("label", "")
        if not isinstance(label, str):
            raise ConfigurationError("label must be a string")
        return cls(
            benchmarks=benchmarks,
            cores=cores,
            interleave=tuple(interleave),
            policies=policy_specs,
            config=config,
            warmup_instructions=payload.get("warmup_instructions"),
            measure_instructions=payload.get("measure_instructions"),
            track_reuse=track_reuse,
            label=label,
        )


@dataclass
class RunPlan:
    """A deduplicated, deterministically-ordered batch of run requests.

    ``requests`` preserves the full scenario order (including duplicates);
    ``unique`` holds each distinct coordinate once, in first-appearance
    order, and ``indices[i]`` maps ``requests[i]`` to its entry in
    ``unique``.  Execution simulates ``unique`` and fans results back out.
    """

    requests: list[RunRequest] = field(default_factory=list)
    unique: list[RunRequest] = field(default_factory=list)
    indices: list[int] = field(default_factory=list)

    @property
    def total_runs(self) -> int:
        return len(self.requests)

    @property
    def unique_runs(self) -> int:
        return len(self.unique)

    @property
    def deduplicated(self) -> int:
        """How many requested points are served by an earlier identical one."""
        return len(self.requests) - len(self.unique)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunPlan({self.total_runs} runs, {self.unique_runs} unique, "
            f"{self.deduplicated} deduplicated)"
        )


def build_plan(
    scenarios: Iterable[Scenario],
    config: Optional[SimulatorConfig] = None,
    options: Optional[PipelineOptions] = None,
) -> RunPlan:
    """Expand scenarios and fold identical points into one plan.

    Zero scenarios would silently produce a 0-run plan that every downstream
    consumer (``Session.execute``, ``Session.stream``) happily executes as a
    no-op; that is never what a caller meant, so it raises eagerly instead.
    """
    scenarios = tuple(scenarios)
    if not scenarios:
        raise ConfigurationError(
            "cannot build a run plan from zero scenarios (the scenario axis "
            "is empty)"
        )
    plan = RunPlan()
    seen: dict[tuple, int] = {}
    for scenario in scenarios:
        for request in scenario.expand(config=config, options=options):
            key = request.key()
            index = seen.get(key)
            if index is None:
                index = len(plan.unique)
                seen[key] = index
                plan.unique.append(request)
            plan.requests.append(request)
            plan.indices.append(index)
    return plan
