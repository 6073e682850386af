"""Declarative run layer: one front door for every simulation in the repo.

Every figure, table, ablation, benchmark and CLI command runs through two
objects defined here; the engine underneath
(:class:`~repro.experiments.runner.BenchmarkRunner`) is internal to the
session's executor:

* :class:`~repro.api.scenario.Scenario` — a declarative description of what
  to simulate: workloads (names, specs or mixes of both), structured
  :class:`~repro.cache.replacement.spec.PolicySpec` policies, simulator
  configuration, pipeline options, warmup/measure phase overrides and
  analysis options (reuse tracking).
* :class:`~repro.api.session.Session` — the facade that expands scenario
  grids into a deduplicated :class:`~repro.api.scenario.RunPlan`, executes
  it through the store-aware (optionally parallel) executor, and streams
  :class:`~repro.experiments.runner.RunArtifacts` (a result plus requested
  reuse histograms) back in deterministic order; ``Session.prepare`` hands
  out a request's prepared workload when a figure needs the binary.

Quickstart::

    from repro.api import PolicySpec, Scenario, Session

    session = Session()                       # scaled config, no store
    scenario = Scenario(
        benchmarks=("sqlite", "gcc"),
        policies=("srrip", "trrip-1", PolicySpec.parse("ship:shct_bits=3")),
    )
    for request, artifacts in session.stream(scenario):
        print(request.benchmark, request.policy, artifacts.result.ipc)
"""

from repro.common.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".scenario": ("Scenario", "RunPlan", "RunRequest"),
        ".session": ("Session",),
        "repro.experiments.runner": ("RunArtifacts",),
        "repro.cache.replacement.spec": (
            "PolicySpec",
            "PolicyInfo",
            "PolicyParam",
            "POLICY_REGISTRY",
            "policy_names",
            "get_policy_info",
            "describe_policies",
        ),
        "repro.workloads.families": (
            "WorkloadFamilySpec",
            "WORKLOAD_FAMILIES",
            "family_names",
            "get_family_info",
            "describe_families",
        ),
        "repro.workloads.capture": ("TraceArchive",),
    },
)
