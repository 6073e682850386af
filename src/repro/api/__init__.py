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

from repro.api.scenario import RunPlan, RunRequest, Scenario
from repro.api.session import Session
from repro.cache.replacement.spec import (
    POLICY_REGISTRY,
    PolicyInfo,
    PolicyParam,
    PolicySpec,
    describe_policies,
    get_policy_info,
    policy_names,
)
from repro.experiments.runner import RunArtifacts
from repro.workloads.capture import TraceArchive
from repro.workloads.families import (
    WORKLOAD_FAMILIES,
    WorkloadFamilySpec,
    describe_families,
    family_names,
    get_family_info,
)

__all__ = [
    "Scenario",
    "Session",
    "RunPlan",
    "RunRequest",
    "RunArtifacts",
    "PolicySpec",
    "PolicyInfo",
    "PolicyParam",
    "POLICY_REGISTRY",
    "policy_names",
    "get_policy_info",
    "describe_policies",
    "WorkloadFamilySpec",
    "WORKLOAD_FAMILIES",
    "family_names",
    "get_family_info",
    "describe_families",
    "TraceArchive",
]
