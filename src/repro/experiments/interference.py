"""Multi-core contention: co-run vs solo slowdown per replacement policy.

For each policy, every core workload is simulated twice: *solo* (the whole
hierarchy to itself — the legacy single-core path, so these points share
store entries with every other experiment) and *co-run* (all cores
interleaved over one shared L2/SLC).  The ratio ``solo_ipc / corun_ipc`` is
the interference slowdown of that core under that policy (1.0 = no
interference), reported next to the shared-cache pressure counters
(inter-core evictions, final occupancy share).

The interesting comparison is a conventional policy (``lru``) against the
way-partitioned variant (``partition:base=lru``): partitioning confines each
core's fills to its own ways, trading some solo capacity for isolation —
inter-core evictions drop to (near) zero and the slowdown of the
cache-sensitive core shrinks.

CLI: ``repro run interference --core zipf:alpha=1.2 --core streaming``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.api.scenario import Scenario
from repro.api.session import Session
from repro.cache.replacement.spec import PolicySpec
from repro.common.errors import ConfigurationError
from repro.sim.results import MulticoreResult

#: Default co-run pair: a cache-sensitive skewed-reuse stream next to a
#: streaming scan — the classic victim/aggressor contention shape.
DEFAULT_CORES = ("zipf:alpha=1.2", "streaming")

#: Default policy axis: shared LRU vs its way-partitioned (QoS) variant.
DEFAULT_POLICIES = ("lru", "partition:base=lru")


def run_interference(
    cores: Optional[Sequence] = None,
    policies: Optional[Sequence] = None,
    interleave: Optional[Sequence[int]] = None,
    benchmarks: Optional[Sequence] = None,
    session: Optional[Session] = None,
    jobs: Optional[int] = None,
) -> dict:
    """Run the (policy x {solo, co-run}) grid and fold it into a matrix.

    ``cores`` defaults to :data:`DEFAULT_CORES`; when only ``benchmarks``
    is given (the CLI's ``--tiny``/``--spec``), the first benchmark co-runs
    against itself — self-contention on two private streams.
    """
    session = Session.ensure(session=session)
    if cores is None:
        if benchmarks:
            cores = (benchmarks[0], benchmarks[0])
        else:
            cores = DEFAULT_CORES
    cores = tuple(cores)
    if len(cores) < 2:
        raise ConfigurationError(
            "interference needs at least two cores (use --core twice); a "
            "single core has nothing to contend with"
        )
    policy_specs = tuple(
        PolicySpec.of(p) for p in (policies or DEFAULT_POLICIES)
    )
    solo = Scenario(benchmarks=cores, policies=policy_specs)
    coruns = tuple(
        Scenario(cores=cores, interleave=tuple(interleave or ()), policies=(p,))
        for p in policy_specs
    )
    plan = session.plan(solo, *coruns)
    results = session.execute(plan, jobs=jobs)

    solo_ipc: dict[tuple[str, str], float] = {}
    corun: dict[str, MulticoreResult] = {}
    core_names: list[str] = []
    for request, artifacts in zip(plan.requests, results):
        policy = request.policy.canonical()
        if request.is_multicore:
            corun[policy] = artifacts.result
            if not core_names:
                core_names = [spec.name for spec in request.cores]
        else:
            solo_ipc[(policy, request.spec.name)] = artifacts.result.ipc

    matrix: dict[str, dict] = {}
    for policy in (p.canonical() for p in policy_specs):
        result = corun[policy]
        per_core = []
        for core_id, core_result in enumerate(result.cores):
            name = core_names[core_id]
            alone = solo_ipc[(policy, name)]
            together = core_result.ipc
            per_core.append(
                {
                    "core": core_id,
                    "workload": name,
                    "solo_ipc": alone,
                    "corun_ipc": together,
                    "slowdown": alone / together if together else float("inf"),
                }
            )
        matrix[policy] = {
            "cores": per_core,
            "inter_core_evictions": dict(result.inter_core_evictions),
            "total_inter_core_evictions": result.total_inter_core_evictions,
            "occupancy": dict(result.occupancy),
        }
    return {
        "cores": core_names,
        "interleave": list(corun[next(iter(corun))].interleave),
        "policies": [p.canonical() for p in policy_specs],
        "matrix": matrix,
    }


def format_interference(report: dict) -> str:
    """Slowdown matrix (rows = policies, columns = cores) plus pressure."""
    names = report["cores"]
    lines = [
        "co-run slowdown vs solo (1.00 = no interference); "
        f"interleave {':'.join(map(str, report['interleave']))}",
        f"{'policy':28s} "
        + " ".join(f"{name[:12]:>14s}" for name in names)
        + f" {'xcore-evict':>12s}",
    ]
    for policy in report["policies"]:
        cell = report["matrix"][policy]
        row = f"{policy:28s} "
        row += " ".join(
            f"{core['slowdown']:>13.3f}x" for core in cell["cores"]
        )
        row += f" {cell['total_inter_core_evictions']:>12d}"
        lines.append(row)
    return "\n".join(lines)


__all__ = [
    "DEFAULT_CORES",
    "DEFAULT_POLICIES",
    "format_interference",
    "run_interference",
]
