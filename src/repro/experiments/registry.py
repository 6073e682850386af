"""Central catalog of every reproducible figure/table/ablation.

Each experiment module registers one entry here, keyed by the name the CLI
uses (``repro run figure3``), so the CLI, the benchmark harness and the
tests all enumerate the same catalog instead of hard-coding module lists.
An entry bundles the paper artifact it reproduces, an adapter that runs it
from a shared :class:`ExperimentContext` (config + session + optional
benchmark subset), and the formatter that renders its result as text.
An entry's module is imported only when the experiment runs or formats, so
listing the catalog or running one experiment loads no other experiment's
code.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.api.session import Session
from repro.cache.replacement.spec import PolicySpec
from repro.experiments.store import ResultStore
from repro.sim.config import SimulatorConfig
from repro.workloads.families import (
    WorkloadFamilySpec,
    is_family_token,
    resolve_workload,
)
from repro.workloads.spec import WorkloadSpec


@dataclass
class ExperimentContext:
    """Everything an experiment adapter needs to run.

    ``benchmarks`` is ``None`` to use the experiment's paper-default
    benchmark list; entries may be benchmark names or full
    :class:`~repro.workloads.spec.WorkloadSpec` objects.  ``policies`` is
    ``None`` to use the experiment's paper policy list; entries are
    normalised to :class:`~repro.cache.replacement.spec.PolicySpec`.  All
    execution flows through one :class:`~repro.api.session.Session` —
    adapters hand it to the experiment modules, so every simulation shares
    the session's engines, result store and worker count.
    """

    config: SimulatorConfig = field(default_factory=SimulatorConfig.default)
    session: Optional[Session] = None
    benchmarks: Optional[Sequence[str | WorkloadSpec]] = None
    policies: Optional[Sequence[str | PolicySpec]] = None
    #: Multi-core experiments (``repro run interference --core ...``): one
    #: workload token/spec per core, plus the optional interleave quanta.
    #: ``None`` lets the experiment pick its default co-run pair.
    cores: Optional[Sequence[str | WorkloadSpec]] = None
    interleave: Optional[Sequence[int]] = None

    def __post_init__(self) -> None:
        if self.session is None:
            self.session = Session(config=self.config)
        if self.policies is not None:
            self.policies = tuple(PolicySpec.of(p) for p in self.policies)
        if self.benchmarks is not None:
            # Family tokens/specs synthesize to concrete workload specs here,
            # eagerly, so a bad family parameter fails before any simulation
            # and every experiment module sees plain names/specs.
            self.benchmarks = tuple(
                resolve_workload(b)
                if isinstance(b, WorkloadFamilySpec)
                or (isinstance(b, str) and is_family_token(b))
                else b
                for b in self.benchmarks
            )

    @property
    def store(self) -> Optional[ResultStore]:
        return self.session.store

    def first_benchmark(self, default: str) -> str | WorkloadSpec:
        """The single benchmark for experiments that sweep one workload."""
        if self.benchmarks:
            return self.benchmarks[0]
        return default


@dataclass(frozen=True)
class Experiment:
    """One registered figure/table/ablation."""

    name: str
    artifact: str  #: which paper artifact this reproduces ("Figure 3", ...)
    description: str
    run: Callable[[ExperimentContext], Any]
    format: Callable[[Any], str]
    #: Whether the experiment performs timing simulations (and therefore
    #: benefits from the result store).  Static tables do not.
    simulates: bool = True
    #: Whether the adapter forwards ``ctx.policies`` (CLI ``--policy``) into
    #: the experiment; fixed-policy artifacts ignore the flag and warn.
    supports_policies: bool = False
    #: Whether the experiment sweeps a single workload (ablations) and
    #: therefore uses only the first entry of ``ctx.benchmarks``.
    single_benchmark: bool = False


REGISTRY: dict[str, Experiment] = {}


def register(experiment: Experiment) -> Experiment:
    if experiment.name in REGISTRY:
        raise ValueError(f"duplicate experiment name {experiment.name!r}")
    REGISTRY[experiment.name] = experiment
    return experiment


def get_experiment(name: str) -> Experiment:
    try:
        return REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown experiment {name!r}; known: {known}") from None


def experiment_names() -> tuple[str, ...]:
    """Registered names, in catalog (paper) order."""
    return tuple(REGISTRY)


def _module(name: str):
    """The experiment module ``repro.experiments.<name>``, imported on use."""
    return importlib.import_module(f"repro.experiments.{name}")


def _formatter(module: str, name: str) -> Callable[[Any], str]:
    """The formatter ``name`` of an experiment module, imported on use."""
    return lambda result: getattr(_module(module), name)(result)


# --------------------------------------------------------------------- catalog
register(
    Experiment(
        name="table1",
        artifact="Table 1",
        description="simulator configuration (paper-scale hierarchy and core)",
        run=lambda ctx: _module("tables").run_table1(),
        format=_formatter("tables", "format_table1"),
        simulates=False,
    )
)
register(
    Experiment(
        name="table2",
        artifact="Table 2",
        description="benchmarks, input sets and instruction windows",
        run=lambda ctx: _module("tables").run_table2(benchmarks=ctx.benchmarks),
        format=_formatter("tables", "format_table2"),
        simulates=False,
    )
)
register(
    Experiment(
        name="figure1",
        artifact="Figure 1",
        description="Top-Down breakdown of the PGO'd mobile system components",
        run=lambda ctx: _module("topdown_figures").run_figure1(
            components=ctx.benchmarks, session=ctx.session
        ),
        format=_formatter("topdown_figures", "format_topdown_rows"),
    )
)
register(
    Experiment(
        name="figure2",
        artifact="Figure 2",
        description="Top-Down breakdown of the proxies, non-PGO vs. PGO",
        run=lambda ctx: _module("topdown_figures").run_figure2(
            benchmarks=ctx.benchmarks, session=ctx.session
        ),
        format=_formatter("topdown_figures", "format_topdown_rows"),
    )
)
register(
    Experiment(
        name="figure3",
        artifact="Figure 3",
        description="reuse-distance distribution of hot instruction lines",
        run=lambda ctx: _module("figure3").run_figure3(
            benchmarks=ctx.benchmarks, session=ctx.session
        ),
        format=_formatter("figure3", "format_figure3"),
    )
)
register(
    Experiment(
        name="figure6",
        artifact="Figure 6",
        description="speedup of every evaluated policy over SRRIP",
        run=lambda ctx: _module("figure6").run_figure6(
            benchmarks=ctx.benchmarks,
            policies=ctx.policies,
            session=ctx.session,
        ),
        format=_formatter("figure6", "format_figure6"),
        supports_policies=True,
    )
)
register(
    Experiment(
        name="table3",
        artifact="Table 3",
        description="raw SRRIP L2 MPKI and per-policy MPKI reductions",
        run=lambda ctx: _module("table3").run_table3(
            benchmarks=ctx.benchmarks,
            policies=ctx.policies,
            session=ctx.session,
        ),
        format=_formatter("table3", "format_table3"),
        supports_policies=True,
    )
)
register(
    Experiment(
        name="table4",
        artifact="Table 4",
        description="static power and area overheads of the mechanisms",
        run=lambda ctx: _module("tables").run_table4(),
        format=_formatter("tables", "format_table4"),
        simulates=False,
    )
)
register(
    Experiment(
        name="figure7",
        artifact="Figure 7",
        description="coverage of costly instruction misses by the hot section",
        run=lambda ctx: _module("figure7").run_figure7(
            benchmarks=ctx.benchmarks, session=ctx.session
        ),
        format=_formatter("figure7", "format_figure7"),
    )
)
register(
    Experiment(
        name="figure8",
        artifact="Figure 8",
        description="sensitivity to the compiler hot threshold",
        run=lambda ctx: _module("figure8").run_figure8(
            benchmarks=ctx.benchmarks, session=ctx.session
        ),
        format=_formatter("figure8", "format_figure8"),
    )
)
register(
    Experiment(
        name="figure9a",
        artifact="Figure 9a",
        description="L2 size sensitivity of TRRIP-1, CLIP and Emissary",
        run=lambda ctx: _module("figure9").run_figure9a(
            benchmarks=ctx.benchmarks, session=ctx.session
        ),
        format=_formatter("figure9", "format_figure9a"),
    )
)
register(
    Experiment(
        name="figure9b",
        artifact="Figure 9b",
        description="L2 associativity sensitivity of TRRIP-1",
        run=lambda ctx: _module("figure9").run_figure9b(
            benchmarks=ctx.benchmarks, session=ctx.session
        ),
        format=_formatter("figure9", "format_figure9b"),
    )
)
register(
    Experiment(
        name="interference",
        artifact="Contention",
        description="co-run vs solo slowdown per core over one shared L2/SLC",
        run=lambda ctx: _module("interference").run_interference(
            cores=ctx.cores,
            policies=ctx.policies,
            interleave=ctx.interleave,
            benchmarks=ctx.benchmarks,
            session=ctx.session,
        ),
        format=_formatter("interference", "format_interference"),
        supports_policies=True,
    )
)
register(
    Experiment(
        name="table5",
        artifact="Table 5",
        description="hot/warm page counts per page size and binary sizes",
        run=lambda ctx: _module("tables").run_table5(benchmarks=ctx.benchmarks),
        format=_formatter("tables", "format_table5"),
        simulates=False,
    )
)
register(
    Experiment(
        name="ablation-page-size",
        artifact="Section 4.9",
        description="page-size / overlap-handling ablation for TRRIP-1",
        run=lambda ctx: _module("ablations").run_page_size_ablation(
            benchmark=ctx.first_benchmark("sqlite"), session=ctx.session
        ),
        format=_formatter("ablations", "format_page_size_ablation"),
        single_benchmark=True,
    )
)
register(
    Experiment(
        name="ablation-kill-switch",
        artifact="adoption argument",
        description="TRRIP with temperature bits disabled degrades to SRRIP",
        run=lambda ctx: _module("ablations").run_kill_switch_ablation(
            benchmark=ctx.first_benchmark("sqlite"), session=ctx.session
        ),
        format=_formatter("ablations", "format_kill_switch"),
        single_benchmark=True,
    )
)
