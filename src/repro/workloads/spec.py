"""Workload specifications for the paper's benchmarks.

The paper evaluates ten C/C++ "mobile proxy" benchmarks (Table 2) and
motivates the problem with five mobile system-software components (Figure 1).
The real binaries and Pin traces are not reproducible offline, so each
workload is described by a :class:`WorkloadSpec`: the footprint of its hot /
warm / cold code, how much external (non-compiled) code it calls, its data
working sets and access rates, and its control-flow randomness.  The synthetic
program builder and trace generator turn a spec into an instruction stream
whose *cache-relevant shape* (hot-code reuse distance, instruction/data MPKI
balance, PGO coverage) mirrors what the paper reports for that benchmark.

All sizes target the **scaled** simulator configuration (32 kB L2, see
``repro.sim.config``).  Paper-scale runs multiply footprints and trace lengths
with :meth:`WorkloadSpec.scaled`.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass

from repro.common.errors import WorkloadError

KB = 1024


class InputSet(enum.Enum):
    """Which input a run uses (Table 2: training vs. evaluation inputs)."""

    TRAINING = "training"
    EVALUATION = "evaluation"


@dataclass(frozen=True)
class WorkloadSpec:
    """Synthetic description of one benchmark."""

    name: str
    category: str  # "proxy" (Table 2) or "system" (Figure 1)
    description: str

    # ------------------------------------------------------ program structure
    hot_functions: int = 24
    warm_functions: int = 20
    cold_functions: int = 48
    blocks_per_hot_function: int = 10
    blocks_per_warm_function: int = 6
    blocks_per_cold_function: int = 6
    #: Rarely-executed blocks interleaved inside hot/warm functions (error
    #: paths etc.).  They dilute spatial locality until PGO reorders them.
    internal_cold_blocks: int = 6
    block_bytes: int = 64
    external_code_kb: int = 0

    # ----------------------------------------------------- runtime behaviour
    #: Largest inner-loop trip count of a hot function.  Trip counts are
    #: assigned deterministically with a skewed distribution, which creates
    #: the long-tailed BB counter distribution Eq. 1/2 thresholds against.
    max_hot_trip_count: int = 4
    #: Each outer iteration is split into this many segments.  *Core* hot
    #: functions run in every segment (short reuse distance), *regular* hot
    #: functions once per iteration (the marginal 9-16 band of Figure 3) and
    #: *occasional* hot functions only in some iterations (long distance).
    segments_per_iteration: int = 3
    #: Fraction of hot functions in the frequently-executed core.
    hot_core_fraction: float = 0.25
    #: Fraction of hot functions visited only occasionally.
    hot_occasional_fraction: float = 0.25
    #: Probability an occasional hot function is visited in a given iteration.
    occasional_visit_probability: float = 0.4
    hot_visit_fraction: float = 0.92
    warm_call_rate: float = 0.03
    cold_call_rate: float = 0.004
    external_call_rate: float = 0.0
    external_lines_per_call: int = 10
    data_access_rate: float = 0.30
    data_stream_kb: int = 48
    data_reuse_kb: int = 12
    data_stream_fraction: float = 0.40
    branch_entropy: float = 0.08
    depend_stall_rate: float = 0.06
    depend_stall_cycles: int = 2
    issue_stall_rate: float = 0.03
    issue_stall_cycles: int = 2

    # --------------------------------------------------------- trace lengths
    eval_instructions: int = 80_000
    warmup_instructions: int = 20_000
    training_iterations: int = 6
    seed: int = 1

    # ------------------------------------------------------------ validation
    def __post_init__(self) -> None:
        if self.hot_functions <= 0 or self.blocks_per_hot_function <= 0:
            raise WorkloadError(f"{self.name}: needs at least one hot block")
        if self.block_bytes <= 0 or self.block_bytes % 4 != 0:
            raise WorkloadError(f"{self.name}: block_bytes must be a multiple of 4")
        if self.max_hot_trip_count < 1:
            raise WorkloadError(f"{self.name}: max_hot_trip_count must be >= 1")
        if self.segments_per_iteration < 1:
            raise WorkloadError(f"{self.name}: segments_per_iteration must be >= 1")
        if self.hot_core_fraction + self.hot_occasional_fraction >= 1.0:
            raise WorkloadError(
                f"{self.name}: core + occasional hot fractions must leave room "
                "for regular hot functions"
            )
        for rate_name in (
            "hot_visit_fraction",
            "hot_core_fraction",
            "hot_occasional_fraction",
            "occasional_visit_probability",
            "warm_call_rate",
            "cold_call_rate",
            "external_call_rate",
            "data_access_rate",
            "data_stream_fraction",
            "branch_entropy",
            "depend_stall_rate",
            "issue_stall_rate",
        ):
            value = getattr(self, rate_name)
            if not 0.0 <= value <= 1.0:
                raise WorkloadError(
                    f"{self.name}: {rate_name} must be in [0, 1], got {value}"
                )
        if self.eval_instructions <= 0 or self.warmup_instructions < 0:
            raise WorkloadError(f"{self.name}: invalid trace lengths")

    # ------------------------------------------------------------ properties
    @property
    def hot_code_bytes(self) -> int:
        return self.hot_functions * self.blocks_per_hot_function * self.block_bytes

    @property
    def warm_code_bytes(self) -> int:
        return self.warm_functions * self.blocks_per_warm_function * self.block_bytes

    @property
    def cold_code_bytes(self) -> int:
        internal = (
            (self.hot_functions + self.warm_functions)
            * self.internal_cold_blocks
            * self.block_bytes
        )
        standalone = (
            self.cold_functions * self.blocks_per_cold_function * self.block_bytes
        )
        return internal + standalone

    @property
    def total_code_bytes(self) -> int:
        return self.hot_code_bytes + self.warm_code_bytes + self.cold_code_bytes

    @property
    def instructions_per_block(self) -> int:
        return self.block_bytes // 4

    # --------------------------------------------------------------- scaling
    def scaled(self, factor: float) -> "WorkloadSpec":
        """Return a spec with footprints and trace lengths scaled by ``factor``.

        Used to move between the fast scaled configuration and the paper's
        Table 1 cache sizes.
        """
        if factor <= 0:
            raise WorkloadError("scale factor must be positive")

        def scale_int(value: int, minimum: int = 1) -> int:
            return max(int(round(value * factor)), minimum)

        return dataclasses.replace(
            self,
            hot_functions=scale_int(self.hot_functions),
            warm_functions=scale_int(self.warm_functions),
            cold_functions=scale_int(self.cold_functions),
            external_code_kb=int(round(self.external_code_kb * factor)),
            data_stream_kb=scale_int(self.data_stream_kb),
            data_reuse_kb=scale_int(self.data_reuse_kb),
            eval_instructions=scale_int(self.eval_instructions),
            warmup_instructions=scale_int(self.warmup_instructions, minimum=0),
        )

    def with_overrides(self, **overrides) -> "WorkloadSpec":
        """Return a copy with selected fields replaced (used by ablations)."""
        return dataclasses.replace(self, **overrides)


def _proxy(name: str, description: str, **kwargs) -> WorkloadSpec:
    return WorkloadSpec(name=name, category="proxy", description=description, **kwargs)


def _system(name: str, description: str, **kwargs) -> WorkloadSpec:
    return WorkloadSpec(name=name, category="system", description=description, **kwargs)


#: The ten proxy benchmarks of Table 2.  Footprints/rates are chosen so the
#: *relative* shape of Table 3 (instruction vs. data MPKI, PGO coverage of
#: costly misses, TRRIP headroom) carries over to the scaled configuration.
PROXY_BENCHMARKS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        _proxy(
            "abseil",
            "C++ utility library test-suite proxy: data-heavy, moderate hot code",
            hot_functions=26,
            warm_functions=24,
            cold_functions=64,
            data_access_rate=0.34,
            data_stream_kb=96,
            data_reuse_kb=10,
            data_stream_fraction=0.45,
            eval_instructions=90_000,
            seed=11,
        ),
        _proxy(
            "bullet",
            "physics/rendering proxy: small hot loop, frequent external calls",
            hot_functions=12,
            warm_functions=10,
            cold_functions=32,
            blocks_per_hot_function=8,
            external_code_kb=24,
            external_call_rate=0.14,
            data_access_rate=0.30,
            data_stream_kb=32,
            data_reuse_kb=8,
            data_stream_fraction=0.40,
            branch_entropy=0.05,
            eval_instructions=60_000,
            warmup_instructions=15_000,
            seed=12,
        ),
        _proxy(
            "clamscan",
            "malware-scanner proxy: small-medium hot code, streaming data scans",
            hot_functions=15,
            warm_functions=12,
            cold_functions=40,
            blocks_per_hot_function=9,
            external_code_kb=16,
            external_call_rate=0.08,
            data_access_rate=0.32,
            data_stream_kb=72,
            data_reuse_kb=8,
            data_stream_fraction=0.50,
            eval_instructions=70_000,
            warmup_instructions=15_000,
            seed=13,
        ),
        _proxy(
            "clang",
            "compiler proxy: very large instruction footprint, deep call paths",
            hot_functions=34,
            warm_functions=40,
            cold_functions=120,
            blocks_per_hot_function=11,
            internal_cold_blocks=8,
            data_access_rate=0.26,
            data_stream_kb=64,
            data_reuse_kb=8,
            data_stream_fraction=0.30,
            warm_call_rate=0.05,
            cold_call_rate=0.008,
            branch_entropy=0.10,
            eval_instructions=120_000,
            warmup_instructions=30_000,
            seed=14,
        ),
        _proxy(
            "deepsjeng",
            "chess-engine proxy: compact code slightly exceeding cache ways, low MPKI",
            hot_functions=18,
            warm_functions=8,
            cold_functions=20,
            blocks_per_hot_function=9,
            data_access_rate=0.18,
            data_stream_kb=16,
            data_reuse_kb=8,
            data_stream_fraction=0.25,
            warm_call_rate=0.02,
            branch_entropy=0.12,
            eval_instructions=70_000,
            warmup_instructions=15_000,
            seed=15,
        ),
        _proxy(
            "gcc",
            "compiler proxy: large instruction footprint, mixed data locality",
            hot_functions=31,
            warm_functions=28,
            cold_functions=96,
            internal_cold_blocks=8,
            data_access_rate=0.26,
            data_stream_kb=64,
            data_reuse_kb=8,
            data_stream_fraction=0.30,
            warm_call_rate=0.04,
            branch_entropy=0.10,
            eval_instructions=110_000,
            warmup_instructions=30_000,
            seed=16,
        ),
        _proxy(
            "omnetpp",
            "discrete-event simulator proxy: pointer-chasing data, warm-heavy code",
            hot_functions=30,
            warm_functions=32,
            cold_functions=72,
            data_access_rate=0.30,
            data_stream_kb=64,
            data_reuse_kb=10,
            data_stream_fraction=0.35,
            warm_call_rate=0.06,
            eval_instructions=90_000,
            seed=17,
        ),
        _proxy(
            "python",
            "interpreter proxy: large dispatch loops, sizeable hot footprint",
            hot_functions=32,
            warm_functions=26,
            cold_functions=80,
            data_access_rate=0.28,
            data_stream_kb=64,
            data_reuse_kb=8,
            data_stream_fraction=0.30,
            warm_call_rate=0.04,
            branch_entropy=0.09,
            eval_instructions=100_000,
            warmup_instructions=25_000,
            seed=18,
        ),
        _proxy(
            "rapidjson",
            "JSON-parser proxy: tiny hot loop, streaming data, external helpers",
            hot_functions=11,
            warm_functions=10,
            cold_functions=32,
            blocks_per_hot_function=8,
            external_code_kb=24,
            external_call_rate=0.13,
            data_access_rate=0.34,
            data_stream_kb=88,
            data_reuse_kb=8,
            data_stream_fraction=0.50,
            branch_entropy=0.05,
            eval_instructions=60_000,
            warmup_instructions=15_000,
            seed=19,
        ),
        _proxy(
            "sqlite",
            "embedded-database proxy: large VM dispatch code, moderate data",
            hot_functions=29,
            warm_functions=22,
            cold_functions=72,
            data_access_rate=0.24,
            data_stream_kb=48,
            data_reuse_kb=8,
            data_stream_fraction=0.30,
            warm_call_rate=0.04,
            branch_entropy=0.08,
            eval_instructions=90_000,
            seed=20,
        ),
    )
}

#: The five mobile system-software components profiled in Figure 1.
SYSTEM_COMPONENTS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        _system(
            "interp",
            "bytecode interpreter of the language runtime",
            hot_functions=32,
            warm_functions=28,
            cold_functions=72,
            data_access_rate=0.26,
            data_stream_kb=48,
            data_reuse_kb=8,
            data_stream_fraction=0.30,
            warm_call_rate=0.05,
            branch_entropy=0.10,
            eval_instructions=60_000,
            warmup_instructions=15_000,
            seed=31,
        ),
        _system(
            "ui",
            "user-interface framework shared library",
            hot_functions=30,
            warm_functions=32,
            cold_functions=96,
            data_access_rate=0.30,
            data_stream_kb=64,
            data_reuse_kb=8,
            data_stream_fraction=0.35,
            warm_call_rate=0.06,
            eval_instructions=60_000,
            warmup_instructions=15_000,
            seed=32,
        ),
        _system(
            "graphics",
            "graphics shared library",
            hot_functions=28,
            warm_functions=24,
            cold_functions=72,
            data_access_rate=0.32,
            data_stream_kb=72,
            data_reuse_kb=8,
            data_stream_fraction=0.45,
            warm_call_rate=0.05,
            eval_instructions=60_000,
            warmup_instructions=15_000,
            seed=33,
        ),
        _system(
            "render",
            "rendering shared library",
            hot_functions=29,
            warm_functions=28,
            cold_functions=80,
            data_access_rate=0.30,
            data_stream_kb=64,
            data_reuse_kb=8,
            data_stream_fraction=0.40,
            warm_call_rate=0.05,
            eval_instructions=60_000,
            warmup_instructions=15_000,
            seed=34,
        ),
        _system(
            "js_runtime",
            "JavaScript runtime shared library",
            hot_functions=33,
            warm_functions=32,
            cold_functions=96,
            data_access_rate=0.28,
            data_stream_kb=56,
            data_reuse_kb=8,
            data_stream_fraction=0.35,
            warm_call_rate=0.06,
            branch_entropy=0.10,
            eval_instructions=60_000,
            warmup_instructions=15_000,
            seed=35,
        ),
    )
}

#: Names in the order the paper's figures list them.
PROXY_BENCHMARK_NAMES: tuple[str, ...] = (
    "abseil",
    "bullet",
    "clamscan",
    "clang",
    "deepsjeng",
    "gcc",
    "omnetpp",
    "python",
    "rapidjson",
    "sqlite",
)

SYSTEM_COMPONENT_NAMES: tuple[str, ...] = (
    "interp",
    "ui",
    "graphics",
    "render",
    "js_runtime",
)


def get_spec(name: str) -> WorkloadSpec:
    """Look up a workload spec by benchmark name."""
    if name in PROXY_BENCHMARKS:
        return PROXY_BENCHMARKS[name]
    if name in SYSTEM_COMPONENTS:
        return SYSTEM_COMPONENTS[name]
    raise WorkloadError(
        f"unknown workload {name!r}; known: "
        f"{', '.join(list(PROXY_BENCHMARKS) + list(SYSTEM_COMPONENTS))}"
    )


def resolve_spec(
    benchmark: "str | WorkloadSpec", workload_scale: float = 1.0
) -> WorkloadSpec:
    """Resolve a benchmark name/spec, applying ``workload_scale`` exactly once.

    The single implementation of the scaling rule: the scenario layer
    (``repro.api.scenario.resolve_benchmark``), the sweep manifest and the
    replay benchmark all delegate here, so a spec can never be scaled twice
    on one path and once on another.
    """
    spec = benchmark if isinstance(benchmark, WorkloadSpec) else get_spec(benchmark)
    if workload_scale != 1.0:
        spec = spec.scaled(workload_scale)
    return spec


def tiny_spec(name: str = "tinybench", seed: int = 99) -> WorkloadSpec:
    """A miniature workload for smoke tests and CLI dry runs.

    Roughly 10x smaller than the real proxies in both code footprint and
    trace length, so a full experiment over it completes in well under a
    second.  Used by the test suite and by ``repro run --tiny``; it is *not*
    part of the paper's benchmark catalog (``get_spec`` does not know it).
    """
    return WorkloadSpec(
        name=name,
        category="proxy",
        description="miniature smoke-test workload (not a paper benchmark)",
        hot_functions=8,
        warm_functions=4,
        cold_functions=8,
        blocks_per_hot_function=4,
        blocks_per_warm_function=3,
        blocks_per_cold_function=3,
        internal_cold_blocks=2,
        external_code_kb=4,
        external_call_rate=0.05,
        data_access_rate=0.25,
        data_stream_kb=8,
        data_reuse_kb=4,
        eval_instructions=6_000,
        warmup_instructions=2_000,
        training_iterations=3,
        seed=seed,
    )


def all_proxy_specs() -> list[WorkloadSpec]:
    """The ten Table 2 proxies, in paper order."""
    return [PROXY_BENCHMARKS[name] for name in PROXY_BENCHMARK_NAMES]


def all_system_specs() -> list[WorkloadSpec]:
    """The five Figure 1 system components, in paper order."""
    return [SYSTEM_COMPONENTS[name] for name in SYSTEM_COMPONENT_NAMES]
