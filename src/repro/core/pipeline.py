"""End-to-end TRRIP co-design pipeline (Figure 4).

The pipeline wires every substrate together in the order the paper describes:

1. build the synthetic program for a workload spec (source code stand-in);
2. compile it without a profile (ELF1) — implicitly, the instrumented binary;
3. run the training input to collect the instrumentation profile;
4. re-compile with the profile (ELF2): temperature classification (Eq. 1/2)
   and temperature-separated code layout;
5. load ELF2: allocate pages, populate PTEs with PBHA temperature bits;
6. hand back everything a simulator needs: the MMU (translation + tagging)
   and an evaluation-input trace generator.

Setting ``apply_pgo=False`` produces the non-PGO baseline of Figure 2;
``propagate_temperature=False`` models running a TRRIP-compiled binary on a
system whose loader ignores the temperature attributes (hardware-only
baselines like SRRIP/CLIP/Emissary do not need the bits, and TRRIP degrades
gracefully to SRRIP behaviour).

The stages load when they run: a run key or a store hit needs only
:class:`PipelineOptions`, so importing this module imports none of the
compiler, loader, builder, profiler or trace generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.osmodel.pages import OverlapPolicy
from repro.workloads.spec import InputSet, WorkloadSpec

if TYPE_CHECKING:
    from repro.compiler.classify import ClassifierConfig
    from repro.compiler.layout import LayoutConfig
    from repro.compiler.pgo import CompiledBinary
    from repro.compiler.profile import InstrumentationProfile
    from repro.osmodel.loader import LoadedProgram, LoaderConfig
    from repro.osmodel.mmu import MMU
    from repro.workloads.builder import SyntheticWorkload
    from repro.workloads.tracegen import TraceGenerator


@dataclass
class PipelineOptions:
    """Knobs of the co-design flow."""

    apply_pgo: bool = True
    propagate_temperature: bool = True
    percentile_hot: float = 0.99
    percentile_cold: float = 0.9999
    page_size: int = 4096
    overlap_policy: OverlapPolicy = OverlapPolicy.MAJORITY
    pad_sections_to_page: bool = False

    def cache_key(self) -> tuple:
        """Hashable identity of these options (runner caches, plan dedup)."""
        return (
            self.apply_pgo,
            self.propagate_temperature,
            self.percentile_hot,
            self.percentile_cold,
            self.page_size,
            self.overlap_policy,
            self.pad_sections_to_page,
        )

    def classifier_config(self) -> ClassifierConfig:
        from repro.compiler.classify import ClassifierConfig

        return ClassifierConfig(
            percentile_hot=self.percentile_hot,
            percentile_cold=max(self.percentile_cold, self.percentile_hot),
        )

    def layout_config(self) -> LayoutConfig:
        from repro.compiler.layout import LayoutConfig

        return LayoutConfig(
            pad_sections_to_page=self.pad_sections_to_page,
            page_size=self.page_size,
        )

    def loader_config(self) -> LoaderConfig:
        from repro.osmodel.loader import LoaderConfig

        return LoaderConfig(
            page_size=self.page_size,
            overlap_policy=self.overlap_policy,
            propagate_temperature=self.propagate_temperature,
        )


@dataclass
class PreparedWorkload:
    """Everything needed to simulate one benchmark."""

    spec: WorkloadSpec
    workload: SyntheticWorkload
    binary: CompiledBinary
    loaded: LoadedProgram
    profile: Optional[InstrumentationProfile] = None
    options: PipelineOptions = field(default_factory=PipelineOptions)

    def mmu(self) -> MMU:
        """A fresh MMU over the loaded program's page table."""
        from repro.osmodel.mmu import MMU

        return MMU(self.loaded.page_table)

    def trace_generator(
        self, input_set: InputSet = InputSet.EVALUATION
    ) -> TraceGenerator:
        """A fresh trace generator over the compiled binary."""
        from repro.workloads.tracegen import TraceGenerator

        return TraceGenerator(self.workload, self.binary, input_set)

    @property
    def pgo_applied(self) -> bool:
        return self.binary.pgo_applied


class CoDesignPipeline:
    """Compiler → OS → hardware preparation flow for one workload."""

    def __init__(self, options: PipelineOptions | None = None) -> None:
        self.options = options or PipelineOptions()

    def prepare(self, spec: WorkloadSpec) -> PreparedWorkload:
        """Run the full software-side flow for ``spec``."""
        from repro.compiler.pgo import PGOCompiler
        from repro.osmodel.loader import ProgramLoader
        from repro.workloads.builder import SyntheticProgramBuilder
        from repro.workloads.profiling import collect_profile

        options = self.options
        workload = SyntheticProgramBuilder().build(spec)
        compiler = PGOCompiler(
            classifier_config=options.classifier_config(),
            layout_config=options.layout_config(),
        )

        profile: Optional[InstrumentationProfile] = None
        if options.apply_pgo:
            profile = collect_profile(workload)
            binary = compiler.compile_with_pgo(workload.program, profile)
        else:
            binary = compiler.compile_without_pgo(workload.program)

        loader = ProgramLoader(options.loader_config())
        loaded = loader.load(binary)
        return PreparedWorkload(
            spec=spec,
            workload=workload,
            binary=binary,
            loaded=loaded,
            profile=profile,
            options=options,
        )
