"""TRRIP reproduction library.

A full-system, pure-Python reproduction of "A TRRIP Down Memory Lane:
Temperature-Based Re-Reference Interval Prediction For Instruction Caching"
(MICRO 2025): the TRRIP replacement policy and its compiler / OS / hardware
co-design pipeline, together with every substrate the evaluation needs
(cache hierarchy, replacement-policy zoo, mechanistic CPU model, synthetic
PGO compiler, OS loader/MMU, workload generators) and an experiment harness
that regenerates every table and figure of the paper.

Quick start::

    from repro import CoDesignPipeline, SimulatorConfig, SystemSimulator
    from repro.workloads import get_spec, InputSet

    pipeline = CoDesignPipeline()
    prepared = pipeline.prepare(get_spec("sqlite"))
    config = SimulatorConfig.scaled().with_l2_policy("trrip-1")
    simulator = SystemSimulator(config, translator=prepared.mmu(),
                                benchmark="sqlite")
    generator = prepared.trace_generator(InputSet.EVALUATION)
    simulator.warm_up(generator.records(prepared.spec.warmup_instructions))
    result = simulator.run(generator.records(prepared.spec.eval_instructions))
    print(result.l2_inst_mpki, result.ipc)
"""

from repro.common.lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".common": ("Temperature", "MemoryRequest"),
        ".core": (
            "TRRIPPolicy",
            "CoDesignPipeline",
            "PipelineOptions",
            "PreparedWorkload",
        ),
        ".sim": (
            "SimulatorConfig",
            "SystemSimulator",
            "SimulationResult",
            "EVALUATED_POLICIES",
            "BASELINE_POLICY",
        ),
    },
)
__all__ += ["__version__"]
