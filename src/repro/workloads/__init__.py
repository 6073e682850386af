"""Synthetic workload substrate: specs, families, builder, capture, traces."""

from repro.common.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".spec": (
            "WorkloadSpec",
            "InputSet",
            "PROXY_BENCHMARKS",
            "PROXY_BENCHMARK_NAMES",
            "SYSTEM_COMPONENTS",
            "SYSTEM_COMPONENT_NAMES",
            "get_spec",
            "all_proxy_specs",
            "all_system_specs",
        ),
        ".families": (
            "WORKLOAD_FAMILIES",
            "FamilyInfo",
            "WorkloadFamilySpec",
            "describe_families",
            "family_names",
            "get_family_info",
            "is_family_token",
            "resolve_workload",
        ),
        ".capture": ("TraceArchive", "trace_key"),
        ".builder": (
            "SyntheticProgramBuilder",
            "SyntheticWorkload",
            "DATA_STREAM_BASE",
            "DATA_REUSE_BASE",
        ),
        ".behavior": ("ControlFlowModel", "FunctionCall"),
        ".profiling": ("collect_profile", "PROFILE_TRIP_MULTIPLIER"),
        ".tracegen": ("TraceGenerator",),
    },
)
