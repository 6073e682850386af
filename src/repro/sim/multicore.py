"""Interleaved multi-core simulation over one shared L2/SLC.

The multi-core mode models a multiprogrammed workload: N independent
per-core trace streams (any mix of workload families), each replayed by a
private core + L1s as its own one-core lane, the lanes taking deterministic
round-robin turns (:func:`repro.cpu.core.run_lanes`), all missing into *one*
shared L2/SLC instance (:class:`repro.cache.hierarchy.SharedCacheSystem`).
There is no timing feedback between cores — contention is modelled through
cache state (a co-runner's fills evict your lines), which is exactly the
interference channel the contention experiments measure.

Each core's trace keeps its own virtual address space; physical placement
offsets every core into a disjoint window (:class:`CoreAddressSpace`) so two
cores running the *same* workload family contend instead of silently sharing
lines.  Core 0 keeps its translator unwrapped — an N=1 multi-core run
performs byte-for-byte the single-core state transitions, which
``tests/test_multicore.py`` pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.cache.hierarchy import CacheHierarchy, SharedCacheSystem
from repro.common.errors import ConfigurationError
from repro.common.temperature import Temperature
from repro.common.trace import PackedTrace
from repro.common.translation import AddressTranslator, IdentityTranslator
from repro.cpu.core import CoreModel, CoreResult, run_lanes
from repro.sim.config import SimulatorConfig
from repro.sim.results import SimulationResult
from repro.sim.simulator import package_result

#: Physical-address window shift per core: each core's translated addresses
#: land in a disjoint 16 TiB window, far above any workload's footprint.
CORE_WINDOW_BITS = 44


class CoreAddressSpace:
    """Offsets a per-workload translator into a disjoint per-core window."""

    def __init__(self, inner: AddressTranslator, core_id: int) -> None:
        self._inner = inner
        self._offset = core_id << CORE_WINDOW_BITS

    def translate_instruction(self, vaddr: int) -> tuple[int, Temperature]:
        paddr, temperature = self._inner.translate_instruction(vaddr)
        return paddr + self._offset, temperature

    def translate_data(self, vaddr: int) -> tuple[int, Temperature]:
        paddr, temperature = self._inner.translate_data(vaddr)
        return paddr + self._offset, temperature


def normalize_interleave(
    interleave: Optional[Sequence[int]], cores: int
) -> tuple[int, ...]:
    """Validate an interleave ratio against a core count.

    ``None`` or empty means plain round-robin (one instruction per core per
    turn).  Otherwise one positive integer quantum per core.
    """
    if not interleave:
        return (1,) * cores
    ratio = tuple(int(value) for value in interleave)
    if len(ratio) != cores:
        raise ConfigurationError(
            f"interleave ratio has {len(ratio)} entries for {cores} cores"
        )
    if any(value <= 0 for value in ratio):
        raise ConfigurationError("interleave quanta must be positive integers")
    return ratio


@dataclass
class MulticoreResult:
    """Outcome of one interleaved multi-core run."""

    #: Per-core results, index-aligned with the scenario's core list.
    cores: list[SimulationResult]
    #: Instructions interleaved per core per scheduler turn.
    interleave: tuple[int, ...]
    #: Resident shared-L2 lines per owning core at end of run.
    occupancy: dict[int, int]
    #: Core -> its lines evicted from the shared L2 by *other* cores.
    inter_core_evictions: dict[int, int]
    #: Core -> other cores' lines its own fills evicted.
    evictions_caused: dict[int, int]

    @property
    def total_inter_core_evictions(self) -> int:
        return sum(self.inter_core_evictions.values())

    # ---------------------------------------------------------- serialisation
    def to_dict(self) -> dict:
        """JSON-serialisable form; round-trips exactly via :meth:`from_dict`."""
        return {
            "cores": [result.to_dict() for result in self.cores],
            "interleave": list(self.interleave),
            "occupancy": {str(k): v for k, v in self.occupancy.items()},
            "inter_core_evictions": {
                str(k): v for k, v in self.inter_core_evictions.items()
            },
            "evictions_caused": {
                str(k): v for k, v in self.evictions_caused.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MulticoreResult":
        return cls(
            cores=[
                SimulationResult.from_dict(entry) for entry in payload["cores"]
            ],
            interleave=tuple(payload["interleave"]),
            occupancy={int(k): v for k, v in payload["occupancy"].items()},
            inter_core_evictions={
                int(k): v for k, v in payload["inter_core_evictions"].items()
            },
            evictions_caused={
                int(k): v for k, v in payload["evictions_caused"].items()
            },
        )


class MulticoreSimulator:
    """N cores with private L1s over one shared L2/SLC.

    ``translators`` and ``benchmarks`` are index-aligned per core.  The usual
    protocol mirrors :class:`~repro.sim.simulator.SystemSimulator`:
    :meth:`warm_up` with the per-core fast-forward traces, then :meth:`run`
    with the measured traces (statistics reset first, cache and predictor
    state kept).
    """

    def __init__(
        self,
        config: SimulatorConfig,
        translators: Sequence[Optional[AddressTranslator]],
        benchmarks: Sequence[str],
        interleave: Optional[Sequence[int]] = None,
    ) -> None:
        config.validate()
        if not translators:
            raise ConfigurationError("multi-core mode needs at least one core")
        if len(translators) != len(benchmarks):
            raise ConfigurationError(
                "one benchmark label per core translator is required"
            )
        self.config = config
        self.benchmarks = list(benchmarks)
        self.interleave = normalize_interleave(interleave, len(translators))
        self.shared = SharedCacheSystem(config.hierarchy)
        self.hierarchies: list[CacheHierarchy] = []
        self.cores: list[CoreModel] = []
        for core_id, translator in enumerate(translators):
            # Core 0 keeps its translator unwrapped: zero offset, and the
            # identity-translation fast paths stay engaged, so an N=1 run is
            # bit-identical to the single-core simulator.
            if core_id > 0:
                translator = CoreAddressSpace(
                    translator if translator is not None else _IDENTITY,
                    core_id,
                )
            hierarchy = CacheHierarchy(
                config.hierarchy, shared=self.shared, core_id=core_id
            )
            self.hierarchies.append(hierarchy)
            self.cores.append(
                CoreModel(
                    hierarchy,
                    translator=translator,
                    config=config.core,
                    line_size=config.hierarchy.line_size,
                    core=core_id,
                )
            )

    # ------------------------------------------------------------------- API
    def warm_up(self, traces: Sequence[PackedTrace]) -> list[CoreResult]:
        """Replay the warm-up window; results are normally discarded."""
        return self._replay(traces)

    def run(
        self,
        traces: Sequence[PackedTrace],
        reset_stats: bool = True,
    ) -> MulticoreResult:
        """Replay the measured window and package per-core + sharing stats."""
        if reset_stats:
            for hierarchy in self.hierarchies:
                hierarchy.reset_stats()
            self.shared.reset_sharing_stats()
        return self.package(self._replay(traces))

    def _replay(self, traces: Sequence[PackedTrace]) -> list[CoreResult]:
        """One one-core lane per core, in turns of the interleave quanta."""
        lanes = [
            ((core,), trace)
            for core, trace in zip(self.cores, traces, strict=True)
        ]
        return [result for (result,) in run_lanes(lanes, self.interleave)]

    def package(self, core_results: Sequence[CoreResult]) -> MulticoreResult:
        results = [
            package_result(benchmark, self.config, hierarchy.stats, core_result)
            for benchmark, hierarchy, core_result in zip(
                self.benchmarks, self.hierarchies, core_results
            )
        ]
        return MulticoreResult(
            cores=results,
            interleave=self.interleave,
            occupancy=self.shared.occupancy(),
            inter_core_evictions=dict(
                sorted(self.shared.inter_core_evictions.items())
            ),
            evictions_caused=dict(sorted(self.shared.evictions_caused.items())),
        )


_IDENTITY = IdentityTranslator()
