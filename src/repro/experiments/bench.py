"""Engine-speed and lockstep-sweep benchmark harness (``repro bench``).

Measures the production engine (flat-array caches + packed-trace replay)
against the *seed-equivalent baseline loop*
(:mod:`repro.experiments.seed_engine`) on four trace shapes, plus a
multi-policy figure-sweep shape that compares lockstep replay against N
independent runs.  The same measurement code backs the pytest benchmark
(``benchmarks/test_bench_engine_speed.py``) and the ``repro bench`` CLI
subcommand, so perf numbers never require invoking pytest by path.

Timings are nondeterministic, so the raw report (``BENCH_engine.json``) is a
build artifact, never a committed file; what *is* committed is
``BENCH_baseline.json`` at the repository root — pinned, machine-independent
**speedup floors** that :func:`check_floors` asserts against.  The floors are
deliberately below typically measured values (CI machines vary); regressions
that matter (a hot path quietly falling back to object-per-block behaviour)
blow straight through them.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.common.trace import (
    FLAG_BRANCH,
    FLAG_MEM,
    FLAG_STORE,
    FLAG_TAKEN,
    PackedTrace,
    TraceRecord,
)
from repro.experiments.runner import BenchmarkRunner
from repro.experiments.seed_engine import build_seed_core
from repro.sim.config import SimulatorConfig
from repro.sim.simulator import SystemSimulator, run_lockstep

#: Default instruction count per shape (the historical benchmark size).
INSTRUCTIONS = 120_000
#: ``--tiny`` instruction count: seconds, for CI smoke runs.
TINY_INSTRUCTIONS = 30_000
#: Interleaved best-of-N rounds; both engines take the best of the same N
#: windows, so more rounds tightens the estimate without biasing the ratio.
ROUNDS = 5

#: (code lines, memory-operand rate, branch every N instructions)
SHAPES = {
    "hot_loop": (32, 0.0, 32),
    "resident": (64, 0.2, 16),
    "mixed": (512, 0.3, 16),
    "streaming": (4096, 0.35, 16),
}

#: The multi-policy figure-sweep shape: one real catalog workload replayed
#: under four L2 policies, lockstep vs independent.
SWEEP_BENCHMARK = "sqlite"
SWEEP_POLICIES = ("srrip", "lru", "drrip", "trrip-1")

#: Fallback floors used when no ``BENCH_baseline.json`` is found (kept in
#: sync with the committed file).
DEFAULT_FLOORS = {
    "scalar_speedup_floors": {
        "hot_loop": 6.5,
        "resident": 4.0,
        "mixed": 3.2,
        "streaming": 3.6,
    },
    # A lane decodes, predicts, translates and trains the prefetchers once
    # for all its cores (1.6x or more on both sweep sizes); a lane that
    # repeats that work per core read 1.32x at most.
    "lockstep_min_speedup": 1.4,
}


def baseline_path() -> Path:
    """The committed floors file at the repository root (if present)."""
    return Path(__file__).resolve().parents[3] / "BENCH_baseline.json"


def load_floors(path: Optional[Path] = None) -> dict:
    """Pinned speedup floors: the committed baseline file, else defaults."""
    candidate = path or baseline_path()
    if candidate.is_file():
        return json.loads(candidate.read_text())
    return DEFAULT_FLOORS


# ------------------------------------------------------------------- traces
def build_traces(
    shape: str, instructions: int = INSTRUCTIONS
) -> tuple[list[TraceRecord], PackedTrace]:
    """A synthetic trace in both representations (identical instructions)."""
    code_lines, mem_rate, branch_every = SHAPES[shape]
    rng = random.Random(42)
    records: list[TraceRecord] = []
    packed = PackedTrace()
    code_base, data_base = 0x10000, 0x800000
    total_slots = code_lines * 16
    data_lines = 48 if shape in ("hot_loop", "resident") else code_lines * 4
    for i in range(instructions):
        slot = i % total_slots
        pc = code_base + slot * 4
        is_branch = (slot % branch_every) == branch_every - 1
        taken = is_branch and (slot == total_slots - 1 or rng.random() < 0.1)
        target = code_base if slot == total_slots - 1 else pc + 8
        has_mem = mem_rate > 0 and rng.random() < mem_rate
        if shape == "streaming":
            mem = data_base + ((i * 64) % (data_lines * 64)) if has_mem else 0
        else:
            mem = data_base + rng.randrange(data_lines) * 64 if has_mem else 0
        store = has_mem and rng.random() < 0.3
        flags = (
            (FLAG_BRANCH if is_branch else 0)
            | (FLAG_TAKEN if taken else 0)
            | (FLAG_MEM if has_mem else 0)
            | (FLAG_STORE if store else 0)
        )
        packed.append_raw(pc, 4, flags, target if is_branch else 0, mem, 0, 0)
        records.append(
            TraceRecord(
                pc=pc,
                is_branch=is_branch,
                branch_taken=taken,
                branch_target=target if is_branch else 0,
                mem_address=mem if has_mem else None,
                is_store=store,
            )
        )
    return records, packed


# -------------------------------------------------------------- measurement
def measure_shape(
    shape: str,
    instructions: int = INSTRUCTIONS,
    rounds: int = ROUNDS,
) -> dict:
    """Interleaved best-of-N measurement of both engines on one shape.

    Both sides must produce bit-identical results, which the inline
    assertions enforce on the last round.
    """
    records, packed = build_traces(shape, instructions)
    config = SimulatorConfig.scaled()
    best_seed = best_fast = float("inf")
    seed_result = fast_result = None
    for _ in range(rounds):
        core = build_seed_core(config)
        core.run(records)  # warm-up window
        core.hierarchy.reset_stats()
        start = time.perf_counter()
        seed_result = core.run(records)
        best_seed = min(best_seed, time.perf_counter() - start)

        simulator = SystemSimulator(config, benchmark=shape)
        simulator.warm_up(packed)
        start = time.perf_counter()
        fast_result = simulator.run(packed)
        best_fast = min(best_fast, time.perf_counter() - start)

    # The baseline replica models the same hardware: identical results.
    assert seed_result.cycles == fast_result.cycles
    assert seed_result.topdown == fast_result.topdown

    return {
        "instructions": instructions,
        "seed_ips": round(instructions / best_seed),
        "fast_ips": round(instructions / best_fast),
        "speedup": round(best_seed / best_fast, 2),
    }


def measure_lockstep_sweep(
    benchmark: str = SWEEP_BENCHMARK,
    policies: Sequence[str] = SWEEP_POLICIES,
    rounds: int = ROUNDS,
    tiny: bool = False,
) -> dict:
    """Wall-clock of a multi-policy sweep: lockstep vs N independent runs.

    Uses a real catalog workload (the figure-sweep shape) with the trace
    generated once and shared, so the comparison isolates the replay loops.
    Best of ``rounds`` interleaved rounds, as for the shapes: a tiny round
    takes tens of milliseconds, and a best of two swung by a third.
    The two executions must also be bit-identical, which is asserted here on
    the headline cycle counts (the full property is pinned by
    ``tests/test_lockstep.py``).
    """
    from repro.workloads.spec import resolve_spec, tiny_spec

    config = SimulatorConfig.scaled()
    runner = BenchmarkRunner(config=config)
    spec = tiny_spec() if tiny else resolve_spec(benchmark, config.workload_scale)
    prepared = runner._prepare_resolved(spec)
    warmup, measured = runner.packed_traces(prepared)

    def build(policy: str) -> SystemSimulator:
        return SystemSimulator(
            config.with_l2_policy(policy),
            translator=prepared.mmu(),
            benchmark=spec.name,
        )

    best_solo = best_lockstep = float("inf")
    solo_results = lockstep_results = None
    for _ in range(rounds):
        start = time.perf_counter()
        solo_results = []
        for policy in policies:
            simulator = build(policy)
            simulator.warm_up(warmup)
            solo_results.append(simulator.run(measured))
        best_solo = min(best_solo, time.perf_counter() - start)

        start = time.perf_counter()
        lockstep_results = run_lockstep(
            [build(policy) for policy in policies], warmup, measured
        )
        best_lockstep = min(best_lockstep, time.perf_counter() - start)

    for solo, lockstep in zip(solo_results, lockstep_results):
        assert solo.cycles == lockstep.cycles, "lockstep diverged from solo"

    return {
        "benchmark": spec.name,
        "policies": list(policies),
        "instructions": len(measured),
        "independent_s": round(best_solo, 4),
        "lockstep_s": round(best_lockstep, 4),
        "speedup": round(best_solo / best_lockstep, 2),
    }


def run_engine_bench(
    instructions: int = INSTRUCTIONS,
    rounds: int = ROUNDS,
    tiny: bool = False,
    sweep: bool = True,
) -> dict:
    """The full bench report: per-shape engine speed plus the lockstep sweep."""
    if tiny:
        instructions = min(instructions, TINY_INSTRUCTIONS)
    shapes = {
        shape: measure_shape(shape, instructions, rounds) for shape in SHAPES
    }
    report = {
        "unit": "simulated instructions per second",
        "baseline": "seed-equivalent record loop (repro.experiments.seed_engine)",
        "engine": "flat-array caches + PackedTrace geometry columns",
        "tiny": tiny,
        "shapes": shapes,
        "peak_speedup": max(row["speedup"] for row in shapes.values()),
    }
    if sweep:
        report["lockstep_sweep"] = measure_lockstep_sweep(tiny=tiny)
    reference = load_floors().get("reference")
    if reference and not tiny:
        # Improvement over the committed reference block (an earlier build
        # of the same replay loop).  The speedup ratio is the
        # machine-independent comparison: both numbers are measured against
        # the identical interleaved seed baseline, so it cancels out how
        # fast the measuring machine happens to be.
        improvement = {}
        for shape in ("mixed", "streaming"):
            row = shapes.get(shape)
            old_ips = reference.get(f"{shape}_fast_ips")
            old_speedup = reference.get(f"{shape}_speedup")
            if row and old_ips and old_speedup:
                improvement[shape] = {
                    "fast_ips_vs_reference": round(row["fast_ips"] / old_ips, 2),
                    "speedup_vs_reference": round(
                        row["speedup"] / old_speedup, 2
                    ),
                }
        report["improvement_vs_reference"] = improvement
    return report


# ------------------------------------------------------------------- floors
def check_floors(report: dict, floors: Optional[dict] = None) -> list[str]:
    """Pinned-floor assertions; returns human-readable violations (empty = ok)."""
    floors = floors or load_floors()
    violations = []
    for shape, floor in floors.get("scalar_speedup_floors", {}).items():
        row = report["shapes"].get(shape)
        if row is None:
            violations.append(f"{shape}: missing from report")
        elif row["speedup"] < floor:
            violations.append(
                f"{shape}: speedup {row['speedup']:.2f}x below the pinned "
                f"floor {floor:.2f}x"
            )
    sweep = report.get("lockstep_sweep")
    lockstep_floor = floors.get("lockstep_min_speedup")
    if sweep is not None and lockstep_floor is not None:
        if sweep["speedup"] < lockstep_floor:
            violations.append(
                f"lockstep sweep: {sweep['speedup']:.2f}x vs independent "
                f"runs, below the pinned floor {lockstep_floor:.2f}x"
            )
    return violations


def format_report(report: dict) -> str:
    """Human-readable rendering of :func:`run_engine_bench` output."""
    lines = [
        "[Engine speed] simulated instructions per second, seed vs fast",
        "",
        f"{'shape':<12} {'seed ips':>12} {'fast ips':>12} {'speedup':>9}",
    ]
    for shape, row in report["shapes"].items():
        lines.append(
            f"{shape:<12} {row['seed_ips']:>12,} {row['fast_ips']:>12,} "
            f"{row['speedup']:>8.2f}x"
        )
    sweep = report.get("lockstep_sweep")
    if sweep is not None:
        lines += [
            "",
            f"[Lockstep sweep] {sweep['benchmark']} x "
            f"{len(sweep['policies'])} policies "
            f"({', '.join(sweep['policies'])})",
            f"independent {sweep['independent_s']:.3f}s   "
            f"lockstep {sweep['lockstep_s']:.3f}s   "
            f"speedup {sweep['speedup']:.2f}x",
        ]
    improvement = report.get("improvement_vs_reference")
    if improvement:
        lines.append("")
        for shape, ratios in improvement.items():
            lines.append(
                f"[vs reference] {shape}: "
                f"{ratios['fast_ips_vs_reference']:.2f}x the committed "
                f"fast_ips, {ratios['speedup_vs_reference']:.2f}x the "
                "committed seed-relative speedup"
            )
    return "\n".join(lines)
