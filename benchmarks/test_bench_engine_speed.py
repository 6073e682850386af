"""Engine throughput benchmark: fast packed-trace engine vs the seed loop.

The measurement logic lives in :mod:`repro.experiments.bench` (shared with
the ``repro bench`` CLI subcommand); this harness runs the full-size shapes,
prints the table, writes the ``BENCH_engine.json`` artifact (never committed
— see ``BENCH_baseline.json`` for the pinned floors) and asserts the floors.

Four trace shapes are measured:

* ``hot_loop``   — an L1-resident dispatch-bound inner loop; memory system
  mostly quiet, so the measurement isolates the *engine* overhead per
  instruction.
* ``resident``   — L1-resident code and data with a realistic memory-operand
  mix.
* ``mixed``      — working set straddling the L2.
* ``streaming``  — data streaming through the whole hierarchy (model-bound;
  both engines spend their time in fills and replacement policies).

Plus the lockstep figure-sweep shape: one catalog workload replayed under
four L2 policies, lockstep vs N independent runs.

Both engines are driven interleaved, best-of-N, in this one process, so the
reported ratios are robust against machine noise; as a sanity check the two
engines must produce bit-identical simulation results for every shape (the
baseline replica models exactly the same hardware), which the shared
measurement code asserts.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.bench import (
    check_floors,
    format_report,
    load_floors,
    run_engine_bench,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
ARTIFACT = REPO_ROOT / "BENCH_engine.json"


def test_bench_engine_speed(benchmark):
    results = benchmark.pedantic(run_engine_bench, rounds=1, iterations=1)

    print()
    print(format_report(results))
    ARTIFACT.write_text(json.dumps(results, indent=2) + "\n")

    floors = load_floors()
    # One replay loop, one floor set, covering every bench shape.
    assert [key for key in floors if key.endswith("speedup_floors")] == [
        "scalar_speedup_floors"
    ]
    assert set(floors["scalar_speedup_floors"]) == set(results["shapes"])
    violations = check_floors(results, floors)
    assert not violations, "; ".join(violations) + (
        " (see BENCH_engine.json for the full table, BENCH_baseline.json "
        "for the pinned floors)"
    )
