"""Benchmark entry point.

    python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  Times what a ``repro`` user waits for on
one workload (see ``perfbench/README.md``), checks every simulated output,
prints a labelled report, and ends with one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  ``--pin`` rewrites the pinned result digests of the default
and held-out seeds (only after a deliberate change to the model).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

import harness as h
import workloads


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=h.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pin",
        action="store_true",
        help="rewrite perfbench/data/digests.json for the default and "
        "held-out seeds",
    )
    args = parser.parse_args(argv)
    if not args.pin and args.workload is None:
        parser.error("--workload is required")
    return args


def provenance() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent (engine=auto replays on the scalar loop)"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
    }


def report(args, outcome, declared, labels) -> list[str]:
    """The human-readable report printed above the JSON line."""
    info = provenance()
    lines = [
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} | {info['machine']}, nproc {info['nproc']}, "
        f"python {info['python']}, numpy {info['numpy']}",
        f"  {labels['notes'][args.workload]}",
        f"  {labels['notes']['caches']}",
    ]
    values = outcome.layers if args.trace else outcome.metrics
    for entry in declared:
        name = entry["name"]
        kind = labels["metrics"].get(name, {}).get("kind", "")
        value = values.get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"  {name:40s} {shown:>14s} {entry['unit']:6s} [{kind}]")
    if args.trace:
        lines.append(f"  note: {labels['notes']['shares']}")
    if any(name.startswith("model.") for name in values):
        lines.append(f"  note: {labels['notes']['model']}")
    attempted = max(outcome.attempted, 1)
    lines.append(
        f"  failed_frac {outcome.failed / attempted:.6g}: {outcome.failed} of "
        f"{attempted} operations failed (plan points, sweep units or jobs)"
    )
    lines.extend(f"  {note}" for note in outcome.notes)
    return lines


def pin() -> int:
    """Re-pin the result digests of the default and held-out seeds."""
    pinned = {}
    for seed in (h.DEFAULT_SEED, h.HELD_OUT_SEED):
        work = h.ROOT / ".perfbench" / f"pin-{seed}"
        ctx = workloads.Context(seed, 0.0, False, work)
        ctx.pinned = {}
        cold = workloads.PaperCold(ctx)
        cold.work.mkdir(parents=True, exist_ok=True)
        iteration = cold.run_chain(0, "plain")
        serve = workloads.ServeMixed(ctx)
        serve.work.mkdir(parents=True, exist_ok=True)
        session = serve.session("pin", "plain", 1)
        serve.check(session["records"], {0})
        failed = cold.outcome.failed + serve.outcome.failed
        if failed:
            print(f"seed {seed}: {failed} check(s) failed; nothing pinned")
            return 1
        pinned[str(seed)] = {
            "paper_cold": h.entry_digests(h.store_entries(iteration.directory / "store")),
            "serve_mixed": serve.pinned_check(session["records"]),
        }
        workloads.cleanup(work)
    path = h.BENCH_DIR / "data" / "digests.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"pinned {sum(len(w) for s in pinned.values() for w in s.values())} digests to {path}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (h.SRC / "repro" / "__init__.py").exists():
        print(
            f"perfbench: no repro sources under {h.SRC}; run from the root of "
            "a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(h.SRC))
    if args.pin:
        return pin()
    declared = json.loads((h.ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    labels = json.loads((h.BENCH_DIR / "metrics.json").read_text())
    work = h.ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}-{time.time_ns()}"
    ctx = workloads.Context(args.seed, args.seconds, bool(args.trace), work)
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx).measure()
    finally:
        workloads.cleanup(work)
    values = outcome.layers if args.trace else outcome.metrics
    if args.trace:
        values["failed_frac"] = outcome.failed / max(outcome.attempted, 1)
    for line in report(args, outcome, declared, labels):
        print(line)
    metrics = {
        entry["name"]: {"value": float(values.get(entry["name"], 0.0)), "unit": entry["unit"]}
        for entry in declared
    }
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": max(outcome.attempted, 1),
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
