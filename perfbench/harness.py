"""Shared pieces of the benchmark: seeds, processes, digests, statistics
and the arithmetic that turns recorded spans into per-layer metrics.

Standard library only at import time; ``repro`` (from the checkout's
``src/``) is imported lazily by the output checks, never by timed code.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
#: The checkout the benchmark runs in: it is started from the root of one.
ROOT = Path.cwd()
SRC = ROOT / "src"
PYTHON = sys.executable
CLI = [PYTHON, "-m", "repro.cli"]
LAUNCHER = [PYTHON, str(BENCH_DIR / "launch.py")]

#: Seed for development and the seed every later claim must also hold on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
#: Catalog programs of the CLI workloads: every second program of the
#: default catalog ordered by instruction count, half its instructions.
#: The whole catalog would not fit the benchmark's time budget; the
#: layer shares of the two are compared in ``README.md``.
CATALOG = ("rapidjson", "deepsjeng", "omnetpp", "python", "clang")
#: The ``interference`` co-run: its default two cores.
CORES = CATALOG[:2]
#: Per-command time limit; an overrun is killed and counted as failed.
COMMAND_TIMEOUT = 120.0


# ------------------------------------------------------------------ inputs
def catalog_tokens(seed: int, programs=CATALOG) -> list[str]:
    """The seeded catalog: one ``interleave`` token per program."""
    return [f"interleave:programs=1,base={name},seed={seed}" for name in programs]


#: Families of the fresh served jobs, rotated by slot.
SERVE_FAMILIES = ("zipf", "streaming", "pointer-chase", "phased")


def serve_token(seed: int, client: int, round_index: int, slot: int) -> str:
    """A small family workload unique to (seed, client, round, slot)."""
    family = SERVE_FAMILIES[slot % len(SERVE_FAMILIES)]
    job_seed = ((seed * 100_000 + round_index) * 10 + client) * 10 + slot
    return f"{family}:instructions=4000,warmup=1000,seed={job_seed}"


# --------------------------------------------------------------- processes
def child_env(**extra: str) -> dict:
    """The environment of every launched process: ``src/`` on the path and
    no ``REPRO_*`` settings inherited from the caller."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


class Command:
    """One launched process, reaped with ``wait4`` for its peak RSS."""

    def __init__(self, argv, workdir: Path, env: dict, name: str = "cmd"):
        workdir.mkdir(parents=True, exist_ok=True)
        self.label = name
        self.out_path = workdir / f"{name}.out"
        self.err_path = workdir / f"{name}.err"
        self.argv = [str(a) for a in argv]
        self.start = time.monotonic()
        env = dict(env, PERFBENCH_T0=repr(self.start))
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(
                self.argv, stdout=out, stderr=err, env=env, cwd=ROOT
            )
        self.end = None
        self.returncode = None
        self.rss_mb = 0.0

    def wait(self, timeout: float = COMMAND_TIMEOUT) -> "Command":
        timer = threading.Timer(timeout, self.proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        self.end = time.monotonic()
        self.returncode = self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        return self

    def stop(self, timeout: float = 60.0) -> "Command":
        """SIGTERM (a daemon drains and exits 0), then reap."""
        if self.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            self.wait(timeout)
        return self

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def stdout(self) -> str:
        return self.out_path.read_text(encoding="utf-8", errors="replace")

    @property
    def stderr(self) -> str:
        return self.err_path.read_text(encoding="utf-8", errors="replace")


def run(argv, workdir: Path, env: dict, name: str = "cmd") -> Command:
    return Command(argv, workdir, env, name).wait()


# ------------------------------------------------------------------ digests
def canonical_digest(payload: dict) -> str:
    """SHA-256 prefix of a canonical JSON rendering."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def result_digest(result: dict, multicore: bool = False) -> str:
    """Digest of one simulated result, canonicalised through the model's own
    ``to_dict`` so that key order and int/str line keys cannot matter."""
    if multicore:
        from repro.sim.multicore import MulticoreResult

        return canonical_digest(MulticoreResult.from_dict(result).to_dict())
    from repro.sim.results import SimulationResult

    return canonical_digest(SimulationResult.from_dict(result).to_dict())


def store_entries(root: Path, backend: str = "dir") -> dict[str, dict]:
    """Every run entry of a result store, by run key."""
    from repro.experiments.backends import open_backend

    store = open_backend(backend, Path(root))
    return {key: store.load("runs", key) for key in store.keys("runs")}


def entry_digests(entries: dict[str, dict]) -> dict[str, str]:
    return {
        key: result_digest(entry["result"], entry.get("kind") == "multicore")
        for key, entry in entries.items()
    }


def mismatches(observed: dict[str, str], expected: dict[str, str]) -> int:
    """Keys missing on either side or digesting differently."""
    keys = set(observed) | set(expected)
    return sum(1 for key in keys if observed.get(key) != expected.get(key))


def load_pinned() -> dict:
    path = BENCH_DIR / "data" / "digests.json"
    return json.loads(path.read_text()) if path.exists() else {}


def model_metrics(points: list[tuple[str, str, dict]]) -> dict[str, float]:
    """Simulated outputs of (benchmark, policy, result) points.

    Sums of cycles and misses over every point, plus TRRIP-1 against SRRIP
    over the benchmarks that ran both: the L2 instruction-miss reduction of
    the summed misses and the geomean speedup.
    """
    totals = {
        "model.cycles": 0,
        "model.l2_inst_misses": 0,
        "model.l2_data_misses": 0,
        "model.dram_accesses": 0,
    }
    by_benchmark: dict[str, dict[str, dict]] = defaultdict(dict)
    for benchmark, policy, result in points:
        totals["model.cycles"] += result["cycles"]
        totals["model.l2_inst_misses"] += result["l2_inst_misses"]
        totals["model.l2_data_misses"] += result["l2_data_misses"]
        totals["model.dram_accesses"] += result["dram_accesses"]
        by_benchmark[benchmark][policy] = result
    pairs = [
        (runs["srrip"], runs["trrip-1"])
        for runs in by_benchmark.values()
        if "srrip" in runs and "trrip-1" in runs
    ]
    reduction = speedup = 0.0
    if pairs:
        base = sum(s["l2_inst_misses"] for s, _ in pairs)
        trrip = sum(t["l2_inst_misses"] for _, t in pairs)
        reduction = 100.0 * (1.0 - trrip / base) if base else 0.0
        ratios = [s["cycles"] / t["cycles"] for s, t in pairs]
        speedup = 100.0 * (math.exp(sum(map(math.log, ratios)) / len(ratios)) - 1)
    totals["model.trrip1_l2i_mpki_reduction_pct"] = reduction
    totals["model.trrip1_speedup_pct"] = speedup
    return totals


def entry_points(entries: dict[str, dict]) -> list[tuple[str, str, dict]]:
    """(benchmark, policy, result) of the single-core entries of a store."""
    return [
        (entry["benchmark"], entry["policy"], entry["result"])
        for entry in entries.values()
        if entry.get("kind") != "multicore"
    ]


def rendered(stdout: str) -> str:
    """A command's rendered artifact: its stdout without the ``# ...``
    cache-summary lines, which differ between cold and warm runs by design."""
    return "\n".join(
        line for line in stdout.splitlines() if not line.startswith("# ")
    )


def simulations_run(stdout: str) -> tuple[int, int]:
    """(simulated, served from cache) from a ``repro run`` summary line."""
    for line in stdout.splitlines():
        if line.startswith("# ") and "simulation(s) run" in line:
            words = line.split()
            served = int(words[4]) if "served" in line else 0
            return int(words[1]), served
    return -1, -1


# --------------------------------------------------------------- statistics
def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, p: float) -> float:
    """Linearly interpolated ``p``-th percentile (inclusive method)."""
    values = sorted(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    position = (len(values) - 1) * p / 100.0
    low = math.floor(position)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (position - low)


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie beyond the ``p``-th percentile."""
    return n - math.ceil(n * p / 100.0)


def highest_percentile(n: int, candidates=(99.9, 99, 95, 90, 75, 50)) -> float:
    """The highest candidate percentile with at least ten samples beyond
    it, or 0 when even the median has fewer."""
    for p in candidates:
        if samples_beyond(n, p) >= 10:
            return p
    return 0.0


def min_samples(p: float, tail: int = 10) -> int:
    """Fewest samples that leave ``tail`` beyond the ``p``-th percentile."""
    n = tail
    while samples_beyond(n, p) < tail:
        n += 1
    return n


# ---------------------------------------------------------------- spans
#: Span name -> the per-layer self-time metric it contributes to.
SELF_METRIC = {
    "cli.startup": "cli.startup_s",
    "cli.main": "cli.self_s",
    "cli.exit": "cli.exit_s",
    "cli.serialize": "cli.serialize_s",
    "api.plan": "api.plan_s",
    "api.execute": "api.self_s",
    "api.stream": "api.self_s",
    "api.sweep": "api.self_s",
    "api.sweep_checkpointed": "api.self_s",
    "runner.run_resolved": "runner.self_s",
    "runner.run_lockstep_resolved": "runner.self_s",
    "runner.run_cores_resolved": "runner.self_s",
    "runner.run_points": "runner.self_s",
    "sweep.execute": "sweep.overhead_s",
    "sweep.unit": "sweep.overhead_s",
    "pipeline.prepare": "pipeline.prepare_s",
    "tracegen.take_packed": "tracegen.self_s",
    "capture.load": "capture.load_s",
    "capture.save": "capture.save_s",
    "store.get": "store.get_s",
    "store.get_report": "store.get_s",
    "store.put": "store.put_s",
    "store.put_report": "store.put_s",
    "sim.solo": "sim.solo_s",
    "sim.lockstep": "sim.lockstep_s",
    "sim.multicore": "sim.multicore_s",
    "server.parse": "server.parse_s",
    "server.submit": "server.submit_s",
    "server.journal": "server.journal_s",
    "server.exec": "server.worker_s",
    "process": "unattributed_s",
}


def covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for low, high in sorted(intervals):
        low, high = max(low, cursor), min(high, end)
        if high > low:
            total += high - low
            cursor = high
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - covered(children[span["id"]], span["start"], span["end"])
        for span in spans
    }


def span_dict(sid, parent, name, start, end, key=None, attrs=None) -> dict:
    return {
        "id": sid,
        "parent": parent,
        "name": name,
        "start": start,
        "end": end,
        "key": key,
        "attrs": attrs or {},
    }


def process_spans(commands, directory: Path) -> list[dict]:
    """The spans of traced commands: one ``process`` root per command (launch
    to exit, as the harness saw it), the spans its processes recorded, and a
    ``cli.exit`` span from the end of ``cli.main`` to the process exit."""
    spans = read_spans(directory)
    ends = {s["parent"]: s["end"] for s in spans if s["name"] == "cli.main"}
    for command in commands:
        root = f"h.{command.label}"
        spans.append(span_dict(root, None, "process", command.start, command.end))
        if root in ends:
            spans.append(span_dict(f"{root}.exit", root, "cli.exit", ends[root], command.end))
    return spans


def spans_by_round(spans: list[dict], marks: list[float]) -> list[list[dict]]:
    """Spans grouped by the round (``marks[r] <= start < marks[r + 1]``)
    they started in; spans outside every round are dropped."""
    rounds = [[] for _ in marks[1:]]
    for span in spans:
        for index, (low, high) in enumerate(zip(marks, marks[1:])):
            if low <= span["start"] < high:
                rounds[index].append(span)
                break
    return rounds


def read_spans(directory: Path) -> list[dict]:
    spans = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            spans.append(span_dict(*json.loads(line)))
    return spans


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Self times by layer plus the counts recorded at the same boundaries."""
    metrics: dict[str, float] = defaultdict(float)
    selfs = self_times(spans)
    for span in spans:
        metrics[SELF_METRIC.get(span["name"], "unattributed_s")] += selfs[span["id"]]
        attrs, name = span["attrs"], span["name"]
        if name == "pipeline.prepare":
            metrics["pipeline.prepares"] += 1
        elif name == "tracegen.take_packed":
            metrics["tracegen.instructions"] += attrs.get("instructions", 0)
        elif name == "capture.load":
            metrics["capture.hits"] += attrs.get("hit", 0)
            metrics["capture.misses"] += attrs.get("miss", 0)
        elif name == "store.get":
            metrics["store.hits"] += attrs.get("hit", 0)
            metrics["store.misses"] += attrs.get("miss", 0)
        elif name == "store.put":
            metrics["store.writes"] += 1
        elif name == "api.plan":
            metrics["api.points"] += attrs.get("points", 0)
            metrics["api.unique_points"] += attrs.get("unique_points", 0)
        elif name == "sweep.unit":
            metrics["sweep.units"] += 1
        elif name == "server.submit":
            metrics["server.deduped"] += attrs.get("deduped", 0)
        elif name.startswith("sim."):
            metrics["sim.instructions"] += attrs.get("instructions", 0)
    replay = sum(metrics[m] for m in ("sim.solo_s", "sim.lockstep_s", "sim.multicore_s"))
    metrics["sim.replay_s"] = replay
    metrics["sim.kips"] = metrics["sim.instructions"] / replay / 1000 if replay else 0.0
    return dict(metrics)


#: Seconds metrics that are no layer's: ``main``'s own remainder, time no
#: span names, and the sum of the replay paths.
NOT_LAYERS = ("cli.self_s", "unattributed_s", "sim.replay_s")
#: Coverage below which the report flags the unattributed time.
MIN_COVERAGE = 0.95


def attributed_seconds(metrics: dict[str, float]) -> float:
    """Self time of the named layers, ``cli.startup`` and ``cli.exit``
    included.  ``main``'s unwrapped remainder is left out, so time that a
    missing wrapper leaves in ``main`` lowers the coverage."""
    return sum(
        value
        for name, value in metrics.items()
        if name.endswith("_s") and name not in NOT_LAYERS
    )


#: Profile buckets: source path under ``repro/`` -> ``sim.share`` bucket.
SHARE_BUCKETS = {
    "cpu/frontend.py": "cpu.frontend",
    "cpu/branch.py": "cpu.branch",
    "cpu/backend.py": "cpu.backend",
    "cpu/core.py": "cpu.core",
    "cpu/vector.py": "cpu.vector",
    "cache/hierarchy.py": "cache.hierarchy",
    "cache/cache.py": "cache.cache",
    "cache/replacement/": "cache.replacement",
    "core/trrip.py": "cache.replacement",
    "cache/prefetch.py": "cache.prefetch",
    "osmodel/mmu.py": "osmodel.mmu",
    "analysis/reuse.py": "analysis.reuse",
}
SHARE_NAMES = tuple(dict.fromkeys(SHARE_BUCKETS.values())) + ("other",)


def _bucket(filename: str):
    marker = f"{os.sep}repro{os.sep}"
    if marker not in filename:
        return None
    relative = filename.split(marker, 1)[1].replace(os.sep, "/")
    for prefix, bucket in SHARE_BUCKETS.items():
        if relative.startswith(prefix):
            return bucket
    return "other"


def profile_shares(directory: Path) -> dict[str, float]:
    """Replay time per module bucket from the profile pass, as shares.

    Time spent in builtins and library code is charged to the ``repro``
    modules that called it, in proportion to the time each caller spent in
    it; what no ``repro`` module called lands in ``other``.
    """
    import pstats

    files = sorted(str(p) for p in Path(directory).glob("prof-*.pstats"))
    times = {name: 0.0 for name in SHARE_NAMES}
    if not files:
        return times
    stats = pstats.Stats(*files).stats
    for (filename, _, _), (_, _, tottime, _, callers) in stats.items():
        bucket = _bucket(filename)
        if bucket is not None:
            times[bucket] += tottime
            continue
        charged = 0.0
        for (caller_file, _, _), caller_stats in callers.items():
            caller_bucket = _bucket(caller_file)
            if caller_bucket is not None:
                share = caller_stats[2]
                times[caller_bucket] += share
                charged += share
        times["other"] += max(tottime - charged, 0.0)
    total = sum(times.values()) or 1.0
    return {name: value / total for name, value in times.items()}


#: Counts that must repeat exactly across iterations and runs of one seed.
EXACT_COUNTS = (
    "store.hits",
    "store.misses",
    "store.writes",
    "capture.hits",
    "capture.misses",
    "sim.instructions",
    "tracegen.instructions",
    "pipeline.prepares",
    "api.points",
    "api.unique_points",
    "sweep.units",
    "server.deduped",
)


def median_metrics(samples: list[dict]) -> dict[str, float]:
    """Per-metric medians over iterations (a missing metric reads 0)."""
    names = {name for sample in samples for name in sample}
    return {
        name: median(sample.get(name, 0.0) for sample in samples) for name in names
    }


def varying_counts(samples: list[dict]) -> list[str]:
    """The exact counts that did not repeat across ``samples``."""
    return [
        name
        for name in EXACT_COUNTS
        if len({sample.get(name, 0) for sample in samples}) > 1
    ]
