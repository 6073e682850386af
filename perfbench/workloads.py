"""The four workloads: what a ``repro`` user waits for, end to end.

Every workload runs a measurement loop for ``--seconds`` (at least
``min_iterations`` times), checks every simulated output, and returns a
:class:`Outcome`.  The CLI workloads launch ``python3 -m repro.cli``
untraced, or ``perfbench/launch.py`` with the same arguments for the set-up
stamp and in the traced and profile passes.
"""

from __future__ import annotations

import itertools
import math
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import harness as h


@dataclass
class Outcome:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    #: End-to-end metric values (host time / memory).
    metrics: dict = field(default_factory=dict)
    #: Per-layer metric values (traced and profile passes).
    layers: dict = field(default_factory=dict)

    def fail(self, count: int, why: str) -> None:
        if count:
            self.failed += count
            self.notes.append(f"FAILED x{count}: {why}")


@dataclass
class Iteration:
    commands: list
    directory: Path
    spans: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        """Launch to result of each command, summed over the chain."""
        return sum(cmd.wall for cmd in self.commands)


class Context:
    def __init__(self, seed: int, seconds: float, trace: bool, work: Path):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.deadline = time.monotonic() + 140.0
        self.pinned = h.load_pinned().get(str(seed), {})

    def out_of_time(self) -> bool:
        return time.monotonic() > self.deadline


# ------------------------------------------------------------ CLI workloads
class CliWorkload:
    """A chain of ``repro`` commands timed from outside."""

    name = ""
    min_iterations = 2

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.work = ctx.work / self.name
        self.outcome = Outcome()
        #: Simulated outputs of the workload's points (``model.*``).
        self.model = {}

    # -- overridden per workload
    def prepare(self) -> None:
        """Untimed set-up of the workload's inputs."""

    def commands(self, directory: Path) -> list[tuple[str, list]]:
        raise NotImplementedError

    def check(self, iteration: Iteration, directory: Path) -> None:
        raise NotImplementedError

    # -- shared machinery
    def spec_args(self, flag: str = "--spec", programs=h.CATALOG) -> list[str]:
        tokens = h.catalog_tokens(self.ctx.seed, programs)
        return [arg for token in tokens for arg in (flag, token)]

    def run_chain(self, index: int, mode: str, directory: Path | None = None):
        directory = directory or self.work / f"it{index}-{mode}"
        spans_dir = directory / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        commands = []
        for label, args in self.commands(directory):
            if mode == "plain":
                argv, env = h.CLI + args, h.child_env()
            else:
                argv = h.LAUNCHER + args
                env = h.child_env(
                    PERFBENCH_SPANS=str(spans_dir),
                    PERFBENCH_PARENT=f"h.{label}",
                )
                if mode == "profile":
                    env["PERFBENCH_PROFILE"] = str(spans_dir)
            command = h.run(argv, directory, env, label)
            commands.append(command)
            if command.returncode != 0:
                self.outcome.notes.append(
                    f"{label} exited {command.returncode}: "
                    f"{command.stderr.strip()[-300:]}"
                )
            self.after_command(label, directory)
        iteration = Iteration(commands, directory)
        if mode != "plain":
            iteration.spans = h.process_spans(commands, spans_dir)
        self.check(iteration, directory)
        return iteration

    def after_command(self, label: str, directory: Path) -> None:
        """Hook between commands (untimed: ``wall`` sums the commands)."""

    def setup_seconds(self, args: list, samples: int = 5) -> float:
        """Median launch-to-accepting-work time of the first command: the
        launcher stops it at its first call into a ``Session`` work method."""
        values = []
        directory = self.work / "setup"
        for index in range(samples):
            stamp = directory / f"stamp{index}"
            launch = h.run(
                h.LAUNCHER + args,
                directory,
                h.child_env(PERFBENCH_SETUP=str(stamp)),
                f"setup{index}",
            )
            try:
                values.append(float(stamp.read_text()) - launch.start)
            except (OSError, ValueError):
                self.outcome.fail(1, f"set-up launch failed: {launch.stderr[-300:]}")
        return h.median(values)

    def measure(self) -> Outcome:
        self.work.mkdir(parents=True, exist_ok=True)
        self.prepare()
        if not self.ctx.trace:
            first_args = self.commands(self.work / "setup-target")[0][1]
            setup = self.setup_seconds(first_args)
        plain, traced = [], []
        start = time.monotonic()
        index = 0
        while True:
            # The traced run alternates untraced and traced iterations, so
            # the overhead of tracing is measured under the same conditions.
            # Two traced iterations at least, so their counts can be compared.
            mode = "traced" if self.ctx.trace and index % 2 else "plain"
            (traced if mode == "traced" else plain).append(self.run_chain(index, mode))
            index += 1
            if self.ctx.trace:
                enough = len(traced) >= 2
            else:
                enough = len(plain) >= self.min_iterations
            if enough and time.monotonic() - start >= self.ctx.seconds:
                break
            if self.ctx.out_of_time():
                break
        if self.ctx.trace:
            profiled = self.run_chain(index, "profile")
            self.outcome.layers = self.layer_report(plain, traced, profiled)
        else:
            # A CLI job is one run of the command chain the user waits for.
            latencies = [it.wall * 1000 for it in plain]
            self.outcome.metrics = {
                "wall_s": h.median(it.wall for it in plain),
                "setup_s": setup,
                "peak_rss_mb": h.median(
                    max(cmd.rss_mb for cmd in it.commands) for it in plain
                ),
                "job_latency_p50_ms": h.percentile(latencies, 50),
                "job_latency_p90_ms": h.percentile(latencies, 90),
            }
            self.outcome.notes.append(
                f"{len(plain)} iteration(s) of "
                f"{', '.join(f'{it.wall:.3f}' for it in plain)} s; job = one "
                f"iteration, {len(latencies)} latency sample(s), fewer than "
                "ten beyond p90"
            )
        return self.outcome

    def layer_report(self, plain, traced, profiled) -> dict:
        per_iteration = []
        for iteration in traced:
            metrics = h.layer_metrics(iteration.spans)
            attributed = h.attributed_seconds(metrics)
            metrics["trace.wall_s"] = iteration.wall
            metrics["trace.coverage"] = attributed / iteration.wall
            metrics["trace.unattributed_s"] = iteration.wall - attributed
            per_iteration.append(metrics)
        report = h.median_metrics(per_iteration)
        if len(per_iteration) < 2:
            self.outcome.notes.append(
                "only one traced iteration before the deadline: counts not compared"
            )
        varying = h.varying_counts(per_iteration)
        self.outcome.fail(len(varying), f"counts varied across iterations: {varying}")
        if report["trace.coverage"] < h.MIN_COVERAGE:
            self.outcome.notes.append(
                f"named layers cover only {report['trace.coverage']:.1%} of the "
                "traced wall time; the rest is main's own time (cli.self_s) or "
                "a layer without a wrapper"
            )
        report["trace.untraced_wall_s"] = h.median(it.wall for it in plain)
        report["trace.overhead_frac"] = (
            report["trace.wall_s"] / report["trace.untraced_wall_s"] - 1.0
        )
        profiled_replay = h.layer_metrics(profiled.spans)["sim.replay_s"]
        report["sim.profile_overhead_x"] = (
            profiled_replay / report["sim.replay_s"] if report["sim.replay_s"] else 0.0
        )
        for bucket, share in h.profile_shares(profiled.directory / "spans").items():
            report[f"sim.share.{bucket}"] = share
        report.update(self.model)
        return report


class PaperCold(CliWorkload):
    """figure6, figure3 and interference into an empty store and archive."""

    name = "paper_cold"

    def __init__(self, ctx):
        super().__init__(ctx)
        self.reference = ctx.pinned.get(self.name)
        self.rendered = None
        self._after_figure6 = {}

    def commands(self, directory):
        common = ["--store", directory / "store", "--trace-dir", directory / "traces"]
        return [
            ("figure6", ["run", "figure6", *self.spec_args(), *common]),
            ("figure3", ["run", "figure3", *self.spec_args(), *common]),
            ("interference", ["run", "interference", *self.spec_args("--core", h.CORES), *common]),
        ]

    def after_command(self, label, directory):
        if label == "figure6":
            self._after_figure6 = h.entry_digests(h.store_entries(directory / "store"))

    def check(self, iteration, directory):
        out = self.outcome
        entries = h.store_entries(directory / "store")
        final = h.entry_digests(entries)
        failed_commands = [c.label for c in iteration.commands if c.returncode != 0]
        out.fail(len(failed_commands), f"commands failed: {failed_commands}")
        # figure3 re-simulates the SRRIP points solo with an L2 observer; they
        # must equal figure6's lockstep results bit for bit.
        resimulated = h.simulations_run(iteration.commands[1].stdout)[0]
        out.attempted += len(final) + max(resimulated, 0)
        cross = {key: final.get(key) for key in self._after_figure6}
        out.fail(
            h.mismatches(cross, self._after_figure6),
            "figure3 solo replay differs from figure6 lockstep",
        )
        if self.reference is None:
            self.reference = final
        else:
            out.fail(h.mismatches(final, self.reference), "result digests differ")
        texts = [h.rendered(c.stdout) for c in iteration.commands]
        if self.rendered is None:
            self.rendered = texts
        elif texts != self.rendered:
            out.fail(1, "rendered artifacts differ between iterations")
        if not self.model:
            self.model = h.model_metrics(h.entry_points(entries))


class SweepCold(CliWorkload):
    """The checkpointed, supervised sweep over the same seeded grid."""

    name = "sweep_cold"

    def prepare(self):
        # The lockstep figure6 grid of the same inputs: the sweep's
        # supervised solo (and vector) replay must match it point for point.
        directory = self.work / "reference"
        command = h.run(
            h.CLI + ["run", "figure6", *self.spec_args(), "--store", directory / "store"],
            directory,
            h.child_env(),
            "figure6",
        )
        entries = h.store_entries(directory / "store")
        self.lockstep = h.entry_digests(entries)
        if command.returncode != 0 or not self.lockstep:
            self.outcome.fail(1, "reference figure6 run failed")
        pinned = self.ctx.pinned.get("paper_cold")
        if pinned is not None:
            expected = {key: pinned[key] for key in pinned if key in self.lockstep}
            self.outcome.fail(
                h.mismatches(self.lockstep, expected), "lockstep reference differs from pinned digests"
            )
        self.model = h.model_metrics(h.entry_points(entries))

    def commands(self, directory):
        return [("sweep", ["sweep", *self.spec_args(), "--store", directory / "store"])]

    def check(self, iteration, directory):
        out = self.outcome
        final = h.entry_digests(h.store_entries(directory / "store"))
        out.attempted += len(self.lockstep)
        if iteration.commands[0].returncode != 0:
            out.fail(1, "sweep failed")
        out.fail(
            h.mismatches(final, self.lockstep),
            "sweep results differ from the lockstep figure6 grid",
        )


class RerenderWarm(CliWorkload):
    """The paper_cold artifacts re-rendered from a full store and archive."""

    name = "rerender_warm"
    min_iterations = 3

    def __init__(self, ctx):
        super().__init__(ctx)
        self.cold = PaperCold(ctx)
        self.cold.work = self.work / "cold"

    def prepare(self):
        # One cold paper run fills the store and archive every iteration
        # re-renders from; its output is the reference text.
        self.warm = self.work / "warm"
        self.cold.run_chain(0, "plain", self.warm)
        self.outcome.fail(self.cold.outcome.failed, "cold fill failed its checks")
        entries = h.store_entries(self.warm / "store")
        self.digests = h.entry_digests(entries)
        self.texts = self.cold.rendered
        self.model = h.model_metrics(h.entry_points(entries))

    def commands(self, directory):
        return self.cold.commands(self.warm)

    def check(self, iteration, directory):
        out = self.outcome
        for command, text in zip(iteration.commands, self.texts):
            simulated, served = h.simulations_run(command.stdout)
            points = max(served, 1)
            out.attempted += points
            if command.returncode != 0 or simulated != 0:
                out.fail(points, f"{command.label} did not re-render from the store")
            elif h.rendered(command.stdout) != text:
                out.fail(points, f"{command.label} re-render differs from the cold render")

    def measure(self):
        outcome = super().measure()
        final = h.entry_digests(h.store_entries(self.warm / "store"))
        outcome.fail(h.mismatches(final, self.digests), "warm runs rewrote stored results")
        return outcome


# -------------------------------------------------------------- served jobs
class ServeMixed:
    """A ``repro serve`` daemon driven closed-loop by two clients."""

    name = "serve_mixed"
    clients = 2
    #: Status poll interval; fresh jobs run ~60 ms here, dedup ones ~10 ms end to end.
    poll = 0.01
    #: Jobs needed for ten samples beyond p90.
    min_jobs = h.min_samples(90)
    #: Per client and round: 6 fresh jobs, 2 exact resubmissions (dedup)
    #: and 2 store-hit subsets of its own finished jobs.  With fresh jobs at
    #: 60% rather than half, the median falls inside the cluster of fresh
    #: jobs served first instead of on the edge between two clusters.
    fresh_per_round = 6
    jobs_per_round = clients * 10

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.work = ctx.work / self.name
        self.outcome = Outcome()

    # -- job mix
    def round_jobs(self, client: int, round_index: int) -> list[tuple[str, dict, int]]:
        """(kind, submission, slot of the fresh job it derives from)."""
        fresh = [
            {
                "benchmarks": [h.serve_token(self.ctx.seed, client, round_index, slot)],
                "policies": ["srrip", "trrip-1"],
            }
            for slot in range(self.fresh_per_round)
        ]
        subset = lambda slot: {  # noqa: E731
            "benchmarks": fresh[slot]["benchmarks"],
            "policies": ["trrip-1"],
        }
        return [
            ("fresh", fresh[0], 0),
            ("fresh", fresh[1], 1),
            ("dedup", fresh[0], 0),
            ("fresh", fresh[2], 2),
            ("subset", subset(1), 1),
            ("fresh", fresh[3], 3),
            ("fresh", fresh[4], 4),
            ("dedup", fresh[2], 2),
            ("fresh", fresh[5], 5),
            ("subset", subset(3), 3),
        ]

    # -- daemon
    def launch(self, tag: str, mode: str = "plain"):
        directory = self.work / tag
        spans_dir = directory / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        ready = directory / "ready"
        args = [
            "serve",
            "--port", "0",
            "--workers", "1",
            "--store", directory / "store",
            "--store-backend", "sqlite",
            "--ready-file", ready,
        ]
        if mode == "plain":
            argv, env = h.CLI + args, h.child_env()
        else:
            argv = h.LAUNCHER + args
            env = h.child_env(PERFBENCH_SPANS=str(spans_dir), PERFBENCH_PARENT="h.daemon")
            if mode == "profile":
                env["PERFBENCH_PROFILE"] = str(spans_dir)
        daemon = h.Command(argv, directory, env, "daemon")
        limit = daemon.start + 60.0
        while True:
            text = ready.read_text() if ready.exists() else ""
            if text.endswith("\n"):
                daemon.ready = time.monotonic()
                daemon.url = text.strip()
                return daemon
            if daemon.proc.poll() is not None or time.monotonic() > limit:
                daemon.proc.kill()
                daemon.proc.wait()
                raise RuntimeError(f"daemon did not start: {daemon.stderr[-500:]}")
            time.sleep(0.002)

    # -- one session: a daemon serving a fixed number of rounds
    def rounds_for(self, seconds: float) -> int:
        """Rounds of a run: fixed by ``--seconds``, not by the clock, because
        the daemon's memory grows with every distinct workload it serves."""
        return max(math.ceil(self.min_jobs / self.jobs_per_round), round(seconds * 1.5))

    def session(self, tag: str, mode: str, rounds: int):
        from repro.client import ReproClient

        daemon = self.launch(tag, mode)
        records: list[dict] = []
        slots = self.jobs_per_round // self.clients
        marks: list[float] = []
        released = itertools.count()

        def release() -> None:
            if next(released) % slots == 0:
                marks.append(time.monotonic())

        # Both clients are released together for every job, so each fresh
        # job of one client meets the other's: the queueing pattern, and
        # with it the latency tail, is the same in every run.
        barrier = threading.Barrier(self.clients, action=release, timeout=120)

        def client_loop(client_id: int) -> None:
            client = ReproClient(daemon.url, timeout=30.0, retry=2)
            try:
                for round_index in range(rounds):
                    done: dict[int, dict] = {}
                    for kind, payload, slot in self.round_jobs(client_id, round_index):
                        if self.ctx.out_of_time():
                            barrier.abort()
                        barrier.wait()
                        record = self.one_job(client, kind, payload)
                        record.update(client=client_id, round=round_index, slot=slot)
                        if kind == "fresh":
                            done[slot] = record
                        else:
                            record["origin"] = done.get(slot)
                        records.append(record)
                barrier.wait()
            except threading.BrokenBarrierError:
                return

        threads = [
            threading.Thread(target=client_loop, args=(c,)) for c in range(self.clients)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            metrics = ReproClient(daemon.url, timeout=30.0).metrics()
        finally:
            daemon.stop()
        if daemon.returncode != 0:
            self.outcome.fail(1, f"daemon exited {daemon.returncode}: {daemon.stderr[-300:]}")
        spans = []
        if mode != "plain":
            spans = h.process_spans([daemon], self.work / tag / "spans")
        return {
            "daemon": daemon,
            "records": records,
            "marks": marks,
            "rounds": [end - start for start, end in zip(marks, marks[1:])],
            "metrics": metrics,
            "spans": spans,
        }

    def one_job(self, client, kind: str, payload: dict) -> dict:
        record = {"kind": kind, "payload": payload, "ok": False}
        try:
            t0 = time.monotonic()
            accepted = client.submit(payload)
            t1 = time.monotonic()
            status = client.wait(accepted["job"], timeout=30.0, poll=self.poll)
            t2 = time.monotonic()
            fetched = client.result(accepted["job"])
            t3 = time.monotonic()
        except Exception as error:  # noqa: BLE001 - every failure counts
            record["error"] = f"{type(error).__name__}: {error}"
            return record
        queued = executed = 0.0
        if not accepted.get("deduplicated"):
            queued = status["started_at"] - status["submitted_at"]
            executed = status["finished_at"] - status["started_at"]
        record.update(
            ok=status.get("state") == "done",
            deduplicated=bool(accepted.get("deduplicated")),
            latency=t3 - t0,
            admit=t1 - t0,
            fetch=t3 - t2,
            queue=queued,
            exec=executed,
            results=fetched.get("results", []),
        )
        return record

    # -- checks
    def check_counts(self, session) -> None:
        """The daemon's counters must match the job mix exactly: per client
        and round, 2 dedup attachments, 2 store hits (the subsets), one store
        miss per point of the fresh jobs, and no refusals."""
        runs = self.clients * len(session["rounds"])
        jobs, store = session["metrics"]["jobs"], session["metrics"]["store"]
        expected = {
            "deduped": (jobs["deduped"], 2 * runs),
            "rejected": (jobs["rejected"], 0),
            "store hits": (store["hits"], 2 * runs),
            "store misses": (store["misses"], 2 * self.fresh_per_round * runs),
        }
        for name, (seen, wanted) in expected.items():
            if seen != wanted:
                self.outcome.fail(1, f"daemon counted {seen} {name}, the job mix implies {wanted}")

    def check(self, records: list[dict], direct_rounds: set) -> None:
        from repro.api.session import Session
        from repro.server.submission import parse_submission
        from repro.sim.config import NAMED_CONFIGS

        out = self.outcome
        out.attempted += len(records)
        direct = Session(config=NAMED_CONFIGS["scaled"]())
        for record in records:
            if not record["ok"]:
                out.fail(1, f"{record['kind']} job failed: {record.get('error', 'state')}")
                continue
            digests = {
                entry["store_key"]: h.result_digest(entry["result"])
                for entry in record["results"]
            }
            if record["kind"] == "fresh" and record["round"] in direct_rounds:
                plan = parse_submission(record["payload"]).plan
                expected = {
                    entry["store_key"]: h.result_digest(arts.result.to_dict())
                    for entry, arts in zip(record["results"], direct.execute(plan))
                }
                if len(expected) != len(plan.requests) or digests != expected:
                    out.fail(1, "served result differs from a direct Session run")
            elif record["kind"] != "fresh":
                wanted = {
                    entry["store_key"]: h.result_digest(entry["result"])
                    for entry in (record["origin"] or {}).get("results", [])
                }
                if not digests or any(wanted.get(k) != v for k, v in digests.items()):
                    out.fail(1, f"{record['kind']} job differs from the job it repeats")

    def pinned_check(self, records: list[dict]) -> dict:
        first = {
            entry["store_key"]: h.result_digest(entry["result"])
            for record in records
            if record["kind"] == "fresh" and record["round"] == 0 and record["ok"]
            for entry in record["results"]
        }
        pinned = self.ctx.pinned.get(self.name)
        if pinned is not None:
            self.outcome.fail(h.mismatches(first, pinned), "served digests differ from pinned")
        return first

    # -- reports
    def latency_report(self, session) -> dict:
        records = [r for r in session["records"] if r["ok"]]
        latencies = [r["latency"] * 1000 for r in records]
        parts = {
            name: h.median(r[name] * 1000 for r in records)
            for name in ("admit", "queue", "exec", "fetch")
        }
        explained = [
            (r["admit"] + r["queue"] + r["exec"] + r["fetch"]) * 1000 for r in records
        ]
        p50 = h.percentile(latencies, 50)
        return {
            "p50": p50,
            "p90": h.percentile(latencies, 90),
            "samples": len(latencies),
            "tail_percentile": h.highest_percentile(len(latencies)),
            "parts": parts,
            "explained": h.median(explained),
            "residual": h.median(a - b for a, b in zip(latencies, explained)),
        }

    def measure(self) -> Outcome:
        self.work.mkdir(parents=True, exist_ok=True)
        out = self.outcome
        rounds = self.rounds_for(self.ctx.seconds)
        if not self.ctx.trace:
            setups = []
            for index in range(2):
                daemon = self.launch(f"setup{index}")
                setups.append(daemon.ready - daemon.start)
                daemon.stop()
            session = self.session("measured", "plain", rounds)
            daemon = session["daemon"]
            setups.append(daemon.ready - daemon.start)
            records = session["records"]
            self.check(records, {0, rounds - 1})
            self.check_counts(session)
            self.pinned_check(records)
            latency = self.latency_report(session)
            out.metrics = {
                "wall_s": h.median(session["rounds"]),
                "setup_s": h.median(setups),
                "peak_rss_mb": daemon.rss_mb,
                "job_latency_p50_ms": latency["p50"],
                "job_latency_p90_ms": latency["p90"],
            }
            parts = ", ".join(f"{k} {v:.1f}" for k, v in latency["parts"].items())
            out.notes.append(
                f"round walls {', '.join(f'{w:.3f}' for w in session['rounds'])} s; "
                f"median ms: {parts}"
            )
            out.notes.append(
                f"{latency['samples']} job latency samples over {rounds} "
                f"round(s) of {self.jobs_per_round} jobs; highest percentile "
                f"with >=10 samples beyond: p{latency['tail_percentile']:g}; "
                f"status polled every {self.poll * 1000:g} ms"
            )
            return out
        # Untraced and traced sessions of the same jobs, each with enough
        # samples for p90, then one profiled round.
        half = max(math.ceil(self.min_jobs / self.jobs_per_round), rounds // 2)
        plain = self.session("plain", "plain", half)
        traced = self.session("traced", "traced", half)
        profiled = self.session("profile", "profile", 1)
        for session in (plain, traced, profiled):
            self.check(session["records"], {0})
            self.check_counts(session)
        self.pinned_check(traced["records"])
        out.layers = self.layer_report(plain, traced, profiled)
        return out

    def layer_report(self, plain, traced, profiled) -> dict:
        """Per-layer metrics of the traced session; times and counts are
        per round of 20 jobs, latencies are medians over jobs."""
        rounds = len(traced["rounds"])
        layers = h.layer_metrics(traced["spans"])
        # Every round serves the same job mix, so its counts must repeat
        # exactly, in the traced session and in the profiled one.
        per_round = [
            h.layer_metrics(spans)
            for session in (traced, profiled)
            for spans in h.spans_by_round(session["spans"], session["marks"])
        ]
        varying = h.varying_counts(per_round)
        self.outcome.fail(len(varying), f"counts varied across rounds: {varying}")
        report = {name: value / rounds for name, value in layers.items()}
        report["sim.kips"] = layers["sim.kips"]
        latency = self.latency_report(traced)
        report["server.admit_ms"] = latency["parts"]["admit"]
        report["server.queue_wait_ms"] = latency["parts"]["queue"]
        report["server.exec_ms"] = latency["parts"]["exec"]
        report["server.fetch_ms"] = latency["parts"]["fetch"]
        gap = latency["p50"] - latency["explained"]
        report["server.latency_gap_ms"] = gap
        report["server.poll_slack_ms"] = latency["residual"]
        report["server.jobs"] = latency["samples"]
        jobs, store = traced["metrics"]["jobs"], traced["metrics"]["store"]
        report["server.deduped"] = jobs["deduped"] / rounds
        report["server.rejected"] = jobs["rejected"] / rounds
        report["server.store_hits"] = store["hits"] / rounds
        report["server.store_misses"] = store["misses"] / rounds
        report["trace.wall_s"] = h.median(traced["rounds"])
        report["trace.untraced_wall_s"] = h.median(plain["rounds"])
        report["trace.overhead_frac"] = (
            report["trace.wall_s"] / report["trace.untraced_wall_s"] - 1.0
        )
        report["trace.coverage"] = latency["explained"] / latency["p50"]
        report["trace.unattributed_s"] = gap / 1000
        profiled_replay = h.layer_metrics(profiled["spans"])["sim.replay_s"]
        report["sim.profile_overhead_x"] = (
            profiled_replay / layers["sim.replay_s"] * rounds
            if layers["sim.replay_s"]
            else 0.0
        )
        for bucket, share in h.profile_shares(self.work / "profile" / "spans").items():
            report[f"sim.share.{bucket}"] = share
        points = [
            (entry["benchmark"], entry["policy"], entry["result"])
            for record in traced["records"]
            if record["kind"] == "fresh" and record["round"] == 0 and record["ok"]
            for entry in record["results"]
        ]
        report.update(h.model_metrics(points))
        return report


WORKLOADS = {
    cls.name: cls for cls in (PaperCold, SweepCold, RerenderWarm, ServeMixed)
}


def cleanup(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
