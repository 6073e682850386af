"""Tests for the simulation service: job queue, HTTP API, client, dedup.

The heavy scenarios run in-process (an ephemeral-port
:class:`~repro.server.app.ReproServer` with the real
:class:`~repro.client.ReproClient` over real sockets); only the
SIGTERM-drain contract spawns an actual ``repro serve`` subprocess, because
signal delivery and exit codes are process-level behaviour.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.api.session import Session
from repro.client import ReproClient, ServerBusy, ServiceError
from repro.experiments.store import ResultStore
from repro.server import (
    JobManager,
    QueueFullError,
    ReproServer,
    ShuttingDownError,
    SubmissionError,
    parse_submission,
)
from repro.sim.config import SimulatorConfig
from repro.testing import REPRO_FAULTS_ENV, reset_fault_counters

TINY = {"benchmarks": ["tiny"], "policies": ["lru", "trrip-1"]}


def store_session_factory(root):
    """Worker-session factory over a shared store root (its own instances)."""

    def factory() -> Session:
        return Session(config=SimulatorConfig.scaled(), store=ResultStore(root))

    return factory


@pytest.fixture
def manager(tmp_path):
    built = JobManager(
        session_factory=store_session_factory(tmp_path / "store"),
        workers=1,
        queue_size=4,
    )
    yield built
    built.shutdown()


# ---------------------------------------------------------------- submissions
class TestSubmissionParsing:
    def test_normalises_and_content_addresses(self):
        parsed = parse_submission(TINY)
        assert parsed.normalized["benchmarks"] == ["tiny"]
        assert parsed.normalized["policies"] == ["lru", "trrip-1"]
        assert parsed.normalized["config"] == "scaled"
        assert parsed.total_points == 2
        assert parsed.unique_points == 2
        assert len(parsed.run_keys) == 2
        assert all(len(key) == 64 for key in parsed.run_keys)

    def test_job_key_is_content_addressed(self):
        assert parse_submission(TINY).job_key == parse_submission(TINY).job_key
        other = parse_submission({"benchmarks": ["tiny"], "policies": ["lru"]})
        assert other.job_key != parse_submission(TINY).job_key
        # track_reuse changes what the job produces, so it changes the key.
        tracked = parse_submission({**TINY, "track_reuse": True})
        assert tracked.job_key != parse_submission(TINY).job_key

    def test_run_keys_match_the_result_store(self):
        """Served jobs land under the exact keys a direct run would."""
        from repro.experiments.store import run_key

        parsed = parse_submission(TINY)
        expected = tuple(
            run_key(
                request.spec,
                request.policy,
                request.config.with_l2_policy(request.policy),
                request.options,
            )
            for request in parsed.plan.requests
        )
        assert parsed.run_keys == expected

    @pytest.mark.parametrize(
        "payload, match",
        [
            ([], "must be a JSON object"),
            ({}, "needs a 'benchmarks' list"),
            ({"benchmarks": []}, "non-empty list"),
            ({"benchmarks": ["tiny"], "policies": [""]}, "non-empty strings"),
            ({"benchmarks": ["tiny"], "oops": 1}, "unknown submission field"),
            ({"benchmarks": ["tiny"], "config": "huge"}, "unknown configuration"),
            ({"benchmarks": ["tiny"], "track_reuse": "yes"}, "boolean"),
            ({"benchmarks": ["tiny"], "warmup_instructions": -5}, "positive"),
            ({"benchmarks": ["no-such-bench"]}, "no-such-bench"),
            ({"benchmarks": ["tiny"], "policies": ["no-such-pol"]}, "no-such-pol"),
        ],
    )
    def test_bad_payloads_fail_eagerly(self, payload, match):
        with pytest.raises(SubmissionError, match=match):
            parse_submission(payload)

    def test_phase_overrides_reach_the_plan(self):
        parsed = parse_submission(
            {**TINY, "warmup_instructions": 500, "measure_instructions": 1500}
        )
        spec = parsed.plan.requests[0].spec
        assert spec.warmup_instructions == 500
        assert spec.eval_instructions == 1500
        assert parsed.job_key != parse_submission(TINY).job_key


# ----------------------------------------------------------------- job layer
class TestJobManager:
    def test_identical_submissions_attach_to_one_job(self, manager):
        first, deduped_first = manager.submit(parse_submission(TINY))
        again, deduped_again = manager.submit(parse_submission(TINY))
        assert not deduped_first and deduped_again
        assert again is first
        assert first.attached == 2
        assert (manager.submitted, manager.deduped) == (2, 1)

    def test_full_queue_rejects_with_retry_after(self, tmp_path):
        staged = JobManager(
            session_factory=store_session_factory(tmp_path / "store"),
            workers=0,  # no threads: the queue fills deterministically
            queue_size=1,
        )
        staged.submit(parse_submission(TINY))
        with pytest.raises(QueueFullError) as excinfo:
            staged.submit(
                parse_submission({"benchmarks": ["tiny"], "policies": ["lru"]})
            )
        assert excinfo.value.retry_after >= 1
        assert staged.rejected == 1
        # The rejected submission registered no job.
        assert staged.metrics()["jobs"]["queued"] == 1

    def test_drain_completes_accepted_jobs(self, tmp_path):
        staged = JobManager(
            session_factory=store_session_factory(tmp_path / "store"),
            workers=0,
            queue_size=4,
        )
        one, _ = staged.submit(parse_submission(TINY))
        two, _ = staged.submit(
            parse_submission({"benchmarks": ["tiny"], "policies": ["lru"]})
        )
        staged.start(1)
        staged.shutdown(drain=True)  # returns only once the backlog is done
        assert one.state == "done" and two.state == "done"
        with pytest.raises(ShuttingDownError):
            staged.submit(parse_submission(TINY))

    def test_jobs_leave_no_prepared_workloads_behind(self, manager):
        """Every job runs in a fresh session over its worker's store, so no
        session the manager holds keeps a workload a later job never uses."""
        manager.start()
        for submission in (
            TINY,
            {"benchmarks": ["zipf:alpha=1.2,instructions=6000,warmup=2000"]},
        ):
            job, deduped = manager.submit(parse_submission(submission))
            assert not deduped
            manager.wait(job.id, timeout=60)
            assert job.state == "done"
        assert manager._sessions
        for session in manager._sessions:
            for runner in session._runners.values():
                assert not runner._prepared
                assert not runner._packed
        # The worker's store instance still counts every job's work.
        assert manager.metrics()["store"]["writes"] == 3

    def test_failed_jobs_are_not_dedup_targets(self, manager, monkeypatch):
        monkeypatch.setenv(REPRO_FAULTS_ENV, "serve.job:0=raise")
        reset_fault_counters()
        manager.start()
        failed, _ = manager.submit(parse_submission(TINY))
        manager.wait(failed.id, timeout=60)
        assert failed.state == "failed"
        assert failed.error["type"] == "InjectedFault"
        retry, deduped = manager.submit(parse_submission(TINY))
        assert retry is not failed and not deduped
        manager.wait(retry.id, timeout=60)
        assert retry.state == "done"


# ------------------------------------------------------------------ HTTP API
class TestServedJobs:
    def test_served_results_are_byte_identical_to_a_direct_run(self, tmp_path):
        """The acceptance criterion: same store keys, same payloads."""
        served_root = tmp_path / "served"
        direct_root = tmp_path / "direct"
        manager = JobManager(
            session_factory=store_session_factory(served_root),
            workers=1,
            queue_size=4,
        )
        with ReproServer(manager, port=0) as server:
            client = ReproClient(server.url, timeout=30)
            payload = client.run(TINY, timeout=120)
        assert payload["state"] == "done"

        # The equivalent direct run, into a separate store.
        parsed = parse_submission(TINY)
        direct = Session(
            config=SimulatorConfig.scaled(), store=ResultStore(direct_root)
        )
        artifacts = direct.execute(parsed.plan)

        for entry, arts in zip(payload["results"], artifacts):
            assert entry["result"] == json.loads(json.dumps(arts.result.to_dict()))

        # Store contents: identical key sets, byte-identical entries.
        served = {
            path.relative_to(served_root): path.read_bytes()
            for path in sorted(served_root.rglob("runs/*/*.json"))
        }
        direct_bytes = {
            path.relative_to(direct_root): path.read_bytes()
            for path in sorted(direct_root.rglob("runs/*/*.json"))
        }
        assert served and served == direct_bytes

    def test_concurrent_identical_submissions_run_one_simulation(self, tmp_path):
        """N racing identical submissions -> one job, one simulation per
        point, byte-identical results for every submitter."""
        manager = JobManager(
            session_factory=store_session_factory(tmp_path / "store"),
            workers=0,  # stage everything before any execution
            queue_size=4,
        )
        with ReproServer(manager, port=0) as server:
            submitters = 6
            accepted: list = [None] * submitters
            barrier = threading.Barrier(submitters)

            def submit(slot: int) -> None:
                client = ReproClient(server.url, timeout=30)
                barrier.wait()
                accepted[slot] = client.submit(TINY)

            threads = [
                threading.Thread(target=submit, args=(slot,))
                for slot in range(submitters)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            job_ids = {entry["job"] for entry in accepted}
            assert len(job_ids) == 1  # everyone attached to one job
            assert sum(entry["deduplicated"] for entry in accepted) == (
                submitters - 1
            )

            manager.start(1)
            client = ReproClient(server.url, timeout=30)
            job_id = job_ids.pop()
            client.wait(job_id, timeout=120)
            bodies = {
                json.dumps(client.result(job_id), sort_keys=True)
                for _ in range(submitters)
            }
            assert len(bodies) == 1  # byte-identical result for every fetch

            metrics = client.metrics()
        assert metrics["jobs"]["submitted"] == submitters
        assert metrics["jobs"]["deduped"] == submitters - 1
        assert metrics["jobs"]["completed"] == 1
        # The store counters prove zero duplicate simulations: exactly one
        # miss and one write per unique point, no more.
        assert metrics["store"]["misses"] == 2
        assert metrics["store"]["writes"] == 2

    def test_full_queue_answers_429_with_retry_after(self, tmp_path):
        manager = JobManager(
            session_factory=store_session_factory(tmp_path / "store"),
            workers=0,
            queue_size=1,
        )
        with ReproServer(manager, port=0) as server:
            client = ReproClient(server.url, timeout=30)
            client.submit(TINY)
            overflow = {"benchmarks": ["tiny"], "policies": ["lru"]}
            with pytest.raises(ServerBusy) as excinfo:
                client.submit(overflow)
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after >= 1
            # The raw response carries the Retry-After header.
            status, headers, _ = client._request("POST", "/jobs", overflow)
            assert status == 429
            assert int(headers["Retry-After"]) >= 1

    def test_shutdown_answers_503(self, manager):
        with ReproServer(manager, port=0) as server:
            client = ReproClient(server.url, timeout=30)
            manager.shutdown()
            with pytest.raises(ServiceError) as excinfo:
                client.submit(TINY)
            assert excinfo.value.status == 503

    def test_status_result_and_error_paths(self, tmp_path):
        manager = JobManager(
            session_factory=store_session_factory(tmp_path / "store"),
            workers=0,
            queue_size=4,
        )
        with ReproServer(manager, port=0) as server:
            client = ReproClient(server.url, timeout=30)
            assert client.health() == {"status": "ok"}

            accepted = client.submit(TINY)
            snapshot = client.status(accepted["job"])
            assert snapshot["state"] == "queued"
            assert snapshot["submission"]["benchmarks"] == ["tiny"]

            # Result before completion: 409, not an error payload.
            with pytest.raises(ServiceError) as excinfo:
                client.result(accepted["job"])
            assert excinfo.value.status == 409

            with pytest.raises(ServiceError) as unknown:
                client.status("no-such-job")
            assert unknown.value.status == 404

            status, _, payload = client._request("POST", "/jobs", None)
            assert status == 400 and "JSON" in payload["error"]

            status, _, payload = client._request(
                "POST", "/jobs", {"benchmarks": ["no-such-bench"]}
            )
            assert status == 400 and "no-such-bench" in payload["error"]

            status, _, _ = client._request("GET", "/no/such/endpoint")
            assert status == 404

    def test_injected_fault_fails_the_job_not_the_worker(
        self, tmp_path, monkeypatch
    ):
        """REPRO_FAULTS in the served path: structured error, worker lives."""
        monkeypatch.setenv(REPRO_FAULTS_ENV, "serve.job:0=enospc")
        reset_fault_counters()
        manager = JobManager(
            session_factory=store_session_factory(tmp_path / "store"),
            workers=1,
            queue_size=4,
        )
        with ReproServer(manager, port=0) as server:
            client = ReproClient(server.url, timeout=30)
            accepted = client.submit(TINY)
            snapshot = client.wait(accepted["job"], timeout=60)
            assert snapshot["state"] == "failed"
            assert snapshot["error"]["type"] == "OSError"
            assert "No space left" in snapshot["error"]["message"]

            from repro.client import JobFailed

            with pytest.raises(JobFailed) as excinfo:
                client.result(accepted["job"])
            assert excinfo.value.error["type"] == "OSError"

            # The worker survived: the next (distinct) job is served.
            follow_up = client.run(
                {"benchmarks": ["tiny"], "policies": ["lru"]}, timeout=120
            )
            assert follow_up["state"] == "done"
            assert client.metrics()["jobs"]["failed"] == 1

    def test_metrics_shape(self, manager):
        with ReproServer(manager, port=0) as server:
            client = ReproClient(server.url, timeout=30)
            client.run(TINY, timeout=120)
            metrics = client.metrics()
        assert metrics["uptime_seconds"] >= 0
        assert metrics["jobs"]["queue_capacity"] == 4
        assert metrics["jobs"]["workers"] == 1
        wall = metrics["job_wall_time"]
        assert wall["count"] == 1
        assert wall["max_seconds"] >= wall["mean_seconds"] > 0
        for counter in ("hits", "misses", "writes", "corrupt"):
            assert counter in metrics["store"]
            assert counter in metrics["traces"]


# ------------------------------------------------------------ process level
class TestServeProcess:
    def test_sigterm_drains_accepted_jobs_and_exits_zero(self, tmp_path):
        src_dir = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src_dir)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        ready = tmp_path / "ready"
        store_root = tmp_path / "store"
        daemon = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--workers",
                "1",
                "--store",
                str(store_root),
                "--ready-file",
                str(ready),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 60
            while not ready.exists() and time.monotonic() < deadline:
                assert daemon.poll() is None, daemon.communicate()[1]
                time.sleep(0.1)
            url = ready.read_text(encoding="utf-8").strip()
            client = ReproClient(url, timeout=30)
            accepted = client.submit({"benchmarks": ["tiny"], "policies": ["lru"]})
            assert accepted["state"] == "queued"
            # SIGTERM lands while the job is queued or running; the drain
            # contract says it still completes before the process exits.
            daemon.send_signal(signal.SIGTERM)
            _, stderr = daemon.communicate(timeout=120)
        finally:
            if daemon.poll() is None:
                daemon.kill()
        assert daemon.returncode == 0, stderr
        assert "drained and stopped" in stderr
        # The accepted job finished during the drain: its run is durable.
        assert len(list(store_root.rglob("runs/*/*.json"))) == 1
