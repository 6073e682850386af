"""Fault-injection coverage for the checkpointed sweep execution layer.

Every recovery path the fault-tolerance layer promises is exercised here
deterministically through the ``REPRO_FAULTS`` knob (see
:mod:`repro.common.faults`): worker exceptions, worker kills, hangs killed
by the unit timeout, torn store entries, ENOSPC on write, and mid-sweep
interruption followed by a plain re-run of the same ``repro sweep``.
"""

from __future__ import annotations

import json
import math
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli.main import main
from repro.common.errors import ConfigurationError, InjectedFault
from repro.common.faults import KINDS
from repro.experiments.supervisor import (
    PoolReport,
    SupervisedPool,
    SupervisionPolicy,
)
from repro.sim.config import SimulatorConfig
from repro.testing import (
    KILL_EXIT_CODE,
    REPRO_FAULTS_ENV,
    FaultPlan,
    corrupt_file,
    fire_point,
    make_session,
    reset_fault_counters,
)
from repro.workloads.spec import tiny_spec


@pytest.fixture(autouse=True)
def _isolated_fault_state(monkeypatch):
    """Each test starts with no armed plan and fresh per-site ordinals."""
    monkeypatch.delenv(REPRO_FAULTS_ENV, raising=False)
    reset_fault_counters()
    yield
    reset_fault_counters()


# ================================================================= the knob
#: Plan text: arbitrary strings, and directives for real sites and kinds
#: whose arguments include non-finite and negative numbers.
_arguments = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e999", "-5", "-0.0", "0", "2.5", ""]),
    st.floats().map(repr),
    st.text(max_size=4),
)
_directives = st.builds(
    "{}:{}={}{}{}".format,
    st.sampled_from(["sweep.unit", "sweep.completed", "store.write"]),
    st.integers(-2, 5),
    st.sampled_from(KINDS),
    st.one_of(st.just(""), _arguments.map(":".__add__)),
    st.sampled_from(["", "*", "*1", "*-1"]),
)
_plans = st.one_of(
    st.text(),
    st.lists(st.one_of(_directives, st.text(max_size=8)), max_size=3).map(";".join),
)


class TestFaultPlan:
    def test_parse_directives(self):
        plan = FaultPlan.parse(
            "sweep.unit:1=kill; store.write:0=enospc; sweep.unit:2=hang:2.5*3"
        )
        assert len(plan.directives) == 3
        kill = plan.directive("sweep.unit", 1)
        assert (kill.kind, kill.limit) == ("kill", 1)
        hang = plan.directive("sweep.unit", 2)
        assert (hang.kind, hang.arg, hang.limit) == ("hang", 2.5, 3)
        assert plan.directive("sweep.unit", 0) is None

    def test_bare_star_means_every_attempt(self):
        directive = FaultPlan.parse("sweep.unit:0=raise*").directives[0]
        assert directive.limit is None

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan.parse("")
        assert FaultPlan.parse("sweep.unit:0=raise")

    @pytest.mark.parametrize(
        "text",
        [
            "sweep.unit:0",  # missing kind
            "sweep.unit=raise",  # missing index
            "sweep.unit:x=raise",  # non-integer index
            "sweep.unit:0=frobnicate",  # unknown kind
            "sweep.unit:0=hang:nan",  # sleeps that cannot happen
            "sweep.unit:0=hang:-5",
            "sweep.unit:0=hang:inf",
        ],
    )
    def test_bad_directives_are_configuration_errors(self, text):
        with pytest.raises(ConfigurationError, match="REPRO_FAULTS"):
            FaultPlan.parse(text)

    @settings(max_examples=400, deadline=None)
    @given(_plans)
    def test_any_text_parses_or_is_a_configuration_error(self, text):
        try:
            plan = FaultPlan.parse(text)
        except ConfigurationError:
            return
        for directive in plan.directives:
            if directive.kind == "hang" and directive.arg is not None:
                assert math.isfinite(directive.arg) and directive.arg >= 0


class TestFirePoint:
    def test_unarmed_points_are_noops(self):
        fire_point("sweep.unit", 0)
        fire_point("store.write")

    def test_armed_point_raises(self, monkeypatch):
        monkeypatch.setenv(REPRO_FAULTS_ENV, "sweep.unit:3=raise")
        fire_point("sweep.unit", 2)  # different index: no fire
        with pytest.raises(InjectedFault, match="sweep.unit:3"):
            fire_point("sweep.unit", 3)

    def test_limit_bounds_the_attempts_that_fire(self, monkeypatch):
        monkeypatch.setenv(REPRO_FAULTS_ENV, "sweep.unit:0=raise*2")
        for attempt in (1, 2):
            with pytest.raises(InjectedFault):
                fire_point("sweep.unit", 0, attempt=attempt)
        fire_point("sweep.unit", 0, attempt=3)  # beyond the limit: no fire

    def test_indexless_sites_auto_number_per_process(self, monkeypatch):
        monkeypatch.setenv(REPRO_FAULTS_ENV, "store.write:2=enospc")
        fire_point("store.write")  # ordinal 0
        fire_point("store.write")  # ordinal 1
        with pytest.raises(OSError, match="No space left"):
            fire_point("store.write")  # ordinal 2
        fire_point("store.write")  # ordinal 3

    def test_ordinals_advance_even_without_a_plan(self, monkeypatch):
        fire_point("store.write")  # ordinal 0 consumed while unarmed
        monkeypatch.setenv(REPRO_FAULTS_ENV, "store.write:0=enospc")
        fire_point("store.write")  # ordinal 1: arming never shifts numbering

    def test_corrupt_file_truncates_in_place(self, tmp_path):
        victim = tmp_path / "entry.json"
        victim.write_text("x" * 100, encoding="utf-8")
        corrupt_file(victim, keep_bytes=7)
        assert victim.stat().st_size == 7


# ============================================================== supervisor
# Worker functions must be module-level so worker processes can run them.
def _double(payload, attempt):
    return payload * 2


def _fail_below(payload, attempt):
    """Fail with a picklable error until ``attempt`` reaches ``payload``."""
    if attempt < payload:
        raise ValueError(f"attempt {attempt} below threshold {payload}")
    return attempt


def _crash_if_negative(payload, attempt):
    if payload < 0 and attempt == 1:
        os._exit(KILL_EXIT_CODE)
    return payload


def _hang_first(payload, attempt):
    if attempt == 1:
        time.sleep(30)
    return payload


def _sleep(payload, attempt):
    time.sleep(payload)
    return payload


_FAST = dict(backoff_base=0.0, backoff_jitter=0.0)


class TestSupervisedPool:
    def test_results_come_back_in_task_order(self):
        pool = SupervisedPool(_double, workers=3)
        report = pool.run(list(range(7)))
        assert isinstance(report, PoolReport)
        assert report.values() == [n * 2 for n in range(7)]
        assert all(o.attempts == 1 for o in report.outcomes)

    def test_empty_payloads(self):
        assert SupervisedPool(_double).run([]).values() == []

    def test_failed_attempts_are_retried_with_backoff(self):
        policy = SupervisionPolicy(max_retries=2, **_FAST)
        pool = SupervisedPool(_fail_below, workers=1, policy=policy)
        report = pool.run([3, 1])  # first unit needs 3 attempts
        assert report.values() == [3, 1]
        first = report.outcomes[0]
        assert first.attempts == 3
        assert [f.kind for f in first.failures] == ["error", "error"]
        assert report.retried == [first]

    def test_worker_crash_fails_only_its_unit(self):
        policy = SupervisionPolicy(max_retries=0, keep_going=True, **_FAST)
        pool = SupervisedPool(_crash_if_negative, workers=2, policy=policy)
        report = pool.run([1, -1, 2])
        assert [o.status for o in report.outcomes] == ["done", "failed", "done"]
        crash = report.outcomes[1].failures[0]
        assert crash.kind == "crash"
        assert str(KILL_EXIT_CODE) in crash.message
        assert not report.aborted

    def test_crashed_worker_is_respawned_and_unit_retried(self):
        policy = SupervisionPolicy(max_retries=1, **_FAST)
        pool = SupervisedPool(_crash_if_negative, workers=1, policy=policy)
        report = pool.run([-5])
        assert report.values() == [-5]  # second attempt succeeds
        assert report.outcomes[0].failures[0].kind == "crash"

    def test_repeated_crashes_never_wedge_the_pool(self):
        """Every unit SIGKILLs its first worker; the pool must survive the
        whole barrage.  This is the regression pin for the shared-result-
        channel deadlock: with results funnelled through one shared queue, a
        worker killed in the scheduling window where the queue's cross-
        process lock is held wedged every respawned worker's ready
        handshake, hanging the pool on single-CPU hosts.  Per-worker result
        pipes confine a dying worker's damage to its own channel."""
        payloads = [-n for n in range(1, 7)]
        for _ in range(5):
            policy = SupervisionPolicy(max_retries=1, **_FAST)
            pool = SupervisedPool(_crash_if_negative, workers=2, policy=policy)
            report = pool.run(payloads)
            assert report.values() == payloads
            assert all(o.failures[0].kind == "crash" for o in report.outcomes)

    def test_hung_worker_is_killed_at_the_deadline_and_retried(self):
        policy = SupervisionPolicy(max_retries=1, unit_timeout=0.5, **_FAST)
        pool = SupervisedPool(_hang_first, workers=1, policy=policy)
        started = time.monotonic()
        report = pool.run([7])
        assert report.values() == [7]
        assert report.outcomes[0].failures[0].kind == "timeout"
        assert time.monotonic() - started < 10  # nowhere near the 30s hang

    def test_timeout_scales_with_task_cost(self):
        # Both tasks run for 2 x unit_timeout: within the budget of a task
        # of cost 3, over that of a task of cost 1.
        policy = SupervisionPolicy(
            max_retries=0, unit_timeout=0.5, keep_going=True, **_FAST
        )
        pool = SupervisedPool(_sleep, workers=2, policy=policy)
        report = pool.run([1.0, 1.0], costs=[3, 1])
        assert report.outcomes[0].status == "done"
        assert report.outcomes[1].status == "failed"
        assert [f.kind for f in report.outcomes[1].failures] == ["timeout"]

    def test_fail_fast_aborts_remaining_units(self):
        policy = SupervisionPolicy(max_retries=0, keep_going=False, **_FAST)
        pool = SupervisedPool(_fail_below, workers=1, policy=policy)
        report = pool.run([99, 1, 1])
        assert report.aborted
        assert report.outcomes[0].status == "failed"
        assert any(o.status == "not-run" for o in report.outcomes[1:])
        assert report.retried == []  # a final failure schedules no retry

    def test_raise_on_failure_reraises_the_original_exception(self):
        policy = SupervisionPolicy(max_retries=0, keep_going=True, **_FAST)
        report = SupervisedPool(_fail_below, policy=policy).run([5])
        with pytest.raises(ValueError, match="below threshold 5"):
            report.raise_on_failure()

    def test_no_worker_processes_outlive_the_pool(self):
        import multiprocessing

        pool = SupervisedPool(_double, workers=2)
        pool.run([1, 2, 3, 4])
        assert pool._workers == {}
        assert not multiprocessing.active_children()

    def test_backoff_is_deterministic_and_bounded(self):
        policy = SupervisionPolicy(
            backoff_base=0.25, backoff_factor=2.0, backoff_max=1.0, seed=11
        )
        for unit, attempt in ((0, 1), (3, 2), (9, 5)):
            delay = policy.backoff(unit, attempt)
            assert delay == policy.backoff(unit, attempt)  # reproducible
            assert 0.0 < delay <= 1.0 * 1.25  # capped + jitter bound
        assert policy.backoff(0, 1) != policy.backoff(1, 1)

    def test_policy_validation(self):
        for knobs in (
            {"max_retries": -1},
            {"unit_timeout": 0},
            {"unit_timeout": math.nan},
            {"unit_timeout": math.inf},
            {"backoff_base": math.nan},
            {"backoff_factor": math.inf},
            {"backoff_max": -math.inf},
            {"backoff_jitter": math.nan},
        ):
            with pytest.raises(ConfigurationError):
                SupervisionPolicy(**knobs).validate()


class TestManifest:
    """The sweep's manifest: its grid of points, in the order the
    ``sweep.unit`` fault site indexes them."""

    def test_units_are_benchmark_major_baseline_first(self):
        config = SimulatorConfig.scaled()
        sweep, requests = make_session(config)._grid(
            [tiny_spec(), "zipf:alpha=1.2"], ["lru", "trrip-1"], "srrip", config
        )
        assert sweep.benchmarks == ("tinybench", "zipf:alpha=1.2")
        assert [request.spec.name for request in requests] == (
            ["tinybench"] * 3 + ["zipf:alpha=1.2"] * 3
        )
        assert [request.policy.canonical() for request in requests] == (
            ["srrip", "lru", "trrip-1"] * 2
        )
        assert len({request.store_key() for request in requests}) == 6


# ============================================================ CLI chaos runs
SWEEP = ["sweep", "--tiny", "--policies", "lru,trrip-1"]

#: Two workloads x three policies: six units (0-2 tiny, 3-5 zipf) in two
#: tasks, one per workload, run one after the other by one worker.
GRID = SWEEP + [
    "--spec",
    "zipf:alpha=1.2,instructions=6000,warmup=2000",
    "--jobs",
    "1",
]


def _sweep_args(tmp_path, name, *extra, grid=SWEEP):
    return grid + [
        "--store",
        str(tmp_path / name / "store"),
        "--trace-dir",
        str(tmp_path / name / "traces"),
        *extra,
    ]


def _store_bytes(tmp_path, name) -> dict:
    root = tmp_path / name / "store" / "runs"
    return {
        path.relative_to(root): path.read_bytes()
        for path in sorted(root.rglob("*.json"))
    }


class TestResumeSemantics:
    def test_interrupted_sweep_resumes_byte_identical(
        self, tmp_path, monkeypatch, capsys
    ):
        # Reference: one uninterrupted run.
        assert main(_sweep_args(tmp_path, "clean", grid=GRID)) == 0
        clean_out = capsys.readouterr().out

        # Interrupt after the first task's 3 of 6 units have completed.
        monkeypatch.setenv(REPRO_FAULTS_ENV, "sweep.completed:3=abort")
        assert main(_sweep_args(tmp_path, "chaos", grid=GRID)) == 1
        captured = capsys.readouterr()
        # Diagnostics (summary, cache counters, re-run hint) all go to
        # stderr; stdout stays clean for machine-readable output.
        assert captured.out == ""
        assert "[interrupted]" in captured.err
        assert "re-run the same command" in captured.err
        assert len(_store_bytes(tmp_path, "chaos")) == 3  # durable progress

        # The re-run executes exactly the missing units: M - N simulations.
        monkeypatch.delenv(REPRO_FAULTS_ENV)
        assert main(_sweep_args(tmp_path, "chaos", grid=GRID)) == 0
        resumed_out = capsys.readouterr().out
        assert "# 3 simulation(s) run, 3 served from cache" in resumed_out

        # Store entries are byte-identical to the uninterrupted run's.
        assert _store_bytes(tmp_path, "chaos") == _store_bytes(tmp_path, "clean")
        # And so is every rendered view line (the saved report text).
        clean_views = clean_out.split("# sweep units")[0]
        resumed_views = resumed_out.split("# sweep units")[0]
        assert clean_views == resumed_views
        clean_report = json.loads(
            (tmp_path / "clean" / "store" / "reports" / "sweep.json").read_text()
        )
        chaos_report = json.loads(
            (tmp_path / "chaos" / "store" / "reports" / "sweep.json").read_text()
        )
        assert clean_report == chaos_report

    def test_killed_worker_is_retried_and_sweep_succeeds(
        self, tmp_path, monkeypatch, capsys
    ):
        # Killing unit 1's worker fails its whole task: units 0-2 retry.
        monkeypatch.setenv(REPRO_FAULTS_ENV, "sweep.unit:1=kill")
        args = _sweep_args(tmp_path, "kill", "--retry-backoff", "0.01", grid=GRID)
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "3 retried" in out
        assert "0 failed" in out

    def test_corrupted_entry_is_requarried_on_resume(
        self, tmp_path, monkeypatch, capsys
    ):
        """A finished unit whose store entry got damaged re-executes on the
        re-run; the intact ones never go to a worker."""
        assert main(_sweep_args(tmp_path, "torn")) == 0
        capsys.readouterr()
        entry = sorted((tmp_path / "torn" / "store" / "runs").rglob("*.json"))[0]
        corrupt_file(entry)
        assert main(_sweep_args(tmp_path, "torn")) == 0
        out = capsys.readouterr().out
        assert "1 attempted, 1 succeeded, 2 cached" in out
        assert "# 1 simulation(s) run, 2 served from cache" in out
        assert "1 corrupt entry quarantined" in out
        assert entry.with_suffix(".corrupt").exists()


class TestDegradedSweeps:
    def test_hung_unit_is_killed_and_retried(self, tmp_path, monkeypatch, capsys):
        # Unit 0's task of 3 units gets 3 x 1.5 s before its worker dies.
        monkeypatch.setenv(REPRO_FAULTS_ENV, "sweep.unit:0=hang:30")
        args = _sweep_args(
            tmp_path,
            "hang",
            "--unit-timeout",
            "1.5",
            "--retry-backoff",
            "0.01",
            grid=GRID,
        )
        started = time.monotonic()
        assert main(args) == 0
        assert time.monotonic() - started < 20
        assert "3 retried" in capsys.readouterr().out

    def test_exhausted_retries_keep_going_partial_failure(
        self, tmp_path, monkeypatch, capsys
    ):
        # This unit fails on every attempt, and with it its task; the sweep
        # must finish the other task and report a structured partial
        # failure, not raise mid-flight.
        monkeypatch.setenv(REPRO_FAULTS_ENV, "sweep.unit:1=raise*")
        args = _sweep_args(
            tmp_path,
            "partial",
            "--max-retries",
            "1",
            "--keep-going",
            "--retry-backoff",
            "0.01",
            grid=GRID,
        )
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # diagnostics never land on stdout
        assert "3 failed" in captured.err
        assert "Figure 6 view" not in captured.err  # no half-rendered views
        assert "failed after 2 attempt(s) [error]" in captured.err
        assert "injected failure at sweep.unit:1" in captured.err
        assert len(_store_bytes(tmp_path, "partial")) == 3  # the others landed

        # With the fault disarmed, a re-run completes just the failed task.
        monkeypatch.delenv(REPRO_FAULTS_ENV)
        assert main(_sweep_args(tmp_path, "partial", grid=GRID)) == 0
        assert "# 3 simulation(s) run" in capsys.readouterr().out

    def test_retry_queued_at_an_interrupt_counts_as_retried_and_not_run(
        self, tmp_path, monkeypatch, capsys
    ):
        # Killing unit 1's worker queues a retry of units 0-2; the one worker
        # runs the other task meanwhile, and the abort after its 3 units
        # stops the sweep before the retry is dispatched.
        monkeypatch.setenv(
            REPRO_FAULTS_ENV, "sweep.unit:1=kill;sweep.completed:3=abort"
        )
        assert main(_sweep_args(tmp_path, "queued", grid=GRID)) == 1
        err = capsys.readouterr().err
        assert "6 attempted, 3 succeeded" in err
        assert "3 retried, 0 failed, 3 not run" in err
        assert "[interrupted]" in err

    def test_fail_fast_stops_dispatching(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(REPRO_FAULTS_ENV, "sweep.unit:0=raise*")
        args = _sweep_args(
            tmp_path,
            "failfast",
            "--max-retries",
            "0",
            "--retry-backoff",
            "0.01",
            grid=GRID,
        )
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "0 retried, 3 failed" in captured.err
        assert "3 not run" in captured.err

    def test_storeless_sweep_retries_and_prints_the_stored_views(
        self, tmp_path, monkeypatch, capsys
    ):
        # Workers return their results over their pipes, so a sweep without
        # a store is supervised too: the killed task is retried, and the
        # views equal a stored sweep's.
        assert main(_sweep_args(tmp_path, "stored", grid=GRID)) == 0
        stored = capsys.readouterr().out
        monkeypatch.setenv(REPRO_FAULTS_ENV, "sweep.unit:1=kill")
        assert main(GRID + ["--no-cache", "--retry-backoff", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "6 attempted, 6 succeeded, 0 cached, 3 retried, 0 failed" in out
        assert "# 6 simulation(s) run, cache disabled" in out
        assert out.split("# sweep units")[0] == stored.split("# sweep units")[0]

    @pytest.mark.parametrize(
        "flags",
        [
            ["--unit-timeout", "nan"],
            ["--unit-timeout", "inf"],
            ["--retry-backoff", "nan"],
            ["--retry-backoff", "inf"],
            ["--max-retries", "-3", "--unit-timeout", "nan"],
        ],
    )
    def test_unusable_supervision_flags_are_rejected(self, tmp_path, capsys, flags):
        # Rejected before the sweep starts, even when the store holds every
        # unit and no pool would start.
        assert main(_sweep_args(tmp_path, "stored")) == 0
        capsys.readouterr()
        assert main(_sweep_args(tmp_path, "stored", *flags)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be" in captured.err


class TestSessionFaults:
    def test_enospc_on_store_write_is_retried(self, tmp_path, monkeypatch):
        monkeypatch.setenv(REPRO_FAULTS_ENV, "store.write:0=enospc")
        session = make_session(store_root=tmp_path / "store")
        checkpointed = session.sweep_checkpointed(
            benchmarks=[tiny_spec()],
            policies=["lru"],
            supervision=SupervisionPolicy(max_retries=1, **_FAST),
        )
        report = checkpointed.report
        assert report.complete
        assert report.retried == 2  # srrip and lru share the failed task
        assert report.failed == 0

    def test_unusable_supervision_is_rejected_before_any_work(self, tmp_path):
        # The pool was the first to check the policy, and a fully stored
        # grid never reaches it: the executor checks it before any work.
        store_root = tmp_path / "store"
        stored = make_session(store_root=store_root).sweep_checkpointed(
            benchmarks=[tiny_spec()], policies=["lru"]
        )
        assert stored.report.complete
        session = make_session(store_root=store_root)
        with pytest.raises(ConfigurationError, match="must be"):
            session.sweep_checkpointed(
                benchmarks=[tiny_spec()],
                policies=["lru"],
                supervision=SupervisionPolicy(
                    unit_timeout=math.nan, max_retries=-3
                ),
            )
        assert session.runner.simulations_run == 0
        assert session.store.hits == session.store.misses == 0

    def test_truncated_trace_capture_is_quarantined(self, tmp_path):
        traces = tmp_path / "traces"
        session = make_session(store_root=tmp_path / "a", trace_root=traces)
        session.sweep_checkpointed(benchmarks=[tiny_spec()], policies=["lru"])
        capture = next(traces.rglob("*.trace"))
        corrupt_file(capture)
        # A fresh session re-captures; the damaged bytes are quarantined.
        session = make_session(store_root=tmp_path / "b", trace_root=traces)
        checkpointed = session.sweep_checkpointed(
            benchmarks=[tiny_spec()], policies=["lru"]
        )
        assert checkpointed.report.complete
        assert capture.with_suffix(".corrupt").exists()
        assert capture.exists()  # recaptured into a clean slot
        assert session.traces.corrupt == 1

    def test_raise_on_failure_for_programmatic_callers(
        self, tmp_path, monkeypatch
    ):
        from repro.common.errors import SweepExecutionError

        monkeypatch.setenv(REPRO_FAULTS_ENV, "sweep.unit:0=raise*")
        session = make_session(store_root=tmp_path / "store")
        checkpointed = session.sweep_checkpointed(
            benchmarks=[tiny_spec()],
            policies=["lru"],
            supervision=SupervisionPolicy(
                max_retries=0, keep_going=True, **_FAST
            ),
        )
        assert not checkpointed.report.complete
        with pytest.raises(SweepExecutionError, match="sweep incomplete"):
            checkpointed.raise_on_failure()
        # A complete sweep's raise_on_failure is a no-op.
        monkeypatch.delenv(REPRO_FAULTS_ENV)
        resumed = session.sweep_checkpointed(
            benchmarks=[tiny_spec()], policies=["lru"]
        )
        resumed.raise_on_failure()
        assert resumed.report.complete
