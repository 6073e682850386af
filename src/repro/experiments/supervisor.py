"""Supervised worker pool: timeouts, retries with backoff, crash isolation.

``multiprocessing.Pool.map`` has exactly one failure mode: the whole map
dies.  A worker that raises aborts every queued task; a worker that is
OOM-killed can wedge the pool forever; a worker that hangs *does* wedge it
forever.  For thousand-point sweeps that is unacceptable — one bad unit must
cost one unit, not the campaign.

:class:`SupervisedPool` replaces the bare pool with a parent-side
supervisor:

* every worker is a directly-owned :class:`multiprocessing.Process` with a
  private task pipe, so the supervisor always knows *which* unit a worker is
  running and can kill precisely that worker;
* each unit gets a wall-clock **timeout** (``unit_timeout``) — an overdue
  worker is terminated and the unit retried on a fresh worker;
* failed attempts are retried up to ``max_retries`` times with
  deterministic **exponential backoff + jitter** (seeded, so reports are
  reproducible);
* a worker that **dies** (crash, kill, ENOMEM) fails only its in-flight
  unit; the supervisor respawns a replacement and keeps going;
* with ``keep_going`` the pool finishes every remaining unit after one
  exhausts its retries and reports the failure in the
  :class:`PoolReport`; without it the pool stops dispatching, tears down,
  and the caller re-raises the decoded worker exception.

Teardown is unconditional: every exit path (completion, abort, callback
exception, ``KeyboardInterrupt``) terminates and joins every child before
returning, so no worker process ever outlives the pool.  Completed results
remain available on :attr:`SupervisedPool.outcomes` even when the run is
interrupted, so callers can fold back counters for the work that *did*
finish.

Results travel over each worker's **private duplex pipe**, never a shared
``multiprocessing.Queue``.  A shared queue serializes every ``put`` through
one cross-process lock, and a worker SIGKILLed while its feeder thread
holds that lock (a single-CPU scheduling race) leaves the lock held forever
— wedging every *other* worker's next result and the pool with it.  With
per-worker pipes a dying worker can only ever truncate its own channel,
which the supervisor already treats as a crash of that worker alone.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import pickle
import random
import time
import traceback
from multiprocessing import connection
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.common.errors import ConfigurationError


def pool_context():
    """The multiprocessing context used for supervised workers.

    Prefers ``fork`` (cheap, inherits loaded modules and the fault-injection
    environment) and falls back to the platform default elsewhere.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set (cpusets,
    ``taskset``) where the platform reports one, else the host's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API (macOS, Windows)
        return os.cpu_count() or 1


def worker_count(jobs: Optional[int], tasks: int) -> int:
    """Worker processes to run ``tasks`` pending tasks with.

    ``jobs`` is the requested count: ``None`` or 1 for one, 0 for every
    usable CPU (:func:`usable_cpus`), N for N.  More workers than tasks
    would idle, so the count is capped by ``tasks``.
    """
    if jobs is not None and jobs < 0:
        raise ConfigurationError(
            f"jobs must be >= 0 (0 = every usable CPU), got {jobs}"
        )
    return min(1 if jobs is None else jobs or usable_cpus(), tasks)


@dataclass(frozen=True)
class SupervisionPolicy:
    """Retry/timeout/backoff knobs for a :class:`SupervisedPool`."""

    #: Retries after the first attempt (a unit runs at most ``1 + max_retries``
    #: times).
    max_retries: int = 1
    #: Wall-clock seconds a single attempt may take; ``None`` = unlimited.
    unit_timeout: Optional[float] = None
    #: First retry waits ~``backoff_base`` seconds, growing by
    #: ``backoff_factor`` per attempt, capped at ``backoff_max``.
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    #: Fractional jitter (+/-) applied to each delay, deterministically
    #: seeded per (seed, unit, attempt) so runs are reproducible.
    backoff_jitter: float = 0.25
    #: After a unit exhausts its retries: keep executing the remaining units
    #: (the failure lands in the report) instead of stopping the pool.
    keep_going: bool = False
    seed: int = 0

    def validate(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.unit_timeout is not None and self.unit_timeout <= 0:
            raise ConfigurationError("unit_timeout must be positive")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ConfigurationError("backoff delays must be >= 0")

    def backoff(self, unit_index: int, failed_attempt: int) -> float:
        """Delay before retrying ``unit_index`` after ``failed_attempt``."""
        base = min(
            self.backoff_base * self.backoff_factor ** (failed_attempt - 1),
            self.backoff_max,
        )
        if base <= 0:
            return 0.0
        # Integer-keyed Random is stable across processes and runs (no
        # PYTHONHASHSEED dependence), keeping chaos runs reproducible.
        rng = random.Random((self.seed << 24) ^ (unit_index << 8) ^ failed_attempt)
        return base * (1.0 + self.backoff_jitter * (2.0 * rng.random() - 1.0))


@dataclass
class AttemptFailure:
    """One failed attempt of one unit."""

    attempt: int
    kind: str  # "error" | "timeout" | "crash"
    message: str
    worker: int


@dataclass
class UnitOutcome:
    """Terminal state of one task handed to :meth:`SupervisedPool.run`."""

    index: int
    status: str = "pending"  # pending -> done | failed | not-run
    value: Any = None
    attempts: int = 0
    failures: list[AttemptFailure] = field(default_factory=list)
    #: Wall-clock duration of the successful attempt (0.0 if none).
    duration: float = 0.0
    #: Decoded exception of the final failed attempt, when picklable.
    error: Optional[BaseException] = None


@dataclass
class PoolReport:
    """Everything that happened during one :meth:`SupervisedPool.run`."""

    outcomes: list[UnitOutcome]
    backoff_total: float = 0.0
    #: True when the pool stopped dispatching early (keep_going=False and a
    #: unit exhausted its retries); remaining outcomes are ``not-run``.
    aborted: bool = False

    @property
    def done(self) -> list[UnitOutcome]:
        return [o for o in self.outcomes if o.status == "done"]

    @property
    def failed(self) -> list[UnitOutcome]:
        return [o for o in self.outcomes if o.status == "failed"]

    @property
    def not_run(self) -> list[UnitOutcome]:
        return [o for o in self.outcomes if o.status not in ("done", "failed")]

    @property
    def retried(self) -> list[UnitOutcome]:
        """Units that needed more than one attempt (whatever the outcome)."""
        return [o for o in self.outcomes if o.failures]

    def values(self) -> list[Any]:
        """Results in task order; raises if any unit did not complete."""
        self.raise_on_failure()
        return [outcome.value for outcome in self.outcomes]

    def raise_on_failure(self) -> None:
        """Re-raise the first failure (original exception when picklable)."""
        for outcome in self.outcomes:
            if outcome.status == "done":
                continue
            if outcome.error is not None:
                raise outcome.error
            detail = outcome.failures[-1].message if outcome.failures else (
                "cancelled before it ran"
            )
            raise RuntimeError(
                f"supervised unit {outcome.index} {outcome.status}: {detail}"
            )


# ------------------------------------------------------------- worker side
def _encode_error(error: BaseException) -> tuple:
    """(pickled exception or None, repr, formatted traceback)."""
    text = "".join(
        traceback.format_exception(type(error), error, error.__traceback__)
    )
    try:
        payload = pickle.dumps(error)
    except Exception:
        payload = None
    return (payload, repr(error), text)


def _decode_error(encoded: tuple) -> tuple[Optional[BaseException], str]:
    payload, summary, text = encoded
    if payload is not None:
        try:
            return pickle.loads(payload), summary
        except Exception:
            pass
    return None, f"{summary}\n{text}"


def _worker_main(worker_id, conn, func, initializer, initargs):
    """Entry point of one supervised worker process.

    ``conn`` is the worker's private duplex pipe: tasks arrive on it and
    results go back on it, so nothing this process does — including dying
    mid-send — can interfere with any other worker's channel.
    """
    try:
        if initializer is not None:
            initializer(*initargs)
    except BaseException as error:
        conn.send((worker_id, None, 0, "init_error", _encode_error(error)))
        return
    conn.send((worker_id, None, 0, "ready", None))
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        index, attempt, payload = task
        try:
            value = func(payload, attempt)
        except BaseException as error:
            conn.send((worker_id, index, attempt, "error", _encode_error(error)))
        else:
            conn.send((worker_id, index, attempt, "ok", value))


# --------------------------------------------------------------- supervisor
class _Worker:
    __slots__ = ("id", "process", "conn", "ready", "running")

    def __init__(self, worker_id, process, conn):
        self.id = worker_id
        self.process = process
        self.conn = conn
        self.ready = False
        #: (task position, attempt, started monotonic, deadline or None)
        self.running: Optional[tuple[int, int, float, Optional[float]]] = None


class SupervisedPool:
    """Run tasks through supervised worker processes (see module docstring).

    ``func(payload, attempt)`` must be a module-level callable; it runs in
    the worker after ``initializer(*initargs)``.  The optional callbacks run
    in the parent as events happen:

    * ``on_start(position, attempt, worker_id)``
    * ``on_result(position, attempt, worker_id, duration, value)``
    * ``on_retry(position, attempt, worker_id, kind, message, delay)``
    * ``on_failed(position, attempts, kind, message)``

    A callback exception aborts the run (after full teardown) and
    propagates — the checkpointed sweep uses this for injected
    interruptions.
    """

    def __init__(
        self,
        func: Callable,
        workers: int = 1,
        initializer: Optional[Callable] = None,
        initargs: tuple = (),
        policy: Optional[SupervisionPolicy] = None,
        on_start: Optional[Callable] = None,
        on_result: Optional[Callable] = None,
        on_retry: Optional[Callable] = None,
        on_failed: Optional[Callable] = None,
    ):
        self.func = func
        self.workers = max(1, workers)
        self.initializer = initializer
        self.initargs = initargs
        self.policy = policy or SupervisionPolicy()
        self.policy.validate()
        self.on_start = on_start
        self.on_result = on_result
        self.on_retry = on_retry
        self.on_failed = on_failed
        self._ctx = pool_context()
        self._workers: dict[int, _Worker] = {}
        self._next_worker_id = 0
        #: Available to callers even when run() raises (partial fold-back).
        self.outcomes: list[UnitOutcome] = []
        self.report: Optional[PoolReport] = None
        #: Workers that died before becoming ready, in a row; a small cap
        #: turns a broken initializer into an error instead of a spawn storm.
        self._init_failures = 0
        self._last_init_error = ""

    # ------------------------------------------------------------ lifecycle
    def run(self, payloads: Sequence[Any]) -> PoolReport:
        """Execute every payload; returns when all are done/failed/not-run."""
        payloads = list(payloads)
        self.outcomes = [UnitOutcome(index=i) for i in range(len(payloads))]
        self.report = PoolReport(outcomes=self.outcomes)
        if not payloads:
            return self.report
        #: min-heap of (ready time, task position, attempt)
        pending: list[tuple[float, int, int]] = [
            (0.0, position, 1) for position in range(len(payloads))
        ]
        heapq.heapify(pending)
        try:
            self._loop(payloads, pending)
        finally:
            self._shutdown()
            for outcome in self.outcomes:
                if outcome.status == "pending":
                    outcome.status = "not-run"
        return self.report

    def _loop(self, payloads, pending) -> None:
        while pending or self._busy():
            now = time.monotonic()
            outstanding = len(pending) + len(self._busy())
            self._ensure_workers(min(self.workers, outstanding))
            self._dispatch(payloads, pending, now)
            self._drain(pending, timeout=self._wait_time(pending, now))
            self._check_timeouts(pending)
            self._check_deaths(pending)
            if self.report.aborted:
                break

    # ------------------------------------------------------------- plumbing
    def _busy(self) -> list[_Worker]:
        return [w for w in self._workers.values() if w.running is not None]

    def _spawn(self) -> None:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        local, remote = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                remote,
                self.func,
                self.initializer,
                self.initargs,
            ),
            daemon=True,
        )
        process.start()
        # Close the parent's copy of the worker's end so the worker's death
        # shows up as EOF on `local`.
        remote.close()
        self._workers[worker_id] = _Worker(worker_id, process, local)

    def _ensure_workers(self, target: int) -> None:
        while len(self._workers) < target:
            if self._init_failures >= 3:
                raise RuntimeError(
                    "supervised workers keep dying during initialization: "
                    + (self._last_init_error or "no error captured")
                )
            self._spawn()

    def _dispatch(self, payloads, pending, now: float) -> None:
        idle = [
            w
            for w in self._workers.values()
            if w.ready and w.running is None and w.process.is_alive()
        ]
        while idle and pending and pending[0][0] <= now:
            _, position, attempt = heapq.heappop(pending)
            worker = idle.pop()
            deadline = (
                now + self.policy.unit_timeout
                if self.policy.unit_timeout is not None
                else None
            )
            try:
                worker.conn.send((position, attempt, payloads[position]))
            except (BrokenPipeError, OSError):
                # The worker died between spawn and dispatch; the death check
                # respawns and the unit goes back into the queue unharmed.
                heapq.heappush(pending, (now, position, attempt))
                continue
            worker.running = (position, attempt, now, deadline)
            self.outcomes[position].attempts = attempt
            if self.on_start is not None:
                self.on_start(position, attempt, worker.id)

    def _wait_time(self, pending, now: float) -> float:
        horizon = []
        for worker in self._busy():
            deadline = worker.running[3]
            if deadline is not None:
                horizon.append(deadline - now)
        if pending:
            horizon.append(pending[0][0] - now)
        if not horizon:
            return 0.05
        return min(max(min(horizon), 0.005), 0.25)

    def _drain(self, pending, timeout: float) -> None:
        block = True
        broken: set = set()
        while True:
            conns = {
                w.conn: w
                for w in self._workers.values()
                if w.conn not in broken
            }
            if not conns:
                return
            readable = connection.wait(list(conns), timeout if block else 0)
            if not readable:
                return
            block = False
            for conn in readable:
                worker = conns[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    # The worker died — possibly mid-send, truncating its own
                    # pipe.  Only its unit is affected; the death check
                    # retires it and requeues the unit.
                    broken.add(conn)
                    continue
                self._handle_message(pending, worker, message)

    def _handle_message(self, pending, worker: _Worker, message) -> None:
        worker_id, position, attempt, status, payload = message
        if status == "ready":
            worker.ready = True
            self._init_failures = 0
            return
        if status == "init_error":
            _, summary = _decode_error(payload)
            self._last_init_error = summary
            return  # the death check retires the worker
        if worker.running is None or worker.running[:2] != (position, attempt):
            return  # stale result from an attempt already written off
        started = worker.running[2]
        worker.running = None
        duration = time.monotonic() - started
        outcome = self.outcomes[position]
        if status == "ok":
            outcome.status = "done"
            outcome.value = payload
            outcome.duration = duration
            if self.on_result is not None:
                self.on_result(position, attempt, worker_id, duration, payload)
        else:
            error, message_text = _decode_error(payload)
            self._attempt_failed(
                pending, position, attempt, worker_id, "error", message_text, error
            )

    def _check_timeouts(self, pending) -> None:
        if self.policy.unit_timeout is None:
            return
        now = time.monotonic()
        for worker in list(self._busy()):
            position, attempt, _, deadline = worker.running
            if deadline is None or now <= deadline:
                continue
            self._retire(worker, terminate=True)
            self._attempt_failed(
                pending,
                position,
                attempt,
                worker.id,
                "timeout",
                f"unit exceeded the {self.policy.unit_timeout:g}s wall-clock "
                "timeout and its worker was killed",
                None,
            )

    def _check_deaths(self, pending) -> None:
        for worker in list(self._workers.values()):
            if worker.process.is_alive():
                continue
            running = worker.running
            was_ready = worker.ready
            self._retire(worker, terminate=False)
            if running is not None:
                position, attempt, _, _ = running
                self._attempt_failed(
                    pending,
                    position,
                    attempt,
                    worker.id,
                    "crash",
                    f"worker exited with code {worker.process.exitcode} "
                    "mid-unit",
                    None,
                )
            elif not was_ready:
                self._init_failures += 1

    def _retire(self, worker: _Worker, terminate: bool) -> None:
        self._workers.pop(worker.id, None)
        if terminate and worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=5.0)
        if worker.process.is_alive():  # pragma: no cover - last resort
            worker.process.kill()
            worker.process.join(timeout=5.0)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already gone
            pass

    def _attempt_failed(
        self, pending, position, attempt, worker_id, kind, message, error
    ) -> None:
        outcome = self.outcomes[position]
        outcome.failures.append(
            AttemptFailure(attempt=attempt, kind=kind, message=message, worker=worker_id)
        )
        if attempt <= self.policy.max_retries:
            delay = self.policy.backoff(position, attempt)
            self.report.backoff_total += delay
            heapq.heappush(
                pending, (time.monotonic() + delay, position, attempt + 1)
            )
            if self.on_retry is not None:
                self.on_retry(position, attempt, worker_id, kind, message, delay)
            return
        outcome.status = "failed"
        outcome.error = error
        if self.on_failed is not None:
            self.on_failed(position, attempt, kind, message)
        if not self.policy.keep_going:
            self.report.aborted = True

    def _shutdown(self) -> None:
        """Terminate and join every worker; never leaks a child process."""
        for worker in list(self._workers.values()):
            if worker.running is None and worker.process.is_alive():
                try:
                    worker.conn.send(None)  # polite: let idle workers exit
                except (BrokenPipeError, OSError):
                    pass
        deadline = time.monotonic() + 2.0
        for worker in list(self._workers.values()):
            if worker.running is None:
                worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
        for worker in list(self._workers.values()):
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():  # pragma: no cover - last resort
                worker.process.kill()
                worker.process.join(timeout=5.0)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover - already gone
                pass
        self._workers.clear()
