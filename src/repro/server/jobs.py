"""Job queue and worker pool behind the ``repro serve`` daemon.

The execution core is deliberately independent of HTTP: a
:class:`JobManager` owns a bounded FIFO queue of :class:`Job` objects and N
worker threads that execute them through the regular
:class:`~repro.api.session.Session` machinery, so everything the batch CLI
guarantees — store-level dedup, trace capture/replay, lockstep multi-policy
grouping, bit-identical results — holds for served jobs too.  On top of the
store's content-level dedup the manager adds **in-flight job dedup**:
submissions are content-addressed by their
:attr:`~repro.server.submission.ParsedSubmission.job_key` (a hash over the
plan's result-store run keys), so identical concurrent submissions attach to
one queued/running/completed job instead of simulating twice.

Capacity is explicit, never silent:

* a full queue rejects the submission with :class:`QueueFullError`, which
  the HTTP layer maps to ``429`` with a ``Retry-After`` estimate derived
  from observed job wall times;
* :meth:`JobManager.shutdown` stops accepting
  (:class:`ShuttingDownError` → ``503``) and **drains**: every job already
  accepted — running or still queued — completes before the workers exit,
  because an accepted job is a promise.

"An accepted job is a promise" now survives the process too.  Two optional
collaborators extend the manager's guarantees across crashes and replicas:

* a :class:`~repro.server.journal.SubmissionJournal` records every accepted
  submission *inside the admission lock, before the job is enqueued* — so
  acceptance and journaling are atomic with respect to the shutdown cutoff:
  a submission racing ``shutdown()`` is either journaled-and-accepted
  (drain completes it) or cleanly rejected with 503, never
  accepted-and-lost.  :meth:`recover` replays the journal on startup and
  re-enqueues accepted-but-unfinished jobs under their original ids;
  every point already durable in the store is a cache hit, so recovery
  repeats zero simulations and the store stays byte-identical.
* a claims backend (any :class:`~repro.experiments.backends.StoreBackend`
  over the shared store root) deduplicates *across replicas*: before
  executing, a worker acquires a TTL'd claim marker on the job key and a
  heartbeat thread keeps it renewed; a second replica seeing a live claim
  waits (serving from the store once the holder finishes), and a claim
  whose owner died is **adopted** after the TTL lapses.

Worker threads each own a private session (sessions are not thread-safe;
the shared state is the on-disk store, which is) and run every job in a
fresh session over its store and archive instances.  Fault injection
(``REPRO_FAULTS``) is wired into the execution path via the ``serve.job``
failure point (plus ``serve.journal`` at admission and ``serve.claim``
before claim acquisition): an injected raise/ENOSPC/abort during a served
job marks the job *failed* with a structured error and the worker moves on —
a wedged worker would otherwise silently shrink the pool.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.api.session import Session
from repro.common.errors import JobTimeout, ReproError
from repro.common.faults import fire_point
from repro.experiments.backends import CorruptEntry, StoreBackend
from repro.server.journal import SubmissionJournal
from repro.server.submission import ParsedSubmission, parse_submission

#: Job lifecycle states, in order.
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"

#: States a job can never leave.
TERMINAL_STATES = (DONE, FAILED)

#: Sentinel handed to workers to make them exit after the queue drains.
_STOP = object()


class QueueFullError(ReproError):
    """The bounded job queue is full; retry after ``retry_after`` seconds."""

    def __init__(self, retry_after: int):
        super().__init__(
            f"job queue is full; retry after ~{retry_after}s"
        )
        self.retry_after = retry_after


class ShuttingDownError(ReproError):
    """The manager is draining and no longer accepts submissions."""

    def __init__(self) -> None:
        super().__init__("server is shutting down; submissions are closed")


@dataclass
class Job:
    """One accepted submission and everything learned while serving it."""

    id: str
    key: str
    parsed: ParsedSubmission
    state: str = QUEUED
    #: Submissions served by this job (1 + deduplicated attachments).
    attached: int = 1
    #: Wall-clock submission/start/finish stamps (``time.time``).
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Execution wall time in seconds (monotonic), set on completion.
    wall_time: Optional[float] = None
    #: One payload per requested point, in request order (state ``done``).
    results: Optional[list[dict]] = None
    #: Structured failure: ``{"type", "message"}`` (state ``failed``).
    error: Optional[dict] = None
    #: True when this job was re-enqueued from the journal after a restart.
    recovered: bool = False

    @property
    def finished(self) -> bool:
        return self.state in TERMINAL_STATES

    def snapshot(self) -> dict:
        """JSON-safe status view (the ``GET /jobs/<id>`` payload)."""
        payload = {
            "job": self.id,
            "state": self.state,
            "submission": self.parsed.normalized,
            "points": self.parsed.total_points,
            "unique_points": self.parsed.unique_points,
            "deduped_submissions": self.attached - 1,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "wall_time_seconds": self.wall_time,
        }
        if self.recovered:
            payload["recovered"] = True
        if self.error is not None:
            payload["error"] = self.error
        return payload

    def brief(self) -> dict:
        """Compact listing row (the ``GET /jobs`` payload entries)."""
        row = {
            "job": self.id,
            "state": self.state,
            "key": self.key,
            "points": self.parsed.total_points,
            "submitted_at": self.submitted_at,
        }
        if self.recovered:
            row["recovered"] = True
        return row


class JobManager:
    """Bounded job queue + worker threads executing through ``Session``.

    ``session_factory`` builds one private session per worker thread (give
    each its own store/archive *instances* over the shared on-disk roots;
    :meth:`store_stats`/:meth:`trace_stats` aggregate the counters).
    ``workers=0`` creates no threads — submissions queue up until
    :meth:`start` runs, which tests use to stage deterministic backpressure
    and dedup scenarios.

    ``journal`` makes acceptance crash-durable (call :meth:`recover` —
    :meth:`start` does — to re-enqueue unfinished jobs after a restart).
    ``claims`` plus ``replica_id`` enable cross-replica dedup over a shared
    store; every replica of one store must use a **distinct** replica id,
    because claims are re-entrant per owner and two replicas sharing an id
    would happily execute the same job concurrently.
    """

    def __init__(
        self,
        session_factory: Optional[Callable[[], Session]] = None,
        workers: int = 2,
        queue_size: int = 16,
        journal: Optional[SubmissionJournal] = None,
        claims: Optional[StoreBackend] = None,
        replica_id: str = "r0",
        claim_ttl: float = 30.0,
        claim_poll: float = 0.05,
    ):
        if workers < 0:
            raise ReproError(f"workers must be >= 0, got {workers}")
        if queue_size < 1:
            raise ReproError(f"queue_size must be >= 1, got {queue_size}")
        if claim_ttl <= 0:
            raise ReproError(f"claim_ttl must be > 0, got {claim_ttl}")
        self._session_factory = session_factory or Session
        self.worker_count = workers
        self.queue_size = queue_size
        self.journal = journal
        self.claims = claims
        self.replica_id = replica_id
        self.claim_ttl = claim_ttl
        self.claim_poll = claim_poll
        # Unbounded queue; the submission bound is enforced explicitly in
        # submit() so recovery can re-enqueue past it — journaled jobs were
        # already promised and must never be dropped for capacity.
        self._queue: "queue.Queue[object]" = queue.Queue()
        self._lock = threading.Lock()
        #: Notified whenever a job finishes (:meth:`wait`, :meth:`hold`) or
        #: holds are released.
        self._changed = threading.Condition(self._lock)
        self._holds_released = False
        self._jobs: dict[str, Job] = {}
        self._by_key: dict[str, str] = {}
        self._threads: list[threading.Thread] = []
        self._sessions: list[Session] = []
        self._accepting = True
        self._draining = False
        self._recover_ran = False
        self._sequence = 0
        self._active_claims: set[str] = set()
        self._heartbeat: Optional[threading.Thread] = None
        self._heartbeat_stop = threading.Event()
        self.started_at = time.time()
        # Lifetime counters (states are derived from the jobs themselves).
        self.submitted = 0
        self.deduped = 0
        self.rejected = 0
        self.recovered = 0
        self.adopted = 0
        self.stale_claims_expired = 0
        self.journal_replayed = 0
        self._wall_count = 0
        self._wall_total = 0.0
        self._wall_max = 0.0

    # ------------------------------------------------------------ submission
    def submit(self, parsed: ParsedSubmission) -> tuple[Job, bool]:
        """Accept a parsed submission; returns ``(job, deduplicated)``.

        An in-flight or completed job with the same content key adopts the
        submission (``deduplicated=True``); a failed one does not — the
        resubmission becomes a fresh job, i.e. the retry path.  Raises
        :class:`QueueFullError` on backpressure and
        :class:`ShuttingDownError` during drain; neither registers a job.

        Admission is atomic under the manager lock: the shutdown cutoff
        check, the journal ``accepted`` record, and the enqueue all happen
        together, so a submission racing :meth:`shutdown` is either fully
        accepted (journaled, and the drain will finish it) or fully
        rejected — never accepted-and-lost.  A journal that cannot take the
        record (full disk, injected ``serve.journal`` fault) fails the
        admission the same way: the error propagates *before* the job is
        enqueued or registered, and the HTTP layer answers 503.
        """
        with self._lock:
            if not self._accepting:
                raise ShuttingDownError()
            existing_id = self._by_key.get(parsed.job_key)
            if existing_id is not None:
                existing = self._jobs[existing_id]
                if existing.state != FAILED:
                    existing.attached += 1
                    self.submitted += 1
                    self.deduped += 1
                    return existing, True
            if self._queue.qsize() >= self.queue_size:
                self.rejected += 1
                raise QueueFullError(self._retry_after_locked())
            self._sequence += 1
            job = Job(
                id=f"{parsed.job_key[:12]}-{self._sequence}",
                key=parsed.job_key,
                parsed=parsed,
                submitted_at=time.time(),
            )
            if self.journal is not None:
                try:
                    self.journal.record(
                        "accepted",
                        job=job.id,
                        key=job.key,
                        submitted_at=job.submitted_at,
                        submission=parsed.wire(),
                    )
                except ReproError:
                    self._sequence -= 1
                    self.rejected += 1
                    raise
                except OSError as error:
                    self._sequence -= 1
                    self.rejected += 1
                    raise ReproError(
                        f"submission journal write failed: {error}"
                    ) from error
            self._queue.put(job)
            self.submitted += 1
            self._jobs[job.id] = job
            self._by_key[parsed.job_key] = job.id
            return job, False

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Job:
        """Block until a job reaches a terminal state (or timeout).

        A ``timeout`` caps the total wait and raises :class:`JobTimeout`
        (a :class:`TimeoutError`) naming the job — a job stuck behind a
        claim held by another replica must surface as a bounded failure,
        not an indefinite block.
        """
        job = self.get(job_id)
        if job is None:
            raise KeyError(job_id)
        with self._changed:
            if not self._changed.wait_for(lambda: job.finished, timeout):
                raise JobTimeout(
                    f"job {job_id} still {job.state} after {timeout}s"
                )
        return job

    def hold(self, job: Job, timeout: float) -> bool:
        """Block until ``job`` finishes, ``timeout`` seconds pass or
        :meth:`release_holds` runs; True when the job has finished.

        The ``GET /jobs/<id>?wait=S`` long-poll: one condition wakes every
        holder when any job finishes, and each re-checks its own job.
        """
        with self._changed:
            self._changed.wait_for(
                lambda: job.finished or self._holds_released, timeout
            )
            return job.finished

    def release_holds(self) -> None:
        """End every current and future :meth:`hold` at once (server stop)."""
        with self._changed:
            self._holds_released = True
            self._changed.notify_all()

    def jobs_snapshot(self) -> list[dict]:
        """Compact rows for every known job, oldest first (``GET /jobs``)."""
        with self._lock:
            jobs = sorted(self._jobs.values(), key=lambda job: job.id)
        return [job.brief() for job in jobs]

    # -------------------------------------------------------------- recovery
    def recover(self) -> int:
        """Replay the journal and re-enqueue unfinished accepted jobs.

        Idempotent (one replay per manager) and called by :meth:`start`, so
        a restarted daemon resumes its promises before serving anything
        new.  Jobs keep their journaled ids — clients polling across the
        restart keep working — and the sequence counter advances past every
        journaled id so new jobs never collide.  A journaled submission
        that no longer parses (schema drift across an upgrade) is recorded
        as ``skipped`` and dropped rather than wedging recovery.

        Returns the number of jobs re-enqueued.
        """
        if self.journal is None or self._recover_ran:
            return 0
        self._recover_ran = True
        events = self.journal.replay()
        if not events:
            return 0
        max_sequence = 0
        for entry in events:
            job_id = entry.get("job") or ""
            tail = job_id.rsplit("-", 1)[-1]
            if tail.isdigit():
                max_sequence = max(max_sequence, int(tail))
        restored = 0
        for entry in self.journal.pending():
            try:
                parsed = parse_submission(entry.get("submission"))
            except ReproError as error:
                self.journal.record(
                    "skipped",
                    job=entry.get("job"),
                    key=entry.get("key"),
                    reason=str(error),
                )
                continue
            job = Job(
                id=entry["job"],
                key=parsed.job_key,
                parsed=parsed,
                submitted_at=entry.get("submitted_at") or time.time(),
                recovered=True,
            )
            with self._lock:
                if job.key in self._by_key or job.id in self._jobs:
                    continue  # already resubmitted ahead of recovery
                self._jobs[job.id] = job
                self._by_key[job.key] = job.id
                self._queue.put(job)
                self.recovered += 1
            restored += 1
        with self._lock:
            self.journal_replayed += len(events)
            self._sequence = max(self._sequence, max_sequence)
        return restored

    def _retry_after_locked(self) -> int:
        """Backpressure hint: how long until a queue slot frees up.

        Scales the mean observed job wall time by the backlog per worker;
        1s floor when nothing has completed yet, 120s cap so a pathological
        first job cannot push clients away for good.
        """
        mean = self._wall_total / self._wall_count if self._wall_count else 1.0
        backlog = self._queue.qsize() + 1
        per_worker = backlog / max(self.worker_count, 1)
        return max(1, min(120, int(mean * per_worker + 0.999)))

    # ------------------------------------------------------------- execution
    def start(self, workers: Optional[int] = None) -> None:
        """Spawn the worker threads (idempotent top-up to ``workers``).

        Runs :meth:`recover` first, so journaled jobs sit at the head of
        the queue before any new submission, and starts the claim
        heartbeat thread when a claims backend is configured.
        """
        self.recover()
        wanted = self.worker_count if workers is None else workers
        self.worker_count = max(self.worker_count, wanted)
        with self._lock:
            missing = wanted - len(self._threads)
            for _ in range(max(0, missing)):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"repro-serve-worker-{len(self._threads)}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()
            if self.claims is not None and self._heartbeat is None:
                self._heartbeat = threading.Thread(
                    target=self._heartbeat_loop,
                    name="repro-serve-heartbeat",
                    daemon=True,
                )
                self._heartbeat.start()

    def _heartbeat_loop(self) -> None:
        """Renew every active claim at a third of the TTL.

        Renewal can fail for a claim another replica adopted after this
        process stalled past the TTL; the marker is simply dropped from the
        active set — the store's content-level dedup keeps even that
        double-execution byte-identical, so adoption is safe, just wasteful.
        """
        interval = self.claim_ttl / 3.0
        while not self._heartbeat_stop.wait(interval):
            with self._lock:
                active = list(self._active_claims)
            for key in active:
                try:
                    renewed = self.claims.renew_claim(
                        key, self.replica_id, self.claim_ttl
                    )
                except OSError:  # pragma: no cover - transient store trouble
                    continue
                if not renewed:
                    with self._lock:
                        self._active_claims.discard(key)

    def _worker_loop(self) -> None:
        session = self._session_factory()
        with self._lock:
            self._sessions.append(session)
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            self._execute(session, item)

    def _execute(self, session: Session, job: Job) -> None:
        with self._lock:
            job.state = RUNNING
            job.started_at = time.time()
        clock_start = time.monotonic()
        try:
            self._secure_claim(job)
            # The served-job failure point: REPRO_FAULTS="serve.job:N=..."
            # targets the N-th job this process executes.  A raise/enospc/
            # abort here (or anywhere in the execution below, including the
            # store/trace write points) must fail the *job*, structurally,
            # not the worker.
            fire_point("serve.job")
            results = self._run(session, job.parsed)
        except Exception as error:  # noqa: BLE001 - the worker must survive
            with self._lock:
                job.error = {
                    "type": type(error).__name__,
                    "message": str(error),
                }
                job.state = FAILED
                self._finish_locked(job, clock_start)
            self._release_claim(job)
            self._journal_safe("failed", job=job.id, key=job.key)
        else:
            with self._lock:
                job.results = results
                job.state = DONE
                self._finish_locked(job, clock_start)
            self._release_claim(job)
            self._journal_safe("done", job=job.id, key=job.key)

    # ---------------------------------------------------------------- claims
    def _secure_claim(self, job: Job) -> None:
        """Hold (or defensibly skip) the cross-replica claim on a job key.

        Loops until the claim is ours or provably unnecessary:

        * ``acquired``/``adopted`` — mark it active (the heartbeat renews
          it) and execute;
        * ``held`` by a live other replica — if the store already has every
          point of the job, execute anyway (pure cache hits, no duplicate
          work); otherwise poll until the holder finishes (its results make
          the store check pass) or its claim expires (we adopt).

        The ``serve.claim`` failure point fires once per executed job,
        before the first acquisition attempt.
        """
        if self.claims is None:
            return
        fire_point("serve.claim")
        while True:
            decision = self.claims.acquire_claim(
                job.key, self.replica_id, self.claim_ttl
            )
            if decision != "held":
                with self._lock:
                    if decision == "adopted":
                        self.adopted += 1
                        self.stale_claims_expired += 1
                    self._active_claims.add(job.key)
                return
            if self._job_stored(job.parsed):
                return  # the holder's results are durable: serve the cache
            time.sleep(self.claim_poll)

    def _release_claim(self, job: Job) -> None:
        if self.claims is None:
            return
        with self._lock:
            held = job.key in self._active_claims
            self._active_claims.discard(job.key)
        if held:
            try:
                self.claims.release_claim(job.key, self.replica_id)
            except OSError:  # pragma: no cover - transient store trouble
                pass

    def _job_stored(self, parsed: ParsedSubmission) -> bool:
        """True when every point of a submission is durable in the store."""
        for key in parsed.run_keys:
            try:
                if self.claims.load("runs", key) is None:
                    return False
            except CorruptEntry:
                return False
        return True

    def _journal_safe(self, event: str, **fields) -> None:
        """Best-effort completion record: losing it only costs a re-run.

        A recovered job re-executes through the session where its points
        are cache hits, so a missing ``done`` line is cheap; failing the
        worker over it would not be.
        """
        if self.journal is None:
            return
        try:
            self.journal.record(event, **fields)
        except Exception:  # noqa: BLE001 - completion records are advisory
            pass

    def _finish_locked(self, job: Job, clock_start: float) -> None:
        job.finished_at = time.time()
        job.wall_time = time.monotonic() - clock_start
        self._wall_count += 1
        self._wall_total += job.wall_time
        self._wall_max = max(self._wall_max, job.wall_time)
        self._changed.notify_all()

    @staticmethod
    def _run(session: Session, parsed: ParsedSubmission) -> list[dict]:
        """Execute one parsed submission; one payload per requested point.

        Store keys are recomputed by the engine exactly as for a direct CLI
        run, so a served result and a ``repro run``/``repro sweep`` of the
        same point are literally the same store entry.  A fresh session
        frees the job's prepared workloads and packed traces when it ends.
        """
        plan = parsed.plan
        artifacts = session.fresh().execute(plan)
        results = []
        for request, arts, key in zip(plan.requests, artifacts, parsed.run_keys):
            entry = {
                "benchmark": request.spec.name,
                "policy": request.policy.canonical(),
                "store_key": key,
                "result": arts.result.to_dict(),
            }
            if request.track_reuse and arts.reuse is not None:
                entry["reuse"] = {
                    "num_sets": arts.reuse.num_sets,
                    "base": dict(arts.reuse.base.counts),
                    "hot_only": dict(arts.reuse.hot_only.counts),
                }
            results.append(entry)
        return results

    # ----------------------------------------------------------------- drain
    def shutdown(self, drain: bool = True) -> None:
        """Stop accepting submissions and wind the workers down.

        ``drain=True`` (the only shipped mode; the flag exists for tests)
        lets every accepted job — queued included — finish first: the stop
        sentinels queue *behind* the backlog, so workers exit only once it
        is empty.  Idempotent; safe to call from signal handlers via a
        helper thread.
        """
        with self._lock:
            if self._draining:
                return
            self._accepting = False
            self._draining = True
            threads = list(self._threads)
        if not drain:
            try:
                while True:
                    self._queue.get_nowait()
            except queue.Empty:
                pass
        for _ in threads:
            self._queue.put(_STOP)
        for thread in threads:
            thread.join()
        # Jobs dropped by drain=False never finish; nobody may wait on them.
        self.release_holds()
        self._heartbeat_stop.set()
        if self._heartbeat is not None:
            self._heartbeat.join()
            self._heartbeat = None
        if self.journal is not None:
            self.journal.close()

    # --------------------------------------------------------------- metrics
    def metrics(self) -> dict:
        """The ``GET /metrics`` payload: jobs, wall times, store counters."""
        with self._lock:
            states = {QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0}
            for job in self._jobs.values():
                states[job.state] += 1
            wall = {
                "count": self._wall_count,
                "total_seconds": self._wall_total,
                "max_seconds": self._wall_max,
                "mean_seconds": (
                    self._wall_total / self._wall_count if self._wall_count else 0.0
                ),
            }
            jobs = {
                "submitted": self.submitted,
                "deduped": self.deduped,
                "rejected": self.rejected,
                "queued": states[QUEUED],
                "running": states[RUNNING],
                "completed": states[DONE],
                "failed": states[FAILED],
                "queue_capacity": self.queue_size,
                "workers": len(self._threads),
            }
            durability = {
                "journal": self.journal is not None,
                "replica": self.replica_id,
                "claims": self.claims is not None,
                "recovered": self.recovered,
                "adopted": self.adopted,
                "stale_claims_expired": self.stale_claims_expired,
                "journal_replayed": self.journal_replayed,
            }
            sessions = list(self._sessions)
        return {
            "uptime_seconds": time.time() - self.started_at,
            "jobs": jobs,
            "durability": durability,
            "job_wall_time": wall,
            "store": self._aggregate(
                [s.store for s in sessions if s.store is not None]
            ),
            "traces": self._aggregate(
                [s.traces for s in sessions if s.traces is not None]
            ),
        }

    @staticmethod
    def _aggregate(trackers: list) -> dict[str, int]:
        totals = {"hits": 0, "misses": 0, "writes": 0, "corrupt": 0}
        for tracker in trackers:
            for name, value in tracker.stats().items():
                totals[name] += value
        return totals
