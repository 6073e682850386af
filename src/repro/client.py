"""Blocking JSON client for the ``repro serve`` daemon.

Stdlib-only (``http.client``), deliberately boring: JSON in, JSON out,
errors as typed exceptions.  This is the one HTTP client in the tree — the
CLI's ``repro submit|status|result`` and the test-suite both go through it,
so the wire protocol is exercised end to end everywhere it is used.

Each thread keeps one connection open between requests, but only while the
server answers ``Connection: keep-alive`` (``repro serve`` does); against
any other server every request gets its own connection.  A kept connection
the server has closed meanwhile (its idle timeout, a restart) is noticed on
first use and the request is sent once more on a fresh connection.
:meth:`ReproClient.wait` asks the server to hold each status request until
the job finishes (``GET /jobs/<id>?wait=S``), so a wait returns as soon as
its job does and costs one request, not one per poll interval.

Backpressure is first-class: a 429 raises :class:`ServerBusy` carrying the
server's ``Retry-After`` estimate, and :meth:`ReproClient.submit` can
optionally absorb it by sleeping and retrying (``busy_retries``), which is
what the CLI's ``repro submit --wait`` does.

Transport failures are retryable too: a :class:`RetryPolicy` re-issues a
request that died with :class:`ConnectionFailed` after a bounded,
deterministic exponential backoff (the same formula as the sweep
supervisor's :class:`~repro.experiments.supervisor.SupervisionPolicy`, so
chaos runs reproduce).  Every request the client sends or re-sends is
idempotent by construction — GETs trivially, and ``POST /jobs`` because
submissions are content-addressed: a resubmission after a daemon restart
attaches to (or recreates) the same job key and never re-simulates a stored
point.  :meth:`ReproClient.wait` additionally rides out a daemon *bounce*:
a connection failure while waiting counts against the wait deadline, not
as an error, because a journal-backed daemon comes back with the same job
ids.  The ``client.transport`` fault point (``REPRO_FAULTS``) injects
transport failures without touching a socket.
"""

from __future__ import annotations

import json
import os
import random
import socket
import threading
import time
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPResponse
from typing import Optional
from urllib.parse import urlsplit

from repro.common.errors import JobTimeout, ReproError
from repro.common.faults import fire_point
from repro.common.service import DEFAULT_PORT, MAX_WAIT_SECONDS, URL_ENV_VAR

#: Job states the server reports as final.
TERMINAL_STATES = ("done", "failed")

#: Default total wait budget of :meth:`ReproClient.wait` (seconds).  Waits
#: are always bounded: a job adopted by another replica, or a daemon that
#: never comes back, must end in a :class:`~repro.common.errors.JobTimeout`
#: naming the job, not an indefinite poll loop.
DEFAULT_WAIT_TIMEOUT = 600.0


def default_url() -> str:
    """The service URL: ``$REPRO_SERVER_URL`` or localhost:8642."""
    return os.environ.get(URL_ENV_VAR) or f"http://127.0.0.1:{DEFAULT_PORT}"


class ConnectionFailed(ReproError):
    """The server could not be reached at all (refused, DNS, timeout).

    Wraps the underlying :class:`OSError` so callers — the CLI above all —
    get one structured "is the daemon running?" failure instead of a raw
    socket traceback.
    """

    def __init__(self, url: str, cause: OSError):
        super().__init__(
            f"cannot reach repro server at {url}: {cause} "
            "(is `repro serve` running?)"
        )
        self.url = url
        self.cause = cause


class MalformedResponse(ReproError):
    """The server answered, but the body was not valid JSON.

    Usually means the URL points at something that is not ``repro serve``
    (a proxy error page, a different service); :attr:`snippet` holds the
    start of the offending body for diagnosis.
    """

    def __init__(self, url: str, status: int, raw: bytes):
        snippet = raw[:120].decode("utf-8", errors="replace")
        super().__init__(
            f"server at {url} returned status {status} with a body that is "
            f"not JSON: {snippet!r}"
        )
        self.url = url
        self.status = status
        self.snippet = snippet


class ServiceError(ReproError):
    """The server answered with an error status."""

    def __init__(self, status: int, payload: dict):
        message = (
            payload.get("error")
            if isinstance(payload.get("error"), str)
            else json.dumps(payload.get("error") or payload)
        )
        super().__init__(f"server returned {status}: {message}")
        self.status = status
        self.payload = payload


class ServerBusy(ServiceError):
    """The job queue is full (HTTP 429); retry after :attr:`retry_after`."""

    def __init__(self, payload: dict, retry_after: int):
        super().__init__(429, payload)
        self.retry_after = retry_after


class JobFailed(ServiceError):
    """The job reached the ``failed`` state; :attr:`error` is structured."""

    def __init__(self, payload: dict):
        super().__init__(500, payload)
        self.job = payload.get("job")
        self.error = payload.get("error") or {}


@dataclass(frozen=True)
class RetryPolicy:
    """Transport-retry knobs for :class:`ReproClient`.

    The backoff formula is byte-for-byte the sweep supervisor's
    (:meth:`~repro.experiments.supervisor.SupervisionPolicy.backoff`):
    exponential growth from ``backoff_base`` capped at ``backoff_max``,
    with fractional jitter seeded per ``(seed, request ordinal, attempt)``
    — integer-keyed :class:`random.Random`, so delays are identical across
    processes and runs and chaos tests stay reproducible.
    """

    #: Retries after the first attempt (a request runs at most
    #: ``1 + retries`` times).  0 disables transport retry entirely.
    retries: int = 0
    backoff_base: float = 0.2
    backoff_factor: float = 2.0
    backoff_max: float = 5.0
    #: Fractional jitter (+/-) applied to each delay.
    jitter: float = 0.25
    seed: int = 0

    def backoff(self, ordinal: int, failed_attempt: int) -> float:
        """Delay before retrying request ``ordinal`` after ``failed_attempt``."""
        base = min(
            self.backoff_base * self.backoff_factor ** (failed_attempt - 1),
            self.backoff_max,
        )
        if base <= 0:
            return 0.0
        rng = random.Random((self.seed << 24) ^ (ordinal << 8) ^ failed_attempt)
        return base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


class _Connection(HTTPConnection):
    """An ``HTTPConnection`` that sends without Nagle delay.

    ``http.client`` writes a request's head and body in two sends; on a
    kept-alive connection Nagle's algorithm would hold the body until the
    server's delayed ACK of the head (~40 ms).
    """

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class ReproClient:
    """Blocking client for one ``repro serve`` endpoint.

    ``retry`` takes a :class:`RetryPolicy` (or a plain int, shorthand for
    ``RetryPolicy(retries=n)``); the default of zero retries preserves
    fail-fast behaviour for interactive use — the CLI passes ``--retries``.
    """

    def __init__(
        self,
        url: Optional[str] = None,
        timeout: float = 60.0,
        retry: "RetryPolicy | int | None" = None,
    ):
        self.url = (url or default_url()).rstrip("/")
        parsed = urlsplit(self.url)
        if parsed.scheme != "http" or not parsed.hostname:
            raise ReproError(
                f"service URL must look like http://host:port, got {self.url!r}"
            )
        self._host = parsed.hostname
        self._port = parsed.port or 80
        self.timeout = timeout
        if retry is None:
            retry = RetryPolicy()
        elif isinstance(retry, int):
            retry = RetryPolicy(retries=retry)
        self.retry = retry
        self._ordinal = 0
        #: ``connection``: this thread's kept-alive connection, if any.
        self._local = threading.local()
        #: Every thread's kept-alive connection, for :meth:`close`.
        self._kept: set[HTTPConnection] = set()
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close the connections this client keeps open, every thread's;
        a later request opens a fresh one."""
        with self._lock:
            kept, self._kept = self._kept, set()
        for connection in kept:
            connection.close()

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---------------------------------------------------------------- plumbing
    def _request_once(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> tuple[int, dict, dict]:
        """One HTTP round trip; returns (status, headers, decoded body).

        Transport failures surface as :class:`ConnectionFailed`, non-JSON
        bodies as :class:`MalformedResponse` — callers never see raw socket
        or ``json`` tracebacks.
        """
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        try:
            # The transport failure point: REPRO_FAULTS=
            # "client.transport:N=enospc" makes the N-th request this
            # process issues die exactly like a refused connection.
            fire_point("client.transport")
            kept = getattr(self._local, "connection", None)
            self._local.connection = None
            if kept is not None:
                try:
                    response, raw = self._exchange(kept, method, path, body, headers)
                except ConnectionError:
                    # The server closed the kept connection (idle timeout,
                    # restart) before answering: send once more on a fresh
                    # one.  Every request this client sends is idempotent.
                    kept = None
            if kept is None:
                fresh = _Connection(self._host, self._port, timeout=self.timeout)
                response, raw = self._exchange(fresh, method, path, body, headers)
        except OSError as error:
            raise ConnectionFailed(self.url, error) from error
        try:
            decoded = json.loads(raw) if raw else {}
        except ValueError as error:
            raise MalformedResponse(self.url, response.status, raw) from error
        return response.status, dict(response.getheaders()), decoded

    def _exchange(
        self,
        connection: HTTPConnection,
        method: str,
        path: str,
        body: Optional[bytes],
        headers: dict,
    ) -> tuple[HTTPResponse, bytes]:
        """Send one request and read its response on ``connection``, which
        this thread keeps for its next request only when the server says
        ``Connection: keep-alive`` (a server that does not could not serve
        another client while this one held its connection open)."""
        keep = False
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            keep = (response.getheader("Connection") or "").lower() == "keep-alive"
        finally:
            with self._lock:
                if keep:
                    self._kept.add(connection)
                else:
                    self._kept.discard(connection)
            if keep:
                self._local.connection = connection
            else:
                connection.close()
        return response, raw

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        retry: bool = False,
    ) -> tuple[int, dict, dict]:
        """A round trip, optionally retried on :class:`ConnectionFailed`.

        Only ever called with ``retry=True`` for idempotent requests (all
        GETs, and submission POSTs — content-addressing makes resubmission
        attach, not duplicate).  The last failure propagates unchanged once
        the policy's budget is spent.
        """
        budget = self.retry.retries if retry else 0
        ordinal = self._ordinal
        self._ordinal += 1
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, payload)
            except ConnectionFailed:
                attempt += 1
                if attempt > budget:
                    raise
                time.sleep(self.retry.backoff(ordinal, attempt))

    def _get(self, path: str) -> dict:
        status, _, payload = self._request("GET", path, retry=True)
        if status >= 400:
            raise ServiceError(status, payload)
        return payload

    # --------------------------------------------------------------- protocol
    def submit(self, submission: dict, busy_retries: int = 0) -> dict:
        """POST a submission; returns the acceptance payload (``job`` id).

        ``busy_retries > 0`` absorbs that many 429 responses by sleeping for
        the server's ``Retry-After`` before retrying — dedup makes blind
        resubmission safe (an identical submission that got through in the
        meantime is attached to, never re-simulated).
        """
        for attempt in range(busy_retries + 1):
            status, headers, payload = self._request(
                "POST", "/jobs", submission, retry=True
            )
            if status == 429:
                retry_after = int(headers.get("Retry-After", "1"))
                if attempt < busy_retries:
                    time.sleep(retry_after)
                    continue
                raise ServerBusy(payload, retry_after)
            if status >= 400:
                raise ServiceError(status, payload)
            return payload
        raise AssertionError("unreachable")  # pragma: no cover

    def status(self, job_id: str) -> dict:
        """GET the status snapshot of a job."""
        return self._get(f"/jobs/{job_id}")

    def result(self, job_id: str) -> dict:
        """GET the results of a finished job.

        Raises :class:`JobFailed` (with the structured server-side error)
        for failed jobs and :class:`ServiceError` with ``status=409`` when
        the job has not finished yet — poll via :meth:`wait` first.
        """
        status, _, payload = self._request(
            "GET", f"/jobs/{job_id}/result", retry=True
        )
        if status == 500 and payload.get("state") == "failed":
            raise JobFailed(payload)
        if status >= 400:
            raise ServiceError(status, payload)
        return payload

    def wait(
        self,
        job_id: str,
        timeout: Optional[float] = DEFAULT_WAIT_TIMEOUT,
        poll: float = 0.2,
    ) -> dict:
        """Block until the job reaches a terminal state; returns its status.

        Each status request asks the server to hold it until the job ends
        (``?wait=S``, S at most half this client's socket timeout, 30 s and
        the time left), so the wait returns as soon as the job finishes.
        The wait is bounded (:data:`DEFAULT_WAIT_TIMEOUT` unless
        overridden; ``timeout=None`` waits forever) and ends in a
        :class:`~repro.common.errors.JobTimeout` naming the job.  A daemon
        *bounce* — connection refused while it restarts — is absorbed: a
        journal-backed daemon recovers the same job ids, so the wait simply
        resumes when it answers again, and the outage counts against the
        deadline rather than failing the wait.  ``poll`` paces the
        reconnect attempts while the daemon is unreachable, and the
        requests to a stopping daemon, which answers held requests early.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        longest = MAX_WAIT_SECONDS
        if self.timeout:
            longest = min(longest, self.timeout / 2)
        while True:
            hold = longest
            if deadline is not None:
                hold = max(0.0, min(hold, deadline - time.monotonic()))
            asked = time.monotonic()
            try:
                snapshot = self._get(f"/jobs/{job_id}?wait={hold:.3f}")
            except ConnectionFailed:
                if deadline is not None and time.monotonic() >= deadline:
                    raise JobTimeout(
                        f"job {job_id} still unconfirmed after {timeout}s: "
                        f"server at {self.url} is unreachable"
                    ) from None
                time.sleep(poll)
                continue
            state = snapshot.get("state")
            if state in TERMINAL_STATES:
                return snapshot
            if deadline is not None and time.monotonic() >= deadline:
                raise JobTimeout(
                    f"job {job_id} still {state!r} after {timeout}s"
                )
            if time.monotonic() - asked < hold:
                time.sleep(poll)

    def run(
        self,
        submission: dict,
        timeout: Optional[float] = DEFAULT_WAIT_TIMEOUT,
        poll: float = 0.2,
        busy_retries: int = 0,
    ) -> dict:
        """Submit, wait, fetch: the blocking one-call shape.

        Survives a daemon restart mid-run: when the restarted daemon no
        longer knows the job id (it ran without a journal), the submission
        is re-posted once — content-addressing guarantees the resubmission
        reuses every stored point instead of re-simulating.
        """
        accepted = self.submit(submission, busy_retries=busy_retries)
        try:
            self.wait(accepted["job"], timeout=timeout, poll=poll)
            return self.result(accepted["job"])
        except ServiceError as error:
            if error.status != 404:
                raise
            accepted = self.submit(submission, busy_retries=busy_retries)
            self.wait(accepted["job"], timeout=timeout, poll=poll)
            return self.result(accepted["job"])

    # ------------------------------------------------------------- diagnostics
    def health(self) -> dict:
        return self._get("/healthz")

    def metrics(self) -> dict:
        return self._get("/metrics")

    def jobs(self) -> dict:
        """GET the compact listing of every job the daemon knows."""
        return self._get("/jobs")


__all__ = [
    "ConnectionFailed",
    "DEFAULT_PORT",
    "DEFAULT_WAIT_TIMEOUT",
    "JobFailed",
    "JobTimeout",
    "MalformedResponse",
    "ReproClient",
    "RetryPolicy",
    "ServerBusy",
    "ServiceError",
    "TERMINAL_STATES",
    "URL_ENV_VAR",
    "default_url",
]
