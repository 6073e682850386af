"""The HTTP face of the ``repro serve`` daemon.

Stdlib-only by design (``http.server.ThreadingHTTPServer``): the service
brings no new dependencies, and its concurrency needs are modest — request
handling is thin (validate, enqueue, snapshot) while all heavy work happens
on the :class:`~repro.server.jobs.JobManager` worker threads.

Endpoints::

    POST /jobs              submit a scenario     -> 202 {job, state, ...}
                            invalid payload       -> 400 {error[, token]}
                            body over 1 MiB       -> 413 {error}
                            queue full            -> 429 + Retry-After
                            draining / journal
                            unavailable           -> 503 {error}
    GET  /jobs              enumerate all jobs    -> 200 {jobs: [...]}
    GET  /jobs/<id>         status snapshot       -> 200 / 404
    GET  /jobs/<id>?wait=S  the same, held until the job finishes or S
                            seconds pass (S clamped to [0, 30])
                                                  -> 200 / 404
                            S not a finite number -> 400 {error}
    GET  /jobs/<id>/result  results when done     -> 200
                            job failed            -> 500 {error: {...}}
                            not finished yet      -> 409 {state}
    GET  /healthz           liveness              -> 200 {status: "ok"}
    GET  /metrics           counters              -> 200 (JobManager.metrics
                                                     plus an ``http`` section)

Every response body is compact JSON, http.server's own rejections (a
malformed request line, an unsupported method) included.  Connections stay
open between requests: responses advertise ``Connection: keep-alive``,
leave without Nagle delay, and a connection idle for
:data:`IDLE_TIMEOUT` seconds is closed.  With the held status request a
client's submit, wait and fetch are three requests on one connection, and
the wait ends the moment its job does.

SIGTERM/SIGINT trigger a graceful drain: held waits answer at once, every
open connection is closed, the listener stops accepting, every accepted job
finishes, workers join, then :meth:`ReproServer.serve_forever` returns (the
CLI exits 0).  The handlers never call ``HTTPServer.shutdown`` directly from
a serving thread — it would deadlock ``serve_forever`` — so the stop path
hops through a one-shot helper thread.
"""

from __future__ import annotations

import json
import math
import signal
import socket
import sys
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from repro.common.errors import ReproError
from repro.common.hashing import compact_json
from repro.common.service import MAX_WAIT_SECONDS
from repro.server.jobs import (
    DONE,
    FAILED,
    JobManager,
    QueueFullError,
    ShuttingDownError,
)
from repro.server.submission import SubmissionError, parse_submission

#: A kept-alive connection idle this long (seconds) is closed.
IDLE_TIMEOUT = 60.0

#: Largest submission body read (bytes); a larger one is refused with 413.
MAX_BODY_BYTES = 1 << 20


def wait_seconds(query: str) -> float:
    """How long a status query asks to be held: ``wait``, clamped to
    [0, :data:`~repro.common.service.MAX_WAIT_SECONDS`] (0 without one).

    A repeated, empty, non-numeric or non-finite ``wait`` raises
    :class:`ValueError` (HTTP 400).  Finiteness is checked before the
    clamp, because ``max(nan, 0.0)`` is ``nan``.
    """
    values = parse_qs(query, keep_blank_values=True).get("wait", [])
    if not values:
        return 0.0
    if len(values) > 1:
        raise ValueError("wait may be given once")
    try:
        seconds = float(values[0])
    except ValueError:
        seconds = math.nan
    if not math.isfinite(seconds):
        raise ValueError(
            f"wait must be a finite number of seconds, got {values[0]!r}"
        )
    return min(max(seconds, 0.0), MAX_WAIT_SECONDS)


def _stop_reading(connection: socket.socket) -> None:
    """End a connection's requests: a handler blocked reading the next one
    sees end-of-stream, while a response being written still goes out."""
    try:
        connection.shutdown(socket.SHUT_RD)
    except OSError:
        pass  # already closed by the client


class _HTTPServer(ThreadingHTTPServer):
    """One thread per connection; a client hanging up is not an error."""

    daemon_threads = True

    def handle_error(self, request, client_address) -> None:
        # A client that closes its end mid-exchange (a held wait it gave
        # up on, a connection cut at shutdown) is not a server fault;
        # anything else still prints its traceback.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto the owning server's job manager."""

    protocol_version = "HTTP/1.1"
    # Answer even a request line without a version with a status line and
    # headers, never with HTTP/0.9's bare body.
    default_request_version = "HTTP/1.0"
    server_version = "repro-serve"
    # Responses are small and the client waits for each: with Nagle's
    # algorithm, a kept-alive connection's response would wait for the
    # client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT

    # --------------------------------------------------------------- plumbing
    @property
    def app(self) -> "ReproServer":
        return self.server.app  # type: ignore[attr-defined]

    @property
    def manager(self) -> JobManager:
        return self.app.manager

    def setup(self) -> None:
        super().setup()
        self.app._opened(self.connection)

    def finish(self) -> None:
        try:
            super().finish()
        finally:
            self.app._closed(self.connection)

    def parse_request(self) -> bool:
        self.app._count("requests_served")
        return super().parse_request()

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.app.verbose:
            super().log_message(format, *args)

    def _send(
        self, status: int, payload: dict, headers: Optional[dict] = None
    ) -> None:
        body = compact_json(payload).encode("utf-8") + b"\n"
        if self.app.stopping:
            self.close_connection = True
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header(
            "Connection", "close" if self.close_connection else "keep-alive"
        )
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(
        self, status: int, message: str, headers: Optional[dict] = None
    ) -> None:
        self._send(status, {"error": message}, headers)

    def send_error(
        self, code: int, message: Optional[str] = None, explain=None
    ) -> None:
        """http.server's own rejections, in JSON like every other answer."""
        self.log_error("code %d, message %s", code, message)
        self.close_connection = True
        self._error(code, message or HTTPStatus(code).phrase)

    def _read_body(self) -> Optional[bytes]:
        """The request body, or None once a 400/413 answer is sent.

        A body is read whatever the route, since its bytes would otherwise
        be taken for the next request on the connection; one that cannot
        be read (a bad or oversized Content-Length, a chunked encoding)
        closes the connection instead.
        """
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if "Transfer-Encoding" in self.headers:
            self.close_connection = True
        if 0 <= length <= MAX_BODY_BYTES:
            return self.rfile.read(length)
        self.close_connection = True
        if length > MAX_BODY_BYTES:
            self._error(413, f"request body over {MAX_BODY_BYTES} bytes")
        else:
            self._error(400, "Content-Length must be a byte count")
        return None

    # ----------------------------------------------------------------- routes
    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        raw = self._read_body()
        if raw is None:
            return
        if urlsplit(self.path).path.rstrip("/") != "/jobs":
            self._error(404, f"unknown endpoint {self.path!r}")
            return
        try:
            payload = json.loads(raw or b"null")
        except (ValueError, TypeError, RecursionError):
            self._error(400, "request body must be valid JSON")
            return
        try:
            parsed = parse_submission(
                payload, default_config=self.app.default_config
            )
        except SubmissionError as error:
            # Token-level rejections (unknown workload/policy/core token)
            # carry the offending token structurally, so clients can point
            # at it without parsing the prose message.
            body = {"error": str(error)}
            if error.token is not None:
                body["token"] = error.token
            self._send(400, body)
            return
        try:
            job, deduped = self.manager.submit(parsed)
        except QueueFullError as error:
            self._error(429, str(error), {"Retry-After": str(error.retry_after)})
            return
        except ShuttingDownError as error:
            self._error(503, str(error))
            return
        except ReproError as error:
            # Admission infrastructure failure (a journal that cannot take
            # the accepted record, an injected serve.journal fault): the
            # submission was NOT accepted — 503 tells the client to retry,
            # which is safe because submissions are content-addressed.
            self._error(503, str(error))
            return
        self._send(
            202,
            {
                "job": job.id,
                "state": job.state,
                "deduplicated": deduped,
                "points": parsed.total_points,
                "unique_points": parsed.unique_points,
                "status_url": f"/jobs/{job.id}",
                "result_url": f"/jobs/{job.id}/result",
            },
        )

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        if "Content-Length" in self.headers or "Transfer-Encoding" in self.headers:
            # No route reads a GET body, whose bytes would be taken for the
            # connection's next request.
            self.close_connection = True
        url = urlsplit(self.path)
        path = url.path.rstrip("/") or "/"
        if path == "/healthz":
            self._send(200, {"status": "ok"})
            return
        if path == "/metrics":
            metrics = self.manager.metrics()
            metrics["http"] = self.app.http_metrics()
            self._send(200, metrics)
            return
        if path == "/jobs":
            self._send(200, {"jobs": self.manager.jobs_snapshot()})
            return
        parts = path.strip("/").split("/")
        if parts[0] == "jobs" and len(parts) == 2:
            self._status(parts[1], url.query)
            return
        if parts[0] == "jobs" and len(parts) == 3 and parts[2] == "result":
            self._result(parts[1])
            return
        self._error(404, f"unknown endpoint {self.path!r}")

    def _status(self, job_id: str, query: str) -> None:
        try:
            hold = wait_seconds(query)
        except ValueError as error:
            self._error(400, str(error))
            return
        job = self.manager.get(job_id)
        if job is None:
            self._error(404, f"unknown job {job_id!r}")
            return
        if hold > 0 and not job.finished:
            self.app._count("waits_held")
            self.manager.hold(job, hold)
        self._send(200, job.snapshot())

    def _result(self, job_id: str) -> None:
        job = self.manager.get(job_id)
        if job is None:
            self._error(404, f"unknown job {job_id!r}")
            return
        if job.state == DONE:
            self._send(
                200,
                {
                    "job": job.id,
                    "state": job.state,
                    "wall_time_seconds": job.wall_time,
                    "results": job.results,
                },
            )
        elif job.state == FAILED:
            self._send(500, {"job": job.id, "state": job.state, "error": job.error})
        else:
            # Not a client error and not a server error yet: the job simply
            # is not finished.  409 keeps it distinct from both.
            self._send(409, {"job": job.id, "state": job.state})


class ReproServer:
    """`ThreadingHTTPServer` + :class:`JobManager`, wired for graceful drain.

    ``port=0`` binds an ephemeral port (tests); the bound address is
    available as :attr:`host`/:attr:`port`/:attr:`url` immediately after
    construction.  Use :meth:`serve_forever` for the CLI foreground path
    (optionally with :meth:`install_signal_handlers`) or
    :meth:`start_background` + :meth:`stop` from tests and examples.
    """

    def __init__(
        self,
        manager: JobManager,
        host: str = "127.0.0.1",
        port: int = 0,
        default_config: str = "scaled",
        verbose: bool = False,
    ):
        self.manager = manager
        self.default_config = default_config
        self.verbose = verbose
        self._http = _HTTPServer((host, port), _Handler)
        self._http.app = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._lock = threading.Lock()
        self._connections: set[socket.socket] = set()
        self._counts = {
            "connections_opened": 0,
            "requests_served": 0,
            "waits_held": 0,
        }

    # ---------------------------------------------------------------- address
    @property
    def host(self) -> str:
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        return self._http.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def stopping(self) -> bool:
        return self._stopping.is_set()

    # ---------------------------------------------------------------- traffic
    def http_metrics(self) -> dict:
        """The ``http`` section of ``GET /metrics``: connections opened and
        open now, requests served and status requests held."""
        with self._lock:
            return {**self._counts, "connections_open": len(self._connections)}

    def _count(self, name: str) -> None:
        with self._lock:
            self._counts[name] += 1

    def _opened(self, connection: socket.socket) -> None:
        with self._lock:
            self._counts["connections_opened"] += 1
            self._connections.add(connection)
            late = self._stopping.is_set()
        if late:
            _stop_reading(connection)

    def _closed(self, connection: socket.socket) -> None:
        with self._lock:
            self._connections.discard(connection)

    # -------------------------------------------------------------- lifecycle
    def serve_forever(self) -> None:
        """Serve until :meth:`shutdown`; then drain the job manager.

        Drain order matters: the listener closes first so no new work can
        arrive, then every already-accepted job completes, then the workers
        join.  Only after that does this return — "SIGTERM exits 0" means
        "with no job half-done".
        """
        self.manager.start()
        try:
            self._http.serve_forever(poll_interval=0.1)
        finally:
            self._http.server_close()
            self.manager.shutdown(drain=True)

    def shutdown(self) -> None:
        """Stop serving (idempotent, callable from any thread).

        Held waits answer at once and every open connection stops reading,
        so no client keeps talking to a handler of a stopped server: an
        idle kept-alive connection ends now, a busy one after its response
        (which says ``Connection: close``).  ``HTTPServer.shutdown`` blocks
        until ``serve_forever`` exits, which deadlocks when called from a
        handler or signal context running on the serving thread — so the
        whole stop runs on a one-shot helper thread.
        """
        if self._stopping.is_set():
            return
        self._stopping.set()
        threading.Thread(target=self._stop, daemon=True).start()

    def _stop(self) -> None:
        self.manager.release_holds()
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            _stop_reading(connection)
        self._http.shutdown()

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to a graceful drain (main thread only)."""

        def _handle(signum, frame):  # noqa: ARG001 - signal signature
            self.shutdown()

        signal.signal(signal.SIGTERM, _handle)
        signal.signal(signal.SIGINT, _handle)

    # In-process embedding (tests, examples) -------------------------------
    def start_background(self) -> None:
        """Run :meth:`serve_forever` on a daemon thread."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 30.0) -> None:
        """Shut down a background server and wait for the drain to finish."""
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def __enter__(self) -> "ReproServer":
        self.start_background()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


__all__ = ["ReproServer"]
