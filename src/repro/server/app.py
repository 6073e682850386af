"""The HTTP face of the ``repro serve`` daemon.

Stdlib-only by design (``http.server.ThreadingHTTPServer``): the service
brings no new dependencies, and its concurrency needs are modest — request
handling is thin (validate, enqueue, snapshot) while all heavy work happens
on the :class:`~repro.server.jobs.JobManager` worker threads.

Endpoints::

    POST /jobs              submit a scenario     -> 202 {job, state, ...}
                            invalid payload       -> 400 {error[, token]}
                            queue full            -> 429 + Retry-After
                            draining / journal
                            unavailable           -> 503 {error}
    GET  /jobs              enumerate all jobs    -> 200 {jobs: [...]}
    GET  /jobs/<id>         status snapshot       -> 200 / 404
    GET  /jobs/<id>/result  results when done     -> 200
                            job failed            -> 500 {error: {...}}
                            not finished yet      -> 409 {state}
    GET  /healthz           liveness              -> 200 {status: "ok"}
    GET  /metrics           counters              -> 200 (see JobManager.metrics)

Every response body is compact JSON.  SIGTERM/SIGINT trigger a graceful drain:
the listener stops accepting, every accepted job finishes, workers join,
then :meth:`ReproServer.serve_forever` returns (the CLI exits 0).  The
handlers never call ``HTTPServer.shutdown`` directly from a serving thread
— it would deadlock ``serve_forever`` — so the signal path hops through a
one-shot helper thread.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.common.errors import ReproError
from repro.common.hashing import compact_json
from repro.server.jobs import (
    DONE,
    FAILED,
    JobManager,
    QueueFullError,
    ShuttingDownError,
)
from repro.server.submission import SubmissionError, parse_submission


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto the owning server's job manager."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"

    # --------------------------------------------------------------- plumbing
    @property
    def manager(self) -> JobManager:
        return self.server.app.manager  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.app.verbose:  # type: ignore[attr-defined]
            super().log_message(format, *args)

    def _send(
        self, status: int, payload: dict, headers: Optional[dict] = None
    ) -> None:
        body = compact_json(payload).encode("utf-8") + b"\n"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(
        self, status: int, message: str, headers: Optional[dict] = None
    ) -> None:
        self._send(status, {"error": message}, headers)

    # ----------------------------------------------------------------- routes
    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        if self.path.rstrip("/") != "/jobs":
            self._error(404, f"unknown endpoint {self.path!r}")
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length) or b"null")
        except (ValueError, TypeError):
            self._error(400, "request body must be valid JSON")
            return
        try:
            parsed = parse_submission(
                payload, default_config=self.server.app.default_config
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
        path = self.path.rstrip("/") or "/"
        if path == "/healthz":
            self._send(200, {"status": "ok"})
            return
        if path == "/metrics":
            self._send(200, self.manager.metrics())
            return
        if path == "/jobs":
            self._send(200, {"jobs": self.manager.jobs_snapshot()})
            return
        parts = path.strip("/").split("/")
        if parts[0] == "jobs" and len(parts) == 2:
            self._status(parts[1])
            return
        if parts[0] == "jobs" and len(parts) == 3 and parts[2] == "result":
            self._result(parts[1])
            return
        self._error(404, f"unknown endpoint {self.path!r}")

    def _status(self, job_id: str) -> None:
        job = self.manager.get(job_id)
        if job is None:
            self._error(404, f"unknown job {job_id!r}")
            return
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
        self._http = ThreadingHTTPServer((host, port), _Handler)
        self._http.daemon_threads = True
        self._http.app = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()

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
        """Stop the listener (idempotent, callable from any thread).

        ``HTTPServer.shutdown`` blocks until ``serve_forever`` exits, which
        deadlocks when called from a handler or signal context running on
        the serving thread — so it always runs on a one-shot helper thread.
        """
        if self._stopping.is_set():
            return
        self._stopping.set()
        threading.Thread(target=self._http.shutdown, daemon=True).start()

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
