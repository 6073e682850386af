"""The daemon's HTTP transport: held status requests, kept-alive
connections, traffic counters, and a fuzz of every route.

A client's wait is one status request that the server holds until the job
ends (``GET /jobs/<id>?wait=S``), sent over the one connection its thread
keeps open; a stopping server answers held requests at once and closes
every connection.  The fuzz drives an in-process
:class:`~repro.server.app.ReproServer` with random paths, query strings and
bodies: every answer must be JSON with a 2xx or 4xx status, in time, and
no handler may raise.
"""

from __future__ import annotations

import http.client
import json
import math
import socket
import statistics
import sys
import threading
import time
from urllib.parse import quote

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.session import Session
from repro.client import ConnectionFailed, ReproClient
from repro.common.errors import JobTimeout
from repro.experiments.store import ResultStore
from repro.server import JobManager, ReproServer
from repro.server.app import _Handler, wait_seconds
from repro.sim.config import SimulatorConfig
from repro.testing import wait_until

TINY = {"benchmarks": ["tiny"], "policies": ["lru", "trrip-1"]}


def make_manager(root, workers=1):
    def factory() -> Session:
        return Session(config=SimulatorConfig.scaled(), store=ResultStore(root))

    return JobManager(session_factory=factory, workers=workers, queue_size=8)


@pytest.fixture
def serve(tmp_path):
    """Start an in-process server over a ``workers``-thread manager."""
    servers = []

    def start(workers=1):
        server = ReproServer(make_manager(tmp_path / "store", workers), port=0)
        server.start_background()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.stop()


@pytest.fixture
def connect():
    """Make clients whose kept connections close at teardown."""
    clients = []

    def make(server, timeout=30):
        clients.append(ReproClient(server.url, timeout=timeout))
        return clients[-1]

    yield make
    for client in clients:
        client.close()


def raw_get(server, path, timeout=10.0):
    """One GET on its own connection: (status, headers, body, seconds)."""
    connection = http.client.HTTPConnection(server.host, server.port, timeout=timeout)
    try:
        started = time.monotonic()
        connection.request("GET", path)
        response = connection.getresponse()
        body = json.loads(response.read())
        seconds = time.monotonic() - started
        return response.status, dict(response.getheaders()), body, seconds
    finally:
        connection.close()


# ------------------------------------------------------------------- ?wait=
class TestWaitParameter:
    @pytest.mark.parametrize(
        "query, seconds",
        [
            ("", 0.0),
            ("other=1", 0.0),
            ("wait=-1", 0.0),
            ("wait=0.25", 0.25),
            ("wait=1e-9", 1e-9),
            ("wait=7&other=x", 7.0),
            ("wait=1000", 30.0),
        ],
    )
    def test_wait_is_clamped(self, query, seconds):
        assert wait_seconds(query) == seconds

    @pytest.mark.parametrize(
        "query",
        ["wait=", "wait=nan", "wait=NaN", "wait=inf", "wait=-inf", "wait=1e309",
         "wait=abc", "wait=0x10", "wait=1&wait=2"],
    )
    def test_bad_wait_values_are_rejected(self, query):
        with pytest.raises(ValueError, match="wait"):
            wait_seconds(query)

    def test_nan_wait_on_an_unfinished_job_is_a_prompt_400(self, serve, connect):
        server = serve(workers=0)
        job = connect(server).submit(TINY)["job"]
        status, _, body, seconds = raw_get(server, f"/jobs/{job}?wait=nan")
        assert status == 400 and "wait" in body["error"]
        assert seconds < 5


# ---------------------------------------------------------------- long-poll
class TestLongPoll:
    def test_wait_returns_when_the_job_finishes(self, serve, connect):
        server = serve(workers=0)
        client = connect(server)
        job = client.submit(TINY)["job"]
        threading.Timer(0.3, server.manager.start, args=(1,)).start()
        snapshot = client.wait(job, timeout=60)
        assert snapshot["state"] == "done"
        # One held status request spanned the whole wait.
        traffic = server.http_metrics()
        assert traffic["requests_served"] == 2
        assert traffic["waits_held"] == 1
        assert traffic["connections_opened"] == 1

    def test_a_waited_job_costs_three_requests_on_one_connection(self, serve, connect):
        server = serve()
        payload = connect(server).run(TINY, timeout=120)
        assert payload["state"] == "done"
        traffic = server.http_metrics()
        assert traffic["requests_served"] == 3  # submit, held status, result
        assert traffic["connections_opened"] == 1

    def test_finished_and_unknown_jobs_answer_at_once(self, serve, connect):
        server = serve()
        client = connect(server)
        job = client.submit(TINY)["job"]
        client.wait(job, timeout=120)
        status, _, body, seconds = raw_get(server, f"/jobs/{job}?wait=30")
        assert (status, body["state"]) == (200, "done") and seconds < 5
        status, _, _, seconds = raw_get(server, "/jobs/no-such-job?wait=30")
        assert status == 404 and seconds < 5

    def test_status_without_wait_answers_at_once(self, serve, connect):
        server = serve(workers=0)
        job = connect(server).submit(TINY)["job"]
        status, _, body, seconds = raw_get(server, f"/jobs/{job}")
        assert (status, body["state"]) == (200, "queued") and seconds < 5
        assert server.http_metrics()["waits_held"] == 0

    def test_a_polling_client_still_works(self, serve, connect):
        """A client that polls ``status`` without ``wait``, as clients did
        before the long-poll, still sees its job through."""
        server = serve()
        client = connect(server)
        job = client.submit(TINY)["job"]
        snapshot = wait_until(
            lambda: (s := client.status(job))["state"] in ("done", "failed") and s,
            timeout=120,
            poll=0.02,
        )
        assert snapshot["state"] == "done"
        assert len(client.result(job)["results"]) == 2
        assert server.http_metrics()["waits_held"] == 0

    def test_stopping_server_answers_held_waits(self, serve, connect):
        server = serve(workers=0)
        job = connect(server).submit(TINY)["job"]
        answers = []
        holder = threading.Thread(
            target=lambda: answers.append(raw_get(server, f"/jobs/{job}?wait=30", 20))
        )
        holder.start()
        wait_until(lambda: server.http_metrics()["waits_held"] == 1)
        server.stop()
        holder.join(20)
        assert not holder.is_alive()
        [(status, headers, body, seconds)] = answers
        assert (status, body["state"]) == (200, "queued")
        assert headers["Connection"] == "close"
        assert seconds < 15

    def test_wait_does_not_spin_on_early_answers(self, serve, connect):
        """Held requests that come back early and unfinished (a stopping
        server) are paced by ``poll``, not re-sent in a tight loop."""
        server = serve(workers=0)
        client = connect(server)
        job = client.submit(TINY)["job"]
        server.manager.release_holds()
        with pytest.raises(JobTimeout, match=job):
            client.wait(job, timeout=1.0, poll=0.2)
        assert server.http_metrics()["requests_served"] <= 10


# --------------------------------------------------------------- keep-alive
class TestKeepAlive:
    def test_responses_keep_the_connection_alive(self, serve):
        server = serve(workers=0)
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            for path in ("/healthz", "/metrics", "/jobs"):
                connection.request("GET", path)
                response = connection.getresponse()
                response.read()
                assert response.getheader("Connection") == "keep-alive"
        finally:
            connection.close()
        assert server.http_metrics()["connections_opened"] == 1

    def test_a_get_with_a_body_closes_its_connection(self, serve):
        """No route reads a GET body, so its bytes must not be taken for
        the connection's next request."""
        server = serve(workers=0)
        request = b"GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 3\r\n\r\nxyz"
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(request)
            received = []
            while chunk := sock.recv(65536):
                received.append(chunk)
        data = b"".join(received)
        [(status, _, _)] = split_responses(data)
        assert status == 200 and b"Connection: close" in data

    def test_client_keeps_one_connection_per_thread(self, serve, connect):
        server = serve(workers=0)
        client = connect(server)
        for _ in range(3):
            client.health()
        assert server.http_metrics()["connections_opened"] == 1
        other = threading.Thread(target=client.health)
        other.start()
        other.join(30)
        assert not other.is_alive()
        assert server.http_metrics()["connections_opened"] == 2

    def test_kept_requests_leave_without_nagle_delay(self, serve, connect):
        """A submit is two writes (head, body): without TCP_NODELAY on both
        ends each kept-alive round trip waits ~40 ms for a delayed ACK."""
        server = serve(workers=0)
        client = connect(server)
        job = client.submit(TINY)["job"]
        rounds = []
        for _ in range(20):
            started = time.monotonic()
            client.submit(TINY)  # deduplicated: a POST with a body
            client.status(job)
            rounds.append(time.monotonic() - started)
        assert server.http_metrics()["connections_opened"] == 1
        assert statistics.median(rounds) < 0.03

    def test_idle_connections_are_closed(self, serve, connect, monkeypatch):
        monkeypatch.setattr(_Handler, "timeout", 0.3)
        server = serve(workers=0)
        client = connect(server)
        client.health()
        wait_until(lambda: server.http_metrics()["connections_open"] == 0, timeout=10)
        # The client finds its kept connection closed and sends again.
        assert client.health() == {"status": "ok"}
        assert server.http_metrics()["connections_opened"] == 2

    def test_stop_closes_kept_connections(self, serve, connect):
        server = serve(workers=0)
        client = connect(server, timeout=5)
        client.health()
        assert server.http_metrics()["connections_open"] == 1
        server.stop()
        wait_until(lambda: server.http_metrics()["connections_open"] == 0, timeout=10)
        started = time.monotonic()
        with pytest.raises(ConnectionFailed):
            client.health()
        assert time.monotonic() - started < 5


# -------------------------------------------------------------- concurrency
class TestConcurrentClients:
    def test_every_request_and_held_wait_is_counted(self, serve, connect):
        """More client threads than cores, switching every microsecond,
        share one client: each gets its own connection, no request or held
        wait goes uncounted, and every wait held on one job returns when it
        finishes."""
        threads, requests = 8, 25
        server = serve(workers=0)
        job = connect(server).submit(TINY)["job"]
        shared = connect(server)
        snapshots = []

        def work():
            for _ in range(requests):
                shared.health()
            snapshots.append(shared.wait(job, timeout=60))

        workers = [threading.Thread(target=work) for _ in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            wait_until(
                lambda: server.http_metrics()["waits_held"] == threads, timeout=60
            )
            server.manager.start(1)
            for worker in workers:
                worker.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert [snapshot["state"] for snapshot in snapshots] == ["done"] * threads
        traffic = server.http_metrics()
        assert traffic["requests_served"] == 1 + threads * (requests + 1)
        assert traffic["connections_opened"] == 1 + threads
        assert traffic["waits_held"] == threads


# ------------------------------------------------------------------ metrics
class TestTrafficMetrics:
    def test_metrics_gain_an_http_section(self, serve, connect):
        server = serve(workers=0)
        metrics = connect(server).metrics()
        assert metrics["http"] == {
            "connections_opened": 1,
            "connections_open": 1,
            "requests_served": 1,
            "waits_held": 0,
        }
        # The manager's own payload keeps its keys.
        assert set(server.manager.metrics()) == {
            "uptime_seconds", "jobs", "durability", "job_wall_time", "store", "traces",
        }


# --------------------------------------------------------------------- fuzz
#: Slack on top of a request's hold before its answer counts as late.
LATE = 5.0


@pytest.fixture(scope="module")
def fuzz_server(tmp_path_factory):
    """A server whose one job stays queued (no workers), recording every
    exception a handler lets escape instead of printing it."""
    manager = make_manager(tmp_path_factory.mktemp("fuzz") / "store", workers=0)
    server = ReproServer(manager, port=0)
    server.errors = []

    def record(request, client_address):
        server.errors.append(sys.exc_info()[1])

    server._http.handle_error = record
    server.start_background()
    with ReproClient(server.url, timeout=30) as client:
        server.queued = client.submit(TINY)["job"]
    yield server
    server.stop()


def expected_hold(value: str) -> float:
    """What the server should hold a status request for, given ``wait``."""
    try:
        seconds = float(value)
    except ValueError:
        return 0.0
    return min(max(seconds, 0.0), 30.0) if math.isfinite(seconds) else 0.0


segments = st.text(max_size=10).map(lambda text: quote(text, safe=""))
job_refs = st.one_of(
    st.sampled_from(["{queued}", "no-such-job", "", "..", "%2e%2e", "{queued}x"]),
    segments,
)
paths = st.one_of(
    job_refs.map(lambda job: f"/jobs/{job}"),
    job_refs.map(lambda job: f"/jobs/{job}/result"),
    st.sampled_from(
        ["/", "/jobs", "/jobs/", "/healthz", "/metrics", "//jobs", "/jobs//result"]
    ),
    st.lists(segments, max_size=4).map(lambda parts: "/" + "/".join(parts)),
)
# Holds stay short (<= 0.2 s) so the fuzz stays fast; the clamp to 30 s is
# pinned by TestWaitParameter.
wait_values = st.one_of(
    st.sampled_from(
        ["-1", "nan", "NaN", "inf", "-inf", "1e309", "", "abc", "0x10", "0", "1e-9",
         " 0.1"]
    ),
    st.floats(min_value=-1.0, max_value=0.2).map(repr),
    st.text(max_size=6).filter(lambda text: expected_hold(text) <= 0.2),
)
params = st.lists(
    st.one_of(st.tuples(st.just("wait"), wait_values), st.tuples(segments, segments)),
    max_size=3,
)


def check_answer(status: int, content_type: str, body: bytes) -> None:
    assert 200 <= status < 500, (status, body)
    assert content_type == "application/json", content_type
    assert isinstance(json.loads(body), dict), body


#: Examples per fuzz test; each answers within its own deadline instead of
#: hypothesis's.
FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestFuzzGet:
    @FUZZ
    @given(path=paths, query=params)
    def test_every_answer_is_json_in_time(self, fuzz_server, path, query):
        path = path.replace("{queued}", fuzz_server.queued)
        encoded = "&".join(f"{name}={quote(value, safe='')}" for name, value in query)
        target = f"{path}?{encoded}" if query else path
        waits = [value for name, value in query if name == "wait"]
        hold = expected_hold(waits[0]) if len(waits) == 1 else 0.0
        connection = http.client.HTTPConnection(
            fuzz_server.host, fuzz_server.port, timeout=hold + LATE
        )
        try:
            started = time.monotonic()
            connection.request("GET", target)
            response = connection.getresponse()
            body = response.read()
            seconds = time.monotonic() - started
        finally:
            connection.close()
        check_answer(response.status, response.getheader("Content-Type"), body)
        assert seconds < hold + LATE
        assert fuzz_server.errors == []


def split_responses(data: bytes) -> list[tuple[int, str, bytes]]:
    """(status, content type, body) of each response in a byte stream."""
    answers = []
    while data:
        head, _, rest = data.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines[1:])
        length = int(headers["Content-Length"])
        status = int(lines[0].split()[1])
        answers.append((status, headers["Content-Type"], rest[:length]))
        data = rest[length:]
    return answers


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=8),
)
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)
submission_fields = st.sampled_from(
    ["benchmarks", "policies", "config", "cores", "interleave", "track_reuse",
     "warmup_instructions", "measure_instructions", "label", "v", "options"]
)
bodies = st.one_of(
    st.dictionaries(submission_fields, json_values, max_size=4).map(
        lambda payload: json.dumps(payload).encode()
    ),
    st.fixed_dictionaries(
        {"benchmarks": st.lists(st.sampled_from(["tiny", "sqlite", "zipf", "?"]))},
        optional={"policies": st.lists(st.sampled_from(["lru", "srrip", "x"]))},
    ).map(lambda payload: json.dumps(payload).encode()),
    json_values.map(lambda value: json.dumps(value).encode()),
    st.binary(max_size=64),
    st.sampled_from([b"", b"{", b"[" * 5000, b"\xff\xfe", b"null"]),
)
lengths = st.one_of(
    st.none(),
    st.integers(min_value=-5, max_value=120).map(str),
    st.sampled_from(["", "abc", "1e3", "99999999999", "-1", " 12 "]),
)


post_paths = st.sampled_from(["/jobs", "/jobs/", "/jobs?wait=1", "/nope"])


class TestFuzzPost:
    @FUZZ
    @given(path=post_paths, body=bodies, length=lengths)
    def test_every_answer_is_json_in_time(self, fuzz_server, path, body, length):
        """The body ends where the client stops sending (its write side
        shuts), whatever Content-Length says."""
        if length is None:
            length = str(len(body))
        request = (
            f"POST {path} HTTP/1.1\r\nHost: fuzz\r\nContent-Type: application/json\r\n"
            f"Content-Length: {length}\r\n\r\n"
        ).encode() + body
        started = time.monotonic()
        with socket.create_connection(
            (fuzz_server.host, fuzz_server.port), timeout=LATE
        ) as sock:
            sock.sendall(request)
            sock.shutdown(socket.SHUT_WR)
            received = []
            while chunk := sock.recv(65536):
                received.append(chunk)
        assert time.monotonic() - started < LATE
        answers = split_responses(b"".join(received))
        assert answers
        for status, content_type, payload in answers:
            check_answer(status, content_type, payload)
        assert fuzz_server.errors == []
