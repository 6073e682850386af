#!/usr/bin/env python3
"""Quickstart for the simulation service (`repro serve`).

The daemon in this repository turns the replay engine into a queryable
service: POST a declarative submission, get a content-addressed job id,
wait for it (one status request the daemon holds until the job ends),
fetch results.  Identical concurrent submissions are deduplicated
onto one running simulation, a full queue answers 429 with a Retry-After
estimate, and SIGTERM drains every accepted job before the process exits.

This example embeds the server in-process on an ephemeral port — exactly
what the test suite does — and talks to it over real HTTP with the
blocking :mod:`repro.client`.  Against a real daemon, start one with::

    repro serve --workers 2 --store /tmp/repro-store

and point :class:`~repro.client.ReproClient` (or ``repro submit --tiny
--wait``) at it.

Run with:  python examples/serve_quickstart.py
"""

from __future__ import annotations

import tempfile

from repro.api.session import Session
from repro.client import ReproClient
from repro.experiments.store import ResultStore
from repro.server import JobManager, ReproServer
from repro.sim.config import SimulatorConfig

SUBMISSION = {
    "benchmarks": ["tiny"],
    "policies": ["srrip", "lru", "trrip-1"],
    "label": "serve quickstart",
}


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as store_root:
        # Each worker thread gets its own Session over the shared store
        # root; the manager aggregates their cache counters for /metrics.
        manager = JobManager(
            session_factory=lambda: Session(
                config=SimulatorConfig.scaled(), store=ResultStore(store_root)
            ),
            workers=1,
            queue_size=8,
        )
        with ReproServer(manager, port=0) as server:
            print(f"serving on {server.url}")
            client = ReproClient(server.url)

            accepted = client.submit(SUBMISSION)
            print(
                f"accepted job {accepted['job']}: {accepted['points']} "
                f"point(s), state {accepted['state']}"
            )

            # An identical submission attaches to the same job instead of
            # simulating again — dedup is by content hash over the plan's
            # result-store run keys.
            again = client.submit(SUBMISSION)
            assert again["job"] == accepted["job"] and again["deduplicated"]
            print(f"identical resubmission attached to {again['job']}")

            client.wait(accepted["job"], timeout=300)
            payload = client.result(accepted["job"])
            print(f"{'benchmark':12s} {'policy':10s} {'IPC':>7s}")
            for entry in payload["results"]:
                print(
                    f"{entry['benchmark']:12s} {entry['policy']:10s} "
                    f"{entry['result']['ipc']:7.3f}"
                )

            metrics = client.metrics()
            jobs = metrics["jobs"]
            print(
                f"jobs: {jobs['submitted']} submitted, {jobs['deduped']} "
                f"deduplicated, {jobs['completed']} completed; store wrote "
                f"{metrics['store']['writes']} entr(y/ies)"
            )
            assert jobs["deduped"] == 1 and jobs["completed"] == 1
            # The wait was one held status request, and the client kept
            # one connection open for all of them.
            traffic = metrics["http"]
            print(
                f"http: {traffic['requests_served']} requests on "
                f"{traffic['connections_opened']} connection(s), "
                f"{traffic['waits_held']} wait(s) held"
            )
        print("server drained and stopped")


if __name__ == "__main__":
    main()
