"""Simulation-as-a-service: the ``repro serve`` daemon.

The Session layer, the content-hash result store and the trace archive are
already process-safe and dedup-aware; this package puts an HTTP front end on
them so the replay engine becomes a queryable service instead of a CLI
someone runs:

* :mod:`repro.server.jobs` — the in-process execution core: a bounded job
  queue, N worker threads running submissions through
  :class:`~repro.api.session.Session`, in-flight deduplication by content
  hash (identical concurrent submissions attach to one running simulation),
  explicit backpressure and graceful drain;
* :mod:`repro.server.submission` — the JSON submission protocol: payload
  validation, Scenario construction, and the job content key derived from
  the same :func:`~repro.experiments.store.run_key` hashes the result store
  uses;
* :mod:`repro.server.app` — the stdlib ``ThreadingHTTPServer`` API layer
  (``POST /jobs``, ``GET /jobs``, ``GET /jobs/<id>``,
  ``GET /jobs/<id>/result``, ``GET /healthz``, ``GET /metrics``) plus
  SIGTERM/SIGINT drain;
* :mod:`repro.server.journal` — the crash-durable submission journal:
  accepted jobs are recorded before they are enqueued and re-enqueued by
  :meth:`~repro.server.jobs.JobManager.recover` after a restart, so a
  ``SIGKILL`` never silently drops a promised job.

Cross-replica coordination (N daemons over one shared store executing each
job key exactly once) rides on the store backends' claim markers —
:meth:`~repro.experiments.backends.StoreBackend.acquire_claim` and friends.

The matching blocking client lives in :mod:`repro.client`; the CLI wires
everything up as ``repro serve`` / ``repro submit`` / ``repro status`` /
``repro result``.  Everything is stdlib-only — no new dependencies.
"""

from repro.common.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".jobs": ("Job", "JobManager", "QueueFullError", "ShuttingDownError"),
        ".app": ("ReproServer",),
        ".submission": ("SubmissionError", "parse_submission"),
        ".journal": ("SubmissionJournal", "summarize_journals"),
    },
)
