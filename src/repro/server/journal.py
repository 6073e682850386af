"""The ``repro serve`` submission journal: accepted jobs survive a crash.

The daemon's queue is in memory, so without a journal a ``SIGKILL`` silently
drops every accepted-but-unfinished job — the client got a 202 and a job id,
and the work evaporates.  :class:`SubmissionJournal` closes that hole with
an append-only JSONL log: each event is one JSON object per line, flushed
and fsynced, so a crashed daemon (SIGKILL included) leaves at most one torn
final line, and replay skips a torn or otherwise undecodable line, because
an event that never hit the disk whole never happened.

* at **admission** (inside the manager lock, before the job is enqueued or
  registered) an ``accepted`` line records the job id, job key, and the
  submission's versioned wire form
  (:meth:`~repro.server.submission.ParsedSubmission.wire`);
* at **completion** a ``done`` / ``failed`` line marks the job terminal.

On startup :meth:`repro.server.jobs.JobManager.recover` replays the journal
and re-enqueues every accepted job without a terminal record, under its
original job id so clients polling across the restart keep working.  The
journal stores *submissions*, not results: a recovered job re-executes
through the session, where every point already durable in the
content-addressed result store is a cache hit — zero repeated simulations
and byte-identical store entries, which is what the durability tests pin.

One journal file per replica (``serve/journal-<replica>.jsonl`` under the
store root) keeps writers single-process; cross-replica dedup is the claim
markers' job (:meth:`~repro.experiments.backends.StoreBackend.acquire_claim`),
not the journal's.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.common.faults import fire_point

#: Subdirectory of the store root holding per-replica serve journals.
SERVE_DIR = "serve"

#: Events that mark a journaled job terminal (no recovery needed).
TERMINAL_EVENTS = ("done", "failed", "skipped")


class SubmissionJournal:
    """Crash-durable record of accepted submissions (see module docstring).

    The write handle opens lazily on the first :meth:`record` and stays
    open until :meth:`close`; replay reads are independent of the handle,
    so a restarted daemon can replay a journal another process still
    writes.
    """

    def __init__(self, path: Path | str):
        self.path = Path(path)
        self._handle = None

    @classmethod
    def for_store(
        cls, store_root: Path | str, replica_id: str
    ) -> "SubmissionJournal":
        """The conventional journal location for a replica of a store."""
        return cls(Path(store_root) / SERVE_DIR / f"journal-{replica_id}.jsonl")

    def record(self, event: str, **fields) -> None:
        """Append one event line, with a ``serve.journal`` fault point.

        The fault point fires *before* the write so an armed directive
        models a journal that could not take the event (full disk, dead
        volume) — the admission path turns that into a 503, never into an
        accepted-and-unjournaled job.
        """
        fire_point("serve.journal")
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(json.dumps({"event": event, **fields}) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def replay(self) -> list[dict]:
        """Every intact event line, oldest first (a torn tail is skipped)."""
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return []
        events = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue  # torn write mid-line: the event never happened
            if isinstance(entry, dict) and "event" in entry:
                events.append(entry)
        return events

    def pending(self) -> list[dict]:
        """Accepted events with no terminal record, oldest first.

        Re-submissions of one job key reuse the original job id (dedup in
        :meth:`~repro.server.jobs.JobManager.submit`), so entries are
        deduplicated by job id with the latest ``accepted`` line winning.
        """
        accepted: dict[str, dict] = {}
        for entry in self.replay():
            job_id = entry.get("job")
            if not job_id:
                continue
            if entry["event"] == "accepted":
                accepted[job_id] = entry
            elif entry["event"] in TERMINAL_EVENTS:
                accepted.pop(job_id, None)
        return list(accepted.values())

    def counts(self) -> dict[str, int]:
        """Event-name histogram of the whole journal (report summaries)."""
        totals: dict[str, int] = {}
        for entry in self.replay():
            totals[entry["event"]] = totals.get(entry["event"], 0) + 1
        return totals


def journal_paths(store_root: Path | str) -> list[Path]:
    """Every replica journal under a store root, sorted by name."""
    directory = Path(store_root) / SERVE_DIR
    if not directory.is_dir():
        return []
    return sorted(directory.glob("journal-*.jsonl"))


def summarize_journals(store_root: Path | str) -> "str | None":
    """One human line about serve journals under a store, or ``None``.

    Used by ``repro report`` to surface daemon activity next to the store
    provenance line: replica count, accepted/terminal totals, and how many
    jobs a restarted daemon would recover.
    """
    paths = journal_paths(store_root)
    if not paths:
        return None
    accepted = terminal = pending = 0
    for path in paths:
        journal = SubmissionJournal(path)
        counts = journal.counts()
        accepted += counts.get("accepted", 0)
        terminal += sum(counts.get(event, 0) for event in TERMINAL_EVENTS)
        pending += len(journal.pending())
    return (
        f"serve journals: {len(paths)} replica(s), {accepted} accepted, "
        f"{terminal} terminal, {pending} pending recovery"
    )


__all__ = [
    "SERVE_DIR",
    "TERMINAL_EVENTS",
    "SubmissionJournal",
    "journal_paths",
    "summarize_journals",
]
