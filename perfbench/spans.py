"""In-process span recorder and the layer wrappers of the traced run.

Imported only by ``launch.py`` (the traced launcher), inside a ``repro``
process.  :func:`install` patches each layer's public entry points with a
wrapper that records one span per call: name, start, end, parent span and
run key, plus a few counts taken from the call's arguments or return value.
Spans stay in memory and are written out as JSON lines when the process
ends, or after each sweep unit in a forked worker (which leaves through
``os._exit`` and never runs exit handlers).

With a profile directory, the replay entry points also run under one
per-process ``cProfile`` profiler, enabled only while replay is on the
stack; that pass is separate from the timed span pass because the profiler
distorts what it measures.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from pathlib import Path

#: Names of the replay spans: the profiler runs only inside these.
REPLAY_SPANS = ("sim.solo", "sim.lockstep", "sim.multicore")


class Recorder:
    """Spans of one process, kept in memory until :meth:`flush`."""

    def __init__(self, out_dir, root_parent=None, profile_dir=None):
        self.out_dir = Path(out_dir)
        self.root_parent = root_parent
        self.profile_dir = Path(profile_dir) if profile_dir else None
        self.main_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset_in_child)

    def _reset(self):
        self.pid = os.getpid()
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._profiler = None
        self._replay_depth = 0

    def _reset_in_child(self):
        # The forking thread's open spans stay the parents of the child's
        # spans, so worker units nest under the sweep that spawned them.
        stack = list(self._stack())
        self._reset()
        self._local.stack = stack
        self._local.inherited = len(stack)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else self.root_parent
        span_id = f"{self.pid}.{next(self._ids)}"
        stack.append(span_id)
        if self.profile_dir is not None and name in REPLAY_SPANS:
            self._replay_depth += 1
            if self._replay_depth == 1:
                if self._profiler is None:
                    self._profiler = cProfile.Profile()
                self._profiler.enable()
        return [span_id, parent, name, time.monotonic(), None, None, {}]

    def close(self, span, key=None, attrs=None):
        span[4] = time.monotonic()
        span[5] = key
        if attrs:
            span[6] = attrs
        if self.profile_dir is not None and span[2] in REPLAY_SPANS:
            self._replay_depth -= 1
            if self._replay_depth == 0:
                self._profiler.disable()
        stack = self._stack()
        stack.pop()
        self.spans.append(span)
        if self.pid != self.main_pid and len(stack) == getattr(
            self._local, "inherited", 0
        ):
            self.flush()

    def flush(self):
        """Append the buffered spans (and the profile, if any) to disk."""
        if self.spans:
            path = self.out_dir / f"spans-{self.pid}.jsonl"
            with open(path, "a", encoding="utf-8") as handle:
                for span in self.spans:
                    handle.write(json.dumps(span) + "\n")
            self.spans = []
        if self._profiler is not None:
            self._profiler.dump_stats(str(self.profile_dir / f"prof-{self.pid}.pstats"))


def _wrap(recorder, owner, attr, name, key=None, attrs=None):
    """Replace ``owner.attr`` with a span-recording wrapper."""
    original = getattr(owner, attr)
    if inspect.isgeneratorfunction(original):

        @functools.wraps(original)
        def generator_wrapper(*args, **kwargs):
            # One span per resumption: the consumer's work between yields
            # belongs to the caller, not to this layer.
            iterator = original(*args, **kwargs)
            while True:
                span = recorder.open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    recorder.close(span)
                    return
                except BaseException:
                    recorder.close(span, attrs={"error": 1})
                    raise
                recorder.close(span)
                yield item

        setattr(owner, attr, generator_wrapper)
        return

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = original(*args, **kwargs)
        except BaseException:
            recorder.close(span, attrs={"error": 1})
            raise
        recorder.close(
            span,
            key(args) if key else None,
            attrs(args, result) if attrs else None,
        )
        return result

    setattr(owner, attr, wrapper)


def _length(trace):
    try:
        return len(trace)
    except TypeError:
        return 0


def _hit(args, result):
    return {"hit": 1} if result is not None else {"miss": 1}


def _spec_key(args):
    return getattr(args[1], "name", str(args[1]))


def _store_key(args):
    return args[1]


def _plan_counts(args, plan):
    return {"points": len(plan.requests), "unique_points": len(plan.unique)}


def install(recorder, serve=False):
    """Patch every traced entry point (``serve`` adds the server's)."""
    from repro.api import session as session_mod
    from repro.core.pipeline import CoDesignPipeline
    from repro.experiments import runner as runner_mod
    from repro.experiments import sweep as sweep_mod
    from repro.experiments.store import ResultStore
    from repro.sim import simulator as simulator_mod
    from repro.sim.multicore import MulticoreSimulator
    from repro.workloads.capture import TraceArchive
    from repro.workloads.tracegen import TraceGenerator

    wrap = functools.partial(_wrap, recorder)
    # Bound at import time in cli/main.py: patch where it is looked up
    # (``repro.cli.main`` is also the name of the function it defines).
    wrap(importlib.import_module("repro.cli.main"), "to_jsonable", "cli.serialize")

    Session = session_mod.Session
    wrap(Session, "plan", "api.plan", attrs=_plan_counts)
    for attr in ("execute", "stream", "sweep", "sweep_checkpointed"):
        wrap(Session, attr, "api." + attr)

    Runner = runner_mod.BenchmarkRunner
    for attr in ("run_resolved", "_run_resolved", "run_lockstep_resolved"):
        wrap(Runner, attr, "runner." + attr.lstrip("_"), key=_spec_key)
    for attr in ("run_cores_resolved", "run_points"):
        wrap(Runner, attr, "runner." + attr)

    # Bound at import time in sweep.py: patch where they are looked up.
    wrap(sweep_mod, "execute_checkpointed", "sweep.execute")
    wrap(sweep_mod, "_run_sweep_unit", "sweep.unit")

    wrap(CoDesignPipeline, "prepare", "pipeline.prepare", key=_spec_key)
    wrap(
        TraceGenerator,
        "take_packed",
        "tracegen.take_packed",
        attrs=lambda a, r: {"instructions": a[1]},
    )
    wrap(TraceArchive, "load", "capture.load", key=_spec_key, attrs=_hit)
    wrap(TraceArchive, "save", "capture.save", key=_spec_key)

    for attr in ("load_run", "load_multicore"):
        wrap(ResultStore, attr, "store.get", key=_store_key, attrs=_hit)
    wrap(ResultStore, "load_report", "store.get_report", key=_store_key)
    for attr in ("save_run", "save_multicore"):
        wrap(ResultStore, attr, "store.put", key=_store_key)
    wrap(ResultStore, "save_report", "store.put_report", key=_store_key)

    for attr in ("warm_up", "run"):
        wrap(
            simulator_mod.SystemSimulator,
            attr,
            "sim.solo",
            attrs=lambda a, r: {"instructions": _length(a[1])},
        )
    # Imported at call time by the runner, so the module attribute is it.
    wrap(
        simulator_mod,
        "run_lockstep",
        "sim.lockstep",
        attrs=lambda a, r: {
            "instructions": len(a[0]) * (_length(a[1]) + _length(a[2]))
        },
    )
    for attr in ("warm_up", "run"):
        wrap(
            MulticoreSimulator,
            attr,
            "sim.multicore",
            attrs=lambda a, r: {"instructions": sum(_length(t) for t in a[1])},
        )

    if serve:
        from repro.server import app as app_mod
        from repro.server import submission as submission_mod
        from repro.server.jobs import JobManager
        from repro.server.journal import SubmissionJournal

        wrap(app_mod, "parse_submission", "server.parse")
        wrap(submission_mod, "build_plan", "api.plan", attrs=_plan_counts)
        wrap(
            JobManager,
            "submit",
            "server.submit",
            attrs=lambda a, r: {"deduped": int(r[1])},
        )
        wrap(SubmissionJournal, "record", "server.journal")
        wrap(JobManager, "_execute", "server.exec")
