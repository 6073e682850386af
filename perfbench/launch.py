"""Instrumented launcher: ``python3 perfbench/launch.py <repro arguments>``.

Runs ``repro.cli.main.main`` exactly as ``python3 -m repro.cli <arguments>``
would, with one of two instruments chosen by the environment the harness
sets:

* ``PERFBENCH_SETUP``   file to write the set-up stamp to.  The first call
  into a ``Session`` work method writes ``time.monotonic()`` there and ends
  the process, so ``setup_s`` times repro's own set-up path: imports,
  argument parsing, configuration, token resolution, store and archive
  open.  CLOCK_MONOTONIC is system-wide, so the harness subtracts its launch
  stamp from it.
* ``PERFBENCH_SPANS``   directory the span files of the traced run are
  written to, with the layer wrappers of ``spans.py`` installed;
  ``PERFBENCH_T0`` is ``time.monotonic()`` at launch (the ``cli.startup``
  span starts when the process was launched, not when this file began
  running), ``PERFBENCH_PARENT`` the id of the harness span this process
  belongs to, and ``PERFBENCH_PROFILE`` an optional directory for the
  replay-only profile.
"""

import os
import sys
import time

#: ``Session`` methods through which every ``repro run``/``repro sweep``
#: command starts its work.
WORK_METHODS = ("plan", "execute", "run", "stream", "run_one", "sweep", "sweep_checkpointed")


def stop_at_first_work(stamp_path: str) -> None:
    """Patch the ``Session`` work methods to stamp the time and exit."""
    from repro.api.session import Session

    def accepts_work(*args, **kwargs):
        stamp = repr(time.monotonic())
        with open(stamp_path, "w", encoding="utf-8") as handle:
            handle.write(stamp + "\n")
        os._exit(0)

    for attr in WORK_METHODS:
        setattr(Session, attr, accepts_work)


def main() -> int:
    argv = sys.argv[1:]
    from repro.cli.main import main as repro_main

    setup = os.environ.get("PERFBENCH_SETUP")
    if setup:
        stop_at_first_work(setup)
        return repro_main(argv)

    import spans

    recorder = spans.Recorder(
        os.environ["PERFBENCH_SPANS"],
        os.environ.get("PERFBENCH_PARENT"),
        os.environ.get("PERFBENCH_PROFILE"),
    )
    spans.install(recorder, serve=argv[:1] == ["serve"])
    startup = recorder.open("cli.startup")
    startup[3] = float(os.environ["PERFBENCH_T0"])
    recorder.close(startup)
    span = recorder.open("cli.main")
    try:
        return repro_main(argv)
    finally:
        recorder.close(span)
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main())
