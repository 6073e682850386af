"""Shared helpers for the test suite and the benchmark harness.

``tests/conftest.py`` and ``benchmarks/conftest.py`` used to duplicate the
request constructors and store/config/session builders; both now import
them from here.  Everything in this module is plain library code (no pytest
dependency), so examples and ad-hoc scripts can reuse it too.

This module is also the public face of the **fault-injection harness**: the
engine itself only depends on the import-light implementation in
:mod:`repro.common.faults` (the store cannot import this module without a
cycle), and the names tests care about — :class:`FaultPlan`,
:func:`fire_point`, :data:`REPRO_FAULTS_ENV`, :func:`corrupt_file` — are
re-exported here.

It also hosts :func:`equivalence_policy_names`, the policy axis the
behavioural equivalence suites (``tests/test_flat_equivalence.py`` and the
packed-vs-record replay harness ``tests/test_vector_equivalence.py``) sweep.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.api.session import Session
from repro.cache.cache import SetAssociativeCache
from repro.cache.replacement.basic import LRUPolicy
from repro.cache.replacement.rrip import SRRIPPolicy
from repro.common.faults import (
    ENV_VAR as REPRO_FAULTS_ENV,
)
from repro.common.faults import (
    KILL_EXIT_CODE,
    FaultDirective,
    FaultPlan,
    active_plan,
    corrupt_file,
    fire_point,
    reset_fault_counters,
)
from repro.common.request import AccessType, MemoryRequest
from repro.common.temperature import Temperature
from repro.experiments.store import ResultStore
from repro.sim.config import SimulatorConfig

__all__ = [
    "AccessType",
    "FaultDirective",
    "FaultPlan",
    "KILL_EXIT_CODE",
    "MemoryRequest",
    "REPRO_FAULTS_ENV",
    "Temperature",
    "active_plan",
    "corrupt_file",
    "damage_store_entry",
    "data_load",
    "data_store",
    "equivalence_policy_names",
    "fire_point",
    "instruction",
    "make_request",
    "make_session",
    "make_store",
    "read_quarantined_entry",
    "read_raw_entry",
    "reset_fault_counters",
    "small_lru_cache",
    "small_srrip_cache",
    "wait_until",
    "write_raw_entry",
]


# ------------------------------------------------------------------ requests
def make_request(
    address: int,
    access_type: AccessType = AccessType.INSTRUCTION_FETCH,
    temperature: Temperature = Temperature.NONE,
    pc: int = 0,
    starvation_hint: bool = False,
    is_prefetch: bool = False,
) -> MemoryRequest:
    """Convenience request constructor used across the suite."""
    return MemoryRequest(
        address=address,
        access_type=access_type,
        pc=pc or address,
        temperature=temperature,
        starvation_hint=starvation_hint,
        is_prefetch=is_prefetch,
    )


def instruction(address: int, temperature: Temperature = Temperature.NONE, **kw):
    return make_request(address, AccessType.INSTRUCTION_FETCH, temperature, **kw)


def data_load(address: int, **kw):
    return make_request(address, AccessType.DATA_LOAD, **kw)


def data_store(address: int, **kw):
    return make_request(address, AccessType.DATA_STORE, **kw)


# -------------------------------------------------------------------- caches
def small_lru_cache() -> SetAssociativeCache:
    """A 4-set, 2-way LRU cache (512 B) for unit tests."""
    policy = LRUPolicy(num_sets=4, num_ways=2)
    return SetAssociativeCache("test-l1", 512, 2, policy)


def small_srrip_cache() -> SetAssociativeCache:
    """A 4-set, 4-way SRRIP cache (1 kB) for unit tests."""
    policy = SRRIPPolicy(num_sets=4, num_ways=4)
    return SetAssociativeCache("test-l2", 1024, 4, policy)


# ----------------------------------------------------------- store / session
def make_store(
    root: Path | str | None,
    refresh: bool = False,
    backend: "str | None" = None,
) -> Optional[ResultStore]:
    """A :class:`ResultStore` rooted at ``root``, or ``None`` when no root
    is given (callers treat that as "store disabled")."""
    if not root:
        return None
    return ResultStore(root, refresh=refresh, backend=backend)


def damage_store_entry(
    store: ResultStore, key: str, space: str = "runs", text: str = "{torn"
) -> None:
    """Overwrite a stored payload with undecodable bytes, backend-agnostically.

    The corruption tests poke damage *behind* the store (a torn write, bit
    rot) and assert the quarantine behaviour.
    """
    write_raw_entry(store, key, text, space)


def write_raw_entry(
    store: ResultStore, key: str, text: str, space: str = "runs"
) -> None:
    """Replace the stored text of an existing entry, backend-agnostically.

    This and :func:`read_raw_entry` are the one place that knows how to
    reach each backend's storage directly — a file for ``dir``, an SQL row
    for ``sqlite`` — so the tests that damage entries or write them in an
    older format stay layout-free and run against every backend unchanged.
    """
    from repro.experiments.backends import DirBackend, SQLiteBackend

    backend = store.backend
    if isinstance(backend, DirBackend):
        backend.path_for(space, key).write_text(text, encoding="utf-8")
    elif isinstance(backend, SQLiteBackend):
        with backend._connect() as connection:
            connection.execute(
                "UPDATE entries SET payload = ? WHERE space = ? AND key = ?",
                (text, space, key),
            )
    else:  # pragma: no cover - future backends must teach this helper
        raise NotImplementedError(f"cannot write entries of {backend!r}")


def read_raw_entry(store: ResultStore, key: str, space: str = "runs") -> str:
    """The stored text of an entry, backend-agnostically."""
    from repro.experiments.backends import DirBackend, SQLiteBackend

    backend = store.backend
    if isinstance(backend, DirBackend):
        return backend.path_for(space, key).read_text(encoding="utf-8")
    if isinstance(backend, SQLiteBackend):
        with backend._connect() as connection:
            row = connection.execute(
                "SELECT payload FROM entries WHERE space = ? AND key = ?",
                (space, key),
            ).fetchone()
        return row[0]
    raise NotImplementedError(  # pragma: no cover
        f"cannot read entries of {backend!r}"
    )


def read_quarantined_entry(
    store: ResultStore, key: str, space: str = "runs"
) -> Optional[str]:
    """The quarantined raw payload for ``key``, or ``None`` if not present."""
    from repro.experiments.backends import DirBackend, SQLiteBackend

    backend = store.backend
    if isinstance(backend, DirBackend):
        path = backend.path_for(space, key).with_suffix(".corrupt")
        if not path.exists():
            return None
        return path.read_text(encoding="utf-8")
    if isinstance(backend, SQLiteBackend):
        with backend._connect() as connection:
            row = connection.execute(
                "SELECT payload FROM quarantine WHERE space = ? AND key = ?",
                (space, key),
            ).fetchone()
        return None if row is None else row[0]
    raise NotImplementedError(  # pragma: no cover
        f"cannot read quarantine of {backend!r}"
    )


def wait_until(
    predicate,
    timeout: float = 10.0,
    poll: float = 0.02,
    message: str = "condition not met",
):
    """Poll ``predicate`` until truthy; returns its value.

    The standard test-side rendezvous with asynchronous daemon state (a job
    entering ``running``, a ready-file appearing, a second replica catching
    up): bounded, cheap, and failing with ``message`` instead of hanging
    the suite.
    """
    import time

    deadline = time.monotonic() + timeout
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() >= deadline:
            raise AssertionError(f"{message} (after {timeout}s)")
        time.sleep(poll)


def make_session(
    config: Optional[SimulatorConfig] = None,
    store_root: Path | str | None = None,
    refresh: bool = False,
    trace_root: Path | str | None = None,
) -> Session:
    """A scaled-config :class:`~repro.api.session.Session`, optionally
    store-backed and/or trace-archived — the standard execution context in
    tests/benchmarks."""
    return Session(
        config=config or SimulatorConfig.scaled(),
        store=make_store(store_root, refresh=refresh),
        traces=str(trace_root) if trace_root else None,
    )


# ------------------------------------------------- differential-test fixtures
def equivalence_policy_names() -> tuple[str, ...]:
    """Every registered replacement policy, in deterministic order.

    The shared axis of the behavioural differential suites: the flat-array
    cache vs the object-per-block reference (``tests/test_flat_equivalence``)
    and packed vs record replay (``tests/test_vector_equivalence``) both sweep
    exactly this list, so a newly registered policy is automatically pulled
    into every equivalence harness.
    """
    from repro.cache.replacement.spec import policy_names

    return tuple(sorted(policy_names()))
