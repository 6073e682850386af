"""Pluggable storage backends for the result store.

The :class:`~repro.experiments.store.ResultStore` used to be welded to one
layout — JSON files under ``runs/<k0k1>/<key>.json``.  Everything above it
(the runner, the session, the sweep scheduler, the ``repro serve`` daemon)
only ever needs four operations, so those four are the whole backend
interface:

* :meth:`StoreBackend.load` — the JSON payload stored under a key, ``None``
  on a miss; damaged bytes are **quarantined** (moved aside, never silently
  deleted) and reported by raising :class:`CorruptEntry`;
* :meth:`StoreBackend.save` — atomically overwrite a key with a payload;
* :meth:`StoreBackend.keys` / :meth:`StoreBackend.quarantined` — enumerate
  live and quarantined entries of a namespace (ops introspection, tests,
  ``/metrics``).

On top of storage, every backend also implements **cross-process claim
markers** — the coordination primitive that lets N ``repro serve`` replicas
share one store without executing a job twice:

* :meth:`StoreBackend.acquire_claim` — atomically claim a key for an owner
  with a heartbeat TTL.  Returns ``"acquired"`` (free or already ours),
  ``"adopted"`` (another owner's claim had *expired* — its replica crashed
  or wedged, and we took the work over), or ``"held"`` (another owner's
  claim is still live);
* :meth:`StoreBackend.renew_claim` — the heartbeat: extend our claim's
  expiry; returns ``False`` when the claim is no longer ours (someone
  adopted it after we missed heartbeats);
* :meth:`StoreBackend.release_claim` — drop our claim (idempotent, never
  touches a claim we do not own);
* :meth:`StoreBackend.claims` — enumerate live markers (ops introspection).

Claims are advisory leases, not locks: expiry is wall-clock (``time.time``)
so a claim survives exactly as long as its owner keeps heartbeating, and a
SIGKILLed owner's claim simply times out.  The ``dir`` backend serializes
claim mutations with an ``flock`` on ``claims/.lock``; the ``sqlite``
backend uses an immediate transaction.  Both are exercised by the
multi-replica tests in ``tests/test_server_durability.py``.

Namespaces (``"runs"``, ``"reports"``) keep one backend instance shared by
the run cache and the report cache.  Two backends ship:

``dir``
    The historical one-file-per-entry layout, byte-identical to what every
    previous release wrote: atomic ``os.replace`` renames, corrupt entries
    moved to ``<key>.corrupt``.
``sqlite``
    A single ``store.sqlite3`` database under the same root (stdlib
    :mod:`sqlite3`; no new dependencies), one row per entry plus a
    ``quarantine`` table.  Every call opens a short-lived connection, so a
    backend instance is safe to share across threads, fork into pool
    workers, and pickle.

Both are proven interchangeable by running the store test suite against
each (``tests/test_store.py`` parametrises every store-backed test over
both names).  Selection: the ``backend=`` argument, else the
``REPRO_STORE_BACKEND`` environment variable, else ``dir``.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from abc import ABC, abstractmethod
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.common.errors import ConfigurationError

if TYPE_CHECKING:
    import sqlite3

try:  # POSIX only; claims degrade to best-effort without it
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

#: Environment variable naming the default backend (CLI: ``--store-backend``).
ENV_VAR = "REPRO_STORE_BACKEND"

#: Namespaces that shard entries into ``<k0k1>/`` fan-out directories (their
#: keys are content hashes; report names stay flat and human-readable).
SHARDED_SPACES = ("runs",)


class CorruptEntry(Exception):
    """A stored payload failed to decode.

    Raised by :meth:`StoreBackend.load` *after* the damaged bytes have been
    quarantined, so the caller's retry (a re-simulation plus
    :meth:`StoreBackend.save`) lands in a clean slot while the damage stays
    inspectable.
    """


class StoreBackend(ABC):
    """Storage engine behind a :class:`~repro.experiments.store.ResultStore`."""

    #: Registry name (``"dir"``, ``"sqlite"``); set by subclasses.
    name: str

    def __init__(self, root: Path | str):
        self.root = Path(root)

    @abstractmethod
    def load(self, space: str, key: str) -> Optional[dict]:
        """The payload stored under ``(space, key)``, or ``None`` on a miss.

        Damaged entries are quarantined and reported as :class:`CorruptEntry`.
        """

    @abstractmethod
    def save(self, space: str, key: str, payload: dict) -> None:
        """Atomically overwrite ``(space, key)`` with ``payload``."""

    @abstractmethod
    def keys(self, space: str) -> list[str]:
        """Every live key in ``space``, sorted."""

    @abstractmethod
    def quarantined(self, space: str) -> list[str]:
        """Every quarantined key in ``space``, sorted."""

    # ---------------------------------------------------------------- claims
    @abstractmethod
    def acquire_claim(
        self, key: str, owner: str, ttl: float, now: "float | None" = None
    ) -> str:
        """Atomically claim ``key`` for ``owner`` until ``now + ttl``.

        Returns ``"acquired"`` (the key was free, or already ours — the call
        is re-entrant and doubles as a renew), ``"adopted"`` (another
        owner's claim had expired and we took it over), or ``"held"``
        (another owner's claim is still live; nothing was written).
        """

    @abstractmethod
    def renew_claim(
        self, key: str, owner: str, ttl: float, now: "float | None" = None
    ) -> bool:
        """Heartbeat: extend our claim on ``key``; ``False`` if not ours."""

    @abstractmethod
    def release_claim(self, key: str, owner: str) -> None:
        """Drop our claim on ``key`` (idempotent; never touches others')."""

    @abstractmethod
    def claims(self) -> dict[str, dict]:
        """Live claim markers: ``{key: {"owner", "expires"}}``."""

    @staticmethod
    def _claim_decision(
        current: "dict | None", owner: str, now: float
    ) -> "str | None":
        """Shared lease arbitration for :meth:`acquire_claim`.

        ``"acquired"``/``"adopted"`` mean *write the new marker*;
        ``None`` means the claim is held by a live other owner (report
        ``"held"``, write nothing).
        """
        if current is None or current.get("owner") == owner:
            return "acquired"
        try:
            expires = float(current.get("expires", 0.0))
        except (TypeError, ValueError):
            expires = 0.0  # a damaged marker is treated as expired
        if expires <= now:
            return "adopted"
        return None

    def describe(self) -> str:
        """One-line human-readable identity for CLI summaries."""
        return f"{self.root} [{self.name}]"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({str(self.root)!r})"


class DirBackend(StoreBackend):
    """One JSON file per entry — the historical on-disk layout, unchanged.

    Safe to share between processes: entries are written to a temporary file
    and atomically renamed into place, and racing writers for one key write
    byte-identical content (simulations are deterministic).
    """

    name = "dir"

    def path_for(self, space: str, key: str) -> Path:
        if space in SHARDED_SPACES:
            return self.root / space / key[:2] / f"{key}.json"
        return self.root / space / f"{key}.json"

    def load(self, space: str, key: str) -> Optional[dict]:
        path = self.path_for(space, key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except OSError:
            # Missing or unreadable entries are plain misses.
            return None
        except ValueError as error:
            # Damaged JSON (torn write, disk corruption): quarantine out of
            # the way so the re-run's atomic rewrite lands in a clean slot.
            try:
                os.replace(path, path.with_suffix(".corrupt"))
            except OSError:  # racing workers quarantined it already
                return None
            raise CorruptEntry(f"{space}/{key}: {error}") from error

    def save(self, space: str, key: str, payload: dict) -> None:
        path = self.path_for(space, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=1)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def keys(self, space: str) -> list[str]:
        pattern = "*/*.json" if space in SHARDED_SPACES else "*.json"
        return sorted(path.stem for path in (self.root / space).glob(pattern))

    def quarantined(self, space: str) -> list[str]:
        pattern = "*/*.corrupt" if space in SHARDED_SPACES else "*.corrupt"
        return sorted(path.stem for path in (self.root / space).glob(pattern))

    # ---------------------------------------------------------------- claims
    #
    # One ``claims/<key>.claim`` JSON marker per claimed key.  All mutations
    # run under an ``flock`` on ``claims/.lock`` so a read-modify-write
    # (check the current lease, then replace it) is atomic across processes
    # on one host; the marker file itself is written with the same tmp +
    # ``os.replace`` discipline as entries, so readers never see torn JSON.

    def _claims_dir(self) -> Path:
        return self.root / "claims"

    def _claim_path(self, key: str) -> Path:
        return self._claims_dir() / f"{key}.claim"

    def _claim_lock(self):
        """Context manager holding the cross-process claims mutex."""
        directory = self._claims_dir()
        directory.mkdir(parents=True, exist_ok=True)
        handle = open(directory / ".lock", "a+")
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        return handle

    def _read_claim(self, key: str) -> Optional[dict]:
        try:
            with open(self._claim_path(key), "r", encoding="utf-8") as handle:
                marker = json.load(handle)
        except (OSError, ValueError):
            return None
        return marker if isinstance(marker, dict) else None

    def _write_claim(self, key: str, marker: dict) -> None:
        path = self._claim_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(marker, handle)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def acquire_claim(
        self, key: str, owner: str, ttl: float, now: "float | None" = None
    ) -> str:
        now = time.time() if now is None else now
        with self._claim_lock():
            decision = self._claim_decision(self._read_claim(key), owner, now)
            if decision is None:
                return "held"
            self._write_claim(
                key, {"owner": owner, "expires": now + ttl, "claimed": now}
            )
            return decision

    def renew_claim(
        self, key: str, owner: str, ttl: float, now: "float | None" = None
    ) -> bool:
        now = time.time() if now is None else now
        with self._claim_lock():
            current = self._read_claim(key)
            if current is None or current.get("owner") != owner:
                return False
            current["expires"] = now + ttl
            self._write_claim(key, current)
            return True

    def release_claim(self, key: str, owner: str) -> None:
        with self._claim_lock():
            current = self._read_claim(key)
            if current is None or current.get("owner") != owner:
                return
            try:
                os.unlink(self._claim_path(key))
            except OSError:
                pass

    def claims(self) -> dict[str, dict]:
        markers: dict[str, dict] = {}
        directory = self._claims_dir()
        if not directory.is_dir():
            return markers
        for path in sorted(directory.glob("*.claim")):
            try:
                marker = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            if isinstance(marker, dict):
                markers[path.name[: -len(".claim")]] = marker
        return markers


class SQLiteBackend(StoreBackend):
    """Every entry in one ``store.sqlite3`` database under the root.

    Writes run in their own transaction (an ``INSERT OR REPLACE`` is the
    atomic-overwrite equivalent of the dir backend's rename), and each call
    opens a short-lived connection, so one backend instance can be shared
    across threads and forked into pool workers.  Corrupt payloads move to
    the ``quarantine`` table, mirroring the ``*.corrupt`` convention.
    """

    name = "sqlite"

    #: Database filename under the store root.
    FILENAME = "store.sqlite3"

    @property
    def database_path(self) -> Path:
        return self.root / self.FILENAME

    def _connect(self) -> sqlite3.Connection:
        import sqlite3

        self.root.mkdir(parents=True, exist_ok=True)
        connection = sqlite3.connect(self.database_path, timeout=30.0)
        connection.execute(
            "CREATE TABLE IF NOT EXISTS entries ("
            " space TEXT NOT NULL, key TEXT NOT NULL, payload TEXT NOT NULL,"
            " PRIMARY KEY (space, key))"
        )
        connection.execute(
            "CREATE TABLE IF NOT EXISTS quarantine ("
            " space TEXT NOT NULL, key TEXT NOT NULL, payload TEXT NOT NULL,"
            " PRIMARY KEY (space, key))"
        )
        connection.execute(
            "CREATE TABLE IF NOT EXISTS claims ("
            " key TEXT PRIMARY KEY, owner TEXT NOT NULL,"
            " expires REAL NOT NULL, claimed REAL NOT NULL)"
        )
        return connection

    def load(self, space: str, key: str) -> Optional[dict]:
        import sqlite3

        try:
            with self._connect() as connection:
                row = connection.execute(
                    "SELECT payload FROM entries WHERE space = ? AND key = ?",
                    (space, key),
                ).fetchone()
        except sqlite3.Error:
            # An unreadable/locked-out database is a plain miss, exactly like
            # an unreadable file in the dir backend.
            return None
        if row is None:
            return None
        try:
            return json.loads(row[0])
        except ValueError as error:
            with self._connect() as connection:
                connection.execute(
                    "INSERT OR REPLACE INTO quarantine (space, key, payload)"
                    " VALUES (?, ?, ?)",
                    (space, key, row[0]),
                )
                connection.execute(
                    "DELETE FROM entries WHERE space = ? AND key = ?",
                    (space, key),
                )
            raise CorruptEntry(f"{space}/{key}: {error}") from error

    def save(self, space: str, key: str, payload: dict) -> None:
        text = json.dumps(payload, indent=1)
        with self._connect() as connection:
            connection.execute(
                "INSERT OR REPLACE INTO entries (space, key, payload)"
                " VALUES (?, ?, ?)",
                (space, key, text),
            )

    def keys(self, space: str) -> list[str]:
        with self._connect() as connection:
            rows = connection.execute(
                "SELECT key FROM entries WHERE space = ? ORDER BY key", (space,)
            ).fetchall()
        return [row[0] for row in rows]

    def quarantined(self, space: str) -> list[str]:
        with self._connect() as connection:
            rows = connection.execute(
                "SELECT key FROM quarantine WHERE space = ? ORDER BY key",
                (space,),
            ).fetchall()
        return [row[0] for row in rows]

    # ---------------------------------------------------------------- claims
    #
    # One row per claimed key.  ``BEGIN IMMEDIATE`` takes the database write
    # lock up front so the read-modify-write (inspect the lease, then
    # replace it) is atomic across replicas sharing the file.

    def acquire_claim(
        self, key: str, owner: str, ttl: float, now: "float | None" = None
    ) -> str:
        now = time.time() if now is None else now
        with self._connect() as connection:
            connection.execute("BEGIN IMMEDIATE")
            row = connection.execute(
                "SELECT owner, expires FROM claims WHERE key = ?", (key,)
            ).fetchone()
            current = (
                None if row is None else {"owner": row[0], "expires": row[1]}
            )
            decision = self._claim_decision(current, owner, now)
            if decision is None:
                return "held"
            connection.execute(
                "INSERT OR REPLACE INTO claims (key, owner, expires, claimed)"
                " VALUES (?, ?, ?, ?)",
                (key, owner, now + ttl, now),
            )
            return decision

    def renew_claim(
        self, key: str, owner: str, ttl: float, now: "float | None" = None
    ) -> bool:
        now = time.time() if now is None else now
        with self._connect() as connection:
            cursor = connection.execute(
                "UPDATE claims SET expires = ? WHERE key = ? AND owner = ?",
                (now + ttl, key, owner),
            )
            return cursor.rowcount > 0

    def release_claim(self, key: str, owner: str) -> None:
        with self._connect() as connection:
            connection.execute(
                "DELETE FROM claims WHERE key = ? AND owner = ?", (key, owner)
            )

    def claims(self) -> dict[str, dict]:
        with self._connect() as connection:
            rows = connection.execute(
                "SELECT key, owner, expires, claimed FROM claims ORDER BY key"
            ).fetchall()
        return {
            row[0]: {"owner": row[1], "expires": row[2], "claimed": row[3]}
            for row in rows
        }

    def describe(self) -> str:
        return f"{self.database_path} [{self.name}]"


#: Registered backends by name, in catalog order.
BACKENDS: dict[str, type[StoreBackend]] = {
    DirBackend.name: DirBackend,
    SQLiteBackend.name: SQLiteBackend,
}


def backend_names() -> tuple[str, ...]:
    return tuple(BACKENDS)


def default_backend_name() -> str:
    """``$REPRO_STORE_BACKEND`` if set, else ``dir``."""
    return os.environ.get(ENV_VAR) or DirBackend.name


def open_backend(
    name: "str | StoreBackend | None", root: Path | str
) -> StoreBackend:
    """Resolve a backend selection into an instance rooted at ``root``.

    ``name`` may be a backend name, an already-built instance (adopted
    as-is), or ``None`` for the environment/default selection.  Unknown
    names fail eagerly with the valid choices.
    """
    if isinstance(name, StoreBackend):
        return name
    wanted = name or default_backend_name()
    backend_type = BACKENDS.get(wanted)
    if backend_type is None:
        raise ConfigurationError(
            f"unknown store backend {wanted!r}; expected one of "
            f"{', '.join(backend_names())}"
        )
    return backend_type(root)
