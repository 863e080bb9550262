"""The results warehouse: a concurrent-writer-safe SQLite sweep store.

The disk layer under :class:`repro.harness.sweep.SweepRunner`.  Rows
are keyed by the digest of ``"<func>:<key>"`` (for scenario grids the
key is the canonical spec hash) and live in one schema-versioned SQLite
file:

- **WAL + ``BEGIN IMMEDIATE``** — parallel sweep workers, a second CI
  run and ``results query`` can share one warehouse: writers queue on
  the busy timeout instead of corrupting each other, readers never
  block.
- **Counted failures** — an unreadable payload, a torn row or a
  schema-version mismatch increments :attr:`corrupt` and emits a
  one-line warning; it is *never* silently conflated with a miss.
- **Typed columns** — the :class:`~repro.core.job.JobReport` metric
  surface (phase seconds, per-rank/staging/startup percentiles,
  engine, distribution label) plus spec JSON, git commit and
  timestamps, so stored sweeps are queryable and diffable across
  commits (:mod:`repro.results.query`).
- **Model fingerprint** — every row records :func:`model_fingerprint`,
  a hash of the simulator's sources; a row written by other code reads
  as a miss, so a model change never replays stale numbers.
- **Stored answers** — scenario and workload rows keep the service's
  result document as canonical JSON (:meth:`ResultsWarehouse.load_document`).

Rows written by older versions may lack their ``func``/``result_key``
metadata; :meth:`ResultsWarehouse.load` backfills it on the first hit.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sqlite3
import subprocess
import warnings
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path

from repro.errors import ConfigError
from repro.results.schema import (
    CREATE_INDEXES,
    CREATE_META,
    CREATE_RESULTS,
    DOCUMENT_KINDS,
    PRAGMAS,
    SCHEMA_VERSION,
    WAREHOUSE_FILENAME,
    document_from_columns,
    encode_document,
    extract_columns,
    row_as_dict,
)


def cache_key(func_name: str, key: str) -> str:
    """The row digest for a (function, point-key) pair."""
    return hashlib.sha256(f"{func_name}:{key}".encode()).hexdigest()


@lru_cache(maxsize=1)
def current_commit() -> "str | None":
    """The git commit to stamp rows with (env override, then git)."""
    for env in ("PYNAMIC_REPRO_COMMIT", "GITHUB_SHA"):
        value = os.environ.get(env)
        if value:
            return value
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


@lru_cache(maxsize=1)
def model_fingerprint() -> str:
    """sha256 of the simulator's sources, computed once per process.

    Hashes every ``*.py`` file of the ``repro`` package, in sorted
    relative-path order, path and bytes both, so any change to the code
    that produced a row (or a file added or removed) changes the value.
    """
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def resolve_warehouse_path(location: "str | os.PathLike[str]") -> str:
    """Map a ``cache_dir``-style location to the warehouse DB path.

    A directory (existing or to-be-created) holds the DB as
    ``warehouse.sqlite3`` inside it; a path that already names a file
    (or ends in a SQLite suffix) is used verbatim, so CLI users can
    point straight at a DB file.
    """
    path = os.fspath(location)
    if os.path.isfile(path) or path.endswith((".sqlite3", ".sqlite", ".db")):
        return path
    return os.path.join(path, WAREHOUSE_FILENAME)


class ResultsWarehouse:
    """One SQLite-backed store of evaluated sweep grid points.

    Opening is lazy and fork-aware: the connection is (re)established
    on first use in each process, so a runner forked into worker
    processes never shares a SQLite handle across the fork boundary.
    """

    def __init__(
        self, path: "str | os.PathLike[str]", readonly: bool = False
    ) -> None:
        self.path = resolve_warehouse_path(path)
        #: Read-only stores open the DB with a ``mode=ro`` URI: they
        #: never create files, never take write locks, and (under WAL)
        #: never queue behind a busy writer pool — the contract the
        #: service's query endpoints rely on.  A missing DB file is an
        #: empty store, not an error.
        self.readonly = readonly
        parent = os.path.dirname(self.path)
        if parent and not readonly:
            os.makedirs(parent, exist_ok=True)
        self._conn: sqlite3.Connection | None = None
        self._pid = -1
        #: The schema version a read-only handle found on open.
        self._version: "int | None" = None
        #: Rows that existed but could not be read back: unpicklable
        #: payloads, torn rows, schema-version mismatches.  Never folded
        #: into cache misses.
        self.corrupt = 0
        #: Rows written (inserts and overwrites).
        self.writes = 0

    @classmethod
    def for_cache_dir(
        cls,
        cache_dir: "str | os.PathLike[str]",
        readonly: bool = False,
    ) -> "ResultsWarehouse":
        """Open the warehouse of a sweep ``cache_dir`` (or of a
        ``.sqlite3`` file named directly)."""
        return cls(cache_dir, readonly=readonly)

    # -- connection management --------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        if self._conn is not None and self._pid == os.getpid():
            return self._conn
        self._conn = None
        self._pid = os.getpid()
        if self.readonly:
            self._conn = self._open()
            return self._conn
        try:
            self._conn = self._open()
        except sqlite3.DatabaseError:
            # The file exists but is not a readable database: rebuild
            # it, and count the loss.
            self._quarantine("not a SQLite database")
            self._conn = self._open()
        return self._conn

    def _connect_opt(self) -> "sqlite3.Connection | None":
        """The connection, or None for a read-only store whose DB file
        does not exist yet (an empty store, not an error)."""
        if self.readonly and not os.path.exists(self.path):
            return None
        return self._connect()

    def _open(self) -> sqlite3.Connection:
        if self.readonly:
            from urllib.parse import quote

            uri = f"file:{quote(os.path.abspath(self.path))}?mode=ro"
            conn = sqlite3.connect(uri, uri=True, timeout=30.0)
            conn.row_factory = sqlite3.Row
            conn.isolation_level = None
            try:
                # No write pragmas: journal_mode/synchronous belong to
                # the writer; query_only hard-fails any stray write.
                conn.execute("PRAGMA query_only=ON")
                conn.execute("PRAGMA busy_timeout=30000")
                self._check_schema_readonly(conn)
            except sqlite3.DatabaseError:
                conn.close()
                raise
            return conn
        conn = sqlite3.connect(self.path, timeout=30.0)
        conn.row_factory = sqlite3.Row
        # Autocommit mode: transactions are explicit BEGIN IMMEDIATE
        # blocks below, never the driver's implicit ones.
        conn.isolation_level = None
        try:
            for pragma in PRAGMAS:
                conn.execute(pragma)
            self._ensure_schema(conn)
        except sqlite3.DatabaseError:
            conn.close()
            raise
        return conn

    def _check_schema_readonly(self, conn: sqlite3.Connection) -> None:
        """Read-only opens record the version instead of migrating: the
        typed columns of any version can be queried, but only the current
        version serves cached results (:meth:`_cache_conn`)."""
        try:
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
        except sqlite3.OperationalError as exc:
            raise ConfigError(
                f"results warehouse {self.path} has no schema "
                f"({exc}); open it read-write once to initialize"
            ) from exc
        self._version = int(row["value"]) if row is not None else None

    def _cache_conn(self) -> "sqlite3.Connection | None":
        """The connection for the cache surface; a read-only handle on a
        warehouse of another schema version is an explicit error."""
        conn = self._connect_opt()
        if conn is not None and self.readonly and self._version != SCHEMA_VERSION:
            raise ConfigError(
                f"results warehouse {self.path} is schema version "
                f"{self._version}, expected {SCHEMA_VERSION}; open it "
                f"read-write once to migrate"
            )
        return conn

    def _ensure_schema(self, conn: sqlite3.Connection) -> None:
        from repro.results.migrate import ensure_schema

        dropped = ensure_schema(conn, model_fingerprint())
        if dropped:
            self.corrupt += dropped
            warnings.warn(
                f"results warehouse {self.path}: dropped {dropped} row(s) "
                f"written by another schema version (counted as corrupt)",
                stacklevel=4,
            )

    def _quarantine(self, reason: str) -> None:
        """Discard an unreadable warehouse file and count it."""
        self.corrupt += 1
        warnings.warn(
            f"results warehouse {self.path} is unreadable ({reason}); "
            f"rebuilding it — prior rows are lost and will recompute",
            stacklevel=4,
        )
        for suffix in ("", "-wal", "-shm"):
            try:
                os.unlink(self.path + suffix)
            except OSError:
                pass

    def close(self) -> None:
        if self._conn is not None and self._pid == os.getpid():
            self._conn.close()
        self._conn = None

    def __enter__(self) -> "ResultsWarehouse":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the cache surface the sweep runner drives -------------------------
    def load(self, func_name: str, key: str) -> "object | None":
        """The stored result for a grid point, or None on a miss.

        A row written under another :func:`model_fingerprint` is a miss:
        the caller recomputes and its store overwrites the row.  A row
        whose payload cannot be unpickled (report classes moved on, torn
        write survived a crash) is deleted, counted in :attr:`corrupt`
        and reported — the caller sees a miss and recomputes, but the
        poisoning is visible.
        """
        digest = cache_key(func_name, key)
        conn = self._cache_conn()
        if conn is None:
            return None
        try:
            row = conn.execute(
                "SELECT payload, func FROM results"
                " WHERE cache_key = ? AND model_fingerprint = ?",
                (digest, model_fingerprint()),
            ).fetchone()
        except sqlite3.DatabaseError as exc:
            conn.close()
            self._conn = None
            if self.readonly:
                raise
            self._quarantine(str(exc))
            return None
        if row is None:
            return None
        result = self._unpickle(conn, digest, row["payload"], func_name, key)
        if result is None:
            return None
        if row["func"] is None and not self.readonly:
            # A row written by an older version may carry no (func, key)
            # metadata — backfill it now that we know it.
            self._backfill(conn, digest, func_name, key)
        return result

    def load_by_result_key(self, result_key: str) -> "dict | None":
        """The newest current-model row whose ``result_key`` (spec hash)
        matches.

        Returns ``{"row": <row dict>, "result": <unpickled payload>}``
        or None.
        """
        conn = self._cache_conn()
        if conn is None:
            return None
        row = conn.execute(
            "SELECT * FROM results WHERE result_key = ?"
            " AND model_fingerprint = ?"
            " ORDER BY updated_at DESC, cache_key LIMIT 1",
            (result_key, model_fingerprint()),
        ).fetchone()
        if row is None:
            return None
        result = self._unpickle(
            conn, row["cache_key"], row["payload"], row["func"], result_key
        )
        if result is None:
            return None
        return {"row": row_as_dict(row), "result": result}

    def load_document(self, func_name: str, key: str) -> "str | None":
        """The stored result document of a scenario or workload point,
        as its canonical JSON text, or None on a miss — one SELECT by
        primary key, no unpickling.  The service's warm ``POST``."""
        conn = self._cache_conn()
        if conn is None:
            return None
        row = conn.execute(
            "SELECT document FROM results"
            " WHERE cache_key = ? AND model_fingerprint = ?",
            (cache_key(func_name, key), model_fingerprint()),
        ).fetchone()
        return None if row is None else row[0]

    def load_document_by_result_key(self, result_key: str) -> "dict | None":
        """The newest current-model row with a stored document whose
        ``result_key`` (spec hash) matches, as a dict of ``func``,
        ``kind``, ``git_commit``, ``created_at``, ``updated_at`` and
        ``document`` (canonical JSON text), or None.  The service's
        ``GET /v1/results/{spec_hash}``."""
        conn = self._cache_conn()
        if conn is None:
            return None
        row = conn.execute(
            "SELECT func, kind, git_commit, created_at, updated_at, document"
            " FROM results WHERE result_key = ? AND model_fingerprint = ?"
            " AND document IS NOT NULL"
            " ORDER BY updated_at DESC, cache_key LIMIT 1",
            (result_key, model_fingerprint()),
        ).fetchone()
        return None if row is None else dict(row)

    def _unpickle(
        self,
        conn: sqlite3.Connection,
        digest: str,
        payload: bytes,
        func_name: "str | None",
        key: str,
    ) -> "object | None":
        try:
            return pickle.loads(payload)
        except Exception as exc:
            self.corrupt += 1
            warnings.warn(
                f"results warehouse {self.path}: corrupt payload for "
                f"{func_name}:{key[:16]} ({type(exc).__name__}: {exc}); "
                f"recomputing",
                stacklevel=3,
            )
            if not self.readonly:
                self._delete(conn, digest)
            return None

    def store(
        self,
        func_name: str,
        key: str,
        result: object,
        spec_json: "str | None" = None,
    ) -> None:
        """Insert (or overwrite) one grid point's result.

        The write is one ``BEGIN IMMEDIATE`` transaction: the reserved
        lock is taken up front so two processes storing the same key
        serialize on the busy timeout instead of deadlocking, and a
        failure mid-write rolls back — no torn rows, no leaked temp
        files (the discipline the pickle layer's ``.tmp.<pid>`` writer
        lacked).
        """
        if self.readonly:
            raise ConfigError(
                f"results warehouse {self.path} is open read-only"
            )
        digest = cache_key(func_name, key)
        payload = pickle.dumps(result)
        columns = extract_columns(result)
        kind = DOCUMENT_KINDS.get(func_name)
        document = None
        if kind is not None:
            document = encode_document(
                document_from_columns(kind, key, result, columns)
            )
        metrics = columns.pop("metrics")
        now = _utcnow()
        conn = self._connect()
        try:
            conn.execute("BEGIN IMMEDIATE")
            conn.execute(
                """
                INSERT INTO results (
                    cache_key, func, result_key, kind, payload, spec_json,
                    engine, distribution, n_tasks, n_nodes, cold,
                    total_s, startup_s, import_s, visit_s, mpi_s,
                    total_p50, total_p95, total_max, total_skew_s,
                    startup_p50, startup_p95, startup_max, startup_skew_s,
                    staging_p50, staging_p95, staging_max, staging_skew_s,
                    metrics_json, document, model_fingerprint,
                    git_commit, created_at, updated_at
                ) VALUES (
                    :cache_key, :func, :result_key, :kind, :payload,
                    :spec_json,
                    :engine, :distribution, :n_tasks, :n_nodes, :cold,
                    :total_s, :startup_s, :import_s, :visit_s, :mpi_s,
                    :total_p50, :total_p95, :total_max, :total_skew_s,
                    :startup_p50, :startup_p95, :startup_max,
                    :startup_skew_s,
                    :staging_p50, :staging_p95, :staging_max,
                    :staging_skew_s,
                    :metrics_json, :document, :model_fingerprint,
                    :git_commit, :created_at, :updated_at
                )
                ON CONFLICT (cache_key) DO UPDATE SET
                    func = excluded.func,
                    result_key = excluded.result_key,
                    kind = excluded.kind,
                    payload = excluded.payload,
                    spec_json = COALESCE(excluded.spec_json, spec_json),
                    engine = excluded.engine,
                    distribution = excluded.distribution,
                    n_tasks = excluded.n_tasks,
                    n_nodes = excluded.n_nodes,
                    cold = excluded.cold,
                    total_s = excluded.total_s,
                    startup_s = excluded.startup_s,
                    import_s = excluded.import_s,
                    visit_s = excluded.visit_s,
                    mpi_s = excluded.mpi_s,
                    total_p50 = excluded.total_p50,
                    total_p95 = excluded.total_p95,
                    total_max = excluded.total_max,
                    total_skew_s = excluded.total_skew_s,
                    startup_p50 = excluded.startup_p50,
                    startup_p95 = excluded.startup_p95,
                    startup_max = excluded.startup_max,
                    startup_skew_s = excluded.startup_skew_s,
                    staging_p50 = excluded.staging_p50,
                    staging_p95 = excluded.staging_p95,
                    staging_max = excluded.staging_max,
                    staging_skew_s = excluded.staging_skew_s,
                    metrics_json = excluded.metrics_json,
                    document = excluded.document,
                    model_fingerprint = excluded.model_fingerprint,
                    git_commit = excluded.git_commit,
                    updated_at = excluded.updated_at
                """,
                {
                    "cache_key": digest,
                    "func": func_name,
                    "result_key": key,
                    "kind": type(result).__name__,
                    "payload": payload,
                    "spec_json": spec_json,
                    "metrics_json": json.dumps(metrics, sort_keys=True),
                    "document": document,
                    "model_fingerprint": model_fingerprint(),
                    "git_commit": current_commit(),
                    "created_at": now,
                    "updated_at": now,
                    **columns,
                },
            )
            conn.commit()
        except sqlite3.DatabaseError:
            conn.rollback()
            raise
        self.writes += 1

    def _backfill(
        self, conn: sqlite3.Connection, digest: str, func_name: str, key: str
    ) -> None:
        try:
            conn.execute("BEGIN IMMEDIATE")
            conn.execute(
                "UPDATE results SET func = ?, result_key = ?, updated_at = ?"
                " WHERE cache_key = ? AND func IS NULL",
                (func_name, key, _utcnow(), digest),
            )
            conn.commit()
        except sqlite3.OperationalError:
            conn.rollback()  # metadata enrichment only — never worth a retry

    def _delete(self, conn: sqlite3.Connection, digest: str) -> None:
        try:
            conn.execute("BEGIN IMMEDIATE")
            conn.execute("DELETE FROM results WHERE cache_key = ?", (digest,))
            conn.commit()
        except sqlite3.OperationalError:
            conn.rollback()

    # -- the query surface -------------------------------------------------
    def rows(
        self,
        func: "str | None" = None,
        engine: "str | None" = None,
        distribution: "str | None" = None,
        kind: "str | None" = None,
        commit: "str | None" = None,
        key_prefix: "str | None" = None,
    ) -> list[dict]:
        """Stored rows as dicts (payloads excluded), filtered by typed
        columns; ``key_prefix`` matches the result key (spec hash) or
        the row digest."""
        clauses, params = [], []
        for column, value in (
            ("func", func),
            ("engine", engine),
            ("distribution", distribution),
            ("kind", kind),
            ("git_commit", commit),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        if key_prefix:
            clauses.append("(result_key LIKE ? OR cache_key LIKE ?)")
            params.extend([f"{key_prefix}%", f"{key_prefix}%"])
        sql = "SELECT * FROM results"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY n_nodes, distribution, cache_key"
        conn = self._connect_opt()
        if conn is None:
            return []
        return [row_as_dict(row) for row in conn.execute(sql, params)]

    def __len__(self) -> int:
        conn = self._connect_opt()
        if conn is None:
            return 0
        return conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]

    @property
    def schema_version(self) -> int:
        row = self._connect().execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is None:
            raise ConfigError(
                f"results warehouse {self.path} has no schema version"
            )
        return int(row["value"])


# re-exported for callers that only need the DDL version
__all__ = [
    "ResultsWarehouse",
    "cache_key",
    "current_commit",
    "model_fingerprint",
    "resolve_warehouse_path",
    "SCHEMA_VERSION",
    "CREATE_META",
    "CREATE_RESULTS",
    "CREATE_INDEXES",
]
