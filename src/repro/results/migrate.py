"""Schema creation and upgrade for the results warehouse.

:func:`ensure_schema` brings a warehouse connection to the current
:data:`~repro.results.schema.SCHEMA_VERSION`.  Rows written by a
*different* version are never read: they are counted, dropped and
reported by the caller, so a stale cache is loud rather than silently
replayed.
"""

from __future__ import annotations

import sqlite3

from repro.results.schema import (
    CREATE_INDEXES,
    CREATE_META,
    CREATE_RESULTS,
    SCHEMA_VERSION,
)


def ensure_schema(conn: sqlite3.Connection, fingerprint: str) -> int:
    """Create or upgrade the schema; returns dropped-row count.

    A version mismatch drops the results table (the payloads were
    pickled against another layout and cannot be trusted) — the caller
    counts and reports the loss.  ``fingerprint`` (the opening
    process's model fingerprint) is recorded in ``meta``.  An open that
    finds both already current writes nothing: the tables and indexes
    were created in the transaction that stamped the version.
    """
    conn.execute("BEGIN IMMEDIATE")
    try:
        conn.execute(CREATE_META)
        stored = dict(conn.execute("SELECT key, value FROM meta").fetchall())
        dropped = 0
        version = stored.get("schema_version")
        if version is None or int(version) != SCHEMA_VERSION:
            if version is not None:
                try:
                    dropped = conn.execute(
                        "SELECT COUNT(*) FROM results"
                    ).fetchone()[0]
                except sqlite3.DatabaseError:
                    dropped = 0
                conn.execute("DROP TABLE IF EXISTS results")
            conn.execute(CREATE_RESULTS)
            for statement in CREATE_INDEXES:
                conn.execute(statement)
            _set_meta(conn, "schema_version", str(SCHEMA_VERSION))
        if stored.get("model_fingerprint") != fingerprint:
            _set_meta(conn, "model_fingerprint", fingerprint)
        conn.commit()
    except sqlite3.DatabaseError:
        conn.rollback()
        raise
    return dropped


def _set_meta(conn: sqlite3.Connection, key: str, value: str) -> None:
    conn.execute(
        "INSERT INTO meta (key, value) VALUES (?, ?)"
        " ON CONFLICT (key) DO UPDATE SET value = excluded.value",
        (key, value),
    )
