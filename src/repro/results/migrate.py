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


def ensure_schema(conn: sqlite3.Connection) -> int:
    """Create or upgrade the schema; returns dropped-row count.

    A version mismatch drops the results table (the payloads were
    pickled against another layout and cannot be trusted) — the caller
    counts and reports the loss.
    """
    conn.execute("BEGIN IMMEDIATE")
    try:
        conn.execute(CREATE_META)
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        dropped = 0
        if row is not None and int(row[0]) != SCHEMA_VERSION:
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
        conn.execute(
            "INSERT INTO meta (key, value) VALUES ('schema_version', ?)"
            " ON CONFLICT (key) DO UPDATE SET value = excluded.value",
            (str(SCHEMA_VERSION),),
        )
        conn.commit()
    except sqlite3.DatabaseError:
        conn.rollback()
        raise
    return dropped
