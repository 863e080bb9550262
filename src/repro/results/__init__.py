"""The results warehouse: SQLite-backed, schema-versioned sweep store.

The disk layer behind :class:`repro.harness.sweep.SweepRunner` — WAL-mode, concurrent-writer
safe (``BEGIN IMMEDIATE``), keyed by canonical
:attr:`~repro.scenario.spec.ScenarioSpec.spec_hash` under the current
:func:`model_fingerprint`, queryable via
``pynamic-repro results query/diff/export``.
"""

from repro.results.query import (
    DEFAULT_METRICS,
    diff_rows,
    export_document,
    open_warehouse,
    query_rows,
    resolve_metrics,
    write_json_atomic,
)
from repro.results.schema import METRIC_COLUMNS, SCHEMA_VERSION
from repro.results.store import (
    ResultsWarehouse,
    cache_key,
    current_commit,
    model_fingerprint,
    resolve_warehouse_path,
)

__all__ = [
    "DEFAULT_METRICS",
    "METRIC_COLUMNS",
    "ResultsWarehouse",
    "SCHEMA_VERSION",
    "cache_key",
    "current_commit",
    "diff_rows",
    "export_document",
    "model_fingerprint",
    "open_warehouse",
    "query_rows",
    "resolve_metrics",
    "resolve_warehouse_path",
    "write_json_atomic",
]
