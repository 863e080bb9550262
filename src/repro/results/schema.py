"""The warehouse schema: one versioned table of sweep results.

Every row is one evaluated grid point, keyed by
``sha256("<func>:<key>")`` where ``key`` is the canonical
:attr:`~repro.scenario.spec.ScenarioSpec.spec_hash` for scenario
grids.  The pickled result object rides along as an opaque payload (the
exact value the sweep runner replays, bit-identical), while the
queryable surface is *typed columns*: engine, distribution label, task
and node counts, the per-rank/staging phase percentiles, plus the spec
JSON, the git commit, the model fingerprint and a timestamp.  Scenario
and workload rows also keep the service's answer, :func:`result_document`
as canonical JSON, so a warm request is answered by one SELECT.

``SCHEMA_VERSION`` is stamped into the ``meta`` table on creation and
checked on every open; a mismatched warehouse is rebuilt with its row
count *reported* (see :mod:`repro.results.migrate`), never silently
read.
"""

from __future__ import annotations

import json
from typing import Mapping

#: Bump on any breaking change to the table layout below.  Opening a
#: warehouse written by a different version never reads its rows — they
#: are counted, reported and dropped (:mod:`repro.results.migrate`).
#: Version 2 added the ``document`` and ``model_fingerprint`` columns.
SCHEMA_VERSION = 2

#: The sweep-runner function names that key scenario and workload rows,
#: and the result kind whose :func:`result_document` each row stores.
SCENARIO_FUNC = "_eval_scenario_point"
WORKLOAD_FUNC = "_eval_workload_point"
DOCUMENT_KINDS = {SCENARIO_FUNC: "scenario", WORKLOAD_FUNC: "workload"}

#: File name of the warehouse inside a ``cache_dir``.
WAREHOUSE_FILENAME = "warehouse.sqlite3"

#: Connection pragmas, WAL-first per the pragma-tuned SQLite exemplars:
#: WAL journaling gives concurrent sweep workers single-writer /
#: many-reader semantics without blocking readers, NORMAL sync is
#: durable enough for a cache (the entry is recomputable), and the
#: busy timeout makes competing ``BEGIN IMMEDIATE`` writers queue
#: instead of erroring out.
PRAGMAS = (
    "PRAGMA journal_mode=WAL",
    "PRAGMA synchronous=NORMAL",
    "PRAGMA temp_store=MEMORY",
    "PRAGMA cache_size=-4096",  # 4 MB page cache
    "PRAGMA busy_timeout=30000",
)

#: The typed metric columns (all nullable REAL/INTEGER/TEXT): what
#: ``results query`` filters and prints without unpickling payloads.
METRIC_COLUMNS = (
    "engine",
    "distribution",
    "n_tasks",
    "n_nodes",
    "cold",
    "total_s",
    "startup_s",
    "import_s",
    "visit_s",
    "mpi_s",
    "total_p50",
    "total_p95",
    "total_max",
    "total_skew_s",
    "startup_p50",
    "startup_p95",
    "startup_max",
    "startup_skew_s",
    "staging_p50",
    "staging_p95",
    "staging_max",
    "staging_skew_s",
)

CREATE_META = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
)
"""

#: ``model_fingerprint`` and ``document`` come before ``payload``: a read
#: of either then never walks the payload's overflow pages.
CREATE_RESULTS = """
CREATE TABLE IF NOT EXISTS results (
    cache_key TEXT PRIMARY KEY,
    func TEXT,
    result_key TEXT,
    kind TEXT NOT NULL,
    model_fingerprint TEXT,
    document TEXT,
    payload BLOB NOT NULL,
    spec_json TEXT,
    engine TEXT,
    distribution TEXT,
    n_tasks INTEGER,
    n_nodes INTEGER,
    cold INTEGER,
    total_s REAL,
    startup_s REAL,
    import_s REAL,
    visit_s REAL,
    mpi_s REAL,
    total_p50 REAL,
    total_p95 REAL,
    total_max REAL,
    total_skew_s REAL,
    startup_p50 REAL,
    startup_p95 REAL,
    startup_max REAL,
    startup_skew_s REAL,
    staging_p50 REAL,
    staging_p95 REAL,
    staging_max REAL,
    staging_skew_s REAL,
    metrics_json TEXT,
    git_commit TEXT,
    created_at TEXT NOT NULL,
    updated_at TEXT NOT NULL
)
"""

CREATE_INDEXES = (
    "CREATE INDEX IF NOT EXISTS ix_results_func_key"
    " ON results (func, result_key)",
    "CREATE INDEX IF NOT EXISTS ix_results_commit ON results (git_commit)",
    "CREATE INDEX IF NOT EXISTS ix_results_result_key"
    " ON results (result_key, updated_at)",
)


def _number(value: object) -> "float | int | None":
    """``value`` as a JSON/SQL-safe number (None for anything else)."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return value
    return None


def extract_columns(result: object) -> dict:
    """The typed-column view of one sweep result (duck-typed).

    :class:`~repro.core.job.JobReport`-shaped results fill the full
    per-rank/staging/startup percentile set; workload reports
    (:class:`~repro.workload.report.WorkloadReport`) map the shared
    columns onto the batch-queue view (makespan as ``total_max``, the
    worst tenant's pooled cold-start p95 as ``startup_p95``); staging
    summaries (``mitigation_scaled``'s :class:`StagingSummary`) fill
    the staging columns; anything else stores payload-only with an
    empty metric set.  Returns a dict of ``METRIC_COLUMNS`` values plus
    ``metrics_json`` — every numeric attribute the result exposes, so
    kind-specific extras (source reads, relay sends) stay queryable.
    """
    columns: dict[str, object] = {name: None for name in METRIC_COLUMNS}
    metrics: dict[str, object] = {}
    if hasattr(result, "rank0") and hasattr(result, "per_rank"):
        # JobReport: the full phase/percentile surface.
        for name in METRIC_COLUMNS:
            if name in ("engine", "distribution"):
                columns[name] = getattr(result, name, None)
                continue
            value = _number(getattr(result, name, None))
            columns[name] = value
            if value is not None:
                metrics[name] = value
        degradation = getattr(result, "degradation", None)
        if degradation is not None:
            for name in (
                "n_recoveries",
                "refetched_bytes",
                "link_retries",
            ):
                value = _number(getattr(degradation, name, None))
                if value is not None:
                    metrics[name] = value
            metrics["crashed_relays"] = len(
                getattr(degradation, "crashed_relays", ())
            )
    elif hasattr(result, "tenants") and hasattr(result, "jobs"):
        # WorkloadReport: the batch-queue view of the shared columns.
        # This arm must precede the StagingSummary one — workload
        # reports also expose ``makespan_s``.
        columns["engine"] = "workload"
        columns["n_nodes"] = _number(getattr(result, "n_nodes", None))
        columns["total_max"] = _number(getattr(result, "makespan_s", None))
        columns["startup_p95"] = _number(
            getattr(result, "startup_p95_s", None)
        )
        for name in (
            "n_jobs",
            "cores_per_node",
            "makespan_s",
            "fairness_spread",
            "wait_p95_s",
            "startup_p95_s",
            "engine_steps",
            "recovery_events",
            "refetched_bytes",
            "link_retries",
        ):
            value = _number(getattr(result, name, None))
            if value is not None:
                metrics[name] = value
        for tenant in getattr(result, "tenants", ()):
            for name in (
                "wait_p95_s",
                "startup_p95_s",
                "slowdown_p95",
            ):
                value = _number(getattr(tenant, name, None))
                if value is not None:
                    metrics[f"tenant[{tenant.name}].{name}"] = value
    elif hasattr(result, "makespan_s") and hasattr(result, "strategy"):
        # StagingSummary: staging-phase columns under the shared names.
        columns["distribution"] = result.strategy
        columns["n_nodes"] = _number(result.n_nodes)
        columns["staging_max"] = _number(result.makespan_s)
        columns["staging_p50"] = _number(getattr(result, "p50_s", None))
        columns["staging_p95"] = _number(getattr(result, "p95_s", None))
        columns["staging_skew_s"] = _number(getattr(result, "skew_s", None))
        for name in (
            "n_files",
            "staged_bytes",
            "makespan_s",
            "p50_s",
            "p95_s",
            "skew_s",
            "source_reads",
            "relay_sends",
            "warm_node_count",
            "recovery_events",
            "refetched_bytes",
            "crashed_relays",
            "link_retries",
        ):
            value = _number(getattr(result, name, None))
            if value is not None:
                metrics[name] = value
    columns["metrics"] = metrics
    return columns


def result_document(kind: str, spec_hash: str, result: object) -> dict:
    """A finished simulation as the service's JSON result shape.

    Built from :func:`extract_columns`, the same typed-column view the
    warehouse stores.  :meth:`~repro.results.store.ResultsWarehouse.store`
    keeps its canonical JSON (:func:`encode_document`) in the row, so a
    cold worker result and a warm warehouse read of the same spec hash
    are the same bytes.
    """
    return document_from_columns(
        kind, spec_hash, result, extract_columns(result)
    )


def document_from_columns(
    kind: str, spec_hash: str, result: object, columns: dict
) -> dict:
    """:func:`result_document` from an :func:`extract_columns` view
    already in hand (the warehouse's store path)."""
    return {
        "kind": kind,
        "report": type(result).__name__,
        "spec_hash": spec_hash,
        "columns": {
            name: value
            for name, value in columns.items()
            if name != "metrics" and value is not None
        },
        "metrics": columns["metrics"],
    }


def encode_document(document: dict) -> str:
    """The canonical JSON text of a result document (sorted keys)."""
    return json.dumps(document, sort_keys=True)


def row_as_dict(row: Mapping) -> dict:
    """One warehouse row as a JSON-ready dict (payload blob and stored
    result document excluded)."""
    data = {
        key: row[key] for key in row.keys() if key not in ("payload", "document")
    }
    raw = data.pop("metrics_json", None)
    data["metrics"] = json.loads(raw) if raw else {}
    return data
