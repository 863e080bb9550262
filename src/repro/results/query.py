"""Query, diff and export over the results warehouse.

These are the functions behind ``pynamic-repro results
query/diff/export``: filter stored rows by typed columns, compare two
warehouses metric-by-metric (the regression gate over metric
trajectories across commits — run yesterday's CI artifact against
today's), and dump everything as JSON for plotting or archiving.
"""

from __future__ import annotations

import json
import os

from repro.errors import ConfigError
from repro.results.schema import METRIC_COLUMNS
from repro.results.store import (
    ResultsWarehouse,
    current_commit,
    resolve_warehouse_path,
)

#: Metrics ``results query``/``diff`` show when none are requested.
DEFAULT_METRICS = ("total_max", "staging_max")


def open_warehouse(location: "str | os.PathLike[str]") -> ResultsWarehouse:
    """Open an *existing* warehouse (cache dir or DB file) read-only.

    Unlike the sweep runner's open, a missing file is an error here —
    querying a warehouse that does not exist should say so, not create
    an empty one.  The handle never migrates: a warehouse of another
    schema version keeps its rows, and its typed columns read as they
    are (a read-write open would drop them), so a baseline written by
    older code still diffs.
    """
    path = resolve_warehouse_path(location)
    if not os.path.exists(path):
        raise ConfigError(
            f"no results warehouse at {os.fspath(location)!r} (looked for "
            f"{path}); populate one with a --cache-dir sweep first"
        )
    return ResultsWarehouse.for_cache_dir(os.fspath(location), readonly=True)


def resolve_metrics(names: "list[str] | None") -> list[str]:
    """Validate requested metric names against the typed columns."""
    if not names:
        return list(DEFAULT_METRICS)
    valid = set(METRIC_COLUMNS)
    for name in names:
        if name not in valid:
            raise ConfigError(
                f"unknown metric {name!r}; choose from {sorted(valid)}"
            )
    return list(names)


def query_rows(
    store: ResultsWarehouse,
    engine: "str | None" = None,
    distribution: "str | None" = None,
    kind: "str | None" = None,
    commit: "str | None" = None,
    key_prefix: "str | None" = None,
) -> list[dict]:
    """Stored rows matching the filters (payloads excluded)."""
    return store.rows(
        engine=engine,
        distribution=distribution,
        kind=kind,
        commit=commit,
        key_prefix=key_prefix,
    )


def diff_rows(
    old_rows: list[dict],
    new_rows: list[dict],
    metrics: list[str],
) -> dict:
    """Per-key metric deltas between two warehouses' rows.

    Rows pair up by ``cache_key`` (same function + same canonical spec
    hash — the same grid point).  Returns a dict with ``changed`` (one
    entry per shared key and metric where both sides hold a number),
    ``only_old``/``only_new`` key lists, ``max_regression_pct`` (worst
    relative increase across all compared metrics; staging and total
    times regress *upward*), and ``fingerprint_mismatches``: how many
    shared keys were written under different (or unrecorded) model
    fingerprints.  A mismatch is reported, never a failure — comparing
    two models' numbers is what a diff across commits is for.
    """
    old_by_key = {row["cache_key"]: row for row in old_rows}
    new_by_key = {row["cache_key"]: row for row in new_rows}
    shared = sorted(old_by_key.keys() & new_by_key.keys())
    changed = []
    max_regression = 0.0
    mismatches = 0
    for key in shared:
        old_row, new_row = old_by_key[key], new_by_key[key]
        if old_row.get("model_fingerprint") != new_row.get("model_fingerprint"):
            mismatches += 1
        for metric in metrics:
            old_value, new_value = old_row.get(metric), new_row.get(metric)
            if not isinstance(old_value, (int, float)) or not isinstance(
                new_value, (int, float)
            ):
                continue
            delta = new_value - old_value
            pct = (delta / old_value * 100.0) if old_value else 0.0
            max_regression = max(max_regression, pct)
            changed.append(
                {
                    "cache_key": key,
                    "spec": (new_row.get("result_key") or key)[:16],
                    "distribution": new_row.get("distribution"),
                    "n_nodes": new_row.get("n_nodes"),
                    "metric": metric,
                    "old": old_value,
                    "new": new_value,
                    "delta": delta,
                    "pct": pct,
                    "old_commit": old_row.get("git_commit"),
                    "new_commit": new_row.get("git_commit"),
                }
            )
    return {
        "changed": changed,
        "only_old": sorted(old_by_key.keys() - new_by_key.keys()),
        "only_new": sorted(new_by_key.keys() - old_by_key.keys()),
        "max_regression_pct": max_regression,
        "fingerprint_mismatches": mismatches,
    }


def export_document(store: ResultsWarehouse) -> dict:
    """The whole warehouse as one JSON-ready document (no payloads)."""
    return {
        "schema_version": store.schema_version,
        "commit": current_commit(),
        "row_count": len(store),
        "rows": store.rows(),
    }


def write_json_atomic(path: str, document: object) -> None:
    """Write ``document`` as JSON via write-then-rename.

    The temp file is unlinked on *any* failure — the try/finally
    discipline the old pickle writer lacked (it leaked ``.tmp.<pid>``
    files whenever the dump raised mid-write).
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
