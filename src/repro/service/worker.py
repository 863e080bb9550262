"""The worker-pool side of the service.

Each pool process is initialized with the server's multiprocessing
progress queue (:func:`init_worker` — the queue rides the
``ProcessPoolExecutor`` initializer, the one channel that crosses the
fork boundary safely), then :func:`run_job` simulates one spec,
emitting phase events as it goes.  Results are committed to the
warehouse *inside the worker* by the normal ``simulate()`` /
``run_workload()`` cache path, so a graceful shutdown that waits for
in-flight workers loses nothing: the terminal HTTP event is a receipt
for a row that already exists.

:func:`~repro.results.schema.result_document` (re-exported here) is
the one JSON shape for a finished simulation.  The worker returns it
for a cold job, and the warehouse stores its canonical JSON in the row
the worker commits, which the server splices into warm answers — so a
cached response is byte-identical to the cold one it memoized.
"""

from __future__ import annotations

import os

from repro.results.schema import result_document

__all__ = ["init_worker", "result_document", "run_job"]

#: The per-process progress pipe, installed by :func:`init_worker`.
_PROGRESS_QUEUE = None


def init_worker(progress_queue) -> None:
    """Pool initializer: stash the progress pipe in the worker."""
    global _PROGRESS_QUEUE
    _PROGRESS_QUEUE = progress_queue


def _emit(job_id: str, event: str, **fields: object) -> None:
    if _PROGRESS_QUEUE is None:
        return
    try:
        _PROGRESS_QUEUE.put({"job_id": job_id, "event": event, **fields})
    except Exception:
        # A torn progress pipe (server going down) must never fail the
        # simulation itself — the warehouse commit is what matters.
        pass


def run_job(
    job_id: str,
    kind: str,
    document: dict,
    cache_dir: "str | None",
) -> dict:
    """Executor entry: simulate one validated spec document.

    The document was schema-validated by the server before submission;
    re-parsing here (in the worker process) rebuilds the frozen spec
    from its canonical dict form.  Progress events flow through the
    pool's progress pipe; the returned document carries how many were
    sent so the server can sequence the terminal event after them.
    """
    _emit(job_id, "running", pid=os.getpid())
    progress_events = 1
    if kind == "workload":
        from repro.workload import parse_workload_document, run_workload

        spec = parse_workload_document(document)
        spec_hash = spec.workload_hash
        _emit(
            job_id,
            "phase",
            phase="simulating",
            spec_hash=spec_hash,
            n_tenants=len(spec.tenants),
        )
        progress_events += 1
        report = run_workload(spec, cache_dir=cache_dir)
    else:
        from repro.scenario import parse_spec_document, simulate

        spec = parse_spec_document(document)
        spec_hash = spec.spec_hash
        _emit(
            job_id,
            "phase",
            phase="simulating",
            spec_hash=spec_hash,
            engine=spec.engine,
        )
        progress_events += 1
        report = simulate(spec, cache_dir=cache_dir)
    if cache_dir is not None:
        _emit(job_id, "phase", phase="committed")
        progress_events += 1
    doc = result_document(kind, spec_hash, report)
    doc["progress_events"] = progress_events
    return doc
