"""Job lifecycle and the dedup-by-spec-hash registry.

One :class:`Job` per accepted submission; the :class:`JobRegistry`
indexes *active* (queued/running) jobs by spec hash so two clients
submitting the same cold spec share one simulation — the second
submission attaches to the first job's event stream instead of burning
a second worker.  Every state transition is an *event*: appended to the
job's replay log and fanned out to live SSE subscribers, so a client
that connects late sees the full history and a client that connects
early sees each phase as it happens.

Finished jobs are kept for status and event replay, but not forever:
the registry holds at most :data:`MAX_FINISHED_JOBS` of them and
forgets the one that finished first when a newer one finishes (its id
then reads as unknown).  Active jobs are never forgotten.

The registry is single-threaded by construction — every mutation
happens on the server's event loop (worker progress crosses the
process/thread boundary via ``loop.call_soon_threadsafe``), so there
are no locks here.
"""

from __future__ import annotations

import asyncio
import secrets
import time

#: States a job can rest in; everything else is in flight.
TERMINAL_STATES = ("done", "failed", "abandoned")
#: Finished jobs the registry keeps; the oldest-finished goes first.
MAX_FINISHED_JOBS = 256


class Job:
    """One accepted submission and its event history."""

    __slots__ = (
        "job_id",
        "kind",
        "spec_hash",
        "spec_doc",
        "status",
        "cached",
        "submitted_at",
        "started_at",
        "finished_at",
        "result",
        "error",
        "events",
        "subscribers",
        "worker_events",
        "aio_future",
    )

    def __init__(self, kind: str, spec_hash: str, spec_doc: dict) -> None:
        self.job_id = secrets.token_hex(8)
        self.kind = kind
        self.spec_hash = spec_hash
        self.spec_doc = spec_doc
        self.status = "queued"
        #: True when the submission was answered from the warehouse.
        self.cached = False
        self.submitted_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.result: dict | None = None
        self.error: str | None = None
        #: The replay log: every event ever emitted for this job.
        self.events: list[dict] = []
        #: Live SSE subscribers (asyncio queues fed by the event loop).
        self.subscribers: list[asyncio.Queue] = []
        #: Progress events received from the worker pipe so far.
        self.worker_events = 0
        #: The executor future (None for warehouse-answered jobs).
        self.aio_future: asyncio.Future | None = None

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATES

    def to_dict(self) -> dict:
        """The ``GET /v1/jobs/{id}`` status document."""
        doc = {
            "job_id": self.job_id,
            "kind": self.kind,
            "spec_hash": self.spec_hash,
            "status": self.status,
            "cached": self.cached,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "events_seen": len(self.events),
        }
        if self.result is not None:
            doc["result"] = self.result
        if self.error is not None:
            doc["error"] = self.error
        return doc


class JobRegistry:
    """All jobs the server has accepted, active ones indexed by hash."""

    def __init__(self) -> None:
        self._jobs: dict[str, Job] = {}
        #: spec_hash -> the one active (non-terminal) job computing it.
        self._active: dict[str, Job] = {}
        #: Ids of finished jobs still kept, oldest-finished first.
        self._finished: dict[str, None] = {}
        self.counters = {
            "jobs_submitted": 0,
            "jobs_cached": 0,
            "jobs_deduplicated": 0,
            "jobs_completed": 0,
            "jobs_failed": 0,
            "jobs_abandoned": 0,
            "warehouse_hits": 0,
            "warehouse_misses": 0,
        }

    def get(self, job_id: str) -> "Job | None":
        return self._jobs.get(job_id)

    def active_for(self, spec_hash: str) -> "Job | None":
        """The in-flight job already computing ``spec_hash``, if any."""
        return self._active.get(spec_hash)

    def jobs(self) -> "list[Job]":
        return list(self._jobs.values())

    def create(self, kind: str, spec_hash: str, spec_doc: dict) -> Job:
        job = Job(kind, spec_hash, spec_doc)
        self._jobs[job.job_id] = job
        self._active[spec_hash] = job
        self.emit(job, {"event": "queued", "spec_hash": spec_hash})
        return job

    def create_cached(
        self, kind: str, spec_hash: str, spec_doc: dict, result: dict
    ) -> Job:
        """A job answered from the warehouse: born ``done``, and never
        indexed as active, so an in-flight job computing the same hash
        stays the one dedup attaches to."""
        job = Job(kind, spec_hash, spec_doc)
        job.cached = True
        self._jobs[job.job_id] = job
        self.emit(job, {"event": "queued", "spec_hash": spec_hash})
        self.finish(job, "done", result=result)
        return job

    def mark_running(self, job: Job, **fields: object) -> None:
        if job.status == "queued":
            job.status = "running"
            job.started_at = time.time()
        self.emit(job, {"event": "running", **fields})

    def finish(
        self,
        job: Job,
        status: str,
        result: "dict | None" = None,
        error: "str | None" = None,
    ) -> None:
        """Move a job to a terminal state and close its event stream."""
        if job.terminal:
            return
        job.status = status
        job.result = result
        job.error = error
        job.finished_at = time.time()
        if self._active.get(job.spec_hash) is job:
            del self._active[job.spec_hash]
        event: dict = {"event": status}
        if error is not None:
            event["error"] = error
        if result is not None:
            event["result"] = result
        self.emit(job, event)
        self._finished[job.job_id] = None
        while len(self._finished) > MAX_FINISHED_JOBS:
            oldest = next(iter(self._finished))
            del self._finished[oldest]
            self._jobs.pop(oldest, None)

    def emit(self, job: Job, event: dict) -> None:
        """Append to the replay log and fan out to live subscribers."""
        event = {
            "job_id": job.job_id,
            "seq": len(job.events),
            "t": time.time() - job.submitted_at,
            **event,
        }
        job.events.append(event)
        closing = job.terminal
        for queue in job.subscribers:
            queue.put_nowait(event)
            if closing:
                queue.put_nowait(None)  # end-of-stream sentinel
        if closing:
            job.subscribers.clear()

    def subscribe(self, job: Job) -> "tuple[list[dict], asyncio.Queue | None]":
        """The replay log plus a live queue (None when already over)."""
        history = list(job.events)
        if job.terminal:
            return history, None
        queue: asyncio.Queue = asyncio.Queue()
        job.subscribers.append(queue)
        return history, queue

    def unsubscribe(self, job: Job, queue: asyncio.Queue) -> None:
        try:
            job.subscribers.remove(queue)
        except ValueError:
            pass

    # -- the /metrics surface ---------------------------------------------
    def queue_depth(self) -> int:
        return sum(1 for job in self._active.values() if job.status == "queued")

    def running(self) -> int:
        return sum(
            1 for job in self._active.values() if job.status == "running"
        )

    def metrics(self) -> dict:
        hits = self.counters["warehouse_hits"]
        misses = self.counters["warehouse_misses"]
        looked_up = hits + misses
        return {
            **self.counters,
            "queue_depth": self.queue_depth(),
            "jobs_running": self.running(),
            "warehouse_hit_rate": (hits / looked_up) if looked_up else None,
        }
