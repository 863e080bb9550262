"""The asyncio HTTP server behind ``pynamic-repro serve``.

Stdlib only: ``asyncio.start_server`` with a hand-rolled HTTP/1.1
request reader (the surface is five well-known endpoints, not a web
framework's worth of routing), ``http.HTTPStatus`` for the status
line, and a ``ProcessPoolExecutor`` for the actual simulating.

Request flow for ``POST /v1/jobs``:

1. parse + schema-validate the body through the shared
   :func:`parse_spec_document` / :func:`parse_workload_document`
   entries (a bad field is a 400 with the field-naming ``ConfigError``
   message, same text the CLI prints);
2. check the warehouse and answer a warm hash instantly with
   ``cached: true``.  The server keeps one read-only handle open from
   start to stop, on a reader thread of its own (see
   :class:`WarehouseReader`), so the check never blocks the event loop
   and never queues behind the writer pool;
3. otherwise dedup against the registry (an in-flight job for the same
   hash is shared, not re-simulated) or submit to the pool.

Worker progress crosses process → thread → event loop: workers put on
a multiprocessing queue, a drain thread blocks on it and trampolines
each event onto the loop with ``call_soon_threadsafe``, and the
registry fans it out to SSE subscribers.  Event streams are
``Connection: close`` responses with no Content-Length — the client
reads lines until EOF, which is exactly what SSE-over-HTTP/1.0
semantics allow without chunked-encoding machinery.

Graceful shutdown (:meth:`SimulationServer.stop`): stop accepting,
cancel never-started jobs (marked ``abandoned``), wait for in-flight
workers to finish — they commit to the warehouse themselves, so every
completed result survives — then emit the terminal events and close.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import multiprocessing
import os
import sqlite3
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from http import HTTPStatus
from typing import Callable
from urllib.parse import unquote, urlsplit

from repro.errors import ConfigError
from repro.service.jobs import JobRegistry
from repro.service.worker import init_worker, result_document, run_job

#: Largest request body the server will read (a spec document is KBs).
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Longest request line or header line (asyncio's default stream limit);
#: a longer one is answered 431.
MAX_LINE_BYTES = 64 * 1024

#: Warehouse row namespaces (the sweep-runner function names that key
#: scenario and workload rows).
SCENARIO_FUNC = "_eval_scenario_point"
WORKLOAD_FUNC = "_eval_workload_point"


@dataclass
class ServiceConfig:
    """Everything ``pynamic-repro serve`` parameterizes."""

    host: str = "127.0.0.1"
    #: Port 0 binds an ephemeral port (reported by ``address``).
    port: int = 8472
    workers: int = 2
    #: Warehouse location; None disables caching (every job cold, no
    #: ``GET /v1/results``) — tests only.
    cache_dir: "str | None" = ".sweep-cache"


class _HttpError(Exception):
    """An error response (status + JSON body) raised mid-handler."""

    def __init__(self, status: HTTPStatus, error: str, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.body = {"error": error, "detail": detail}


class WarehouseReader:
    """The server's one read-only warehouse handle, on its own thread.

    ``sqlite3`` connections belong to the thread that opened them, so
    the handle is opened, used and closed on one dedicated thread, and
    every read runs there.  It is read-only under WAL, so it never
    queues behind the pool's writers, and each SELECT runs in
    autocommit, so a row a worker commits after the handle opened is
    seen on the next read.

    The handle follows the file: if the warehouse was replaced (a
    writer quarantined an unreadable file and rebuilt it), an open
    connection would keep reading the old, unlinked file without an
    error, so every read first compares the file's identity with the
    one the handle opened.  A read that raises
    ``sqlite3.DatabaseError`` drops the handle and is retried once on a
    fresh one.
    """

    def __init__(self, cache_dir: str) -> None:
        from repro.results import resolve_warehouse_path

        self.cache_dir = cache_dir
        self.path = resolve_warehouse_path(cache_dir)
        self._thread = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-warehouse"
        )
        # Touched on the reader thread only.
        self._warehouse = None
        self._identity: "tuple[int, int] | None" = None

    async def read(self, query: Callable[[object], object]) -> object:
        """``query(warehouse)``, run on the reader thread."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._thread, self._read, query)

    async def close(self) -> None:
        """Close the handle on its thread, then end the thread."""
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(self._thread, self._drop)
        self._thread.shutdown(wait=True)

    def _read(self, query: Callable[[object], object]) -> object:
        for retry in (False, True):
            try:
                return query(self._handle())
            except sqlite3.DatabaseError:
                self._drop()
                if retry:
                    raise

    def _handle(self):
        try:
            stat = os.stat(self.path)
            identity = (stat.st_dev, stat.st_ino)
        except FileNotFoundError:
            identity = None
        if self._warehouse is not None and identity != self._identity:
            self._drop()
        if self._warehouse is None:
            from repro.results import ResultsWarehouse

            self._warehouse = ResultsWarehouse.for_cache_dir(
                self.cache_dir, readonly=True
            )
            self._identity = identity
        return self._warehouse

    def _drop(self) -> None:
        if self._warehouse is not None:
            self._warehouse.close()
        self._warehouse = None


class SimulationServer:
    """One running service instance (start/stop are async)."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.registry = JobRegistry()
        self.started_at: "float | None" = None
        self._server: "asyncio.base_events.Server | None" = None
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._pool: "ProcessPoolExecutor | None" = None
        self._progress_queue = None
        self._drain_thread: "threading.Thread | None" = None
        self._finishers: set[asyncio.Task] = set()
        #: job_id -> (progress events the worker sent, the future set
        #: once that many have been drained).
        self._drain_waits: dict = {}
        #: Opened in start() when there is a warehouse.
        self._reader: "WarehouseReader | None" = None
        #: job_id -> the pool-side future (cancellable only pre-start,
        #: which is exactly the abandoned-vs-drained distinction).
        self._pool_futures: dict = {}
        self._stopping = False

    @property
    def address(self) -> "tuple[str, int]":
        """The bound (host, port) — authoritative when port was 0."""
        assert self._server is not None, "server not started"
        sock = self._server.sockets[0]
        return sock.getsockname()[:2]

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        if self.config.cache_dir is not None:
            # One read-write open at startup: creates the DB and runs
            # any schema upgrade, so the server's read-only handle
            # always finds a valid schema.
            # Closed immediately — workers open their own.
            from repro.results import ResultsWarehouse

            with ResultsWarehouse.for_cache_dir(self.config.cache_dir) as wh:
                len(wh)
        ctx = _mp_context()
        self._progress_queue = ctx.Queue()
        self._pool = ProcessPoolExecutor(
            max_workers=self.config.workers,
            mp_context=ctx,
            initializer=init_worker,
            initargs=(self._progress_queue,),
        )
        # Fork the workers now, before the server starts any thread of
        # its own: a fork-context pool forks all of them on its first
        # submit.  Forked later, from the first cold job, a worker could
        # inherit a lock the drain or warehouse reader thread holds
        # (SQLite's, inside ``sqlite3.connect``) and block forever.
        await asyncio.wrap_future(self._pool.submit(os.getpid))
        if self.config.cache_dir is not None:
            self._reader = WarehouseReader(self.config.cache_dir)
        self._drain_thread = threading.Thread(
            target=self._drain_progress, name="serve-progress", daemon=True
        )
        self._drain_thread.start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=MAX_LINE_BYTES,
        )
        self.started_at = time.time()

    async def stop(self) -> None:
        """Graceful shutdown: drain in-flight, abandon the queue."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Queued-but-not-started jobs: cancel the pool future — which
        # only succeeds before a worker picks the job up, so this is
        # precisely "abandon the queue, drain the in-flight".  The
        # finisher tasks mark cancelled jobs abandoned; running workers
        # finish and commit to the warehouse before returning.
        for job_id, pool_future in list(self._pool_futures.items()):
            job = self.registry.get(job_id)
            if job is not None and not job.terminal:
                pool_future.cancel()
        if self._pool is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, self._pool.shutdown, True
            )
        if self._finishers:
            await asyncio.gather(*self._finishers, return_exceptions=True)
        if self._progress_queue is not None:
            self._progress_queue.put(None)  # stop the drain thread
        if self._drain_thread is not None:
            self._drain_thread.join(timeout=10)
        if self._reader is not None:
            await self._reader.close()

    # -- worker progress ---------------------------------------------------
    def _drain_progress(self) -> None:
        """Blocking thread: progress pipe → event loop."""
        assert self._progress_queue is not None and self._loop is not None
        while True:
            try:
                payload = self._progress_queue.get()
            except (EOFError, OSError):
                return
            if payload is None:
                return
            try:
                self._loop.call_soon_threadsafe(self._on_worker_event, payload)
            except RuntimeError:
                return  # loop already closed — shutdown race

    def _on_worker_event(self, payload: dict) -> None:
        job = self.registry.get(payload.pop("job_id", ""))
        if job is None or job.terminal:
            return
        job.worker_events += 1
        event = payload.pop("event", "progress")
        if event == "running":
            self.registry.mark_running(job, **payload)
        else:
            self.registry.emit(job, {"event": event, **payload})
        wait = self._drain_waits.get(job.job_id)
        if wait is not None and job.worker_events >= wait[0]:
            wait[1].set_result(None)
            del self._drain_waits[job.job_id]

    async def _finish_job(self, job, future: asyncio.Future) -> None:
        counters = self.registry.counters
        try:
            result = await future
        except asyncio.CancelledError:
            counters["jobs_abandoned"] += 1
            self.registry.finish(job, "abandoned")
            return
        except Exception as exc:  # worker raised (ConfigError, bug, ...)
            counters["jobs_failed"] += 1
            self.registry.finish(
                job, "failed", error=f"{type(exc).__name__}: {exc}"
            )
            return
        finally:
            self._pool_futures.pop(job.job_id, None)
        expected = result.pop("progress_events", 0)
        # The result future and the progress pipe race; wait (up to 5 s)
        # until _on_worker_event has drained every progress event the
        # worker sent, so subscribers always see progress strictly
        # before the terminal event.
        if job.worker_events < expected:
            drained = asyncio.get_running_loop().create_future()
            self._drain_waits[job.job_id] = (expected, drained)
            try:
                await asyncio.wait_for(drained, timeout=5.0)
            except asyncio.TimeoutError:
                pass
            finally:
                self._drain_waits.pop(job.job_id, None)
        counters["jobs_completed"] += 1
        self.registry.finish(job, "done", result=result)

    # -- warehouse (the one read-only handle, on its reader thread) --------
    async def _warehouse(self, query: Callable[[object], object]) -> object:
        if self._reader is None:
            return None
        return await self._reader.read(query)

    # -- HTTP plumbing -----------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await _read_request(reader)
                if request is not None:
                    await self._route(writer, *request)
            except _HttpError as exc:
                await _send_json(writer, exc.status, exc.body)
            except ConnectionError:
                pass
            except Exception as exc:
                with contextlib.suppress(ConnectionError):
                    await _send_json(
                        writer,
                        HTTPStatus.INTERNAL_SERVER_ERROR,
                        {
                            "error": "internal",
                            "detail": f"{type(exc).__name__}: {exc}",
                        },
                    )
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _route(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        body: bytes,
    ) -> None:
        if method == "POST" and path == "/v1/jobs":
            await self._post_job(writer, body)
        elif method == "GET" and path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/events"):
                await self._get_events(writer, rest[: -len("/events")].rstrip("/"))
            else:
                await self._get_job(writer, rest)
        elif method == "GET" and path.startswith("/v1/results/"):
            await self._get_result(writer, path[len("/v1/results/"):])
        elif method == "GET" and path == "/v1/presets":
            await self._get_presets(writer)
        elif method == "GET" and path == "/healthz":
            await self._get_healthz(writer)
        elif method == "GET" and path == "/metrics":
            await self._get_metrics(writer)
        else:
            raise _HttpError(
                HTTPStatus.NOT_FOUND,
                "not-found",
                f"no route for {method} {path}",
            )

    # -- endpoints ---------------------------------------------------------
    async def _post_job(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        if self._stopping:
            raise _HttpError(
                HTTPStatus.SERVICE_UNAVAILABLE,
                "shutting-down",
                "server is draining; resubmit elsewhere",
            )
        try:
            data = json.loads(body)
        except (ValueError, UnicodeDecodeError) as exc:
            raise _HttpError(
                HTTPStatus.BAD_REQUEST, "invalid-json", str(exc)
            ) from exc
        kind = "workload" if isinstance(data, dict) and "tenants" in data else "scenario"
        try:
            if kind == "workload":
                from repro.workload import parse_workload_document

                spec = parse_workload_document(data)
                spec_hash = spec.workload_hash
                func_name = WORKLOAD_FUNC
            else:
                from repro.scenario import parse_spec_document

                spec = parse_spec_document(data)
                spec_hash = spec.spec_hash
                func_name = SCENARIO_FUNC
        except ConfigError as exc:
            # The schema validator names the offending field; relay it.
            raise _HttpError(
                HTTPStatus.BAD_REQUEST, "invalid-spec", str(exc)
            ) from exc
        counters = self.registry.counters
        doc = spec.to_dict()
        cached = await self._warehouse(
            lambda warehouse: warehouse.load(func_name, spec_hash)
        )
        if cached is not None:
            counters["warehouse_hits"] += 1
            counters["jobs_cached"] += 1
            job = self.registry.create_cached(
                kind, spec_hash, doc, result_document(kind, spec_hash, cached)
            )
            await _send_json(
                writer,
                HTTPStatus.OK,
                {
                    "job_id": job.job_id,
                    "spec_hash": spec_hash,
                    "status": "done",
                    "cached": True,
                    "result": job.result,
                },
            )
            return
        counters["warehouse_misses"] += 1
        active = self.registry.active_for(spec_hash)
        if active is not None:
            counters["jobs_deduplicated"] += 1
            await _send_json(
                writer,
                HTTPStatus.ACCEPTED,
                {
                    "job_id": active.job_id,
                    "spec_hash": spec_hash,
                    "status": active.status,
                    "cached": False,
                    "deduplicated": True,
                    "events": f"/v1/jobs/{active.job_id}/events",
                },
            )
            return
        counters["jobs_submitted"] += 1
        job = self.registry.create(kind, spec_hash, doc)
        assert self._loop is not None and self._pool is not None
        pool_future = self._pool.submit(
            run_job, job.job_id, kind, doc, self.config.cache_dir
        )
        self._pool_futures[job.job_id] = pool_future
        job.aio_future = asyncio.wrap_future(pool_future, loop=self._loop)
        finisher = asyncio.ensure_future(self._finish_job(job, job.aio_future))
        self._finishers.add(finisher)
        finisher.add_done_callback(self._finishers.discard)
        await _send_json(
            writer,
            HTTPStatus.ACCEPTED,
            {
                "job_id": job.job_id,
                "spec_hash": spec_hash,
                "status": job.status,
                "cached": False,
                "events": f"/v1/jobs/{job.job_id}/events",
            },
        )

    async def _get_job(self, writer: asyncio.StreamWriter, job_id: str) -> None:
        job = self.registry.get(unquote(job_id))
        if job is None:
            raise _HttpError(
                HTTPStatus.NOT_FOUND, "unknown-job", f"no job {job_id!r}"
            )
        await _send_json(writer, HTTPStatus.OK, job.to_dict())

    async def _get_events(
        self, writer: asyncio.StreamWriter, job_id: str
    ) -> None:
        job = self.registry.get(unquote(job_id))
        if job is None:
            raise _HttpError(
                HTTPStatus.NOT_FOUND, "unknown-job", f"no job {job_id!r}"
            )
        history, queue = self.registry.subscribe(job)
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n"
            b"\r\n"
        )
        try:
            for event in history:
                writer.write(_sse_line(event))
            await writer.drain()
            if queue is not None:
                while True:
                    event = await queue.get()
                    if event is None:
                        break
                    writer.write(_sse_line(event))
                    await writer.drain()
        except ConnectionError:
            pass
        finally:
            if queue is not None:
                self.registry.unsubscribe(job, queue)

    async def _get_result(
        self, writer: asyncio.StreamWriter, spec_hash: str
    ) -> None:
        spec_hash = unquote(spec_hash).strip("/")
        entry = await self._warehouse(
            lambda warehouse: warehouse.load_by_result_key(spec_hash)
        )
        if entry is None:
            raise _HttpError(
                HTTPStatus.NOT_FOUND,
                "unknown-result",
                f"warehouse has no row for spec hash {spec_hash!r}",
            )
        row = entry["row"]
        kind = "workload" if row.get("func") == WORKLOAD_FUNC else "scenario"
        await _send_json(
            writer,
            HTTPStatus.OK,
            {
                "spec_hash": spec_hash,
                "cached": True,
                "result": result_document(kind, spec_hash, entry["result"]),
                "row": {
                    key: row.get(key)
                    for key in ("kind", "git_commit", "created_at", "updated_at")
                },
            },
        )

    async def _get_presets(self, writer: asyncio.StreamWriter) -> None:
        from repro.scenario import scenario_preset_names
        from repro.workload import workload_preset_names

        await _send_json(
            writer,
            HTTPStatus.OK,
            {
                "scenarios": list(scenario_preset_names()),
                "workloads": list(workload_preset_names()),
            },
        )

    async def _get_healthz(self, writer: asyncio.StreamWriter) -> None:
        await _send_json(
            writer,
            HTTPStatus.OK,
            {
                "status": "draining" if self._stopping else "ok",
                "uptime_s": (
                    time.time() - self.started_at if self.started_at else 0.0
                ),
                "workers": self.config.workers,
            },
        )

    async def _get_metrics(self, writer: asyncio.StreamWriter) -> None:
        metrics = self.registry.metrics()
        running = metrics["jobs_running"]
        metrics["workers"] = self.config.workers
        metrics["worker_utilization"] = (
            min(1.0, running / self.config.workers) if self.config.workers else 0.0
        )
        metrics["warehouse_rows"] = await self._warehouse(len) or 0
        metrics["uptime_s"] = (
            time.time() - self.started_at if self.started_at else 0.0
        )
        await _send_json(writer, HTTPStatus.OK, metrics)


def _mp_context():
    """Fork where available (cheap workers), else the default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return multiprocessing.get_context()


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One line of the request head (b"" at EOF).

    A line longer than :data:`MAX_LINE_BYTES` raises
    ``asyncio.LimitOverrunError`` and is left unread.
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial


async def _skip_head(reader: asyncio.StreamReader) -> None:
    """Read and drop the rest of a request head whose current line is
    too long, through its blank line (at most :data:`MAX_BODY_BYTES`).

    Closing a socket with unread input resets the connection, which can
    destroy the error reply before the client reads it.
    """
    inside_line = True  # the too-long line is still unread
    skipped = 0
    while skipped < MAX_BODY_BYTES:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError:
            return
        except asyncio.LimitOverrunError as exc:
            # ``consumed`` buffered bytes hold no line end: drop them.
            await reader.readexactly(exc.consumed)
            skipped += exc.consumed
            inside_line = True
            continue
        if not inside_line and line in (b"\r\n", b"\n"):
            return
        inside_line = False
        skipped += len(line)


async def _read_request(
    reader: asyncio.StreamReader,
) -> "tuple[str, str, bytes] | None":
    """One HTTP/1.1 request as (method, path, body); None on EOF."""
    try:
        request_line = await _read_line(reader)
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        length = "0"
        while True:
            line = await _read_line(reader)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = value.strip()
    except ConnectionError:
        return None
    except asyncio.LimitOverrunError:
        await _skip_head(reader)
        raise _HttpError(
            HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
            "header-too-large",
            f"a request line or header is longer than {MAX_LINE_BYTES} bytes",
        ) from None
    # Headers are read in full first, so the error reply is the next
    # thing the client sees.
    if not (length.isascii() and length.isdigit()):
        raise _HttpError(
            HTTPStatus.BAD_REQUEST,
            "bad-content-length",
            f"Content-Length must be a non-negative integer, got {length!r}",
        )
    content_length = int(length)
    if content_length > MAX_BODY_BYTES:
        raise _HttpError(
            HTTPStatus.REQUEST_ENTITY_TOO_LARGE,
            "body-too-large",
            f"request body {content_length} bytes exceeds {MAX_BODY_BYTES}",
        )
    body = b""
    if content_length:
        try:
            body = await reader.readexactly(content_length)
        except asyncio.IncompleteReadError:  # the client hung up mid-body
            return None
    path = urlsplit(target).path
    return method, path, body


async def _send_json(
    writer: asyncio.StreamWriter, status: HTTPStatus, payload: dict
) -> None:
    body = json.dumps(payload, sort_keys=True).encode()
    writer.write(
        f"HTTP/1.1 {status.value} {status.phrase}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n"
        f"\r\n".encode()
        + body
    )
    await writer.drain()


def _sse_line(event: dict) -> bytes:
    return b"data: " + json.dumps(event, sort_keys=True).encode() + b"\n\n"


def serve(config: ServiceConfig) -> int:
    """The blocking CLI entry: run until SIGINT/SIGTERM, then drain."""
    import signal

    async def main() -> None:
        server = SimulationServer(config)
        await server.start()
        host, port = server.address
        print(f"pynamic-repro serve: listening on http://{host}:{port}")
        print(
            f"  workers={config.workers} cache_dir={config.cache_dir}"
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await stop.wait()
        print("pynamic-repro serve: draining in-flight jobs ...")
        await server.stop()
        print("pynamic-repro serve: stopped")

    asyncio.run(main())
    return 0


@contextlib.contextmanager
def running_server(config: ServiceConfig):
    """A started server on a background thread (tests and examples).

    Yields the :class:`SimulationServer`; leaving the block performs
    the same graceful shutdown ``serve()`` runs on SIGTERM.
    """
    started = threading.Event()
    state: dict = {}

    def runner() -> None:
        async def main() -> None:
            server = SimulationServer(config)
            await server.start()
            state["server"] = server
            state["loop"] = asyncio.get_running_loop()
            state["stop"] = asyncio.Event()
            started.set()
            await state["stop"].wait()
            await server.stop()

        try:
            asyncio.run(main())
        except BaseException as exc:  # surface startup failures
            state["error"] = exc
            started.set()

    thread = threading.Thread(target=runner, name="serve-test", daemon=True)
    thread.start()
    if not started.wait(timeout=30) or "error" in state:
        raise RuntimeError(
            f"service failed to start: {state.get('error', 'timeout')}"
        )
    try:
        yield state["server"]
    finally:
        state["loop"].call_soon_threadsafe(state["stop"].set)
        thread.join(timeout=60)
