"""The asyncio HTTP server behind ``pynamic-repro serve``.

Stdlib only: ``asyncio.start_server`` with a hand-rolled HTTP/1.1
request reader (the surface is five well-known endpoints, not a web
framework's worth of routing), ``http.HTTPStatus`` for the status
line, and a ``ProcessPoolExecutor`` for the actual simulating.

Connections are kept alive: each one serves requests in a loop until
the client sends ``Connection: close`` or speaks HTTP/1.0, an error
reply leaves request input unread (a bad head, an oversized or
``Transfer-Encoding`` body), an event stream ends, the server stops,
or no request arrives for :data:`KEEPALIVE_IDLE_S` seconds.

Request flow for ``POST /v1/jobs``:

1. parse + schema-validate the body through the shared
   :func:`parse_spec_document` / :func:`parse_workload_document`
   entries (a bad field is a 400 with the field-naming ``ConfigError``
   message, same text the CLI prints);
2. read the hash's stored result document and answer a warm hash
   instantly with ``cached: true``: one SELECT, whose canonical JSON is
   spliced into the response unchanged (:class:`RawJSON`).  The server
   keeps one read-only handle open from start to stop, on a reader
   thread of its own (see :class:`WarehouseReader`), so the read never
   blocks the event loop and never queues behind the writer pool;
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
close idle kept-alive connections, cancel never-started jobs (marked
``abandoned``), wait for in-flight workers to finish — they commit to
the warehouse themselves, so every completed result survives — then
emit the terminal events and close.

A worker that dies (killed, out of memory) breaks the pool for good:
its job ends ``failed``, every later cold ``POST /v1/jobs`` is finished
``failed`` and answered 503 ``workers-unavailable``, and ``/healthz``
answers 503, so a supervisor restarts the service.  Warm answers are
still served from the warehouse.
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
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from http import HTTPStatus
from typing import Callable
from urllib.parse import unquote, urlsplit

from repro.errors import ConfigError
from repro.results.schema import SCENARIO_FUNC, WORKLOAD_FUNC
from repro.service.jobs import JobRegistry
from repro.service.worker import init_worker, run_job

#: Largest request body the server will read (a spec document is KBs).
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Longest request line or header line (asyncio's default stream limit);
#: a longer one is answered 431.
MAX_LINE_BYTES = 64 * 1024
#: Seconds a kept-alive connection may wait for its next request before
#: the server closes it.
KEEPALIVE_IDLE_S = 15.0
#: Seconds an error reply that closes the connection waits for the
#: client to stop sending (see :func:`_linger`).
LINGER_S = 1.0


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


class RawJSON:
    """JSON text that :func:`_encode` splices into a response unchanged
    (a result document read from its warehouse row)."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


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
        #: Transports of connections waiting for their next request:
        #: stop() closes them, busy ones close after their reply.
        self._idle: set = set()
        self._stopping = False
        #: Set once a worker died: the pool is then broken for good.
        self._workers_lost = False

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
            self._server.close()  # stop accepting
        for transport in list(self._idle):
            transport.close()
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
        # A worker killed mid-put can hold the progress queue's write
        # lock forever; a put would then start a feeder thread that
        # blocks on it, and the interpreter joins that thread at exit.
        # So after a worker died, the daemon drain thread is left to end
        # with the process.
        if self._progress_queue is not None and not self._workers_lost:
            self._progress_queue.put(None)  # stop the drain thread
            if self._drain_thread is not None:
                self._drain_thread.join(timeout=10)
        if self._server is not None:
            # After the drain: on Python 3.12+ this also waits for every
            # connection to close, and event streams close only once
            # their job has its terminal event.
            await self._server.wait_closed()
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
            self._fail(job, exc)
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

    def _fail(self, job, exc: Exception) -> None:
        """Finish ``job`` failed.  A dead worker breaks the pool for
        good: rebuilding it would fork after the server's threads have
        started, the deadlock :meth:`start` avoids."""
        if isinstance(exc, BrokenProcessPool):
            self._workers_lost = True
        self.registry.counters["jobs_failed"] += 1
        self.registry.finish(
            job, "failed", error=f"{type(exc).__name__}: {exc}"
        )

    # -- warehouse (the one read-only handle, on its reader thread) --------
    async def _warehouse(self, query: Callable[[object], object]) -> object:
        if self._reader is None:
            return None
        return await self._reader.read(query)

    # -- HTTP plumbing -----------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve requests on one connection until it should close."""
        transport = writer.transport
        loop = asyncio.get_running_loop()
        try:
            while not self._stopping:
                self._idle.add(transport)
                idle = loop.call_later(KEEPALIVE_IDLE_S, transport.close)
                try:
                    request = await _read_request(reader)
                except _HttpError as exc:
                    await _send_json(writer, exc.status, exc.body, False)
                    await _linger(reader, writer)
                    return
                finally:
                    idle.cancel()
                    self._idle.discard(transport)
                if request is None:
                    return
                method, path, body, keep_alive = request
                try:
                    reply = await self._route(writer, method, path, body)
                except _HttpError as exc:
                    reply = exc.status, exc.body
                except ConnectionError:
                    return
                except Exception as exc:
                    reply = HTTPStatus.INTERNAL_SERVER_ERROR, {
                        "error": "internal",
                        "detail": f"{type(exc).__name__}: {exc}",
                    }
                if reply is None:
                    return  # an event stream, which ends with the connection
                keep_alive = keep_alive and not self._stopping
                await _send_json(writer, *reply, keep_alive)
                if not keep_alive:
                    return
        except ConnectionError:
            pass
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
    ) -> "tuple[HTTPStatus, dict] | None":
        """The (status, payload) reply to one request; None when the
        endpoint wrote its own response (an event stream)."""
        if method == "POST" and path == "/v1/jobs":
            return await self._post_job(body)
        if method == "GET" and path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/events"):
                await self._get_events(writer, rest[: -len("/events")].rstrip("/"))
                return None
            return self._get_job(rest)
        if method == "GET" and path.startswith("/v1/results/"):
            return await self._get_result(path[len("/v1/results/"):])
        if method == "GET" and path == "/v1/presets":
            return self._get_presets()
        if method == "GET" and path == "/healthz":
            return self._get_healthz()
        if method == "GET" and path == "/metrics":
            return await self._get_metrics()
        raise _HttpError(
            HTTPStatus.NOT_FOUND, "not-found", f"no route for {method} {path}"
        )

    # -- endpoints ---------------------------------------------------------
    async def _post_job(self, body: bytes) -> "tuple[HTTPStatus, dict]":
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
        document = await self._warehouse(
            lambda warehouse: warehouse.load_document(func_name, spec_hash)
        )
        if document is not None:
            counters["warehouse_hits"] += 1
            counters["jobs_cached"] += 1
            job = self.registry.create_cached(
                kind, spec_hash, data, RawJSON(document)
            )
            return HTTPStatus.OK, {
                "job_id": job.job_id,
                "spec_hash": spec_hash,
                "status": "done",
                "cached": True,
                "result": job.result,
            }
        counters["warehouse_misses"] += 1
        active = self.registry.active_for(spec_hash)
        if active is not None:
            counters["jobs_deduplicated"] += 1
            return HTTPStatus.ACCEPTED, {
                "job_id": active.job_id,
                "spec_hash": spec_hash,
                "status": active.status,
                "cached": False,
                "deduplicated": True,
                "events": f"/v1/jobs/{active.job_id}/events",
            }
        counters["jobs_submitted"] += 1
        doc = spec.to_dict()
        job = self.registry.create(kind, spec_hash, doc)
        assert self._loop is not None and self._pool is not None
        try:
            pool_future = self._pool.submit(
                run_job, job.job_id, kind, doc, self.config.cache_dir
            )
        except BrokenProcessPool as exc:
            self._fail(job, exc)
            raise _HttpError(
                HTTPStatus.SERVICE_UNAVAILABLE,
                "workers-unavailable",
                "a worker process died and the pool cannot run jobs; "
                "restart the service",
            ) from exc
        self._pool_futures[job.job_id] = pool_future
        job.aio_future = asyncio.wrap_future(pool_future, loop=self._loop)
        finisher = asyncio.ensure_future(self._finish_job(job, job.aio_future))
        self._finishers.add(finisher)
        finisher.add_done_callback(self._finishers.discard)
        return HTTPStatus.ACCEPTED, {
            "job_id": job.job_id,
            "spec_hash": spec_hash,
            "status": job.status,
            "cached": False,
            "events": f"/v1/jobs/{job.job_id}/events",
        }

    def _get_job(self, job_id: str) -> "tuple[HTTPStatus, dict]":
        job = self.registry.get(unquote(job_id))
        if job is None:
            raise _HttpError(
                HTTPStatus.NOT_FOUND, "unknown-job", f"no job {job_id!r}"
            )
        return HTTPStatus.OK, job.to_dict()

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

    async def _get_result(self, spec_hash: str) -> "tuple[HTTPStatus, dict]":
        spec_hash = unquote(spec_hash).strip("/")
        row = await self._warehouse(
            lambda warehouse: warehouse.load_document_by_result_key(spec_hash)
        )
        if row is None:
            raise _HttpError(
                HTTPStatus.NOT_FOUND,
                "unknown-result",
                f"warehouse has no row for spec hash {spec_hash!r}",
            )
        return HTTPStatus.OK, {
            "spec_hash": spec_hash,
            "cached": True,
            "result": RawJSON(row["document"]),
            "row": {
                key: row[key]
                for key in ("kind", "git_commit", "created_at", "updated_at")
            },
        }

    def _get_presets(self) -> "tuple[HTTPStatus, dict]":
        from repro.scenario import scenario_preset_names
        from repro.workload import workload_preset_names

        return HTTPStatus.OK, {
            "scenarios": list(scenario_preset_names()),
            "workloads": list(workload_preset_names()),
        }

    def _get_healthz(self) -> "tuple[HTTPStatus, dict]":
        if self._workers_lost:
            return HTTPStatus.SERVICE_UNAVAILABLE, {
                "error": "workers-unavailable",
                "detail": "a worker process died; restart the service",
            }
        return HTTPStatus.OK, {
            "status": "draining" if self._stopping else "ok",
            "uptime_s": (
                time.time() - self.started_at if self.started_at else 0.0
            ),
            "workers": self.config.workers,
        }

    async def _get_metrics(self) -> "tuple[HTTPStatus, dict]":
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
        return HTTPStatus.OK, metrics


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
) -> "tuple[str, str, bytes, bool] | None":
    """One HTTP/1.1 request as (method, path, body, keep_alive); None on
    EOF.  ``keep_alive`` is False for HTTP/1.0 and ``Connection: close``.
    An :class:`_HttpError` raised here leaves the request's input unread,
    so its reply closes the connection."""
    try:
        request_line = await _read_line(reader)
        while request_line in (b"\r\n", b"\n"):  # stray line ends
            request_line = await _read_line(reader)
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        keep_alive = len(parts) > 2 and parts[2] == "HTTP/1.1"
        length = "0"
        chunked = False
        while True:
            line = await _read_line(reader)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = value.strip()
            elif name == "connection":
                tokens = {token.strip().lower() for token in value.split(",")}
                keep_alive = keep_alive and "close" not in tokens
            elif name == "transfer-encoding":
                chunked = True
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
    if chunked:
        # Its body would stay unread and be parsed as the next request.
        raise _HttpError(
            HTTPStatus.NOT_IMPLEMENTED,
            "transfer-encoding-unsupported",
            "request bodies must be sent with Content-Length, "
            "not Transfer-Encoding",
        )
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
    return method, path, body, keep_alive


async def _linger(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    """Before closing after an error reply: end our side, then drop what
    the client still sends until it closes, for at most
    :data:`LINGER_S`.  Closing a socket while input still arrives resets
    the connection, which can destroy the reply before the client reads
    it (a client that sends a 9 MiB body it was refused reads its 413
    only after the last byte is sent)."""

    async def discard() -> None:
        while await reader.read(65536):
            pass

    with contextlib.suppress(Exception):
        writer.write_eof()
        await asyncio.wait_for(discard(), LINGER_S)


def _encode(payload: dict) -> bytes:
    """``payload`` as sorted-key JSON.  A top-level :class:`RawJSON`
    value is spliced in as its text, so the bytes are those of
    ``json.dumps(..., sort_keys=True)`` over the parsed value."""
    if not any(value.__class__ is RawJSON for value in payload.values()):
        return json.dumps(payload, sort_keys=True).encode()
    members = ", ".join(
        f"{json.dumps(key)}: "
        + (
            value.text
            if value.__class__ is RawJSON
            else json.dumps(value, sort_keys=True)
        )
        for key, value in sorted(payload.items())
    )
    return f"{{{members}}}".encode()


async def _send_json(
    writer: asyncio.StreamWriter,
    status: HTTPStatus,
    payload: dict,
    keep_alive: bool,
) -> None:
    body = _encode(payload)
    head = (
        f"HTTP/1.1 {status.value} {status.phrase}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
    ).encode()
    end = b"\r\n" if keep_alive else b"Connection: close\r\n\r\n"
    writer.write(head + end + body)
    await writer.drain()


def _sse_line(event: dict) -> bytes:
    return b"data: " + _encode(event) + b"\n\n"


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
