"""End-to-end tests for the simulation service (``pynamic-repro serve``).

Each test boots a real server on an ephemeral port (the same code path
the CLI runs) and talks to it over real HTTP with the stdlib
:class:`ServiceClient`.  The acceptance criteria pinned here:

- a cold ``POST /v1/jobs`` runs in a pool worker and streams >= 1
  progress event strictly before the terminal result;
- an identical second POST — and a direct ``GET
  /v1/results/{spec_hash}`` — returns the bit-identical report from
  the warehouse with ``cached: true``, without re-simulating, and
  ``/metrics`` reflects the hit (the tier-1 CI smoke);
- concurrent duplicate submissions of one cold spec share one
  simulation through the dedup registry;
- invalid documents are rejected with field-naming ConfigError text;
- graceful shutdown under load abandons only never-started jobs and
  loses no committed results;
- a request line or header longer than the stream limit is a 431;
- warm reads share one long-lived read-only handle that sees rows
  committed after it opened, follows a rebuilt warehouse file and is
  closed by ``stop()``;
- the registry keeps a bounded number of finished jobs;
- warm answers splice the row's stored document: the warm POST, the
  warm GET and the cold job's result are the same bytes;
- connections are kept alive, and closed on ``Connection: close``,
  HTTP/1.0, an error that leaves input unread (413, 431, 501 for
  ``Transfer-Encoding``) and SIGTERM; the client reconnects after an
  idle close and never resends a request whose answer had begun;
- a worker killed mid-job fails its job, and with the pool broken every
  later cold job is failed and answered 503 and ``/healthz`` is 503.
"""

import asyncio
import concurrent.futures
import contextlib
import dataclasses
import json
import multiprocessing
import os
import signal
import socket
import sqlite3
import threading

import pytest

from repro.core.config import PynamicConfig
from repro.harness.cli import build_parser, main
from repro.results import ResultsWarehouse, resolve_warehouse_path
from repro.scenario import scenario_preset, simulate
from repro.scenario.spec import ScenarioSpec
from repro.service import ServiceClient, ServiceConfig, ServiceError, running_server
from repro.service import jobs
from repro.service.jobs import JobRegistry
from repro.workload import TenantSpec, WorkloadSpec


def _tiny_spec(seed: int = 987) -> ScenarioSpec:
    return ScenarioSpec(
        config=PynamicConfig(
            n_modules=2, n_utilities=1, avg_functions=4, seed=seed
        ),
        n_tasks=2,
    )


@pytest.fixture()
def service(tmp_path):
    config = ServiceConfig(port=0, workers=2, cache_dir=str(tmp_path))
    with running_server(config) as server:
        host, port = server.address
        client = ServiceClient(host, port)
        yield server, client
        client.close()


class TestEndToEnd:
    def test_cold_then_cached_then_direct_read(self, service):
        server, client = service
        spec = _tiny_spec()

        submitted = client.submit(spec)
        assert submitted["cached"] is False
        assert submitted["spec_hash"] == spec.spec_hash

        events = list(client.events(submitted["job_id"]))
        kinds = [event["event"] for event in events]
        assert kinds[-1] == "done"
        # >= 1 progress event strictly before the terminal result
        assert "phase" in kinds[:-1]
        assert kinds.index("phase") < kinds.index("done")

        final = client.job(submitted["job_id"])
        assert final["status"] == "done"
        result = final["result"]
        assert result["spec_hash"] == spec.spec_hash
        assert result["columns"]["total_s"] > 0

        # Identical second POST: a warehouse hit, bit-identical result.
        second = client.submit(spec)
        assert second["cached"] is True
        assert second["status"] == "done"
        assert second["result"] == result
        assert second["job_id"] != submitted["job_id"]

        # Direct warehouse read returns the same document.
        direct = client.result(spec.spec_hash)
        assert direct["cached"] is True
        assert direct["result"] == result

        # /metrics reflects the hit (the CI smoke assertion).
        metrics = client.metrics()
        assert metrics["jobs_submitted"] == 1
        assert metrics["jobs_cached"] == 1
        assert metrics["jobs_completed"] == 1
        assert metrics["warehouse_hits"] == 1
        assert metrics["warehouse_rows"] == 1
        assert metrics["warehouse_hit_rate"] == pytest.approx(0.5)

    def test_concurrent_duplicates_share_one_simulation(self, service):
        server, client = service
        spec = _tiny_spec(seed=321)

        def submit():
            return client.submit(spec)

        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            responses = [f.result() for f in [pool.submit(submit) for _ in range(4)]]

        job_ids = {response["job_id"] for response in responses}
        assert len(job_ids) == 1  # all four share the one registry job
        assert sum(1 for r in responses if r.get("deduplicated")) == 3

        final = client.wait(job_ids.pop())
        assert final["status"] == "done"
        metrics = client.metrics()
        assert metrics["jobs_submitted"] == 1
        assert metrics["jobs_deduplicated"] == 3
        assert metrics["jobs_completed"] == 1

    def test_workload_document_round_trips(self, service):
        server, client = service
        scenario = dataclasses.replace(_tiny_spec(seed=555), engine="multirank")
        workload = WorkloadSpec(
            n_nodes=2,
            tenants=(
                TenantSpec(name="t0", scenario=scenario, n_jobs=1),
            ),
        )
        submitted = client.submit(workload)
        final = client.wait(submitted["job_id"])
        assert final["status"] == "done"
        assert final["kind"] == "workload"
        assert final["result"]["columns"]["total_max"] > 0


class TestWorkerPool:
    def test_workers_fork_before_the_server_accepts(self, tmp_path, monkeypatch):
        """Every pool worker exists before the first connection can be
        accepted, and no cold job forks another one later."""
        before = {child.pid for child in multiprocessing.active_children()}
        at_listen: dict = {}
        start_server = asyncio.start_server

        async def recording_start_server(*args, **kwargs):
            children = multiprocessing.active_children()
            at_listen["pids"] = {child.pid for child in children} - before
            return await start_server(*args, **kwargs)

        monkeypatch.setattr(asyncio, "start_server", recording_start_server)
        config = ServiceConfig(port=0, workers=2, cache_dir=str(tmp_path))
        with running_server(config) as server:
            assert len(at_listen["pids"]) == config.workers
            client = ServiceClient(*server.address)
            final = client.wait(client.submit(_tiny_spec(seed=4242))["job_id"])
            assert final["status"] == "done"
            children = multiprocessing.active_children()
            assert {child.pid for child in children} - before == at_listen["pids"]


class TestValidationAndErrors:
    def test_bad_field_names_the_field(self, service):
        server, client = service
        document = _tiny_spec().to_dict()
        document["n_tasks"] = -5
        with pytest.raises(ServiceError) as excinfo:
            client.submit(document)
        assert excinfo.value.status == 400
        assert "n_tasks" in str(excinfo.value)

    def test_unknown_key_rejected(self, service):
        server, client = service
        document = _tiny_spec().to_dict()
        document["definitely_not_a_field"] = 1
        with pytest.raises(ServiceError) as excinfo:
            client.submit(document)
        assert excinfo.value.status == 400
        assert "definitely_not_a_field" in str(excinfo.value)

    def test_invalid_json_is_400(self, service):
        server, client = service
        import http.client

        conn = http.client.HTTPConnection(client.host, client.port, timeout=30)
        try:
            conn.request(
                "POST",
                "/v1/jobs",
                body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert payload["error"] == "invalid-json"

    def test_unknown_job_and_result_are_404(self, service):
        server, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.job("no-such-job")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.result("0" * 64)
        assert excinfo.value.status == 404

    def test_unknown_route_is_404(self, service):
        server, client = service
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/v2/everything")
        assert excinfo.value.status == 404

    @pytest.mark.parametrize(
        "length,status,error",
        [
            ("9437184", 413, "body-too-large"),
            ("-5", 400, "bad-content-length"),
            ("twelve", 400, "bad-content-length"),
        ],
    )
    def test_bad_content_length_gets_an_error_reply(
        self, service, caplog, length, status, error
    ):
        server, client = service
        head = (
            f"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {length}\r\n\r\n"
        )
        with socket.create_connection((client.host, client.port), timeout=30) as sock:
            sock.sendall(head.encode())
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        status_line, _, rest = reply.partition(b"\r\n")
        assert status_line.split()[1] == str(status).encode()
        assert json.loads(rest.partition(b"\r\n\r\n")[2])["error"] == error
        assert client.healthz()["status"] == "ok"
        assert "client_connected_cb" not in caplog.text


class TestOperability:
    def test_healthz_and_presets(self, service):
        server, client = service
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        presets = client.presets()
        assert "tiny" in presets["scenarios"]
        assert presets["workloads"]  # the registry is non-empty

    def test_event_stream_replays_after_completion(self, service):
        server, client = service
        spec = _tiny_spec(seed=777)
        submitted = client.submit(spec)
        client.wait(submitted["job_id"])
        # A late subscriber still sees the full history, terminal last.
        replay = [e["event"] for e in client.events(submitted["job_id"])]
        assert replay[0] == "queued"
        assert replay[-1] == "done"
        assert "phase" in replay


class TestGracefulShutdown:
    def test_drain_under_load_loses_no_committed_results(self, tmp_path):
        """Submit more cold jobs than workers, stop mid-flight: every
        job ends terminal, abandoned ones never started, and every
        'done' job's row is in the warehouse."""
        config = ServiceConfig(port=0, workers=1, cache_dir=str(tmp_path))
        with running_server(config) as server:
            host, port = server.address
            client = ServiceClient(host, port)
            submitted = [
                client.submit(_tiny_spec(seed=1000 + i)) for i in range(4)
            ]
            # exit the context: graceful stop while most jobs queue
        jobs = [server.registry.get(s["job_id"]) for s in submitted]
        statuses = [job.status for job in jobs]
        assert all(status in ("done", "abandoned") for status in statuses)
        assert "done" in statuses  # the in-flight worker drained
        warehouse_path = resolve_warehouse_path(str(tmp_path))
        with ResultsWarehouse(warehouse_path, readonly=True) as warehouse:
            for job in jobs:
                stored = warehouse.load("_eval_scenario_point", job.spec_hash)
                if job.status == "done":
                    assert stored is not None
        # metrics accounting matches the terminal states
        counters = server.registry.counters
        assert counters["jobs_completed"] == statuses.count("done")
        assert counters["jobs_abandoned"] == statuses.count("abandoned")


class TestCli:
    def test_serve_parser_accepts_the_documented_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--host", "0.0.0.0", "--port", "0",
             "--workers", "3", "--cache-dir", "/tmp/w"]
        )
        assert args.command == "serve"
        assert (args.host, args.port, args.workers) == ("0.0.0.0", 0, 3)
        assert args.cache_dir == "/tmp/w"

    def test_spec_hash_prints_the_canonical_hash(self, capsys, tmp_path):
        spec = scenario_preset("tiny")
        assert main(["spec", "hash", "tiny"]) == 0
        assert capsys.readouterr().out.strip() == spec.spec_hash
        # a JSON file hashes identically to its preset
        path = tmp_path / "tiny.json"
        path.write_text(spec.canonical_json())
        assert main(["spec", "hash", str(path)]) == 0
        assert capsys.readouterr().out.strip() == spec.spec_hash

    def test_spec_hash_rejects_bad_documents(self, capsys, tmp_path):
        document = scenario_preset("tiny").to_dict()
        document["n_tasks"] = "many"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        assert main(["spec", "hash", str(path)]) == 1
        assert "n_tasks" in capsys.readouterr().err

    def test_workload_hash_prints_the_canonical_hash(self, capsys):
        from repro.workload import workload_preset

        expected = workload_preset("rush_hour").workload_hash
        assert main(["workload", "hash", "rush_hour"]) == 0
        assert capsys.readouterr().out.strip() == expected


class TestRegistry:
    def test_cached_answer_leaves_the_in_flight_job_indexed(self):
        registry = JobRegistry()
        cold = registry.create("scenario", "h", {})
        registry.mark_running(cold)
        cached = registry.create_cached("scenario", "h", {}, {"report": 1})
        assert cached.status == "done" and cached.cached
        assert [event["event"] for event in cached.events] == ["queued", "done"]
        assert registry.active_for("h") is cold
        assert registry.metrics()["jobs_running"] == 1
        registry.finish(cold, "done", result={})
        assert registry.active_for("h") is None
        assert registry.metrics()["jobs_running"] == 0


class TestOversizedHead:
    @pytest.mark.parametrize(
        "head",
        [
            # one 70,000-byte header line
            b"GET /healthz HTTP/1.1\r\nHost: x\r\nX-Big: "
            + b"a" * 70_000
            + b"\r\n\r\n",
            # a 70,000-byte request target
            b"GET /v1/jobs/" + b"b" * 70_000 + b" HTTP/1.1\r\nHost: x\r\n\r\n",
            # more than the server buffers: unread input at close would
            # reset the connection and lose the reply
            b"GET /healthz HTTP/1.1\r\nX-Big: "
            + b"c" * 300_000
            + b"\r\nX-Also-Big: "
            + b"d" * 100_000
            + b"\r\n\r\n",
        ],
        ids=["header", "target", "head-past-the-buffer"],
    )
    def test_line_over_the_stream_limit_is_431(self, service, head):
        server, client = service
        with socket.create_connection((client.host, client.port), timeout=30) as sock:
            sock.sendall(head)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        status_line, _, rest = reply.partition(b"\r\n")
        assert status_line.split()[1] == b"431"
        payload = json.loads(rest.partition(b"\r\n\r\n")[2])
        assert payload["error"] == "header-too-large"
        assert client.healthz()["status"] == "ok"


class TestWarehouseReader:
    def test_row_committed_after_the_reader_opened_is_a_warm_hit(self, service):
        server, client = service
        spec = _tiny_spec(seed=2024)
        assert client.metrics()["warehouse_rows"] == 0  # the reader is open
        simulate(spec, cache_dir=server.config.cache_dir)  # another writer
        submitted = client.submit(spec)
        assert submitted["cached"] is True
        assert client.metrics()["jobs_submitted"] == 0

    def test_a_replaced_warehouse_is_reopened(self, tmp_path, service):
        server, client = service
        first, second = _tiny_spec(seed=31), _tiny_spec(seed=32)
        simulate(first, cache_dir=server.config.cache_dir)
        assert client.submit(first)["cached"] is True
        # Quarantine and rebuild underneath the server.
        path = resolve_warehouse_path(server.config.cache_dir)
        for suffix in ("", "-wal", "-shm"):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path + suffix)
        simulate(second, cache_dir=server.config.cache_dir)
        assert client.submit(second)["cached"] is True
        assert client.metrics()["warehouse_rows"] == 1

    def test_a_database_error_reopens_the_handle_once(self, service, monkeypatch):
        server, client = service
        spec = _tiny_spec(seed=41)
        simulate(spec, cache_dir=server.config.cache_dir)
        # The warm POST reads the row's stored document.
        load = ResultsWarehouse.load_document
        failed = []

        def load_failing_once(self, func_name, key):
            if not failed:
                failed.append(self)
                raise sqlite3.DatabaseError("database disk image is malformed")
            return load(self, func_name, key)

        monkeypatch.setattr(ResultsWarehouse, "load_document", load_failing_once)
        assert client.submit(spec)["cached"] is True
        assert failed and server._reader._warehouse is not failed[0]

        def load_failing(self, func_name, key):
            failed.append(self)
            raise sqlite3.DatabaseError("database disk image is malformed")

        monkeypatch.setattr(ResultsWarehouse, "load_document", load_failing)
        with pytest.raises(ServiceError) as excinfo:
            client.submit(spec)
        assert excinfo.value.status == 500
        assert len(failed) == 3  # the read and one retry, no more

    def test_warm_requests_share_one_connection_closed_by_stop(
        self, tmp_path, monkeypatch
    ):
        specs = [_tiny_spec(seed=600 + i) for i in range(3)]
        for spec in specs:
            simulate(spec, cache_dir=str(tmp_path))
        opened, closed = [], []
        connect = sqlite3.connect

        class Tracked(sqlite3.Connection):
            def close(self):
                closed.append(self)
                super().close()

        def counting_connect(*args, **kwargs):
            conn = connect(*args, factory=Tracked, **kwargs)
            opened.append(conn)
            return conn

        monkeypatch.setattr(sqlite3, "connect", counting_connect)
        config = ServiceConfig(port=0, workers=1, cache_dir=str(tmp_path))
        with running_server(config) as server:
            client = ServiceClient(*server.address)
            del opened[:]  # the start-up read-write open
            for i in range(50):
                spec = specs[i % len(specs)]
                if i % 2:
                    assert client.result(spec.spec_hash)["cached"] is True
                else:
                    assert client.submit(spec)["cached"] is True
            assert len(opened) <= 1
        assert opened and all(conn in closed for conn in opened)
        assert not any(
            thread.name.startswith("serve-warehouse")
            for thread in threading.enumerate()
        )


class TestBoundedRegistry:
    def test_oldest_finished_job_is_evicted_first(self, monkeypatch):
        monkeypatch.setattr(jobs, "MAX_FINISHED_JOBS", 3)
        registry = JobRegistry()
        active = registry.create("scenario", "cold", {})
        done = [
            registry.create_cached("scenario", f"h{i}", {}, {"report": i})
            for i in range(5)
        ]
        assert [registry.get(job.job_id) for job in done] == [None, None, *done[2:]]
        assert registry.get(active.job_id) is active  # active: never evicted
        registry.finish(active, "done", result={})
        assert registry.get(active.job_id) is active
        assert registry.get(done[2].job_id) is None
        assert len(registry.jobs()) == 3

    def test_evicted_id_is_unknown_and_cached_waits_find_their_job(
        self, service, monkeypatch
    ):
        server, client = service
        monkeypatch.setattr(jobs, "MAX_FINISHED_JOBS", 2)
        spec = _tiny_spec(seed=77)
        simulate(spec, cache_dir=server.config.cache_dir)
        submitted, final = client.submit_and_wait(spec)
        assert submitted["cached"] is True
        assert final["status"] == "done" and final["job_id"] == submitted["job_id"]
        for _ in range(2):
            client.submit(spec)
        with pytest.raises(ServiceError) as excinfo:
            client.job(submitted["job_id"])
        assert excinfo.value.status == 404
        assert excinfo.value.payload["error"] == "unknown-job"


class TestFinishOrdering:
    def test_terminal_event_waits_for_progress_still_in_the_pipe(self):
        """The result can beat the worker's progress events to the loop;
        the job finishes as soon as the last one is drained, after it."""
        from repro.service.server import SimulationServer

        async def scenario():
            server = SimulationServer(ServiceConfig(cache_dir=None))
            job = server.registry.create("scenario", "h", {})
            future = asyncio.get_running_loop().create_future()
            future.set_result({"progress_events": 2, "report": 1})
            finisher = asyncio.ensure_future(server._finish_job(job, future))
            await asyncio.sleep(0.05)
            assert not job.terminal  # still waiting for the pipe
            for phase in ("import", "visit"):
                server._on_worker_event(
                    {"job_id": job.job_id, "event": "phase", "phase": phase}
                )
            await asyncio.wait_for(finisher, timeout=1.0)
            return job

        job = asyncio.run(scenario())
        assert [event["event"] for event in job.events] == [
            "queued", "phase", "phase", "done",
        ]
        assert job.result == {"report": 1}


def _read_reply(stream) -> "tuple[int, dict, bytes]":
    """One HTTP response from a socket file: (status, headers, body)."""
    status = int(stream.readline().split()[1])
    headers = {}
    while (line := stream.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, stream.read(int(headers.get("content-length", 0)))


def _raw_member(body: bytes, name: str) -> bytes:
    """The exact bytes of one top-level member's value in a JSON object."""
    text = body.decode()
    decoder = json.JSONDecoder()
    index = 1
    while True:
        index = len(text) - len(text[index:].lstrip(" ,"))
        key, index = decoder.raw_decode(text, index)
        index = text.index(":", index) + 1
        index = len(text) - len(text[index:].lstrip())
        _value, end = decoder.raw_decode(text, index)
        if key == name:
            return body[index:end]
        index = end


def _http_body(client, method: str, path: str, body: "bytes | None" = None) -> bytes:
    import http.client

    conn = http.client.HTTPConnection(client.host, client.port, timeout=60)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        assert response.status < 300
        return response.read()
    finally:
        conn.close()


class TestWarmAnswersFromTheRow:
    @pytest.mark.parametrize("kind", ["scenario", "multirank", "workload"])
    def test_warm_post_warm_get_and_cold_result_are_the_same_bytes(
        self, service, kind
    ):
        server, client = service
        spec = _tiny_spec(seed=880)
        if kind == "multirank":
            spec = spec.with_(engine="multirank", n_tasks=4, cores_per_node=2)
        if kind == "workload":
            spec = WorkloadSpec(
                n_nodes=2,
                tenants=(
                    TenantSpec(
                        name="t0",
                        scenario=spec.with_(engine="multirank"),
                        n_jobs=1,
                    ),
                ),
            )
        document = json.dumps(spec.to_dict()).encode()
        submitted = json.loads(_http_body(client, "POST", "/v1/jobs", document))
        assert submitted["cached"] is False
        assert client.wait(submitted["job_id"])["status"] == "done"
        cold = _raw_member(
            _http_body(client, "GET", f"/v1/jobs/{submitted['job_id']}"), "result"
        )
        warm_post = _http_body(client, "POST", "/v1/jobs", document)
        assert json.loads(warm_post)["cached"] is True
        spec_hash = submitted["spec_hash"]
        warm_get = _http_body(client, "GET", f"/v1/results/{spec_hash}")
        assert _raw_member(warm_post, "result") == cold
        assert _raw_member(warm_get, "result") == cold
        assert json.loads(cold)["kind"] == ("workload" if kind == "workload" else "scenario")

    def test_a_row_without_a_document_is_not_served(self, service):
        """Only scenario and workload rows store an answer; another
        function's row under the same hash is never spliced in."""
        server, client = service
        spec = _tiny_spec(seed=881)
        with ResultsWarehouse.for_cache_dir(server.config.cache_dir) as warehouse:
            warehouse.store("eval_staging_point", spec.spec_hash, {"staged": 1})
        with pytest.raises(ServiceError) as excinfo:
            client.result(spec.spec_hash)
        assert excinfo.value.status == 404


class TestKeepAlive:
    def test_two_requests_share_one_socket(self, service):
        server, client = service
        spec = _tiny_spec(seed=901)
        simulate(spec, cache_dir=server.config.cache_dir)
        body = json.dumps(spec.to_dict()).encode()
        with socket.create_connection((client.host, client.port), timeout=30) as sock:
            stream = sock.makefile("rb")
            sock.sendall(
                b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            status, headers, first = _read_reply(stream)
            assert status == 200 and "connection" not in headers
            sock.sendall(
                f"GET /v1/results/{spec.spec_hash} HTTP/1.1\r\nHost: x\r\n\r\n".encode()
            )
            status, headers, second = _read_reply(stream)
            assert status == 200
        assert json.loads(first)["cached"] is True
        assert json.loads(second)["result"] == json.loads(first)["result"]

    @pytest.mark.parametrize(
        "request_head",
        [
            b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
            b"GET /healthz HTTP/1.0\r\n\r\n",
        ],
        ids=["connection-close", "http-1.0"],
    )
    def test_the_server_closes_when_asked(self, service, request_head):
        server, client = service
        with socket.create_connection((client.host, client.port), timeout=30) as sock:
            stream = sock.makefile("rb")
            sock.sendall(request_head)
            status, headers, body = _read_reply(stream)
            assert status == 200 and json.loads(body)["status"] == "ok"
            assert headers["connection"] == "close"
            assert stream.read() == b""  # closed by the server

    @pytest.mark.parametrize(
        "head,status",
        [
            (b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 9437184\r\n\r\n", 413),
            (b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n", 431),
        ],
        ids=["413", "431"],
    )
    def test_an_error_that_leaves_input_unread_closes(self, service, head, status):
        server, client = service
        with socket.create_connection((client.host, client.port), timeout=30) as sock:
            stream = sock.makefile("rb")
            sock.sendall(head)
            got, headers, _body = _read_reply(stream)
            assert got == status and headers["connection"] == "close"
            assert stream.read() == b""

    def test_a_refused_body_still_gets_its_413(self, service):
        """http.client sends the whole body before it reads the reply:
        the server drops the body instead of resetting the connection
        under the reply."""
        import http.client

        server, client = service
        conn = http.client.HTTPConnection(client.host, client.port, timeout=30)
        try:
            conn.request("POST", "/v1/jobs", body=b"x" * (9 * 1024 * 1024))
            response = conn.getresponse()
            assert response.status == 413
            assert json.loads(response.read())["error"] == "body-too-large"
        finally:
            conn.close()

    def test_a_handled_error_keeps_the_connection(self, service):
        server, client = service
        with socket.create_connection((client.host, client.port), timeout=30) as sock:
            stream = sock.makefile("rb")
            sock.sendall(b"GET /v2/nothing HTTP/1.1\r\nHost: x\r\n\r\n")
            assert _read_reply(stream)[0] == 404
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            assert _read_reply(stream)[0] == 200

    def test_transfer_encoding_is_501_and_its_body_is_never_a_request(
        self, service
    ):
        server, client = service
        # A chunked body that would read as a request if left unread.
        smuggled = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        chunk = f"{len(smuggled):x}\r\n".encode() + smuggled + b"\r\n0\r\n\r\n"
        with socket.create_connection((client.host, client.port), timeout=30) as sock:
            stream = sock.makefile("rb")
            sock.sendall(
                b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n" + chunk
            )
            status, headers, body = _read_reply(stream)
            assert status == 501 and headers["connection"] == "close"
            assert json.loads(body)["error"] == "transfer-encoding-unsupported"
            assert stream.read() == b""  # one reply, then the close
        assert client.healthz()["status"] == "ok"

    def test_one_client_shared_by_two_threads(self, service):
        server, client = service
        specs = [_tiny_spec(seed=910 + i) for i in range(2)]
        for spec in specs:
            simulate(spec, cache_dir=server.config.cache_dir)
        connections, errors = [], []

        def lane(spec):
            try:
                for _ in range(20):
                    answer = client.submit(spec)
                    assert answer["cached"] is True
                    assert answer["result"]["spec_hash"] == spec.spec_hash
                    assert client.result(spec.spec_hash)["result"] == answer["result"]
                connections.append(client._local.conn)
            except Exception as exc:  # surfaced below
                errors.append(exc)
            finally:
                client.close()

        lanes = [threading.Thread(target=lane, args=(spec,)) for spec in specs]
        for thread in lanes:
            thread.start()
        for thread in lanes:
            thread.join()
        assert not errors
        assert len({id(conn) for conn in connections}) == 2
        assert client.metrics()["jobs_cached"] == 40

    def test_the_client_reconnects_after_an_idle_close(self, tmp_path, monkeypatch):
        from repro.service import server as server_module

        monkeypatch.setattr(server_module, "KEEPALIVE_IDLE_S", 0.2)
        config = ServiceConfig(port=0, workers=1, cache_dir=str(tmp_path))
        with running_server(config) as server:
            client = ServiceClient(*server.address)
            first = client.submit(_tiny_spec(seed=920))
            assert first["cached"] is False
            client.wait(first["job_id"])
            stale = client._local.conn
            import time

            time.sleep(0.6)  # the server closes the idle connection
            second = client.submit(_tiny_spec(seed=921))
            assert second["cached"] is False
            assert client._local.conn is not stale
            client.wait(second["job_id"])
            # Each POST reached the server once: no answered request resent.
            metrics = client.metrics()
            assert metrics["jobs_submitted"] == 2
            assert metrics["jobs_deduplicated"] == 0
            client.close()

    def test_a_request_whose_answer_began_is_never_resent(self):
        """A reused connection that breaks after response bytes arrived
        raises instead of sending the request again."""
        import http.client

        listener = socket.create_server(("127.0.0.1", 0))
        received = []

        def fake_server():
            conn, _ = listener.accept()
            with conn:
                stream = conn.makefile("rb")
                for reply in (
                    b'HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}',
                    b"HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\n{",
                ):
                    line = stream.readline()
                    while stream.readline() not in (b"\r\n", b""):
                        pass
                    received.append(line)
                    conn.sendall(reply)
            listener.settimeout(1.0)
            with contextlib.suppress(OSError):
                extra, _ = listener.accept()  # a resend would connect here
                received.append(extra.recv(1024))
                extra.close()

        thread = threading.Thread(target=fake_server)
        thread.start()
        client = ServiceClient(*listener.getsockname()[:2], timeout=5)
        try:
            assert client.healthz() == {}
            with pytest.raises(http.client.IncompleteRead):
                client.healthz()
        finally:
            client.close()
            thread.join()
            listener.close()
        assert len(received) == 2


class TestShutdownWithKeptAliveConnections:
    def test_sigterm_with_an_idle_connection_exits_within_two_seconds(
        self, tmp_path
    ):
        import signal
        import subprocess
        import sys
        import time

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.harness.cli", "serve", "--port", "0",
             "--workers", "1", "--cache-dir", str(tmp_path)],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            host, port = line.rsplit("//", 1)[1].strip().rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=30) as sock:
                stream = sock.makefile("rb")
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                assert _read_reply(stream)[0] == 200
                begin = time.perf_counter()
                proc.send_signal(signal.SIGTERM)
                assert proc.wait(timeout=10) == 0
                assert time.perf_counter() - begin < 2.0
                assert stream.read() == b""  # the idle connection was closed
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()


class TestWorkerKilledMidJob:
    def test_the_job_fails_and_later_cold_jobs_get_503(self, tmp_path):
        """SIGKILL the only worker mid-job: that job ends failed, every
        later cold POST is failed and answered 503 (not queued forever
        and deduplicated onto), and /healthz reports the dead pool."""
        config = ServiceConfig(port=0, workers=1, cache_dir=str(tmp_path))
        with running_server(config) as server:
            client = ServiceClient(*server.address)
            warm = _tiny_spec(seed=4711)
            client.submit_and_wait(warm)
            slow = ScenarioSpec(
                config=PynamicConfig(
                    n_modules=40, n_utilities=20, avg_functions=60, seed=4712
                )
            )
            submitted = client.submit(slow)
            for event in client.events(submitted["job_id"], timeout=30):
                if event["event"] == "running":
                    os.kill(event["pid"], signal.SIGKILL)
                    break
            final = client.wait(submitted["job_id"], timeout=30)
            assert final["status"] == "failed"
            assert "BrokenProcessPool" in final["error"]

            cold = _tiny_spec(seed=4713)
            for _ in range(2):  # a re-POST is not deduplicated onto it
                with pytest.raises(ServiceError) as refused:
                    client.submit(cold)
                assert refused.value.status == 503
                assert refused.value.payload["error"] == "workers-unavailable"
            with pytest.raises(ServiceError) as health:
                client.healthz()
            assert health.value.status == 503
            assert client.submit(warm)["cached"] is True
            metrics = client.metrics()
            assert metrics["queue_depth"] == 0
            assert metrics["jobs_running"] == 0
            assert metrics["jobs_failed"] == 3
            client.close()
        failed = [job for job in server.registry.jobs() if job.status == "failed"]
        assert len(failed) == 3
