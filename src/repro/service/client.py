"""A stdlib HTTP client for the simulation service.

``http.client`` only — the same no-new-deps rule as the server.  Each
thread keeps one HTTP/1.1 connection open across requests (the server
keeps connections alive), except :meth:`events`, which opens its own
connection and yields SSE ``data:`` lines until the server closes it.
A kept-alive connection the server has since closed is reopened once,
and only when no byte of the response had arrived, so a request the
server answered is never sent twice.

Used by the service tests and ``examples/serve_client.py``; also a
reasonable template for talking to the service from anywhere else.
"""

from __future__ import annotations

import http.client
import json
import threading
from typing import Any, Iterator, Mapping

#: Failures of a reused connection that happen before any response
#: byte arrives: the server closed it while idle, so the request was
#: never read.
_STALE_CONNECTION = (
    http.client.RemoteDisconnected,
    BrokenPipeError,
    ConnectionResetError,
    ConnectionAbortedError,
)


class ServiceError(RuntimeError):
    """A non-2xx response from the service."""

    def __init__(self, status: int, payload: Any) -> None:
        detail = payload.get("detail") if isinstance(payload, dict) else payload
        super().__init__(f"HTTP {status}: {detail}")
        self.status = status
        self.payload = payload


class ServiceClient:
    """Talks to one ``pynamic-repro serve`` instance.

    Safe to share between threads: each thread gets its own kept-alive
    connection.
    """

    def __init__(
        self, host: str, port: int, timeout: "float | None" = 60.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._local = threading.local()

    # -- plumbing ----------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: "dict | None" = None,
    ) -> Any:
        payload = None
        headers = {}
        if body is not None:
            payload = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        response = None
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            try:
                response = self._send(conn, method, path, payload, headers)
            except _STALE_CONNECTION:
                pass  # not answered: send it once more, on a new connection
        if response is None:
            self._local.conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            response = self._send(
                self._local.conn, method, path, payload, headers
            )
        try:
            data = json.loads(response.read() or b"null")
        except BaseException:
            self.close()
            raise
        if response.status >= 400:
            raise ServiceError(response.status, data)
        return data

    def _send(
        self,
        conn: http.client.HTTPConnection,
        method: str,
        path: str,
        payload: "bytes | None",
        headers: dict,
    ) -> http.client.HTTPResponse:
        """Send one request and read its status line and headers; any
        failure closes the connection."""
        try:
            conn.request(method, path, body=payload, headers=headers)
            return conn.getresponse()
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Close the calling thread's kept-alive connection (its next
        request opens a new one).  Each thread closes its own, before it
        ends, or the socket is closed only when it is collected."""
        conn = getattr(self._local, "conn", None)
        self._local.conn = None
        if conn is not None:
            conn.close()

    # -- the API -----------------------------------------------------------
    def submit(self, spec: "Mapping | object") -> dict:
        """POST a spec (a dict, ScenarioSpec or WorkloadSpec)."""
        document = spec if isinstance(spec, Mapping) else spec.to_dict()
        return self._request("POST", "/v1/jobs", body=dict(document))

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def events(
        self, job_id: str, timeout: "float | None" = None
    ) -> Iterator[dict]:
        """Stream a job's progress events until its terminal event.

        Yields each SSE event as a dict; the history replays first, so
        subscribing after completion still yields the full sequence.
        """
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout or self.timeout
        )
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            response = conn.getresponse()
            if response.status >= 400:
                raise ServiceError(
                    response.status, json.loads(response.read() or b"null")
                )
            while True:
                line = response.readline()
                if not line:
                    return
                line = line.strip()
                if line.startswith(b"data: "):
                    yield json.loads(line[len(b"data: "):])
        finally:
            conn.close()

    def wait(self, job_id: str, timeout: "float | None" = None) -> dict:
        """Block until the job is terminal; returns its final document."""
        for _event in self.events(job_id, timeout=timeout):
            pass
        return self.job(job_id)

    def submit_and_wait(
        self, spec: "Mapping | object", timeout: "float | None" = None
    ) -> "tuple[dict, dict]":
        """Submit, then wait: (submit response, final job document)."""
        submitted = self.submit(spec)
        if submitted.get("status") == "done":
            return submitted, self.job(submitted["job_id"])
        return submitted, self.wait(submitted["job_id"], timeout=timeout)

    def result(self, spec_hash: str) -> dict:
        """Direct warehouse read: ``GET /v1/results/{spec_hash}``."""
        return self._request("GET", f"/v1/results/{spec_hash}")

    def presets(self) -> dict:
        return self._request("GET", "/v1/presets")

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")
