"""Thin stdlib HTTP client for the campaign service.

Wraps :mod:`http.client` so the CLI and tests talk to the service
without new dependencies.  One connection per request (the server
closes after each response); the events call holds its connection
open and yields parsed ndjson lines as they arrive.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Dict, Iterator, List, Optional
from urllib.parse import urlsplit


class ServiceError(RuntimeError):
    """A non-2xx response from the service."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServiceClient:
    """Client for one service endpoint, e.g.
    ``ServiceClient("http://127.0.0.1:8321")``."""

    def __init__(self, url: str, timeout: float = 60.0) -> None:
        parts = urlsplit(url if "//" in url else f"http://{url}")
        self.host = parts.hostname or "127.0.0.1"
        self.port = parts.port or 8321
        self.timeout = timeout

    def _request(self, method: str, path: str,
                 body: Optional[object] = None) -> Dict[str, object]:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            payload = (json.dumps(body).encode()
                       if body is not None else None)
            headers = ({"Content-Type": "application/json"}
                       if payload else {})
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            doc = json.loads(response.read() or b"{}")
            if response.status >= 400:
                raise ServiceError(response.status,
                                   doc.get("error", "unknown error"))
            return doc
        finally:
            conn.close()

    # -- API surface ---------------------------------------------------

    def healthz(self) -> Dict[str, object]:
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict[str, object]:
        return self._request("GET", "/metrics.json")

    def submit(self, spec: Dict[str, object]) -> Dict[str, object]:
        return self._request("POST", "/jobs", spec)

    def jobs(self) -> List[Dict[str, object]]:
        return self._request("GET", "/jobs")["jobs"]

    def job(self, job_id: str,
            include_result: bool = False) -> Dict[str, object]:
        suffix = "?result=1" if include_result else ""
        return self._request("GET", f"/jobs/{job_id}{suffix}")

    def cancel(self, job_id: str) -> Dict[str, object]:
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def kill_shard(self, shard_id: int) -> Dict[str, object]:
        return self._request("POST", f"/shards/{shard_id}/kill")

    def wait(self, job_id: str, timeout: float = 300.0,
             poll_s: float = 0.05) -> Dict[str, object]:
        """Poll until *job_id* is terminal; returns it with its
        result embedded."""
        deadline = time.time() + timeout
        while True:
            job = self.job(job_id)
            if job["state"] in ("done", "failed", "cancelled",
                                "expired"):
                return self.job(job_id, include_result=True)
            if time.time() > deadline:
                raise TimeoutError(
                    f"job {job_id} not terminal after {timeout}s")
            time.sleep(poll_s)

    def events(self, job_id: str,
               timeout: float = 300.0) -> Iterator[Dict[str, object]]:
        """Yield the job's event stream (chunked ndjson) until the
        server ends it at the job's terminal state."""
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=timeout)
        try:
            conn.request("GET", f"/jobs/{job_id}/events")
            response = conn.getresponse()
            if response.status >= 400:
                doc = json.loads(response.read() or b"{}")
                raise ServiceError(response.status,
                                   doc.get("error", "unknown error"))
            # http.client de-chunks transparently; read line-wise
            buffer = b""
            while True:
                chunk = response.read(4096)
                if not chunk:
                    break
                buffer += chunk
                while b"\n" in buffer:
                    line, _, buffer = buffer.partition(b"\n")
                    if line.strip():
                        yield json.loads(line)
        finally:
            conn.close()
