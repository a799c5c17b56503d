"""A pure-stdlib client for the simulation service.

Thin ``urllib`` wrapper used by the example client, the load-test
benchmark and the test suite — and copy-paste-able into any environment
that has Python and no dependencies::

    from repro.serve.client import ServiceClient

    client = ServiceClient("http://127.0.0.1:8000")
    job = client.submit_sweep({
        "preset": "fig7",
        "grid": {"capacitance": [22e-6, 47e-6], "frequency": [4.7, 9.4]},
    })
    for line in client.events(job["job_id"]):
        print(line)
    print(client.results(best="energy_total"))

Server-side framework errors surface as :class:`ServiceError` carrying
the server's one-line message and HTTP status — the same text the CLI
would have printed locally.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, Iterator, List, Mapping, Optional
from urllib.error import HTTPError, URLError
from urllib.parse import urlencode
from urllib.request import Request, urlopen

from repro.errors import ReproError
from repro.retry import backoff_delay


class ServiceError(ReproError):
    """A request the service rejected (or could not be delivered).

    Attributes:
        status: the HTTP status code, or None for transport failures.
    """

    def __init__(self, message: str, status: Optional[int] = None):
        super().__init__(message)
        self.status = status


class ServiceClient:
    """Talk to a ``repro serve`` instance over HTTP.

    Connection failures (``URLError``: refused, reset, DNS) retry with
    capped exponential backoff + jitter before surfacing as
    :class:`ServiceError` — safe for every method here, because GETs
    are idempotent and submissions are content-hash idempotent (a
    retried POST re-addresses the same job).  HTTP *responses* (4xx,
    5xx) never retry: the server spoke, the answer stands.

    Args:
        base_url: e.g. ``http://127.0.0.1:8000`` (trailing slash ok).
        timeout: per-request socket timeout in seconds (streaming
            endpoints pass their own).
        retries: connection-error retry budget per request (0 restores
            the old fail-on-first-error behavior).
        backoff_s: base backoff; attempt ``k`` waits
            ``min(backoff_cap_s, backoff_s * 2**k)`` plus jitter.
    """

    #: Upper bound on one connection-retry backoff sleep.
    backoff_cap_s = 2.0

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 3,
        backoff_s: float = 0.2,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff_s = backoff_s

    # -- transport -------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Mapping[str, Any]] = None,
        params: Optional[Mapping[str, Any]] = None,
        timeout: Optional[float] = None,
    ):
        url = self.base_url + path
        if params:
            url += "?" + urlencode(params)
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(dict(body)).encode("utf-8")
            headers["Content-Type"] = "application/json"
        for attempt in range(self.retries + 1):
            request = Request(url, data=data, headers=headers, method=method)
            try:
                return urlopen(request, timeout=timeout or self.timeout)
            except HTTPError as error:
                detail = error.read().decode("utf-8", "replace")
                try:
                    detail = json.loads(detail).get("error", detail)
                except json.JSONDecodeError:
                    pass
                raise ServiceError(detail.strip() or f"HTTP {error.code}",
                                   status=error.code) from None
            except URLError as error:
                if attempt >= self.retries:
                    raise ServiceError(
                        f"cannot reach {self.base_url}: {error.reason}"
                        + (f" (after {attempt + 1} attempts)"
                           if attempt else "")
                    ) from None
                time.sleep(backoff_delay(
                    attempt + 1, self.backoff_s, self.backoff_cap_s
                ))

    def _json(self, *args: Any, **kwargs: Any) -> Dict[str, Any]:
        with self._request(*args, **kwargs) as response:
            return json.loads(response.read())

    # -- submission ------------------------------------------------------

    def submit_run(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        """POST /v1/runs; returns the job record."""
        return self._json("POST", "/v1/runs", body=request)

    def submit_sweep(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        """POST /v1/sweeps; returns the job record."""
        return self._json("POST", "/v1/sweeps", body=request)

    def submit_exploration(
        self, request: Mapping[str, Any]
    ) -> Dict[str, Any]:
        """POST /v1/explorations; returns the job record."""
        return self._json("POST", "/v1/explorations", body=request)

    # -- status + results ------------------------------------------------

    def job(self, job_id: str) -> Dict[str, Any]:
        """GET /v1/jobs/{id}: the job's current record."""
        return self._json("GET", f"/v1/jobs/{job_id}")

    def jobs(self) -> List[Dict[str, Any]]:
        """GET /v1/jobs: every job record."""
        return self._json("GET", "/v1/jobs")["jobs"]

    def wait(
        self, job_id: str, timeout: float = 120.0, poll_s: float = 0.1
    ) -> Dict[str, Any]:
        """Poll until the job is terminal; returns its final record."""
        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record["status"] in ("done", "failed", "interrupted"):
                return record
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {record['status']!r} after "
                    f"{timeout:.0f}s"
                )
            time.sleep(poll_s)

    def events(
        self,
        job_id: str,
        since: int = 0,
        follow: bool = True,
        timeout: float = 300.0,
    ) -> Iterator[str]:
        """GET /v1/jobs/{id}/events: yield progress lines as they land.

        ``http.client`` decodes the chunked framing transparently, so
        each yielded value is one complete event line.
        """
        params = {"since": since, "follow": int(follow), "timeout": timeout}
        with self._request(
            "GET", f"/v1/jobs/{job_id}/events", params=params,
            timeout=timeout + 10.0,
        ) as response:
            for raw in response:
                line = raw.decode("utf-8").rstrip("\n")
                if line:
                    yield line

    def results(self, **params: Any) -> Dict[str, Any]:
        """GET /v1/results with the given query parameters.

        ``client.results(best="energy_total")``,
        ``client.results(pareto="energy_total,availability")``,
        ``client.results(series="frequency,energy_total", name=...)``.
        """
        return self._json("GET", "/v1/results", params=params or None)

    def metrics(self) -> Dict[str, Any]:
        """GET /metrics."""
        return self._json("GET", "/metrics")

    def healthz(self) -> Dict[str, Any]:
        """GET /healthz."""
        return self._json("GET", "/healthz")
