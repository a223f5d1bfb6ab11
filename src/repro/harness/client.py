"""HTTP client for the simulation job service (``repro serve``).

Two layers, both stdlib-only:

* :class:`ServiceClient` - a thin wrapper over the service's HTTP API
  (docs/SERVICE.md): submit jobs, long-poll results, stream NDJSON
  progress events, hit the admin endpoints. Each thread keeps one
  HTTP/1.1 keep-alive connection and reuses it for every request.
  Saturation (HTTP 429) is retried with the server-suggested
  ``Retry-After`` backoff before surfacing as
  :class:`~repro.errors.ServiceSaturatedError` - clients are the retry
  loop the backpressure design assumes.

* :class:`RemoteEngine` - an :class:`~repro.harness.engine.ExperimentEngine`
  drop-in (``run_jobs``/``map``/``matrix``/``run_one``/``stats``/
  ``last_outcomes``) that executes every job on a shared server instead of
  in-process. ``repro run --server URL`` and friends route through it;
  nothing above the engine seam can tell the difference, because the
  client *proves* it: every returned result is deserialized locally and
  its fingerprint is checked against both the submitted job and the
  server's claim. A mismatch is an error, never a silent wrong answer.

Results obtained remotely carry outcome sources ``"run"``/``"disk"`` (how
the server got them) or ``"coalesced"``/``"memory"`` (this submission
attached to another client's in-flight or completed record) - the same
taxonomy the run ledger records server-side.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import weakref
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from ..config import SystemConfig
from ..errors import ServiceClosedError, ServiceError, ServiceSaturatedError
from ..gpu.gpusim import RunResult
from .engine import EngineStats, JobOutcome, SimJob

DEFAULT_TIMEOUT_S = 120.0
#: Submission attempts before a saturated server's 429 is surfaced.
DEFAULT_SUBMIT_ATTEMPTS = 8

#: What a request on a kept-alive connection the server has since closed
#: fails with: the send, or the read of a response that never comes.
_STALE_CONNECTION = (http.client.BadStatusLine, ConnectionError)


class RemoteStats(EngineStats):
    """Engine counters plus the service-only ``coalesced`` source."""

    def __init__(self) -> None:
        super().__init__()
        self.coalesced = 0

    def as_dict(self) -> Dict[str, int]:
        data = super().as_dict()
        data["coalesced"] = self.coalesced
        return data


class ServiceClient:
    """Synchronous HTTP client for one job-service instance.

    ``base_url`` is the server root (e.g. ``http://127.0.0.1:8765``);
    a trailing slash is tolerated. ``timeout_s`` bounds each HTTP request;
    result waits pass their own long-poll budget through to the server and
    keep a margin on top for transport.

    Every thread that uses the client gets its own keep-alive connection,
    opened on its first request and reused after that. If the server has
    closed it in the meantime, the request is sent once more on a fresh
    connection. That resend is safe: submission is content-addressed, so
    a job sent twice coalesces into one, and every other request only
    reads or flips state idempotently. :meth:`close` (or leaving a
    ``with`` block) closes them all.
    """

    def __init__(
        self,
        base_url: str,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        submit_attempts: int = DEFAULT_SUBMIT_ATTEMPTS,
    ) -> None:
        if "://" not in base_url:
            base_url = "http://" + base_url
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self.submit_attempts = max(1, int(submit_attempts))
        url = urlsplit(self.base_url)
        self._https = url.scheme == "https"
        self._host = url.hostname or "127.0.0.1"
        self._port = url.port
        self._prefix = url.path
        self._local = threading.local()
        self._lock = threading.Lock()
        # Weak, so a finished thread's connection closes when its
        # thread-local slot goes, instead of piling up until close().
        self._connections: "weakref.WeakSet[http.client.HTTPConnection]" = (
            weakref.WeakSet()
        )

    # -- transport -----------------------------------------------------------
    def _new_connection(self, timeout: float) -> http.client.HTTPConnection:
        cls = http.client.HTTPSConnection if self._https else http.client.HTTPConnection
        return cls(self._host, self._port, timeout=timeout)

    def _connection(self, timeout: float) -> Tuple[http.client.HTTPConnection, bool]:
        """This thread's connection with ``timeout`` applied, and whether
        it has carried a request before (only such a one can be stale)."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._new_connection(timeout)
            with self._lock:
                self._connections.add(conn)
        conn.timeout = timeout  # used when (re)connecting
        if conn.sock is None:
            return conn, False
        conn.sock.settimeout(timeout)
        return conn, True

    def request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        timeout_s: Optional[float] = None,
    ) -> Tuple[int, dict]:
        """One JSON request/response; HTTP error bodies are returned, not
        raised (the caller maps status codes to the error taxonomy)."""
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        timeout = self.timeout_s if timeout_s is None else timeout_s
        conn, reused = self._connection(timeout)
        try:
            try:
                return self._exchange(conn, method, path, data, headers)
            except _STALE_CONNECTION:
                conn.close()
                if not reused:
                    raise
                return self._exchange(conn, method, path, data, headers)
        except (http.client.HTTPException, OSError) as exc:
            conn.close()
            raise ServiceError(
                f"cannot reach job service at {self.base_url}: {exc}"
            ) from exc

    def _exchange(self, conn: http.client.HTTPConnection, method: str,
                  path: str, data: Optional[bytes],
                  headers: Dict[str, str]) -> Tuple[int, dict]:
        conn.request(method, self._prefix + path, body=data, headers=headers)
        resp = conn.getresponse()
        return resp.status, self._decode(resp.read())

    def close(self) -> None:
        """Close every thread's connection; a later request reconnects."""
        with self._lock:
            connections = list(self._connections)
            self._connections.clear()
        for conn in connections:
            conn.close()
        self._local = threading.local()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @staticmethod
    def _decode(raw: bytes) -> dict:
        try:
            body = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return {"error": raw.decode("utf-8", "replace")[:200]}
        return body if isinstance(body, dict) else {"value": body}

    # -- job API -------------------------------------------------------------
    def submit(self, job: SimJob) -> dict:
        """Submit one job; returns the server's record snapshot.

        The snapshot carries ``coalesced`` (True when no new work was
        enqueued). A saturated server (HTTP 429) is retried with the
        advertised ``Retry-After`` backoff; a draining one (503) and
        persistent saturation raise immediately/after retries.
        """
        return self.submit_payload(job_payload(job))

    def submit_payload(self, payload: dict) -> dict:
        last_retry_after = 1.0
        for attempt in range(self.submit_attempts):
            status, body = self.request("POST", "/jobs", payload)
            if status in (200, 202):
                return body
            if status == 429:
                last_retry_after = float(body.get("retry_after_s", 1.0))
                if attempt + 1 < self.submit_attempts:
                    time.sleep(last_retry_after)
                    continue
                raise ServiceSaturatedError(
                    body.get("error", "job service saturated"),
                    retry_after_s=last_retry_after,
                )
            if status == 503:
                raise ServiceClosedError(
                    body.get("error", "job service is draining")
                )
            raise ServiceError(
                f"submit failed (HTTP {status}): {body.get('error', body)}"
            )
        raise ServiceSaturatedError(  # pragma: no cover - loop always returns
            "job service saturated", retry_after_s=last_retry_after
        )

    def status(self, fingerprint: str) -> dict:
        status, body = self.request("GET", f"/jobs/{fingerprint}")
        if status != 200:
            raise ServiceError(
                f"no such job {fingerprint[:12]} (HTTP {status})"
            )
        return body

    def result(self, fingerprint: str, timeout_s: float = 300.0) -> dict:
        """Block until the job completes; returns the result envelope.

        The server long-polls in bounded slices; this loops until the job
        reaches a terminal state or ``timeout_s`` expires.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceError(
                    f"timed out after {timeout_s:g}s waiting for "
                    f"{fingerprint[:12]}"
                )
            slice_s = min(30.0, max(1.0, remaining))
            status, body = self.request(
                "GET",
                f"/jobs/{fingerprint}/result?timeout={slice_s:g}",
                timeout_s=slice_s + 15.0,
            )
            if status == 200:
                return body
            if status == 408:
                continue
            raise ServiceError(
                f"result fetch failed (HTTP {status}): "
                f"{body.get('error', body)}"
            )

    def events(self, fingerprint: str, timeout_s: float = 300.0) -> Iterator[dict]:
        """Stream the job's NDJSON progress events until its terminal one.

        The stream gets a connection of its own, which the server closes
        when the stream ends.
        """
        conn = self._new_connection(timeout_s)
        try:
            conn.request(
                "GET", f"{self._prefix}/jobs/{fingerprint}/events",
                headers={"Accept": "application/x-ndjson"},
            )
            resp = conn.getresponse()
            if resp.status != 200:
                raise ServiceError(f"event stream failed (HTTP {resp.status})")
            for line in resp:
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line.decode("utf-8"))
                except ValueError:
                    continue
        except (http.client.HTTPException, OSError) as exc:
            raise ServiceError(f"event stream interrupted: {exc}") from exc
        finally:
            conn.close()

    # -- service/admin API ---------------------------------------------------
    def health(self) -> dict:
        status, body = self.request("GET", "/healthz")
        if status != 200:
            raise ServiceError(f"health check failed (HTTP {status})")
        return body

    def stats(self) -> dict:
        status, body = self.request("GET", "/stats")
        if status != 200:
            raise ServiceError(f"stats fetch failed (HTTP {status})")
        return body

    def pause(self) -> dict:
        return self._admin("pause")

    def resume(self) -> dict:
        return self._admin("resume")

    def evict(self) -> dict:
        return self._admin("evict")

    def shutdown(self, drain: bool = True) -> dict:
        return self._admin("shutdown", {"drain": drain})

    def _admin(self, action: str, payload: Optional[dict] = None) -> dict:
        status, body = self.request("POST", f"/admin/{action}", payload or {})
        if status != 200:
            raise ServiceError(
                f"admin {action} failed (HTTP {status}): "
                f"{body.get('error', body)}"
            )
        return body


def job_payload(job: SimJob) -> dict:
    """Serialize a :class:`SimJob` for ``POST /jobs``."""
    return {
        "bench": job.trace.bench,
        "model": job.model,
        "n_accesses": job.trace.n_accesses,
        "seed": job.trace.seed,
        "config": job.config.to_dict(),
    }


class RemoteEngine:
    """Run simulation jobs on a shared job service; engine-API compatible.

    The contract with in-process execution is *bit-identity*, enforced
    client-side on every job:

    1. the server's job fingerprint must equal the locally computed
       ``job.fingerprint()`` (same content-addressing on both ends), and
    2. the returned result, deserialized locally, must hash to the
       ``result_fingerprint`` the server claims.

    Tracing is not supported remotely (a Chrome trace is a property of one
    in-process execution); callers wanting ``--trace`` run locally.
    """

    def __init__(
        self,
        base_url: str,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        result_timeout_s: float = 600.0,
        progress: Optional[Callable[[Dict], None]] = None,
        client: Optional[ServiceClient] = None,
    ) -> None:
        self.client = client or ServiceClient(base_url, timeout_s=timeout_s)
        self.result_timeout_s = result_timeout_s
        self.progress = progress
        self.stats = RemoteStats()
        self.last_outcomes: List[JobOutcome] = []
        self.workers = 0  # execution happens server-side

    # -- engine surface ------------------------------------------------------
    def run_jobs(self, jobs: Sequence[SimJob]) -> List[JobOutcome]:
        """Submit a batch, then collect outcomes; input order preserved.

        Duplicate jobs fold into one submission (and identical jobs from
        *other* clients fold server-side - that is the service's whole
        point). All unique jobs are submitted before any result is
        awaited, so the server runs them concurrently.
        """
        unique: Dict[SimJob, dict] = {}
        submit_errors: Dict[SimJob, str] = {}
        for job in jobs:
            if job in unique or job in submit_errors:
                continue
            try:
                unique[job] = self.client.submit(job)
            except ServiceError as exc:
                submit_errors[job] = str(exc)

        outcomes: Dict[SimJob, JobOutcome] = {}
        for job, error in submit_errors.items():
            self.stats.errors += 1
            outcomes[job] = JobOutcome(job, error=error, source="run")
        for job, snapshot in unique.items():
            outcomes[job] = self._collect(job, snapshot)

        self.last_outcomes = [outcomes[job] for job in jobs]
        return list(self.last_outcomes)

    def _collect(self, job: SimJob, snapshot: dict) -> JobOutcome:
        fingerprint = job.fingerprint()
        if snapshot.get("fingerprint") != fingerprint:
            self.stats.errors += 1
            return JobOutcome(
                job,
                error=(
                    "server/client fingerprint mismatch for "
                    f"{job.label()}: sent {fingerprint[:12]}, server "
                    f"keyed {str(snapshot.get('fingerprint'))[:12]} "
                    "(config serialization drift?)"
                ),
            )
        if self.progress is not None:
            self._forward_events(fingerprint)
        try:
            envelope = self.client.result(
                fingerprint, timeout_s=self.result_timeout_s
            )
        except ServiceError as exc:
            self.stats.errors += 1
            return JobOutcome(job, error=str(exc), source="run")
        if envelope.get("state") != "done":
            self.stats.errors += 1
            return JobOutcome(
                job,
                error=envelope.get("error", f"job state {envelope.get('state')}"),
                source=str(envelope.get("source", "run")),
                wall_s=float(envelope.get("wall_s", 0.0)),
            )
        try:
            result = RunResult.from_dict(envelope["result"])
        except (KeyError, TypeError, ValueError) as exc:
            self.stats.errors += 1
            return JobOutcome(
                job, error=f"undecodable result payload: {exc!r}"
            )
        local_fp = result.fingerprint()
        claimed = envelope.get("result_fingerprint")
        if claimed != local_fp:
            # The one error that must never pass silently: the service
            # returned something that does not hash to what it claims.
            self.stats.errors += 1
            return JobOutcome(
                job,
                error=(
                    f"result fingerprint mismatch for {job.label()}: "
                    f"server claims {str(claimed)[:12]}, local hash is "
                    f"{local_fp[:12]}"
                ),
            )
        source = self._source(snapshot, envelope)
        self._count(source)
        return JobOutcome(
            job,
            result=result,
            source=source,
            wall_s=float(envelope.get("wall_s", 0.0)),
            result_fingerprint=local_fp,
        )

    @staticmethod
    def _source(snapshot: dict, envelope: dict) -> str:
        """Client-visible outcome source.

        A coalesced submission is reported as such (it attached to another
        record in flight, or ``"memory"`` if that record had already
        completed); a fresh one reports how the server obtained the result
        (``"run"`` or ``"disk"``).
        """
        if snapshot.get("coalesced"):
            if snapshot.get("state") in ("done", "error", "cancelled"):
                return "memory"
            return "coalesced"
        return str(envelope.get("source", "run"))

    def _count(self, source: str) -> None:
        if source == "run":
            self.stats.simulations += 1
        elif source == "disk":
            self.stats.disk_hits += 1
        elif source == "coalesced":
            self.stats.coalesced += 1
        else:
            self.stats.memory_hits += 1

    def _forward_events(self, fingerprint: str) -> None:
        try:
            for event in self.client.events(
                fingerprint, timeout_s=self.result_timeout_s
            ):
                try:
                    self.progress(event)
                except Exception:
                    pass
        except ServiceError:
            pass  # progress is an observer; the result fetch decides fate

    def map(self, jobs: Sequence[SimJob]) -> Dict[SimJob, RunResult]:
        """Like :meth:`run_jobs` but demand total success (engine contract)."""
        from ..errors import EngineError

        outcomes = self.run_jobs(jobs)
        failures = [o for o in outcomes if not o.ok]
        if failures:
            lines = [
                f"{len(failures)} of {len(outcomes)} remote jobs failed:"
            ]
            for outcome in failures:
                reason = (outcome.error or "").strip().splitlines()
                lines.append(
                    f"  {outcome.job.label()}: "
                    f"{reason[-1] if reason else 'unknown error'}"
                )
            raise EngineError("\n".join(lines))
        return {o.job: o.result for o in outcomes}

    def matrix(
        self,
        config: SystemConfig,
        benches: Sequence[str],
        models: Sequence[str],
        n_accesses: int,
        seed: int,
    ) -> Dict[Tuple[str, str], RunResult]:
        jobs = [
            SimJob.of(config, bench, model, n_accesses, seed)
            for bench in benches
            for model in models
        ]
        results = self.map(jobs)
        return {(job.trace.bench, job.model): results[job] for job in jobs}

    def run_one(
        self,
        config: SystemConfig,
        bench: str,
        model: str,
        n_accesses: int,
        seed: int,
    ) -> RunResult:
        job = SimJob.of(config, bench, model, n_accesses, seed)
        return self.map([job])[job]
