"""SimService: a long-lived asyncio job service over the experiment engine.

The engine (:mod:`repro.harness.engine`) already dedups, caches and
parallelizes one *batch*; this module turns it into a *service* so many
concurrent clients share one warm cache instead of each forking their own
sweep. The pieces, in request order (docs/SERVICE.md has the operator view):

* **Submit** - a :class:`~repro.harness.engine.SimJob` arrives; its content
  fingerprint is the job id. The service is content-addressed end to end:
  identical ``SystemConfig + trace recipe + model`` payloads *are* the same
  job, wherever they come from.
* **Coalesce** - if that fingerprint is already queued or running, the new
  submission attaches to the in-flight :class:`JobRecord` (no new work); if
  it already completed, the retained record answers immediately (a service
  memo hit). Only genuinely new fingerprints consume queue capacity.
* **Backpressure** - the pending queue is bounded (``queue_depth``). A
  submission that finds it full raises
  :class:`~repro.errors.ServiceSaturatedError` carrying a retry hint -
  surfaced over HTTP as ``429`` + ``Retry-After`` - instead of accepting
  unbounded work and fork-bombing the host.
* **Run** - worker slots execute jobs through a fresh per-call
  :class:`~repro.harness.engine.ExperimentEngine` (same cache dir, same
  ledger), so the on-disk result cache, the run ledger and the dual-kernel
  seam behave exactly as they do for in-process runs. Results are therefore
  provably bit-identical to local execution: same ``SimJob.execute`` path,
  same fingerprints.
* **Stream** - every engine progress event (``start``/``heartbeat``/
  ``done``) is multiplexed to per-record subscribers; the HTTP layer renders
  a subscription as NDJSON. A record keeps a bounded event history so late
  subscribers replay the full story.
* **Evict** - after simulations complete, the configured
  :class:`~repro.service.store.CacheEvictionPolicy` (TTL/LRU) sweeps the
  result store. The ledger is never evicted.
* **Drain** - graceful shutdown stops accepting, finishes (or cancels) the
  pending queue, waits out in-flight jobs and leaves the ledger flushed
  (every append is an atomic open-write-close; the final entries are on
  disk before :meth:`SimService.shutdown` returns).

Execution modes: ``thread`` (default; workers run the engine in a thread
pool - simple, sandbox-proof) and ``process`` (workers run it in a
``ProcessPoolExecutor`` with progress events pumped back over a manager
queue - real multi-core for CPU-bound sweeps). ``auto`` tries ``process``
and falls back to ``thread``, mirroring the engine's own pool fallback.
"""

from __future__ import annotations

import asyncio
import collections
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from ..errors import ServiceClosedError, ServiceError, ServiceSaturatedError
from ..gpu.gpusim import DEFAULT_PROGRESS_EPOCH
from ..harness.engine import (
    SCHEMA_VERSION,
    EngineStats,
    ExperimentEngine,
    JobOutcome,
    SimJob,
    _QueueDrainer,
)
from ..harness.ledger import LedgerEntry, RunLedger
from .store import CacheEvictionPolicy, EvictionReport, evict_result_cache

EXECUTION_MODES = ("thread", "process", "auto")

#: Terminal event kinds a subscriber stream ends on.
TERMINAL_KINDS = ("result", "cancelled")


@dataclass(frozen=True)
class ServiceConfig:
    """Operator knobs of one :class:`SimService` (see docs/SERVICE.md)."""

    workers: int = 2
    queue_depth: int = 32
    cache_dir: Optional[str] = None
    use_cache: bool = True
    kernel: Optional[str] = None
    ledger: Optional[bool] = None
    progress_epoch: int = DEFAULT_PROGRESS_EPOCH
    execution: str = "thread"
    eviction: CacheEvictionPolicy = field(default_factory=CacheEvictionPolicy)
    #: Backpressure hint returned with a saturated rejection.
    retry_after_s: float = 1.0
    #: Completed records retained in memory for memo/coalesce answers.
    keep_records: int = 256
    #: Progress events retained per record for late stream subscribers.
    event_history: int = 1024

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ServiceError(f"workers must be >= 1, got {self.workers}")
        if self.queue_depth < 1:
            raise ServiceError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.execution not in EXECUTION_MODES:
            raise ServiceError(
                f"execution must be one of {EXECUTION_MODES}, got {self.execution!r}"
            )
        if self.retry_after_s <= 0:
            raise ServiceError("retry_after_s must be positive")
        if self.keep_records < 1:
            raise ServiceError("keep_records must be >= 1")


@dataclass
class ServiceStats:
    """Service-lifetime counters (``GET /stats``)."""

    submitted: int = 0          # fresh fingerprints accepted into the queue
    coalesced: int = 0          # submissions attached to an in-flight record
    memo_hits: int = 0          # submissions answered by a completed record
    rejected: int = 0           # submissions bounced by backpressure
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    simulations: int = 0        # engine-level: actually simulated
    disk_hits: int = 0          # engine-level: served from the result store
    evicted_entries: int = 0
    eviction_sweeps: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "submitted": self.submitted,
            "coalesced": self.coalesced,
            "memo_hits": self.memo_hits,
            "rejected": self.rejected,
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "simulations": self.simulations,
            "disk_hits": self.disk_hits,
            "evicted_entries": self.evicted_entries,
            "eviction_sweeps": self.eviction_sweeps,
        }


class JobRecord:
    """One content-addressed job the service knows about.

    The record is the coalescing point: every identical submission shares
    it, every progress subscriber hangs off it, and its terminal state
    (``done``/``error``/``cancelled``) plus ``source`` say how the result
    was obtained (``run``/``disk``/``memory``).
    """

    def __init__(self, job: SimJob, fingerprint: str, history_limit: int) -> None:
        self.job = job
        self.fingerprint = fingerprint
        self.state = "queued"  # queued | running | done | error | cancelled
        self.result = None  # RunResult on success
        # result.fingerprint(), handed over by the engine with the result.
        self.result_fingerprint: Optional[str] = None
        # job.config.fingerprint(), computed by the first attach ledger line.
        self.config_fingerprint: Optional[str] = None
        self.error: Optional[str] = None
        self.source: Optional[str] = None
        self.wall_s = 0.0
        self.submitted_at = time.time()
        self.completed_at: Optional[float] = None
        self.attached = 0  # coalesced submissions riding this record
        self.done = asyncio.Event()
        self._history: Deque[dict] = collections.deque(maxlen=max(1, history_limit))
        self._subscribers: List[asyncio.Queue] = []

    # -- progress fan-out ----------------------------------------------------
    def publish(self, event: dict) -> None:
        """Record one progress event and fan it out to live subscribers."""
        self._history.append(event)
        for sub in self._subscribers:
            try:
                sub.put_nowait(event)
            except asyncio.QueueFull:
                pass  # slow consumer: it still gets the terminal event below

    def subscribe(self) -> Tuple[List[dict], Optional["asyncio.Queue"]]:
        """History so far, plus a live queue (None when already terminal)."""
        history = list(self._history)
        if self.is_terminal:
            return history, None
        sub: asyncio.Queue = asyncio.Queue(maxsize=4096)
        self._subscribers.append(sub)
        return history, sub

    def unsubscribe(self, sub: "asyncio.Queue") -> None:
        try:
            self._subscribers.remove(sub)
        except ValueError:
            pass

    # -- terminal transitions ------------------------------------------------
    @property
    def is_terminal(self) -> bool:
        return self.state in ("done", "error", "cancelled")

    def finish(self, state: str, source: Optional[str], wall_s: float,
               result=None, error: Optional[str] = None,
               result_fingerprint: Optional[str] = None) -> None:
        self.state = state
        self.result = result
        self.result_fingerprint = result_fingerprint
        self.error = error
        self.source = source
        self.wall_s = wall_s
        self.completed_at = time.time()
        self.publish(self.terminal_event())
        self.done.set()
        self._subscribers.clear()

    def terminal_event(self) -> dict:
        kind = "cancelled" if self.state == "cancelled" else "result"
        event = {
            "kind": kind,
            "job": self.job.label(),
            "fingerprint": self.fingerprint,
            "state": self.state,
            "source": self.source,
            "wall_s": round(self.wall_s, 6),
        }
        if self.error is not None:
            event["error"] = self.error.strip().splitlines()[-1]
        return event

    def snapshot(self) -> dict:
        """JSON-safe status view (``GET /jobs/<fp>``)."""
        snap = {
            "fingerprint": self.fingerprint,
            "job": self.job.label(),
            "bench": self.job.trace.bench,
            "model": self.job.model,
            "n_accesses": self.job.trace.n_accesses,
            "seed": self.job.trace.seed,
            "state": self.state,
            "source": self.source,
            "wall_s": round(self.wall_s, 6),
            "attached": self.attached,
            "submitted_at": self.submitted_at,
            "completed_at": self.completed_at,
        }
        if self.error is not None:
            snap["error"] = self.error
        return snap


class _QueueProgress:
    """Picklable progress callable for process-mode workers.

    The engine's serial path calls ``progress(event)`` inside the worker
    process; this forwards each event - tagged with the job fingerprint so
    the parent can route it - over a manager-queue proxy.
    """

    def __init__(self, events, fingerprint: str) -> None:
        self._events = events
        self._fingerprint = fingerprint

    def __call__(self, event: dict) -> None:
        tagged = dict(event)
        tagged["fingerprint"] = self._fingerprint
        try:
            self._events.put(tagged)
        except Exception:
            pass


def _run_job(job: SimJob, fingerprint: str, cache_dir: Optional[str],
             use_cache: bool, kernel: Optional[str], progress_epoch: int,
             ledger: Optional[bool], progress):
    """Execute one job through a fresh engine (thread- and process-safe).

    ``fingerprint`` is the job's own, already computed at submission.
    Returns ``(JobOutcome, EngineStats)``. A fresh engine per call keeps
    worker state disjoint (no shared memo dict across threads); the on-disk
    cache and the ledger are the shared substrate, and both are safe for
    concurrent appenders (atomic-rename publishes, O_APPEND line writes).
    """
    engine = ExperimentEngine(
        jobs=1,
        cache_dir=cache_dir,
        use_cache=use_cache,
        kernel=kernel,
        progress=progress,
        progress_epoch=progress_epoch,
        ledger=ledger,
    )
    outcome = engine.run_jobs([job], fingerprints={job: fingerprint})[0]
    return outcome, engine.stats


class SimService:
    """The asyncio job service. One instance per host; see module docstring.

    Lifecycle: construct, ``await start()``, ``submit()`` jobs (from the
    event loop thread), ``await shutdown()``. The HTTP layer in
    :mod:`repro.service.http` is a thin adapter over exactly this API, so
    tests can drive the service object directly.
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.stats = ServiceStats()
        self.started_at: Optional[float] = None
        self.records: "collections.OrderedDict[str, JobRecord]" = collections.OrderedDict()
        self._pending: Deque[JobRecord] = collections.deque()
        self._cond: Optional[asyncio.Condition] = None
        self._workers: List[asyncio.Task] = []
        self._executor = None
        self._execution = self.config.execution
        self._manager = None
        self._drainer = None
        self._events_proxy = None
        self._in_flight = 0
        self._paused = False
        self._closing = False
        self._stopped = asyncio.Event()
        self.last_eviction: Optional[EvictionReport] = None
        self._ledger: Optional[RunLedger] = None
        want_ledger = (
            self.config.cache_dir is not None
            if self.config.ledger is None
            else bool(self.config.ledger)
        )
        if want_ledger and self.config.cache_dir is not None:
            self._ledger = RunLedger(self.config.cache_dir)

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        if self._cond is not None:
            raise ServiceError("service already started")
        self._cond = asyncio.Condition()
        loop = asyncio.get_running_loop()
        self._setup_executor(loop)
        self._workers = [
            loop.create_task(self._worker(i)) for i in range(self.config.workers)
        ]
        self.started_at = time.time()

    def _setup_executor(self, loop) -> None:
        """Pick the execution substrate; ``auto``/``process`` fall back."""
        mode = self.config.execution
        if mode in ("process", "auto"):
            try:
                import multiprocessing

                self._manager = multiprocessing.Manager()
                self._events_proxy = self._manager.Queue()
                self._drainer = _QueueDrainer(
                    self._events_proxy,
                    lambda event: loop.call_soon_threadsafe(self._route_event, event),
                )
                self._executor = ProcessPoolExecutor(max_workers=self.config.workers)
                self._execution = "process"
                return
            except Exception:
                self._teardown_process_plumbing()
                if mode == "process":
                    raise ServiceError(
                        "execution='process' requested but no process pool is "
                        "available on this host (try 'thread' or 'auto')"
                    )
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="simservice-worker",
        )
        self._execution = "thread"

    def _teardown_process_plumbing(self) -> None:
        if self._drainer is not None:
            self._drainer.finish()
            self._drainer = None
        if self._manager is not None:
            try:
                self._manager.shutdown()
            except Exception:
                pass
            self._manager = None
        self._events_proxy = None

    @property
    def execution(self) -> str:
        """The execution mode actually in effect (after ``auto`` resolution)."""
        return self._execution

    @property
    def closing(self) -> bool:
        return self._closing

    @property
    def queue_depth(self) -> int:
        return len(self._pending)

    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def paused(self) -> bool:
        return self._paused

    def health(self) -> dict:
        """The ``GET /healthz`` payload: liveness plus load at a glance."""
        status = "ok"
        if self._closing:
            status = "draining"
        elif self._paused:
            status = "paused"
        return {
            "status": status,
            "queue_depth": self.queue_depth,
            "queue_capacity": self.config.queue_depth,
            "in_flight": self._in_flight,
            "workers": self.config.workers,
            "execution": self._execution,
            "paused": self._paused,
            "records": len(self.records),
            "cache_dir": self.config.cache_dir,
            "kernel": self.config.kernel,
            "engine_schema": SCHEMA_VERSION,
            "uptime_s": round(time.time() - self.started_at, 3)
            if self.started_at
            else None,
        }

    # -- submission (event-loop thread only) ---------------------------------
    def submit(self, job: SimJob) -> Tuple[JobRecord, bool]:
        """Submit one job; returns ``(record, coalesced)``.

        ``coalesced`` is True when no new work was enqueued - the job
        attached to an in-flight record or was answered by a completed one.
        Raises :class:`ServiceClosedError` while draining and
        :class:`ServiceSaturatedError` when the queue is full.
        """
        if self._cond is None:
            raise ServiceError("service not started")
        if self._closing:
            raise ServiceClosedError("service is draining; not accepting jobs")
        fingerprint = job.fingerprint()
        record = self.records.get(fingerprint)
        if record is not None and record.state != "error":
            # One sim, many subscribers: the whole point of the service.
            record.attached += 1
            if record.is_terminal:
                self.stats.memo_hits += 1
                self._append_attach_ledger(record, "memory")
            else:
                self.stats.coalesced += 1
            return record, True
        if len(self._pending) >= self.config.queue_depth:
            self.stats.rejected += 1
            raise ServiceSaturatedError(
                f"job queue full ({self.config.queue_depth} pending); "
                f"retry in {self.config.retry_after_s:g}s",
                retry_after_s=self.config.retry_after_s,
            )
        record = JobRecord(job, fingerprint, self.config.event_history)
        self.records[fingerprint] = record
        self.records.move_to_end(fingerprint)
        self._trim_records()
        self._pending.append(record)
        self.stats.submitted += 1
        self._notify()
        return record, False

    def get_record(self, fingerprint: str) -> Optional[JobRecord]:
        return self.records.get(fingerprint)

    def _trim_records(self) -> None:
        """Bound the in-memory record map: drop oldest *terminal* records."""
        limit = self.config.keep_records
        if len(self.records) <= limit:
            return
        for fp in list(self.records):
            if len(self.records) <= limit:
                break
            record = self.records[fp]
            if record.is_terminal:
                del self.records[fp]

    def _notify(self) -> None:
        cond = self._cond

        async def _wake() -> None:
            async with cond:
                cond.notify_all()

        asyncio.ensure_future(_wake())

    # -- pause / resume (operator surface) -----------------------------------
    async def pause(self) -> None:
        """Stop dispatching queued jobs (in-flight ones finish normally)."""
        self._paused = True

    async def resume(self) -> None:
        self._paused = False
        async with self._cond:
            self._cond.notify_all()

    # -- workers -------------------------------------------------------------
    async def _next_record(self) -> Optional[JobRecord]:
        """Block until a dispatchable record exists (None = exit)."""
        async with self._cond:
            while True:
                if self._pending and (not self._paused or self._closing):
                    return self._pending.popleft()
                if self._closing and not self._pending:
                    return None
                await self._cond.wait()

    async def _worker(self, index: int) -> None:
        while True:
            record = await self._next_record()
            if record is None:
                return
            await self._run_record(record)

    async def _run_record(self, record: JobRecord) -> None:
        record.state = "running"
        self._in_flight += 1
        loop = asyncio.get_running_loop()
        cfg = self.config
        if self._execution == "process":
            progress = _QueueProgress(self._events_proxy, record.fingerprint)
        else:
            progress = _ThreadProgress(loop, record)
        try:
            outcome, engine_stats = await self._execute(loop, record, progress)
        except Exception as exc:  # pool broke mid-job: degrade, don't die
            outcome, engine_stats = await self._execute_fallback(
                loop, record, progress, exc
            )
        self._in_flight -= 1
        self.stats.simulations += engine_stats.simulations
        self.stats.disk_hits += engine_stats.disk_hits
        if outcome.ok:
            self.stats.completed += 1
            record.finish(
                "done", outcome.source, outcome.wall_s, result=outcome.result,
                result_fingerprint=outcome.result_fingerprint,
            )
            self._settle_attachments(record)
            if outcome.source == "run":
                await self._maybe_evict(loop)
        else:
            self.stats.failed += 1
            record.finish(
                "error", outcome.source, outcome.wall_s, error=outcome.error
            )
        async with self._cond:
            self._cond.notify_all()

    async def _execute(self, loop, record: JobRecord, progress):
        return await loop.run_in_executor(
            self._executor,
            _run_job,
            record.job,
            record.fingerprint,
            self.config.cache_dir,
            self.config.use_cache,
            self.config.kernel,
            self.config.progress_epoch,
            self.config.ledger,
            progress,
        )

    async def _execute_fallback(self, loop, record: JobRecord, progress, exc):
        """Process pool died: demote to thread execution for good."""
        if self._execution != "process":
            outcome = JobOutcome(record.job, error=repr(exc), source="run")
            return outcome, EngineStats()
        self._teardown_process_plumbing()
        try:
            self._executor.shutdown(wait=False)
        except Exception:
            pass
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="simservice-worker",
        )
        self._execution = "thread"
        progress = _ThreadProgress(loop, record)
        try:
            return await self._execute(loop, record, progress)
        except Exception as exc2:
            outcome = JobOutcome(record.job, error=repr(exc2), source="run")
            return outcome, EngineStats()

    def _route_event(self, event: dict) -> None:
        """Process-mode path: deliver a tagged worker event to its record."""
        fingerprint = event.get("fingerprint")
        if not fingerprint:
            return
        record = self.records.get(fingerprint)
        if record is not None and not record.is_terminal:
            record.publish(event)

    # -- ledger / eviction ---------------------------------------------------
    def _settle_attachments(self, record: JobRecord) -> None:
        """Ledger the coalesced riders of a finished record.

        The engine already appended the ``run``/``disk`` entry for the one
        execution; each submission that attached while it was in flight gets
        its own entry with ``source="coalesced"`` - that is the observable
        proof (``repro runs --source coalesced``) that N requests cost one
        simulation.
        """
        if record.attached <= 0:
            return
        for _ in range(record.attached):
            self._append_attach_ledger(record, "coalesced")
        record.attached = 0

    def _append_attach_ledger(self, record: JobRecord, source: str) -> None:
        """One ledger line for a submission the record answered; it reuses
        the record's fingerprints, so it hashes nothing but the config,
        once per record."""
        if self._ledger is None or record.result is None:
            return
        outcome = JobOutcome(
            record.job, result=record.result, source=source, wall_s=0.0,
            result_fingerprint=record.result_fingerprint,
        )
        try:
            if record.config_fingerprint is None:
                record.config_fingerprint = record.job.config.fingerprint()
            self._ledger.append(LedgerEntry.from_outcome(
                outcome, SCHEMA_VERSION, record.fingerprint,
                record.config_fingerprint,
            ))
        except Exception:
            pass  # history is best-effort; never fail a request over it

    async def _maybe_evict(self, loop) -> None:
        if not self.config.eviction.enabled or self.config.cache_dir is None:
            return
        report = await loop.run_in_executor(
            self._executor,
            evict_result_cache,
            self.config.cache_dir,
            self.config.eviction,
        )
        self.last_eviction = report
        self.stats.eviction_sweeps += 1
        self.stats.evicted_entries += report.evicted

    def evict_now(self) -> EvictionReport:
        """Synchronous manual sweep (``POST /admin/evict``)."""
        if self.config.cache_dir is None:
            return EvictionReport(policy=self.config.eviction.describe())
        report = evict_result_cache(self.config.cache_dir, self.config.eviction)
        self.last_eviction = report
        self.stats.eviction_sweeps += 1
        self.stats.evicted_entries += report.evicted
        return report

    # -- shutdown ------------------------------------------------------------
    async def shutdown(self, drain: bool = True) -> None:
        """Stop the service. ``drain=True`` finishes queued + in-flight jobs
        first; ``drain=False`` cancels the queue (in-flight jobs still run to
        completion - a simulation cannot be preempted mid-epoch). Idempotent.
        By return, every ledger entry for completed work is on disk.
        """
        if self._cond is None or self._stopped.is_set():
            self._stopped.set()
            return
        self._closing = True
        async with self._cond:
            if not drain:
                while self._pending:
                    record = self._pending.popleft()
                    self.stats.cancelled += 1
                    record.finish(
                        "cancelled", None, 0.0,
                        error="cancelled: service shutting down",
                    )
            self._cond.notify_all()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        if self._executor is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: self._executor.shutdown(wait=True)
            )
        self._teardown_process_plumbing()
        self._stopped.set()

    async def wait_stopped(self) -> None:
        await self._stopped.wait()


class _ThreadProgress:
    """Thread-mode progress bridge: worker thread -> event-loop publish."""

    def __init__(self, loop, record: JobRecord) -> None:
        self._loop = loop
        self._record = record

    def __call__(self, event: dict) -> None:
        tagged = dict(event)
        tagged["fingerprint"] = self._record.fingerprint
        try:
            self._loop.call_soon_threadsafe(self._record.publish, tagged)
        except RuntimeError:
            pass  # loop already closed during shutdown
