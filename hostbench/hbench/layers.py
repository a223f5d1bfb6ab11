"""Per-layer attribution for a traced run, without edits under ``src/``.

:class:`LayerTracer` replaces the functions named in :data:`TARGETS` with
timing wrappers at run time and puts them back afterwards. Every wrapped
call is a span; a span's *self time* is its duration minus the time of the
spans nested inside it, so each traced second belongs to exactly one key.
Spans nest per thread (the job service simulates on a worker thread while
its event loop serves HTTP) and are timed in that thread's CPU seconds, so
the self times of a run add up to at most its CPU time; the rest is what no
layer claims (``unattributed.self_s``). A waiting key
(:data:`WAIT_KEYS`) also records its wall time, the time spent blocked.

A key names a layer (``gpu``) or one entry point of it
(``security.model.fill``). A metric ``<prefix>.self_s`` sums the self time
of every key equal to or under ``<prefix>``, and ``<prefix>.calls`` sums
their counted calls, so ``migration.self_s`` covers the whole layer while
``migration.ensure_resident.calls`` counts one entry point.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Tuple

#: ``(key, "module:Object.attr", count calls)``. ``Object.*`` means every
#: public method defined on that class. Module functions are also replaced
#: in every ``repro`` module that imported them by name.
TARGETS: Tuple[Tuple[str, str, bool], ...] = (
    # workloads: trace generation and the dense columns the kernel reads
    ("workloads.build_trace", "repro.workloads.suite:build_trace", True),
    ("workloads", "repro.workloads.trace:Trace.dense", False),
    ("workloads", "repro.workloads.trace:DenseTrace.*", False),
    # harness.engine: the job engine, result cache, ledger and result codec
    ("harness.engine", "repro.harness.engine:ExperimentEngine.run_jobs", False),
    ("harness.engine.fingerprint", "repro.harness.engine:SimJob.fingerprint", True),
    ("harness.engine.cache_get", "repro.harness.engine:ResultCache.get", True),
    ("harness.engine.cache_put", "repro.harness.engine:ResultCache.put", True),
    ("harness.engine.ledger_append", "repro.harness.ledger:RunLedger.append", True),
    ("harness.engine.ledger_append",
     "repro.harness.ledger:LedgerEntry.from_outcome", False),
    ("harness.engine.result_hash", "repro.gpu.gpusim:RunResult.fingerprint", True),
    ("harness.engine.result_decode", "repro.gpu.gpusim:RunResult.from_dict", True),
    ("harness.engine.result_encode", "repro.gpu.gpusim:RunResult.to_dict", True),
    # kernel: the request-path loop, whichever engine resolves
    ("kernel", "repro.kernel.scalar:run_scalar", False),
    ("kernel", "repro.kernel.batched:run_batched", False),
    # gpu: simulator set-up, SM front end, interconnect, request handling
    *(("gpu", f"repro.gpu.gpusim:GpuSim.{name}", False) for name in (
        "__init__", "run", "_translate", "_translate_miss", "_access_memory",
        "_handle_l2_evictions", "_fill_page", "_ensure_chunk", "_evict_page",
        "_finish", "_result",
    )),
    ("gpu", "repro.gpu.sm:StreamingMultiprocessor.*", False),
    ("gpu", "repro.gpu.interconnect:Interconnect.*", False),
    # sim: statistics, metric tree and event queue
    ("sim", "repro.sim.metrics:collect_metrics", False),
    ("sim", "repro.sim.metrics:derived_metrics", False),
    ("sim", "repro.sim.stats:StatRegistry.add_traffic", False),
    ("sim", "repro.sim.stats:StatRegistry.bump", False),
    ("sim", "repro.sim.events:EventQueue.*", False),
    # memsys: channel/crypto/link booking, sectored caches, L2 slices
    ("memsys.channel.book", "repro.memsys.channel:Channel.book", True),
    ("memsys.channel.book", "repro.memsys.channel:CryptoEngine.book", True),
    ("memsys.cache.access", "repro.memsys.sectored_cache:SectoredCache.access", True),
    ("memsys.l2", "repro.memsys.l2cache:L2Slice.*", False),
    # migration: page residency, faults and evictions
    ("migration.ensure_resident",
     "repro.migration.engine:MigrationEngine.ensure_resident", True),
    ("migration", "repro.migration.engine:MigrationEngine.evict_now", False),
    ("migration", "repro.migration.page_cache:PageCache.*", False),
    ("migration", "repro.migration.dirty:DirtyTracker.*", False),
    # security.model: the entry points of all three timing models
    *((f"security.model.{name}", f"{module}:{cls}.{name}", True)
      for module, cls in (
          ("repro.security.none", "NoSecurityModel"),
          ("repro.security.baseline", "BaselineSecurityModel"),
          ("repro.core.salus", "SalusSecurityModel"),
      )
      for name in ("read_complete", "writeback", "fill", "evict")),
    *(("security.model", f"{module}:{cls}.{name}", False)
      for module, cls in (
          ("repro.security.model", "TimingSecurityModel"),
          ("repro.security.none", "NoSecurityModel"),
          ("repro.security.baseline", "BaselineSecurityModel"),
          ("repro.core.salus", "SalusSecurityModel"),
      )
      for name in ("on_store", "fill_chunk", "finalize")),
    # security.fabric: locating sectors, metadata caches, BMT walks, bookings
    *((f"security.fabric.{name}", f"repro.security.fabric:MemoryFabric.{name}", True)
      for name in ("locate", "metadata_access", "bmt_read_walk", "bmt_update_walk")),
    *(("security.fabric", f"repro.security.fabric:MemoryFabric.{name}", False)
      for name in ("locate_batch", "chunk_location", "device_read",
                   "device_write", "link_read", "link_write",
                   "flush_metadata_caches")),
    # core: the Salus mechanisms (IFSC, collapsed counters, fetch-on-access,
    # fine dirty tracking, unified address space)
    ("core", "repro.core.ifsc:DeviceCounterGroups.*", False),
    ("core", "repro.core.collapsed:CollapsedCXLMetadata.*", False),
    ("core", "repro.core.fetch_on_access:FetchOnAccessTracker.*", False),
    ("core", "repro.core.dirty_tracking:FineDirtyTracking.*", False),
    ("core", "repro.core.unified:UnifiedAddressSpace.*", False),
    # metadata: counter stores, BMT geometry, metadata caches, layouts
    ("metadata", "repro.metadata.counters:MonolithicCounterStore.*", False),
    ("metadata", "repro.metadata.counters:ConventionalSplitCounterStore.*", False),
    ("metadata", "repro.metadata.counters:InterleavingFriendlyCounterStore.*", False),
    ("metadata", "repro.metadata.counters:CollapsedCounterStore.*", False),
    ("metadata", "repro.metadata.bmt:BMTGeometry.path", False),
    ("metadata", "repro.metadata.bmt:BMTGeometry.path_steps", False),
    ("metadata", "repro.metadata.cache:MetadataCaches.*", False),
    ("metadata", "repro.metadata.layout:ConventionalLayout.*", False),
    ("metadata", "repro.metadata.layout:SalusDeviceLayout.*", False),
    ("metadata", "repro.metadata.layout:SalusCXLLayout.*", False),
    # cxl: per-GPC mapping caches and the miss handler
    ("cxl.mapping_cache.lookup", "repro.cxl.mapping_cache:MappingCache.lookup", True),
    ("cxl", "repro.cxl.mapping_cache:MappingCache.install", False),
    ("cxl", "repro.cxl.mapping_cache:MappingCache.invalidate", False),
    ("cxl", "repro.cxl.mapping_cache:DirtyBuffer.*", False),
    ("cxl", "repro.cxl.mapping_cache:MappingMissHandler.*", False),
    # harness.client: the service client inside the benchmark process
    ("harness.client.submit", "repro.harness.client:ServiceClient.submit", True),
    ("harness.client.result_wait", "repro.harness.client:ServiceClient.result", True),
    ("harness.client.verify", "repro.harness.client:RemoteEngine._collect", True),
)

#: Key whose calls are split into hits (non-``None`` result) and misses.
CACHE_GET_KEY = "harness.engine.cache_get"

#: Keys whose spans block on another process; they also record wall time.
WAIT_KEYS = frozenset({"harness.client.result_wait"})

#: Per-layer metrics that come from the traced spans, ``name -> unit``.
SPAN_METRICS: Dict[str, str] = {
    "workloads.build_trace.calls": "count",
    "workloads.build_trace.self_s": "s",
    "workloads.self_s": "s",
    "harness.engine.self_s": "s",
    "harness.engine.fingerprint.calls": "count",
    "harness.engine.fingerprint.self_s": "s",
    "harness.engine.cache_get.calls": "count",
    "harness.engine.cache_get.self_s": "s",
    "harness.engine.cache_put.calls": "count",
    "harness.engine.cache_put.self_s": "s",
    "harness.engine.ledger_append.calls": "count",
    "harness.engine.ledger_append.self_s": "s",
    "harness.engine.result_hash.calls": "count",
    "harness.engine.result_hash.self_s": "s",
    "harness.engine.result_decode.self_s": "s",
    "harness.engine.result_encode.self_s": "s",
    "kernel.self_s": "s",
    "gpu.self_s": "s",
    "sim.self_s": "s",
    "memsys.channel.book.calls": "count",
    "memsys.channel.book.self_s": "s",
    "memsys.cache.access.calls": "count",
    "memsys.cache.access.self_s": "s",
    "memsys.l2.self_s": "s",
    "migration.self_s": "s",
    "migration.ensure_resident.calls": "count",
    "security.model.self_s": "s",
    "security.model.read_complete.calls": "count",
    "security.model.writeback.calls": "count",
    "security.model.fill.calls": "count",
    "security.model.evict.calls": "count",
    "security.fabric.self_s": "s",
    "security.fabric.locate.calls": "count",
    "security.fabric.metadata_access.calls": "count",
    "security.fabric.bmt_read_walk.calls": "count",
    "security.fabric.bmt_update_walk.calls": "count",
    "core.self_s": "s",
    "metadata.self_s": "s",
    "cxl.self_s": "s",
    "cxl.mapping_cache.lookup.calls": "count",
    "harness.client.submit.self_s": "s",
    "harness.client.verify.self_s": "s",
}

#: Snapshot of one tracer: ``key -> [calls, self_s, hits, wait_s]``
#: (``self_s`` in CPU seconds; ``wait_s`` wall seconds, waiting keys only).
Snapshot = Dict[str, List[float]]
_EMPTY = (0, 0.0, 0, 0.0)


class LayerTracer:
    """Wraps layer functions with self-time spans; see the module docstring.

    ``clock`` (this thread's CPU time) and ``wall_clock`` are injectable so
    tests can drive spans with a fake clock.
    """

    def __init__(self, clock: Callable[[], float] = time.thread_time,
                 wall_clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._wall_clock = wall_clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_records: List[Dict[str, List[float]]] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------------
    def _thread_state(self) -> Tuple[List[float], Dict[str, List[float]]]:
        local = self._local
        try:
            return local.stack, local.records
        except AttributeError:
            local.stack, local.records = [], {}
            with self._lock:
                self._thread_records.append(local.records)
            return local.stack, local.records

    def _close(self, key: str, elapsed: float, counted: int) -> List[float]:
        stack, records = self._thread_state()
        child = stack.pop()
        record = records.get(key)
        if record is None:
            record = records[key] = list(_EMPTY)
        record[0] += counted
        record[1] += elapsed - child
        if stack:
            stack[-1] += elapsed
        return record

    def wrap(self, key: str, fn: Callable, count: bool = True) -> Callable:
        """``fn`` wrapped in a span recorded under ``key``."""
        clock, state, close = self._clock, self._thread_state, self._close
        wall_clock = self._wall_clock
        counted = 1 if count else 0
        classify_hits = key == CACHE_GET_KEY
        waits = key in WAIT_KEYS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state()[0].append(0.0)
            wall_start = wall_clock() if waits else 0.0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record = close(key, clock() - start, counted)
                if waits:
                    record[3] += wall_clock() - wall_start
            if classify_hits and result is not None:
                record[2] += 1
            return result

        return traced

    def snapshot(self) -> Snapshot:
        """Totals over every thread that recorded spans."""
        with self._lock:
            return merge(*self._thread_records)

    # -- patching ------------------------------------------------------------------
    def _patch(self, owner: object, attr: str, key: str, count: bool) -> None:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self.wrap(key, raw.__func__, count))
        else:
            new = self.wrap(key, raw, count)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw))
        if inspect.ismodule(owner):
            # Modules that imported the function by name hold their own
            # reference; replace those too.
            for name, module in list(sys.modules.items()):
                if (module is not owner and name.startswith("repro")
                        and getattr(module, attr, None) is raw):
                    setattr(module, attr, new)
                    self._patches.append((module, attr, raw))

    def install(self, targets: Iterable[Tuple[str, str, bool]] = TARGETS) -> List[str]:
        """Wrap every target that exists; call :meth:`uninstall` to restore
        them. Returns the targets whose module or attribute is missing:
        their metrics read 0, so a change that removes or renames one is
        measured rather than stopping the run."""
        absent: List[str] = []
        for key, target, count in targets:
            module_name, _, path = target.partition(":")
            *parents, attr = path.split(".")
            try:
                owner: object = importlib.import_module(module_name)
                for part in parents:
                    owner = getattr(owner, part)
                if attr == "*":
                    names = [
                        name for name, value in vars(owner).items()
                        if not name.startswith("_") and (
                            inspect.isfunction(value)
                            or isinstance(value, (classmethod, staticmethod))
                        )
                    ]
                else:
                    inspect.getattr_static(owner, attr)
                    names = [attr]
            except (ImportError, AttributeError):
                absent.append(target)
                continue
            for name in names:
                self._patch(owner, name, key, count)
        return absent

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


# -- snapshot -> metrics --------------------------------------------------------
def merge(*snapshots: Snapshot) -> Snapshot:
    """Sum snapshots key by key (e.g. benchmark process + server child)."""
    merged: Snapshot = {}
    for snap in snapshots:
        for key, values in snap.items():
            total = merged.setdefault(key, list(_EMPTY))
            for i, value in enumerate(values):
                total[i] += value
    return merged


def _under(snapshot: Snapshot, prefix: str) -> List[List[float]]:
    return [v for k, v in snapshot.items()
            if k == prefix or k.startswith(prefix + ".")]


def span_metric(snapshot: Snapshot, name: str) -> float:
    """Value of one :data:`SPAN_METRICS` entry (see the module docstring)."""
    prefix, _, field = name.rpartition(".")
    index = {"calls": 0, "self_s": 1}[field]
    return sum(values[index] for values in _under(snapshot, prefix))


def cache_hit_ratio(snapshot: Snapshot) -> float:
    calls, _, hits, _ = snapshot.get(CACHE_GET_KEY, _EMPTY)
    return hits / calls if calls else 0.0


def layer_metrics(snapshot: Snapshot, cpu_s: float) -> Dict[str, float]:
    """Every span metric, the cache hit ratio, the wait time and the CPU
    time no layer claims.

    ``cpu_s`` is the CPU time of the traced phase, benchmark process and
    server child together; whatever of it no span's self time covers is
    ``unattributed.self_s`` (``unattributed.share`` of ``cpu_s``).
    """
    out = {name: float(span_metric(snapshot, name)) for name in SPAN_METRICS}
    out["harness.engine.cache_hit_ratio"] = cache_hit_ratio(snapshot)
    out["harness.client.result_wait.s"] = sum(
        float(snapshot.get(key, _EMPTY)[3]) for key in WAIT_KEYS
    )
    unclaimed = cpu_s - sum(values[1] for values in snapshot.values())
    out["unattributed.self_s"] = unclaimed
    out["unattributed.share"] = unclaimed / cpu_s if cpu_s else 0.0
    return out
