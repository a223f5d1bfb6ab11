"""Trace container: a workload as the simulator consumes it.

Two faces of the same request stream:

* :class:`Trace` - the list-of-:class:`MemoryRequest` iterator every
  scalar consumer walks;
* :class:`DenseTrace` - a column-oriented view (``addrs`` / ``is_write``
  / ``sm_id`` / ``warp`` / ``ts`` as int64 numpy arrays) that the batched
  kernel slices per epoch. Epoch slices are numpy views, so after the
  one-time columnarization the per-epoch cost is zero-copy.

``ts`` is the request ordinal (issue order).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from ..errors import TraceError
from ..kernel import numpy_or_none, require_numpy
from ..memsys.request import MemoryRequest

#: Packed little-endian record layout matching the per-request
#: ``struct.pack("<QBII", addr, is_write, sm, warp)`` fingerprint stream
#: byte for byte (itemsize 17, no padding).
_FINGERPRINT_DTYPE = [("addr", "<u8"), ("w", "u1"), ("sm", "<u4"), ("warp", "<u4")]


class DenseTrace:
    """Column-oriented int64 view of a request stream.

    Immutable by convention: the arrays are built once from the request
    list and shared by every consumer; epoch slices are views, never
    copies.
    """

    __slots__ = ("name", "footprint_pages", "compute_per_mem",
                 "addrs", "is_write", "sm_id", "warp", "ts", "tenant")

    def __init__(self, name, footprint_pages, compute_per_mem,
                 addrs, is_write, sm_id, warp, ts, tenant=None) -> None:
        self.name = name
        self.footprint_pages = footprint_pages
        self.compute_per_mem = compute_per_mem
        self.addrs = addrs
        self.is_write = is_write
        self.sm_id = sm_id
        self.warp = warp
        self.ts = ts
        if tenant is None:
            tenant = require_numpy().zeros_like(addrs)
        self.tenant = tenant

    def __len__(self) -> int:
        return int(self.addrs.shape[0])

    @classmethod
    def from_requests(
        cls,
        requests: List[MemoryRequest],
        name: str = "trace",
        footprint_pages: int = 0,
        compute_per_mem: int = 0,
    ) -> "DenseTrace":
        np = require_numpy()
        n = len(requests)
        addrs = np.fromiter((r.cxl_addr for r in requests), dtype=np.int64, count=n)
        is_write = np.fromiter(
            (1 if r.is_write else 0 for r in requests), dtype=np.int64, count=n
        )
        sm_id = np.fromiter((r.sm for r in requests), dtype=np.int64, count=n)
        warp = np.fromiter((r.warp for r in requests), dtype=np.int64, count=n)
        ts = np.arange(n, dtype=np.int64)
        tenant = np.fromiter((r.tenant for r in requests), dtype=np.int64, count=n)
        return cls(name, footprint_pages, compute_per_mem,
                   addrs, is_write, sm_id, warp, ts, tenant)

    def epoch_bounds(self, epoch_size: int):
        """Yield ``(start, stop)`` index pairs covering the stream."""
        n = len(self)
        step = max(1, int(epoch_size))
        for start in range(0, n, step):
            yield start, min(start + step, n)


@dataclass
class Trace:
    """A named sequence of post-L1 memory requests plus workload metadata.

    ``compute_per_mem`` is the arithmetic intensity the SM front end
    interleaves between memory instructions; ``footprint_pages`` sizes the
    protected CXL address space (and, through the capacity ratio, the device
    page cache).
    """

    name: str
    footprint_pages: int
    compute_per_mem: int
    requests: List[MemoryRequest] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.footprint_pages <= 0:
            raise TraceError("footprint_pages must be positive")
        if self.compute_per_mem < 0:
            raise TraceError("compute_per_mem must be non-negative")
        self._dense: Optional[DenseTrace] = None

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[MemoryRequest]:
        return iter(self.requests)

    def __getstate__(self):
        # The columnar cache is derived data; keep pickles (process-pool
        # hand-off, result cache) lean and let receivers rebuild it.
        state = dict(self.__dict__)
        state["_dense"] = None
        return state

    @property
    def write_fraction(self) -> float:
        if not self.requests:
            return 0.0
        writes = sum(1 for r in self.requests if r.is_write)
        return writes / len(self.requests)

    def distinct_pages(self, page_bytes: int) -> int:
        return len({r.cxl_addr // page_bytes for r in self.requests})

    def dense(self) -> DenseTrace:
        """The columnar view, built lazily and cached.

        The cache is keyed on the request count, so the common mutation
        (``head``-style truncation builds a new Trace; generators only
        append before first use) never serves a stale view. Requires
        numpy.
        """
        cached = self._dense
        if cached is not None and len(cached) == len(self.requests):
            return cached
        dense = DenseTrace.from_requests(
            self.requests, name=self.name,
            footprint_pages=self.footprint_pages,
            compute_per_mem=self.compute_per_mem,
        )
        self._dense = dense
        return dense

    def fingerprint(self) -> str:
        """Stable content hash of the trace.

        Covers the metadata and the full ordered request stream (address,
        direction, SM, warp). Deterministic across processes and platforms -
        no reliance on ``hash()`` - so it can anchor cross-process cache
        keys: generating the same (bench, n_accesses, seed, geometry) in two
        different interpreters must yield the same fingerprint. With numpy
        present the packed byte stream is produced in one vectorized shot
        from the dense view; the bytes (and hash) are identical either way.
        """
        digest = hashlib.sha256()
        header = f"{self.name}|{self.footprint_pages}|{self.compute_per_mem}|{len(self.requests)}"
        digest.update(header.encode("utf-8"))
        np = numpy_or_none()
        if np is not None and self.requests:
            d = self.dense()
            rec = np.empty(len(d), dtype=_FINGERPRINT_DTYPE)
            rec["addr"] = d.addrs.astype("<u8")
            rec["w"] = np.minimum(d.is_write, 1).astype("u1")
            rec["sm"] = d.sm_id.astype("<u4")
            rec["warp"] = d.warp.astype("<u4")
            digest.update(rec.tobytes())
            # Tenant ids join the hash only when the trace actually uses
            # them, so every pre-tenancy trace keeps its recorded
            # fingerprint byte for byte.
            if d.tenant.any():
                digest.update(d.tenant.astype("<u4").tobytes())
            return digest.hexdigest()
        for req in self.requests:
            digest.update(
                struct.pack("<QBII", req.cxl_addr, 1 if req.is_write else 0, req.sm, req.warp)
            )
        if any(req.tenant for req in self.requests):
            for req in self.requests:
                digest.update(struct.pack("<I", req.tenant))
        return digest.hexdigest()

    def head(self, n: int) -> "Trace":
        """A truncated copy (used by fast tests)."""
        return Trace(
            name=self.name,
            footprint_pages=self.footprint_pages,
            compute_per_mem=self.compute_per_mem,
            requests=self.requests[:n],
        )
