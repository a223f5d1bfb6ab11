"""Epoch-batched engine: vectorized precompute + fused dispatch loop.

The dual-engine contract (ARCHITECTURE.md) demands bit-identical
``RunResult`` trees against :mod:`repro.kernel.scalar`, so the dynamic
state machines - SM issue clocks, mapping/L2/metadata LRU caches, channel
timelines, migration state - must transition in exactly the scalar order.
What *can* leave the per-request loop is everything static:

* per-epoch numpy precompute of all address arithmetic (page, block- and
  sector-in-page, SM/GPC/warp routing) as shift/mask array ops over the
  trace's dense int64 columns;
* inlined hot-path fast cases (mapping-cache hit + resident page, L2
  sector hit, L2 write to a present line) that replicate the scalar
  transitions - including hit/miss tallies and LRU movement - without
  crossing any method boundary.

Everything else - mapping misses, residency faults, L2 misses and
evictions, MSHR merges, chunk-granularity fills, every security-model
leg - falls back to the *same* scalar methods the reference engine uses,
at the exact point where the inline probe (which mutates nothing until
the fast case is certain) bows out. That fallback seam is the "scalar
tail" the docs describe.
"""

from __future__ import annotations

from typing import Iterable

from . import require_numpy
from ..errors import IsolationError, TraceError

#: Requests per vectorized slab: large enough to amortize the numpy ops,
#: small enough to keep each slab's precomputed columns cheap to hold.
EPOCH_SIZE = 2048


def _as_dense(requests: Iterable):
    """Coerce any request source the scalar engine accepts to columns."""
    from ..workloads.trace import DenseTrace, Trace

    if isinstance(requests, DenseTrace):
        return requests
    if isinstance(requests, Trace):
        return requests.dense()
    return DenseTrace.from_requests(list(requests))


def run_batched(sim, requests: Iterable, compute_per_mem: int = 0) -> None:
    """Drive ``sim`` through ``requests`` one epoch-batched slab at a time."""
    require_numpy()
    from ..gpu.gpusim import MAPPING_HIT_CYCLES

    dense = _as_dense(requests)
    gpu = sim.config.gpu
    block = 1 + max(0, compute_per_mem)
    footprint_bytes = sim.fabric.footprint_pages * sim.geometry.page_bytes
    page_bytes = sim._page_bytes
    block_bytes = sim._block_bytes
    sector_bytes = sim._sector_bytes
    l2_lat = sim._l2_latency
    hit_lat = MAPPING_HIT_CYCLES
    num_sms = gpu.num_sms
    sms_per_gpc = gpu.sms_per_gpc
    warps = gpu.warps_per_sm
    chunk_mode = sim._chunk_mode

    # Pre-bound state the fused loop transitions in scalar order. Every
    # container here is mutated in place by the fallback paths, never
    # rebound, so holding direct references is safe.
    sms = sim.sms
    map_caches = sim.miss_handler.caches
    map_lrus = [c._lru for c in map_caches]
    pc_frames = sim.page_cache._page_to_frame
    pc_on_access = sim.page_cache._policy.on_access
    inflight_fills = sim.engine._inflight_fills
    ensure_resident = sim.engine.ensure_resident
    translate_miss = sim._translate_miss
    interconnect = sim.interconnect
    port_free = interconnect._port_free
    ic_lat = interconnect.latency_cycles
    fabric = sim.fabric
    loc_get = fabric._loc_cache.get
    locate = fabric.locate
    num_frames = fabric.num_frames
    l2_caches = [slice_.cache for slice_ in sim.l2]
    on_store = sim.model.on_store
    access_memory = sim._access_memory
    sample_queue = sim._sample_queue
    tracer = sim.tracer
    tracing = tracer.enabled

    addrs = dense.addrs
    is_write = dense.is_write
    sm_arr = dense.sm_id
    warp_arr = dense.warp
    tenant_arr = dense.tenant
    tmap = fabric.tenant_map
    sms_per_tenant = tmap.sms_per_tenant if tmap is not None else 0

    now_hwm = sim._now
    ic_booked = 0

    for start, stop in dense.epoch_bounds(EPOCH_SIZE):
        a = addrs[start:stop]
        # Bounds check the whole slab up front; process the valid prefix
        # (matching the scalar engine's partial progress) before raising.
        # Partitioned fabrics additionally screen every in-bounds request
        # against its tenant's page span, exactly as the scalar engine does
        # per request; the first bad row of either kind caps the prefix.
        oob = (a < 0) | (a >= footprint_bytes)
        if tmap is None:
            bad = oob
            ten_v = None
            owner_v = None
        else:
            ten_v = tenant_arr[start:stop]
            owner_v = tmap.tenant_of_pages(a // page_bytes)
            bad_ten = (ten_v < 0) | (ten_v >= tmap.num_tenants)
            bad = oob | (~oob & (bad_ten | (owner_v != ten_v)))
        bad_local = int(bad.argmax()) if bad.any() else -1
        limit = bad_local if bad_local >= 0 else int(a.shape[0])

        # Epoch-vectorized static arithmetic: one shot of array ops covers
        # what the scalar loop recomputes per request.
        av = a[:limit]
        pages_v = av // page_bytes
        in_page = av - pages_v * page_bytes
        bip_v = in_page // block_bytes
        sib_v = (in_page - bip_v * block_bytes) // sector_bytes
        if tmap is None:
            smx_v = sm_arr[start:start + limit] % num_sms
        else:
            # Scalar: sms[tmap.sm_slot(ten, req.sm)] - tenant SM group base
            # plus the hint folded into the group.
            smx_v = (
                ten_v[:limit] * sms_per_tenant
                + sm_arr[start:start + limit] % sms_per_tenant
            )
        gpc_v = smx_v // sms_per_gpc
        warp_v = warp_arr[start:start + limit] % warps

        rows = zip(
            av.tolist(), pages_v.tolist(), bip_v.tolist(), sib_v.tolist(),
            smx_v.tolist(), gpc_v.tolist(), warp_v.tolist(),
            is_write[start:start + limit].tolist(),
        )
        for addr, page, bip, sib, smx, gpc, warp, w in rows:
            sm = sms[smx]
            # SM issue (StreamingMultiprocessor.issue, inlined)
            wr = sm.warp_ready
            clock = sm.clock
            warp_free = wr[warp]
            t_issue = clock if clock >= warp_free else warp_free
            sm.clock = t_issue + block
            sm.instructions += block
            if t_issue > now_hwm:
                now_hwm = t_issue
            if sample_queue is not None and now_hwm > sample_queue.now:
                sim._now = now_hwm
                sample_queue.run(until=now_hwm)

            # Translate: mapping-cache hit + resident-page fast path inline;
            # misses and faults fall back to the shared scalar machinery.
            mlru = map_lrus[gpc]
            if mlru.get(page) is not None:
                map_caches[gpc].hits += 1
                mlru.move_to_end(page)
                frame = pc_frames.get(page)
                if frame is not None and page not in inflight_fills:
                    pc_on_access(page)
                    ready = t_issue + hit_lat
                else:
                    frame, fill_ready = ensure_resident(t_issue, page)
                    ready = t_issue + hit_lat
                    if fill_ready > ready:
                        ready = fill_ready
            else:
                map_caches[gpc].misses += 1
                frame, ready = translate_miss(t_issue, gpc, page)

            # Interconnect traverse, inlined.
            pf = port_free[gpc]
            t0 = ready if ready >= pf else pf
            port_free[gpc] = t0 + 1
            ic_booked += 1
            t_mem = t0 + ic_lat

            # Memory access: L2 fast cases inline; anything that books
            # traffic or evicts goes through the scalar path untouched.
            if chunk_mode:
                completion = access_memory(t_mem, addr, bool(w), frame)
            else:
                loc = loc_get(addr * num_frames + frame)
                if loc is None:
                    loc = locate(addr, frame)
                cache = l2_caches[loc.channel]
                line_addr = (page, bip)
                cache_set = cache._set_lookup.get(line_addr)
                if cache_set is None:
                    cache_set = cache._set_for(line_addr)
                line = cache_set.get(line_addr)
                bit = 1 << sib
                if w:
                    if line is not None:
                        on_store(t_mem, loc)
                        cache_set.move_to_end(line_addr)
                        if line.valid_mask & bit:
                            cache.hits += 1
                            line.dirty_mask |= bit
                        else:
                            line.valid_mask |= bit
                            line.dirty_mask |= bit
                            cache.misses += 1
                        completion = t_mem + l2_lat
                    else:
                        completion = access_memory(t_mem, addr, True, frame)
                elif line is not None and line.valid_mask & bit:
                    cache_set.move_to_end(line_addr)
                    cache.hits += 1
                    completion = t_mem + l2_lat
                else:
                    completion = access_memory(t_mem, addr, False, frame)

            # Warp completion (StreamingMultiprocessor.complete, inlined)
            if completion > wr[warp]:
                wr[warp] = completion
            if tracing:
                targs = {"addr": addr, "warp": warp}
                if tmap is not None:
                    # Enforcement already proved the requester owns the
                    # page, so the page's owner IS the request's tenant.
                    targs["tenant"] = tmap.tenant_of_page(page)
                tracer.span(
                    f"sm{sm.sm_id}", "write" if w else "read",
                    t_issue, completion - t_issue, cat="request",
                    args=targs,
                )

        if bad_local >= 0:
            interconnect.requests += ic_booked
            sim._now = now_hwm
            if bool(oob[bad_local]):
                raise TraceError(
                    f"trace address {int(a[bad_local]):#x} outside footprint "
                    f"of {footprint_bytes} bytes"
                )
            # Tenant screen tripped: raise the same IsolationError the
            # scalar engine raises for this row, invalid-id check first.
            ten = int(ten_v[bad_local])
            if not 0 <= ten < tmap.num_tenants:
                raise IsolationError(
                    f"request tenant {ten} outside partition of "
                    f"{tmap.num_tenants} tenants"
                )
            raise IsolationError(
                f"tenant {ten} request for address {int(a[bad_local]):#x} "
                f"crosses into tenant {int(owner_v[bad_local])}'s pages"
            )

    interconnect.requests += ic_booked
    sim._now = now_hwm
