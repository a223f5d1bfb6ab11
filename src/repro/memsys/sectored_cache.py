"""A generic sectored, set-associative, write-back cache model.

Volta's L1/L2 are sectored (128 B lines of four 32 B sectors) and the paper's
metadata caches follow the same organization (Table II). One implementation
serves all of them: lines are allocated whole, but validity and dirtiness
are tracked per sector, so a miss fetches only the needed sector
(allocate-on-fill).

The model is purely structural - it answers hit/miss and reports evictions;
timing is the caller's business.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from ..errors import ConfigError


def stable_line_key(line_addr: Hashable) -> int:
    """Deterministic integer key for a cache line address.

    The builtin ``hash()`` is salted by ``PYTHONHASHSEED`` for ``str`` and
    ``bytes`` values, which would silently break cross-process determinism
    (golden traces, the result cache, the perf-harness fingerprint gate) the
    moment a non-int line address is used. This function is an explicit,
    seed-independent replacement: ints map to themselves (matching
    ``hash(int)`` for the magnitudes a simulation produces), str/bytes go
    through CRC-32, and tuples fold their elements recursively (tuples of
    ints already hash deterministically, so existing ``(page, block)`` keys
    keep their historical set mapping).
    """
    kind = type(line_addr)
    if kind is int:
        return line_addr
    if kind is str:
        return zlib.crc32(line_addr.encode("utf-8"))
    if kind is bytes:
        return zlib.crc32(line_addr)
    if kind is tuple:
        for element in line_addr:
            if type(element) is not int:
                return hash(tuple(stable_line_key(e) for e in line_addr))
        # Every element maps to itself, so the fold is the tuple's own hash.
        return hash(line_addr)
    return hash(line_addr)


@dataclass
class EvictedLine:
    """A victim line pushed out by an allocation."""

    line_addr: Hashable
    dirty_sectors: Tuple[int, ...]

    @property
    def was_dirty(self) -> bool:
        return bool(self.dirty_sectors)


@dataclass
class AccessResult:
    """Outcome of one cache access."""

    sector_hit: bool
    line_hit: bool
    evicted: Optional[EvictedLine] = None


# The three evict-free outcomes are by far the most common, and callers only
# ever read an AccessResult, so `access` hands out shared instances instead
# of allocating ~one object per simulated memory access.
_HIT = AccessResult(sector_hit=True, line_hit=True)
_SECTOR_MISS = AccessResult(sector_hit=False, line_hit=True)
_LINE_MISS = AccessResult(sector_hit=False, line_hit=False)


class _Line:
    __slots__ = ("valid_mask", "dirty_mask", "tag_payload")

    def __init__(self, tag_payload: object = None) -> None:
        self.valid_mask = 0
        self.dirty_mask = 0
        self.tag_payload = tag_payload  # opaque per-line annotation (e.g. CXL tag)


class SectoredCache:
    """Set-associative sectored cache with per-set LRU replacement."""

    def __init__(
        self,
        name: str,
        total_bytes: int,
        ways: int,
        line_bytes: int,
        sector_bytes: int,
    ) -> None:
        if total_bytes <= 0 or ways <= 0 or line_bytes <= 0 or sector_bytes <= 0:
            raise ConfigError(f"{name}: all cache dimensions must be positive")
        if line_bytes % sector_bytes != 0:
            raise ConfigError(f"{name}: line_bytes must be a multiple of sector_bytes")
        if total_bytes % (ways * line_bytes) != 0:
            raise ConfigError(
                f"{name}: total_bytes={total_bytes} must divide into "
                f"{ways} ways of {line_bytes} B lines"
            )
        self.name = name
        self.ways = ways
        self.line_bytes = line_bytes
        self.sector_bytes = sector_bytes
        self.sectors_per_line = line_bytes // sector_bytes
        self.num_sets = total_bytes // (ways * line_bytes)
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0
        # line_addr -> resolved set, so repeat accesses skip the Python-level
        # stable_line_key computation. The *stored* mapping is computed from
        # stable_line_key, so it stays seed-independent; the lookup dict's
        # internal bucket order (which may use salted hashes for str keys)
        # is never observable. Bounded by the distinct line addresses of a
        # run's footprint.
        self._set_lookup: dict = {}
        # dirty_mask -> tuple of sector indices, for the common small lines.
        self._mask_table = _MASK_TABLES.get(self.sectors_per_line)

    # -- helpers ---------------------------------------------------------------
    def _set_for(self, line_addr: Hashable) -> OrderedDict:
        cache_set = self._set_lookup.get(line_addr)
        if cache_set is None:
            cache_set = self._sets[stable_line_key(line_addr) % self.num_sets]
            self._set_lookup[line_addr] = cache_set
        return cache_set

    def _check_sector(self, sector: int) -> None:
        if not 0 <= sector < self.sectors_per_line:
            raise ConfigError(
                f"{self.name}: sector {sector} outside line of "
                f"{self.sectors_per_line} sectors"
            )

    # -- main interface ----------------------------------------------------------
    def access(
        self,
        line_addr: Hashable,
        sector: int,
        write: bool = False,
        tag_payload: object = None,
    ) -> AccessResult:
        """Access one sector; allocates line+sector on miss (allocate-on-fill).

        On a write the sector is marked dirty. ``tag_payload`` annotates the
        line (Salus stores the owning CXL page there); it is set on
        allocation and left untouched on hits.
        """
        if sector >= self.sectors_per_line or sector < 0:
            self._check_sector(sector)
        cache_set = self._set_lookup.get(line_addr)
        if cache_set is None:
            cache_set = self._set_for(line_addr)
        line = cache_set.get(line_addr)
        bit = 1 << sector
        if line is not None:
            cache_set.move_to_end(line_addr)
            if line.valid_mask & bit:
                self.hits += 1
                if write:
                    line.dirty_mask |= bit
                return _HIT
            line.valid_mask |= bit
            if write:
                line.dirty_mask |= bit
            self.misses += 1
            return _SECTOR_MISS
        evicted = None
        if len(cache_set) >= self.ways:
            victim_addr, victim = cache_set.popitem(last=False)
            evicted = EvictedLine(
                line_addr=victim_addr,
                dirty_sectors=self._mask_to_sectors(victim.dirty_mask),
            )
        line = _Line(tag_payload=tag_payload)
        cache_set[line_addr] = line
        line.valid_mask = bit
        if write:
            line.dirty_mask = bit
        self.misses += 1
        if evicted is None:
            return _LINE_MISS
        return AccessResult(sector_hit=False, line_hit=False, evicted=evicted)

    def probe(self, line_addr: Hashable, sector: int) -> bool:
        """Non-destructive sector presence check (no LRU update)."""
        self._check_sector(sector)
        line = self._set_for(line_addr).get(line_addr)
        return line is not None and bool(line.valid_mask & (1 << sector))

    def line_payload(self, line_addr: Hashable) -> object:
        """The opaque annotation stored with a resident line (None if absent)."""
        line = self._set_for(line_addr).get(line_addr)
        return None if line is None else line.tag_payload

    def invalidate_sector(self, line_addr: Hashable, sector: int) -> bool:
        """Drop one sector without writeback; returns True if it was dirty.

        Used when a sector's backing state becomes dead (e.g. device-side
        metadata of an evicted page, whose authority moved to the CXL side):
        the dirty bit is discarded rather than flushed.
        """
        self._check_sector(sector)
        line = self._set_for(line_addr).get(line_addr)
        if line is None:
            return False
        bit = 1 << sector
        was_dirty = bool(line.dirty_mask & bit)
        line.valid_mask &= ~bit
        line.dirty_mask &= ~bit
        return was_dirty

    def invalidate_line(self, line_addr: Hashable) -> Optional[EvictedLine]:
        """Drop a line; returns its dirty sectors so the caller can write back."""
        cache_set = self._set_for(line_addr)
        line = cache_set.pop(line_addr, None)
        if line is None:
            return None
        return EvictedLine(
            line_addr=line_addr, dirty_sectors=self._mask_to_sectors(line.dirty_mask)
        )

    def flush_dirty(self) -> List[EvictedLine]:
        """Drain every dirty line (end-of-run writeback accounting)."""
        drained: List[EvictedLine] = []
        for cache_set in self._sets:
            for line_addr, line in cache_set.items():
                if line.dirty_mask:
                    drained.append(
                        EvictedLine(
                            line_addr=line_addr,
                            dirty_sectors=self._mask_to_sectors(line.dirty_mask),
                        )
                    )
                    line.dirty_mask = 0
        return drained

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def _mask_to_sectors(self, mask: int) -> Tuple[int, ...]:
        table = self._mask_table
        if table is not None:
            return table[mask]
        return _mask_to_sectors_slow(mask)


def _mask_to_sectors_slow(mask: int) -> Tuple[int, ...]:
    out = []
    idx = 0
    while mask:
        if mask & 1:
            out.append(idx)
        mask >>= 1
        idx += 1
    return tuple(out)


#: sectors_per_line -> ``mask -> sector indices`` table, for 1-8 sectors
#: (wider lines have too many masks to tabulate). Built once, at import,
#: and shared by every cache of a width: a simulator builds dozens of
#: caches, all with the same few widths.
_MASK_TABLES: Dict[int, Tuple[Tuple[int, ...], ...]] = {
    sectors: tuple(_mask_to_sectors_slow(mask) for mask in range(1 << sectors))
    for sectors in range(1, 9)
}
