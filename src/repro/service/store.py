"""TTL/LRU eviction for the content-addressed result store.

The experiment engine's :class:`~repro.harness.engine.ResultCache` grows
without bound: every simulated job leaves one ``<fp[:2]>/<fp>.json`` entry
under the cache root forever. That is fine for a workstation sweep; a
long-lived job service serving many tenants needs a policy. This module
implements one, as plain filesystem maintenance so it composes with every
existing cache consumer:

* **TTL** - entries whose mtime is older than ``ttl_s`` are dropped.
* **LRU** - if more than ``max_entries`` remain, the least recently *used*
  are dropped (``ResultCache.get`` touches an entry's mtime on every hit,
  so mtime ranks by use, not by write).

Eviction never touches ``ledger.jsonl`` (the run history is append-only and
deliberately outside the eviction domain - see docs/SERVICE.md), and an
evicted entry is never an error anywhere else: the cache contract already
treats a missing file as a miss, so the worst case is one re-simulation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple, Union


@dataclass(frozen=True)
class CacheEvictionPolicy:
    """What to keep in the result store.

    ``max_entries``/``ttl_s`` of ``None`` disable that dimension; the
    all-``None`` default is the historical keep-everything behaviour.
    """

    max_entries: Optional[int] = None
    ttl_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_entries is not None and self.max_entries < 0:
            raise ValueError("max_entries must be >= 0")
        if self.ttl_s is not None and self.ttl_s < 0:
            raise ValueError("ttl_s must be >= 0")

    @property
    def enabled(self) -> bool:
        return self.max_entries is not None or self.ttl_s is not None

    def describe(self) -> dict:
        return {"max_entries": self.max_entries, "ttl_s": self.ttl_s}


@dataclass
class EvictionReport:
    """What one eviction sweep did (shown by ``GET /stats`` and tests)."""

    scanned: int = 0
    evicted_ttl: int = 0
    evicted_lru: int = 0
    bytes_freed: int = 0
    errors: int = 0
    kept: int = 0
    policy: dict = field(default_factory=dict)

    @property
    def evicted(self) -> int:
        return self.evicted_ttl + self.evicted_lru

    def as_dict(self) -> dict:
        return {
            "scanned": self.scanned,
            "evicted": self.evicted,
            "evicted_ttl": self.evicted_ttl,
            "evicted_lru": self.evicted_lru,
            "kept": self.kept,
            "bytes_freed": self.bytes_freed,
            "errors": self.errors,
            "policy": dict(self.policy),
        }


def _scan(root: Path) -> List[Tuple[float, int, Path]]:
    """(mtime, size, path) for every cache entry; unreadable ones skipped.

    A shard directory that vanishes mid-scan (another sweep pruned it) is
    skipped too, where ``root.glob`` would raise.
    """
    entries = []
    for shard in _listdir(root):
        for path in _listdir(shard):
            if path.suffix != ".json":
                continue
            try:
                st = path.stat()
            except OSError:
                continue
            entries.append((st.st_mtime, st.st_size, path))
    return entries


def _listdir(path: Path) -> List[Path]:
    try:
        return list(path.iterdir())
    except OSError:  # gone, or not a directory
        return []


def evict_result_cache(
    root: Union[str, Path],
    policy: CacheEvictionPolicy,
    now: Optional[float] = None,
) -> EvictionReport:
    """Apply ``policy`` to the result store under ``root``; returns a report.

    TTL first (age is absolute), then LRU over the survivors. Removal is
    best-effort: an entry that vanishes or resists deletion mid-sweep is
    counted under ``errors`` and otherwise ignored - the next sweep sees
    whatever is left. Empty shard subdirectories are pruned afterwards so
    the tree does not accumulate husks.
    """
    root = Path(root)
    report = EvictionReport(policy=policy.describe())
    if not policy.enabled or not root.exists():
        return report
    now = time.time() if now is None else now
    entries = _scan(root)
    report.scanned = len(entries)

    survivors: List[Tuple[float, int, Path]] = []
    if policy.ttl_s is not None:
        for mtime, size, path in entries:
            if now - mtime > policy.ttl_s:
                if _remove(path):
                    report.evicted_ttl += 1
                    report.bytes_freed += size
                else:
                    report.errors += 1
            else:
                survivors.append((mtime, size, path))
    else:
        survivors = entries

    if policy.max_entries is not None and len(survivors) > policy.max_entries:
        # Oldest mtime = least recently used (reads touch mtime).
        survivors.sort(key=lambda e: e[0])
        excess = len(survivors) - policy.max_entries
        for mtime, size, path in survivors[:excess]:
            if _remove(path):
                report.evicted_lru += 1
                report.bytes_freed += size
            else:
                report.errors += 1
        survivors = survivors[excess:]

    report.kept = len(survivors)
    if report.evicted:
        _prune_empty_shards(root)
    return report


def _remove(path: Path) -> bool:
    try:
        path.unlink()
        return True
    except OSError:
        return False


def _prune_empty_shards(root: Path) -> None:
    for sub in root.iterdir() if root.exists() else ():
        if not sub.is_dir():
            continue
        try:
            next(sub.iterdir())
        except StopIteration:
            try:
                sub.rmdir()
            except OSError:
                pass
        except OSError:
            pass
