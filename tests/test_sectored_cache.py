"""Unit tests for the generic sectored cache (repro.memsys.sectored_cache)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.memsys.sectored_cache import (
    _MASK_TABLES,
    SectoredCache,
    _mask_to_sectors_slow,
)


def make_cache(total=1024, ways=2, line=128, sector=32):
    return SectoredCache("test", total, ways, line, sector)


class TestBasics:
    def test_dimensions(self):
        cache = make_cache()
        assert cache.num_sets == 4
        assert cache.sectors_per_line == 4

    def test_validation(self):
        with pytest.raises(ConfigError):
            make_cache(total=1000)  # not divisible
        with pytest.raises(ConfigError):
            SectoredCache("x", 1024, 2, 100, 32)  # line not multiple of sector
        with pytest.raises(ConfigError):
            make_cache(total=0)

    def test_cold_miss_then_hit(self):
        cache = make_cache()
        assert not cache.access(0, 0).sector_hit
        assert cache.access(0, 0).sector_hit

    def test_sector_granularity(self):
        """Line-hit but sector-miss: the sectored organization's whole point."""
        cache = make_cache()
        cache.access(0, 0)
        result = cache.access(0, 1)
        assert result.line_hit
        assert not result.sector_hit

    def test_sector_bounds_checked(self):
        with pytest.raises(ConfigError):
            make_cache().access(0, 4)


class TestEviction:
    def test_lru_victim(self):
        cache = make_cache(total=256, ways=2, line=128)  # 1 set, 2 ways
        cache.access(0, 0)
        cache.access(1, 0)
        cache.access(0, 1)  # touch 0: now 1 is LRU
        result = cache.access(2, 0)
        assert result.evicted is not None
        assert result.evicted.line_addr == 1

    def test_dirty_sectors_reported(self):
        cache = make_cache(total=256, ways=2, line=128)
        cache.access(0, 1, write=True)
        cache.access(0, 3, write=True)
        cache.access(1, 0)
        result = cache.access(2, 0)
        assert result.evicted.line_addr == 0
        assert result.evicted.dirty_sectors == (1, 3)
        assert result.evicted.was_dirty

    def test_clean_eviction(self):
        cache = make_cache(total=256, ways=2, line=128)
        cache.access(0, 0)
        cache.access(1, 0)
        result = cache.access(2, 0)
        assert result.evicted is not None
        assert not result.evicted.was_dirty


class TestInvalidation:
    def test_invalidate_line_returns_dirty(self):
        cache = make_cache()
        cache.access(5, 2, write=True)
        evicted = cache.invalidate_line(5)
        assert evicted.dirty_sectors == (2,)
        assert not cache.probe(5, 2)

    def test_invalidate_absent_line(self):
        assert make_cache().invalidate_line(99) is None

    def test_invalidate_sector_discards_dirty(self):
        cache = make_cache()
        cache.access(5, 2, write=True)
        assert cache.invalidate_sector(5, 2) is True
        assert not cache.probe(5, 2)
        # The line itself survives with its other sectors.
        cache.access(5, 1)
        assert cache.invalidate_sector(5, 1) is False  # clean sector

    def test_invalidate_sector_absent(self):
        assert make_cache().invalidate_sector(0, 0) is False


class TestFlushAndPayload:
    def test_flush_dirty(self):
        cache = make_cache()
        cache.access(0, 0, write=True)
        cache.access(1, 2, write=True)
        cache.access(2, 3)  # clean
        drained = cache.flush_dirty()
        assert {d.line_addr for d in drained} == {0, 1}
        assert cache.flush_dirty() == []  # idempotent

    def test_tag_payload(self):
        cache = make_cache()
        cache.access(3, 0, tag_payload="page-9")
        assert cache.line_payload(3) == "page-9"
        assert cache.line_payload(4) is None
        # Hits do not clobber the payload.
        cache.access(3, 1, tag_payload="other")
        assert cache.line_payload(3) == "page-9"

    def test_hit_rate(self):
        cache = make_cache()
        cache.access(0, 0)
        cache.access(0, 0)
        assert cache.hit_rate == pytest.approx(0.5)


@given(
    accesses=st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 3), st.booleans()),
        min_size=1,
        max_size=300,
    )
)
@settings(max_examples=30, deadline=None)
def test_capacity_never_exceeded(accesses):
    cache = make_cache(total=512, ways=2, line=128)  # 2 sets x 2 ways
    for line, sector, write in accesses:
        cache.access(line, sector, write=write)
    for cache_set in cache._sets:
        assert len(cache_set) <= cache.ways


@given(
    accesses=st.lists(
        st.tuples(st.integers(0, 10), st.integers(0, 3)), min_size=1, max_size=200
    )
)
@settings(max_examples=30, deadline=None)
def test_probe_agrees_with_access_history(accesses):
    """probe() is consistent: a probed-present sector hits on access."""
    cache = make_cache(total=2048, ways=4, line=128)
    for line, sector in accesses:
        present = cache.probe(line, sector)
        result = cache.access(line, sector)
        assert result.sector_hit == present


class TestMaskTable:
    @pytest.mark.parametrize("sectors", range(1, 9))
    def test_shared_table_matches_slow_path(self, sectors):
        assert list(_MASK_TABLES[sectors]) == [
            _mask_to_sectors_slow(mask) for mask in range(1 << sectors)
        ]

    def test_one_table_per_width_shared_by_caches(self):
        a = make_cache()
        b = make_cache(total=2048)
        assert a._mask_table is b._mask_table is _MASK_TABLES[4]

    def test_wide_lines_use_the_slow_path(self):
        cache = make_cache(total=4096, ways=2, line=512, sector=32)
        assert cache._mask_table is None
        assert cache._mask_to_sectors(0b1000000000000101) == (0, 2, 15)
