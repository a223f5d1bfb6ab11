"""Unit tests for the shared memory fabric (repro.security.fabric)."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.address import ShardMap
from repro.config import SystemConfig
from repro.errors import AddressError
from repro.memsys.interleave import Interleaver
from repro.metadata.bmt import BMTGeometry
from repro.security.fabric import MemoryFabric
from repro.sim.stats import Side, StatRegistry, TrafficCategory


def make_fabric(footprint_pages=64, **config_overrides):
    config = SystemConfig.small(**config_overrides)
    return MemoryFabric(config, footprint_pages, StatRegistry())


class TestConstruction:
    def test_resources_sized_from_config(self):
        fabric = make_fabric()
        gpu = fabric.config.gpu
        assert len(fabric.channels) == gpu.num_channels
        assert len(fabric.aes_engines) == gpu.num_channels
        assert len(fabric.device_meta) == gpu.num_channels

    def test_frames_follow_capacity_ratio(self):
        fabric = make_fabric(footprint_pages=100)
        assert fabric.num_frames == 35  # default 35% ratio

    def test_frames_never_zero(self):
        fabric = make_fabric(footprint_pages=1)
        assert fabric.num_frames >= 1


class TestLocate:
    def test_coordinates(self):
        fabric = make_fabric()
        geom = fabric.geometry
        addr = 2 * geom.page_bytes + 3 * geom.chunk_bytes + 5 * geom.sector_bytes
        loc = fabric.locate(addr, frame=7)
        assert loc.page == 2
        assert loc.chunk_in_page == 3
        assert loc.sector_in_chunk == 5
        assert loc.frame == 7
        assert loc.device_chunk == 7 * geom.chunks_per_page + 3
        expected_channel, expected_chunk = fabric.interleaver.device_chunk_location(7, 3)
        assert loc.channel == expected_channel
        assert loc.local_chunk == expected_chunk
        assert loc.local_sector == expected_chunk * 8 + 5
        assert loc.local_block == loc.local_sector // 4
        assert loc.cxl_sector == addr // 32

    def test_same_page_different_frames_different_channels_possible(self):
        fabric = make_fabric()
        l1 = fabric.locate(0, frame=0)
        l2 = fabric.locate(0, frame=1)
        assert (l1.channel, l1.local_chunk) != (l2.channel, l2.local_chunk)


#: Fabric shapes whose ``locate`` is checked against the reference formulas.
LOCATE_SHAPES = {
    "1dev": lambda cfg: cfg,
    "2dev": lambda cfg: cfg.with_cxl_devices(2),
    "4dev": lambda cfg: cfg.with_cxl_devices(4, sharding="range"),
    "2tenants": lambda cfg: cfg.with_tenants(2),
    "2tenants-2dev": lambda cfg: cfg.with_tenants(2).with_cxl_devices(2),
}
LOCATE_PAGES = 96


@functools.lru_cache(maxsize=None)
def shaped_fabric(shape):
    config = LOCATE_SHAPES[shape](SystemConfig.small())
    return MemoryFabric(config, LOCATE_PAGES, StatRegistry())


def reference_location(fabric, addr, frame):
    """Every SectorLoc field from the Geometry/Interleaver/ShardMap formulas."""
    geom = fabric.geometry
    page = geom.page_of(addr)
    chunk_in_page = geom.chunk_in_page(addr)
    sector_in_chunk = geom.sector_in_chunk(addr)
    tm = fabric.tenant_map
    topology = fabric.config.topology
    if tm is None:
        channel, local_chunk = Interleaver(
            geom, fabric.config.gpu.num_channels
        ).device_chunk_location(frame, chunk_in_page)
        home = ShardMap(
            geometry=geom, num_devices=topology.num_devices,
            policy=topology.sharding, total_pages=LOCATE_PAGES,
        ).home_of_page(page)
    else:
        tenant = tm.tenant_of_page(page)
        channel, local_chunk = Interleaver(
            geom, tm.channels_per_tenant
        ).device_chunk_location(frame, chunk_in_page)
        channel += tm.channel_base(tenant)
        home = ShardMap(
            geometry=geom, num_devices=tm.devices_per_tenant,
            policy=topology.sharding, total_pages=max(1, tm.pages_of(tenant)),
        ).home_of_page(page - tm.page_base(tenant)) + tm.devices_of(tenant).start
    return {
        "cxl_addr": addr,
        "page": page,
        "sector_in_page": geom.sector_in_page(addr),
        "chunk_in_page": chunk_in_page,
        "sector_in_chunk": sector_in_chunk,
        "frame": frame,
        "channel": channel,
        "local_sector": local_chunk * geom.sectors_per_chunk + sector_in_chunk,
        "local_chunk": local_chunk,
        "device_chunk": frame * geom.chunks_per_page + chunk_in_page,
        "home_device": home,
        "local_block": (local_chunk * geom.sectors_per_chunk + sector_in_chunk) // 4,
        "cxl_sector": addr // geom.sector_bytes,
    }


class TestLocateReference:
    @pytest.mark.parametrize("shape", sorted(LOCATE_SHAPES))
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_fields_match_reference_formulas(self, shape, data):
        fabric = shaped_fabric(shape)
        addr = data.draw(st.integers(0, LOCATE_PAGES * fabric.geometry.page_bytes - 1))
        frame = data.draw(st.integers(0, fabric.num_frames - 1))
        loc = fabric.locate(addr, frame)
        expected = reference_location(fabric, addr, frame)
        assert {name: getattr(loc, name) for name in expected} == expected
        assert fabric.locate(addr, frame) is loc  # memoized, one object

    @pytest.mark.parametrize("shape", sorted(LOCATE_SHAPES))
    def test_negative_address_rejected(self, shape):
        fabric = shaped_fabric(shape)
        for addr, frame in ((-32, 0), (-4096, 1)):
            with pytest.raises(AddressError):
                fabric.locate(addr, frame)

    def test_negative_frame_rejected(self):
        with pytest.raises(AddressError):
            make_fabric().locate(0, -1)


class TestMetadataAccess:
    def test_hit_costs_nothing(self):
        fabric = make_fabric()
        cache = fabric.device_meta[0].counter
        reads = []
        read_fn = lambda t, n: reads.append(n) or t + 50
        write_fn = lambda t, n: t
        fabric.metadata_access(0, cache, 3, read_fn, write_fn, TrafficCategory.COUNTER)
        ready, hit = fabric.metadata_access(
            10, cache, 3, read_fn, write_fn, TrafficCategory.COUNTER
        )
        assert hit and ready == 10
        assert reads == [32]  # only the first access fetched

    def test_dirty_eviction_writes_back(self):
        fabric = make_fabric()
        cache = fabric.device_meta[0].counter
        writes = []
        read_fn = lambda t, n: t
        write_fn = lambda t, n: writes.append(n) or t
        # Dirty enough units to force evictions from the small cache.
        capacity_units = (
            fabric.config.security.counter_cache_bytes // 32
        )
        for unit in range(capacity_units * 4):
            fabric.metadata_access(
                0, cache, unit, read_fn, write_fn,
                TrafficCategory.COUNTER, write=True,
            )
        assert writes  # dirty lines were pushed out


class TestBmtWalks:
    def test_cold_walk_reads_path_not_root(self):
        fabric = make_fabric()
        geom = BMTGeometry(num_leaves=4096)  # depth 4 -> 3 non-root levels
        reads = []
        read_fn = lambda t, n: reads.append(n) or t + 10
        write_fn = lambda t, n: t
        fabric.bmt_read_walk(
            0, fabric.device_meta[0].bmt, geom, 0, read_fn, write_fn
        )
        assert len(reads) == 3
        assert all(n == 64 for n in reads)

    def test_warm_walk_stops_at_first_hit(self):
        fabric = make_fabric()
        geom = BMTGeometry(num_leaves=4096)
        cache = fabric.device_meta[0].bmt
        read_fn = lambda t, n: t + 10
        write_fn = lambda t, n: t
        fabric.bmt_read_walk(0, cache, geom, 0, read_fn, write_fn)
        reads = []
        read2 = lambda t, n: reads.append(n) or t + 10
        # Leaf 1 shares every ancestor with leaf 0: fully cached.
        fabric.bmt_read_walk(0, cache, geom, 1, read2, write_fn)
        assert reads == []

    def test_tiny_tree_update_free(self):
        fabric = make_fabric()
        geom = BMTGeometry(num_leaves=4)  # depth 1: parent is on-chip root
        reads = []
        fabric.bmt_update_walk(
            0, fabric.device_meta[0].bmt, geom, 0,
            lambda t, n: reads.append(n) or t, lambda t, n: t,
        )
        assert reads == []

    def test_update_dirties_parent(self):
        fabric = make_fabric()
        geom = BMTGeometry(num_leaves=4096)
        cache = fabric.device_meta[0].bmt
        fabric.bmt_update_walk(0, cache, geom, 0, lambda t, n: t, lambda t, n: t)
        node = geom.node_ordinal(1, 0)
        line = cache._set_for(node // 2)[node // 2]
        assert line.dirty_mask


class TestBookingHelpers:
    def test_device_read_routes_to_channel(self):
        fabric = make_fabric()
        fabric.device_read(0, 3, 32, TrafficCategory.DATA)
        assert fabric.channels[3].busy_cycles > 0
        assert fabric.channels[2].busy_cycles == 0

    def test_link_direction_split(self):
        fabric = make_fabric()
        fabric.link_read(0, 64, TrafficCategory.MAC)
        fabric.link_write(0, 64, TrafficCategory.MAC)
        assert fabric.link.to_device.busy_cycles > 0
        assert fabric.link.to_cxl.busy_cycles > 0

    def test_flush_metadata_caches(self):
        fabric = make_fabric()
        categories = {"counter": TrafficCategory.COUNTER}
        read_fn = lambda t, n: t
        write_fn = lambda t, n: t
        fabric.metadata_access(
            0, fabric.device_meta[0].counter, 0, read_fn, write_fn,
            TrafficCategory.COUNTER, write=True,
        )
        before = fabric.stats.bytes_for(Side.DEVICE, TrafficCategory.COUNTER)
        fabric.flush_metadata_caches(100, categories, categories)
        after = fabric.stats.bytes_for(Side.DEVICE, TrafficCategory.COUNTER)
        assert after == before + 32
