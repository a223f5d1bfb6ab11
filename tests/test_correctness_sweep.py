"""Regression tests for the sim-kernel correctness sweep.

One test class per fixed bug:

* ``EventQueue.cancel`` used to leave a stale ``(time, seq)`` entry behind
  when cancelling an already-fired event, making ``__len__`` undercount
  (even go negative); ``PeriodicSampler.stop`` used to leave its pending
  self-reschedule in the queue forever.
* ``SectoredCache`` used the builtin ``hash()`` for set indexing, which is
  ``PYTHONHASHSEED``-salted for str/bytes keys - silently nondeterministic
  across processes.
* ``ConventionalSplitCounterStore.set_major`` accepted a *smaller* major,
  which would reuse one-time pads.
* ``MemoryFabric.metadata_access`` was annotated ``-> int`` but returns a
  ``(ready, sector_hit)`` pair.

Plus a property test that ``flush_dirty``/``invalidate_line`` keep the
hit/miss accounting and dirty-mask state consistent under random access
sequences.
"""

import subprocess
import sys
import typing

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CounterOverflowError
from repro.memsys.sectored_cache import SectoredCache, stable_line_key
from repro.metadata.counters import ConventionalSplitCounterStore
from repro.sim.events import EventQueue, PeriodicSampler


class TestEventQueueCancel:
    def test_cancel_pending_event_skips_it(self):
        q = EventQueue()
        fired = []
        event = q.schedule(10, lambda: fired.append("x"))
        q.cancel(event)
        q.run()
        assert fired == []
        assert len(q) == 0

    def test_cancel_after_fire_is_noop(self):
        q = EventQueue()
        event = q.schedule(5, lambda: None)
        q.run()
        assert len(q) == 0
        q.cancel(event)  # already fired: must not poison the count
        assert len(q) == 0
        q.schedule(5, lambda: None)
        assert len(q) == 1  # regression: used to report 0 here

    def test_len_never_negative_under_repeated_cancel(self):
        q = EventQueue()
        event = q.schedule(1, lambda: None)
        q.run()
        for _ in range(3):
            q.cancel(event)
        assert len(q) == 0

    def test_double_cancel_same_pending_event(self):
        q = EventQueue()
        event = q.schedule(7, lambda: None)
        q.cancel(event)
        q.cancel(event)
        assert len(q) == 0
        assert q.run() == 0

    def test_cancel_of_skipped_event_is_noop(self):
        q = EventQueue()
        event = q.schedule(3, lambda: None)
        q.cancel(event)
        q.run()  # skips (and forgets) the cancelled event
        q.cancel(event)
        q.schedule(1, lambda: None)
        assert len(q) == 1

    def test_sampler_stop_leaves_queue_empty(self):
        q = EventQueue()
        ticks = []
        sampler = PeriodicSampler(q, epoch=10, callback=ticks.append)
        q.run(until=35)
        assert sampler.samples == 3
        sampler.stop()
        assert len(q) == 0  # regression: the pending reschedule lingered
        assert q.run() == 0
        assert ticks == [10, 20, 30]

    def test_sampler_stop_is_idempotent(self):
        q = EventQueue()
        sampler = PeriodicSampler(q, epoch=5, callback=lambda now: None)
        sampler.stop()
        sampler.stop()
        assert len(q) == 0


class TestStableLineKey:
    def test_int_keys_map_to_themselves(self):
        assert stable_line_key(0) == 0
        assert stable_line_key(12345) == 12345

    def test_str_key_is_seed_independent(self):
        # The same value a fresh interpreter with a different hash seed
        # computes: the builtin hash() would disagree between the two.
        snippet = (
            "import sys; sys.path.insert(0, 'src'); "
            "from repro.memsys.sectored_cache import stable_line_key; "
            "print(stable_line_key('line:42'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True, text=True, check=True,
            env={"PYTHONHASHSEED": "12345", "PATH": "/usr/bin:/bin"},
            cwd=str(__import__("pathlib").Path(__file__).resolve().parent.parent),
        )
        assert int(out.stdout.strip()) == stable_line_key("line:42")

    def test_tuple_of_ints_matches_builtin_hash(self):
        # (page, block) keys keep their historical set mapping.
        assert stable_line_key((3, 17)) == hash((3, 17))

    def test_tuple_with_str_element_is_deterministic(self):
        import zlib
        expected = hash((zlib.crc32(b"ctr"), 9))
        assert stable_line_key(("ctr", 9)) == expected

    def test_str_key_round_trips_through_cache(self):
        cache = SectoredCache("t", 1024, 2, 128, 32)
        assert not cache.access("page:0", 1).sector_hit
        assert cache.access("page:0", 1).sector_hit

    @staticmethod
    def _fold(key):
        """The recursive tuple fold, spelled out as the reference."""
        if type(key) is tuple:
            return hash(tuple(TestStableLineKey._fold(e) for e in key))
        return stable_line_key(key)

    @given(st.lists(st.integers(-(2 ** 70), 2 ** 70), max_size=6).map(tuple))
    @settings(max_examples=200, deadline=None)
    def test_int_tuple_fast_path_equals_fold(self, key):
        assert stable_line_key(key) == self._fold(key) == hash(key)

    @given(
        st.lists(
            st.one_of(st.integers(0, 2 ** 40), st.text(max_size=8),
                      st.binary(max_size=8), st.booleans()),
            min_size=1, max_size=5,
        )
        .filter(lambda elems: any(type(e) is not int for e in elems))
        .map(tuple)
    )
    @settings(max_examples=200, deadline=None)
    def test_mixed_tuples_take_the_fold(self, key):
        # str/bytes elements fold through CRC-32, so taking the tuple's
        # own (salted) hash instead would disagree here.
        assert stable_line_key(key) == self._fold(key)


class TestSetMajorMonotonic:
    def test_backwards_install_raises(self):
        store = ConventionalSplitCounterStore()
        store.set_major(0, 5)
        with pytest.raises(CounterOverflowError):
            store.set_major(0, 4)

    def test_backwards_install_leaves_state_unchanged(self):
        store = ConventionalSplitCounterStore()
        store.set_major(0, 5)
        store.increment(0)
        with pytest.raises(CounterOverflowError):
            store.set_major(0, 2)
        pair = store.read(0)
        assert pair.major == 5
        assert pair.minor == 1

    def test_equal_install_is_noop(self):
        store = ConventionalSplitCounterStore()
        store.set_major(0, 5)
        store.increment(0)
        assert store.set_major(0, 5) == ()
        assert store.read(0).minor == 1  # minors survive the no-op

    def test_forward_install_resets_minors(self):
        store = ConventionalSplitCounterStore()
        store.increment(0)
        siblings = store.set_major(0, 9)
        assert len(siblings) == store.minors_per_major
        assert store.read(0) == type(store.read(0))(major=9, minor=0)


class TestMetadataAccessAnnotation:
    def test_returns_ready_hit_pair(self):
        from repro.config import SystemConfig
        from repro.security.fabric import MemoryFabric
        from repro.sim.stats import StatRegistry, TrafficCategory

        fabric = MemoryFabric(SystemConfig.bench(), footprint_pages=4,
                              stats=StatRegistry())
        read_fn = lambda t, n: t + 10
        write_fn = lambda t, n: t
        result = fabric.metadata_access(
            0, fabric.device_meta[0].counter, 0, read_fn, write_fn,
            TrafficCategory.COUNTER,
        )
        assert isinstance(result, tuple) and len(result) == 2
        ready, hit = result
        assert isinstance(ready, int)
        assert isinstance(hit, bool)
        assert (ready, hit) == (10, False)
        ready, hit = fabric.metadata_access(
            20, fabric.device_meta[0].counter, 0, read_fn, write_fn,
            TrafficCategory.COUNTER,
        )
        assert (ready, hit) == (20, True)

    def test_annotation_is_a_pair(self):
        from repro.security.fabric import MemoryFabric

        hints = typing.get_type_hints(MemoryFabric.metadata_access)
        assert typing.get_origin(hints["return"]) is tuple


# --------------------------------------------------------------------------
# Property test: accounting/dirty-state consistency under random sequences.
# --------------------------------------------------------------------------

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("access"), st.integers(0, 15), st.integers(0, 3),
                  st.booleans()),
        st.tuples(st.just("flush"), st.just(0), st.just(0), st.just(False)),
        st.tuples(st.just("invalidate"), st.integers(0, 15), st.just(0),
                  st.just(False)),
    ),
    min_size=1, max_size=200,
)


@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
def test_cache_accounting_consistent_under_random_sequences(ops):
    cache = SectoredCache("prop", 1024, 2, 128, 32)
    written = {}          # line_addr -> set of sectors ever written (since last clear)
    accesses = 0
    for op, line, sector, write in ops:
        if op == "access":
            result = cache.access(line, sector, write=write)
            accesses += 1
            if write:
                written.setdefault(line, set()).add(sector)
            if result.evicted is not None:
                dirty = set(result.evicted.dirty_sectors)
                # Every reported dirty sector was actually written.
                assert dirty <= written.get(result.evicted.line_addr, set())
                written.pop(result.evicted.line_addr, None)
        elif op == "flush":
            for drained in cache.flush_dirty():
                dirty = set(drained.dirty_sectors)
                assert dirty
                assert dirty <= written.get(drained.line_addr, set())
                written.pop(drained.line_addr, None)
            # Flush is complete: an immediate second flush drains nothing.
            assert cache.flush_dirty() == []
        else:  # invalidate
            evicted = cache.invalidate_line(line)
            if evicted is not None:
                assert set(evicted.dirty_sectors) <= written.get(line, set())
                # The line is gone: no sector of it can probe as present.
                for s in range(cache.sectors_per_line):
                    assert not cache.probe(line, s)
            written.pop(line, None)
        # Hit/miss accounting always matches the number of accesses.
        assert cache.hits + cache.misses == accesses
        assert cache.hits >= 0 and cache.misses >= 0
    # After draining everything, no dirty state remains anywhere.
    cache.flush_dirty()
    assert cache.flush_dirty() == []
