"""Cost model: cache simulation, cycle costs, OpenMP roofline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.cost_model import (
    ALLOCATOR_CONTENTION_CYCLES,
    CacheLevel,
    CacheModel,
    CostAccounting,
    CostReport,
    CycleCosts,
    ROCKET_CYCLE_COSTS,
)


class TestCacheModel:
    def test_cold_miss_then_hit(self):
        cache = CacheModel()
        cache.access("r", 0x1000, 8)
        assert cache.misses_to_dram == 1
        cache.access("r", 0x1000, 8)
        assert cache.misses_to_dram == 1
        assert cache.hits[0] == 1

    def test_same_line_shares(self):
        cache = CacheModel()
        cache.access("r", 0x1000, 8)
        cache.access("r", 0x1008, 8)  # same 64B line
        assert cache.misses_to_dram == 1

    def test_straddling_access_touches_two_lines(self):
        cache = CacheModel()
        cache.access("r", 0x103C, 16)  # crosses a line boundary
        assert cache.misses_to_dram == 2

    def test_lru_eviction(self):
        tiny = CacheModel(levels=(CacheLevel("L1", 128, 64, 4),))
        tiny.access("r", 0, 8)       # line 0
        tiny.access("r", 64, 8)      # line 1 (cache full)
        tiny.access("r", 128, 8)     # evicts line 0
        tiny.access("r", 0, 8)       # must miss again
        assert tiny.misses_to_dram == 4

    def test_l2_catches_l1_eviction(self):
        cache = CacheModel(levels=(
            CacheLevel("L1", 128, 64, 4),
            CacheLevel("L2", 4096, 64, 12),
        ))
        for line in range(4):
            cache.access("r", line * 64, 8)
        cache.access("r", 0, 8)  # gone from L1 (2 lines) but in L2
        assert cache.hits[1] >= 1

    def test_dram_bytes_accumulate(self):
        cache = CacheModel()
        for i in range(10):
            cache.access("r", i * 4096, 8)
        assert cache.dram_bytes == 10 * 64

    def test_level_smaller_than_a_line_rejected(self):
        with pytest.raises(ValueError, match="at least one line"):
            CacheModel(levels=(CacheLevel("L1", 32, 64, 4),))


class _ReferenceLRU:
    """Per-access inclusive LRU, written independently of CacheModel:
    each level is a list of line addresses, least recent first."""

    def __init__(self, levels, dram_cycles):
        self.levels = levels
        self.dram_cycles = dram_cycles
        self.line = levels[0].line_bytes
        self.sets = [[] for _ in levels]
        self.limits = [lv.capacity_bytes // lv.line_bytes for lv in levels]
        self.hits = [0] * len(levels)
        self.misses = 0
        self.cycles = 0

    def access(self, addr, nbytes):
        first = addr // self.line
        last = max(first, (addr + nbytes - 1) // self.line)
        for line in range(first, last + 1):
            found = next((i for i, lines in enumerate(self.sets)
                          if line in lines), len(self.levels))
            if found < len(self.levels):
                self.sets[found].remove(line)
                self.sets[found].append(line)
                self.hits[found] += 1
                self.cycles += self.levels[found].hit_cycles
            else:
                self.misses += 1
                self.cycles += self.dram_cycles
            for upper in range(found):
                self.sets[upper].append(line)
                if len(self.sets[upper]) > self.limits[upper]:
                    self.sets[upper].pop(0)


@st.composite
def _geometries(draw):
    """1-3 levels of 1-6 lines each, small enough to force evictions."""
    line = draw(st.sampled_from((8, 16, 64)))
    depth = draw(st.integers(1, 3))
    return tuple(
        CacheLevel(f"L{i + 1}", line * draw(st.integers(1, 6)), line,
                   draw(st.integers(1, 50)))
        for i in range(depth))


#: Addresses from a few lines' worth of memory, so lines are reused.
_accesses = st.lists(
    st.tuples(st.integers(0, 400), st.integers(0, 100)),
    max_size=120)


class TestTraceReplay:
    """Buffered replay must match per-access simulation exactly, at
    every sync point: the trace changes when the model runs, never what
    it computes."""

    @settings(max_examples=300, deadline=None)
    @given(levels=_geometries(), accesses=_accesses,
           dram_cycles=st.integers(60, 300),
           trace_limit=st.integers(1, 40),
           sync_at=st.sets(st.integers(0, 119)))
    def test_matches_per_access_reference(self, levels, accesses,
                                          dram_cycles, trace_limit,
                                          sync_at):
        acct = CostAccounting()
        acct.cache = CacheModel(levels=levels, dram_cycles=dram_cycles)
        acct.trace_limit = trace_limit
        reference = _ReferenceLRU(levels, dram_cycles)
        for i, (addr, nbytes) in enumerate(accesses):
            acct.memory_access("r", addr, nbytes)
            reference.access(addr, nbytes)
            if i in sync_at:
                acct.sync()
                assert acct.report.cycles == reference.cycles
                assert acct.cache.hits == reference.hits
        report = acct.finalize()
        assert report.cycles == reference.cycles
        assert list(report.cache_hits) == reference.hits
        assert report.llc_misses == reference.misses
        assert report.dram_bytes == reference.misses * levels[0].line_bytes
        assert not acct.trace

    @settings(max_examples=50, deadline=None)
    @given(levels=_geometries(), accesses=_accesses)
    def test_access_is_one_pair_replay(self, levels, accesses):
        one = CacheModel(levels=levels)
        batch = CacheModel(levels=levels)
        cycles = sum(one.access("r", addr, nbytes)
                     for addr, nbytes in accesses)
        assert batch.replay(accesses) == cycles
        assert (batch.hits, batch.misses_to_dram, batch.dram_bytes) == \
            (one.hits, one.misses_to_dram, one.dram_bytes)

    def test_straddling_access_moves_the_mru_line(self):
        cache = CacheModel(levels=(CacheLevel("L1", 128, 64, 4),))
        cache.replay([(0, 8),      # line 0
                      (120, 16),   # lines 1 and 2: evicts line 0
                      (0, 8)])     # line 0 again: a miss, not an MRU hit
        assert cache.misses_to_dram == 4
        assert cache.hits == [0]

    def test_memory_appends_to_the_accounting_trace(self):
        from repro.runtime.memory import Memory

        acct = CostAccounting()
        memory = Memory(acct)
        addr = memory.alloc_stack(16)
        memory.store(addr, 1.5, 8)
        memory.load(addr, 8)
        assert acct.trace == [(addr, 8), (addr, 8)]
        assert acct.report.cycles == 0
        acct.sync()
        assert acct.trace == []
        assert acct.report.cycles == 200 + 4  # DRAM miss, then L1 hit

    def test_trace_limit_bounds_the_buffer(self):
        from repro.runtime.memory import Memory

        acct = CostAccounting()
        acct.trace_limit = 8
        memory = Memory(acct)
        addr = memory.alloc_heap(1024)
        for i in range(100):
            memory.store(addr + 8 * i, i, 8)
            assert len(acct.trace) < 8

    def test_parallel_region_sees_buffered_accesses(self):
        acct = CostAccounting()
        acct.memory_access("w", 0x1000, 8)       # serial: one miss
        acct.parallel_begin()
        acct.memory_access("r", 0x2000, 8)       # parallel: one miss
        acct.memory_access("r", 0x2000, 8)       # parallel: L1 hit
        acct.parallel_end()
        report = acct.finalize()
        assert report.parallel_cycles == 200 + 4
        assert report.parallel_dram_bytes == 64
        assert report.serial_cycles == 200 + acct.costs.omp_fork_join


class TestCycleCosts:
    def test_mpfr_cost_scales_with_precision(self):
        costs = CycleCosts()
        assert costs.mpfr_op_cost("mpfr_add", 512) > \
            costs.mpfr_op_cost("mpfr_add", 64)
        # Multiplication scales quadratically in words, addition linearly.
        mul_ratio = costs.mpfr_op_cost("mpfr_mul", 512) / \
            costs.mpfr_op_cost("mpfr_mul", 64)
        add_ratio = costs.mpfr_op_cost("mpfr_add", 512) / \
            costs.mpfr_op_cost("mpfr_add", 64)
        assert mul_ratio > add_ratio

    def test_init_includes_allocation(self):
        costs = CycleCosts()
        assert costs.mpfr_op_cost("mpfr_init2", 128) > costs.malloc

    def test_rocket_slower_than_xeon(self):
        for name in ("mpfr_add", "mpfr_mul", "mpfr_init2", "mpfr_set"):
            assert ROCKET_CYCLE_COSTS.mpfr_op_cost(name, 500) > \
                CycleCosts().mpfr_op_cost(name, 500)

    def test_transcendental_most_expensive(self):
        costs = CycleCosts()
        assert costs.mpfr_op_cost("mpfr_exp", 256) > \
            costs.mpfr_op_cost("mpfr_div", 256) > \
            costs.mpfr_op_cost("mpfr_mul", 256) > \
            costs.mpfr_op_cost("mpfr_add", 256)


class TestParallelModel:
    def _report(self, serial, parallel, dram=0, allocs=0):
        report = CostReport()
        report.cycles = serial + parallel
        report.serial_cycles = serial
        report.parallel_cycles = parallel
        report.parallel_dram_bytes = dram
        report.parallel_heap_allocations = allocs
        return report

    def test_compute_bound_scales(self):
        report = self._report(serial=1000, parallel=1_600_000)
        t16 = report.parallel_time(16, fork_join=0)
        assert t16 == pytest.approx(1000 + 100_000)

    def test_bandwidth_floor_binds(self):
        report = self._report(serial=0, parallel=160_000,
                              dram=7_000_000)
        t16 = report.parallel_time(16, fork_join=0)
        assert t16 == pytest.approx(1_000_000)  # dram / 7 bytes-per-cycle

    def test_allocator_contention_binds(self):
        clean = self._report(serial=0, parallel=1_600_000)
        dirty = self._report(serial=0, parallel=1_600_000, allocs=10_000)
        assert dirty.parallel_time(16) > clean.parallel_time(16)
        expected_penalty = 10_000 * ALLOCATOR_CONTENTION_CYCLES * 15 / 16
        assert dirty.parallel_time(16) - clean.parallel_time(16) == \
            pytest.approx(expected_penalty)

    def test_single_thread_is_plain_cycles(self):
        report = self._report(serial=123, parallel=1000)
        assert report.parallel_time(1) == 1123

    def test_kernel_time_excludes_serial(self):
        report = self._report(serial=10_000, parallel=160_000)
        assert report.kernel_time(16, fork_join=0) == pytest.approx(10_000)


class TestAccounting:
    def test_parallel_region_tracking(self):
        acc = CostAccounting()
        acc.charge("setup", 100)
        acc.parallel_begin()
        acc.charge("work", 500)
        acc.report.heap_allocations += 3
        acc.parallel_end()
        acc.charge("teardown", 50)
        report = acc.finalize()
        assert report.parallel_cycles == 500
        assert report.parallel_heap_allocations == 3
        assert report.serial_cycles == report.cycles - 500

    def test_nested_regions_counted_once(self):
        acc = CostAccounting()
        acc.parallel_begin()
        acc.charge("a", 100)
        acc.parallel_begin()
        acc.charge("b", 100)
        acc.parallel_end()
        acc.charge("c", 100)
        acc.parallel_end()
        report = acc.finalize()
        assert report.parallel_cycles == 300

    def test_by_category(self):
        acc = CostAccounting()
        acc.charge("mpfr", 10)
        acc.charge("mpfr", 5)
        acc.charge("int", 1)
        assert acc.report.by_category == {"mpfr": 15, "int": 1}


class TestMemoryModel:
    def test_stack_release_frees_cells(self):
        from repro.runtime.memory import Memory

        memory = Memory()
        mark = memory.stack_mark()
        addr = memory.alloc_stack(64)
        memory.store(addr, 1.25, 8)
        assert memory.load(addr, 8) == 1.25
        memory.stack_release(mark)
        assert memory.load(addr, 8, default=None) is None

    def test_heap_free_validates(self):
        from repro.runtime.memory import Memory, MemoryError_

        memory = Memory()
        addr = memory.alloc_heap(32)
        memory.free_heap(addr)
        with pytest.raises(MemoryError_):
            memory.free_heap(0x12345)

    def test_free_null_is_noop(self):
        from repro.runtime.memory import Memory

        Memory().free_heap(0)

    def test_null_access_traps(self):
        from repro.runtime.memory import Memory, MemoryError_

        memory = Memory()
        with pytest.raises(MemoryError_):
            memory.load(0, 8)
        with pytest.raises(MemoryError_):
            memory.store(0, 1, 8)

    def test_byte_io_round_trip(self):
        from repro.runtime.memory import Memory

        memory = Memory()
        addr = memory.alloc_heap(16)
        memory.store_bytes(addr, b"\x01\x02\x03")
        assert memory.load_bytes(addr, 3) == b"\x01\x02\x03"
