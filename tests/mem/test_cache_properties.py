"""Property-based tests for the sectored cache (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import CacheConfig, SectoredCache

lines = st.integers(min_value=0, max_value=63).map(lambda i: i * 128)
masks = st.integers(min_value=1, max_value=15)
ops = st.lists(
    st.tuples(lines, masks, st.booleans()), min_size=1, max_size=200
)


def run_ops(cache, operations):
    for line, mask, write in operations:
        cache.access(line, mask, write=write)


@settings(max_examples=50, deadline=None)
@given(operations=ops)
def test_capacity_never_exceeded(operations):
    cache = SectoredCache(CacheConfig(name="p", size_bytes=1024, ways=2))
    run_ops(cache, operations)
    assert len(cache.resident_lines()) <= cache.config.num_lines


@settings(max_examples=50, deadline=None)
@given(operations=ops)
def test_immediate_reaccess_always_hits(operations):
    cache = SectoredCache(CacheConfig(name="p", size_bytes=1024, ways=2))
    for line, mask, write in operations:
        cache.access(line, mask, write=write)
        again = cache.access(line, mask, write=False)
        assert again.is_full_hit


@settings(max_examples=50, deadline=None)
@given(operations=ops)
def test_hit_plus_miss_equals_request(operations):
    cache = SectoredCache(CacheConfig(name="p", size_bytes=1024, ways=2))
    for line, mask, write in operations:
        result = cache.access(line, mask, write=write)
        assert result.hit_mask | result.miss_mask == mask
        assert result.hit_mask & result.miss_mask == 0


@settings(max_examples=50, deadline=None)
@given(operations=ops)
def test_dirty_sectors_are_conserved(operations):
    """Every sector dirtied is eventually either re-dirtied in place or
    written back exactly once: flush + evictions account for all."""
    cache = SectoredCache(CacheConfig(name="p", size_bytes=512, ways=2))
    dirtied = set()
    written_back = set()
    for line, mask, write in operations:
        result = cache.access(line, mask, write=write)
        for ev in result.evictions:
            for s in range(4):
                if (ev.dirty_mask >> s) & 1:
                    written_back.add((ev.line_addr, s))
        if write:
            for s in range(4):
                if (mask >> s) & 1:
                    dirtied.add((line, s))
    for ev in cache.flush():
        for s in range(4):
            if (ev.dirty_mask >> s) & 1:
                written_back.add((ev.line_addr, s))
    assert dirtied == written_back


@settings(max_examples=50, deadline=None)
@given(operations=ops)
def test_stats_balance(operations):
    cache = SectoredCache(CacheConfig(name="p", size_bytes=1024, ways=2))
    total_sectors = 0
    for line, mask, write in operations:
        total_sectors += bin(mask).count("1")
        cache.access(line, mask, write=write)
    assert cache.stats.sector_hits + cache.stats.sector_misses == total_sectors
    assert cache.stats.accesses == len(operations)


# -- the raw run path against repeated object-path accesses -------------------
#
# The batch replay and the BMT walks drive caches through
# access_run_raw; the scalar oracle drives them through access(). Both
# share the cache, so only a direct comparison can catch a raw-path
# slip. These properties take their example count from the active
# Hypothesis profile (CI runs them deeper).

shapes = st.sampled_from([
    # (size_bytes, line_bytes, ways, sectored): power-of-two and
    # non-power-of-two set counts, a fully associative cache, and
    # whole-line caches.
    (2048, 128, 4, True),
    (1536, 128, 4, True),
    (512, 128, 4, True),
    (1024, 128, 2, False),
    (3072, 256, 2, True),
])
raw_runs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=95),
        st.integers(min_value=0, max_value=255),
        st.booleans(),
        st.integers(min_value=1, max_value=4),
    ),
    min_size=1,
    max_size=150,
)


@settings(deadline=None)
@given(shape=shapes, operations=raw_runs)
def test_raw_runs_match_repeated_access(shape, operations):
    size, line_bytes, ways, sectored = shape
    config = CacheConfig(name="p", size_bytes=size, line_bytes=line_bytes,
                         ways=ways, sectored=sectored)
    ref = SectoredCache(config)
    raw = SectoredCache(config)
    full = config.full_mask
    for index, mask, write, count in operations:
        line = index * line_bytes
        mask &= full
        if not mask:
            mask = 1
        first = ref.access(line, mask, write=write)
        for _ in range(count - 1):
            again = ref.access(line, mask, write=write)
            assert again.is_full_hit and not again.evictions
        miss_mask, misses, evictions = raw.access_run_raw(
            line, mask, write, count
        )
        assert miss_mask == first.miss_mask
        assert misses == first.miss_sector_count
        assert [(e.line_addr, e.dirty_mask) for e in evictions] == [
            (e.line_addr, e.dirty_mask) for e in first.evictions
        ]
        assert raw.probe(line, mask) == ref.probe(line, mask)
    assert raw.state_summary() == ref.state_summary()
    assert [(e.line_addr, e.dirty_mask) for e in raw.flush()] == [
        (e.line_addr, e.dirty_mask) for e in ref.flush()
    ]
