"""The raw-path BMT traversal against the object-path reference walk.

:class:`~repro.metadata.bmt.BmtTraversal` runs on the cache's raw path
with precomputed walk tables. The batch replay and the scalar oracle
both use it, so the differential suite cannot see a slip in it; this
property drives it and :class:`tests.metadata.reference_bmt.ReferenceBmtTraversal`
through the same random sequences of verify, update, coalesced
``update_leaves`` and flush calls and compares everything the walks
leave behind. The example count comes from the active Hypothesis
profile (CI runs it deeper).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.gpu.config import VOLTA
from repro.mem.cache import CacheConfig, SectoredCache
from repro.mem.traffic import Stream, TrafficCounter
from repro.metadata.bmt import BmtGeometry, BmtTraversal
from repro.metadata.layout import GranularityDesign, MetadataLayout
from tests.metadata.reference_bmt import ReferenceBmtTraversal


def _design_geometries():
    """The three granularity designs' trees, for the original counters
    and for a compact mirror layer (64 sectors per counter sector)."""
    out = []
    for design in GranularityDesign:
        for per_counter_sector in (32, 64):
            layout = MetadataLayout(
                data_sectors=VOLTA.sectors_per_partition,
                design=design,
                sectors_per_counter_sector=per_counter_sector,
            )
            out.append(layout.bmt_geometry())
    return out


def _small_trees(node_sizes):
    """Small trees: shallow and deep, with partial last nodes and a
    single leaf (root only)."""
    return st.builds(
        BmtGeometry,
        num_leaves=st.integers(min_value=1, max_value=300),
        arity=st.sampled_from([2, 4]),
        node_bytes=st.sampled_from(node_sizes),
    )


_DESIGNS = st.sampled_from(_design_geometries())
#: (size_bytes, ways, sectored): tiny caches force dirty evictions and
#: the recursive parent updates they trigger.
caches = st.sampled_from([
    (512, 2, True), (512, 4, True), (1024, 2, False), (2048, 4, True),
    (1536, 4, True), (2048, 4, False),
])


@st.composite
def scenarios(draw):
    cache_shape = draw(caches)
    if cache_shape[2]:
        geometry = draw(st.one_of(_DESIGNS, _small_trees([32, 64, 128])))
    else:
        # A whole-line cache dirties every node of a line at once, so a
        # small tree whose levels share lines would re-dirty a line
        # through its own parent on every flush round; the designs'
        # levels never share a line below the root.
        geometry = draw(st.one_of(_DESIGNS, _small_trees([128])))
    leaves = st.integers(min_value=0, max_value=geometry.num_leaves - 1)
    # Runs of neighbouring leaves share parents, which is what the
    # coalesced update_leaves path compresses.
    neighbours = st.builds(
        lambda start, width: [
            leaf for leaf in range(start, start + width)
            if leaf < geometry.num_leaves
        ],
        leaves,
        st.integers(min_value=1, max_value=12),
    )
    op = st.one_of(
        st.tuples(st.just("verify"), leaves),
        st.tuples(st.just("update"), leaves),
        st.tuples(st.just("update_leaves"),
                  st.one_of(neighbours, st.lists(leaves, max_size=8))),
        st.tuples(st.just("flush"), st.none()),
    )
    return (
        geometry,
        cache_shape,
        draw(st.booleans()),
        draw(st.lists(op, min_size=1, max_size=60)),
    )


def _pair(geometry, cache_shape, lazy):
    size, ways, sectored = cache_shape
    walks = []
    for cls in (BmtTraversal, ReferenceBmtTraversal):
        cache = SectoredCache(CacheConfig(
            name="bmt", size_bytes=size, ways=ways, sectored=sectored,
        ))
        traffic = TrafficCounter()
        walks.append(cls(
            geometry, cache, traffic,
            read_stream=Stream.COMPACT_BMT_READ,
            write_stream=Stream.COMPACT_BMT_WRITE,
            lazy_update=lazy,
        ))
    return walks


@settings(deadline=None)
@given(scenario=scenarios())
def test_raw_walks_match_reference(scenario):
    geometry, cache_shape, lazy, operations = scenario
    walk, ref = _pair(geometry, cache_shape, lazy)
    for name, arg in operations:
        if name == "verify":
            assert walk.verify_leaf(arg) == ref.verify_leaf(arg)
        elif name == "update":
            walk.update_leaf(arg)
            ref.update_leaf(arg)
        elif name == "update_leaves":
            walk.update_leaves(arg)
            ref.update_leaves(arg)
        else:
            walk.flush()
            ref.flush()
        assert walk.cache.state_summary() == ref.cache.state_summary()
        assert walk.traffic.state() == ref.traffic.state()
        assert walk.root_verifications == ref.root_verifications
    walk.flush()
    ref.flush()
    assert walk.cache.state_summary() == ref.cache.state_summary()
    assert walk.traffic.state() == ref.traffic.state()


def test_out_of_range_leaf_raises_before_any_access():
    geometry = BmtGeometry(64, arity=4, node_bytes=32)
    walk, ref = _pair(geometry, (2048, 4, True), lazy=True)
    for leaf in (-1, 64):
        for traversal in (walk, ref):
            with pytest.raises(ValueError):
                traversal.verify_leaf(leaf)
            with pytest.raises(ValueError):
                traversal.update_leaf(leaf)
    assert walk.cache.state_summary() == ref.cache.state_summary()
    assert walk.cache.stats.accesses == 0


class TestNodeShape:
    """A node must be whole sectors and divide the cache line: the walk
    charges each fetch by sectors, and a node never straddles lines."""

    @pytest.mark.parametrize("node_bytes", [48, 96, 256])
    def test_rejects_nodes_that_are_not_whole_sectors_of_a_line(
        self, node_bytes
    ):
        geometry = BmtGeometry(256, arity=4, node_bytes=node_bytes)
        cache = SectoredCache(CacheConfig(name="bmt", size_bytes=2048))
        with pytest.raises(ConfigurationError):
            BmtTraversal(geometry, cache, TrafficCounter())

    @pytest.mark.parametrize("node_bytes", [32, 64, 128])
    def test_node_fetch_is_charged_whole(self, node_bytes):
        geometry = BmtGeometry(4**6, arity=4, node_bytes=node_bytes)
        cache = SectoredCache(CacheConfig(name="bmt", size_bytes=2048))
        traffic = TrafficCounter()
        walk = BmtTraversal(geometry, cache, traffic)
        fetched = walk.verify_leaf(0)
        assert fetched == geometry.root_level - 1
        assert traffic.bytes_for(Stream.BMT_READ) == fetched * node_bytes
