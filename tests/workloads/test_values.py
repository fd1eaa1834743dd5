"""Tests for value models and the reuse study."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.common.rng import RngStream
from repro.workloads.benchmarks import PAPER_ROSTER, build_trace
from repro.workloads.trace import TraceAccess
from repro.workloads.values import (
    ValueModel,
    ValueModelConfig,
    study_trace_values,
)
from tests.workloads.reference_study import (
    ValueReuseStudy,
    reference_study_trace_values,
)


def make_model(**kwargs):
    return ValueModel(ValueModelConfig(**kwargs), RngStream(11))


class TestValueModel:
    def test_image_shape(self):
        images = make_model().sector_images(10)
        assert len(images) == 10
        assert all(len(image) == 32 for image in images)

    def test_determinism(self):
        a = ValueModel(ValueModelConfig(), RngStream(3)).sector_images(20)
        b = ValueModel(ValueModelConfig(), RngStream(3)).sector_images(20)
        assert a == b

    def test_zero_reuse_gives_mostly_unique_values(self):
        model = make_model(sector_reuse=0.0, value_reuse=0.0)
        images = model.sector_images(100)
        values = {v for img in images for v in
                  [img[i:i+4] for i in range(0, 32, 4)]}
        assert len(values) > 700  # out of 800 draws

    def test_high_reuse_concentrates_values(self):
        model = make_model(sector_reuse=1.0, pool_size=32)
        images = model.sector_images(100)
        values = {v for img in images for v in
                  [img[i:i+4] for i in range(0, 32, 4)]}
        # Pool of 32 values, perturbed in the low nibble only.
        assert len(values) < 32 * 16

    def test_group_sizes_must_sum(self):
        with pytest.raises(ConfigurationError):
            make_model().sector_images(5, group_sizes=[2, 2])

    def test_grouped_reuse_is_correlated(self):
        """Sectors of one access share the reuse decision: whole
        accesses are either pooled or unique."""
        model = make_model(sector_reuse=0.5, value_reuse=0.0,
                           near_perturb=0.0, pool_size=16)
        images = model.sector_images(400, group_sizes=[4] * 100)
        pool = set()
        # Learn the pool from a big sample of pooled sectors.
        for img in images:
            for i in range(0, 32, 4):
                pool.add(img[i:i+4])
        groups_mixed = 0
        for g in range(100):
            sector_pooled = []
            for s in range(4):
                img = images[4 * g + s]
                vals = [img[i:i+4] for i in range(0, 32, 4)]
                # A pooled sector repeats pool values heavily; a unique
                # sector has 8 distinct fresh values.
                sector_pooled.append(len(set(vals)) < 8)
            if len(set(sector_pooled)) > 1:
                groups_mixed += 1
        # Correlation: most groups are uniformly pooled or uniformly not.
        assert groups_mixed < 30

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            ValueModelConfig(sector_reuse=1.5)
        with pytest.raises(ConfigurationError):
            ValueModelConfig(pool_size=2)


class TestReuseStudy:
    def test_scenario_ordering(self):
        """Paper Fig. 9: masked >= halves >= full, always."""
        model = make_model(sector_reuse=0.5, near_perturb=0.5)
        study = ValueReuseStudy()
        for image in model.sector_images(2000):
            study.observe_sector(image)
        report = study.report()
        assert report["masked"] >= report["halves"] >= report["full"]

    def test_zero_locality_shows_no_reuse(self):
        model = make_model(sector_reuse=0.0, value_reuse=0.0)
        study = ValueReuseStudy()
        for image in model.sector_images(500):
            study.observe_sector(image)
        assert study.reuse_fraction("masked") < 0.05

    def test_total_locality_shows_high_reuse(self):
        model = make_model(sector_reuse=1.0, value_reuse=1.0,
                           near_perturb=0.0, pool_size=32)
        study = ValueReuseStudy()
        for image in model.sector_images(500):
            study.observe_sector(image)
        assert study.reuse_fraction("halves") > 0.8

    def test_writes_insert_but_do_not_count(self):
        study = ValueReuseStudy()
        image = b"\x01\x02\x03\x04" * 8
        study.observe_sector(image, is_read=False)
        assert study.sectors_seen == 0
        study.observe_sector(image, is_read=True)
        assert study.sectors_seen == 1
        assert study.reuse_fraction("halves") == 1.0

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            ValueReuseStudy().reuse_fraction("quarters")

    def test_study_over_trace(self, bfs_trace):
        report = study_trace_values(bfs_trace)
        assert set(report) == {"full", "halves", "masked"}
        assert 0.0 < report["masked"] < 1.0


def _word(bases):
    """A 32-bit value from a small alphabet: a base with its low nibble
    either cleared or free, so exact and masked hits both happen."""
    nibble = st.one_of(st.just(0), st.integers(0, 15))
    return st.builds(lambda base, low: (base & 0xFFFFFFF0) | low,
                     st.sampled_from(bases), nibble)


@st.composite
def access_streams(draw):
    """Random accesses: read/write mixes, accesses without values, and
    sectors with repeated words, over a small value alphabet."""
    bases = draw(st.lists(st.integers(0, 0xFFFFFFFF), min_size=1,
                          max_size=12, unique=True))
    word = _word(bases)
    sector = st.one_of(
        st.lists(word, min_size=8, max_size=8),
        word.map(lambda w: [w] * 8),
    ).map(lambda words: b"".join(w.to_bytes(4, "little") for w in words))
    accesses = draw(st.lists(
        st.tuples(st.booleans(),
                  st.one_of(st.none(), st.lists(sector, min_size=1,
                                                max_size=4))),
        max_size=60,
    ))
    return [
        TraceAccess(128 * i, (1 << len(images or (0,))) - 1, write,
                    None if images is None else list(enumerate(images)))
        for i, (write, images) in enumerate(accesses)
    ]


class TestStudyMatchesReference:
    """The two-LRU pass reports exactly what the per-value study does."""

    @settings(max_examples=300, deadline=None)
    @given(trace=access_streams(),
           entries=st.one_of(st.integers(1, 64), st.just(512)))
    def test_random_streams(self, trace, entries):
        assert study_trace_values(trace, entries) == \
            reference_study_trace_values(trace, entries)

    def test_paper_roster(self):
        for bench in PAPER_ROSTER:
            trace = build_trace(bench, length=300)
            assert study_trace_values(trace) == \
                reference_study_trace_values(trace), bench

    def test_empty_cache_rejected(self):
        with pytest.raises(ConfigurationError):
            study_trace_values([], cache_entries=0)
