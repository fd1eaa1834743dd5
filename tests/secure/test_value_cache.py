"""Tests for the Plutus value cache."""

import pytest

from repro.common.errors import ConfigurationError
from repro.secure.value_cache import ValueCache, ValueCacheConfig


def fill_unit(value):
    """A 128-bit unit whose four 32-bit values all equal *value*."""
    return [value] * 4


class TestConfig:
    def test_paper_defaults(self):
        config = ValueCacheConfig()
        assert config.entries == 256
        assert config.effective_value_bits == 28
        assert config.hits_required == 3
        assert config.pinned_capacity == 64
        assert config.transient_capacity == 192

    def test_storage_is_about_1kb(self):
        """Paper Section IV-F: 256 entries with frequency counters ~1 kB."""
        config = ValueCacheConfig()
        assert 1024 <= config.storage_bytes <= 1200

    def test_invalid_configs(self):
        with pytest.raises(ConfigurationError):
            ValueCacheConfig(entries=0)
        with pytest.raises(ConfigurationError):
            ValueCacheConfig(pinned_fraction=1.0)
        with pytest.raises(ConfigurationError):
            ValueCacheConfig(hits_required=5, values_per_unit=4)

    def test_unreachable_pin_threshold_rejected(self):
        """The frequency counter saturates at 2**freq_bits - 1, so a
        threshold above it could never pin anything."""
        with pytest.raises(ConfigurationError):
            ValueCacheConfig(pin_threshold=16)
        with pytest.raises(ConfigurationError):
            ValueCacheConfig(freq_bits=2, pin_threshold=4)
        ValueCacheConfig(freq_bits=2, pin_threshold=3)

    def test_highest_pin_threshold_still_pins(self):
        cache = ValueCache(ValueCacheConfig(entries=16, pin_threshold=15))
        cache.observe(0x100)
        for _ in range(14):
            cache.probe(0x100)
        assert cache.pinned_values() == [0x100]


class TestProbeAndObserve:
    def test_miss_then_hit(self):
        cache = ValueCache()
        assert cache.probe(0x12345670) == (False, False)
        cache.observe(0x12345670)
        assert cache.probe(0x12345670)[0]

    def test_masked_matching(self):
        """Near values (differing in the 4 LSBs) match."""
        cache = ValueCache()
        cache.observe(0x12345670)
        hit, _ = cache.probe(0x1234567F)
        assert hit

    def test_upper_bits_must_match(self):
        cache = ValueCache()
        cache.observe(0x12345670)
        assert not cache.probe(0x12345660)[0]

    def test_lru_eviction_of_transient(self):
        config = ValueCacheConfig(entries=8, pinned_fraction=0.0)
        cache = ValueCache(config)
        for v in range(8):
            cache.observe(v << 4)
        cache.observe(8 << 4)  # evicts value 0
        assert not cache.probe(0)[0]
        assert cache.probe(8 << 4)[0]

    def test_observe_is_idempotent_for_resident(self):
        cache = ValueCache(ValueCacheConfig(entries=4, pinned_fraction=0.0))
        cache.observe(0x10)
        cache.observe(0x10)
        assert len(cache) == 1


class TestPinning:
    def test_promotion_after_threshold_hits(self):
        config = ValueCacheConfig(entries=16, pin_threshold=3)
        cache = ValueCache(config)
        cache.observe(0xAA0)
        for _ in range(3):
            cache.probe(0xAA0)
        assert 0xAA0 in cache.pinned_values()
        assert cache.stats.promotions == 1

    def test_pinned_survive_transient_churn(self):
        config = ValueCacheConfig(entries=8, pinned_fraction=0.25,
                                  pin_threshold=2)
        cache = ValueCache(config)
        cache.observe(0xAA0)
        cache.probe(0xAA0)
        cache.probe(0xAA0)
        assert 0xAA0 in cache.pinned_values()
        for v in range(1, 100):  # flood the transient region
            cache.observe(v << 4)
        assert cache.probe(0xAA0) == (True, True)

    def test_pinned_region_capacity_respected(self):
        config = ValueCacheConfig(entries=8, pinned_fraction=0.25,
                                  pin_threshold=1)
        cache = ValueCache(config)  # pinned capacity = 2
        for v in range(5):
            cache.observe(v << 4)
            cache.probe(v << 4)
        assert len(cache.pinned_values()) <= 2


class TestUnitVerification:
    def test_all_hits_pass(self):
        cache = ValueCache()
        cache.observe_many([0x10, 0x20, 0x30, 0x40])
        check = cache.check_unit([0x10, 0x20, 0x30, 0x40])
        assert check.passed and check.hits == 4

    def test_three_of_four_passes(self):
        """Eq. 1 solution: x = 3 suffices."""
        cache = ValueCache()
        cache.observe_many([0x10, 0x20, 0x30])
        assert cache.check_unit([0x10, 0x20, 0x30, 0xDEAD0000]).passed

    def test_two_of_four_fails(self):
        cache = ValueCache()
        cache.observe_many([0x10, 0x20])
        assert not cache.check_unit([0x10, 0x20, 0xBEEF0000, 0xDEAD0000]).passed

    def test_unit_size_enforced(self):
        with pytest.raises(ValueError):
            ValueCache().check_unit([1, 2, 3])


class TestSectorVerification:
    def test_both_halves_must_pass(self):
        """Paper: every 128-bit unit must pass independently."""
        cache = ValueCache()
        cache.observe_many([0x10, 0x20, 0x30, 0x40])
        good_half = [0x10, 0x20, 0x30, 0x40]
        bad_half = [0x50000000, 0x60000000, 0x70000000, 0x80000000]
        assert not cache.verify_sector(good_half + bad_half)
        assert cache.verify_sector(good_half + good_half)

    def test_stats_track_outcomes(self):
        cache = ValueCache()
        cache.observe_many([0x10, 0x20, 0x30, 0x40])
        cache.verify_sector([0x10, 0x20, 0x30, 0x40] * 2)
        cache.verify_sector([0x99990000] * 8)
        assert cache.stats.sectors_verified == 1
        assert cache.stats.sectors_failed == 1
        assert cache.stats.sector_verify_rate == pytest.approx(0.5)

    def test_ragged_sector_rejected(self):
        with pytest.raises(ValueError):
            ValueCache().verify_sector([1, 2, 3, 4, 5])


class TestWriteVerifiability:
    def test_pinned_hits_make_write_verifiable(self):
        config = ValueCacheConfig(entries=16, pin_threshold=1)
        cache = ValueCache(config)
        for v in (0x10, 0x20, 0x30):
            cache.observe(v)
            cache.probe(v)  # promote
        values = [0x10, 0x20, 0x30, 0x40] * 2
        assert cache.write_verifiable(values)

    def test_transient_hits_are_not_enough(self):
        """Transient entries may be evicted before the read-back, so
        they give no guarantee (paper Fig. 11, right side)."""
        cache = ValueCache()  # default pin_threshold high
        cache.observe_many([0x10, 0x20, 0x30, 0x40])
        assert not cache.write_verifiable([0x10, 0x20, 0x30, 0x40] * 2)

    def test_write_check_does_not_mutate(self):
        config = ValueCacheConfig(entries=16, pin_threshold=1)
        cache = ValueCache(config)
        cache.observe(0x10)
        probes_before = cache.stats.probes
        cache.write_verifiable([0x10] * 8)
        assert cache.stats.probes == probes_before
