"""Tests for compact mirrored counters (2-bit / 3-bit / adaptive)."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.metadata.compact import (
    DESIGN_2BIT,
    DESIGN_3BIT,
    DESIGN_3BIT_ADAPTIVE,
    CompactCounterConfig,
    CompactCounterState,
    CounterRoute,
)


class TestDesignConstants:
    def test_2bit_design(self):
        assert DESIGN_2BIT.width_bits == 2
        assert DESIGN_2BIT.saturation_value == 3
        assert DESIGN_2BIT.counters_per_block == 128

    def test_3bit_design(self):
        assert DESIGN_3BIT.saturation_value == 7
        assert DESIGN_3BIT.counters_per_block == 64
        assert not DESIGN_3BIT.adaptive

    def test_adaptive_design(self):
        assert DESIGN_3BIT_ADAPTIVE.adaptive
        assert DESIGN_3BIT_ADAPTIVE.disable_threshold == 8

    def test_compaction_factors(self):
        """Paper: 2-bit gives 4x, 3-bit adaptive gives 2x vs originals
        covering 32 sectors per block."""
        assert DESIGN_2BIT.compaction_vs(32) == 4.0
        assert DESIGN_3BIT_ADAPTIVE.compaction_vs(32) == 2.0

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            CompactCounterConfig(width_bits=1, counters_per_block=64)
        with pytest.raises(ConfigurationError):
            CompactCounterConfig(width_bits=3, counters_per_block=0)
        with pytest.raises(ConfigurationError):
            CompactCounterConfig(
                width_bits=3, counters_per_block=64, adaptive=True,
                disable_threshold=65,
            )


class TestReadRouting:
    def test_fresh_sector_uses_compact_only(self):
        state = CompactCounterState(DESIGN_3BIT)
        assert state.plan_read(0).route is CounterRoute.COMPACT_ONLY

    def test_below_saturation_uses_compact_only(self):
        state = CompactCounterState(DESIGN_3BIT)
        for _ in range(6):
            state.plan_write(0)
        assert state.plan_read(0).route is CounterRoute.COMPACT_ONLY

    def test_saturated_needs_both_layers(self):
        """Paper Fig. 13, access (b): value 7 means consult originals."""
        state = CompactCounterState(DESIGN_3BIT)
        for _ in range(7):
            state.plan_write(0)
        assert state.plan_read(0).route is CounterRoute.COMPACT_THEN_ORIGINAL

    def test_disabled_block_goes_straight_to_original(self):
        """Paper Fig. 13, access (c): enable bit 1 -> direct original."""
        state = CompactCounterState(DESIGN_3BIT_ADAPTIVE)
        for sector in range(8):
            for _ in range(7):
                state.plan_write(sector)
        assert state.is_block_disabled(0)
        # Even a never-written sector of the disabled block routes there.
        assert state.plan_read(60).route is CounterRoute.ORIGINAL_ONLY


class TestWriteRouting:
    def test_writes_below_saturation_stay_compact(self):
        state = CompactCounterState(DESIGN_3BIT)
        for _ in range(6):
            plan = state.plan_write(0)
            assert plan.route is CounterRoute.COMPACT_ONLY
            assert not plan.propagates_to_original

    def test_saturating_write_propagates(self):
        state = CompactCounterState(DESIGN_3BIT)
        for _ in range(6):
            state.plan_write(0)
        plan = state.plan_write(0)  # 7th write saturates
        assert plan.propagates_to_original
        assert plan.route is CounterRoute.COMPACT_THEN_ORIGINAL
        assert state.propagation_events == 1

    def test_post_saturation_writes_go_to_original_too(self):
        state = CompactCounterState(DESIGN_3BIT)
        for _ in range(8):
            state.plan_write(0)
        plan = state.plan_write(0)
        assert plan.route is CounterRoute.COMPACT_THEN_ORIGINAL
        assert not plan.propagates_to_original

    def test_2bit_saturates_on_third_write(self):
        """Paper: 'overflows on the third write'."""
        state = CompactCounterState(DESIGN_2BIT)
        state.plan_write(0)
        state.plan_write(0)
        plan = state.plan_write(0)
        assert plan.propagates_to_original


class TestAdaptiveDisable:
    def saturate(self, state, sector):
        for _ in range(state.config.saturation_value):
            plan = state.plan_write(sector)
        return plan

    def test_threshold_triggers_disable(self):
        state = CompactCounterState(DESIGN_3BIT_ADAPTIVE)
        for sector in range(7):
            plan = self.saturate(state, sector)
            assert not plan.disables_block
        plan = self.saturate(state, 7)  # 8th saturated counter
        assert plan.disables_block
        assert state.disable_events == 1

    def test_non_adaptive_never_disables(self):
        state = CompactCounterState(DESIGN_3BIT)
        for sector in range(20):
            self.saturate(state, sector)
        assert state.disable_events == 0
        assert not state.is_block_disabled(0)

    def test_disabled_block_write_routes_original_only(self):
        state = CompactCounterState(DESIGN_3BIT_ADAPTIVE)
        for sector in range(8):
            self.saturate(state, sector)
        assert state.plan_write(30).route is CounterRoute.ORIGINAL_ONLY

    def test_disable_is_per_block(self):
        state = CompactCounterState(DESIGN_3BIT_ADAPTIVE)
        for sector in range(8):
            self.saturate(state, sector)
        other_block_sector = DESIGN_3BIT_ADAPTIVE.counters_per_block + 1
        assert state.plan_read(other_block_sector).route is CounterRoute.COMPACT_ONLY

    def test_sync_cost_is_two_sectors(self):
        assert CompactCounterState(DESIGN_3BIT_ADAPTIVE).sync_sectors_for_disable() == 2


class TestMirrorConsistency:
    def test_encryption_counter_equals_write_count(self):
        """The logical counter must be layer-independent."""
        state = CompactCounterState(DESIGN_3BIT)
        for i in range(1, 12):
            state.plan_write(9)
            assert state.encryption_counter(9) == i

    def test_force_original_redirects(self):
        state = CompactCounterState(DESIGN_3BIT)
        state.force_original([4, 5])
        assert state.plan_read(4).route is CounterRoute.COMPACT_THEN_ORIGINAL
        assert state.plan_read(6).route is CounterRoute.COMPACT_ONLY


# -- exact bulk warmup ----------------------------------------------------------

#: The three Fig. 17 designs plus an adaptive block small enough that a
#: short warmup disables it several times over.
BULK_DESIGNS = (
    DESIGN_2BIT,
    DESIGN_3BIT,
    DESIGN_3BIT_ADAPTIVE,
    CompactCounterConfig(width_bits=2, counters_per_block=4, adaptive=True,
                         disable_threshold=2),
)


@st.composite
def warmups(draw):
    """A design, a random prior state (forced sectors, disabled blocks,
    saturated counts past the threshold included) and a warmup."""
    config = draw(st.sampled_from(BULK_DESIGNS))
    span = 3 * config.counters_per_block  # three blocks of sectors
    sat = config.saturation_value
    sectors = st.integers(min_value=0, max_value=span - 1)
    blocks = st.integers(min_value=0, max_value=2)
    state = CompactCounterState(config)
    state._writes.update(draw(st.dictionaries(
        sectors, st.integers(min_value=0, max_value=sat + 1), max_size=12,
    )))
    state._saturated_in_block.update(draw(st.dictionaries(
        blocks,
        st.integers(min_value=0, max_value=config.disable_threshold + 1),
    )))
    state._disabled_blocks.update(draw(st.sets(blocks, max_size=2)))
    state._forced_original.update(draw(st.sets(sectors, max_size=6)))
    warm = draw(st.lists(sectors, min_size=1, max_size=40))
    passes = draw(st.integers(min_value=1, max_value=3))
    return state, warm, passes


@settings(deadline=None)
@given(case=warmups())
def test_bulk_writes_match_pass_major_plan_writes(case):
    """``apply_write_totals`` leaves exactly the state of the per-event
    warmup loop (pass-major ``plan_write_code``), whatever crossings
    and disables the writes cause."""
    state, warm, passes = case
    ref = CompactCounterState(state.config)
    ref._writes.update(state._writes)
    ref._saturated_in_block.update(state._saturated_in_block)
    ref._disabled_blocks.update(state._disabled_blocks)
    ref._forced_original.update(state._forced_original)
    for _ in range(passes):
        for sector in warm:
            ref.plan_write_code(sector)
    totals = Counter(warm)
    uniq = sorted(totals)
    state.apply_write_totals(uniq, [totals[s] * passes for s in uniq])
    assert state.state_summary() == ref.state_summary()
