"""The Plutus engine: all three bandwidth-saving ideas, independently
toggleable (paper Section IV).

1. *Value-based integrity verification* — a per-partition value cache
   verifies most read fills without touching MAC storage, and proves
   some writebacks verifiable-in-advance so their MAC write is skipped.
2. *Compact mirrored counters* — a miniature counter layer (with its own
   mini-BMT) in front of the split counters; only saturated/disabled
   regions fall back to the original layer.
3. *Fine-grained metadata* — counters and tree nodes are hashed and
   fetched at 32-byte granularity (``GranularityDesign.ALL_32``),
   eliminating PSSM's over-fetch at the cost of a taller tree.

Each toggle isolates one of the paper's ablation figures (15/16/17);
the default configuration is the full Plutus of Fig. 18. The
``eliminate_tree`` flag reproduces Fig. 20's MGX/TNPU-style comparison
where integrity-tree traffic is assumed away entirely.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional

import numpy as np

from repro.common.bitops import split_values
from repro.mem.traffic import Stream, TrafficCounter
from repro.metadata.compact import (
    DESIGN_3BIT_ADAPTIVE,
    CompactCounterConfig,
    CompactCounterState,
    CounterRoute,
)
from repro.metadata.layout import GranularityDesign, MetadataLayout
from repro.metadata.bmt import BmtTraversal
from repro.obs.spans import NULL_SPAN_PROFILER
from repro.secure.engine import (
    EngineStats,
    MacStage,
    MetadataCacheConfig,
    MetadataEngine,
    PartitionEngine,
    run_bounds,
)
from repro.secure.spec import EngineSpec
from repro.secure.stages import EngineUnit, ReplayUnit, Stage
from repro.secure.value_cache import ValueCache, ValueCacheConfig

#: Sentinel returned by the key scan when a present image has the wrong
#: length; the engine's batch hooks then fall back to the scalar replay,
#: which raises at exactly the event the scalar sequence would.
_MALFORMED = object()

#: The stage kinds a replay matrix splits a Plutus design into (see
#: :meth:`PlutusEngine.replay_stages`).
STAGE_KINDS = ("counter+tree", "value", "mac")


def _image_keys(values, n: int, cache: Optional[ValueCache]):
    """Masked value-cache keys per event (None = no image).

    The fixed-width fast path reads the whole run's payload matrix
    as little-endian u32 words and masks all of them with one numpy
    AND — byte-identical to per-value ``split_values`` + ``_key``
    because both decode little-endian and the combined range+low
    mask is a single constant. Without a *cache* every entry is
    None. Returns :data:`_MALFORMED` when a present image has the
    wrong length (caller falls back to scalar).
    """
    u32_matrix = getattr(values, "u32_matrix", None)
    if u32_matrix is not None:
        matrix = u32_matrix()
        if matrix is not None:
            # Fixed 32-byte payload column: lengths are valid by
            # construction.
            if cache is None:
                return [None] * n
            cfg = cache.config
            shift_mask = ((1 << cfg.value_bits) - 1) & ~(
                (1 << cfg.mask_bits) - 1
            )
            words, present = matrix
            keys = (words & np.uint32(shift_mask)).tolist()
            present_l = present.tolist()
            return [keys[i] if present_l[i] else None for i in range(n)]
    mask_keys = cache.mask_keys if cache is not None else None
    out: List = []
    append = out.append
    for image in values:
        if image is None:
            append(None)
        elif len(image) != 32:
            return _MALFORMED
        elif mask_keys is None:
            append(None)  # valid image; keys unused without a cache
        else:
            append(mask_keys(split_values(image, 4)))
    return out


class ValueStage:
    """The value stage of one partition: its value cache and verdicts.

    Each run method takes the run's keys (:func:`_image_keys`, None for
    an event without an image), replays the probes in event order —
    every probe reshapes the cache the next one sees — and returns the
    boolean rows that still need a MAC access.
    """

    def __init__(self, cache: ValueCache, stats: EngineStats,
                 prof=NULL_SPAN_PROFILER) -> None:
        self.cache = cache
        self.stats = stats
        self._prof = prof

    def fill_run(self, keys_list) -> np.ndarray:
        """Verify a fill run by value; rows whose MAC must be fetched."""
        with self._prof.span("engine.value", events=len(keys_list)):
            rows, verified, failures = self.cache.fill_run(keys_list)
        self.stats.value_verified_fills += verified
        self.stats.mac_fetches_avoided += verified
        self.stats.value_check_failures += failures
        return np.array(rows, dtype=bool)

    def writeback_run(self, keys_list) -> np.ndarray:
        """Train on a writeback run; rows whose MAC must be written."""
        with self._prof.span("engine.value", events=len(keys_list)):
            rows, avoided = self.cache.writeback_run(keys_list)
        # A verifiable write is guaranteed to value-verify at its next
        # read: its MAC update is skipped entirely (paper Fig. 11).
        self.stats.mac_writes_avoided += avoided
        return np.array(rows, dtype=bool)

    def obs_snapshot(self) -> Dict[str, int]:
        """Cumulative probe counts for interval sampling."""
        return {
            "value_probes": self.cache.stats.probes,
            "value_hits": self.cache.stats.hits,
            "value_pinned_hits": self.cache.stats.pinned_hits,
        }


class PlutusEngine(MetadataEngine):
    """Plutus secure-memory engine for one partition."""

    name = "plutus"

    def __init__(
        self,
        partition_id: int,
        data_sectors: int,
        traffic: TrafficCounter,
        mac_tag_bytes: int = 8,
        design: GranularityDesign = GranularityDesign.ALL_32,
        cache_config: MetadataCacheConfig = MetadataCacheConfig(),
        value_cache_config: Optional[ValueCacheConfig] = ValueCacheConfig(),
        compact_config: Optional[CompactCounterConfig] = DESIGN_3BIT_ADAPTIVE,
        lazy_update: bool = True,
        eliminate_tree: bool = False,
        counter_config=None,
    ) -> None:
        from repro.metadata.split_counter import SplitCounterConfig

        super().__init__(
            partition_id,
            data_sectors,
            traffic,
            design=design,
            mac_tag_bytes=mac_tag_bytes,
            cache_config=cache_config,
            lazy_update=lazy_update,
            counter_config=counter_config or SplitCounterConfig(),
        )
        self.tree_enabled = not eliminate_tree

        self.value_cache = (
            ValueCache(value_cache_config) if value_cache_config else None
        )
        self.value_stage = (
            ValueStage(self.value_cache, self.stats, self._prof)
            if self.value_cache is not None else None
        )

        self.compact: Optional[CompactCounterState] = None
        if compact_config is not None:
            self.compact = CompactCounterState(compact_config)
            # The mirror layer inherits the engine's fetch-granularity
            # design: in the paper's compact-only ablation (Fig. 17) the
            # baseline's 128 B blocks apply to the compact metadata too;
            # only idea #3 shrinks them to 32 B.
            self.compact_layout = MetadataLayout(
                data_sectors=data_sectors,
                design=design,
                sectors_per_counter_sector=compact_config.counters_per_block,
            )
            self.compact_cache = cache_config.build(f"cctr[{partition_id}]")
            self.compact_bmt_cache = cache_config.build(f"cbmt[{partition_id}]")
            self.compact_bmt = BmtTraversal(
                self.compact_layout.bmt_geometry(),
                self.compact_bmt_cache,
                traffic,
                read_stream=Stream.COMPACT_BMT_READ,
                write_stream=Stream.COMPACT_BMT_WRITE,
                lazy_update=lazy_update,
            )

    # -- tree gating (Fig. 20) -------------------------------------------------

    def _verify_tree(self, traversal: BmtTraversal, leaf: int) -> None:
        if self.tree_enabled:
            traversal.verify_leaf(leaf)

    def _update_tree(self, traversal: BmtTraversal, leaf: int) -> None:
        if self.tree_enabled:
            traversal.update_leaf(leaf)

    # MetadataEngine's counter paths call self.bmt directly; override the
    # drain hook and both counter paths to honor the gate.
    def counter_read(self, sector_index: int) -> None:
        """Original-layer counter fetch, honoring the tree gate."""
        line, mask = self.layout.counter_location(sector_index)
        result = self.counter_cache.access(line, mask, write=False)
        if result.miss_mask:
            self.stats.counter_fetches += 1
            self.traffic.record(
                Stream.COUNTER_READ,
                result.miss_sector_count * self.layout.sector_bytes,
                transactions=result.miss_sector_count,
            )
            self._verify_tree(self.bmt, self.layout.bmt_leaf_index(sector_index))
        self._drain_counter_evictions(result.evictions)

    def counter_write(self, sector_index: int) -> None:
        """Original-layer counter bump, honoring the tree gate."""
        outcome = self.counters.increment(sector_index)
        if outcome.minor_overflowed:
            self._on_minor_overflow(outcome)
            if self.compact is not None:
                # All sectors sharing the bumped major must use the
                # original layer from now on (paper Section IV-D).
                self.compact.force_original(outcome.reencrypted_sectors)
        line, mask = self.layout.counter_location(sector_index)
        result = self.counter_cache.access(line, mask, write=True)
        if result.miss_mask:
            self.stats.counter_fetches += 1
            self.traffic.record(
                Stream.COUNTER_READ,
                result.miss_sector_count * self.layout.sector_bytes,
                transactions=result.miss_sector_count,
            )
            self._verify_tree(self.bmt, self.layout.bmt_leaf_index(sector_index))
        self._drain_counter_evictions(result.evictions)

    def _drain_counter_evictions(self, evictions) -> None:
        sector_bytes = self.counter_cache.config.sector_bytes
        for ev in evictions:
            self.traffic.record(
                Stream.COUNTER_WRITE,
                ev.dirty_sector_count * sector_bytes,
                transactions=ev.dirty_sector_count,
            )
            leaves = set()
            for s in range(self.counter_cache.config.sectors_per_line):
                if (ev.dirty_mask >> s) & 1:
                    counter_sector = ev.line_addr // sector_bytes + s
                    leaves.add(self._leaf_of_counter_sector(counter_sector))
            if self.tree_enabled:
                self.bmt.update_leaves(leaves)

    # -- compact-counter layer ---------------------------------------------------

    def _compact_access(self, sector_index: int, write: bool) -> None:
        """Touch the sector's compact counter (fetch + verify on miss)."""
        line, mask = self.compact_layout.counter_location(sector_index)
        result = self.compact_cache.access(line, mask, write=write)
        if result.miss_mask:
            self.traffic.record(
                Stream.COMPACT_COUNTER_READ,
                result.miss_sector_count * self.compact_layout.sector_bytes,
                transactions=result.miss_sector_count,
            )
            self._verify_tree(
                self.compact_bmt,
                self.compact_layout.bmt_leaf_index(sector_index),
            )
        self._drain_compact_evictions(result.evictions)

    def _compact_leaf_of_sector(self, counter_sector: int) -> int:
        if self.compact_layout.design is GranularityDesign.BLOCK_128:
            per_line = self.compact_layout.line_bytes // self.compact_layout.sector_bytes
            return counter_sector // per_line
        return counter_sector

    def _drain_compact_evictions(self, evictions) -> None:
        sector_bytes = self.compact_cache.config.sector_bytes
        for ev in evictions:
            self.traffic.record(
                Stream.COMPACT_COUNTER_WRITE,
                ev.dirty_sector_count * sector_bytes,
                transactions=ev.dirty_sector_count,
            )
            leaves = set()
            for s in range(self.compact_cache.config.sectors_per_line):
                if (ev.dirty_mask >> s) & 1:
                    counter_sector = ev.line_addr // sector_bytes + s
                    leaves.add(self._compact_leaf_of_sector(counter_sector))
            if self.tree_enabled:
                self.compact_bmt.update_leaves(leaves)

    def _counter_read_flow(self, sector_index: int) -> None:
        """Route a read's counter access through the mirror hierarchy."""
        if self.compact is None:
            self.counter_read(sector_index)
            return
        plan = self.compact.plan_read(sector_index)
        if plan.route is CounterRoute.COMPACT_ONLY:
            self.stats.compact_only_accesses += 1
            self._compact_access(sector_index, write=False)
        elif plan.route is CounterRoute.COMPACT_THEN_ORIGINAL:
            self.stats.compact_double_accesses += 1
            self._compact_access(sector_index, write=False)
            self.counter_read(sector_index)
        else:
            self.stats.original_only_accesses += 1
            self.counter_read(sector_index)

    def _counter_write_flow(self, sector_index: int) -> None:
        """Route a writeback's counter increment through the hierarchy."""
        if self.compact is None:
            self.counter_write(sector_index)
            return
        plan = self.compact.plan_write(sector_index)
        if plan.route is CounterRoute.COMPACT_ONLY:
            self.stats.compact_only_accesses += 1
            self._compact_access(sector_index, write=True)
        elif plan.route is CounterRoute.COMPACT_THEN_ORIGINAL:
            self.stats.compact_double_accesses += 1
            self._compact_access(sector_index, write=True)
            self.counter_write(sector_index)
        else:
            self.stats.original_only_accesses += 1
            self.counter_write(sector_index)
        if plan.disables_block:
            self.stats.compact_disable_events += 1
            if self.obs.enabled:
                self.obs.tracer.emit(
                    "compact.disable",
                    partition=self.partition_id,
                    block=self.compact.block_of(sector_index),
                    sector=sector_index,
                )
            self._sync_block_to_original(sector_index)

    def _sync_block_to_original(self, sector_index: int) -> None:
        """One-time copy of a disabled block's live counters to originals.

        With 2x compaction one compact block spans two original counter
        sectors; both are write-touched (fetch + verify on miss).
        """
        cpb = self.compact.config.counters_per_block
        block = self.compact.block_of(sector_index)
        first_data_sector = block * cpb
        step = self.layout.sectors_per_counter_sector
        for data_sector in range(first_data_sector, first_data_sector + cpb, step):
            if data_sector >= self.data_sectors:
                break
            line, mask = self.layout.counter_location(data_sector)
            result = self.counter_cache.access(line, mask, write=True)
            if result.miss_mask:
                self.traffic.record(
                    Stream.COUNTER_READ,
                    result.miss_sector_count * self.layout.sector_bytes,
                    transactions=result.miss_sector_count,
                )
                self._verify_tree(self.bmt, self.layout.bmt_leaf_index(data_sector))
            self._drain_counter_evictions(result.evictions)

    # -- request flows (paper Fig. 11) --------------------------------------------

    @staticmethod
    def check_image(values: Optional[bytes]) -> None:
        """Reject a sector image that is not 32 bytes (None passes)."""
        if values is not None and len(values) != 32:
            raise ValueError(
                f"sector image must be 32 bytes, got {len(values)}"
            )

    def on_fill(self, sector_index: int, values: Optional[bytes]) -> None:
        """Read miss: counter via mirror layer, then value-check or MAC."""
        self.check_image(values)
        self.stats.fills += 1
        self._counter_read_flow(sector_index)

        if self.value_cache is None or values is None:
            self.mac_read(sector_index)
            return

        sector_values = split_values(values, 4)
        if self.value_cache.verify_sector(sector_values):
            self.stats.value_verified_fills += 1
            self.stats.mac_fetches_avoided += 1
        else:
            self.stats.value_check_failures += 1
            self.mac_read(sector_index)
        self.value_cache.observe_many(sector_values)

    def on_writeback(self, sector_index: int, values: Optional[bytes]) -> None:
        """Dirty eviction: counter bump via mirror layer; MAC if needed."""
        self.check_image(values)
        self.stats.writebacks += 1
        self._counter_write_flow(sector_index)

        if self.value_cache is None or values is None:
            self.mac_write(sector_index)
            return

        sector_values = split_values(values, 4)
        self.value_cache.observe_many(sector_values)
        if self.value_cache.write_verifiable(sector_values):
            # Guaranteed to value-verify at next read: the MAC update is
            # skipped entirely (paper Fig. 11, write path).
            self.stats.mac_writes_avoided += 1
        else:
            self.mac_write(sector_index)

    def warm_counters(self, sector_index: int) -> None:
        """Pre-window write: advance both counter layers silently."""
        outcome = self.counters.increment(sector_index)
        if self.compact is not None:
            self.compact.plan_write(sector_index)
            if outcome.minor_overflowed:
                self.compact.force_original(outcome.reencrypted_sectors)

    # -- batch hooks (columnar path) ----------------------------------------
    #
    # A Plutus event touches up to four disjoint structures — the compact
    # layer (compact cache + mini BMT), the original layer (counter cache
    # + BMT + split counters), the value cache, and the MAC cache — so a
    # run splits into three stages: counter+tree (both layers), an
    # in-order value stage (:class:`ValueStage`), and a MAC stage
    # (:class:`~repro.secure.engine.MacStage`) over the events the value
    # stage could not cover. No stage reads another's state; the MAC
    # stage only takes the value stage's verdicts. So a replay matrix
    # runs each stage once for every design point sharing it, through
    # these same methods (:meth:`replay_stages`).
    # Only the write flow needs care: compact routing decisions and
    # value-cache probes are order-dependent, so both replay per event
    # while the cache accesses around them compress into same-location
    # runs.

    batch_native = True

    def _verify_counter_tree(self, leaf_index: int) -> None:
        """Original-tree walk for the shared batch helpers, gated."""
        if self.tree_enabled:
            self.bmt.verify_leaf(leaf_index)

    def _batch_compact_accesses(self, sectors: np.ndarray, write: bool) -> None:
        """Compact-layer phase of a batched run (fetch + verify on miss)."""
        if sectors.size == 0:
            return
        span = "engine.counter_write" if write else "engine.counter_read"
        with self._prof.span(span, events=int(sectors.size)):
            layout = self.compact_layout
            lines, masks = layout.counter_locations(sectors)
            leaves = layout.bmt_leaf_indices(sectors)
            bounds = run_bounds(lines, masks)
            lines_l = lines.tolist()
            masks_l = masks.tolist()
            leaves_l = leaves.tolist()
            access_run = self.compact_cache.access_run_raw
            drain = self._drain_compact_evictions
            miss_sectors = 0
            for j in range(len(bounds) - 1):
                a = bounds[j]
                miss_mask, miss_count, evictions = access_run(
                    lines_l[a], masks_l[a], write, bounds[j + 1] - a
                )
                if miss_mask:
                    miss_sectors += miss_count
                    self._verify_tree(self.compact_bmt, leaves_l[a])
                if evictions:
                    drain(evictions)
            if miss_sectors:
                self.traffic.record(
                    Stream.COMPACT_COUNTER_READ,
                    miss_sectors * layout.sector_bytes,
                    transactions=miss_sectors,
                )

    def _batch_counter_write_flow(self, sectors: np.ndarray) -> None:
        """Batched mirror-hierarchy counter increments (write path).

        Routing decisions (``plan_write_code``), split-counter
        increments, overflow re-encryptions, and adaptive disables all
        replay strictly per event — their side effects feed the very
        next routing decision. Only the cache accesses compress: each
        layer keeps one pending same-location run, flushed when the
        location changes or when a disable's synchronization is about to
        touch the original counter cache mid-run.
        """
        if sectors.size == 0:
            return
        with self._prof.span("engine.counter_write", events=int(sectors.size)):
            o_lines, o_masks = self.layout.counter_locations(sectors)
            o_leaves = self.layout.bmt_leaf_indices(sectors)
            c_lines, c_masks = self.compact_layout.counter_locations(sectors)
            c_leaves = self.compact_layout.bmt_leaf_indices(sectors)
            sec_l = sectors.tolist()
            o_lines_l = o_lines.tolist()
            o_masks_l = o_masks.tolist()
            o_leaves_l = o_leaves.tolist()
            c_lines_l = c_lines.tolist()
            c_masks_l = c_masks.tolist()
            c_leaves_l = c_leaves.tolist()

            plan_write = self.compact.plan_write_code
            increment = self.counters.increment_fast
            c_access_run = self.compact_cache.access_run_raw
            o_access_run = self.counter_cache.access_run_raw

            compact_only = double = original_only = 0
            o_fetches = o_miss = c_miss = 0
            cp = op = -1  # start index of each layer's pending run
            cp_count = op_count = 0

            def flush_compact() -> None:
                nonlocal cp, cp_count, c_miss
                miss_mask, miss_count, evictions = c_access_run(
                    c_lines_l[cp], c_masks_l[cp], True, cp_count
                )
                if miss_mask:
                    c_miss += miss_count
                    self._verify_tree(self.compact_bmt, c_leaves_l[cp])
                if evictions:
                    self._drain_compact_evictions(evictions)
                cp = -1
                cp_count = 0

            def flush_original() -> None:
                nonlocal op, op_count, o_fetches, o_miss
                miss_mask, miss_count, evictions = o_access_run(
                    o_lines_l[op], o_masks_l[op], True, op_count
                )
                if miss_mask:
                    o_fetches += 1
                    o_miss += miss_count
                    self._verify_tree(self.bmt, o_leaves_l[op])
                if evictions:
                    self._drain_counter_evictions(evictions)
                op = -1
                op_count = 0

            for i, s in enumerate(sec_l):
                code = plan_write(s)
                route = code & 7
                if route != 2:
                    if (
                        cp >= 0
                        and c_lines_l[cp] == c_lines_l[i]
                        and c_masks_l[cp] == c_masks_l[i]
                    ):
                        cp_count += 1
                    else:
                        if cp >= 0:
                            flush_compact()
                        cp = i
                        cp_count = 1
                    if route == 0:
                        compact_only += 1
                    else:
                        double += 1
                else:
                    original_only += 1
                if route != 0:
                    affected = increment(s)
                    if affected is not None:
                        self._reencrypt_group(affected)
                        self.compact.force_original(affected)
                    if (
                        op >= 0
                        and o_lines_l[op] == o_lines_l[i]
                        and o_masks_l[op] == o_masks_l[i]
                    ):
                        op_count += 1
                    else:
                        if op >= 0:
                            flush_original()
                        op = i
                        op_count = 1
                if code & 8:
                    self.stats.compact_disable_events += 1
                    if self.obs.enabled:
                        self.obs.tracer.emit(
                            "compact.disable",
                            partition=self.partition_id,
                            block=self.compact.block_of(s),
                            sector=s,
                        )
                    # The sync write-touches the original counter cache, so
                    # the pending original run must land first (and the next
                    # one starts fresh — the sync may evict its line).
                    if op >= 0:
                        flush_original()
                    self._sync_block_to_original(s)
            if cp >= 0:
                flush_compact()
            if op >= 0:
                flush_original()

            self.stats.compact_only_accesses += compact_only
            self.stats.compact_double_accesses += double
            self.stats.original_only_accesses += original_only
            if c_miss:
                self.traffic.record(
                    Stream.COMPACT_COUNTER_READ,
                    c_miss * self.compact_layout.sector_bytes,
                    transactions=c_miss,
                )
            if o_fetches:
                self.stats.counter_fetches += o_fetches
                self.traffic.record(
                    Stream.COUNTER_READ,
                    o_miss * self.layout.sector_bytes,
                    transactions=o_miss,
                )

    # The counter+tree stage: everything but the value cache and MACs.

    def counter_fill_run(self, sectors: np.ndarray) -> None:
        """Counter+tree work of a batched fill run."""
        n = int(sectors.size)
        self.stats.fills += n
        if self.compact is None:
            self._batch_counter_reads(sectors)
            return
        # plan_read is pure and nothing in a fill run mutates compact
        # state, so all routes are decided up front.
        codes = self.compact.plan_read_codes(sectors.tolist())
        if codes is None:
            self.stats.compact_only_accesses += n
            self._batch_compact_accesses(sectors, write=False)
            return
        codes_arr = np.asarray(codes, dtype=np.int8)
        n_original_only = int(np.count_nonzero(codes_arr == 2))
        n_double = int(np.count_nonzero(codes_arr == 1))
        self.stats.compact_only_accesses += n - n_original_only - n_double
        self.stats.compact_double_accesses += n_double
        self.stats.original_only_accesses += n_original_only
        compact_rows = codes_arr != 2
        if compact_rows.any():
            self._batch_compact_accesses(sectors[compact_rows], write=False)
        original_rows = codes_arr != 0
        if original_rows.any():
            self._batch_counter_reads(sectors[original_rows])

    def counter_writeback_run(self, sectors: np.ndarray) -> None:
        """Counter+tree work of a batched writeback run."""
        self.stats.writebacks += int(sectors.size)
        if self.compact is None:
            self._batch_counter_writes(sectors)
        else:
            self._batch_counter_write_flow(sectors)

    def on_fill_batch(self, sector_indices, values) -> None:
        sectors = np.asarray(sector_indices, dtype=np.int64)
        keys = _image_keys(values, int(sectors.size), self.value_cache)
        if keys is _MALFORMED:
            PartitionEngine.on_fill_batch(self, sectors.tolist(), values)
            return
        self.counter_fill_run(sectors)
        if self.value_stage is not None:
            sectors = sectors[self.value_stage.fill_run(keys)]
        self.mac_stage.fill_run(sectors)

    def on_writeback_batch(self, sector_indices, values) -> None:
        sectors = np.asarray(sector_indices, dtype=np.int64)
        keys = _image_keys(values, int(sectors.size), self.value_cache)
        if keys is _MALFORMED:
            PartitionEngine.on_writeback_batch(self, sectors.tolist(), values)
            return
        self.counter_writeback_run(sectors)
        if self.value_stage is not None:
            sectors = sectors[self.value_stage.writeback_run(keys)]
        self.mac_stage.writeback_run(sectors)

    def warm_counters_batch(self, sector_indices, passes: int = 1) -> None:
        """Vectorized two-layer warmup.

        When no minor counter can overflow, nothing forces a sector to
        the originals mid-warmup, so both layers take per-sector totals
        in one bulk pass (:meth:`CompactCounterState.apply_write_totals` is
        exact for any saturation crossings). Otherwise the exact scalar
        interleaving replays.
        """
        if self.compact is None:
            MetadataEngine.warm_counters_batch(self, sector_indices, passes)
            return
        if passes <= 0:
            return
        sectors = np.asarray(sector_indices, dtype=np.int64)
        if sectors.size == 0:
            return
        if int(sectors.min()) < 0:
            PartitionEngine.warm_counters_batch(
                self, sectors.tolist(), passes
            )
            return
        uniq, counts = np.unique(sectors, return_counts=True)
        uniq_l = uniq.tolist()
        totals = (counts * int(passes)).tolist()
        if self.counters.bulk_increment_safe(uniq_l, totals):
            self.counters.bulk_increment(uniq_l, totals)
            self.compact.apply_write_totals(uniq_l, totals)
            return
        increment = self.counters.increment_fast
        plan_write = self.compact.plan_write_code
        force = self.compact.force_original
        sec_l = sectors.tolist()
        for _ in range(passes):
            for s in sec_l:
                affected = increment(s)
                plan_write(s)
                if affected is not None:
                    force(affected)

    def _state_summary(self) -> List:
        summary = super()._state_summary()
        if self.value_cache is not None:
            summary.append(self.value_cache.state_summary())
        if self.compact is not None:
            summary.append(self.compact.state_summary())
            summary.append(self.compact_cache.state_summary())
            summary.append(self.compact_bmt_cache.state_summary())
            summary.append(self.compact_bmt.root_verifications)
        return summary

    def finalize_counters(self) -> None:
        """Drain dirty counter metadata in both layers at kernel end."""
        super().finalize_counters()
        if self.compact is not None:
            self._drain_compact_evictions(self.compact_cache.flush())
            if self.tree_enabled:
                self.compact_bmt.flush()

    def obs_snapshot(self) -> Dict[str, int]:
        """Add value-cache and mirror-layer quantities to the shared set."""
        snap = super().obs_snapshot()
        snap.update(
            value_verified_fills=self.stats.value_verified_fills,
            value_check_failures=self.stats.value_check_failures,
            mac_fetches_avoided=self.stats.mac_fetches_avoided,
            mac_writes_avoided=self.stats.mac_writes_avoided,
            compact_only_accesses=self.stats.compact_only_accesses,
            compact_double_accesses=self.stats.compact_double_accesses,
            original_only_accesses=self.stats.original_only_accesses,
            compact_disable_events=self.stats.compact_disable_events,
        )
        if self.value_stage is not None:
            snap.update(self.value_stage.obs_snapshot())
        return snap

    @classmethod
    def replay_stages(cls, spec) -> Optional[List[Stage]]:
        """Split a Plutus spec into its counter+tree, value and MAC stages.

        Each stage is keyed by the constructor arguments it depends on:
        counter+tree by every argument but ``value_cache_config``, value
        by ``value_cache_config`` alone (no value stage without one),
        MAC by ``design``, ``mac_tag_bytes`` and ``cache_config`` plus
        the value stage whose verdicts it takes. Only ``PlutusEngine``
        itself is split: a subclass may override any hook.
        """
        if cls is not PlutusEngine:
            return None
        kwargs = spec.bound_kwargs()
        value_config = kwargs["value_cache_config"]
        counter_kwargs = {**kwargs, "value_cache_config": None}
        stages = [Stage(
            "counter+tree",
            repr(("counter+tree", sorted(counter_kwargs.items()))),
            None,
            partial(_CounterUnit, EngineSpec(PlutusEngine, **counter_kwargs)),
        )]
        value_key = None
        if value_config is not None:
            value_key = repr(("value", value_config))
            stages.append(Stage("value", value_key, None,
                                partial(_ValueUnit, value_config)))
        mac_kwargs = {k: kwargs[k]
                      for k in ("design", "mac_tag_bytes", "cache_config")}
        stages.append(Stage(
            "mac", repr(("mac", sorted(mac_kwargs.items()), value_key)),
            value_key, partial(_MacUnit, mac_kwargs),
        ))
        return stages


def _check_images(runs, a: int, b: int) -> None:
    """Raise the scalar replay's error for a run's first malformed image."""
    if not runs.fixed32:
        for image in runs.values(a, b):
            PlutusEngine.check_image(image)


class _CounterUnit(EngineUnit):
    """The counter+tree stage: engines without a value cache, driven
    through their counter hooks only (their MAC caches stay empty)."""

    def feed(self, runs, upstream) -> None:
        for partition, fill, a, b in runs.runs:
            _check_images(runs, a, b)
            engine = self.part(partition)
            if fill:
                engine.counter_fill_run(runs.sectors[a:b])
            else:
                engine.counter_writeback_run(runs.sectors[a:b])

    def finalize(self) -> None:
        for engine in self.parts.values():
            engine.finalize_counters()


class _ValueUnit(ReplayUnit):
    """The value stage; its output holds, per run, the boolean rows
    that still need a MAC access."""

    def __init__(self, config: ValueCacheConfig, data_sectors: int) -> None:
        super().__init__(data_sectors)
        self.config = config

    def build(self, partition: int) -> ValueStage:
        return ValueStage(ValueCache(self.config), EngineStats())

    def feed(self, runs, upstream) -> List[np.ndarray]:
        rows = []
        for partition, fill, a, b in runs.runs:
            _check_images(runs, a, b)
            stage = self.part(partition)
            keys = _image_keys(runs.values(a, b), b - a, stage.cache)
            if fill:
                rows.append(stage.fill_run(keys))
            else:
                rows.append(stage.writeback_run(keys))
        return rows

    def finalize(self) -> None:
        pass  # a value cache holds nothing to write back


class _MacUnit(ReplayUnit):
    """The MAC stage, fed the rows its value stage left over (every row
    without a value stage)."""

    def __init__(self, kwargs: Dict[str, object], data_sectors: int) -> None:
        super().__init__(data_sectors)
        self.kwargs = kwargs
        self.traffic = TrafficCounter()

    def build(self, partition: int) -> MacStage:
        layout = MetadataLayout(
            data_sectors=self.data_sectors,
            design=self.kwargs["design"],
            mac_tag_bytes=self.kwargs["mac_tag_bytes"],
        )
        cache = self.kwargs["cache_config"].build(f"mac[{partition}]")
        return MacStage(layout, cache, self.traffic, EngineStats())

    def feed(self, runs, rows: Optional[List[np.ndarray]]) -> None:
        for i, (partition, fill, a, b) in enumerate(runs.runs):
            _check_images(runs, a, b)
            sectors = runs.sectors[a:b]
            if rows is not None:
                sectors = sectors[rows[i]]
            stage = self.part(partition)
            if fill:
                stage.fill_run(sectors)
            else:
                stage.writeback_run(sectors)
