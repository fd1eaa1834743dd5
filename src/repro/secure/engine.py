"""Secure-memory engine interface and shared metadata machinery.

A *partition engine* sits where the paper's per-partition security
engines sit: between the L2 bank and the DRAM channel. The GPU simulator
feeds it two event kinds —

* ``on_fill(sector, values)``: a data sector is being fetched from DRAM
  (L2 read miss) and must be verified/decrypted;
* ``on_writeback(sector, values)``: a dirty data sector is leaving the
  chip and must be encrypted/authenticated;

— and the engine responds by generating security-metadata traffic into
the partition's :class:`~repro.mem.traffic.TrafficCounter`. Data traffic
itself is accounted by the caller; engines add only the security cost,
which keeps "no security" vs "PSSM" vs "Plutus" trivially comparable.

:class:`MetadataEngine` implements the machinery every design shares:
sectored counter/MAC/BMT caches (2 kB each per partition, Table II),
split counters, lazy BMT maintenance, and the eviction plumbing between
them. Concrete designs (:mod:`repro.secure.pssm`,
:mod:`repro.secure.plutus`, :mod:`repro.secure.common_counters`)
specialize the read/write flows.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple, dataclass, fields
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

import numpy as np

from repro.mem.cache import CacheConfig, SectoredCache
from repro.mem.traffic import Stream, TrafficCounter
from repro.obs.session import active as _obs_active
from repro.obs.spans import NULL_SPAN_PROFILER
from repro.metadata.bmt import BmtTraversal
from repro.metadata.layout import GranularityDesign, MetadataLayout
from repro.metadata.split_counter import SplitCounterConfig, SplitCounterStore

if TYPE_CHECKING:
    from repro.secure.stages import Stage


@dataclass
class EngineStats:
    """Event counts shared across engine designs."""

    fills: int = 0
    writebacks: int = 0
    counter_fetches: int = 0
    counter_onchip_hits: int = 0
    mac_fetches: int = 0
    mac_fetches_avoided: int = 0
    mac_writes_avoided: int = 0
    value_verified_fills: int = 0
    value_check_failures: int = 0
    compact_only_accesses: int = 0
    compact_double_accesses: int = 0
    original_only_accesses: int = 0
    compact_disable_events: int = 0
    minor_overflows: int = 0
    reencrypted_sectors: int = 0
    wal_appends: int = 0

    @classmethod
    def merged(cls, parts: Iterable["EngineStats"]) -> "EngineStats":
        """Field-wise sum of per-partition stats."""
        total = cls()
        for stats in parts:
            for f in fields(cls):
                setattr(total, f.name,
                        getattr(total, f.name) + getattr(stats, f.name))
        return total


@dataclass(frozen=True)
class MetadataCacheConfig:
    """Per-partition metadata cache sizing (Table II defaults)."""

    size_bytes: int = 2048
    line_bytes: int = 128
    ways: int = 4
    sector_bytes: int = 32
    sectored: bool = True

    def build(self, name: str) -> SectoredCache:
        return SectoredCache(
            CacheConfig(
                name=name,
                size_bytes=self.size_bytes,
                line_bytes=self.line_bytes,
                ways=self.ways,
                sector_bytes=self.sector_bytes,
                sectored=self.sectored,
            )
        )


class PartitionEngine:
    """Interface of one partition's security engine."""

    #: Human-readable design name, overridden by subclasses.
    name = "abstract"

    def __init__(self, partition_id: int, data_sectors: int,
                 traffic: TrafficCounter) -> None:
        self.partition_id = partition_id
        self.data_sectors = data_sectors
        self.traffic = traffic
        self.stats = EngineStats()
        #: Observability session captured at construction (disabled
        #: singleton by default); subclasses emit tracer events through
        #: it. The replay's interval snapshots, taken between batched
        #: windows, poll :meth:`obs_snapshot` separately.
        self.obs = _obs_active()
        #: Span profiler for the batched metadata phases: the session's
        #: under ``span_detail`` profiling, the no-op twin otherwise.
        self._prof = (
            self.obs.profiler
            if self.obs.config.span_detail_active else NULL_SPAN_PROFILER
        )

    #: True when the engine overrides the batch hooks with a genuinely
    #: vectorized implementation; the default hooks replay the scalar
    #: calls in order, so stateful engines stay byte-identical without
    #: opting in. The bench records this per design point.
    batch_native = False

    @classmethod
    def replay_stages(cls, spec) -> "Optional[List[Stage]]":
        """The stages a replay matrix may split *spec*'s design into.

        None (the default) replays the design whole. A design made of
        independent stages returns them keyed (:mod:`repro.secure.stages`)
        so that a matrix runs each distinct stage once for every design
        sharing it.
        """
        return None

    def on_fill(self, sector_index: int, values: Optional[bytes]) -> None:
        """Handle a data-sector fetch from DRAM (L2 read miss)."""
        raise NotImplementedError

    def on_writeback(self, sector_index: int, values: Optional[bytes]) -> None:
        """Handle a dirty data-sector eviction to DRAM."""
        raise NotImplementedError

    # -- batch hooks (columnar replay) -----------------------------------
    #
    # The columnar replay path delivers consecutive same-kind events of
    # one partition as a single call. The contract is strict: a batch
    # call must leave the engine in exactly the state the equivalent
    # sequence of scalar calls would, so the defaults below are the
    # scalar loop and only stateless (or order-free) designs override.

    def on_fill_batch(self, sector_indices, values) -> None:
        """Handle a run of fills (scalar fallback: in-order replay)."""
        on_fill = self.on_fill
        for sector_index, image in zip(sector_indices, values):
            on_fill(sector_index, image)

    def on_writeback_batch(self, sector_indices, values) -> None:
        """Handle a run of writebacks (scalar fallback: in-order replay)."""
        on_writeback = self.on_writeback
        for sector_index, image in zip(sector_indices, values):
            on_writeback(sector_index, image)

    def warm_counters_batch(self, sector_indices, passes: int = 1) -> None:
        """Warm counter state for *passes* pre-window write rounds.

        Equivalent to ``passes`` pass-major scalar rounds over the whole
        sector list (the order the replay loop used to drive). Batch
        implementations may collapse the rounds only where the result is
        provably order-free (no overflow, no saturation crossing).
        """
        warm_counters = self.warm_counters
        for _ in range(passes):
            for sector_index in sector_indices:
                warm_counters(sector_index)

    def warm_counters(self, sector_index: int) -> None:
        """Advance counter state for one pre-window write (no traffic).

        Simulated windows are slices of much longer executions; the
        writes that happened before the window have already advanced the
        encryption counters (and saturated compact counters, demoted
        common-counter regions, ...). Warmup replays the window's
        writeback sectors through this hook so counter *state* matches a
        long-running execution while measured traffic stays clean.
        """

    def finalize(self) -> None:
        """Drain dirty metadata at end of simulation (kernel boundary)."""

    def obs_snapshot(self) -> Dict[str, int]:
        """Cumulative observability quantities for interval sampling.

        The replay polls this after each interval window and records
        *deltas* into time-series samplers (e.g. value-cache hit rate
        over trace position). Keys are design-specific; absent keys read
        as zero. Only called when observability is enabled.
        """
        return {}

    # -- differential state digest ----------------------------------------

    def _state_summary(self) -> List:
        """Everything the engine's future behavior depends on.

        Subclasses extend the list with their own structures. Ordered
        containers (cache LRU order) keep their order; plain dicts and
        sets are canonicalized by sorting, because the batch contract
        permits reordering key insertions whose order carries no
        semantics (see the per-structure ``state_summary`` helpers).
        """
        return [astuple(self.stats)]

    def state_digest(self) -> str:
        """Stable hash of the complete engine state.

        Two engines with equal digests are behaviorally
        indistinguishable from here on — the comparison surface of the
        batch-vs-scalar differential suite, strictly stronger than the
        traffic/stats identity the conformance invariant checks.
        """
        summary = repr(self._state_summary()).encode()
        return hashlib.sha256(summary).hexdigest()


class NoSecurityEngine(PartitionEngine):
    """The insecure baseline: data moves, no metadata exists."""

    name = "no-security"
    batch_native = True

    def on_fill(self, sector_index: int, values: Optional[bytes]) -> None:
        self.stats.fills += 1

    def on_writeback(self, sector_index: int, values: Optional[bytes]) -> None:
        self.stats.writebacks += 1

    # Only the counts matter: batch runs are O(1), and the lazy value
    # sequence is never materialized.

    def on_fill_batch(self, sector_indices, values) -> None:
        self.stats.fills += len(sector_indices)

    def on_writeback_batch(self, sector_indices, values) -> None:
        self.stats.writebacks += len(sector_indices)

    def warm_counters_batch(self, sector_indices, passes: int = 1) -> None:
        pass


def run_bounds(lines: np.ndarray, masks: np.ndarray) -> List[int]:
    """Boundaries of equal-(line, mask) runs: [0, ..., n]."""
    n = int(lines.size)
    if n <= 1:
        return [0, n]
    change = np.flatnonzero(
        (lines[1:] != lines[:-1]) | (masks[1:] != masks[:-1])
    )
    bounds = np.empty(change.size + 2, dtype=np.int64)
    bounds[0] = 0
    bounds[1:-1] = change + 1
    bounds[-1] = n
    return bounds.tolist()


class MacStage:
    """The MAC stage of one partition: its MAC cache and layout.

    It takes the sectors of a batched run that need a MAC access (all
    of them, or the ones a value stage could not cover) and accounts
    their MAC traffic. :class:`MetadataEngine` drives one over its own
    cache and stats; a staged replay builds one per MAC configuration
    with stats of its own.
    """

    def __init__(
        self,
        layout: MetadataLayout,
        cache: SectoredCache,
        traffic: TrafficCounter,
        stats: EngineStats,
        prof=NULL_SPAN_PROFILER,
    ) -> None:
        self.layout = layout
        self.cache = cache
        self.traffic = traffic
        self.stats = stats
        self._prof = prof

    def drain(self, evictions) -> None:
        """Write back the dirty MAC sectors of evicted lines."""
        sector_bytes = self.cache.config.sector_bytes
        for ev in evictions:
            self.traffic.record(
                Stream.MAC_WRITE,
                ev.dirty_sector_count * sector_bytes,
                transactions=ev.dirty_sector_count,
            )

    def fill_run(self, sectors: np.ndarray) -> None:
        """MAC reads of a batched fill run."""
        if sectors.size == 0:
            return
        with self._prof.span("engine.mac_read", events=int(sectors.size)):
            lines, masks = self.layout.mac_locations(sectors)
            bounds = run_bounds(lines, masks)
            lines_l = lines.tolist()
            masks_l = masks.tolist()
            access_run = self.cache.access_run_raw
            drain = self.drain
            fetches = 0
            miss_sectors = 0
            for j in range(len(bounds) - 1):
                a = bounds[j]
                miss_mask, miss_count, evictions = access_run(
                    lines_l[a], masks_l[a], False, bounds[j + 1] - a
                )
                if miss_mask:
                    fetches += 1
                    miss_sectors += miss_count
                if evictions:
                    drain(evictions)
            if fetches:
                self.stats.mac_fetches += fetches
                self.traffic.record(
                    Stream.MAC_READ,
                    miss_sectors * self.layout.sector_bytes,
                    transactions=miss_sectors,
                )

    def writeback_run(self, sectors: np.ndarray) -> None:
        """MAC updates of a batched writeback run.

        A miss is a read-modify-write: the fetch is MAC_READ traffic but
        does not count as a demand MAC fetch — same as the scalar path.
        """
        if sectors.size == 0:
            return
        with self._prof.span("engine.mac_write", events=int(sectors.size)):
            lines, masks = self.layout.mac_locations(sectors)
            bounds = run_bounds(lines, masks)
            lines_l = lines.tolist()
            masks_l = masks.tolist()
            access_run = self.cache.access_run_raw
            drain = self.drain
            miss_sectors = 0
            for j in range(len(bounds) - 1):
                a = bounds[j]
                miss_mask, miss_count, evictions = access_run(
                    lines_l[a], masks_l[a], True, bounds[j + 1] - a
                )
                if miss_mask:
                    miss_sectors += miss_count
                if evictions:
                    drain(evictions)
            if miss_sectors:
                self.traffic.record(
                    Stream.MAC_READ,
                    miss_sectors * self.layout.sector_bytes,
                    transactions=miss_sectors,
                )

    def finalize(self) -> None:
        """Write back every dirty MAC sector (kernel boundary)."""
        self.drain(self.cache.flush())


class MetadataEngine(PartitionEngine):
    """Shared counter/MAC/BMT machinery for the secured designs."""

    def __init__(
        self,
        partition_id: int,
        data_sectors: int,
        traffic: TrafficCounter,
        design: GranularityDesign = GranularityDesign.BLOCK_128,
        mac_tag_bytes: int = 8,
        cache_config: MetadataCacheConfig = MetadataCacheConfig(),
        counter_config: SplitCounterConfig = SplitCounterConfig(),
        lazy_update: bool = True,
    ) -> None:
        super().__init__(partition_id, data_sectors, traffic)
        self.layout = MetadataLayout(
            data_sectors=data_sectors,
            design=design,
            mac_tag_bytes=mac_tag_bytes,
            sectors_per_counter_sector=counter_config.sectors_per_group,
        )
        self.counters = SplitCounterStore(counter_config)
        self.counter_cache = cache_config.build(f"ctr[{partition_id}]")
        self.mac_cache = cache_config.build(f"mac[{partition_id}]")
        self.bmt_cache = cache_config.build(f"bmt[{partition_id}]")
        self.bmt = BmtTraversal(
            self.layout.bmt_geometry(),
            self.bmt_cache,
            traffic,
            read_stream=Stream.BMT_READ,
            write_stream=Stream.BMT_WRITE,
            lazy_update=lazy_update,
        )
        self.mac_stage = MacStage(
            self.layout, self.mac_cache, traffic, self.stats, self._prof
        )

    # -- eviction plumbing ---------------------------------------------------

    def _drain_counter_evictions(self, evictions) -> None:
        """Write back dirty counter sectors; lazily update their tree leaves.

        A dirty counter block leaving the chip is the moment the lazy
        scheme recomputes its parent hash, so each distinct evicted leaf
        triggers a tree update.
        """
        sector_bytes = self.counter_cache.config.sector_bytes
        for ev in evictions:
            self.traffic.record(
                Stream.COUNTER_WRITE,
                ev.dirty_sector_count * sector_bytes,
                transactions=ev.dirty_sector_count,
            )
            leaves = set()
            for s in range(self.counter_cache.config.sectors_per_line):
                if not (ev.dirty_mask >> s) & 1:
                    continue
                counter_sector = ev.line_addr // sector_bytes + s
                leaves.add(self._leaf_of_counter_sector(counter_sector))
            self.bmt.update_leaves(leaves)

    def _leaf_of_counter_sector(self, counter_sector: int) -> int:
        if self.layout.design is GranularityDesign.BLOCK_128:
            per_line = self.layout.line_bytes // self.layout.sector_bytes
            return counter_sector // per_line
        return counter_sector

    # -- counter path ----------------------------------------------------------

    def counter_read(self, sector_index: int) -> None:
        """Bring the sector's encryption counter on-chip, verified."""
        line, mask = self.layout.counter_location(sector_index)
        result = self.counter_cache.access(line, mask, write=False)
        if result.miss_mask:
            self.stats.counter_fetches += 1
            self.traffic.record(
                Stream.COUNTER_READ,
                result.miss_sector_count * self.layout.sector_bytes,
                transactions=result.miss_sector_count,
            )
            self.bmt.verify_leaf(self.layout.bmt_leaf_index(sector_index))
        self._drain_counter_evictions(result.evictions)

    def counter_write(self, sector_index: int) -> None:
        """Advance the sector's counter for a writeback (dirty in cache)."""
        outcome = self.counters.increment(sector_index)
        if outcome.minor_overflowed:
            self._on_minor_overflow(outcome)
        line, mask = self.layout.counter_location(sector_index)
        result = self.counter_cache.access(line, mask, write=True)
        if result.miss_mask:
            # Updating a counter needs its block resident and verified.
            self.stats.counter_fetches += 1
            self.traffic.record(
                Stream.COUNTER_READ,
                result.miss_sector_count * self.layout.sector_bytes,
                transactions=result.miss_sector_count,
            )
            self.bmt.verify_leaf(self.layout.bmt_leaf_index(sector_index))
        self._drain_counter_evictions(result.evictions)

    def _on_minor_overflow(self, outcome) -> None:
        """A minor overflow re-encrypts the whole major-counter group."""
        self._reencrypt_group(outcome.reencrypted_sectors)

    def _reencrypt_group(self, reencrypted_sectors) -> None:
        """Account a major-counter bump's group re-encryption.

        Every sector in the group must be read, re-encrypted under the
        new major, and written back — real data traffic the model
        charges to the data streams. The batch paths call this directly
        with the affected tuple from ``increment_fast``.
        """
        self.stats.minor_overflows += 1
        group = [
            s for s in reencrypted_sectors if s < self.data_sectors
        ]
        if self.obs.enabled:
            self.obs.tracer.emit(
                "counter.minor_overflow",
                partition=self.partition_id,
                reencrypted_sectors=len(group),
            )
        self.stats.reencrypted_sectors += len(group)
        nbytes = len(group) * self.layout.sector_bytes
        self.traffic.record(Stream.DATA_READ, nbytes, transactions=len(group))
        self.traffic.record(Stream.DATA_WRITE, nbytes, transactions=len(group))

    # -- MAC path ------------------------------------------------------------------

    def mac_read(self, sector_index: int) -> None:
        """Fetch the sector's MAC for conventional verification."""
        line, mask = self.layout.mac_location(sector_index)
        result = self.mac_cache.access(line, mask, write=False)
        if result.miss_mask:
            self.stats.mac_fetches += 1
            self.traffic.record(
                Stream.MAC_READ,
                result.miss_sector_count * self.layout.sector_bytes,
                transactions=result.miss_sector_count,
            )
        self.mac_stage.drain(result.evictions)

    def mac_write(self, sector_index: int) -> None:
        """Install a freshly computed MAC (read-modify-write on miss)."""
        line, mask = self.layout.mac_location(sector_index)
        result = self.mac_cache.access(line, mask, write=True)
        if result.miss_mask:
            # The 32 B MAC sector holds several tags; merging one tag
            # into a non-resident sector fetches it first.
            self.traffic.record(
                Stream.MAC_READ,
                result.miss_sector_count * self.layout.sector_bytes,
                transactions=result.miss_sector_count,
            )
        self.mac_stage.drain(result.evictions)

    # -- batch replay machinery (columnar path) ---------------------------------
    #
    # The helpers below are what the batch-native engines compose their
    # on_fill_batch / on_writeback_batch overrides from. Each one is a
    # provably byte-identical replay of the scalar per-event sequence:
    #
    # * metadata locations for the whole run come from one vectorized
    #   layout pass;
    # * consecutive events hitting the same (line, mask) collapse into a
    #   single ``access_run`` — the repeats are full hits by
    #   construction, so only bulk hit accounting remains;
    # * per-access miss traffic and fetch stats accumulate in locals and
    #   post once per run (traffic streams and EngineStats are
    #   commutative sums);
    # * tree verification and eviction draining keep their scalar
    #   position relative to every cache-state mutation.
    #
    # Counter-phase and MAC-phase state are disjoint (separate caches,
    # separate streams), which is what legalizes running all counter
    # work of a run before all MAC work, and the MAC work in a
    # :class:`MacStage` of its own.

    def _verify_counter_tree(self, leaf_index: int) -> None:
        """Tree walk for a counter fetch; designs may gate it (Fig. 20)."""
        self.bmt.verify_leaf(leaf_index)

    def _batch_counter_reads(self, sectors: np.ndarray) -> None:
        """Counter-read phase of a batched fill run."""
        if sectors.size == 0:
            return
        with self._prof.span("engine.counter_read", events=int(sectors.size)):
            lines, masks = self.layout.counter_locations(sectors)
            leaves = self.layout.bmt_leaf_indices(sectors)
            bounds = run_bounds(lines, masks)
            lines_l = lines.tolist()
            masks_l = masks.tolist()
            leaves_l = leaves.tolist()
            access_run = self.counter_cache.access_run_raw
            drain = self._drain_counter_evictions
            fetches = 0
            miss_sectors = 0
            for j in range(len(bounds) - 1):
                a = bounds[j]
                miss_mask, miss_count, evictions = access_run(
                    lines_l[a], masks_l[a], False, bounds[j + 1] - a
                )
                if miss_mask:
                    fetches += 1
                    miss_sectors += miss_count
                    self._verify_counter_tree(leaves_l[a])
                if evictions:
                    drain(evictions)
            if fetches:
                self.stats.counter_fetches += fetches
                self.traffic.record(
                    Stream.COUNTER_READ,
                    miss_sectors * self.layout.sector_bytes,
                    transactions=miss_sectors,
                )

    def _batch_counter_writes(self, sectors: np.ndarray) -> None:
        """Counter-write phase of a batched writeback run.

        Increments stay in event order (a minor overflow's side effects
        land exactly between its neighbours' increments); only the cache
        accesses of a same-location run are compressed, which is legal
        because increments never read cache state.
        """
        if sectors.size == 0:
            return
        with self._prof.span("engine.counter_write", events=int(sectors.size)):
            lines, masks = self.layout.counter_locations(sectors)
            leaves = self.layout.bmt_leaf_indices(sectors)
            bounds = run_bounds(lines, masks)
            sec_l = sectors.tolist()
            lines_l = lines.tolist()
            masks_l = masks.tolist()
            leaves_l = leaves.tolist()
            access_run = self.counter_cache.access_run_raw
            drain = self._drain_counter_evictions
            increment = self.counters.increment_fast
            fetches = 0
            miss_sectors = 0
            for j in range(len(bounds) - 1):
                a = bounds[j]
                b = bounds[j + 1]
                for s in sec_l[a:b]:
                    affected = increment(s)
                    if affected is not None:
                        self._reencrypt_group(affected)
                miss_mask, miss_count, evictions = access_run(
                    lines_l[a], masks_l[a], True, b - a
                )
                if miss_mask:
                    fetches += 1
                    miss_sectors += miss_count
                    self._verify_counter_tree(leaves_l[a])
                if evictions:
                    drain(evictions)
            if fetches:
                self.stats.counter_fetches += fetches
                self.traffic.record(
                    Stream.COUNTER_READ,
                    miss_sectors * self.layout.sector_bytes,
                    transactions=miss_sectors,
                )

    def warm_counters_batch(self, sector_indices, passes: int = 1) -> None:
        """Vectorized counter warmup.

        When no minor counter can overflow across all passes, the
        per-sector totals are order-free and apply in one bulk pass;
        otherwise the exact pass-major scalar order replays (overflow
        side effects depend on interleaving).
        """
        if passes <= 0:
            return
        sectors = np.asarray(sector_indices, dtype=np.int64)
        if sectors.size == 0:
            return
        if int(sectors.min()) < 0:
            # Match the scalar error behavior (increment raises on the
            # first negative index, after earlier warms applied).
            PartitionEngine.warm_counters_batch(
                self, sectors.tolist(), passes
            )
            return
        uniq, counts = np.unique(sectors, return_counts=True)
        uniq_l = uniq.tolist()
        totals = (counts * int(passes)).tolist()
        if self.counters.bulk_increment_safe(uniq_l, totals):
            self.counters.bulk_increment(uniq_l, totals)
            return
        increment = self.counters.increment_fast
        sec_l = sectors.tolist()
        for _ in range(passes):
            for s in sec_l:
                increment(s)

    # -- lifecycle -------------------------------------------------------------------

    def warm_counters(self, sector_index: int) -> None:
        """Pre-window write: advance the split counter silently."""
        self.counters.increment(sector_index)

    def finalize(self) -> None:
        """Flush all dirty metadata (counters, MACs, tree nodes)."""
        self.finalize_counters()
        self.mac_stage.finalize()

    def finalize_counters(self) -> None:
        """Flush dirty counters and tree nodes (MAC state untouched)."""
        self._drain_counter_evictions(self.counter_cache.flush())
        self.bmt.flush()

    def _state_summary(self) -> List:
        summary = super()._state_summary()
        summary.append(self.counter_cache.state_summary())
        summary.append(self.mac_cache.state_summary())
        summary.append(self.bmt_cache.state_summary())
        summary.append(self.counters.state_summary())
        summary.append(self.bmt.root_verifications)
        return summary

    def obs_snapshot(self) -> Dict[str, int]:
        """Shared cumulative quantities (see :meth:`PartitionEngine.obs_snapshot`)."""
        return {
            "fills": self.stats.fills,
            "writebacks": self.stats.writebacks,
            "counter_fetches": self.stats.counter_fetches,
            "mac_fetches": self.stats.mac_fetches,
            "minor_overflows": self.stats.minor_overflows,
        }
