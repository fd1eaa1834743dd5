"""The object-path BMT traversal, the reference the raw-path walks are checked against.

This is the cached verify/update walk written against
:meth:`~repro.mem.cache.SectoredCache.access`: every level builds an
:class:`~repro.mem.cache.AccessResult`, every node address goes through
:meth:`~repro.metadata.bmt.BmtGeometry.node_address` and its range
checks, and evictions propagate through
:meth:`~repro.metadata.bmt.BmtGeometry.locate`. It is slow and kept only
as a test oracle: :class:`repro.metadata.bmt.BmtTraversal` must leave
the cache, the traffic and ``root_verifications`` exactly as
:class:`ReferenceBmtTraversal` does for every sequence of calls.
"""

from __future__ import annotations

from typing import Tuple

from repro.common.errors import ConfigurationError
from repro.mem.cache import SectoredCache
from repro.mem.traffic import Stream, TrafficCounter
from repro.metadata.bmt import BmtGeometry


class ReferenceBmtTraversal:
    """Cache-filtered verification and (lazy or eager) update walks."""

    def __init__(
        self,
        geometry: BmtGeometry,
        cache: SectoredCache,
        traffic: TrafficCounter,
        read_stream: Stream = Stream.BMT_READ,
        write_stream: Stream = Stream.BMT_WRITE,
        lazy_update: bool = True,
    ) -> None:
        cfg = cache.config
        if geometry.node_bytes % cfg.sector_bytes or (
            cfg.line_bytes % geometry.node_bytes
        ):
            raise ConfigurationError(
                "node must be whole sectors that divide the cache line"
            )
        self.geometry = geometry
        self.cache = cache
        self.traffic = traffic
        self.read_stream = read_stream
        self.write_stream = write_stream
        self.lazy_update = lazy_update
        self.root_verifications = 0

    def _line_and_mask(self, byte_addr: int) -> Tuple[int, int]:
        """Cache line address and sector mask covering one tree node."""
        cfg = self.cache.config
        line_addr = byte_addr - (byte_addr % cfg.line_bytes)
        first_sector = (byte_addr % cfg.line_bytes) // cfg.sector_bytes
        sectors = self.geometry.node_bytes // cfg.sector_bytes
        mask = ((1 << sectors) - 1) << first_sector
        return line_addr, mask

    def _writeback(self, evictions) -> None:
        """Lazy update: a dirty node leaving the cache updates its parent."""
        cfg = self.cache.config
        for ev in evictions:
            self.traffic.record(
                self.write_stream,
                ev.dirty_sector_count * cfg.sector_bytes,
                transactions=ev.dirty_sector_count,
            )
            if not self.lazy_update:
                continue
            seen_offsets = set()
            for s in range(cfg.sectors_per_line):
                if not (ev.dirty_mask >> s) & 1:
                    continue
                byte_addr = ev.line_addr + s * cfg.sector_bytes
                node_base = byte_addr - (byte_addr % self.geometry.node_bytes)
                if node_base in seen_offsets:
                    continue
                seen_offsets.add(node_base)
                try:
                    level, node = self.geometry.locate(node_base)
                except ValueError:
                    continue
                if level + 1 >= self.geometry.root_level:
                    continue  # parent is the on-chip root
                parent_leaf = node * (self.geometry.arity**level)
                self._touch_node(parent_leaf, level + 1, dirty=True)

    def _touch_node(self, leaf_index: int, level: int, dirty: bool) -> None:
        addr = self.geometry.node_address(leaf_index, level)
        line, mask = self._line_and_mask(addr)
        result = self.cache.access(line, mask, write=dirty)
        if result.miss_mask:
            self.traffic.record(
                self.read_stream,
                result.miss_sector_count * self.cache.config.sector_bytes,
                transactions=result.miss_sector_count,
            )
        self._writeback(result.evictions)

    def verify_leaf(self, leaf_index: int) -> int:
        fetched = 0
        for level in range(1, self.geometry.root_level + 1):
            if level == self.geometry.root_level:
                self.root_verifications += 1
                break
            addr = self.geometry.node_address(leaf_index, level)
            line, mask = self._line_and_mask(addr)
            result = self.cache.access(line, mask, write=False)
            if result.miss_mask:
                fetched += 1
                self.traffic.record(
                    self.read_stream,
                    result.miss_sector_count * self.cache.config.sector_bytes,
                    transactions=result.miss_sector_count,
                )
                self._writeback(result.evictions)
                continue
            self._writeback(result.evictions)
            break
        return fetched

    def update_leaf(self, leaf_index: int) -> None:
        if self.geometry.root_level == 1:
            return
        if self.lazy_update:
            self.verify_leaf(leaf_index)
            self._touch_node(leaf_index, 1, dirty=True)
            return
        sectors = self.geometry.node_bytes // self.cache.config.sector_bytes
        for level in range(1, self.geometry.root_level):
            self._touch_node(leaf_index, level, dirty=True)
            self.traffic.record(
                self.write_stream,
                sectors * self.cache.config.sector_bytes,
                transactions=sectors,
            )

    def update_leaves(self, leaf_indices) -> None:
        """The uncoalesced form: one :meth:`update_leaf` per leaf."""
        for leaf_index in leaf_indices:
            self.update_leaf(leaf_index)

    def flush(self) -> None:
        while True:
            dirty = self.cache.flush()
            if not dirty:
                break
            self._writeback(dirty)
