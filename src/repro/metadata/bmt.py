"""Bonsai Merkle Tree geometry and cached traversal.

The BMT protects the freshness of the encryption counters: its leaves
are counter blocks, every tree node is a block of 8-byte hashes of its
children, and the root stays on-chip. Two concerns are separated here:

* :class:`BmtGeometry` — pure arithmetic: level sizes, parent/child
  indices, node addresses in a flat metadata space, total storage. This
  is where the paper's granularity trade-off lives: shrinking the node
  from 128 B to 32 B quarters the arity, which grows the tree taller and
  larger (145.125 kB -> 1.33 MB per GPU in the paper's Section IV-F) but
  makes every fetch a single 32 B transaction.
* :class:`BmtTraversal` — the cached walk: verification climbs from the
  leaf's parent until the first cache hit (a hit is trusted, as if it
  were the root); updates follow the *lazy* scheme, dirtying the lowest
  node and propagating hashes upward only when dirty nodes are evicted.
  An eager variant is provided for the ablation study.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple

from repro.common.errors import ConfigurationError
from repro.common.bitops import popcount
from repro.mem.cache import SectoredCache
from repro.mem.traffic import Stream, TrafficCounter
from repro.obs.session import active as _obs_active


@dataclass(frozen=True)
class BmtGeometry:
    """Shape of one partition's integrity tree."""

    num_leaves: int
    arity: int = 16
    node_bytes: int = 128
    hash_bytes: int = 8

    def __post_init__(self) -> None:
        if self.num_leaves <= 0:
            raise ConfigurationError("tree needs at least one leaf")
        if self.arity < 2:
            raise ConfigurationError("arity must be at least 2")
        if self.node_bytes < self.arity * self.hash_bytes:
            raise ConfigurationError(
                f"{self.node_bytes} B node cannot hold {self.arity} "
                f"hashes of {self.hash_bytes} B"
            )

    # Geometry is immutable, and the traversal consults these on every
    # cache access, so the derived shapes are memoized (cached_property
    # writes the instance __dict__ directly, which a frozen dataclass
    # permits).

    @cached_property
    def level_sizes(self) -> Tuple[int, ...]:
        """Node counts for levels 1..root (level 0 = leaves, excluded).

        Level h has ceil(leaves / arity^h) nodes; the list ends at the
        first level with a single node, the on-chip root.
        """
        sizes: List[int] = []
        count = self.num_leaves
        while count > 1:
            count = (count + self.arity - 1) // self.arity
            sizes.append(count)
        if not sizes:
            sizes.append(1)  # degenerate single-leaf tree: root only
        return tuple(sizes)

    @cached_property
    def height(self) -> int:
        """Number of tree levels above the leaves (root included)."""
        return len(self.level_sizes)

    @cached_property
    def root_level(self) -> int:
        """1-based level index of the root."""
        return self.height

    @cached_property
    def total_nodes(self) -> int:
        return sum(self.level_sizes)

    @cached_property
    def _level_bases(self) -> Tuple[int, ...]:
        """Byte offset of each level's first node (index 0 = level 1)."""
        bases: List[int] = []
        offset = 0
        for size in self.level_sizes:
            bases.append(offset)
            offset += size * self.node_bytes
        return tuple(bases)

    @cached_property
    def walk(self) -> Tuple[Tuple[int, int], ...]:
        """``(byte base, arity**level)`` of each stored level, leaf to root.

        Levels 1 to ``root_level - 1``: the on-chip root is never
        fetched. A leaf's ancestor at the i-th level sits at
        ``base + leaf // divisor * node_bytes``.
        """
        return tuple(
            (self._level_bases[level - 1], self.arity**level)
            for level in range(1, self.root_level)
        )

    @property
    def storage_bytes(self) -> int:
        """Off-chip storage of the tree (the root is counted too; it is
        one node and keeping it simplifies the comparison with the
        paper's storage figures)."""
        return self.total_nodes * self.node_bytes

    def node_index(self, leaf_index: int, level: int) -> int:
        """Ancestor node index of *leaf_index* at 1-based *level*."""
        if not 0 <= leaf_index < self.num_leaves:
            raise ValueError(f"leaf {leaf_index} out of range")
        if not 1 <= level <= self.root_level:
            raise ValueError(f"level {level} out of range")
        return leaf_index // (self.arity**level)

    def level_base_bytes(self, level: int) -> int:
        """Byte offset of a level's first node in the flat BMT space."""
        bases = self._level_bases
        if not 1 <= level <= len(bases):
            raise ValueError(f"level {level} out of range")
        return bases[level - 1]

    def node_address(self, leaf_index: int, level: int) -> int:
        """Byte address of the ancestor node in the flat BMT space."""
        return (
            self.level_base_bytes(level)
            + self.node_index(leaf_index, level) * self.node_bytes
        )

    def locate(self, byte_offset: int) -> Tuple[int, int]:
        """Inverse of :meth:`node_address`: (level, node_index)."""
        bases = self._level_bases
        level = bisect_right(bases, byte_offset)
        node = (byte_offset - bases[level - 1]) // self.node_bytes
        if node >= self.level_sizes[level - 1]:
            raise ValueError(f"offset {byte_offset:#x} beyond tree storage")
        return level, node


class BmtTraversal:
    """Cache-filtered verification and (lazy or eager) update walks.

    The traversal owns a sectored cache of tree nodes and a reference to
    the partition's traffic counter. Because a node is the hashing unit
    of its parent, a node miss fetches ``node_bytes`` — whole 128 B lines
    in the classic design, single 32 B sectors in Plutus's fine-grained
    design. That asymmetry is the entire Fig. 16 experiment.

    Every walk runs on the cache's raw path
    (:meth:`~repro.mem.cache.SectoredCache.access_run_raw`): node
    addresses come from the geometry's precomputed :attr:`BmtGeometry.walk`
    pairs, read traffic posts once per walk, and only a dirty eviction
    allocates anything. The object-path walk it must match access for
    access is kept as a test oracle (``tests/metadata/reference_bmt.py``).
    """

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
        node_bytes = geometry.node_bytes
        if node_bytes % cfg.sector_bytes or cfg.line_bytes % node_bytes:
            raise ConfigurationError(
                f"{node_bytes} B node is not a whole number of "
                f"{cfg.sector_bytes} B sectors dividing the "
                f"{cfg.line_bytes} B cache line"
            )
        self.geometry = geometry
        self.cache = cache
        self.traffic = traffic
        self.read_stream = read_stream
        self.write_stream = write_stream
        self.lazy_update = lazy_update
        #: Number of verification walks that reached the root.
        self.root_verifications = 0
        # Walk constants. A node is node_sectors whole sectors and never
        # straddles a line (it divides the line, and every level starts
        # on a node boundary).
        self._access = cache.access_run_raw
        table = cache.popcounts
        self._popcount = table.__getitem__ if table is not None else popcount
        self._walk = geometry.walk
        self._num_leaves = geometry.num_leaves
        self._bases = geometry._level_bases
        self._sizes = geometry.level_sizes
        self._sector_bytes = cfg.sector_bytes
        self._line_bytes = cfg.line_bytes
        self._node_bytes = node_bytes
        self._node_sectors = node_bytes // cfg.sector_bytes
        self._node_mask = (1 << self._node_sectors) - 1
        #: (byte offset, sector mask) of each node slot of a line.
        self._line_nodes = tuple(
            (k * node_bytes, self._node_mask << (k * self._node_sectors))
            for k in range(cfg.line_bytes // node_bytes)
        )
        # Observability: histogram of fetched-levels per verification
        # walk, keyed by tree family (original "bmt" vs compact mirror
        # "compact_bmt") so the profile dashboard can show how deep
        # walks actually go before hitting a cached node.
        obs = _obs_active()
        self._family = (
            "compact_bmt"
            if read_stream is Stream.COMPACT_BMT_READ
            else "bmt"
        )
        if obs.config.metrics_active:
            self._h_verify_depth = obs.registry.histogram(
                f"{self._family}.verify_depth",
                bounds=tuple(range(0, max(2, geometry.root_level) + 1)),
            )
        else:
            self._h_verify_depth = None
        # Per-walk spans only under span_detail profiling (a clock pair
        # per traversal); None keeps the hot path at one attribute check.
        self._prof = (
            obs.profiler if obs.config.span_detail_active else None
        )

    def _check_leaf(self, leaf_index: int) -> None:
        if not 0 <= leaf_index < self._num_leaves:
            raise ValueError(f"leaf {leaf_index} out of range")

    # -- node accesses -----------------------------------------------------

    def _touch(self, node_addr: int, dirty: bool) -> None:
        """Bring one node into the cache, optionally dirtying it."""
        offset = node_addr % self._line_bytes
        _, misses, evictions = self._access(
            node_addr - offset,
            self._node_mask << (offset // self._sector_bytes),
            dirty,
            1,
        )
        if misses:
            self.traffic.record(
                self.read_stream,
                misses * self._sector_bytes,
                transactions=misses,
            )
        if evictions:
            self._writeback(evictions)

    def _writeback(self, evictions) -> None:
        """Lazy update: a dirty node leaving the cache updates its parent."""
        sector_bytes = self._sector_bytes
        for ev in evictions:
            line_addr = ev.line_addr
            dirty = ev.dirty_mask
            count = self._popcount(dirty)
            self.traffic.record(
                self.write_stream, count * sector_bytes, transactions=count
            )
            if not self.lazy_update:
                continue  # eager mode already updated ancestors on write
            # Each dirty node of the line, in address order, dirties its
            # parent unless that parent is the on-chip root.
            bases = self._bases
            root_child = len(bases) - 1  # the level whose parent is the root
            for offset, mask in self._line_nodes:
                if not dirty & mask:
                    continue
                node_addr = line_addr + offset
                level = bisect_right(bases, node_addr)
                if level >= root_child:
                    continue  # parent is the on-chip root: updated in place
                node = (node_addr - bases[level - 1]) // self._node_bytes
                if node >= self._sizes[level - 1]:
                    continue  # beyond the tree's storage
                self._touch(
                    bases[level]
                    + node // self.geometry.arity * self._node_bytes,
                    True,
                )

    # -- public walks ------------------------------------------------------

    def verify_leaf(self, leaf_index: int) -> int:
        """Verify a freshly fetched leaf (counter block).

        Climbs from the leaf's parent toward the root, stopping at the
        first cached (already-verified) node. Returns the number of tree
        levels that had to be fetched from memory.
        """
        if self._prof is None:
            return self._verify_leaf(leaf_index)
        with self._prof.span(f"{self._family}.verify"):
            fetched = self._verify_leaf(leaf_index)
            self._prof.add("levels_fetched", fetched)
            return fetched

    def _verify_leaf(self, leaf_index: int) -> int:
        walk = self._walk
        if walk:
            self._check_leaf(leaf_index)
        access = self._access
        line_bytes = self._line_bytes
        sector_bytes = self._sector_bytes
        node_bytes = self._node_bytes
        node_mask = self._node_mask
        fetched = missed = 0
        for base, divisor in walk:
            addr = base + leaf_index // divisor * node_bytes
            offset = addr % line_bytes
            miss_mask, misses, evictions = access(
                addr - offset, node_mask << (offset // sector_bytes),
                False, 1,
            )
            if evictions:
                self._writeback(evictions)
            if not miss_mask:
                # Full hit: node already verified earlier; chain trusted.
                break
            # A fetched node must itself be verified: go up.
            fetched += 1
            missed += misses
        else:
            self.root_verifications += 1
        if missed:
            self.traffic.record(
                self.read_stream, missed * sector_bytes, transactions=missed
            )
        if self._h_verify_depth is not None:
            self._h_verify_depth.record(fetched)
        return fetched

    def update_leaf(self, leaf_index: int) -> None:
        """Register a counter-block modification in the tree.

        Lazy mode dirties only the leaf's parent (after verifying the
        path needed to load it); hashes flow upward at eviction time.
        Eager mode rewrites the whole path to the root immediately.
        """
        if self._prof is None:
            self._update_leaf(leaf_index)
        else:
            with self._prof.span(f"{self._family}.update"):
                self._update_leaf(leaf_index)

    def _update_leaf(self, leaf_index: int) -> None:
        walk = self._walk
        if not walk:
            return  # parent is the root itself; nothing stored off-chip
        node_bytes = self._node_bytes
        if self.lazy_update:
            self.verify_leaf(leaf_index)
            base, divisor = walk[0]
            self._touch(base + leaf_index // divisor * node_bytes, True)
            return
        self._check_leaf(leaf_index)
        for base, divisor in walk:
            self._touch(base + leaf_index // divisor * node_bytes, True)
        # Eager: every node of the path is written through immediately.
        writes = len(walk) * self._node_sectors
        self.traffic.record(
            self.write_stream,
            writes * self._sector_bytes,
            transactions=writes,
        )

    def update_leaves(self, leaf_indices) -> None:
        """Lazy-update a run of leaves, coalescing shared ancestors.

        Consecutive leaves under the same level-1 parent repeat the same
        walk: once the parent is resident and dirty, every further
        update in the run is one full-hit verify (depth 0) plus one
        full-hit dirty touch. Those pairs are replayed as one two-access
        cache run — state-, traffic-, and stats-identical to
        :meth:`update_leaf`, which is why the eviction drains can route
        through here unconditionally. A probe guards the compressed
        form: if an interleaved eviction pushed the parent out, the
        full walk runs again.
        """
        if not self.lazy_update:
            # Eager mode rewrites whole paths and gains nothing from
            # coalescing.
            for leaf_index in leaf_indices:
                self.update_leaf(leaf_index)
            return
        walk = self._walk
        if not walk:
            return  # every update_leaf is a no-op
        base, divisor = walk[0]
        access = self._access
        probe = self.cache.probe
        line_bytes = self._line_bytes
        sector_bytes = self._sector_bytes
        node_bytes = self._node_bytes
        node_mask = self._node_mask
        prev_line = -1
        prev_mask = 0
        for leaf_index in leaf_indices:
            addr = base + leaf_index // divisor * node_bytes
            offset = addr % line_bytes
            line = addr - offset
            mask = node_mask << (offset // sector_bytes)
            if line == prev_line and mask == prev_mask:
                self._check_leaf(leaf_index)
                if not probe(line, mask)[1]:
                    # Parent fully resident: the verify is a full hit
                    # that evicts nothing, then the dirty touch hits
                    # the same line.
                    access(line, mask, True, 2)
                    if self._h_verify_depth is not None:
                        self._h_verify_depth.record(0)
                    continue
            self._update_leaf(leaf_index)
            prev_line = line
            prev_mask = mask

    def flush(self) -> None:
        """Drain dirty nodes (end of kernel), accounting their writes.

        Lazy propagation re-dirties parents while draining, so iterate
        until the cache comes back clean; each round moves strictly up
        the tree, so the loop terminates within ``height`` rounds.
        """
        while True:
            dirty = self.cache.flush()
            if not dirty:
                break
            self._writeback(dirty)
