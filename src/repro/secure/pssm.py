"""PSSM baseline engine (Yuan et al. [36]), the paper's comparison point.

Partitioned, sectored security metadata with counter-mode encryption:
every L2 read miss fetches and verifies the sector's split counter
(BMT-protected) and its MAC; every dirty writeback advances the counter,
recomputes the MAC, and lazily maintains the tree. Metadata blocks are
128 bytes — the coarse granularity whose over-fetch Plutus attacks.

The paper upgrades PSSM's 4-byte MACs to 8 bytes for a fair security
level ("8B-MAC-PSSM"); that is the default here, with ``mac_tag_bytes``
exposed for the 4-byte variant.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.mem.traffic import TrafficCounter
from repro.metadata.layout import GranularityDesign
from repro.secure.engine import MetadataCacheConfig, MetadataEngine


class PssmEngine(MetadataEngine):
    """The state-of-the-art sectored-metadata baseline."""

    name = "pssm"

    def __init__(
        self,
        partition_id: int,
        data_sectors: int,
        traffic: TrafficCounter,
        mac_tag_bytes: int = 8,
        design: GranularityDesign = GranularityDesign.BLOCK_128,
        cache_config: MetadataCacheConfig = MetadataCacheConfig(),
        lazy_update: bool = True,
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

    def on_fill(self, sector_index: int, values: Optional[bytes]) -> None:
        """Read miss: verified counter for the decrypt pad, MAC check."""
        self.stats.fills += 1
        self.counter_read(sector_index)
        self.mac_read(sector_index)

    def on_writeback(self, sector_index: int, values: Optional[bytes]) -> None:
        """Dirty eviction: counter bump, fresh MAC, lazy tree update."""
        self.stats.writebacks += 1
        self.counter_write(sector_index)
        self.mac_write(sector_index)

    # -- batch hooks (columnar path) --------------------------------------
    #
    # PSSM touches two disjoint metadata structures per event, so a run
    # splits into a counter phase and a MAC phase; each phase is the
    # shared vectorized replay from MetadataEngine. Values never matter
    # to this design, so the lazy value columns stay unmaterialized.

    batch_native = True

    def on_fill_batch(self, sector_indices, values) -> None:
        sectors = np.asarray(sector_indices, dtype=np.int64)
        self.stats.fills += int(sectors.size)
        self._batch_counter_reads(sectors)
        self.mac_stage.fill_run(sectors)

    def on_writeback_batch(self, sector_indices, values) -> None:
        sectors = np.asarray(sector_indices, dtype=np.int64)
        self.stats.writebacks += int(sectors.size)
        self._batch_counter_writes(sectors)
        self.mac_stage.writeback_run(sectors)
