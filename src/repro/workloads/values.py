"""Synthetic value models and the value-reuse study (paper Section III-B).

GPU kernels exhibit strong *value locality*: zero-initialized buffers,
repeated graph weights, saturated activations, near-identical floats.
:class:`ValueModel` synthesizes 32-byte sector images with controllable
locality so that workload profiles can be calibrated against the
paper's measured reuse levels (Fig. 9). :func:`study_trace_values`
runs the paper's three measurement scenarios over any trace in one
pass with two LRU recency maps, which is both the Fig. 9 reproduction
and the calibration instrument.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.rng import RngStream

#: Values over-represented in real GPU memory regardless of workload.
_UBIQUITOUS_VALUES = np.array(
    [0x00000000, 0xFFFFFFFF, 0x00000001, 0x3F800000,  # 0, -1, 1, 1.0f
     0xBF800000, 0x7F800000, 0x00000010, 0x80000000],
    dtype=np.uint32,
)


@dataclass(frozen=True)
class ValueModelConfig:
    """Locality knobs of a benchmark's data values."""

    #: Probability a generated sector is drawn from the hot value pool
    #: (whole-sector reuse, the dominant real-world mode).
    sector_reuse: float = 0.5
    #: Probability an individual value inside a non-reused sector still
    #: comes from the pool (partial reuse).
    value_reuse: float = 0.2
    #: Probability a pooled value is perturbed in its 4 masked LSBs
    #: (near-value locality the masked scenario captures).
    near_perturb: float = 0.3
    #: Distinct hot values in the workload (pool size).
    pool_size: int = 192
    #: Zipf skew of pool usage (higher = few values dominate).
    zipf_a: float = 1.2

    def __post_init__(self) -> None:
        for name in ("sector_reuse", "value_reuse", "near_perturb"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{name}={p} outside [0, 1]")
        if self.pool_size < len(_UBIQUITOUS_VALUES):
            raise ConfigurationError("pool too small for ubiquitous values")


class ValueModel:
    """Batch generator of sector images with calibrated value locality."""

    VALUES_PER_SECTOR = 8

    def __init__(self, config: ValueModelConfig, rng: RngStream) -> None:
        self.config = config
        self._rng = rng.child("values")
        pool = self._rng.integers(
            0, 1 << 32, size=config.pool_size
        ).astype(np.uint32)
        pool[: len(_UBIQUITOUS_VALUES)] = _UBIQUITOUS_VALUES
        self._pool = pool

    def sector_images(
        self, count: int, group_sizes: "Optional[Sequence[int]]" = None
    ) -> List[bytes]:
        """Generate *count* 32-byte images in one vectorized batch.

        ``group_sizes`` optionally partitions the images into coalesced
        accesses whose sectors share one reuse decision. Real value
        locality is spatially clustered — a zeroed or constant cache
        line repeats across *all* of its sectors — and that clustering
        is what lets a whole MAC sector's worth of fills be skipped.
        Without grouping, each sector draws independently.
        """
        if count <= 0:
            return []
        if group_sizes is not None and sum(group_sizes) != count:
            raise ConfigurationError("group sizes must sum to sector count")
        cfg = self.config
        n_values = count * self.VALUES_PER_SECTOR

        pool_idx = self._rng.zipf_bounded(cfg.zipf_a, cfg.pool_size, n_values)
        pooled = self._pool[pool_idx].copy()
        perturb = self._rng.random(n_values) < cfg.near_perturb
        deltas = self._rng.integers(0, 16, size=n_values).astype(np.uint32)
        pooled[perturb] = (pooled[perturb] & np.uint32(0xFFFFFFF0)) | (
            deltas[perturb] & np.uint32(0xF)
        )

        fresh = self._rng.integers(0, 1 << 32, size=n_values).astype(np.uint32)

        if group_sizes is None:
            sector_reused = self._rng.random(count) < cfg.sector_reuse
        else:
            group_reused = self._rng.random(len(group_sizes)) < cfg.sector_reuse
            sector_reused = np.repeat(group_reused, list(group_sizes))
        sector_is_reused = np.repeat(sector_reused, self.VALUES_PER_SECTOR)
        value_is_reused = self._rng.random(n_values) < cfg.value_reuse
        take_pool = sector_is_reused | value_is_reused
        values = np.where(take_pool, pooled, fresh).astype("<u4")

        flat = values.tobytes()
        return [flat[i * 32 : (i + 1) * 32] for i in range(count)]

    def sector_image(self) -> bytes:
        """Generate a single image (convenience for tests)."""
        return self.sector_images(1)[0]


_SECTOR_WORDS = struct.Struct("<8I")


def study_trace_values(trace, cache_entries: int = 512) -> Dict[str, float]:
    """Paper Fig. 8/9: the fraction of read sectors whose values recur.

    A 2 kB study cache (512 x 32-bit values, the paper's per-partition
    analysis configuration) observes every sector image of *trace*;
    reads are checked before the sector's values are inserted. A read
    counts as reused under ``full`` (all eight values hit), ``halves``
    (each 16-byte half has >= 3 of its 4 values hit) and ``masked``
    (``halves`` with the 4 LSBs of every value masked).

    Nothing is pinned, so the cache is a plain LRU and one pass over two
    recency maps is exact: ``exact`` (whole values) serves ``full`` and
    ``halves``, ``near`` (masked values) serves ``masked``. A probe hit
    only reorders a key the sector's own inserts touch again anyway.
    """
    if cache_entries <= 0:
        raise ConfigurationError("value cache needs entries")
    unpack = _SECTOR_WORDS.unpack
    exact: "OrderedDict[int, None]" = OrderedDict()
    near: "OrderedDict[int, None]" = OrderedDict()
    exact_touch, exact_evict = exact.move_to_end, exact.popitem
    near_touch, near_evict = near.move_to_end, near.popitem
    reads = full = halves = masked = 0
    for access in trace:
        images = access.values
        if images is None:
            continue
        is_read = not access.write
        for _slot, image in images:
            words = unpack(image)
            near_words = [w & 0xFFFFFFF0 for w in words]
            if is_read:
                reads += 1
                a, b, c, d, e, f, g, h = words
                low = (a in exact) + (b in exact) + (c in exact) + (d in exact)
                high = (e in exact) + (f in exact) + (g in exact) + (h in exact)
                if low + high == 8:
                    full += 1
                if low >= 3 and high >= 3:
                    halves += 1
                a, b, c, d, e, f, g, h = near_words
                if ((a in near) + (b in near) + (c in near) + (d in near) >= 3
                        and (e in near) + (f in near) + (g in near)
                        + (h in near) >= 3):
                    masked += 1
            for key in words:
                if key in exact:
                    exact_touch(key)
                else:
                    exact[key] = None
                    if len(exact) > cache_entries:
                        exact_evict(last=False)
            for key in near_words:
                if key in near:
                    near_touch(key)
                else:
                    near[key] = None
                    if len(near) > cache_entries:
                        near_evict(last=False)
    reads = reads or 1  # a trace without read sectors reports 0.0
    return {"full": full / reads, "halves": halves / reads,
            "masked": masked / reads}
