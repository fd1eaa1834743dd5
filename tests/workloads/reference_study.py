"""The per-value Fig. 9 study, the reference the two-LRU pass is checked against.

This is the paper's three-scenario study driven through three
:class:`~repro.secure.value_cache.ValueCache` objects, one
``probe()``/``observe()`` call per 32-bit value. It is slow and kept
only as a test oracle: ``repro.workloads.values.study_trace_values``
must report exactly what :func:`reference_study_trace_values` does.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.common.bitops import split_values
from repro.secure.value_cache import ValueCache, ValueCacheConfig


class ValueReuseStudy:
    """Paper Fig. 8/9: three ways of counting sector-level value reuse.

    A 2 kB study cache (512 x 32-bit values, the paper's per-partition
    analysis configuration) observes every accessed sector. A sector
    counts as *reused* under:

    * ``full`` — all eight 32-bit values hit;
    * ``halves`` — each 16-byte half has >= 3 of its 4 values hit;
    * ``masked`` — as ``halves`` with the 4 LSBs of every value masked.
    """

    SCENARIOS = ("full", "halves", "masked")

    def __init__(self, cache_entries: int = 512) -> None:
        def make_cache(mask_bits: int) -> ValueCache:
            return ValueCache(
                ValueCacheConfig(
                    entries=cache_entries,
                    mask_bits=mask_bits,
                    pinned_fraction=0.0,
                    hits_required=3,
                )
            )

        self._caches: Dict[str, ValueCache] = {
            "full": make_cache(0),
            "halves": make_cache(0),
            "masked": make_cache(4),
        }
        self.sectors_seen = 0
        self.reused: Dict[str, int] = {s: 0 for s in self.SCENARIOS}

    def observe_sector(self, image: bytes, is_read: bool = True) -> None:
        """Process one sector access exactly as the paper's study does:
        reads are checked for reuse before insertion; all accesses insert."""
        values = split_values(image, 4)
        self.sectors_seen += 1 if is_read else 0
        for scenario, cache in self._caches.items():
            if is_read:
                if self._check(scenario, cache, values):
                    self.reused[scenario] += 1
            cache.observe_many(values)

    @staticmethod
    def _check(scenario: str, cache: ValueCache, values: Sequence[int]) -> bool:
        if scenario == "full":
            hits = sum(1 for v in values if cache.probe(v)[0])
            return hits == len(values)
        for half in (values[:4], values[4:]):
            hits = sum(1 for v in half if cache.probe(v)[0])
            if hits < 3:
                return False
        return True

    def reuse_fraction(self, scenario: str) -> float:
        if scenario not in self.reused:
            raise KeyError(f"unknown scenario {scenario!r}")
        if self.sectors_seen == 0:
            return 0.0
        return self.reused[scenario] / self.sectors_seen

    def report(self) -> Dict[str, float]:
        return {s: self.reuse_fraction(s) for s in self.SCENARIOS}


def reference_study_trace_values(
    trace, cache_entries: int = 512
) -> Dict[str, float]:
    """Run the three-scenario reuse study over a trace's sector images."""
    study = ValueReuseStudy(cache_entries=cache_entries)
    for access in trace:
        if access.values is None:
            continue
        for _slot, image in access.values:
            study.observe_sector(image, is_read=not access.write)
    return study.report()
