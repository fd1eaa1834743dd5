"""The Plutus value cache (paper Section IV-C).

A small, fully-associative, per-partition store of recently seen 32-bit
values. Incoming plaintext is carved into 32-bit values whose upper 28
bits (the 4 LSBs are masked to catch near values) probe the cache; a
16-byte AES-XTS cipher-block unit counts as verified when at least
``hits_required`` of its four values hit, and a 32-byte sector is
verified when both of its units are. Verified sectors skip the MAC fetch
altogether.

Entries split into a *transient* region (LRU-replaced) and a *pinned*
region (25% of capacity, never replaced once pinned). A 4-bit frequency
counter per entry promotes hot transient values into the pinned region;
pinned hits are what make a *write* provably verifiable at its next read
(pinned values are guaranteed to still be resident).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.bitops import mask_low_bits
from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class ValueCacheConfig:
    """Tunables of the value cache (paper defaults in Table II)."""

    entries: int = 256
    value_bits: int = 32
    mask_bits: int = 4
    freq_bits: int = 4
    pinned_fraction: float = 0.25
    #: Minimum value-cache hits per 128-bit unit for verification (the
    #: solution of Eq. 1 with K=256, M=28: x = 3 of n = 4).
    hits_required: int = 3
    values_per_unit: int = 4
    #: Frequency count at which a transient entry is pinned.
    pin_threshold: int = 15

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ConfigurationError("value cache needs entries")
        if not 0 <= self.pinned_fraction < 1:
            raise ConfigurationError("pinned fraction must be in [0, 1)")
        if not 0 < self.hits_required <= self.values_per_unit:
            raise ConfigurationError("hits_required outside unit size")
        if self.pin_threshold > (1 << self.freq_bits) - 1:
            # probe() saturates the counter there: higher never pins.
            raise ConfigurationError("pin threshold exceeds frequency counter")

    @property
    def pinned_capacity(self) -> int:
        return int(self.entries * self.pinned_fraction)

    @property
    def transient_capacity(self) -> int:
        return self.entries - self.pinned_capacity

    @property
    def effective_value_bits(self) -> int:
        """Bits that participate in matching (28 for the paper's config)."""
        return self.value_bits - self.mask_bits

    @property
    def storage_bytes(self) -> int:
        """On-chip cost: value bits + frequency counter per entry."""
        bits = self.entries * (self.value_bits + self.freq_bits)
        return (bits + 7) // 8


@dataclass
class ValueCacheStats:
    """Probe/verification statistics for one value cache."""

    probes: int = 0
    hits: int = 0
    pinned_hits: int = 0
    sectors_checked: int = 0
    sectors_verified: int = 0
    sectors_failed: int = 0
    promotions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.probes if self.probes else 0.0

    @property
    def sector_verify_rate(self) -> float:
        return (
            self.sectors_verified / self.sectors_checked
            if self.sectors_checked
            else 0.0
        )


@dataclass(frozen=True)
class UnitCheck:
    """Verification outcome of one 128-bit cipher-block unit."""

    hits: int
    pinned_hits: int
    passed: bool
    all_hits_pinned: bool


class ValueCache:
    """Fully-associative value store with pinned and transient regions."""

    def __init__(self, config: ValueCacheConfig = ValueCacheConfig()) -> None:
        self.config = config
        self.stats = ValueCacheStats()
        #: Transient region: masked value -> frequency, in LRU order.
        self._transient: "OrderedDict[int, int]" = OrderedDict()
        #: Pinned region: masked value -> frequency (never evicted).
        self._pinned: Dict[int, int] = {}
        #: Region sizes, fixed by the frozen config; read on every call.
        self._pinned_capacity = config.pinned_capacity
        self._transient_capacity = config.transient_capacity

    def _key(self, value: int) -> int:
        return mask_low_bits(value & ((1 << self.config.value_bits) - 1),
                             self.config.mask_bits)

    def __len__(self) -> int:
        return len(self._transient) + len(self._pinned)

    def probe(self, value: int) -> Tuple[bool, bool]:
        """Look up one value; returns (hit, hit_was_pinned).

        A hit refreshes LRU position and bumps the frequency counter
        (saturating), possibly promoting the entry into the pinned
        region when there is pinned capacity left.
        """
        key = self._key(value)
        self.stats.probes += 1
        if key in self._pinned:
            self.stats.hits += 1
            self.stats.pinned_hits += 1
            return True, True
        if key in self._transient:
            self.stats.hits += 1
            freq = min(self._transient[key] + 1, (1 << self.config.freq_bits) - 1)
            self._transient[key] = freq
            self._transient.move_to_end(key)
            if (
                freq >= self.config.pin_threshold
                and len(self._pinned) < self._pinned_capacity
            ):
                self._pinned[key] = self._transient.pop(key)
                self.stats.promotions += 1
            return True, False
        return False, False

    def observe(self, value: int) -> None:
        """Record a value seen on a read or write (insert if absent)."""
        key = self._key(value)
        if key in self._pinned:
            return
        if key in self._transient:
            self._transient.move_to_end(key)
            return
        if len(self._transient) >= self._transient_capacity:
            self._transient.popitem(last=False)
        self._transient[key] = 1

    def observe_many(self, values: Iterable[int]) -> None:
        """Record every value of a sector (insertion order preserved)."""
        for v in values:
            self.observe(v)

    def check_unit(self, values: Sequence[int]) -> UnitCheck:
        """Probe one 128-bit unit's four values against the cache."""
        if len(values) != self.config.values_per_unit:
            raise ValueError(
                f"unit must contain {self.config.values_per_unit} values"
            )
        hits = 0
        pinned = 0
        for v in values:
            hit, was_pinned = self.probe(v)
            if hit:
                hits += 1
                if was_pinned:
                    pinned += 1
        passed = hits >= self.config.hits_required
        return UnitCheck(
            hits=hits,
            pinned_hits=pinned,
            passed=passed,
            all_hits_pinned=passed and pinned >= self.config.hits_required,
        )

    def verify_sector(self, values: Sequence[int]) -> bool:
        """Value-verify a 32-byte sector (two 128-bit units).

        Every unit must pass independently — a tampered ciphertext block
        randomizes exactly one 16-byte unit, so a single passing unit
        says nothing about its neighbour (paper: "both halves need to
        satisfy this").
        """
        per_unit = self.config.values_per_unit
        if len(values) % per_unit != 0:
            raise ValueError("sector values must fill whole units")
        self.stats.sectors_checked += 1
        for i in range(0, len(values), per_unit):
            if not self.check_unit(values[i : i + per_unit]).passed:
                self.stats.sectors_failed += 1
                return False
        self.stats.sectors_verified += 1
        return True

    def write_verifiable(self, values: Sequence[int]) -> bool:
        """Will this written sector pass value verification at next read?

        Guaranteed only when every unit passes using *pinned* hits —
        pinned entries cannot be evicted, so they will still be resident
        when the sector returns from memory (paper Fig. 11, right).
        Probes here do not touch stats or LRU state: this is the write
        path's side-band check.
        """
        per_unit = self.config.values_per_unit
        if len(values) % per_unit != 0:
            raise ValueError("sector values must fill whole units")
        for i in range(0, len(values), per_unit):
            pinned_hits = sum(
                1
                for v in values[i : i + per_unit]
                if self._key(v) in self._pinned
            )
            if pinned_hits < self.config.hits_required:
                return False
        return True

    def pinned_values(self) -> List[int]:
        """Masked values currently pinned (diagnostics/tests)."""
        return list(self._pinned)

    # -- batch replay support (pre-masked keys) -------------------------------
    #
    # The batch replay path derives the masked probe keys for a whole
    # run with one numpy pass (see :meth:`mask_keys`) and then drives
    # the cache through one call per run. Each run loop replays, sector
    # by sector, exactly the dict operations of the scalar methods
    # (verify_sector then observe_many for a fill; observe_many then
    # write_verifiable for a writeback) in the same order, so state,
    # LRU order and statistics stay byte-identical; the per-value
    # ``_key()`` calls, the UnitCheck allocations and the per-sector
    # attribute lookups are gone. Masking a key again is a no-op, so
    # the scalar methods accept keys too and stay the oracle.

    def mask_keys(self, values: Sequence[int]) -> List[int]:
        """Masked probe keys for raw 32-bit values (order preserved)."""
        return [self._key(v) for v in values]

    def fill_run(
        self, keys_list: Sequence[Optional[Sequence[int]]]
    ) -> Tuple[List[bool], int, int]:
        """Value-verify then train on each sector of a fill run.

        *keys_list* holds each sector's masked keys, or None for a
        sector without an image (it needs its MAC). Returns the rows
        whose MAC must be fetched, the number of sectors verified by
        value and the number that failed the check.
        """
        cfg = self.config
        per_unit = cfg.values_per_unit
        need = cfg.hits_required
        freq_cap = (1 << cfg.freq_bits) - 1
        pin_at = cfg.pin_threshold
        pin_cap = self._pinned_capacity
        cap = self._transient_capacity
        pinned = self._pinned
        transient = self._transient
        get = transient.get
        move = transient.move_to_end
        evict = transient.popitem
        probes = hits_total = pinned_total = promotions = 0
        verified = failed = 0
        rows: List[bool] = []
        append = rows.append
        for keys in keys_list:
            if keys is None:
                append(True)
                continue
            nkeys = len(keys)
            if nkeys % per_unit:
                raise ValueError("sector values must fill whole units")
            passed = True
            for start in range(0, nkeys, per_unit):
                hits = 0
                for key in keys[start:start + per_unit]:
                    probes += 1
                    if key in pinned:
                        hits += 1
                        pinned_total += 1
                        continue
                    freq = get(key)
                    if freq is None:
                        continue
                    hits += 1
                    freq = freq + 1 if freq < freq_cap else freq_cap
                    if freq >= pin_at and len(pinned) < pin_cap:
                        del transient[key]
                        pinned[key] = freq
                        promotions += 1
                    else:
                        transient[key] = freq
                        move(key)
                hits_total += hits
                if hits < need:
                    passed = False
                    break  # verify_sector short-circuits here too
            if passed:
                verified += 1
            else:
                failed += 1
            append(not passed)
            for key in keys:  # observe_many
                if key in pinned:
                    continue
                if key in transient:
                    move(key)
                    continue
                if len(transient) >= cap:
                    evict(last=False)
                transient[key] = 1
        stats = self.stats
        stats.probes += probes
        stats.hits += hits_total
        stats.pinned_hits += pinned_total
        stats.promotions += promotions
        stats.sectors_checked += verified + failed
        stats.sectors_verified += verified
        stats.sectors_failed += failed
        return rows, verified, failed

    def writeback_run(
        self, keys_list: Sequence[Optional[Sequence[int]]]
    ) -> Tuple[List[bool], int]:
        """Train on each sector of a writeback run, then check it.

        Returns the rows whose MAC must be written (no image, or not
        provably verifiable at the next read) and the number of MAC
        writes avoided.
        """
        cfg = self.config
        per_unit = cfg.values_per_unit
        need = cfg.hits_required
        cap = self._transient_capacity
        pinned = self._pinned
        transient = self._transient
        move = transient.move_to_end
        evict = transient.popitem
        avoided = 0
        rows: List[bool] = []
        append = rows.append
        for keys in keys_list:
            if keys is None:
                append(True)
                continue
            nkeys = len(keys)
            if nkeys % per_unit:
                raise ValueError("sector values must fill whole units")
            for key in keys:  # observe_many
                if key in pinned:
                    continue
                if key in transient:
                    move(key)
                    continue
                if len(transient) >= cap:
                    evict(last=False)
                transient[key] = 1
            # write_verifiable: every unit needs enough pinned hits.
            verifiable = True
            for start in range(0, nkeys, per_unit):
                hits = 0
                for key in keys[start:start + per_unit]:
                    if key in pinned:
                        hits += 1
                if hits < need:
                    verifiable = False
                    break
            if verifiable:
                avoided += 1
            append(not verifiable)
        return rows, avoided

    def state_summary(self):
        """Canonical full-state value for differential comparison.

        Transient entries keep their LRU (insertion) order — it decides
        future evictions — while the pinned dict is sorted: pinned
        entries are never evicted or ordered, so key insertion order
        carries no semantics there.
        """
        st = self.stats
        return (
            list(self._transient.items()),
            sorted(self._pinned.items()),
            (st.probes, st.hits, st.pinned_hits, st.sectors_checked,
             st.sectors_verified, st.sectors_failed, st.promotions),
        )
