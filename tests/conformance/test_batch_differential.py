"""Batch-vs-scalar differential property suite.

The batch contract (``PartitionEngine.on_fill_batch`` and friends) is
that a batched call leaves the engine in *exactly* the state the
equivalent scalar sequence would — same traffic, same stats, same
internal structures. This suite checks the contract the strongest way
available: Hypothesis generates random single-partition traces and
random batch-boundary splits, both replays run to completion, and the
full observable surface is compared —

* ``TrafficCounter.state()`` (per-stream bytes and transactions),
* ``EngineStats`` equality, and
* ``PartitionEngine.state_digest()``, the sha256 of everything the
  engine's *future* behavior depends on (cache LRU orders, counter
  values, compact states, value-cache contents, ...).

The digest is the load-bearing half: two replays can agree on traffic
so far yet hold different internal state that diverges only on later
events; the digest catches the divergence at the first batched call.

Alongside the random properties, deterministic hammers pin the known
hard cases (minor-overflow re-encryption, compact-counter saturation,
the value cache's x-of-n verification bound), and the doctored-engine
tests prove the whole detection stack — this suite, the
``columnar-object-identity`` invariant, and ddmin shrinking — actually
fires when a batch hook is subtly wrong.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.conformance.fuzzer import generate_log, rebuild_log, shrink
from repro.conformance.invariants import results_equal
from repro.conformance.scalar import scalar_replay
from repro.gpu.columnar import EventKind, MemoryEvent
from repro.gpu.config import VOLTA
from repro.gpu.simulator import MemoryEventLog, replay_events, replay_matrix
from repro.harness.runner import engine_factories
from repro.mem.traffic import TrafficCounter
from repro.secure.pssm import PssmEngine
from repro.secure.value_cache import ValueCache

#: One partition's sector count on the reference GPU (Volta).
DATA_SECTORS = VOLTA.sectors_per_partition

#: Partition id is arbitrary but nonzero: common-counters salts its
#: initialization hash with it, so 0 would be a special case.
PARTITION = 3

#: Every roster design point, batch-native or not: the scalar-fallback
#: engines (recoverable) must satisfy the same contract trivially.
ENGINE_KEYS = (
    "nosec",
    "pssm",
    "common-counters",
    "plutus",
    "plutus:value-only",
    "compact:adaptive",
    "gran:32B-all",
    "recoverable",
    "pssm:4B-mac",
)

_FACTORIES = engine_factories()


def _hot_images():
    """A deterministic value pool with units on both sides of the
    3-of-4 verification bound (mirrors the value-bound fuzz pattern)."""
    rng = random.Random(0xBEEF)
    hot = [rng.getrandbits(32) for _ in range(3)]

    def image(hot_per_unit):
        words = []
        for _unit in range(2):
            picks = set(rng.sample(range(4), hot_per_unit))
            for slot in range(4):
                if slot in picks:
                    words.append((hot[rng.randrange(3)] & ~0xF)
                                 | rng.getrandbits(4))
                else:
                    words.append(rng.getrandbits(32))
        return b"".join(w.to_bytes(4, "little") for w in words)

    pool = [image(k) for k in (2, 3, 3, 4)]
    pool.append(hot[0].to_bytes(4, "little") * 8)  # fully hot
    pool.append(rng.getrandbits(256).to_bytes(32, "little"))  # cold
    return pool


VALUE_POOL = _hot_images()


# -- the two replays ---------------------------------------------------------


def _scalar_replay(key, events, passes):
    """Ground truth: the per-event hooks, in order."""
    traffic = TrafficCounter()
    engine = _FACTORIES[key](PARTITION, DATA_SECTORS, traffic)
    writebacks = [s for wb, s, _ in events if wb]
    for _ in range(passes):
        for sector in writebacks:
            engine.warm_counters(sector)
    for is_writeback, sector, value in events:
        if is_writeback:
            engine.on_writeback(sector, value)
        else:
            engine.on_fill(sector, value)
    engine.finalize()
    return engine.state_digest(), engine.stats, traffic.state()


def _batched_replay(key, events, passes, cuts):
    """The batch hooks over same-kind runs, split at *cuts*.

    *cuts* is a set of event indices where a run is forcibly broken,
    so the same trace is exercised under many different batch shapes —
    including degenerate length-1 batches.
    """
    traffic = TrafficCounter()
    engine = _FACTORIES[key](PARTITION, DATA_SECTORS, traffic)
    native = engine.batch_native

    writebacks = [s for wb, s, _ in events if wb]
    if writebacks and passes:
        if native:
            engine.warm_counters_batch(
                np.asarray(writebacks, dtype=np.int64), passes
            )
        else:
            engine.warm_counters_batch(writebacks, passes)

    start = 0
    for end in range(1, len(events) + 1):
        if (end < len(events) and events[end][0] == events[start][0]
                and end not in cuts):
            continue
        run = events[start:end]
        sectors = [s for _, s, _ in run]
        if native:
            sectors = np.asarray(sectors, dtype=np.int64)
        values = [v for _, _, v in run]
        if run[0][0]:
            engine.on_writeback_batch(sectors, values)
        else:
            engine.on_fill_batch(sectors, values)
        start = end
    engine.finalize()
    return engine.state_digest(), engine.stats, traffic.state()


def _assert_differential(key, events, passes, cuts):
    ref_digest, ref_stats, ref_traffic = _scalar_replay(key, events, passes)
    digest, stats, traffic = _batched_replay(key, events, passes, cuts)
    assert traffic == ref_traffic, f"{key}: traffic diverged"
    assert stats == ref_stats, f"{key}: engine stats diverged"
    assert digest == ref_digest, f"{key}: state digest diverged"


# -- hypothesis strategies ---------------------------------------------------


@st.composite
def traces(draw):
    """(events, warmup passes, batch cuts) for one partition.

    Sectors come from a narrow window so caches conflict, counters
    climb toward overflow, and the value pool actually re-occurs;
    values mix bound-straddling images, ``None`` (lost payloads), and
    the pool's cold entry.
    """
    base = draw(st.integers(min_value=0, max_value=4000))
    span = draw(st.integers(min_value=2, max_value=24))
    n = draw(st.integers(min_value=1, max_value=90))
    events = []
    for _ in range(n):
        is_writeback = draw(st.booleans())
        sector = base + draw(st.integers(min_value=0, max_value=span - 1))
        value = draw(st.one_of(
            st.none(), st.sampled_from(VALUE_POOL),
        ))
        events.append((is_writeback, sector, value))
    passes = draw(st.integers(min_value=0, max_value=3))
    cuts = draw(st.sets(st.integers(min_value=1, max_value=max(1, n - 1)),
                        max_size=8))
    return events, passes, cuts


class TestBatchScalarDifferential:
    """Random traces, random batch shapes, full-surface comparison."""

    @pytest.mark.parametrize("key", ENGINE_KEYS)
    @given(trace=traces())
    @settings(
        max_examples=20, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_batched_replay_is_byte_identical(self, key, trace):
        events, passes, cuts = trace
        _assert_differential(key, events, passes, cuts)


class TestDeterministicHammers:
    """Pinned worst cases the random strategy only sometimes reaches."""

    def _storm(self, sectors, writes, rng):
        events = []
        for _ in range(writes):
            events.append(
                (True, rng.choice(sectors), rng.choice(VALUE_POOL))
            )
        for sector in sectors:
            events.append((False, sector, rng.choice(VALUE_POOL)))
        return events

    @pytest.mark.parametrize("key", ["pssm", "plutus", "compact:adaptive",
                                     "common-counters"])
    def test_overflow_and_saturation_under_batching(self, key):
        # 220 writes over 3 sectors: split-counter minor overflow fires
        # (64 writes per sector) and 3-bit compact counters saturate and
        # adaptively disable; warmup passes push state further still.
        rng = random.Random(11)
        events = self._storm([7000, 7001, 7002], 220, rng)
        for passes in (0, 20):
            for seed in range(3):
                cut_rng = random.Random(seed)
                cuts = {cut_rng.randrange(1, len(events))
                        for _ in range(6)}
                _assert_differential(key, events, passes, cuts)

    @pytest.mark.parametrize("key", ["plutus", "plutus:value-only"])
    def test_value_verification_bound_under_batching(self, key):
        # Interleave fills/writebacks whose images sit at 2-of-4 and
        # 3-of-4 hot words per unit — one short of, and exactly at, the
        # verification bound. A batch key-extraction or probe-order bug
        # flips mac_fetches_avoided / value_verified_fills immediately.
        rng = random.Random(23)
        events = []
        for i in range(160):
            events.append((
                i % 3 == 0,
                5000 + (i % 9),
                VALUE_POOL[i % len(VALUE_POOL)],
            ))
        cuts = {rng.randrange(1, len(events)) for _ in range(10)}
        _assert_differential(key, events, passes=1, cuts=cuts)

    @pytest.mark.parametrize("key", ENGINE_KEYS)
    def test_single_event_batches_degenerate_to_scalar(self, key):
        rng = random.Random(31)
        events = [(rng.random() < 0.5, 100 + rng.randrange(6),
                   rng.choice(VALUE_POOL)) for _ in range(40)]
        cuts = set(range(1, len(events)))  # every batch has length 1
        _assert_differential(key, events, passes=1, cuts=cuts)

    def test_malformed_image_falls_back_to_scalar_semantics(self):
        # A wrong-length payload must raise at exactly the event the
        # scalar sequence raises at — the batch path detects it during
        # key extraction and replays the run scalar.
        events = [(False, 50, VALUE_POOL[0]),
                  (False, 51, b"short"),
                  (False, 52, VALUE_POOL[1])]
        with pytest.raises(Exception) as scalar_err:
            _scalar_replay("plutus", events, 0)
        with pytest.raises(Exception) as batched_err:
            _batched_replay("plutus", events, 0, cuts=set())
        assert type(scalar_err.value) is type(batched_err.value)


# -- doctored implementations must be caught ---------------------------------


def _small_log(seed=5, pattern="uniform"):
    return generate_log(pattern, random.Random(seed), f"doctored-{pattern}")


class TestDoctoredImplementationsAreCaught:
    """Break a batch hook on purpose; every detection layer must fire."""

    def test_off_by_one_counter_batch_caught_by_identity_invariant(
        self, monkeypatch
    ):
        # Doctor: the fill batch advances every counter lookup by one
        # counter *line*. With the coarse BLOCK_128 design a line covers
        # 128 data sectors (4 counter sectors x 32), so that is the
        # smallest shift that actually changes the (line, mask) pair —
        # the classic off-by-one a vectorized line-index computation can
        # introduce. Fills then probe a different line than the
        # writebacks warmed, costing extra counter fetches.
        def doctored(self, sectors, values):
            self.stats.fills += len(sectors)
            self._batch_counter_reads(sectors + 128)
            self.mac_stage.fill_run(sectors)

        log = _small_log()
        factory = _FACTORIES["pssm"]
        scalar = scalar_replay(log, factory, VOLTA)
        monkeypatch.setattr(PssmEngine, "on_fill_batch", doctored)
        columnar = replay_events(log, factory, VOLTA)
        # The columnar-object-identity invariant is results_equal over
        # exactly this pair; it must name the diverging surface.
        messages = results_equal(scalar, columnar)
        assert messages, "identity invariant failed to catch the doctoring"
        assert any("counter" in m or "stats" in m for m in messages)

    def test_skipped_value_observe_caught_by_state_digest(self, monkeypatch):
        # Doctor: the batch path forgets to train the value cache. The
        # traffic of a short trace may not diverge yet — but the state
        # digest must, because future MAC avoidance depends on the
        # cache's contents.
        events = [(i % 2 == 1, 300 + (i % 5), VALUE_POOL[i % 4])
                  for i in range(60)]
        ref_digest, _, _ = _scalar_replay("plutus", events, 0)
        monkeypatch.setattr(ValueCache, "observe_keys",
                            lambda self, keys: None)
        digest, _, _ = _batched_replay("plutus", events, 0, cuts=set())
        assert digest != ref_digest, (
            "state digest failed to catch the skipped value-cache training"
        )

    def test_differential_failure_shrinks_with_ddmin(self, monkeypatch):
        # The suite's failure path: shrink the breaking trace with the
        # fuzzer's ddmin to a minimal reproducer.
        monkeypatch.setattr(ValueCache, "observe_keys",
                            lambda self, keys: None)
        log = _small_log(seed=9, pattern="value-hot")
        events = [
            (ev.kind is EventKind.WRITEBACK, ev.sector_index, ev.values)
            for ev in log.events
        ]

        def disagrees(candidate):
            cand_events = [
                (ev.kind is EventKind.WRITEBACK, ev.sector_index, ev.values)
                for ev in candidate.events
            ]
            ref = _scalar_replay("plutus", cand_events, 0)[0]
            got = _batched_replay("plutus", cand_events, 0, set())[0]
            return ref != got

        if not disagrees(log):
            pytest.skip("trace never trains the value cache")
        minimal = shrink(log, disagrees)
        assert len(minimal.events) <= len(log.events)
        assert disagrees(rebuild_log(minimal, list(minimal.events)))


# -- staged replay matrix vs the scalar oracle --------------------------------

#: The Plutus-family design points, which a replay matrix splits into
#: counter+tree, value and MAC stages shared between them.
STAGED_KEYS = tuple(
    key for key in sorted(_FACTORIES) if _FACTORIES[key].stages()
)


def _partition_log(events, passes):
    """*events* as a one-partition event log with *passes* warmup."""
    base = MemoryEventLog(trace_name="staged", memory_intensity=0.5,
                          instructions=1, counter_warmup_passes=passes)
    return rebuild_log(base, [
        MemoryEvent(EventKind.WRITEBACK if wb else EventKind.FILL,
                    PARTITION, sector, value)
        for wb, sector, value in events
    ])


def _staged_mismatches(log, keys):
    """Every way a matrix result differs from its spec replayed alone."""
    results = replay_matrix(log, {k: _FACTORIES[k] for k in keys}, VOLTA)
    return [
        f"{key}: {message}"
        for key in keys
        for message in results_equal(
            scalar_replay(log, _FACTORIES[key], VOLTA), results[key]
        )
    ]


class TestStagedMatrix:
    """A replay matrix shares Plutus stages; each result must still be
    its design's scalar replay alone."""

    def test_staged_roster_covers_every_plutus_family(self):
        assert {"plutus", "plutus:vcache-64", "plutus:pinned-0.5",
                "plutus:no-tree", "plutus:value-only", "gran:128B",
                "compact:2bit", "pssm:no-tree"} <= set(STAGED_KEYS)
        assert "pssm" not in STAGED_KEYS

    @given(
        trace=traces(),
        keys=st.lists(st.sampled_from(STAGED_KEYS), min_size=1,
                      max_size=6, unique=True),
    )
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_matrix_equals_scalar_per_spec(self, trace, keys):
        events, passes, _ = trace
        assert _staged_mismatches(_partition_log(events, passes), keys) == []

    def test_malformed_image_raises_at_the_scalar_event(self):
        # Two bad images of different lengths: the one the scalar replay
        # trips on first names itself in the message.
        events = [(False, 50, VALUE_POOL[0]), (True, 51, VALUE_POOL[1]),
                  (False, 52, b"short"), (False, 53, b"longer image")]
        log = _partition_log(events, 1)
        keys = ("plutus", "plutus:vcache-64", "gran:128B", "pssm")
        results = replay_matrix(
            log, {k: _FACTORIES[k] for k in keys}, VOLTA,
            return_exceptions=True,
        )
        assert not isinstance(results["pssm"], Exception)
        for key in keys[:-1]:
            with pytest.raises(ValueError) as scalar_err:
                scalar_replay(log, _FACTORIES[key], VOLTA)
            assert isinstance(results[key], ValueError), key
            assert str(results[key]) == str(scalar_err.value) == (
                "sector image must be 32 bytes, got 5"
            )
        with pytest.raises(ValueError, match="got 5"):
            replay_matrix(log, {"plutus": _FACTORIES["plutus"]}, VOLTA)

    def test_doctored_value_stage_is_caught(self, monkeypatch):
        # Doctor: each value cache skips training on its first event.
        # A fully hot image written and then read back verifies by value
        # only if the write trained the cache.
        hot = VALUE_POOL[4]
        events = [(True, 600, hot), (False, 700, hot), (False, 800, hot)]
        log = _partition_log(events, 0)
        keys = ("plutus", "plutus:no-tree", "plutus:vcache-64")
        assert _staged_mismatches(log, keys) == []
        real = ValueCache.observe_keys

        def skip_first(self, keys):
            if getattr(self, "skipped", False):
                real(self, keys)
            else:
                self.skipped = True

        monkeypatch.setattr(ValueCache, "observe_keys", skip_first)
        mismatches = _staged_mismatches(log, keys)
        for key in keys:
            assert any(m.startswith(f"{key}: engine stats") for m in mismatches)
