"""Interval sampling on the batched replay, checked against the oracle.

With interval sampling on, ``replay_events`` cuts the log into windows
of ``interval_events`` events and snapshots traffic and value-cache hit
rate after each one. This property replays small fuzzer logs both ways:
every sample must equal what the per-event scalar driver produced over
the same event window, and the replay result must equal the
uninstrumented one.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.conformance.fuzzer import PATTERNS, generate_log
from repro.conformance.scalar import scalar_replay
from repro.gpu.config import VOLTA
from repro.gpu.simulator import replay_events
from repro.harness.runner import engine_factories
from repro.obs import ObsConfig, ObsSession, activate

ENGINE_KEYS = ("pssm", "plutus", "recoverable")

#: Interval choices relative to the log length ``n``.
INTERVALS = ("1", "7", "256", "n-1", "n", "n+1")

GROUPS = {
    "data": "data_bytes",
    "counter": "counter_bytes",
    "mac": "mac_bytes",
    "bmt": "tree_bytes",
    "total": "total_bytes",
}


def _resolve(choice, n):
    if choice.startswith("n"):
        return n + int(choice[1:] or 0)
    return int(choice)


def _scalar_samples(log, factory, interval):
    """Per-window traffic and hit-rate samples from the scalar driver.

    Wraps each engine's scalar hooks so the cumulative traffic and
    value-cache probe counts are read after every ``interval``-th event,
    then once more after ``finalize()`` — the positions the batched
    replay snapshots at.
    """
    engines = []
    position = 0
    cumulative = []  # (position, traffic report, probes, hits)
    shared = {}  # the replay's traffic counter, once an engine exists

    def probes_and_hits():
        probes = hits = 0
        for engine in engines:
            snap = engine.obs_snapshot()
            probes += snap.get("value_probes", 0)
            hits += snap.get("value_hits", 0)
        return probes, hits

    def counted(method):
        def call(sector_index, values):
            nonlocal position
            method(sector_index, values)
            position += 1
            if position % interval == 0:
                cumulative.append(
                    (position, shared["traffic"].report(),
                     *probes_and_hits())
                )
        return call

    def observed(partition, sectors, traffic):
        engine = factory(partition, sectors, traffic)
        shared["traffic"] = traffic
        engine.on_fill = counted(engine.on_fill)
        engine.on_writeback = counted(engine.on_writeback)
        engines.append(engine)
        return engine

    result = scalar_replay(log, observed, VOLTA)
    cumulative.append((position, result.traffic, *probes_and_hits()))

    traffic = {group: [] for group in GROUPS}
    hit_rate = []
    before = None
    for position, report, probes, hits in cumulative:
        for group, attr in GROUPS.items():
            previous = getattr(before[1], attr) if before else 0
            traffic[group].append(
                (position, getattr(report, attr) - previous)
            )
        prev_probes, prev_hits = (before[2], before[3]) if before else (0, 0)
        if probes - prev_probes > 0:
            hit_rate.append(
                (position, (hits - prev_hits) / (probes - prev_probes))
            )
        before = (position, report, probes, hits)
    return traffic, hit_rate


def _sampled(registry, name):
    sampler = registry.get(name)
    assert sampler is not None, name
    return list(zip(sampler.positions, sampler.values))


@pytest.mark.parametrize("key", ENGINE_KEYS)
@given(
    pattern=st.sampled_from(PATTERNS),
    seed=st.integers(0, 2**32 - 1),
    choice=st.sampled_from(INTERVALS),
)
@settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_interval_samples_match_scalar_windows(key, pattern, seed, choice):
    log = generate_log(pattern, random.Random(seed), f"interval-{pattern}")
    n = len(log.events)
    interval = _resolve(choice, n)
    factory = engine_factories()[key]

    session = ObsSession(ObsConfig(enabled=True, interval_events=interval))
    with activate(session):
        sampled = replay_events(log, factory, VOLTA)
    plain = replay_events(log, factory, VOLTA)
    assert sampled == plain

    traffic, hit_rate = _scalar_samples(log, factory, interval)
    for group in GROUPS:
        assert _sampled(session.registry, f"traffic.{group}.bytes") == (
            traffic[group]
        ), group
    assert _sampled(session.registry, "value_cache.hit_rate") == hit_rate
