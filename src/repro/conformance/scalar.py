"""Per-event scalar replay: the oracle for the batched production path.

:func:`repro.gpu.simulator.replay_events` feeds engines whole same-kind
runs through their batch hooks. This driver instead walks the log one
event at a time through the scalar ``warm_counters`` / ``on_fill`` /
``on_writeback`` methods, in log order, with no instrumentation. The
``columnar-object-identity`` invariant, ``bench --verify-identity`` and
the batch differential suite compare the two.
"""

from __future__ import annotations

from typing import Dict

from repro.gpu.columnar import EventKind
from repro.gpu.config import GpuConfig
from repro.gpu.simulator import EngineFactory, MemoryEventLog, SimulationResult
from repro.mem.traffic import Stream, TrafficCounter
from repro.secure.engine import EngineStats, PartitionEngine


def scalar_replay(
    log: MemoryEventLog,
    engine_factory: EngineFactory,
    config: GpuConfig,
    counter_warmup_passes: "int | None" = None,
) -> SimulationResult:
    """Replay *log* event by event; same contract as ``replay_events``."""
    if counter_warmup_passes is None:
        counter_warmup_passes = log.counter_warmup_passes
    traffic = TrafficCounter()
    engines: Dict[int, PartitionEngine] = {}

    def engine_for(partition: int) -> PartitionEngine:
        if partition not in engines:
            engines[partition] = engine_factory(
                partition, config.sectors_per_partition, traffic
            )
        return engines[partition]

    for _ in range(counter_warmup_passes):
        for event in log.events:
            if event.kind is EventKind.WRITEBACK:
                engine_for(event.partition).warm_counters(event.sector_index)
    for event in log.events:
        engine = engine_for(event.partition)
        if event.kind is EventKind.FILL:
            traffic.record(Stream.DATA_READ, 32, transactions=1)
            engine.on_fill(event.sector_index, event.values)
        else:
            traffic.record(Stream.DATA_WRITE, 32, transactions=1)
            engine.on_writeback(event.sector_index, event.values)
    engine_name = "no-traffic"
    for engine in engines.values():
        engine.finalize()
        engine_name = engine.name

    return SimulationResult(
        engine_name=engine_name,
        trace_name=log.trace_name,
        memory_intensity=log.memory_intensity,
        instructions=log.instructions,
        traffic=traffic.report(),
        engine_stats=EngineStats.merged(e.stats for e in engines.values()),
        l2_stats=log.l2_stats,
    )
