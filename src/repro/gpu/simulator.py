"""Trace-driven GPU memory-subsystem simulator.

Two-phase design for experiment throughput:

1. :func:`simulate_l2` pushes a trace through the per-partition sectored
   L2 banks once, producing a :class:`MemoryEventLog` — the exact
   sequence of data fills and dirty writebacks each partition's memory
   controller saw, with sector values attached.
2. :func:`replay_matrix` runs that log through several security-engine
   designs at once (:func:`replay_events` through one). Because engines
   sit *behind* the L2, the data-side behaviour is identical across
   designs; one L2 pass therefore serves every engine in a comparison,
   which is what makes the figure sweeps cheap.

:func:`simulate` composes both for one-shot use.

Replay has one loop: a batched pass over the log's columnar snapshot
that hands each replay unit (:mod:`repro.secure.stages`) — a whole
design, or a stage of one, shared by every design of the matrix that
agrees on its key — same-kind runs of its partition's events.
Profiling (interval samples, span detail) instruments that same pass,
so a profile measures the code every other run executes. The
per-event scalar driver survives only as the differential oracle in
:mod:`repro.conformance.scalar`.

Every replay here is serial and in-process. The experiments harness
runs stage-shaped chunks of replays side by side on a process pool
(:meth:`repro.harness.runner.ExperimentContext.prefetch`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from functools import partial
from typing import (
    Callable, Dict, Hashable, List, Mapping, Optional, Tuple, Union,
)

import numpy as np

from repro.common.errors import SimulationError
from repro.gpu.columnar import (
    FILL_CODE,
    WRITEBACK_CODE,
    ColumnStore,
    EventColumns,
    EventKind,
    EventView,
    MemoryEvent,
)
from repro.gpu.config import GpuConfig
from repro.mem.cache import CacheConfig, SectoredCache
from repro.mem.traffic import Stream, TrafficCounter, TrafficReport
from repro.obs.session import active as _obs_active
from repro.obs.spans import NULL_SPAN_PROFILER
from repro.secure.engine import EngineStats, PartitionEngine
from repro.secure.spec import EngineSpec
from repro.secure.stages import EngineUnit, ReplayUnit, Stage
from repro.workloads.trace import Trace

__all__ = [
    "EventKind", "MemoryEvent", "MemoryEventLog", "L2Stats",
    "SimulationResult", "simulate_l2", "replay_events", "replay_matrix",
    "simulate", "EngineFactory",
]

#: Factory signature every engine exposes for the simulator.
EngineFactory = Callable[[int, int, TrafficCounter], PartitionEngine]


@dataclass
class L2Stats:
    """Aggregate L2 behaviour across partitions."""

    accesses: int = 0
    sector_hits: int = 0
    sector_misses: int = 0

    @property
    def sector_hit_rate(self) -> float:
        total = self.sector_hits + self.sector_misses
        return self.sector_hits / total if total else 0.0


@dataclass
class MemoryEventLog:
    """The DRAM-side event stream distilled from one L2 pass.

    Storage is columnar (:mod:`repro.gpu.columnar`): ``events`` accepts
    a plain ``List[MemoryEvent]`` at construction for compatibility but
    always *reads* as a lazy :class:`~repro.gpu.columnar.EventView` over
    the structure-of-arrays store. ``fill_sectors``/``writeback_sectors``
    stay caller-maintained (the L2 pass and the loaders count as they
    append), exactly as with the old list field.
    """

    trace_name: str
    memory_intensity: float
    instructions: int
    #: Pre-window write-history depth recorded from the trace profile.
    counter_warmup_passes: int = 3
    events: Union[EventView, List[MemoryEvent]] = field(
        default_factory=list
    )
    fill_sectors: int = 0
    writeback_sectors: int = 0
    l2_stats: L2Stats = field(default_factory=L2Stats)

    def __post_init__(self) -> None:
        if not isinstance(self.events, EventView):
            view = EventView()
            view.extend(self.events)
            self.events = view

    @property
    def data_bytes(self) -> int:
        return 32 * (self.fill_sectors + self.writeback_sectors)

    # -- columnar access ---------------------------------------------------

    def append_fill(self, partition: int, sector: int,
                    values: Optional[bytes]) -> None:
        """Append one fill event and account it (raw-column fast path)."""
        self.events.store.append(FILL_CODE, partition, sector, values)
        self.fill_sectors += 1

    def append_writeback(self, partition: int, sector: int,
                         values: Optional[bytes]) -> None:
        """Append one writeback event and account it."""
        self.events.store.append(WRITEBACK_CODE, partition, sector, values)
        self.writeback_sectors += 1

    def to_columns(self) -> EventColumns:
        """Numpy snapshot of the event stream (cached by the store)."""
        return self.events.store.to_columns()

    @classmethod
    def from_columns(
        cls,
        cols: EventColumns,
        *,
        trace_name: str,
        memory_intensity: float,
        instructions: int,
        counter_warmup_passes: int = 3,
        l2_stats: "L2Stats | None" = None,
    ) -> "MemoryEventLog":
        """Build a log directly from a columnar snapshot.

        Fill/writeback counts are derived from the ``kind`` column, so a
        snapshot round-trip reproduces the accounting exactly.
        """
        fills = cols.fill_count
        return cls(
            trace_name=trace_name,
            memory_intensity=memory_intensity,
            instructions=instructions,
            counter_warmup_passes=counter_warmup_passes,
            events=EventView(ColumnStore.from_columns(cols)),
            fill_sectors=fills,
            writeback_sectors=cols.n_events - fills,
            l2_stats=l2_stats if l2_stats is not None else L2Stats(),
        )


@dataclass
class SimulationResult:
    """Traffic and engine statistics for one (trace, engine) pair."""

    engine_name: str
    trace_name: str
    memory_intensity: float
    instructions: int
    traffic: TrafficReport
    engine_stats: EngineStats
    l2_stats: L2Stats

    @property
    def total_bytes(self) -> int:
        return self.traffic.total_bytes

    @property
    def metadata_bytes(self) -> int:
        return self.traffic.metadata_bytes


def simulate_l2(trace: Trace, config: GpuConfig) -> MemoryEventLog:
    """Run the trace through the sectored L2, logging DRAM-side events."""
    obs = _obs_active()
    with obs.phase("simulate_l2", trace=trace.name):
        log = _simulate_l2(trace, config)
    if obs.config.metrics_active:
        obs.registry.gauge("l2.sector_hit_rate").set(
            log.l2_stats.sector_hit_rate
        )
        obs.registry.gauge("l2.dram_events").set(len(log.events))
    return log


def _simulate_l2(trace: Trace, config: GpuConfig) -> MemoryEventLog:
    amap = config.address_map
    l2_banks = [
        SectoredCache(
            CacheConfig(
                name=f"l2[{p}]",
                size_bytes=config.l2.size_bytes,
                line_bytes=config.l2.line_bytes,
                ways=config.l2.ways,
                sector_bytes=config.l2.sector_bytes,
                sectored=config.l2.sectored,
            )
        )
        for p in range(config.num_partitions)
    ]
    #: Values of currently dirty L2 sectors: (partition, line, slot) -> bytes.
    dirty_values: Dict[Tuple[int, int, int], Optional[bytes]] = {}
    log = MemoryEventLog(
        trace_name=trace.name,
        memory_intensity=trace.memory_intensity,
        instructions=trace.instructions,
        counter_warmup_passes=trace.counter_warmup_passes,
    )

    def emit_writebacks(partition: int, line_addr: int, dirty_mask: int) -> None:
        for slot in range(4):
            if not (dirty_mask >> slot) & 1:
                continue
            values = dirty_values.pop((partition, line_addr, slot), None)
            sector = amap.local_sector_index(line_addr + slot * 32)
            log.append_writeback(partition, sector, values)

    for access in trace:
        partition = amap.partition_of(access.line_addr)
        bank = l2_banks[partition]
        if access.write:
            # Full-sector coalesced writes allocate without fetching.
            result = bank.access(access.line_addr, access.sector_mask, write=True)
            for ev in result.evictions:
                emit_writebacks(partition, ev.line_addr, ev.dirty_mask)
            for slot in access.sectors():
                dirty_values[(partition, access.line_addr, slot)] = (
                    access.value_for(slot)
                )
        else:
            result = bank.access(access.line_addr, access.sector_mask, write=False)
            for ev in result.evictions:
                emit_writebacks(partition, ev.line_addr, ev.dirty_mask)
            for slot in access.sectors():
                if not (result.miss_mask >> slot) & 1:
                    continue
                sector = amap.local_sector_index(access.line_addr + slot * 32)
                log.append_fill(partition, sector, access.value_for(slot))

    # Kernel end: drain dirty data.
    for partition, bank in enumerate(l2_banks):
        for ev in bank.flush():
            emit_writebacks(partition, ev.line_addr, ev.dirty_mask)

    if dirty_values:
        raise SimulationError(
            f"{len(dirty_values)} dirty sector values were never drained"
        )

    for bank in l2_banks:
        log.l2_stats.accesses += bank.stats.accesses
        log.l2_stats.sector_hits += bank.stats.sector_hits
        log.l2_stats.sector_misses += bank.stats.sector_misses
    return log


class _Runs:
    """One window of the log cut into same-kind runs, partition-major.

    ``order`` lists the window's rows partition by partition (in-partition
    order kept); each run is ``(partition, fill, a, b)`` over
    ``order[a:b]``. Every replay unit walks the same runs
    (:mod:`repro.secure.stages`).
    """

    def __init__(self, cols: EventColumns, lo: int, hi: int) -> None:
        self.cols = cols
        self.fixed32 = cols.fixed32
        self.order = np.argsort(cols.partition[lo:hi], kind="stable") + lo
        self.sectors = cols.sector[self.order]
        partitions = cols.partition[self.order]
        kinds = cols.kind[self.order]
        cuts = np.flatnonzero(
            (partitions[1:] != partitions[:-1]) | (kinds[1:] != kinds[:-1])
        ) + 1
        starts = [0, *cuts.tolist()] if self.order.size else []
        ends = [*starts[1:], int(self.order.size)]
        self.runs: List[Tuple[int, bool, int, int]] = [
            (p, k == FILL_CODE, a, b)
            for p, k, a, b in zip(partitions[starts].tolist(),
                                  kinds[starts].tolist(), starts, ends)
        ]

    def writebacks(self) -> Dict[int, np.ndarray]:
        """Each partition's writeback sectors, in order."""
        runs: Dict[int, List[np.ndarray]] = {}
        for partition, fill, a, b in self.runs:
            if not fill:
                runs.setdefault(partition, []).append(self.sectors[a:b])
        return {p: np.concatenate(r) for p, r in runs.items()}

    def values(self, a: int, b: int):
        return self.cols.values_for(self.order[a:b])


class _Sampler:
    """Interval samples of one design's replay.

    Each call records what the replay added since the previous one: the
    traffic per stream group (data is 32 bytes per logged event plus
    the engines' own re-encryption traffic) and the value-cache hit
    rate, and emits a ``traffic.interval`` trace event.
    """

    def __init__(self, obs, unit: EngineUnit) -> None:
        self.tracer = obs.tracer
        self.unit = unit
        window = obs.config.sampler_window
        registry = obs.registry
        self.series = {
            name: registry.sampler(
                f"traffic.{name}.bytes", window=window, agg="sum"
            )
            for name in ("data", "counter", "mac", "bmt", "total")
        }
        self.hit_rate = registry.sampler(
            "value_cache.hit_rate", window=window, agg="mean"
        )
        self.previous: Dict[str, int] = {}

    def __call__(self, position: int) -> None:
        report = self.unit.traffic.report()
        probes = hits = 0
        for engine in self.unit.parts.values():
            snap = engine.obs_snapshot()
            probes += snap.get("value_probes", 0)
            hits += snap.get("value_hits", 0)
        now = {
            "data": 32 * position + report.data_bytes,
            "counter": report.counter_bytes,
            "mac": report.mac_bytes,
            "bmt": report.tree_bytes,
            "total": 32 * position + report.total_bytes,
            "metadata": report.metadata_bytes,
            "probes": probes,
            "hits": hits,
        }
        delta = {k: v - self.previous.get(k, 0) for k, v in now.items()}
        self.previous = now
        for name, sampler in self.series.items():
            sampler.record(position, delta[name])
        if delta["probes"] > 0:
            self.hit_rate.record(position, delta["hits"] / delta["probes"])
        self.tracer.emit(
            "traffic.interval",
            position=position,
            interval_bytes=delta["total"],
            metadata_bytes=delta["metadata"],
        )


def replay_events(
    log: MemoryEventLog,
    engine_factory: EngineFactory,
    config: GpuConfig,
    counter_warmup_passes: "int | None" = None,
) -> SimulationResult:
    """Run a logged event stream through one security-engine design.

    This is :func:`replay_matrix` with a single design point; see there
    for warmup, batching and interval sampling.
    """
    return replay_matrix(
        log, {"": engine_factory}, config, counter_warmup_passes
    )[""]


def replay_matrix(
    log: MemoryEventLog,
    factories: "Mapping[str, EngineFactory]",
    config: GpuConfig,
    counter_warmup_passes: "int | None" = None,
    return_exceptions: bool = False,
) -> "Dict[str, SimulationResult]":
    """Replay one event log through a whole matrix of engine designs.

    The *same* log — and therefore the exact same data-side decisions —
    drives every named factory, so any divergence between the returned
    results is attributable to the engines alone. Results are keyed and
    ordered like *factories*.

    ``counter_warmup_passes`` models the execution history before the
    simulated window: each pass silently replays the window's writeback
    sectors through the engines' ``warm_counters`` hook, advancing
    encryption-counter state (compact-counter saturation, common-counter
    region demotion, split-counter growth) the way the billions of
    pre-window instructions would have, without contributing any
    measured traffic. Pass 0 for a cold-counter run; the default
    (``None``) takes the depth recorded in the event log, which
    benchmark profiles set to match how iterative the workload is.

    The log replays as one batched columnar pass: events are regrouped
    partition-major (in-partition order preserved) and cut into runs of
    consecutive same-kind events, which each design receives through its
    batch hooks. In a matrix of several designs, a design whose spec
    splits into stages (:meth:`~repro.secure.spec.EngineSpec.stages`;
    Plutus's counter+tree, value and MAC stages) replays as those
    stages instead, and each distinct stage key runs once, however many
    designs share it. A design's result then sums the shared data
    traffic and its stages' traffic and ``EngineStats``. The designs
    replay one unit (a whole design or a stage) at a time: warm, replay
    every run, flush, drop the unit's state.

    Every result equals the per-event scalar replay of its design alone
    (:func:`repro.conformance.scalar.scalar_replay`, the differential
    oracle): partitions and units share no state, the traffic counter
    and every ``EngineStats`` field are commutative integer sums, and
    the batch hooks are exact under any run cut. A design that raises
    re-raises here; with ``return_exceptions`` its exception takes its
    result's place and the other designs still complete.

    Under an enabled observability session nothing is split, so each
    design's ``replay_warmup`` and ``replay_events`` phases, spans and
    samples describe that design. With interval sampling on, a design's
    log is cut into windows of ``interval_events`` events in log order;
    each window replays as above and is followed by a traffic/value-cache
    sample, with one final sample after ``finalize()``.
    """
    if counter_warmup_passes is None:
        counter_warmup_passes = log.counter_warmup_passes
    if counter_warmup_passes < 0:
        raise ValueError("warmup passes cannot be negative")
    obs = _obs_active()
    metrics_on = obs.config.metrics_active
    interval = obs.config.interval_events if metrics_on else 0
    prof = (
        obs.profiler if obs.config.span_detail_active else NULL_SPAN_PROFILER
    )
    staged = len(factories) > 1 and not obs.enabled
    stages: Dict[Hashable, Stage] = {}
    plans: Dict[str, List[Hashable]] = {}
    for name, factory in factories.items():
        design = (factory.stages()
                  if staged and isinstance(factory, EngineSpec) else None)
        if design is None:
            design = [Stage("engine", ("engine", name), None,
                            partial(EngineUnit, factory, prof=prof))]
        for stage in design:
            stages.setdefault(stage.key, stage)
        plans[name] = [stage.key for stage in design]

    cols = log.to_columns()
    n_events = cols.n_events
    whole = _Runs(cols, 0, n_events)
    data = TrafficCounter()
    for _, fill, a, b in whole.runs:
        data.record(Stream.DATA_READ if fill else Stream.DATA_WRITE,
                    32 * (b - a), transactions=b - a)
    writebacks = whole.writebacks() if counter_warmup_passes else {}

    # Stages come in plan order, so a stage's `after` stage runs first.
    units: Dict[Hashable, ReplayUnit] = {}
    outputs: Dict[Hashable, object] = {}
    for key, stage in stages.items():
        unit = units[key] = stage.build(config.sectors_per_partition)
        if stage.after is not None and stage.after not in outputs:
            continue  # the stage it takes its input from failed
        try:
            with obs.phase("replay_warmup", trace=log.trace_name,
                           passes=counter_warmup_passes):
                unit.warm(writebacks, counter_warmup_passes)
            start = time.perf_counter() if metrics_on else 0.0
            with obs.phase("replay_events", trace=log.trace_name):
                if interval:
                    sample = _Sampler(obs, unit)
                    for lo in range(0, n_events, interval):
                        hi = min(lo + interval, n_events)
                        unit.feed(_Runs(cols, lo, hi), None)
                        if hi - lo == interval:
                            sample(hi)
                    unit.finalize()
                    # Tail events plus finalize()'s metadata drain.
                    sample(n_events)
                else:
                    outputs[key] = unit.feed(whole, outputs.get(stage.after))
                    unit.finalize()
            elapsed = time.perf_counter() - start if metrics_on else 0.0
        except Exception as exc:  # fails the designs built on this unit
            unit.error = exc
        unit.release()
        if metrics_on and unit.error is None:
            registry = obs.registry
            registry.gauge("replay.events").set(n_events)
            if elapsed > 0:
                # Measured events over the replay_events phase only: the
                # clock starts after replay_warmup.
                registry.gauge("replay.events_per_sec").set(
                    n_events / elapsed
                )
            for f in fields(EngineStats):
                registry.gauge(f"engine.{f.name}").set(
                    getattr(unit.stats, f.name)
                )

    results: Dict[str, SimulationResult] = {}
    for name, keys in plans.items():
        plan = [units[key] for key in keys]
        error = next((u.error for u in plan if u.error is not None), None)
        if error is not None:
            if not return_exceptions:
                raise error
            results[name] = error
            continue
        traffic = TrafficCounter()
        for counter in (data, *(u.traffic for u in plan if u.traffic)):
            traffic.merge(counter)
        results[name] = SimulationResult(
            engine_name=plan[0].name,
            trace_name=log.trace_name,
            memory_intensity=log.memory_intensity,
            instructions=log.instructions,
            traffic=traffic.report(),
            engine_stats=EngineStats.merged(u.stats for u in plan),
            l2_stats=log.l2_stats,
        )
    return results


def simulate(
    trace: Trace,
    engine_factory: EngineFactory,
    config: GpuConfig,
) -> SimulationResult:
    """One-shot convenience: L2 pass plus engine replay."""
    return replay_events(simulate_l2(trace, config), engine_factory, config)
