"""Trace-driven GPU memory-subsystem simulator.

Two-phase design for experiment throughput:

1. :func:`simulate_l2` pushes a trace through the per-partition sectored
   L2 banks once, producing a :class:`MemoryEventLog` — the exact
   sequence of data fills and dirty writebacks each partition's memory
   controller saw, with sector values attached.
2. :func:`replay_events` runs that log through any security engine.
   Because engines sit *behind* the L2, the data-side behaviour is
   identical across designs; one L2 pass therefore serves every engine
   in a comparison, which is what makes the figure sweeps cheap.

:func:`simulate` composes both for one-shot use.

Replay parallelizes across *memory partitions*: each of the modeled
GPU's 32 partitions has its own engine, metadata caches, counters, and
BMT, and no event ever crosses partitions (PSSM's partition-local
metadata addressing guarantees it). :func:`split_event_log` shards the
merged event stream into per-partition sub-logs, ``workers >= 2`` runs
each shard in its own process, and the per-shard traffic counters,
engine stats, and metric snapshots are folded back in partition order —
byte-identical to the serial result (see docs/ARCHITECTURE.md § Partition
sharding). The experiments harness parallelizes whole replays instead
(:meth:`repro.harness.runner.ExperimentContext.prefetch`).
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

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
from repro.obs.config import ObsConfig
from repro.obs.session import ObsSession, activate as _obs_activate
from repro.obs.session import active as _obs_active
from repro.secure.engine import EngineStats, PartitionEngine
from repro.workloads.trace import Trace

__all__ = [
    "EventKind", "MemoryEvent", "MemoryEventLog", "L2Stats",
    "SimulationResult", "simulate_l2", "replay_events", "replay_matrix",
    "simulate", "split_event_log", "resolve_workers", "EngineFactory",
    "REPLAY_PATHS",
]

#: Factory signature every engine exposes for the simulator.
EngineFactory = Callable[[int, int, TrafficCounter], PartitionEngine]

#: Replay execution strategies: ``auto`` picks the columnar batched
#: path unless per-event instrumentation forces the scalar loop;
#: ``object``/``columnar`` force one side (for differential checks).
REPLAY_PATHS = ("auto", "columnar", "object")


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


def _merge_stats(per_partition: List[EngineStats]) -> EngineStats:
    merged = EngineStats()
    for stats in per_partition:
        for f in fields(EngineStats):
            setattr(merged, f.name, getattr(merged, f.name) + getattr(stats, f.name))
    return merged


def resolve_workers(workers: "int | None") -> int:
    """Normalize a ``--workers`` value: ``None`` means one per CPU core."""
    if workers is None:
        return max(1, os.cpu_count() or 1)
    if workers < 1:
        raise ValueError("workers must be >= 1 (or None for auto)")
    return workers


def split_event_log(log: MemoryEventLog) -> Dict[int, MemoryEventLog]:
    """Shard an event log into per-partition sub-logs.

    Each sub-log preserves the partition's events in their original
    order and inherits the parent's trace profile (name, intensity,
    warmup depth), so it replays exactly as that partition's slice of
    the merged stream would. L2 stats stay with the parent log — they
    describe the whole cache pass, not one partition's share.
    """
    shards: Dict[int, MemoryEventLog] = {}
    cols = log.to_columns()
    if not cols.n_events:
        return shards
    for partition in np.unique(cols.partition).tolist():
        rows = np.flatnonzero(cols.partition == partition)
        shards[int(partition)] = MemoryEventLog.from_columns(
            cols.take(rows),
            trace_name=log.trace_name,
            memory_intensity=log.memory_intensity,
            instructions=log.instructions,
            counter_warmup_passes=log.counter_warmup_passes,
        )
    return shards


@dataclass
class _ShardOutcome:
    """What one worker process returns for one partition's replay."""

    partition: int
    engine_name: str
    engine_stats: EngineStats
    #: ``TrafficCounter.state()`` form: stream value -> (bytes, transactions).
    traffic_state: Dict[str, Tuple[int, int]]
    #: ``MetricsRegistry.as_dict()`` payload when metrics were active.
    metrics: Optional[Dict[str, Dict[str, object]]]


def _replay_shard(
    shard: MemoryEventLog,
    engine_factory: EngineFactory,
    config: GpuConfig,
    counter_warmup_passes: int,
    obs_config: Optional[ObsConfig],
    path: str = "auto",
) -> _ShardOutcome:
    """Worker-process entry: replay one partition's sub-log serially."""
    session = ObsSession(obs_config) if obs_config is not None else None
    if session is not None:
        with _obs_activate(session):
            result = replay_events(
                shard, engine_factory, config, counter_warmup_passes,
                workers=1, path=path,
            )
        metrics = (
            session.registry.as_dict()
            if session.config.metrics_active else None
        )
    else:
        result = replay_events(
            shard, engine_factory, config, counter_warmup_passes, workers=1,
            path=path,
        )
        metrics = None
    traffic_state = {
        s.value: (
            result.traffic.bytes_by_stream[s],
            result.traffic.transactions_by_stream[s],
        )
        for s in Stream
    }
    return _ShardOutcome(
        partition=shard.events[0].partition,
        engine_name=result.engine_name,
        engine_stats=result.engine_stats,
        traffic_state=traffic_state,
        metrics=metrics,
    )


def _replay_events_parallel(
    log: MemoryEventLog,
    engine_factory: EngineFactory,
    config: GpuConfig,
    counter_warmup_passes: int,
    requested_workers: int,
    shard_timeout: Optional[float] = None,
    path: str = "auto",
) -> Optional[SimulationResult]:
    """Shard-per-partition replay across a process pool.

    Returns ``None`` to signal the caller to take the serial path: when
    the log touches fewer than two partitions (nothing to overlap) or
    the factory cannot cross a process boundary (ad-hoc lambdas; named
    design points use the picklable
    :class:`~repro.harness.runner.EngineSpec`).

    Merging is deterministic — shards are folded back in ascending
    partition order — and byte-identical to serial replay: every stream
    byte/transaction and every :class:`EngineStats` field is an integer
    sum over per-partition contributions, and partitions never interact.

    Failure handling distinguishes two classes. *Crash-class* failures —
    a worker process dying (``BrokenProcessPool``), a shard exceeding
    ``shard_timeout`` seconds, or a cancelled future — degrade, not
    abort: the affected partitions are re-replayed serially in this
    process (same code path a worker runs, so the merged result stays
    byte-identical) under a ``RuntimeWarning`` naming each failed
    partition, with ``replay.shard_retries`` counting retries.
    *Deterministic* shard exceptions — the replay itself raised — would
    fail identically on retry, so remaining shards are cancelled and a
    :class:`~repro.common.errors.SimulationError` naming the partition
    is raised, chained to the worker's original exception.
    """
    shards = split_event_log(log)
    if len(shards) < 2:
        return None
    try:
        pickle.dumps(engine_factory)
    except Exception:
        warnings.warn(
            "engine factory is not picklable; falling back to serial "
            "replay (named factories from repro.harness.runner are "
            "picklable EngineSpecs)",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    obs = _obs_active()
    # Workers get metrics but not tracing or spans: ring buffers cannot
    # merge without reordering, and per-event traces / span profiles
    # are serial-debug tools.
    child_obs = (
        replace(obs.config, tracing=False, spans=False)
        if obs.enabled else None
    )
    n_workers = min(requested_workers, len(shards))
    start = time.perf_counter() if obs.enabled else 0.0
    ordered = sorted(shards)
    with obs.phase(
        "replay_events", trace=log.trace_name,
        workers=n_workers, shards=len(shards),
    ):
        outcomes = []
        failed: Dict[int, str] = {}
        hung = False
        pool = ProcessPoolExecutor(max_workers=n_workers)
        try:
            futures = [
                (
                    partition,
                    pool.submit(
                        _replay_shard,
                        shards[partition],
                        engine_factory,
                        config,
                        counter_warmup_passes,
                        child_obs,
                        path,
                    ),
                )
                for partition in ordered
            ]
            for partition, future in futures:
                try:
                    outcomes.append(future.result(timeout=shard_timeout))
                except (BrokenProcessPool, CancelledError) as exc:
                    failed[partition] = type(exc).__name__
                except FutureTimeoutError:
                    failed[partition] = f"timeout after {shard_timeout:g}s"
                    hung = True
                except Exception as exc:
                    for _, pending in futures:
                        pending.cancel()
                    raise SimulationError(
                        f"shard replay failed for partition {partition} "
                        f"of trace {log.trace_name!r} "
                        f"({len(shards[partition].events)} events): {exc}"
                    ) from exc
        finally:
            # A hung worker must never block shutdown; cancelled
            # futures simply never start.
            pool.shutdown(wait=not hung, cancel_futures=True)

        if failed:
            causes = ", ".join(
                f"partition {p}: {cause}" for p, cause in sorted(failed.items())
            )
            warnings.warn(
                f"parallel replay degraded for trace {log.trace_name!r}: "
                f"{len(failed)} of {len(shards)} shard(s) failed "
                f"({causes}); retrying those partitions serially",
                RuntimeWarning,
                stacklevel=4,
            )
            obs.registry.counter("replay.shard_retries").inc(len(failed))
            for partition in sorted(failed):
                outcomes.append(
                    _replay_shard(
                        shards[partition],
                        engine_factory,
                        config,
                        counter_warmup_passes,
                        child_obs,
                        path,
                    )
                )

    outcomes.sort(key=lambda outcome: outcome.partition)
    traffic = TrafficCounter()
    engine_name = "no-traffic"
    for outcome in outcomes:
        traffic.merge_state(outcome.traffic_state)
        engine_name = outcome.engine_name
        if obs.config.metrics_active and outcome.metrics:
            obs.registry.merge_snapshot(outcome.metrics)
        if obs.enabled:
            obs.tracer.emit(
                "replay.shard",
                partition=outcome.partition,
                events=len(shards[outcome.partition].events),
            )
    merged_stats = _merge_stats([o.engine_stats for o in outcomes])

    if obs.enabled:
        elapsed = time.perf_counter() - start
        if obs.config.metrics_active:
            registry = obs.registry
            registry.gauge("replay.events").set(len(log.events))
            registry.gauge("replay.workers").set(n_workers)
            if elapsed > 0:
                registry.gauge("replay.events_per_sec").set(
                    len(log.events) / elapsed
                )
            for f in fields(EngineStats):
                registry.gauge(f"engine.{f.name}").set(
                    getattr(merged_stats, f.name)
                )

    return SimulationResult(
        engine_name=engine_name,
        trace_name=log.trace_name,
        memory_intensity=log.memory_intensity,
        instructions=log.instructions,
        traffic=traffic.report(),
        engine_stats=merged_stats,
        l2_stats=log.l2_stats,
    )


def _columnar_serial_replay(
    log: MemoryEventLog,
    engine_for: Callable[[int], PartitionEngine],
    engines: Dict[int, PartitionEngine],
    traffic: TrafficCounter,
    counter_warmup_passes: int,
    obs: "ObsSession",
) -> str:
    """Batched serial replay over the columnar snapshot.

    Events are regrouped partition-major (in-partition order preserved),
    then dispatched to the engines as consecutive same-kind runs via the
    batch hooks — one ``traffic.record`` per run instead of one per
    event. The result is byte-identical to the scalar loop: partitions
    share no state, the traffic counter and every ``EngineStats`` field
    are commutative integer sums, and the default batch hooks replay the
    scalar calls in order for engines without native batching.

    Returns the engine design name (``"no-traffic"`` for an empty log).
    """
    cols = log.to_columns()
    kind = cols.kind
    partition = cols.partition
    blocks: List[np.ndarray] = []
    if cols.n_events:
        order = np.argsort(partition, kind="stable")
        cuts = np.flatnonzero(np.diff(partition[order])) + 1
        blocks = np.split(order, cuts)

    with obs.phase("replay_warmup", trace=log.trace_name,
                   passes=counter_warmup_passes):
        if counter_warmup_passes:
            for rows in blocks:
                writebacks = rows[kind[rows] == WRITEBACK_CODE]
                if not writebacks.size:
                    continue
                engine = engine_for(int(partition[writebacks[0]]))
                # Batch-native engines take the sector column directly
                # (and collapse the passes internally when provably
                # order-free); the scalar fallback gets plain ints.
                if engine.batch_native:
                    engine.warm_counters_batch(
                        cols.sector[writebacks], counter_warmup_passes
                    )
                else:
                    engine.warm_counters_batch(
                        cols.sector[writebacks].tolist(),
                        counter_warmup_passes,
                    )

    with obs.phase("replay_events", trace=log.trace_name):
        for rows in blocks:
            engine = engine_for(int(partition[rows[0]]))
            batch_native = engine.batch_native
            kinds = kind[rows]
            cuts = np.flatnonzero(np.diff(kinds)) + 1
            bounds = [0, *cuts.tolist(), rows.size]
            for start, end in zip(bounds, bounds[1:]):
                run = rows[start:end]
                count = end - start
                if batch_native:
                    sectors = cols.sector[run]
                else:
                    sectors = cols.sector[run].tolist()
                values = cols.values_for(run)
                if kinds[start] == FILL_CODE:
                    traffic.record(
                        Stream.DATA_READ, 32 * count, transactions=count
                    )
                    engine.on_fill_batch(sectors, values)
                else:
                    traffic.record(
                        Stream.DATA_WRITE, 32 * count, transactions=count
                    )
                    engine.on_writeback_batch(sectors, values)
        engine_name = "no-traffic"
        for engine in engines.values():
            engine.finalize()
            engine_name = engine.name
    return engine_name


def replay_events(
    log: MemoryEventLog,
    engine_factory: EngineFactory,
    config: GpuConfig,
    counter_warmup_passes: "int | None" = None,
    workers: "int | None" = 1,
    shard_timeout: "float | None" = None,
    path: str = "auto",
) -> SimulationResult:
    """Run a logged event stream through one security-engine design.

    ``counter_warmup_passes`` models the execution history before the
    simulated window: each pass silently replays the window's writeback
    sectors through the engines' ``warm_counters`` hook, advancing
    encryption-counter state (compact-counter saturation, common-counter
    region demotion, split-counter growth) the way the billions of
    pre-window instructions would have, without contributing any
    measured traffic. Pass 0 for a cold-counter run; the default
    (``None``) takes the depth recorded in the event log, which
    benchmark profiles set to match how iterative the workload is.

    ``workers`` selects the execution strategy: 1 (the default) is the
    serial reference path, ``None`` means one worker per CPU core, and
    ``>= 2`` shards the log by partition across a process pool (see
    :func:`split_event_log`). The merged result is byte-identical to
    ``workers=1`` regardless of worker count. ``shard_timeout`` bounds
    each shard's wall-clock seconds in the parallel path; shards that
    exceed it (or whose worker dies) are retried serially with a
    ``RuntimeWarning`` rather than failing the run.

    ``path`` selects the serial inner loop: ``"auto"`` (the default)
    runs the columnar batched pass unless per-event instrumentation
    (interval sampling, memory-event tracing, span detail) requires the
    scalar loop; ``"columnar"``/``"object"`` force one side, which is
    how the conformance invariant cross-checks them. Both produce
    byte-identical :class:`SimulationResult`\\ s.
    """
    if counter_warmup_passes is None:
        counter_warmup_passes = log.counter_warmup_passes
    if counter_warmup_passes < 0:
        raise ValueError("warmup passes cannot be negative")
    if shard_timeout is not None and shard_timeout <= 0:
        raise ValueError("shard timeout must be positive (or None)")
    if path not in REPLAY_PATHS:
        raise ValueError(
            f"unknown replay path {path!r}; expected one of {REPLAY_PATHS}"
        )
    n_workers = resolve_workers(workers)
    if n_workers > 1:
        parallel = _replay_events_parallel(
            log, engine_factory, config, counter_warmup_passes, n_workers,
            shard_timeout, path,
        )
        if parallel is not None:
            return parallel
    obs = _obs_active()
    metrics_on = obs.config.metrics_active
    interval = obs.config.interval_events if metrics_on else 0
    trace_mem = obs.config.tracing_active and obs.config.trace_memory_events
    traffic = TrafficCounter()
    sectors_per_partition = config.sectors_per_partition
    engines: Dict[int, PartitionEngine] = {}

    def engine_for(partition: int) -> PartitionEngine:
        engine = engines.get(partition)
        if engine is None:
            engine = engine_factory(partition, sectors_per_partition, traffic)
            engines[partition] = engine
        return engine

    # Per-event instrumentation (interval windows, per-event trace
    # emission, per-event spans) needs the scalar loop; everything else
    # takes the batched columnar pass.
    use_columnar = path != "object" and not (
        interval or trace_mem or obs.config.span_detail_active
    )
    if use_columnar:
        start = time.perf_counter() if obs.enabled else 0.0
        engine_name = _columnar_serial_replay(
            log, engine_for, engines, traffic, counter_warmup_passes, obs
        )
        return _finish_serial_replay(
            log, obs, traffic, engines, engine_name, start
        )

    snapshot = None
    total: Optional[TrafficCounter] = None
    if interval:
        # Interval mode: `traffic` holds only the current window; each
        # snapshot folds it into `total` and resets it in place, so
        # per-interval deltas cost no re-allocation and engines keep
        # writing into the same counter they were constructed with.
        total = TrafficCounter()
        window = obs.config.sampler_window
        registry = obs.registry
        series = {
            "data": registry.sampler(
                "traffic.data.bytes", window=window, agg="sum"
            ),
            "counter": registry.sampler(
                "traffic.counter.bytes", window=window, agg="sum"
            ),
            "mac": registry.sampler(
                "traffic.mac.bytes", window=window, agg="sum"
            ),
            "bmt": registry.sampler(
                "traffic.bmt.bytes", window=window, agg="sum"
            ),
            "total": registry.sampler(
                "traffic.total.bytes", window=window, agg="sum"
            ),
        }
        hit_rate_series = registry.sampler(
            "value_cache.hit_rate", window=window, agg="mean"
        )
        previous = {"probes": 0, "hits": 0}

        def snapshot(position: int) -> None:
            report = traffic.report()
            series["data"].record(position, report.data_bytes)
            series["counter"].record(position, report.counter_bytes)
            series["mac"].record(position, report.mac_bytes)
            series["bmt"].record(position, report.tree_bytes)
            series["total"].record(position, report.total_bytes)
            total.merge(traffic)
            traffic.reset()
            probes = hits = 0
            for engine in engines.values():
                snap = engine.obs_snapshot()
                probes += snap.get("value_probes", 0)
                hits += snap.get("value_hits", 0)
            probes_delta = probes - previous["probes"]
            if probes_delta > 0:
                hit_rate_series.record(
                    position, (hits - previous["hits"]) / probes_delta
                )
            previous["probes"] = probes
            previous["hits"] = hits
            obs.tracer.emit(
                "traffic.interval",
                position=position,
                interval_bytes=report.total_bytes,
                metadata_bytes=report.metadata_bytes,
            )

    with obs.phase("replay_warmup", trace=log.trace_name,
                   passes=counter_warmup_passes):
        for _ in range(counter_warmup_passes):
            for event in log.events:
                if event.kind is EventKind.WRITEBACK:
                    engine_for(event.partition).warm_counters(
                        event.sector_index
                    )

    start = time.perf_counter() if obs.enabled else 0.0
    # Per-event spans only under span_detail: a clock pair per DRAM
    # event is far too hot for the default profile path.
    detail_prof = (
        obs.profiler if obs.config.span_detail_active else None
    )
    with obs.phase("replay_events", trace=log.trace_name):
        position = 0
        for event in log.events:
            engine = engine_for(event.partition)
            if event.kind is EventKind.FILL:
                traffic.record(Stream.DATA_READ, 32, transactions=1)
                if detail_prof is not None:
                    with detail_prof.span("engine.fill"):
                        engine.on_fill(event.sector_index, event.values)
                else:
                    engine.on_fill(event.sector_index, event.values)
            else:
                traffic.record(Stream.DATA_WRITE, 32, transactions=1)
                if detail_prof is not None:
                    with detail_prof.span("engine.writeback"):
                        engine.on_writeback(event.sector_index, event.values)
                else:
                    engine.on_writeback(event.sector_index, event.values)
            if trace_mem:
                obs.tracer.emit(
                    f"mem.{event.kind.value}",
                    partition=event.partition,
                    sector=event.sector_index,
                )
            position += 1
            if interval and position % interval == 0:
                snapshot(position)

        engine_name = "no-traffic"
        for engine in engines.values():
            engine.finalize()
            engine_name = engine.name
        if interval:
            # Tail events plus finalize()'s metadata drain.
            snapshot(position)
            traffic = total

    return _finish_serial_replay(
        log, obs, traffic, engines, engine_name, start
    )


def _finish_serial_replay(
    log: MemoryEventLog,
    obs: "ObsSession",
    traffic: TrafficCounter,
    engines: Dict[int, PartitionEngine],
    engine_name: str,
    start: float,
) -> SimulationResult:
    """Fold engine stats, publish gauges, and package the result."""
    merged_stats = _merge_stats([e.stats for e in engines.values()])
    if obs.enabled:
        elapsed = time.perf_counter() - start
        if obs.config.metrics_active:
            registry = obs.registry
            registry.gauge("replay.events").set(len(log.events))
            if elapsed > 0:
                registry.gauge("replay.events_per_sec").set(
                    len(log.events) / elapsed
                )
            for f in fields(EngineStats):
                registry.gauge(f"engine.{f.name}").set(
                    getattr(merged_stats, f.name)
                )

    return SimulationResult(
        engine_name=engine_name,
        trace_name=log.trace_name,
        memory_intensity=log.memory_intensity,
        instructions=log.instructions,
        traffic=traffic.report(),
        engine_stats=merged_stats,
        l2_stats=log.l2_stats,
    )


def simulate(
    trace: Trace,
    engine_factory: EngineFactory,
    config: GpuConfig,
    workers: "int | None" = 1,
) -> SimulationResult:
    """One-shot convenience: L2 pass plus engine replay."""
    return replay_events(
        simulate_l2(trace, config), engine_factory, config, workers=workers
    )


def replay_matrix(
    log: MemoryEventLog,
    factories: "Mapping[str, EngineFactory]",
    config: GpuConfig,
    counter_warmup_passes: "int | None" = None,
    workers: "int | None" = 1,
    shard_timeout: "float | None" = None,
    path: str = "auto",
) -> "Dict[str, SimulationResult]":
    """Replay one event log through a whole matrix of engine designs.

    This is the stable entry point differential tooling builds on (see
    :mod:`repro.conformance`): the *same* log — and therefore the exact
    same data-side decisions — drives every named factory, so any
    divergence between the returned results is attributable to the
    engines alone. Results are keyed and ordered like *factories*;
    every replay is independent (engines never share state).
    """
    results: Dict[str, SimulationResult] = {}
    for key, factory in factories.items():
        results[key] = replay_events(
            log,
            factory,
            config,
            counter_warmup_passes=counter_warmup_passes,
            workers=workers,
            shard_timeout=shard_timeout,
            path=path,
        )
    return results
