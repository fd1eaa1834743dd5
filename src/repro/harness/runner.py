"""Experiment execution context with caching and a whole-replay pool.

All figure reproductions share the same expensive artifacts: benchmark
traces, their L2 event logs (one pass per trace regardless of how many
engines are compared), and per-engine simulation results. The
:class:`ExperimentContext` memoizes traces and logs twice — in memory
for the lifetime of one context, and content-hashed on disk (see
:mod:`repro.harness.diskcache`) so repeated sweeps across processes
skip trace generation and ``simulate_l2`` entirely. Replay results stay
in-memory only: they are cheap relative to the L2 pass and depend on
the engine design under study.

Engine design points are addressed by *keys* (e.g. ``"plutus"``,
``"pssm"``, ``"plutus:gran32"``) so experiments stay declarative and
results cache across figures. Every named factory is an
:class:`EngineSpec` — a picklable (class, kwargs) pair with a canonical
:meth:`~EngineSpec.identity` — so keys that resolve to the same engine
configuration share one replay, and the same spec can be replayed in
a worker process.

Parallelism is at the grain of whole replays: :meth:`ExperimentContext.prefetch`
submits every (benchmark, design point) replay an experiment list will
need to one process pool that lives as long as the context, and
:meth:`ExperimentContext.run` collects them as the experiments ask.
Each worker runs the serial reference replay, so results are
byte-identical to ``workers=1`` by construction.
"""

from __future__ import annotations

import inspect
import multiprocessing
import os
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Type, Union

from repro.common.errors import SimulationError
from repro.gpu.config import VOLTA, GpuConfig
from repro.gpu.simulator import (
    EngineFactory,
    MemoryEventLog,
    SimulationResult,
    replay_events,
    simulate_l2,
)
from repro.harness.diskcache import DiskCache, content_digest
from repro.mem.traffic import TrafficCounter
from repro.metadata.compact import (
    DESIGN_2BIT,
    DESIGN_3BIT,
    DESIGN_3BIT_ADAPTIVE,
)
from repro.metadata.layout import GranularityDesign
from repro.obs import ObsConfig, ObsSession, activate
from repro.secure.common_counters import CommonCountersEngine
from repro.secure.engine import NoSecurityEngine, PartitionEngine
from repro.secure.plutus import PlutusEngine
from repro.secure.pssm import PssmEngine
from repro.secure.recoverable import RecoverableEngine
from repro.secure.value_cache import ValueCacheConfig
from repro.workloads.benchmarks import benchmark_names, build_trace
from repro.workloads.trace import Trace

#: Default trace length; override with the REPRO_TRACE_LEN environment
#: variable (tests use small values, full runs larger ones).
DEFAULT_TRACE_LENGTH = int(os.environ.get("REPRO_TRACE_LEN", "30000"))


class EngineSpec:
    """A picklable engine factory: a design class plus constructor kwargs.

    Parallel replay ships factories into worker processes; lambdas
    cannot cross that boundary, specs can. Calling a spec builds one
    partition's engine exactly like the closures it replaces.
    """

    __slots__ = ("engine_cls", "kwargs")

    def __init__(self, engine_cls: Type[PartitionEngine], **kwargs) -> None:
        self.engine_cls = engine_cls
        self.kwargs = kwargs

    def __call__(
        self,
        partition_id: int,
        data_sectors: int,
        traffic: TrafficCounter,
    ) -> PartitionEngine:
        return self.engine_cls(
            partition_id, data_sectors, traffic, **self.kwargs
        )

    def __repr__(self) -> str:
        kwargs = ", ".join(
            f"{k}={v!r}" for k, v in sorted(self.kwargs.items())
        )
        suffix = f", {kwargs}" if kwargs else ""
        return f"EngineSpec({self.engine_cls.__name__}{suffix})"

    def identity(self) -> str:
        """Canonical name of the engine configuration this spec builds.

        The class (by import path) plus its keyword arguments bound over
        the constructor signature with defaults applied, so specs that
        differ only in spelling out a default (``plutus`` and
        ``plutus:vcache-256``) share one identity and one replay. Values
        compare by ``repr``, which is structural for the config
        dataclasses. Two *different* classes never share an identity,
        however similar their traffic.
        """
        cls = self.engine_cls
        signature = inspect.signature(cls)
        bound = signature.bind(None, None, None, **self.kwargs)
        bound.apply_defaults()
        items = []
        # The first three arguments are the per-partition factory call.
        for name, value in list(bound.arguments.items())[3:]:
            if signature.parameters[name].kind is inspect.Parameter.VAR_KEYWORD:
                items.extend(value.items())
            else:
                items.append((name, value))
        args = ", ".join(f"{k}={v!r}" for k, v in sorted(items))
        return f"{cls.__module__}.{cls.__qualname__}({args})"


def engine_factories() -> Dict[str, EngineFactory]:
    """The named design points every experiment draws from."""

    def plutus_variant(**kwargs) -> EngineSpec:
        return EngineSpec(PlutusEngine, **kwargs)

    factories: Dict[str, EngineFactory] = {
        "nosec": EngineSpec(NoSecurityEngine),
        "pssm": EngineSpec(PssmEngine),
        "pssm:4B-mac": EngineSpec(PssmEngine, mac_tag_bytes=4),
        "common-counters": EngineSpec(CommonCountersEngine),
        "plutus": plutus_variant(),
        # Fig. 15: value verification alone on the PSSM organization.
        "plutus:value-only": plutus_variant(
            design=GranularityDesign.BLOCK_128, compact_config=None
        ),
        # Fig. 16: the three granularity designs, nothing else enabled.
        "gran:128B": plutus_variant(
            design=GranularityDesign.BLOCK_128,
            value_cache_config=None,
            compact_config=None,
        ),
        "gran:32B-leaf": plutus_variant(
            design=GranularityDesign.LEAF_32_TREE_128,
            value_cache_config=None,
            compact_config=None,
        ),
        "gran:32B-all": plutus_variant(
            design=GranularityDesign.ALL_32,
            value_cache_config=None,
            compact_config=None,
        ),
        # Fig. 17: the three compact-counter designs on PSSM granularity.
        "compact:2bit": plutus_variant(
            design=GranularityDesign.BLOCK_128,
            value_cache_config=None,
            compact_config=DESIGN_2BIT,
        ),
        "compact:3bit": plutus_variant(
            design=GranularityDesign.BLOCK_128,
            value_cache_config=None,
            compact_config=DESIGN_3BIT,
        ),
        "compact:adaptive": plutus_variant(
            design=GranularityDesign.BLOCK_128,
            value_cache_config=None,
            compact_config=DESIGN_3BIT_ADAPTIVE,
        ),
        # Fig. 20: integrity-tree traffic eliminated (MGX/TNPU-style).
        "plutus:no-tree": plutus_variant(eliminate_tree=True),
        "pssm:no-tree": plutus_variant(
            design=GranularityDesign.BLOCK_128,
            value_cache_config=None,
            compact_config=None,
            eliminate_tree=True,
        ),
        # Ablations.
        "pssm:eager": EngineSpec(PssmEngine, lazy_update=False),
        # Crash-recoverable variant: PSSM traffic plus the persisted
        # metadata-log stream (see repro.secure.recoverable).
        "recoverable": EngineSpec(RecoverableEngine),
    }
    for entries in (64, 128, 256, 512, 1024):
        factories[f"plutus:vcache-{entries}"] = plutus_variant(
            value_cache_config=ValueCacheConfig(entries=entries)
        )
    for fraction in (0.0, 0.125, 0.25, 0.5):
        factories[f"plutus:pinned-{fraction}"] = plutus_variant(
            value_cache_config=ValueCacheConfig(pinned_fraction=fraction)
        )
    return factories


def resolve_workers(workers: "int | None") -> int:
    """Normalize a ``--workers`` value: ``None`` means one per CPU core."""
    if workers is None:
        return max(1, os.cpu_count() or 1)
    if workers < 1:
        raise ValueError("workers must be >= 1 (or None for auto)")
    return workers


#: Most chunks one benchmark's pooled replays are split into. Each chunk
#: pickles the benchmark's event log once; more chunks balance the
#: workers better at the price of more pickling.
CHUNKS_PER_BENCHMARK = 3

#: A memoized replay: (benchmark, :meth:`EngineSpec.identity`).
_Pair = Tuple[str, str]


def _replay_chunk(
    log: MemoryEventLog, specs: List[EngineSpec], config: GpuConfig
) -> List[Union[SimulationResult, Exception]]:
    """Replay-pool worker entry: replay one log through several designs.

    Each replay is the serial reference path. A replay that raises
    yields its exception in place of a result, so the other designs of
    the chunk still count and the parent can name the one that failed.
    """
    outcomes: List[Union[SimulationResult, Exception]] = []
    for spec in specs:
        try:
            outcomes.append(replay_events(log, spec, config))
        except Exception as exc:  # reported by the parent, per design
            outcomes.append(exc)
    return outcomes


@dataclass
class _Chunk:
    """Several replays of one benchmark, submitted as one pool task."""

    benchmark: str
    identities: List[str]
    future: Future


@dataclass
class ExperimentContext:
    """Caching runner shared by every experiment.

    When an enabled :class:`~repro.obs.ObsConfig` is supplied, every
    trace build, L2 pass, and engine replay executed through the context
    runs under one :class:`~repro.obs.ObsSession`, whose registry and
    tracer accumulate across runs (the ``profile`` subcommand drives a
    single run and exports them). The default config is disabled and
    changes nothing.

    ``workers`` sizes the replay pool (1 = no pool, ``None`` = one
    worker per core). The pool starts on the first :meth:`prefetch`
    and runs whole replays; it is never used under an enabled
    ``obs`` config, whose instrumentation lives in this process.
    ``shard_timeout`` bounds each wait for a pooled chunk of replays —
    past it the pool is stopped and the replays it still owed are
    retried serially in-process rather than hanging the run.
    ``cache_dir`` names the disk-cache root (``None`` = resolve from
    ``REPRO_CACHE_DIR``, default ``.cache``; empty string disables disk
    caching).

    A context that prefetched owns worker processes: close it with
    :meth:`close` or use it as a context manager.
    """

    config: GpuConfig = VOLTA
    trace_length: int = DEFAULT_TRACE_LENGTH
    seed: int = 2023
    benchmarks: List[str] = field(default_factory=benchmark_names)
    obs: ObsConfig = field(default_factory=ObsConfig)
    workers: Optional[int] = 1
    shard_timeout: Optional[float] = None
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        self._traces: Dict[str, Trace] = {}
        self._logs: Dict[str, MemoryEventLog] = {}
        self._results: Dict[_Pair, SimulationResult] = {}
        self._custom: Dict[Tuple[str, str], SimulationResult] = {}
        self._identities: Dict[str, str] = {}
        self._requested: Dict[Tuple[str, str], _Pair] = {}
        self._chunk_of: Dict[_Pair, _Chunk] = {}
        self._errors: Dict[_Pair, Exception] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._executed = 0
        self._shard_retries = 0
        self.factories = engine_factories()
        self.obs_session = ObsSession(self.obs)
        self.disk_cache = DiskCache.from_spec(self.cache_dir)

    def __enter__(self) -> "ExperimentContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def fingerprint(self) -> str:
        """Content hash of everything that shapes this context's results.

        Execution knobs (workers, shard timeout, cache location) are
        deliberately excluded: they change *how* results are computed,
        never *what* they are, so a journaled run may resume under a
        different worker count and still merge byte-identically.
        """
        return content_digest(
            "experiment-context",
            repr(self.config),
            str(self.trace_length),
            str(self.seed),
            ",".join(self.benchmarks),
        )

    def trace(self, benchmark: str) -> Trace:
        if benchmark not in self._traces:
            trace = None
            key = None
            if self.disk_cache is not None:
                key = DiskCache.trace_key(
                    benchmark, self.trace_length, self.seed
                )
                trace = self.disk_cache.load_trace(key)
            if trace is None:
                with self.obs_session.phase("build_trace", benchmark=benchmark):
                    trace = build_trace(
                        benchmark, length=self.trace_length, seed=self.seed
                    )
                if self.disk_cache is not None and key is not None:
                    self.disk_cache.store_trace(key, trace)
            else:
                # A disk-cache hit skips trace generation; emit the phase
                # (near-zero, tagged cached) so metrics stay complete.
                with self.obs_session.phase(
                    "build_trace", benchmark=benchmark, cached=True
                ):
                    pass
            self._traces[benchmark] = trace
        return self._traces[benchmark]

    def event_log(self, benchmark: str) -> MemoryEventLog:
        if benchmark not in self._logs:
            trace = self.trace(benchmark)
            log = None
            key = None
            if self.disk_cache is not None:
                key = DiskCache.event_log_key(trace, self.config)
                log = self.disk_cache.load_event_log(key)
            if log is None:
                with activate(self.obs_session):
                    log = simulate_l2(trace, self.config)
                if self.disk_cache is not None and key is not None:
                    self.disk_cache.store_event_log(key, log)
            else:
                # A cache hit skips simulate_l2, so restore the phase span
                # and gauges the live pass would have set for the profile
                # dashboard.
                with self.obs_session.phase(
                    "simulate_l2", trace=trace.name, cached=True
                ):
                    pass
                if self.obs.metrics_active:
                    registry = self.obs_session.registry
                    registry.gauge("l2.sector_hit_rate").set(
                        log.l2_stats.sector_hit_rate
                    )
                    registry.gauge("l2.dram_events").set(len(log.events))
            self._logs[benchmark] = log
        return self._logs[benchmark]

    def _factory(self, engine_key: str) -> EngineFactory:
        factory = self.factories.get(engine_key)
        if factory is None:
            raise KeyError(
                f"unknown engine {engine_key!r}; known: "
                f"{sorted(self.factories)}"
            )
        return factory

    def _identity(self, engine_key: str) -> str:
        """The memo identity of a design key (see :meth:`EngineSpec.identity`)."""
        identity = self._identities.get(engine_key)
        if identity is None:
            factory = self._factory(engine_key)
            identity = (
                factory.identity() if isinstance(factory, EngineSpec)
                else f"key:{engine_key}"
            )
            self._identities[engine_key] = identity
        return identity

    def run(self, benchmark: str, engine_key: str) -> SimulationResult:
        """Simulate one (benchmark, engine) pair, memoized.

        Keys whose specs share an :meth:`EngineSpec.identity` share one
        result. A prefetched replay is collected from the pool; anything
        else replays here, serially.
        """
        pair = (benchmark, self._identity(engine_key))
        self._requested[(benchmark, engine_key)] = pair
        if pair not in self._results:
            chunk = self._chunk_of.get(pair)
            if chunk is not None:
                self._collect(chunk)
            error = self._errors.pop(pair, None)
            if error is not None:
                raise SimulationError(
                    f"replay of design point {engine_key!r} on benchmark "
                    f"{benchmark!r} failed in a replay worker: {error}"
                ) from error
            if pair not in self._results:
                self._results[pair] = self._replay(
                    benchmark, self._factory(engine_key)
                )
        return self._results[pair]

    def run_custom(
        self,
        benchmark: str,
        key: str,
        factory: EngineFactory,
    ) -> SimulationResult:
        """Simulate with an ad-hoc engine factory, memoized under *key*.

        Custom keys have their own namespace: they never shadow, or get
        shadowed by, the named design points :meth:`run` takes.
        """
        if (benchmark, key) not in self._custom:
            self._custom[(benchmark, key)] = self._replay(benchmark, factory)
        return self._custom[(benchmark, key)]

    def results(self) -> Dict[str, SimulationResult]:
        """Every memoized result as ``"benchmark|key"`` -> result."""
        named = {
            f"{bench}|{key}": self._results[pair]
            for (bench, key), pair in self._requested.items()
            if pair in self._results
        }
        custom = {
            f"{bench}|{key}": result
            for (bench, key), result in self._custom.items()
        }
        return {**custom, **named}

    @property
    def replay_counts(self) -> Dict[str, int]:
        """How the replays of this context were served.

        ``executed``: replays run, here or in the pool; ``deduplicated``:
        design keys served by another key's replay of the same
        :meth:`EngineSpec.identity`; ``shard_retries``: replays the pool
        owed when it failed, run serially instead.
        """
        requested = self._requested.values()
        return {
            "executed": self._executed,
            "deduplicated": len(requested) - len(set(requested)),
            "shard_retries": self._shard_retries,
        }

    def _replay(
        self, benchmark: str, factory: EngineFactory
    ) -> SimulationResult:
        """The serial reference replay, in this process."""
        log = self.event_log(benchmark)
        with activate(self.obs_session):
            result = replay_events(log, factory, self.config)
        self._executed += 1
        return result

    # -- the replay pool ------------------------------------------------------

    def prefetch(self, design_keys: Iterable[str]) -> None:
        """Start every replay of *design_keys* on the replay pool.

        Covers every benchmark of the context and skips replays already
        memoized or in flight, and keys of an identity already listed.
        A benchmark's replays go in at most :data:`CHUNKS_PER_BENCHMARK`
        chunks, keeping the keys' order. All first chunks go first,
        each submitted as soon as its event log is ready, so workers
        start while the remaining L2 passes run here. A no-op without a
        pool (``workers=1``, or an enabled ``obs`` config).
        """
        specs: Dict[str, EngineSpec] = {}
        for key in design_keys:
            factory = self._factory(key)
            if isinstance(factory, EngineSpec):
                specs.setdefault(self._identity(key), factory)
        if not specs or resolve_workers(self.workers) < 2 or self.obs.enabled:
            return
        plans = []
        for benchmark in self.benchmarks:
            todo = [
                (identity, spec) for identity, spec in specs.items()
                if (benchmark, identity) not in self._results
                and (benchmark, identity) not in self._chunk_of
            ]
            if todo:
                parts = min(CHUNKS_PER_BENCHMARK, len(todo))
                plans.append((benchmark, [
                    todo[i * len(todo) // parts:(i + 1) * len(todo) // parts]
                    for i in range(parts)
                ]))
        if self._pool is None:
            # Forked: a forked worker shares the parent's imports, where
            # a spawned one re-imports numpy and the package and needs a
            # resource-tracker process too (120 vs 149 MiB summed RSS
            # for the default run on 2 workers). Forking is safe here:
            # the executor forks all its workers at the first submit,
            # before it starts its manager thread, and the harness runs
            # no threads of its own.
            self._pool = ProcessPoolExecutor(
                max_workers=resolve_workers(self.workers),
                mp_context=multiprocessing.get_context("fork"),
            )
        for rank in range(CHUNKS_PER_BENCHMARK):
            for benchmark, chunks in plans:
                if self._pool is None:
                    return  # it failed; the rest replays serially
                if rank < len(chunks):
                    self._submit(benchmark, chunks[rank])

    def _submit(
        self, benchmark: str, jobs: List[Tuple[str, EngineSpec]]
    ) -> None:
        log = self.event_log(benchmark)
        try:
            future = self._pool.submit(
                _replay_chunk, log, [spec for _, spec in jobs], self.config
            )
        except BrokenProcessPool:
            self._abandon_pool("a worker process died")
            return
        chunk = _Chunk(benchmark, [identity for identity, _ in jobs], future)
        for identity in chunk.identities:
            self._chunk_of[(benchmark, identity)] = chunk

    def _collect(self, chunk: _Chunk) -> None:
        """Memoize a chunk's results, waiting for it if need be.

        A dead worker or a chunk past ``shard_timeout`` stops the pool;
        the replays it still owed then run serially on request.
        """
        try:
            outcomes = chunk.future.result(timeout=self.shard_timeout)
        except BrokenProcessPool:
            self._abandon_pool("a worker process died")
            return
        except FutureTimeoutError:
            self._abandon_pool(
                f"a chunk of {chunk.benchmark!r} passed the "
                f"{self.shard_timeout:g}s shard timeout"
            )
            return
        for identity, outcome in zip(chunk.identities, outcomes):
            pair = (chunk.benchmark, identity)
            del self._chunk_of[pair]
            if isinstance(outcome, Exception):
                self._errors[pair] = outcome
            else:
                self._results[pair] = outcome
                self._executed += 1

    def _abandon_pool(self, cause: str) -> None:
        """Stop the failed pool and replay serially from now on."""
        owed = len(self._chunk_of)
        warnings.warn(
            f"replay pool failed ({cause}); running its {owed} "
            f"outstanding replay(s) and all later ones serially",
            RuntimeWarning,
            stacklevel=4,
        )
        self._shard_retries += owed
        self.workers = 1
        self.close()

    def close(self) -> None:
        """Stop the replay pool; later replays run serially in-process.

        Workers still busy with chunks nobody will collect are
        terminated rather than waited for. Idempotent.
        """
        pool, self._pool = self._pool, None
        busy = any(not c.future.done() for c in self._chunk_of.values())
        self._chunk_of.clear()
        if pool is None:
            return
        if busy:
            # ProcessPoolExecutor has no public way to stop a running
            # task; terminating a worker breaks the pool, which then
            # stops the others and fails the pending futures.
            for process in list((pool._processes or {}).values()):
                process.terminate()
        pool.shutdown(wait=True, cancel_futures=True)
