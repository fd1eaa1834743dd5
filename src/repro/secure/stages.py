"""Replay units: what a replay matrix walks over an event log.

A design point replays either whole, as one :class:`EngineUnit` that
feeds its engines through the batch hooks, or split into the keyed
stages its engine class names (:meth:`PartitionEngine.replay_stages`).
Two stages with equal keys build the same unit, so a matrix of several
designs runs each distinct stage once
(:func:`repro.gpu.simulator.replay_matrix`).

A unit holds one state object per partition, built on the partition's
first event, and walks a window of the log cut into same-kind runs.
The window offers ``runs`` (a list of ``(partition, fill, a, b)``),
``sectors[a:b]`` and ``values(a, b)`` for each run, and ``fixed32``
(every present sector image is 32 bytes).
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, NamedTuple, Optional

import numpy as np

from repro.mem.traffic import TrafficCounter
from repro.obs.spans import NULL_SPAN_PROFILER
from repro.secure.engine import EngineStats, PartitionEngine


class ReplayUnit:
    """One unit of a replay: per-partition state and its outcome."""

    #: The unit's metadata traffic, when it makes any.
    traffic: Optional[TrafficCounter] = None

    def __init__(self, data_sectors: int) -> None:
        self.data_sectors = data_sectors
        self.parts: Dict[int, object] = {}
        self.stats = EngineStats()
        #: What the unit raised; it fails every design built on it.
        self.error: Optional[Exception] = None

    def part(self, partition: int):
        state = self.parts.get(partition)
        if state is None:
            state = self.parts[partition] = self.build(partition)
        return state

    def build(self, partition: int):
        """One partition's state."""
        raise NotImplementedError

    def warm(self, writebacks: Dict[int, np.ndarray], passes: int) -> None:
        """Pre-window counter warmup over each partition's writebacks."""

    def feed(self, runs, upstream):
        """Replay a window's runs. *upstream* is the output of the
        stage named by this one's :attr:`Stage.after`; the return value
        is this unit's output."""
        raise NotImplementedError

    def finalize(self) -> None:
        for state in self.parts.values():
            state.finalize()

    def release(self) -> None:
        """Keep the summed stats; drop the per-partition state."""
        self.stats = EngineStats.merged(s.stats for s in self.parts.values())
        self.parts = {}


class Stage(NamedTuple):
    """One stage of a design point as a replay matrix plans it."""

    #: What the stage does, e.g. ``"counter+tree"``.
    kind: str
    #: Equal keys build equal units.
    key: Hashable
    #: Key of the stage whose per-run output this one takes, if any.
    after: Optional[Hashable]
    #: Builds the unit for partitions of the given sector count.
    build: Callable[[int], ReplayUnit]


class EngineUnit(ReplayUnit):
    """A whole design: one engine per partition from *factory*.

    *prof* opens an ``engine.fill``/``engine.writeback`` span around
    each run (the null profiler outside span detail).
    """

    name = "no-traffic"

    def __init__(self, factory, data_sectors: int,
                 prof=NULL_SPAN_PROFILER) -> None:
        super().__init__(data_sectors)
        self.factory = factory
        self.prof = prof
        self.traffic = TrafficCounter()

    def build(self, partition: int) -> PartitionEngine:
        engine = self.factory(partition, self.data_sectors, self.traffic)
        self.name = engine.name
        return engine

    def warm(self, writebacks: Dict[int, np.ndarray], passes: int) -> None:
        for partition, sectors in writebacks.items():
            engine = self.part(partition)
            # Batch-native engines take the sector column directly (and
            # collapse the passes internally when provably order-free);
            # the scalar fallback gets plain ints.
            if not engine.batch_native:
                sectors = sectors.tolist()
            engine.warm_counters_batch(sectors, passes)

    def feed(self, runs, upstream) -> None:
        for partition, fill, a, b in runs.runs:
            engine = self.part(partition)
            sectors = runs.sectors[a:b]
            if not engine.batch_native:
                sectors = sectors.tolist()
            if fill:
                with self.prof.span("engine.fill", events=b - a):
                    engine.on_fill_batch(sectors, runs.values(a, b))
            else:
                with self.prof.span("engine.writeback", events=b - a):
                    engine.on_writeback_batch(sectors, runs.values(a, b))
