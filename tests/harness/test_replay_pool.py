"""The whole-replay pool of ExperimentContext and its stage-shaped chunks.

Pooled workers and the serial path replay the same chunks, so
everything rendered through a pooled context must match a serial one
byte for byte, also
when a worker dies and its replays are retried in this process. The
misbehaving engines below act up only inside pool workers (a worker
has a parent process; the test process does not), so the serial retry
and the serial reference see an ordinary PSSM engine.
"""

import multiprocessing
import os
import warnings

import pytest

from repro.common.errors import SimulationError
from repro.harness import experiments
from repro.harness.__main__ import main
from repro.harness.experiments import DESIGN_POINTS, EXPERIMENTS, design_points
from repro.harness.runner import (
    EngineSpec,
    ExperimentContext,
    _stage_chunks,
    _stage_counts,
)
from repro.secure.pssm import PssmEngine

LENGTH = 300
BENCHMARKS = ["bfs", "lbm", "histo"]


def _in_worker() -> bool:
    return multiprocessing.parent_process() is not None


class _WorkerKillingEngine(PssmEngine):
    """Kills the hosting pool worker; an ordinary PSSM engine elsewhere."""

    def __init__(self, partition_id, data_sectors, traffic, **kwargs):
        if _in_worker():
            os._exit(17)
        super().__init__(partition_id, data_sectors, traffic, **kwargs)


class _FailingEngine(PssmEngine):
    """Deterministic failure: raises wherever it is built."""

    def __init__(self, partition_id, data_sectors, traffic, **kwargs):
        raise ValueError(f"engine exploded on partition {partition_id}")


@pytest.fixture
def cheap_forgery(monkeypatch):
    """ext-forgery never touches the context; shrink its campaign."""
    real = experiments.run_forgery_experiment
    monkeypatch.setattr(
        experiments, "run_forgery_experiment",
        lambda trials, seed: real(trials=20, seed=seed),
    )


def _context(workers):
    return ExperimentContext(
        trace_length=LENGTH, benchmarks=list(BENCHMARKS), workers=workers,
        cache_dir="",
    )


def _result_tuple(result):
    return (
        result.engine_name, result.trace_name, result.traffic,
        result.engine_stats, result.l2_stats,
    )


def _child_pids():
    return {child.pid for child in multiprocessing.active_children()}


class TestPooledEqualsSerial:
    def test_every_experiment_renders_identically(self, capsys,
                                                  cheap_forgery):
        argv = ["--length", str(LENGTH), "--cache-dir", "",
                "--benchmarks", *BENCHMARKS]
        assert main([*argv, "--workers", "1"]) == 0
        serial = capsys.readouterr().out
        for key in EXPERIMENTS:
            assert key in serial
        # --workers 2 sizes the replay pool; --supervise runs the
        # experiments as work units on the same pool.
        pooled = [*argv, "--workers", "2", "--run-dir", ""]
        assert main(pooled) == 0
        assert capsys.readouterr().out == serial
        assert main([*pooled, "--supervise"]) == 0
        assert capsys.readouterr().out == serial

    def test_replay_counts_on_the_default_roster(self):
        with ExperimentContext(trace_length=60, workers=2,
                               cache_dir="") as ctx:
            ctx.prefetch(design_points(EXPERIMENTS))
            for key in EXPERIMENTS:
                for design in DESIGN_POINTS[key]:
                    for bench in ctx.benchmarks:
                        ctx.run(bench, design)
        # 14 benchmarks x 18 design points, of which plutus and
        # plutus:vcache-256 are one engine configuration. Per benchmark
        # the stage group replays 3 counter+tree, 5 value and 7 MAC
        # stages for its 8 points; the other 6 Plutus points, dealt over
        # two chunks, share 2 of their 6 MAC stages.
        assert ctx.replay_counts == {
            "executed": 238, "deduplicated": 14, "shard_retries": 0,
            "stages": {
                "counter+tree": {"executed": 14 * 9, "shared": 14 * 5},
                "value": {"executed": 14 * 5, "shared": 14 * 2},
                "mac": {"executed": 14 * 11, "shared": 14 * 3},
            },
        }

    def test_serial_run_replays_the_same_stage_groups(self):
        with ExperimentContext(trace_length=60, benchmarks=["bfs"],
                               workers=1, cache_dir="") as ctx:
            ctx.prefetch(design_points(EXPERIMENTS))
            planned = {id(chunk) for chunk in ctx._chunk_of.values()}
            assert len(planned) == 3
            for key in EXPERIMENTS:
                for design in DESIGN_POINTS[key]:
                    ctx.run("bfs", design)
        counts = ctx.replay_counts
        assert counts["executed"] == 17
        assert counts["stages"] == {
            "counter+tree": {"executed": 9, "shared": 5},
            "value": {"executed": 5, "shared": 2},
            "mac": {"executed": 11, "shared": 3},
        }


def test_stage_group_of_the_default_roster():
    ctx = ExperimentContext(trace_length=60, cache_dir="")
    names = {}
    for key in design_points(EXPERIMENTS):
        names.setdefault(ctx._identity(key), key)  # as prefetch dedupes
    group, *rest = _stage_chunks(
        [(identity, ctx._factory(key)) for identity, key in names.items()]
    )
    assert {names[identity] for identity, _ in group} == {
        "plutus", "plutus:vcache-64", "plutus:vcache-128",
        "plutus:vcache-512", "plutus:vcache-1024", "plutus:no-tree",
        "plutus:value-only", "gran:128B",
    }
    assert [len(chunk) for chunk in rest] == [5, 4]
    counts = _stage_counts(spec for _, spec in group)
    # 3 counter+tree stages for the 8 points; 5 value stages for the 7
    # with a value cache.
    assert counts["counter+tree"] == [3, 5]
    assert counts["value"] == [5, 2]


def test_points_without_a_stage_group_still_fill_three_chunks():
    ctx = ExperimentContext(trace_length=60, cache_dir="")
    jobs = [(key, ctx._factory(key)) for key in ("pssm", "nosec", "plutus")]
    assert _stage_chunks(jobs) == [[job] for job in jobs]


class TestFaults:
    def test_killed_worker_retries_serially(self):
        with _context(2) as pooled:
            pooled.factories["killer"] = EngineSpec(_WorkerKillingEngine)
            # The killer shares its benchmark's chunk with the other three
            # designs, so the worker dies mid-chunk. That may happen
            # while prefetch is still submitting, so the warning is
            # recorded from there on.
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                pooled.prefetch(["pssm", "nosec", "plutus", "killer"])
                results = {
                    (bench, key): pooled.run(bench, key)
                    for bench in BENCHMARKS
                    for key in ("pssm", "nosec", "plutus", "killer")
                }
        assert any(
            issubclass(w.category, RuntimeWarning)
            and "replay pool failed" in str(w.message)
            for w in caught
        )
        assert pooled.replay_counts["shard_retries"] >= 1
        with _context(1) as serial:
            serial.factories["killer"] = EngineSpec(PssmEngine)
            for (bench, key), result in results.items():
                assert _result_tuple(result) == _result_tuple(
                    serial.run(bench, key)
                )

    def test_replay_error_names_benchmark_and_design(self):
        with _context(2) as ctx:
            ctx.factories["exploder"] = EngineSpec(_FailingEngine)
            ctx.prefetch(["nosec", "exploder"])
            assert ctx.run("bfs", "nosec").metadata_bytes == 0
            with pytest.raises(SimulationError) as excinfo:
                ctx.run("lbm", "exploder")
        message = str(excinfo.value)
        assert "'lbm'" in message and "'exploder'" in message
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert "engine exploded" in str(excinfo.value.__cause__)

    def test_no_worker_outlives_close(self):
        before = _child_pids()
        ctx = _context(2)
        ctx.prefetch(["pssm", "plutus"])
        assert _child_pids() - before
        ctx.run("bfs", "pssm")
        ctx.close()
        assert _child_pids() == before
        ctx.close()  # idempotent

    def test_close_stops_busy_workers(self):
        before = _child_pids()
        ctx = _context(2)
        ctx.prefetch(design_points(EXPERIMENTS))
        ctx.close()
        assert _child_pids() == before
        # The context still works, serially.
        assert ctx.run("bfs", "nosec").metadata_bytes == 0


class _RecordingContext(ExperimentContext):
    def __post_init__(self):
        super().__post_init__()
        self.keys = []

    def run(self, benchmark, engine_key):
        self.keys.append(engine_key)
        return super().run(benchmark, engine_key)


@pytest.mark.parametrize("key", sorted(EXPERIMENTS))
def test_declared_design_points_match_runs(key, cheap_forgery):
    ctx = _RecordingContext(trace_length=LENGTH, benchmarks=["bfs"],
                            cache_dir="")
    EXPERIMENTS[key](ctx)
    assert list(dict.fromkeys(ctx.keys)) == list(DESIGN_POINTS[key])
