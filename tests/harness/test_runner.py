"""Tests for the caching experiment runner."""

import pytest

from repro.harness.runner import (
    EngineSpec,
    ExperimentContext,
    resolve_workers,
)


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(trace_length=1500, benchmarks=["bfs", "lbm"])


class TestCaching:
    def test_trace_cached(self, ctx):
        assert ctx.trace("bfs") is ctx.trace("bfs")

    def test_event_log_cached(self, ctx):
        assert ctx.event_log("bfs") is ctx.event_log("bfs")

    def test_result_cached(self, ctx):
        assert ctx.run("bfs", "pssm") is ctx.run("bfs", "pssm")

    def test_results_keyed_by_engine(self, ctx):
        assert ctx.run("bfs", "pssm") is not ctx.run("bfs", "plutus")


class TestResolveWorkers:
    def test_auto_uses_at_least_one(self):
        assert resolve_workers(None) >= 1

    def test_explicit_passthrough(self):
        assert resolve_workers(3) == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_workers(0)


class TestFactories:
    def test_headline_engines_exist(self, ctx):
        for key in ("nosec", "pssm", "common-counters", "plutus"):
            assert key in ctx.factories

    def test_figure_variants_exist(self, ctx):
        for key in (
            "plutus:value-only",
            "gran:128B", "gran:32B-leaf", "gran:32B-all",
            "compact:2bit", "compact:3bit", "compact:adaptive",
            "plutus:no-tree", "pssm:no-tree",
            "plutus:vcache-256", "pssm:4B-mac", "pssm:eager",
        ):
            assert key in ctx.factories, key

    def test_unknown_engine_rejected(self, ctx):
        with pytest.raises(KeyError):
            ctx.run("bfs", "quantum-engine")

    def test_run_custom(self, ctx):
        from repro.secure.engine import NoSecurityEngine

        result = ctx.run_custom(
            "bfs", "mine", lambda p, s, t: NoSecurityEngine(p, s, t)
        )
        assert result.metadata_bytes == 0
        assert ctx.run_custom(
            "bfs", "mine", lambda p, s, t: NoSecurityEngine(p, s, t)
        ) is result


class TestEngineKeySemantics:
    def test_value_only_generates_no_compact_traffic(self, ctx):
        from repro.mem.traffic import Stream

        result = ctx.run("bfs", "plutus:value-only")
        assert result.traffic.bytes_by_stream[Stream.COMPACT_COUNTER_READ] == 0

    def test_gran_variants_have_no_value_or_compact(self, ctx):
        result = ctx.run("bfs", "gran:32B-all")
        assert result.engine_stats.value_verified_fills == 0
        assert result.engine_stats.compact_only_accesses == 0

    def test_no_tree_variant_moves_no_tree_bytes(self, ctx):
        assert ctx.run("bfs", "plutus:no-tree").traffic.tree_bytes == 0

    def test_4B_mac_moves_fewer_mac_bytes(self, ctx):
        full = ctx.run("lbm", "pssm")
        small = ctx.run("lbm", "pssm:4B-mac")
        assert small.traffic.mac_bytes <= full.traffic.mac_bytes


class TestDesignIdentity:
    def test_spelled_out_defaults_share_one_replay(self, ctx):
        result = ctx.run("bfs", "plutus")
        assert ctx.run("bfs", "plutus:vcache-256") is result
        assert ctx.run("bfs", "plutus:pinned-0.25") is result
        assert ctx.run("bfs", "plutus:vcache-128") is not result

    def test_different_classes_never_merge(self, ctx):
        # pssm and gran:128B match in traffic, but only empirically.
        pssm = ctx.factories["pssm"].identity()
        assert pssm != ctx.factories["gran:128B"].identity()

    def test_identity_is_canonical(self):
        from repro.secure.plutus import PlutusEngine
        from repro.secure.value_cache import ValueCacheConfig

        bare = EngineSpec(PlutusEngine)
        explicit = EngineSpec(
            PlutusEngine, value_cache_config=ValueCacheConfig(),
            lazy_update=True,
        )
        assert bare.identity() == explicit.identity()
        assert bare.identity() != EngineSpec(
            PlutusEngine, lazy_update=False
        ).identity()

    def test_custom_key_does_not_shadow_named_run(self):
        from repro.secure.engine import NoSecurityEngine

        fresh = ExperimentContext(trace_length=500, benchmarks=["bfs"])
        custom = fresh.run_custom("bfs", "plutus", EngineSpec(NoSecurityEngine))
        named = fresh.run("bfs", "plutus")
        assert custom.metadata_bytes == 0
        assert named.metadata_bytes > 0
        assert fresh.run_custom(
            "bfs", "plutus", EngineSpec(NoSecurityEngine)
        ) is custom


def test_pssm_matches_gran_128b_on_the_roster():
    # PSSM is Plutus with all three ideas off (128 B metadata, no value
    # cache, no compact counters): the same traffic and stats on every
    # benchmark. Evidence for retiring PssmEngine in favour of the
    # staged Plutus path.
    with ExperimentContext(trace_length=500, cache_dir="") as ctx:
        ctx.prefetch(["pssm", "gran:128B"])
        for bench in ctx.benchmarks:
            pssm = ctx.run(bench, "pssm")
            gran = ctx.run(bench, "gran:128B")
            assert pssm.traffic == gran.traffic, bench
            assert pssm.engine_stats == gran.engine_stats, bench
    assert len(ctx.benchmarks) == 14
