"""Tests for the benchmark roster and trace builder."""

import pytest

from repro.common.errors import ConfigurationError
from repro.workloads.benchmarks import (
    BENCHMARKS,
    benchmark_names,
    build_all_traces,
    build_trace,
    get_profile,
    scaled_profile,
)
from repro.workloads.stats import characterize


class TestRoster:
    def test_roster_size(self):
        """14 headline benchmarks plus 6 extensions = 20."""
        assert len(BENCHMARKS) == 20

    def test_paper_roster_is_the_default(self):
        from repro.workloads.benchmarks import PAPER_ROSTER, benchmark_names

        assert benchmark_names() == list(PAPER_ROSTER)
        assert len(PAPER_ROSTER) == 14
        assert set(benchmark_names(include_extensions=True)) >= set(PAPER_ROSTER)

    def test_extension_profiles_buildable(self):
        for name in ("nw", "btree", "mis", "fw", "sgemm", "cutcp"):
            trace = build_trace(name, length=200)
            assert len(trace) == 200

    def test_all_four_suites_present(self):
        suites = {p.suite for p in BENCHMARKS.values()}
        assert suites == {"rodinia", "parboil", "lonestargpu", "pannotia"}

    def test_intensity_classes_present(self):
        classes = {p.intensity_class for p in BENCHMARKS.values()}
        assert classes == {"high", "medium"}

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ConfigurationError):
            get_profile("doom")

    def test_scaled_profile_overrides(self):
        profile = scaled_profile("bfs", memory_intensity=0.5)
        assert profile.memory_intensity == 0.5
        assert get_profile("bfs").memory_intensity != 0.5


class TestBuildTrace:
    def test_length_honoured(self):
        assert len(build_trace("bfs", length=500)) == 500

    def test_length_is_required(self):
        # No default: a forgotten length used to build 120000 accesses,
        # 4x a full reproduction's trace.
        with pytest.raises(TypeError):
            build_trace("bfs")
        with pytest.raises(TypeError):
            build_all_traces()

    def test_determinism(self):
        a = build_trace("kmeans", length=300, seed=5)
        b = build_trace("kmeans", length=300, seed=5)
        assert [x.line_addr for x in a] == [x.line_addr for x in b]
        assert [x.values for x in a] == [x.values for x in b]

    def test_seed_changes_trace(self):
        a = build_trace("kmeans", length=300, seed=5)
        b = build_trace("kmeans", length=300, seed=6)
        assert [x.line_addr for x in a] != [x.line_addr for x in b]

    def test_read_fraction_approximates_profile(self):
        trace = build_trace("lbm", length=2000)
        stats = characterize(trace)
        assert stats.read_fraction == pytest.approx(
            get_profile("lbm").read_fraction, abs=0.02
        )

    def test_values_attached_by_default(self):
        trace = build_trace("bfs", length=100)
        assert all(a.values is not None for a in trace)

    def test_values_omittable(self):
        trace = build_trace("bfs", length=100, with_values=False)
        assert all(a.values is None for a in trace)

    def test_memory_intensity_propagated(self):
        trace = build_trace("sssp", length=100)
        assert trace.memory_intensity == get_profile("sssp").memory_intensity

    def test_warmup_depth_propagated(self):
        assert build_trace("lbm", length=50).counter_warmup_passes == 12
        assert build_trace("bfs", length=50).counter_warmup_passes == 3

    def test_invalid_length_rejected(self):
        with pytest.raises(ConfigurationError):
            build_trace("bfs", length=0)

    def test_addresses_inside_protected_range(self):
        trace = build_trace("sssp", length=2000)
        top = max(a.line_addr for a in trace)
        assert top < 4 * 1024**3


class TestBehaviouralContracts:
    def test_graph_apps_have_irregular_single_sector_reads(self):
        trace = build_trace("color", length=2000)
        single = sum(
            1 for a in trace if not a.write and a.sector_count == 1
        )
        assert single > 500

    def test_streaming_apps_use_full_lines(self):
        trace = build_trace("lbm", length=2000)
        full = sum(1 for a in trace if a.sector_mask == 0b1111)
        assert full == len(trace)

    def test_write_overlap_for_rmw_benchmarks(self):
        """Gaussian updates its matrix in place: written lines must
        intersect read lines."""
        trace = build_trace("gaussian", length=4000)
        reads = {a.line_addr for a in trace if not a.write}
        writes = {a.line_addr for a in trace if a.write}
        assert reads & writes

    def test_disjoint_outputs_for_double_buffered(self):
        """LBM writes a separate destination lattice."""
        trace = build_trace("lbm", length=4000)
        reads = {a.line_addr for a in trace if not a.write}
        writes = {a.line_addr for a in trace if a.write}
        assert not reads & writes
