"""The crash-point torture harness: coverage, verdicts, supervision.

Most sweeps here use a deliberately tiny workload (a handful of
benchmark-shaped accesses plus the coverage tail) so the full site ×
mode × op-class matrix runs in well under a second. The built-in
``crash-full`` campaign runs unchanged under the ``slow`` marker and
takes seconds, not minutes, since the engine's crypto became cheap
(T-table AES, ``hashlib`` SHA-256); the CI ``crash-torture`` job runs
both ``crash`` and ``crash-full`` on benchmark-shaped victims.
"""

import pytest

from repro.faults.campaign import Outcome
from repro.faults.crashpoints import (
    CRASH_CAMPAIGNS,
    OP_CLASSES,
    CrashCampaignSpec,
    _record_payload,
    build_crash_ops,
    crash_campaign_spec,
    crash_ops_from_accesses,
    run_crash_campaign,
)
from repro.common.errors import FaultInjectionError
from repro.secure.recoverable import (
    FORMAT_SITE,
    RECOVERY_SITES,
    UPDATE_SITES,
)

TINY = CrashCampaignSpec(
    name="tiny",
    seed=11,
    size_bytes=256,
    num_ops=6,
    hot_sectors=3,
    checkpoint_every=3,
    partial_trials=1,
)

#: A benchmark-shaped access list: folded writes and reads over the
#: tiny footprint (the adapter appends the coverage-guaranteeing tail).
ACCESSES = [(0, True), (32, False), (64, True), (96, True), (0, False)]


def tiny_ops():
    return crash_ops_from_accesses(TINY, ACCESSES)


class TestRegistry:
    def test_builtin_campaigns_resolve(self):
        for name in CRASH_CAMPAIGNS:
            assert crash_campaign_spec(name).name == name

    def test_unknown_campaign_rejected(self):
        with pytest.raises(FaultInjectionError):
            crash_campaign_spec("no-such-campaign")


class TestWorkloadAdapters:
    def test_build_crash_ops_is_seeded(self):
        assert build_crash_ops(TINY) == build_crash_ops(TINY)

    def test_access_adapter_guarantees_op_classes(self):
        ops = tiny_ops()
        kinds = [op[0] for op in ops]
        assert "read" in kinds and "checkpoint" in kinds
        # The tail overflows sector 0's minor counter: enough writes to
        # exceed the 2-bit limit land on one sector back to back.
        tail_writes = [op for op in ops if op[0] == "write" and op[1] == 0]
        assert len(tail_writes) > TINY.counter_config().minor_limit

    def test_access_adapter_read_only_stream_still_covers(self):
        ops = crash_ops_from_accesses(TINY, [(0, False), (32, False)])
        assert any(op[0] == "write" for op in ops)


class TestSweep:
    def test_tiny_sweep_recovers_or_detects_everywhere(self):
        report = run_crash_campaign(TINY, ops=tiny_ops())
        assert report.records, "sweep produced no trials"
        assert report.silent_corruptions == []
        assert set(UPDATE_SITES) <= set(report.sites_covered)
        assert FORMAT_SITE in report.sites_covered
        assert set(RECOVERY_SITES) <= set(report.sites_covered)
        assert set(OP_CLASSES) <= set(report.op_classes_covered)
        assert report.complete
        assert report.ok
        outcomes = {r.outcome for r in report.records}
        assert outcomes <= {Outcome.RECOVERED, Outcome.TORN}

    def test_sweep_is_deterministic(self):
        first = run_crash_campaign(TINY, ops=tiny_ops())
        second = run_crash_campaign(TINY, ops=tiny_ops())
        assert (
            [_record_payload(r) for r in first.records]
            == [_record_payload(r) for r in second.records]
        )

    def test_supervised_run_and_resume_are_byte_identical(self, tmp_path):
        from repro.resilience import RunJournal, Supervisor

        ops = tiny_ops()
        direct = run_crash_campaign(TINY, ops=ops)

        def factory(campaign):
            journal = RunJournal.open(tmp_path, "torture", campaign)
            return Supervisor(journal=journal)

        supervised = run_crash_campaign(
            TINY, ops=ops, supervisor_factory=factory
        )
        assert supervised.supervision is not None
        assert not supervised.supervision.partial

        def resume_factory(campaign):
            journal = RunJournal.open(
                tmp_path, "torture", campaign, require_existing=True
            )
            return Supervisor(journal=journal)

        resumed = run_crash_campaign(
            TINY, ops=ops, supervisor_factory=resume_factory
        )
        expected = sorted(
            map(_record_payload, direct.records),
            key=lambda p: (p["op_index"], p["barrier_seq"], p["mode"],
                           p["recovery_kill"] or ""),
        )
        for report in (supervised, resumed):
            got = sorted(
                map(_record_payload, report.records),
                key=lambda p: (p["op_index"], p["barrier_seq"], p["mode"],
                               p["recovery_kill"] or ""),
            )
            assert got == expected


@pytest.mark.slow
def test_full_builtin_sweep_has_no_silent_corruption():
    report = run_crash_campaign(crash_campaign_spec("crash-full"))
    assert report.silent_corruptions == []
    assert report.complete
    assert report.ok
