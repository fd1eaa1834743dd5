"""Tests for the harness CLI (python -m repro.harness)."""

import pytest

from repro.harness.__main__ import main


class TestCli:
    def test_runs_selected_experiment(self, capsys):
        rc = main(["eq1", "--length", "500", "--benchmarks", "bfs"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "eq1" in out
        assert "hits_required" in out

    def test_runs_multiple_experiments(self, capsys):
        rc = main(["fig10", "eq1", "--length", "500", "--benchmarks", "bfs"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fig10" in out and "eq1" in out

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["eq1", "--benchmarks", "doom"])

    def test_benchmark_restriction_applies(self, capsys):
        rc = main(["fig10", "--length", "400", "--benchmarks", "lbm"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lbm" in out
        assert "bfs" not in out

    def test_unknown_benchmark_message_names_known(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["eq1", "--benchmarks", "doom"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown benchmark 'doom'" in err
        assert "bfs" in err  # message lists the known roster
        assert "Traceback" not in err

    def test_unknown_engine_exits_cleanly(self, capsys):
        """Engine errors inside experiments surface as messages, not
        tracebacks."""
        from repro.harness.experiments import EXPERIMENTS
        from repro.harness.runner import ExperimentContext

        def bad_experiment(ctx: ExperimentContext):
            return ctx.run("bfs", "not-an-engine")

        EXPERIMENTS["badkey-test"] = bad_experiment
        try:
            rc = main(["badkey-test", "--length", "300"])
        finally:
            del EXPERIMENTS["badkey-test"]
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "not-an-engine" in err
        assert "Traceback" not in err

    def test_workers_flag_accepts_auto_and_ints(self, capsys):
        rc = main(["eq1", "--length", "300", "--benchmarks", "bfs",
                   "--workers", "auto"])
        assert rc == 0
        rc = main(["eq1", "--length", "300", "--benchmarks", "bfs",
                   "--workers", "1"])
        assert rc == 0

    def test_workers_flag_rejects_garbage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["eq1", "--workers", "zero"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit):
            main(["eq1", "--workers", "0"])

    def test_workers_n_sizes_the_replay_pool_under_a_journal(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.resilience.distributed import DistributedSupervisor

        def no_workers(*args, **kwargs):
            raise AssertionError("started a lease-queue worker")

        monkeypatch.setattr(DistributedSupervisor, "_spawn", no_workers)
        # The default --run-dir (.runs) resolves against the cwd.
        monkeypatch.chdir(tmp_path)
        argv = ["fig06", "fig18", "--length", "300", "--cache-dir", "",
                "--benchmarks", "bfs", "lbm"]
        assert main([*argv, "--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main([*argv, "--workers", "2"]) == 0
        assert capsys.readouterr().out == serial
        assert not (tmp_path / ".runs").exists()

    def test_shard_timeout_flag_accepts_seconds(self, capsys):
        rc = main(["eq1", "--length", "300", "--benchmarks", "bfs",
                   "--shard-timeout", "30"])
        assert rc == 0

    def test_shard_timeout_flag_rejects_garbage(self):
        with pytest.raises(SystemExit):
            main(["eq1", "--shard-timeout", "soon"])
        with pytest.raises(SystemExit):
            main(["eq1", "--shard-timeout", "0"])
        with pytest.raises(SystemExit):
            main(["eq1", "--shard-timeout", "-3"])


class TestProfileCli:
    def test_unknown_benchmark_rejected(self, capsys):
        from repro.harness.__main__ import profile_main

        with pytest.raises(SystemExit) as excinfo:
            profile_main(["doom"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown benchmark 'doom'" in err

    def test_unknown_engine_rejected(self, capsys):
        from repro.harness.__main__ import profile_main

        with pytest.raises(SystemExit) as excinfo:
            profile_main(["bfs", "--engine", "fort-knox"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown engine 'fort-knox'" in err
        assert "plutus" in err


class TestInjectCli:
    def test_quick_campaign_passes(self, capsys):
        rc = main(["inject", "bfs", "--campaign", "quick",
                   "--length", "600", "--cache-dir", ""])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fault class" in out
        assert "verdict: PASS" in out
        for engine in ("plutus", "pssm", "functional"):
            assert engine in out

    def test_engine_roster_restriction(self, capsys):
        rc = main(["inject", "bfs", "--campaign", "quick",
                   "--engines", "pssm", "functional",
                   "--length", "600", "--cache-dir", ""])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pssm" in out and "functional" in out
        assert "2 engine(s)" in out

    def test_unknown_campaign_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["inject", "bfs", "--campaign", "blitz"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown campaign 'blitz'" in err
        assert "quick" in err

    def test_unknown_benchmark_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["inject", "doom"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown benchmark 'doom'" in err

    def test_unknown_engine_variant_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["inject", "bfs", "--engines", "fort-knox"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown engine variant 'fort-knox'" in err

    def test_missed_fault_exits_nonzero(self, capsys, monkeypatch):
        """A campaign with any MISSED outcome must fail the process."""
        from repro.faults import campaign as campaign_mod
        from repro.faults.campaign import Outcome, TrialRecord
        from repro.faults.plan import FaultKind, InjectionPlan

        real_run = campaign_mod.run_campaign

        def sabotaged(spec, ops=None):
            report = real_run(spec, ops)
            report.records.append(
                TrialRecord(
                    engine="plutus",
                    plan=InjectionPlan(
                        kind=FaultKind.BITFLIP, address=0, trigger_index=1
                    ),
                    outcome=Outcome.MISSED,
                    exception=None,
                    detail="synthetic miss for the exit-code test",
                )
            )
            return report

        monkeypatch.setattr(
            "repro.harness.inject.run_campaign", sabotaged
        )
        rc = main(["inject", "bfs", "--campaign", "quick",
                   "--length", "600", "--cache-dir", ""])
        assert rc == 1
        out = capsys.readouterr().out
        assert "verdict: FAIL" in out
        assert "MISS:" in out
