"""Tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["topology", "--scale", "galactic"])


class TestTopologyCommand:
    def test_human_output(self, capsys):
        code, out, _err = run_cli(capsys, "topology", "--scale", "tiny")
        assert code == 0
        assert "hosts: 112" in out
        assert "border_switches: 4" in out

    def test_json_output(self, capsys):
        code, out, _err = run_cli(capsys, "topology", "--scale", "tiny", "--json")
        assert code == 0
        document = json.loads(out)
        assert document["hosts"] == 112
        assert document["power_supplies"] == 5


class TestAssessCommand:
    HOSTS = "host/0/0/0,host/1/0/0,host/2/0/0"

    def test_human_output(self, capsys):
        code, out, _err = run_cli(
            capsys,
            "assess", "--scale", "tiny", "--hosts", self.HOSTS, "--k", "2",
            "--rounds", "2000",
        )
        assert code == 0
        assert "estimate" in out
        assert "R=" in out

    def test_json_output(self, capsys):
        code, out, _err = run_cli(
            capsys,
            "assess", "--scale", "tiny", "--hosts", self.HOSTS, "--k", "2",
            "--rounds", "2000", "--json",
        )
        assert code == 0
        document = json.loads(out)
        assert document["format"] == "assessment-result"
        assert 0.5 < document["estimate"]["score"] <= 1.0

    def test_unknown_host_is_reported(self, capsys):
        code, _out, err = run_cli(
            capsys,
            "assess", "--scale", "tiny", "--hosts", "ghost,host/0/0/0",
            "--k", "1", "--rounds", "500",
        )
        assert code == 2
        assert "error" in err


    def test_mode_flag_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["assess", "--hosts", self.HOSTS, "--k", "2", "--mode", "parallel"]
            )

    @pytest.mark.parametrize("workers, backend", [(0, None), (2, "process")])
    def test_workers_pick_sequential_or_the_pool(self, capsys, workers, backend):
        code, out, _err = run_cli(
            capsys,
            "assess", "--scale", "tiny", "--hosts", self.HOSTS, "--k", "2",
            "--rounds", "2000", "--workers", str(workers), "--json",
        )
        assert code == 0
        runtime = json.loads(out).get("runtime")
        assert (runtime and runtime["backend"]) == backend
        if backend is not None:
            assert runtime["workers"] == workers


class TestSearchCommand:
    def test_search_runs(self, capsys):
        code, out, _err = run_cli(
            capsys,
            "search", "--scale", "tiny", "--k", "2", "--n", "3",
            "--seconds", "2", "--rounds", "2000", "--desired", "0.5",
        )
        assert code == 0
        assert "satisfied : True" in out

    def test_search_json(self, capsys):
        code, out, _err = run_cli(
            capsys,
            "search", "--scale", "tiny", "--k", "2", "--n", "3",
            "--seconds", "2", "--rounds", "2000", "--json",
        )
        assert code == 0
        document = json.loads(out)
        assert document["format"] == "search-result"
        assert document["best_plan"]["format"] == "deployment-plan"

    def test_unsatisfied_exit_code(self, capsys):
        # k == n caps the reliability near (1 - p_host)^3 ~ 0.97, so the
        # 0.9999 bar stays out of reach no matter how many plans the
        # search manages to try within the budget.
        code, _out, _err = run_cli(
            capsys,
            "search", "--scale", "tiny", "--k", "3", "--n", "3",
            "--seconds", "1", "--rounds", "1000", "--desired", "0.9999",
        )
        assert code == 3


    @pytest.mark.parametrize("flag", ["--batch-size", "--move-budget"])
    def test_non_positive_search_budget_is_a_config_error(
        self, capsys, tmp_path, flag
    ):
        import signal

        before = signal.getsignal(signal.SIGTERM)
        code, _out, err = run_cli(
            capsys,
            "search", "--scale", "tiny", "--k", "2", "--n", "3",
            "--checkpoint", str(tmp_path / "search.ckpt"), flag, "0",
        )
        assert code == 2
        assert "error:" in err
        # Rejected before the preemption handlers were installed.
        assert signal.getsignal(signal.SIGTERM) is before

    def test_incremental_flag_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["search", "--k", "2", "--n", "3", "--no-incremental"]
            )


class TestRiskCommand:
    def test_risk_report(self, capsys):
        code, out, _err = run_cli(
            capsys,
            "risk", "--scale", "tiny",
            "--hosts", "host/0/0/0,host/0/0/1,host/1/0/0", "--k", "2",
        )
        assert code == 0
        assert "edge/0/0" in out  # shared rack switch shows up

    def test_risk_json(self, capsys):
        code, out, _err = run_cli(
            capsys,
            "risk", "--scale", "tiny",
            "--hosts", "host/0/0/0,host/1/0/0", "--k", "1", "--json",
        )
        assert code == 0
        document = json.loads(out)
        assert document["format"] == "risk-report"
        assert document["entries"]


class TestExitCodes:
    def test_exit_code_taxonomy_is_stable(self):
        # Scripts key off these; renumbering them is a breaking change.
        from repro import cli

        assert cli.EXIT_OK == 0
        assert cli.EXIT_CONFIG == 2
        assert cli.EXIT_UNSATISFIED == 3
        assert cli.EXIT_PREEMPTED == 4
        assert cli.EXIT_DEGRADED == 5
        assert len({cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_UNSATISFIED,
                    cli.EXIT_PREEMPTED, cli.EXIT_DEGRADED}) == 5

    def test_validation_errors_list_every_field(self, capsys):
        code, _out, err = run_cli(
            capsys,
            "assess", "--scale", "tiny", "--hosts", "ghost,ghoul",
            "--k", "1", "--rounds", "500",
        )
        assert code == 2
        assert "validation failed" in err
        assert "ghost" in err and "ghoul" in err


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8321
        assert args.queue_capacity == 8
        assert args.scheduler_workers == 2
        assert args.parallel_workers == 0
        assert args.default_deadline is None
        assert args.drain_timeout == 30.0
        assert args.handler.__name__ == "cmd_serve"

    def test_serve_flags_parse(self):
        args = build_parser().parse_args(
            [
                "serve", "--port", "0", "--queue-capacity", "2",
                "--parallel-workers", "4", "--default-deadline", "1.5",
            ]
        )
        assert args.port == 0
        assert args.queue_capacity == 2
        assert args.parallel_workers == 4
        assert args.default_deadline == 1.5


    def test_fleet_rejects_a_parallel_pool(self, capsys):
        """The shard fleet forks no pool: asking for one is a config error,
        not a silently dropped flag."""
        code, _out, err = run_cli(
            capsys, "serve", "--workers", "2", "--parallel-workers", "2",
            "--port", "0",
        )
        assert code == 2
        assert "parallel_workers:" in err


class TestBaselineCommand:
    def test_baseline_output(self, capsys):
        code, out, _err = run_cli(
            capsys,
            "baseline", "--scale", "tiny", "--k", "4", "--n", "5",
            "--rounds", "2000",
        )
        assert code == 0
        assert "common-practice" in out
        assert "enhanced-common-practice" in out

    def test_baseline_json(self, capsys):
        code, out, _err = run_cli(
            capsys,
            "baseline", "--scale", "tiny", "--k", "4", "--n", "5",
            "--rounds", "2000", "--json",
        )
        assert code == 0
        document = json.loads(out)
        assert set(document["plans"]) == {
            "common-practice", "enhanced-common-practice",
        }


class TestRedeployCommand:
    BASE = (
        "redeploy", "--zones", "2", "--fabric-k", "4", "--k", "2", "--n", "3",
        "--rounds", "300", "--move-budget", "10", "--cycles", "1",
        "--primary-zone", "zone0", "--min-outside-primary", "1",
    )

    def test_outage_run_then_recovery(self, capsys, tmp_path):
        state = str(tmp_path / "state")
        code, out, _err = run_cli(
            capsys, *self.BASE, "--state-dir", state,
            "--cycles", "2", "--inject-outage", "zone0", "--json",
        )
        assert code == 0
        document = json.loads(out)
        assert document["format"] == "redeploy-report"
        assert document["recovery"]["incumbent_restored"] is False
        # A rerun against the same state dir recovers the committed
        # incumbent from the journal instead of seeding a fresh one.
        code, out, _err = run_cli(
            capsys, *self.BASE, "--state-dir", state, "--json",
        )
        assert code == 0
        rerun = json.loads(out)
        assert rerun["recovery"]["incumbent_restored"] is True
        assert rerun["recovery"]["completed_applies"] == 0
        assert rerun["incumbent"] == document["incumbent"]

    def test_unknown_zone_is_config_error(self, capsys, tmp_path):
        code, _out, err = run_cli(
            capsys, "redeploy", "--zones", "2", "--fabric-k", "4",
            "--k", "2", "--n", "3", "--state-dir", str(tmp_path / "s"),
            "--primary-zone", "zone7", "--min-outside-primary", "1",
        )
        assert code == 2
        assert "unknown zone" in err and "zone7" in err

    def test_bad_pin_spec_is_config_error(self, capsys, tmp_path):
        code, _out, err = run_cli(
            capsys, "redeploy", "--zones", "2", "--fabric-k", "4",
            "--k", "2", "--n", "3", "--state-dir", str(tmp_path / "s"),
            "--pin", "app:zone1",
        )
        assert code == 2
        assert "--pin" in err
