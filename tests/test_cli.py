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

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("topology",), "--rounds=500"),
            (("topology",), "--profile"),
            (("risk", "--hosts", "host/0/0/0", "--k", "1"), "--rounds=500"),
            (("risk", "--hosts", "host/0/0/0", "--k", "1"), "--profile"),
            (("baseline", "--k", "1", "--n", "2"), "--profile"),
            (("serve",), "--profile"),
            (("serve",), "--json"),
        ],
    )
    def test_a_flag_the_command_does_not_read_is_unknown(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([*argv, flag])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


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

    def test_profile_shows_the_closure_layer_counters(self, capsys):
        """Three hosts in three pods: the core layer, three pods and three
        edge switches built once each, the core found twice."""
        argv = ["assess", "--scale", "tiny", "--hosts", self.HOSTS, "--k", "2",
                "--rounds", "2000", "--profile"]
        code, out, _err = run_cli(capsys, *argv, "--json")
        assert code == 0
        profile = json.loads(out)["profile"]
        assert profile["counter/closure/layer/miss"] == 7
        assert profile["counter/closure/layer/hit"] == 2
        code, out, _err = run_cli(capsys, *argv)
        assert code == 0
        assert "closure/layer/miss" in out and "closure/layer/hit" in out

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

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--workers", "-1"), "workers: must be an int >= 0, got -1"),
        ],
        ids=["negative-workers"],
    )
    def test_unusable_runtime_flags_exit_2_naming_the_field(self, capsys, flags, message):
        code, _out, err = run_cli(
            capsys,
            "assess", "--scale", "tiny", "--hosts", self.HOSTS, "--k", "2",
            "--rounds", "500", *flags,
        )
        assert code == 2
        assert "validation failed" in err
        assert message in err


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

    def test_resume_keeps_the_checkpoint_bar_and_takes_a_new_move_budget(
        self, capsys, tmp_path
    ):
        """A resumed search exits by the checkpoint's ``R_desired``, not by
        the ``--desired`` default, and runs to the new ``--move-budget``."""
        import signal

        ckpt = str(tmp_path / "search.ckpt")
        base = ("search", "--scale", "tiny", "--rounds", "500", "--json")
        handlers = {s: signal.getsignal(s) for s in (signal.SIGTERM, signal.SIGINT)}
        try:
            code, out, _err = run_cli(
                capsys, *base, "--k", "3", "--n", "3", "--desired", "0.9999999",
                "--move-budget", "6", "--checkpoint", ckpt,
            )
            assert code == 3
            assert json.loads(out)["iterations"] == 6
            code, out, _err = run_cli(
                capsys, *base, "--resume", ckpt, "--move-budget", "30"
            )
        finally:
            for signum, handler in handlers.items():
                signal.signal(signum, handler)
        document = json.loads(out)
        assert document["satisfied"] is False
        assert code == 3
        assert document["iterations"] == 30

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

    def test_negative_top_exits_2_naming_the_flag(self, capsys):
        code, out, err = run_cli(
            capsys,
            "risk", "--scale", "tiny", "--hosts", "host/0/0/0,host/1/0/0",
            "--k", "1", "--top", "-1",
        )
        assert code == 2
        assert out == ""
        assert "--top: must be >= 0, got -1" in err


class TestCapacityCommand:
    RATES = ("--target-rps", "10", "--per-worker-rps", "5")

    def test_plans_a_fleet(self, capsys):
        code, out, _err = run_cli(capsys, "capacity", *self.RATES)
        assert code == 0
        assert "recommend  : --workers" in out

    @pytest.mark.parametrize(
        "flags, fields",
        [
            (("--target-rps", "nan", "--per-worker-rps", "5"), ["target_rps"]),
            (("--target-rps", "1e300", "--per-worker-rps", "1e-300"), ["k_required"]),
            (("--target-rps", "10", "--per-worker-rps", "inf"), ["per_worker_rps"]),
            ((*RATES, "--failover-seconds", "nan"), ["failover_seconds"]),
            ((*RATES, "--crash-rate", "inf"), ["crash_rate_per_hour"]),
            ((*RATES, "--max-workers", "0"), ["max_workers"]),
            (
                ("--target-rps", "-1", "--per-worker-rps", "0", "--max-workers", "0"),
                ["target_rps", "per_worker_rps", "max_workers"],
            ),
        ],
        ids=[
            "nan-target", "overflowing-count", "inf-per-worker", "nan-failover",
            "inf-crash-rate", "no-workers", "every-field",
        ],
    )
    def test_nonsense_rates_exit_2_naming_every_field(self, capsys, flags, fields):
        code, out, err = run_cli(capsys, "capacity", *flags)
        assert code == 2
        assert out == ""
        assert "validation failed" in err
        named = [line.split(":")[0].strip() for line in err.splitlines()[1:]]
        assert named == fields


class TestExitCodes:
    def test_exit_code_taxonomy_is_stable(self):
        # Scripts key off these; renumbering them is a breaking change.
        from repro import cli

        assert cli.EXIT_OK == 0
        assert cli.EXIT_CONFIG == 2
        assert cli.EXIT_UNSATISFIED == 3
        assert cli.EXIT_PREEMPTED == 4
        assert cli.EXIT_DRILL == 6
        # 5 (a degraded assessment) is retired: no command reaches it.
        assert not hasattr(cli, "EXIT_DEGRADED")
        codes = [value for name, value in vars(cli).items()
                 if name.startswith("EXIT_")]
        assert sorted(codes) == [0, 2, 3, 4, 6]

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
        assert args.workers == 2
        assert args.default_deadline is None
        assert args.drain_timeout == 30.0
        assert args.handler.__name__ == "cmd_serve"

    def test_serve_flags_parse(self):
        args = build_parser().parse_args(
            [
                "serve", "--port", "0", "--queue-capacity", "2",
                "--default-deadline", "1.5",
            ]
        )
        assert args.port == 0
        assert args.queue_capacity == 2
        assert args.default_deadline == 1.5

    def test_the_thread_service_forks_no_pool(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--parallel-workers", "2"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "flags, field",
        [
            (("--queue-capacity", "0"), "queue_capacity"),
            (("--workers", "0"), "fleet_workers"),
            (("--workers", "-1"), "fleet_workers"),
        ],
    )
    def test_unusable_counts_exit_2_naming_the_field(
        self, capsys, monkeypatch, flags, field
    ):
        """Rejected before anything is built or bound: a server that would
        start is stubbed out, so a count that slips through fails fast."""
        from repro.service import server

        monkeypatch.setattr(server, "serve", lambda config, **_: 0)
        code, _out, err = run_cli(capsys, "serve", "--port", "0", *flags)
        assert code == 2
        assert "validation failed" in err
        assert f"{field}: must be >= " in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--heartbeat-interval", "0"), "heartbeat_interval_seconds: must be > 0"),
            (("--heartbeat-misses", "0"), "heartbeat_misses: must be >= 1"),
            (("--result-ttl", "-5"), "result_ttl_seconds: must be > 0"),
        ],
        ids=["heartbeat-interval", "heartbeat-misses", "result-ttl"],
    )
    def test_unusable_liveness_and_retention_exit_2_naming_the_field(
        self, capsys, monkeypatch, flags, message
    ):
        from repro.service import server

        monkeypatch.setattr(server, "serve", lambda config, **_: 0)
        code, _out, err = run_cli(
            capsys, "serve", "--port", "0", "--workers", "1", *flags
        )
        assert code == 2
        assert "validation failed" in err
        assert message in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--rounds", "0"), "rounds: must be an int >= 1"),
            (("--default-deadline", "nan"), "default_deadline_seconds: must be"),
            (("--default-deadline", "-1"), "default_deadline_seconds: must be"),
            (("--drain-timeout", "nan"), "drain_timeout_seconds: must be"),
            (("--drain-timeout", "-3"), "drain_timeout_seconds: must be"),
        ],
        ids=["rounds", "deadline-nan", "deadline-negative", "drain-nan", "drain-negative"],
    )
    def test_unusable_rounds_deadline_and_drain_exit_2_naming_the_field(
        self, capsys, monkeypatch, flags, message
    ):
        from repro.service import server

        monkeypatch.setattr(server, "serve", lambda config, **_: 0)
        code, _out, err = run_cli(capsys, "serve", "--port", "0", *flags)
        assert code == 2
        assert "validation failed" in err
        assert message in err


class TestDrillCommand:
    def test_sizes_below_one_exit_2_naming_each_field(self, capsys):
        code, out, err = run_cli(
            capsys, "drill", "--rounds", "0", "--shards", "0",
            "--requests", "0", "--max-events", "0",
        )
        assert code == 2
        assert "PASS" not in out
        assert "validation failed" in err
        for field in ("rounds", "shards", "requests", "max_events"):
            assert f"  {field}: must be an int >= 1, got 0" in err


class TestJournalCommand:
    @pytest.mark.parametrize("make", [False, True], ids=["missing", "a-file"])
    def test_no_directory_exits_2_with_one_error_line(self, capsys, tmp_path, make):
        path = tmp_path / "journal"
        if make:
            path.write_text("not a directory")
        code, out, err = run_cli(capsys, "journal", "inspect", str(path))
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: no journal directory at {str(path)!r}"]


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

    @pytest.mark.parametrize(
        "flags, field",
        [
            (("--search-seconds", "nan", "--inject-outage", "zone0"), "search_seconds"),
            (("--threshold", "nan"), "degradation_threshold"),
            (("--cycles", "-1"), "--cycles"),
        ],
        ids=["nan-search-seconds", "nan-threshold", "negative-cycles"],
    )
    def test_unusable_budgets_and_cycles_exit_2_naming_the_field(
        self, capsys, tmp_path, flags, field
    ):
        state = tmp_path / "state"
        code, _out, err = run_cli(
            capsys, *self.BASE, "--state-dir", str(state), *flags
        )
        assert code == 2
        assert "validation failed" in err
        assert f"  {field}: must be" in err
        assert not state.exists()
