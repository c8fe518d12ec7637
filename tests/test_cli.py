"""Tests for the command-line interface."""

import csv
import json
from types import SimpleNamespace

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_ramp_defaults(self):
        args = build_parser().parse_args(["ramp"])
        assert args.command == "ramp"
        assert args.peak == 500
        assert not args.static

    def test_steady_options(self):
        args = build_parser().parse_args(
            ["steady", "--clients", "40", "--duration", "100", "--no-jade"]
        )
        assert args.clients == 40
        assert args.no_jade

    def test_recovery_options(self):
        args = build_parser().parse_args(["recovery", "--crash-at", "120"])
        assert args.crash_at == 120.0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_trace_options(self):
        args = build_parser().parse_args(
            ["trace", "out.jsonl", "--all", "--tail", "25"]
        )
        assert args.file == "out.jsonl"
        assert args.all
        assert args.tail == 25

    def test_proactive_flags(self):
        assert build_parser().parse_args(["ramp", "--proactive"]).proactive
        assert not build_parser().parse_args(["ramp"]).proactive
        assert build_parser().parse_args(["steady", "--proactive"]).proactive

    def test_whatif_options(self):
        args = build_parser().parse_args(
            ["whatif", "--at", "250", "--horizon", "90", "--warmup", "45",
             "--model", "ewma", "--max-delta", "2", "--seed", "5",
             "--report", "out.json"]
        )
        assert args.command == "whatif"
        assert args.at == 250.0
        assert args.horizon == 90.0
        assert args.warmup == 45.0
        assert args.model == "ewma"
        assert args.max_delta == 2
        assert args.seed == 5
        assert args.report == "out.json"

    def test_whatif_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["whatif", "--model", "oracle"])


class TestCommands:
    def test_steady_runs_and_prints_summary(self, capsys):
        assert main(["steady", "--clients", "20", "--duration", "60"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "peak replicas" in out

    def test_steady_no_jade(self, capsys):
        assert main(["steady", "--clients", "10", "--duration", "30", "--no-jade"]) == 0
        assert "managed=False" in capsys.readouterr().out

    def test_ramp_compressed(self, capsys):
        assert main(["ramp", "--scale", "0.05", "--peak", "200"]) == 0
        out = capsys.readouterr().out
        assert "Summary" in out

    def test_csv_export(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        assert (
            main(["steady", "--clients", "15", "--duration", "60", "--csv", str(path)])
            == 0
        )
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["series", "t_s", "value"]
        series = {r[0] for r in rows[1:]}
        assert "latency_s" in series
        assert "clients" in series
        assert any(s.startswith("cpu[") for s in series)

    def test_trace_flag_then_render(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(
            ["steady", "--clients", "150", "--duration", "120",
             "--trace", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "Decision trace:" in out
        assert str(path) in out
        assert path.exists()

        assert main(["trace", str(path)]) == 0
        rendered = capsys.readouterr().out
        assert "run=run-seed1" in rendered
        assert "kernel-stats" in rendered
        # Probe readings are hidden unless --all is passed.
        assert "probe-reading" not in rendered
        assert main(["trace", str(path), "--all", "--tail", "5"]) == 0
        rendered = capsys.readouterr().out
        assert "kernel-stats" in rendered

    def test_recovery_scenario(self, capsys):
        assert main(["recovery", "--clients", "30", "--crash-at", "100",
                     "--scale", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "digests identical: True" in out
        assert "detected failure" in out
        assert "MTTR" in out
        assert "detection latency" in out
        assert "availability" in out

    def test_recovery_csv_carries_mttr(self, tmp_path, capsys):
        path = tmp_path / "rec.csv"
        assert main(["recovery", "--clients", "30", "--crash-at", "100",
                     "--scale", "0.5", "--csv", str(path)]) == 0
        with open(tmp_path / "rec.json") as fh:
            report = json.load(fh)
        rec = report["recovery"]
        assert rec["crash_at_s"] == 100.0
        assert rec["mttr_s"] > 0
        assert 0.0 < rec["availability"] <= 1.0

    def test_chaos_options(self):
        args = build_parser().parse_args(
            ["chaos", "--campaign", "gray", "--detector", "legacy",
             "--seeds", "4,5", "--clients", "50", "--duration", "300",
             "--slo", "0.3", "--serial", "--no-cache", "--events",
             "--json", "card.json"]
        )
        assert args.command == "chaos"
        assert args.campaign == "gray"
        assert args.detector == "legacy"
        assert args.seeds == "4,5"
        assert args.slo == 0.3
        assert args.events
        assert args.json == "card.json"

    @pytest.mark.parametrize("command", ["ramp", "steady", "sweep", "bench"])
    def test_fluid_threshold_requires_fluid(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--fluid-threshold", "300"])
        assert exc.value.code == 2
        assert "--fluid-threshold requires --fluid" in capsys.readouterr().err

    def test_chaos_rejects_unknown_campaign(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--campaign", "meteor"])

    def test_chaos_campaign_prints_scorecard(self, tmp_path, capsys):
        card_path = tmp_path / "card.json"
        assert main(
            ["chaos", "--campaign", "crash", "--seeds", "1", "--clients",
             "40", "--duration", "300", "--serial", "--no-cache",
             "--events", "--json", str(card_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "Campaign 'crash'" in out
        assert "MTTR" in out
        assert "availability" in out
        assert "inject crash" in out
        with open(card_path) as fh:
            card = json.load(fh)
        assert card["campaign"] == "crash"
        assert card["per_seed"][0]["repairs_completed"] == 1

    def test_csv_export_records_seed(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        assert main(
            ["steady", "--clients", "15", "--duration", "60",
             "--seed", "17", "--csv", str(path)]
        ) == 0
        with open(tmp_path / "series.json") as fh:
            report = json.load(fh)
        assert report["seed"] == 17

    def test_steady_proactive_prints_counters(self, capsys):
        assert main(
            ["steady", "--clients", "20", "--duration", "60", "--proactive"]
        ) == 0
        out = capsys.readouterr().out
        assert "Proactive manager:" in out
        assert "forecasts" in out

    def test_whatif_runs_and_reports(self, tmp_path, capsys):
        report_path = tmp_path / "whatif.json"
        assert main(
            ["whatif", "--at", "100", "--scale", "0.15", "--peak", "200",
             "--horizon", "40", "--warmup", "30", "--seed", "4",
             "--report", str(report_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "fork point t=100s" in out.lower() or "Fork:" in out
        assert "<- best" in out
        with open(report_path) as fh:
            outcomes = json.load(fh)
        assert isinstance(outcomes, list) and outcomes
        labels = {o["candidate"] for o in outcomes}
        assert any(label.startswith("app") for label in labels)
        assert all("cost" in o for o in outcomes if o["feasible"])


class TestScalingAndBenchFlags:
    def test_ramp_cohort_scales_profile(self):
        args = build_parser().parse_args(
            ["ramp", "--peak", "100000", "--cohort", "200"]
        )
        assert args.cohort == 200
        assert args.hardware_scale is None  # defaults to the cohort size

    def test_steady_cohort_flags(self):
        args = build_parser().parse_args(
            ["steady", "--cohort", "50", "--hardware-scale", "25"]
        )
        assert args.cohort == 50
        assert args.hardware_scale == 25.0

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.command == "bench"
        assert args.seeds == 3
        assert args.tolerance == 0.25
        assert not args.micro_only

    def test_bench_check_mode(self):
        args = build_parser().parse_args(
            ["bench", "--check", "BENCH_engine.json", "--tolerance", "0.4"]
        )
        assert args.check == "BENCH_engine.json"
        assert args.tolerance == 0.4

    def test_bench_micro_only_runs(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "bench.json"
        assert main(["bench", "--micro-only", "--rounds", "1", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert "kernel_10k_events" in report["micro"]
        assert "ramp" not in report
        assert "whatif" not in report

    def test_bench_prints_every_section_it_ran(self, capsys, monkeypatch):
        """Each registry entry renders its own section: the policy and
        federation sections print too (replayed from the committed
        report instead of re-run)."""
        from pathlib import Path

        import repro.runner.bench as bench

        committed = json.loads(
            (Path(__file__).parent.parent / "BENCH_engine.json").read_text()
        )
        monkeypatch.setattr(bench, "run_micro", lambda rounds: committed["micro"])
        monkeypatch.setattr(
            bench,
            "SECTIONS",
            {
                name: SimpleNamespace(
                    run_section=lambda name=name, **_: committed[name],
                    render_section=section.render_section,
                    check_section=section.check_section,
                )
                for name, section in bench.SECTIONS.items()
            },
        )
        assert main(["bench", "--rounds", "1"]) == 0
        out = capsys.readouterr().out
        for name, section in bench.SECTIONS.items():
            assert section.render_section(committed[name]) in out, name
        assert "Controller autotuning" in out and "federation:" in out

    def test_bench_whatif_flags(self):
        args = build_parser().parse_args(
            ["bench", "--check-whatif", "BENCH_engine.json",
             "--whatif-candidates", "4"]
        )
        assert args.check_whatif == "BENCH_engine.json"
        assert args.whatif_candidates == 4
        assert build_parser().parse_args(["bench"]).check_whatif is None

    def test_whatif_parallel_flags(self):
        args = build_parser().parse_args(
            ["whatif", "--serial", "--no-cache", "--prune", "--workers", "3"]
        )
        assert args.serial and args.no_cache and args.prune
        assert args.workers == 3
        defaults = build_parser().parse_args(["whatif"])
        assert not defaults.serial and not defaults.no_cache
        assert not defaults.prune and defaults.workers is None

    def test_sweep_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--seeds", "1,2,3", "--scales", "0.05,0.1",
             "--policies", "managed,proactive", "--cohorts", "1,4",
             "--peak", "200", "--csv", "out.csv", "--json", "out.json",
             "--serial", "--no-cache", "--workers", "2"]
        )
        assert args.command == "sweep"
        assert args.seeds == "1,2,3"
        assert args.policies == "managed,proactive"
        assert args.peak == 200
        assert args.serial and args.no_cache and args.workers == 2

    def test_cache_flags(self):
        args = build_parser().parse_args(["cache", "stats", "--dir", "/tmp/c"])
        assert args.command == "cache"
        assert args.action == "stats"
        assert args.dir == "/tmp/c"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "bogus"])


class TestBenchSections:
    """``repro bench --only NAME [--smoke] [--out FILE]`` on a cheap
    stand-in section."""

    @pytest.fixture
    def toy(self, monkeypatch):
        import repro.runner.bench as bench

        def no_micro(rounds):
            raise AssertionError("--only must not re-time micro")

        calls = []
        section = SimpleNamespace(
            run_section=lambda **kw: calls.append(kw) or {"value": 3},
            render_section=lambda block: f"toy value {block['value']}",
            check_section=lambda block: None,
            calls=calls,
        )
        monkeypatch.setattr(bench, "run_micro", no_micro)
        monkeypatch.setitem(bench.SECTIONS, "toy", section)
        return section

    def test_smoke_runs_renders_and_passes(self, toy, capsys):
        assert main(["bench", "--only", "toy", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "toy value 3" in out
        assert out.rstrip().endswith("toy-smoke: PASS")
        assert toy.calls == [
            {"seeds": (1,), "parallel": True, "use_cache": False, "smoke": True}
        ]

    def test_smoke_exits_1_on_failed_check(self, toy, capsys):
        def fail(block):
            raise AssertionError("value drifted")

        toy.check_section = fail
        assert main(["bench", "--only", "toy", "--smoke"]) == 1
        out = capsys.readouterr().out
        assert "toy-smoke: FAIL: value drifted" in out
        assert "PASS" not in out

    def test_out_merges_into_existing_report(self, toy, tmp_path):
        report = tmp_path / "report.json"
        report.write_text(
            json.dumps({"micro": {"a": 1}, "toy": {"value": 0}, "z": [2]})
        )
        assert main(["bench", "--only", "toy", "--out", str(report)]) == 0
        merged = json.loads(report.read_text())
        assert list(merged) == ["micro", "toy", "z"]
        assert merged == {"micro": {"a": 1}, "toy": {"value": 3}, "z": [2]}

    def test_out_creates_missing_report(self, toy, tmp_path):
        report = tmp_path / "new.json"
        assert main(["bench", "--only", "toy", "--out", str(report)]) == 0
        assert json.loads(report.read_text()) == {"toy": {"value": 3}}

    def test_only_keeps_the_bench_options(self, toy):
        assert main(["bench", "--only", "toy", "--seeds", "2", "--serial",
                     "--no-cache"]) == 0
        assert toy.calls == [
            {"seeds": (1, 2), "parallel": False, "use_cache": False,
             "smoke": False}
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--only", "nope"],
            ["bench", "--smoke"],
            ["bench", "--only", "ramp", "--smoke"],
        ],
        ids=["unknown-section", "smoke-without-only", "smoke-without-check"],
    )
    def test_rejected(self, toy, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestCacheCommand:
    def test_stats_clear_round_trip(self, tmp_path, monkeypatch, capsys):
        from repro.runner.cache import ResultCache

        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        ResultCache().store("a" * 64, {"payload": 1})

        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries   : 1" in out
        assert str(cache_dir) in out

        assert main(["cache", "prune"]) == 0
        assert "evicted 0" in capsys.readouterr().out  # under the cap

        assert main(["cache", "clear"]) == 0
        assert "removed 1 entries" in capsys.readouterr().out
        assert main(["cache", "stats"]) == 0
        assert "entries   : 0" in capsys.readouterr().out

    def test_dir_flag_overrides_env(self, tmp_path, capsys):
        target = tmp_path / "explicit"
        from repro.runner.cache import ResultCache

        ResultCache(target).store("b" * 64, {"payload": 2})
        assert main(["cache", "stats", "--dir", str(target)]) == 0
        assert "entries   : 1" in capsys.readouterr().out
