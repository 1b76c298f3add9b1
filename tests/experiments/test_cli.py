"""Tests for the `python -m repro` command-line interface."""

import json

import pytest

import repro.__main__ as cli
from repro.__main__ import FIGURES, build_parser, main
from repro.obs import read_trace


class TestParser:
    def test_run_requires_workload_and_policy(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run"])

    def test_valid_run_args(self):
        args = build_parser().parse_args(
            ["--preset", "tiny", "run", "--workload", "pr", "--policy", "ndpext"]
        )
        assert args.preset == "tiny"
        assert args.workload == "pr"

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "doom", "--policy", "ndpext"])

    def test_figure_choices_cover_all_panels(self):
        expected = {
            "fig2", "fig4b", "fig5", "fig6", "fig7", "fig8a", "fig8b",
            "fig9a", "fig9b", "fig9c", "fig9d", "fig9e", "fig9f", "sec5d",
            "faults",
        }
        assert set(FIGURES) == expected

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--timeout", "0"], "--timeout must be a positive"),
            (["--timeout", "-5"], "--timeout must be a positive"),
            (["--timeout", "nan"], "--timeout must be a positive"),
            (["--timeout", "soon"], "--timeout expects a number"),
            (["--jobs", "0"], "--jobs must be at least 1"),
            (["--jobs", "-4"], "--jobs must be at least 1"),
        ],
    )
    def test_rejects_bad_pool_limits(self, flags, message, capsys):
        """A zero timeout would kill every worker on its first cell, and a
        negative job count used to fall back to serial silently."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(flags + ["compare", "--workload", "pr"])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_accepts_smallest_valid_pool_limits(self):
        args = build_parser().parse_args(
            ["--jobs", "1", "--timeout", "0.5", "compare", "--workload", "pr"]
        )
        assert (args.jobs, args.timeout) == (1, 0.5)

    def test_bench_verb_is_gone(self, capsys):
        """Benchmarking lives in perfbench/, not in a CLI verb."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_trace_verb_is_gone(self, capsys):
        """A trace is ``run --trace-out`` followed by ``stats``."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["trace"])
        assert exc.value.code == 2
        assert "invalid choice: 'trace'" in capsys.readouterr().err

    def test_dash_verb_is_gone(self, capsys):
        """A run is viewed through ``stats`` and ``--report-out``."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["dash"])
        assert exc.value.code == 2
        assert "invalid choice: 'dash'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--pace", "1"], "--pace requires --listen"),
            (["--linger", "0"], "--linger requires --listen"),
            (["--listen", ":0", "--pace", "-1"], "--pace must be a non-negative"),
            (["--listen", ":0", "--linger", "-2"], "--linger must be a non-negative"),
            (["--listen", ":0", "--pace", "nan"], "--pace must be a non-negative"),
        ],
    )
    def test_serve_rejects_pacing_without_an_endpoint(self, flags, message, capsys):
        """Without --listen, pacing would only slow the replay; a
        negative duration has no meaning."""
        with pytest.raises(SystemExit) as exc:
            main(["--preset", "tiny", "serve", "--max-batches", "1"] + flags)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class TestCommands:
    def test_run_command(self, capsys):
        assert main(["--preset", "tiny", "run", "--workload", "pr", "--policy", "ndpext-static"]) == 0
        out = capsys.readouterr().out
        assert "runtime cycles" in out
        assert "hit rate" in out

    def test_compare_command(self, capsys):
        assert main(["--preset", "tiny", "compare", "--workload", "hotspot"]) == 0
        out = capsys.readouterr().out
        assert "ndpext" in out
        assert "jigsaw" in out
        # Normalized against the explicit host baseline row.
        assert "host" in out
        assert "speedup vs host" in out

    def test_figure_command(self, capsys):
        assert main(["--preset", "tiny", "figure", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "latency breakdown" in out

    def test_report_command(self, tmp_path, capsys, monkeypatch):
        # The full report regenerates every figure; pin it to two cheap
        # ones so the test exercises the capture/write path, not the suite.
        subset = {name: FIGURES[name] for name in ("fig2", "fig4b")}
        monkeypatch.setattr(cli, "FIGURES", subset)
        out_path = tmp_path / "results.md"
        assert main(["--preset", "tiny", "report", "--output", str(out_path)]) == 0
        body = out_path.read_text()
        assert body.startswith("# NDPExt reproduction results")
        assert "## fig2" in body and "## fig4b" in body
        assert "latency breakdown" in body
        assert f"wrote {out_path}" in capsys.readouterr().out


class TestTraceCommands:
    def test_trace_then_stats_round_trip(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        csv_path = tmp_path / "timeline.csv"
        assert main([
            "--preset", "tiny", "run",
            "--workload", "pr", "--policy", "ndpext",
            "--trace-out", str(trace_path),
        ]) == 0
        capsys.readouterr()

        # Every line is valid JSON with the documented framing.
        lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert lines[0]["kind"] == "header"
        assert lines[-1]["kind"] == "footer"

        trace = read_trace(str(trace_path))
        assert trace.header["workload"] == "pr"
        assert trace.header["policy"] == "ndpext"
        assert len(trace.timeline) > 0

        # Acceptance: the trace carries at least one reconfiguration
        # decision with predicted per-stream hit rates, and the realized
        # rates to compare them against.
        reconfigs = trace.events_of("reconfig")
        assert reconfigs
        assert all(
            0.0 <= s["predicted_hit_rate"] <= 1.0
            for e in reconfigs
            for s in e["streams"]
        )
        accuracy = trace.events_of("hit_accuracy")
        assert accuracy
        assert all(
            {"predicted", "realized"} <= set(s)
            for e in accuracy
            for s in e["streams"]
        )

        assert main(["stats", str(trace_path), "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "self-profile" in out
        assert csv_path.exists()
        assert "cache_hit_rate" in out
        assert "mean_hit_prediction_error" in out

    def test_stats_diff_two_traces(self, tmp_path, capsys):
        paths = []
        for policy in ("ndpext", "ndpext-static"):
            path = tmp_path / f"{policy}.jsonl"
            assert main([
                "--preset", "tiny", "run",
                "--workload", "pr", "--policy", policy,
                "--trace-out", str(path),
            ]) == 0
            paths.append(str(path))
        capsys.readouterr()
        assert main(["stats", *paths]) == 0
        out = capsys.readouterr().out
        assert "trace diff" in out
        assert "delta" in out

    def test_stats_rejects_three_traces(self, tmp_path):
        path = tmp_path / "t.jsonl"
        assert main([
            "--preset", "tiny", "run",
            "--workload", "pr", "--policy", "ndpext",
            "--trace-out", str(path),
        ]) == 0
        with pytest.raises(SystemExit):
            main(["stats", str(path), str(path), str(path)])

    def test_serve_slo_end_to_end(self, tmp_path, capsys):
        """The CI storm recipe through the CLI: SLO admission with
        explicit objectives writes a schema-3 trace whose burns the
        stats verb then surfaces."""
        trace = tmp_path / "serve.jsonl"
        report = tmp_path / "serve.json"
        prom = tmp_path / "serve.prom"
        assert main([
            "--preset", "tiny", "serve",
            "--name", "ci-storm", "--storm",
            "--batch-accesses", "500",
            "--wave-size", "6", "--steps-per-wave", "3",
            "--admission", "slo",
            "--slo", "interactive:12000::0.10",
            "--slo", "analytics:70000::0.10",
            "--trace-out", str(trace),
            "--report-out", str(report),
            "--prom", str(prom),
        ]) == 0
        out = capsys.readouterr().out
        assert "slo" in out.lower()

        payload = json.loads(report.read_text())
        assert payload["slo"]["tenants"]["analytics"]["alert"] in (
            "ok", "warn", "page",
        )
        assert "repro_slo_alert_state" in prom.read_text()

        parsed = read_trace(str(trace))
        assert parsed.events_of("slo_burn")
        assert parsed.events_of("slo_status")

        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "slo_burns" in out
        assert "slo_worst_burn[interactive]" in out

    def test_serve_listen_announces_endpoint(self, tmp_path, capsys):
        assert main([
            "--preset", "tiny", "serve",
            "--max-batches", "4",
            "--listen", "127.0.0.1:0",
        ]) == 0
        out = capsys.readouterr().out
        assert "live endpoint at http://127.0.0.1:" in out

    @pytest.mark.parametrize(
        "spec", [":123", "a:b:c:d:e", "interactive:not-a-number"]
    )
    def test_serve_rejects_bad_slo_specs(self, spec):
        with pytest.raises(SystemExit):
            main([
                "--preset", "tiny", "serve", "--max-batches", "2",
                "--slo", spec,
            ])

    def test_profile_command(self, tmp_path, capsys):
        perf_path = tmp_path / "prof.json"
        report_path = tmp_path / "bottleneck.json"
        assert main([
            "--preset", "tiny", "profile",
            "--workload", "pr", "--policy", "ndpext",
            "--perf-out", str(perf_path),
            "--report-out", str(report_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "engine phases by exclusive time" in out
        assert "ui.perfetto.dev" in out

        # The perf trace is Perfetto-loadable JSON naming every engine
        # phase; the bottleneck report carries the coverage invariant.
        from repro.obs.tracing import ENGINE_PHASES

        payload = json.loads(perf_path.read_text())
        names = {e["name"] for e in payload["traceEvents"]}
        assert set(ENGINE_PHASES) <= names
        assert all(
            e["ph"] in ("X", "i", "M") for e in payload["traceEvents"]
        )
        prof = json.loads(report_path.read_text())
        assert prof["coverage"] >= 0.95
        assert prof["top_phases"]
        assert prof["accesses"] > 0

    def test_profile_requires_cell_or_suite(self):
        with pytest.raises(SystemExit, match="workload"):
            main(["--preset", "tiny", "profile"])

    def test_profile_restores_cache_dir(self, monkeypatch, tmp_path):
        # The throwaway profiling cache must not leak into the
        # environment the caller set up.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "mine"))
        assert main([
            "--preset", "tiny", "profile",
            "--workload", "pr", "--policy", "ndpext-static",
            "--perf-out", str(tmp_path / "p.json"),
        ]) == 0
        import os

        assert os.environ["REPRO_CACHE_DIR"] == str(tmp_path / "mine")

    def test_run_trace_out(self, tmp_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        assert main([
            "--preset", "tiny", "run",
            "--workload", "pr", "--policy", "ndpext",
            "--trace-out", str(trace_path),
        ]) == 0
        assert "runtime cycles" in capsys.readouterr().out
        trace = read_trace(str(trace_path))
        assert trace.events_of("epoch")
