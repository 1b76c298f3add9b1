"""Exporter validity: every serving Prometheus line must parse under
the text-format grammar, histogram series must be cumulative and capped
by ``+Inf == _count``, and written JSON must be strictly finite."""

import json
import re

import pytest

from repro.core import NdpExtPolicy
from repro.obs import Recorder
from repro.obs.export import write_json
from repro.sim import SimulationEngine, tiny
from repro.workloads import TINY, build

# Prometheus text format: HELP/TYPE comments, or `name{labels} value`.
METRIC_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" (?:[+-]?(?:[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?|Inf|NaN))$"
)
COMMENT_LINE = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$")


class TestWriteJson:
    def test_round_trips_without_non_finite_tokens(self, tmp_path):
        """What ``run --report-out`` writes: strict JSON, NaN as null."""
        recorder = Recorder(workload="pr", policy="ndpext", preset="tiny")
        engine = SimulationEngine(tiny(), recorder=recorder)
        report = engine.run(build("pr", TINY), NdpExtPolicy())
        path = tmp_path / "m.json"
        payload = report.to_json(include_obs=True)
        write_json(str(path), {**payload, "weird": float("nan")})
        text = path.read_text()
        assert "NaN" not in text and "Infinity" not in text
        loaded = json.loads(text)
        assert loaded["runtime_cycles"] == report.runtime_cycles
        assert loaded["weird"] is None


class TestServePrometheusFormat:
    """The serving exporter under a real two-tenant fault storm: every
    line must parse, every family must carry HELP/TYPE, and the
    per-tenant histograms must stay cumulative."""

    @pytest.fixture(scope="class")
    def storm(self):
        from repro.obs.export import serve_prometheus
        from repro.obs.slo import SloObjective
        from repro.serve import ServeHarness
        from repro.serve.scenario import two_tenant_scenario

        scenario = two_tenant_scenario(
            name="export-storm",
            batch_accesses=500,
            wave_size=6,
            steps_per_wave=3,
            faults={
                "unit_failures": 1,
                "row_faults": 1,
                "crc_bursts": 1,
                "downtrains": 1,
            },
            admission="slo",
            objectives=(
                SloObjective(
                    "analytics", p99_ns=70_000.0, max_shed_rate=0.10
                ),
            ),
        )
        report = ServeHarness(scenario, preset="tiny").run()
        return serve_prometheus(report, {"preset": "tiny"}), report

    def test_every_line_parses(self, storm):
        text, _ = storm
        for line in text.strip().splitlines():
            assert METRIC_LINE.match(line) or COMMENT_LINE.match(line), line

    def test_help_and_type_precede_every_family(self, storm):
        text, _ = storm
        helped, typed, seen = set(), set(), set()
        for line in text.splitlines():
            if line.startswith("# HELP "):
                helped.add(line.split()[2])
            elif line.startswith("# TYPE "):
                name = line.split()[2]
                assert name in helped, f"TYPE before HELP for {name}"
                typed.add(name)
            else:
                name = re.match(r"^[a-zA-Z_:][a-zA-Z0-9_:]*", line).group(0)
                base = re.sub(r"_(bucket|sum|count)$", "", name)
                assert name in typed or base in typed, name
                seen.add(base if base in typed else name)
        assert typed == seen, "declared families with no samples"

    def test_tenant_histograms_cumulative_and_capped(self, storm):
        text, report = storm
        populated = ["all"] + [
            name
            for name, stats in report.tenants.items()
            if stats.latency.n
        ]
        assert len(populated) >= 3, "storm must populate both tenants"
        for tenant in populated:
            rows = re.findall(
                r'repro_serve_batch_latency_ns_bucket\{[^}]*tenant="'
                + tenant
                + r'"[^}]*le="([^"]+)"\} (\d+)',
                text,
            )
            assert rows, tenant
            counts = [int(count) for _, count in rows]
            assert counts == sorted(counts), f"{tenant}: not cumulative"
            assert rows[-1][0] == "+Inf"
            hist = (
                report.latency
                if tenant == "all"
                else report.tenants[tenant].latency
            )
            assert counts[-1] == hist.n

    def test_slo_series_present_with_objectives(self, storm):
        text, _ = storm
        for needle in (
            'repro_slo_alert_state{scenario="export-storm",preset="tiny",'
            'tenant="analytics"}',
            "repro_slo_budget_remaining",
            'objective="latency_p99",window="fast"',
            'objective="latency_p99",window="slow"',
            "repro_slo_latency_windows_total",
            "repro_slo_latency_windows_met",
        ):
            assert needle in text, needle

    def test_tenant_label_values_are_escaped(self):
        from repro.obs.export import serve_prometheus
        from repro.obs.histogram import LatencyHistogram
        from repro.serve import ServeReport, TenantStats

        weird = 'ten"ant\\one'
        report = ServeReport(
            scenario='sce"nario',
            tenants={weird: TenantStats(submitted=1, admitted=1)},
            latency=LatencyHistogram(),
            epochs=1,
            reconfigs=0,
            health_reconfig_requests=0,
            degraded_windows=[],
        )
        text = serve_prometheus(report)
        assert 'tenant="ten\\"ant\\\\one"' in text
        assert 'scenario="sce\\"nario"' in text
        # The raw (unescaped) label value never appears verbatim.
        assert f'tenant="{weird}"' not in text
