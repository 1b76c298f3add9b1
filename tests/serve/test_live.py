"""The live telemetry plane: /metrics validity, health, and the
read-only contract.

* ``GET /metrics`` mid-run or post-run is valid Prometheus text
  (every line parses, histograms stay cumulative) and scraping it
  concurrently never perturbs the replayed result.
* The plane only observes: a POST, to any path, changes nothing.
"""

import json
import re
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs.slo import SloObjective
from repro.serve import LiveServeServer, ServeHarness, parse_listen
from repro.serve.scenario import two_tenant_scenario

# Same grammar the exporter tests pin (tests/obs/test_export.py).
METRIC_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" (?:[+-]?(?:[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?|Inf|NaN))$"
)
COMMENT_LINE = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$")

STORM = {
    "unit_failures": 1,
    "row_faults": 1,
    "crc_bursts": 1,
    "downtrains": 1,
}


def storm_scenario(**overrides):
    return two_tenant_scenario(
        name="live-storm",
        batch_accesses=500,
        wave_size=6,
        steps_per_wave=3,
        faults=STORM,
        admission="slo",
        objectives=(
            SloObjective("analytics", p99_ns=70_000.0, max_shed_rate=0.10),
        ),
        **overrides,
    )


def http(server, path, payload=None, method=None):
    """One request against the live server; returns (status, headers,
    parsed-or-raw body). Error statuses come back, not raised."""
    data = None
    if payload is not None:
        data = json.dumps(payload).encode()
    req = urllib.request.Request(
        server.url + path, data=data, method=method
    )
    try:
        resp = urllib.request.urlopen(req, timeout=10)
    except urllib.error.HTTPError as err:
        resp = err
    body = resp.read()
    ctype = resp.headers.get("Content-Type", "")
    if ctype.startswith("application/json"):
        return resp.status, resp.headers, json.loads(body)
    return resp.status, resp.headers, body.decode()


class TestParseListen:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("127.0.0.1:9090", ("127.0.0.1", 9090)),
            ("0.0.0.0:80", ("0.0.0.0", 80)),
            (":9309", ("127.0.0.1", 9309)),
            (":0", ("127.0.0.1", 0)),
        ],
    )
    def test_accepts(self, spec, expected):
        assert parse_listen(spec) == expected

    @pytest.mark.parametrize("spec", ["", "host:", "host:nope", ":70000"])
    def test_rejects(self, spec):
        with pytest.raises(ValueError, match="listen spec"):
            parse_listen(spec)


@pytest.fixture(scope="module")
def finished():
    """A storm run completed with the live endpoint attached; the
    server keeps answering from the frozen final report."""
    harness = ServeHarness(storm_scenario(), preset="tiny")
    server = LiveServeServer(
        harness.loop,
        scenario=harness.scenario.name,
        port=0,
        extra_labels={"preset": "tiny"},
    ).start()
    report = harness.run(lock=server.lock)
    server.set_final(report)
    yield server, report
    server.close()


class TestMetricsEndpoint:
    def test_every_line_is_valid_prometheus(self, finished):
        server, _ = finished
        status, headers, text = http(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]
        for line in text.strip().splitlines():
            assert METRIC_LINE.match(line) or COMMENT_LINE.match(line), line

    def test_serve_and_slo_series_present(self, finished):
        server, _ = finished
        _, _, text = http(server, "/metrics")
        for needle in (
            "repro_serve_batches_total",
            'preset="tiny"',
            "repro_slo_alert_state",
            "repro_slo_budget_remaining",
            "repro_slo_burn_rate",
            'tenant="analytics"',
        ):
            assert needle in text, needle

    def test_latency_buckets_cumulative_and_capped(self, finished):
        server, report = finished
        _, _, text = http(server, "/metrics")
        rows = re.findall(
            r'repro_serve_batch_latency_ns_bucket\{[^}]*tenant="all"'
            r'[^}]*le="([^"]+)"\} (\d+)',
            text,
        )
        assert rows, "no aggregate latency buckets exported"
        counts = [int(count) for _, count in rows]
        assert counts == sorted(counts), "buckets must be cumulative"
        assert rows[-1][0] == "+Inf"
        assert counts[-1] == report.latency.n


class TestStatusEndpoints:
    def test_healthz_reports_finished_run(self, finished):
        server, report = finished
        status, _, payload = http(server, "/healthz")
        assert status == 200  # HEALTHY/DEGRADED serve 200; FLAPPING 503
        assert payload["finished"] is True
        assert payload["epochs"] == report.epochs
        assert payload["queued"] == 0
        assert isinstance(payload["degraded_windows"], list)

    def test_slo_status_json(self, finished):
        server, report = finished
        status, _, payload = http(server, "/slo")
        assert status == 200
        analytics = payload["tenants"]["analytics"]
        assert analytics["alert"] in ("ok", "warn", "page")
        assert "latency_p99" in analytics["objectives"]
        assert payload == report.slo

    def test_report_endpoint_matches_final_report(self, finished):
        server, report = finished
        status, _, payload = http(server, "/report")
        assert status == 200
        assert payload == json.loads(
            json.dumps(report.to_json(), allow_nan=False)
        )

    def test_unknown_paths_404(self, finished):
        server, _ = finished
        for path, method in (("/nope", None), ("/nope", "POST")):
            status, _, payload = http(server, path, method=method)
            assert status == 404
            assert "unknown path" in payload["error"]


class TestConcurrentScrapes:
    def test_scraping_mid_run_does_not_perturb_the_report(self):
        """The determinism contract: a scripted run hammered by live
        scrapes produces the same report as one with no server at all."""
        reference = ServeHarness(storm_scenario(), preset="tiny").run()

        harness = ServeHarness(storm_scenario(), preset="tiny")
        with LiveServeServer(
            harness.loop, scenario=harness.scenario.name, port=0
        ) as server:
            stop = threading.Event()
            errors = []

            def hammer():
                while not stop.is_set():
                    try:
                        for path in ("/metrics", "/healthz", "/slo"):
                            http(server, path)
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)
                        return

            scraper = threading.Thread(target=hammer, daemon=True)
            scraper.start()
            try:
                report = harness.run(lock=server.lock)
            finally:
                stop.set()
                scraper.join(timeout=10)
            server.set_final(report)
        assert not errors
        assert report.to_json() == reference.to_json()


class TestReadOnly:
    def test_posts_are_refused_and_change_nothing(self):
        """The scripted replay is the only driver: on a live, unfinished
        loop a POST to ingest, drain or finish answers an error and
        leaves the queue, the clock and the report untouched."""
        harness = ServeHarness(storm_scenario(), preset="tiny")
        batch = harness.batches()[0]
        harness.loop.submit(batch)
        with LiveServeServer(
            harness.loop, scenario=harness.scenario.name, port=0
        ) as server:
            queued, epochs = harness.loop.queued, harness.loop.epochs
            assert queued == 1
            _, _, before = http(server, "/report")
            spec = {"tenant": batch.tenant, "batch_id": 99,
                    "start": batch.start, "stop": batch.stop}
            for path, body in (
                ("/ingest", {"batches": [spec], "steps": None}),
                ("/drain", {}),
                ("/finish", {"scenario": "x"}),
            ):
                status, _, _ = http(server, path, payload=body)
                assert status >= 400, path
            assert harness.loop.queued == queued
            assert harness.loop.epochs == epochs
            _, _, after = http(server, "/report")
            assert after == before
