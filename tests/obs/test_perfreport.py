"""Perf-trace analysis: Perfetto export schema, phase attribution and
its coverage invariant, pool critical path, and worker utilization."""

import json

import pytest

from repro.experiments.runner import POLICIES
from repro.obs.perfreport import (
    bottleneck_report,
    chrome_trace,
    critical_path,
    missing_engine_phases,
    phase_summary,
    render_bottleneck,
    worker_utilization,
    write_chrome_trace,
)
from repro.obs.tracing import ENGINE_PHASES, PerfTracer, SpanEvent, activate
from repro.sim import SimulationEngine, tiny
from repro.workloads import TINY, build


class FakeClock:
    def __init__(self, start=0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


def task_event(sid, ts_ns, dur_ns, pid, label=""):
    return SpanEvent(
        sid=sid,
        parent=-1,
        name="task",
        cat="task",
        ts_ns=ts_ns,
        dur_ns=dur_ns,
        pid=pid,
        tid=1,
        args={"label": label} if label else None,
    )


@pytest.fixture(scope="module")
def traced_run():
    """One tiny simulation under an ambient tracer (module-cached)."""
    tracer = PerfTracer()
    with activate(tracer):
        report = SimulationEngine(tiny()).run(
            build("pr", TINY), POLICIES["ndpext"]()
        )
    return tracer, report


class TestChromeTrace:
    def test_schema_sanity(self, traced_run):
        tracer, _ = traced_run
        payload = chrome_trace(tracer, meta={"preset": "tiny"})
        events = payload["traceEvents"]
        assert events, "a traced run must export events"
        assert payload["otherData"]["preset"] == "tiny"
        last_ts = None
        for ev in events:
            assert ev["ph"] in ("X", "i", "M")
            if ev["ph"] == "M":
                assert ev["name"] == "process_name"
                continue
            assert ev["ts"] >= 0
            assert isinstance(ev["pid"], int) and isinstance(ev["tid"], int)
            if ev["ph"] == "X":
                assert ev["dur"] >= 0
            else:
                assert ev["s"] == "t"
            if last_ts is not None:
                assert ev["ts"] >= last_ts
            last_ts = ev["ts"]

    def test_process_metadata_names_every_process(self, traced_run):
        tracer, _ = traced_run
        payload = chrome_trace(tracer)
        named = {
            e["pid"]: e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M"
        }
        assert named == tracer.process_labels

    def test_write_round_trips_as_json(self, traced_run, tmp_path):
        tracer, _ = traced_run
        path = tmp_path / "prof.json"
        count = write_chrome_trace(tracer, str(path))
        payload = json.loads(path.read_text())
        assert len(payload["traceEvents"]) == count
        names = {e["name"] for e in payload["traceEvents"]}
        assert set(ENGINE_PHASES) <= names

    def test_instants_export_with_scope(self):
        clock = FakeClock()
        tracer = PerfTracer(clock=clock, wall=clock)
        tracer.instant("pool.dispatch", index=1)
        (meta, ev) = chrome_trace(tracer)["traceEvents"]
        assert meta["ph"] == "M"
        assert ev["ph"] == "i" and ev["s"] == "t"
        assert "dur" not in ev


class TestPhaseSummary:
    def test_real_run_covers_the_wall_clock(self, traced_run):
        tracer, _ = traced_run
        summary = phase_summary(tracer)
        assert summary["sim_wall_s"] > 0
        # Acceptance bound is >= 0.95; by construction every engine
        # phase nests under engine.run, so coverage is exactly 1.
        assert summary["coverage"] == pytest.approx(1.0)
        assert missing_engine_phases(tracer) == []
        shares = [row["share"] for row in summary["phases"].values()]
        assert all(0.0 <= s <= 1.0 for s in shares)

    def test_structural_spans_become_orchestration_not_phases(self, traced_run):
        tracer, _ = traced_run
        summary = phase_summary(tracer)
        assert "engine.run" not in summary["phases"]
        assert "engine.epoch" not in summary["phases"]
        assert summary["orchestration_s"] >= 0

    def test_exclusive_sums_reconstruct_sim_wall(self, traced_run):
        tracer, _ = traced_run
        summary = phase_summary(tracer)
        reconstructed = (
            sum(r["exclusive_s"] for r in summary["phases"].values())
            + summary["orchestration_s"]
        )
        assert reconstructed == pytest.approx(summary["sim_wall_s"], rel=0.05)

    def test_empty_tracer_reports_everything_missing(self):
        tracer = PerfTracer()
        assert missing_engine_phases(tracer) == list(ENGINE_PHASES)
        assert phase_summary(tracer)["sim_wall_s"] == 0.0


class TestCriticalPath:
    def test_chain_walks_latest_predecessors(self):
        # B finishes latest before C starts, so the chain is B -> C even
        # though A also precedes C.
        events = [
            task_event(0, ts_ns=0, dur_ns=100, pid=1, label="a"),
            task_event(1, ts_ns=0, dur_ns=150, pid=2, label="b"),
            task_event(2, ts_ns=160, dur_ns=40, pid=2, label="c"),
        ]
        steps = critical_path(events)
        assert [s.label for s in steps] == ["b", "c"]
        assert steps[0].gap_s == 0.0
        assert steps[1].gap_s == pytest.approx(10 / 1e9)
        assert steps[1].start_s == pytest.approx(160 / 1e9)

    def test_serial_degenerates_to_full_sequence(self):
        events = [
            task_event(i, ts_ns=i * 100, dur_ns=90, pid=1, label=f"t{i}")
            for i in range(3)
        ]
        steps = critical_path(events)
        assert [s.label for s in steps] == ["t0", "t1", "t2"]
        assert all(s.gap_s == pytest.approx(10 / 1e9) for s in steps[1:])

    def test_no_tasks_no_path(self):
        assert critical_path([]) == []


class TestWorkerUtilization:
    def test_busy_fraction_over_batch_window(self):
        events = [
            task_event(0, ts_ns=0, dur_ns=100, pid=1),
            task_event(1, ts_ns=0, dur_ns=150, pid=2),
            task_event(2, ts_ns=160, dur_ns=40, pid=2),
        ]
        util = worker_utilization(events, {1: "w1", 2: "w2"})
        assert util["1"]["utilization"] == pytest.approx(0.5)
        assert util["2"]["utilization"] == pytest.approx(0.95)
        assert util["2"]["tasks"] == 2
        assert util["1"]["label"] == "w1"

    def test_empty_events(self):
        assert worker_utilization([], {}) == {}


class TestBottleneckReport:
    def test_report_and_render(self, traced_run):
        tracer, report = traced_run
        prof = bottleneck_report(tracer, accesses=report.hits.total_requests)
        assert prof["coverage"] == pytest.approx(1.0)
        assert prof["top_phases"]
        assert prof["accesses"] == report.hits.total_requests
        for row in prof["attribution"].values():
            assert row["accesses_per_s"] > 0
        text = render_bottleneck(prof)
        assert "engine phases by exclusive time" in text
        assert "(orchestration)" in text
        assert "accesses/s if alone" in text

    def test_report_names_ring_build_and_peak_rss(self, traced_run):
        tracer, _ = traced_run
        prof = bottleneck_report(tracer)
        # The ring build is its own phase, nested under the policy phase
        # that installs a configuration, so coverage is unchanged.
        assert prof["top_phases"]["policy.mapper.ring_build"]["calls"] > 0
        assert prof["coverage"] == pytest.approx(1.0)
        assert prof["peak_rss_mb"] > 0
        assert f"peak RSS {prof['peak_rss_mb']:.1f} MB" in render_bottleneck(prof)

    def test_report_names_configure_and_sampler(self, traced_run):
        tracer, _ = traced_run
        prof = bottleneck_report(tracer)
        # The configuration solve and the miss-curve sampler are phases
        # of their own inside the policy, so coverage is unchanged.
        assert prof["top_phases"]["policy.configure"]["calls"] > 0
        assert prof["top_phases"]["policy.sampler"]["calls"] > 0
        assert prof["coverage"] == pytest.approx(1.0)

    def test_report_without_accesses_has_no_attribution(self, traced_run):
        tracer, _ = traced_run
        prof = bottleneck_report(tracer)
        assert "attribution" not in prof
        assert "accesses/s" not in render_bottleneck(prof)

    def test_report_is_json_serializable(self, traced_run):
        tracer, report = traced_run
        prof = bottleneck_report(tracer, accesses=report.hits.total_requests)
        json.dumps(prof)
