"""Perf-trace analysis and export: Perfetto JSON + bottleneck reports.

The write side of :mod:`repro.obs.tracing`.  Three consumers:

* :func:`write_chrome_trace` — Chrome trace-event JSON (the format
  ``ui.perfetto.dev`` and ``chrome://tracing`` load): one ``"X"``
  (complete) event per span with microsecond ``ts``/``dur``, ``pid`` /
  ``tid`` tracks per process/thread, and ``"M"`` metadata events naming
  each process — the supervised pool's workers appear as separate
  tracks, already clock-aligned by :meth:`PerfTracer.merge`.
* :func:`bottleneck_report` — the JSON attribution summary: top phases
  by exclusive time, the engine-coverage check (phase exclusive times
  must reconstruct the simulated wall clock), I/O and pool span tables,
  per-worker utilization, the **pool critical path** (the longest chain
  of dependent task spans — the concrete explanation when N jobs fail
  to beat serial), peak resident memory, and a per-phase ``accesses/s``
  attribution table.
* :func:`render_bottleneck` — the same report as CLI text tables.

Span taxonomy (by ``cat``): ``phase`` — engine/policy phases nested
under ``engine.run``; ``task`` — one pool task per span (worker side);
``io`` — cache/trace-store operations; ``pool`` — supervisor
scheduling; ``instant`` — zero-duration markers.
"""

from __future__ import annotations

import json
import resource
from dataclasses import dataclass

from repro.obs.tracing import ENGINE_PHASES, PerfTracer, SpanEvent
from repro.util import render_table

# Structural spans: containers whose exclusive time is loop/dispatch
# orchestration rather than an attributable phase.  They are reported
# as one "orchestration" residual instead of as phases.
STRUCTURAL_SPANS = ("engine.run", "engine.epoch")


# ---------------------------------------------------------------------------
# Chrome / Perfetto trace-event export.


def chrome_trace(tracer: PerfTracer, meta: dict | None = None) -> dict:
    """The tracer's events as a Chrome trace-event JSON object.

    Timestamps are exported in microseconds relative to the earliest
    recorded event, sorted ascending (Perfetto tolerates unsorted input
    but the schema check in tests asserts monotonicity).  Thread ids
    are compacted to small per-process integers.
    """
    events = sorted(tracer.events, key=lambda e: (e.ts_ns, e.sid))
    t0 = events[0].ts_ns if events else 0
    tids: dict[tuple[int, int], int] = {}
    out: list[dict] = []
    for pid, label in sorted(tracer.process_labels.items()):
        out.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
    for ev in events:
        tid = tids.setdefault((ev.pid, ev.tid), len([
            k for k in tids if k[0] == ev.pid
        ]))
        record: dict = {
            "name": ev.name,
            "cat": ev.cat,
            "ph": "i" if ev.dur_ns == 0 and ev.cat == "instant" else "X",
            "ts": (ev.ts_ns - t0) / 1000.0,
            "pid": ev.pid,
            "tid": tid,
        }
        if record["ph"] == "X":
            record["dur"] = ev.dur_ns / 1000.0
        else:
            record["s"] = "t"
        if ev.args:
            record["args"] = dict(ev.args)
        out.append(record)
    payload = {"traceEvents": out, "displayTimeUnit": "ms"}
    if meta:
        payload["otherData"] = dict(meta)
    if tracer.dropped_events:
        payload.setdefault("otherData", {})["dropped_events"] = tracer.dropped_events
    return payload


def write_chrome_trace(tracer: PerfTracer, path: str, meta: dict | None = None) -> int:
    """Write the Perfetto-loadable JSON; returns the event count."""
    payload = chrome_trace(tracer, meta=meta)
    with open(path, "w") as f:
        json.dump(payload, f)
    return len(payload["traceEvents"])


# ---------------------------------------------------------------------------
# Phase attribution.


def phase_summary(tracer: PerfTracer) -> dict:
    """Engine phase breakdown from the exact aggregates.

    Returns ``sim_wall_s`` (inclusive time of ``engine.run``, summed
    over every simulation the tracer observed, across processes),
    per-phase inclusive/exclusive seconds and exclusive *share* of the
    simulated wall clock, the ``orchestration_s`` residual (exclusive
    time of the structural loop spans), and ``coverage`` — the fraction
    of sim wall clock the named phases + residual reconstruct.  By
    construction coverage is exactly 1.0 when every phase nests under
    ``engine.run``; the acceptance bound (>= 0.95) guards against
    phases escaping the hierarchy.
    """
    aggs = tracer.aggregates
    root = aggs.get("engine.run")
    sim_wall_ns = root.total_ns if root else 0
    phases: dict[str, dict] = {}
    phase_excl_ns = 0
    orchestration_ns = 0
    for name, agg in sorted(aggs.items(), key=lambda kv: -kv[1].exclusive_ns):
        if agg.cat != "phase":
            continue
        if name in STRUCTURAL_SPANS:
            orchestration_ns += agg.exclusive_ns
            continue
        phase_excl_ns += agg.exclusive_ns
        phases[name] = {
            "calls": agg.calls,
            "inclusive_s": agg.total_s,
            "exclusive_s": agg.exclusive_s,
            "share": agg.exclusive_ns / sim_wall_ns if sim_wall_ns else 0.0,
        }
    return {
        "sim_wall_s": sim_wall_ns / 1e9,
        "phases": phases,
        "orchestration_s": orchestration_ns / 1e9,
        "coverage": (
            (phase_excl_ns + orchestration_ns) / sim_wall_ns if sim_wall_ns else 0.0
        ),
    }


def missing_engine_phases(tracer: PerfTracer) -> list[str]:
    """Engine phases that never appeared (CI profile-smoke assertion)."""
    return [name for name in ENGINE_PHASES if name not in tracer.aggregates]


# ---------------------------------------------------------------------------
# Pool timeline analysis.


@dataclass
class PathStep:
    """One link of the pool critical path."""

    name: str
    pid: int
    start_s: float  # relative to the chain's first span
    dur_s: float
    gap_s: float  # idle gap between the previous step's end and this start
    label: str = ""


def _task_spans(events: list[SpanEvent]) -> list[SpanEvent]:
    return [e for e in events if e.cat == "task" and e.name == "task"]


def critical_path(events: list[SpanEvent]) -> list[PathStep]:
    """The longest chain of dependent task spans ending at batch finish.

    Dependency model: a task span depends on the latest task span (on
    any worker) that finished before it started — the span whose
    completion freed the worker / supervisor slot it then occupied.
    Walking that predecessor relation back from the last-finishing task
    yields a chain covering the batch makespan; each step's ``gap_s``
    is supervisor wait / dispatch / backoff time nothing was simulating
    on that edge.  Serial execution degenerates to the full task
    sequence — the chain is then simply "everything, in order".
    """
    tasks = sorted(_task_spans(events), key=lambda e: e.end_ns)
    if not tasks:
        return []
    chain = [tasks[-1]]
    while True:
        cur = chain[-1]
        pred = None
        for cand in reversed(tasks):
            if cand.end_ns <= cur.ts_ns:
                pred = cand
                break
        if pred is None:
            break
        chain.append(pred)
    chain.reverse()
    t0 = chain[0].ts_ns
    steps = []
    prev_end = chain[0].ts_ns
    for ev in chain:
        args = ev.args or {}
        steps.append(
            PathStep(
                name=ev.name,
                pid=ev.pid,
                start_s=(ev.ts_ns - t0) / 1e9,
                dur_s=ev.dur_ns / 1e9,
                gap_s=max(0, ev.ts_ns - prev_end) / 1e9,
                label=str(args.get("label", "")),
            )
        )
        prev_end = ev.end_ns
    return steps


def worker_utilization(events: list[SpanEvent], process_labels: dict[int, str]) -> dict:
    """Per-process busy fraction over the batch window.

    Busy time is the sum of task span durations per pid; the window is
    the batch makespan (first task start to last task end across all
    processes).  Utilization below ~1.0 on a worker is time it spent
    idle — waiting on dispatch, the single-builder trace lock, or
    retry backoff.
    """
    tasks = _task_spans(events)
    if not tasks:
        return {}
    window_ns = max(e.end_ns for e in tasks) - min(e.ts_ns for e in tasks)
    busy: dict[int, int] = {}
    counts: dict[int, int] = {}
    for ev in tasks:
        busy[ev.pid] = busy.get(ev.pid, 0) + ev.dur_ns
        counts[ev.pid] = counts.get(ev.pid, 0) + 1
    return {
        str(pid): {
            "label": process_labels.get(pid, str(pid)),
            "tasks": counts[pid],
            "busy_s": ns / 1e9,
            "utilization": ns / window_ns if window_ns else 0.0,
        }
        for pid, ns in sorted(busy.items())
    }


# ---------------------------------------------------------------------------
# The bottleneck report.


def peak_rss_mb() -> float:
    """Peak resident set of this process and of every waited-for child
    (pool workers included), in MiB (``ru_maxrss`` is KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def bottleneck_report(tracer: PerfTracer, accesses: int | None = None) -> dict:
    """One JSON summary answering "where did the time go?".

    ``accesses`` (total trace accesses simulated under the tracer)
    enables the per-phase attribution table: for each engine phase, the
    whole-run throughput the suite would reach if *only* that phase
    existed (``accesses / exclusive_s``) — the DAMOV-style ranking of
    which phase to optimize first.
    """
    phases = phase_summary(tracer)
    io_rows = {
        name: {"calls": agg.calls, "total_s": agg.total_s}
        for name, agg in sorted(
            tracer.aggregates.items(), key=lambda kv: -kv[1].total_ns
        )
        if agg.cat == "io"
    }
    pool_rows = {
        name: {"calls": agg.calls, "total_s": agg.total_s}
        for name, agg in sorted(
            tracer.aggregates.items(), key=lambda kv: -kv[1].total_ns
        )
        if agg.cat in ("pool", "task")
    }
    path = critical_path(tracer.events)
    report = {
        "sim_wall_s": phases["sim_wall_s"],
        "coverage": phases["coverage"],
        "orchestration_s": phases["orchestration_s"],
        "top_phases": phases["phases"],
        "io": io_rows,
        "pool": pool_rows,
        "critical_path": [vars(step) for step in path],
        "critical_path_s": sum(s.dur_s + s.gap_s for s in path),
        "critical_path_gap_s": sum(s.gap_s for s in path),
        "worker_utilization": worker_utilization(
            tracer.events, tracer.process_labels
        ),
        "dropped_events": tracer.dropped_events,
        "peak_rss_mb": peak_rss_mb(),
    }
    if accesses:
        report["accesses"] = int(accesses)
        report["attribution"] = {
            name: {
                "exclusive_s": row["exclusive_s"],
                "share": row["share"],
                "accesses_per_s": (
                    accesses / row["exclusive_s"] if row["exclusive_s"] else float("inf")
                ),
            }
            for name, row in phases["phases"].items()
        }
    return report


def render_bottleneck(report: dict, top: int = 12) -> str:
    """The bottleneck report as CLI text tables."""
    sections: list[str] = []
    phase_rows = [
        [
            name,
            str(row["calls"]),
            f"{row['exclusive_s']:.3f}",
            f"{row['share']:.1%}",
        ]
        + (
            [f"{report['attribution'][name]['accesses_per_s']:,.0f}"]
            if "attribution" in report and name in report["attribution"]
            else ([""] if "attribution" in report else [])
        )
        for name, row in list(report["top_phases"].items())[:top]
    ]
    headers = ["phase", "calls", "excl s", "share"]
    if "attribution" in report:
        headers.append("accesses/s if alone")
    phase_rows.append(
        ["(orchestration)", "", f"{report['orchestration_s']:.3f}", ""]
        + ([""] if "attribution" in report else [])
    )
    sections.append(
        render_table(
            headers,
            phase_rows,
            title=(
                f"engine phases by exclusive time "
                f"(sim wall {report['sim_wall_s']:.3f} s, "
                f"coverage {report['coverage']:.1%}, "
                f"peak RSS {report['peak_rss_mb']:.1f} MB)"
            ),
        )
    )
    if report["io"]:
        sections.append(
            render_table(
                ["operation", "calls", "total s"],
                [
                    [name, str(row["calls"]), f"{row['total_s']:.3f}"]
                    for name, row in report["io"].items()
                ],
                title="cache / trace-store I/O",
            )
        )
    if report["critical_path"]:
        sections.append(
            render_table(
                ["step", "process", "start s", "dur s", "gap s"],
                [
                    [
                        step["label"] or step["name"],
                        str(step["pid"]),
                        f"{step['start_s']:.3f}",
                        f"{step['dur_s']:.3f}",
                        f"{step['gap_s']:.3f}",
                    ]
                    for step in report["critical_path"]
                ],
                title=(
                    f"pool critical path ({report['critical_path_s']:.3f} s, "
                    f"of which {report['critical_path_gap_s']:.3f} s idle gaps)"
                ),
            )
        )
    if report["worker_utilization"]:
        sections.append(
            render_table(
                ["process", "tasks", "busy s", "utilization"],
                [
                    [
                        row["label"],
                        str(row["tasks"]),
                        f"{row['busy_s']:.3f}",
                        f"{row['utilization']:.1%}",
                    ]
                    for row in report["worker_utilization"].values()
                ],
                title="worker utilization over the batch window",
            )
        )
    return "\n".join(sections)
