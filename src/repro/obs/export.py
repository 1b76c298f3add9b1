"""Metrics export: Prometheus text format and strict JSON files.

:func:`serve_prometheus` renders a :class:`~repro.serve.report.ServeReport`
as a Prometheus text-format document — per-tenant batch outcomes, batch
latency as native Prometheus histograms (cumulative ``_bucket{le=...}``
series plus ``_sum``/``_count``), reconfiguration and degradation
gauges, and the SLO burn/budget gauges.  ``serve --prom`` writes it and
the live ``/metrics`` endpoint serves it.  :func:`write_json` writes
every ``--report-out`` payload, sanitized so no ``NaN``/``Infinity``
token can appear (strict parsers reject them).
"""

from __future__ import annotations

import json

import numpy as np

from repro.obs.histogram import EDGES, LatencyHistogram
from repro.obs.recorder import sanitize_json

PREFIX = "repro"


def _fmt(value: float) -> str:
    """Prometheus sample value: repr keeps floats exact, ints compact."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value != value or value in (float("inf"), float("-inf")):
        return "0"  # a non-finite gauge is meaningless; export zero
    return repr(float(value))


def _labels(labels: dict[str, object]) -> str:
    if not labels:
        return ""
    quoted = ",".join(
        f'{key}="{_escape(str(value))}"' for key, value in labels.items()
    )
    return "{" + quoted + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class _Writer:
    """Accumulates text-format lines with one HELP/TYPE header per metric."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self._declared: set[str] = set()

    def declare(self, name: str, kind: str, help_text: str) -> None:
        if name in self._declared:
            return
        self._declared.add(name)
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {kind}")

    def sample(self, name: str, labels: dict, value) -> None:
        self.lines.append(f"{name}{_labels(labels)} {_fmt(value)}")


def _histogram_lines(
    writer: _Writer, name: str, hist: LatencyHistogram, base: dict
) -> None:
    """One histogram in native Prometheus layout (``name`` must already
    be declared)."""
    cum = np.cumsum(hist.counts)
    # Emit only the edges that change the cumulative count, plus +Inf —
    # full fidelity at a fraction of the 194 buckets.
    prev = -1
    for idx in range(len(hist.counts) - 1):
        if cum[idx] == prev:
            continue
        prev = int(cum[idx])
        writer.sample(
            f"{name}_bucket",
            {**base, "le": _fmt(float(EDGES[idx]))},
            int(cum[idx]),
        )
    writer.sample(f"{name}_bucket", {**base, "le": "+Inf"}, hist.n)
    writer.sample(f"{name}_sum", base, hist.total_ns)
    writer.sample(f"{name}_count", base, hist.n)


def serve_prometheus(
    report, extra_labels: dict[str, object] | None = None
) -> str:
    """Render a :class:`~repro.serve.report.ServeReport` as Prometheus
    text format: per-tenant admission/shed/timeout counters, batch
    latency as native histograms (overall and per tenant), plus
    reconfiguration and degradation gauges.
    """
    base = {"scenario": report.scenario}
    base.update(extra_labels or {})
    w = _Writer()

    w.declare(
        f"{PREFIX}_serve_batches_total",
        "counter",
        "serving-loop batch outcomes by tenant",
    )
    for name, stats in sorted(report.tenants.items()):
        for outcome in (
            "submitted",
            "admitted",
            "rejected",
            "shed",
            "timed_out",
            "completed",
            "resumed",
        ):
            w.sample(
                f"{PREFIX}_serve_batches_total",
                {**base, "tenant": name, "outcome": outcome},
                getattr(stats, outcome),
            )

    w.declare(
        f"{PREFIX}_serve_batch_latency_ns",
        "histogram",
        "batch latency from admission to completion (simulated ns)",
    )
    _histogram_lines(
        w,
        f"{PREFIX}_serve_batch_latency_ns",
        report.latency,
        {**base, "tenant": "all"},
    )
    for name, stats in sorted(report.tenants.items()):
        if stats.latency.n:
            _histogram_lines(
                w,
                f"{PREFIX}_serve_batch_latency_ns",
                stats.latency,
                {**base, "tenant": name},
            )

    w.declare(
        f"{PREFIX}_serve_reconfigs_total",
        "counter",
        "placements applied while serving",
    )
    w.sample(f"{PREFIX}_serve_reconfigs_total", base, report.reconfigs)
    w.declare(
        f"{PREFIX}_serve_health_reconfig_requests_total",
        "counter",
        "re-placements forced by the health monitor",
    )
    w.sample(
        f"{PREFIX}_serve_health_reconfig_requests_total",
        base,
        report.health_reconfig_requests,
    )
    w.declare(
        f"{PREFIX}_serve_degraded_epochs",
        "gauge",
        "epochs spent in a degradation window",
    )
    w.sample(
        f"{PREFIX}_serve_degraded_epochs",
        base,
        sum(b - a for a, b in report.degraded_windows),
    )
    w.declare(
        f"{PREFIX}_serve_drained_queued",
        "gauge",
        "batches journaled but unserved at drain",
    )
    w.sample(f"{PREFIX}_serve_drained_queued", base, report.drained_queued)
    if report.slo is not None:
        _slo_lines(w, report.slo, base)
    return "\n".join(w.lines) + "\n"


def _slo_lines(w: _Writer, status: dict, base: dict) -> None:
    """SLO gauges from an :meth:`SloEngine.status` payload."""
    from repro.obs.slo import OBJ_LATENCY, alert_severity

    w.declare(
        f"{PREFIX}_slo_alert_state",
        "gauge",
        "per-tenant SLO alert severity (0=ok 1=warn 2=page)",
    )
    w.declare(
        f"{PREFIX}_slo_budget_remaining",
        "gauge",
        "fraction of the error budget left (negative = overspent)",
    )
    w.declare(
        f"{PREFIX}_slo_burn_rate",
        "gauge",
        "error-budget burn rate by objective and window",
    )
    w.declare(
        f"{PREFIX}_slo_latency_windows_total",
        "counter",
        "evaluated fast windows for the latency objective",
    )
    w.declare(
        f"{PREFIX}_slo_latency_windows_met",
        "counter",
        "fast windows whose p99 met the latency objective",
    )
    for name, tenant in sorted(status.get("tenants", {}).items()):
        labels = {**base, "tenant": name}
        w.sample(
            f"{PREFIX}_slo_alert_state", labels, alert_severity(tenant["alert"])
        )
        w.sample(
            f"{PREFIX}_slo_budget_remaining", labels, tenant["budget_remaining"]
        )
        for kind, obj in sorted(tenant.get("objectives", {}).items()):
            for window in ("fast", "slow"):
                w.sample(
                    f"{PREFIX}_slo_burn_rate",
                    {**labels, "objective": kind, "window": window},
                    obj[f"burn_{window}"],
                )
            if kind == OBJ_LATENCY:
                obj_labels = {**labels, "objective": kind}
                w.sample(
                    f"{PREFIX}_slo_latency_windows_total",
                    obj_labels,
                    obj.get("windows_total", 0),
                )
                w.sample(
                    f"{PREFIX}_slo_latency_windows_met",
                    obj_labels,
                    obj.get("windows_met", 0),
                )


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as f:
        json.dump(sanitize_json(payload), f, indent=2, allow_nan=False)
