"""The live telemetry plane: an HTTP front door beside the serving loop.

:class:`LiveServeServer` runs a stdlib :class:`ThreadingHTTPServer` on a
daemon thread next to a :class:`~repro.serve.loop.ServeLoop`, turning
the passive exporters into a queryable, read-only ops surface:

* ``GET /metrics`` — the serving Prometheus document for the loop's
  *current* state (:func:`~repro.obs.export.serve_prometheus` over a
  non-destructive snapshot), engine counters when a live recorder is
  attached, and the SLO burn/budget gauges.
* ``GET /healthz`` — mirrors the :class:`HealthMonitor`: 200 while
  HEALTHY or DEGRADED (the loop is still serving), 503 while FLAPPING
  (reconfiguration is paused and a load balancer should back off).
* ``GET /slo`` — the full per-tenant objective status as JSON
  (:meth:`SloEngine.status`).
* ``GET /report`` — the snapshot :class:`ServeReport` as JSON.

The plane only observes: the scripted replay (:meth:`ServeHarness.run`)
is the one way to drive the loop, and a POST gets an error status.
Every handler serializes on one lock shared with that replay, so a
scrape mid-storm sees a consistent loop state.  The simulated clock
never observes HTTP timing — scraping cannot change a replayed result.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs.export import serve_prometheus
from repro.obs.recorder import sanitize_json
from repro.serve.health import FLAPPING

ROUTES = ("/metrics", "/healthz", "/slo", "/report")


def parse_listen(spec: str) -> tuple[str, int]:
    """``host:port``, ``:port``, or bare ``port``; a missing host binds
    loopback (the safe default for a dev/CI telemetry endpoint)."""
    host, _, port = spec.rpartition(":")
    if not port:
        raise ValueError(f"listen spec {spec!r} needs a port")
    try:
        port_num = int(port)
    except ValueError:
        raise ValueError(f"listen spec {spec!r}: port must be an integer") from None
    if not 0 <= port_num <= 65535:
        raise ValueError(f"listen spec {spec!r}: port out of range")
    return (host or "127.0.0.1", port_num)


class LiveServeServer:
    """One HTTP endpoint bound to one resident serving loop."""

    def __init__(
        self,
        loop,
        scenario: str = "",
        host: str = "127.0.0.1",
        port: int = 0,
        extra_labels: dict | None = None,
    ) -> None:
        self.loop = loop
        self.scenario = scenario
        self.extra_labels = dict(extra_labels or {})
        self.lock = threading.RLock()
        self._final = None  # ServeReport frozen by set_final
        server = self

        class Handler(BaseHTTPRequestHandler):
            # Telemetry endpoints must not spam the serving process.
            def log_message(self, fmt, *args):
                pass

            def _send(self, status: int, content_type: str, body: bytes):
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def _json(self, status: int, payload):
                body = json.dumps(
                    sanitize_json(payload), allow_nan=False
                ).encode()
                self._send(status, "application/json", body)

            def do_GET(self):
                try:
                    server._get(self)
                except BrokenPipeError:
                    pass
                except Exception as exc:  # surface, don't kill the thread
                    self._json(500, {"error": repr(exc)})

            def do_POST(self):
                # Read-only: a known path answers 405, anything else 404.
                # The body is drained so closing cannot reset the reply.
                self.rfile.read(int(self.headers.get("Content-Length") or 0))
                path = self.path.split("?", 1)[0]
                if path in ROUTES:
                    self._json(405, {"error": f"{path} is read-only"})
                else:
                    self._json(404, {"error": f"unknown path {path!r}"})

        self.httpd = ThreadingHTTPServer((host, port), Handler)
        self.httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-live", daemon=True
        )

    # -- lifecycle ------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "LiveServeServer":
        self._thread.start()
        return self

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "LiveServeServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def set_final(self, report) -> None:
        """Freeze the end-of-run report (call after ``harness.run``)."""
        with self.lock:
            self._final = report

    # -- snapshots ------------------------------------------------------

    def _snapshot(self):
        """Current report under the lock: live until finished, then the
        frozen final report."""
        if self._final is not None:
            return self._final
        return self.loop.snapshot_report(self.scenario)

    def metrics_text(self) -> str:
        with self.lock:
            report = self._snapshot()
            text = serve_prometheus(report, self.extra_labels)
            recorder = self.loop.recorder
            if recorder.enabled and recorder.counters:
                lines = [
                    "# HELP repro_engine_counter_total engine-layer counters "
                    "from the live recorder",
                    "# TYPE repro_engine_counter_total counter",
                ]
                for name, value in sorted(recorder.counters.items()):
                    label = name.replace("\\", "\\\\").replace('"', '\\"')
                    lines.append(
                        f'repro_engine_counter_total{{name="{label}"}} {value:g}'
                    )
                text += "\n".join(lines) + "\n"
        return text

    # -- request handling ----------------------------------------------

    def _get(self, handler) -> None:
        path = handler.path.split("?", 1)[0]
        if path == "/metrics":
            handler._send(
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                self.metrics_text().encode(),
            )
        elif path == "/healthz":
            with self.lock:
                state = self.loop.health.state
                payload = {
                    "state": state,
                    "epochs": self.loop.epochs,
                    "queued": self.loop.queued,
                    "finished": self._final is not None,
                    "degraded_windows": self.loop.health.windows_view(),
                }
            handler._json(503 if state == FLAPPING else 200, payload)
        elif path == "/slo":
            with self.lock:
                payload = (
                    self.loop.slo.status()
                    if self.loop.slo is not None
                    else {"tenants": {}}
                )
            handler._json(200, payload)
        elif path == "/report":
            with self.lock:
                payload = self._snapshot().to_json()
            handler._json(200, payload)
        else:
            handler._json(404, {"error": f"unknown path {path!r}"})
