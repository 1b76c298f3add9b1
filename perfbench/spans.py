"""In-memory span tracer and the layer wiring of the traced run.

The traced run records a span around every call into the public
functions listed in :func:`layer_targets`, by wrapping them from this
package for the duration of the run (nothing under ``src/`` is edited).
A span is ``(name, start, end, parent, run id)``; spans stay in memory
and are written out once the run ends.  A span's self time is its
duration minus the time its child spans cover, and the layer of a span
is the text before the first dot of its name, so per-layer self times
add up to the wall clock of the root span exactly.

Pool workers are forked processes: spans they would record never reach
the parent, so the in-cell layers are traced on a serial run and
:class:`ExecProbe` only wraps calls the parent makes.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from pathlib import Path

# The program's layers, one per package under src/repro, plus ``bench``:
# the root span's own time, i.e. harness work outside every layer.
LAYERS = (
    "workloads",
    "exec",
    "sim",
    "core",
    "baselines",
    "serve",
    "faults",
    "obs",
    "bench",
)


class SpanLog:
    """Spans of one traced run, with self time and counts per name."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent]
        self._stack: list[int] = []
        self._child_s: list[float] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        self._child_s.append(0.0)
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter()
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")
        self._stack.pop()
        child = self._child_s.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        self.self_s[span[0]] += duration - child
        self.calls[span[0]] += 1
        if self._child_s:
            self._child_s[-1] += duration

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def layer_self_s(self) -> dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            layer = name.split(".", 1)[0]
            if layer not in totals:
                raise KeyError(f"span {name!r} is outside every layer")
            totals[layer] += seconds
        return totals

    def write(self, path: Path) -> None:
        """One JSON line per span, in opening order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for name, start, end, parent in self.spans:
                out.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "run": self.run_id,
                        }
                    )
                    + "\n"
                )


def _wrapped(log: SpanLog, fn, name: str, count=None, before=None):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        state = before(args) if before is not None else None
        index = log.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            log.close(index)
        if count is not None:
            count(log.counts, args, result, state)
        return result

    return wrapper


@contextmanager
def installed(log: SpanLog, targets):
    """Wrap every ``(owner, attr, span, count, before)`` target for the
    enclosed block; ``owner`` is a class, a module or a dict."""
    undo = []
    try:
        for owner, attr, name, count, before in targets:
            if isinstance(owner, dict):
                original = owner[attr]
                owner[attr] = _wrapped(log, original, name, count, before)
                undo.append((owner.__setitem__, attr, original))
            else:
                original = owner.__dict__[attr]
                setattr(owner, attr, _wrapped(log, original, name, count, before))
                undo.append((lambda a, v, o=owner: setattr(o, a, v), attr, original))
        yield log
    finally:
        for restore, attr, original in reversed(undo):
            restore(attr, original)


def _count(key: str):
    def count(counts, args, result, state):
        counts[key] += 1

    return count


def _count_spots(counts, args, result, state):
    counts["core.ring_builds"] += 1
    counts["core.ring_spots"] += len(args[1])


def _count_slb(counts, args, result, state):
    counts["core.slb_hits"] += result.hits
    counts["core.slb_misses"] += result.misses


def _count_apply(counts, args, result, state):
    counts["core.mapper_movements"] += result.movements
    counts["core.mapper_invalidations"] += result.invalidations


def _applied_before(args):
    return args[0].applied_reconfigs


def _count_applied(counts, args, result, state):
    counts["core.applied_reconfigs"] += args[0].applied_reconfigs - state


def _count_fault_movements(counts, args, result, state):
    counts["faults.evict_movements"] += result.movements


def layer_targets() -> list[tuple]:
    """Every public entry point the traced run times, by layer."""
    from repro.baselines.common import PartitionedNucaPolicy
    from repro.baselines.whirlpool import WhirlpoolPolicy
    from repro.core.assignment import SamplerAssigner
    from repro.core.configure import CacheConfigurator
    from repro.core.consistent import ConsistentRing
    from repro.core.runtime import NdpExtPolicy
    from repro.core.sampler import MissCurveSampler
    from repro.core.slb import StreamLookaheadBuffer
    from repro.core.stream_cache import StreamCacheMapper
    from repro.exec.cache import ReportCache
    from repro.exec.parallel import CellTask
    from repro.exec.tracecache import TraceCache
    from repro.experiments import runner
    from repro.faults.state import FaultState
    from repro.obs.histogram import LatencyHistogram
    from repro.serve.health import HealthMonitor
    from repro.serve.journal import ServeJournal
    from repro.serve.loop import ServeLoop
    from repro.serve.scenario import ServeHarness
    from repro.sim.engine import EngineSession, SimulationEngine
    from repro.workloads import registry

    targets = [
        (registry.FACTORIES, name, "workloads.generate", None, None)
        for name in sorted(registry.FACTORIES)
    ]
    targets += [
        (registry, "merge_processes", "workloads.merge", None, None),
        (TraceCache, "get_or_build", "exec.trace_cache", None, None),
        (ReportCache, "get", "exec.report_read", None, None),
        (ReportCache, "put", "exec.report_write", None, None),
        (runner.ExperimentContext, "run_many", "exec.run_many", None, None),
        (runner, "run_supervised", "exec.run_supervised", None, None),
        (CellTask, "run", "exec.task", None, None),
        (SimulationEngine, "__init__", "sim.engine_init", None, None),
        (SimulationEngine, "run", "sim.run", None, None),
        (EngineSession, "__init__", "sim.session_init", None, None),
        (EngineSession, "step", "sim.step", _count("sim.epochs"), None),
        (EngineSession, "finish", "sim.finish", None, None),
        (NdpExtPolicy, "setup", "core.setup", None, None),
        (
            NdpExtPolicy,
            "begin_epoch",
            "core.begin_epoch",
            _count_applied,
            _applied_before,
        ),
        (NdpExtPolicy, "process", "core.process", None, None),
        (NdpExtPolicy, "end_epoch", "core.end_epoch", None, None),
        (
            CacheConfigurator,
            "configure",
            "core.configure",
            _count("core.configure_calls"),
            None,
        ),
        (StreamCacheMapper, "apply", "core.mapper_apply", _count_apply, None),
        (StreamCacheMapper, "process", "core.mapper_process", None, None),
        (ConsistentRing, "__init__", "core.ring_build", _count_spots, None),
        (MissCurveSampler, "observe", "core.sampler", None, None),
        (SamplerAssigner, "assign", "core.assign", None, None),
        (StreamLookaheadBuffer, "process", "core.slb", _count_slb, None),
        (
            NdpExtPolicy,
            "on_faults",
            "faults.on_faults",
            _count_fault_movements,
            None,
        ),
        (StreamCacheMapper, "evict_units", "faults.evict_units", None, None),
        (StreamCacheMapper, "quarantine_row", "faults.quarantine_row", None, None),
        (FaultState, "advance", "faults.advance", None, None),
        (ServeHarness, "__init__", "serve.harness_init", None, None),
        (ServeLoop, "submit", "serve.submit", None, None),
        (ServeLoop, "step", "serve.step", None, None),
        (ServeLoop, "finish", "serve.finish", None, None),
        (ServeJournal, "journal_queued", "serve.journal_append", None, None),
        (ServeJournal, "journal_done", "serve.journal_append", None, None),
        (HealthMonitor, "observe", "serve.health", None, None),
        (LatencyHistogram, "observe", "obs.histogram", None, None),
    ]
    targets += [
        (PartitionedNucaPolicy, attr, f"baselines.{attr}", None, None)
        for attr in ("setup", "begin_epoch", "process", "end_epoch", "on_faults")
    ]
    targets.append((WhirlpoolPolicy, "setup", "baselines.setup", None, None))
    return targets


class ExecProbe:
    """Times ``run_many`` up to its first result callback.

    Installed around a parallel run, it wraps only calls the parent
    makes (``ExperimentContext.run_many`` and the ``on_result`` callback
    that ``run_many`` hands to ``run_supervised``), so forked workers
    run unwrapped.
    """

    def __init__(self) -> None:
        self.started: float | None = None
        self.first_result: float | None = None

    @contextmanager
    def installed(self):
        from repro.experiments import runner

        context_cls = runner.ExperimentContext
        run_many = context_cls.__dict__["run_many"]
        supervised = runner.run_supervised
        probe = self

        @wraps(run_many)
        def timed_run_many(*args, **kwargs):
            probe.started = time.perf_counter()
            return run_many(*args, **kwargs)

        @wraps(supervised)
        def probed_supervised(tasks, *args, on_result=None, **kwargs):
            def on_result_probe(index, report):
                if probe.first_result is None:
                    probe.first_result = time.perf_counter()
                if on_result is not None:
                    on_result(index, report)

            return supervised(tasks, *args, on_result=on_result_probe, **kwargs)

        context_cls.run_many = timed_run_many
        runner.run_supervised = probed_supervised
        try:
            yield self
        finally:
            context_cls.run_many = run_many
            runner.run_supervised = supervised

    @property
    def first_result_s(self) -> float:
        if self.started is None or self.first_result is None:
            return 0.0
        return self.first_result - self.started
