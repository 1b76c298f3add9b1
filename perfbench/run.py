#!/usr/bin/env python3
"""Benchmark of the NDPExt reproduction, run from the repository root:

    python3 perfbench/run.py --workload fig5_suite --seed 1 --seconds 30 --trace 0

The workloads are described in ``perfbench/workloads.py``; the metric
names, units and bounds are in ``BENCHMARK.json``.

``--trace 0`` sets up ``SETUP_REPEATS`` times, each into a fresh private
cache, then repeats the workload's timed iteration until ``--seconds``
would be exceeded (at least ``MIN_ITERATIONS`` times) and reports
medians.  Reports start cold in every iteration; traces stay warm.
Every timed phase is bracketed by a calibration kernel and reported at
a reference host speed (``perfbench/calibrate.py``); the raw wall
clocks are printed beside them.  ``setup_s`` is the import time plus
the median set-up.

``--trace 1`` runs the workload untraced, then once more with every
layer's public entry points wrapped in spans (``perfbench/spans.py``),
and reports raw self time per layer.

Every output is checked (``perfbench/checks.py``); the simulated digest
must repeat across iterations, across traced and untraced runs, and
across runs of the same code and seed in this checkout.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit status: 0 when every check passed, 1 when one failed,
2 when the benchmark cannot run (no program source, bad arguments).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
MIN_ITERATIONS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("fig5_suite", "paper_mesh", "serve_storm")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every input (self-test)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def load_spec() -> tuple[dict, dict]:
    """Metric name -> unit, for the end-to-end and per-layer lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def peak_rss_mb() -> float:
    """Peak resident set of this process and of every waited-for child
    (pool workers included), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def use_cache(path: Path) -> Path:
    """Point the program's trace and report caches at ``path``."""
    os.environ["REPRO_CACHE_DIR"] = str(path)
    return path


def import_program() -> float:
    """Import the program from this checkout's ``src``; returns seconds."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import repro
    import repro.experiments.runner  # noqa: F401
    import repro.serve  # noqa: F401

    source = Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise ImportError(f"repro was imported from {source}, not {ROOT / 'src'}")
    return time.perf_counter() - start


def check_digest(workload: str, seed: int, tiny: bool, digest: str) -> list[str]:
    """The same program, benchmark and seed must give the digest that
    earlier runs in this checkout recorded."""
    from repro.exec.cache import code_stamp

    bench = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        bench.update(path.read_bytes())
    size = "tiny" if tiny else "full"
    key = f"{code_stamp()[:16]}/{bench.hexdigest()[:16]}/{workload}/{seed}/{size}"
    ledger = OUT_DIR / "digests.json"
    try:
        known = json.loads(ledger.read_text())
    except (OSError, ValueError):
        known = {}
    if key in known:
        if known[key] != digest:
            return [f"sim_digest {digest[:16]} differs from {known[key][:16]} of an earlier run"]
        return []
    known[key] = digest
    tmp = ledger.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, ledger)
    return []


def digest_failures(outcomes, what: str) -> list[str]:
    digests = {o.digest for o in outcomes}
    if len(digests) > 1:
        return [f"sim_digest differs between {what}: {sorted(d[:16] for d in digests)}"]
    return []


def measure(bench, scratch: Path, seconds: float) -> dict:
    """``--trace 0``: repeated cold set-up, then the timed iterations."""
    from perfbench.calibrate import at_reference, kernel_seconds

    speed = kernel_seconds()
    setups = []
    for k in range(SETUP_REPEATS):
        cache = use_cache(scratch / f"cache-{k}")
        start = time.perf_counter()
        bench.setup(cache)
        elapsed = time.perf_counter() - start
        before, speed = speed, kernel_seconds()
        setups.append(at_reference(elapsed, before, speed))
    outcomes = []
    walls = []
    # The first forked calibration of a process runs slow; discard it.
    kernel_seconds(bench.jobs)
    begin = time.perf_counter()
    while True:
        context = bench.prepare(cache)
        before = kernel_seconds(bench.jobs)
        outcome = bench.run(context)
        walls.append(at_reference(outcome.wall_s, before, kernel_seconds(bench.jobs)))
        outcomes.append(outcome)
        elapsed = time.perf_counter() - begin
        typical = statistics.median(o.wall_s for o in outcomes)
        if outcome.failures or (
            len(outcomes) >= MIN_ITERATIONS and elapsed + typical > seconds
        ):
            break
    return {
        "speed": speed,
        "setups": setups,
        "walls": walls,
        "outcomes": outcomes,
        "failures": [f for o in outcomes for f in o.failures]
        + digest_failures(outcomes, "iterations"),
    }


def traced(bench, scratch: Path) -> dict:
    """``--trace 1``: untraced reference runs, then one traced run."""
    from perfbench.spans import ExecProbe, SpanLog, installed, layer_targets

    cache = use_cache(scratch / "cache-0")
    bench.setup(cache)
    failures: list[str] = []
    probe = ExecProbe()
    primary_context = bench.prepare(cache)
    with probe.installed():
        primary = bench.run(primary_context)
    runs = [primary]
    exec_metrics = {
        "exec.first_result_s": probe.first_result_s,
        "exec.fanout_efficiency": 0.0,
        "exec.warm_rerun_s": 0.0,
        "exec.retries": float(getattr(primary_context, "retries", 0)),
        "exec.cells_failed": float(getattr(primary_context, "quarantined_cells", 0)),
    }
    if hasattr(bench, "warm_rerun"):
        warm, simulated = bench.warm_rerun()
        runs.append(warm)
        exec_metrics["exec.warm_rerun_s"] = warm.wall_s
        if simulated:
            failures.append(f"warm rerun simulated {simulated} cells, expected 0")
    reference = primary
    if bench.jobs > 1:
        # The traced run is serial (forked workers' spans are lost), so
        # its untraced reference is serial too; against the pool run it
        # also gives the fan-out efficiency.
        reference = bench.run(bench.prepare(cache, jobs=1))
        runs.append(reference)
        exec_metrics["exec.fanout_efficiency"] = reference.wall_s / (
            bench.jobs * primary.wall_s
        )

    log = SpanLog(run_id=f"{bench.name}-seed{bench.seed}-{os.getpid()}")
    with installed(log, layer_targets()):
        root = log.open("bench.run")
        try:
            with log.span("bench.setup"):
                bench.setup(use_cache(scratch / "cache-traced"))
            outcome = bench.run(bench.prepare(scratch / "cache-traced", jobs=1))
        finally:
            log.close(root)
    runs.append(outcome)
    return {
        "log": log,
        "outcome": outcome,
        "reference": reference,
        "traced_wall": log.spans[root][2] - log.spans[root][1],
        "exec": exec_metrics,
        "outcomes": runs,
        "failures": failures
        + [f for o in runs for f in o.failures]
        + digest_failures(runs, "traced and untraced runs"),
    }


# Per-layer metrics that are the self time of one span name.
SPAN_METRICS = {
    **{f"core.{part}_s": f"core.{part}" for part in (
        "setup", "begin_epoch", "process", "end_epoch", "ring_build", "configure",
        "mapper_apply", "mapper_process", "sampler", "assign", "slb",
    )},
    "serve.submit_s": "serve.submit",
    "serve.step_self_s": "serve.step",
    "serve.journal_append_s": "serve.journal_append",
    "faults.on_faults_s": "faults.on_faults",
}
# Per-layer metrics taken from the traced run's simulated statistics.
SIM_METRICS = (
    "sim.speedup_vs_host",
    "sim.speedup_vs_nexus",
    "sim.paper_log_error",
    "sim.ndp_hit_rate",
    "sim.extended_share",
    "sim.reconfig_invalidations",
    "serve.admitted",
    "serve.rejected",
    "serve.shed",
    "serve.timed_out",
    "serve.health_reconfigs",
    "serve.batch_p50_sim_us",
    "serve.batch_p95_sim_us",
    "serve.failed_frac",
)


def layer_metrics(bench, result: dict) -> dict[str, float]:
    log = result["log"]
    layer = log.layer_self_s()
    counts = log.counts
    outcome = result["outcome"]
    wall = result["traced_wall"]
    configure_calls = counts["core.configure_calls"]
    slb_total = counts["core.slb_hits"] + counts["core.slb_misses"]
    metrics = {
        "workloads.build_s": layer["workloads"],
        "workloads.accesses": float(bench.trace_accesses),
        "exec.self_s": layer["exec"],
        **result["exec"],
        "sim.engine_self_s": layer["sim"],
        "sim.epochs": counts["sim.epochs"],
        "core.self_s": layer["core"],
        "core.ring_builds": counts["core.ring_builds"],
        "core.ring_spots": counts["core.ring_spots"],
        "core.configure_calls": configure_calls,
        "core.reconfig_applied_ratio": (
            counts["core.applied_reconfigs"] / configure_calls if configure_calls else 0.0
        ),
        "core.mapper_movements": counts["core.mapper_movements"],
        "core.mapper_invalidations": counts["core.mapper_invalidations"],
        "core.slb_hit_rate": counts["core.slb_hits"] / slb_total if slb_total else 0.0,
        "baselines.policy_s": layer["baselines"],
        "serve.self_s": layer["serve"],
        "faults.self_s": layer["faults"],
        "faults.evict_movements": counts["faults.evict_movements"],
        "obs.self_s": layer["obs"],
        "obs.trace_overhead_frac": outcome.wall_s / result["reference"].wall_s - 1.0,
        "obs.trace_coverage": 1.0 - layer["bench"] / wall,
        "obs.traced_wall_s": wall,
        "bench.self_s": layer["bench"],
        "bench.cpu_count": float(os.cpu_count() or 1),
    }
    metrics.update({name: log.self_s[span] for name, span in SPAN_METRICS.items()})
    metrics.update({name: outcome.sim.get(name, 0.0) for name in SIM_METRICS})
    return metrics


def render(rows, headers) -> str:
    rows = [headers, *rows]
    widths = [max(len(str(row[i])) for row in rows) for i in range(len(headers))]
    return "\n".join(
        "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    )


def report_measure(bench, result, import_s, units, sim_units) -> dict[str, float]:
    outcomes = result["outcomes"]
    walls = result["walls"]
    metrics = {
        "wall_s": statistics.median(walls),
        "accesses_per_s": statistics.median(o.accesses / w for o, w in zip(outcomes, walls)),
        "setup_s": import_s + statistics.median(result["setups"]),
        "peak_rss_mb": peak_rss_mb(),
        "completed_frac": sum(o.completed for o in outcomes)
        / sum(o.attempted for o in outcomes),
    }
    raw = ", ".join(f"{o.wall_s:.3f}" for o in outcomes)
    scaled = ", ".join(f"{w:.3f}" for w in walls)
    setups = ", ".join(f"{s:.3f}" for s in result["setups"])
    print(
        f"{bench.name} seed={bench.seed} cpu_count={os.cpu_count()} jobs={bench.jobs} "
        f"iterations={len(outcomes)}\n"
        f"  wall {raw} s raw; {scaled} s at reference speed\n"
        f"  set-up {setups} s + imports {import_s:.3f} s at reference speed; "
        f"calibration kernel {result['speed'] * 1e3:.2f} ms"
    )
    print(render([[k, f"{v:.6g}", units[k]] for k, v in metrics.items()],
                 ["metric", "value", "unit"]))
    sim = outcomes[0].sim
    if sim:
        print("simulated, identical on every run of this seed:")
        print(render([[k, f"{v:.6g}", sim_units[k]] for k, v in sorted(sim.items())],
                     ["statistic", "value", "unit"]))
    if outcomes[0].latency is not None:
        n = outcomes[0].latency.n
        print(f"batch latency samples {n}, {n - int(0.95 * n)} beyond p95")
    return metrics


def report_traced(bench, result, units) -> dict[str, float]:
    metrics = layer_metrics(bench, result)
    log = result["log"]
    wall = result["traced_wall"]
    print(f"{bench.name} seed={bench.seed} traced wall {wall:.3f} s, "
          f"untraced reference {result['reference'].wall_s:.3f} s")
    by_layer = sorted(log.layer_self_s().items(), key=lambda kv: -kv[1])
    print(render([[name, f"{s:.4f}", f"{s / wall:.1%}"] for name, s in by_layer],
                 ["layer", "self s", "share of traced wall"]))
    top = sorted(log.self_s.items(), key=lambda kv: -kv[1])[:12]
    print(render([[name, f"{s:.4f}", log.calls[name], f"{s / wall:.1%}"] for name, s in top],
                 ["span", "self s", "calls", "share"]))
    print(render([[k, f"{metrics[k]:.6g}", units[k]] for k in sorted(metrics)],
                 ["metric", "value", "unit"]))
    return metrics


def bench_main(args, scratch: Path) -> int:
    try:
        end_to_end, per_layer = load_spec()
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    os.environ["REPRO_DISK_CACHE"] = "1"
    os.environ.pop("REPRO_CHAOS_KILL_EVERY", None)
    use_cache(scratch / "cache-0")
    try:
        import_s = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    # Imported after the program, so that NumPy's import counts in import_s.
    from perfbench.calibrate import at_reference, kernel_seconds
    from perfbench.workloads import WORKLOADS, BenchError

    speed = kernel_seconds()
    import_s = at_reference(import_s, speed, speed)
    affinity = getattr(os, "sched_getaffinity", None)
    jobs = len(affinity(0)) if affinity else os.cpu_count() or 1
    try:
        bench = WORKLOADS[args.workload](args.seed, jobs=jobs, tiny=args.tiny)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        result = traced(bench, scratch)
        metrics = report_traced(bench, result, per_layer)
        units = per_layer
        result["log"].write(OUT_DIR / f"spans-{bench.name}-seed{bench.seed}.jsonl")
    else:
        result = measure(bench, scratch, args.seconds)
        metrics = report_measure(bench, result, import_s, end_to_end, per_layer)
        units = end_to_end
    outcomes = result["outcomes"]
    failures = result["failures"] + check_digest(
        bench.name, bench.seed, args.tiny, outcomes[0].digest
    )
    if set(metrics) != set(units):
        failures.append(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(metrics))},"
            f" extra {sorted(set(metrics) - set(units))}"
        )
    print(f"sim_digest {outcomes[0].digest}")
    for failure in failures:
        print(f"FAILED: {failure}")
    # Each violated check counts as one failed operation.
    attempted = sum(o.attempted for o in outcomes)
    result_line = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(attempted, len(failures)),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    print(json.dumps(result_line))
    return 1 if failures else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT))
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        return bench_main(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
