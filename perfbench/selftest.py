#!/usr/bin/env python3
"""Self-test of the benchmark, run from the repository root:

    python3 perfbench/selftest.py

Checks, at tiny input sizes, that

* every workload emits exactly the metric names and units of
  ``BENCHMARK.json`` (end-to-end untraced, per-layer traced), with a
  well-formed last line, ``correct`` true and exit status 0;
* the output checks fire on corrupted simulation and serve reports;
* ``peak_rss_mb`` includes forked children such as pool workers;
* without the program source the command exits non-zero and prints no
  result.

Exit status 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks, run  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_command(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def check_emitted(failures: list[str]) -> None:
    end_to_end, per_layer = run.load_spec()
    for workload in WORKLOADS:
        for trace, units in ((0, end_to_end), (1, per_layer)):
            label = f"{workload} --trace {trace}"
            proc = run_command(
                ["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny"]
            )
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                failures.append(f"{label}: last line is not JSON:\n{proc.stdout}{proc.stderr}")
                continue
            if proc.returncode != 0 or result.get("correct") is not True:
                failures.append(f"{label}: exit {proc.returncode}, result {result}\n{proc.stdout}")
            if set(result) != RESULT_KEYS:
                failures.append(f"{label}: result keys {sorted(result)}")
            emitted = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            if emitted != units:
                failures.append(f"{label}: metrics {emitted} != BENCHMARK.json {units}")
            if not result.get("attempted", 0) >= 1:
                failures.append(f"{label}: attempted {result.get('attempted')}")
            print(f"ok   {label}: {len(emitted)} metrics")


def check_corruption(failures: list[str], scratch: Path) -> None:
    """The output checks must fire on corrupted reports."""
    run.use_cache(scratch / "corrupt")
    grid = WORKLOADS["fig5_suite"](seed=3, jobs=1, tiny=True)
    grid.setup(scratch / "corrupt")
    context = grid.prepare(scratch / "corrupt")
    reports = context.run_many(grid.cells)
    if grid.outcome(1.0, reports).failures:
        failures.append("fig5_suite: checks fail on an uncorrupted grid")
    first = reports[0]
    corrupted = {
        "an extra miss": replace(
            first, hits=replace(first.hits, cache_misses=first.hits.cache_misses + 1)
        ),
        "zero runtime": replace(first, runtime_cycles=0.0),
        "a missing report": None,
    }
    for what, report in corrupted.items():
        found = grid.outcome(1.0, [report, *reports[1:]]).failures
        if not found:
            failures.append(f"fig5_suite: output check missed {what}")
        else:
            print(f"ok   check fires on {what}: {found[0]}")

    serve = WORKLOADS["serve_storm"](seed=3, jobs=1, tiny=True)
    serve.setup(scratch / "corrupt")
    outcome = serve.run(serve.prepare(scratch / "corrupt"))
    if outcome.failures:
        failures.append(f"serve_storm: checks fail on an uncorrupted run: {outcome.failures}")
    harness = serve.prepare(scratch / "corrupt")[0]
    report = harness.run()
    accesses, completed = 10**9, report.completed
    for tenant in report.tenants.values():
        tenant.submitted += 1
        break
    found = checks.serve_violations("serve", report, accesses, completed)
    if len(found) < 2:
        failures.append(f"serve_storm: output check missed a lost batch or lost accesses: {found}")
    else:
        print(f"ok   check fires on a lost serve batch: {found[0]}")


def _allocate(megabytes: int) -> None:
    block = bytearray(megabytes << 20)
    block[:: 4096] = b"\1" * len(block[:: 4096])


def check_rss(failures: list[str]) -> None:
    """Memory a forked child touches shows in ``peak_rss_mb``."""
    own_before = run.peak_rss_mb()
    child = multiprocessing.get_context("fork").Process(
        target=_allocate, args=(int(own_before) + 128,)
    )
    child.start()
    child.join(timeout=60)
    peak = run.peak_rss_mb()
    if child.exitcode != 0 or peak < own_before + 100:
        failures.append(
            f"peak_rss_mb {peak:.0f} misses a child's {own_before + 128:.0f} MB"
        )
    else:
        print(f"ok   peak_rss_mb {peak:.0f} includes a forked child")


def check_no_source(failures: list[str], scratch: Path) -> None:
    """Only BENCHMARK.json and the benchmark's files: refuse to run."""
    bare = scratch / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_command(
        ["--workload", "fig5_suite", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare,
    )
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        failures.append(f"without src: exit {proc.returncode}, stdout {proc.stdout!r}")
    else:
        print(f"ok   without src: exit {proc.returncode}, {proc.stderr.strip()}")


def main() -> int:
    failures: list[str] = []
    run.OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR))
    try:
        check_rss(failures)
        check_no_source(failures, scratch)
        check_corruption(failures, scratch)
        check_emitted(failures)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
