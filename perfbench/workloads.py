"""The benchmark's three workloads.

Each one is a closed batch job: one iteration runs a fixed set of
simulations to completion and reports the host seconds it took, the
trace accesses it simulated, and its outputs for checking.  Inputs come
from the seed alone.

* ``fig5_suite`` -- the Fig. 5 HBM grid (six SUITE workloads under the
  five NDP policies plus the host) through ``ExperimentContext`` with
  the worker pool.  Many short 16-unit cells: loads ``exec``, the ``sim``
  engine, ``baselines`` and the per-epoch ``core`` paths.
* ``paper_mesh`` -- ``mv`` under ``ndpext`` and ``nexus`` on the 128-unit
  paper topology, serially, with one core per unit.  ``core`` dominates
  (consistent-hash ring construction); the pool is not used.
* ``serve_storm`` -- seeded two-tenant serving replays under a fault
  storm at about 1.33x the service rate: ``serve`` admission and the
  fsync'd journal on every batch, ``faults`` remaps, the engine one
  batch at a time.  The seed sets the tenant mix and the fault schedule;
  ``ServeHarness`` builds its own trace at the preset's scale.

``tiny=True`` shrinks every input so the self-test finishes quickly.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from perfbench import checks

if TYPE_CHECKING:
    from repro.obs.histogram import LatencyHistogram

FIG5_POLICIES = ("jigsaw", "whirlpool", "nexus", "ndpext-static", "ndpext")
# The sweeps' REPRESENTATIVE subset with cc in place of bfs: two tensor,
# two Rodinia and two graph workloads whose trace length does not depend
# on the seed (a bfs from an isolated source emits 4 accesses, so its
# grid would change size from seed to seed).  The whole 13-workload
# SUITE takes twice as long, too long for several iterations per run.
FIG5_WORKLOADS = ("recsys", "mv", "hotspot", "pathfinder", "pr", "cc")

# Fault storm of the ``serve --storm`` verb: one unit fail-stop, one DRAM
# row fault, one CXL CRC burst and one lane down-training per scenario.
STORM = {"unit_failures": 1, "row_faults": 1, "crc_bursts": 1, "downtrains": 1}


class BenchError(RuntimeError):
    """The benchmark cannot run as configured."""


@dataclass
class Outcome:
    """What one iteration did."""

    wall_s: float
    accesses: int
    attempted: int
    completed: int
    failures: list[str]
    digest: str
    sim: dict[str, float] = field(default_factory=dict)
    # Serve only: pooled admission-to-completion latency histogram.
    latency: LatencyHistogram | None = None


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _drop_reports(cache_dir: Path) -> None:
    """Empty the report cache; the trace cache beside it stays warm."""
    shutil.rmtree(cache_dir / "reports", ignore_errors=True)


class _Grid:
    """A list of simulation cells run through ``ExperimentContext``."""

    preset = "small"
    jobs = 1

    def prepare(self, cache_dir: Path, jobs: int | None = None):
        """A fresh context over a cold report cache."""
        from repro.experiments.runner import ExperimentContext

        _drop_reports(cache_dir)
        return ExperimentContext(
            preset=self.preset, jobs=self.jobs if jobs is None else jobs
        )

    def run(self, context) -> Outcome:
        wall, reports = _timed(lambda: context.run_many(self.cells, strict=False))
        return self.outcome(wall, reports)

    def warm_rerun(self) -> tuple[Outcome, int]:
        """The same cells against the now-warm report cache; returns the
        outcome and how many cells had to be simulated (should be 0)."""
        from repro.experiments.runner import ExperimentContext

        context = ExperimentContext(preset=self.preset, jobs=self.jobs)
        outcome = self.run(context)
        return outcome, context.cache_misses

    def outcome(self, wall: float, reports) -> Outcome:
        raise NotImplementedError


class Fig5Suite(_Grid):
    name = "fig5_suite"

    def __init__(self, seed: int, jobs: int, tiny: bool = False) -> None:
        from repro.workloads import SMALL, TINY

        self.seed = seed
        self.jobs = jobs
        self.preset = "tiny" if tiny else "small"
        self.scale = (TINY if tiny else SMALL).scaled(seed=seed)
        self.workloads = ("pr", "mv") if tiny else FIG5_WORKLOADS
        self.cells: list = []
        self.n_accesses: dict[str, int] = {}

    def setup(self, cache_dir: Path) -> None:
        """Generate every trace into the (cold) cache and list the cells."""
        from repro.experiments.runner import Cell, ExperimentContext
        from repro.workloads import build

        self.n_accesses = {
            name: len(build(name, self.scale).trace) for name in self.workloads
        }
        context = ExperimentContext(preset=self.preset)
        self.cells = []
        for name in self.workloads:
            self.cells.append(context.host_cell(name, self.scale))
            self.cells += [Cell(name, p, scale=self.scale) for p in FIG5_POLICIES]

    @property
    def trace_accesses(self) -> int:
        return sum(self.n_accesses.values())

    def outcome(self, wall: float, reports) -> Outcome:
        from repro.util import geomean

        failures = []
        payloads = []
        for cell, report in zip(self.cells, reports):
            label = f"{cell.workload}/{cell.policy}"
            failures += checks.cell_violations(
                label, report, self.n_accesses[cell.workload]
            )
            payloads.append([label, report.to_json() if report else None])
        completed = sum(report is not None for report in reports)
        sim: dict[str, float] = {}
        if not failures:
            by_cell = {
                (c.workload, c.policy): r for c, r in zip(self.cells, reports)
            }
            geo = {
                policy: geomean(
                    [
                        by_cell[(w, "host")].runtime_cycles
                        / by_cell[(w, policy)].runtime_cycles
                        for w in self.workloads
                    ]
                )
                for policy in FIG5_POLICIES
            }
            sim = {
                "sim.speedup_vs_host": geo["ndpext"],
                "sim.speedup_vs_nexus": geo["ndpext"] / geo["nexus"],
                "sim.paper_log_error": checks.paper_log_error(
                    geo["ndpext"] / geo["nexus"],
                    geo["ndpext"] / geo["ndpext-static"],
                    geo["ndpext"],
                ),
                **checks.ndp_statistics(
                    [by_cell[(w, "ndpext")] for w in self.workloads]
                ),
            }
        return Outcome(
            wall_s=wall,
            accesses=sum(self.n_accesses[c.workload] for c in self.cells),
            attempted=len(self.cells),
            completed=completed,
            failures=failures,
            digest=checks.sim_digest(payloads),
            sim=sim,
        )


class PaperMesh(_Grid):
    name = "paper_mesh"
    preset = "paper"

    def __init__(self, seed: int, jobs: int, tiny: bool = False) -> None:
        from repro.experiments.runner import PRESETS
        from repro.sim.params import MB
        from repro.workloads import PAPER

        self.seed = seed
        # An explicit 128-core scale: the paper preset alone would run the
        # 16-core SMALL trace, leaving 112 of the 128 units idle.
        self.scale = PAPER.scaled(
            accesses_per_core=256 if tiny else 4_096,
            footprint_bytes=(32 if tiny else 512) * MB,
            seed=seed,
        )
        self.config = PRESETS["paper"]().scaled(
            epoch_accesses=8_192 if tiny else 131_072,
            unit_cache_bytes=(1 if tiny else 4) * MB,
        )
        if self.scale.n_cores != self.config.n_units:
            raise BenchError(
                f"paper_mesh needs one core per unit: {self.scale.n_cores} "
                f"cores on {self.config.n_units} units"
            )
        self.cells: list = []
        self.n_accesses = 0

    def setup(self, cache_dir: Path) -> None:
        from repro.experiments.runner import Cell
        from repro.workloads import build

        self.n_accesses = len(build("mv", self.scale).trace)
        self.cells = [
            Cell("mv", policy, config=self.config, scale=self.scale)
            for policy in ("ndpext", "nexus")
        ]

    @property
    def trace_accesses(self) -> int:
        return self.n_accesses

    def outcome(self, wall: float, reports) -> Outcome:
        failures = []
        payloads = []
        for cell, report in zip(self.cells, reports):
            label = f"mv/{cell.policy}@{self.config.n_units}u"
            failures += checks.cell_violations(label, report, self.n_accesses)
            payloads.append([label, report.to_json() if report else None])
        sim: dict[str, float] = {}
        if not failures:
            ndpext, nexus = reports
            ratio = nexus.runtime_cycles / ndpext.runtime_cycles
            sim = {
                "sim.speedup_vs_nexus": ratio,
                "sim.paper_log_error": checks.paper_log_error(ratio),
                **checks.ndp_statistics([ndpext]),
            }
        return Outcome(
            wall_s=wall,
            accesses=self.n_accesses * len(self.cells),
            attempted=len(self.cells),
            completed=sum(report is not None for report in reports),
            failures=failures,
            digest=checks.sim_digest(payloads),
            sim=sim,
        )


class ServeStorm:
    name = "serve_storm"
    jobs = 1

    def __init__(self, seed: int, jobs: int, tiny: bool = False) -> None:
        from repro.serve import two_tenant_scenario

        self.seed = seed
        self.preset = "tiny" if tiny else "small"
        # Four batches arrive per three service steps (about 1.33x the
        # service rate), so admission refuses some of them.  Four
        # scenarios give over 200 completed batches, so more than ten
        # lie beyond the pooled p95.
        self.scenarios = [
            two_tenant_scenario(
                name=f"storm-{k}",
                seed=seed * 1_000 + k,
                batch_accesses=1_000 if tiny else 4_000,
                wave_size=4,
                steps_per_wave=3,
                phase_shift_at=0.5,
                faults=STORM,
            )
            for k in range(1 if tiny else 4)
        ]
        self.n_accesses = 0

    def _harnesses(self, journal_dir: Path) -> list:
        from repro.serve import ServeHarness

        shutil.rmtree(journal_dir, ignore_errors=True)
        journal_dir.mkdir(parents=True)
        return [
            ServeHarness(
                scenario,
                preset=self.preset,
                journal_path=journal_dir / f"{scenario.name}.jsonl",
            )
            for scenario in self.scenarios
        ]

    def setup(self, cache_dir: Path) -> None:
        harnesses = self._harnesses(cache_dir / "journals")
        self.n_accesses = len(harnesses[0].workload.trace)

    @property
    def trace_accesses(self) -> int:
        return self.n_accesses

    def prepare(self, cache_dir: Path, jobs: int | None = None):
        return self._harnesses(cache_dir / "journals")

    def run(self, harnesses) -> Outcome:
        from repro.obs.histogram import LatencyHistogram

        wall, reports = _timed(lambda: [h.run() for h in harnesses])
        failures = []
        payloads = []
        served = 0
        latency = LatencyHistogram()
        for harness, report in zip(harnesses, reports):
            label = f"serve/{report.scenario}"
            accesses, completed = _journaled_completions(harness.loop.journal.path)
            served += accesses
            failures += checks.serve_violations(label, report, accesses, completed)
            payloads.append([label, report.to_json()])
            latency = latency + report.latency
        submitted = sum(r.submitted for r in reports)
        completed = sum(r.completed for r in reports)
        sim = {
            **checks.ndp_statistics([r.sim for r in reports]),
            "serve.admitted": float(sum(r.admitted for r in reports)),
            "serve.rejected": float(sum(r.rejected for r in reports)),
            "serve.shed": float(sum(r.shed for r in reports)),
            "serve.timed_out": float(sum(r.timed_out for r in reports)),
            "serve.health_reconfigs": float(
                sum(r.health_reconfig_requests for r in reports)
            ),
            "serve.batch_p50_sim_us": latency.percentile(50) / 1e3,
            "serve.batch_p95_sim_us": latency.percentile(95) / 1e3,
            "serve.failed_frac": 1.0 - completed / submitted if submitted else 0.0,
        }
        return Outcome(
            wall_s=wall,
            accesses=served,
            attempted=submitted,
            completed=completed,
            failures=failures,
            digest=checks.sim_digest(payloads),
            sim=sim,
            latency=latency,
        )


def _journaled_completions(path: Path) -> tuple[int, int]:
    """(accesses, batches) the journal records as completed."""
    spans = {}
    accesses = batches = 0
    with open(path) as journal:
        for line in journal:
            record = json.loads(line)
            if record.get("status") == "queued":
                spans[record["key"]] = record["stop"] - record["start"]
            elif record.get("outcome") == "completed":
                accesses += spans[record["key"]]
                batches += 1
    return accesses, batches


WORKLOADS = {cls.name: cls for cls in (Fig5Suite, PaperMesh, ServeStorm)}
