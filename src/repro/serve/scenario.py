"""Replayable tenant-mix scenarios and the :class:`ServeHarness` driver.

A :class:`ServeScenario` declares everything about a serving run that
must replay deterministically: the source workload, the tenant roster,
how traffic is skewed across tenants (Zipfian by tenant rank, with an
optional mid-run phase shift that inverts the hot/cold order — the
DAMOV-style time-varying mix), the submission cadence (waves of batches
with a bounded processing budget per wave, which is what creates
backlog, shedding, and timeouts), and an optional seeded fault storm
injected through the existing :func:`repro.faults.random_schedule`.

:class:`ServeHarness` materializes the scenario against a preset,
builds the engine + policy, replays the waves through a
:class:`~repro.serve.loop.ServeLoop`, and returns the
:class:`~repro.serve.report.ServeReport`.  Pacing knobs (wave size,
per-wave budget, early drain) are deliberately *excluded* from the
journal's scenario key: a drained run and its resume are the same
scenario served on different schedules.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from repro.experiments.runner import POLICIES, PRESETS, SCALES
from repro.faults import random_schedule
from repro.obs.recorder import NullRecorder
from repro.obs.slo import SloEngine, SloObjective, default_objectives
from repro.serve.admission import SloAdmissionController
from repro.serve.loop import ServeLoop, ServeOptions
from repro.serve.report import ServeReport
from repro.serve.tenants import Batch, TenantSpec
from repro.sim.engine import EngineOptions, SimulationEngine
from repro.workloads import SMALL, build

ADMISSION_MODES = ("quota", "slo")


@dataclass(frozen=True)
class ServeScenario:
    """One replayable serving run: tenants, skew, cadence, faults."""

    name: str
    tenants: tuple[TenantSpec, ...]
    workload: str = "pr"
    policy: str = "ndpext"
    seed: int = 0
    batch_accesses: int | None = None  # None -> the preset's epoch size
    zipf_s: float = 1.1
    phase_shift_at: float | None = None  # fraction of batches; None = off
    max_batches: int | None = None
    # Submission cadence (NOT part of the scenario identity):
    wave_size: int = 4
    steps_per_wave: int | None = None  # None -> drain fully each wave
    drain_after_batches: int | None = None  # stop submitting, drain early
    # Seeded fault storm: kwargs for repro.faults.random_schedule
    # (unit_failures / row_faults / crc_bursts / downtrains), or None.
    faults: dict | None = None
    options: ServeOptions = field(default_factory=ServeOptions)
    # SLO plane: per-tenant objectives (evaluated whenever non-empty)
    # and the admission mode — "quota" is the fixed-quota controller,
    # bit-identical to pre-SLO serving; "slo" flexes quotas and shed
    # order by error-budget state.
    admission: str = "quota"
    objectives: tuple[SloObjective, ...] = ()

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("scenario needs at least one tenant")
        if self.wave_size < 1:
            raise ValueError("wave_size must be >= 1")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.admission not in ADMISSION_MODES:
            raise ValueError(f"unknown admission mode {self.admission!r}")
        names = {t.name for t in self.tenants}
        for objective in self.objectives:
            if objective.tenant not in names:
                raise ValueError(
                    f"objective for unknown tenant {objective.tenant!r}"
                )

    def identity_key(self, preset: str) -> str:
        """Stable identity for journal resume: everything that changes
        *which batches exist and what they compute* — not how fast they
        were submitted or when the run was interrupted."""
        ident = {
            "name": self.name,
            "preset": preset,
            "workload": self.workload,
            "policy": self.policy,
            "seed": self.seed,
            "batch_accesses": self.batch_accesses,
            "zipf_s": self.zipf_s,
            "phase_shift_at": self.phase_shift_at,
            "max_batches": self.max_batches,
            "faults": self.faults,
            "tenants": [
                [t.name, t.priority, t.max_queued, t.deadline_ns]
                for t in self.tenants
            ],
        }
        # SLO state changes which batches reach which outcome, so it is
        # part of the identity — but only when active, so pre-SLO
        # journals keep resuming against unchanged keys.
        if self.admission != "quota" or self.objectives:
            ident["admission"] = self.admission
            ident["objectives"] = [
                [o.tenant, o.p99_ns, o.availability, o.max_shed_rate]
                for o in self.objectives
            ]
        return json.dumps(ident, sort_keys=True)

    # ------------------------------------------------------------------

    def tenant_assignment(self, n_batches: int) -> list[str]:
        """Zipfian batch -> tenant map, seeded, with optional phase shift.

        Tenant *rank* follows roster order: the first tenant is hottest
        (probability ~ 1/(rank+1)^s).  After ``phase_shift_at`` of the
        batches the ranking inverts — yesterday's cold tenant becomes
        the hot one — stressing online re-placement under traffic drift.
        """
        names = [t.name for t in self.tenants]
        weights = 1.0 / np.power(np.arange(1, len(names) + 1), self.zipf_s)
        probs = weights / weights.sum()
        rng = np.random.default_rng(self.seed)
        draws = rng.random(n_batches)
        shift_at = (
            int(n_batches * self.phase_shift_at)
            if self.phase_shift_at is not None
            else n_batches
        )
        cum = np.cumsum(probs)
        picks = np.searchsorted(cum, draws, side="right").clip(0, len(names) - 1)
        assignment = []
        for i, pick in enumerate(picks):
            order = names if i < shift_at else names[::-1]
            assignment.append(order[int(pick)])
        return assignment


class ServeHarness:
    """Builds and replays one scenario; the `serve` verb and tests both
    drive this."""

    def __init__(
        self,
        scenario: ServeScenario,
        preset: str = "tiny",
        recorder: NullRecorder | None = None,
        journal_path=None,
        backend: str = "numpy",
    ) -> None:
        self.scenario = scenario
        self.preset = preset
        self.config = PRESETS[preset]()
        self.workload = build(
            scenario.workload, SCALES.get(preset, SMALL)
        )
        self.batch_accesses = (
            scenario.batch_accesses or self.config.epoch_accesses
        )
        n_accesses = len(self.workload.trace)
        n_batches = (n_accesses + self.batch_accesses - 1) // self.batch_accesses
        if scenario.max_batches is not None:
            n_batches = min(n_batches, scenario.max_batches)
        self.n_batches = n_batches
        faults = None
        if scenario.faults is not None:
            faults = random_schedule(
                scenario.seed,
                self.config.n_units,
                max(2, n_batches),
                rows_per_unit=self.config.rows_per_unit,
                full_lanes=self.config.cxl.lanes,
                **scenario.faults,
            )
        self.engine = SimulationEngine(
            self.config,
            EngineOptions(backend=backend),
            faults=faults,
            recorder=recorder,
        )
        self.policy = POLICIES[scenario.policy]()
        # The SLO plane is built only when asked for: a quota scenario
        # with no objectives gets the pre-SLO loop, bit for bit.
        objectives = scenario.objectives
        if scenario.admission == "slo" and not objectives:
            objectives = default_objectives(scenario.tenants)
        self.slo = (
            SloEngine(objectives, recorder=self.engine.recorder)
            if objectives
            else None
        )
        admission = None
        if scenario.admission == "slo":
            admission = SloAdmissionController(
                scenario.options.default_max_queued,
                scenario.options.max_total_queued,
                self.slo,
            )
        self.loop = ServeLoop(
            self.engine,
            self.workload,
            self.policy,
            list(scenario.tenants),
            options=scenario.options,
            journal_path=journal_path,
            scenario_key=scenario.identity_key(preset),
            admission=admission,
            slo=self.slo,
        )

    # ------------------------------------------------------------------

    def batches(self) -> list[Batch]:
        """The scenario's full batch list, in submission order."""
        assignment = self.scenario.tenant_assignment(self.n_batches)
        out = []
        for i in range(self.n_batches):
            start = i * self.batch_accesses
            stop = min(start + self.batch_accesses, len(self.workload.trace))
            out.append(
                Batch(
                    tenant=assignment[i],
                    batch_id=i,
                    trace=self.workload.trace.slice(start, stop),
                    start=start,
                    stop=stop,
                )
            )
        return out

    def run(self, pace_s: float = 0.0, lock=None) -> ServeReport:
        """Replay the scenario: submit in waves, serve, drain, report.

        ``pace_s`` sleeps (wall clock) between waves and ``lock`` is
        acquired around every loop interaction — together they let a
        live HTTP endpoint observe a consistent mid-run state while the
        scripted replay progresses.  Neither affects the simulated
        clock, so the report is identical at any pace.
        """
        scenario = self.scenario
        loop = self.loop
        guard = lock if lock is not None else contextlib.nullcontext()
        submitted = 0
        drained_early = False
        for batch in self.batches():
            if (
                scenario.drain_after_batches is not None
                and submitted >= scenario.drain_after_batches
            ):
                drained_early = True
                break
            with guard:
                loop.submit(batch)
            submitted += 1
            if submitted % scenario.wave_size == 0:
                with guard:
                    loop.run_until_idle(max_steps=scenario.steps_per_wave)
                if pace_s > 0:
                    time.sleep(pace_s)
        if not drained_early:
            # End of traffic: serve out the backlog before shutdown.
            with guard:
                loop.run_until_idle()
        with guard:
            loop.drain()
            return loop.finish(scenario.name)


def two_tenant_scenario(
    name: str = "two-tenant",
    workload: str = "pr",
    **overrides,
) -> ServeScenario:
    """The README/CI example: a high-priority interactive tenant and a
    low-priority batch tenant sharing one NDP pool."""
    tenants = (
        TenantSpec("interactive", priority=10, max_queued=8),
        TenantSpec("analytics", priority=0, max_queued=4),
    )
    return ServeScenario(
        name=name, tenants=tenants, workload=workload, **overrides
    )
