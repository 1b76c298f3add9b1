"""Fault injection & graceful degradation sweeps.

Not a paper figure: a robustness study enabled by the fault layer in
:mod:`repro.faults`.  Two sweeps:

* **unit failure** — an NDP unit's memory vault fail-stops mid-run.
  NDPExt's consistent-hash remap recovery (evict the dead unit's ring
  spots, re-optimize around the survivors) is compared against the
  fail-stop fallback every baseline gets for free (lost lines bypass to
  extended memory) on both NDPExt itself and Nexus.  The remap variant
  must finish the post-failure epochs strictly faster.
* **link degradation** — transient CXL CRC-retry bursts and sustained
  lane down-training (x16 -> x8 -> x4).  Reports the retry/serialization
  penalties and the end-to-end slowdown.

Shapes to check: remap recovery beats fail-stop after the failure;
narrower links cost more only in proportion to extended-memory traffic.
"""

from __future__ import annotations

from dataclasses import replace

from repro.baselines import NexusPolicy
from repro.core import NdpExtPolicy
from repro.experiments.runner import Cell, ExperimentContext
from repro.faults import CxlCrcBurst, CxlLaneDowntrain, FaultSchedule, UnitFailure
from repro.util import render_table

WORKLOADS = ("pr",)
FAIL_EPOCH = 3

VARIANTS = {
    "ndpext-remap": lambda: NdpExtPolicy(name="ndpext-remap"),
    "ndpext-failstop": lambda: NdpExtPolicy(
        fault_recovery=False, name="ndpext-failstop"
    ),
    "nexus-failstop": NexusPolicy,
}


def _post_failure_cycles(report, fail_epoch: int) -> float:
    """Cycles spent from the failure epoch to the end of the run."""
    cumulative = report.per_epoch_cycles
    before = cumulative[fail_epoch - 1] if fail_epoch >= 1 else 0.0
    return report.runtime_cycles - before


def run_unit_failure(
    context: ExperimentContext,
    workloads: tuple[str, ...] = WORKLOADS,
    fail_epoch: int = FAIL_EPOCH,
    fail_unit: int = 0,
    verbose: bool = True,
) -> dict:
    # Two batches: the faulted runs depend on each clean run's epoch
    # count (to place the failure), so they follow all the clean ones.
    clean_cells = [
        Cell(w, v, policy_factory=f, cache_key=f"faults:{v}")
        for w in workloads
        for v, f in VARIANTS.items()
    ]
    clean_reports = context.run_many(clean_cells)
    # Short runs (test scales) have few epochs: strike no later than the
    # final one so the failure always lands.
    whens = [
        max(1, min(fail_epoch, len(clean.per_epoch_cycles) - 1))
        for clean in clean_reports
    ]
    faulted_reports = context.run_many(
        [
            replace(
                cell,
                faults=FaultSchedule(
                    (UnitFailure(epoch=when, unit=fail_unit),), seed=1
                ),
            )
            for cell, when in zip(clean_cells, whens)
        ]
    )
    result: dict[str, dict] = {w: {} for w in workloads}
    for cell, clean, faulted, when in zip(
        clean_cells, clean_reports, faulted_reports, whens
    ):
        result[cell.workload][cell.policy] = {
            "clean_cycles": clean.runtime_cycles,
            "faulted_cycles": faulted.runtime_cycles,
            "fail_epoch": when,
            "post_failure_cycles": _post_failure_cycles(faulted, when),
            "slowdown": faulted.runtime_cycles / clean.runtime_cycles,
            "demoted": faulted.faults.demoted_requests,
            "fault_invalidations": faulted.faults.fault_invalidations,
            "fault_movements": faulted.faults.fault_movements,
        }
    if verbose:
        rows = []
        for wname, row in result.items():
            for vname, r in row.items():
                rows.append(
                    [
                        wname,
                        vname,
                        f"{r['slowdown']:.3f}",
                        f"{r['post_failure_cycles']:.3e}",
                        r["demoted"],
                        r["fault_invalidations"],
                        r["fault_movements"],
                    ]
                )
        print(
            render_table(
                [
                    "workload",
                    "variant",
                    "slowdown",
                    "post-fail cycles",
                    "demoted",
                    "inval",
                    "preserved",
                ],
                rows,
                title=f"Degradation: unit {fail_unit} fail-stop",
            )
        )
    return result


def run_link_degradation(
    context: ExperimentContext,
    workloads: tuple[str, ...] = WORKLOADS,
    verbose: bool = True,
) -> dict:
    lanes = context.config.cxl.lanes
    scenarios = {
        "crc-burst": FaultSchedule(
            (CxlCrcBurst(epoch=2, duration=2, retry_prob=0.3),), seed=2
        ),
        f"downtrain-x{max(1, lanes // 2)}": FaultSchedule(
            (CxlLaneDowntrain(epoch=2, lanes=max(1, lanes // 2)),), seed=2
        ),
        f"downtrain-x{max(1, lanes // 4)}": FaultSchedule(
            (CxlLaneDowntrain(epoch=2, lanes=max(1, lanes // 4)),), seed=2
        ),
    }
    schedules = [None] + list(scenarios.values())
    reports = context.run_many(
        [Cell(w, "ndpext", faults=s) for w in workloads for s in schedules]
    )
    result: dict[str, dict] = {}
    for i, wname in enumerate(workloads):
        clean, *faulted = reports[i * len(schedules) : (i + 1) * len(schedules)]
        result[wname] = {
            sname: {
                "slowdown": report.runtime_cycles / clean.runtime_cycles,
                "crc_retries": report.faults.crc_retries,
                "crc_reissues": report.faults.crc_reissues,
                "penalty_ns": report.faults.penalty_ns,
                "min_lanes": report.faults.min_lanes,
            }
            for sname, report in zip(scenarios, faulted)
        }
    if verbose:
        rows = [
            [
                wname,
                sname,
                f"{r['slowdown']:.3f}",
                r["crc_retries"],
                r["crc_reissues"],
                f"{r['penalty_ns']:.1f}",
                r["min_lanes"],
            ]
            for wname, row in result.items()
            for sname, r in row.items()
        ]
        print(
            render_table(
                [
                    "workload",
                    "scenario",
                    "slowdown",
                    "retries",
                    "reissues",
                    "penalty ns",
                    "min lanes",
                ],
                rows,
                title="Degradation: CXL link faults (ndpext)",
            )
        )
    return result


def run(context: ExperimentContext, verbose: bool = True) -> dict:
    return {
        "unit_failure": run_unit_failure(context, verbose=verbose),
        "link_degradation": run_link_degradation(context, verbose=verbose),
    }
