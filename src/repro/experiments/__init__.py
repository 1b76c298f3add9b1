"""Experiment drivers: one module per paper figure/table.

Each module exposes ``run(...)`` returning structured results and
printing the paper-comparable rows.  Every driver that simulates takes
the :class:`ExperimentContext` it runs in as its first argument,
declares its cells once and reads their reports by position from one
``context.run_many`` batch (two for the unit-failure sweep, whose
faulted cells depend on the clean runs).  The mapping to the paper:

========  ==========================================================
fig2      Fig. 2(a) latency breakdown, NDP vs NUCA under static
fig4b     Fig. 4(b) sampler-assignment (max-flow) runtime
fig5      Fig. 5 overall speedups (HBM / HMC via context preset)
fig6      Fig. 6 energy breakdown vs Nexus
fig7      Fig. 7 interconnect latency + miss rate (+ Sec VII-A metadata)
fig8      Fig. 8(a) scale sweep, Fig. 8(b) CXL latency sweep
fig9      Fig. 9(a)-(f) design-choice sweeps
sec5d     Sec. V-D consistent hashing vs bulk invalidation
faults    fault injection & graceful degradation (not a paper figure)
========  ==========================================================
"""

from repro.experiments import faults, fig2, fig4b, fig5, fig6, fig7, fig8, fig9, sec5d
from repro.experiments.runner import (
    POLICIES,
    PRESETS,
    ExperimentContext,
    add_geomean_row,
    speedup_table,
)

__all__ = [
    "faults",
    "fig2",
    "fig4b",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "sec5d",
    "POLICIES",
    "PRESETS",
    "ExperimentContext",
    "add_geomean_row",
    "speedup_table",
]
