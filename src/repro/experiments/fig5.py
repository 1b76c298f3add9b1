"""Fig. 5: overall performance, NDPExt vs baselines, HBM and HMC styles.

The paper's headline result: all NDP designs beat the non-NDP host
(4.3-7.3x at paper scale), NDPExt is consistently the best NDP design,
outperforming the second-best (Nexus) by 1.41x (HBM) / 1.48x (HMC) on
average and up to 2.43x, and beating its own static-allocation variant
by 1.2x on average.

Shapes to check (absolute factors differ at reduced scale):
* every NDP policy beats the host on the suite geomean;
* NDPExt has the best geomean of all policies and wins on nearly every
  workload;
* ndpext > ndpext-static, with the largest gaps on irregular workloads;
* the HBM and HMC systems show similar orderings.
"""

from __future__ import annotations

from repro.experiments.runner import (
    ExperimentContext,
    add_geomean_row,
    speedup_table,
)
from repro.util import render_table
from repro.workloads import SUITE

POLICIES = ["jigsaw", "whirlpool", "nexus", "ndpext-static", "ndpext"]


def run(
    context: ExperimentContext,
    workloads: tuple[str, ...] = SUITE,
    verbose: bool = True,
) -> dict:
    table = speedup_table(context, list(workloads), POLICIES, baseline="host")
    table = add_geomean_row(table)
    if verbose:
        headers = ["workload"] + POLICIES
        rows = [
            [w] + [f"{table[w][p]:.2f}" for p in POLICIES] for w in table
        ]
        style = "HMC" if "hmc" in context.preset else "HBM"
        print(
            render_table(
                headers,
                rows,
                title=f"Fig 5 ({style}): speedup over non-NDP host",
            )
        )
        geo = table["geomean"]
        print(
            f"ndpext over nexus: {geo['ndpext'] / geo['nexus']:.2f}x "
            f"(paper {'1.48' if style == 'HMC' else '1.41'}x); "
            f"over ndpext-static: {geo['ndpext'] / geo['ndpext-static']:.2f}x (paper 1.2x)"
        )
    return table
