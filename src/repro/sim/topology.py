"""System topology: stacks, units, and interconnect distances.

The NDP system (Fig. 1) is a grid of 3D memory stacks connected by
inter-stack links; within each stack, 16 NDP units sit on a 4x4 logic-die
mesh (HMC-style) or behind a shared crossbar (HBM-style, where the whole
stack behaves as one NUCA node).

This module precomputes, for every (source unit, destination unit) pair:

* the number of intra-stack and inter-stack hops,
* the one-way interconnect latency in ns, and
* the interconnect energy per transferred byte,

so the engine can charge network cost with pure array indexing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.params import SystemConfig


@dataclass(frozen=True)
class UnitPosition:
    """Where a unit lives: which stack, and where inside the stack."""

    unit: int
    stack: int
    stack_x: int
    stack_y: int
    mesh_x: int
    mesh_y: int


class Topology:
    """Precomputed distance/latency/energy matrices for a system config."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.n_units = config.n_units
        self.positions = [self._position_of(u) for u in range(self.n_units)]
        # Vectorized unit -> stack map for per-request spatial attribution
        # (the observability layer bins link traffic by stack pair).
        self.unit_stack = np.array(
            [p.stack for p in self.positions], dtype=np.int64
        )
        self.n_stacks = config.stacks_x * config.stacks_y
        self.intra_hops, self.inter_hops = self._hop_matrices()
        noc = config.noc
        self.latency_ns = (
            self.intra_hops * noc.intra_hop_ns + self.inter_hops * noc.inter_hop_ns
        )
        self.energy_pj_per_bit = (
            self.intra_hops * noc.intra_pj_per_bit
            + self.inter_hops * noc.inter_pj_per_bit
        )
        # The configuration algorithm asks for nearest-unit orders and
        # attenuation factors once per candidate placement — tens of
        # thousands of times per run at small scale — so both are
        # precomputed: attenuation as one matrix expression, orders
        # lazily per source (callers iterate; they must not mutate).
        dram_ns = config.ndp_dram.row_miss_ns
        self.attenuation_matrix = dram_ns / (dram_ns + 2.0 * self.latency_ns)
        self._nearest: dict[int, list[int]] = {}

    def _position_of(self, unit: int) -> UnitPosition:
        per_stack = self.config.units_per_stack
        stack, local = divmod(unit, per_stack)
        sy, sx = divmod(stack, self.config.stacks_x)
        my, mx = divmod(local, self.config.mesh_x)
        return UnitPosition(unit, stack, sx, sy, mx, my)

    def _hop_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.n_units
        intra = np.zeros((n, n), dtype=np.int64)
        inter = np.zeros((n, n), dtype=np.int64)
        hbm_style = self.config.memory_style == "hbm"
        for src in range(n):
            ps = self.positions[src]
            for dst in range(n):
                pd = self.positions[dst]
                if src == dst:
                    continue
                stack_hops = abs(ps.stack_x - pd.stack_x) + abs(
                    ps.stack_y - pd.stack_y
                )
                inter[src, dst] = stack_hops
                if hbm_style:
                    # All units of a stack sit behind one crossbar: one hop
                    # to reach the crossbar (and one more if the request
                    # stays within the stack but targets another unit).
                    intra[src, dst] = 1 if stack_hops == 0 else 2
                else:
                    if stack_hops == 0:
                        intra[src, dst] = abs(ps.mesh_x - pd.mesh_x) + abs(
                            ps.mesh_y - pd.mesh_y
                        )
                    else:
                        # Cross-stack: traverse the source mesh to the edge
                        # router, hop between stacks, traverse the target
                        # mesh.  We charge the average mesh-crossing cost.
                        intra[src, dst] = (
                            ps.mesh_x + ps.mesh_y + pd.mesh_x + pd.mesh_y
                        ) // 2 + 1
        return intra, inter

    def units_in_stack(self, stack: int) -> list[int]:
        return [u for u in range(self.n_units) if self.positions[u].stack == stack]

    def distance_ns(self, src: int, dst: int) -> float:
        """One-way interconnect latency between two units."""
        return float(self.latency_ns[src, dst])

    def round_trip_ns(self, src: int, dst: int) -> float:
        return 2.0 * self.distance_ns(src, dst)

    def nearest_units(self, src: int) -> list[int]:
        """All units sorted by distance from ``src`` (closest first, self
        included at distance zero).  The returned list is a shared cached
        object — iterate it, do not mutate it."""
        cached = self._nearest.get(src)
        if cached is None:
            order = np.argsort(self.latency_ns[src], kind="stable")
            cached = [int(u) for u in order]
            self._nearest[src] = cached
        return cached

    def attenuation(self, src: int, dst: int) -> float:
        """The configuration algorithm's attenuation factor k(src, dst).

        Defined in Section V-C as DRAM latency / (DRAM latency +
        interconnect latency): remote units contribute less utility
        because each access pays the interconnect on top of DRAM.
        """
        return float(self.attenuation_matrix[src, dst])

    def mean_latency_from(self, src: int, dsts: list[int]) -> float:
        if not dsts:
            raise ValueError("need at least one destination")
        return float(np.mean([self.latency_ns[src, d] for d in dsts]))

    def centroid_unit(self, units: list[int], weights: list[float] | None = None) -> int:
        """The unit minimizing weighted average distance to ``units``.

        Used by the centre-of-mass placement of the NUCA baselines.
        """
        if not units:
            raise ValueError("need at least one unit")
        w = np.asarray(weights if weights is not None else [1.0] * len(units))
        if len(w) != len(units):
            raise ValueError("weights must match units")
        costs = self.latency_ns[:, units] @ w
        return int(np.argmin(costs))
