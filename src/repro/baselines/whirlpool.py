"""Whirlpool [56]: static data classification + dynamic partitioning.

Whirlpool distinguishes *data structures* (not threads) during
partitioning: each annotated structure — our streams, classified manually
exactly as the paper adapts it ("we annotate streams as in NDPExt and
manually classify these streams") — becomes a partition.  Sizing uses the
same lookahead machinery as Jigsaw, placement is centre-of-mass of each
structure's accessors, and there is no replication.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import PartitionedNucaPolicy
from repro.core.sampler import sample_curve
from repro.sim.params import CACHELINE_BYTES, SystemConfig
from repro.sim.topology import Topology
from repro.workloads.trace import Trace, Workload

UNCLASSIFIED_PID = 1 << 11  # accesses outside every annotated structure


class WhirlpoolPolicy(PartitionedNucaPolicy):
    """Data-structure-partitioned D-NUCA (one partition per stream)."""

    name = "whirlpool"

    def setup(self, config: SystemConfig, topology: Topology, workload: Workload) -> None:
        super().setup(config, topology, workload)
        self._read_only = {s.sid: s.read_only for s in workload.streams}

    def classify(self, epoch: Trace) -> np.ndarray:
        pids = epoch.sid.astype(np.int64)
        return np.where(pids >= 0, pids, UNCLASSIFIED_PID)

    def observe(self, epoch_idx: int, epoch: Trace, pids: np.ndarray) -> None:
        lines = epoch.addr // CACHELINE_BYTES
        req_unit = epoch.core.astype(np.int64) % self.config.n_units
        self._curves = {}
        self._weights = {}
        self._importance = {}
        written = set(np.unique(pids[epoch.write]).tolist())
        for pid in np.unique(pids):
            sel = pids == pid
            self._curves[int(pid)] = self.smooth_curve(
                int(pid),
                sample_curve(lines[sel], CACHELINE_BYTES, self.sampler_params),
            )
            units, counts = np.unique(req_unit[sel], return_counts=True)
            self._weights[int(pid)] = {int(u): int(c) for u, c in zip(units, counts)}
            self._importance[int(pid)] = int(sel.sum())
            if pid in written:
                self._read_only[int(pid)] = False

    def replication_degrees(self) -> dict[int, int]:
        """No replication in Whirlpool; Nexus overrides this."""
        return {}

    def reconfigure(self, epoch_idx: int) -> None:
        if not self._curves:
            if not self._partitions:
                self._partitions = {
                    UNCLASSIFIED_PID: self._interleaved_partition(UNCLASSIFIED_PID)
                }
            return
        sizes_bytes = self.lookahead_sizes(self._curves, self.config.total_cache_bytes)
        if not self.should_install(self._curves, sizes_bytes):
            return
        row_bytes = self.config.ndp_dram.row_bytes
        sizes_rows = {
            pid: max(1, size // row_bytes) for pid, size in sizes_bytes.items()
        }
        degrees = self.replication_degrees()
        # Replication trades capacity: a degree-R partition splits its
        # budget into R copies.
        for pid, degree in degrees.items():
            if pid in sizes_rows and degree > 1:
                sizes_rows[pid] = max(1, sizes_rows[pid] // degree)
        self._partitions = self.center_of_mass_placement(
            sizes_rows, self._weights, self._importance, replication=degrees
        )
        for pid, spec in self._partitions.items():
            spec.read_only = self._read_only.get(pid, False)
        self.record_install(sizes_bytes)
