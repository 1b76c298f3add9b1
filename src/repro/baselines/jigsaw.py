"""Jigsaw [6]: utility-partitioned, thread-classified shared cache.

Jigsaw partitions the shared cache per *thread*: each line belongs to the
thread that dominates its accesses (lines with no dominant accessor go to
a shared partition).  Partition sizes come from lookahead over sampled
miss curves; placement moves each partition's banks toward the
centre-of-mass of its accessors.  Reconfiguration uses bulk invalidation.

This is the sizing-then-placement, no-replication design whose two
weaknesses (centre-units contention, no per-data replication) motivate
NDPExt's joint algorithm.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import PartitionedNucaPolicy
from repro.core.sampler import sample_curve
from repro.sim.params import CACHELINE_BYTES, SystemConfig
from repro.sim.topology import Topology
from repro.workloads.trace import Trace, Workload

SHARED_PID = 1 << 11  # partition for lines with no dominant accessor
DOMINANCE = 0.5  # a core owns a line if it issues > 50% of its accesses


class JigsawPolicy(PartitionedNucaPolicy):
    """Thread-partitioned D-NUCA with lookahead sizing and
    centre-of-mass placement."""

    name = "jigsaw"

    def setup(self, config: SystemConfig, topology: Topology, workload: Workload) -> None:
        super().setup(config, topology, workload)
        self._line_owner: tuple[np.ndarray, np.ndarray] | None = None
        self._pending_owner: tuple[np.ndarray, np.ndarray] | None = None

    # -- classification ---------------------------------------------------

    def classify(self, epoch: Trace) -> np.ndarray:
        lines = epoch.addr // CACHELINE_BYTES
        pids = np.full(len(epoch), SHARED_PID, dtype=np.int64)
        if self._line_owner is not None:
            known_lines, owners = self._line_owner
            pos = np.searchsorted(known_lines, lines)
            pos = np.clip(pos, 0, len(known_lines) - 1)
            found = known_lines[pos] == lines
            pids[found] = owners[pos[found]]
        return pids

    # -- profiling ----------------------------------------------------------

    def observe(self, epoch_idx: int, epoch: Trace, pids: np.ndarray) -> None:
        lines = epoch.addr // CACHELINE_BYTES
        cores = epoch.core.astype(np.int64)
        n_cores = int(cores.max()) + 1 if len(cores) else 1
        key = lines * n_cores + cores
        uniq, counts = np.unique(key, return_counts=True)
        u_lines = uniq // n_cores
        u_cores = uniq % n_cores

        # Dominant accessor per line: the (line, core) pair with the
        # largest count, owning the line only above the dominance cut.
        order = np.lexsort((counts, u_lines))
        s_lines = u_lines[order]
        last_of_line = np.ones(len(order), dtype=bool)
        last_of_line[:-1] = s_lines[1:] != s_lines[:-1]
        best_idx = order[last_of_line]
        # Total accesses per line via add-reduce on the unique pairs.
        line_ids, inverse = np.unique(u_lines, return_inverse=True)
        per_line_total = np.zeros(len(line_ids), dtype=np.int64)
        np.add.at(per_line_total, inverse, counts)
        best_lines = u_lines[best_idx]
        best_cores = u_cores[best_idx]
        best_counts = counts[best_idx]
        best_pos = np.searchsorted(line_ids, best_lines)
        dominant = best_counts > DOMINANCE * per_line_total[best_pos]
        owner = np.where(
            dominant,
            best_cores % self.config.n_units,
            SHARED_PID,
        )
        # Adopted at the next reconfiguration, together with the sizing —
        # reclassifying lines without resizing would move data for nothing.
        self._pending_owner = (best_lines, owner)

        # Miss curves per partition, classified by the fresh ownership.
        fresh_pids = np.full(len(epoch), SHARED_PID, dtype=np.int64)
        pos = np.clip(np.searchsorted(best_lines, lines), 0, len(best_lines) - 1)
        found = best_lines[pos] == lines
        fresh_pids[found] = owner[pos[found]]

        self._curves = {}
        self._weights = {}
        self._importance = {}
        req_unit = cores % self.config.n_units
        for pid in np.unique(fresh_pids):
            sel = fresh_pids == pid
            self._curves[int(pid)] = self.smooth_curve(
                int(pid),
                sample_curve(lines[sel], CACHELINE_BYTES, self.sampler_params),
            )
            units, ucounts = np.unique(req_unit[sel], return_counts=True)
            self._weights[int(pid)] = {
                int(u): int(c) for u, c in zip(units, ucounts)
            }
            self._importance[int(pid)] = int(sel.sum())

    # -- reconfiguration ----------------------------------------------------

    def reconfigure(self, epoch_idx: int) -> None:
        if not self._curves:
            if not self._partitions:
                self._partitions = {SHARED_PID: self._interleaved_partition(SHARED_PID)}
            return
        sizes_bytes = self.lookahead_sizes(
            self._curves, self.config.total_cache_bytes
        )
        if not self.should_install(self._curves, sizes_bytes):
            return
        row_bytes = self.config.ndp_dram.row_bytes
        sizes_rows = {
            pid: max(1, size // row_bytes) for pid, size in sizes_bytes.items()
        }
        if self._pending_owner is not None:
            self._line_owner = self._pending_owner
        self._partitions = self.center_of_mass_placement(
            sizes_rows, self._weights, self._importance
        )
        self.record_install(sizes_bytes)
