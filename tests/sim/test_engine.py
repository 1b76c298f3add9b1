"""Tests for the simulation engine using stub policies."""

from itertools import zip_longest

import numpy as np
import pytest

from repro.core import NdpExtPolicy
from repro.core.stream import StreamTable, configure_stream
from repro.sim.engine import (
    AFFINE_MLP,
    DramCachePolicy,
    RequestOutcome,
    SimulationEngine,
)
from repro.sim.params import tiny
from repro.workloads import TINY, build
from repro.workloads.trace import Trace, Workload


def make_workload(n_accesses=2000, n_cores=4, kind="indirect", seed=3):
    """A workload gathering randomly over one stream."""
    table = StreamTable()
    stream = configure_stream(
        table, kind, base=4096, size=64 * 1024, elem_size=64, name="data"
    )
    rng = np.random.default_rng(seed)
    addrs = stream.base + rng.integers(0, stream.n_elements, n_accesses) * 64
    trace = Trace(
        core=np.arange(n_accesses, dtype=np.int32) % n_cores,
        addr=addrs,
        write=np.zeros(n_accesses, dtype=bool),
        sid=np.full(n_accesses, stream.sid, dtype=np.int32),
    )
    return Workload(name="stub", streams=table, trace=trace)


class AlwaysLocalHit(DramCachePolicy):
    """Every request hits in the requester's own unit."""

    name = "always-local"

    def setup(self, config, topology, workload):
        self.config = config

    def process(self, epoch):
        n = len(epoch)
        unit = epoch.core.astype(np.int64) % self.config.n_units
        return RequestOutcome(
            hit=np.ones(n, dtype=bool),
            serving_unit=unit,
            local_row=np.zeros(n, dtype=np.int64),
            miss_probe_dram=np.zeros(n, dtype=bool),
            metadata_ns=np.zeros(n),
        )


class AlwaysMiss(DramCachePolicy):
    """Every request goes to extended memory (bypass)."""

    name = "always-miss"

    def setup(self, config, topology, workload):
        pass

    def process(self, epoch):
        n = len(epoch)
        return RequestOutcome(
            hit=np.zeros(n, dtype=bool),
            serving_unit=np.full(n, -1, dtype=np.int64),
            local_row=np.full(n, -1, dtype=np.int64),
            miss_probe_dram=np.zeros(n, dtype=bool),
            metadata_ns=np.zeros(n),
        )


class AlwaysRemoteHit(AlwaysLocalHit):
    """Every request is served by the farthest unit."""

    name = "always-remote"

    def setup(self, config, topology, workload):
        self.config = config
        self.topology = topology

    def process(self, epoch):
        outcome = super().process(epoch)
        far = np.argmax(self.topology.latency_ns[0])
        outcome.serving_unit = np.full(len(epoch), far, dtype=np.int64)
        return outcome


class TestEngineAccounting:
    def test_hits_faster_than_misses(self):
        config = tiny()
        workload = make_workload()
        hit_report = SimulationEngine(config).run(workload, AlwaysLocalHit())
        miss_report = SimulationEngine(config).run(workload, AlwaysMiss())
        assert hit_report.runtime_cycles < miss_report.runtime_cycles

    def test_misses_charge_extended_and_cxl(self):
        config = tiny()
        report = SimulationEngine(config).run(make_workload(), AlwaysMiss())
        assert report.breakdown.extended_ns > 0
        assert report.energy.cxl_nj > 0
        assert report.hits.miss_rate == 1.0

    def test_local_hits_have_no_interconnect(self):
        config = tiny()
        report = SimulationEngine(config).run(make_workload(), AlwaysLocalHit())
        assert report.breakdown.interconnect_ns == 0.0
        assert report.hits.cache_hits_remote == 0

    def test_remote_hits_pay_interconnect(self):
        config = tiny()
        local = SimulationEngine(config).run(make_workload(), AlwaysLocalHit())
        remote = SimulationEngine(config).run(make_workload(), AlwaysRemoteHit())
        assert remote.breakdown.interconnect_ns > 0
        assert remote.runtime_cycles > local.runtime_cycles

    def test_l1_absorbs_hot_line(self):
        config = tiny()
        table = StreamTable()
        stream = configure_stream(
            table, "indirect", base=4096, size=4096, elem_size=64
        )
        n = 1000
        trace = Trace(
            core=np.zeros(n, dtype=np.int32),
            addr=np.full(n, stream.base, dtype=np.int64),
            write=np.zeros(n, dtype=bool),
            sid=np.full(n, stream.sid, dtype=np.int32),
        )
        workload = Workload(name="hot", streams=table, trace=trace)
        report = SimulationEngine(config).run(workload, AlwaysMiss())
        assert report.hits.l1_hits >= n - 5

    def test_affine_mlp_reduces_stall(self):
        config = tiny()
        indirect = SimulationEngine(config).run(
            make_workload(kind="indirect"), AlwaysMiss()
        )
        affine = SimulationEngine(config).run(
            make_workload(kind="affine"), AlwaysMiss()
        )
        # Same access counts, but affine latency overlaps by AFFINE_MLP
        # (relative to the indirect MLP).
        expected = config.indirect_mlp / AFFINE_MLP
        ratio = affine.runtime_cycles / indirect.runtime_cycles
        assert ratio < 1.0
        assert ratio == pytest.approx(expected, rel=0.35)

    def test_runtime_aggregates_threads_onto_units(self):
        config = tiny()  # 4 units
        few_threads = make_workload(n_cores=4)
        many_threads = make_workload(n_cores=8)
        few = SimulationEngine(config).run(few_threads, AlwaysMiss())
        many = SimulationEngine(config).run(many_threads, AlwaysMiss())
        # Same total work on the same 4 physical units: similar runtime.
        assert many.runtime_cycles == pytest.approx(few.runtime_cycles, rel=0.2)

    def test_static_energy_tracks_runtime(self):
        config = tiny()
        fast = SimulationEngine(config).run(make_workload(), AlwaysLocalHit())
        slow = SimulationEngine(config).run(make_workload(), AlwaysMiss())
        assert slow.energy.static_nj > fast.energy.static_nj


class TestSessionIsolation:
    def test_interleaved_sessions_match_separate_engines(self):
        """Every per-run value lives on the session: two sessions open on
        one engine and stepped in alternation report exactly what two
        engines running alone do."""
        config = tiny()
        workloads = [build("pr", TINY), build("mv", TINY)]
        alone = [
            SimulationEngine(config).run(wl, NdpExtPolicy()).to_json()
            for wl in workloads
        ]
        engine = SimulationEngine(config)
        sessions = [engine.begin_session(wl, NdpExtPolicy()) for wl in workloads]
        epoch_lists = [wl.trace.epochs(config.epoch_accesses) for wl in workloads]
        for pair in zip_longest(*epoch_lists):
            for session, epoch in zip(sessions, pair):
                if epoch is not None:
                    session.step(epoch)
        shared = [session.finish().to_json() for session in sessions]
        assert shared == alone
