"""End-to-end tests for the concrete baseline policies."""

import numpy as np
import pytest

from repro.baselines import (
    HostJigsawPolicy,
    JigsawPolicy,
    NdpExtStaticPolicy,
    NexusPolicy,
    StaticNucaPolicy,
    WhirlpoolPolicy,
    host_config,
)
from repro.experiments.runner import POLICIES
from repro.sim import SimulationEngine
from repro.sim.params import tiny
from repro.workloads import TINY, build


@pytest.fixture(scope="module")
def config():
    return tiny()


@pytest.fixture(scope="module")
def workload():
    return build("pr", TINY)


ALL_POLICIES = [
    StaticNucaPolicy,
    JigsawPolicy,
    WhirlpoolPolicy,
    NexusPolicy,
    NdpExtStaticPolicy,
]


class TestAllPoliciesRun:
    @pytest.mark.parametrize("factory", ALL_POLICIES)
    def test_end_to_end(self, config, workload, factory):
        report = SimulationEngine(config).run(workload, factory())
        assert report.runtime_cycles > 0
        assert report.hits.cache_accesses > 0
        assert report.energy.total_nj > 0

    @pytest.mark.parametrize("factory", ALL_POLICIES)
    def test_deterministic(self, config, workload, factory):
        a = SimulationEngine(config).run(workload, factory())
        b = SimulationEngine(config).run(workload, factory())
        assert a.runtime_cycles == b.runtime_cycles


class TestStaticNuca:
    def test_no_reconfiguration(self, config, workload):
        report = SimulationEngine(config).run(workload, StaticNucaPolicy())
        assert report.reconfig_invalidations == 0


class TestJigsaw:
    def test_classification_learns_owners(self, config, workload):
        policy = JigsawPolicy()
        SimulationEngine(config).run(workload, policy)
        assert policy._line_owner is not None
        lines, owners = policy._line_owner
        assert len(lines) == len(owners)
        assert len(lines) > 0

    def test_partitions_installed_after_first_epoch(self, config, workload):
        policy = JigsawPolicy()
        SimulationEngine(config).run(workload, policy)
        assert any(spec.allocated for spec in policy._partitions.values())


class TestWhirlpool:
    def test_partitions_by_stream(self, config, workload):
        policy = WhirlpoolPolicy()
        SimulationEngine(config).run(workload, policy)
        stream_sids = {s.sid for s in workload.streams}
        assert set(policy._partitions) & stream_sids

    def test_tracks_read_only(self, config, workload):
        policy = WhirlpoolPolicy()
        SimulationEngine(config).run(workload, policy)
        written = {
            int(s) for s in np.unique(workload.trace.sid[workload.trace.write])
        }
        for sid in written:
            assert not policy._read_only.get(sid, True)


class TestNexus:
    def test_degree_is_valid(self, config, workload):
        policy = NexusPolicy()
        SimulationEngine(config).run(workload, policy)
        assert policy.chosen_degree >= 1
        assert policy.chosen_degree <= config.n_units

    def test_fixed_degree_respected(self, config):
        workload = build("recsys", TINY)
        policy = NexusPolicy(degree=2)
        SimulationEngine(config).run(workload, policy)
        assert policy.chosen_degree == 2
        replicated = [
            spec
            for spec in policy._partitions.values()
            if len(spec.copies) == 2
        ]
        assert replicated

    def test_unit_failure_that_empties_a_partition(self, config):
        # On tiny mv a unit-0 failure at epoch 2 takes every resident
        # line of one partition; the next warm-start rescue must skip it.
        from repro.faults import FaultSchedule, UnitFailure

        schedule = FaultSchedule((UnitFailure(epoch=2, unit=0),), seed=1)
        report = SimulationEngine(config, faults=schedule).run(
            build("mv", TINY), NexusPolicy()
        )
        assert report.runtime_cycles > 0


class TestHost:
    def test_host_config_shape(self, config):
        host = host_config(config)
        assert host.n_units == config.n_units // 2
        assert host.total_cache_bytes < config.total_cache_bytes
        assert host.indirect_mlp == 1.0
        assert host.cxl.link_ns < config.cxl.link_ns

    def test_host_runs(self, config, workload):
        host = host_config(config)
        report = SimulationEngine(host).run(workload, HostJigsawPolicy())
        assert report.runtime_cycles > 0

    def test_ndp_beats_host_on_suite_sample(self, config):
        """The core Fig. 5 ordering at tiny scale for a streaming
        workload (the strongest NDP case)."""
        workload = build("hotspot", TINY)
        ndp = SimulationEngine(config).run(workload, NdpExtStaticPolicy())
        host = SimulationEngine(host_config(config)).run(
            workload, HostJigsawPolicy()
        )
        assert ndp.runtime_cycles < host.runtime_cycles


class TestReusedInstance:
    """A policy instance run twice must not carry state between runs."""

    @pytest.mark.parametrize("name", sorted(POLICIES) + ["host"])
    def test_second_run_matches_fresh_instance(self, config, workload, name):
        if name == "host":
            factory, system = HostJigsawPolicy, host_config(config)
        else:
            factory, system = POLICIES[name], config
        reused = factory()
        SimulationEngine(system).run(build("mv", TINY), reused)
        again = SimulationEngine(system).run(workload, reused)
        fresh = SimulationEngine(system).run(workload, factory())
        assert again.to_json() == fresh.to_json()
