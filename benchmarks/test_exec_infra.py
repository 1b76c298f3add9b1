"""Benchmarks for the execution layer itself: the persistent report
cache round-trip.

These complement the figure benchmarks: they time the infrastructure
(``repro.exec``) rather than the experiments that ride on it.
"""

import pytest

from repro.core import NdpExtPolicy
from repro.exec.cache import ReportCache, cell_key
from repro.sim import SimulationEngine, small
from repro.workloads import SMALL, build


@pytest.fixture(scope="module")
def cell():
    config = small()
    workload = build("pr", SMALL)
    report = SimulationEngine(config).run(workload, NdpExtPolicy())
    return config, report


def test_report_cache_round_trip(benchmark, tmp_path, cell):
    config, report = cell
    cache = ReportCache(tmp_path)
    key = cell_key("pr", "ndpext", config, SMALL)
    cache.put(key, report)

    result = benchmark(cache.get, key)
    assert result is not None
    assert result.runtime_cycles == report.runtime_cycles
