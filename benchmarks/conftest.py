"""Shared fixtures for the benchmark harness.

All figure benchmarks share one :class:`ExperimentContext` per preset so
simulation cells (workload, policy) are computed once per session — the
paper's figures reuse the same underlying runs.  Both contexts fan each
figure's batch out over ``auto_jobs()`` workers, derived from the
machine; reports are bit-identical to a serial run.
"""

import pytest

from repro.exec.parallel import auto_jobs
from repro.experiments.runner import ExperimentContext


@pytest.fixture(scope="session", autouse=True)
def _isolated_disk_cache(tmp_path_factory):
    """Benchmarks must time real simulations, not a warm user cache.

    Each session gets a fresh private cache directory: cold on entry
    (numbers are comparable across commits), still exercising the cache
    write path, and leaving nothing behind in ``~/.cache``.
    """
    cache_dir = tmp_path_factory.mktemp("repro-cache")
    mp = pytest.MonkeyPatch()
    mp.setenv("REPRO_CACHE_DIR", str(cache_dir))
    yield
    mp.undo()


@pytest.fixture(scope="session")
def context():
    """The small HBM-style system, the default for every figure."""
    return ExperimentContext(preset="small", jobs=auto_jobs())


@pytest.fixture(scope="session")
def context_hmc():
    """The HMC-style variant for Fig. 5(b)."""
    return ExperimentContext(preset="small-hmc", jobs=auto_jobs())


def once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
