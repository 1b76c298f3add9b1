"""Tests for the SRAM cache models (exact LRU and window filter)."""

import numpy as np
import pytest

from repro.sim import SimulationEngine
from repro.sim.params import SramCacheParams
from repro.sim.sram_cache import (
    SetAssocLRUCache,
    filter_cores_through_l1,
    filter_through_l1,
)
from repro.workloads import Trace


def params(size=1024, ways=4, line=64):
    return SramCacheParams(size_bytes=size, ways=ways, line_bytes=line)


class TestExactLRU:
    def test_repeat_hits(self):
        cache = SetAssocLRUCache(params())
        assert not cache.access(0)
        assert cache.access(0)
        assert cache.access(32)  # same line

    def test_lru_eviction_order(self):
        # One-set cache with 2 ways.
        cache = SetAssocLRUCache(params(size=128, ways=2))
        cache.access(0)
        cache.access(64)
        cache.access(0)  # refresh line 0
        cache.access(128)  # evicts line 64 (LRU)
        assert cache.access(0)
        assert not cache.access(64)

    def test_set_isolation(self):
        cache = SetAssocLRUCache(params(size=256, ways=1))  # 4 sets
        cache.access(0)
        cache.access(64)
        assert cache.access(0)

    def test_hit_rate_accounting(self):
        cache = SetAssocLRUCache(params())
        cache.run(np.array([0, 0, 0, 0]))
        assert cache.hit_rate == pytest.approx(0.75)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            SetAssocLRUCache(params(size=192, ways=4))  # 3 lines, not divisible


class TestWindowFilter:
    def test_streaming_misses(self):
        addrs = np.arange(0, 64 * 1000, 64)
        result = filter_through_l1(addrs, params())
        assert result.hit_rate == 0.0

    def test_hot_line_hits(self):
        addrs = np.zeros(100, dtype=np.int64)
        result = filter_through_l1(addrs, params())
        assert result.hits == 99

    def test_same_line_offsets_hit(self):
        addrs = np.array([0, 8, 16, 24])
        result = filter_through_l1(addrs, params())
        assert result.hits == 3

    def test_exact_mode_uses_reference(self):
        addrs = np.array([0, 64, 0, 128, 64])
        exact = filter_through_l1(addrs, params(size=128, ways=2), exact=True)
        assert exact.hits + exact.misses == len(addrs)

    def test_window_tracks_exact_on_mixed_trace(self):
        """The fast filter should agree with exact LRU within ~15% hit rate
        on a representative mixed streaming/reuse trace."""
        rng = np.random.default_rng(7)
        hot = rng.integers(0, 16, size=2000) * 64  # 16 hot lines
        stream = np.arange(0, 64 * 2000, 64) + 1 << 20
        trace = np.empty(4000, dtype=np.int64)
        trace[0::2] = hot
        trace[1::2] = stream[:2000]
        p = params(size=4096, ways=4)
        fast = filter_through_l1(trace, p)
        exact = filter_through_l1(trace, p, exact=True)
        assert abs(fast.hit_rate - exact.hit_rate) < 0.15


def per_core_l1_masks(addrs, cores, p):
    """The reference the grouped filter must equal bit for bit: an
    independent window-LRU pass per core, masks scattered back."""
    mask = np.zeros(len(addrs), dtype=bool)
    for core in np.unique(cores):
        sel = cores == core
        mask[sel] = filter_through_l1(addrs[sel], p).hit_mask
    return mask


def multicore_trace(seed, n=6000, n_cores=8):
    """Hot lines shared by every core mixed with per-core streams, on
    core ids with gaps, so a window or key leaking across cores would
    change the mask."""
    rng = np.random.default_rng(seed)
    core_ids = np.sort(rng.choice(4 * n_cores, size=n_cores, replace=False))
    cores = rng.choice(core_ids, size=n).astype(np.int32)
    hot = rng.integers(0, 48, size=n) * 64 + rng.integers(0, 64, size=n)
    stream = (1 << 24) + cores.astype(np.int64) * (1 << 20) + np.arange(n) * 64
    addrs = np.where(rng.random(n) < 0.6, hot, stream).astype(np.int64)
    return Trace(
        core=cores,
        addr=addrs,
        write=np.zeros(n, dtype=bool),
        sid=np.full(n, -1, dtype=np.int32),
    )


class TestGroupedL1Filter:
    """``filter_cores_through_l1`` is the engine's L1 filter; the per-core
    ``filter_through_l1`` loop is its oracle."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("size", [128, 1024, 8192])
    def test_matches_per_core_loop(self, seed, size):
        trace = multicore_trace(seed)
        p = params(size=size, ways=2)
        expected = per_core_l1_masks(trace.addr, trace.core, p)
        assert 0 < expected.sum() < len(expected)
        got = filter_cores_through_l1(trace.addr, trace.core, p)
        np.testing.assert_array_equal(got, expected)
        order = np.argsort(trace.core, kind="stable")
        got = filter_cores_through_l1(trace.addr, trace.core, p, order=order)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("size", [256, 4096])
    def test_matches_per_core_loop_with_engine_epoch_orders(self, size):
        """The engine supplies each epoch's order from one trace-wide sort."""
        epochs = multicore_trace(seed=3).epochs(1000)
        p = params(size=size, ways=4)
        orders = SimulationEngine._epoch_core_orders(epochs)
        assert len(orders) == len(epochs)
        for epoch, order in zip(epochs, orders):
            got = filter_cores_through_l1(epoch.addr, epoch.core, p, order=order)
            np.testing.assert_array_equal(
                got, per_core_l1_masks(epoch.addr, epoch.core, p)
            )
