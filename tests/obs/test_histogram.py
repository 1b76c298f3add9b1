"""Latency-histogram accuracy, mergeability, and serialization."""

import numpy as np
import pytest

from repro.obs.histogram import (
    BUCKET_SCHEME,
    BUCKETS_PER_DECADE,
    EDGES,
    N_BUCKETS,
    TIERS,
    LatencyHistogram,
    TierHistogramSet,
    bucket_indices,
)

# One bucket spans a factor of 10**(1/24), so any in-range percentile
# estimate is within this relative error of the exact order statistic.
BUCKET_REL = 10.0 ** (1.0 / BUCKETS_PER_DECADE) - 1.0


class TestBucketing:
    def test_edges_are_log_spaced(self):
        ratios = EDGES[1:] / EDGES[:-1]
        assert np.allclose(ratios, 10.0 ** (1.0 / BUCKETS_PER_DECADE))

    def test_underflow_and_overflow_indices(self):
        idx = bucket_indices(np.array([0.0, 0.05, EDGES[0], 1e9]))
        assert idx[0] == 0  # exact zero -> underflow
        assert idx[1] == 0
        assert idx[2] == 1  # right-inclusive edge
        assert idx[3] == N_BUCKETS - 1  # overflow

    def test_every_bucket_index_in_range(self):
        rng = np.random.default_rng(7)
        values = 10.0 ** rng.uniform(-3, 9, size=10_000)
        idx = bucket_indices(values)
        assert idx.min() >= 0
        assert idx.max() <= N_BUCKETS - 1


class TestPercentiles:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("q", [50.0, 95.0, 99.0, 99.9])
    def test_matches_numpy_percentile_within_bucket_width(self, seed, q):
        """Bucketed estimates land within one bucket's relative width of
        numpy's exact order statistic, across distributions."""
        rng = np.random.default_rng(seed)
        samples = np.concatenate(
            [
                rng.lognormal(mean=3.0, sigma=1.2, size=4000),
                rng.uniform(10.0, 500.0, size=2000),
            ]
        )
        hist = LatencyHistogram()
        hist.observe(samples)
        exact = float(np.percentile(samples, q))
        estimate = hist.percentile(q)
        assert estimate == pytest.approx(exact, rel=2 * BUCKET_REL)

    def test_extremes_clamp_to_observed_min_max(self):
        hist = LatencyHistogram()
        hist.observe(np.array([3.0, 17.0, 250.0]))
        assert hist.percentile(0) == 3.0
        assert hist.percentile(100) == 250.0

    def test_empty_histogram_is_all_zero(self):
        hist = LatencyHistogram()
        assert hist.n == 0
        assert hist.percentile(99) == 0.0
        assert hist.percentiles() == dict.fromkeys(
            ("p50", "p95", "p99", "p999"), 0.0
        )


class TestMerge:
    def _random_hist(self, seed):
        rng = np.random.default_rng(seed)
        hist = LatencyHistogram()
        hist.observe(rng.lognormal(mean=4.0, sigma=1.0, size=1000))
        return hist

    def test_merge_equals_joint_observation(self):
        rng = np.random.default_rng(11)
        a_vals = rng.lognormal(3.0, 1.0, size=700)
        b_vals = rng.lognormal(5.0, 0.5, size=300)
        a, b, joint = LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
        a.observe(a_vals)
        b.observe(b_vals)
        joint.observe(np.concatenate([a_vals, b_vals]))
        merged = a + b
        assert np.array_equal(merged.counts, joint.counts)
        assert merged.n == joint.n
        assert merged.min_ns == joint.min_ns
        assert merged.max_ns == joint.max_ns
        assert merged.total_ns == pytest.approx(joint.total_ns)

    def test_merge_is_associative(self):
        a, b, c = (self._random_hist(s) for s in (1, 2, 3))
        assert (a + b) + c == a + (b + c)

    def test_merge_with_empty_is_identity(self):
        a = self._random_hist(5)
        assert a + LatencyHistogram() == a


class TestJsonRoundTrip:
    def test_round_trip_preserves_everything(self):
        hist = LatencyHistogram()
        hist.observe(np.array([0.5, 12.0, 12.5, 4000.0]))
        data = hist.to_json()
        assert data["scheme"] == BUCKET_SCHEME
        rebuilt = LatencyHistogram.from_json(data)
        assert rebuilt == hist

    def test_empty_round_trip(self):
        rebuilt = LatencyHistogram.from_json(LatencyHistogram().to_json())
        assert rebuilt.n == 0
        assert rebuilt.min_ns == float("inf")

    def test_rejects_foreign_scheme(self):
        data = LatencyHistogram().to_json()
        data["scheme"] = "linear/please-no"
        with pytest.raises(ValueError, match="scheme"):
            LatencyHistogram.from_json(data)


def assert_hists_equivalent(a, b):
    """Counts/min/max must match bit-exactly; total_ns only up to float
    summation order (bincount-with-weights vs np.sum reduce in a
    different sequence)."""
    assert np.array_equal(a.counts, b.counts)
    assert a.min_ns == b.min_ns
    assert a.max_ns == b.max_ns
    assert a.total_ns == pytest.approx(b.total_ns, rel=1e-12)


class TestTierHistogramSet:
    def test_combined_bincount_matches_per_tier_observation(self):
        rng = np.random.default_rng(23)
        values = rng.lognormal(3.0, 1.5, size=5000)
        tier = rng.integers(0, len(TIERS), size=5000)
        combined = TierHistogramSet()
        combined.observe(tier, values)
        split = combined.histograms()
        for t, name in enumerate(TIERS):
            reference = LatencyHistogram()
            reference.observe(values[tier == t])
            assert_hists_equivalent(split[name], reference)

    def test_observing_in_chunks_equals_one_shot(self):
        rng = np.random.default_rng(29)
        values = rng.lognormal(2.0, 1.0, size=2000)
        tier = rng.integers(0, len(TIERS), size=2000)
        chunked, one_shot = TierHistogramSet(), TierHistogramSet()
        one_shot.observe(tier, values)
        for lo in range(0, 2000, 137):
            chunked.observe(tier[lo : lo + 137], values[lo : lo + 137])
        for name in TIERS:
            assert_hists_equivalent(
                chunked.histograms()[name], one_shot.histograms()[name]
            )
