"""Fixed-bucket log-scale latency histograms.

The paper's headline claims are distributional: NDPExt wins because most
requests are served *close* to the issuing unit, which averages hide.
:class:`LatencyHistogram` captures a full latency distribution in fixed
log-spaced buckets so that

* populating it is one ``np.searchsorted`` + one ``np.bincount`` per
  epoch (never per request),
* two histograms are mergeable (``__add__``) without re-observing — the
  bucket edges are a module-level constant, so every histogram in the
  process is bucket-compatible, and
* p50/p95/p99/p99.9 are extracted by interpolating inside the bracketing
  bucket, clamped to the exact observed min/max; the estimate is within
  one bucket's relative width (``10**(1/24) - 1`` ~ 10%) of the true
  order statistic.

:class:`TierHistogramSet` keeps one histogram per *serving tier* —
``local`` (the issuing unit's own SRAM/DRAM), ``intra`` (another unit in
the same stack), ``inter`` (a unit in another stack), ``extended``
(CXL-attached memory) — filled from a single combined bincount over
``tier * n_buckets + bucket``.
"""

from __future__ import annotations

import numpy as np

# Bucket scheme "log24/0.1ns..10ms": 24 geometric buckets per decade
# across 8 decades, plus an underflow bucket (values below 0.1 ns,
# including exact zeros) and an overflow bucket.  ~10% relative
# resolution, 194 counters per histogram.
BUCKETS_PER_DECADE = 24
MIN_NS = 0.1
MAX_NS = 1e7
_DECADES = 8
EDGES = MIN_NS * np.power(
    10.0, np.arange(_DECADES * BUCKETS_PER_DECADE + 1) / BUCKETS_PER_DECADE
)
N_BUCKETS = len(EDGES) + 1  # underflow + len(EDGES)-1 internal + overflow
BUCKET_SCHEME = "log24/0.1ns-1e7ns"

# Serving tiers, coarse-to-fine distance from the issuing core.
TIERS = ("local", "intra", "inter", "extended")


def bucket_indices(values_ns: np.ndarray) -> np.ndarray:
    """Vectorized value -> bucket index (0 = underflow, N_BUCKETS-1 = overflow)."""
    return np.searchsorted(EDGES, values_ns, side="right")


class LatencyHistogram:
    """One latency distribution over the fixed log-bucket scheme."""

    __slots__ = ("counts", "total_ns", "min_ns", "max_ns")

    def __init__(self, counts: np.ndarray | None = None) -> None:
        self.counts = (
            np.zeros(N_BUCKETS, dtype=np.int64)
            if counts is None
            else np.asarray(counts, dtype=np.int64)
        )
        if len(self.counts) != N_BUCKETS:
            raise ValueError(
                f"expected {N_BUCKETS} buckets, got {len(self.counts)}"
            )
        self.total_ns = 0.0
        self.min_ns = float("inf")
        self.max_ns = 0.0

    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    def observe(self, values_ns: np.ndarray) -> None:
        """Fold an array of latencies in (one bincount, not per-value)."""
        values_ns = np.asarray(values_ns, dtype=np.float64)
        if len(values_ns) == 0:
            return
        idx = bucket_indices(values_ns)
        self.counts += np.bincount(idx, minlength=N_BUCKETS)
        self.total_ns += float(values_ns.sum())
        self.min_ns = min(self.min_ns, float(values_ns.min()))
        self.max_ns = max(self.max_ns, float(values_ns.max()))

    # ------------------------------------------------------------------

    def __add__(self, other: "LatencyHistogram") -> "LatencyHistogram":
        merged = LatencyHistogram(self.counts + other.counts)
        merged.total_ns = self.total_ns + other.total_ns
        merged.min_ns = min(self.min_ns, other.min_ns)
        merged.max_ns = max(self.max_ns, other.max_ns)
        return merged

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatencyHistogram):
            return NotImplemented
        return (
            bool(np.array_equal(self.counts, other.counts))
            and self.total_ns == other.total_ns
            and self.min_ns == other.min_ns
            and self.max_ns == other.max_ns
        )

    # ------------------------------------------------------------------

    def _bucket_bounds(self, idx: int) -> tuple[float, float]:
        """The value range bucket ``idx`` covers, clamped to observations."""
        lo = 0.0 if idx == 0 else float(EDGES[idx - 1])
        hi = float(EDGES[idx]) if idx < len(EDGES) else self.max_ns
        if self.min_ns != float("inf"):
            lo = max(lo, self.min_ns)
        hi = min(hi, self.max_ns) if self.max_ns else hi
        return lo, max(lo, hi)

    def percentile(self, q: float) -> float:
        """The q-th percentile (0..100), interpolated within its bucket."""
        n = self.n
        if n == 0:
            return 0.0
        if q <= 0:
            return self.min_ns
        if q >= 100:
            return self.max_ns
        target = q / 100.0 * n
        cum = np.cumsum(self.counts)
        idx = int(np.searchsorted(cum, target, side="left"))
        below = float(cum[idx - 1]) if idx > 0 else 0.0
        in_bucket = float(self.counts[idx])
        lo, hi = self._bucket_bounds(idx)
        frac = (target - below) / in_bucket if in_bucket else 0.0
        return lo + (hi - lo) * min(1.0, max(0.0, frac))

    def percentiles(self) -> dict[str, float]:
        """The headline order statistics (p50/p95/p99/p99.9)."""
        return {
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
            "p999": self.percentile(99.9),
        }

    # ------------------------------------------------------------------

    def to_json(self) -> dict:
        """Sparse JSON form ([bucket index, count] pairs)."""
        nonzero = np.flatnonzero(self.counts)
        return {
            "scheme": BUCKET_SCHEME,
            "total_ns": self.total_ns,
            "min_ns": self.min_ns if self.min_ns != float("inf") else None,
            "max_ns": self.max_ns,
            "buckets": [[int(i), int(self.counts[i])] for i in nonzero],
        }

    @classmethod
    def from_json(cls, data: dict) -> "LatencyHistogram":
        if data.get("scheme") != BUCKET_SCHEME:
            raise ValueError(
                f"histogram scheme {data.get('scheme')!r} != {BUCKET_SCHEME!r}"
            )
        hist = cls()
        for idx, count in data.get("buckets", []):
            hist.counts[int(idx)] = int(count)
        hist.total_ns = float(data.get("total_ns", 0.0))
        min_ns = data.get("min_ns")
        hist.min_ns = float("inf") if min_ns is None else float(min_ns)
        hist.max_ns = float(data.get("max_ns", 0.0))
        return hist


class TierHistogramSet:
    """Per-serving-tier latency histograms, filled in one bincount.

    The engine classifies each post-L1 request into one of
    :data:`TIERS` and calls :meth:`observe` once per epoch; the combined
    ``tier * N_BUCKETS + bucket`` index lets one ``np.bincount`` cover
    all tiers at once.
    """

    def __init__(self) -> None:
        self.counts = np.zeros((len(TIERS), N_BUCKETS), dtype=np.int64)
        self.total_ns = np.zeros(len(TIERS))
        self.min_ns = np.full(len(TIERS), np.inf)
        self.max_ns = np.zeros(len(TIERS))

    def observe(self, tier: np.ndarray, values_ns: np.ndarray) -> None:
        if len(values_ns) == 0:
            return
        flat = tier * N_BUCKETS + bucket_indices(values_ns)
        self.counts += np.bincount(
            flat, minlength=len(TIERS) * N_BUCKETS
        ).reshape(len(TIERS), N_BUCKETS)
        self.total_ns += np.bincount(
            tier, weights=values_ns, minlength=len(TIERS)
        )
        for t in range(len(TIERS)):
            mask = tier == t
            if mask.any():
                vals = values_ns[mask]
                self.min_ns[t] = min(self.min_ns[t], float(vals.min()))
                self.max_ns[t] = max(self.max_ns[t], float(vals.max()))

    def histograms(self) -> dict[str, LatencyHistogram]:
        """Materialize one :class:`LatencyHistogram` per tier."""
        result: dict[str, LatencyHistogram] = {}
        for t, name in enumerate(TIERS):
            hist = LatencyHistogram(self.counts[t].copy())
            hist.total_ns = float(self.total_ns[t])
            hist.min_ns = float(self.min_ns[t])
            hist.max_ns = float(self.max_ns[t])
            result[name] = hist
        return result
