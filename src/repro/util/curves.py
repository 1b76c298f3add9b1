"""Miss-curve containers and the lookahead slope primitive.

A *miss curve* maps cache capacity to the number of misses a stream would
incur at that capacity.  The paper's samplers (Section V-A) measure the
curve at 64 geometrically spaced capacities; the configuration algorithm
(Section V-C) repeatedly asks for the *steepest slope segment* — the
capacity increment that removes the most misses per byte — which is the
core primitive of the lookahead allocation family [6], [63].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# Install a new cache configuration only when it promises at least this
# relative miss reduction over the one already in place.  Residual
# sampling noise otherwise causes reconfiguration churn whose
# invalidations cost more than the marginal gain.  NDPExt's runtime and
# the NUCA baselines share this churn damper.
RECONFIG_GAIN_THRESHOLD = 0.03


@lru_cache(maxsize=64)
def geometric_capacities(lo: int, hi: int, points: int) -> np.ndarray:
    """Geometrically spaced capacities from ``lo`` to ``hi`` inclusive.

    Mirrors the paper's sampler spacing: 64 points from 32 kB to 256 MB
    gives a per-step multiplicative factor of 1.16 = (256M/32k)^(1/63).
    Every sampled curve of a run shares one grid, so it is built once
    per ``(lo, hi, points)`` and returned read-only.
    """
    if points < 2:
        raise ValueError(f"need at least 2 points, got {points}")
    if not 0 < lo < hi:
        raise ValueError(f"need 0 < lo < hi, got lo={lo} hi={hi}")
    caps = np.geomspace(lo, hi, points)
    caps = np.unique(np.round(caps).astype(np.int64))
    caps.flags.writeable = False
    return caps


@dataclass
class MissCurve:
    """Misses as a function of capacity for one stream.

    ``capacities`` must be strictly increasing; ``misses`` must be the
    miss *count* observed at each capacity (non-increasing curves are the
    common case, but set-sampled curves can be mildly non-monotonic and we
    accept them as measured).
    """

    capacities: np.ndarray
    misses: np.ndarray

    def __post_init__(self) -> None:
        self.capacities = np.asarray(self.capacities, dtype=np.int64)
        self.misses = np.asarray(self.misses, dtype=np.float64)
        if self.capacities.ndim != 1 or self.capacities.shape != self.misses.shape:
            raise ValueError("capacities and misses must be matching 1-D arrays")
        if len(self.capacities) < 1:
            raise ValueError("a miss curve needs at least one point")
        if np.any(np.diff(self.capacities) <= 0):
            raise ValueError("capacities must be strictly increasing")
        if np.any(self.misses < 0):
            raise ValueError("miss counts cannot be negative")

    def misses_at(self, capacity: float) -> float:
        """Linearly interpolated miss count at ``capacity``.

        Below the first measured point the curve is clamped to the first
        value; beyond the last point it is clamped to the last value
        (capacity beyond the measured range cannot add misses).
        """
        return float(np.interp(capacity, self.capacities, self.misses))

    def monotone(self) -> "MissCurve":
        """Return a copy with misses made non-increasing (running minimum).

        Set sampling lacks the stack property, so measured curves can
        wiggle upward; the configuration algorithm wants the convexified
        utility, for which a monotone curve is the first step.
        """
        return MissCurve(self.capacities, np.minimum.accumulate(self.misses))

    def smoothed(self, previous: "MissCurve | None") -> "MissCurve":
        """0.5/0.5 EWMA against ``previous`` when it has the same capacities.

        Exponential smoothing damps epoch-to-epoch sampling noise;
        without it the lookahead order flips between epochs and the
        resulting allocation churn costs more than the reconfiguration
        gains.  Returns ``self`` when there is nothing to smooth against.
        """
        if previous is None or not np.array_equal(
            previous.capacities, self.capacities
        ):
            return self
        return MissCurve(
            self.capacities, 0.5 * previous.misses + 0.5 * self.misses
        )

    def scaled(self, factor: float) -> "MissCurve":
        """Scale miss counts by ``factor`` (the paper's K/k set scaling)."""
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        return MissCurve(self.capacities, self.misses * factor)


@dataclass(frozen=True)
class SlopeSegment:
    """One candidate allocation step: spend ``size`` bytes, save ``gain`` misses."""

    stream_id: int
    start_capacity: int
    end_capacity: int
    gain: float

    @property
    def size(self) -> int:
        return self.end_capacity - self.start_capacity

    @property
    def slope(self) -> float:
        """Misses saved per byte — the lookahead utility density."""
        return self.gain / self.size if self.size > 0 else 0.0


@dataclass
class LookaheadState:
    """Tracks per-stream allocated capacity during lookahead allocation.

    Each stream's steepest segment depends only on its curve and its own
    allocation, and only :meth:`commit` changes an allocation, so a
    stream's best ``(segment, slope)`` is computed once and reused until
    a commit to that stream drops it.  Each grant then rescans one curve
    instead of all of them.
    """

    curves: dict[int, MissCurve]
    allocated: dict[int, int] = field(default_factory=dict)
    _best: dict[int, tuple[SlopeSegment | None, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for sid in self.curves:
            self.allocated.setdefault(sid, 0)

    def _steepest_of(self, sid: int) -> tuple[SlopeSegment | None, float]:
        """Stream ``sid``'s steepest segment from its current allocation
        and that segment's slope; ``(None, -inf)`` when it saves nothing."""
        curve = self.curves[sid]
        current = self.allocated[sid]
        current_misses = curve.misses_at(current)
        # Consider extending to each measured capacity beyond current.
        # One vector pass per curve: candidate slopes for every measured
        # point past the allocation, first-max selection (argmax)
        # matching the strict > of the scalar loop it replaced, so ties
        # keep resolving to the earliest capacity.
        caps = curve.capacities
        gains = current_misses - curve.misses
        candidate = (caps > current) & (gains > 0)
        if not candidate.any():
            return None, -np.inf
        cand_caps = caps[candidate]
        cand_gains = gains[candidate]
        slopes = cand_gains / (cand_caps - current).astype(np.float64)
        j = int(np.argmax(slopes))
        segment = SlopeSegment(sid, current, int(cand_caps[j]), float(cand_gains[j]))
        return segment, float(slopes[j])

    def next_steepest_segment(
        self, exclude: set[int] | None = None
    ) -> SlopeSegment | None:
        """The paper's ``NextSteepestSlopeSeg``: across all streams, find the
        capacity extension with maximum misses-saved-per-byte from the
        stream's current allocation.  Returns None when no stream can save
        any further misses.  Streams in ``exclude`` are skipped (the
        configurator uses this for streams that can no longer get space).
        Streams are visited in ``curves`` order and the strict ``>`` keeps
        the first of equal slopes.
        """
        best: SlopeSegment | None = None
        best_slope = -np.inf
        for sid in self.curves:
            if exclude and sid in exclude:
                continue
            entry = self._best.get(sid)
            if entry is None:
                entry = self._best[sid] = self._steepest_of(sid)
            segment, slope = entry
            if slope > best_slope:
                best, best_slope = segment, slope
        return best

    def commit(self, segment: SlopeSegment) -> None:
        if segment.start_capacity != self.allocated[segment.stream_id]:
            raise ValueError("segment does not extend the current allocation")
        self.allocated[segment.stream_id] = segment.end_capacity
        self._best.pop(segment.stream_id, None)
