"""Output checks and simulated statistics of the benchmark's workloads.

Every simulated statistic feeds :func:`sim_digest`; a change that only
speeds up the simulator must leave the digest of every (workload, seed)
pair unchanged.  The conservation checks return one message per
violation, and each violation counts as a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import math

# Fig. 5 (HBM) reference ratios from the paper.
PAPER_NDPEXT_OVER_NEXUS = 1.41
PAPER_NDPEXT_OVER_STATIC = 1.2
PAPER_NDPEXT_OVER_HOST = (4.3, 7.3)


def sim_digest(payloads) -> str:
    """SHA-256 over JSON payloads (report ``to_json`` dicts), in order.

    ``json.dumps`` writes floats with ``repr``, which round-trips, so
    equal digests mean bit-identical statistics.
    """
    digest = hashlib.sha256()
    for payload in payloads:
        digest.update(json.dumps(payload, sort_keys=True).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def cell_violations(label: str, report, n_accesses: int) -> list[str]:
    """Conservation on one simulation report of ``n_accesses`` requests."""
    if report is None:
        return [f"{label}: no report (the cell raised or was quarantined)"]
    errors = []
    if not report.runtime_cycles > 0:
        errors.append(f"{label}: runtime_cycles {report.runtime_cycles} <= 0")
    hits = report.hits
    post_l1 = n_accesses - hits.l1_hits
    if hits.cache_accesses != post_l1:
        errors.append(
            f"{label}: hits + misses = {hits.cache_accesses} but "
            f"post-L1 requests = {post_l1}"
        )
    return errors


def serve_violations(
    label: str, report, served_accesses: int, journaled_completed: int
) -> list[str]:
    """Batch accounting of one serve report, and its engine report.

    ``served_accesses`` and ``journaled_completed`` come from the run's
    journal, which the serve layer writes independently of the report.
    """
    errors = []
    accounted = (
        report.completed
        + report.rejected
        + report.shed
        + report.timed_out
        + report.drained_queued
        + report.resumed_skips
    )
    if report.submitted != accounted:
        errors.append(
            f"{label}: submitted {report.submitted} != completed + rejected"
            f" + shed + timed_out + drained + resumed = {accounted}"
        )
    if report.resumed_skips:
        errors.append(f"{label}: {report.resumed_skips} batches resumed from a stale journal")
    if journaled_completed != report.completed:
        errors.append(
            f"{label}: journal has {journaled_completed} completed batches,"
            f" report has {report.completed}"
        )
    errors += cell_violations(f"{label} engine", report.sim, served_accesses)
    return errors


def paper_log_error(
    ndpext_over_nexus: float,
    ndpext_over_static: float | None = None,
    ndpext_over_host: float | None = None,
) -> float:
    """Mean log distance of measured ratios from the paper's Fig. 5.

    Point references contribute ``|ln(measured / paper)|``; the host
    ratio contributes its log distance outside the paper's band.
    """
    terms = [abs(math.log(ndpext_over_nexus / PAPER_NDPEXT_OVER_NEXUS))]
    if ndpext_over_static is not None:
        terms.append(abs(math.log(ndpext_over_static / PAPER_NDPEXT_OVER_STATIC)))
    if ndpext_over_host is not None:
        low, high = PAPER_NDPEXT_OVER_HOST
        terms.append(
            max(0.0, math.log(low / ndpext_over_host), math.log(ndpext_over_host / high))
        )
    return sum(terms) / len(terms)


def ndp_statistics(reports) -> dict[str, float]:
    """Modelled NDP cache behaviour pooled over ``reports``."""
    hits = sum(r.hits.cache_hits_local + r.hits.cache_hits_remote for r in reports)
    accesses = sum(r.hits.cache_accesses for r in reports)
    extended = sum(r.breakdown.extended_ns for r in reports)
    total = sum(r.breakdown.total_ns for r in reports)
    return {
        "sim.ndp_hit_rate": hits / accesses if accesses else 0.0,
        "sim.extended_share": extended / total if total else 0.0,
        "sim.reconfig_invalidations": float(
            sum(r.reconfig_invalidations for r in reports)
        ),
    }
