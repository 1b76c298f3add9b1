"""Per-tenant SLO objectives, sliding-window burn rates, and alerting.

The serving loop (PR 7) already *measures* everything an operator cares
about — per-tenant completion latencies, deadline timeouts, shed and
rejected batches — but exposes them only as end-of-run counters.  This
module turns those signals into a live **SLO engine**:

* :class:`SloObjective` declares one tenant's contract: a p99 latency
  bound (at most 1% of completions may exceed it), a deadline-hit
  availability target (fraction of terminal batches that complete
  rather than time out), and a shed-rate ceiling (fraction of outcomes
  that were shed or quota-rejected).  Each objective defines an *error
  budget*: the allowed bad fraction (1% for a p99 bound, ``1 -
  availability`` for availability, the ceiling itself for shed rate).
* :class:`SloEngine` folds the loop's per-batch outcomes into per-epoch
  buckets and evaluates every objective over two sliding windows —
  a **fast** window (default 5 epochs: "is it burning *now*?") and a
  **slow** window (default 60 epochs: "has it burned *enough to
  matter*?").  The *burn rate* of a window is ``bad_fraction /
  error_budget`` — the Google-SRE multi-window construction: a burn
  rate of 1.0 spends the budget exactly at the sustainable pace, 14.4
  exhausts a 30-day budget in 50 hours.
* Alerting is stateful with hysteresis: **PAGE** when *both* windows
  burn at ``page_burn`` or faster, **WARN** when both reach
  ``warn_burn``, and recovery only after ``hysteresis`` consecutive
  clean evaluations — a storm that flickers across the threshold pages
  once, not once per epoch.  Transitions are emitted as ``slo_burn`` /
  ``slo_recovered`` recorder events (trace schema 3).

The engine is deliberately passive — it never touches the loop — so the
same evaluation drives its consumers: the ``/slo`` and ``/metrics``
live endpoints (:mod:`repro.serve.live`), the ``stats`` SLO roll-up,
and the error-budget-aware
:class:`~repro.serve.admission.SloAdmissionController`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

# Alert states, ordered by severity.
SLO_OK = "ok"
SLO_WARN = "warn"
SLO_PAGE = "page"
_SEVERITY = {SLO_OK: 0, SLO_WARN: 1, SLO_PAGE: 2}


def alert_severity(state: str) -> int:
    """OK < WARN < PAGE as an orderable integer."""
    return _SEVERITY[state]

# Objective kinds (the ``objective`` label on events and metrics).
OBJ_LATENCY = "latency_p99"
OBJ_AVAILABILITY = "availability"
OBJ_SHED_RATE = "shed_rate"

FAST_WINDOW = 5
SLOW_WINDOW = 60
PAGE_BURN = 14.4
WARN_BURN = 6.0
HYSTERESIS = 3

# Budget-history samples kept per tenant in status payloads (the full
# series is downsampled, never truncated, so the burn-down endpoint is
# always the run's true end state).
_HISTORY_POINTS = 256


@dataclass(frozen=True)
class SloObjective:
    """One tenant's declarative service-level objectives.

    Any subset of the three bounds may be set; each active bound becomes
    an independently-evaluated objective with its own error budget:

    * ``p99_ns`` — window p99 completion latency must stay at or under
      this bound; budget = 1% of completions may exceed it.
    * ``availability`` — fraction of terminal batches (completed +
      timed out) that must complete; budget = ``1 - availability``.
    * ``max_shed_rate`` — ceiling on the fraction of outcomes that were
      shed or quota-rejected; the ceiling is the budget.
    """

    tenant: str
    p99_ns: float | None = None
    availability: float | None = None
    max_shed_rate: float | None = None

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ValueError("objective needs a tenant name")
        if self.p99_ns is not None and self.p99_ns <= 0:
            raise ValueError("p99_ns must be positive")
        if self.availability is not None and not 0.0 < self.availability < 1.0:
            raise ValueError("availability must be in (0, 1)")
        if self.max_shed_rate is not None and not 0.0 < self.max_shed_rate <= 1.0:
            raise ValueError("max_shed_rate must be in (0, 1]")
        if self.p99_ns is None and self.availability is None and self.max_shed_rate is None:
            raise ValueError(f"objective for {self.tenant!r} sets no bound")

    def budgets(self) -> dict[str, tuple[float, float]]:
        """Active objectives as ``kind -> (target, error_budget)``."""
        out: dict[str, tuple[float, float]] = {}
        if self.p99_ns is not None:
            out[OBJ_LATENCY] = (self.p99_ns, 0.01)
        if self.availability is not None:
            out[OBJ_AVAILABILITY] = (self.availability, 1.0 - self.availability)
        if self.max_shed_rate is not None:
            out[OBJ_SHED_RATE] = (self.max_shed_rate, self.max_shed_rate)
        return out


def default_objectives(tenants) -> tuple[SloObjective, ...]:
    """Reasonable objectives for tenants that declared none explicitly:
    a shed-rate ceiling for everyone, plus availability and a p99 bound
    tied to the deadline for tenants that have one."""
    out = []
    for spec in tenants:
        deadline = getattr(spec, "deadline_ns", None)
        out.append(
            SloObjective(
                spec.name,
                p99_ns=deadline,
                availability=0.999 if deadline is not None else None,
                max_shed_rate=0.10,
            )
        )
    return tuple(out)


class _EpochBucket:
    """One epoch's raw outcome deltas for one tenant."""

    __slots__ = ("latencies", "timed_out", "shed", "rejected")

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.timed_out = 0
        self.shed = 0
        self.rejected = 0


class _ObjectiveState:
    """Alert state machine + cumulative budget for one (tenant, kind)."""

    __slots__ = (
        "target",
        "budget",
        "state",
        "clean_evals",
        "cum_bad",
        "cum_total",
        "burn_fast",
        "burn_slow",
        "windows_total",
        "windows_met",
    )

    def __init__(self, target: float, budget: float) -> None:
        self.target = target
        self.budget = budget
        self.state = SLO_OK
        self.clean_evals = 0
        self.cum_bad = 0
        self.cum_total = 0
        self.burn_fast = 0.0
        self.burn_slow = 0.0
        self.windows_total = 0
        self.windows_met = 0

    @property
    def budget_remaining(self) -> float:
        """1.0 = untouched; 0.0 = spent exactly; negative = over budget."""
        if self.cum_total == 0:
            return 1.0
        return 1.0 - (self.cum_bad / self.cum_total) / self.budget


def _percentile(samples: list[float], q: float) -> float:
    """Linear-interpolated percentile over a small sorted copy (the
    windows hold at most ``slow_window`` completions)."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class _TenantSlo:
    """All sliding-window state for one tenant."""

    def __init__(self, objective: SloObjective, slow_window: int) -> None:
        self.objective = objective
        self.pending = _EpochBucket()
        self.epochs: deque[_EpochBucket] = deque(maxlen=slow_window)
        self.states = {
            kind: _ObjectiveState(target, budget)
            for kind, (target, budget) in objective.budgets().items()
        }
        self.worst_burn = 0.0
        self.budget_history: list[list[float]] = []  # [epoch, remaining]

    def alert(self) -> str:
        if not self.states:
            return SLO_OK
        return max(
            (s.state for s in self.states.values()), key=_SEVERITY.__getitem__
        )

    def budget_remaining(self) -> float:
        if not self.states:
            return 1.0
        return min(s.budget_remaining for s in self.states.values())


def _bad_total(kind: str, state: _ObjectiveState, window) -> tuple[int, int]:
    """(bad events, total events) for one objective kind over a window."""
    if kind == OBJ_LATENCY:
        bad = total = 0
        for bucket in window:
            total += len(bucket.latencies)
            bad += sum(1 for v in bucket.latencies if v > state.target)
        return bad, total
    if kind == OBJ_AVAILABILITY:
        bad = sum(b.timed_out for b in window)
        total = bad + sum(len(b.latencies) for b in window)
        return bad, total
    # OBJ_SHED_RATE: shed + rejected over all terminal outcomes.
    bad = sum(b.shed + b.rejected for b in window)
    total = bad + sum(len(b.latencies) + b.timed_out for b in window)
    return bad, total


class SloEngine:
    """Evaluates every tenant's objectives each epoch and raises alerts.

    Feed it outcomes as the serving loop produces them (``on_complete``
    / ``on_timeout`` / ``on_shed`` / ``on_reject``), then call
    :meth:`end_epoch` once per served epoch.  Alert transitions are
    emitted through ``recorder`` as ``slo_burn`` (escalations) and
    ``slo_recovered`` (de-escalations) events.
    """

    def __init__(
        self,
        objectives,
        recorder=None,
        fast_window: int = FAST_WINDOW,
        slow_window: int = SLOW_WINDOW,
        page_burn: float = PAGE_BURN,
        warn_burn: float = WARN_BURN,
        hysteresis: int = HYSTERESIS,
    ) -> None:
        if fast_window < 1 or slow_window < fast_window:
            raise ValueError("need 1 <= fast_window <= slow_window")
        if warn_burn <= 0 or page_burn < warn_burn:
            raise ValueError("need 0 < warn_burn <= page_burn")
        if hysteresis < 1:
            raise ValueError("hysteresis must be >= 1")
        names = [o.tenant for o in objectives]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate objective tenants in {names}")
        from repro.obs.recorder import NullRecorder

        self.recorder = recorder if recorder is not None else NullRecorder()
        self.fast_window = fast_window
        self.slow_window = slow_window
        self.page_burn = page_burn
        self.warn_burn = warn_burn
        self.hysteresis = hysteresis
        self.tenants: dict[str, _TenantSlo] = {
            o.tenant: _TenantSlo(o, slow_window) for o in objectives
        }
        self.evaluations = 0

    # -- outcome feed (tenants without objectives are ignored) ----------

    def on_complete(self, tenant: str, latency_ns: float) -> None:
        slo = self.tenants.get(tenant)
        if slo is not None:
            slo.pending.latencies.append(float(latency_ns))

    def on_timeout(self, tenant: str) -> None:
        slo = self.tenants.get(tenant)
        if slo is not None:
            slo.pending.timed_out += 1

    def on_shed(self, tenant: str) -> None:
        slo = self.tenants.get(tenant)
        if slo is not None:
            slo.pending.shed += 1

    def on_reject(self, tenant: str) -> None:
        slo = self.tenants.get(tenant)
        if slo is not None:
            slo.pending.rejected += 1

    # -- evaluation -----------------------------------------------------

    def end_epoch(self, epoch: int) -> None:
        """Close the pending bucket and re-evaluate every objective."""
        self.evaluations += 1
        for name, slo in self.tenants.items():
            slo.epochs.append(slo.pending)
            slo.pending = _EpochBucket()
            window = list(slo.epochs)
            fast = window[-self.fast_window :]
            for kind, state in slo.states.items():
                self._evaluate(name, slo, kind, state, epoch, fast, window)
            slo.budget_history.append([int(epoch), slo.budget_remaining()])

    def _evaluate(
        self, name, slo, kind, state, epoch, fast, slow
    ) -> None:
        bad_f, total_f = _bad_total(kind, state, fast)
        bad_s, total_s = _bad_total(kind, state, slow)
        state.burn_fast = (bad_f / total_f / state.budget) if total_f else 0.0
        state.burn_slow = (bad_s / total_s / state.budget) if total_s else 0.0
        slo.worst_burn = max(slo.worst_burn, state.burn_fast)
        # Cumulative budget: only the newest epoch's events are new.
        bad_new, total_new = _bad_total(kind, state, fast[-1:])
        state.cum_bad += bad_new
        state.cum_total += total_new
        if kind == OBJ_LATENCY:
            samples = [v for b in fast for v in b.latencies]
            if samples:
                state.windows_total += 1
                if _percentile(samples, 99.0) <= state.target:
                    state.windows_met += 1

        if state.burn_fast >= self.page_burn and state.burn_slow >= self.page_burn:
            target = SLO_PAGE
        elif state.burn_fast >= self.warn_burn and state.burn_slow >= self.warn_burn:
            target = SLO_WARN
        else:
            target = SLO_OK

        previous = state.state
        if _SEVERITY[target] > _SEVERITY[previous]:
            # Escalate immediately; a page must never wait on hysteresis.
            state.state = target
            state.clean_evals = 0
            self.recorder.event(
                "slo_burn",
                tenant=name,
                objective=kind,
                epoch=epoch,
                state=target,
                previous=previous,
                burn_fast=state.burn_fast,
                burn_slow=state.burn_slow,
                budget_remaining=state.budget_remaining,
            )
        elif _SEVERITY[target] < _SEVERITY[previous]:
            state.clean_evals += 1
            if state.clean_evals >= self.hysteresis:
                state.state = target
                state.clean_evals = 0
                self.recorder.event(
                    "slo_recovered",
                    tenant=name,
                    objective=kind,
                    epoch=epoch,
                    state=target,
                    previous=previous,
                    budget_remaining=state.budget_remaining,
                )
        else:
            state.clean_evals = 0

    # -- read side ------------------------------------------------------

    def tenant_alert(self, tenant: str) -> str:
        slo = self.tenants.get(tenant)
        return slo.alert() if slo is not None else SLO_OK

    def worst_burn(self, tenant: str) -> float:
        slo = self.tenants.get(tenant)
        return slo.worst_burn if slo is not None else 0.0

    def status(self) -> dict:
        """The full objective status: the ``/slo`` endpoint payload and
        :attr:`ServeReport.slo`."""
        tenants = {}
        for name, slo in sorted(self.tenants.items()):
            history = slo.budget_history
            if len(history) > _HISTORY_POINTS:
                step = len(history) / _HISTORY_POINTS
                idx = sorted({int(i * step) for i in range(_HISTORY_POINTS)} | {len(history) - 1})
                history = [history[i] for i in idx]
            tenants[name] = {
                "alert": slo.alert(),
                "budget_remaining": slo.budget_remaining(),
                "worst_burn": slo.worst_burn,
                "budget_history": history,
                "objectives": {
                    kind: {
                        "target": state.target,
                        "budget": state.budget,
                        "state": state.state,
                        "burn_fast": state.burn_fast,
                        "burn_slow": state.burn_slow,
                        "budget_remaining": state.budget_remaining,
                        **(
                            {
                                "windows_total": state.windows_total,
                                "windows_met": state.windows_met,
                            }
                            if kind == OBJ_LATENCY
                            else {}
                        ),
                    }
                    for kind, state in sorted(slo.states.items())
                },
            }
        return {
            "fast_window": self.fast_window,
            "slow_window": self.slow_window,
            "page_burn": self.page_burn,
            "warn_burn": self.warn_burn,
            "hysteresis": self.hysteresis,
            "evaluations": self.evaluations,
            "tenants": tenants,
        }

    def emit_status(self) -> None:
        """One ``slo_status`` event per tenant (trace schema 3): the
        end-of-run alert state, budget burn-down history, and window
        accounting; ``stats`` reads each tenant's worst burn from it."""
        if not self.recorder.enabled:
            return
        status = self.status()
        for name, tenant in status["tenants"].items():
            self.recorder.event(
                "slo_status",
                tenant=name,
                alert=tenant["alert"],
                budget_remaining=tenant["budget_remaining"],
                worst_burn=tenant["worst_burn"],
                budget_history=tenant["budget_history"],
                objectives=tenant["objectives"],
            )
