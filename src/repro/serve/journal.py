"""Append-only serve journal: drain a serving loop, resume it later.

The same :class:`~repro.exec.journal.AppendJournal` as sweep manifests,
journaling *batches* instead of sweep cells::

    {"kind": "header", "schema": 1, "stamp": "<code stamp>",
     "scenario": "<scenario key>"}
    {"kind": "batch", "status": "queued", "key": "tenant:7",
     "tenant": ..., "batch": 7, "start": ..., "stop": ...,
     "enqueued_ns": ..., "deadline_ns": ...}
    {"kind": "batch", "status": "done", "key": "tenant:7",
     "outcome": "completed"}

A batch is journaled ``queued`` when admission accepts it and ``done``
at *any* terminal outcome (completed, shed, timed out), so after a drain
or a crash the pending set is exactly ``queued - done``: a restart
re-submits the scenario, skips done batches without recomputation, and
processes only those still waiting.  The header pins the code stamp and
the caller's scenario key; a journal of other code or another scenario
is rotated aside rather than resumed against the wrong run.
"""

from __future__ import annotations

from pathlib import Path

from repro.exec.journal import AppendJournal

SERVE_JOURNAL_SCHEMA = 1

OUTCOME_COMPLETED = "completed"
OUTCOME_SHED = "shed"
OUTCOME_TIMEOUT = "timeout"


class ServeJournal:
    """Journal of queued/terminal batches for one resumable serve run."""

    def __init__(
        self,
        path: Path | str,
        scenario_key: str = "",
        stamp: str | None = None,
    ) -> None:
        if stamp is None:
            from repro.exec.cache import code_stamp

            stamp = code_stamp()
        self.stamp = stamp
        self.scenario_key = scenario_key
        self._journal = AppendJournal(
            path,
            {"schema": SERVE_JOURNAL_SCHEMA, "stamp": stamp, "scenario": scenario_key},
        )
        self.path = self._journal.path
        self._queued: dict[str, dict] = {}
        self._done: dict[str, str] = {}  # key -> outcome
        for record in self._journal.read():
            if record.get("kind") != "batch" or "key" not in record:
                continue
            key = record["key"]
            status = record.get("status")
            if status == "queued":
                self._queued[key] = record
            elif status == "done":
                self._done[key] = record.get("outcome", OUTCOME_COMPLETED)

    def is_done(self, key: str) -> bool:
        return key in self._done

    def outcome(self, key: str) -> str | None:
        return self._done.get(key)

    def pending(self) -> list[dict]:
        """Queued records with no terminal outcome, in journal order."""
        return [
            record
            for key, record in self._queued.items()
            if key not in self._done
        ]

    @property
    def done_count(self) -> int:
        return len(self._done)

    @property
    def queued_count(self) -> int:
        return len(self._queued)

    def journal_queued(self, key: str, **meta) -> None:
        if key in self._queued:
            return
        record = {"kind": "batch", "status": "queued", "key": key, **meta}
        self._queued[key] = record
        self._journal.append(record)

    def journal_done(self, key: str, outcome: str = OUTCOME_COMPLETED) -> None:
        if key in self._done:
            return
        self._done[key] = outcome
        self._journal.append(
            {"kind": "batch", "status": "done", "key": key, "outcome": outcome}
        )

    def close(self) -> None:
        self._journal.close()
