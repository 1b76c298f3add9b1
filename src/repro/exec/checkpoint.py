"""Append-only sweep checkpoints: resume an interrupted ``run_many``.

A :class:`SweepManifest` journals every cell a sweep has finished —
``done`` cells by content-addressed key, ``poisoned`` cells with the
captured failure — to an :class:`~repro.exec.journal.AppendJournal`, so
a suite killed mid-flight leaves a record of everything it completed.
Re-running with the same manifest (the CLI's ``--resume``) serves
``done`` cells from the report cache and does not burn poisoned cells
through their retry budget again::

    {"kind": "header", "schema": 1, "stamp": "<code stamp>"}
    {"kind": "cell", "status": "done", "key": "<sha256>", ...metadata}
    {"kind": "cell", "status": "poisoned", "key": "...", "failure": ...,
     "attempts": N, "error": "<traceback tail>", ...metadata}

The header pins :func:`repro.exec.cache.code_stamp`: different simulator
code computes different results, so its manifest is rotated aside.  A
later ``done`` entry for a poisoned key overrides the poisoning.
"""

from __future__ import annotations

from pathlib import Path

from repro.exec.journal import AppendJournal

MANIFEST_SCHEMA = 1


class SweepManifest:
    """Journal of completed/poisoned cells for one resumable sweep."""

    def __init__(self, path: Path | str, stamp: str | None = None) -> None:
        if stamp is None:
            from repro.exec.cache import code_stamp

            stamp = code_stamp()
        self.stamp = stamp
        self._journal = AppendJournal(
            path, {"schema": MANIFEST_SCHEMA, "stamp": stamp}
        )
        self.path = self._journal.path
        self._done: set[str] = set()
        self._poisoned: dict[str, dict] = {}
        for record in self._journal.read():
            if record.get("kind") != "cell" or "key" not in record:
                continue
            key = record["key"]
            if record.get("status") == "done":
                self._done.add(key)
                self._poisoned.pop(key, None)
            elif record.get("status") == "poisoned":
                if key not in self._done:
                    self._poisoned[key] = record

    def is_done(self, key: str) -> bool:
        return key in self._done

    def is_poisoned(self, key: str) -> bool:
        return key in self._poisoned

    def poison_record(self, key: str) -> dict | None:
        return self._poisoned.get(key)

    @property
    def done_count(self) -> int:
        return len(self._done)

    @property
    def poisoned_count(self) -> int:
        return len(self._poisoned)

    def journal_done(self, key: str, **meta) -> None:
        if key in self._done:
            return
        self._done.add(key)
        self._poisoned.pop(key, None)
        self._journal.append({"kind": "cell", "status": "done", "key": key, **meta})

    def journal_poisoned(
        self, key: str, failure: str, attempts: int, error: str, **meta
    ) -> None:
        record = {
            "kind": "cell",
            "status": "poisoned",
            "key": key,
            "failure": failure,
            "attempts": attempts,
            "error": error[-2000:],
            **meta,
        }
        self._poisoned[key] = record
        self._journal.append(record)

    def close(self) -> None:
        self._journal.close()
