"""Append-only JSONL journal: the one durability mechanism behind sweep
checkpoints (:mod:`repro.exec.checkpoint`) and serve drain/resume
(:mod:`repro.serve.journal`), which fold its records into their state.

The first line is a header pinning a caller-given identity; a file whose
header does not match describes a different run and is rotated to
``<path>.stale``.  A record is complete once its newline is on disk, and
reading stops at the first incomplete or undecodable line (a crash
mid-append).  The first append truncates the file to the end of the last
complete record, so a new record never shares a line with a torn
fragment (which would hide it, and every later record, from the next
read).  The file opens lazily; every append is flushed and fsync'd.
"""

from __future__ import annotations

import json
import os
from pathlib import Path


class AppendJournal:
    """One JSONL file of records behind an identity header."""

    def __init__(self, path: Path | str, identity: dict) -> None:
        self.path = Path(path)
        self.header = {"kind": "header", **identity}
        self._fh = None
        self._end: int | None = None  # bytes of the valid prefix, once read

    def read(self) -> list[dict]:
        """Records after a matching header, in file order, up to a torn
        tail.  A mismatched header rotates the file aside and yields none."""
        self._end = 0
        try:
            data = self.path.read_bytes()
        except OSError:
            return []
        records: list[dict] = []
        header_seen = False
        start = end = 0
        while (newline := data.find(b"\n", start)) >= 0:
            line = data[start:newline]
            start = newline + 1
            if not line.strip():
                end = start
                continue
            try:
                record = json.loads(line)
            except ValueError:
                break  # torn tail from a crash mid-append; keep the prefix
            if not isinstance(record, dict):
                break
            if header_seen:
                records.append(record)
            elif any(record.get(k) != v for k, v in self.header.items()):
                try:
                    os.replace(
                        self.path, self.path.with_name(self.path.name + ".stale")
                    )
                except OSError:
                    pass
                return []
            else:
                header_seen = True
            end = start
        self._end = end if header_seen else 0
        return records

    def append(self, record: dict) -> None:
        if self._fh is None:
            if self._end is None:
                self.read()
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
            self._fh.truncate(self._end)
            if self._end == 0:
                self._fh.write(json.dumps(self.header) + "\n")
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
