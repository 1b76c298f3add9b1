"""Disk memoization of deterministic workload traces.

Workload generation (R-MAT graph synthesis in particular) is one of the
two hot spots of a cold suite run.  Every generator is a pure function of
``(name, scale)`` plus the generator source code, so its output — the
trace arrays plus stream metadata — can be persisted once and re-loaded
by every later process.

Storage format (``TRACE_SCHEMA`` 2): one *directory* per workload cell
holding the four trace arrays as raw ``.npy`` files plus a ``meta.json``
(streams, phases, compute cost, and per-array byte sizes/checksums).
Raw ``.npy`` — unlike the zipped ``.npz`` this replaces — can be loaded
with ``mmap_mode="r"``, so a trace is materialized in page cache once
and *shared read-only by every worker process* instead of being
decompressed per worker.  Entries are published atomically (temp dir +
``os.rename``) with the array files fsync'd first.  Every load checks
each array file against its sha256; a corrupt or truncated entry
(checksum mismatch, undecodable metadata) is quarantined into
``<root>/quarantine/`` and rebuilt rather than crashing the run or
serving wrong addresses.

:meth:`TraceCache.get_or_build` adds the single-builder discipline for
concurrent sweeps: an exclusive ``flock`` per key means exactly one
process generates a missing trace while the others block and then mmap
the freshly published entry — two workers can no longer both compute
the same trace with one clobbering the other.

Keys include :func:`repro.exec.cache.code_stamp`, so editing any
generator invalidates the cache automatically.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.stream import StreamConfig, StreamKind, StreamTable
from repro.exec.cache import _canonical, _quarantine, code_stamp, fsync_dir
from repro.obs.tracing import current
from repro.workloads.trace import Trace, Workload

TRACE_SCHEMA = 2

_ARRAYS = ("core", "addr", "write", "sid")


def workload_key(name: str, scale, stamp: str | None = None) -> str:
    """Content hash identifying one generated workload."""
    payload = {
        "stamp": stamp if stamp is not None else code_stamp(),
        "workload": name,
        "scale": _canonical(scale),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _file_sha256(path: Path) -> str:
    """Hex sha256 of a file, read in chunks (no whole-file buffer)."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _stream_meta(stream: StreamConfig) -> dict:
    return {
        "sid": stream.sid,
        "kind": stream.kind.value,
        "base": stream.base,
        "size": stream.size,
        "elem_size": stream.elem_size,
        "read_only": stream.read_only,
        "dims": list(stream.dims),
        "order": stream.order,
        "name": stream.name,
    }


def _restore_streams(metas: list[dict]) -> StreamTable:
    table = StreamTable()
    for m in metas:
        table.configure(
            StreamConfig(
                sid=m["sid"],
                kind=StreamKind(m["kind"]),
                base=m["base"],
                size=m["size"],
                elem_size=m["elem_size"],
                read_only=m["read_only"],
                dims=tuple(m["dims"]),
                order=m["order"],
                name=m["name"],
            )
        )
    return table


@contextmanager
def _file_lock(path: Path):
    """Blocking exclusive flock on ``path``; yields whether it was taken.

    Platforms without ``fcntl`` (or unwritable cache roots) degrade to
    lockless behaviour — callers must still be correct, just without the
    build-once guarantee.
    """
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX
        yield False
        return
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
    except OSError:
        yield False
        return
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            yield True
        finally:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            except OSError:
                pass
    finally:
        os.close(fd)


class TraceCache:
    """Persisted workload traces, one mmap-able directory per cell."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.builds = 0
        self.lock_waits = 0  # get_or_build calls served by another builder
        self.quarantined = 0

    def _dir(self, key: str) -> Path:
        return self.root / "traces" / key[:2] / key

    def _lock_path(self, key: str) -> Path:
        return self.root / "locks" / f"{key}.lock"

    def get(self, key: str, mmap: bool = True) -> Workload | None:
        with current().span("cache.trace_load", cat="io"):
            return self._get(key, mmap=mmap)

    def _get(self, key: str, mmap: bool = True) -> Workload | None:
        entry = self._dir(key)
        try:
            raw = (entry / "meta.json").read_text()
        except OSError:
            self.misses += 1
            return None
        try:
            meta = json.loads(raw)
            if not isinstance(meta, dict):
                raise ValueError("metadata is not an object")
            if meta.get("schema") != TRACE_SCHEMA:
                # Recognized-but-different layout: stale, not corrupt.
                self.misses += 1
                return None
            arrays = {}
            for name in _ARRAYS:
                path = entry / f"{name}.npy"
                if _file_sha256(path) != meta["arrays"][name]["sha256"]:
                    raise ValueError(f"{name}.npy does not match its checksum")
                arrays[name] = np.load(
                    path, mmap_mode="r" if mmap else None, allow_pickle=False
                )
            trace = Trace(
                core=arrays["core"],
                addr=arrays["addr"],
                write=arrays["write"],
                sid=arrays["sid"],
            )
            workload = Workload(
                name=meta["name"],
                streams=_restore_streams(meta["streams"]),
                trace=trace,
                compute_cycles_per_access=meta["compute_cycles_per_access"],
                description=meta["description"],
                phases=[(pos, label) for pos, label in meta["phases"]],
            )
        except (OSError, ValueError, KeyError, TypeError):
            self.quarantined += _quarantine(self.root, entry)
            self.misses += 1
            return None
        self.hits += 1
        return workload

    def put(self, key: str, workload: Workload) -> None:
        with current().span("cache.trace_write", cat="io"):
            self._put(key, workload)

    def _put(self, key: str, workload: Workload) -> None:
        entry = self._dir(key)
        tmp = entry.parent / f".build-{key[:16]}-{os.getpid()}"
        try:
            tmp.mkdir(parents=True, exist_ok=True)
            arrays_meta: dict[str, dict] = {}
            for name in _ARRAYS:
                data = np.ascontiguousarray(getattr(workload.trace, name))
                path = tmp / f"{name}.npy"
                with open(path, "wb") as f:
                    np.save(f, data)
                    f.flush()
                    os.fsync(f.fileno())
                blob = path.read_bytes()
                arrays_meta[name] = {
                    "file_bytes": len(blob),
                    "sha256": hashlib.sha256(blob).hexdigest(),
                }
            meta = {
                "schema": TRACE_SCHEMA,
                "name": workload.name,
                "streams": [_stream_meta(s) for s in workload.streams],
                "compute_cycles_per_access": workload.compute_cycles_per_access,
                "description": workload.description,
                "phases": [[pos, label] for pos, label in workload.phases],
                "arrays": arrays_meta,
            }
            with open(tmp / "meta.json", "w") as f:
                json.dump(meta, f)
                f.flush()
                os.fsync(f.fileno())
            try:
                os.rename(tmp, entry)
            except OSError:
                # Another builder published first (or a stale entry is in
                # the way): theirs is equivalent — ours is discarded.
                shutil.rmtree(tmp, ignore_errors=True)
                return
            fsync_dir(entry.parent)
        except OSError:
            shutil.rmtree(tmp, ignore_errors=True)
            return

    def get_or_build(
        self, key: str, builder: Callable[[], Workload]
    ) -> Workload:
        """Fetch ``key``, or build it exactly once across processes.

        The fast path is lock-free.  On a miss, an exclusive per-key
        ``flock`` serializes builders: the winner generates and
        publishes the trace, everyone else blocks on the lock and then
        mmaps the winner's entry — duplicate generation work (and the
        write-write race where one builder clobbers the other) is gone.
        The built workload is read back from the cache so even the
        builder ends up on the shared mmap pages.
        """
        found = self.get(key)
        if found is not None:
            return found
        tracer = current()
        with tracer.span("cache.lock_wait", cat="io"):
            lock = _file_lock(self._lock_path(key))
            locked = lock.__enter__()
        try:
            if locked:
                found = self.get(key)
                if found is not None:
                    self.lock_waits += 1
                    return found
            with tracer.span("cache.trace_build", cat="io"):
                workload = builder()
            self.builds += 1
            self.put(key, workload)
        finally:
            lock.__exit__(None, None, None)
        return self.get(key) or workload
