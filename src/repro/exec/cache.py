"""Content-addressed, persistent result caching.

Every simulation cell — one (workload, policy, system config, scale,
fault schedule) combination — is deterministic, so its report can be
reused by any later process that asks for the same cell.  This module
provides the two ingredients:

* :func:`cell_key` — a stable SHA-256 digest over the *values* that
  determine a cell's result: the full system config, the workload name
  and scale, the policy name plus the caller-supplied variant key, the
  fault schedule, and a code stamp.
* :class:`ReportCache` — a directory of one JSON file per cell with
  atomic writes (temp file + ``os.replace``), so concurrent writers and
  killed processes can never leave a torn entry behind.

The code stamp (:func:`code_stamp`) hashes the source of every package
whose behaviour feeds a report (``sim``, ``core``, ``baselines``,
``workloads``, ``faults``) — any edit to simulator semantics silently
invalidates the whole cache, which is exactly what a reproduction
harness wants: stale results are worse than slow ones.

Environment knobs (see README):

* ``REPRO_CACHE_DIR`` — cache directory (default:
  ``$XDG_CACHE_HOME/repro-ndpext`` or ``~/.cache/repro-ndpext``).
* ``REPRO_DISK_CACHE=0`` — disable the persistent layer entirely (the
  in-process caches still apply).
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path

from repro.obs.tracing import current
from repro.sim.metrics import SimulationReport

CACHE_DIR_ENV = "REPRO_CACHE_DIR"
CACHE_DISABLE_ENV = "REPRO_DISK_CACHE"

# Bump when the on-disk entry layout (not the simulated values) changes.
# Schema 2 added a sha256 checksum over the report payload; schema-1
# entries are treated as plain (stale-format) misses.
ENTRY_SCHEMA = 2

# Packages whose source determines simulation results; their content
# hash is part of every cell key.
_BEHAVIOR_PACKAGES = ("sim", "core", "baselines", "workloads", "faults")

_code_stamp_cache: str | None = None


@contextlib.contextmanager
def throwaway_cache_dir(prefix: str = "repro-throwaway-"):
    """Redirect ``REPRO_CACHE_DIR`` to a temp dir for the enclosed block.

    Used by the ``profile`` verb, which needs runs that *actually
    execute* rather than hit the user's warm cache.  The
    environment variable is restored and the directory removed no
    matter how the block exits — a crashing profiled run cannot leak a
    directory or leave the redirect in place — and cleanup errors are
    swallowed (``ignore_cleanup_errors``): a worker killed mid-write may
    hold a file open briefly, and a leaked *empty* temp dir is better
    than masking the original exception.
    """
    previous = os.environ.get(CACHE_DIR_ENV)
    with tempfile.TemporaryDirectory(
        prefix=prefix, ignore_cleanup_errors=True
    ) as tmp:
        try:
            os.environ[CACHE_DIR_ENV] = tmp
            yield Path(tmp)
        finally:
            if previous is None:
                os.environ.pop(CACHE_DIR_ENV, None)
            else:
                os.environ[CACHE_DIR_ENV] = previous


def cache_enabled() -> bool:
    """Whether the persistent cache layer is on (default: yes)."""
    return os.environ.get(CACHE_DISABLE_ENV, "1").lower() not in (
        "0",
        "false",
        "no",
        "off",
    )


def cache_root() -> Path:
    """The cache directory, honouring ``REPRO_CACHE_DIR`` / XDG."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-ndpext"


def code_stamp() -> str:
    """SHA-256 over the simulator's behaviour-determining source files.

    Computed once per process; any change to the hashed packages yields
    a different stamp and therefore a disjoint key space.
    """
    global _code_stamp_cache
    if _code_stamp_cache is None:
        import repro

        root = Path(repro.__file__).parent
        digest = hashlib.sha256()
        for package in _BEHAVIOR_PACKAGES:
            for path in sorted((root / package).rglob("*.py")):
                digest.update(str(path.relative_to(root)).encode())
                digest.update(b"\0")
                digest.update(path.read_bytes())
        _code_stamp_cache = digest.hexdigest()
    return _code_stamp_cache


def _canonical(value):
    """Recursively reduce a value to JSON-able primitives, keeping type
    names for dataclasses so e.g. two fault-event kinds with identical
    fields can never collide."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        body = {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__type__": type(value).__name__, **body}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def cell_key(
    workload: str,
    policy: str,
    config,
    scale,
    cache_key: str = "",
    faults=None,
    stamp: str | None = None,
) -> str:
    """Content hash identifying one simulation cell.

    ``cache_key`` is the caller's variant discriminator — required
    whenever a custom ``policy_factory`` changes behaviour without
    changing the policy name or the config (the established runner
    convention, e.g. ``"placement:consistent"``).
    """
    payload = {
        "stamp": stamp if stamp is not None else code_stamp(),
        "workload": workload,
        "policy": policy,
        "config": _canonical(config),
        "scale": _canonical(scale),
        "cache_key": cache_key,
        "faults": _canonical(faults),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` without ever exposing a torn file.

    The temp file is fsync'd *before* the rename and the directory
    after it: ``os.replace`` alone guarantees the entry is never torn,
    but on a power loss the rename can be persisted while the data
    blocks are not, leaving a validly-named file full of zeros.  A
    crash-safe cache has to pay both syncs.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=path.suffix)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
        fsync_dir(path.parent)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def fsync_dir(path: Path) -> None:
    """Best-effort fsync of a directory (persists renames within it)."""
    try:
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def payload_digest(payload) -> str:
    """Canonical sha256 over a JSON-able payload (sorted keys, fixed
    separators) — stable across a dump/load round trip, so a reader can
    re-derive it from the parsed entry."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class _CorruptEntry(Exception):
    """Internal: an entry that was read but failed validation."""


def _quarantine(root: Path, entry: Path) -> bool:
    """Move a corrupt cache entry (file or directory) into
    ``root/quarantine``, replacing an earlier one of the same name.
    Returns whether it moved."""
    target = root / "quarantine" / entry.name
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        if target.is_dir():
            shutil.rmtree(target)
        os.replace(entry, target)
    except OSError:
        return False
    return True


class ReportCache:
    """One checksummed JSON file per simulation cell, written atomically.

    Sharded by the first two key hex digits to keep directories small.
    ``get`` never fails a run: a missing or stale-schema entry is a
    plain miss, while an entry that fails JSON decode or its sha256
    checksum (torn write survived a crash, bit rot, truncation) is
    *quarantined* — moved into ``<root>/quarantine/`` and counted on
    ``self.quarantined`` — instead of silently deleted, so operators can
    inspect what corrupted and regression tests can assert recovery.
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    def _path(self, key: str) -> Path:
        return self.root / "reports" / key[:2] / f"{key}.json"

    def get(self, key: str) -> SimulationReport | None:
        with current().span("cache.report_load", cat="io"):
            return self._get(key)

    def _get(self, key: str) -> SimulationReport | None:
        path = self._path(key)
        try:
            raw = path.read_text()
        except OSError:
            self.misses += 1
            return None
        try:
            try:
                data = json.loads(raw)
            except ValueError as exc:
                raise _CorruptEntry("undecodable JSON") from exc
            if not isinstance(data, dict):
                raise _CorruptEntry("entry is not an object")
            schema = data.get("schema")
            if schema != ENTRY_SCHEMA:
                if isinstance(schema, int):
                    # Recognized-but-older layout: stale, not corrupt.
                    self.misses += 1
                    return None
                raise _CorruptEntry(f"unrecognizable schema {schema!r}")
            if "report" not in data or data.get("sha256") != payload_digest(
                data["report"]
            ):
                raise _CorruptEntry("checksum mismatch")
            try:
                report = SimulationReport.from_json(data["report"])
            except (ValueError, KeyError, TypeError) as exc:
                raise _CorruptEntry("report failed to parse") from exc
        except _CorruptEntry:
            self.quarantined += _quarantine(self.root, path)
            self.misses += 1
            return None
        self.hits += 1
        return report

    def put(self, key: str, report: SimulationReport) -> None:
        with current().span("cache.report_write", cat="io"):
            try:
                payload = report.to_json()
                entry = {
                    "schema": ENTRY_SCHEMA,
                    "sha256": payload_digest(payload),
                    "report": payload,
                }
                blob = json.dumps(entry).encode()
            except (TypeError, ValueError):
                # Non-serializable report (e.g. a test double): skip
                # caching rather than fail the run that produced it.
                return
            try:
                atomic_write_bytes(self._path(key), blob)
            except OSError:
                return


def default_report_cache() -> ReportCache | None:
    """The process-wide report cache, or ``None`` when disabled."""
    if not cache_enabled():
        return None
    return ReportCache(cache_root())
