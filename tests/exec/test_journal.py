"""Crash safety of the append-only journal, through both of its users:
sweep manifests (``SweepManifest``) and serve journals (``ServeJournal``).

Behaviour specific to one kind (pending batches, poisoning, error trim,
idempotent appends) is tested next to that kind; this suite covers the
shared mechanism: torn tails, identity rotation, and torn-tail repair.
"""

import json

import pytest

from repro.exec.checkpoint import SweepManifest
from repro.serve.journal import ServeJournal

KINDS = ["manifest", "serve"]


def _open(kind, path, stamp="stamp-a", scenario="s1"):
    if kind == "manifest":
        return SweepManifest(path, stamp=stamp)
    return ServeJournal(path, scenario_key=scenario, stamp=stamp)


def _journal(kind, path, keys):
    journal = _open(kind, path)
    for key in keys:
        journal.journal_done(key)
    journal.close()


def _tear(path):
    with open(path, "a") as f:
        f.write('{"kind": "cell", "status": "done", "key": "to')  # crash mid-append


@pytest.mark.parametrize("kind", KINDS)
def test_torn_tail_keeps_prefix(kind, tmp_path):
    path = tmp_path / "j.jsonl"
    _journal(kind, path, ["k1", "k2"])
    _tear(path)
    reopened = _open(kind, path)
    assert reopened.is_done("k1")
    assert reopened.is_done("k2")
    assert not reopened.is_done("to")
    assert reopened.done_count == 2


@pytest.mark.parametrize("kind", KINDS)
def test_records_appended_after_a_torn_tail_survive_the_next_resume(kind, tmp_path):
    path = tmp_path / "j.jsonl"
    _journal(kind, path, ["a"])
    _tear(path)
    _journal(kind, path, ["b", "c"])  # first resume
    again = _open(kind, path)  # second resume
    assert [again.is_done(k) for k in "abc"] == [True, True, True]
    for line in path.read_text().splitlines():
        json.loads(line)


@pytest.mark.parametrize("kind", KINDS)
def test_torn_header_starts_the_journal_afresh(kind, tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_text('{"kind": "head')
    _journal(kind, path, ["a"])
    assert _open(kind, path).is_done("a")


@pytest.mark.parametrize(
    ("kind", "field"),
    [("manifest", "stamp"), ("serve", "stamp"), ("serve", "scenario")],
)
def test_identity_mismatch_rotates_stale(kind, field, tmp_path):
    path = tmp_path / "j.jsonl"
    _journal(kind, path, ["k"])
    fresh = _open(kind, path, **{field: "other"})
    assert not fresh.is_done("k")
    stale = path.with_name("j.jsonl.stale")
    assert json.loads(stale.read_text().splitlines()[0])[field] != "other"
    fresh.journal_done("k2")
    fresh.close()
    assert json.loads(path.read_text().splitlines()[0])[field] == "other"
    assert _open(kind, path, **{field: "other"}).is_done("k2")
